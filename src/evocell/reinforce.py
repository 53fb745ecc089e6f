"""Policy-gradient updates with tangent reward shaping.

Fitness in [0, 1) is mapped through tan(f * pi/2), which stretches the top
of the range so that small gains near the ceiling dominate the signal. The
total reward adds a small entropy bonus, an exponential-moving-average
baseline (on by default, switchable off) centers it, and a single Adam step
follows every child evaluation: on-policy, batch size one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import tandg

from . import controller as ctrl
from .arch_space import CellSpec
from .nn_core import AdamState, ParamViews, Tensor, adam_step, flat_buffer

FITNESS_CLIP = 0.999


def shaped_reward(fitness: float, clip: float = FITNESS_CLIP) -> float:
    """tan(min(fitness, clip) * pi/2); rejects negative fitness."""
    if fitness < 0.0:
        raise ValueError(f"fitness must be non-negative, got {fitness}")
    # tandg reduces the angle exactly, so f=0.5 maps to exactly 1.0 (tan of
    # a rounded pi/4 would land one ulp short).
    return float(tandg(min(fitness, clip) * 90.0))


@dataclass
class RewardConfig:
    entropy_weight: float = 0.1
    fitness_clip: float = FITNESS_CLIP
    baseline: Optional[str] = "ema"  # "ema" or None for the raw-reward form
    baseline_decay: float = 0.95

    def __post_init__(self) -> None:
        if self.baseline not in (None, "ema"):
            raise ValueError(f"unknown baseline kind {self.baseline!r}")


GradFn = Callable[[], Tuple[float, ParamViews]]


class ReinforceTrainer:
    """One optimizer + baseline around a set of policy parameters.

    The trainer is policy-agnostic: update() takes a closure that returns
    the log-probability of whatever was sampled and its gradient, a flat
    vector in the parameters' layout. The parameters must be views tiling
    one flat buffer, as every policy's named_params() are. The EMA baseline
    initializes to the first observed reward and is always updated after
    the advantage that used it.
    """

    def __init__(
        self,
        named_params: Sequence[Tuple[str, Tensor]],
        cfg: Optional[RewardConfig] = None,
        lr: float = 0.001,
    ):
        self.params = flat_buffer(list(named_params))
        self.cfg = cfg or RewardConfig()
        self.adam = AdamState(lr=lr)
        self.baseline: Optional[float] = None
        self.steps = 0

    def update(
        self,
        grad_fn: GradFn,
        entropy: float,
        fitness: float,
    ) -> Dict[str, float]:
        """Single REINFORCE step; returns step diagnostics.

        grad_fn() returns (log-prob, d log-prob / d params) with the
        gradient in the parameters' layout; the trainer scales it in place
        into the loss gradient. Raises RuntimeError, naming the parameter,
        if any gradient entry turns non-finite.
        """
        reward = (
            shaped_reward(fitness, self.cfg.fitness_clip)
            + self.cfg.entropy_weight * entropy
        )
        if self.cfg.baseline == "ema":
            base = reward if self.baseline is None else self.baseline
        else:
            base = 0.0
        advantage = reward - base

        logp, grads = grad_fn()
        if grads.layout != self.params.layout:
            raise ValueError("gradient layout differs from the parameters'")
        g = grads.flat
        g *= -advantage  # loss = -advantage * log-prob
        sq_sum = float(np.vdot(g, g))
        # the norm doubles as the finiteness check: a NaN or inf entry makes
        # it non-finite, and only then (or on overflow) is the vector scanned
        if not math.isfinite(sq_sum):
            bad = np.flatnonzero(~np.isfinite(g))
            if bad.size:
                raise RuntimeError(
                    f"non-finite gradient in {self.params.layout.name_at(bad[0])!r} "
                    f"at step {self.steps} (reward={reward}, advantage={advantage})"
                )
        grad_norm = math.sqrt(sq_sum)

        adam_step(self.adam, self.params.flat, g)
        if self.cfg.baseline == "ema":
            self.baseline = (
                self.cfg.baseline_decay * base
                + (1.0 - self.cfg.baseline_decay) * reward
            )
        self.steps += 1
        return {
            "step": float(self.steps),
            "reward": reward,
            "advantage": advantage,
            "logprob": float(logp),
            "entropy": entropy,
            "grad_norm": grad_norm,
        }


def update_on_trace(
    trainer: ReinforceTrainer,
    params: "ctrl.ControllerParams",
    parent: CellSpec,
    trace: "ctrl.MutationTrace",
    fitness: float,
) -> Dict[str, float]:
    """Convenience glue for the mutation controller (encodes the parent anew)."""
    return trainer.update(
        lambda: ctrl.trace_grads(params, parent, trace),
        trace.total_entropy,
        fitness,
    )
