"""Policy-gradient updates with tangent reward shaping.

Fitness in [0, 1) is mapped through tan(f * pi/2), clipped at FITNESS_CLIP,
which stretches the top of the range so that small gains near the ceiling
dominate the signal. The total reward adds a small entropy bonus, an
exponential-moving-average baseline (decay BASELINE_DECAY, always on)
centers it, and a single Adam step follows every child evaluation:
on-policy, batch size one. The caller computes the gradient
of the sampled action's log-probability; the trainer shapes the reward,
scales the gradient by the advantage and applies it. REINFORCE needs the
log-probability's gradient, never its value, so the trainer takes no
log-probability.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from .nn_core import AdamState, ParamViews, adam_step

FITNESS_CLIP = 0.999
BASELINE_DECAY = 0.95
_PI180 = math.pi / 180.0  # cephes' PI180


def shaped_reward(fitness: float) -> float:
    """tan(min(fitness, FITNESS_CLIP) * pi/2); rejects negative fitness."""
    if fitness < 0.0:
        raise ValueError(f"fitness must be non-negative, got {fitness}")
    degrees = min(fitness, FITNESS_CLIP) * 90.0
    # The angle is reduced as cephes' tandg reduces it, so f=0.5 maps to
    # exactly 1.0 (tan of a rounded pi/4 would land one ulp short) and both
    # zeros to +0.0; every other angle is tan(degrees * PI180), bit for bit.
    if degrees == 0.0:
        return 0.0
    if degrees == 45.0:
        return 1.0
    return math.tan(degrees * _PI180)


class ReinforceTrainer:
    """One optimizer + baseline around a policy's flat parameter buffer.

    The trainer is policy-agnostic: it takes the policy's ParamViews and
    steps their .flat buffer in place, and update() takes the gradient of
    the sampled action's log-probability in the same .layout, as each
    policy's grads() returns it. lr and entropy_weight are the run's
    settings, which StrategyConfig holds and checks. The EMA baseline
    initializes to the first observed reward and is always updated after
    the advantage that used it.
    """

    def __init__(self, params: ParamViews, lr: float, entropy_weight: float):
        self.params = params
        self.entropy_weight = entropy_weight
        self.adam = AdamState(lr=lr)
        self.baseline: Optional[float] = None
        self.steps = 0

    def update(
        self, grads: ParamViews, entropy: float, fitness: float
    ) -> Dict[str, float]:
        """Single REINFORCE step; returns its reward, advantage and the
        norm of the loss gradient.

        grads is d log-prob / d params in the parameters' layout; the
        trainer scales it in place into the loss gradient. Raises
        RuntimeError, naming the parameter, if any gradient entry turns
        non-finite; the parameters are then unchanged.
        """
        reward = shaped_reward(fitness) + self.entropy_weight * entropy
        base = reward if self.baseline is None else self.baseline
        advantage = reward - base

        if grads.layout != self.params.layout:
            raise ValueError("gradient layout differs from the parameters'")
        g = grads.flat
        g *= -advantage  # loss = -advantage * log-prob
        # einsum sums without BLAS, whose threads would split the sum and
        # round it differently at each thread count. The norm doubles as the
        # finiteness check: a NaN or inf entry makes it non-finite, and only
        # then (or on overflow) is the vector scanned.
        sq_sum = float(np.einsum("i,i->", g, g))
        if not math.isfinite(sq_sum):
            bad = np.flatnonzero(~np.isfinite(g))
            if bad.size:
                raise RuntimeError(
                    f"non-finite gradient in {self.params.layout.name_at(bad[0])!r} "
                    f"at step {self.steps} (reward={reward}, advantage={advantage})"
                )
        grad_norm = math.sqrt(sq_sum)

        adam_step(self.adam, self.params.flat, g)
        self.baseline = BASELINE_DECAY * base + (1.0 - BASELINE_DECAY) * reward
        self.steps += 1
        return {"reward": reward, "advantage": advantage, "grad_norm": grad_norm}
