"""Tournament evolution with mutations from a proposal function.

Each step samples a subset of the population without replacement, mutates
the subset's best member, evaluates the child at inherited maturity, and
removes the subset's worst member. The step only evolves: where a mutation
comes from is the propose function it is handed, which maps the parent's
cell to a MutationTrace. A learned controller's ControllerPolicy.propose, a
uniform-random baseline's RandomMutationPolicy.propose, or a function that
takes the next logged trace all drive the identical step. Nothing trains
here: harness._records runs the loop and, for a learner, hands each
child's reward to the trainer with ControllerPolicy.grads(), the gradient
of the walk that sampled the step's mutation.

The uniform policy draws straight from its generator's bit generator:
uniform_integers reads next_uint32 through numpy's public ctypes interface
and gives rng.integers(n) bit for bit, values and stream alike, without a
Generator call per draw. Those draws bypass the Generator's lock, so the
policy owns its stream: nothing else may draw from it meanwhile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arch_space import OPS, CellSpec, SpaceConfig, cell_from_digits, random_digits
from .controller import (
    TARGETS,
    ControllerParams,
    EncoderForward,
    MutationAction,
    MutationTrace,
    apply_mutation,
    encode_forward,
    input_candidate_refs,
    sample_mutation,
    trace_grads,
)
from .evaluators import FitnessOracle, inherit_maturity
from .nn_core import ParamViews


@dataclass(frozen=True)
class Individual:
    """One evaluated cell.

    fitness is what selection reads. true_fitness is the oracle's true
    value, computed by the same evaluation and carried for analysis only:
    trajectories, the best final cell and re-evaluation at full maturity
    read it instead of asking the oracle again.
    """

    cell: CellSpec
    fitness: float  # observed fitness at birth (or after final re-evaluation)
    true_fitness: float
    maturity: float
    id: int  # its index in Population.history


@dataclass
class Population:
    """Fixed-capacity live set plus an append-only record of every birth."""

    capacity: int
    members: List[Individual] = field(default_factory=list)
    history: List[Individual] = field(default_factory=list)


class ControllerPolicy:
    """ControllerParams as a proposer: propose is evolution_step's propose.

    It keeps the encoder pass of its last proposal, on which sample_mutation
    kept the walk that sampled it, for the update that follows.
    """

    def __init__(self, params: ControllerParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        self._forward: Optional[EncoderForward] = None

    def propose(self, cell: CellSpec) -> MutationTrace:
        self._forward = encode_forward(self.params, cell)
        return sample_mutation(self.params, cell, self.rng, self._forward)

    def grads(self) -> ParamViews:
        """The gradient of the walk that sampled the last proposal, for
        ReinforceTrainer.update, whose Adam step makes that walk stale: so it
        is handed over once, and a call with no proposal since raises
        ValueError."""
        forward, self._forward = self._forward, None
        if forward is None:
            raise ValueError("grads() needs a proposal since the last call")
        return trace_grads(self.params, forward)


def _log_count(n: int) -> float:
    """float(np.log(n)): the logged log-probabilities keep numpy's bits."""
    return float(np.log(float(n)))


@functools.cache
def _uniform_tables(num_blocks: int, num_ops: int):
    """RandomMutationPolicy's tables for one space, built once: per block,
    per target, every action the uniform policy can take there, in
    candidate order, with its log-probs and entropies set, each paired with
    the two terms a trace's totals add for it (router + replacement
    log-prob, router + replacement entropy)."""
    log4, log_ops = _log_count(len(TARGETS)), _log_count(num_ops)
    blocks = []
    for b in range(1, num_blocks + 1):
        refs = input_candidate_refs(b)
        per_target = []
        for target in TARGETS:
            if target < 2:  # I1 or I2
                choices, log_n = refs, _log_count(len(refs))
            else:
                choices, log_n = OPS[:num_ops], log_ops
            per_target.append(
                tuple(
                    (
                        MutationAction(b, target, choice, -log4, -log_n, log4, log_n),
                        -log4 + -log_n,
                        log4 + log_n,
                    )
                    for choice in choices
                )
            )
        blocks.append(tuple(per_target))
    return tuple(blocks)


def uniform_integers(rng: np.random.Generator) -> Callable[[int], int]:
    """rng.integers as a function of n alone, for 1 <= n < 2**32: the same
    value as a Python int, and the bit generator left in the same state.

    Each draw is numpy's own bounded step (Lemire, arXiv 1805.10941) on the
    bit generator's next_uint32: m = u * n, rejected while its low 32 bits
    fall below (2**32 - n) % n, gives m >> 32; n == 1 draws nothing. The
    draws skip the Generator's call overhead and its lock.
    """
    bits = rng.bit_generator
    interface = bits.ctypes

    # _bits keeps alive the bit generator whose state _state addresses
    def integers(
        n: int, *, _next=interface.next_uint32, _state=interface.state_address,
        _bits=bits,
    ) -> int:
        if n == 1:
            return 0
        m = _next(_state) * n
        if m & 0xFFFFFFFF < n:  # n bounds the threshold; only then compute it
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = _next(_state) * n
        return m >> 32

    return integers


class RandomMutationPolicy:
    """Uniform target and uniform legal replacement; no learning signal.

    Log-probabilities are recorded against the uniform distributions so
    traces stay self-consistent, though nothing trains on them. It owns
    rng: its draws, through uniform_integers, bypass the Generator's lock.
    """

    def __init__(self, cfg: SpaceConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self._integers = uniform_integers(rng)

    def propose(self, cell: CellSpec) -> MutationTrace:
        """Per block, one draw of the target, then one of the replacement
        among that field's candidates; the action drawn comes prebuilt from
        the space's tables."""
        actions = []
        total_lp = 0.0
        total_h = 0.0
        integers = self._integers
        for per_target in _uniform_tables(cell.num_blocks, cell.num_ops):
            options = per_target[integers(4)]
            action, lp, h = options[integers(len(options))]
            actions.append(action)
            total_lp += lp
            total_h += h
        return MutationTrace(tuple(actions), total_lp, total_h)


@dataclass
class StepRecord:
    """One step; its fields are the logged step record's (harness.step_record)."""

    step: int
    sampled_ids: List[int]
    parent_id: int
    parent_fitness: float
    child_id: int
    child_fitness: float
    child_maturity: float
    removed_id: int
    trace: MutationTrace
    diagnostics: Optional[Dict[str, float]] = None  # a learner's update, set by _records


def initialize(
    cfg: SpaceConfig,
    oracle: FitnessOracle,
    pop_size: int,
    rng: np.random.Generator,
    eval_rng: np.random.Generator,
) -> Population:
    """Evaluate pop_size random cells at the initial training budget.

    Their digits come from one random_digits call, the same stream as one
    random_cell call per cell.
    """
    if pop_size < 1:
        raise ValueError(f"pop_size must be >= 1, got {pop_size}")
    pop = Population(capacity=pop_size)
    m0 = oracle.maturity.initial_maturity()
    for row in random_digits(cfg, rng, pop_size).tolist():
        cell = cell_from_digits(row, cfg)
        fit, true = oracle.evaluate(cell, m0, eval_rng)
        ind = Individual(cell, fit, true, m0, id=len(pop.history))
        pop.members.append(ind)
        pop.history.append(ind)
    return pop


def tournament(sample: Sequence[Individual]) -> Tuple[Individual, Individual]:
    """The sample's best and worst member, found in one pass: the best has
    the highest fitness, ties going to the lower id; the worst the lowest,
    ties going to the higher id."""
    best = worst = sample[0]
    high = low = best.fitness
    for ind in sample:
        fitness = ind.fitness
        if fitness >= high and (fitness > high or ind.id < best.id):
            best, high = ind, fitness
        if fitness <= low and (fitness < low or ind.id > worst.id):
            worst, low = ind, fitness
    return best, worst


def evolution_step(
    pop: Population,
    propose: Callable[[CellSpec], MutationTrace],
    oracle: FitnessOracle,
    sample_size: int,
    rng: np.random.Generator,
    eval_rng: np.random.Generator,
    step: int = 0,
) -> StepRecord:
    """One select-mutate-evaluate-replace round; propose(parent cell) gives
    the mutation."""
    if not 2 <= sample_size <= len(pop.members):
        raise ValueError(
            f"sample_size must be in [2, {len(pop.members)}], got {sample_size}"
        )
    picks = rng.choice(len(pop.members), size=sample_size, replace=False).tolist()
    sample = [pop.members[i] for i in picks]
    parent, doomed = tournament(sample)

    trace = propose(parent.cell)
    child_cell = apply_mutation(parent.cell, trace)
    child_maturity = inherit_maturity(
        oracle.maturity, parent.maturity, parent.cell, child_cell
    )
    child_fitness, child_true = oracle.evaluate(child_cell, child_maturity, eval_rng)
    child = Individual(
        child_cell, child_fitness, child_true, child_maturity, id=len(pop.history)
    )
    del pop.members[next(i for i, ind in zip(picks, sample) if ind is doomed)]
    pop.members.append(child)
    pop.history.append(child)
    return StepRecord(
        step=step,
        sampled_ids=[ind.id for ind in sample],
        parent_id=parent.id,
        parent_fitness=parent.fitness,
        child_id=child.id,
        child_fitness=child_fitness,
        child_maturity=child_maturity,
        removed_id=doomed.id,
        trace=trace,
    )


def reevaluate_finalists(
    pop: Population, oracle: FitnessOracle, eval_rng: np.random.Generator
) -> Individual:
    """The best member by true fitness, once every survivor of a pop that
    evolved is observed at the full training budget (maturity 1.0), as a
    from-scratch retrain of the finalists would be; history keeps births."""
    if len(pop.history) > pop.capacity:
        observe = oracle.observe
        pop.members = [
            replace(ind, fitness=observe(ind.true_fitness, 1.0, eval_rng), maturity=1.0)
            for ind in pop.members
        ]
    return max(pop.members, key=lambda ind: (ind.true_fitness, -ind.id))


def rng_streams(seed: int) -> Dict[str, np.random.Generator]:
    """Independent named streams so that replay can skip the policy draw.

    Spawn order is part of the log format: init, tournament, policy, eval,
    params.
    """
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(5)
    names = ("init", "tournament", "policy", "eval", "params")
    return {name: np.random.default_rng(s) for name, s in zip(names, children)}
