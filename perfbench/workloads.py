"""The benchmark's workloads, the ops they are made of, and their checks.

Load model: a closed loop. One client in one process makes sequential
calls; each op starts when the previous one has returned.

Ops (each counts once in `attempted`, and once in `failed` if it raises
or one of its checks raises CheckFailed):
  setup    search workloads: make_oracle + resolve_target;
           policy_sample: init_controller + save_controller + load_controller
  search   run_strategy, then write_jsonl of its log (what `evocell search`
           does after set-up)
  replay   harness.replay of that log (what `evocell replay` does)
  propose  sample_mutation + apply_mutation on one parent
  batch    sample_mutation_batch on a batch of parents + apply_mutation on each

A run draws its inputs (run seeds, parent cells, controller-init and
sampling seeds) from the workload seed, one round at a time. The first
`min_rounds` rounds always run, so the trajectory digest and
evals-to-target are fixed by the seed; later rounds run while time is left.

Ops are interleaved with speed probes, and op times are reported scaled
to a nominal core speed (see speed.py). Timings are medians over many
ops, and the timed set-ups are spread over the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from evocell import arch_space, controller, harness
from evocell.arch_space import SpaceConfig
from evocell.evaluators import FitnessOracle

import spans
from speed import Interval, Speed, clock


@dataclass(frozen=True)
class SearchWorkload:
    """Rounds of one search op and one replay op per strategy, one run seed."""

    name: str
    space: SpaceConfig
    oracle_kind: str
    oracle_seed: int
    pop_size: int
    sample_size: int
    budget: int
    strategies: Tuple[str, ...]
    embed_size: int = 100
    hidden_size: int = 100
    setup_repeats: int = 5
    min_rounds: int = 3
    # op kind -> the speed reference its times are scaled by (speed.py)
    references: Dict[str, str] = field(default_factory=lambda: {
        "setup": "mixed", "search": "mixed", "replay": "mixed"})

    def config(self, strategy: str) -> harness.StrategyConfig:
        return harness.StrategyConfig(
            strategy=strategy,
            space=self.space,
            oracle_kind=self.oracle_kind,
            oracle_seed=self.oracle_seed,
            pop_size=self.pop_size,
            sample_size=self.sample_size,
            budget=self.budget,
            embed_size=self.embed_size,
            hidden_size=self.hidden_size,
        )


@dataclass(frozen=True)
class SampleWorkload:
    """Rounds of propose ops on random parents plus one batch op."""

    name: str
    space: SpaceConfig
    embed_size: int = 100
    hidden_size: int = 100
    proposes_per_round: int = 40
    batch_size: int = 64
    setup_repeats: int = 5
    min_rounds: int = 3
    references: Dict[str, str] = field(default_factory=lambda: {
        "setup": "mixed", "propose": "mixed", "batch": "batched"})


Workload = Union[SearchWorkload, SampleWorkload]

WORKLOADS: Dict[str, Workload] = {
    # Criterion 7's space and oracle at a shorter budget: policy work is
    # over 99% of a step, so the policy engine dominates.
    "policy_train": SearchWorkload(
        name="policy_train",
        space=SpaceConfig(num_blocks=3, num_ops=4),
        oracle_kind="tabular",
        oracle_seed=5,
        pop_size=20,
        sample_size=5,
        budget=120,
        strategies=("reinforced", "reinforced_nonbi", "rl_construct"),
        # Building the 2.36 M-cell table, whole-array numpy, is most of a
        # set-up and of every replay.
        references={"setup": "vector", "search": "mixed", "replay": "vector"},
    ),
    # The paper's full space, too large to tabulate; no policy network runs,
    # so time goes to tournament, oracle, apply/inherit and logs.
    "evolve_landscape": SearchWorkload(
        name="evolve_landscape",
        space=SpaceConfig(num_blocks=5, num_ops=6),
        oracle_kind="landscape",
        oracle_seed=7,
        pop_size=100,
        sample_size=25,
        budget=2000,
        strategies=("ea_random", "random"),
    ),
    # Inference only, on the 25-token sequences of the full space.
    "policy_sample": SampleWorkload(
        name="policy_sample",
        space=SpaceConfig(num_blocks=5, num_ops=6),
    ),
}

# name -> unit. The end-to-end metrics every workload reports untraced.
END_TO_END = {
    "setup_s": "s",
    "ms_per_eval": "ms",
    "aux_ms_per_eval": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit. Workload-specific end-to-end figures, printed by every run
# and reported among the per-layer metrics of the traced run.
DETAILS = {
    "ms_per_eval.reinforced": "ms",
    "ms_per_eval.reinforced_nonbi": "ms",
    "ms_per_eval.rl_construct": "ms",
    "ms_per_eval.ea_random": "ms",
    "ms_per_eval.random": "ms",
    "replay_s": "s",
    "evals_to_target_p50": "evals",
    "propose_ms_p50": "ms",
    "propose_ms_p99": "ms",
    "batch_mutations_per_s": "1/s",
}

RATIOS = {
    "controller.noop_share": "fraction",
    "evolution.duplicate_share": "fraction",
    "evaluators.true_fitness_per_eval": "ratio",
    "harness.log_bytes_per_eval": "B",
    "search.policy_share": "fraction",
    "trace.overhead": "ratio",
}

PER_LAYER_SUFFIXES = {"calls": "count", "self_ms": "ms", "share": "fraction"}


def per_layer_units() -> Dict[str, str]:
    units = {
        f"{name}.{suffix}": unit
        for name in spans.SPAN_NAMES
        for suffix, unit in PER_LAYER_SUFFIXES.items()
    }
    units.update(RATIOS)
    units.update(DETAILS)
    return units


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Op outcomes and timed intervals of one pass (untraced or traced)."""

    attempted: int = 0
    failed: int = 0
    ops: List[Tuple[str, Interval]] = field(default_factory=list)  # (op kind, interval)
    setup: List[Interval] = field(default_factory=list)
    # strategy -> interval of each search op, and of each replay op
    search: Dict[str, List[Interval]] = field(default_factory=lambda: defaultdict(list))
    replay: Dict[str, List[Interval]] = field(default_factory=lambda: defaultdict(list))
    propose: List[Interval] = field(default_factory=list)
    batch: List[Tuple[Interval, int]] = field(default_factory=list)  # (interval, mutations)
    log_bytes: int = 0
    log_evals: int = 0
    evals_to_target: List[int] = field(default_factory=list)

    def timed(self, kind: str, start: float) -> Interval:
        """Close the timed region of an op of `kind` that opened at `start`."""
        interval = (start, clock())
        self.ops.append((kind, interval))
        return interval


# Far below the seconds a speed state lasts, and a few probe durations.
PROBE_EVERY_S = 0.1


class Context:
    """Where one pass writes: its tally, work directory and optional tracer.

    The passes of a run share one Speed, so an op's nearest probes are the
    nearest in time whichever pass made them.
    """

    def __init__(self, workdir: str, tally: Tally, speed: Speed,
                 tracer: Optional[spans.Tracer] = None):
        self.workdir = workdir
        self.tally = tally
        self.speed = speed
        self.tracer = tracer
        self.round_hash = hashlib.sha256()
        self.round_no = 0

    def op(self, kind: str):
        return self.tracer.op(kind) if self.tracer is not None else contextlib.nullcontext()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def attempt(self, what: str, fn: Callable, *args):
        """Run one op between speed probes; a failed op returns None.

        A probe follows an op once PROBE_EVERY_S have passed since the last
        one, so short ops share probes and long ones each have their own.
        """
        if not self.speed.ends:
            self.speed.probe()
        self.tally.attempted += 1
        try:
            return fn(self, *args)
        except CheckFailed as exc:
            problem = str(exc)
        except Exception as exc:  # an op that raises is counted, never swallowed
            problem = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if clock() - self.speed.ends[-1] >= PROBE_EVERY_S:
                self.speed.probe()
        self.tally.failed += 1
        print(f"FAILED {what}: {problem}", file=sys.stderr)
        return None


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise CheckFailed(problem)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# Search workloads
# ---------------------------------------------------------------------------


@dataclass
class SearchState:
    workload: SearchWorkload
    oracle: FitnessOracle
    target: float


def setup_search(ctx: Context, workload: SearchWorkload) -> SearchState:
    cfg = workload.config(workload.strategies[0])
    with ctx.op("setup"):
        t0 = clock()
        oracle = harness.make_oracle(cfg)
        target, _source = harness.resolve_target(oracle)
        ctx.tally.setup.append(ctx.tally.timed("setup", t0))
    _require(_finite(target) and target > 0, f"bad target {target!r}")
    return SearchState(workload, oracle, target)


def search_op(ctx: Context, state: SearchState, strategy: str, run_seed: int,
              path: str) -> None:
    cfg = state.workload.config(strategy)
    with ctx.op("search"):
        t0 = clock()
        summary, log = harness.run_strategy(cfg, run_seed, state.oracle, state.target)
        harness.write_jsonl(path, log)
        interval = ctx.tally.timed("search", t0)
    evals = len(summary.true_per_eval)
    ctx.tally.search[strategy].append(interval)
    ctx.tally.log_bytes += os.path.getsize(path)
    ctx.tally.log_evals += evals
    with open(path, "rb") as fh:
        ctx.round_hash.update(fh.read())
    if strategy == "reinforced" and ctx.round_no < state.workload.min_rounds:
        # censored at budget + 1, as build_report does
        reached = summary.evals_to_target
        ctx.tally.evals_to_target.append(cfg.budget + 1 if reached is None else reached)
    _require(evals == cfg.budget, f"{evals} evaluations for a budget of {cfg.budget}")
    _require(_finite(summary.final_best_true, *summary.true_per_eval), "non-finite true fitness")


def replay_op(ctx: Context, state: SearchState, strategy: str, path: str) -> None:
    with ctx.op("replay"):
        t0 = clock()
        replayed = harness.replay(path)
        interval = ctx.tally.timed("replay", t0)
    ctx.tally.replay[strategy].append(interval)
    records = harness.read_jsonl(path)
    logged = records[-1]
    if strategy in harness.POPULATION_STRATEGIES:
        _require(replayed == logged, "replayed final record differs from the logged one")
        return
    _require((replayed["best_cell"], replayed["best_true"]) == (logged["best_cell"], logged["best_true"]),
             "replayed best differs from the logged one")
    logged_fitness = [r["fitness"] for r in records if r["kind"] == "eval"]
    _require([e["fitness"] for e in replayed["evals"]] == logged_fitness,
             "replayed evaluations differ from the logged ones")


def search_round(state: SearchState, rng: np.random.Generator):
    """Draw one round's input; returns a function that runs the round."""
    run_seed = int(rng.integers(0, 2**31 - 1))

    def run(ctx: Context) -> None:
        for strategy in state.workload.strategies:
            path = ctx.path(f"trace_{strategy}_{run_seed}.jsonl")
            try:
                ctx.attempt(f"search {strategy} seed={run_seed}", search_op,
                            state, strategy, run_seed, path)
                if os.path.exists(path):
                    ctx.attempt(f"replay {strategy} seed={run_seed}", replay_op,
                                state, strategy, path)
            finally:
                if os.path.exists(path):
                    os.remove(path)

    return run


# ---------------------------------------------------------------------------
# policy_sample
# ---------------------------------------------------------------------------


@dataclass
class SampleState:
    workload: SampleWorkload
    params: controller.ControllerParams


def setup_sample(ctx: Context, workload: SampleWorkload, init_seed: int) -> SampleState:
    path = ctx.path("controller.json")
    with ctx.op("setup"):
        t0 = clock()
        fresh = controller.init_controller(
            workload.space, np.random.default_rng(init_seed),
            embed_size=workload.embed_size, hidden_size=workload.hidden_size,
            bidirectional=True)
        controller.save_controller(path, fresh)
        params = controller.load_controller(path)
        ctx.tally.setup.append(ctx.tally.timed("setup", t0))
    os.remove(path)
    for (name, a), (_, b) in zip(fresh.named_params(), params.named_params()):
        _require(np.array_equal(a.data, b.data), f"checkpoint round trip changed {name}")
    return SampleState(workload, params)


def _check_children(ctx: Context, space: SpaceConfig, parents, traces, children) -> None:
    _require(len(children) == len(parents), f"{len(children)} children for {len(parents)} parents")
    for parent, trace, child in zip(parents, traces, children):
        ctx.round_hash.update(json.dumps(controller.trace_to_dict(trace),
                                         sort_keys=True).encode())
        violation = arch_space.validate(child, space)
        _require(violation is None,
                 f"child of {arch_space.cell_to_text(parent)} invalid: {violation}")
        _require(_finite(trace.total_logprob, trace.total_entropy),
                 "non-finite log-prob or entropy")


def propose_op(ctx: Context, state: SampleState, parent, rng) -> None:
    with ctx.op("propose"):
        t0 = clock()
        trace = controller.sample_mutation(state.params, parent, rng)
        child = controller.apply_mutation(parent, trace)
        ctx.tally.propose.append(ctx.tally.timed("propose", t0))
    _check_children(ctx, state.workload.space, [parent], [trace], [child])


def batch_op(ctx: Context, state: SampleState, parents, rng) -> None:
    with ctx.op("batch"):
        t0 = clock()
        traces = controller.sample_mutation_batch(state.params, parents, rng)
        children = [controller.apply_mutation(p, t) for p, t in zip(parents, traces)]
        interval = ctx.tally.timed("batch", t0)
    ctx.tally.batch.append((interval, len(children)))
    _check_children(ctx, state.workload.space, parents, traces, children)


def sample_round(state: SampleState, rng: np.random.Generator):
    w = state.workload
    parents = [arch_space.random_cell(w.space, rng)
               for _ in range(w.proposes_per_round + w.batch_size)]
    sampling_seed = int(rng.integers(0, 2**31 - 1))

    def run(ctx: Context) -> None:
        sampler = np.random.default_rng(sampling_seed)
        for i, parent in enumerate(parents[: w.proposes_per_round]):
            ctx.attempt(f"propose {i} seed={sampling_seed}", propose_op, state, parent, sampler)
        ctx.attempt(f"batch seed={sampling_seed}", batch_op, state,
                    parents[w.proposes_per_round:], sampler)

    return run


# ---------------------------------------------------------------------------
# Driving a workload
# ---------------------------------------------------------------------------


def _setup(ctx: Context, workload: Workload, init_seed: int):
    if isinstance(workload, SearchWorkload):
        state = ctx.attempt("setup", setup_search, workload)
    else:
        state = ctx.attempt("setup", setup_sample, workload, init_seed)
    if state is None:
        raise RuntimeError(f"{workload.name}: set-up failed, no op can run")
    return state


def _round(state, rng: np.random.Generator):
    if isinstance(state, SearchState):
        return search_round(state, rng)
    return sample_round(state, rng)


def _play(ctx: Context, run_round, round_no: int) -> str:
    ctx.round_no = round_no
    ctx.round_hash = hashlib.sha256()
    run_round(ctx)
    return ctx.round_hash.hexdigest()


@dataclass
class Outcome:
    workload: Workload
    seed: int
    untraced: Tally
    traced: Optional[Tally]
    tracer: Optional[spans.Tracer]
    speed: Speed
    rounds: int
    digest: str
    wall_s: float


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    """Set up, then play rounds.

    Untraced: rounds for `seconds` of round time, with `setup_repeats` timed
    set-ups spread evenly over it. Traced: `min_rounds` rounds, each played
    untraced and then traced on the same inputs, so that the tracing
    overhead can be read and call counts are fixed by the seed.
    """
    started = clock()
    rng = np.random.default_rng(seed)
    init_seed = int(rng.integers(0, 2**31 - 1))
    speed = Speed()
    untraced = Context(workdir, Tally(), speed)
    digest = hashlib.sha256()
    if not trace:
        state = _setup(untraced, workload, init_seed)
        setups, rounds, measured = 1, 0, 0.0
        while rounds < workload.min_rounds or measured < seconds:
            if setups < workload.setup_repeats and measured >= seconds * setups / workload.setup_repeats:
                _setup(untraced, workload, init_seed)
                setups += 1
            t0 = clock()
            round_digest = _play(untraced, _round(state, rng), rounds)
            measured += clock() - t0
            if rounds < workload.min_rounds:
                digest.update(round_digest.encode())
            rounds += 1
        for _ in range(setups, workload.setup_repeats):
            _setup(untraced, workload, init_seed)
        return Outcome(workload, seed, untraced.tally, None, None, speed, rounds,
                       digest.hexdigest(), clock() - started)

    tracer = spans.Tracer()
    traced = Context(workdir, Tally(), speed, tracer)
    state = _setup(untraced, workload, init_seed)
    with spans.instrument(tracer):
        _setup(traced, workload, init_seed)
    for rounds in range(workload.min_rounds):
        run_round = _round(state, rng)
        round_digest = _play(untraced, run_round, rounds)
        with spans.instrument(tracer):
            traced_digest = _play(traced, run_round, rounds)
        if traced_digest != round_digest:
            traced.tally.failed += 1
            print(f"FAILED round {rounds}: traced outputs differ from untraced ones",
                  file=sys.stderr)
        digest.update(round_digest.encode())
    return Outcome(workload, seed, untraced.tally, traced.tally, tracer, speed,
                   workload.min_rounds, digest.hexdigest(), clock() - started)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _scaler(outcome: Outcome, op_kind: str) -> Callable[[Interval], float]:
    """Scaled seconds of an interval of an op of this kind."""
    reference = outcome.workload.references[op_kind]
    return lambda interval: outcome.speed.scaled(interval, reference)


def _ms_per_eval(scaled: Callable[[Interval], float], ops: Dict[str, List[Interval]],
                 evals: int) -> float:
    """Mean over strategies of the median scaled op time per evaluation."""
    medians = [statistics.median(map(scaled, intervals)) for intervals in ops.values()]
    return 1000.0 * sum(medians) / (evals * len(medians))


def _scaled_total(outcome: Outcome, tally: Tally) -> float:
    return sum(_scaler(outcome, kind)(interval) for kind, interval in tally.ops)


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    tally, workload = outcome.untraced, outcome.workload
    if isinstance(workload, SearchWorkload):
        main = _ms_per_eval(_scaler(outcome, "search"), tally.search, workload.budget)
        aux = _ms_per_eval(_scaler(outcome, "replay"), tally.replay, workload.budget)
    else:
        main = 1000.0 * statistics.median(map(_scaler(outcome, "propose"), tally.propose))
        batch = _scaler(outcome, "batch")
        aux = 1000.0 * statistics.median(batch(iv) / n for iv, n in tally.batch)
    return {
        "setup_s": statistics.median(map(_scaler(outcome, "setup"), tally.setup)),
        "ms_per_eval": main,
        "aux_ms_per_eval": aux,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def details(outcome: Outcome) -> Dict[str, float]:
    """The workload's own end-to-end figures, keyed as in DETAILS."""
    tally = outcome.untraced
    out: Dict[str, float] = {}
    for strategy, intervals in sorted(tally.search.items()):
        out[f"ms_per_eval.{strategy}"] = _ms_per_eval(
            _scaler(outcome, "search"), {strategy: intervals}, outcome.workload.budget)
    if tally.replay:
        replay = _scaler(outcome, "replay")
        out["replay_s"] = statistics.median(
            replay(iv) for intervals in tally.replay.values() for iv in intervals)
    if tally.evals_to_target:
        out["evals_to_target_p50"] = float(statistics.median(tally.evals_to_target))
    if tally.propose:
        latencies = [1000.0 * s for s in map(_scaler(outcome, "propose"), tally.propose)]
        out["propose_ms_p50"] = float(np.percentile(latencies, 50))
        out["propose_ms_p99"] = float(np.percentile(latencies, 99))
    if tally.batch:
        batch = _scaler(outcome, "batch")
        out["batch_mutations_per_s"] = (
            sum(n for _, n in tally.batch) / sum(batch(iv) for iv, _ in tally.batch))
    return out


def sample_counts(outcome: Outcome) -> Dict[str, int]:
    tally = outcome.untraced
    return {
        "search": sum(len(r) for r in tally.search.values()),
        "replay": sum(len(r) for r in tally.replay.values()),
        "propose": len(tally.propose),
        "batch": len(tally.batch),
        "setup": len(tally.setup),
    }


def per_layer(outcome: Outcome) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics of a traced outcome, and the full layer table."""
    tracer = outcome.tracer
    table, _wall = spans.layer_table(tracer)
    out: Dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        row = table.get(name, {"calls": 0, "self_ms": 0.0, "share": 0.0})
        for suffix in PER_LAYER_SUFFIXES:
            out[f"{name}.{suffix}"] = float(row[suffix])
    c = tracer.counters
    evaluations = spans.calls_in(tracer, "evaluators.evaluate", "search")
    out["controller.noop_share"] = c["noop_mutations"] / c["mutations"] if c["mutations"] else 0.0
    out["evolution.duplicate_share"] = (
        c["duplicate_children"] / c["children"] if c["children"] else 0.0)
    out["evaluators.true_fitness_per_eval"] = (
        spans.calls_in(tracer, "evaluators.true_fitness", "search") / evaluations
        if evaluations else 0.0)
    untraced = outcome.untraced
    out["harness.log_bytes_per_eval"] = (
        untraced.log_bytes / untraced.log_evals if untraced.log_evals else 0.0)
    out["search.policy_share"] = spans.policy_share_of_search(tracer)
    out["trace.overhead"] = _scaled_total(outcome, outcome.traced) / _scaled_total(outcome, untraced)
    found = details(outcome)
    for name in DETAILS:
        out[name] = found.get(name, 0.0)
    return out, table
