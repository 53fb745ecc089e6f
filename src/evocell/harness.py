"""Strategy runners, head-to-head comparison, run logs, and replay.

Five search strategies share one oracle and one seeding discipline:

  reinforced        tournament evolution, mutations from the learned
                    bidirectional controller, one policy-gradient update
                    per child
  reinforced_nonbi  same, with the forward-only encoder ablation
  ea_random         tournament evolution with uniform random mutations
  rl_construct      a recurrent policy builds cells from scratch,
                    trained with the same reward shaping, no inheritance
  random            uniform random sampling at full training budget

Each run emits a JSONL trace sufficient to re-derive every evaluated cell
without the policy networks, so any logged run can be replayed bit-exactly.
Comparisons are scored on evaluations-to-target (target defaults to 99% of
the oracle optimum) with rank-sum significance and bootstrap confidence
intervals on paired speedups.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .arch_space import (
    CellSpec,
    SpaceConfig,
    cell_digits,
    cell_from_digits,
    cell_from_text,
    cell_to_text,
    random_cell,
    random_digits,
    vocab_size,
)
from . import nn_core
from .nn_core import (
    LSTMParams,
    ParamLayout,
    ParamViews,
    Tensor,
    entropy_from_logp,
    entropy_from_logp_np,
    log_softmax,
    sample_index_np,
    shape_logits,
)
from .controller import (
    ControllerParams,
    MutationTrace,
    init_controller,
    trace_from_dict,
    trace_to_dict,
)
from .evaluators import (
    FitnessOracle,
    LandscapeOracle,
    MaturityModel,
    TabularOracle,
    build_tabular,
    load_oracle,
)
from .evolution import (
    ControllerPolicy,
    Population,
    RandomMutationPolicy,
    ReplayMutationPolicy,
    RunResult,
    StepRecord,
    rng_streams,
    run as run_evolution,
)
from .reinforce import ReinforceTrainer, RewardConfig

STRATEGIES = (
    "reinforced",
    "reinforced_nonbi",
    "ea_random",
    "rl_construct",
    "random",
)

POPULATION_STRATEGIES = ("reinforced", "reinforced_nonbi", "ea_random")

TARGET_FRACTION = 0.99
LOG_VERSION = 1
PILOT_SAMPLES = 20_000
PILOT_CHUNK = 1_000  # rows per draw, so the pilot adds no visible peak memory


class ConfigError(ValueError):
    """Raised for invalid run configuration; the CLI exits nonzero on it."""


@dataclass
class StrategyConfig:
    """Everything needed to reproduce a run except the seed."""

    strategy: str
    space: SpaceConfig
    oracle_kind: str = "tabular"  # tabular | landscape | file
    oracle_seed: int = 7
    oracle_path: Optional[str] = None
    pop_size: int = 20
    sample_size: int = 5
    budget: int = 500  # total oracle evaluations, initialization included
    noise: Optional[float] = None  # observation sigma; None keeps defaults
    embed_size: int = 100
    hidden_size: int = 100
    learning_rate: float = 0.001
    entropy_weight: float = 0.1
    baseline: Optional[str] = "ema"
    baseline_decay: float = 0.95
    fitness_clip: float = 0.999


def validate_config(cfg: StrategyConfig) -> None:
    if cfg.strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {cfg.strategy!r}; choose from {', '.join(STRATEGIES)}"
        )
    if cfg.budget < 1:
        raise ConfigError(f"budget must be >= 1, got {cfg.budget}")
    if cfg.strategy in POPULATION_STRATEGIES:
        if cfg.pop_size < 2:
            raise ConfigError(f"pop_size must be >= 2, got {cfg.pop_size}")
        if not 2 <= cfg.sample_size <= cfg.pop_size:
            raise ConfigError(
                f"sample_size must be in [2, pop_size], got {cfg.sample_size}"
            )
        if cfg.budget < cfg.pop_size:
            raise ConfigError(
                "budget must cover initialization: "
                f"budget={cfg.budget} < pop_size={cfg.pop_size}"
            )
    if cfg.oracle_kind not in ("tabular", "landscape", "file"):
        raise ConfigError(f"unknown oracle kind {cfg.oracle_kind!r}")
    if cfg.oracle_kind == "file" and not cfg.oracle_path:
        raise ConfigError("oracle kind 'file' requires a path")
    if cfg.noise is not None and cfg.noise < 0:
        raise ConfigError(f"noise must be >= 0, got {cfg.noise}")
    if cfg.baseline not in (None, "ema"):
        raise ConfigError(f"unknown baseline {cfg.baseline!r}")


def make_oracle(cfg: StrategyConfig) -> FitnessOracle:
    sigma = cfg.noise if cfg.noise is not None else 0.01
    maturity = MaturityModel(sigma=sigma)
    if cfg.oracle_kind == "tabular":
        return build_tabular(cfg.space, cfg.oracle_seed, maturity)
    if cfg.oracle_kind == "landscape":
        return LandscapeOracle(cfg.space, cfg.oracle_seed, maturity)
    oracle = load_oracle(cfg.oracle_path)
    if oracle.cfg != cfg.space:
        raise ConfigError(
            f"oracle file space {oracle.cfg} does not match requested {cfg.space}"
        )
    if cfg.noise is not None:
        oracle.maturity.sigma = cfg.noise
    return oracle


def pilot_digits(oracle: FitnessOracle) -> Iterator[np.ndarray]:
    """The target pilot's PILOT_SAMPLES random digit rows, from its fixed
    seed, in PILOT_CHUNK-row random_digits calls; the rows, like the
    stream, are the same as from one call."""
    pilot_rng = np.random.default_rng((oracle.seed or 0) + 1_000_003)
    for _ in range(PILOT_SAMPLES // PILOT_CHUNK):
        yield random_digits(oracle.cfg, pilot_rng, PILOT_CHUNK)


def resolve_target(oracle: FitnessOracle) -> Tuple[float, str]:
    """Target true fitness for evaluations-to-target accounting.

    Tabular oracles expose their optimum; a landscape oracle's stand-in is
    the best of a fixed-seed random pilot, drawn as digit matrices and
    scored as arrays. The draw is stream-identical to PILOT_SAMPLES
    random_cell calls, so the target equals
    max(true_fitness(random_cell(...))) bit for bit.
    """
    if isinstance(oracle, TabularOracle):
        return TARGET_FRACTION * oracle.optimum_fitness, "oracle_optimum"
    best = max(oracle.max_true_fitness(rows) for rows in pilot_digits(oracle))
    return TARGET_FRACTION * best, f"random_pilot({PILOT_SAMPLES})"


# ---------------------------------------------------------------------------
# Sequential construction policy (rl_construct)
# ---------------------------------------------------------------------------


@dataclass
class _ConstructionWalk:
    """One pass of the construction policy, kept for its gradient."""

    cell: CellSpec
    digits: List[int]  # the choice made at each step
    tokens: List[int]  # the token each choice feeds to the next step
    cache: nn_core.LSTMCache
    total_logprob: float
    total_entropy: float


class ConstructionPolicy:
    """Recurrent policy that emits a cell as 4 * num_blocks choices.

    Per block, in order: i1, i2, o1, o2. Input choices are scored by a
    shared head over the first b+1 slots (the legal references at block b);
    ops by a separate head over the active subset. Chosen tokens feed back
    as the next LSTM input, starting from a learned start vector. All
    logits pass through the same squash as the mutation controller. Every
    tensor is a view into one flat buffer (self.flat, laid out by
    self.layout).
    """

    def __init__(
        self,
        cfg: SpaceConfig,
        rng: np.random.Generator,
        embed_size: int = 100,
        hidden_size: int = 100,
    ):
        self.cfg = cfg
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        B = cfg.num_blocks
        self.layout = ParamLayout(
            [
                ("embedding", (vocab_size(B), embed_size)),
                ("start", (1, embed_size)),
                *nn_core.lstm_spec("lstm", embed_size, hidden_size),
                ("w_input", (hidden_size, B + 1)),
                ("b_input", (1, B + 1)),
                ("w_op", (hidden_size, cfg.num_ops)),
                ("b_op", (1, cfg.num_ops)),
            ]
        )
        self.flat = self.layout.draw(rng)
        t = self.layout.tensors(self.flat)
        self.embedding = t["embedding"]
        self.start = t["start"]
        self.lstm = LSTMParams(*nn_core.lstm_entries(t, "lstm"))
        self.w_input = t["w_input"]
        self.b_input = t["b_input"]
        self.w_op = t["w_op"]
        self.b_op = t["b_op"]
        self._last: Optional[_ConstructionWalk] = None

    def named_params(self) -> List[Tuple[str, Tensor]]:
        return self.layout.named(self)

    def _decision_plan(self) -> List[Tuple[str, int]]:
        plan = []
        for b in range(1, self.cfg.num_blocks + 1):
            plan.extend((("input", b), ("input", b), ("op", b), ("op", b)))
        return plan

    def _raw(self, kind: str, b: int, h: np.ndarray) -> np.ndarray:
        if kind == "input":
            return (h @ self.w_input.data + self.b_input.data[0])[: b + 1]
        return h @ self.w_op.data + self.b_op.data[0]

    def _walk(
        self, rng: Optional[np.random.Generator], digits: Optional[Sequence[int]] = None
    ) -> _ConstructionWalk:
        """Run the policy over one cell: sample each choice from rng, or
        teacher-force the given digits. Both fill the LSTM cache identically."""
        T = 4 * self.cfg.num_blocks
        X = np.empty((T, 1, self.embed_size))
        cache = nn_core.LSTMCache.empty(X, self.hidden_size)
        op_base = 2 + self.cfg.num_blocks
        x = self.start.data[0]
        chosen: List[int] = []
        tokens: List[int] = []
        total_lp = 0.0
        total_h = 0.0
        for t, (kind, b) in enumerate(self._decision_plan()):
            cache.X[t, 0] = x
            np.matmul(x, self.lstm.Wx.data, out=cache.gates[t, 0])
            nn_core.lstm_step_np(self.lstm, cache, t)
            logp = nn_core.squashed_logp_np(self._raw(kind, b, cache.h[t, 0]))
            idx = sample_index_np(logp, rng) if digits is None else int(digits[t])
            total_lp += float(logp[idx])
            total_h += float(entropy_from_logp_np(logp))
            chosen.append(idx)
            tokens.append(idx if kind == "input" else op_base + idx)
            x = self.embedding.data[tokens[-1]]
        cell = cell_from_digits(chosen, self.cfg)
        return _ConstructionWalk(cell, chosen, tokens, cache, total_lp, total_h)

    def sample(self, rng: np.random.Generator) -> Tuple[CellSpec, float, float]:
        """Draw one cell; returns (cell, total log-prob, total entropy).

        The walk is kept so that grads() for this cell reuses it.
        """
        walk = self._walk(rng)
        self._last = walk
        return walk.cell, walk.total_logprob, walk.total_entropy

    def grads(self, cell: CellSpec) -> Tuple[float, ParamViews]:
        """Log-prob of emitting exactly this cell and its gradient (one flat
        vector in self.layout, as per-name views), by hand-derived BPTT;
        logprob() is the tape reference.

        The walk of the last sample() is reused once if it emitted this
        cell (the parameters must be unchanged since); otherwise the cell's
        choices are replayed through a fresh walk.
        """
        walk, self._last = self._last, None
        if walk is None or walk.cell != cell:
            walk = self._walk(None, cell_digits(cell))
        cache = walk.cache
        T, H = len(walk.digits), self.hidden_size
        dh = np.zeros((1, T, H))
        grads = self.layout.zeros()
        d_w_input, d_b_input = grads["w_input"], grads["b_input"]
        d_w_op, d_b_op = grads["w_op"], grads["b_op"]
        for t, (kind, b) in enumerate(self._decision_plan()):
            h = cache.h[t, 0]
            raw = self._raw(kind, b, h)
            logp = nn_core.squashed_logp_np(raw)
            g = nn_core.squashed_logp_grad_np(raw, logp, walk.digits[t])
            if kind == "input":
                dh[0, t] = self.w_input.data[:, : b + 1] @ g
                d_w_input[:, : b + 1] += np.outer(h, g)
                d_b_input[0, : b + 1] += g
            else:
                dh[0, t] = self.w_op.data @ g
                d_w_op += np.outer(h, g)
                d_b_op[0] += g
        dX = nn_core.lstm_backward_np(
            self.lstm, cache, dh, out=nn_core.lstm_entries(grads, "lstm")
        )[3]
        # step t > 0 reads the token chosen at step t - 1
        np.add.at(grads["embedding"], walk.tokens[:-1], dX[0, 1:])
        grads["start"][...] = dX[0, :1]
        return walk.total_logprob, grads

    def logprob(self, cell: CellSpec) -> Tuple[Tensor, Tensor]:
        """Differentiable (log-prob, entropy) of emitting exactly this cell."""
        digits = cell_digits(cell)
        H = self.hidden_size
        h = Tensor(np.zeros((1, H)))
        c = Tensor(np.zeros((1, H)))
        x = self.start
        op_base = 2 + self.cfg.num_blocks
        total_lp: Optional[Tensor] = None
        total_h: Optional[Tensor] = None
        for (kind, b), idx in zip(self._decision_plan(), digits):
            h, c = nn_core.lstm_step(self.lstm, x, h, c)
            if kind == "input":
                raw = (h @ self.w_input + self.b_input).cols(0, b + 1)
            else:
                raw = h @ self.w_op + self.b_op
            logp = log_softmax(shape_logits(raw))
            lp = logp.pick(0, idx)
            ent = entropy_from_logp(logp)
            total_lp = lp if total_lp is None else total_lp + lp
            total_h = ent if total_h is None else total_h + ent
            token = idx if kind == "input" else op_base + idx
            x = self.embedding.rows([token])
        return total_lp, total_h


# ---------------------------------------------------------------------------
# Run summaries and trajectory reconstruction
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    strategy: str
    seed: int
    target: float
    true_per_eval: List[float]
    best_so_far: List[float]
    pop_mean: Optional[List[float]]
    pop_var: Optional[List[float]]
    evals_to_target: Optional[int]
    final_best_true: float
    wall_time: float


def _evals_to_target(best_so_far: Sequence[float], target: float) -> Optional[int]:
    for i, value in enumerate(best_so_far, start=1):
        if value >= target:
            return i
    return None


def _population_trajectories(
    result: RunResult, oracle: FitnessOracle
) -> Tuple[List[float], List[float], List[float]]:
    history = result.population.history
    true_vals = [oracle.true_fitness(ind.cell) for ind in history]
    by_id = {ind.id: t for ind, t in zip(history, true_vals)}
    pop_size = result.population.capacity
    live: Dict[int, float] = {}
    pop_mean: List[float] = []
    pop_var: List[float] = []
    step_cursor = 0
    for i, ind in enumerate(history):
        if i < pop_size:
            live[ind.id] = true_vals[i]
        else:
            record = result.records[step_cursor]
            step_cursor += 1
            del live[record.removed_id]
            live[record.child_id] = by_id[record.child_id]
        vals = np.fromiter(live.values(), dtype=np.float64)
        pop_mean.append(float(vals.mean()))
        pop_var.append(float(vals.var()))
    return true_vals, pop_mean, pop_var


# ---------------------------------------------------------------------------
# Strategy runners. All runners share the stream layout from rng_streams():
# init (cells), tournament, policy (sampling), eval (observation noise),
# params (network initialization).
# ---------------------------------------------------------------------------


def _reward_config(cfg: StrategyConfig) -> RewardConfig:
    return RewardConfig(
        entropy_weight=cfg.entropy_weight,
        fitness_clip=cfg.fitness_clip,
        baseline=cfg.baseline,
        baseline_decay=cfg.baseline_decay,
    )


def _header_record(cfg: StrategyConfig, seed: int, oracle: FitnessOracle) -> dict:
    return {
        "kind": "header",
        "version": LOG_VERSION,
        "strategy": cfg.strategy,
        "seed": seed,
        "space": {
            "num_blocks": cfg.space.num_blocks,
            "num_ops": cfg.space.num_ops,
        },
        "oracle": {
            "kind": cfg.oracle_kind,
            "seed": cfg.oracle_seed,
            "path": cfg.oracle_path,
        },
        "maturity": {
            "tau": oracle.maturity.tau,
            "sigma": oracle.maturity.sigma,
            "full_budget": oracle.maturity.full_budget,
            "finetune_epochs": oracle.maturity.finetune_epochs,
            "init_epochs": oracle.maturity.init_epochs,
        },
        "run": {
            "pop_size": cfg.pop_size,
            "sample_size": cfg.sample_size,
            "budget": cfg.budget,
        },
        "policy": {
            "embed_size": cfg.embed_size,
            "hidden_size": cfg.hidden_size,
            "learning_rate": cfg.learning_rate,
            "entropy_weight": cfg.entropy_weight,
            "baseline": cfg.baseline,
            "baseline_decay": cfg.baseline_decay,
            "fitness_clip": cfg.fitness_clip,
        },
    }


def _step_to_dict(rec: StepRecord) -> dict:
    return {
        "kind": "step",
        "step": rec.step,
        "sampled_ids": list(rec.sampled_ids),
        "parent_id": rec.parent_id,
        "parent_fitness": rec.parent_fitness,
        "child_id": rec.child_id,
        "child_fitness": rec.child_fitness,
        "child_maturity": rec.child_maturity,
        "removed_id": rec.removed_id,
        "trace": trace_to_dict(rec.trace),
        "diagnostics": rec.diagnostics,
    }


def _final_record(members, best_cell: str, best_true: float) -> dict:
    return {
        "kind": "final",
        "members": [
            {"id": ind.id, "fitness": ind.fitness, "maturity": ind.maturity}
            for ind in sorted(members, key=lambda m: m.id)
        ],
        "best_cell": best_cell,
        "best_true": best_true,
    }


def run_strategy(
    cfg: StrategyConfig,
    seed: int,
    oracle: FitnessOracle,
    target: Optional[float] = None,
) -> Tuple[RunSummary, List[dict]]:
    """Run one strategy at one seed; returns (summary, log records)."""
    validate_config(cfg)
    if target is None:
        target, _ = resolve_target(oracle)
    started = time.perf_counter()
    if cfg.strategy in POPULATION_STRATEGIES:
        summary, log = _run_population_strategy(cfg, seed, oracle, target)
    elif cfg.strategy == "rl_construct":
        summary, log = _run_rl_construct(cfg, seed, oracle, target)
    else:
        summary, log = _run_random(cfg, seed, oracle, target)
    summary.wall_time = time.perf_counter() - started
    return summary, log


def _run_population_strategy(
    cfg: StrategyConfig, seed: int, oracle: FitnessOracle, target: float
) -> Tuple[RunSummary, List[dict]]:
    streams = rng_streams(seed)
    trainer = None
    if cfg.strategy == "ea_random":
        policy = RandomMutationPolicy(cfg.space, streams["policy"])
    else:
        params = init_controller(
            cfg.space,
            streams["params"],
            embed_size=cfg.embed_size,
            hidden_size=cfg.hidden_size,
            bidirectional=(cfg.strategy == "reinforced"),
        )
        policy = ControllerPolicy(params, streams["policy"])
        trainer = ReinforceTrainer(
            params.named_params(), _reward_config(cfg), lr=cfg.learning_rate
        )
    steps = cfg.budget - cfg.pop_size
    result = run_evolution(
        cfg.space,
        oracle,
        policy,
        trainer,
        budget=steps,
        pop_size=cfg.pop_size,
        sample_size=cfg.sample_size,
        rng=streams["init"],
        tournament_rng=streams["tournament"],
        eval_rng=streams["eval"],
    )
    true_vals, pop_mean, pop_var = _population_trajectories(result, oracle)
    best_so_far = list(np.maximum.accumulate(true_vals))
    best_true = oracle.true_fitness(result.best.cell)
    log = [_header_record(cfg, seed, oracle)]
    for ind in result.population.history[: cfg.pop_size]:
        log.append(
            {
                "kind": "init",
                "id": ind.id,
                "cell": cell_to_text(ind.cell),
                "fitness": ind.fitness,
                "maturity": ind.maturity,
            }
        )
    log.extend(_step_to_dict(rec) for rec in result.records)
    log.append(
        _final_record(result.population.members, cell_to_text(result.best.cell), best_true)
    )
    summary = RunSummary(
        strategy=cfg.strategy,
        seed=seed,
        target=target,
        true_per_eval=true_vals,
        best_so_far=best_so_far,
        pop_mean=pop_mean,
        pop_var=pop_var,
        evals_to_target=_evals_to_target(best_so_far, target),
        final_best_true=best_true,
        wall_time=0.0,
    )
    return summary, log


def _run_rl_construct(
    cfg: StrategyConfig, seed: int, oracle: FitnessOracle, target: float
) -> Tuple[RunSummary, List[dict]]:
    streams = rng_streams(seed)
    policy = ConstructionPolicy(
        cfg.space,
        streams["params"],
        embed_size=cfg.embed_size,
        hidden_size=cfg.hidden_size,
    )
    trainer = ReinforceTrainer(
        policy.named_params(), _reward_config(cfg), lr=cfg.learning_rate
    )
    log = [_header_record(cfg, seed, oracle)]
    true_vals: List[float] = []
    best_cell: Optional[CellSpec] = None
    best_true = -1.0
    for index in range(1, cfg.budget + 1):
        cell, _lp, ent = policy.sample(streams["policy"])
        observed = oracle.evaluate(cell, 1.0, streams["eval"])
        diag = trainer.update(lambda: policy.grads(cell), ent, observed)
        true = oracle.true_fitness(cell)
        true_vals.append(true)
        if true > best_true:
            best_true, best_cell = true, cell
        log.append(
            {
                "kind": "eval",
                "index": index,
                "cell": cell_to_text(cell),
                "fitness": observed,
                "grad_norm": diag["grad_norm"],
            }
        )
    best_so_far = list(np.maximum.accumulate(true_vals))
    log.append(_final_record([], cell_to_text(best_cell), best_true))
    summary = RunSummary(
        strategy=cfg.strategy,
        seed=seed,
        target=target,
        true_per_eval=true_vals,
        best_so_far=best_so_far,
        pop_mean=None,
        pop_var=None,
        evals_to_target=_evals_to_target(best_so_far, target),
        final_best_true=best_true,
        wall_time=0.0,
    )
    return summary, log


def _run_random(
    cfg: StrategyConfig, seed: int, oracle: FitnessOracle, target: float
) -> Tuple[RunSummary, List[dict]]:
    streams = rng_streams(seed)
    log = [_header_record(cfg, seed, oracle)]
    true_vals: List[float] = []
    best_cell: Optional[CellSpec] = None
    best_true = -1.0
    for index in range(1, cfg.budget + 1):
        cell = random_cell(cfg.space, streams["init"])
        observed = oracle.evaluate(cell, 1.0, streams["eval"])
        true = oracle.true_fitness(cell)
        true_vals.append(true)
        if true > best_true:
            best_true, best_cell = true, cell
        log.append(
            {
                "kind": "eval",
                "index": index,
                "cell": cell_to_text(cell),
                "fitness": observed,
            }
        )
    best_so_far = list(np.maximum.accumulate(true_vals))
    log.append(_final_record([], cell_to_text(best_cell), best_true))
    summary = RunSummary(
        strategy=cfg.strategy,
        seed=seed,
        target=target,
        true_per_eval=true_vals,
        best_so_far=best_so_far,
        pop_mean=None,
        pop_var=None,
        evals_to_target=_evals_to_target(best_so_far, target),
        final_best_true=best_true,
        wall_time=0.0,
    )
    return summary, log


# ---------------------------------------------------------------------------
# Comparison across strategies and seeds
# ---------------------------------------------------------------------------


def _censored(values: Sequence[Optional[int]], budget: int) -> np.ndarray:
    # runs that never reach the target count as budget + 1: finite, worst rank
    return np.array(
        [budget + 1 if v is None else v for v in values], dtype=np.float64
    )


def _bootstrap_ci(
    values: np.ndarray, stat, n_boot: int = 2000, seed: int = 1234
) -> Tuple[float, float]:
    rng = np.random.default_rng(seed)
    n = values.shape[0]
    samples = np.empty(n_boot)
    for i in range(n_boot):
        samples[i] = stat(values[rng.integers(0, n, size=n)])
    return float(np.percentile(samples, 2.5)), float(np.percentile(samples, 97.5))


def compare(
    cfg: StrategyConfig,
    strategies: Sequence[str],
    seeds: Sequence[int],
    out_dir: str,
    verbose: bool = True,
) -> dict:
    """Run every strategy on every seed against one shared oracle.

    Writes runs.csv (one row per evaluation per run), summary.json, and one
    trace_<strategy>_<seed>.jsonl per run into out_dir. Returns the summary
    dict. Identical inputs produce a byte-identical runs.csv.
    """
    for name in strategies:
        if name not in STRATEGIES:
            raise ConfigError(f"unknown strategy {name!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds in comparison")
    os.makedirs(out_dir, exist_ok=True)
    oracle = make_oracle(cfg)
    target, target_source = resolve_target(oracle)

    summaries: Dict[str, List[RunSummary]] = {name: [] for name in strategies}
    for name in strategies:
        run_cfg = StrategyConfig(**{**asdict_config(cfg), "strategy": name})
        validate_config(run_cfg)
        for seed in seeds:
            summary, log = run_strategy(run_cfg, seed, oracle, target)
            summaries[name].append(summary)
            write_jsonl(
                os.path.join(out_dir, f"trace_{name}_{seed}.jsonl"), log
            )
            if verbose:
                reached = (
                    str(summary.evals_to_target)
                    if summary.evals_to_target is not None
                    else "never"
                )
                print(
                    f"[{name} seed={seed}] best_true={summary.final_best_true:.4f} "
                    f"evals_to_target={reached} ({summary.wall_time:.1f}s)"
                )

    write_runs_csv(os.path.join(out_dir, "runs.csv"), summaries, strategies, seeds)
    report = build_report(cfg, strategies, seeds, summaries, target, target_source)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def asdict_config(cfg: StrategyConfig) -> dict:
    out = asdict(cfg)
    out["space"] = cfg.space  # keep the dataclass, not a nested dict
    return out


def build_report(
    cfg: StrategyConfig,
    strategies: Sequence[str],
    seeds: Sequence[int],
    summaries: Dict[str, List[RunSummary]],
    target: float,
    target_source: str,
) -> dict:
    per_strategy = {}
    for name in strategies:
        runs = summaries[name]
        censored = _censored([s.evals_to_target for s in runs], cfg.budget)
        per_strategy[name] = {
            "evals_to_target": [
                None if s.evals_to_target is None else s.evals_to_target
                for s in runs
            ],
            "median_evals_to_target": float(np.median(censored)),
            "unreached": int(sum(s.evals_to_target is None for s in runs)),
            "final_best_true": [s.final_best_true for s in runs],
            "median_final_best_true": float(
                np.median([s.final_best_true for s in runs])
            ),
            "wall_time_s": [round(s.wall_time, 3) for s in runs],
        }

    comparisons = {}
    if "reinforced" in strategies:
        base = _censored(
            [s.evals_to_target for s in summaries["reinforced"]], cfg.budget
        )
        for other in ("ea_random", "random", "rl_construct"):
            if other not in strategies:
                continue
            other_vals = _censored(
                [s.evals_to_target for s in summaries[other]], cfg.budget
            )
            ratios = other_vals / base
            lo, hi = _bootstrap_ci(ratios, np.median)
            pvalue = float(
                stats.mannwhitneyu(base, other_vals, alternative="less").pvalue
            )
            comparisons[f"reinforced_vs_{other}"] = {
                "speedup_median": float(np.median(ratios)),
                "speedup_ci95": [lo, hi],
                "rank_sum_p": pvalue,
            }
        if "reinforced_nonbi" in strategies:
            nonbi = _censored(
                [s.evals_to_target for s in summaries["reinforced_nonbi"]],
                cfg.budget,
            )
            diffs = nonbi - base
            lo, hi = _bootstrap_ci(diffs, np.median)
            comparisons["reinforced_nonbi_minus_reinforced"] = {
                "median_diff": float(np.median(diffs)),
                "diff_ci95": [lo, hi],
            }

    return {
        "version": LOG_VERSION,
        "space": {"num_blocks": cfg.space.num_blocks, "num_ops": cfg.space.num_ops},
        "oracle": {
            "kind": cfg.oracle_kind,
            "seed": cfg.oracle_seed,
            "path": cfg.oracle_path,
        },
        "run": {
            "pop_size": cfg.pop_size,
            "sample_size": cfg.sample_size,
            "budget": cfg.budget,
        },
        "target": target,
        "target_source": target_source,
        "seeds": list(seeds),
        "strategies": per_strategy,
        "comparisons": comparisons,
    }


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def write_jsonl(path: str, records: Sequence[dict]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_jsonl(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_runs_csv(
    path: str,
    summaries: Dict[str, List[RunSummary]],
    strategies: Sequence[str],
    seeds: Sequence[int],
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["strategy", "seed", "eval", "true_fitness", "best_so_far", "pop_mean", "pop_var"]
        )
        for name in strategies:
            for summary in summaries[name]:
                n = len(summary.true_per_eval)
                for i in range(n):
                    writer.writerow(
                        [
                            name,
                            summary.seed,
                            i + 1,
                            _fmt(summary.true_per_eval[i]),
                            _fmt(summary.best_so_far[i]),
                            _fmt(summary.pop_mean[i]) if summary.pop_mean else "",
                            _fmt(summary.pop_var[i]) if summary.pop_var else "",
                        ]
                    )


# ---------------------------------------------------------------------------
# Replay: re-derive a logged run without its policy networks
# ---------------------------------------------------------------------------


def _config_from_header(header: dict) -> Tuple[StrategyConfig, int, MaturityModel]:
    space = SpaceConfig(
        num_blocks=int(header["space"]["num_blocks"]),
        num_ops=int(header["space"]["num_ops"]),
    )
    maturity = MaturityModel(**header["maturity"])
    policy = header["policy"]
    cfg = StrategyConfig(
        strategy=header["strategy"],
        space=space,
        oracle_kind=header["oracle"]["kind"],
        oracle_seed=header["oracle"]["seed"],
        oracle_path=header["oracle"]["path"],
        pop_size=int(header["run"]["pop_size"]),
        sample_size=int(header["run"]["sample_size"]),
        budget=int(header["run"]["budget"]),
        noise=header["maturity"]["sigma"],
        embed_size=int(policy["embed_size"]),
        hidden_size=int(policy["hidden_size"]),
        learning_rate=float(policy["learning_rate"]),
        entropy_weight=float(policy["entropy_weight"]),
        baseline=policy["baseline"],
        baseline_decay=float(policy["baseline_decay"]),
        fitness_clip=float(policy["fitness_clip"]),
    )
    return cfg, int(header["seed"]), maturity


def replay(log_path: str) -> dict:
    """Recompute a logged run's evaluations; returns the new final record.

    Mutation traces (or logged cells, for non-population strategies) are
    taken from the log, so the policy networks are never rebuilt; random
    streams for initialization, tournaments, and observation noise are
    re-derived from the logged seed. The result must match the original
    final record bit for bit.
    """
    records = read_jsonl(log_path)
    if not records or records[0].get("kind") != "header":
        raise ConfigError(f"{log_path} does not start with a header record")
    header = records[0]
    if header.get("version") != LOG_VERSION:
        raise ConfigError(f"unsupported log version {header.get('version')!r}")
    cfg, seed, _maturity = _config_from_header(header)
    oracle = make_oracle(cfg)

    if cfg.strategy in POPULATION_STRATEGIES:
        init_records = [r for r in records if r["kind"] == "init"]
        step_records = [r for r in records if r["kind"] == "step"]
        traces = [trace_from_dict(r["trace"]) for r in step_records]
        streams = rng_streams(seed)
        policy = ReplayMutationPolicy(traces)
        result = run_evolution(
            cfg.space,
            oracle,
            policy,
            None,
            budget=len(traces),
            pop_size=cfg.pop_size,
            sample_size=cfg.sample_size,
            rng=streams["init"],
            tournament_rng=streams["tournament"],
            eval_rng=streams["eval"],
        )
        for logged, ind in zip(init_records, result.population.history):
            if logged["cell"] != cell_to_text(ind.cell) or logged["id"] != ind.id:
                raise RuntimeError("replay diverged from log during initialization")
        for logged, rec in zip(step_records, result.records):
            if (
                logged["parent_id"] != rec.parent_id
                or logged["removed_id"] != rec.removed_id
                or logged["child_id"] != rec.child_id
            ):
                raise RuntimeError(
                    f"replay diverged from log at step {logged['step']}"
                )
        best_true = oracle.true_fitness(result.best.cell)
        return _final_record(
            result.population.members, cell_to_text(result.best.cell), best_true
        )

    eval_records = [r for r in records if r["kind"] == "eval"]
    streams = rng_streams(seed)
    best_cell_text = None
    best_true = -1.0
    members = []
    for record in eval_records:
        cell = cell_from_text(record["cell"], cfg.space)
        observed = oracle.evaluate(cell, 1.0, streams["eval"])
        record_true = oracle.true_fitness(cell)
        if record_true > best_true:
            best_true, best_cell_text = record_true, record["cell"]
        members.append((record["index"], observed))
    final = _final_record([], best_cell_text, best_true)
    final["evals"] = [{"index": i, "fitness": f} for i, f in members]
    return final
