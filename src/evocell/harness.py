"""Run settings, strategy runners, run logs, and replay.

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
A run is scored on evaluations-to-target (target defaults to 99% of the
oracle optimum); report.compare sets strategies against each other.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from typing import get_args, get_type_hints

import numpy as np

from .arch_space import (
    SpaceConfig,
    cell_from_digits,
    cell_from_text,
    cell_to_text,
    random_digits,
)
from .controller import (
    LOG_ENCODER,
    ConstructionPolicy,
    MutationTrace,
    construction_layout,
    controller_layout,
    init_controller,
    trace_from_dict,
    trace_json,
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
    Individual,
    RandomMutationPolicy,
    StepRecord,
    evolution_step,
    initialize,
    reevaluate_finalists,
    rng_streams,
)
from .reinforce import BASELINE_DECAY, FITNESS_CLIP, ReinforceTrainer

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
TRAJECTORY_ROWS = 256  # population rows reduced at a time: no (steps, pop) matrix


class ConfigError(ValueError):
    """Raised for invalid run configuration; the CLI exits nonzero on it."""


def _setting(default, flag: Optional[str] = None, header=None, **cli):
    """A StrategyConfig field's default; its CLI flag, which is also its
    config-file key, with argparse keywords (type, choices, help); and its
    (section, key) in the log header."""
    return field(default=default, metadata={"flag": flag, "header": header, "cli": cli})


@dataclass(frozen=True)
class StrategyConfig:
    """Everything needed to reproduce a run except the seed.

    The one schema and the one check of a run's settings: the CLI builds
    its flags and config-file keys from the field metadata, and
    header_record / config_from_header write and read the log header from
    it. space is set by --blocks / --ops, and oracle_kind (tabular |
    landscape | file), oracle_seed and oracle_path by --oracle (oracle
    build takes --oracle-seed); noise is logged as the oracle's maturity
    sigma. Every way of building one (the CLI, a config file, a log
    header, a library call, dataclasses.replace) runs __post_init__, which
    raises a ConfigError naming the field; frozen, it stays as checked.
    """

    strategy: str = _setting("reinforced", "strategy", choices=STRATEGIES)
    space: SpaceConfig = SpaceConfig(num_blocks=3, num_ops=4)
    oracle_kind: str = _setting("tabular", header=("oracle", "kind"))
    oracle_seed: Optional[int] = _setting(
        7, "oracle_seed", ("oracle", "seed"), type=int
    )
    oracle_path: Optional[str] = _setting(None, header=("oracle", "path"))
    pop_size: int = _setting(20, "pop", ("run", "pop_size"), type=int)
    sample_size: int = _setting(5, "sample", ("run", "sample_size"), type=int)
    budget: int = _setting(  # total oracle evaluations, initialization included
        500, "budget", ("run", "budget"), type=int
    )
    noise: Optional[float] = _setting(  # None keeps the oracle's own sigma
        None, "noise", type=float, help="observation sigma"
    )
    embed_size: int = _setting(100, "embed", ("policy", "embed_size"), type=int)
    hidden_size: int = _setting(100, "hidden", ("policy", "hidden_size"), type=int)
    learning_rate: float = _setting(
        0.001, "lr", ("policy", "learning_rate"), type=float
    )
    entropy_weight: float = _setting(
        0.1, "entropy_weight", ("policy", "entropy_weight"), type=float
    )

    def __post_init__(self) -> None:
        """Each field must have its declared type (an int an int, a float
        any real number, neither a bool), then lie in its range."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {', '.join(STRATEGIES)}"
            )
        for name in ("noise", "learning_rate", "entropy_weight"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name, lowest in _LOWEST.items():
            value = getattr(self, name)
            if value is not None and value < lowest:
                raise ConfigError(f"{name} must be >= {lowest}, got {value}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        size = policy_size(self)
        if size > MAX_POLICY_SIZE:
            raise ConfigError(
                f"embed_size {self.embed_size} and hidden_size {self.hidden_size} give "
                f"the {self.strategy} policy {size:,} parameters; at most "
                f"{MAX_POLICY_SIZE:,} are allowed"
            )
        if self.strategy in POPULATION_STRATEGIES:
            if self.pop_size < 2:
                raise ConfigError(f"pop_size must be >= 2, got {self.pop_size}")
            if not 2 <= self.sample_size <= self.pop_size:
                raise ConfigError(
                    f"sample_size must be in [2, pop_size], got {self.sample_size}"
                )
            if self.budget < self.pop_size:
                raise ConfigError(
                    "budget must cover initialization: "
                    f"budget={self.budget} < pop_size={self.pop_size}"
                )
        if self.oracle_kind not in ("tabular", "landscape", "file"):
            raise ConfigError(f"unknown oracle kind {self.oracle_kind!r}")
        if self.oracle_kind == "file" and not self.oracle_path:
            raise ConfigError("oracle kind 'file' requires a path")


# What each field accepts, read off its declared type (a float setting also
# takes an int); the lowest value of each bounded number; and the (section,
# key) in the log header of each field that has one.
_ACCEPTS = {
    name: tuple({float: (int, float)}.get(t, t) for t in get_args(hint) or (hint,))
    for name, hint in get_type_hints(StrategyConfig).items()
}
_LOWEST = {"budget": 1, "oracle_seed": 0, "noise": 0, "embed_size": 1, "hidden_size": 1}
# The largest policy a run may build: 128 MiB of float64 parameters, which
# the learner holds several times over (gradient, Adam's two moments).
MAX_POLICY_SIZE = 2**24
_HEADER_KEYS = {
    f.name: f.metadata["header"]
    for f in fields(StrategyConfig)
    if f.metadata.get("header")
}


def policy_size(cfg: StrategyConfig) -> int:
    """The parameter count of cfg's policy, read off its layout, which
    allocates nothing; 0 for ea_random and random, which have none."""
    E, H, space = cfg.embed_size, cfg.hidden_size, cfg.space
    if cfg.strategy == "rl_construct":
        return construction_layout(space, E, H).size
    if cfg.strategy in ("reinforced", "reinforced_nonbi"):
        bidirectional = cfg.strategy == "reinforced"
        return controller_layout(space.num_blocks, space.num_ops, E, H, bidirectional).size
    return 0


def check_seed(seed: int) -> int:
    """seed, if it can seed a run: an int >= 0, as rng_streams needs."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"a seed must be an int >= 0, got {seed!r}")
    return seed


def read_oracle_file(path: str) -> TabularOracle:
    """load_oracle, with an unreadable or malformed file as a ConfigError."""
    try:
        return load_oracle(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read oracle file {path}: {exc}")


def make_oracle(cfg: StrategyConfig) -> FitnessOracle:
    maturity = MaturityModel() if cfg.noise is None else MaturityModel(sigma=cfg.noise)
    if cfg.oracle_kind == "tabular":
        try:
            return build_tabular(cfg.space, cfg.oracle_seed, maturity)
        except ValueError as exc:  # the space is above the tabulation cap
            raise ConfigError(str(exc))
    if cfg.oracle_kind == "landscape":
        return LandscapeOracle(cfg.space, cfg.oracle_seed, maturity)
    oracle = read_oracle_file(cfg.oracle_path)
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
    true_vals: List[float], pop_size: int, steps: Sequence[dict]
) -> Tuple[List[float], List[float]]:
    """The mean and variance of the live population's true fitness after
    each evaluation, from each evaluation's true fitness and the step
    records.

    While the population fills, the live set is a growing prefix of the
    evaluations; after that, each step removes one member and appends the
    child, the order Population.members keeps. Rows are reduced
    TRAJECTORY_ROWS at a time as a (rows, pop) matrix, each row's sum in
    the same order as a 1-D mean, whatever the block's height.
    """
    first = np.array(true_vals[:pop_size])
    pop_mean = [float(first[:k].mean()) for k in range(1, pop_size + 1)]
    pop_var = [float(first[:k].var()) for k in range(1, pop_size + 1)]
    live_ids = list(range(pop_size))
    live = true_vals[:pop_size]
    children = zip(steps, true_vals[pop_size:])
    for start in range(0, len(steps), TRAJECTORY_ROWS):
        rows = np.empty((min(TRAJECTORY_ROWS, len(steps) - start), pop_size))
        for row, (record, child_true) in zip(rows, children):
            at = live_ids.index(record["removed_id"])
            del live_ids[at], live[at]
            live_ids.append(record["child_id"])
            live.append(child_true)
            row[:] = live
        pop_mean.extend(rows.mean(axis=1).tolist())
        pop_var.extend(rows.var(axis=1).tolist())
    return pop_mean, pop_var


# ---------------------------------------------------------------------------
# Run records. Every strategy draws from the stream layout of rng_streams():
# init (cells), tournament, policy (sampling), eval (observation noise),
# params (network initialization).
# ---------------------------------------------------------------------------


def config_sections(cfg: StrategyConfig) -> Dict[str, dict]:
    """cfg's record, by section, in the log header and summary.json.

    The policy section also carries the trainer's fixed reward constants:
    fitness_clip, baseline_decay and its one baseline kind, "ema".
    """
    sections = {
        "space": asdict(cfg.space),
        "policy": {
            "fitness_clip": FITNESS_CLIP,
            "baseline_decay": BASELINE_DECAY,
            "baseline": "ema",
        },
    }
    for name, (section, key) in _HEADER_KEYS.items():
        sections.setdefault(section, {})[key] = getattr(cfg, name)
    return sections


def header_record(cfg: StrategyConfig, seed: int, oracle: FitnessOracle) -> dict:
    """A run log's first record; config_from_header reads it back."""
    return {
        "kind": "header",
        "version": LOG_VERSION,
        "strategy": cfg.strategy,
        "seed": seed,
        "maturity": asdict(oracle.maturity),
        **config_sections(cfg),
    }


def config_from_header(header: dict) -> Tuple[StrategyConfig, int]:
    """The (config, seed) that header_record wrote, checked as every config
    and seed are, so a value of the wrong JSON type (a bool, a string, a
    float for an integer) is a ConfigError naming it. noise is the logged
    maturity sigma, read through the MaturityModel that the maturity record
    is. The reward constants are not read: the rebuilt header writes them,
    so a log that names others diverges at its header.
    """
    try:
        values = {name: header[sec][key] for name, (sec, key) in _HEADER_KEYS.items()}
        cfg = StrategyConfig(
            strategy=header["strategy"],
            space=SpaceConfig(**header["space"]),
            noise=MaturityModel(**header["maturity"]).sigma,
            **values,
        )
        return cfg, check_seed(header["seed"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed log header: {exc!r}")


# Log records: one writer per kind, which _records yields, run_strategy logs
# and replay compares, but for these fields: a step's trace, parsed strictly and
# fed back in, and the learner's outputs. An eval's cell is fed back, its text
# rebuilt.
_NOT_REBUILT = frozenset(("trace", "diagnostics", "grad_norm"))


def init_record(ind: Individual) -> dict:
    return {
        "kind": "init",
        "id": ind.id,
        "cell": cell_to_text(ind.cell),
        "fitness": ind.fitness,
        "maturity": ind.maturity,
    }


def step_record(rec: StepRecord) -> dict:
    """StepRecord's fields; the trace stays a MutationTrace, which
    write_jsonl formats."""
    return {"kind": "step", **vars(rec)}


def eval_record(index: int, cell: str, fitness: float, **learner: float) -> dict:
    """One sampled evaluation; rl_construct adds its update's grad_norm."""
    return {"kind": "eval", "index": index, "cell": cell, "fitness": fitness, **learner}


def final_record(members, best_cell: str, best_true: float) -> dict:
    return {
        "kind": "final",
        "members": [
            {"id": ind.id, "fitness": ind.fitness, "maturity": ind.maturity}
            for ind in sorted(members, key=lambda m: m.id)
        ],
        "best_cell": best_cell,
        "best_true": best_true,
    }


def _records(
    cfg: StrategyConfig, seed: int, oracle: FitnessOracle, log=None
) -> Iterator[Tuple[dict, Optional[float]]]:
    """A run's log records in log order, each with the true fitness of the
    evaluation it logs (None for the header and the final record): the
    header, then a population strategy's inits, steps and final record, or
    the evals and final record of random (its cells' digits drawn from the
    init stream in one random_digits call) and rl_construct. The one code
    that knows a run's record order, and the one loop that trains: a
    learner gets one update per step (reinforced, reinforced_nonbi: its
    diagnostics logged) or per evaluation (rl_construct: its grad_norm
    logged), right after the evaluation it rewards. run_strategy keeps what
    it yields, replay compares it.

    Without log it builds the strategy's policy and trainer. With log,
    replay's _LogReader past the header, the logged traces (or cells) stand
    in for the policy, each taken as the re-run needs it; nothing trains.
    """
    streams = rng_streams(seed)
    yield header_record(cfg, seed, oracle), None
    trainer = None
    if cfg.strategy in POPULATION_STRATEGIES:
        pop = initialize(cfg.space, oracle, cfg.pop_size, streams["init"], streams["eval"])
        for ind in pop.history:
            yield init_record(ind), ind.true_fitness
        if log is not None:
            def propose(cell):
                return log.take("step", "trace", trace_from_dict)
        elif cfg.strategy == "ea_random":
            propose = RandomMutationPolicy(cfg.space, streams["policy"]).propose
        else:
            params = init_controller(
                cfg.space,
                streams["params"],
                embed_size=cfg.embed_size,
                hidden_size=cfg.hidden_size,
                bidirectional=(cfg.strategy == "reinforced"),
            )
            policy = ControllerPolicy(params, streams["policy"])
            propose = policy.propose
            trainer = ReinforceTrainer(params.p, cfg.learning_rate, cfg.entropy_weight)
        rngs = streams["tournament"], streams["eval"]
        for step in range(1, cfg.budget - cfg.pop_size + 1):  # budget counts the inits
            rec = evolution_step(pop, propose, oracle, cfg.sample_size, *rngs, step)
            if trainer is not None:
                rec.diagnostics = trainer.update(
                    policy.grads(), rec.trace.total_entropy, rec.child_fitness
                )
            yield step_record(rec), pop.history[-1].true_fitness
        best = reevaluate_finalists(pop, oracle, streams["eval"])
        yield final_record(pop.members, cell_to_text(best.cell), best.true_fitness), None
        return
    if log is not None:
        cells = (log.take("eval", "cell", cell_from_text, cfg.space) for _ in range(cfg.budget))
    elif cfg.strategy == "rl_construct":
        policy = ConstructionPolicy(
            cfg.space,
            streams["params"],
            embed_size=cfg.embed_size,
            hidden_size=cfg.hidden_size,
        )
        trainer = ReinforceTrainer(policy.p, cfg.learning_rate, cfg.entropy_weight)
    else:
        rows = random_digits(cfg.space, streams["init"], cfg.budget).tolist()
        cells = (cell_from_digits(row, cfg.space) for row in rows)
    best_true = -math.inf
    for index in range(1, cfg.budget + 1):
        learner = {}
        if trainer is None:
            cell = next(cells)
        else:
            walk = policy.sample(streams["policy"])
            cell = walk.cell
        if log is None:
            observed, true = oracle.evaluate(cell, 1.0, streams["eval"])
        else:  # cell_from_text validated the logged cell
            true = oracle.lookup(cell)
            observed = oracle.observe(true, 1.0, streams["eval"])
        if trainer is not None:
            diag = trainer.update(policy.grads(walk), walk.total_entropy, observed)
            learner["grad_norm"] = diag["grad_norm"]
        text = cell_to_text(cell)
        yield eval_record(index, text, observed, **learner), true
        if true > best_true:  # the first evaluation of the best cell
            best_true, best_cell = true, text
    yield final_record([], best_cell, best_true), None


def run_strategy(
    cfg: StrategyConfig,
    seed: int,
    oracle: FitnessOracle,
    target: Optional[float] = None,
) -> Tuple[RunSummary, List[dict]]:
    """Run one strategy at one seed; returns (summary, log records)."""
    check_seed(seed)
    if target is None:
        target, _ = resolve_target(oracle)
    started = time.perf_counter()
    log, true_vals = [], []
    for record, true in _records(cfg, seed, oracle):
        log.append(record)
        if true is not None:
            true_vals.append(true)
    pop_mean = pop_var = None
    if cfg.strategy in POPULATION_STRATEGIES:
        steps = log[1 + cfg.pop_size : -1]
        pop_mean, pop_var = _population_trajectories(true_vals, cfg.pop_size, steps)
    best_so_far = list(np.maximum.accumulate(true_vals))
    return RunSummary(
        strategy=cfg.strategy,
        seed=seed,
        target=target,
        true_per_eval=true_vals,
        best_so_far=best_so_far,
        pop_mean=pop_mean,
        pop_var=pop_var,
        evals_to_target=_evals_to_target(best_so_far, target),
        final_best_true=log[-1]["best_true"],
        wall_time=time.perf_counter() - started,
    ), log


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def write_jsonl(path: str, records: Sequence[dict]) -> None:
    """Each record as one line of LOG_ENCODER's JSON. A step record that
    _records yields holds its MutationTrace: the line is its other fields
    encoded, with trace_json's text in place of "trace", the last of a step
    record's keys in sorted order; any other record (one read back by
    read_jsonl holds its trace as a dict) is encoded whole."""
    encode = LOG_ENCODER.encode
    with open(path, "w") as fh:
        for record in records:
            trace = record.get("trace")
            if type(trace) is MutationTrace:
                head = encode({**record, "trace": 0})  # ends in '"trace": 0}'
                fh.write(f"{head[:-2]}{trace_json(trace)}}}\n")
            else:
                fh.write(encode(record) + "\n")


def read_jsonl(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Replay: re-derive a logged run without its policy networks
# ---------------------------------------------------------------------------


class ReplayDiverged(ConfigError, RuntimeError):
    """A well-formed log that a re-run from its header and seed does not
    reproduce: an edited record, or a change in the code."""


def _typed_alike(logged: dict, record: dict) -> bool:
    """Whether logged, a record that == record, holds every value with the
    type that record gives it (1 == 1.0 == True), nested values included,
    looked up by record's keys; a list's items are dicts or scalars."""
    for key, value in record.items():
        other = logged[key]
        if type(other) is not type(value):
            return False
        if type(value) is dict:
            if not _typed_alike(other, value):
                return False
        elif type(value) is list:
            types = list(map(type, value))
            if list(map(type, other)) != types:
                return False
            if dict in types and not all(
                _typed_alike(a, b) for a, b in zip(other, value) if type(b) is dict
            ):
                return False
    return True


def _rebuilt_fields(record: dict) -> dict:
    """record less its _NOT_REBUILT fields; record itself if it has none,
    as all but a step and an rl_construct run's eval have."""
    if _NOT_REBUILT.isdisjoint(record):
        return record
    return {k: v for k, v in record.items() if k not in _NOT_REBUILT}


class _LogReader:
    """A run log read in lockstep with its re-run: record is the last one
    read, number its place (blank lines skipped), cfg the header's."""

    def __init__(self, path: str, fh) -> None:
        self.path, self.number, self.cfg = path, 0, None
        self._lines = (line for line in fh if line.strip())
        self._taken = dict.fromkeys(("init", "step", "eval", "final"), 0)

    def read(self) -> bool:
        """Read the next record into record; False at the end of the log."""
        try:
            line = next(self._lines, None)
            self.record = None if line is None else json.loads(line)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read log {self.path}: {exc}")
        self.number += line is not None
        return line is not None

    def take(self, kind: str, field=None, parse=None, *args):
        """The next record, of kind, or parse(record[field], *args); a
        ConfigError names a record of another kind, with the count of kind
        that cfg gives, or a malformed one: of no known kind, or unparsed."""
        found = "the end of the log"
        if self.read():
            try:
                found = self.record["kind"]
                if found not in self._taken:
                    raise ValueError(f"unknown record kind {found!r}")
                value = self.record
                if parse and found == kind:
                    value = parse(value[field], *args)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{self.path}: record {self.number} is malformed: {exc!r}")
            if found == kind:
                self._taken[kind] += 1
                return value
            found = f"record {self.number}, of kind {found}"
        cfg = self.cfg
        count = {"init": cfg.pop_size, "step": cfg.budget - cfg.pop_size,
                 "eval": cfg.budget, "final": 1}[kind]
        raise ConfigError(
            f"{self.path}: {self._taken[kind]} {kind} records, then {found}, but the "
            f"header's pop_size {cfg.pop_size} and budget {cfg.budget} "
            f"give {count}"
        )

    def check(self, rebuilt: dict) -> None:
        """ReplayDiverged unless record equals rebuilt, both less their
        _NOT_REBUILT fields, bit for bit, each value with the type the writer
        gives it."""
        logged, rebuilt = _rebuilt_fields(self.record), _rebuilt_fields(rebuilt)
        if logged != rebuilt or not _typed_alike(logged, rebuilt):
            ids = [str(rebuilt[k]) for k in ("step", "index", "id") if k in rebuilt]
            name = " ".join([rebuilt["kind"], *ids])
            raise ReplayDiverged(f"replay diverged from log at record {self.number} ({name})")


def replay(log_path: str) -> dict:
    """Re-run a logged run in lockstep with its log, on streams from its
    seed, the logged traces (or cells, for random and rl_construct) standing
    in for the policy; returns the final record, with the recomputed "evals"
    of random and rl_construct. Each record that _records yields is compared
    with the next logged one, bit for bit and type for type but for the
    _NOT_REBUILT fields, as the re-run reaches it: the header before
    anything runs, the inits after initialize, each step right after it,
    each eval as it is rebuilt and the final record last. One logged record
    is held at a time; the first that is malformed, missing or extra is a
    ConfigError, the first that differs a ReplayDiverged."""
    try:
        fh = open(log_path)
    except OSError as exc:
        raise ConfigError(f"cannot read log {log_path}: {exc}")
    with fh:
        log = _LogReader(log_path, fh)
        header = log.record if log.read() else None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ConfigError(f"{log_path} does not start with a header record")
        if header.get("version") != LOG_VERSION:
            raise ConfigError(f"unsupported log version {header.get('version')!r}")
        log.cfg, seed = config_from_header(header)
        records = _records(log.cfg, seed, make_oracle(log.cfg), log)
        evals = []
        try:
            for record, _ in records:
                kind = record["kind"]
                if kind in ("init", "final"):  # the re-run reads nothing of these
                    log.take(kind)
                log.check(record)
                if kind == "eval":
                    evals.append({"index": record["index"], "fitness": record["fitness"]})
        except ConfigError:
            raise
        except ValueError as exc:  # a logged trace that its parent cannot take
            raise ReplayDiverged(
                f"replay diverged from log at record {log.number} "
                f"(step {log.number - 1 - log.cfg.pop_size}): {exc}"
            )
        if log.read():
            raise ConfigError(f"{log_path}: record {log.number} follows the final record")
    return record if log.cfg.strategy in POPULATION_STRATEGIES else {**record, "evals": evals}
