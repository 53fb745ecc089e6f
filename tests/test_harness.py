"""Strategy runners, comparison outputs, logs, replay, and the CLI."""

import collections
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from evocell import arch_space, cli, evaluators, harness, nn_core

from evocell.arch_space import (
    MAX_BLOCKS,
    SpaceConfig,
    cell_from_digits,
    cell_from_text,
    cell_to_text,
    random_cell,
    random_digits,
    validate,
)
from evocell.cli import (
    load_config_file,
    main,
    parse_oracle_spec,
    parse_seeds,
)
from evocell.controller import (
    LOG_ENCODER,
    ConstructionPolicy,
    MutationTrace,
    init_controller,
    trace_from_dict,
    trace_json,
    trace_to_dict,
)
from evocell.evaluators import LandscapeOracle, build_tabular, save_oracle, load_oracle
from evocell.evolution import RandomMutationPolicy, rng_streams
from evocell.harness import (
    MAX_POLICY_SIZE,
    PILOT_SAMPLES,
    POPULATION_STRATEGIES,
    STRATEGIES,
    TARGET_FRACTION,
    ConfigError,
    ReplayDiverged,
    StrategyConfig,
    _evals_to_target,
    config_from_header,
    header_record,
    make_oracle,
    pilot_digits,
    policy_size,
    read_jsonl,
    record_line,
    replay,
    resolve_target,
    run_strategy,
    eval_record,
    step_record,
    write_jsonl,
)
from evocell.nn_core import check_grads
from evocell.reinforce import ReinforceTrainer
from evocell.report import _population_trajectories, compare
from test_evolution import evolve

CFG23 = SpaceConfig(num_blocks=2, num_ops=3)

SMALL = dict(embed_size=8, hidden_size=8)


def _cfg(strategy, **kwargs):
    defaults = dict(
        strategy=strategy,
        space=CFG23,
        oracle_seed=7,
        pop_size=8,
        sample_size=3,
        budget=40,
        **SMALL,
    )
    defaults.update(kwargs)
    return StrategyConfig(**defaults)


# ---------------------------------------------------------------------------
# Configuration validation and target resolution
# ---------------------------------------------------------------------------


def test_strategy_config_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        _cfg("hillclimb")
    with pytest.raises(ConfigError):
        _cfg("random", budget=0)
    with pytest.raises(ConfigError):
        _cfg("reinforced", pop_size=1)
    with pytest.raises(ConfigError):
        _cfg("reinforced", sample_size=9)
    with pytest.raises(ConfigError):
        _cfg("ea_random", budget=7)  # below pop_size
    with pytest.raises(ConfigError):
        _cfg("random", oracle_kind="csv")
    with pytest.raises(ConfigError):
        _cfg("random", oracle_kind="file")
    with pytest.raises(ConfigError):
        _cfg("random", noise=-0.1)
    with pytest.raises(ConfigError):
        _cfg("random", oracle_seed=-1)
    with pytest.raises(ConfigError):
        _cfg("reinforced", embed_size=0)
    with pytest.raises(ConfigError):
        _cfg("reinforced", hidden_size=0)
    with pytest.raises(ConfigError):
        _cfg("reinforced", learning_rate=-1.0)
    with pytest.raises(ConfigError):
        _cfg("rl_construct", learning_rate=0.0)
    for name in ("noise", "learning_rate", "entropy_weight"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=name):
                _cfg("reinforced", **{name: value})
    with pytest.raises(ConfigError, match="budget"):
        replace(_cfg("reinforced"), budget=0)  # replace runs the same check
    _cfg("reinforced")  # the good case passes


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(pop_size=8.0),
        dict(pop_size=True),
        dict(budget="40"),
        dict(oracle_seed=7.0),
        dict(learning_rate=True),
        dict(entropy_weight="0.1"),
        dict(noise=False),
        dict(strategy=1),
        dict(oracle_kind=None),
        dict(oracle_kind="file", oracle_path=3),
        dict(space=(2, 3)),
    ],
    ids=lambda kwargs: ",".join(f"{k}={v!r}" for k, v in kwargs.items()),
)
def test_strategy_config_rejects_a_value_of_another_type(kwargs):
    name = list(kwargs)[-1]
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        StrategyConfig(**kwargs)


def test_policy_size_is_the_size_of_the_policy_a_run_builds():
    rng = np.random.default_rng(0)
    for strategy, bidirectional in (("reinforced", True), ("reinforced_nonbi", False)):
        params = init_controller(CFG23, rng, 8, 8, bidirectional)
        assert policy_size(_cfg(strategy)) == params.p.flat.size
    policy = ConstructionPolicy(CFG23, rng, embed_size=8, hidden_size=8)
    assert policy_size(_cfg("rl_construct")) == policy.p.flat.size
    assert policy_size(_cfg("ea_random")) == policy_size(_cfg("random")) == 0


def test_a_policy_above_the_size_cap_is_a_config_error(tmp_path, capsys):
    """Refused from the sizes alone, before anything is allocated: at
    hidden_size 1e9 the weights alone would take exabytes."""
    tracemalloc.start()
    try:
        for strategy in ("reinforced", "reinforced_nonbi", "rl_construct"):
            with pytest.raises(ConfigError, match="hidden_size 1000000000"):
                _cfg(strategy, hidden_size=10**9)
            with pytest.raises(ConfigError, match=f"at most {MAX_POLICY_SIZE:,}"):
                _cfg(strategy, embed_size=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    _cfg("ea_random", hidden_size=10**9)  # which builds no policy
    assert main(["search", "--hidden", "1000000000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_an_oversized_space_is_a_config_error(tmp_path, capsys):
    """The block cap fires while the CLI builds its config, before the
    oracle: at 10**8 blocks its first weight table alone would take 11.9 GiB."""
    argv = ["search", "--strategy", "ea_random", "--oracle", "landscape:7",
            "--blocks", "100000000", "--pop", "4", "--sample", "2",
            "--budget", "6", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    err = capsys.readouterr().err
    assert err == f"error: num_blocks must be in [1, {MAX_BLOCKS}], got 100000000\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1"])
def test_run_strategy_rejects_a_bad_seed(seed):
    cfg = _cfg("random", budget=5)
    with pytest.raises(ConfigError, match="seed"):
        run_strategy(cfg, seed, make_oracle(cfg))


@pytest.mark.parametrize(
    "section, key", [("maturity", "sigma"), ("policy", "learning_rate"),
                     ("policy", "entropy_weight")]
)
def test_config_from_header_rejects_non_finite_settings(section, key):
    cfg = _cfg("random", budget=5)
    _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg))
    header = json.loads(json.dumps(log[0]))
    header[section][key] = math.nan
    with pytest.raises(ConfigError):
        config_from_header(header)


def test_make_oracle_noise_handling(tmp_path):
    assert make_oracle(_cfg("random")).maturity.sigma == 0.01
    assert make_oracle(_cfg("random", noise=0.0)).maturity.sigma == 0.0
    stored = build_tabular(CFG23, seed=7)
    stored.maturity.sigma = 0.07
    path = tmp_path / "oracle.json"
    save_oracle(str(path), stored)
    by_file = make_oracle(_cfg("random", oracle_kind="file", oracle_path=str(path)))
    assert by_file.maturity.sigma == 0.07  # file keeps its stored noise
    overridden = make_oracle(
        _cfg("random", oracle_kind="file", oracle_path=str(path), noise=0.5)
    )
    assert overridden.maturity.sigma == 0.5


def test_make_oracle_rejects_space_mismatch(tmp_path):
    stored = build_tabular(SpaceConfig(num_blocks=1, num_ops=3), seed=7)
    path = tmp_path / "oracle.json"
    save_oracle(str(path), stored)
    with pytest.raises(ConfigError):
        make_oracle(_cfg("random", oracle_kind="file", oracle_path=str(path)))


def test_resolve_target_tabular_uses_recorded_optimum():
    oracle = build_tabular(CFG23, seed=7)
    target, source = resolve_target(oracle)
    assert target == TARGET_FRACTION * oracle.optimum_fitness
    assert source == "oracle_optimum"


def test_resolve_target_landscape_uses_pilot():
    cfg = _cfg("random", oracle_kind="landscape")
    oracle = make_oracle(cfg)
    t1, source = resolve_target(oracle)
    t2, _ = resolve_target(oracle)
    assert t1 == t2
    assert "random_pilot" in source
    assert 0.0 < t1 < 1.0


@pytest.mark.parametrize("blocks, ops", [(3, 4), (5, 6)])
@pytest.mark.parametrize("oracle_seed", [0, 7, None])
def test_landscape_target_equals_scalar_pilot_bit_for_bit(blocks, ops, oracle_seed):
    oracle = LandscapeOracle(SpaceConfig(num_blocks=blocks, num_ops=ops), oracle_seed)
    rng = np.random.default_rng((oracle_seed or 0) + 1_000_003)
    best = max(
        oracle.true_fitness(random_cell(oracle.cfg, rng)) for _ in range(PILOT_SAMPLES)
    )
    target, source = resolve_target(oracle)
    assert target == TARGET_FRACTION * best
    assert source == f"random_pilot({PILOT_SAMPLES})"
    if (blocks, ops, oracle_seed) == (5, 6, 7):
        assert target == 0.9899845203646035  # the paper space's default oracle


def test_pilot_rows_are_one_draw_of_valid_cells():
    oracle = LandscapeOracle(SpaceConfig(num_blocks=5, num_ops=6), 7)
    digits = np.concatenate(list(pilot_digits(oracle)))
    one_call = random_digits(oracle.cfg, np.random.default_rng(7 + 1_000_003), PILOT_SAMPLES)
    assert np.array_equal(digits, one_call)  # chunked rows are the same rows
    for row in digits:
        assert validate(cell_from_digits(row, oracle.cfg), oracle.cfg) is None


def test_evals_to_target_indexing():
    assert _evals_to_target([0.1, 0.2, 0.3], 0.15) == 2
    assert _evals_to_target([0.5], 0.4) == 1
    assert _evals_to_target([0.1, 0.2], 0.9) is None


# ---------------------------------------------------------------------------
# Construction policy
# ---------------------------------------------------------------------------


def test_construction_policy_samples_valid_cells():
    for seed in (0, 1):
        policy = ConstructionPolicy(CFG23, np.random.default_rng(seed), **SMALL)
        rng = np.random.default_rng(seed + 100)
        for _ in range(250):
            walk = policy.sample(rng)
            assert validate(walk.cell, CFG23) is None
            assert walk.total_logprob <= 0.0
            assert walk.total_entropy > 0.0


def test_construction_sample_matches_differentiable_logprob():
    policy = ConstructionPolicy(CFG23, np.random.default_rng(3), **SMALL)
    rng = np.random.default_rng(4)
    for _ in range(25):
        walk = policy.sample(rng)
        # teacher-forced on the sample
        assert policy.logprob(walk.cell) == (walk.total_logprob, walk.total_entropy)


def test_construction_entropy_bounded_by_uniform():
    policy = ConstructionPolicy(CFG23, np.random.default_rng(5), **SMALL)
    bound = 0.0
    for b in range(1, 3):
        bound += 2 * math.log(b + 1) + 2 * math.log(3)
    assert policy.sample(np.random.default_rng(6)).total_entropy <= bound + 1e-9


@pytest.mark.parametrize("blocks, ops", [(3, 3), (1, 3), (2, 4)])
def test_construction_logprob_rejects_a_cell_of_another_space(blocks, ops):
    policy = ConstructionPolicy(CFG23, np.random.default_rng(9), **SMALL)
    cell = random_cell(SpaceConfig(blocks, ops), np.random.default_rng(10))
    with pytest.raises(ValueError, match=f"{blocks} blocks and {ops} ops .* 2 blocks"):
        policy.logprob(cell)


def test_an_rl_construct_evaluation_walks_once(monkeypatch):
    # one sampling walk, one LSTM pass over its 4B steps, and the update
    # backpropagates that walk rather than walking the cell again
    calls = {"walk": 0, "step": 0}

    def counted(name, fn):
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    monkeypatch.setattr(
        ConstructionPolicy, "_walk", counted("walk", ConstructionPolicy._walk)
    )
    monkeypatch.setattr(nn_core, "lstm_step_np", counted("step", nn_core.lstm_step_np))
    cfg = _cfg("rl_construct", budget=1)
    run_strategy(cfg, 0, make_oracle(cfg))
    assert calls == {"walk": 1, "step": 4 * CFG23.num_blocks}


def test_construction_logprob_gradcheck():
    policy = ConstructionPolicy(
        CFG23, np.random.default_rng(7), embed_size=4, hidden_size=4
    )
    walk = policy.sample(np.random.default_rng(8))
    err = check_grads(
        lambda: policy.logprob(walk.cell)[0], policy.grads(walk), policy.named_params()
    )
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Shared seeding discipline across strategies
# ---------------------------------------------------------------------------


def test_identical_initial_population_across_population_strategies():
    oracle = build_tabular(CFG23, seed=7)
    inits = {}
    for name in POPULATION_STRATEGIES:
        cfg = _cfg(name, budget=8)  # budget == pop_size: zero steps
        _, log = run_strategy(cfg, seed=5, oracle=oracle)
        inits[name] = [
            (r["id"], r["cell"], r["fitness"])
            for r in log
            if r["kind"] == "init"
        ]
        assert len(inits[name]) == 8
    assert inits["reinforced"] == inits["reinforced_nonbi"] == inits["ea_random"]


def test_random_strategy_draws_same_cells_as_population_init():
    oracle = build_tabular(CFG23, seed=7)
    _, pop_log = run_strategy(_cfg("ea_random", budget=8), seed=5, oracle=oracle)
    _, rnd_log = run_strategy(_cfg("random", budget=8), seed=5, oracle=oracle)
    pop_cells = [r["cell"] for r in pop_log if r["kind"] == "init"]
    rnd_cells = [r["cell"] for r in rnd_log if r["kind"] == "eval"]
    assert pop_cells == rnd_cells


# ---------------------------------------------------------------------------
# Run summaries
# ---------------------------------------------------------------------------


def test_population_summary_trajectories():
    """The summary of a population run, and the population trajectories
    that compare computes from its summary and its step records."""
    oracle = build_tabular(CFG23, seed=7)
    cfg = _cfg("ea_random", budget=40, pop_size=10, sample_size=4)
    summary, log = run_strategy(cfg, seed=2, oracle=oracle)
    pop_mean, pop_var = _population_trajectories(summary.true_per_eval, 10, log[11:-1])
    assert len(summary.true_per_eval) == 40
    assert len(summary.best_so_far) == 40
    assert len(pop_mean) == len(pop_var) == 40
    assert summary.best_so_far == list(np.maximum.accumulate(summary.true_per_eval))
    # during initialization the live set is exactly the prefix
    assert pop_mean[0] == pytest.approx(summary.true_per_eval[0])
    assert pop_mean[9] == pytest.approx(float(np.mean(summary.true_per_eval[:10])))
    assert all(v >= 0.0 for v in pop_var)
    assert summary.final_best_true == max(
        make_oracle(cfg).true_fitness(cell_from_text(m["cell"], CFG23))
        for m in log
        if m["kind"] == "init"
    ) or summary.final_best_true > 0.0  # best may come from a later child
    header, final = log[0], log[-1]
    assert header["kind"] == "header"
    assert final["kind"] == "final"
    assert final["best_true"] == summary.final_best_true
    assert len([r for r in log if r["kind"] == "step"]) == 30
    assert [m["id"] for m in final["members"]] == sorted(
        m["id"] for m in final["members"]
    )


def _reference_trajectories(result, oracle):
    """The per-step rebuild that _population_trajectories replaced: true
    fitness asked of the oracle again, the live set kept as a dict."""
    history = result.population.history
    true_vals = [oracle.true_fitness(ind.cell) for ind in history]
    by_id = {ind.id: t for ind, t in zip(history, true_vals)}
    live = {}
    pop_mean, pop_var = [], []
    steps = iter(result.records)
    for i, ind in enumerate(history):
        if i < result.population.capacity:
            live[ind.id] = true_vals[i]
        else:
            record = next(steps)
            del live[record.removed_id]
            live[record.child_id] = by_id[record.child_id]
        vals = np.fromiter(live.values(), dtype=np.float64)
        pop_mean.append(float(vals.mean()))
        pop_var.append(float(vals.var()))
    return true_vals, pop_mean, pop_var


@pytest.mark.parametrize(
    "blocks, ops, kind, pop, sample, budget",
    # steps: 300 and 280 (a 256-row block and part of one), 512 (two whole
    # blocks) and 513 (one row past them)
    [(5, 6, "landscape", 100, 25, 400), (3, 4, "tabular", 20, 5, 300),
     (2, 3, "tabular", 8, 3, 520), (2, 3, "landscape", 8, 3, 521)],
)
def test_population_trajectories_equal_per_step_reference(
    blocks, ops, kind, pop, sample, budget
):
    cfg = _cfg(
        "ea_random",
        space=SpaceConfig(num_blocks=blocks, num_ops=ops),
        oracle_kind=kind,
        pop_size=pop,
        sample_size=sample,
        budget=budget,
    )
    oracle = make_oracle(cfg)
    streams = rng_streams(4)  # the streams run_strategy draws from for seed 4
    result = evolve(
        cfg.space,
        oracle,
        RandomMutationPolicy(cfg.space, streams["policy"]).propose,
        budget=budget - pop,
        pop_size=pop,
        sample_size=sample,
        streams=streams,
    )
    true_vals = [ind.true_fitness for ind in result.population.history]
    steps = [step_record(rec) for rec in result.records]
    trajectories = (true_vals, *_population_trajectories(true_vals, pop, steps))
    assert trajectories == _reference_trajectories(result, oracle)  # bit for bit
    summary, log = run_strategy(cfg, seed=4, oracle=oracle, target=1.0)
    from_run = _population_trajectories(summary.true_per_eval, pop, log[1 + pop : -1])
    assert (summary.true_per_eval, *from_run) == trajectories


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_evaluation_reads_true_fitness_once(strategy):
    cfg = _cfg(strategy, oracle_kind="landscape", budget=60, pop_size=10, sample_size=4)
    oracle = make_oracle(cfg)
    target, _ = resolve_target(oracle)
    true_fitness = oracle.true_fitness
    seen = []
    oracle.true_fitness = lambda cell: seen.append(cell) or true_fitness(cell)
    summary, _ = run_strategy(cfg, seed=0, oracle=oracle, target=target)
    assert len(seen) == cfg.budget
    assert summary.true_per_eval == [true_fitness(cell) for cell in seen]


def test_random_summary_matches_exact_order_statistics():
    # for uniform sampling the distribution of the best-of-n true fitness is
    # known in closed form from the table; the empirical mean over seeds must
    # sit within sampling error of the exact expectation
    oracle = build_tabular(CFG23, seed=7)
    n, n_seeds = 30, 40
    vals = np.sort(oracle.table)
    N = vals.size
    cdf_pow = ((np.arange(1, N + 1) / N) ** n)
    prev_pow = ((np.arange(0, N) / N) ** n)
    exact_mean = float(np.sum(vals * (cdf_pow - prev_pow)))

    cfg = _cfg("random", budget=n)
    bests = []
    for seed in range(100, 100 + n_seeds):
        summary, _ = run_strategy(cfg, seed, oracle)
        assert summary.best_so_far == sorted(summary.best_so_far)
        bests.append(summary.best_so_far[-1])
    emp_mean = float(np.mean(bests))
    sem = float(np.std(bests, ddof=1)) / math.sqrt(n_seeds)
    assert abs(emp_mean - exact_mean) < 4.0 * sem + 1e-12, (emp_mean, exact_mean)


def test_learners_train_once_per_step_or_eval_and_replay_never(tmp_path, monkeypatch):
    """Every reinforced and reinforced_nonbi step logs its update's reward,
    advantage and grad_norm, and every rl_construct eval its grad_norm: one
    ReinforceTrainer.update each, by the run's one trainer. A replay of the
    log never calls update."""
    update = ReinforceTrainer.update
    trainers = []

    def counted(self, *args):
        trainers.append(self)
        return update(self, *args)

    monkeypatch.setattr(ReinforceTrainer, "update", counted)
    for strategy in ("reinforced", "reinforced_nonbi", "rl_construct"):
        cfg = _cfg(strategy, budget=20, pop_size=6)
        trainers.clear()
        _, log = run_strategy(cfg, seed=13, oracle=make_oracle(cfg), target=1.0)
        if strategy == "rl_construct":
            trained = [r for r in log if r["kind"] == "eval"]
            assert len(trained) == cfg.budget
            assert all(type(r["grad_norm"]) is float for r in trained)
        else:
            trained = [r for r in log if r["kind"] == "step"]
            assert len(trained) == cfg.budget - cfg.pop_size
            for r in trained:
                assert set(r["diagnostics"]) == {"reward", "advantage", "grad_norm"}
        assert len(trainers) == len(trained) and len(set(map(id, trainers))) == 1
        path = str(tmp_path / f"{strategy}.jsonl")
        write_jsonl(path, log)
        trainers.clear()
        replay(path)
        assert trainers == [], strategy


def test_rl_construct_run_shape(tmp_path):
    oracle = build_tabular(CFG23, seed=7)
    cfg = _cfg("rl_construct", budget=30)
    summary, log = run_strategy(cfg, seed=1, oracle=oracle)
    evals = [r for r in log if r["kind"] == "eval"]
    assert len(evals) == 30
    assert all("grad_norm" in r for r in evals)
    assert summary.final_best_true == max(summary.true_per_eval)
    # compare gives it no population trajectories
    compare(cfg, ["rl_construct"], [1], str(tmp_path))
    rows = (tmp_path / "runs.csv").read_text().splitlines()[1:]
    assert len(rows) == 30 and all(row.endswith(",,") for row in rows)


# ---------------------------------------------------------------------------
# compare() outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    cfg = _cfg("reinforced", budget=60, pop_size=10, sample_size=4)
    strategies = ["reinforced", "ea_random", "random"]
    report = compare(cfg, strategies, [0, 1], str(out))
    return cfg, strategies, out, report


def test_compare_writes_expected_files(comparison):
    cfg, strategies, out, report = comparison
    for name in strategies:
        for seed in (0, 1):
            assert (out / f"trace_{name}_{seed}.jsonl").exists()
    csv_lines = (out / "runs.csv").read_text().splitlines()
    assert csv_lines[0] == "strategy,seed,eval,true_fitness,best_so_far,pop_mean,pop_var"
    assert len(csv_lines) == 1 + len(strategies) * 2 * 60
    # non-population strategies leave the population columns empty
    random_rows = [l for l in csv_lines if l.startswith("random,")]
    assert all(l.endswith(",,") for l in random_rows)


def test_compare_report_structure(comparison):
    cfg, strategies, out, report = comparison
    assert report["target"] == pytest.approx(
        TARGET_FRACTION * build_tabular(CFG23, seed=7).optimum_fitness
    )
    assert report["seeds"] == [0, 1]
    for name in strategies:
        block = report["strategies"][name]
        assert len(block["evals_to_target"]) == 2
        assert len(block["final_best_true"]) == 2
        assert block["median_evals_to_target"] <= cfg.budget + 1
    assert set(report["comparisons"]) == {
        "reinforced_vs_ea_random",
        "reinforced_vs_random",
    }
    for block in report["comparisons"].values():
        assert 0.0 <= block["rank_sum_p"] <= 1.0
        lo, hi = block["speedup_ci95"]
        assert lo <= block["speedup_median"] <= hi
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == report


def test_compare_is_byte_identical_across_reruns(comparison, tmp_path):
    cfg, strategies, out, report = comparison
    again = tmp_path / "again"
    compare(cfg, strategies, [0, 1], str(again))
    assert (again / "runs.csv").read_bytes() == (out / "runs.csv").read_bytes()
    for name in strategies:
        for seed in (0, 1):
            fname = f"trace_{name}_{seed}.jsonl"
            assert (again / fname).read_bytes() == (out / fname).read_bytes()


def test_compare_rejects_bad_requests(tmp_path):
    cfg = _cfg("reinforced")
    with pytest.raises(ConfigError):
        compare(cfg, ["reinforced", "hillclimb"], [0], str(tmp_path))
    with pytest.raises(ConfigError):
        compare(cfg, ["random"], [0, 0], str(tmp_path))
    out = tmp_path / "out"
    for seeds in ([-1, 0], [0, True]):
        with pytest.raises(ConfigError, match="seed"):
            compare(cfg, ["random"], seeds, str(out))
    assert not out.exists()  # checked before any file is written


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def test_replay_population_strategies_bit_exact(comparison):
    cfg, strategies, out, report = comparison
    for name in ("reinforced", "ea_random"):
        for seed in (0, 1):
            path = str(out / f"trace_{name}_{seed}.jsonl")
            logged_final = read_jsonl(path)[-1]
            replayed = replay(path)
            assert replayed == logged_final


def test_replay_random_strategy_bit_exact(comparison):
    cfg, strategies, out, report = comparison
    path = str(out / "trace_random_0.jsonl")
    records = read_jsonl(path)
    replayed = replay(path)
    assert replayed["best_cell"] == records[-1]["best_cell"]
    assert replayed["best_true"] == records[-1]["best_true"]
    logged_fitness = [r["fitness"] for r in records if r["kind"] == "eval"]
    assert [e["fitness"] for e in replayed["evals"]] == logged_fitness


def test_replay_rl_construct_bit_exact(tmp_path):
    oracle = build_tabular(CFG23, seed=7)
    cfg = _cfg("rl_construct", budget=25)
    _, log = run_strategy(cfg, seed=3, oracle=oracle)
    path = tmp_path / "trace_rl_construct_3.jsonl"
    write_jsonl(str(path), log)
    replayed = replay(str(path))
    assert replayed["best_cell"] == log[-1]["best_cell"]
    assert replayed["best_true"] == log[-1]["best_true"]
    logged_fitness = [r["fitness"] for r in log if r["kind"] == "eval"]
    assert [e["fitness"] for e in replayed["evals"]] == logged_fitness


@pytest.mark.parametrize("kind", ["landscape", "tabular"])
def test_oracle_seed_none_is_seed_0_and_replays(kind, tmp_path):
    cfg = _cfg("ea_random", oracle_kind=kind, oracle_seed=None)
    first, second = make_oracle(cfg), make_oracle(cfg)
    if kind == "landscape":
        for name in ("w_op", "w_in", "w_pair"):
            assert np.array_equal(
                getattr(first.weights, name), getattr(second.weights, name)
            )
    else:
        assert np.array_equal(first.table, second.table)
    _, log = run_strategy(cfg, seed=0, oracle=first)
    path = str(tmp_path / "trace_ea_random_0.jsonl")
    write_jsonl(path, log)
    assert replay(path) == log[-1]


def test_replay_detects_tampered_log(comparison, tmp_path):
    cfg, strategies, out, report = comparison
    records = read_jsonl(str(out / "trace_ea_random_0.jsonl"))
    step = next(r for r in records if r["kind"] == "step")
    step["parent_id"] = step["parent_id"] + 1
    tampered = tmp_path / "tampered.jsonl"
    write_jsonl(str(tampered), records)
    with pytest.raises(RuntimeError):
        replay(str(tampered))


def _logged(strategy, tmp_path, **kwargs):
    cfg = _cfg(strategy, **kwargs)
    _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg))
    return log, str(tmp_path / f"trace_{strategy}_0.jsonl")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_write_jsonl_writes_what_json_dumps_writes(strategy, tmp_path):
    """A step record holds its MutationTrace, whose text write_jsonl splices
    in from trace_json; each line is json.dumps of the record with the
    trace in its trace_to_dict form. trace_json is the encoded dict, also
    for a trace that trace_from_dict rebuilt, whose actions are fresh
    objects with nothing cached."""
    cfg = _cfg(strategy, budget=30)
    _, log = run_strategy(cfg, seed=2, oracle=make_oracle(cfg))
    path = tmp_path / "log.jsonl"
    write_jsonl(str(path), log)
    dicts = _dict_traces(log)
    assert path.read_text().splitlines() == [json.dumps(r, sort_keys=True) for r in dicts]
    traces = [r["trace"] for r in log if r["kind"] == "step"]
    assert len(traces) == (22 if strategy in POPULATION_STRATEGIES else 0)
    for trace in traces:
        text = json.dumps(trace_to_dict(trace), sort_keys=True)
        assert trace_json(trace) == text
        assert trace_json(trace_from_dict(json.loads(text))) == text
    write_jsonl(str(path), dicts)  # records read back hold their traces as dicts
    assert read_jsonl(str(path)) == dicts


def _dict_traces(log):
    """log with each step's trace in its trace_to_dict form, as read_jsonl
    gives it back."""
    return [{**r, "trace": trace_to_dict(r["trace"])} if r["kind"] == "step" else r
            for r in log]


def _assert_encoders_lines(records):
    """record_line of each record, and of its read_jsonl form, is
    LOG_ENCODER's encoding of that form, byte for byte."""
    for record in records:
        trace = record.get("trace")
        plain = {**record, "trace": trace_to_dict(trace)} if type(trace) is MutationTrace else record
        assert record_line(record) == LOG_ENCODER.encode(plain), record
        assert record_line(plain) == LOG_ENCODER.encode(plain), plain


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("blocks, ops, kind", [(3, 4, "tabular"), (5, 6, "landscape")])
def test_record_line_is_the_encoders_line(strategy, blocks, ops, kind):
    """record_line joins step and eval lines from their fields' text; every
    record of every strategy gets LOG_ENCODER's bytes."""
    space = SpaceConfig(num_blocks=blocks, num_ops=ops)
    cfg = _cfg(strategy, space=space, oracle_kind=kind, budget=30)
    _, log = run_strategy(cfg, seed=3, oracle=make_oracle(cfg), target=1.0)
    _assert_encoders_lines(log)


@pytest.fixture(scope="module")
def logged_step():
    cfg = _cfg("reinforced", budget=10)
    _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg), target=1.0)
    return next(r for r in log if r["kind"] == "step")


@pytest.mark.parametrize("x", [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16])
def test_record_line_writes_each_number_as_the_encoder_does(x, logged_step):
    trace = logged_step["trace"]
    actions = tuple(
        replace(a, router_logprob=x, replace_logprob=-x, router_entropy=x, replace_entropy=x)
        for a in trace.actions
    )
    big = 2**63
    _assert_encoders_lines([
        {**logged_step, "child_fitness": x, "parent_fitness": -x, "child_maturity": x},
        {**logged_step, "diagnostics": {"reward": x, "advantage": -x, "grad_norm": x}},
        {**logged_step, "step": big, "parent_id": big, "child_id": big, "removed_id": big,
         "sampled_ids": [big, 0, -big]},
        {**logged_step, "trace": MutationTrace(actions, x, -x)},
        eval_record(big, "cell", x),
        eval_record(1, "cell", -x, grad_norm=x),
    ])


def test_record_line_encodes_the_fields_it_does_not_format(logged_step):
    """A step or eval record with another key set or a field of a type
    that _records does not write gets the encoder's bytes."""
    without = {k: v for k, v in logged_step.items() if k != "diagnostics"}
    _assert_encoders_lines([
        {**logged_step, "child_fitness": 1},
        {**logged_step, "parent_id": True},
        {**logged_step, "step": False},
        {**logged_step, "sampled_ids": [1, True]},
        {**logged_step, "sampled_ids": (1, 2)},
        {**logged_step, "diagnostics": None},
        {**logged_step, "kind": "init"},
        {**logged_step, "extra": 1},
        without,
        {**without, "other": None},
        eval_record(1, "cell", 1),
        eval_record(True, "cell", 0.5),
        eval_record(1, 'a "quoted" cell', 0.5),
        eval_record(1, "caf\u00e9 \u2192 cell", 0.5),
        eval_record(1, "cell", 0.5, grad_norm=None),
        eval_record(1, "cell", 0.5, other=0.5),
        {"kind": "eval", "index": 1, "cell": "cell"},
        {"kind": "eval", "index": 1, "cell": None, "fitness": 0.5},
    ])


def test_replay_rejects_an_eval_record_with_a_bad_cell(tmp_path):
    log, path = _logged("random", tmp_path, budget=5)
    log[3]["cell"] = "garbage"
    write_jsonl(path, log)
    with pytest.raises(ConfigError, match="record 4"):
        replay(path)


def test_replay_rejects_a_step_record_without_its_trace(tmp_path):
    log, path = _logged("ea_random", tmp_path)
    step = next(r for r in log if r["kind"] == "step")
    del step["trace"]
    write_jsonl(path, log)
    with pytest.raises(ConfigError, match=f"record {log.index(step) + 1}"):
        replay(path)


def test_replay_rejects_a_log_that_is_only_a_header(tmp_path):
    log, path = _logged("random", tmp_path, budget=5)
    write_jsonl(path, log[:1])
    with pytest.raises(ConfigError, match="0 eval records"):
        replay(path)


def test_replay_rejects_a_log_without_its_init_records(tmp_path):
    log, path = _logged("ea_random", tmp_path)
    write_jsonl(path, [r for r in log if r["kind"] != "init"])
    with pytest.raises(ConfigError, match="0 init records"):
        replay(path)


@pytest.mark.parametrize(
    "chosen, edit",
    [
        pytest.param(lambda a: a["replacement"] == 1, {"replacement": 1.5},
                     id="replacement-float"),
        pytest.param(lambda a: a["replacement"] == 1, {"replacement": True},
                     id="replacement-bool"),
        pytest.param(lambda a: a["block"] == 1, {"block": 1.9}, id="block-float"),
        pytest.param(lambda a: a["target"] == "i1", {"target": "I1"},
                     id="target-upper-case"),
        pytest.param(lambda a: True, {"router_logprob": "nan"},
                     id="router_logprob-string"),
    ],
)
def test_replay_parses_a_fed_back_trace_strictly(chosen, edit, tmp_path):
    """Under int(), float() or .upper() each edit parses to a trace that
    replays as the logged one, so only a strict parse can tell it from the
    log."""
    log, path = _logged("ea_random", tmp_path)
    log = _dict_traces(log)
    step = next(
        r for r in log if r["kind"] == "step" and any(map(chosen, r["trace"]["actions"]))
    )
    next(filter(chosen, step["trace"]["actions"])).update(edit)
    write_jsonl(path, log)
    with pytest.raises(ConfigError, match=f"record {log.index(step) + 1} is malformed"):
        replay(path)


def _padded(text):
    return f" {text} "


def _signed(text):
    """Block 2's first input, a ref to block 1, written with a plus sign."""
    first, second = text.split("|")
    i1, rest = second.split(",", 1)
    return f"{first}|+{i1},{rest}"


@pytest.mark.parametrize("edit", [_padded, _signed])
def test_replay_rebuilds_the_text_of_each_eval_cell(edit, tmp_path):
    """cell_from_text reads the edited text as the logged cell; the
    rebuilt text is what cell_to_text writes, so the record diverges."""
    log, path = _logged("random", tmp_path)
    evals = [r for r in log if r["kind"] == "eval"]
    record = next(r for r in evals if r["cell"].split("|")[1].startswith("1,"))
    record["cell"] = edit(record["cell"])
    write_jsonl(path, log)
    named = rf"record {log.index(record) + 1} \(eval {record['index']}\)"
    with pytest.raises(ReplayDiverged, match=named):
        replay(path)


@pytest.mark.parametrize("key", ["child_fitness", "child_maturity"])
def test_replay_rejects_an_edited_child(key, tmp_path):
    log, path = _logged("ea_random", tmp_path)
    step = [r for r in log if r["kind"] == "step"][5]
    step[key] = math.nextafter(step[key], 1.0)  # one bit up
    write_jsonl(path, log)
    with pytest.raises(ReplayDiverged, match=f"step {step['step']}"):
        replay(path)


def test_replay_names_the_step_whose_trace_does_not_apply(tmp_path):
    log, path = _logged("ea_random", tmp_path)
    log = _dict_traces(log)
    step = [r for r in log if r["kind"] == "step"][5]
    action = step["trace"]["actions"][0]
    action["target"], action["replacement"] = "o1", "MAX3"  # outside 3 ops
    write_jsonl(path, log)
    number = log.index(step) + 1
    with pytest.raises(
        ReplayDiverged,
        match=rf"^replay diverged from log at record {number} \(step 6\): .*MAX3",
    ):
        replay(path)


@pytest.mark.parametrize("strategy", ["random", "rl_construct"])
def test_replay_validates_each_logged_cell_once(strategy, tmp_path, monkeypatch):
    log, path = _logged(strategy, tmp_path, budget=12)
    write_jsonl(path, log)
    checked = []

    def counted(cell, cfg):
        checked.append(cell)
        return validate(cell, cfg)

    monkeypatch.setattr(arch_space, "validate", counted)
    replay(path)
    assert len(checked) == 12


def test_replay_of_a_tabular_log_allocates_no_table(tmp_path):
    cfg = _cfg("reinforced", space=SpaceConfig(num_blocks=3, num_ops=4), oracle_seed=5)
    _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg))
    path = str(tmp_path / "trace_reinforced_0.jsonl")
    write_jsonl(path, log)
    tracemalloc.start()
    try:
        replay(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20  # the oracle's table would take 18 MB


def test_replay_holds_one_logged_record_at_a_time(tmp_path):
    """A 2,000-evaluation landscape log replays within 4 MiB of traced heap:
    the population's history and one record. Holding every decoded record
    and parsed trace took 14.7 MiB here; reading in lockstep takes 2.3 MiB."""
    cfg = _cfg("ea_random", space=SpaceConfig(num_blocks=5, num_ops=6),
               oracle_kind="landscape", oracle_seed=7, pop_size=100,
               sample_size=25, budget=2000)
    _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg), target=1.0)
    path = str(tmp_path / "trace_ea_random_0.jsonl")
    write_jsonl(path, log)
    del log
    tracemalloc.start()
    try:
        replay(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_search_and_its_log_write_fit_in_6_mib(tmp_path):
    """A 2,000-evaluation landscape ea_random search and the write of its
    log peak within 6 MiB of traced heap. A dict per step's trace and the
    whole (steps, pop) trajectory matrix took 8.45 MiB; step records that
    hold their traces, whose text the writer joins from each action's, and
    trajectory rows reduced in blocks take 4.25 MiB."""
    cfg = _cfg("ea_random", space=SpaceConfig(num_blocks=5, num_ops=6),
               oracle_kind="landscape", oracle_seed=7, pop_size=100,
               sample_size=25, budget=2000)
    oracle = make_oracle(cfg)
    path = str(tmp_path / "trace_ea_random_3.jsonl")
    tracemalloc.start()
    try:
        _, log = run_strategy(cfg, seed=3, oracle=oracle, target=1.0)
        write_jsonl(path, log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, peak


def test_replay_stops_at_the_step_that_diverges(tmp_path, monkeypatch):
    """A log edited at step 6 is reported once step 6 is re-run, not after
    the whole budget (32 steps here)."""
    log, path = _logged("ea_random", tmp_path)
    step = [r for r in log if r["kind"] == "step"][5]
    step["child_fitness"] = _bit_up(step["child_fitness"])
    write_jsonl(path, log)
    calls = []
    step_fn = harness.evolution_step

    def counted(*args, **kwargs):
        calls.append(args)
        return step_fn(*args, **kwargs)

    monkeypatch.setattr(harness, "evolution_step", counted)
    with pytest.raises(ReplayDiverged, match=r"\(step 6\)"):
        replay(path)
    assert 1 <= len(calls) <= 6


def _bit_up(value):
    return math.nextafter(value, math.inf)


def _another_cell(text):
    """A legal cell's text other than text."""
    first, second = (cell_to_text(cell_from_digits(d, CFG23)) for d in ([0] * 8, [1] * 8))
    return first if text != first else second


def _negative_zero(zero):
    """-0.0, which == zero, a logged 0.0, but is written "-0.0"."""
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    return -0.0


# A run whose 15th init (record 16) is observed at 0.0, clamped from below.
_CLAMPED = ("ea_random", dict(space=SpaceConfig(3, 4), oracle_seed=5, pop_size=20,
                              sample_size=5, budget=60))


@pytest.mark.parametrize(
    "run, kind, at, keys, change",
    [
        pytest.param("ea_random", "step", 5, ("sampled_ids",), lambda ids: ids[::-1],
                     id="step-sampled_ids"),
        pytest.param("ea_random", "step", 5, ("parent_fitness",), _bit_up,
                     id="step-parent_fitness"),
        pytest.param("random", "eval", 5, ("index",), lambda index: index + 1,
                     id="eval-index"),
        pytest.param("ea_random", "header", 0, ("maturity", "tau"), _bit_up,
                     id="header-maturity.tau"),
        pytest.param("ea_random", "header", 0, ("policy", "fitness_clip"), _bit_up,
                     id="header-policy.fitness_clip"),
        pytest.param("ea_random", "final", 0, ("best_cell",), _another_cell,
                     id="ea_random-final-best_cell"),
        pytest.param("ea_random", "final", 0, ("best_true",), _bit_up,
                     id="ea_random-final-best_true"),
        pytest.param("random", "final", 0, ("best_cell",), _another_cell,
                     id="random-final-best_cell"),
        pytest.param("random", "final", 0, ("best_true",), _bit_up,
                     id="random-final-best_true"),
        # equal values of another type: 0 == 0.0 == False, 1 == 1.0 == True
        pytest.param("ea_random", "init", 0, ("id",), bool, id="init-id-false"),
        pytest.param("ea_random", "init", 0, ("id",), float, id="init-id-float"),
        pytest.param("ea_random", "step", 0, ("step",), bool, id="step-step-true"),
        pytest.param("ea_random", "step", 0, ("step",), float, id="step-step-float"),
        pytest.param("ea_random", "step", 5, ("sampled_ids", 0), float,
                     id="step-sampled_ids-float"),
        pytest.param("random", "eval", 0, ("index",), bool, id="eval-index-true"),
        pytest.param("ea_random", "final", 0, ("members", 0, "id"), float,
                     id="final-members-id-float"),
        pytest.param(_CLAMPED, "init", 14, ("fitness",), _negative_zero,
                     id="init-fitness-negative-zero"),
        # ea_random has no learner: its steps' diagnostics are rebuilt as null
        pytest.param("ea_random", "step", 5, ("diagnostics",), lambda none: 0,
                     id="ea_random-step-diagnostics-0"),
        # the header names the trainer's one baseline kind, as it names its
        # reward constants; a log that names another does not reproduce
        pytest.param("ea_random", "header", 0, ("policy", "baseline"),
                     lambda kind: None, id="header-policy.baseline-null"),
        pytest.param("ea_random", "header", 0, ("policy", "baseline"),
                     lambda kind: "none", id="header-policy.baseline-none"),
    ],
)
def test_replay_rejects_an_edited_record(run, kind, at, keys, change, tmp_path):
    strategy, settings = (run, {}) if isinstance(run, str) else run
    log, path = _logged(strategy, tmp_path, **settings)
    record = [r for r in log if r["kind"] == kind][at]
    edited = record
    for key in keys[:-1]:
        edited = edited[key]
    edited[keys[-1]] = change(edited[keys[-1]])
    write_jsonl(path, log)
    number = log.index(record) + 1
    with pytest.raises(ReplayDiverged, match=rf"record {number} \({kind}"):
        replay(path)


@pytest.mark.parametrize(
    "at, old, new",
    [
        pytest.param(0, '"entropy_weight": 0.1', '"entropy_weight": 1e-1',
                     id="header-exponent"),
        pytest.param(11, ", ", ",  ", id="step-extra-space"),
    ],
)
def test_replay_rejects_a_line_that_the_writer_does_not_write(at, old, new, tmp_path):
    """Each edit parses to the record that was logged, so only a check of
    the line's bytes tells it from what the writer wrote."""
    log, path = _logged("ea_random", tmp_path)
    write_jsonl(path, log)
    lines = Path(path).read_text().splitlines()
    edited = lines[at].replace(old, new, 1)
    assert edited != lines[at] and json.loads(edited) == json.loads(lines[at])
    lines[at] = edited
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayDiverged, match=rf"record {at + 1} \("):
        replay(path)


@pytest.mark.parametrize(
    "strategy, kind, keys",
    [
        ("reinforced", "step", ("diagnostics", "reward")),
        ("rl_construct", "eval", ("grad_norm",)),
    ],
)
def test_replay_takes_the_learner_output_from_the_log(strategy, kind, keys, tmp_path):
    """Replay rebuilds no policy and no trainer: the logged learner output
    stands in for the trainer's, so an edit of it replays clean. Checking
    it is ROADMAP item 5's replay --verify."""
    log, path = _logged(strategy, tmp_path, budget=12)
    edited = [r for r in log if r["kind"] == kind][2]
    for key in keys[:-1]:
        edited = edited[key]
    edited[keys[-1]] = _bit_up(edited[keys[-1]])
    write_jsonl(path, log)
    assert replay(path)["best_true"] == log[-1]["best_true"]


def _paths(value, path=()):
    """The key path of every value nested in value, a record."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _paths(item, path + (key,))


def _nudged(value):
    """value moved the least step that keeps its JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return _bit_up(value)
    return 0 if value is None else value + "x"


def _retyped(value):
    """value as another JSON type; a list or an object as null."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return 0
    return "" if value is None else None


def _fuzzed(lines, rng):
    """lines with one seeded edit, and the path of the value it edits
    (None for an edit to a line as a whole): a line deleted, duplicated or
    cut short, or in one record a value nudged or retyped, or a key dropped."""
    lines = list(lines)
    at = rng.randrange(len(lines))
    edit = rng.choice(("delete", "duplicate", "cut", "nudge", "retype", "drop"))
    if edit == "delete":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(at, lines[at])
    elif edit == "cut":
        lines[at] = lines[at][: rng.randrange(1, len(lines[at]))]
    else:
        record = json.loads(lines[at])
        kind = record["kind"]
        paths = [p for p in _paths(record) if edit != "drop" or isinstance(p[-1], str)]
        if edit == "nudge":
            paths = [p for p in paths if not isinstance(_at(record, p), (dict, list))]
        path = rng.choice(paths)
        parent = _at(record, path[:-1])
        if edit == "drop":
            del parent[path[-1]]
        else:
            change = _nudged if edit == "nudge" else _retyped
            parent[path[-1]] = change(parent[path[-1]])
        lines[at] = json.dumps(record, sort_keys=True)
        return lines, (kind, path)
    return lines, None


def _at(record, path):
    for key in path:
        record = record[key]
    return record


def _may_replay_clean(strategy, where):
    """Whether an edit at where, (record kind, key path), may replay clean:
    one to a step's trace, which replay feeds back in; to the learner output
    that replay takes from the log in place of strategy's trainer (a step's
    diagnostics, an rl_construct eval's grad_norm); or to a header setting
    that a replay of strategy reads into its config but never uses: the
    policy's (nothing trains), the population's for random and rl_construct,
    and the oracle's path (no oracle here is read from a file). An edit to a
    line as a whole (where is None) may not."""
    if where is None:
        return False
    kind, keys = where
    if kind == "step":
        learner = strategy in ("reinforced", "reinforced_nonbi")
        return keys[0] == "trace" or learner and keys[0] == "diagnostics"
    if kind == "eval":
        return strategy == "rl_construct" and keys[0] == "grad_norm"
    if kind != "header":
        return False
    unread = [("policy", key) for key in
              ("embed_size", "hidden_size", "learning_rate", "entropy_weight")]
    unread.append(("oracle", "path"))
    if strategy not in POPULATION_STRATEGIES:
        unread += [("run", "pop_size"), ("run", "sample_size")]
    return keys[:2] in unread


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_replay_of_a_fuzzed_log_raises_a_config_error_or_is_clean(strategy, tmp_path):
    """300 seeded edits of a small log. Each replay raises ConfigError (a
    ReplayDiverged is one), and nothing else; it may run clean only when
    the edit left the text as it was, or touched a step's trace, the
    learner output that the log gives in place of the strategy's trainer,
    or a header setting that the strategy's re-run never uses."""
    log, path = _logged(strategy, tmp_path, budget=30)
    write_jsonl(path, log)
    with open(path) as fh:
        lines = fh.read().splitlines()
    rng = random.Random(f"replay fuzz {strategy}")
    outcomes = collections.Counter()
    for _ in range(300):
        edited, where = _fuzzed(lines, rng)
        with open(path, "w") as fh:
            fh.write("\n".join(edited) + "\n")
        try:
            replay(path)
        except ConfigError as exc:
            outcomes[type(exc)] += 1
            continue
        except Exception as exc:
            raise AssertionError(f"{where}: {exc!r}") from exc
        assert edited == lines or _may_replay_clean(strategy, where), where
    assert outcomes[ConfigError] and outcomes[ReplayDiverged], outcomes


def _header_keys():
    """The header key that each StrategyConfig field is read from (the
    space's sizes each), with the type it declares, and the run seed's."""
    where = {"strategy": ("strategy",), "noise": ("maturity", "sigma")}
    keys = {("seed",): int}
    for f in fields(StrategyConfig):
        if f.name == "space":
            for name, hint in get_type_hints(SpaceConfig).items():
                keys[("space", name)] = hint
        else:
            hint = get_type_hints(StrategyConfig)[f.name]
            kind = next(t for t in get_args(hint) or (hint,) if t is not type(None))
            keys[f.metadata.get("header") or where[f.name]] = kind
    return keys


# a value of each wrong JSON type, made from the logged one: a bool for every
# key, a string for a number, a float for an int, an int for a string
_WRONG = {
    "bool": (object, lambda value: True),
    "str": ((int, float), str),
    "float": (int, float),
    "int": (str, lambda value: 3),
}


def _header_type_cases():
    for keys, kind in _header_keys().items():
        label = "oracle-seed" if keys == ("oracle", "seed") else keys[-1]
        for name, (types, change) in _WRONG.items():
            if issubclass(kind, types):
                yield pytest.param("ea_random", keys, change, id=f"{label}-{name}")


@pytest.mark.parametrize(
    "strategy, keys, change",
    [
        *_header_type_cases(),
        pytest.param("ea_random", ("seed",), lambda seed: -1, id="seed-negative"),
        pytest.param("random", ("run", "budget"), float, id="random-budget-float"),
    ],
)
def test_cli_replay_of_a_header_with_a_bad_integer_exits_2(
    strategy, keys, change, tmp_path, capsys
):
    # an oracle path is logged under kind file; an int path is a descriptor
    # of the oracle file, which the check must leave open
    oracle = {}
    if keys == ("oracle", "path"):
        table = tmp_path / "oracle.json"
        save_oracle(str(table), build_tabular(CFG23, seed=7))
        oracle = dict(oracle_kind="file", oracle_path=str(table))
    log, path = _logged(strategy, tmp_path, **oracle)
    section = log[0]
    for key in keys[:-1]:
        section = section[key]
    value = change(section[keys[-1]])
    fd = None
    if keys == ("oracle", "path") and type(value) is int:
        value = fd = os.open(oracle["oracle_path"], os.O_RDONLY)
    section[keys[-1]] = value
    try:
        write_jsonl(path, log)
        assert main(["replay", path]) == 2
        if fd is not None:  # still open, on the same file
            assert os.fstat(fd).st_ino == os.stat(oracle["oracle_path"]).st_ino
    finally:
        if fd is not None:
            os.close(fd)
    err = capsys.readouterr().err
    assert err.startswith("error: malformed log header") and keys[-1] in err
    assert err.count("\n") == 1


def test_cli_replay_of_an_edited_log_exits_2(tmp_path, capsys):
    for kind, key in (("step", "parent_id"), ("final", "best_true")):
        log, path = _logged("ea_random", tmp_path)
        next(r for r in log if r["kind"] == kind)[key] += 1
        write_jsonl(path, log)
        assert main(["replay", path]) == 2, kind
        assert capsys.readouterr().err.startswith("error: replay diverged"), kind


def test_replay_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(str(path), [{"kind": "eval", "index": 1}])
    with pytest.raises(ConfigError):
        replay(str(path))
    records = [{"kind": "header", "version": 99}]
    write_jsonl(str(path), records)
    with pytest.raises(ConfigError):
        replay(str(path))
    write_jsonl(str(path), [{"kind": "header", "version": 1, "strategy": "random"}])
    with pytest.raises(ConfigError):
        replay(str(path))
    cfg = _cfg("random", budget=5)
    _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg))
    log[0]["run"]["budget"] = 0
    write_jsonl(str(path), log)
    with pytest.raises(ConfigError):
        replay(str(path))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_header_round_trips_through_config(strategy):
    cfg = _cfg(
        strategy,
        budget=10,
        oracle_kind="landscape",
        oracle_seed=3,
        noise=0.05,
        learning_rate=0.01,
    )
    _, log = run_strategy(cfg, seed=4, oracle=make_oracle(cfg))
    header = log[0]
    read, seed = config_from_header(header)
    assert (read, seed) == (cfg, 4)
    assert header_record(read, seed, make_oracle(read)) == header


def test_default_header_is_pinned():
    # the reward constants stay in the header although they are not settings
    cfg = StrategyConfig()
    assert header_record(cfg, 0, make_oracle(cfg)) == {
        "kind": "header",
        "version": 1,
        "strategy": "reinforced",
        "seed": 0,
        "maturity": {
            "tau": 3.0,
            "sigma": 0.01,
            "full_budget": 10.0,
            "finetune_epochs": 1.0,
            "init_epochs": 1.0,
        },
        "space": {"num_blocks": 3, "num_ops": 4},
        "policy": {
            "fitness_clip": 0.999,
            "baseline_decay": 0.95,
            "embed_size": 100,
            "hidden_size": 100,
            "learning_rate": 0.001,
            "entropy_weight": 0.1,
            "baseline": "ema",
        },
        "oracle": {"kind": "tabular", "seed": 7, "path": None},
        "run": {"pop_size": 20, "sample_size": 5, "budget": 500},
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_parse_seeds():
    assert parse_seeds("0:3") == [0, 1, 2]
    assert parse_seeds("5,7,11") == [5, 7, 11]
    with pytest.raises(ConfigError):
        parse_seeds("3:3")
    with pytest.raises(ConfigError):
        parse_seeds("a,b")


def test_parse_oracle_spec():
    assert parse_oracle_spec("tabular") == ("tabular", 7, None)
    assert parse_oracle_spec("tabular:12") == ("tabular", 12, None)
    assert parse_oracle_spec("landscape:3") == ("landscape", 3, None)
    assert parse_oracle_spec("file:/x/y.json") == ("file", 7, "/x/y.json")
    with pytest.raises(ConfigError):
        parse_oracle_spec("file:")
    with pytest.raises(ConfigError):
        parse_oracle_spec("sqlite:1")


def _search_args(out, extra=()):
    return [
        "search", "--strategy", "ea_random", "--blocks", "2", "--ops", "3",
        "--pop", "8", "--sample", "3", "--budget", "20", "--seed", "1",
        "--out", str(out), *extra,
    ]


def test_cli_search_smoke(tmp_path, capsys):
    assert main(_search_args(tmp_path)) == 0
    trace = tmp_path / "trace_ea_random_1.jsonl"
    assert trace.exists()
    payload = json.loads((tmp_path / "search_ea_random_1.json").read_text())
    oracle = build_tabular(CFG23, seed=7)
    assert payload["target"] == pytest.approx(0.99 * oracle.optimum_fitness)
    assert "best_true" in capsys.readouterr().out


def _search_log(strategy, blas_threads, out):
    """The log `evocell search` writes from a fresh interpreter, whose
    OpenBLAS runs blas_threads threads (it reads the count once, at load)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=str(src))
    argv = [
        "search", "--strategy", strategy, "--blocks", "3", "--ops", "4",
        "--budget", "200", "--seed", "1", "--out", str(out),
    ]
    done = subprocess.run(
        [sys.executable, "-m", "evocell.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return (out / f"trace_{strategy}_1.jsonl").read_bytes()


@pytest.mark.parametrize(
    "strategy",
    [
        pytest.param(
            "reinforced",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the encoder's input gradient (15 x 400 @ 400 x 100) "
                "rounds differently when OpenBLAS splits it over two threads",
            ),
        ),
        "rl_construct",
    ],
)
def test_search_log_does_not_depend_on_the_blas_thread_count(strategy, tmp_path):
    # E = H = 100, the defaults: the products are large enough to be threaded
    one = _search_log(strategy, 1, tmp_path / "one")
    two = _search_log(strategy, 2, tmp_path / "two")
    assert one == two


def test_cli_compare_smoke(tmp_path, capsys):
    code = main(
        [
            "compare", "--strategies", "ea_random,random", "--seeds", "0:2",
            "--blocks", "2", "--ops", "3", "--pop", "8", "--sample", "3",
            "--budget", "25", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 25
    report = json.loads((tmp_path / "summary.json").read_text())
    assert report["comparisons"] == {}  # no reinforced arm requested
    capsys.readouterr()


def test_cli_oracle_build_and_export(tmp_path, capsys):
    oracle_path = tmp_path / "table.json"
    code = main(
        [
            "oracle", "build", "--blocks", "1", "--ops", "3",
            "--oracle-seed", "5", "--out", str(oracle_path),
        ]
    )
    assert code == 0
    oracle = load_oracle(str(oracle_path))
    assert oracle.seed == 5
    assert oracle.table.size == 36
    code = main(["oracle", "export", str(oracle_path), "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "oracle_export.csv").read_text().splitlines()
    assert rows[0] == "rank,cell,true_fitness"
    assert len(rows) == 37
    capsys.readouterr()


def test_cli_replay_smoke(tmp_path, capsys):
    assert main(_search_args(tmp_path)) == 0
    trace = tmp_path / "trace_ea_random_1.jsonl"
    out_json = tmp_path / "final.json"
    assert main(["replay", str(trace), "--out", str(out_json)]) == 0
    final = json.loads(out_json.read_text())
    assert final == read_jsonl(str(trace))[-1]
    capsys.readouterr()


def test_cli_config_file_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comparison defaults\n"
        "blocks = 2\n"
        "ops = 3\n"
        "pop = 6\n"
        "sample = 3\n"
        "budget = 30\n"
        "strategy = ea_random\n"
        "seed = 3\n"
    )
    d1 = tmp_path / "d1"
    assert (
        main(
            ["search", "--config", str(cfg_file), "--budget", "18", "--out", str(d1)]
        )
        == 0
    )
    header = read_jsonl(str(d1 / "trace_ea_random_3.jsonl"))[0]
    assert header["run"]["budget"] == 18  # command line wins
    d2 = tmp_path / "d2"
    assert main(["search", "--config", str(cfg_file), "--out", str(d2)]) == 0
    header = read_jsonl(str(d2 / "trace_ea_random_3.jsonl"))[0]
    assert header["run"]["budget"] == 30  # file beats built-in default
    capsys.readouterr()


def test_cli_rejects_bad_config(tmp_path, capsys):
    missing = main(["search", "--config", str(tmp_path / "absent.cfg")])
    assert missing == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["search", "--config", str(bad)]) == 2
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    assert main(["search", "--config", str(noeq)]) == 2
    err = capsys.readouterr().err
    assert "unknown option" in err
    assert "expected key = value" in err


def test_cli_rejects_bad_strategy_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--strategy", "hillclimb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_config_error_exits_2(tmp_path, capsys):
    code = main(
        ["search", "--strategy", "ea_random", "--pop", "30", "--budget", "10",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    [
        "replay_missing",
        "replay_not_json",
        "oracle_file_missing",
        "export_missing",
        "negative_seed",
        "tabular_above_cap",
        "table_above_export_cap",
        "repeated_strategy",
        "config_is_a_directory",
        "config_not_utf8",
        "search_out_is_a_file",
        "compare_out_is_a_file",
        "oracle_build_out_in_a_missing_directory",
        "oracle_export_out_in_a_missing_directory",
        "replay_out_is_a_directory",
        "replay_out_in_a_missing_directory",
    ],
)
def test_cli_bad_input_exits_2(case, tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "absent.json")
    not_json = tmp_path / "trace.jsonl"
    not_json.write_text("not json\n")
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"# caf\xe9\npop = 8\n")
    a_file = tmp_path / "taken"
    a_file.write_text("")
    in_missing_dir = str(tmp_path / "absent" / "out.json")
    table = str(tmp_path / "oracle.json")
    save_oracle(table, build_tabular(CFG23, seed=7))
    log = str(tmp_path / "run.jsonl")
    cfg = _cfg("ea_random", budget=12)
    write_jsonl(log, run_strategy(cfg, 0, make_oracle(cfg))[1])
    # the path each unusable-path case names, which its error line must name
    named = {
        "config_is_a_directory": str(tmp_path),
        "config_not_utf8": str(not_utf8),
        "search_out_is_a_file": str(a_file),
        "compare_out_is_a_file": str(a_file),
        "oracle_build_out_in_a_missing_directory": in_missing_dir,
        "oracle_export_out_in_a_missing_directory": in_missing_dir,
        "replay_out_is_a_directory": str(tmp_path),
        "replay_out_in_a_missing_directory": in_missing_dir,
    }
    argv = {
        "replay_missing": ["replay", missing],
        "replay_not_json": ["replay", str(not_json)],
        "oracle_file_missing": _search_args(tmp_path, ["--oracle", f"file:{missing}"]),
        "export_missing": ["oracle", "export", missing, "--out", str(tmp_path)],
        "negative_seed": _search_args(tmp_path, ["--seed", "-1"]),
        "tabular_above_cap": _search_args(tmp_path, ["--blocks", "5", "--ops", "6"]),
        "table_above_export_cap": ["oracle", "build", "--out", str(tmp_path)],
        "repeated_strategy": [
            "compare", "--strategies", "ea_random,ea_random", "--seeds", "0:3",
            "--blocks", "2", "--ops", "3", "--pop", "5", "--sample", "2",
            "--budget", "20", "--out", str(tmp_path),
        ],
        "config_is_a_directory": ["search", "--config", str(tmp_path)],
        "config_not_utf8": ["search", "--config", str(not_utf8)],
        "search_out_is_a_file": _search_args(a_file),
        "compare_out_is_a_file": [
            "compare", "--strategies", "random", "--seeds", "0", "--blocks", "2",
            "--ops", "3", "--budget", "20", "--out", str(a_file),
        ],
        "oracle_build_out_in_a_missing_directory": [
            "oracle", "build", "--blocks", "2", "--ops", "3", "--out", in_missing_dir,
        ],
        "oracle_export_out_in_a_missing_directory": [
            "oracle", "export", table, "--out", in_missing_dir,
        ],
        "replay_out_is_a_directory": ["replay", log, "--out", str(tmp_path)],
        "replay_out_in_a_missing_directory": ["replay", log, "--out", in_missing_dir],
    }[case]
    # an unusable --out is reported before any work: the run or the replay
    # it would have held is never started
    unstarted = {
        "search_out_is_a_file": "run_strategy",
        "replay_out_is_a_directory": "replay",
        "replay_out_in_a_missing_directory": "replay",
    }
    if case in unstarted:

        def never_called(*args, **kwargs):
            raise AssertionError(f"{unstarted[case]} ran before --out was checked")

        monkeypatch.setattr(cli, unstarted[case], never_called)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in named:
        assert err.count("\n") == 1 and named[case] in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau", "3"),
        ("tau", 0),
        ("full_budget", -10),
        ("sigma", -1),
        ("sigma", math.nan),
        ("init_epochs", True),
    ],
)
def test_cli_oracle_file_with_a_bad_maturity_exits_2(field, value, tmp_path, capsys):
    path = tmp_path / "oracle.json"
    save_oracle(str(path), build_tabular(CFG23, seed=7))
    payload = json.loads(path.read_text())
    payload["maturity"][field] = value
    path.write_text(json.dumps(payload))
    assert main(_search_args(tmp_path, ["--oracle", f"file:{path}"])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"maturity {field}" in err


@pytest.mark.parametrize(
    "case, message",
    [
        ("payload-list", "JSON object"),
        ("entries-list", "JSON object"),
        ("num_blocks-float", "num_blocks"),
        ("num_ops-float", "num_ops"),
        ("fitness-true", "fitness True"),
    ],
)
def test_cli_oracle_file_of_a_bad_shape_exits_2(case, message, tmp_path, capsys):
    path = tmp_path / "oracle.json"
    save_oracle(str(path), build_tabular(CFG23, seed=7))
    payload = json.loads(path.read_text())
    if case == "payload-list":
        payload = [payload]
    elif case == "entries-list":
        payload["entries"] = list(payload["entries"].items())
    elif case == "num_blocks-float":
        payload["space"]["num_blocks"] = 2.5
    elif case == "num_ops-float":
        payload["space"]["num_ops"] = 3.0
    else:
        payload["entries"][next(iter(payload["entries"]))] = True
    path.write_text(json.dumps(payload))
    assert main(_search_args(tmp_path, ["--oracle", f"file:{path}"])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "build", "--oracle", "tabular:5"],
        ["oracle", "build", "--lr", "9", "--pop", "1"],
        ["oracle", "export", "table.json", "--budget", "-4", "--hidden", "0"],
    ],
)
def test_cli_oracle_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class _Captured(Exception):
    """Stops a CLI command at the config it built."""


@pytest.fixture
def built_configs(monkeypatch):
    seen = []

    def capture(cfg, *args, **kwargs):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, "make_oracle", capture)
    monkeypatch.setattr("evocell.report.compare", capture)
    return seen


def test_cli_defaults_are_strategy_config_defaults(built_configs, tmp_path):
    for argv in (["search"], ["compare"], ["oracle", "build"]):
        with pytest.raises(_Captured):
            main([*argv, "--out", str(tmp_path)])
    assert built_configs == [StrategyConfig()] * 3


# one non-default value per search option, as config-file text
_SEARCH_SETTINGS = [
    ("strategy", "random"),
    ("blocks", "2"),
    ("ops", "3"),
    ("oracle", "landscape:11"),
    ("oracle", "file:table.json"),
    ("pop", "9"),
    ("sample", "3"),
    ("budget", "99"),
    ("noise", "0.2"),
    ("embed", "6"),
    ("hidden", "7"),
    ("lr", "0.01"),
    ("entropy_weight", "0.3"),
]


def _settings(cfg):
    """cfg's fields, with the space's two as their own entries."""
    out = {f.name: getattr(cfg, f.name) for f in fields(StrategyConfig)}
    space = out.pop("space")
    return {**out, "num_blocks": space.num_blocks, "num_ops": space.num_ops}


def test_cli_sets_every_config_field_through_exactly_one_option(built_configs, tmp_path):
    default = _settings(StrategyConfig())
    cfg_file = tmp_path / "run.cfg"
    set_by = {}
    for key, value in _SEARCH_SETTINGS:
        cfg_file.write_text(f"{key} = {value}\n")
        for argv in (["--config", str(cfg_file)], ["--" + key.replace("_", "-"), value]):
            with pytest.raises(_Captured):
                main(["search", *argv])
        by_file, by_flag = built_configs[-2:]
        assert by_file == by_flag
        changed = [k for k, v in _settings(by_file).items() if v != default[k]]
        assert changed, key
        for name in changed:
            set_by.setdefault(name, set()).add(key)
    assert set(set_by) == set(default)
    assert all(len(keys) == 1 for keys in set_by.values()), set_by
