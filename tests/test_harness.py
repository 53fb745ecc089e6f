"""Strategy runners, comparison outputs, logs, replay, and the CLI."""

import json
import math
import os

import numpy as np
import pytest

from evocell.arch_space import (
    SpaceConfig,
    cell_from_digits,
    cell_from_text,
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
from evocell.evaluators import LandscapeOracle, build_tabular, save_oracle, load_oracle
from evocell.harness import (
    PILOT_SAMPLES,
    POPULATION_STRATEGIES,
    STRATEGIES,
    TARGET_FRACTION,
    ConfigError,
    ConstructionPolicy,
    StrategyConfig,
    _evals_to_target,
    compare,
    make_oracle,
    pilot_digits,
    read_jsonl,
    replay,
    resolve_target,
    run_strategy,
    validate_config,
    write_jsonl,
)
from evocell.nn_core import gradcheck

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


def test_validate_config_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        validate_config(_cfg("hillclimb"))
    with pytest.raises(ConfigError):
        validate_config(_cfg("random", budget=0))
    with pytest.raises(ConfigError):
        validate_config(_cfg("reinforced", pop_size=1))
    with pytest.raises(ConfigError):
        validate_config(_cfg("reinforced", sample_size=9))
    with pytest.raises(ConfigError):
        validate_config(_cfg("ea_random", budget=7))  # below pop_size
    with pytest.raises(ConfigError):
        validate_config(_cfg("random", oracle_kind="csv"))
    with pytest.raises(ConfigError):
        validate_config(_cfg("random", oracle_kind="file"))
    with pytest.raises(ConfigError):
        validate_config(_cfg("random", noise=-0.1))
    with pytest.raises(ConfigError):
        validate_config(_cfg("random", baseline="avg"))
    validate_config(_cfg("reinforced"))  # the good case passes


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
            cell, lp, ent = policy.sample(rng)
            assert validate(cell, CFG23) is None
            assert lp <= 0.0
            assert ent > 0.0


def test_construction_sample_matches_differentiable_logprob():
    policy = ConstructionPolicy(CFG23, np.random.default_rng(3), **SMALL)
    rng = np.random.default_rng(4)
    for _ in range(25):
        cell, lp, ent = policy.sample(rng)
        lp_t, ent_t = policy.logprob(cell)
        assert lp_t.data[0, 0] == pytest.approx(lp, abs=1e-9)
        assert ent_t.data[0, 0] == pytest.approx(ent, abs=1e-9)


def test_construction_entropy_bounded_by_uniform():
    policy = ConstructionPolicy(CFG23, np.random.default_rng(5), **SMALL)
    bound = 0.0
    for b in range(1, 3):
        bound += 2 * math.log(b + 1) + 2 * math.log(3)
    _, _, ent = policy.sample(np.random.default_rng(6))
    assert ent <= bound + 1e-9


def test_construction_logprob_gradcheck():
    policy = ConstructionPolicy(
        CFG23, np.random.default_rng(7), embed_size=4, hidden_size=4
    )
    cell, _, _ = policy.sample(np.random.default_rng(8))
    assert gradcheck(lambda: policy.logprob(cell)[0], policy.named_params()) < 1e-4


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
    oracle = build_tabular(CFG23, seed=7)
    cfg = _cfg("ea_random", budget=40, pop_size=10, sample_size=4)
    summary, log = run_strategy(cfg, seed=2, oracle=oracle)
    assert len(summary.true_per_eval) == 40
    assert len(summary.best_so_far) == 40
    assert len(summary.pop_mean) == len(summary.pop_var) == 40
    assert summary.best_so_far == list(np.maximum.accumulate(summary.true_per_eval))
    # during initialization the live set is exactly the prefix
    assert summary.pop_mean[0] == pytest.approx(summary.true_per_eval[0])
    assert summary.pop_mean[9] == pytest.approx(
        float(np.mean(summary.true_per_eval[:10]))
    )
    assert all(v >= 0.0 for v in summary.pop_var)
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


def test_rl_construct_run_shape():
    oracle = build_tabular(CFG23, seed=7)
    summary, log = run_strategy(_cfg("rl_construct", budget=30), seed=1, oracle=oracle)
    evals = [r for r in log if r["kind"] == "eval"]
    assert len(evals) == 30
    assert all("grad_norm" in r for r in evals)
    assert summary.pop_mean is None and summary.pop_var is None
    assert summary.final_best_true == max(summary.true_per_eval)


# ---------------------------------------------------------------------------
# compare() outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    cfg = _cfg("reinforced", budget=60, pop_size=10, sample_size=4)
    strategies = ["reinforced", "ea_random", "random"]
    report = compare(cfg, strategies, [0, 1], str(out), verbose=False)
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
    compare(cfg, strategies, [0, 1], str(again), verbose=False)
    assert (again / "runs.csv").read_bytes() == (out / "runs.csv").read_bytes()
    for name in strategies:
        for seed in (0, 1):
            fname = f"trace_{name}_{seed}.jsonl"
            assert (again / fname).read_bytes() == (out / fname).read_bytes()


def test_compare_rejects_bad_requests(tmp_path):
    cfg = _cfg("reinforced")
    with pytest.raises(ConfigError):
        compare(cfg, ["reinforced", "hillclimb"], [0], str(tmp_path), verbose=False)
    with pytest.raises(ConfigError):
        compare(cfg, ["random"], [0, 0], str(tmp_path), verbose=False)


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


def test_replay_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(str(path), [{"kind": "eval", "index": 1}])
    with pytest.raises(ConfigError):
        replay(str(path))
    records = [{"kind": "header", "version": 99}]
    write_jsonl(str(path), records)
    with pytest.raises(ConfigError):
        replay(str(path))


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
