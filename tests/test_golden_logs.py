"""Golden run logs: the bytes of fixed runs on the code paths that need no BLAS.

A speed-up must leave every trajectory bit-identical (a run log replays
only if it does), and tests that compare a run with itself cannot see a
change that moves every run alike. These digests pin ea_random and random
runs on the paper's 5-block/6-op space and landscape oracle (seed 7, pop
100, sample 25, budget 300, run seeds 0 and 1), taken at commit b578729,
and ea_random runs on criterion 7's 3-block/4-op space and tabular oracle
(seed 5, pop 20, sample 5, budget 300, run seeds 0 and 1), whose lookups
rank each cell by its digits, taken at commit 1e0acd5, and random runs on
that space and oracle, taken at commit d999268. The runs.csv digest pins a
compare of ea_random and random on that space and oracle (run seeds 0 and
1), its population trajectories included, taken at commit ed9dd54. A
change that moves them changes what a seed means and must say so.
"""

import hashlib
from dataclasses import replace

import pytest

from evocell.arch_space import SpaceConfig
from evocell.harness import (
    StrategyConfig,
    make_oracle,
    replay,
    resolve_target,
    run_strategy,
    write_jsonl,
)
from evocell.report import compare

GOLDEN_SHA256 = {
    ("ea_random", 0): "7a322e098cdbfe886121ff39114465967739453ab91a0d37d8700f9c0600c531",
    ("ea_random", 1): "a4d7f896106c8054a79f0954d9dab54255c283ca65ac6597d6efebdfb07e2074",
    ("random", 0): "5410548ced3743ecb3ece2f5817f6a893aa389746682b759ff31aa84b65c999c",
    ("random", 1): "d4a5388b06b8250af9498b65bf610020f5d7bc42db7715866d1a963818c063f4",
}

TABULAR_SHA256 = {
    ("ea_random", 0): "2bf234c8a4dd0e89f026bc98ebf954885ddd4f2e02ded7ad5c39aee25f5d4421",
    ("ea_random", 1): "7b897a49d541e7be9c20379fd0b8e9402e13d2c90de0d3f3fa6713962ab5b06e",
    ("random", 0): "bb6ad37c6e019420bf06a9b6b5b2efd7593f9a4d89e8a528e18d76f4d6abb6b1",
    ("random", 1): "dc113b67b363759eb03b2bd9120e06ee478338c002059751558e3e31995d8fcc",
}

RUNS_CSV_SHA256 = "e0ce3339dc8d82dc2404f681aa5cae055cb84aee660d2c8d492a98c30c0ac75a"


@pytest.fixture(scope="module")
def landscape():
    cfg = StrategyConfig(
        space=SpaceConfig(num_blocks=5, num_ops=6),
        oracle_kind="landscape",
        oracle_seed=7,
        pop_size=100,
        sample_size=25,
        budget=300,
    )
    oracle = make_oracle(cfg)
    target, _ = resolve_target(oracle)
    return cfg, oracle, target


@pytest.fixture(scope="module")
def tabular():
    cfg = StrategyConfig(
        space=SpaceConfig(num_blocks=3, num_ops=4),
        oracle_kind="tabular",
        oracle_seed=5,
        pop_size=20,
        sample_size=5,
        budget=300,
    )
    oracle = make_oracle(cfg)
    target, _ = resolve_target(oracle)
    return cfg, oracle, target


def _logged_digest(run, strategy, seed, tmp_path):
    """The run's log, the evaluations that replay recomputes (random runs
    only) and the SHA-256 of the log's bytes; replay checks every record."""
    cfg, oracle, target = run
    _, log = run_strategy(replace(cfg, strategy=strategy), seed, oracle, target)
    path = tmp_path / f"trace_{strategy}_{seed}.jsonl"
    write_jsonl(str(path), log)
    replayed = replay(str(path))
    evals = replayed.pop("evals", None)
    assert replayed == log[-1]
    return log, evals, hashlib.sha256(path.read_bytes()).hexdigest()


def _logged_evals(log):
    return [{"index": r["index"], "fitness": r["fitness"]} for r in log if r["kind"] == "eval"]


@pytest.mark.parametrize("seed", [0, 1])
def test_tabular_log_bytes_match_golden_digest(tabular, seed, tmp_path):
    _, _, digest = _logged_digest(tabular, "ea_random", seed, tmp_path)
    assert digest == TABULAR_SHA256[("ea_random", seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_tabular_random_log_bytes_match_golden_digest(tabular, seed, tmp_path):
    log, evals, digest = _logged_digest(tabular, "random", seed, tmp_path)
    assert digest == TABULAR_SHA256[("random", seed)]
    assert evals == _logged_evals(log)


@pytest.mark.parametrize("strategy, seed", sorted(GOLDEN_SHA256))
def test_log_bytes_match_golden_digest(landscape, strategy, seed, tmp_path):
    log, evals, digest = _logged_digest(landscape, strategy, seed, tmp_path)
    assert digest == GOLDEN_SHA256[(strategy, seed)]
    if strategy == "random":
        assert evals == _logged_evals(log)


def test_compare_runs_csv_matches_golden_digest(tabular, tmp_path):
    cfg, _, _ = tabular
    compare(cfg, ["ea_random", "random"], [0, 1], str(tmp_path))
    digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
    assert digest == RUNS_CSV_SHA256
