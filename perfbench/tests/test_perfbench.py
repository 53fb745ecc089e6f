"""Tests of the benchmark itself: tiny runs, replay failure accounting,
self-time arithmetic, instrumentation and the import guard.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads
from evocell import controller, evolution, harness
from evocell.arch_space import SpaceConfig

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "policy_train": replace(
        workloads.WORKLOADS["policy_train"], space=SpaceConfig(2, 3), pop_size=6,
        sample_size=3, budget=12, embed_size=8, hidden_size=8, setup_repeats=1,
        min_rounds=1),
    "evolve_landscape": replace(
        workloads.WORKLOADS["evolve_landscape"], space=SpaceConfig(3, 3), pop_size=8,
        sample_size=3, budget=30, setup_repeats=1, min_rounds=1),
    "policy_sample": replace(
        workloads.WORKLOADS["policy_sample"], space=SpaceConfig(2, 3), embed_size=8,
        hidden_size=8, proposes_per_round=5, batch_size=4, setup_repeats=1, min_rounds=1),
}

# The workload-specific figures each workload prints.
OWN_DETAILS = {
    "policy_train": ("ms_per_eval.reinforced", "ms_per_eval.reinforced_nonbi",
                     "ms_per_eval.rl_construct", "replay_s", "evals_to_target_p50"),
    "evolve_landscape": ("ms_per_eval.ea_random", "ms_per_eval.random", "replay_s"),
    "policy_sample": ("propose_ms_p50", "propose_ms_p99", "batch_mutations_per_s"),
}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.per_layer_units()


def _run_tiny(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.bench(TINY[name], 3, 0.0, trace) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    record = json.loads((tmp_path / f"{name}-seed3-trace{trace}" / "result.json").read_text())
    return out, result, record


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_metric(name, monkeypatch, tmp_path, capsys):
    out, result, record = _run_tiny(name, 0, monkeypatch, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(out[:-1])
    printed = dict(expected, ops_attempted="count", ops_failed="count")
    printed.update((d, workloads.DETAILS[d]) for d in OWN_DETAILS[name])
    for metric, unit in printed.items():
        assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$", text, re.M), metric
    assert "trajectory_digest" in text and "environment" in text
    assert record["environment"]["blas_threads"] == 1

    _, traced, traced_record = _run_tiny(name, 1, monkeypatch, tmp_path, capsys)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == workloads.per_layer_units()
    assert traced_record["trajectory_digest"] == record["trajectory_digest"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["trace.overhead"] > 0
    if name == "evolve_landscape":
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith("nn_core.") and k.endswith(".calls"))
    assert (tmp_path / f"{name}-seed3-trace1" / "spans.jsonl.gz").exists()


def _flip_fitness_digit(path: Path, line_kind: str) -> None:
    lines = path.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if json.loads(line)["kind"] == line_kind)
    match = re.search(r'"fitness": \d+\.(\d)', lines[i])
    pos = match.start(1)
    digit = str((int(lines[i][pos]) + 1) % 10)
    lines[i] = lines[i][:pos] + digit + lines[i][pos + 1:]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("strategy,line_kind", [("ea_random", "final"), ("random", "eval")])
@pytest.mark.parametrize("flip", [False, True])
def test_flipped_fitness_digit_is_one_failed_replay(strategy, line_kind, flip, tmp_path):
    workload = replace(TINY["policy_train"], strategies=(strategy,))
    ctx = workloads.Context(str(tmp_path), workloads.Tally(), speed.Speed())
    state = ctx.attempt("setup", workloads.setup_search, workload)
    path = tmp_path / "log.jsonl"
    ctx.attempt("search", workloads.search_op, state, strategy, 11, str(path))
    if flip:
        _flip_fitness_digit(path, line_kind)
    ctx.attempt("replay", workloads.replay_op, state, strategy, str(path))
    assert ctx.tally.attempted == 3
    assert ctx.tally.failed == int(flip)


def test_self_times_on_a_synthetic_span_tree():
    tracer = spans.Tracer()
    for name in ("op.search", "a", "b"):
        tracer.name_id(name)
    tracer.op_kinds = ["search"]
    # op [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 9]
    tracer.spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0],
                    [2, 2.0, 3.0, 1, 0], [1, 5.0, 9.0, 0, 0]]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    table, wall = spans.layer_table(tracer)
    assert wall == 10.0
    assert table["a"] == {"calls": 2, "self_ms": 6000.0, "share": 0.6}
    assert table["b"]["self_ms"] == 1000.0 and table["op.search"]["share"] == 0.3
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)


def test_scaled_time_uses_the_probes_around_the_op():
    probes = speed.Speed()
    probes.ends = [1.0, 5.0, 9.0]
    for kind, (_work, nominal) in speed.REFERENCES.items():
        probes.durations[kind] = [nominal, 3 * nominal, 2 * nominal]
        # between the probes ending at 1 and 5: mean probe 2x nominal
        assert probes.scaled((2.0, 4.0), kind) == pytest.approx(1.0)
        # between 5 and 9: mean 2.5x nominal
        assert probes.scaled((6.0, 8.5), kind) == pytest.approx(1.0)
        # after the last probe: that probe alone
        assert probes.scaled((9.5, 11.5), kind) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        speed.Speed().scaled((0.0, 1.0))


def test_instrument_rebinds_every_lookup_and_restores():
    original = controller.sample_mutation
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert evolution.sample_mutation is controller.sample_mutation
        assert evolution.sample_mutation is not original
        assert harness.make_oracle.__wrapped__ is not None
    assert controller.sample_mutation is original
    assert evolution.sample_mutation is original
    assert not hasattr(harness.make_oracle, "__wrapped__")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "policy_train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
