"""Head-to-head comparison of strategies across seeds.

compare runs every strategy on every seed against one shared oracle and
writes each run's log, a plot-ready runs.csv and a summary.json scored on
evaluations-to-target, with rank-sum significance and bootstrap confidence
intervals on paired speedups. The only module that imports scipy, so a
search or a replay starts without it.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .harness import (
    LOG_VERSION,
    ConfigError,
    RunSummary,
    StrategyConfig,
    check_seed,
    config_sections,
    make_oracle,
    resolve_target,
    run_strategy,
    write_jsonl,
)

BOOTSTRAP_SAMPLES = 2000
BOOTSTRAP_SEED = 1234


def _censored(values: Sequence[Optional[int]], budget: int) -> np.ndarray:
    # runs that never reach the target count as budget + 1: finite, worst rank
    return np.array(
        [budget + 1 if v is None else v for v in values], dtype=np.float64
    )


def _bootstrap_ci(values: np.ndarray, stat) -> Tuple[float, float]:
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    n = values.shape[0]
    samples = np.empty(BOOTSTRAP_SAMPLES)
    for i in range(BOOTSTRAP_SAMPLES):
        samples[i] = stat(values[rng.integers(0, n, size=n)])
    return float(np.percentile(samples, 2.5)), float(np.percentile(samples, 97.5))


def compare(
    cfg: StrategyConfig,
    strategies: Sequence[str],
    seeds: Sequence[int],
    out_dir: str,
) -> dict:
    """Run every strategy on every seed against one shared oracle.

    Writes runs.csv (one row per evaluation per run), summary.json, and one
    trace_<strategy>_<seed>.jsonl per run into out_dir, and prints one line
    per run. Returns the summary dict. Identical inputs produce a
    byte-identical runs.csv. Every strategy's config and every seed is
    checked before a file is written.
    """
    run_cfgs = {name: replace(cfg, strategy=name) for name in strategies}
    if len(run_cfgs) != len(strategies):
        raise ConfigError("duplicate strategies in comparison")
    seeds = [check_seed(seed) for seed in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds in comparison")
    os.makedirs(out_dir, exist_ok=True)
    oracle = make_oracle(cfg)
    target, target_source = resolve_target(oracle)

    summaries: Dict[str, List[RunSummary]] = {name: [] for name in strategies}
    for name, run_cfg in run_cfgs.items():
        for seed in seeds:
            summary, log = run_strategy(run_cfg, seed, oracle, target)
            summaries[name].append(summary)
            write_jsonl(os.path.join(out_dir, f"trace_{name}_{seed}.jsonl"), log)
            reached = summary.evals_to_target or "never"  # reached ones are >= 1
            print(
                f"[{name} seed={seed}] best_true={summary.final_best_true:.4f} "
                f"evals_to_target={reached} ({summary.wall_time:.1f}s)"
            )

    write_runs_csv(os.path.join(out_dir, "runs.csv"), summaries, strategies)
    report = build_report(cfg, strategies, seeds, summaries, target, target_source)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def build_report(
    cfg: StrategyConfig,
    strategies: Sequence[str],
    seeds: Sequence[int],
    summaries: Dict[str, List[RunSummary]],
    target: float,
    target_source: str,
) -> dict:
    per_strategy = {}
    censored = {}
    for name in strategies:
        runs = summaries[name]
        reached = [s.evals_to_target for s in runs]
        best = [s.final_best_true for s in runs]
        censored[name] = _censored(reached, cfg.budget)
        per_strategy[name] = {
            "evals_to_target": reached,
            "median_evals_to_target": float(np.median(censored[name])),
            "unreached": reached.count(None),
            "final_best_true": best,
            "median_final_best_true": float(np.median(best)),
            "wall_time_s": [round(s.wall_time, 3) for s in runs],
        }

    comparisons = {}
    if "reinforced" in strategies:
        base = censored["reinforced"]
        for other in ("ea_random", "random", "rl_construct"):
            if other not in strategies:
                continue
            ratios = censored[other] / base
            lo, hi = _bootstrap_ci(ratios, np.median)
            pvalue = float(
                stats.mannwhitneyu(base, censored[other], alternative="less").pvalue
            )
            comparisons[f"reinforced_vs_{other}"] = {
                "speedup_median": float(np.median(ratios)),
                "speedup_ci95": [lo, hi],
                "rank_sum_p": pvalue,
            }
        if "reinforced_nonbi" in strategies:
            diffs = censored["reinforced_nonbi"] - base
            lo, hi = _bootstrap_ci(diffs, np.median)
            comparisons["reinforced_nonbi_minus_reinforced"] = {
                "median_diff": float(np.median(diffs)),
                "diff_ci95": [lo, hi],
            }

    return {
        "version": LOG_VERSION,
        **config_sections(cfg),
        "target": target,
        "target_source": target_source,
        "seeds": list(seeds),
        "strategies": per_strategy,
        "comparisons": comparisons,
    }


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_runs_csv(
    path: str,
    summaries: Dict[str, List[RunSummary]],
    strategies: Sequence[str],
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["strategy", "seed", "eval", "true_fitness", "best_so_far", "pop_mean", "pop_var"]
        )
        for name in strategies:
            for summary in summaries[name]:
                for i in range(len(summary.true_per_eval)):
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
