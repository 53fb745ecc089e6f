"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test computes its verdict, prints exactly one ``criterion N: PASS/FAIL``
line straight to the terminal (bypassing pytest capture so the line shows up
in any run), and then asserts on the same condition so a failure carries the
full measured detail.
"""

import math
import time

import numpy as np
import pytest

from evocell.arch_space import (
    CELL_PREV1,
    CELL_PREV2,
    BlockSpec,
    CellSpec,
    Op,
    SpaceConfig,
    cell_rank,
    enumerate_space,
    random_cell,
    space_size,
    validate,
)
from evocell.controller import (
    ConstructionPolicy,
    MutTarget,
    apply_mutation,
    encode_forward,
    init_controller,
    sample_mutation_batch,
    trace_logprob,
)
from evocell.evaluators import MaturityModel, build_tabular
from evocell.evolution import (
    ControllerPolicy,
    RandomMutationPolicy,
    evolution_step,
    initialize,
)
from evocell.harness import (
    StrategyConfig,
    make_oracle,
    read_jsonl,
    replay,
    run_strategy,
    write_jsonl,
)
from evocell.nn_core import check_grads
from evocell.reinforce import ReinforceTrainer, shaped_reward
from evocell.report import compare
from head_reference import squashed_logp_np


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Search-space cardinality
# ---------------------------------------------------------------------------


def test_criterion_1_search_space_cardinality(capsys):
    t0 = time.perf_counter()
    big = space_size(SpaceConfig(num_blocks=5, num_ops=6))
    small = SpaceConfig(num_blocks=2, num_ops=3)
    cells = list(enumerate_space(small))
    distinct = len({cell_rank(c, small) for c in cells})
    all_valid = all(validate(c, small) is None for c in cells)
    elapsed = time.perf_counter() - t0
    ok = (
        big == 31_345_665_638_400
        and len(cells) == space_size(small) == 2916
        and distinct == 2916
        and all_valid
        and elapsed < 10.0
    )
    _report(
        capsys,
        1,
        ok,
        f"space_size(5 blocks, 6 ops) = {big:,}; enumerated {len(cells)} cells "
        f"({distinct} distinct, all valid) for 2 blocks / 3 ops; {elapsed:.2f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 2. Reward shaping
# ---------------------------------------------------------------------------


def test_criterion_2_reward_shaping(capsys):
    t0 = time.perf_counter()
    spot_zero = shaped_reward(0.0)
    spot_half = shaped_reward(0.5)
    rng = np.random.default_rng(20)
    pairs = rng.uniform(0.0, 0.999, size=(10_000, 2))
    violations = 0
    compared = 0
    for f1, f2 in pairs:
        if f1 == f2:
            continue
        lo, hi = (f1, f2) if f1 < f2 else (f2, f1)
        compared += 1
        if not shaped_reward(lo) < shaped_reward(hi):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = (
        spot_zero == 0.0
        and spot_half == 1.0
        and violations == 0
        and compared > 9_900
        and elapsed < 1.0
    )
    _report(
        capsys,
        2,
        ok,
        f"shaped_reward(0)={spot_zero!r}, shaped_reward(0.5)={spot_half!r} (exact); "
        f"{violations} monotonicity violations over {compared} random pairs; "
        f"{elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_correctness(capsys):
    # the backward each policy trains with, against central differences of
    # its forward-only log-prob
    t0 = time.perf_counter()
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    worst_trace = 0.0
    for draw in range(20):
        rng = np.random.default_rng(300 + draw)
        params = init_controller(
            cfg,
            rng,
            embed_size=4,
            hidden_size=4,
            bidirectional=(draw < 10),  # cover both shipped encoder variants
        )
        cell = random_cell(cfg, rng)
        policy = ControllerPolicy(params, rng)
        trace = policy.propose(cell)
        grads = policy.grads()  # the walk that sampled trace, as training uses
        err = check_grads(
            lambda: trace_logprob(params, cell, trace)[0], grads, params.named_params()
        )
        worst_trace = max(worst_trace, err)
    worst_construct = 0.0
    for draw in range(20):
        rng = np.random.default_rng(400 + draw)
        policy = ConstructionPolicy(cfg, rng, embed_size=4, hidden_size=4)
        walk = policy.sample(rng)
        grads, cell = policy.grads(walk), walk.cell
        err = check_grads(lambda: policy.logprob(cell)[0], grads, policy.named_params())
        worst_construct = max(worst_construct, err)
    elapsed = time.perf_counter() - t0
    ok = worst_trace < 1e-4 and worst_construct < 1e-4 and elapsed < 60.0
    _report(
        capsys,
        3,
        ok,
        f"max rel-err over 20 draws each: trace_grads {worst_trace:.2e}, "
        f"ConstructionPolicy.grads {worst_construct:.2e} (<1e-4); "
        f"{elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 4. Mutation legality
# ---------------------------------------------------------------------------


def test_criterion_4_mutation_legality(capsys):
    t0 = time.perf_counter()
    cfg = SpaceConfig(num_blocks=3, num_ops=4)
    total = 0
    failures = 0
    for chunk in range(10):
        rng = np.random.default_rng(4000 + chunk)
        params = init_controller(
            cfg,
            rng,
            embed_size=8,
            hidden_size=8,
            bidirectional=(chunk % 2 == 0),
        )
        parents = [random_cell(cfg, rng) for _ in range(200)]
        cells = [parents[i % len(parents)] for i in range(10_000)]
        traces = sample_mutation_batch(params, cells, rng)
        for cell, trace in zip(cells, traces):
            total += 1
            decisions = sum(
                math.isfinite(a.router_logprob) + math.isfinite(a.replace_logprob)
                for a in trace.actions
            )
            if len(trace.actions) != cfg.num_blocks or decisions != 2 * cfg.num_blocks:
                failures += 1
                continue
            child = apply_mutation(cell, trace)
            if validate(child, cfg) is not None:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = total == 100_000 and failures == 0 and elapsed < 60.0
    _report(
        capsys,
        4,
        ok,
        f"{total} sampled-and-applied mutations, {failures} validation failures; "
        f"every trace has 3 actions / 6 decisions; {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 5. Evolution-loop contracts
# ---------------------------------------------------------------------------


def test_criterion_5_evolution_contracts(capsys):
    t0 = time.perf_counter()
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    oracle = build_tabular(cfg, seed=7, maturity=MaturityModel(sigma=0.0))
    streams = [np.random.default_rng(s) for s in (50, 51, 52)]
    pop = initialize(cfg, oracle, 20, streams[0], eval_rng=streams[2])
    policy = RandomMutationPolicy(cfg, streams[0])
    first_violation = None
    for step in range(10_000):
        before = {m.id: m.fitness for m in pop.members}
        hist_len = len(pop.history)
        rec = evolution_step(
            pop, policy.propose, oracle, 5, streams[1], eval_rng=streams[2], step=step
        )
        sampled = list(rec.sampled_ids)
        best = max(sampled, key=lambda i: (before[i], -i))
        worst = min(sampled, key=lambda i: (before[i], -i))
        after = {m.id: m.fitness for m in pop.members}
        checks = (
            len(sampled) == 5
            and len(set(sampled)) == 5
            and all(i in before for i in sampled)
            and rec.parent_id == best
            and rec.removed_id == worst
            and rec.parent_fitness == before[best]
            and len(after) == 20
            and rec.removed_id not in after
            and rec.child_id in after
            and rec.child_id not in before
            and after[rec.child_id] == rec.child_fitness
            and set(after) == (set(before) - {worst}) | {rec.child_id}
            and len(pop.history) == hist_len + 1
            and 0.0 <= rec.child_fitness < 1.0
            and 0.0 <= rec.child_maturity <= 1.0
        )
        if not checks and first_violation is None:
            first_violation = step
    elapsed = time.perf_counter() - t0
    ok = first_violation is None and elapsed < 60.0
    _report(
        capsys,
        5,
        ok,
        "population size, tournament best/worst, and push-pop checks held for "
        f"10000/10000 noise-free steps"
        + ("" if first_violation is None else f" (first violation at step {first_violation})")
        + f"; {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 6. Controller learning (bandit sanity)
# ---------------------------------------------------------------------------


def _rewarded_action_prob(params, cell) -> float:
    """P(router picks the first-block o1 slot) * P(op head picks SEP5)."""
    states = encode_forward(params, cell).states
    w_r = params.p["w_router"][:, 0]
    router_logp = squashed_logp_np(np.array([states[j] @ w_r for j in range(4)]))
    op_raw = states[int(MutTarget.O1)] @ params.p["w_op"] + params.p["b_op"][0]
    op_logp = squashed_logp_np(op_raw)
    return float(np.exp(router_logp[int(MutTarget.O1)] + op_logp[int(Op.SEP5)]))


def test_criterion_6_controller_learns_bandit(capsys):
    t0 = time.perf_counter()
    cfg = SpaceConfig(num_blocks=1, num_ops=2)
    parent = CellSpec(
        (BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP3),), num_ops=2
    )
    solved = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_controller(cfg, rng, embed_size=32, hidden_size=32)
        trainer = ReinforceTrainer(params.p, lr=0.01, entropy_weight=0.1)
        policy = ControllerPolicy(params, rng)
        solved_at = None
        for step in range(1, 2001):
            trace = policy.propose(parent)
            child = apply_mutation(parent, trace)
            fitness = 0.9 if child.blocks[0].o1 == Op.SEP5 else 0.1
            trainer.update(policy.grads(), trace.total_entropy, fitness)
            if step % 50 == 0 and _rewarded_action_prob(params, parent) > 0.6:
                solved_at = step
                break
        if solved_at is None and _rewarded_action_prob(params, parent) > 0.6:
            solved_at = 2000
        solved.append(solved_at)
    n_solved = sum(s is not None for s in solved)
    elapsed = time.perf_counter() - t0
    ok = n_solved >= 9 and elapsed < 120.0
    _report(
        capsys,
        6,
        ok,
        f"{n_solved}/10 seeds reached P(rewarded action) > 0.6 within 2000 updates "
        f"(need >= 9); updates to solve: {solved}; {elapsed:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# 7. Ablation ordering
# ---------------------------------------------------------------------------


def _fmt_ci(ci) -> str:
    return f"[{ci[0]:.2f}, {ci[1]:.2f}]"


def test_criterion_7_ablation_ordering(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = StrategyConfig(
        strategy="reinforced",
        space=SpaceConfig(num_blocks=3, num_ops=4),
        oracle_kind="tabular",
        oracle_seed=5,
        pop_size=20,
        sample_size=5,
        budget=600,
    )
    strategies = ("reinforced", "reinforced_nonbi", "ea_random", "random")
    report = compare(cfg, strategies, list(range(20)), str(tmp_path))
    med = {
        name: report["strategies"][name]["median_evals_to_target"]
        for name in strategies
    }
    vs_ea = report["comparisons"]["reinforced_vs_ea_random"]
    vs_rand = report["comparisons"]["reinforced_vs_random"]
    nonbi = report["comparisons"]["reinforced_nonbi_minus_reinforced"]
    ea_holds = med["reinforced"] < med["ea_random"] and vs_ea["rank_sum_p"] < 0.05
    rand_holds = med["reinforced"] < med["random"] and vs_rand["rank_sum_p"] < 0.05
    elapsed = time.perf_counter() - t0
    ok = ea_holds and rand_holds and elapsed < 900.0
    _report(
        capsys,
        7,
        ok,
        "median evaluations-to-99%-of-optimum over 20 seeds: "
        f"reinforced={med['reinforced']:.1f}, ea_random={med['ea_random']:.1f}, "
        f"random={med['random']:.1f}, reinforced_nonbi={med['reinforced_nonbi']:.1f}; "
        f"reinforced<ea_random p={vs_ea['rank_sum_p']:.3g} "
        f"({'holds' if ea_holds else 'VIOLATED'}); "
        f"reinforced<random p={vs_rand['rank_sum_p']:.3g} "
        f"({'holds' if rand_holds else 'VIOLATED'}); "
        f"measured speedup vs ea_random {vs_ea['speedup_median']:.2f}x "
        f"CI95 {_fmt_ci(vs_ea['speedup_ci95'])}, vs random "
        f"{vs_rand['speedup_median']:.2f}x CI95 {_fmt_ci(vs_rand['speedup_ci95'])} "
        "(reference band 1.5-2.0x, reported not asserted); "
        f"nonbi minus bi median diff {nonbi['median_diff']:+.1f} evals "
        f"CI95 {_fmt_ci(nonbi['diff_ci95'])} (reported); "
        f"{elapsed:.0f}s (<900s)",
    )


# ---------------------------------------------------------------------------
# 8. Determinism / replay
# ---------------------------------------------------------------------------


def test_criterion_8_replay_bit_exact(capsys, tmp_path):
    t0 = time.perf_counter()
    space = SpaceConfig(num_blocks=2, num_ops=3)
    outcomes = []
    for name, budget in (
        ("reinforced", 40),
        ("ea_random", 40),
        ("rl_construct", 30),
        ("random", 30),
    ):
        cfg = StrategyConfig(
            strategy=name,
            space=space,
            oracle_seed=7,
            pop_size=8,
            sample_size=3,
            budget=budget,
            embed_size=8,
            hidden_size=8,
        )
        oracle = make_oracle(cfg)
        _, log = run_strategy(cfg, seed=3, oracle=oracle)
        path = tmp_path / f"trace_{name}_3.jsonl"
        write_jsonl(str(path), log)
        replayed = replay(str(path))
        logged_final = read_jsonl(str(path))[-1]
        if name in ("reinforced", "ea_random"):
            exact = replayed == logged_final
        else:
            logged_fitness = [
                r["fitness"] for r in read_jsonl(str(path)) if r["kind"] == "eval"
            ]
            exact = (
                replayed["best_cell"] == logged_final["best_cell"]
                and replayed["best_true"] == logged_final["best_true"]
                and [e["fitness"] for e in replayed["evals"]] == logged_fitness
            )
        outcomes.append((name, exact))
    elapsed = time.perf_counter() - t0
    ok = all(exact for _, exact in outcomes) and elapsed < 60.0
    _report(
        capsys,
        8,
        ok,
        "replay reproduced logged fitness values bit-exactly for "
        + ", ".join(f"{name}={'yes' if exact else 'NO'}" for name, exact in outcomes)
        + f"; {elapsed:.1f}s (<60s)",
    )
