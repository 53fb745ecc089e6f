"""Fitness oracles, maturity model, inheritance, persistence."""

import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from evocell.arch_space import (
    CELL_PREV1,
    CELL_PREV2,
    BlockSpec,
    CellSpec,
    Op,
    SpaceConfig,
    cell_digits,
    cell_from_digits,
    cell_from_rank,
    digit_radices,
    random_cell,
    random_digits,
    space_size,
)
from evocell.evaluators import (
    TABULAR_HIGH,
    TABULAR_LOW,
    FitnessOracle,
    LandscapeOracle,
    MaturityModel,
    TabularOracle,
    _LandscapeWeights,
    _raw_score,
    _squash,
    build_tabular,
    inherit_maturity,
    load_oracle,
    overlap_fraction,
    save_oracle,
)
from tabular_reference import reference_raw_score, reference_table

CFG23 = SpaceConfig(num_blocks=2, num_ops=3)


# ---------------------------------------------------------------------------
# Maturity model
# ---------------------------------------------------------------------------


def test_maturity_factor_spot_values():
    m = MaturityModel()
    assert m.factor(0.0) == 0.0
    assert m.factor(1.0) == pytest.approx(1.0 - math.exp(-10.0 / 3.0), abs=1e-15)
    assert m.factor(0.3) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)


def test_maturity_factor_rejects_out_of_range():
    m = MaturityModel()
    with pytest.raises(ValueError):
        m.factor(-0.01)
    with pytest.raises(ValueError):
        m.factor(1.01)


def test_initial_and_finetune_maturity():
    m = MaturityModel()
    assert m.initial_maturity() == pytest.approx(0.1)
    assert m.finetune(0.1) == pytest.approx(0.2)
    assert m.finetune(0.95) == 1.0
    assert m.finetune(1.0) == 1.0


def test_overlap_fraction():
    cell = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP5),
            BlockSpec(1, CELL_PREV1, Op.MAX3, Op.IDENT),
        ),
        num_ops=6,
    )
    assert overlap_fraction(cell, cell) == 1.0
    changed = CellSpec(
        (cell.blocks[0], BlockSpec(1, CELL_PREV2, Op.MAX3, Op.IDENT)),
        num_ops=6,
    )
    assert overlap_fraction(cell, changed) == pytest.approx(7.0 / 8.0)
    other_space = CellSpec((cell.blocks[0],), num_ops=6)
    with pytest.raises(ValueError):
        overlap_fraction(cell, other_space)


def test_inherit_maturity_half_changed_example():
    # parent at 0.8, half of the 8 variable tokens changed: inherited 0.4,
    # plus one fine-tune epoch on a 10-epoch budget -> 0.5
    m = MaturityModel()
    parent = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP5),
            BlockSpec(1, CELL_PREV1, Op.MAX3, Op.SEP3),
        ),
        num_ops=6,
    )
    child = CellSpec(
        (
            BlockSpec(CELL_PREV1, CELL_PREV2, Op.SEP3, Op.SEP5),
            BlockSpec(1, CELL_PREV1, Op.SEP5, Op.SEP7),
        ),
        num_ops=6,
    )
    same = sum(
        int(p == c) for p, c in zip(cell_digits(parent), cell_digits(child))
    )
    assert same == 4
    assert inherit_maturity(m, 0.8, parent, child) == pytest.approx(0.5)


def test_inherit_maturity_edge_cases():
    m = MaturityModel()
    rng = np.random.default_rng(0)
    cell = random_cell(CFG23, rng)
    # identical child: full inheritance plus fine-tune
    assert inherit_maturity(m, 0.8, cell, cell) == pytest.approx(0.9)
    # full inheritance at maturity 1 stays capped
    assert inherit_maturity(m, 1.0, cell, cell) == 1.0


# ---------------------------------------------------------------------------
# Observation model
# ---------------------------------------------------------------------------


class _FixedOracle(FitnessOracle):
    def __init__(self, value, maturity=None):
        self.cfg = CFG23
        self.value = value
        self.maturity = maturity if maturity is not None else MaturityModel()

    def true_fitness(self, cell):
        return self.value

    def lookup(self, cell):
        return self.value


def _some_cell():
    return random_cell(CFG23, np.random.default_rng(1))


def test_evaluate_noiseless_is_exact_product():
    oracle = _FixedOracle(0.8, MaturityModel(sigma=0.0))
    cell = _some_cell()
    rng = np.random.default_rng(2)
    got, true = oracle.evaluate(cell, 0.3, rng)
    assert true == 0.8
    assert got == 0.8 * (1.0 - math.exp(-1.0))


def test_evaluate_noiseless_consumes_no_rng_draws():
    oracle = _FixedOracle(0.8, MaturityModel(sigma=0.0))
    cell = _some_cell()
    rng = np.random.default_rng(3)
    oracle.evaluate(cell, 0.5, rng)
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


def test_evaluate_noise_consumes_exactly_one_draw():
    oracle = _FixedOracle(0.6)
    cell = _some_cell()
    rng = np.random.default_rng(4)
    got, _ = oracle.evaluate(cell, 0.7, rng)
    ref_rng = np.random.default_rng(4)
    expected = 0.6 * oracle.maturity.factor(0.7) + 0.01 * ref_rng.standard_normal()
    assert got == min(max(expected, 0.0), 0.999)
    # streams are aligned afterwards
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_evaluate_clamps_to_observed_ceiling():
    oracle = _FixedOracle(2.0, MaturityModel(sigma=0.0))
    assert oracle.evaluate(_some_cell(), 1.0, np.random.default_rng(5)) == (0.999, 2.0)


def test_evaluate_clamps_negative_noise_to_zero():
    oracle = _FixedOracle(0.0, MaturityModel(sigma=1.0))
    cell = _some_cell()
    rng = np.random.default_rng(6)
    draws = [oracle.evaluate(cell, 1.0, rng)[0] for _ in range(64)]
    assert all(d >= 0.0 for d in draws)
    assert any(d == 0.0 for d in draws)
    assert any(d > 0.0 for d in draws)


def test_evaluate_deterministic_given_rng_state():
    oracle = LandscapeOracle(CFG23, seed=9)
    cell = _some_cell()
    a = oracle.evaluate(cell, 0.4, np.random.default_rng(7))
    b = oracle.evaluate(cell, 0.4, np.random.default_rng(7))
    assert a == b


# ---------------------------------------------------------------------------
# Landscape oracle
# ---------------------------------------------------------------------------


def test_landscape_rejects_invalid_cell():
    oracle = LandscapeOracle(CFG23, seed=1)
    bad = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP3),
            BlockSpec(2, CELL_PREV1, Op.SEP3, Op.SEP3),  # ref to non-existent block
        ),
        num_ops=3,
    )
    with pytest.raises(ValueError):
        oracle.true_fitness(bad)


def test_landscape_matches_independent_recomputation():
    # recompute the additive score by hand from the drawn weight tables:
    # per block, an op-pair term and an input-pair term; adjacent blocks
    # interact through their first ops
    oracle = LandscapeOracle(CFG23, seed=7)
    w = oracle.weights
    rng = np.random.default_rng(8)
    for _ in range(50):
        cell = random_cell(CFG23, rng)
        total = 0.0
        for b, blk in enumerate(cell.blocks):
            def digit(ref):
                if ref == CELL_PREV2:
                    return 0
                if ref == CELL_PREV1:
                    return 1
                return ref + 1

            total += w.w_op[b, int(blk.o1), int(blk.o2)]
            total += w.w_in[b, digit(blk.i1), digit(blk.i2)]
            if b + 1 < cell.num_blocks:
                total += w.w_pair[b, int(blk.o1), int(cell.blocks[b + 1].o1)]
        expected = 1.0 / (1.0 + math.exp(-total))
        assert oracle.true_fitness(cell) == pytest.approx(expected, abs=1e-12)
        assert 0.0 < expected < 1.0


def test_landscape_weight_draw_order_contract():
    # the (w_op, w_in, w_pair) draw order against a single seeded generator
    # is what keeps stored seeds meaningful; pin it
    w = _LandscapeWeights.draw(CFG23, seed=42)
    rng = np.random.default_rng(42)
    ref_op = rng.normal(0.0, 1.0, size=(2, 3, 3))
    ref_in = rng.normal(0.0, 1.0, size=(2, 3, 3))
    ref_pair = rng.normal(0.0, 0.5, size=(1, 3, 3))
    assert np.array_equal(w.w_op, ref_op)
    assert np.array_equal(w.w_in, ref_in)
    assert np.array_equal(w.w_pair, ref_pair)


# ---------------------------------------------------------------------------
# Tabular oracle
# ---------------------------------------------------------------------------


def test_build_tabular_shape_and_range():
    oracle = build_tabular(CFG23, seed=7)
    assert oracle.table.shape == (2916,)
    assert oracle.table.min() == TABULAR_LOW
    assert oracle.table.max() == pytest.approx(TABULAR_HIGH, abs=1e-12)
    assert oracle.optimum_fitness == oracle.table.max()
    assert oracle.optimum_rank == int(np.argmax(oracle.table))


def test_build_tabular_deterministic_and_seed_sensitive():
    a = build_tabular(CFG23, seed=7)
    b = build_tabular(CFG23, seed=7)
    c = build_tabular(CFG23, seed=8)
    assert np.array_equal(a.table, b.table)
    assert not np.array_equal(a.table, c.table)


def test_build_tabular_equals_scalar_path_bit_for_bit():
    # per cell: the raw score, then numpy's sigmoid, then the affine rescale
    tab = build_tabular(CFG23, seed=7)
    weights = _LandscapeWeights.draw(CFG23, 7)
    raw = [
        reference_raw_score(weights, cell_digits(cell_from_rank(r, CFG23)), 2)
        for r in range(space_size(CFG23))
    ]
    fitness = [1.0 / (1.0 + np.exp(-x)) for x in raw]
    lo, hi = min(fitness), max(fitness)
    expected = [
        TABULAR_LOW + (TABULAR_HIGH - TABULAR_LOW) * (f - lo) / (hi - lo)
        for f in fitness
    ]
    assert np.array_equal(tab.table, np.array(expected))


def _assert_matches_reference(cfg, seed):
    oracle = build_tabular(cfg, seed)
    expected = reference_table(cfg, seed)
    assert np.array_equal(oracle.table, expected)
    assert oracle.optimum_rank == int(np.argmax(expected))


@pytest.mark.parametrize("seed", [5, 7])
def test_build_tabular_matches_whole_array_build(seed):
    _assert_matches_reference(SpaceConfig(num_blocks=3, num_ops=4), seed)


def test_build_tabular_matches_whole_array_build_on_small_spaces():
    _assert_matches_reference(CFG23, 7)
    _assert_matches_reference(SpaceConfig(num_blocks=2, num_ops=6), 3)


@pytest.mark.parametrize("seed", [5, 7])
def test_true_fitness_of_each_cell_matches_whole_array_build(seed):
    # each value is computed when read, from one raw score; the whole-array
    # build squashes and rescales the full table at once
    cfg34 = SpaceConfig(num_blocks=3, num_ops=4)
    ranks = np.random.default_rng(seed).integers(0, space_size(cfg34), 20_000)
    for cfg, some in ((CFG23, np.arange(space_size(CFG23))), (cfg34, ranks)):
        oracle = build_tabular(cfg, seed)
        expected = reference_table(cfg, seed)
        got = [oracle.true_fitness(cell_from_rank(int(r), cfg)) for r in some]
        assert np.array_equal(got, expected[some])


def _draw_then(edit):
    """A _LandscapeWeights.draw that edits the seeded weights in place."""
    draw = _LandscapeWeights.draw

    def edited(cls, cfg, seed):
        weights = draw(cfg, seed)
        edit(weights)
        return weights

    return classmethod(edited)


def test_optimum_is_the_first_of_two_tied_cells(monkeypatch):
    def tie(weights):
        # two input pairs of the last block share the top score term
        weights.w_in[-1, 0, 1] = weights.w_in[-1, 1, 0] = 5.0

    monkeypatch.setattr(_LandscapeWeights, "draw", _draw_then(tie))
    expected = reference_table(CFG23, 7)
    assert np.count_nonzero(expected == expected.max()) == 2
    _assert_matches_reference(CFG23, 7)


def test_optimum_is_the_first_cell_that_rounds_to_the_top(monkeypatch):
    def near_tie(weights):
        # the earlier input pair's term is one ulp below the later one's,
        # so its raw score is one ulp below the top and, once squashed,
        # rounds to the same fitness
        weights.w_in[-1, 1, 0] = 20.0
        weights.w_in[-1, 0, 1] = math.nextafter(20.0, 0.0)

    monkeypatch.setattr(_LandscapeWeights, "draw", _draw_then(near_tie))
    weights = _LandscapeWeights.draw(CFG23, 7)
    raw = np.array(
        [
            reference_raw_score(weights, cell_from_rank(r, CFG23).digits, 2)
            for r in range(2916)
        ]
    )
    expected = reference_table(CFG23, 7)
    best = int(np.argmax(expected))
    assert raw[best] == math.nextafter(raw.max(), -math.inf)
    assert best < int(np.argmax(raw))
    _assert_matches_reference(CFG23, 7)


def test_build_tabular_allocates_no_table():
    cfg = SpaceConfig(num_blocks=3, num_ops=4)
    tracemalloc.start()
    try:
        build_tabular(cfg, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20  # the table would take 18 MB


def test_raw_score_equals_block_by_block_reference_bit_for_bit():
    # one cell through LandscapeOracle.lookup's list tables, and all rows of
    # a digit matrix at once through _raw_score, on every space of 1-5
    # blocks and 2-6 ops
    for blocks in range(1, 6):
        for ops in range(2, 7):
            cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
            land = LandscapeOracle(cfg, 7)
            digits = random_digits(cfg, np.random.default_rng(10 * blocks + ops), 400)
            expected = np.array(
                [reference_raw_score(land.weights, r.tolist(), blocks) for r in digits]
            )
            looked_up = [land.lookup(cell_from_digits(row, cfg)) for row in digits]
            assert looked_up == [_squash(raw) for raw in expected.tolist()], cfg
            assert _raw_score(land.terms, digits.T).tobytes() == expected.tobytes(), cfg
    land = LandscapeOracle(SpaceConfig(num_blocks=5, num_ops=6), 7)
    digits = random_digits(land.cfg, np.random.default_rng(0), 2000)
    assert land.max_true_fitness(digits) == max(
        land.true_fitness(cell_from_digits(row, land.cfg)) for row in digits
    )


def test_build_tabular_respects_cap():
    with pytest.raises(ValueError):
        build_tabular(SpaceConfig(num_blocks=5, num_ops=6), seed=0)


def test_tabular_matches_affine_rescale_of_landscape():
    tab = build_tabular(CFG23, seed=7)
    land = LandscapeOracle(CFG23, seed=7)
    raw = np.array(
        [land.true_fitness(cell_from_rank(r, CFG23)) for r in range(2916)]
    )
    lo, hi = raw.min(), raw.max()
    expected = TABULAR_LOW + (TABULAR_HIGH - TABULAR_LOW) * (raw - lo) / (hi - lo)
    assert np.allclose(tab.table, expected, atol=1e-12)
    # monotone rescale: identical ranking, identical argmax
    assert np.array_equal(np.argsort(tab.table), np.argsort(raw))
    assert tab.optimum_rank == int(np.argmax(raw))


def test_tabular_argmax_rescan():
    oracle = build_tabular(CFG23, seed=7)
    best = max(
        range(2916), key=lambda r: oracle.true_fitness(cell_from_rank(r, CFG23))
    )
    assert best == oracle.optimum_rank
    assert oracle.true_fitness(oracle.optimum_cell) == oracle.optimum_fitness


def test_flat_landscape_degenerates_to_midpoint(monkeypatch):
    def zero_draw(cls, cfg, seed):
        B, k = cfg.num_blocks, cfg.num_ops
        return _LandscapeWeights(
            w_op=np.zeros((B, k, k)),
            w_in=np.zeros((B, B + 1, B + 1)),
            w_pair=np.zeros((max(B - 1, 1), k, k)),
        )

    monkeypatch.setattr(_LandscapeWeights, "draw", classmethod(zero_draw))
    oracle = build_tabular(SpaceConfig(num_blocks=1, num_ops=2), seed=0)
    assert np.all(oracle.table == 0.5 * (TABULAR_LOW + TABULAR_HIGH))


def test_single_edit_mutation_graph_is_connected():
    # every cell of a small space is reachable from any other through
    # single-field replacements, so the mutation move set cannot trap a
    # search in a disconnected region
    cfg = SpaceConfig(num_blocks=2, num_ops=2)
    radices = digit_radices(cfg)
    total = space_size(cfg)
    assert total == 576
    seen = np.zeros(total, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        rank = queue.popleft()
        digits = list(np.unravel_index(rank, radices))
        for pos, radix in enumerate(radices):
            original = digits[pos]
            for value in range(radix):
                if value == original:
                    continue
                digits[pos] = value
                nxt = int(np.ravel_multi_index(digits, radices))
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
            digits[pos] = original
    assert seen.all()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_oracle_save_load_round_trip(tmp_path):
    oracle = build_tabular(
        SpaceConfig(num_blocks=1, num_ops=6),
        seed=11,
        maturity=MaturityModel(tau=2.5, sigma=0.02),
    )
    path = tmp_path / "oracle.json"
    save_oracle(str(path), oracle)
    loaded = load_oracle(str(path))
    assert np.array_equal(loaded.table, oracle.table)
    assert loaded.cfg == oracle.cfg
    assert loaded.seed == 11
    assert loaded.optimum_rank == oracle.optimum_rank
    assert loaded.optimum_fitness == oracle.optimum_fitness
    assert loaded.maturity.tau == 2.5
    assert loaded.maturity.sigma == 0.02


def test_oracle_load_rejects_wrong_version(tmp_path):
    oracle = build_tabular(SpaceConfig(num_blocks=1, num_ops=2), seed=0)
    path = tmp_path / "oracle.json"
    save_oracle(str(path), oracle)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_oracle(str(path))


def test_oracle_load_rejects_missing_entries(tmp_path):
    oracle = build_tabular(SpaceConfig(num_blocks=1, num_ops=2), seed=0)
    path = tmp_path / "oracle.json"
    save_oracle(str(path), oracle)
    payload = json.loads(path.read_text())
    first_key = next(iter(payload["entries"]))
    del payload["entries"][first_key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_oracle(str(path))


def _set_first(value):
    def edit(entries):
        entries[next(iter(entries))] = value

    return edit


def _repeat_first_cell(entries):
    # cell_from_text strips whitespace, so two keys can name one cell; with
    # the entry count right, the cell left out would otherwise stay unset
    first, second = list(entries)[:2]
    del entries[second]
    entries[" " + first] = 0.5


@pytest.mark.parametrize(
    "edit",
    [_set_first(math.nan), _set_first(7.5), _repeat_first_cell],
    ids=["nan", "above-one", "repeated-cell"],
)
def test_oracle_load_rejects_bad_entry(tmp_path, edit):
    oracle = build_tabular(SpaceConfig(num_blocks=1, num_ops=2), seed=0)
    path = tmp_path / "oracle.json"
    save_oracle(str(path), oracle)
    payload = json.loads(path.read_text())
    edit(payload["entries"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="^entry "):
        load_oracle(str(path))


def test_save_oracle_respects_entry_cap():
    oracle = build_tabular(CFG23, seed=7)
    with pytest.raises(ValueError):
        save_oracle("/tmp/should-not-exist.json", oracle, entry_cap=100)


def test_save_oracle_checks_the_cap_before_computing_a_value(tmp_path):
    oracle = build_tabular(SpaceConfig(num_blocks=3, num_ops=4), seed=5)
    path = tmp_path / "oracle.json"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="export cap"):
            save_oracle(str(path), oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 2,359,296 values would take 18 MB
    assert not path.exists()
