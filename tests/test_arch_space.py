"""Genotype space: encoding, ranking, enumeration, validation."""

import itertools
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import stats

from evocell.arch_space import (
    CELL_PREV1,
    CELL_PREV2,
    ENUMERATION_CAP,
    MAX_BLOCKS,
    BlockSpec,
    CellSpec,
    Op,
    SpaceConfig,
    Violation,
    cell_digits,
    cell_from_digits,
    cell_from_rank,
    cell_from_text,
    cell_rank,
    cell_to_text,
    digit_radices,
    encode_tokens,
    enumerate_space,
    legal_inputs,
    random_cell,
    random_digits,
    space_size,
    validate,
    vocab_size,
)


def test_op_enum_is_exactly_six_ops():
    assert [op.name for op in Op] == ["SEP3", "SEP5", "SEP7", "AVG3", "MAX3", "IDENT"]
    assert [int(op) for op in Op] == [0, 1, 2, 3, 4, 5]


def test_space_config_validation():
    SpaceConfig(num_blocks=1, num_ops=2)
    with pytest.raises(ValueError):
        SpaceConfig(num_blocks=0)
    with pytest.raises(ValueError):
        SpaceConfig(num_blocks=2, num_ops=1)
    with pytest.raises(ValueError):
        SpaceConfig(num_blocks=2, num_ops=7)
    for blocks, ops, name in ((2.5, 3, "num_blocks"), (True, 3, "num_blocks"),
                              (2, 3.0, "num_ops")):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            SpaceConfig(blocks, ops)


def test_space_config_caps_the_block_count():
    """Checked from the number alone: a 10**8-block space is refused before
    anything of its size exists."""
    assert SpaceConfig(num_blocks=MAX_BLOCKS).num_blocks == MAX_BLOCKS
    for blocks in (MAX_BLOCKS + 1, 10**8):
        message = f"num_blocks must be in [1, {MAX_BLOCKS}], got {blocks}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpaceConfig(num_blocks=blocks)


def test_ops_prefix_subset():
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    assert cfg.ops == (Op.SEP3, Op.SEP5, Op.SEP7)


def test_legal_inputs_grow_with_block_index():
    assert legal_inputs(1) == (CELL_PREV2, CELL_PREV1)
    assert legal_inputs(2) == (CELL_PREV2, CELL_PREV1, 1)
    assert legal_inputs(4) == (CELL_PREV2, CELL_PREV1, 1, 2, 3)


def test_single_block_token_encoding():
    cell = CellSpec((BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.IDENT),), num_ops=6)
    assert encode_tokens(cell) == [0, 1, 3, 8, 9]


def test_token_encoding_length_is_five_per_block():
    rng = np.random.default_rng(0)
    for blocks in (1, 2, 3, 5):
        cfg = SpaceConfig(num_blocks=blocks, num_ops=4)
        cell = random_cell(cfg, rng)
        assert len(encode_tokens(cell)) == 5 * blocks


def test_vocab_size_counts_inputs_ops_and_combiner():
    # two prev-cell inputs + (B-1) block outputs + 6 ops + combiner
    assert vocab_size(1) == 10
    assert vocab_size(5) == 14


def test_validate_reports_field_and_block():
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    bad_input = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP3),
            BlockSpec(2, CELL_PREV1, Op.SEP3, Op.SEP3),  # block 2 cannot see block 2
        ),
        num_ops=3,
    )
    v = validate(bad_input, cfg)
    assert v is not None and v.block == 2 and v.field == "i1"

    bad_op = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.MAX3),  # MAX3 outside k=3
            BlockSpec(1, CELL_PREV1, Op.SEP3, Op.SEP3),
        ),
        num_ops=3,
    )
    v = validate(bad_op, cfg)
    assert v is not None and v.block == 1 and v.field == "o2"

    wrong_count = CellSpec((BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP3),), num_ops=3)
    v = validate(wrong_count, cfg)
    assert v is not None and v.block == 0


def _field_by_field(cell, cfg):
    """A reference validate: every field of every block in turn, an op by
    its integer value."""
    if cell.num_blocks != cfg.num_blocks:
        return Violation(
            0, "blocks", f"expected {cfg.num_blocks} blocks, got {cell.num_blocks}"
        )
    if cell.num_ops != cfg.num_ops:
        return Violation(
            0, "num_ops", f"expected num_ops {cfg.num_ops}, got {cell.num_ops}"
        )
    for b, block in enumerate(cell.blocks, start=1):
        allowed = list(legal_inputs(b))
        for field_name, ref in (("i1", block.i1), ("i2", block.i2)):
            if ref not in allowed:
                return Violation(b, field_name, f"input {ref} not in legal set {allowed}")
        for field_name, op in (("o1", block.o1), ("o2", block.o2)):
            if not 0 <= int(op) < cfg.num_ops:
                return Violation(
                    b, field_name, f"op {op!r} outside active subset of {cfg.num_ops}"
                )
    return None


# Illegal values per field kind, for a block b in a space of num_ops ops.
_ILLEGAL = {
    "i1": lambda b, num_ops: (b, 0, -3, b + 7),
    "i2": lambda b, num_ops: (b, 0, -3, b + 7),
    "o1": lambda b, num_ops: (*Op, -1, 7)[num_ops:],
    "o2": lambda b, num_ops: (*Op, -1, 7)[num_ops:],
}


@pytest.mark.parametrize("blocks, ops", [(1, 2), (2, 3), (3, 4), (5, 6)])
def test_validate_gives_the_field_by_field_violation(blocks, ops):
    cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
    rng = np.random.default_rng(blocks * 10 + ops)
    checked = 0
    for _ in range(20):
        cell = random_cell(cfg, rng)
        assert validate(cell, cfg) is None
        assert validate(replace(cell, num_ops=ops - 1), cfg) == _field_by_field(
            replace(cell, num_ops=ops - 1), cfg
        )
        assert validate(replace(cell, blocks=cell.blocks[1:]), cfg) == _field_by_field(
            replace(cell, blocks=cell.blocks[1:]), cfg
        )
        for b in range(1, blocks + 1):
            for name, illegal in _ILLEGAL.items():
                for value in illegal(b, ops):
                    blocks_ = list(cell.blocks)
                    blocks_[b - 1] = replace(blocks_[b - 1], **{name: value})
                    bad = replace(cell, blocks=tuple(blocks_))
                    violation = validate(bad, cfg)
                    assert violation == _field_by_field(bad, cfg)
                    assert (violation.block, violation.field) == (b, name)
                    checked += 1
    assert checked >= 20 * blocks * 4 * 2


def test_validate_rejects_an_op_value_that_names_no_op():
    # int() would truncate 2.5 to SEP7 and fail on "SEP3"; membership in the
    # active ops rejects both as violations of the field they sit in
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    cell = random_cell(cfg, np.random.default_rng(0))
    for b, name, value in ((1, "o1", 2.5), (2, "o2", "SEP3")):
        blocks = list(cell.blocks)
        blocks[b - 1] = replace(blocks[b - 1], **{name: value})
        violation = validate(replace(cell, blocks=tuple(blocks)), cfg)
        assert violation == Violation(
            b, name, f"op {value!r} outside active subset of 3"
        )


def test_space_size_formula_against_exhaustive_product():
    # independent recomputation: per block b there are (b+1)^2 input pairs
    # and k^2 op pairs
    for blocks, ops in ((1, 2), (2, 3), (3, 4), (5, 6)):
        cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
        expected = 1
        for b in range(1, blocks + 1):
            expected *= (b + 1) ** 2 * ops**2
        assert space_size(cfg) == expected


def test_flagship_space_sizes():
    assert space_size(SpaceConfig(num_blocks=5, num_ops=6)) == 31_345_665_638_400
    assert space_size(SpaceConfig(num_blocks=2, num_ops=3)) == 2916
    assert space_size(SpaceConfig(num_blocks=1, num_ops=2)) == 16


def test_enumeration_matches_size_and_is_duplicate_free():
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    cells = list(enumerate_space(cfg))
    assert len(cells) == 2916
    encodings = {tuple(encode_tokens(c)) for c in cells}
    assert len(encodings) == 2916
    for cell in cells[:50] + cells[-50:]:
        assert validate(cell, cfg) is None


def test_enumeration_is_lexicographic_in_token_encoding():
    cfg = SpaceConfig(num_blocks=2, num_ops=2)
    tokens = [tuple(encode_tokens(c)) for c in enumerate_space(cfg)]
    assert tokens == sorted(tokens)


def test_rank_round_trip_over_full_space():
    cfg = SpaceConfig(num_blocks=2, num_ops=2)
    n = space_size(cfg)
    for rank in range(n):
        assert cell_rank(cell_from_rank(rank, cfg), cfg) == rank


def test_rank_order_matches_enumeration_order():
    cfg = SpaceConfig(num_blocks=2, num_ops=2)
    for rank, cell in enumerate(enumerate_space(cfg)):
        assert cell_rank(cell, cfg) == rank


def test_rank_rejects_out_of_range():
    cfg = SpaceConfig(num_blocks=1, num_ops=2)
    with pytest.raises(ValueError):
        cell_from_rank(-1, cfg)
    with pytest.raises(ValueError):
        cell_from_rank(space_size(cfg), cfg)


def test_enumeration_cap_guards_large_spaces():
    cfg = SpaceConfig(num_blocks=5, num_ops=6)
    assert space_size(cfg) > ENUMERATION_CAP
    with pytest.raises(ValueError):
        next(iter(enumerate_space(cfg)))


def test_random_cells_are_valid():
    rng = np.random.default_rng(7)
    for blocks, ops in ((1, 2), (3, 4), (5, 6)):
        cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
        for _ in range(200):
            assert validate(random_cell(cfg, rng), cfg) is None


def _per_field_random_cell(cfg, rng):
    # the scalar draw random_cell made before it drew all digits in one call
    blocks = []
    for b in range(1, cfg.num_blocks + 1):
        choices = legal_inputs(b)
        i1 = choices[int(rng.integers(len(choices)))]
        i2 = choices[int(rng.integers(len(choices)))]
        o1 = Op(int(rng.integers(cfg.num_ops)))
        o2 = Op(int(rng.integers(cfg.num_ops)))
        blocks.append(BlockSpec(i1, i2, o1, o2))
    return CellSpec(tuple(blocks), num_ops=cfg.num_ops)


@pytest.mark.parametrize("blocks, ops", [(1, 2), (2, 5), (3, 4), (5, 6)])
def test_one_draw_random_cell_is_stream_identical_to_per_field_draws(blocks, ops):
    cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
    for seed in (0, 1, 7, 2**31 - 1):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            cell = random_cell(cfg, fast)
            assert cell == _per_field_random_cell(cfg, ref)
            assert all(type(blk.i1) is int and type(blk.i2) is int for blk in cell.blocks)
        # a matrix draw continues the same stream, row after row
        for row in random_digits(cfg, fast, 50):
            assert cell_from_digits(row, cfg) == _per_field_random_cell(cfg, ref)
        assert fast.integers(2**62) == ref.integers(2**62)
        assert fast.random() == ref.random()


def test_digit_codec_round_trips_over_a_two_block_space():
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    all_digits = itertools.product(*map(range, digit_radices(cfg)))
    for cell, digits in zip(enumerate_space(cfg), all_digits, strict=True):
        # a cell built from its blocks computes its digits; cell_from_digits keeps them
        assert cell_digits(CellSpec(cell.blocks, cell.num_ops)) == digits
        assert cell_digits(cell) == digits
        assert cell_from_digits(digits, cfg) == cell


def test_cached_digits_leave_cell_identity_alone():
    cfg = SpaceConfig(num_blocks=3, num_ops=4)
    for digits in random_digits(cfg, np.random.default_rng(11), 50):
        decoded = cell_from_digits(digits, cfg)  # digits cached on creation
        built = CellSpec(
            tuple(BlockSpec(b.i1, b.i2, Op(b.o1), Op(b.o2)) for b in decoded.blocks),
            num_ops=cfg.num_ops,
        )
        for _ in range(2):  # before and after built computes its digits
            assert decoded == built
            assert hash(decoded) == hash(built)
            assert repr(decoded) == repr(built)
            assert asdict(decoded) == asdict(built)
            assert cell_digits(built) == cell_digits(decoded) == tuple(digits)


def test_random_cell_input_choice_is_uniform():
    # block 3's first input has 4 legal choices; goodness of fit over 1e5 draws
    cfg = SpaceConfig(num_blocks=3, num_ops=2)
    rng = np.random.default_rng(123)
    counts = {ref: 0 for ref in legal_inputs(3)}
    n = 100_000
    for _ in range(n):
        counts[random_cell(cfg, rng).blocks[2].i1] += 1
    observed = np.array([counts[ref] for ref in legal_inputs(3)])
    result = stats.chisquare(observed)
    assert result.pvalue > 0.01, f"chi-square p={result.pvalue}"


def test_text_round_trip():
    cfg = SpaceConfig(num_blocks=2, num_ops=6)
    text = "-2,-1,SEP3,IDENT|1,-1,MAX3,SEP5"
    cell = cell_from_text(text, cfg)
    assert cell.blocks[0] == BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.IDENT)
    assert cell.blocks[1] == BlockSpec(1, CELL_PREV1, Op.MAX3, Op.SEP5)
    assert cell_to_text(cell) == text
    rng = np.random.default_rng(5)
    for _ in range(100):
        cell = random_cell(cfg, rng)
        assert cell_from_text(cell_to_text(cell), cfg) == cell


def test_text_rejects_invalid():
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    with pytest.raises(ValueError):
        cell_from_text("-2,-1,SEP3", cfg)  # wrong field count
    with pytest.raises(ValueError):
        cell_from_text("-2,-1,NOPE,SEP3|1,-1,SEP3,SEP3", cfg)  # unknown op
    with pytest.raises(ValueError):
        cell_from_text("-2,-1,SEP3,SEP3|2,-1,SEP3,SEP3", cfg)  # illegal ref


def test_cell_digits_are_mixed_radix_coordinates():
    cfg = SpaceConfig(num_blocks=2, num_ops=3)
    cell = cell_from_text("-2,-1,SEP3,IDENT".replace("IDENT", "SEP7") + "|1,-1,SEP5,SEP7", cfg)
    # digits per block: (i1, i2, o1, o2) with input digit -2 -> 0, -1 -> 1, k -> k+1
    assert cell_digits(cell) == (0, 1, 0, 2, 2, 1, 1, 2)
