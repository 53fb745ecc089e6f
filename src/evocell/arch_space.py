"""Cell genotypes for a block-structured architecture search space.

A cell is an ordered list of blocks. Each block reads two inputs, applies an
operation to each, and combines the results by element-wise addition. Inputs
may be the outputs of the two preceding cells or of any earlier block in the
same cell. This module owns the genotype types, validation, the flat token
encoding consumed by recurrent policies, exhaustive enumeration of reduced
spaces, and exact cardinality counting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Sentinel input references: outputs of the previous cell and of the cell
# two back. Positive integers k refer to block k of the current cell.
CELL_PREV1 = -1
CELL_PREV2 = -2

# Every block combines its two branches by element-wise addition. The
# combiner is part of the token stream but never searched over.
COMBINER = "ADD"

ENUMERATION_CAP = 10**7


class Op(IntEnum):
    """Candidate operations. Reduced spaces use a prefix of this order."""

    SEP3 = 0  # 3x3 depthwise-separable convolution
    SEP5 = 1  # 5x5 depthwise-separable convolution
    SEP7 = 2  # 7x7 depthwise-separable convolution
    AVG3 = 3  # 3x3 average pooling
    MAX3 = 4  # 3x3 max pooling
    IDENT = 5  # identity


NUM_OPS_TOTAL = len(Op)


@dataclass(frozen=True)
class SpaceConfig:
    """Search-space shape: blocks per cell and the active operation subset."""

    num_blocks: int
    num_ops: int = NUM_OPS_TOTAL

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if not 2 <= self.num_ops <= NUM_OPS_TOTAL:
            raise ValueError(
                f"num_ops must be in [2, {NUM_OPS_TOTAL}], got {self.num_ops}"
            )

    @property
    def ops(self) -> Tuple[Op, ...]:
        return tuple(Op(m) for m in range(self.num_ops))


@dataclass(frozen=True)
class BlockSpec:
    """One block: two input references and the operation applied to each."""

    i1: int
    i2: int
    o1: Op
    o2: Op


@dataclass(frozen=True)
class CellSpec:
    """A full cell genotype: an ordered tuple of blocks.

    num_ops records the active operation subset the cell was drawn from so
    that downstream components know the legal replacement set.
    """

    blocks: Tuple[BlockSpec, ...]
    num_ops: int = NUM_OPS_TOTAL

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class Violation:
    """First constraint violation found in a cell, by block and field."""

    block: int  # 1-based; 0 means a cell-level problem
    field: str
    reason: str

    def __str__(self) -> str:
        return f"block {self.block}, field {self.field}: {self.reason}"


def legal_inputs(block_index: int) -> List[int]:
    """Legal input references for 1-based block b: -2, -1, then blocks 1..b-1."""
    return [CELL_PREV2, CELL_PREV1] + list(range(1, block_index))


def validate(cell: CellSpec, cfg: SpaceConfig) -> Optional[Violation]:
    """Check a cell against a space config. Returns None if valid.

    Violations are reported as values, not exceptions; the first offending
    (block, field) wins. Duplicate branches (i1 == i2 with o1 == o2) are
    permitted: they read as a width-style doubling, not an error.
    """
    if cell.num_blocks != cfg.num_blocks:
        return Violation(
            0, "blocks", f"expected {cfg.num_blocks} blocks, got {cell.num_blocks}"
        )
    if cell.num_ops != cfg.num_ops:
        return Violation(
            0, "num_ops", f"expected num_ops {cfg.num_ops}, got {cell.num_ops}"
        )
    for b, block in enumerate(cell.blocks, start=1):
        allowed = legal_inputs(b)
        for field_name, ref in (("i1", block.i1), ("i2", block.i2)):
            if ref not in allowed:
                return Violation(
                    b, field_name, f"input {ref} not in legal set {allowed}"
                )
        for field_name, op in (("o1", block.o1), ("o2", block.o2)):
            if not 0 <= int(op) < cfg.num_ops:
                return Violation(
                    b, field_name, f"op {op!r} outside active subset of {cfg.num_ops}"
                )
    return None


def random_digits(
    cfg: SpaceConfig, rng: np.random.Generator, n: Optional[int] = None
) -> np.ndarray:
    """Uniform digit vectors (see digit_radices) in one generator call.

    Returns shape (4B,), or (n, 4B) when n is given. The array-high draw
    takes each digit in C order by the same 32-bit bounded draw as a scalar
    rng.integers(radix), so the stream and the generator's state afterwards
    equal one scalar draw per field in token order.
    """
    radices = digit_radices(cfg)
    return rng.integers(radices, size=None if n is None else (n, len(radices)))


def random_cell(cfg: SpaceConfig, rng: np.random.Generator) -> CellSpec:
    """Draw a uniformly random valid cell.

    All 4B fields come from one random_digits call, drawn per block in the
    order i1, i2, o1, o2; that stream is identical to one scalar
    rng.integers per field, so runs are reproducible from a seed.
    """
    return cell_from_digits(random_digits(cfg, rng), cfg)


# ---------------------------------------------------------------------------
# Token encoding
#
# Each block contributes five tokens: i1, i2, o1, o2, combiner. Token ids for
# a space with B blocks:
#   -2 -> 0, -1 -> 1, block k -> 1 + k          (inputs)
#   op m -> 2 + B + m                           (operations, m in 0..5)
#   ADD  -> 2 + B + 6                           (combiner)
# Vocabulary size is therefore B + 9 regardless of the active op subset.
# ---------------------------------------------------------------------------


def vocab_size(num_blocks: int) -> int:
    return num_blocks + 9


def input_token(ref: int) -> int:
    if ref == CELL_PREV2:
        return 0
    if ref == CELL_PREV1:
        return 1
    return 1 + ref


def input_ref(token: int) -> int:
    """Inverse of input_token."""
    if token == 0:
        return CELL_PREV2
    if token == 1:
        return CELL_PREV1
    return token - 1


def encode_tokens(cell: CellSpec) -> List[int]:
    """Flatten a cell into its 5 * num_blocks token-id sequence."""
    B = cell.num_blocks
    op_base = 2 + B
    add_token = op_base + NUM_OPS_TOTAL
    tokens: List[int] = []
    for block in cell.blocks:
        tokens.extend(
            (
                input_token(block.i1),
                input_token(block.i2),
                op_base + int(block.o1),
                op_base + int(block.o2),
                add_token,
            )
        )
    return tokens


def decode_tokens(tokens: Sequence[int], cfg: SpaceConfig) -> CellSpec:
    """Inverse of encode_tokens. Raises ValueError on malformed input."""
    B = cfg.num_blocks
    if len(tokens) != 5 * B:
        raise ValueError(f"expected {5 * B} tokens, got {len(tokens)}")
    vsize = vocab_size(B)
    op_base = 2 + B
    add_token = op_base + NUM_OPS_TOTAL
    blocks = []
    for b in range(B):
        t_i1, t_i2, t_o1, t_o2, t_add = tokens[5 * b : 5 * b + 5]
        for t in (t_i1, t_i2, t_o1, t_o2, t_add):
            if not 0 <= t < vsize:
                raise ValueError(f"token id {t} outside vocabulary of {vsize}")
        if t_i1 >= op_base or t_i2 >= op_base:
            raise ValueError(f"block {b + 1}: expected input tokens, got op tokens")
        if not op_base <= t_o1 < add_token or not op_base <= t_o2 < add_token:
            raise ValueError(f"block {b + 1}: expected op tokens")
        if t_add != add_token:
            raise ValueError(f"block {b + 1}: expected combiner token {add_token}")
        blocks.append(
            BlockSpec(
                input_ref(t_i1), input_ref(t_i2), Op(t_o1 - op_base), Op(t_o2 - op_base)
            )
        )
    cell = CellSpec(tuple(blocks), num_ops=cfg.num_ops)
    violation = validate(cell, cfg)
    if violation is not None:
        raise ValueError(f"decoded cell invalid: {violation}")
    return cell


# ---------------------------------------------------------------------------
# Counting, ranking, enumeration
# ---------------------------------------------------------------------------


def space_size(cfg: SpaceConfig) -> int:
    """Exact number of distinct cells (big-int arithmetic).

    Per block b there are (b+1) input choices per branch and num_ops op
    choices per branch, and the two branches are independent, so the count
    is (num_ops^B * prod_b (b+1)) squared.
    """
    per_branch = cfg.num_ops**cfg.num_blocks * math.prod(
        range(2, cfg.num_blocks + 2)
    )
    return per_branch * per_branch


def digit_radices(cfg: SpaceConfig) -> Tuple[int, ...]:
    """Mixed-radix shape of the variable fields, in token order."""
    radices: List[int] = []
    for b in range(1, cfg.num_blocks + 1):
        radices.extend((b + 1, b + 1, cfg.num_ops, cfg.num_ops))
    return tuple(radices)


def cell_digits(cell: CellSpec) -> List[int]:
    """Mixed-radix digits of a cell: per block i1, i2, o1, o2. An input's
    digit is its token id."""
    digits: List[int] = []
    for block in cell.blocks:
        digits.extend(
            (
                input_token(block.i1),
                input_token(block.i2),
                int(block.o1),
                int(block.o2),
            )
        )
    return digits


def cell_from_digits(digits: Sequence[int], cfg: SpaceConfig) -> CellSpec:
    """Inverse of cell_digits. Digits are not range-checked: validate() the
    cell if they come from outside."""
    d = [int(x) for x in digits]
    blocks = tuple(
        BlockSpec(input_ref(d[k]), input_ref(d[k + 1]), Op(d[k + 2]), Op(d[k + 3]))
        for k in range(0, 4 * cfg.num_blocks, 4)
    )
    return CellSpec(blocks, num_ops=cfg.num_ops)


def cell_rank(cell: CellSpec, cfg: SpaceConfig) -> int:
    """Rank of a cell in the lexicographic enumeration order."""
    rank = 0
    for digit, radix in zip(cell_digits(cell), digit_radices(cfg)):
        rank = rank * radix + digit
    return rank


def cell_from_rank(rank: int, cfg: SpaceConfig) -> CellSpec:
    radices = digit_radices(cfg)
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        rank, digits[pos] = divmod(rank, radices[pos])
    if rank != 0:
        raise ValueError("rank outside the space")
    return cell_from_digits(digits, cfg)


def enumerate_space(
    cfg: SpaceConfig, cap: int = ENUMERATION_CAP
) -> Iterator[CellSpec]:
    """Yield every cell in lexicographic token order.

    Refuses spaces larger than cap so a typo cannot wedge the process.
    """
    total = space_size(cfg)
    if total > cap:
        raise ValueError(f"space has {total} cells, above the cap of {cap}")
    # digits order inputs as their token ids do, so digit order is token order
    for digits in itertools.product(*map(range, digit_radices(cfg))):
        yield cell_from_digits(digits, cfg)


# ---------------------------------------------------------------------------
# Text serialization: one cell per line, blocks joined by '|', fields by ','.
# Example: "-2,-1,SEP3,IDENT|1,-1,MAX3,SEP5"
# ---------------------------------------------------------------------------


def cell_to_text(cell: CellSpec) -> str:
    return "|".join(
        f"{blk.i1},{blk.i2},{blk.o1.name},{blk.o2.name}" for blk in cell.blocks
    )


def cell_from_text(text: str, cfg: SpaceConfig) -> CellSpec:
    """Parse the text form and validate against cfg. Raises ValueError."""
    blocks = []
    parts = text.strip().split("|")
    for part in parts:
        fields = part.split(",")
        if len(fields) != 4:
            raise ValueError(f"expected 4 comma-separated fields, got {part!r}")
        try:
            i1, i2 = int(fields[0]), int(fields[1])
            o1, o2 = Op[fields[2]], Op[fields[3]]
        except (ValueError, KeyError) as exc:
            raise ValueError(f"unparseable block {part!r}: {exc}") from exc
        blocks.append(BlockSpec(i1, i2, o1, o2))
    cell = CellSpec(tuple(blocks), num_ops=cfg.num_ops)
    violation = validate(cell, cfg)
    if violation is not None:
        raise ValueError(f"cell invalid: {violation}")
    return cell
