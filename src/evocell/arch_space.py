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
from functools import cache, cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Sentinel input references: outputs of the previous cell and of the cell
# two back. Positive integers k refer to block k of the current cell.
CELL_PREV1 = -1
CELL_PREV2 = -2

ENUMERATION_CAP = 10**7

# Most blocks per cell. A space's sizes grow with the block count, the
# landscape oracle's input weights with its cube (270,400 floats at 64
# blocks), so a larger count is refused before anything is built.
MAX_BLOCKS = 64


class Op(IntEnum):
    """Candidate operations. Reduced spaces use a prefix of this order."""

    SEP3 = 0  # 3x3 depthwise-separable convolution
    SEP5 = 1  # 5x5 depthwise-separable convolution
    SEP7 = 2  # 7x7 depthwise-separable convolution
    AVG3 = 3  # 3x3 average pooling
    MAX3 = 4  # 3x3 max pooling
    IDENT = 5  # identity


NUM_OPS_TOTAL = len(Op)
# Lookups without an enum call per field: the members in digit order, each
# member's text name, and the member of each digit and of each exact name.
OPS: Tuple[Op, ...] = tuple(Op)
OP_NAMES: Tuple[str, ...] = tuple(op.name for op in OPS)
_OP_OF_DIGIT = {int(op): op for op in OPS}
OP_OF_NAME = {op.name: op for op in OPS}


@dataclass(frozen=True)
class SpaceConfig:
    """Search-space shape: blocks per cell and the active operation subset."""

    num_blocks: int
    num_ops: int = NUM_OPS_TOTAL

    def __post_init__(self) -> None:
        for name in ("num_blocks", "num_ops"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 1 <= self.num_blocks <= MAX_BLOCKS:
            raise ValueError(
                f"num_blocks must be in [1, {MAX_BLOCKS}], got {self.num_blocks}"
            )
        if not 2 <= self.num_ops <= NUM_OPS_TOTAL:
            raise ValueError(
                f"num_ops must be in [2, {NUM_OPS_TOTAL}], got {self.num_ops}"
            )

    @property
    def ops(self) -> Tuple[Op, ...]:
        return OPS[: self.num_ops]


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

    @cached_property
    def digits(self) -> Tuple[int, ...]:
        """Mixed-radix digits, per block i1, i2, o1, o2; an input's digit is
        its token id. Computed once per cell and kept outside the dataclass
        fields, so ==, hash, repr and asdict do not see it."""
        digits: List[int] = []
        for block in self.blocks:
            digits.extend(
                (
                    input_token(block.i1),
                    input_token(block.i2),
                    int(block.o1),
                    int(block.o2),
                )
            )
        return tuple(digits)


@dataclass(frozen=True)
class Violation:
    """First constraint violation found in a cell, by block and field."""

    block: int  # 1-based; 0 means a cell-level problem
    field: str
    reason: str

    def __str__(self) -> str:
        return f"block {self.block}, field {self.field}: {self.reason}"


@cache
def legal_inputs(block_index: int) -> Tuple[int, ...]:
    """Legal input references for 1-based block b: -2, -1, then blocks
    1..b-1; built once per block index."""
    return (CELL_PREV2, CELL_PREV1, *range(1, block_index))


def validate(cell: CellSpec, cfg: SpaceConfig) -> Optional[Violation]:
    """Check a cell against a space config. Returns None if valid.

    Violations are reported as values, not exceptions; the first offending
    (block, field) wins. Duplicate branches (i1 == i2 with o1 == o2) are
    permitted: they read as a width-style doubling, not an error. Each field
    must be a member of its legal set, so an op value that names no active
    Op (2.5, "SEP3") is a violation, not truncated.
    """
    if cell.num_blocks != cfg.num_blocks:
        return Violation(
            0, "blocks", f"expected {cfg.num_blocks} blocks, got {cell.num_blocks}"
        )
    if cell.num_ops != cfg.num_ops:
        return Violation(
            0, "num_ops", f"expected num_ops {cfg.num_ops}, got {cell.num_ops}"
        )
    ops = cfg.ops
    for b, block in enumerate(cell.blocks, start=1):
        allowed = legal_inputs(b)
        if block.i1 not in allowed:
            return Violation(
                b, "i1", f"input {block.i1} not in legal set {list(allowed)}"
            )
        if block.i2 not in allowed:
            return Violation(
                b, "i2", f"input {block.i2} not in legal set {list(allowed)}"
            )
        if block.o1 not in ops:
            return Violation(
                b, "o1", f"op {block.o1!r} outside active subset of {cfg.num_ops}"
            )
        if block.o2 not in ops:
            return Violation(
                b, "o2", f"op {block.o2!r} outside active subset of {cfg.num_ops}"
            )
    return None


def require_valid(cell: CellSpec, cfg: SpaceConfig) -> CellSpec:
    """cell, if validate passes it; otherwise a ValueError naming the
    violation."""
    violation = validate(cell, cfg)
    if violation is not None:
        raise ValueError(f"cell invalid: {violation}")
    return cell


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


@cache
def digit_radices(cfg: SpaceConfig) -> Tuple[int, ...]:
    """Mixed-radix shape of the variable fields, in token order; built once
    per space."""
    radices: List[int] = []
    for b in range(1, cfg.num_blocks + 1):
        radices.extend((b + 1, b + 1, cfg.num_ops, cfg.num_ops))
    return tuple(radices)


def cell_digits(cell: CellSpec) -> Tuple[int, ...]:
    """Mixed-radix digits of a cell (CellSpec.digits, computed once per
    cell): per block i1, i2, o1, o2. An input's digit is its token id."""
    return cell.digits


def cell_from_digits(digits: Sequence[int], cfg: SpaceConfig) -> CellSpec:
    """Inverse of cell_digits; the cell keeps the digits as its cached
    CellSpec.digits.

    Each digit must lie in [0, radix) (digit_radices), as random_digits
    and cell_digits give them: the digits are kept as given, and only an
    op digit that names no Op is caught (KeyError).
    """
    d = tuple(map(int, digits))
    blocks = tuple(
        BlockSpec(
            input_ref(d[k]),
            input_ref(d[k + 1]),
            _OP_OF_DIGIT[d[k + 2]],
            _OP_OF_DIGIT[d[k + 3]],
        )
        for k in range(0, 4 * cfg.num_blocks, 4)
    )
    return _carrying(CellSpec(blocks, num_ops=cfg.num_ops), d)


def _carrying(cell: CellSpec, digits: Tuple[int, ...]) -> CellSpec:
    """cell with its cached CellSpec.digits set to digits, its own."""
    vars(cell)["digits"] = digits  # fills the cached_property
    return cell


def with_fields(cell: CellSpec, edits: Sequence[Tuple[int, object]]) -> CellSpec:
    """A copy of cell with one field per block rewritten.

    edits[k] = (field, value) sets field 0..3 (i1, i2, o1, o2, the digit
    order within a block) of block k + 1 to value, an input ref or an Op;
    blocks past the last edit are copied. Values are not checked. The copy
    carries cell's digits with each rewritten digit replaced, so they are
    never recomputed.
    """
    blocks = list(cell.blocks)
    digits = list(cell.digits)
    for k, (field, value) in enumerate(edits):
        blk = blocks[k]
        if field == 0:
            blocks[k] = BlockSpec(value, blk.i2, blk.o1, blk.o2)
        elif field == 1:
            blocks[k] = BlockSpec(blk.i1, value, blk.o1, blk.o2)
        elif field == 2:
            blocks[k] = BlockSpec(blk.i1, blk.i2, value, blk.o2)
        else:
            blocks[k] = BlockSpec(blk.i1, blk.i2, blk.o1, value)
        digits[4 * k + field] = input_token(value) if field < 2 else int(value)
    return _carrying(CellSpec(tuple(blocks), num_ops=cell.num_ops), tuple(digits))


def cell_rank(cell: CellSpec, cfg: SpaceConfig) -> int:
    """Rank of a cell in the lexicographic enumeration order."""
    rank = 0
    for digit, radix in zip(cell.digits, digit_radices(cfg)):
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
        f"{blk.i1},{blk.i2},{OP_NAMES[blk.o1]},{OP_NAMES[blk.o2]}"
        for blk in cell.blocks
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
            o1, o2 = OP_OF_NAME[fields[2]], OP_OF_NAME[fields[3]]
        except (ValueError, KeyError) as exc:
            raise ValueError(f"unparseable block {part!r}: {exc}") from exc
        blocks.append(BlockSpec(i1, i2, o1, o2))
    return require_valid(CellSpec(tuple(blocks), num_ops=cfg.num_ops), cfg)
