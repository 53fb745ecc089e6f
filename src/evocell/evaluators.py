"""Synthetic fitness oracles and the training-maturity model.

An oracle assigns every cell a true fitness in (0, 1). What a search
observes is the true value attenuated by how much training the candidate
has effectively received (an exponential-saturation curve in epoch units),
plus Gaussian observation noise, clamped to [0, 0.999]. Children inherit
maturity from their parent in proportion to how many variable tokens
survived the mutation, then gain one fine-tune epoch; this mimics weight
inheritance plus a single training pass, at desk scale.

Two oracle families:
  * LandscapeOracle: additive per-block scores plus adjacent-block pairwise
    interactions through a logistic squash; computable on any space.
  * TabularOracle: the same landscape exhaustively tabulated on a reduced
    space, affinely rescaled to [0.05, 0.95], with the argmax recorded.
"""

from __future__ import annotations

import json
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .arch_space import (
    CellSpec,
    SpaceConfig,
    cell_from_rank,
    cell_from_text,
    cell_rank,
    cell_to_text,
    digit_radices,
    space_size,
    validate,
)

ORACLE_FILE_VERSION = 1
TABULAR_LOW, TABULAR_HIGH = 0.05, 0.95
OBSERVED_MAX = 0.999


@dataclass
class MaturityModel:
    """Epoch-saturation curve relating training effort to observable fitness.

    maturity m in [0, 1] is the fraction of the full training budget a
    candidate has effectively received; the observable fraction of true
    fitness is 1 - exp(-(m * full_budget) / tau).
    """

    tau: float = 3.0
    sigma: float = 0.01
    full_budget: float = 10.0  # epoch units at maturity 1
    finetune_epochs: float = 1.0
    init_epochs: float = 1.0

    def factor(self, maturity: float) -> float:
        if not 0.0 <= maturity <= 1.0:
            raise ValueError(f"maturity must be in [0, 1], got {maturity}")
        return 1.0 - math.exp(-(maturity * self.full_budget) / self.tau)

    def initial_maturity(self) -> float:
        return min(1.0, self.init_epochs / self.full_budget)

    def finetune(self, maturity: float) -> float:
        return min(1.0, maturity + self.finetune_epochs / self.full_budget)


def overlap_fraction(parent: CellSpec, child: CellSpec) -> float:
    """Fraction of the 4 * num_blocks variable tokens left unchanged."""
    if parent.num_blocks != child.num_blocks or parent.num_ops != child.num_ops:
        raise ValueError("parent and child come from different spaces")
    same = sum(map(operator.eq, parent.digits, child.digits))
    return same / (4.0 * parent.num_blocks)


def inherit_maturity(
    model: MaturityModel,
    parent_maturity: float,
    parent: CellSpec,
    child: CellSpec,
) -> float:
    """Scale parent maturity by token overlap, then add one fine-tune epoch."""
    inherited = parent_maturity * overlap_fraction(parent, child)
    return model.finetune(inherited)


class FitnessOracle(ABC):
    """Interface every fitness source implements.

    An evaluation reads a cell's true fitness once (true_fitness, which
    validates the cell) and observes it (observe). A search carries that
    true value with the cell for analysis (trajectories, the best cell,
    re-evaluation at full maturity) and never calls the oracle again for
    it; selection looks only at observed fitness.
    """

    cfg: SpaceConfig
    maturity: MaturityModel

    @abstractmethod
    def true_fitness(self, cell: CellSpec) -> float:
        ...

    def observe(self, true: float, maturity: float, rng: np.random.Generator) -> float:
        """Observed fitness of a cell of this true fitness at the given
        maturity: attenuated, plus noise from rng, clamped to [0, 0.999]."""
        observed = true * self.maturity.factor(maturity)
        if self.maturity.sigma > 0.0:
            observed += self.maturity.sigma * rng.standard_normal()
        return min(max(observed, 0.0), OBSERVED_MAX)

    def evaluate(
        self, cell: CellSpec, maturity: float, rng: np.random.Generator
    ) -> Tuple[float, float]:
        """(observed, true) fitness of one evaluation at the given maturity:
        observe(true_fitness(cell), ...), deterministic per rng state. The
        true value comes back so that a search carries it with the cell."""
        true = self.true_fitness(cell)
        return self.observe(true, maturity, rng), true

    def cost(self, cell: CellSpec, inherited: bool) -> float:
        """Abstract training cost in epoch units."""
        return (
            self.maturity.finetune_epochs if inherited else self.maturity.full_budget
        )


@dataclass
class _LandscapeWeights:
    """Seeded score tables. Draw order (w_op, w_in, w_pair) is part of the
    on-disk contract: changing it would silently re-map every stored seed.
    Seed None means seed 0, as in the target pilot, so such an oracle is
    reproducible too."""

    w_op: np.ndarray  # (B, num_ops, num_ops)
    w_in: np.ndarray  # (B, B+1, B+1); block b uses the leading (b+1) slice
    w_pair: np.ndarray  # (B-1, num_ops, num_ops), adjacent-block interaction

    @classmethod
    def draw(cls, cfg: SpaceConfig, seed: Optional[int]) -> "_LandscapeWeights":
        rng = np.random.default_rng(0 if seed is None else seed)
        B, k = cfg.num_blocks, cfg.num_ops
        return cls(
            w_op=rng.normal(0.0, 1.0, size=(B, k, k)),
            w_in=rng.normal(0.0, 1.0, size=(B, B + 1, B + 1)),
            w_pair=rng.normal(0.0, 0.5, size=(max(B - 1, 1), k, k)),
        )


def _raw_score(weights: _LandscapeWeights, digits, num_blocks: int) -> float:
    total = 0.0
    for b in range(num_blocks):
        d_i1, d_i2, d_o1, d_o2 = digits[4 * b : 4 * b + 4]
        total += weights.w_op[b, d_o1, d_o2]
        total += weights.w_in[b, d_i1, d_i2]
        if b + 1 < num_blocks:
            total += weights.w_pair[b, d_o1, digits[4 * (b + 1) + 2]]
    return total


def _raw_scores(
    weights: _LandscapeWeights, digits: np.ndarray, num_blocks: int
) -> np.ndarray:
    """_raw_score of each row of an (N, 4B) digit matrix: the same terms,
    added in the same order, so every entry equals the scalar path bit for bit."""
    total = np.zeros(len(digits))
    for b in range(num_blocks):
        d_i1, d_i2, d_o1, d_o2 = digits[:, 4 * b : 4 * b + 4].T
        total += weights.w_op[b, d_o1, d_o2]
        total += weights.w_in[b, d_i1, d_i2]
        if b + 1 < num_blocks:
            total += weights.w_pair[b, d_o1, digits[:, 4 * (b + 1) + 2]]
    return total


def _squash(raw: float) -> float:
    return 1.0 / (1.0 + math.exp(-raw))


class LandscapeOracle(FitnessOracle):
    """Structured synthetic landscape usable on spaces of any size."""

    def __init__(
        self,
        cfg: SpaceConfig,
        seed: int,
        maturity: Optional[MaturityModel] = None,
    ):
        self.cfg = cfg
        self.seed = seed
        self.maturity = maturity if maturity is not None else MaturityModel()
        self.weights = _LandscapeWeights.draw(cfg, seed)

    def true_fitness(self, cell: CellSpec) -> float:
        violation = validate(cell, self.cfg)
        if violation is not None:
            raise ValueError(f"cell invalid: {violation}")
        return _squash(_raw_score(self.weights, cell.digits, self.cfg.num_blocks))

    def max_true_fitness(self, digits: np.ndarray) -> float:
        """Highest true fitness over the cells of an (N, 4B) digit matrix.

        Rows are not validated: every digit must be below its radix, as
        random_digits draws them. Equals max(true_fitness(cell)) bit for
        bit, because the squash is non-decreasing and is applied to the
        best raw score only.
        """
        raw = _raw_scores(self.weights, digits, self.cfg.num_blocks)
        return _squash(float(raw.max()))


class TabularOracle(FitnessOracle):
    """Exhaustive fitness table over a reduced space, rescaled to
    [0.05, 0.95], argmax recorded at build time."""

    def __init__(
        self,
        cfg: SpaceConfig,
        table: np.ndarray,
        seed: Optional[int],
        maturity: Optional[MaturityModel] = None,
    ):
        self.cfg = cfg
        self.table = table
        self.seed = seed
        self.maturity = maturity if maturity is not None else MaturityModel()
        best = int(np.argmax(table))
        self.optimum_rank = best
        self.optimum_fitness = float(table[best])
        self.optimum_cell = cell_from_rank(best, cfg)

    def true_fitness(self, cell: CellSpec) -> float:
        violation = validate(cell, self.cfg)
        if violation is not None:
            raise ValueError(f"cell invalid: {violation}")
        return float(self.table[cell_rank(cell, self.cfg)])


def _table_terms(weights: _LandscapeWeights, num_blocks: int):
    """Each score term with the two digit axes it reads, in _raw_score's
    term order."""
    for b in range(num_blocks):
        yield weights.w_op[b], 4 * b + 2, 4 * b + 3
        yield weights.w_in[b, : b + 2, : b + 2], 4 * b, 4 * b + 1
        if b + 1 < num_blocks:
            yield weights.w_pair[b], 4 * b + 2, 4 * (b + 1) + 2


# Entries per slice of the squash and rescale passes: 64 Ki float64s are
# 512 KiB, well inside a current x86 core's 1-2 MiB L2 cache, so a slice
# stays cached across the passes' in-place ops instead of the whole table
# streaming through memory once per op. On a Xeon with 2 MiB of L2, 32-64 Ki
# built the 3-block, 4-op table fastest; 8 Ki (per-call overhead) and 512 Ki
# (L2 spills) were each about 2.5 ms slower per 16 ms build.
TABLE_SLICE = 1 << 16


def _table_slices(flat: np.ndarray):
    for start in range(0, flat.size, TABLE_SLICE):
        yield flat[start : start + TABLE_SLICE]


def build_tabular(
    cfg: SpaceConfig,
    seed: int,
    maturity: Optional[MaturityModel] = None,
    cap: int = 10**7,
) -> TabularOracle:
    """Tabulate the seeded landscape over every cell of a reduced space.

    The table has one axis per digit (C order is rank order). Invariant:
    each entry's adds and squash run in _raw_score's term order, from 0.0,
    so every entry equals the scalar path bit for bit. Each term reads two
    digit axes, so the running sum of all terms but the last spans only
    the axes those terms read (1.2 MB of the 18 MB table on 3 blocks and
    4 ops); the last term's add is the one write of the whole table. The
    squash, the min and max, and then the affine rescale run per slice of
    TABLE_SLICE entries, each op on a slice that is still in cache.
    """
    total = space_size(cfg)
    if total > cap:
        raise ValueError(f"space has {total} cells, above the tabulation cap {cap}")
    weights = _LandscapeWeights.draw(cfg, seed)
    radices = digit_radices(cfg)

    def along(term: np.ndarray, axis_a: int, axis_b: int) -> np.ndarray:
        shape = [1] * len(radices)
        shape[axis_a], shape[axis_b] = term.shape
        return term.reshape(shape)

    *head, last = (along(*term) for term in _table_terms(weights, cfg.num_blocks))
    prefix = np.zeros(np.broadcast_shapes(*(term.shape for term in head)))
    for term in head:
        prefix += term
    fitness = np.empty(total, dtype=np.float64)
    np.add(prefix, last, out=fitness.reshape(radices))
    # 1 / (1 + exp(-raw)) and the affine rescale, in place
    lo, hi = math.inf, -math.inf
    for part in _table_slices(fitness):
        np.negative(part, out=part)
        np.exp(part, out=part)
        part += 1.0
        np.divide(1.0, part, out=part)
        lo, hi = min(lo, float(part.min())), max(hi, float(part.max()))
    if hi > lo:
        for part in _table_slices(fitness):
            part -= lo
            part *= TABULAR_HIGH - TABULAR_LOW
            part /= hi - lo
            part += TABULAR_LOW
    else:  # degenerate flat landscape
        fitness[:] = 0.5 * (TABULAR_LOW + TABULAR_HIGH)
    return TabularOracle(cfg, fitness, seed, maturity)


# ---------------------------------------------------------------------------
# Persistence: explicit cell -> fitness entries so a stored oracle does not
# depend on the generator staying bit-stable across library versions.
# ---------------------------------------------------------------------------


def save_oracle(path: str, oracle: TabularOracle, entry_cap: int = 10**6) -> None:
    n = oracle.table.size
    if n > entry_cap:
        raise ValueError(f"{n} entries exceed the export cap of {entry_cap}")
    entries = {
        cell_to_text(cell_from_rank(r, oracle.cfg)): float(oracle.table[r])
        for r in range(n)
    }
    payload = {
        "version": ORACLE_FILE_VERSION,
        "space": {
            "num_blocks": oracle.cfg.num_blocks,
            "num_ops": oracle.cfg.num_ops,
        },
        "seed": oracle.seed,
        "maturity": asdict(oracle.maturity),
        "optimum": {
            "cell": cell_to_text(oracle.optimum_cell),
            "fitness": oracle.optimum_fitness,
        },
        "entries": entries,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_oracle(path: str) -> TabularOracle:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != ORACLE_FILE_VERSION:
        raise ValueError(f"unsupported oracle file version {payload.get('version')!r}")
    cfg = SpaceConfig(
        num_blocks=int(payload["space"]["num_blocks"]),
        num_ops=int(payload["space"]["num_ops"]),
    )
    mat = MaturityModel(**payload["maturity"])
    total = space_size(cfg)
    entries: Dict[str, float] = payload["entries"]
    if len(entries) != total:
        raise ValueError(f"expected {total} entries, file has {len(entries)}")
    table = np.full(total, np.nan)  # NaN marks a cell no entry has set yet
    for text, value in entries.items():
        if not 0.0 <= value <= 1.0:  # NaN fails this too
            raise ValueError(f"entry {text} has fitness {value!r}, not in [0, 1]")
        rank = cell_rank(cell_from_text(text, cfg), cfg)
        if not np.isnan(table[rank]):
            raise ValueError(f"entry {text!r} repeats the cell of an earlier entry")
        table[rank] = value
    return TabularOracle(cfg, table, payload.get("seed"), mat)
