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
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .arch_space import (
    CellSpec,
    SpaceConfig,
    cell_digits,
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
    same = sum(
        int(p == c) for p, c in zip(cell_digits(parent), cell_digits(child))
    )
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

    true_fitness is a test-and-analysis hook; searches are only allowed to
    look at evaluate().
    """

    cfg: SpaceConfig
    maturity: MaturityModel

    @abstractmethod
    def true_fitness(self, cell: CellSpec) -> float:
        ...

    def evaluate(
        self, cell: CellSpec, maturity: float, rng: np.random.Generator
    ) -> float:
        """Observed fitness at the given maturity; deterministic per rng state."""
        observed = self.true_fitness(cell) * self.maturity.factor(maturity)
        if self.maturity.sigma > 0.0:
            observed += self.maturity.sigma * rng.standard_normal()
        return min(max(observed, 0.0), OBSERVED_MAX)

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
        return _squash(_raw_score(self.weights, cell_digits(cell), self.cfg.num_blocks))

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


def build_tabular(
    cfg: SpaceConfig,
    seed: int,
    maturity: Optional[MaturityModel] = None,
    cap: int = 10**7,
) -> TabularOracle:
    """Tabulate the seeded landscape over every cell of a reduced space.

    The table has one axis per digit (C order is rank order); each score
    term is broadcast-added along its two digit axes, in _raw_score's term
    order, so every entry equals the scalar path bit for bit.
    """
    total = space_size(cfg)
    if total > cap:
        raise ValueError(f"space has {total} cells, above the tabulation cap {cap}")
    weights = _LandscapeWeights.draw(cfg, seed)
    radices = digit_radices(cfg)
    B = cfg.num_blocks
    raw = np.zeros(radices, dtype=np.float64)

    def along(term: np.ndarray, axis_a: int, axis_b: int) -> np.ndarray:
        shape = [1] * len(radices)
        shape[axis_a], shape[axis_b] = term.shape
        return term.reshape(shape)

    for b in range(B):
        raw += along(weights.w_op[b], 4 * b + 2, 4 * b + 3)
        raw += along(weights.w_in[b, : b + 2, : b + 2], 4 * b, 4 * b + 1)
        if b + 1 < B:
            raw += along(weights.w_pair[b], 4 * b + 2, 4 * (b + 1) + 2)
    fitness = raw.reshape(-1)
    # 1 / (1 + exp(-raw)) and the affine rescale, in place
    np.negative(fitness, out=fitness)
    np.exp(fitness, out=fitness)
    fitness += 1.0
    np.divide(1.0, fitness, out=fitness)
    lo, hi = float(fitness.min()), float(fitness.max())
    if hi > lo:
        fitness -= lo
        fitness *= TABULAR_HIGH - TABULAR_LOW
        fitness /= hi - lo
        fitness += TABULAR_LOW
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
        "maturity": {
            "tau": oracle.maturity.tau,
            "sigma": oracle.maturity.sigma,
            "full_budget": oracle.maturity.full_budget,
            "finetune_epochs": oracle.maturity.finetune_epochs,
            "init_epochs": oracle.maturity.init_epochs,
        },
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
    table = np.empty(total, dtype=np.float64)
    for text, value in entries.items():
        table[cell_rank(cell_from_text(text, cfg), cfg)] = value
    return TabularOracle(cfg, table, payload.get("seed"), mat)
