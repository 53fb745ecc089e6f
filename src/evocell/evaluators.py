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
  * TabularOracle: a fitness for every cell of a reduced space, with the
    argmax recorded. build_tabular's is the same landscape affinely
    rescaled to [0.05, 0.95], each cell's value computed when read from
    stored partial score sums; load_oracle's holds a file's explicit table.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .arch_space import (
    ENUMERATION_CAP,
    CellSpec,
    SpaceConfig,
    cell_from_rank,
    cell_from_text,
    cell_rank,
    cell_to_text,
    digit_radices,
    require_valid,
    space_size,
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

    def __post_init__(self) -> None:
        """ValueError, naming the field, unless every field is a finite
        real number (not a bool or a string), tau and full_budget are > 0
        and the rest >= 0."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"maturity {f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"maturity {f.name} must be finite, got {value!r}")
            if f.name in ("tau", "full_budget") and not value > 0:
                raise ValueError(f"maturity {f.name} must be > 0, got {value!r}")
            if value < 0:
                raise ValueError(f"maturity {f.name} must be >= 0, got {value!r}")

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
    validates the cell, then looks it up) and observes it (observe). A
    search carries that true value with the cell for analysis
    (trajectories, the best cell, re-evaluation at full maturity) and never
    calls the oracle again for it; selection looks only at observed fitness.
    """

    cfg: SpaceConfig
    maturity: MaturityModel

    @abstractmethod
    def true_fitness(self, cell: CellSpec) -> float:
        """lookup(cell) of a cell that validate accepts in cfg; any other
        cell is a ValueError."""

    @abstractmethod
    def lookup(self, cell: CellSpec) -> float:
        """The true fitness of a cell already validated against cfg."""

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


def _table_terms(weights: _LandscapeWeights, num_blocks: int):
    """Each score term with the two digit axes it reads, in the order a raw
    score adds them."""
    for b in range(num_blocks):
        yield weights.w_op[b], 4 * b + 2, 4 * b + 3
        yield weights.w_in[b, : b + 2, : b + 2], 4 * b, 4 * b + 1
        if b + 1 < num_blocks:
            yield weights.w_pair[b], 4 * b + 2, 4 * (b + 1) + 2


def _raw_score(terms, digits):
    """The raw landscape scores of N cells at once, from digits.T of their
    (N, 4B) digit matrix. The terms are added in order, as
    LandscapeOracle.lookup adds them for one cell, so each row's score
    equals its cell's, bit for bit."""
    total = 0.0
    for term, axis_a, axis_b in terms:
        total += term[digits[axis_a], digits[axis_b]]
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
        self.terms = tuple(_table_terms(self.weights, cfg.num_blocks))
        # the same terms as nested lists: one cell indexes them without a
        # numpy scalar per read
        self._lists = tuple((term.tolist(), a, b) for term, a, b in self.terms)

    def true_fitness(self, cell: CellSpec) -> float:
        return self.lookup(require_valid(cell, self.cfg))

    def lookup(self, cell: CellSpec) -> float:
        """The squash of the cell's raw score, its terms added in
        _raw_score's order."""
        digits = cell.digits
        total = 0.0
        for term, axis_a, axis_b in self._lists:
            total += term[digits[axis_a]][digits[axis_b]]
        return _squash(total)

    def max_true_fitness(self, digits: np.ndarray) -> float:
        """Highest true fitness over the cells of an (N, 4B) digit matrix.

        Rows are not validated: every digit must be below its radix, as
        random_digits draws them. Equals max(true_fitness(cell)) bit for
        bit, because the squash is non-decreasing and is applied to the
        best raw score only.
        """
        return _squash(float(_raw_score(self.terms, digits.T).max()))


class TabularOracle(FitnessOracle):
    """A true fitness in [0, 1] for every cell of a reduced space, with the
    first rank of the highest one recorded as the optimum.

    This class holds the fitnesses as a table in rank order, as load_oracle
    reads them from a file's explicit entries. build_tabular's oracle
    computes each one from the seeded landscape when it is read.
    """

    def __init__(
        self,
        cfg: SpaceConfig,
        table: Optional[np.ndarray],
        seed: Optional[int],
        maturity: Optional[MaturityModel] = None,
    ):
        self.cfg = cfg
        self._table = table
        self.seed = seed
        self.maturity = maturity if maturity is not None else MaturityModel()
        self.optimum_rank = self._argmax()
        self.optimum_cell = cell_from_rank(self.optimum_rank, cfg)
        self.optimum_fitness = self.lookup(self.optimum_cell)

    @property
    def table(self) -> np.ndarray:
        """Every cell's true fitness, in rank order."""
        return self._table

    def _argmax(self) -> int:
        return int(np.argmax(self._table))

    def true_fitness(self, cell: CellSpec) -> float:
        return self.lookup(require_valid(cell, self.cfg))

    def lookup(self, cell: CellSpec) -> float:
        return float(self._table[cell_rank(cell, self.cfg)])


def _np_squash(raw):
    """1 / (1 + exp(-raw)) as the tabular oracle computes it, on an array or
    on one float64. It uses np.exp, not _squash's math.exp, which differs
    from it in the last bit on some inputs; np.exp gives a float64 alone
    the value it gives it in an array, which the tests check cell by cell."""
    return 1.0 / (np.exp(-raw) + 1.0)


class _SeededTable(TabularOracle):
    """build_tabular's oracle: the seeded landscape's fitness of a cell,
    computed when it is read from two stored score sums.

    A cell's rank is (a * L + l) * k^2 + c, where l is the last block's
    input pair (L = (B+1)^2 of them), c its op pair (k^2 of them), and a
    the digits of the blocks before it. Its raw score is
    prefix[a, c] + last[l]: last is the final term _raw_score adds, and
    prefix the sum of all the terms before it, each added in _raw_score's
    order from 0.0. The fitness is the squash of the raw score, then the
    affine map of [lo, hi] onto [TABULAR_LOW, TABULAR_HIGH], where lo and
    hi are the lowest and highest squashed scores.
    """

    def __init__(
        self,
        cfg: SpaceConfig,
        seed: int,
        maturity: Optional[MaturityModel],
        prefix: np.ndarray,
        last: np.ndarray,
    ):
        self._prefix, self._last = prefix, last
        # Rounded addition does not decrease in either operand, so the
        # extreme raw scores are the sums of the extreme terms; the squash
        # does not decrease either, so lo and hi are their squashes.
        self._lo = float(_np_squash(float(prefix.min()) + float(last.min())))
        self._hi = float(_np_squash(float(prefix.max()) + float(last.max())))
        super().__init__(cfg, None, seed, maturity)

    def _fitness(self, raw):
        """The fitness of a raw score, or of an array of them."""
        if not self._hi > self._lo:  # a flat landscape
            return np.full_like(raw, 0.5 * (TABULAR_LOW + TABULAR_HIGH))
        above = _np_squash(raw) - self._lo
        span = TABULAR_HIGH - TABULAR_LOW
        return above * span / (self._hi - self._lo) + TABULAR_LOW

    @property
    def table(self) -> np.ndarray:
        raw = self._prefix[:, None, :] + self._last[None, :, None]
        return self._fitness(raw.reshape(-1))

    def lookup(self, cell: CellSpec) -> float:
        head, c = divmod(cell_rank(cell, self.cfg), self._prefix.shape[1])
        a, l = divmod(head, self._last.size)
        return float(self._fitness(self._prefix[a, c] + self._last[l]))

    def _argmax(self) -> int:
        """The first rank of the highest fitness, found among the few cells
        whose raw score is above a threshold t of lower fitness."""
        if not self._hi > self._lo:
            return 0  # every cell has the midpoint
        prefix, last = self._prefix, self._last
        p_max, l_max = float(prefix.max()), float(last.max())
        raw_max = p_max + l_max
        # The fitness does not decrease with the raw score, so every cell of
        # the top fitness scores above t. Rounding can give an earlier cell
        # one ulp or more below raw_max the same fitness.
        top = self._fitness(raw_max)
        step = math.ulp(raw_max)
        while self._fitness(raw_max - step) >= top:
            step *= 2.0
        t = raw_max - step
        # A cell reaches t only if its prefix does with the largest last
        # term, and its last term with the largest prefix. The slack covers
        # the rounding of p + l_max and of the threshold; the exact sums of
        # the candidates are taken below.
        size = abs(t) + abs(l_max) + max(abs(p_max), abs(float(prefix.min())))
        slack = 16.0 * math.ulp(size)
        ps = np.flatnonzero(prefix >= t - l_max - slack)
        ls = np.flatnonzero(p_max + last >= t)
        fitness = self._fitness(prefix.reshape(-1)[ps][:, None] + last[ls])
        hit_p, hit_l = np.nonzero(fitness == fitness.max())
        a, c = np.divmod(ps[hit_p], prefix.shape[1])
        return int(((a * last.size + ls[hit_l]) * prefix.shape[1] + c).min())


def build_tabular(
    cfg: SpaceConfig, seed: int, maturity: Optional[MaturityModel] = None
) -> TabularOracle:
    """The seeded landscape over every cell of a reduced space, affinely
    rescaled to [0.05, 0.95], with its argmax; spaces above ENUMERATION_CAP
    cells are a ValueError.

    No table is filled. Each score term reads two digit axes, so the running
    sum of all terms but the last spans only the axes those terms read
    (1.2 MB, where the full table would take 18 MB, on 3 blocks and 4 ops);
    the oracle keeps that sum and the last term, and computes a cell's
    fitness from them when it is read (_SeededTable). Every fitness, the
    optimum and the materialised .table equal those of a full table built
    by the same operations, bit for bit.
    """
    total = space_size(cfg)
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"space has {total} cells, above the tabulation cap {ENUMERATION_CAP}"
        )
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
    op_pairs = cfg.num_ops**2
    return _SeededTable(
        cfg, seed, maturity, prefix.reshape(-1, op_pairs), last.reshape(-1)
    )


# ---------------------------------------------------------------------------
# Persistence: explicit cell -> fitness entries so a stored oracle does not
# depend on the generator staying bit-stable across library versions.
# ---------------------------------------------------------------------------


def save_oracle(path: str, oracle: TabularOracle, entry_cap: int = 10**6) -> None:
    """Write every cell's fitness as an explicit entry; a space above
    entry_cap cells is a ValueError, raised before any value is computed."""
    n = space_size(oracle.cfg)
    if n > entry_cap:
        raise ValueError(f"{n} entries exceed the export cap of {entry_cap}")
    table = oracle.table
    entries = {
        cell_to_text(cell_from_rank(r, oracle.cfg)): float(table[r]) for r in range(n)
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
    """The oracle save_oracle wrote, read as strictly as a log header: a
    payload or entries that are not JSON objects, a space size that is not
    an int or a fitness that is not a number in [0, 1] is a ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    if type(payload) is not dict:
        raise ValueError("an oracle file must hold one JSON object")
    if payload.get("version") != ORACLE_FILE_VERSION:
        raise ValueError(f"unsupported oracle file version {payload.get('version')!r}")
    cfg = SpaceConfig(**payload["space"])
    mat = MaturityModel(**payload["maturity"])
    total = space_size(cfg)
    entries: Dict[str, float] = payload["entries"]
    if type(entries) is not dict:
        raise ValueError("oracle entries must be a JSON object")
    if len(entries) != total:
        raise ValueError(f"expected {total} entries, file has {len(entries)}")
    table = np.full(total, np.nan)  # NaN marks a cell no entry has set yet
    for text, value in entries.items():
        if type(value) not in (int, float) or not 0.0 <= value <= 1.0:  # or NaN
            raise ValueError(f"entry {text} has fitness {value!r}, not in [0, 1]")
        rank = cell_rank(cell_from_text(text, cfg), cfg)
        if not np.isnan(table[rank]):
            raise ValueError(f"entry {text!r} repeats the cell of an earlier entry")
        table[rank] = value
    return TabularOracle(cfg, table, payload.get("seed"), mat)
