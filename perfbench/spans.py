"""In-memory span tracing of evocell's layers, from outside the package.

`instrument(tracer)` wraps the public functions and methods listed in
FUNCTIONS and METHODS for the duration of a `with` block. A module-level
function is rebound in every evocell module that holds it, because
`evolution` and `harness` bind names with `from ... import` and look them up
in their own namespace. Methods are replaced on the class that defines them.

Every wrapped call made inside an op records one span: name, start, end,
parent span and op id. Spans stay in memory and are written when the run
ends. The run is serial, so child spans never overlap and a span's self
time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from evocell import (
    arch_space,
    controller,
    evaluators,
    evolution,
    harness,
    nn_core,
    reinforce,
)

# Layers whose time is the learned policy's own work.
POLICY_PREFIXES = ("controller.", "nn_core.", "reinforce.", "harness.ConstructionPolicy.")

# (span name, module, attribute): module-level functions.
FUNCTIONS = (
    ("arch_space.validate", arch_space, "validate"),
    ("arch_space.cell_digits", arch_space, "cell_digits"),
    ("nn_core.lstm_forward_np", nn_core, "lstm_forward_np"),
    ("nn_core.lstm_forward_batch", nn_core, "lstm_forward_batch"),
    ("nn_core.adam_step", nn_core, "adam_step"),
    ("nn_core.save_params", nn_core, "save_params"),
    ("nn_core.load_params", nn_core, "load_params"),
    ("controller.sample_mutation", controller, "sample_mutation"),
    ("controller.sample_mutation_batch", controller, "sample_mutation_batch"),
    ("controller.trace_logprob", controller, "trace_logprob"),
    ("controller.apply_mutation", controller, "apply_mutation"),
    ("evaluators.inherit_maturity", evaluators, "inherit_maturity"),
    ("evaluators.build_tabular", evaluators, "build_tabular"),
    ("evolution.evolution_step", evolution, "evolution_step"),
    ("harness.make_oracle", harness, "make_oracle"),
    ("harness.resolve_target", harness, "resolve_target"),
    ("harness.run_strategy", harness, "run_strategy"),
    ("harness.write_jsonl", harness, "write_jsonl"),
    ("harness.replay", harness, "replay"),
)

# (span name, class, method name). Both oracles define true_fitness.
METHODS = (
    ("nn_core.backward", nn_core.Tensor, "backward"),
    ("reinforce.update", reinforce.ReinforceTrainer, "update"),
    ("harness.ConstructionPolicy.sample", harness.ConstructionPolicy, "sample"),
    ("harness.ConstructionPolicy.logprob", harness.ConstructionPolicy, "logprob"),
    ("evolution.RandomMutationPolicy.propose", evolution.RandomMutationPolicy, "propose"),
    ("evaluators.evaluate", evaluators.FitnessOracle, "evaluate"),
    ("evaluators.true_fitness", evaluators.LandscapeOracle, "true_fitness"),
    ("evaluators.true_fitness", evaluators.TabularOracle, "true_fitness"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS + METHODS))

# Op kinds whose mutations count towards the no-op and duplicate ratios;
# a replay re-applies logged mutations and would count them twice.
COUNTED_OPS = ("search", "propose", "batch")


class Tracer:
    """Span store for one traced run. Span = [name id, start, end, parent, op]."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_kinds: List[str] = []  # op id -> kind
        self.counters: Counter = Counter()
        self._seen_cells: Dict[int, Tuple[object, set]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @property
    def op_kind(self) -> Optional[str]:
        return self.op_kinds[-1] if self.op_kinds else None

    @contextlib.contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Root span `op.<kind>` around one benchmark op."""
        if self.stack:
            raise RuntimeError("ops do not nest")
        self.op_kinds.append(kind)
        self._seen_cells.clear()
        with self.span(f"op.{kind}"):
            yield

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, nid: int) -> list:
        rec = [nid, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               len(self.op_kinds) - 1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self.stack.pop()
        rec[2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:  # outside any op: the benchmark's own checks
                return fn(*args, **kwargs)
            rec = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None and self.op_kind in COUNTED_OPS:
                after(args, out)
            return out

        return traced

    # -- counters at layer boundaries ---------------------------------------

    def count_noop(self, args, child) -> None:
        self.counters["mutations"] += 1
        self.counters["noop_mutations"] += int(child == args[0])

    def count_duplicate(self, args, record) -> None:
        pop = args[0]
        key = id(pop)
        if key not in self._seen_cells:
            # the history before this step: initial population, earlier children
            self._seen_cells[key] = (pop, {ind.cell for ind in pop.history[:-1]})
        seen = self._seen_cells[key][1]
        child = pop.history[-1].cell
        self.counters["children"] += 1
        self.counters["duplicate_children"] += int(child in seen)
        seen.add(child)


_AFTER = {
    "controller.apply_mutation": Tracer.count_noop,
    "evolution.evolution_step": Tracer.count_duplicate,
}


def _evocell_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "evocell" or n.startswith("evocell.")) and m is not None]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every listed function and method; restore them on exit."""
    restore: List[Tuple[object, str, object]] = []
    try:
        modules = _evocell_modules()
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            after = _AFTER.get(name)
            wrapped = tracer.wrap(
                name, original, None if after is None else functools.partial(after, tracer))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: duration minus the summed durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_table(tracer: Tracer) -> Tuple[Dict[str, Dict[str, float]], float]:
    """{span name: {calls, self_ms, share}} and the traced wall time in seconds.

    Traced wall is the summed duration of root (op) spans, so the shares of
    all names, op spans included, add up to 1.
    """
    selfs = self_times(tracer.spans)
    wall = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    table: Dict[str, Dict[str, float]] = {}
    for s, self_s in zip(tracer.spans, selfs):
        row = table.setdefault(tracer.names[s[0]], {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += 1000.0 * self_s
    for row in table.values():
        row["share"] = row["self_ms"] / (1000.0 * wall) if wall > 0 else 0.0
    return table, wall


def policy_share_of_search(tracer: Tracer) -> float:
    """Self time of the policy layers inside search ops over search-op wall."""
    selfs = self_times(tracer.spans)
    total = policy = 0.0
    for s, self_s in zip(tracer.spans, selfs):
        if tracer.op_kinds[s[4]] != "search":
            continue
        if s[3] < 0:
            total += s[2] - s[1]
        elif tracer.names[s[0]].startswith(POLICY_PREFIXES):
            policy += self_s
    return policy / total if total > 0 else 0.0


def calls_in(tracer: Tracer, name: str, op_kind: str) -> int:
    nid = tracer._name_ids.get(name)
    return sum(1 for s in tracer.spans if s[0] == nid and tracer.op_kinds[s[4]] == op_kind)


def write_spans(path: str, tracer: Tracer) -> None:
    """Gzipped, one JSON list per line: name, start_us, end_us, parent index,
    op id. Times are microseconds from the first span; the first line maps
    op ids to op kinds.
    """
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"op_kinds": tracer.op_kinds}) + "\n")
        for nid, start, end, parent, op in tracer.spans:
            fh.write(json.dumps([tracer.names[nid], round((start - t0) * 1e6, 3),
                                 round((end - t0) * 1e6, 3), parent, op]) + "\n")
