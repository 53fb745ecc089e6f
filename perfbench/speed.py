"""Op times scaled to a nominal core speed.

The benchmark runs on small shared machines. There the speed of a core
drifts by up to 1.9x between states that last from seconds to minutes, so
the same op on the same inputs reads up to 1.9x slower in one run than in
the next, and no statistic over a run removes a state that holds for all
of it. So a run interleaves its ops with probes: timed runs of fixed
reference computations. An op's time is reported as its wall time times a
reference's nominal duration over the mean duration of that reference in
the probes just before and just after the op, that is, the wall time the
op would take on a core that runs the reference in its nominal time.

The references have the profile of evocell's ops (interpreter-bound Python
on small objects, numpy on small matrices and on whole arrays) and call no evocell code, so a
change to evocell cannot move them, and a change that makes an op faster
or slower moves its scaled time by the same factor as its wall time.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

clock = time.perf_counter

Interval = Tuple[float, float]  # (start, end) on `clock`


@dataclass(frozen=True)
class _Item:
    key: int
    weight: float


_RNG = np.random.default_rng(20180801)
_GATES = _RNG.standard_normal((100, 400)) * 0.01
_ROWS = _RNG.standard_normal((64, 100)) * 0.1
_TABLE = _RNG.standard_normal((6, 6))
_DIGITS = _RNG.integers(0, 6, size=(6, 100_000))


def _mixed() -> float:
    """Small objects, dicts and a sort, a one-row recurrence with a small
    log-softmax at every step, then the whole-array work of _vector."""
    acc: dict = {}
    items = []
    for i in range(1500):
        item = _Item(i & 255, i * 0.5)
        items.append(item)
        acc[item.key] = acc.get(item.key, 0.0) + item.weight
    items.sort(key=lambda it: (-it.key, it.weight))
    h = np.zeros(100)
    c = np.zeros(100)
    for _ in range(60):
        z = h @ _GATES
        c = 0.5 * c + np.tanh(z[200:300]) / (1.0 + np.exp(-z[:100]))
        h = np.tanh(c)
        logits = z[:4]
        logp = logits - np.log(np.exp(logits).sum())
    return float(h.sum() + logp[0]) + len(acc) + items[0].weight + _vector()


def _batched() -> float:
    """A 64-row recurrence with a row-wise log-softmax at every step."""
    h = _ROWS.copy()
    c = np.zeros_like(h)
    for _ in range(25):
        z = h @ _GATES
        c = 0.5 * c + np.tanh(z[:, 200:300]) / (1.0 + np.exp(-z[:, :100]))
        h = np.tanh(c)
        logits = z[:, :6]
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return float(h[0, 0] + logp[0, 0])


def _vector() -> float:
    """Table gathers and element-wise maths over 100 000-element arrays."""
    acc = np.zeros(_DIGITS.shape[1])
    for k in range(0, len(_DIGITS), 2):
        acc += _TABLE[_DIGITS[k], _DIGITS[k + 1]]
    return float((1.0 / (1.0 + np.exp(-acc))).max())


# Reference kind -> (fixed work, its median duration on the 2-vCPU machine
# the benchmark was tuned on, in a fast spell, so scaled times read as that
# machine's times). When the core slows, code slows by a factor that depends
# on what it does: interpreter-bound code most, numpy kernels on 64-row
# matrices less, whole-array numpy least. Each op is scaled by the kind
# closest to where its time goes (see the workloads' `references`).
REFERENCES: Dict[str, Tuple[Callable[[], float], float]] = {
    "mixed": (_mixed, 0.0044),
    "batched": (_batched, 0.0048),
    "vector": (_vector, 0.0021),
}


# A probe times each reference this many times and keeps the median, so
# that one interrupted or garbage-collecting repeat does not move it.
PROBE_REPEATS = 3


class Speed:
    """The probes of one run, in time order, and the scaling they give."""

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.durations: Dict[str, List[float]] = {kind: [] for kind in REFERENCES}

    def probe(self) -> None:
        for kind, (work, _nominal) in REFERENCES.items():
            repeats = []
            for _ in range(PROBE_REPEATS):
                start = clock()
                work()
                repeats.append(clock() - start)
            self.durations[kind].append(statistics.median(repeats))
        self.ends.append(clock())

    def scaled(self, interval: Interval, kind: str = "mixed") -> float:
        """Wall seconds of `interval` at the nominal speed of `kind`."""
        start, end = interval
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        near = [self.durations[kind][i] for i in (before, after) if 0 <= i < len(self.ends)]
        if not near:
            raise RuntimeError("no speed probe near a timed op")
        return (end - start) * REFERENCES[kind][1] / (sum(near) / len(near))

    def summary(self) -> dict:
        out: dict = {"probes": len(self.ends)}
        for kind, (_work, nominal) in REFERENCES.items():
            out[f"{kind}_ms_p50"] = 1000.0 * statistics.median(self.durations[kind])
            out[f"{kind}_nominal_ms"] = 1000.0 * nominal
        return out
