"""Minimal float64 neural substrate for desk-scale recurrent policies.

Sampling and training run on a numpy engine without a tape: a cached,
time-major LSTM forward (lstm_forward_np; lstm_step_np for autoregressive
feeds), a hand-derived BPTT backward over the same cache
(lstm_backward_np), and Adam in Kingma & Ba's efficient form, its bias
corrections folded into two scalars and its update run over L2-sized
slices. Every decision head of both policies is one SquashedHead: the
squashed log-softmax over a row of raw scores, its entropy, the one
inverse-CDF draw both policies sample with and the gradient at the chosen
index. A head has 2-7 candidates, where numpy's per-call overhead is most
of an array op's cost, so its arithmetic runs on Python floats. A policy
keeps all its parameters in one flat float64 buffer (ParamLayout names the
views into it), so Adam, the gradient norm and checkpoints each run over
one vector; a checkpoint is that buffer plus JSON metadata in one binary
file.
check_grads holds every analytic gradient to central differences of a
forward-only loss.

A parameter is a plain ndarray view, read by its layout name. Tensor is a
small tape autodiff over 2-D arrays (backward, gradcheck) that the tests
build reference gradients on; no policy path runs it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g_dim, s_dim) in enumerate(zip(grad.shape, shape)):
        if s_dim == 1 and g_dim != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A 2-D float64 array plus the tape hooks needed for backward().

    Scalars are represented as shape (1, 1). Gradients are populated by
    backward() for every node in the traversed graph; leaves keep .grad
    until the next backward over a graph containing them, or until the
    caller resets it.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"Tensor is strictly 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float64))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data + other.data, (self, other))

        def backward(g: np.ndarray) -> None:
            self.grad += _unbroadcast(g, self.data.shape)
            other.grad += _unbroadcast(g, other.data.shape)

        out._backward_fn = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(-g)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            c = float(other)
            out = Tensor(self.data * c, (self,))
            out._backward_fn = lambda g: self.grad.__iadd__(g * c)
            return out
        other = self._coerce(other)
        out = Tensor(self.data * other.data, (self, other))

        def backward(g: np.ndarray) -> None:
            self.grad += _unbroadcast(g * other.data, self.data.shape)
            other.grad += _unbroadcast(g * self.data, other.data.shape)

        out._backward_fn = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "Tensor":
        # scalar divisor only; division is kept exact rather than folded
        # into a reciprocal multiply so fast paths can mirror it bitwise
        c = float(c)
        out = Tensor(self.data / c, (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(g / c)
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data @ other.data, (self, other))

        def backward(g: np.ndarray) -> None:
            self.grad += g @ other.data.T
            other.grad += self.data.T @ g

        out._backward_fn = backward
        return out

    # -- elementwise nonlinearities ------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor(y, (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(g * (1.0 - y * y))
        return out

    def sigmoid(self) -> "Tensor":
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(y, (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(g * y * (1.0 - y))
        return out

    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        out = Tensor(y, (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(g * y)
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(g / self.data)
        return out

    # -- shape ops -----------------------------------------------------------

    def sum(self) -> "Tensor":
        out = Tensor(np.array([[self.data.sum()]]), (self,))
        out._backward_fn = lambda g: self.grad.__iadd__(np.full_like(self.data, g[0, 0]))
        return out

    def rows(self, indices: Sequence[int]) -> "Tensor":
        """Gather rows (embedding lookup). Backward scatter-adds."""
        idx = np.asarray(indices, dtype=np.intp)
        out = Tensor(self.data[idx], (self,))

        def backward(g: np.ndarray) -> None:
            np.add.at(self.grad, idx, g)

        out._backward_fn = backward
        return out

    def row(self, i: int) -> "Tensor":
        out = Tensor(self.data[i : i + 1, :], (self,))
        out._backward_fn = lambda g: self.grad[i : i + 1, :].__iadd__(g)
        return out

    def cols(self, start: int, stop: int) -> "Tensor":
        out = Tensor(self.data[:, start:stop], (self,))
        out._backward_fn = lambda g: self.grad[:, start:stop].__iadd__(g)
        return out

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        order = _topo_order(self)
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)


def _topo_order(root: Tensor) -> List[Tensor]:
    """Iterative post-order DFS: parents precede children in the result."""
    order: List[Tensor] = []
    seen = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# LSTM: gates ordered [input, forget, candidate, output] along the last axis.
# ---------------------------------------------------------------------------


@dataclass
class LSTMParams:
    Wx: np.ndarray  # (input_size, 4H)
    Wh: np.ndarray  # (H, 4H)
    b: np.ndarray  # (1, 4H)

    @property
    def hidden_size(self) -> int:
        return self.Wh.shape[0]


LSTM_FIELDS = ("Wx", "Wh", "b")


def lstm_spec(
    prefix: str, input_size: int, hidden_size: int
) -> List[Tuple[str, Tuple[int, int]]]:
    """Layout entries of one LSTM's weights: Wx, Wh, b, in that order."""
    H4 = 4 * hidden_size
    shapes = ((input_size, H4), (hidden_size, H4), (1, H4))
    return [(f"{prefix}.{k}", shape) for k, shape in zip(LSTM_FIELDS, shapes)]


def lstm_entries(named: Mapping[str, object], prefix: str) -> tuple:
    """One LSTM's (Wx, Wh, b) entries of a name-keyed mapping."""
    return tuple(named[f"{prefix}.{k}"] for k in LSTM_FIELDS)


# ---------------------------------------------------------------------------
# Softmax heads. Logits are squashed to [-2.5, 2.5] before every softmax so
# no single choice can collapse the distribution (max/min probability ratio
# stays at or below e^5).
# ---------------------------------------------------------------------------


class SquashedHead:
    """One categorical decision over a row of raw scores, on Python floats.

    Built from the raw scores (a list), it holds the log-probs of the
    squashed logits 2.5 tanh(raw / 5) after a log-softmax, their
    probabilities p and the entropy; draw samples it and grad
    differentiates it, both from those without scoring the row again. Sums
    are math.fsum, rounded once, so their bits do not depend on the Python
    version (the built-in sum of floats changed in 3.12). A NaN score
    makes every log-prob NaN, whatever max() returns for it.
    """

    __slots__ = ("raw", "logp", "p", "entropy")

    def __init__(self, raw: List[float]):
        z = [2.5 * math.tanh(r / 5.0) for r in raw]
        c = max(z)
        lse = math.log(math.fsum([math.exp(x - c) for x in z])) + c
        self.raw = raw
        self.logp = logp = [x - lse for x in z]
        self.p = p = [math.exp(x) for x in logp]
        self.entropy = -math.fsum(map(operator.mul, p, logp))

    def draw(self, u: float) -> int:
        """Inverse-CDF draw at the uniform u: the first index whose
        cumulative probability exceeds u, capped at the last candidate.
        Probabilities with a non-finite sum raise ValueError."""
        cum = list(itertools.accumulate(self.p))
        if not math.isfinite(cum[-1]):
            raise ValueError("cannot sample: probabilities sum to a non-finite value")
        return bisect.bisect_right(cum, u, 0, len(cum) - 1)

    def grad(self, idx: int) -> List[float]:
        """d logp[idx] / d raw, through the log-softmax and the squash."""
        g = [-q for q in self.p]
        g[idx] += 1.0
        t = [math.tanh(r / 5.0) for r in self.raw]
        return [x * (0.5 * (1.0 - y * y)) for x, y in zip(g, t)]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Elements Adam updates per pass over its vectors. One slice of the
# parameters, gradient, both moments and the work vector is 5 x 256 KiB of
# float64, which stays within a core's 2 MiB L2 across the update's dozen
# passes. A whole 164k-element bidirectional policy (1.3 MiB per vector)
# does not, and its update measured about 20 % slower unsliced, and 9 %
# slower in 16k slices.
ADAM_SLICE = 32768


@dataclass(eq=False)
class AdamState:
    """Adam's step count and moments over one flat vector; work is one
    slice of scratch, so the update's temporaries never grow with the
    vector."""

    lr: float
    step_count: int = 0
    m: Optional[np.ndarray] = None  # first moment, flat; allocated on the first step
    v: Optional[np.ndarray] = None  # second moment
    work: Optional[np.ndarray] = None  # (min(ADAM_SLICE, size),) scratch


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update with bias correction, in place on a flat parameter
    vector. A zero gradient entry still decays that entry's moments.

    The moments follow the textbook expressions in their order,
    m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, and the step is
    Kingma & Ba's efficient form (arXiv 1412.6980, section 2): both bias
    corrections fold into two scalars, lr_t = lr sqrt(1 - b2^t) / (1 - b1^t)
    and eps_t = eps sqrt(1 - b2^t), and params -= lr_t m / (sqrt(v) + eps_t).
    That is algebraically the textbook update with one divide per element
    instead of three, so only rounding differs from it. The update runs
    one work vector's length (ADAM_SLICE when the state was allocated) at a
    time; every element's operations are the same at any slicing.
    """
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state.work = np.empty(min(ADAM_SLICE, params.size))
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(
            f"Adam over {params.shape} got gradient {grad.shape}, "
            f"moments {state.m.shape}"
        )
    state.step_count += 1
    t = state.step_count
    root_bc2 = math.sqrt(1.0 - ADAM_BETA2**t)
    lr_t = state.lr * root_bc2 / (1.0 - ADAM_BETA1**t)
    eps_t = ADAM_EPS * root_bc2
    size, width = params.size, state.work.size
    for a in range(0, size, width):
        b = min(a + width, size)
        g, m, v, w = grad[a:b], state.m[a:b], state.v[a:b], state.work[: b - a]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=w)
        m += w
        v *= ADAM_BETA2
        np.square(g, out=w)
        w *= 1.0 - ADAM_BETA2
        v += w
        np.sqrt(v, out=w)
        w += eps_t
        np.divide(m, w, out=w)
        w *= lr_t
        params[a:b] -= w


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


def gradcheck(
    f: Callable[[], Tensor],
    named_params: Sequence[Tuple[str, Tensor]],
    h: float = 1e-5,
) -> float:
    """Compare the tape's analytic gradients of f() against central differences.

    Returns the max error over all coordinates, where error is
    |analytic - numeric| / max(1, |analytic|, |numeric|): relative for
    large gradients, absolute for small ones.
    """
    for _, t in named_params:
        t.grad = None  # drop anything left over from an earlier backward
    loss = f()
    if loss.data.size != 1:
        raise ValueError("gradcheck expects a scalar loss")
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in named_params
    }
    arrays = [(name, t.data) for name, t in named_params]
    return check_grads(lambda: f().item(), analytic, arrays, h)


def check_grads(
    f: Callable[[], float],
    analytic: Dict[str, np.ndarray],
    named_params: Sequence[Tuple[str, np.ndarray]],
    h: float = 1e-5,
) -> float:
    """Max error of given analytic gradients of f() against central
    differences, measured as gradcheck measures it. Each parameter array
    is perturbed in place, so f must read those arrays."""
    worst = 0.0
    for name, param in named_params:
        flat = param.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + h
            up = f()
            flat[k] = saved - h
            down = f()
            flat[k] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(a_flat[k] - numeric) / max(1.0, abs(a_flat[k]), abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# One flat parameter buffer. A policy's parameters are views into one
# contiguous float64 vector, back to back in named_params() order, so the
# optimizer, the gradient norm and checkpoints each see a single vector.
# ---------------------------------------------------------------------------


INIT_STD = 0.01  # every parameter is drawn N(0, INIT_STD^2)


class ParamLayout:
    """Named 2-D parameters packed in order, without gaps, into one flat
    float64 buffer; the one place their offsets are computed."""

    def __init__(self, spec: Sequence[Tuple[str, Sequence[int]]]):
        self.names = tuple(name for name, _ in spec)
        self.shapes = tuple(tuple(int(d) for d in shape) for _, shape in spec)
        self.offsets = tuple(
            itertools.accumulate((math.prod(s) for s in self.shapes), initial=0)
        )
        self.size = self.offsets[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamLayout) and (self.names, self.shapes) == (
            other.names,
            other.shapes,
        )

    def spec(self) -> List[list]:
        """JSON form: [[name, shape], ...]."""
        return [[name, list(shape)] for name, shape in zip(self.names, self.shapes)]

    def views(self, flat: np.ndarray) -> "ParamViews":
        return ParamViews(self, flat)

    def zeros(self) -> "ParamViews":
        return ParamViews(self, np.zeros(self.size))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """A fresh buffer drawn N(0, INIT_STD^2) in one call: the same
        values, and the same rng state after, as one draw per parameter in
        layout order."""
        return rng.normal(0.0, INIT_STD, size=self.size)

    def name_at(self, index: int) -> str:
        """The parameter holding flat element index."""
        return self.names[bisect.bisect_right(self.offsets, index) - 1]

    def check(self, stored: "ParamLayout") -> None:
        """Raise ValueError unless stored is this layout."""
        for name in self.names:
            if name not in stored.names:
                raise ValueError(f"checkpoint missing parameter {name!r}")
        for name in stored.names:
            if name not in self.names:
                raise ValueError(f"checkpoint has unexpected parameter {name!r}")
        stored_shapes = dict(zip(stored.names, stored.shapes))
        for name, shape in zip(self.names, self.shapes):
            if stored_shapes[name] != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {stored_shapes[name]}, "
                    f"expected {shape}"
                )
        if stored.names != self.names:
            raise ValueError("checkpoint parameters are out of layout order")


class ParamViews(dict):
    """name -> that parameter's view of one flat buffer, in layout order.

    .flat is the buffer and .layout its layout; writing a view writes the
    buffer.
    """

    def __init__(self, layout: ParamLayout, flat: np.ndarray):
        if flat.dtype != np.float64 or flat.shape != (layout.size,):
            raise ValueError(
                f"layout of {layout.size} float64 values over a {flat.dtype} "
                f"buffer of shape {flat.shape}"
            )
        o = layout.offsets
        super().__init__(
            (name, flat[a:b].reshape(shape))
            for name, shape, a, b in zip(layout.names, layout.shapes, o, o[1:])
        )
        self.layout = layout
        self.flat = flat


# ---------------------------------------------------------------------------
# Checkpointing: one binary .npz file (whatever the path's suffix) holding
# the flat float64 buffer and a JSON header with the version, the caller's
# metadata and the layout. Loading reads no pickles.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2
_ZIP_MAGIC = b"PK\x03\x04"


def save_params(path: str, views: ParamViews, meta: Optional[dict] = None) -> None:
    """Write the parameters' layout and flat buffer to exactly path (no
    suffix is added)."""
    header = {
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "layout": views.layout.spec(),
    }
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)), params=views.flat)


def load_params(path: str) -> Tuple[dict, ParamLayout, np.ndarray]:
    """(meta, layout, flat buffer) of a checkpoint; the buffer owns its memory."""
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ValueError(
                f"unsupported checkpoint version: {path} is not a "
                f"version-{CHECKPOINT_VERSION} binary checkpoint"
            )
        fh.seek(0)
        with np.load(fh, allow_pickle=False) as payload:
            header = json.loads(str(payload["header"]))
            flat = payload["params"]
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')!r}")
    layout = ParamLayout(header["layout"])
    if flat.dtype != np.float64 or flat.shape != (layout.size,):
        raise ValueError(
            f"checkpoint holds {flat.dtype} values of shape {flat.shape}, "
            f"its layout needs ({layout.size},) float64"
        )
    # np.load's array is a view of a read buffer; parameters must own theirs
    flat = np.require(flat, requirements=["C", "W", "O"])
    return header.get("meta", {}), layout, flat


# ---------------------------------------------------------------------------
# numpy engine (no tape): one cached LSTM forward that sampling runs, and one
# hand-derived BPTT backward that training runs on the same cache.
# ---------------------------------------------------------------------------


@dataclass
class LSTMCache:
    """Activations of one LSTM run over T steps of N sequences, kept for BPTT.

    Arrays are time-major, so each step reads and writes contiguous rows.
    gates holds i, f, g, o after their nonlinearities; X holds the inputs in
    step order (a backward-direction run stores them reversed).
    """

    X: np.ndarray  # (T, N, input_size)
    gates: np.ndarray  # (T, N, 4H)
    c: np.ndarray  # (T, N, H)
    tanh_c: np.ndarray  # (T, N, H)
    h: np.ndarray  # (T, N, H)

    @classmethod
    def empty(cls, X: np.ndarray, hidden_size: int) -> "LSTMCache":
        """A cache for time-major inputs X (T, N, input_size)."""
        T, N, _ = X.shape
        H = hidden_size
        return cls(
            X,
            np.empty((T, N, 4 * H)),
            np.empty((T, N, H)),
            np.empty((T, N, H)),
            np.empty((T, N, H)),
        )

    @property
    def states(self) -> np.ndarray:
        """The outputs as (N, T, H)."""
        return self.h.transpose(1, 0, 2)


def _sigmoid_inplace(z: np.ndarray) -> None:
    # the same operations as 1 / (1 + exp(-z)), without temporaries
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def lstm_step_np(params: LSTMParams, cache: LSTMCache, t: int) -> None:
    """Advance step t in place; cache.gates[t] holds x_t @ Wx on entry.

    Zero initial states. Autoregressive callers fill step t's input
    projection themselves, then call this.
    """
    H = params.hidden_size
    z = cache.gates[t]
    if t > 0:
        z += cache.h[t - 1] @ params.Wh
    z += params.b  # per step, while the rows are in cache
    g = np.tanh(z[:, 2 * H : 3 * H])
    _sigmoid_inplace(z)  # one contiguous pass beats three strided ones
    z[:, 2 * H : 3 * H] = g
    c = cache.c[t]
    np.multiply(z[:, :H], z[:, 2 * H : 3 * H], out=c)
    if t > 0:
        c += z[:, H : 2 * H] * cache.c[t - 1]
    np.tanh(c, out=cache.tanh_c[t])
    np.multiply(z[:, 3 * H :], cache.tanh_c[t], out=cache.h[t])


def lstm_forward_np(params: LSTMParams, X: np.ndarray) -> LSTMCache:
    """X: (N, T, input_size) -> cache; cache.states holds the outputs (N, T, H).

    Zero initial states. The input projection of every step is one GEMM.
    """
    N, T, E = X.shape
    H = params.hidden_size
    cache = LSTMCache.empty(np.ascontiguousarray(X.transpose(1, 0, 2)), H)
    gates = cache.gates.reshape(T * N, 4 * H)
    np.matmul(cache.X.reshape(T * N, E), params.Wx, out=gates)
    for t in range(T):
        lstm_step_np(params, cache, t)
    return cache


def lstm_forward_batch(params: LSTMParams, X: np.ndarray) -> np.ndarray:
    """X: (N, T, input_size) -> states (N, T, H), for callers of the earlier
    batch API that need no gradient."""
    return lstm_forward_np(params, X).states


def lstm_backward_np(
    params: LSTMParams,
    cache: LSTMCache,
    dh: np.ndarray,
    out: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BPTT through a cached run: returns (dWx, dWh, db, dX), dX as (N, T, E).

    dh: (N, T, H), the loss gradient with respect to each step's state.
    The weight gradients overwrite out = (dWx, dWh, db) when given, e.g.
    views of a flat gradient.
    """
    N, T, H = dh.shape
    dh = dh.transpose(1, 0, 2)
    gates, c, tc = cache.gates, cache.c, cache.tanh_c
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    # dc_t = dh_t * o (1 - tanh(c)^2) + dc_{t+1} * f_{t+1}; then
    # dz = dc * k for i, f, g and dz = dh * k for o, with k below
    dc_from_dh = o * (1.0 - tc * tc)
    k = np.empty((T, N, 4 * H))
    k[..., :H] = g * i * (1.0 - i)
    k[0, :, H : 2 * H] = 0.0  # zero initial cell state
    k[1:, :, H : 2 * H] = c[:-1] * f[1:] * (1.0 - f[1:])
    k[..., 2 * H : 3 * H] = i * (1.0 - g * g)
    k[..., 3 * H :] = tc * o * (1.0 - o)
    dz = np.empty((T, N, 4 * H))
    k4, dz4 = k.reshape(T, N, 4, H), dz.reshape(T, N, 4, H)
    WhT = params.Wh.T
    dc = np.zeros((N, H))
    for t in range(T - 1, -1, -1):
        dh_t = dh[t] if t == T - 1 else dh[t] + dz[t + 1] @ WhT
        if t < T - 1:
            dc *= f[t + 1]
        dc += dh_t * dc_from_dh[t]
        np.multiply(dc[:, None, :], k4[t, :, :3], out=dz4[t, :, :3])
        np.multiply(dh_t, k4[t, :, 3], out=dz4[t, :, 3])
    E = cache.X.shape[2]
    if out is None:
        out = (np.empty((E, 4 * H)), np.empty((H, 4 * H)), np.empty((1, 4 * H)))
    dWx, dWh, db = out
    dz_flat = dz.reshape(T * N, 4 * H)
    np.matmul(cache.X.reshape(T * N, E).T, dz_flat, out=dWx)
    np.matmul(cache.h[:-1].reshape(-1, H).T, dz[1:].reshape(-1, 4 * H), out=dWh)
    dz_flat.sum(axis=0, keepdims=True, out=db)
    dX = (dz_flat @ params.Wx.T).reshape(T, N, E).transpose(1, 0, 2)
    return dWx, dWh, db, dX
