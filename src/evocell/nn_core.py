"""Minimal float64 neural substrate for desk-scale recurrent policies.

Sampling and training run on a numpy engine without a tape: a cached,
time-major LSTM forward (lstm_forward_np; lstm_step_np for autoregressive
feeds), a hand-derived BPTT backward over the same cache
(lstm_backward_np), the squashed log-softmax heads and their gradient, and
Adam. The 2-D tape autodiff (Tensor, lstm_forward, ...) stays as the
reference those are checked against, together with a central-difference
checker (gradcheck, check_grads) that keeps every analytic gradient honest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

    def pick(self, i: int, j: int) -> "Tensor":
        """Select one element as a (1, 1) tensor."""
        out = Tensor(np.array([[self.data[i, j]]]), (self,))

        def backward(g: np.ndarray) -> None:
            self.grad[i, j] += g[0, 0]

        out._backward_fn = backward
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


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis), tuple(tensors))
    sizes = [d.shape[axis] for d in datas]

    def backward(g: np.ndarray) -> None:
        offset = 0
        for t, size in zip(tensors, sizes):
            if axis == 1:
                t.grad += g[:, offset : offset + size]
            else:
                t.grad += g[offset : offset + size, :]
            offset += size

    out._backward_fn = backward
    return out


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
# Parameter initialization and linear layers
# ---------------------------------------------------------------------------

INIT_STD = 0.01


def init_param(shape: Tuple[int, int], rng: np.random.Generator, std: float = INIT_STD) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape))


def linear(W: Tensor, b: Tensor, x: Tensor) -> Tensor:
    """y = x @ W + b with W of shape (in, out) and b of shape (1, out)."""
    return x @ W + b


# ---------------------------------------------------------------------------
# LSTM: gates ordered [input, forget, candidate, output] along the last axis.
# ---------------------------------------------------------------------------


@dataclass
class LSTMParams:
    Wx: Tensor  # (input_size, 4H)
    Wh: Tensor  # (H, 4H)
    b: Tensor  # (1, 4H)

    @property
    def hidden_size(self) -> int:
        return self.Wh.data.shape[0]


def init_lstm(
    input_size: int, hidden_size: int, rng: np.random.Generator, std: float = INIT_STD
) -> LSTMParams:
    return LSTMParams(
        Wx=init_param((input_size, 4 * hidden_size), rng, std),
        Wh=init_param((hidden_size, 4 * hidden_size), rng, std),
        b=init_param((1, 4 * hidden_size), rng, std),
    )


def lstm_step(
    params: LSTMParams, x: Tensor, h: Tensor, c: Tensor
) -> Tuple[Tensor, Tensor]:
    H = params.hidden_size
    z = x @ params.Wx + h @ params.Wh + params.b
    i = z.cols(0, H).sigmoid()
    f = z.cols(H, 2 * H).sigmoid()
    g = z.cols(2 * H, 3 * H).tanh()
    o = z.cols(3 * H, 4 * H).sigmoid()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return h_new, c_new


def lstm_forward(
    params: LSTMParams,
    inputs: Sequence[Tensor],
    h0: Optional[Tensor] = None,
    c0: Optional[Tensor] = None,
) -> List[Tensor]:
    """Run the cell over a sequence of (1, input_size) tensors.

    Initial states default to zeros; callers that learn begin states pass
    them in explicitly.
    """
    H = params.hidden_size
    h = h0 if h0 is not None else Tensor(np.zeros((1, H)))
    c = c0 if c0 is not None else Tensor(np.zeros((1, H)))
    states = []
    for x in inputs:
        h, c = lstm_step(params, x, h, c)
        states.append(h)
    return states


def bidir_encode(
    fwd: LSTMParams, bwd: LSTMParams, inputs: Sequence[Tensor]
) -> List[Tensor]:
    """Concatenate forward and reversed-backward states per position."""
    hs_f = lstm_forward(fwd, inputs)
    hs_b = lstm_forward(bwd, list(reversed(inputs)))
    hs_b = list(reversed(hs_b))
    return [concat([hf, hb], axis=1) for hf, hb in zip(hs_f, hs_b)]


# ---------------------------------------------------------------------------
# Softmax machinery. Logits are squashed to [-2.5, 2.5] before every softmax
# so no single choice can collapse the distribution (max/min probability
# ratio stays at or below e^5).
# ---------------------------------------------------------------------------


def shape_logits(raw: Tensor) -> Tensor:
    return (raw / 5.0).tanh() * 2.5


def shape_logits_np(raw: np.ndarray) -> np.ndarray:
    return 2.5 * np.tanh(raw / 5.0)


def log_softmax(logits: Tensor) -> Tensor:
    # the max-shift constant is treated as a constant; the softmax gradient
    # is unchanged by it
    c = float(logits.data.max())
    shifted = logits - c
    lse = shifted.exp().sum().log() + c
    return logits - lse


def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    c = logits.max(axis=-1, keepdims=True)
    shifted = logits - c
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True)) + c
    return logits - lse


def entropy_from_logp(logp: Tensor) -> Tensor:
    return -(logp.exp() * logp).sum()


def entropy_from_logp_np(logp: np.ndarray) -> np.ndarray:
    return -(np.exp(logp) * logp).sum(axis=-1)


def sample_index_np(logp: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from log-probabilities; one uniform consumed."""
    p = np.exp(logp).reshape(-1)
    cum = np.cumsum(p)
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, p.size - 1)


def softmax_sample(
    logits: Tensor, rng: np.random.Generator
) -> Tuple[int, Tensor, Tensor]:
    """Sample an index; return (index, log-prob node, entropy node)."""
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("non-finite logits")
    logp = log_softmax(logits)
    idx = sample_index_np(logp.data, rng)
    return idx, logp.pick(0, idx), entropy_from_logp(logp)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    state: AdamState,
    named_params: Sequence[Tuple[str, Tensor]],
    grads: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """One Adam update with bias correction, in place.

    Gradients default to each tensor's .grad; a missing gradient counts as
    zero (the moments still decay).
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, param in named_params:
        g = grads.get(name) if grads is not None else param.grad
        if g is None:
            g = np.zeros_like(param.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        param.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


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
    return check_grads(lambda: f().item(), analytic, named_params, h)


def check_grads(
    f: Callable[[], float],
    analytic: Dict[str, np.ndarray],
    named_params: Sequence[Tuple[str, Tensor]],
    h: float = 1e-5,
) -> float:
    """Max error of given analytic gradients of f() against central
    differences, measured as gradcheck measures it."""
    worst = 0.0
    for name, t in named_params:
        flat = t.data.reshape(-1)
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
# Checkpointing: versioned JSON mapping name -> shape + flat float64 data.
# Python's repr-based JSON floats round-trip bit-exactly.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_params(
    path: str,
    named_params: Sequence[Tuple[str, Tensor]],
    meta: Optional[dict] = None,
) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "params": {
            name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in named_params
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_params(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    arrays = {
        name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    return payload.get("meta", {}), arrays


# ---------------------------------------------------------------------------
# numpy engine (no tape): one cached LSTM forward that sampling runs, and one
# hand-derived BPTT backward that training runs on the same cache. The tape
# above is the reference both are checked against.
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
        z += cache.h[t - 1] @ params.Wh.data
    z += params.b.data  # per step, while the rows are in cache
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
    np.matmul(cache.X.reshape(T * N, E), params.Wx.data, out=gates)
    for t in range(T):
        lstm_step_np(params, cache, t)
    return cache


def lstm_forward_batch(params: LSTMParams, X: np.ndarray) -> np.ndarray:
    """X: (N, T, input_size) -> states (N, T, H), for callers of the earlier
    batch API that need no gradient."""
    return lstm_forward_np(params, X).states


def lstm_backward_np(
    params: LSTMParams, cache: LSTMCache, dh: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BPTT through a cached run: returns (dWx, dWh, db, dX), dX as (N, T, E).

    dh: (N, T, H), the loss gradient with respect to each step's state.
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
    WhT = params.Wh.data.T
    dc = np.zeros((N, H))
    for t in range(T - 1, -1, -1):
        dh_t = dh[t] if t == T - 1 else dh[t] + dz[t + 1] @ WhT
        if t < T - 1:
            dc *= f[t + 1]
        dc += dh_t * dc_from_dh[t]
        np.multiply(dc[:, None, :], k4[t, :, :3], out=dz4[t, :, :3])
        np.multiply(dh_t, k4[t, :, 3], out=dz4[t, :, 3])
    E = cache.X.shape[2]
    dz_flat = dz.reshape(T * N, 4 * H)
    dWx = cache.X.reshape(T * N, E).T @ dz_flat
    dWh = cache.h[:-1].reshape(-1, H).T @ dz[1:].reshape(-1, 4 * H)
    db = dz_flat.sum(axis=0, keepdims=True)
    dX = (dz_flat @ params.Wx.data.T).reshape(T, N, E).transpose(1, 0, 2)
    return dWx, dWh, db, dX


def squashed_logp_np(raw: np.ndarray) -> np.ndarray:
    """Log-probabilities of shape_logits(raw), as the tape computes them."""
    return log_softmax_np(shape_logits_np(raw))


def squashed_logp_grad_np(raw: np.ndarray, logp: np.ndarray, idx: int) -> np.ndarray:
    """d logp[idx] / d raw through the log-softmax and the 2.5 tanh(raw/5) squash."""
    u = np.tanh(raw / 5.0)
    grad = -np.exp(logp)
    grad[idx] += 1.0
    return grad * (0.5 * (1.0 - u * u))
