"""The numpy form of a squashed softmax head, kept as a test-side reference.

The package scores each head on Python floats (nn_core.SquashedHead). These
are the array formulas it replaced: the squash 2.5 tanh(raw / 5), a
log-softmax along the last axis, and the searchsorted inverse-CDF draw. The
bandit and entropy tests read probabilities through them, and the float
head is pinned against them within a few ulp.
"""

import math

import numpy as np


def squashed_logp_np(raw: np.ndarray) -> np.ndarray:
    """Log-softmax of 2.5 tanh(raw / 5) along the last axis."""
    logits = 2.5 * np.tanh(raw / 5.0)
    c = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - c).sum(axis=-1, keepdims=True)) + c
    return logits - lse


def entropy_np(logp: np.ndarray) -> np.ndarray:
    return -(np.exp(logp) * logp).sum(axis=-1)


def sample_index_np(logp: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from log-probabilities; one uniform consumed.
    Probabilities with a non-finite sum raise ValueError before the draw."""
    p = np.exp(logp).reshape(-1)
    cum = np.cumsum(p)
    if not math.isfinite(cum[-1]):
        raise ValueError(f"cannot sample: probabilities sum to {cum[-1]}")
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, p.size - 1)
