"""Block-by-block reference for controller's mutation walk.

The straightforward walk over one parent: for each block in order, score
its router, draw the field, score the head of that field, draw the
replacement, each draw a separate rng.random() call through
sample_index_np, a searchsorted inverse-CDF draw. The package scores
all blocks' routers and op heads in stacked products and draws a parent's
uniforms in one call; agreement bit for bit checks that this regrouping
leaves every decision and every log-prob unchanged.

That agreement rests on numpy's matmul handing each (1, W) or (4, W) slice
of a stacked product to the same BLAS kernel (dot or gemv) as the 1-D and
2-D products below, and on every log-softmax running over the same real
candidates, never over padding.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from evocell.arch_space import Op
from evocell.controller import (
    MutationAction,
    MutationTrace,
    MutTarget,
    _forced,
    encode_forward,
    input_candidate_refs,
)
from evocell.nn_core import entropy_from_logp_np, squashed_logp_np


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


def _router_raw(params, states, b):
    base = 5 * (b - 1)
    w_r, b_r = params.p["w_router"][:, 0], params.p["b_router"][0, 0]
    return states[..., base : base + 4, :] @ w_r + b_r


def _input_candidates(params, states, b):
    """(..., b+1, W): the combiner states of blocks 1..b-1, then the begin vectors."""
    begins = np.concatenate([params.p["begin_prev1"], params.p["begin_prev2"]])
    begins = np.broadcast_to(begins, states.shape[:-2] + begins.shape)
    return np.concatenate([states[..., 4 : 5 * (b - 1) : 5, :], begins], axis=-2)


def _input_raw(params, state_id, cands):
    W = params.state_width
    w = params.p["w_input"][:, 0]
    return (state_id @ w[:W])[..., None] + cands @ w[W:] + params.p["b_input"][0, 0]


def _op_raw(params, state_id):
    return state_id @ params.p["w_op"] + params.p["b_op"][0]


def _walk(
    params,
    states: np.ndarray,
    num_blocks: int,
    rng: Optional[np.random.Generator],
    forced: Sequence[Tuple[int, int]] = (),
) -> MutationTrace:
    actions: List[MutationAction] = []
    total_lp = 0.0
    total_h = 0.0
    for b in range(1, num_blocks + 1):
        router_logp = squashed_logp_np(_router_raw(params, states, b))
        t_idx = forced[b - 1][0] if rng is None else sample_index_np(router_logp, rng)
        router_lp = float(router_logp[t_idx])
        router_h = float(entropy_from_logp_np(router_logp))
        state_id = states[5 * (b - 1) + t_idx]
        is_input = t_idx < 2
        if is_input:
            cands = _input_candidates(params, states, b)
            repl_logp = squashed_logp_np(_input_raw(params, state_id, cands))
        else:
            repl_logp = squashed_logp_np(_op_raw(params, state_id))
        r_idx = forced[b - 1][1] if rng is None else sample_index_np(repl_logp, rng)
        replacement = input_candidate_refs(b)[r_idx] if is_input else Op(r_idx)
        repl_lp = float(repl_logp[r_idx])
        repl_h = float(entropy_from_logp_np(repl_logp))
        actions.append(
            MutationAction(
                block=b,
                target=MutTarget(t_idx),
                replacement=replacement,
                router_logprob=router_lp,
                replace_logprob=repl_lp,
                router_entropy=router_h,
                replace_entropy=repl_h,
            )
        )
        total_lp += router_lp + repl_lp
        total_h += router_h + repl_h
    return MutationTrace(tuple(actions), total_lp, total_h)


def reference_sample(params, cell, rng) -> MutationTrace:
    """sample_mutation as the block-by-block walk draws it."""
    return _walk(params, encode_forward(params, cell).states, cell.num_blocks, rng)


def reference_logprob(params, cell, trace) -> Tuple[float, float]:
    """trace_logprob as the block-by-block walk sums it."""
    forced = _forced(params, cell, trace).tolist()
    states = encode_forward(params, cell).states
    walk = _walk(params, states, cell.num_blocks, None, forced)
    return walk.total_logprob, walk.total_entropy
