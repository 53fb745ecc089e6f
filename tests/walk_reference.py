"""Block-by-block reference for controller's mutation walk.

The straightforward walk over one parent: for each block in order, score
its router, draw the field, score the head of that field, draw the
replacement, each head a SquashedHead over that block's own raw scores and
each draw a separate rng.random() call. The package scores all blocks'
routers and op heads in stacked products and draws a parent's uniforms in
one call; agreement bit for bit checks that this regrouping leaves every
decision and every log-prob unchanged.

That agreement rests on numpy's matmul handing each (1, W) or (4, W) slice
of a stacked product to the same BLAS kernel (dot or gemv) as the 1-D and
2-D products below, and on every log-softmax running over the same real
candidates, never over padding.
"""

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
from evocell.nn_core import SquashedHead


def _router_raw(params, states, b):
    base = 5 * (b - 1)
    return states[..., base : base + 4, :] @ params.p["w_router"][:, 0]


def _input_candidates(params, states, b):
    """(..., b+1, W): the combiner states of blocks 1..b-1, then the begin vectors."""
    begins = np.concatenate([params.p["begin_prev1"], params.p["begin_prev2"]])
    begins = np.broadcast_to(begins, states.shape[:-2] + begins.shape)
    return np.concatenate([states[..., 4 : 5 * (b - 1) : 5, :], begins], axis=-2)


def _input_raw(params, cands):
    return cands @ params.p["w_input"][:, 0]


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
        router = SquashedHead(_router_raw(params, states, b).tolist())
        t_idx = forced[b - 1][0] if rng is None else router.draw(rng.random())
        state_id = states[5 * (b - 1) + t_idx]
        is_input = t_idx < 2
        if is_input:
            cands = _input_candidates(params, states, b)
            head = SquashedHead(_input_raw(params, cands).tolist())
        else:
            head = SquashedHead(_op_raw(params, state_id).tolist())
        r_idx = forced[b - 1][1] if rng is None else head.draw(rng.random())
        replacement = input_candidate_refs(b)[r_idx] if is_input else Op(r_idx)
        router_lp, router_h = router.logp[t_idx], router.entropy
        repl_lp, repl_h = head.logp[r_idx], head.entropy
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
