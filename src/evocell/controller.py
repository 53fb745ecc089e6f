"""Recurrent mutation policy over cell genotypes.

The policy encodes a parent cell's token sequence with a bidirectional LSTM,
then walks the blocks in order. For each block it first routes: which of the
four searchable fields (i1, i2, o1, o2) to mutate, scored by a shared linear
head over the field's encoder state. If an input field was chosen, a second
head scores every legal replacement candidate, each represented by an
encoder state: earlier blocks by the state of their combiner token, and the
two previous-cell inputs by learned begin vectors. If an op field was
chosen, a third head produces logits over the active op subset. Every
softmax is squashed (shape_logits), so no decision can become deterministic.

Sampling and training run on the numpy engine: encode_forward caches one
encoder pass, sample_mutation (or sample_mutation_batch, for many parents)
samples from it, and trace_grads backpropagates through the same cache by
hand-derived BPTT. The tape walk trace_logprob is the reference those are
checked against (gradcheck and the equivalence tests); it is not on the
training path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .arch_space import (
    CELL_PREV1,
    CELL_PREV2,
    CellSpec,
    Op,
    SpaceConfig,
    encode_tokens,
    validate,
    vocab_size,
)
from . import nn_core
from .nn_core import (
    LSTMCache,
    LSTMParams,
    ParamLayout,
    ParamViews,
    Tensor,
    concat,
    entropy_from_logp,
    entropy_from_logp_np,
    log_softmax,
    lstm_backward_np,
    lstm_entries,
    lstm_forward,
    lstm_forward_np,
    lstm_spec,
    sample_index_np,
    shape_logits,
    squashed_logp_grad_np,
    squashed_logp_np,
)


class MutTarget(IntEnum):
    """Which field of a block a mutation rewrites; order matches the router."""

    I1 = 0
    I2 = 1
    O1 = 2
    O2 = 3


Replacement = Union[int, Op]


@dataclass(frozen=True)
class MutationAction:
    """One block's sampled decision pair: the routed field and its new value."""

    block: int  # 1-based
    target: MutTarget
    replacement: Replacement
    router_logprob: float
    replace_logprob: float
    router_entropy: float
    replace_entropy: float


@dataclass(frozen=True)
class MutationTrace:
    """Exactly one action per block: num_blocks actions, 2x decisions."""

    actions: Tuple[MutationAction, ...]
    total_logprob: float
    total_entropy: float


@dataclass
class ControllerParams:
    """All learnable state of the mutation policy.

    begin_prev1 / begin_prev2 are free vectors of encoder-output width that
    stand in for the two previous-cell inputs when scoring replacement
    candidates. With bwd=None the encoder is forward-only and every head is
    dimensioned to width H instead of 2H. Every tensor is a view into one
    flat buffer, laid out by controller_layout.
    """

    embedding: Tensor  # (vocab, E)
    fwd: LSTMParams
    bwd: Optional[LSTMParams]
    begin_prev1: Tensor  # (1, W)
    begin_prev2: Tensor  # (1, W)
    w_router: Tensor  # (W, 1)
    b_router: Tensor  # (1, 1)
    w_input: Tensor  # (2W, 1), applied to [state; candidate]
    b_input: Tensor  # (1, 1)
    w_op: Tensor  # (W, num_ops)
    b_op: Tensor  # (1, num_ops)
    num_blocks: int
    num_ops: int
    embed_size: int
    hidden_size: int
    flat: np.ndarray = field(repr=False, compare=False)
    layout: ParamLayout = field(repr=False, compare=False)

    @property
    def bidirectional(self) -> bool:
        return self.bwd is not None

    @property
    def state_width(self) -> int:
        return 2 * self.hidden_size if self.bidirectional else self.hidden_size

    def named_params(self) -> List[Tuple[str, Tensor]]:
        return self.layout.named(self)


def controller_layout(
    num_blocks: int,
    num_ops: int,
    embed_size: int,
    hidden_size: int,
    bidirectional: bool,
) -> ParamLayout:
    """The policy's parameters in named_params() order, which is also the
    order init_controller has always drawn them in."""
    E, H = embed_size, hidden_size
    W = 2 * H if bidirectional else H
    return ParamLayout(
        [
            ("embedding", (vocab_size(num_blocks), E)),
            *lstm_spec("fwd", E, H),
            *(lstm_spec("bwd", E, H) if bidirectional else []),
            ("begin_prev1", (1, W)),
            ("begin_prev2", (1, W)),
            ("w_router", (W, 1)),
            ("b_router", (1, 1)),
            ("w_input", (2 * W, 1)),
            ("b_input", (1, 1)),
            ("w_op", (W, num_ops)),
            ("b_op", (1, num_ops)),
        ]
    )


def _controller_over(
    flat: np.ndarray, layout: ParamLayout, num_blocks: int, num_ops: int
) -> ControllerParams:
    """Controller parameters whose tensors are views of flat."""
    t = layout.tensors(flat)
    return ControllerParams(
        embedding=t["embedding"],
        fwd=LSTMParams(*lstm_entries(t, "fwd")),
        bwd=LSTMParams(*lstm_entries(t, "bwd")) if "bwd.Wx" in t else None,
        begin_prev1=t["begin_prev1"],
        begin_prev2=t["begin_prev2"],
        w_router=t["w_router"],
        b_router=t["b_router"],
        w_input=t["w_input"],
        b_input=t["b_input"],
        w_op=t["w_op"],
        b_op=t["b_op"],
        num_blocks=num_blocks,
        num_ops=num_ops,
        embed_size=t["embedding"].shape[1],
        hidden_size=t["fwd.Wh"].shape[0],
        flat=flat,
        layout=layout,
    )


def init_controller(
    cfg: SpaceConfig,
    rng: np.random.Generator,
    embed_size: int = 100,
    hidden_size: int = 100,
    bidirectional: bool = True,
) -> ControllerParams:
    """Fresh policy parameters, every weight drawn N(0, 0.01^2)."""
    layout = controller_layout(
        cfg.num_blocks, cfg.num_ops, embed_size, hidden_size, bidirectional
    )
    return _controller_over(layout.draw(rng), layout, cfg.num_blocks, cfg.num_ops)


def unidirectional_variant(
    params: ControllerParams, rng: np.random.Generator
) -> ControllerParams:
    """Forward-only ablation of the encoder, heads re-dimensioned to width H.

    Head shapes change, so this is a fresh initialization at the same sizes,
    not a weight transplant.
    """
    cfg = SpaceConfig(num_blocks=params.num_blocks, num_ops=params.num_ops)
    return init_controller(
        cfg,
        rng,
        embed_size=params.embed_size,
        hidden_size=params.hidden_size,
        bidirectional=False,
    )


# ---------------------------------------------------------------------------
# Candidate bookkeeping shared by every walk.
#
# For an input mutation at block b, candidates are scored in the order
#   [block 1, ..., block b-1, prev cell, cell before previous]
# so candidate index k < b-1 maps to input ref k+1, index b-1 to -1, and
# index b to -2.
# ---------------------------------------------------------------------------


def input_candidate_refs(block: int) -> List[int]:
    return list(range(1, block)) + [CELL_PREV1, CELL_PREV2]


def _candidate_index(block: int, ref: int) -> int:
    if ref == CELL_PREV1:
        return block - 1
    if ref == CELL_PREV2:
        return block
    if 1 <= ref <= block - 1:
        return ref - 1
    raise ValueError(f"input ref {ref} illegal at block {block}")


def _check_trace(cell: CellSpec, trace: MutationTrace) -> None:
    if len(trace.actions) != cell.num_blocks:
        raise ValueError(
            f"trace has {len(trace.actions)} actions for {cell.num_blocks} blocks"
        )


def _replacement_index(params: ControllerParams, b: int, action: MutationAction) -> int:
    """Validate block b's action; return its index in the replacement head."""
    if action.block != b:
        raise ValueError(f"action {b - 1} targets block {action.block}, expected {b}")
    if action.target in (MutTarget.I1, MutTarget.I2):
        if isinstance(action.replacement, Op):
            raise ValueError("input mutation carries an op replacement")
        return _candidate_index(b, int(action.replacement))
    if not isinstance(action.replacement, Op):
        raise ValueError("op mutation carries an input replacement")
    if int(action.replacement) >= params.num_ops:
        raise ValueError(
            f"op {action.replacement!r} outside active subset of {params.num_ops}"
        )
    return int(action.replacement)


# ---------------------------------------------------------------------------
# Differentiable walk: the tape reference for gradcheck and the engine tests
# ---------------------------------------------------------------------------


def encode_cell(
    params: ControllerParams, cell: CellSpec
) -> Tuple[List[Tensor], Tuple[Tensor, Tensor]]:
    """Per-token encoder states plus the learned begin-state pair.

    State t corresponds to token t of encode_tokens(cell); block b's fields
    sit at positions 5(b-1)..5(b-1)+3 and its combiner at 5(b-1)+4.
    """
    ids = encode_tokens(cell)
    X = params.embedding.rows(ids)
    steps = [X.row(t) for t in range(len(ids))]
    if params.bwd is None:
        states = lstm_forward(params.fwd, steps)
    else:
        states = nn_core.bidir_encode(params.fwd, params.bwd, steps)
    return states, (params.begin_prev1, params.begin_prev2)


def trace_logprob(
    params: ControllerParams, cell: CellSpec, trace: MutationTrace
) -> Tuple[Tensor, Tensor]:
    """Recompute a trace's (total log-prob, total entropy), differentiably.

    Raises ValueError if the trace does not fit the cell (wrong block count,
    a replacement outside the legal candidate set, or an op outside the
    active subset).
    """
    _check_trace(cell, trace)
    states, (begin1, begin2) = encode_cell(params, cell)
    total_lp: Optional[Tensor] = None
    total_h: Optional[Tensor] = None
    for b, action in enumerate(trace.actions, start=1):
        idx = _replacement_index(params, b, action)
        base = 5 * (b - 1)
        field_states = [states[base + j] for j in range(4)]
        scores = concat(
            [s @ params.w_router + params.b_router for s in field_states], axis=1
        )
        router_logp = log_softmax(shape_logits(scores))
        lp = router_logp.pick(0, int(action.target))
        ent = entropy_from_logp(router_logp)
        state_id = field_states[int(action.target)]
        if action.target in (MutTarget.I1, MutTarget.I2):
            cand_states = [states[5 * (k - 1) + 4] for k in range(1, b)]
            cand_states += [begin1, begin2]
            pair_scores = concat(
                [
                    concat([state_id, cand], axis=1) @ params.w_input + params.b_input
                    for cand in cand_states
                ],
                axis=1,
            )
            repl_logp = log_softmax(shape_logits(pair_scores))
        else:
            op_scores = state_id @ params.w_op + params.b_op
            repl_logp = log_softmax(shape_logits(op_scores))
        lp = lp + repl_logp.pick(0, idx)
        ent = ent + entropy_from_logp(repl_logp)
        total_lp = lp if total_lp is None else total_lp + lp
        total_h = ent if total_h is None else total_h + ent
    return total_lp, total_h


# ---------------------------------------------------------------------------
# numpy engine: one cached encoder forward, the samplers that read it, and
# the hand-derived backward that reuses it
# ---------------------------------------------------------------------------


@dataclass
class EncoderForward:
    """One cell's cached encoder pass.

    Sampling reads its states; trace_grads backpropagates through its LSTM
    caches. It is valid only while the parameters are unchanged.
    """

    cell: CellSpec
    ids: np.ndarray  # token ids, (T,)
    fwd: LSTMCache
    bwd: Optional[LSTMCache]  # run over the reversed sequence
    states: np.ndarray  # (T, W): forward states, then backward states in token order


def _encode_ids(
    params: ControllerParams, ids: np.ndarray
) -> Tuple[LSTMCache, Optional[LSTMCache], np.ndarray]:
    """ids: (N, T) -> (forward cache, backward cache, states (N, T, W))."""
    X = params.embedding.data[ids]
    fwd = lstm_forward_np(params.fwd, X)
    if params.bwd is None:
        return fwd, None, fwd.states
    bwd = lstm_forward_np(params.bwd, X[:, ::-1])
    return fwd, bwd, np.concatenate([fwd.states, bwd.states[:, ::-1]], axis=2)


def encode_forward(params: ControllerParams, cell: CellSpec) -> EncoderForward:
    ids = np.asarray(encode_tokens(cell), dtype=np.intp)
    fwd, bwd, states = _encode_ids(params, ids[None])
    return EncoderForward(cell, ids, fwd, bwd, states[0])


def _encode_np(params: ControllerParams, cell: CellSpec) -> np.ndarray:
    return encode_forward(params, cell).states


# Head scores. Each takes one parent's states (T, W) or a batch's (N, T, W).


def _router_raw(params: ControllerParams, states: np.ndarray, b: int) -> np.ndarray:
    base = 5 * (b - 1)
    w_r, b_r = params.w_router.data[:, 0], params.b_router.data[0, 0]
    return states[..., base : base + 4, :] @ w_r + b_r


def _input_candidates(
    params: ControllerParams, states: np.ndarray, b: int
) -> np.ndarray:
    """(..., b+1, W): the combiner states of blocks 1..b-1, then the begin vectors."""
    begins = np.concatenate([params.begin_prev1.data, params.begin_prev2.data])
    begins = np.broadcast_to(begins, states.shape[:-2] + begins.shape)
    return np.concatenate([states[..., 4 : 5 * (b - 1) : 5, :], begins], axis=-2)


def _input_raw(
    params: ControllerParams, state_id: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    W = params.state_width
    w = params.w_input.data[:, 0]
    return (state_id @ w[:W])[..., None] + cands @ w[W:] + params.b_input.data[0, 0]


def _op_raw(params: ControllerParams, state_id: np.ndarray) -> np.ndarray:
    return state_id @ params.w_op.data + params.b_op.data[0]


def sample_mutation(
    params: ControllerParams,
    cell: CellSpec,
    rng: np.random.Generator,
    forward: Optional[EncoderForward] = None,
) -> MutationTrace:
    """Sample one mutation per block from the current policy.

    Consumes exactly two uniforms per block (router, replacement), in block
    order. The recorded log-probs match trace_logprob's recomputation. A
    caller that will train on the sample passes the encoder pass it keeps
    (encode_forward under the current parameters); otherwise one is run.
    """
    if forward is None or forward.cell != cell:
        forward = encode_forward(params, cell)
    states = forward.states
    actions: List[MutationAction] = []
    total_lp = 0.0
    total_h = 0.0
    for b in range(1, cell.num_blocks + 1):
        router_logp = squashed_logp_np(_router_raw(params, states, b))
        t_idx = sample_index_np(router_logp, rng)
        router_lp = float(router_logp[t_idx])
        router_h = float(entropy_from_logp_np(router_logp))
        state_id = states[5 * (b - 1) + t_idx]
        target = MutTarget(t_idx)
        if target in (MutTarget.I1, MutTarget.I2):
            cands = _input_candidates(params, states, b)
            repl_logp = squashed_logp_np(_input_raw(params, state_id, cands))
            r_idx = sample_index_np(repl_logp, rng)
            replacement: Replacement = input_candidate_refs(b)[r_idx]
        else:
            repl_logp = squashed_logp_np(_op_raw(params, state_id))
            r_idx = sample_index_np(repl_logp, rng)
            replacement = Op(r_idx)
        repl_lp = float(repl_logp[r_idx])
        repl_h = float(entropy_from_logp_np(repl_logp))
        actions.append(
            MutationAction(
                block=b,
                target=target,
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


def trace_grads(
    params: ControllerParams,
    cell: CellSpec,
    trace: MutationTrace,
    forward: Optional[EncoderForward] = None,
) -> Tuple[float, ParamViews]:
    """A trace's total log-prob and its gradient: one flat vector in the
    parameters' layout, returned as its per-name views.

    Hand-derived BPTT through the heads (squash and log-softmax), both
    encoder directions, the begin vectors and the embedding rows; it agrees
    with trace_logprob's tape to rounding. `forward` is reused when it
    encodes `cell` (it must come from the current parameters); otherwise
    the encoder runs again. Validates the trace as trace_logprob does.
    """
    _check_trace(cell, trace)
    if forward is None or forward.cell != cell:
        forward = encode_forward(params, cell)
    S = forward.states
    W = params.state_width
    H = params.hidden_size
    w_r = params.w_router.data[:, 0]
    w_in = params.w_input.data[:, 0]
    grads = params.layout.zeros()
    dS = np.zeros_like(S)
    d_w_r = grads["w_router"][:, 0]
    d_w_in = grads["w_input"][:, 0]
    d_w_op = grads["w_op"]
    d_b_op = grads["b_op"][0]
    d_begin1 = grads["begin_prev1"][0]
    d_begin2 = grads["begin_prev2"][0]
    d_b_r = d_b_in = 0.0
    total_lp = 0.0
    for b, action in enumerate(trace.actions, start=1):
        idx = _replacement_index(params, b, action)
        base = 5 * (b - 1)
        t_idx = int(action.target)
        raw = _router_raw(params, S, b)
        logp = squashed_logp_np(raw)
        g = squashed_logp_grad_np(raw, logp, t_idx)
        total_lp += float(logp[t_idx])
        dS[base : base + 4] += np.outer(g, w_r)
        d_w_r += g @ S[base : base + 4]
        d_b_r += g.sum()
        state_id = S[base + t_idx]
        if t_idx < 2:
            cands = _input_candidates(params, S, b)
            raw = _input_raw(params, state_id, cands)
            logp = squashed_logp_np(raw)
            g = squashed_logp_grad_np(raw, logp, idx)
            g_sum = g.sum()
            dS[base + t_idx] += g_sum * w_in[:W]
            d_w_in[:W] += g_sum * state_id
            d_cands = np.outer(g, w_in[W:])
            dS[4 : 5 * (b - 1) : 5] += d_cands[: b - 1]
            d_begin1 += d_cands[b - 1]
            d_begin2 += d_cands[b]
            d_w_in[W:] += g @ cands
            d_b_in += g_sum
        else:
            raw = _op_raw(params, state_id)
            logp = squashed_logp_np(raw)
            g = squashed_logp_grad_np(raw, logp, idx)
            dS[base + t_idx] += params.w_op.data @ g
            d_w_op += np.outer(state_id, g)
            d_b_op += g
        total_lp += float(logp[idx])

    grads["b_router"][0, 0] = d_b_r
    grads["b_input"][0, 0] = d_b_in
    dX = lstm_backward_np(
        params.fwd, forward.fwd, dS[None, :, :H], out=lstm_entries(grads, "fwd")
    )[3][0]
    if params.bwd is not None:
        dh_b = dS[None, ::-1, H:]  # the backward run's step order
        dX_b = lstm_backward_np(
            params.bwd, forward.bwd, dh_b, out=lstm_entries(grads, "bwd")
        )[3]
        dX += dX_b[0, ::-1]
    np.add.at(grads["embedding"], forward.ids, dX)
    return total_lp, grads


# ---------------------------------------------------------------------------
# Batched sampler: same policy, many parents at once. Draw order differs
# from the scalar path (one uniform vector per decision column), so the two
# samplers are distributionally identical but not stream-compatible. Nothing
# trains on batched samples, so the encoder caches are not kept.
# ---------------------------------------------------------------------------

# Parents encoded per forward pass. A pass caches every step's activations;
# at 16 rows of 25 tokens and H = 100 that cache stays within a core's L2,
# where a 64-row pass measured slower than 16-row passes and held 4x the
# memory.
ENCODE_ROWS = 16


def sample_mutation_batch(
    params: ControllerParams, cells: Sequence[CellSpec], rng: np.random.Generator
) -> List[MutationTrace]:
    if not cells:
        return []
    B = cells[0].num_blocks
    ids = np.array([encode_tokens(c) for c in cells], dtype=np.intp)
    states = np.concatenate(  # (N, T, W)
        [
            _encode_ids(params, ids[r : r + ENCODE_ROWS])[2]
            for r in range(0, len(cells), ENCODE_ROWS)
        ]
    )
    N = states.shape[0]

    per_block: List[Tuple[np.ndarray, ...]] = []
    for b in range(1, B + 1):
        base = 5 * (b - 1)
        router_logp = squashed_logp_np(_router_raw(params, states, b))  # (N, 4)
        u = rng.random(N)
        cum = np.cumsum(np.exp(router_logp), axis=1)
        t_idx = np.minimum((cum <= u[:, None]).sum(axis=1), 3)
        router_lp = router_logp[np.arange(N), t_idx]
        router_h = entropy_from_logp_np(router_logp)
        state_id = states[np.arange(N), base + t_idx, :]  # (N, W)

        cands = _input_candidates(params, states, b)  # (N, b+1, W)
        in_logp = squashed_logp_np(_input_raw(params, state_id, cands))
        op_logp = squashed_logp_np(_op_raw(params, state_id))

        u2 = rng.random(N)
        cum_in = np.cumsum(np.exp(in_logp), axis=1)
        in_idx = np.minimum((cum_in <= u2[:, None]).sum(axis=1), in_logp.shape[1] - 1)
        cum_op = np.cumsum(np.exp(op_logp), axis=1)
        op_idx = np.minimum((cum_op <= u2[:, None]).sum(axis=1), op_logp.shape[1] - 1)

        is_input = t_idx < 2
        repl_idx = np.where(is_input, in_idx, op_idx)
        repl_lp = np.where(
            is_input,
            in_logp[np.arange(N), in_idx],
            op_logp[np.arange(N), op_idx],
        )
        repl_h = np.where(
            is_input, entropy_from_logp_np(in_logp), entropy_from_logp_np(op_logp)
        )
        per_block.append((t_idx, repl_idx, router_lp, repl_lp, router_h, repl_h))

    traces: List[MutationTrace] = []
    for n in range(N):
        actions = []
        total_lp = 0.0
        total_h = 0.0
        for b in range(1, B + 1):
            t_idx, repl_idx, router_lp, repl_lp, router_h, repl_h = per_block[b - 1]
            target = MutTarget(int(t_idx[n]))
            if target in (MutTarget.I1, MutTarget.I2):
                replacement: Replacement = input_candidate_refs(b)[int(repl_idx[n])]
            else:
                replacement = Op(int(repl_idx[n]))
            actions.append(
                MutationAction(
                    block=b,
                    target=target,
                    replacement=replacement,
                    router_logprob=float(router_lp[n]),
                    replace_logprob=float(repl_lp[n]),
                    router_entropy=float(router_h[n]),
                    replace_entropy=float(repl_h[n]),
                )
            )
            total_lp += float(router_lp[n]) + float(repl_lp[n])
            total_h += float(router_h[n]) + float(repl_h[n])
        traces.append(MutationTrace(tuple(actions), total_lp, total_h))
    return traces


# ---------------------------------------------------------------------------
# Applying traces
# ---------------------------------------------------------------------------


def apply_mutation(cell: CellSpec, trace: MutationTrace) -> CellSpec:
    """Rewrite one field per block as recorded in the trace.

    At most num_blocks fields change; a replacement equal to the current
    value is a legitimate no-op. The result is validated and always valid
    for traces produced by this module.
    """
    if len(trace.actions) != cell.num_blocks:
        raise ValueError(
            f"trace has {len(trace.actions)} actions for {cell.num_blocks} blocks"
        )
    new_blocks = list(cell.blocks)
    for b, action in enumerate(trace.actions, start=1):
        if action.block != b:
            raise ValueError(f"action {b - 1} targets block {action.block}, expected {b}")
        is_input_target = action.target in (MutTarget.I1, MutTarget.I2)
        if is_input_target and isinstance(action.replacement, Op):
            raise ValueError(f"block {b}: input mutation carries an op replacement")
        if not is_input_target and not isinstance(action.replacement, Op):
            raise ValueError(f"block {b}: op mutation carries an input replacement")
        blk = new_blocks[b - 1]
        if action.target == MutTarget.I1:
            blk = replace(blk, i1=int(action.replacement))
        elif action.target == MutTarget.I2:
            blk = replace(blk, i2=int(action.replacement))
        elif action.target == MutTarget.O1:
            blk = replace(blk, o1=Op(action.replacement))
        else:
            blk = replace(blk, o2=Op(action.replacement))
        new_blocks[b - 1] = blk
    child = CellSpec(tuple(new_blocks), num_ops=cell.num_ops)
    cfg = SpaceConfig(num_blocks=cell.num_blocks, num_ops=cell.num_ops)
    violation = validate(child, cfg)
    if violation is not None:
        raise ValueError(f"mutated cell invalid: {violation}")
    return child


# ---------------------------------------------------------------------------
# Trace serialization (JSON-friendly dicts; one trace per JSONL line)
# ---------------------------------------------------------------------------


def trace_to_dict(trace: MutationTrace) -> dict:
    return {
        "actions": [
            {
                "block": a.block,
                "target": a.target.name.lower(),
                "replacement": a.replacement.name
                if isinstance(a.replacement, Op)
                else int(a.replacement),
                "router_logprob": a.router_logprob,
                "replace_logprob": a.replace_logprob,
                "router_entropy": a.router_entropy,
                "replace_entropy": a.replace_entropy,
            }
            for a in trace.actions
        ],
        "total_logprob": trace.total_logprob,
        "total_entropy": trace.total_entropy,
    }


def trace_from_dict(payload: dict) -> MutationTrace:
    actions = []
    for entry in payload["actions"]:
        target = MutTarget[entry["target"].upper()]
        raw_repl = entry["replacement"]
        replacement: Replacement = (
            Op[raw_repl] if isinstance(raw_repl, str) else int(raw_repl)
        )
        actions.append(
            MutationAction(
                block=int(entry["block"]),
                target=target,
                replacement=replacement,
                router_logprob=float(entry["router_logprob"]),
                replace_logprob=float(entry["replace_logprob"]),
                router_entropy=float(entry["router_entropy"]),
                replace_entropy=float(entry["replace_entropy"]),
            )
        )
    return MutationTrace(
        tuple(actions),
        float(payload["total_logprob"]),
        float(payload["total_entropy"]),
    )


def save_controller(path: str, params: ControllerParams) -> None:
    meta = {
        "kind": "mutation_controller",
        "num_blocks": params.num_blocks,
        "num_ops": params.num_ops,
        "embed_size": params.embed_size,
        "hidden_size": params.hidden_size,
        "bidirectional": params.bidirectional,
    }
    nn_core.save_params(path, params.named_params(), meta)


def load_controller(path: str) -> ControllerParams:
    meta, layout, flat = nn_core.load_params(path)
    if meta.get("kind") != "mutation_controller":
        raise ValueError(f"not a controller checkpoint: {meta.get('kind')!r}")
    num_blocks, num_ops = int(meta["num_blocks"]), int(meta["num_ops"])
    expected = controller_layout(
        num_blocks,
        num_ops,
        int(meta["embed_size"]),
        int(meta["hidden_size"]),
        bool(meta["bidirectional"]),
    )
    expected.check(layout)
    return _controller_over(flat, expected, num_blocks, num_ops)
