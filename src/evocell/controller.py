"""The two recurrent policies over cell genotypes: the mutation controller
and the construction policy of rl_construct.

The mutation controller encodes a parent cell's token sequence with a
bidirectional LSTM, then walks the blocks in order. For each block it first
routes: which of the four searchable fields (i1, i2, o1, o2) to mutate,
scored by a shared linear head over the field's encoder state. If an input
field was chosen, a second head scores every legal replacement candidate,
each represented by an encoder state: earlier blocks by the state of their
combiner token, and the two previous-cell inputs by learned begin vectors.
If an op field was chosen, a third head produces logits over the active op
subset. Every softmax is squashed (shape_logits_np), so no decision can
become deterministic.

Everything runs on the numpy engine. encode_forward caches one encoder
pass. One walk scores and chooses every block of one or many parents, and
is the only code that scores a head: sample_mutation runs it on one parent
and keeps it on the pass (its trace, its choices and its head scores),
sample_mutation_batch on many (the same draws, parent by parent), and
trace_logprob re-scores a recorded trace through it with the choices
forced. trace_grads backpropagates a kept walk by hand-derived BPTT
through its own head scores and the encoder cache; central differences of
trace_logprob check it.

ConstructionPolicy, on the same engine, emits a whole cell as one choice
per field, each token fed back as the next LSTM input; sample() returns
the walk that emitted the cell, and grads(walk) backpropagates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .arch_space import (
    CELL_PREV1,
    CELL_PREV2,
    OP_NAMES,
    OP_OF_NAME,
    CellSpec,
    Op,
    SpaceConfig,
    cell_digits,
    cell_from_digits,
    encode_tokens,
    legal_inputs,
    vocab_size,
    with_fields,
)
from . import nn_core
from .nn_core import (
    LSTMCache,
    LSTMParams,
    ParamLayout,
    ParamViews,
    draw_index_np,
    entropy_from_logp_np,
    lstm_backward_np,
    lstm_entries,
    lstm_forward_np,
    lstm_spec,
    squashed_logp_grad_np,
    squashed_logp_np,
)


class MutTarget(IntEnum):
    """Which field of a block a mutation rewrites; order matches the router."""

    I1 = 0
    I2 = 1
    O1 = 2
    O2 = 3


# The members in router order, each member's logged name, and the member of
# each exact logged name.
TARGETS: Tuple[MutTarget, ...] = tuple(MutTarget)
_TARGET_NAMES: Tuple[str, ...] = tuple(t.name.lower() for t in TARGETS)
_TARGET_OF_NAME = dict(zip(_TARGET_NAMES, TARGETS))

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


@dataclass(eq=False)
class ControllerParams:
    """All learnable state of the mutation policy: p, the views of one flat
    buffer laid out by controller_layout, each weight read by its name.

    begin_prev1 / begin_prev2 are free vectors of encoder-output width that
    stand in for the two previous-cell inputs when scoring replacement
    candidates. A layout without "bwd.*" weights makes the encoder
    forward-only (bwd is None), and every head is dimensioned to width H
    instead of 2H.
    """

    p: ParamViews
    num_blocks: int
    num_ops: int
    fwd: LSTMParams = field(init=False)
    bwd: Optional[LSTMParams] = field(init=False)

    def __post_init__(self) -> None:
        self.fwd = LSTMParams(*lstm_entries(self.p, "fwd"))
        bidirectional = "bwd.Wx" in self.p
        self.bwd = LSTMParams(*lstm_entries(self.p, "bwd")) if bidirectional else None

    @property
    def embed_size(self) -> int:
        return self.p["embedding"].shape[1]

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

    @property
    def bidirectional(self) -> bool:
        return self.bwd is not None

    @property
    def state_width(self) -> int:
        return 2 * self.hidden_size if self.bidirectional else self.hidden_size

    def named_params(self) -> List[Tuple[str, np.ndarray]]:
        return list(self.p.items())


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
            ("w_input", (2 * W, 1)),  # applied to [state; candidate]
            ("b_input", (1, 1)),
            ("w_op", (W, num_ops)),
            ("b_op", (1, num_ops)),
        ]
    )


def init_controller(
    cfg: SpaceConfig,
    rng: np.random.Generator,
    embed_size: int,
    hidden_size: int,
    bidirectional: bool = True,
) -> ControllerParams:
    """Fresh policy parameters, every weight drawn N(0, 0.01^2)."""
    layout = controller_layout(
        cfg.num_blocks, cfg.num_ops, embed_size, hidden_size, bidirectional
    )
    return ControllerParams(layout.views(layout.draw(rng)), cfg.num_blocks, cfg.num_ops)


# ---------------------------------------------------------------------------
# Candidate bookkeeping shared by every walk.
#
# For an input mutation at block b, candidates are scored in the order
#   [block 1, ..., block b-1, prev cell, cell before previous]
# so candidate index k < b-1 maps to input ref k+1, index b-1 to -1, and
# index b to -2.
# ---------------------------------------------------------------------------


@cache
def input_candidate_refs(block: int) -> Tuple[int, ...]:
    """Block's input candidates in head order, built once per block."""
    return (*range(1, block), CELL_PREV1, CELL_PREV2)


def _candidate_index(block: int, ref: int) -> int:
    """Index of a legal input ref among block's candidates."""
    if ref == CELL_PREV1:
        return block - 1
    if ref == CELL_PREV2:
        return block
    return ref - 1


def _check_space(num_blocks: int, num_ops: int, cell: CellSpec) -> None:
    """ValueError, naming both spaces, unless cell is of the policy's."""
    if (cell.num_blocks, cell.num_ops) != (num_blocks, num_ops):
        raise ValueError(
            f"a cell of {cell.num_blocks} blocks and {cell.num_ops} ops given to "
            f"a policy of {num_blocks} blocks and {num_ops} ops"
        )


def _check_trace(cell: CellSpec, trace: MutationTrace) -> None:
    if len(trace.actions) != cell.num_blocks:
        raise ValueError(
            f"trace has {len(trace.actions)} actions for {cell.num_blocks} blocks"
        )


def _check_action(b: int, action: MutationAction, num_ops: int) -> bool:
    """Check that block b's action is for block b and that its replacement
    is in the legal set of the field it writes; True if that is an input."""
    if action.block != b:
        raise ValueError(f"action {b - 1} targets block {action.block}, expected {b}")
    new = action.replacement
    if action.target in (MutTarget.I1, MutTarget.I2):
        if isinstance(new, Op):
            raise ValueError(f"block {b}: input mutation carries an op replacement")
        allowed = legal_inputs(b)
        if new not in allowed:
            raise ValueError(f"block {b}: input {new} not in legal set {list(allowed)}")
        return True
    if not isinstance(new, Op):
        raise ValueError(f"block {b}: op mutation carries an input replacement")
    if new >= num_ops:
        raise ValueError(f"block {b}: op {new!r} outside active subset of {num_ops}")
    return False


def _forced(
    params: ControllerParams, cell: CellSpec, trace: MutationTrace
) -> np.ndarray:
    """A trace validated against cell, as its (B, 2) array of (target,
    replacement index) pairs, which forces a walk."""
    _check_trace(cell, trace)
    pairs = []
    for b, action in enumerate(trace.actions, start=1):
        new = int(action.replacement)
        is_input = _check_action(b, action, params.num_ops)
        pairs.append((action.target, _candidate_index(b, new) if is_input else new))
    return np.array(pairs)


# ---------------------------------------------------------------------------
# numpy engine: one cached encoder forward, the walk that scores and chooses
# on it, and the hand-derived backward through the walk's own scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutationWalk:
    """One parent's walk as sample_mutation ran it: the trace, its (B, 2)
    (target, replacement index) choices and the head scores _walk returns."""

    trace: MutationTrace
    choices: np.ndarray
    heads: tuple


@dataclass
class EncoderForward:
    """One cell's cached encoder pass, and the walk sample_mutation kept on
    it for trace_grads; both are valid only while the parameters are unchanged."""

    ids: np.ndarray  # token ids, (T,)
    fwd: LSTMCache
    bwd: Optional[LSTMCache]  # run over the reversed sequence
    states: np.ndarray  # (T, W): forward states, then backward states in token order
    walk: Optional[MutationWalk] = None


def _encode_ids(
    params: ControllerParams, ids: np.ndarray
) -> Tuple[LSTMCache, Optional[LSTMCache], np.ndarray]:
    """ids: (N, T) -> (forward cache, backward cache, states (N, T, W))."""
    X = params.p["embedding"][ids]
    fwd = lstm_forward_np(params.fwd, X)
    if params.bwd is None:
        return fwd, None, fwd.states
    bwd = lstm_forward_np(params.bwd, X[:, ::-1])
    return fwd, bwd, np.concatenate([fwd.states, bwd.states[:, ::-1]], axis=2)


def encode_forward(params: ControllerParams, cell: CellSpec) -> EncoderForward:
    """One encoder pass over cell. State t belongs to token t of
    encode_tokens(cell): block b's fields sit at 5(b-1)..5(b-1)+3 and its
    combiner at 5(b-1)+4. ValueError if cell is of another space."""
    _check_space(params.num_blocks, params.num_ops, cell)
    ids = np.asarray(encode_tokens(cell), dtype=np.intp)
    fwd, bwd, states = _encode_ids(params, ids[None])
    return EncoderForward(ids, fwd, bwd, states[0])


# Head scores. Each takes one parent's values or a stack of them: encoder
# states (..., T, W), a routed field's state (..., W), or the blocks'
# combiner states (..., B, W). A stacked product hands each parent's slice
# to the BLAS kernel a single parent's product uses, so stacking leaves the
# scores' bits unchanged. Only _walk calls them.


def _router_raw(params: ControllerParams, fields: np.ndarray) -> np.ndarray:
    """(..., 4) from the states of a block's four fields (..., 4, W)."""
    return fields @ params.p["w_router"][:, 0] + params.p["b_router"][0, 0]


def _input_candidates(
    params: ControllerParams, combiners: np.ndarray, b: int
) -> np.ndarray:
    """(..., b+1, W): the combiner states of blocks 1..b-1, then the begin vectors."""
    cands = np.empty(combiners.shape[:-2] + (b + 1, combiners.shape[-1]))
    cands[..., : b - 1, :] = combiners[..., : b - 1, :]
    cands[..., b - 1, :] = params.p["begin_prev1"][0]
    cands[..., b, :] = params.p["begin_prev2"][0]
    return cands


def _input_raw(
    params: ControllerParams, state_id: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    W = params.state_width
    w = params.p["w_input"][:, 0]
    own = state_id[..., None, :] @ w[:W]  # (..., 1): a dot product per parent
    return own + cands @ w[W:] + params.p["b_input"][0, 0]


def _op_raw(params: ControllerParams, state_id: np.ndarray) -> np.ndarray:
    w_op, b_op = params.p["w_op"], params.p["b_op"]
    return (state_id[..., None, :] @ w_op)[..., 0, :] + b_op[0]


def _walk(
    params: ControllerParams,
    states: np.ndarray,
    u: Optional[np.ndarray] = None,
    forced: Optional[np.ndarray] = None,
) -> Tuple[List[MutationTrace], List[List[Tuple[int, int]]], tuple]:
    """One trace per parent, from N parents' encoder states (N, T, W), its
    choices (a (target, replacement index) pair per block), and the head
    scores behind them, kept for the backward: (raw scores,
    log-probs) of the routers (N, B, 4) and of the op heads (K, num_ops),
    one row per (parent, block) routed to an op, in that order; and for
    each block b, the candidates (n, b+1, W), raw scores and log-probs
    (n, b+1) of the n parents routed to an input there.

    In each block the router picks a field, then that field's head picks
    its new value. Block b's two choices are drawn at the uniforms
    u[n, 2b-2] and u[n, 2b-1], or, without u, read from forced[n, b-1] as a
    (target, replacement index) pair. All routers are scored in one stacked
    product, and so are the op heads of all blocks routed to an op; an
    input head has b+1 candidates, so each block's is scored for the
    parents that routed to an input there. Totals add each block's router
    and replacement terms as a pair, in block order.
    """
    N, T, W = states.shape
    B = T // 5
    blocks = states.reshape(N, B, 5, W)
    router_raw = _router_raw(params, blocks[:, :, :4])
    router_logp = squashed_logp_np(router_raw)  # (N, B, 4)
    t_idx = forced[..., 0] if u is None else draw_index_np(router_logp, u[:, 0::2])
    state_id = blocks[np.arange(N)[:, None], np.arange(B), t_idx]  # (N, B, W)
    is_input = t_idx < 2  # MutTarget.I1 or I2

    chosen = [[None] * B for _ in range(N)]  # (index, log-prob, entropy)

    def replace(where: tuple, logp: np.ndarray):
        """(index, log-prob, entropy) of the replacement chosen for each
        (parent, block) pair in where, whose head log-probs are logp's rows."""
        if u is None:
            idx = forced[where][:, 1].tolist()
        else:
            idx = draw_index_np(logp, u[:, 1::2][where]).tolist()
        lp = [row[i] for row, i in zip(logp.tolist(), idx)]
        return zip(idx, lp, entropy_from_logp_np(logp).tolist())

    is_op = ~is_input
    rows, cols = np.nonzero(is_op)
    op_raw = _op_raw(params, state_id[is_op])
    op_logp = squashed_logp_np(op_raw)
    choices = replace((rows, cols), op_logp)
    for n, b, choice in zip(rows.tolist(), cols.tolist(), choices):
        chosen[n][b] = choice
    combiners = blocks[:, :, 4]
    inputs = {}
    for b in range(1, B + 1):
        rows = np.flatnonzero(is_input[:, b - 1])
        if rows.size:
            cands = _input_candidates(params, combiners[rows, : b - 1], b)
            raw = _input_raw(params, state_id[rows, b - 1], cands)
            in_logp = squashed_logp_np(raw)
            inputs[b] = cands, raw, in_logp
            for n, choice in zip(rows.tolist(), replace((rows, b - 1), in_logp)):
                chosen[n][b - 1] = choice

    router_h = entropy_from_logp_np(router_logp)
    refs = [input_candidate_refs(b) for b in range(1, B + 1)]
    traces: List[MutationTrace] = []
    choices = []
    for row in zip(t_idx.tolist(), chosen, router_logp.tolist(), router_h.tolist()):
        actions, pairs = [], []
        total_lp = total_h = 0.0
        for b, (t, (r, r_lp, r_h), t_logp, t_h) in enumerate(zip(*row), start=1):
            t_lp = t_logp[t]
            repl: Replacement = refs[b - 1][r] if t < 2 else Op(r)
            actions.append(MutationAction(b, MutTarget(t), repl, t_lp, r_lp, t_h, r_h))
            pairs.append((t, r))
            total_lp += t_lp + r_lp
            total_h += t_h + r_h
        traces.append(MutationTrace(tuple(actions), total_lp, total_h))
        choices.append(pairs)
    return traces, choices, ((router_raw, router_logp), (op_raw, op_logp), inputs)


def sample_mutation(
    params: ControllerParams,
    cell: CellSpec,
    rng: np.random.Generator,
    forward: Optional[EncoderForward] = None,
) -> MutationTrace:
    """Sample one mutation per block from the current policy.

    Consumes exactly two uniforms per block (router, replacement), in block
    order, drawn in one call. trace_logprob recomputes the recorded totals
    bit for bit. The walk is kept on the encoder pass for trace_grads: a
    caller that trains on the sample passes the pass of cell it keeps
    (encode_forward under the current parameters); otherwise one is run.
    ValueError if cell is of another space.
    """
    if forward is None:
        forward = encode_forward(params, cell)
    u = rng.random((1, 2 * cell.num_blocks))
    (trace,), choices, heads = _walk(params, forward.states[None], u)
    forward.walk = MutationWalk(trace, np.array(choices[0]), heads)
    return trace


# Parents encoded per forward pass. A pass caches every step's activations;
# at 16 rows of 25 tokens and H = 100 that cache stays within a core's L2,
# where a 64-row pass measured slower than 16-row passes and held 4x the
# memory.
ENCODE_ROWS = 16


def sample_mutation_batch(
    params: ControllerParams, cells: Sequence[CellSpec], rng: np.random.Generator
) -> List[MutationTrace]:
    """sample_mutation for many parents of one block count at once.

    The uniforms are drawn parent by parent, 2B each, in one call, so a
    single parent is sampled exactly as sample_mutation samples it. Nothing
    trains on these samples, so the encoder caches are not kept. ValueError
    if a cell is of another space.
    """
    if not cells:
        return []
    for cell in cells:
        _check_space(params.num_blocks, params.num_ops, cell)
    ids = np.array([encode_tokens(c) for c in cells], dtype=np.intp)
    states = np.concatenate(  # (N, T, W)
        [
            _encode_ids(params, ids[r : r + ENCODE_ROWS])[2]
            for r in range(0, len(cells), ENCODE_ROWS)
        ]
    )
    return _walk(params, states, rng.random((len(cells), 2 * cells[0].num_blocks)))[0]


def trace_logprob(
    params: ControllerParams, cell: CellSpec, trace: MutationTrace
) -> Tuple[float, float]:
    """A trace's (total log-prob, total entropy) under the current
    parameters, recomputed forward only, as sample_mutation sums them.

    Raises ValueError if the cell is of another space or the trace does not
    fit the cell (wrong block count, a replacement outside the legal
    candidate set, or an op outside the active subset).
    """
    states = encode_forward(params, cell).states[None]
    (walk,), _, _ = _walk(params, states, forced=_forced(params, cell, trace)[None])
    return walk.total_logprob, walk.total_entropy


def trace_grads(params: ControllerParams, forward: EncoderForward) -> ParamViews:
    """The gradient of the total log-prob of the walk sample_mutation kept
    on forward, under the parameters of that sample: one flat vector in
    their layout, returned as its per-name views.

    Hand-derived BPTT through the walk's head scores (squash and
    log-softmax), both encoder directions, the begin vectors and the
    embedding rows; criterion 3 checks it against central differences of
    trace_logprob.
    """
    walk = forward.walk
    S = forward.states
    B, W, H = len(walk.choices), params.state_width, params.hidden_size
    w_r = params.p["w_router"][:, 0]
    w_in = params.p["w_input"][:, 0]
    grads = params.p.layout.zeros()
    dS = np.zeros_like(S)
    d_w_r = grads["w_router"][:, 0]
    d_w_in = grads["w_input"][:, 0]
    d_w_op = grads["w_op"]
    d_b_op = grads["b_op"][0]
    d_begin1 = grads["begin_prev1"][0]
    d_begin2 = grads["begin_prev2"][0]
    d_b_r = d_b_in = 0.0
    (router_raw, router_logp), ops, inputs = walk.heads
    targets, repl = walk.choices.T
    g_router = squashed_logp_grad_np(router_raw[0], router_logp[0], targets)
    dS.reshape(B, 5, W)[:, :4] += g_router[..., None] * w_r
    for g, fields in zip(g_router, S.reshape(B, 5, W)[:, :4]):
        d_w_r += g @ fields
        d_b_r += g.sum()
    g_ops = iter(squashed_logp_grad_np(*ops, repl[targets >= 2]))
    for b, (t, idx) in enumerate(walk.choices.tolist(), start=1):
        base = 5 * (b - 1)
        state_id = S[base + t]
        if t < 2:
            cands, raw, logp = (a[0] for a in inputs[b])
            g = squashed_logp_grad_np(raw, logp, idx)
            g_sum = g.sum()
            dS[base + t] += g_sum * w_in[:W]
            d_w_in[:W] += g_sum * state_id
            d_cands = np.outer(g, w_in[W:])
            dS[4 : 5 * (b - 1) : 5] += d_cands[: b - 1]
            d_begin1 += d_cands[b - 1]
            d_begin2 += d_cands[b]
            d_w_in[W:] += g @ cands
            d_b_in += g_sum
        else:
            g = next(g_ops)
            dS[base + t] += params.p["w_op"] @ g
            d_w_op += np.outer(state_id, g)
            d_b_op += g

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
    return grads


# ---------------------------------------------------------------------------
# Applying traces
# ---------------------------------------------------------------------------


def apply_mutation(cell: CellSpec, trace: MutationTrace) -> CellSpec:
    """Rewrite one field per block as recorded in the trace.

    At most num_blocks fields change; a replacement equal to the current
    value is a legitimate no-op. Only what the trace writes is checked: one
    action per block, in block order, each carrying a replacement of its
    field's kind from that field's legal set (ValueError otherwise). Every
    other field is copied from the parent, so the child of a valid parent
    is valid; the child is not validated again here (an oracle validates
    each cell it evaluates). The child carries the parent's digits with the
    one digit each action writes rewritten (arch_space.with_fields).
    """
    _check_trace(cell, trace)
    edits = []
    for b, action in enumerate(trace.actions, start=1):
        new = action.replacement
        if _check_action(b, action, cell.num_ops):  # an input ref
            new = int(new)
        edits.append((action.target, new))
    return with_fields(cell, edits)


# ---------------------------------------------------------------------------
# Trace serialization (JSON-friendly dicts; one trace per JSONL line)
# ---------------------------------------------------------------------------


def trace_to_dict(trace: MutationTrace) -> dict:
    return {
        "actions": [
            {
                "block": a.block,
                "target": _TARGET_NAMES[a.target],
                "replacement": OP_NAMES[a.replacement]
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


def _typed(value, kind: type, name: str):
    """value, if it is exactly of kind (so neither a bool for an int nor an
    int or a string for a float); TypeError otherwise."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def trace_from_dict(payload: dict) -> MutationTrace:
    """Inverse of trace_to_dict, coercing nothing: each name must be one
    that trace_to_dict writes (KeyError otherwise) and each number of the
    JSON type it writes (TypeError otherwise)."""
    actions = []
    for entry in payload["actions"]:
        raw_repl = entry["replacement"]
        replacement: Replacement = (
            OP_OF_NAME[raw_repl]
            if isinstance(raw_repl, str)
            else _typed(raw_repl, int, "replacement")
        )
        actions.append(
            MutationAction(
                _typed(entry["block"], int, "block"),
                _TARGET_OF_NAME[entry["target"]],
                replacement,
                _typed(entry["router_logprob"], float, "router_logprob"),
                _typed(entry["replace_logprob"], float, "replace_logprob"),
                _typed(entry["router_entropy"], float, "router_entropy"),
                _typed(entry["replace_entropy"], float, "replace_entropy"),
            )
        )
    return MutationTrace(
        tuple(actions),
        _typed(payload["total_logprob"], float, "total_logprob"),
        _typed(payload["total_entropy"], float, "total_entropy"),
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
    nn_core.save_params(path, params.p, meta)


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
    return ControllerParams(expected.views(flat), num_blocks, num_ops)


# ---------------------------------------------------------------------------
# Sequential construction policy (rl_construct)
# ---------------------------------------------------------------------------


@dataclass
class _ConstructionWalk:
    """One pass of the construction policy: its cell, totals and gradient inputs."""

    cell: CellSpec
    digits: List[int]  # the choice made at each step
    tokens: List[int]  # the token each choice feeds to the next step
    cache: nn_core.LSTMCache
    heads: List[Tuple[np.ndarray, np.ndarray]]  # each step's raw scores, log-probs
    total_logprob: float
    total_entropy: float


class ConstructionPolicy:
    """Recurrent policy that emits a cell as 4 * num_blocks choices.

    Per block, in order: i1, i2, o1, o2. Input choices are scored by a
    shared head over the first b+1 slots (the legal references at block b);
    ops by a separate head over the active subset. Chosen tokens feed back
    as the next LSTM input, starting from a learned start vector. All
    logits pass through the same squash as the mutation controller. Its
    weights are self.p, the views of one flat buffer, each read by its
    layout name.
    """

    def __init__(
        self,
        cfg: SpaceConfig,
        rng: np.random.Generator,
        embed_size: int,
        hidden_size: int,
    ):
        self.cfg = cfg
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        B = cfg.num_blocks
        layout = ParamLayout(
            [
                ("embedding", (vocab_size(B), embed_size)),
                ("start", (1, embed_size)),
                *nn_core.lstm_spec("lstm", embed_size, hidden_size),
                ("w_input", (hidden_size, B + 1)),
                ("b_input", (1, B + 1)),
                ("w_op", (hidden_size, cfg.num_ops)),
                ("b_op", (1, cfg.num_ops)),
            ]
        )
        self.p = layout.views(layout.draw(rng))
        self.lstm = LSTMParams(*nn_core.lstm_entries(self.p, "lstm"))

    def named_params(self) -> List[Tuple[str, np.ndarray]]:
        return list(self.p.items())

    def _decision_plan(self) -> List[Tuple[str, int]]:
        kinds = ("input", "input", "op", "op")
        return [(kind, b) for b in range(1, self.cfg.num_blocks + 1) for kind in kinds]

    def _raw(self, kind: str, b: int, h: np.ndarray) -> np.ndarray:
        if kind == "input":
            return (h @ self.p["w_input"] + self.p["b_input"][0])[: b + 1]
        return h @ self.p["w_op"] + self.p["b_op"][0]

    def _walk(
        self, rng: Optional[np.random.Generator], digits: Optional[Sequence[int]] = None
    ) -> _ConstructionWalk:
        """Run the policy over one cell: sample each choice from rng, or
        teacher-force the given digits. Both fill the LSTM cache identically."""
        T = 4 * self.cfg.num_blocks
        X = np.empty((T, 1, self.embed_size))
        cache = nn_core.LSTMCache.empty(X, self.hidden_size)
        op_base = 2 + self.cfg.num_blocks
        x = self.p["start"][0]
        chosen: List[int] = []
        tokens: List[int] = []
        heads: List[Tuple[np.ndarray, np.ndarray]] = []
        total_lp = total_h = 0.0
        for t, (kind, b) in enumerate(self._decision_plan()):
            cache.X[t, 0] = x
            np.matmul(x, self.lstm.Wx, out=cache.gates[t, 0])
            nn_core.lstm_step_np(self.lstm, cache, t)
            raw = self._raw(kind, b, cache.h[t, 0])
            logp = nn_core.squashed_logp_np(raw)
            idx = int(
                draw_index_np(logp, rng.random()) if digits is None else digits[t]
            )
            total_lp += float(logp[idx])
            total_h += float(entropy_from_logp_np(logp))
            chosen.append(idx)
            tokens.append(idx if kind == "input" else op_base + idx)
            heads.append((raw, logp))
            x = self.p["embedding"][tokens[-1]]
        cell = cell_from_digits(chosen, self.cfg)
        return _ConstructionWalk(cell, chosen, tokens, cache, heads, total_lp, total_h)

    def sample(self, rng: np.random.Generator) -> _ConstructionWalk:
        """Draw one cell: the walk that emitted it, with its cell, total
        log-prob and total entropy; grads() takes it."""
        return self._walk(rng)

    def grads(self, walk: _ConstructionWalk) -> ParamViews:
        """The gradient of the log-prob of a walk of sample(), under the
        parameters of that sample (one flat vector in self.p's layout, as
        per-name views), by hand-derived BPTT through the walk's own head
        scores; criterion 3 checks it against central differences of logprob().
        """
        cache = walk.cache
        T, H = len(walk.digits), self.hidden_size
        dh = np.zeros((1, T, H))
        grads = self.p.layout.zeros()
        d_w_input, d_b_input = grads["w_input"], grads["b_input"]
        d_w_op, d_b_op = grads["w_op"], grads["b_op"]
        for t, (kind, b) in enumerate(self._decision_plan()):
            h = cache.h[t, 0]
            g = nn_core.squashed_logp_grad_np(*walk.heads[t], walk.digits[t])
            if kind == "input":
                dh[0, t] = self.p["w_input"][:, : b + 1] @ g
                d_w_input[:, : b + 1] += np.outer(h, g)
                d_b_input[0, : b + 1] += g
            else:
                dh[0, t] = self.p["w_op"] @ g
                d_w_op += np.outer(h, g)
                d_b_op[0] += g
        dX = nn_core.lstm_backward_np(
            self.lstm, cache, dh, out=nn_core.lstm_entries(grads, "lstm")
        )[3]
        # step t > 0 reads the token chosen at step t - 1
        np.add.at(grads["embedding"], walk.tokens[:-1], dX[0, 1:])
        grads["start"][...] = dX[0, :1]
        return grads

    def logprob(self, cell: CellSpec) -> Tuple[float, float]:
        """(log-prob, entropy) of emitting exactly this cell: the totals of
        a walk teacher-forced on its choices, as sample() sums them.
        ValueError if cell is of another space."""
        _check_space(self.cfg.num_blocks, self.cfg.num_ops, cell)
        walk = self._walk(None, cell_digits(cell))
        return walk.total_logprob, walk.total_entropy
