"""The two recurrent policies over cell genotypes: the mutation controller
and the construction policy of rl_construct.

The mutation controller encodes a parent cell's token sequence with a
bidirectional LSTM, then walks the blocks in order. For each block it first
routes: which of the four searchable fields (i1, i2, o1, o2) to mutate,
scored by a shared linear head over the field's encoder state. If an input
field was chosen, a second linear head scores every legal replacement
candidate by its encoder state alone: earlier blocks by the state of their
combiner token, and the two previous-cell inputs by learned begin vectors.
If an op field was chosen, a third head produces logits over the active op
subset. Every softmax is squashed (nn_core.SquashedHead), so no decision
can become deterministic. The router and input heads carry no bias and the
input head no term for the routed field's own state: each would add the
same value to every candidate, which the softmax cancels.

Everything runs on the numpy engine. encode_forward caches one encoder
pass. One walk scores and chooses every block of one or many parents, and
is the only code that scores a head: sample_mutation runs it on one parent
and keeps it on the pass (its trace, its choices and its heads),
sample_mutation_batch on many (the same draws, parent by parent), and
trace_logprob re-scores a recorded trace through it with the choices
forced. The walk computes raw scores in stacked numpy products, then runs
each head's softmax, draw and entropy on its row as Python floats: a head
has 2-7 candidates, too few to repay numpy's per-call overhead.
trace_grads backpropagates a kept walk by hand-derived BPTT from the
gradients of its own heads through the encoder cache; central differences
of trace_logprob check it.

ConstructionPolicy, on the same engine, emits a whole cell as one choice
per field, each token fed back as the next LSTM input; sample() returns
the walk that emitted the cell, and grads(walk) backpropagates it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache, cached_property
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
    SquashedHead,
    lstm_backward_np,
    lstm_entries,
    lstm_forward_np,
    lstm_spec,
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

    @cached_property
    def json_text(self) -> str:
        """This action's entry in a logged trace, LOG_ENCODER's encoding of
        its _action_dict joined from its fields' text in sorted-key order.
        Formatted once per object (the uniform policy builds each action
        once per space) and kept outside the dataclass fields, so ==, hash,
        repr and asdict do not see it. It is keyed on the object, not on
        values, which compare equal across 1, 1.0 and True, and 0.0 and
        -0.0."""
        r, t = self.replacement, float_text
        r = f'"{OP_NAMES[r]}"' if isinstance(r, Op) else int(r)
        return (
            f'{{"block": {self.block}, "replace_entropy": {t(self.replace_entropy)}, '
            f'"replace_logprob": {t(self.replace_logprob)}, "replacement": {r}, '
            f'"router_entropy": {t(self.router_entropy)}, '
            f'"router_logprob": {t(self.router_logprob)}, '
            f'"target": "{_TARGET_NAMES[self.target]}"}}'
        )


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
    candidates. w_router scores a field's state and w_input a candidate's;
    w_op and b_op score the routed op field's state over the active ops. A
    layout without "bwd.*" weights makes the encoder forward-only (bwd is
    None), and every head is dimensioned to width H instead of 2H.
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
    order init_controller draws them in. The router and input heads are
    one weight column each, over a field's or a candidate's state."""
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
            ("w_input", (W, 1)),
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
    """One parent's walk as sample_mutation ran it: the trace, its
    (target, replacement index) choice per block and the (router,
    replacement) heads behind each."""

    trace: MutationTrace
    choices: List[Tuple[int, int]]
    heads: List[Tuple[SquashedHead, SquashedHead]]


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
    return fields @ params.p["w_router"][:, 0]


def _input_candidates(
    params: ControllerParams, combiners: np.ndarray, b: int
) -> np.ndarray:
    """(..., b+1, W): the combiner states of blocks 1..b-1, then the begin vectors."""
    cands = np.empty(combiners.shape[:-2] + (b + 1, combiners.shape[-1]))
    cands[..., : b - 1, :] = combiners[..., : b - 1, :]
    cands[..., b - 1, :] = params.p["begin_prev1"][0]
    cands[..., b, :] = params.p["begin_prev2"][0]
    return cands


def _op_raw(params: ControllerParams, state_id: np.ndarray) -> np.ndarray:
    w_op, b_op = params.p["w_op"], params.p["b_op"]
    return (state_id[..., None, :] @ w_op)[..., 0, :] + b_op[0]


def _walk(
    params: ControllerParams,
    states: np.ndarray,
    u: Optional[np.ndarray] = None,
    forced: Optional[np.ndarray] = None,
) -> Tuple[List[MutationTrace], List[List[Tuple[int, int]]], list]:
    """One trace per parent, from N parents' encoder states (N, T, W), its
    choices (a (target, replacement index) pair per block), and the heads
    behind them, kept for the backward: per parent, a (router, replacement)
    pair of SquashedHeads per block.

    In each block the router picks a field, then that field's head picks
    its new value. Block b's two choices are drawn at the uniforms
    u[n, 2b-2] and u[n, 2b-1], or, without u, read from forced[n, b-1] as a
    (target, replacement index) pair. All routers are scored in one stacked
    product, and so are the op heads of all blocks routed to an op; an
    input head has b+1 candidates, so each block's is scored for the
    parents that routed to an input there. Each head's softmax, draw and
    entropy then run on its row of raw scores as Python floats. Totals add
    each block's router and replacement terms as a pair, in block order.
    """
    N, T, W = states.shape
    B = T // 5

    def choose(heads: list, k: int) -> List[List[int]]:
        """Each (parent, block) head's choice: forced[..., k], or its draw
        at its uniform in u[:, k::2]."""
        if u is None:
            return forced[..., k].tolist()
        return [
            [head.draw(x) for head, x in zip(row, us)]
            for row, us in zip(heads, u[:, k::2].tolist())
        ]

    blocks = states.reshape(N, B, 5, W)
    router_raw = _router_raw(params, blocks[:, :, :4]).tolist()  # (N, B, 4)
    routers = [[SquashedHead(row) for row in rows] for rows in router_raw]
    targets = choose(routers, 0)
    t_idx = np.array(targets)  # (N, B)
    state_id = blocks[np.arange(N)[:, None], np.arange(B), t_idx]  # (N, B, W)
    is_input = t_idx < 2  # MutTarget.I1 or I2

    replacers = [[None] * B for _ in range(N)]
    rows, cols = np.nonzero(~is_input)
    op_raw = _op_raw(params, state_id[rows, cols]).tolist()
    for n, b, raw in zip(rows.tolist(), cols.tolist(), op_raw):
        replacers[n][b] = SquashedHead(raw)
    combiners = blocks[:, :, 4]
    for b in range(1, B + 1):
        rows = np.flatnonzero(is_input[:, b - 1])
        if rows.size:
            cands = _input_candidates(params, combiners[rows, : b - 1], b)
            raw = (cands @ params.p["w_input"][:, 0]).tolist()
            for n, row in zip(rows.tolist(), raw):
                replacers[n][b - 1] = SquashedHead(row)
    indices = choose(replacers, 1)

    refs = [input_candidate_refs(b) for b in range(1, B + 1)]
    traces: List[MutationTrace] = []
    heads = []
    for row in zip(routers, replacers, targets, indices):
        actions = []
        total_lp = total_h = 0.0
        for b, (router, replacer, t, r) in enumerate(zip(*row), start=1):
            t_lp, r_lp = router.logp[t], replacer.logp[r]
            t_h, r_h = router.entropy, replacer.entropy
            repl: Replacement = refs[b - 1][r] if t < 2 else Op(r)
            actions.append(MutationAction(b, MutTarget(t), repl, t_lp, r_lp, t_h, r_h))
            total_lp += t_lp + r_lp
            total_h += t_h + r_h
        traces.append(MutationTrace(tuple(actions), total_lp, total_h))
        heads.append(list(zip(row[0], row[1])))
    choices = [list(zip(ts, rs)) for ts, rs in zip(targets, indices)]
    return traces, choices, heads


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
    (trace,), (choices,), (heads,) = _walk(params, forward.states[None], u)
    forward.walk = MutationWalk(trace, choices, heads)
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

    Hand-derived BPTT from the gradient of each of the walk's heads, taken
    from the raw scores and probabilities it kept, through both encoder
    directions, the begin vectors and the embedding rows; criterion 3
    checks it against central differences of trace_logprob. The routers'
    gradients are one (B, 4) array and the op heads' one matrix, so every
    weight's gradient is one product. A parent's input heads share its
    candidates and score nothing else, so their gradients are summed per
    candidate: prev1, prev2, then blocks 1..B-1.
    """
    S = forward.states
    B, W, H = len(S) // 5, params.state_width, params.hidden_size
    p = params.p
    routers, replacers = zip(*forward.walk.heads)
    targets, indices = zip(*forward.walk.choices)
    grads = p.layout.zeros()
    dS = np.zeros_like(S)
    g_router = np.array([h.grad(t) for h, t in zip(routers, targets)])  # (B, 4)
    fields = S.reshape(B, 5, W)[:, :4]
    dS.reshape(B, 5, W)[:, :4] = g_router[..., None] * p["w_router"][:, 0]
    grads["w_router"][:, 0] = g_router.reshape(-1) @ fields.reshape(4 * B, W)

    g_repl = [h.grad(r) for h, r in zip(replacers, indices)]
    ops = [b for b in range(B) if targets[b] >= 2]
    ins = [b for b in range(B) if targets[b] < 2]
    if ops:
        g_op = np.array([g_repl[b] for b in ops])  # (K, num_ops)
        at = [5 * b + targets[b] for b in ops]  # the routed fields' states
        dS[at] += g_op @ p["w_op"].T
        np.matmul(S[at].T, g_op, out=grads["w_op"])
        grads["b_op"][0] = g_op.sum(axis=0)
    if ins:
        g_cand = np.zeros(B + 1)  # prev1, prev2, then blocks 1..B-1
        for b in ins:  # block b + 1's head has b combiners, then prev1, prev2
            g_cand[: b + 2] += g_repl[b][-2:] + g_repl[b][:-2]
        combiners = S[4 : 5 * (B - 1) : 5]
        cands = np.concatenate([p["begin_prev1"], p["begin_prev2"], combiners])
        grads["w_input"][:, 0] = g_cand @ cands
        d_cands = np.outer(g_cand, p["w_input"][:, 0])
        grads["begin_prev1"][0] = d_cands[0]
        grads["begin_prev2"][0] = d_cands[1]
        dS[4 : 5 * (B - 1) : 5] += d_cands[2:]

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

# A run log's one JSON form: sorted keys, json's default separators.
LOG_ENCODER = json.JSONEncoder(sort_keys=True)


def _action_dict(a: MutationAction) -> dict:
    return {
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


def trace_to_dict(trace: MutationTrace) -> dict:
    return {
        "actions": [_action_dict(a) for a in trace.actions],
        "total_logprob": trace.total_logprob,
        "total_entropy": trace.total_entropy,
    }


def float_text(x: float) -> str:
    """x as LOG_ENCODER writes a float: its float.__repr__ or, if it is not
    finite, JSON's NaN, Infinity or -Infinity."""
    text = float.__repr__(x)
    if x - x == 0.0:  # finite
        return text
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text]


def trace_json(trace: MutationTrace) -> str:
    """LOG_ENCODER.encode(trace_to_dict(trace)), byte for byte, joined from
    each action's cached json_text and the float_text of the totals, whose
    keys sort after "actions"."""
    actions = ", ".join([a.json_text for a in trace.actions])
    h, lp = float_text(trace.total_entropy), float_text(trace.total_logprob)
    return f'{{"actions": [{actions}], "total_entropy": {h}, "total_logprob": {lp}}}'


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


def construction_layout(cfg: SpaceConfig, embed_size: int, hidden_size: int) -> ParamLayout:
    """ConstructionPolicy's parameters, in the order it draws them."""
    B = cfg.num_blocks
    return ParamLayout(
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


@dataclass
class _ConstructionWalk:
    """One pass of the construction policy: its cell, totals and gradient inputs."""

    cell: CellSpec
    digits: List[int]  # the choice made at each step
    tokens: List[int]  # the token each choice feeds to the next step
    cache: nn_core.LSTMCache
    heads: List[SquashedHead]  # each step's head
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
        layout = construction_layout(cfg, embed_size, hidden_size)
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
        heads: List[SquashedHead] = []
        total_lp = total_h = 0.0
        for t, (kind, b) in enumerate(self._decision_plan()):
            cache.X[t, 0] = x
            np.matmul(x, self.lstm.Wx, out=cache.gates[t, 0])
            nn_core.lstm_step_np(self.lstm, cache, t)
            head = SquashedHead(self._raw(kind, b, cache.h[t, 0]).tolist())
            idx = head.draw(rng.random()) if digits is None else digits[t]
            total_lp += head.logp[idx]
            total_h += head.entropy
            chosen.append(idx)
            tokens.append(idx if kind == "input" else op_base + idx)
            heads.append(head)
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
        per-name views), from the raw scores and probabilities each of the
        walk's heads kept; criterion 3 checks it against central
        differences of logprob().
        """
        cache = walk.cache
        T = len(walk.digits)
        # each head's gradient at its choice, stacked into one zero-padded
        # (T, B+1) input and one (T, num_ops) op matrix, so each weight's
        # gradient is one product
        g_in = np.zeros((T, self.cfg.num_blocks + 1))
        g_op = np.zeros((T, self.cfg.num_ops))
        plan = self._decision_plan()
        for t, ((kind, _), head, d) in enumerate(zip(plan, walk.heads, walk.digits)):
            g = head.grad(d)
            (g_in if kind == "input" else g_op)[t, : len(g)] = g
        h = cache.h[:, 0]
        dh = g_in @ self.p["w_input"].T + g_op @ self.p["w_op"].T
        grads = self.p.layout.zeros()
        np.matmul(h.T, g_in, out=grads["w_input"])
        np.matmul(h.T, g_op, out=grads["w_op"])
        grads["b_input"][0] = g_in.sum(axis=0)
        grads["b_op"][0] = g_op.sum(axis=0)
        dX = nn_core.lstm_backward_np(
            self.lstm, cache, dh[None], out=nn_core.lstm_entries(grads, "lstm")
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
