"""Per-decision references for both policies' gradients.

Each head is scored again from the encoder states or LSTM outputs, one
block (or one token) at a time, squashed, and differentiated on its own;
every accumulator takes its terms in block order, router before
replacement. The package differentiates the scores its sampling walk
already computed, with routers and op heads stacked; agreement byte for
byte checks that this regrouping leaves the gradient's bits unchanged.
"""

import numpy as np

from evocell.arch_space import cell_digits
from evocell.controller import (
    _forced,
    _input_candidates,
    _input_raw,
    _op_raw,
    _router_raw,
    encode_forward,
)
from evocell.nn_core import lstm_backward_np, lstm_entries, squashed_logp_np


def _squashed_logp_grad(raw, logp, idx):
    """d logp[idx] / d raw for one head: the log-softmax, then the squash."""
    u = np.tanh(raw / 5.0)
    grad = -np.exp(logp)
    grad[idx] += 1.0
    return grad * (0.5 * (1.0 - u * u))


def controller_grads(params, cell, trace):
    """trace_grads as a loop over blocks."""
    replacements = _forced(params, cell, trace)[:, 1].tolist()  # validated
    forward = encode_forward(params, cell)
    S = forward.states
    W = params.state_width
    H = params.hidden_size
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
    for b, action in enumerate(trace.actions, start=1):
        idx = replacements[b - 1]
        base = 5 * (b - 1)
        t_idx = int(action.target)
        raw = _router_raw(params, S[base : base + 4])
        logp = squashed_logp_np(raw)
        g = _squashed_logp_grad(raw, logp, t_idx)
        dS[base : base + 4] += np.outer(g, w_r)
        d_w_r += g @ S[base : base + 4]
        d_b_r += g.sum()
        state_id = S[base + t_idx]
        if t_idx < 2:
            cands = _input_candidates(params, S[4::5], b)
            raw = _input_raw(params, state_id, cands)
            logp = squashed_logp_np(raw)
            g = _squashed_logp_grad(raw, logp, idx)
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
            g = _squashed_logp_grad(raw, logp, idx)
            dS[base + t_idx] += params.p["w_op"] @ g
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


def construction_grads(policy, cell):
    """controller.ConstructionPolicy.grads as a loop over tokens that scores each head
    again from the teacher-forced walk's LSTM outputs."""
    walk = policy._walk(None, cell_digits(cell))
    cache = walk.cache
    T, H = len(walk.digits), policy.hidden_size
    dh = np.zeros((1, T, H))
    grads = policy.p.layout.zeros()
    d_w_input, d_b_input = grads["w_input"], grads["b_input"]
    d_w_op, d_b_op = grads["w_op"], grads["b_op"]
    for t, (kind, b) in enumerate(policy._decision_plan()):
        h = cache.h[t, 0]
        raw = policy._raw(kind, b, h)
        logp = squashed_logp_np(raw)
        g = _squashed_logp_grad(raw, logp, walk.digits[t])
        if kind == "input":
            dh[0, t] = policy.p["w_input"][:, : b + 1] @ g
            d_w_input[:, : b + 1] += np.outer(h, g)
            d_b_input[0, : b + 1] += g
        else:
            dh[0, t] = policy.p["w_op"] @ g
            d_w_op += np.outer(h, g)
            d_b_op[0] += g
    dX = lstm_backward_np(policy.lstm, cache, dh, out=lstm_entries(grads, "lstm"))[3]
    np.add.at(grads["embedding"], walk.tokens[:-1], dX[0, 1:])
    grads["start"][...] = dX[0, :1]
    return grads
