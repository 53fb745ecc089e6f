"""Tape form of the per-token reference: gradients by autodiff.

The same models as policy_reference.py, written on nn_core's Tensor ops so
that backward() on the returned log-prob gives every parameter's gradient.
A state is kept as a tuple of (1, width) parts; an affine map over a
concatenation is the sum of each part times its slice of rows, so no concat
op is needed. Softmaxes run over lists of (1, 1) scores.
"""

import numpy as np

from evocell.arch_space import CELL_PREV1, CELL_PREV2, cell_digits, encode_tokens
from evocell.nn_core import Tensor


def lstm_step(lstm, x, h, c):
    """One step on (1, width) Tensors; gates [input, forget, candidate, output]."""
    H = lstm.Wh.data.shape[0]
    z = x @ lstm.Wx + h @ lstm.Wh + lstm.b
    i = z.cols(0, H).sigmoid()
    f = z.cols(H, 2 * H).sigmoid()
    g = z.cols(2 * H, 3 * H).tanh()
    o = z.cols(3 * H, 4 * H).sigmoid()
    c = f * c + i * g
    return o * c.tanh(), c


def lstm_states(lstm, xs):
    H = lstm.Wh.data.shape[0]
    h, c = Tensor(np.zeros((1, H))), Tensor(np.zeros((1, H)))
    states = []
    for x in xs:
        h, c = lstm_step(lstm, x, h, c)
        states.append(h)
    return states


def _affine(parts, W, b):
    """[parts...] @ W + b, one slice of W's rows per part."""
    out, start = b, 0
    for part in parts:
        width = part.data.shape[1]
        out = out + part @ W.rows(range(start, start + width))
        start += width
    assert start == W.data.shape[0]
    return out


def _columns(row):
    return [row.cols(k, k + 1) for k in range(row.data.shape[1])]


def _scored(raws, idx):
    """(log-prob of idx, entropy) of the softmax over 2.5 tanh(raw / 5)."""
    logits = [(r / 5.0).tanh() * 2.5 for r in raws]
    top = max(l.item() for l in logits)
    lse = sum((l - top).exp() for l in logits).log() + top
    logp = [l - lse for l in logits]
    return logp[idx], -sum(lp.exp() * lp for lp in logp)


def controller_logprob(params, cell, trace):
    """The mutation policy's (total log-prob, total entropy) of trace."""
    xs = [params.embedding.row(t) for t in encode_tokens(cell)]
    states = [(s,) for s in lstm_states(params.fwd, xs)]
    if params.bwd is not None:
        backward = lstm_states(params.bwd, xs[::-1])[::-1]
        states = [f + (b,) for f, b in zip(states, backward)]
    begins = [(params.begin_prev1,), (params.begin_prev2,)]
    total_lp = total_h = 0.0
    for b, action in enumerate(trace.actions, start=1):
        fields = states[5 * (b - 1) : 5 * (b - 1) + 4]
        raws = [_affine(s, params.w_router, params.b_router) for s in fields]
        lp, h = _scored(raws, int(action.target))
        total_lp = lp + total_lp
        total_h = h + total_h
        state = fields[int(action.target)]
        if int(action.target) < 2:  # an input: score [state; candidate] pairs
            refs = list(range(1, b)) + [CELL_PREV1, CELL_PREV2]
            cands = [states[5 * (k - 1) + 4] for k in range(1, b)] + begins
            raws = [_affine(state + cand, params.w_input, params.b_input) for cand in cands]
            lp, h = _scored(raws, refs.index(int(action.replacement)))
        else:
            raws = _columns(_affine(state, params.w_op, params.b_op))
            lp, h = _scored(raws, int(action.replacement))
        total_lp = lp + total_lp
        total_h = h + total_h
    return total_lp, total_h


def construction_logprob(policy, cell):
    """The construction policy's (total log-prob, total entropy) of cell:
    per block the choices i1, i2, o1, o2, each fed back as the next input."""
    B = policy.cfg.num_blocks
    H = policy.hidden_size
    h, c = Tensor(np.zeros((1, H))), Tensor(np.zeros((1, H)))
    x = policy.start
    total_lp = total_h = 0.0
    for t, digit in enumerate(cell_digits(cell)):
        b, is_input = t // 4 + 1, t % 4 < 2
        h, c = lstm_step(policy.lstm, x, h, c)
        if is_input:  # the b + 1 legal references at block b
            raws = _columns(h @ policy.w_input + policy.b_input)[: b + 1]
        else:
            raws = _columns(h @ policy.w_op + policy.b_op)
        lp, ent = _scored(raws, digit)
        total_lp = lp + total_lp
        total_h = ent + total_h
        # token ids: input references first, then 2 + B offsets the ops
        x = policy.embedding.row(digit if is_input else 2 + B + digit)
    return total_lp, total_h
