"""Tape form of the per-token reference: gradients by autodiff.

The same models as policy_reference.py, written on nn_core's Tensor ops so
that backward() on the returned log-prob gives every parameter's gradient.
The models read their weights by layout name from leaves(views): a Tensor
leaf over each of a policy's parameter views, sharing its memory. An LSTM
is its (Wx, Wh, b) leaves. A state is kept as a tuple of (1, width) parts;
an affine map over a concatenation is the sum of each part times its slice
of rows, so no concat op is needed. Softmaxes run over lists of (1, 1)
scores.
"""

import numpy as np

from evocell.arch_space import CELL_PREV1, CELL_PREV2, cell_digits, encode_tokens
from evocell.nn_core import Tensor, lstm_entries


def leaves(views):
    """name -> a Tensor leaf over that parameter's view, in layout order."""
    return {name: Tensor(view) for name, view in views.items()}


def lstm_step(lstm, x, h, c):
    """One step on (1, width) Tensors; gates [input, forget, candidate, output]."""
    Wx, Wh, b = lstm
    H = Wh.shape[0]
    z = x @ Wx + h @ Wh + b
    i = z.cols(0, H).sigmoid()
    f = z.cols(H, 2 * H).sigmoid()
    g = z.cols(2 * H, 3 * H).tanh()
    o = z.cols(3 * H, 4 * H).sigmoid()
    c = f * c + i * g
    return o * c.tanh(), c


def lstm_states(lstm, xs):
    H = lstm[1].shape[0]
    h, c = Tensor(np.zeros((1, H))), Tensor(np.zeros((1, H)))
    states = []
    for x in xs:
        h, c = lstm_step(lstm, x, h, c)
        states.append(h)
    return states


def _affine(parts, W, b=None):
    """[parts...] @ W, plus b if given, one slice of W's rows per part."""
    out, start = b, 0
    for part in parts:
        width = part.shape[1]
        term = part @ W.rows(range(start, start + width))
        out = term if out is None else out + term
        start += width
    assert start == W.shape[0]
    return out


def _columns(row):
    return [row.cols(k, k + 1) for k in range(row.shape[1])]


def _scored(raws, idx):
    """(log-prob of idx, entropy) of the softmax over 2.5 tanh(raw / 5)."""
    logits = [(r / 5.0).tanh() * 2.5 for r in raws]
    top = max(l.item() for l in logits)
    lse = sum((l - top).exp() for l in logits).log() + top
    logp = [l - lse for l in logits]
    return logp[idx], -sum(lp.exp() * lp for lp in logp)


def controller_logprob(p, cell, trace):
    """The mutation policy's (total log-prob, total entropy) of trace, on
    its leaves p; an encoder without "bwd.*" weights is forward-only."""
    xs = [p["embedding"].row(t) for t in encode_tokens(cell)]
    states = [(s,) for s in lstm_states(lstm_entries(p, "fwd"), xs)]
    if "bwd.Wx" in p:
        backward = lstm_states(lstm_entries(p, "bwd"), xs[::-1])[::-1]
        states = [f + (b,) for f, b in zip(states, backward)]
    begins = [(p["begin_prev1"],), (p["begin_prev2"],)]
    total_lp = total_h = 0.0
    for b, action in enumerate(trace.actions, start=1):
        fields = states[5 * (b - 1) : 5 * (b - 1) + 4]
        raws = [_affine(s, p["w_router"]) for s in fields]
        lp, h = _scored(raws, int(action.target))
        total_lp = lp + total_lp
        total_h = h + total_h
        state = fields[int(action.target)]
        if int(action.target) < 2:  # an input: score each candidate's state
            refs = list(range(1, b)) + [CELL_PREV1, CELL_PREV2]
            cands = [states[5 * (k - 1) + 4] for k in range(1, b)] + begins
            raws = [_affine(cand, p["w_input"]) for cand in cands]
            lp, h = _scored(raws, refs.index(int(action.replacement)))
        else:
            raws = _columns(_affine(state, p["w_op"], p["b_op"]))
            lp, h = _scored(raws, int(action.replacement))
        total_lp = lp + total_lp
        total_h = h + total_h
    return total_lp, total_h


def construction_logprob(p, cell):
    """The construction policy's (total log-prob, total entropy) of cell,
    on its leaves p: per block the choices i1, i2, o1, o2, each fed back as
    the next input."""
    B = cell.num_blocks
    lstm = lstm_entries(p, "lstm")
    H = lstm[1].shape[0]
    h, c = Tensor(np.zeros((1, H))), Tensor(np.zeros((1, H)))
    x = p["start"]
    total_lp = total_h = 0.0
    for t, digit in enumerate(cell_digits(cell)):
        b, is_input = t // 4 + 1, t % 4 < 2
        h, c = lstm_step(lstm, x, h, c)
        if is_input:  # the b + 1 legal references at block b
            raws = _columns(h @ p["w_input"] + p["b_input"])[: b + 1]
        else:
            raws = _columns(h @ p["w_op"] + p["b_op"])
        lp, ent = _scored(raws, digit)
        total_lp = lp + total_lp
        total_h = ent + total_h
        # token ids: input references first, then 2 + B offsets the ops
        x = p["embedding"].row(digit if is_input else 2 + B + digit)
    return total_lp, total_h
