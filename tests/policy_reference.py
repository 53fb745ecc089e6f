"""Per-token reference for both policies' log-probs and entropies.

Written from the models' definitions as plain loops: one LSTM step per
token from zero states, then each head scored and squashed on its own.
Weights are read by their layout names. Nothing here calls the
package's engine (no cached forward, no fused or batched heads), so
agreement with it checks the engine's arithmetic instead of restating it.
"""

import math

import numpy as np

from evocell.arch_space import CELL_PREV1, CELL_PREV2, cell_digits, encode_tokens


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step(lstm, x, h, c):
    """One step; gates ordered [input, forget, candidate, output]."""
    H = h.size
    z = x @ lstm.Wx + h @ lstm.Wh + lstm.b[0]
    i = _sigmoid(z[:H])
    f = _sigmoid(z[H : 2 * H])
    g = np.tanh(z[2 * H : 3 * H])
    o = _sigmoid(z[3 * H :])
    c = f * c + i * g
    return o * np.tanh(c), c


def lstm_states(lstm, xs):
    H = lstm.Wh.shape[0]
    h, c = np.zeros(H), np.zeros(H)
    states = []
    for x in xs:
        h, c = lstm_step(lstm, x, h, c)
        states.append(h)
    return states


def _scored(raw, idx):
    """(log-prob of idx, entropy) of the softmax over 2.5 tanh(raw / 5)."""
    logits = 2.5 * np.tanh(np.asarray(raw, dtype=float) / 5.0)
    top = logits.max()
    logp = logits - (top + math.log(np.exp(logits - top).sum()))
    return float(logp[idx]), float(-(np.exp(logp) * logp).sum())


def controller_logprob(params, cell, trace):
    """The mutation policy's (total log-prob, total entropy) of trace."""
    p = params.p
    xs = [p["embedding"][t] for t in encode_tokens(cell)]
    states = lstm_states(params.fwd, xs)
    if params.bwd is not None:
        backward = lstm_states(params.bwd, xs[::-1])[::-1]
        states = [np.concatenate([f, b]) for f, b in zip(states, backward)]
    begins = [p["begin_prev1"][0], p["begin_prev2"][0]]
    w_router, w_input = p["w_router"][:, 0], p["w_input"][:, 0]
    total_lp = total_h = 0.0
    for b, action in enumerate(trace.actions, start=1):
        fields = states[5 * (b - 1) : 5 * (b - 1) + 4]
        lp, h = _scored([s @ w_router for s in fields], int(action.target))
        total_lp += lp
        total_h += h
        state = fields[int(action.target)]
        if int(action.target) < 2:  # an input: score each candidate's state
            refs = list(range(1, b)) + [CELL_PREV1, CELL_PREV2]
            cands = [states[5 * (k - 1) + 4] for k in range(1, b)] + begins
            raw = [cand @ w_input for cand in cands]
            lp, h = _scored(raw, refs.index(int(action.replacement)))
        else:
            raw = state @ p["w_op"] + p["b_op"][0]
            lp, h = _scored(raw, int(action.replacement))
        total_lp += lp
        total_h += h
    return total_lp, total_h


def construction_logprob(policy, cell):
    """The construction policy's (total log-prob, total entropy) of cell:
    per block the choices i1, i2, o1, o2, each fed back as the next input."""
    B = policy.cfg.num_blocks
    H = policy.hidden_size
    h, c = np.zeros(H), np.zeros(H)
    p = policy.p
    x = p["start"][0]
    total_lp = total_h = 0.0
    for t, digit in enumerate(cell_digits(cell)):
        b, is_input = t // 4 + 1, t % 4 < 2
        h, c = lstm_step(policy.lstm, x, h, c)
        if is_input:  # the b + 1 legal references at block b
            raw = (h @ p["w_input"] + p["b_input"][0])[: b + 1]
        else:
            raw = h @ p["w_op"] + p["b_op"][0]
        lp, ent = _scored(raw, digit)
        total_lp += lp
        total_h += ent
        # token ids: input references first, then 2 + B offsets the ops
        x = p["embedding"][digit if is_input else 2 + B + digit]
    return total_lp, total_h
