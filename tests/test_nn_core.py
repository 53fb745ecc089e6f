"""nn_core: tape tensor ops, the numpy LSTM and its backward, the float
softmax head, Adam, checkpoints."""

import json
import math
import os

import numpy as np
import pytest

from evocell.nn_core import (
    AdamState,
    LSTMParams,
    ParamLayout,
    Tensor,
    adam_step,
    SquashedHead,
    check_grads,
    gradcheck,
    load_params,
    lstm_backward_np,
    lstm_forward_np,
    save_params,
)
from head_reference import entropy_np, sample_index_np, squashed_logp_np
import tape_reference


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------


def test_tensor_is_always_two_dimensional():
    assert Tensor(3.0).data.shape == (1, 1)
    assert Tensor(np.array([1.0, 2.0, 3.0])).data.shape == (1, 3)
    assert Tensor(np.zeros((2, 4))).data.shape == (2, 4)


def test_add_mul_matmul_grads():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    ((a @ b) * 2.0).sum().backward()
    # with upstream gradient 2*ones: dA = 2*ones @ B^T, dB = A^T @ 2*ones
    ones = np.ones((2, 2))
    assert np.allclose(a.grad, 2.0 * ones @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ (2.0 * ones))


def test_broadcast_bias_gradient_accumulates_rows():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.zeros((1, 3)))
    (x + b).sum().backward()
    assert np.array_equal(b.grad, np.full((1, 3), 4.0))


def test_rows_gather_and_scatter_gradient():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = table.rows([1, 1, 3])
    assert np.array_equal(out.data, table.data[[1, 1, 3]])
    out.sum().backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0  # row 1 gathered twice
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_identity_embedding_returns_unit_vector():
    table = Tensor(np.eye(5))
    out = table.rows([3])
    assert np.array_equal(out.data, np.eye(5)[[3]])


def test_division_is_exact_scalar_division():
    t = Tensor(np.array([[1.0, 2.0]]))
    assert np.array_equal((t / 5.0).data, t.data / 5.0)


def test_backward_zeroes_stale_gradients_within_graph():
    a = Tensor(np.ones((1, 2)))
    (a * 3.0).sum().backward()
    first = a.grad.copy()
    (a * 3.0).sum().backward()
    assert np.array_equal(a.grad, first)  # not doubled


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def _hand_lstm_step(x, h, c, Wx, Wh, b):
    """Plain-float recomputation of one step, gates [input, forget,
    candidate, output]."""
    H = len(h)
    z = [
        sum(x[j] * Wx[j][k] for j in range(len(x)))
        + sum(h[j] * Wh[j][k] for j in range(H))
        + b[k]
        for k in range(4 * H)
    ]
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = [sig(z[k]) for k in range(0, H)]
    f = [sig(z[k]) for k in range(H, 2 * H)]
    g = [math.tanh(z[k]) for k in range(2 * H, 3 * H)]
    o = [sig(z[k]) for k in range(3 * H, 4 * H)]
    c_new = [f[k] * c[k] + i[k] * g[k] for k in range(H)]
    h_new = [o[k] * math.tanh(c_new[k]) for k in range(H)]
    return h_new, c_new


def _lstm(input_size, hidden_size, rng, std):
    H4 = 4 * hidden_size
    shapes = ((input_size, H4), (hidden_size, H4), (1, H4))
    return LSTMParams(*(rng.normal(0.0, std, size=s) for s in shapes))


def _tape_lstm(params):
    """(Wx, Wh, b) as Tensor leaves over params' arrays, for tape_reference."""
    return tuple(Tensor(w) for w in (params.Wx, params.Wh, params.b))


def test_lstm_step_matches_hand_computation():
    rng = np.random.default_rng(42)
    params = _lstm(2, 2, rng, std=1.0)
    xs = [[0.3, -0.7], [-1.1, 0.4]]
    cache = lstm_forward_np(params, np.array([xs]))
    Wx, Wh, b = (p.tolist() for p in (params.Wx, params.Wh, params.b))
    h, c = [0.0, 0.0], [0.0, 0.0]
    for t, x in enumerate(xs):  # the second step starts from nonzero states
        h, c = _hand_lstm_step(x, h, c, Wx, Wh, b[0])
        assert np.allclose(cache.h[t, 0], h, atol=1e-12)
        assert np.allclose(cache.c[t, 0], c, atol=1e-12)


def test_zero_weight_lstm_gives_zero_states():
    params = LSTMParams(Wx=np.zeros((3, 8)), Wh=np.zeros((2, 8)), b=np.zeros((1, 8)))
    states = lstm_forward_np(params, np.ones((1, 4, 3))).states
    assert np.array_equal(states, np.zeros((1, 4, 2)))


def test_lstm_gradcheck():
    # loss = sum(weights * states): dWx, dWh, db and dX of lstm_backward_np
    rng = np.random.default_rng(7)
    params = _lstm(3, 4, rng, std=0.5)
    X = rng.normal(size=(2 * 5, 3))  # 2 sequences of 5 steps
    weights = rng.normal(size=(2, 5, 4))

    def loss():
        states = lstm_forward_np(params, X.reshape(2, 5, 3)).states
        return float((states * weights).sum())

    cache = lstm_forward_np(params, X.reshape(2, 5, 3))
    dWx, dWh, db, dX = lstm_backward_np(params, cache, weights)
    named = [("Wx", params.Wx), ("Wh", params.Wh), ("b", params.b), ("X", X)]
    analytic = {"Wx": dWx, "Wh": dWh, "b": db, "X": dX}
    assert check_grads(loss, analytic, named) < 1e-6


def test_embedding_gradcheck_tight():
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(6, 4)))

    def loss():
        return (table.rows([0, 2, 2, 5]) * 1.7).sum()

    assert gradcheck(loss, [("table", table)]) < 1e-6


def test_numpy_fast_paths_match_tape():
    rng = np.random.default_rng(21)
    params = _lstm(3, 4, rng, std=0.3)
    X = rng.normal(size=(6, 3))
    xs = [Tensor(X[t : t + 1]) for t in range(6)]
    tape_states = tape_reference.lstm_states(_tape_lstm(params), xs)
    cache = lstm_forward_np(params, np.stack([X, X * 0.5]))
    assert cache.states.shape == (2, 6, 4)
    for t in range(6):
        assert np.allclose(tape_states[t].data[0], cache.states[0, t], atol=1e-12)
    # a batch row equals the same sequence run alone
    for row, seq in enumerate((X, X * 0.5)):
        alone = lstm_forward_np(params, seq[None]).states[0]
        assert np.allclose(alone, cache.states[row], atol=1e-15)
    assert np.array_equal(np.tanh(cache.c), cache.tanh_c)


def test_numpy_backward_matches_tape():
    rng = np.random.default_rng(22)
    params = _lstm(3, 4, rng, std=0.5)
    X = rng.normal(size=(2, 5, 3))
    weights = rng.normal(size=(2, 5, 4))  # loss = sum(weights * states)
    dWx, dWh, db, dX = lstm_backward_np(params, lstm_forward_np(params, X), weights)
    xs = [[Tensor(X[n, t : t + 1]) for t in range(5)] for n in range(2)]
    tape = _tape_lstm(params)
    loss = None
    for n in range(2):
        for t, h in enumerate(tape_reference.lstm_states(tape, xs[n])):
            term = (h * Tensor(weights[n, t : t + 1])).sum()
            loss = term if loss is None else loss + term
    loss.backward()
    assert np.allclose(dWx, tape[0].grad, atol=1e-12)
    assert np.allclose(dWh, tape[1].grad, atol=1e-12)
    assert np.allclose(db, tape[2].grad, atol=1e-12)
    for n in range(2):
        for t in range(5):
            assert np.allclose(dX[n, t], xs[n][t].grad[0], atol=1e-12)


# ---------------------------------------------------------------------------
# Squashed softmax heads
# ---------------------------------------------------------------------------

def test_uniform_logits_give_uniform_probabilities_and_max_entropy():
    for n in (2, 4, 7):
        head = SquashedHead([0.0] * n)
        assert all(abs(p - 1.0 / n) <= 1e-12 for p in head.p)
        assert abs(head.entropy - math.log(n)) < 1e-12


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(1)
    for _ in range(100):
        head = SquashedHead(rng.normal(scale=4.0, size=6).tolist())
        assert abs(sum(head.p) - 1.0) <= 1e-9
        assert min(head.p) >= 0


def test_extreme_logits_pick_first_index():
    # the squash caps the odds at e^5: raw scores of +-1e3 squash to +-2.5
    # to double precision, so the first has probability 1 / (1 + e^-5), and
    # every uniform below that draws index 0
    head = SquashedHead([1e3, -1e3])
    assert abs(head.logp[0] + math.log1p(math.exp(-5.0))) < 1e-12
    rng = np.random.default_rng(0)
    for u in rng.random(200):
        assert head.draw(u) == (0 if u < head.p[0] else 1)
    assert head.draw(0.0) == 0 and head.draw(math.nextafter(1.0, 0.0)) == 1


def test_sample_frequencies_match_probabilities():
    rng = np.random.default_rng(33)
    head = SquashedHead([0.9, -0.3, 0.1, 1.4, -1.0])
    p = np.array(head.p)
    n = 100_000
    counts = np.zeros(5)
    for u in rng.random(n).tolist():
        counts[head.draw(u)] += 1
    freq = counts / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(freq - p) <= 3 * sigma + 1e-12).all(), (freq, p)


def test_draw_equals_the_searchsorted_reference():
    # the searchsorted draw over the head's log-probs, on every candidate
    # count
    rng = np.random.default_rng(41)
    for k in range(2, 8):
        rows = rng.normal(scale=4.0, size=(4000, k)).tolist()
        heads = [SquashedHead(row) for row in rows]
        seed = int(rng.integers(2**32))
        twin = np.random.default_rng(seed)
        want = [sample_index_np(np.array(h.logp), twin) for h in heads]
        u = np.random.default_rng(seed).random(len(heads)).tolist()
        assert [h.draw(x) for h, x in zip(heads, u)] == want


def test_draw_rejects_non_finite_probabilities():
    for raw in ([math.nan, 0.0], [0.0, -1.0, math.nan]):
        head = SquashedHead(raw)
        with pytest.raises(ValueError, match="cannot sample"):
            head.draw(0.5)


def test_shape_logits_values():
    # a one-candidate head's log-prob is 0 whatever its raw score; over two,
    # the squashed logits are (2.5 tanh(raw / 5), 0)
    for r in (0.0, 5.0, 1e9, -1e9):
        head = SquashedHead([r, 0.0])
        z = 2.5 * math.tanh(r / 5.0)
        assert abs(z) <= 2.5
        assert abs((head.logp[0] - head.logp[1]) - z) < 1e-15
    assert SquashedHead([0.0]).logp == [0.0]


def test_float_head_equals_the_numpy_formula_within_a_few_ulp():
    # log-probs and entropy of random rows of width 2-7 at raw scales from
    # 1e-3 to 50, against the numpy squash and log-softmax; the error is
    # counted in ulps of the logits' bound 2.5. The draws agree except where
    # the uniform lies within that tolerance of a cumulative boundary.
    tol = 4 * math.ulp(2.5)
    rng = np.random.default_rng(43)
    near_boundary = 0
    for k in range(2, 8):
        for scale in (1e-3, 1e-1, 1.0, 5.0, 50.0):
            raw = rng.normal(scale=scale, size=(500, k))
            logp = squashed_logp_np(raw)
            entropy = entropy_np(logp)
            cum = np.cumsum(np.exp(logp), axis=-1)
            u = rng.random(len(raw))
            for row, lp, h, c, x in zip(raw.tolist(), logp, entropy, cum, u):
                head = SquashedHead(row)
                assert np.abs(np.array(head.logp) - lp).max() <= tol, row
                assert abs(head.entropy - h) <= tol, row
                if np.abs(c[:-1] - x).min() <= tol:
                    near_boundary += 1
                    continue
                assert head.draw(x) == int((c[:-1] <= x).sum()), row
    assert near_boundary < 5


def _check_head_grad(raw):
    """Max central-difference error of SquashedHead.grad over every idx."""
    worst = 0.0
    for idx in range(raw.shape[1]):
        grad = np.array([SquashedHead(raw[0].tolist()).grad(idx)])
        err = check_grads(
            lambda: SquashedHead(raw[0].tolist()).logp[idx],
            {"raw": grad},
            [("raw", raw)],
        )
        worst = max(worst, err)
    return worst


def test_head_grad_is_the_one_hot_minus_p_times_the_squash_slope():
    # d logp[idx] / d raw is (onehot(idx) - p) times the squash's slope
    # 0.5 (1 - tanh(raw / 5)^2); without the slope it sums to 0
    rng = np.random.default_rng(23)
    for k in range(2, 8):
        head = SquashedHead(rng.normal(scale=4.0, size=k).tolist())
        slope = [0.5 * (1.0 - math.tanh(r / 5.0) ** 2) for r in head.raw]
        for idx in range(k):
            g = head.grad(idx)
            want = [((j == idx) - p) * s for j, (p, s) in enumerate(zip(head.p, slope))]
            assert np.allclose(g, want, rtol=0.0, atol=1e-15)
            assert abs(sum(g[j] / slope[j] for j in range(k))) < 1e-12


def test_log_softmax_gradcheck():
    # raw scores where the squash is close to linear: the log-softmax term
    rng = np.random.default_rng(17)
    assert _check_head_grad(rng.normal(scale=0.5, size=(1, 5))) < 1e-6


def test_shape_logits_gradcheck():
    # raw scores out on the tanh, where the squash's derivative matters
    rng = np.random.default_rng(19)
    for scale in (3.0, 20.0):
        raw = rng.normal(scale=scale, size=(1, 5))
        assert _check_head_grad(raw) < 1e-6


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0])
    before = p.copy()
    adam_step(AdamState(lr=0.001), p, np.zeros_like(p))
    assert np.array_equal(p, before)


def test_adam_first_step_is_signed_learning_rate():
    p = np.array([1.0, -2.0, 3.0])
    adam_step(AdamState(lr=0.001), p, np.array([0.5, -4.0, 1e-6]))
    step = p - np.array([1.0, -2.0, 3.0])
    # bias-corrected Adam's first step is -lr * sign(g) up to eps effects
    assert np.allclose(step[:2], [-0.001, 0.001], atol=1e-6)
    assert step[2] < 0


def test_adam_converges_on_quadratic():
    x = np.array([1.0])
    state = AdamState(lr=0.001)
    for _ in range(5000):
        adam_step(state, x, 2.0 * x)
    assert abs(float(x[0])) < 1e-3


def test_adam_missing_grad_treated_as_zero_but_moments_decay():
    p = np.array([1.0, 2.0])  # a, then b
    state = AdamState(lr=0.01)
    adam_step(state, p, np.array([1.0, 0.0]))
    assert float(p[1]) == 2.0  # untouched without gradient history
    moved_after_first = float(p[0])
    adam_step(state, p, np.zeros(2))
    # first-moment memory keeps nudging a even with a zero gradient
    assert float(p[0]) != moved_after_first


def test_adam_rejects_a_gradient_of_another_size():
    with pytest.raises(ValueError):
        adam_step(AdamState(lr=0.001), np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# gradcheck plumbing and checkpoints
# ---------------------------------------------------------------------------


def test_gradcheck_detects_wrong_gradient():
    t = Tensor(np.array([[2.0]]))

    def loss():
        out = (t * t).sum()
        return out

    assert gradcheck(loss, [("t", t)]) < 1e-8

    bad = Tensor(np.array([[2.0]]))

    def bad_loss():
        out = (bad * bad).sum()
        # sabotage: sever the root's backward so the analytic gradient is 0
        # while the numeric derivative stays 2x = 4
        out._backward_fn = None
        return out

    assert gradcheck(bad_loss, [("bad", bad)]) > 0.1


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    views = ParamLayout([("w", (4, 3)), ("b", (1, 3))]).zeros()
    views["w"][...] = rng.normal(0.0, 1.3, size=(4, 3))
    views["b"][...] = rng.normal(0.0, 0.7, size=(1, 3))
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, views, meta={"kind": "test", "note": "x"})
    meta, layout, flat = load_params(path)
    assert meta["kind"] == "test"
    assert layout == views.layout
    arrays = layout.views(flat)
    for name, view in views.items():
        assert np.array_equal(arrays[name], view)
    with np.load(path, allow_pickle=False) as payload:
        assert json.loads(str(payload["header"]))["version"] == 2

