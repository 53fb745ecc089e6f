"""Autodiff core: tensor ops, LSTM, softmax machinery, Adam, checkpoints."""

import json
import math
import os

import numpy as np
import pytest

from evocell.nn_core import (
    AdamState,
    LSTMParams,
    Tensor,
    adam_step,
    bidir_encode,
    concat,
    entropy_from_logp,
    gradcheck,
    init_lstm,
    init_param,
    linear,
    load_params,
    log_softmax,
    lstm_backward_np,
    lstm_forward,
    lstm_forward_np,
    lstm_step,
    sample_index_np,
    save_params,
    shape_logits,
    shape_logits_np,
    softmax_sample,
)


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


def test_lstm_step_matches_hand_computation():
    rng = np.random.default_rng(42)
    Wx = rng.normal(size=(2, 8))
    Wh = rng.normal(size=(2, 8))
    b = rng.normal(size=(1, 8))
    params = LSTMParams(Wx=Tensor(Wx.copy()), Wh=Tensor(Wh.copy()), b=Tensor(b.copy()))
    x = [0.3, -0.7]
    h0 = [0.1, 0.2]
    c0 = [-0.4, 0.5]
    h_new, c_new = lstm_step(
        params, Tensor(np.array([x])), Tensor(np.array([h0])), Tensor(np.array([c0]))
    )
    h_ref, c_ref = _hand_lstm_step(x, h0, c0, Wx.tolist(), Wh.tolist(), b[0].tolist())
    assert np.allclose(h_new.data[0], h_ref, atol=1e-12)
    assert np.allclose(c_new.data[0], c_ref, atol=1e-12)


def test_zero_weight_lstm_gives_zero_states():
    params = LSTMParams(
        Wx=Tensor(np.zeros((3, 8))), Wh=Tensor(np.zeros((2, 8))), b=Tensor(np.zeros((1, 8)))
    )
    inputs = [Tensor(np.ones((1, 3))) for _ in range(4)]
    for h in lstm_forward(params, inputs):
        assert np.array_equal(h.data, np.zeros((1, 2)))


def test_lstm_gradcheck():
    rng = np.random.default_rng(7)
    params = init_lstm(4, 4, rng, std=0.5)
    xs = [Tensor(rng.normal(size=(1, 4))) for _ in range(5)]
    named = [("Wx", params.Wx), ("Wh", params.Wh), ("b", params.b)]

    def loss():
        total = None
        for h in lstm_forward(params, xs):
            s = h.sum()
            total = s if total is None else total + s
        return total

    assert gradcheck(loss, named) < 1e-4


def test_embedding_gradcheck_tight():
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(6, 4)))

    def loss():
        return (table.rows([0, 2, 2, 5]) * 1.7).sum()

    assert gradcheck(loss, [("table", table)]) < 1e-6


def test_bidir_encode_concatenates_per_position():
    rng = np.random.default_rng(9)
    fwd = init_lstm(3, 2, rng, std=0.4)
    bwd = init_lstm(3, 2, rng, std=0.4)
    xs = [Tensor(rng.normal(size=(1, 3))) for _ in range(4)]
    states = bidir_encode(fwd, bwd, xs)
    assert len(states) == 4
    assert states[0].data.shape == (1, 4)
    hs_f = lstm_forward(fwd, xs)
    hs_b = list(reversed(lstm_forward(bwd, list(reversed(xs)))))
    for t in range(4):
        assert np.array_equal(states[t].data[:, :2], hs_f[t].data)
        assert np.array_equal(states[t].data[:, 2:], hs_b[t].data)


def test_bidir_reversal_swaps_roles():
    rng = np.random.default_rng(11)
    fwd = init_lstm(3, 2, rng, std=0.4)
    bwd = init_lstm(3, 2, rng, std=0.4)
    xs = [Tensor(rng.normal(size=(1, 3))) for _ in range(5)]
    ab = bidir_encode(fwd, bwd, xs)
    ba = bidir_encode(bwd, fwd, list(reversed(xs)))
    for t in range(5):
        swapped = np.concatenate(
            [ba[4 - t].data[:, 2:], ba[4 - t].data[:, :2]], axis=1
        )
        assert np.allclose(ab[t].data, swapped, atol=1e-15)


def test_bidir_gradcheck():
    rng = np.random.default_rng(13)
    fwd = init_lstm(2, 2, rng, std=0.5)
    bwd = init_lstm(2, 2, rng, std=0.5)
    xs = [Tensor(rng.normal(size=(1, 2))) for _ in range(3)]
    named = [
        ("f.Wx", fwd.Wx), ("f.Wh", fwd.Wh), ("f.b", fwd.b),
        ("b.Wx", bwd.Wx), ("b.Wh", bwd.Wh), ("b.b", bwd.b),
    ]

    def loss():
        total = None
        for h in bidir_encode(fwd, bwd, xs):
            s = (h * h).sum()
            total = s if total is None else total + s
        return total

    assert gradcheck(loss, named) < 1e-4


def test_numpy_fast_paths_match_tape():
    rng = np.random.default_rng(21)
    params = init_lstm(3, 4, rng, std=0.3)
    X = rng.normal(size=(6, 3))
    tape_states = lstm_forward(params, [Tensor(X[t : t + 1]) for t in range(6)])
    cache = lstm_forward_np(params, np.stack([X, X * 0.5]))
    assert cache.states.shape == (2, 6, 4)
    for t in range(6):
        assert np.allclose(tape_states[t].data[0], cache.states[0, t], atol=1e-12)
    # rows are independent: a batch row equals the same sequence run alone
    alone = lstm_forward_np(params, X[None] * 0.5).states[0]
    assert np.allclose(alone, cache.states[1], atol=1e-15)
    assert np.array_equal(np.tanh(cache.c), cache.tanh_c)


def test_numpy_backward_matches_tape():
    rng = np.random.default_rng(22)
    params = init_lstm(3, 4, rng, std=0.5)
    X = rng.normal(size=(2, 5, 3))
    weights = rng.normal(size=(2, 5, 4))  # loss = sum(weights * states)
    dWx, dWh, db, dX = lstm_backward_np(params, lstm_forward_np(params, X), weights)
    xs = [[Tensor(X[n, t : t + 1]) for t in range(5)] for n in range(2)]
    loss = None
    for n in range(2):
        for t, h in enumerate(lstm_forward(params, xs[n])):
            term = (h * Tensor(weights[n, t : t + 1])).sum()
            loss = term if loss is None else loss + term
    loss.backward()
    assert np.allclose(dWx, params.Wx.grad, atol=1e-12)
    assert np.allclose(dWh, params.Wh.grad, atol=1e-12)
    assert np.allclose(db, params.b.grad, atol=1e-12)
    for n in range(2):
        for t in range(5):
            assert np.allclose(dX[n, t], xs[n][t].grad[0], atol=1e-12)


# ---------------------------------------------------------------------------
# Softmax machinery
# ---------------------------------------------------------------------------


def test_uniform_logits_give_uniform_probabilities_and_max_entropy():
    for n in (2, 4, 7):
        logp = log_softmax(Tensor(np.zeros((1, n))))
        p = np.exp(logp.data[0])
        assert np.allclose(p, 1.0 / n, atol=1e-12)
        assert abs(float(entropy_from_logp(logp).data[0, 0]) - math.log(n)) < 1e-12


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = Tensor(rng.normal(scale=4.0, size=(1, 6)))
        p = np.exp(log_softmax(logits).data[0])
        assert abs(p.sum() - 1.0) <= 1e-9
        assert (p >= 0).all()


def test_extreme_logits_pick_first_index():
    logits = Tensor(np.array([[40.0, -40.0]]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        idx, logp, _ = softmax_sample(logits, rng)
        assert idx == 0
    assert float(logp.data[0, 0]) > -1e-9


def test_softmax_sample_rejects_non_finite():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        softmax_sample(Tensor(np.array([[1.0, np.inf]])), rng)


def test_sample_frequencies_match_probabilities():
    rng = np.random.default_rng(33)
    logits = np.array([0.9, -0.3, 0.1, 1.4, -1.0])
    logp = log_softmax(Tensor(logits)).data[0]
    p = np.exp(logp)
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        counts[sample_index_np(logp, rng)] += 1
    freq = counts / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(freq - p) <= 3 * sigma + 1e-12).all(), (freq, p)


def test_log_softmax_gradcheck():
    rng = np.random.default_rng(17)
    logits = Tensor(rng.normal(size=(1, 5)))

    def loss():
        return log_softmax(logits * 1.0).pick(0, 2)

    assert gradcheck(loss, [("logits", logits)]) < 1e-6


def test_shape_logits_values():
    assert shape_logits_np(np.array([0.0]))[0] == 0.0
    assert abs(shape_logits_np(np.array([5.0]))[0] - 2.5 * math.tanh(1.0)) < 1e-15
    assert abs(shape_logits_np(np.array([1e9]))[0]) <= 2.5
    assert abs(shape_logits_np(np.array([-1e9]))[0]) <= 2.5
    raw = Tensor(np.array([[5.0, 0.0, -3.0]]))
    assert np.allclose(
        shape_logits(raw).data[0], 2.5 * np.tanh(np.array([5.0, 0.0, -3.0]) / 5.0)
    )


def test_shape_logits_gradcheck():
    rng = np.random.default_rng(19)
    raw = Tensor(rng.normal(scale=3.0, size=(1, 4)))

    def loss():
        return entropy_from_logp(log_softmax(shape_logits(raw * 1.0)))

    assert gradcheck(loss, [("raw", raw)]) < 1e-6


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0])
    before = p.copy()
    adam_step(AdamState(), p, np.zeros_like(p))
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
        adam_step(AdamState(), np.zeros(3), np.zeros(2))


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
    named = [
        ("w", init_param((4, 3), rng, std=1.3)),
        ("b", init_param((1, 3), rng, std=0.7)),
    ]
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, named, meta={"kind": "test", "note": "x"})
    meta, layout, flat = load_params(path)
    assert meta["kind"] == "test"
    arrays = layout.views(flat)
    for name, tensor in named:
        assert np.array_equal(arrays[name], tensor.data)
    with np.load(path, allow_pickle=False) as payload:
        assert json.loads(str(payload["header"]))["version"] == 2


def test_linear_matches_affine_map():
    rng = np.random.default_rng(2)
    W = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=(1, 2)))
    x = Tensor(rng.normal(size=(1, 3)))
    assert np.allclose(linear(W, b, x).data, x.data @ W.data + b.data)
