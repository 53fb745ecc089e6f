"""One flat parameter buffer: views, flat Adam, the trainer's vector pass,
and binary checkpoints."""

import json
import math
import os

import numpy as np
import pytest

from evocell import nn_core
from evocell.arch_space import SpaceConfig, random_cell
from evocell.controller import (
    ConstructionPolicy,
    encode_forward,
    init_controller,
    load_controller,
    sample_mutation,
    save_controller,
    trace_grads,
)
from evocell.nn_core import (
    AdamState,
    ParamLayout,
    adam_step,
    save_params,
)
from evocell.reinforce import ReinforceTrainer

TINY = dict(embed_size=4, hidden_size=5)
CFG = SpaceConfig(num_blocks=3, num_ops=4)


def _policy(kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "construction":
        return ConstructionPolicy(CFG, rng, **TINY)
    return init_controller(CFG, rng, bidirectional=(kind == "bi"), **TINY)


def _sampled(params, rng):
    """A trace sampled on a random cell, and the gradient of its walk."""
    cell = random_cell(CFG, rng)
    forward = encode_forward(params, cell)
    trace = sample_mutation(params, cell, rng, forward)
    return trace, trace_grads(params, forward)


# ---------------------------------------------------------------------------
# Layout and views
# ---------------------------------------------------------------------------


def _assert_named_params_tile(policy):
    """policy.named_params() are views tiling policy.p.flat in layout order."""
    flat = policy.p.flat
    start = flat.__array_interface__["data"][0]
    offset = 0
    for (name, a), shape in zip(policy.named_params(), policy.p.layout.shapes):
        assert a.base is flat and a.shape == shape, name
        assert a.flags.c_contiguous, name
        assert a.__array_interface__["data"][0] == start + 8 * offset, name
        offset += a.size
    assert offset == flat.size
    assert [n for n, _ in policy.named_params()] == list(policy.p.layout.names)


@pytest.mark.parametrize("kind", ["bi", "nonbi", "construction"])
def test_named_params_tile_the_one_buffer_in_order(kind):
    policy = _policy(kind)
    flat = policy.p.flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.owndata
    _assert_named_params_tile(policy)


def test_one_draw_equals_the_per_parameter_draws():
    # the buffer is one normal draw; drawing each parameter in layout order
    # gives the same values and leaves the generator in the same state
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    params = init_controller(CFG, rng, **TINY)
    for name, a in params.named_params():
        assert np.array_equal(a, ref.normal(0.0, 0.01, size=a.shape)), name
    assert rng.random() == ref.random()


def test_layout_names_the_parameter_at_each_index():
    layout = ParamLayout([("a", (2, 3)), ("b", (1, 1)), ("c", (4, 1))])
    assert layout.size == 11
    assert [layout.name_at(i) for i in range(11)] == ["a"] * 6 + ["b"] + ["c"] * 4


@pytest.mark.parametrize("kind", ["bi", "construction"])
def test_gradients_are_one_flat_vector_in_the_layout(kind):
    policy = _policy(kind, seed=4)
    rng = np.random.default_rng(4)
    if kind == "construction":
        grads = policy.grads(policy.sample(rng))
    else:
        _, grads = _sampled(policy, rng)
    assert grads.layout == policy.p.layout
    assert list(grads) == list(policy.p.layout.names)
    for name, g in grads.items():
        assert np.shares_memory(g, grads.flat), name


# ---------------------------------------------------------------------------
# Flat Adam and the trainer's single pass
# ---------------------------------------------------------------------------


def _per_array_adam(state, named, grads):
    """The textbook per-array update, with both moments bias-corrected
    elementwise: the reference flat Adam agrees with up to rounding."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - 0.9**t
    bc2 = 1.0 - 0.999**t
    for name, p in named:
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)


def _per_array_efficient_adam(state, named, grads):
    """Kingma & Ba's efficient form per array, its bias corrections folded
    into lr_t and eps_t: the update flat Adam runs, kept as its bitwise
    reference."""
    state["t"] += 1
    t = state["t"]
    root_bc2 = math.sqrt(1.0 - 0.999**t)
    lr_t = 0.001 * root_bc2 / (1.0 - 0.9**t)
    eps_t = 1e-8 * root_bc2
    for name, p in named:
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        p -= lr_t * (m / (np.sqrt(v) + eps_t))


def _adam_against(reference, seed):
    """Yield (flat params, reference params) after each of 200 steps of
    flat Adam and a per-array reference on the same gradients."""
    params = _policy("bi", seed=seed)
    ref = {name: a.copy() for name, a in params.named_params()}
    ref_state = {"t": 0, "m": {}, "v": {}}
    state = AdamState(lr=0.001)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        grads = params.p.layout.views(rng.normal(size=params.p.layout.size))
        grads["w_op"][...] = 0.0  # one parameter never gets a gradient
        reference(ref_state, list(ref.items()), grads)
        adam_step(state, params.p.flat, grads.flat)
        yield params.named_params(), ref


def test_flat_adam_is_bit_identical_to_per_array_adam():
    for named, ref in _adam_against(_per_array_efficient_adam, seed=8):
        for name, a in named:
            assert np.array_equal(a, ref[name]), name


# The worst gap between the two forms over these 200 steps was 2.1e-17 at
# seed 8 (1.7e-17 at seeds 1-3): three ulps of the largest parameters,
# about 0.05. The bound leaves five times that, so drift that grows with
# the step count would fail it.
TEXTBOOK_ATOL = 1e-16


def test_flat_adam_is_the_textbook_update_up_to_rounding():
    worst = 0.0
    for named, ref in _adam_against(_per_array_adam, seed=8):
        for name, a in named:
            worst = max(worst, float(np.max(np.abs(a - ref[name]))))
    assert 0.0 < worst <= TEXTBOOK_ATOL


def test_adam_slices_give_the_bits_of_one_slice(monkeypatch):
    # two whole slices and a half-slice tail, so both the boundaries and
    # the tail are covered; gradients with zeros, tiny and large entries
    size = 2 * nn_core.ADAM_SLICE + nn_core.ADAM_SLICE // 2
    rng = np.random.default_rng(11)
    start = rng.normal(0.0, 0.01, size=size)
    sliced, whole = start.copy(), start.copy()
    sliced_state, whole_state = AdamState(lr=0.001), AdamState(lr=0.001)
    grads = []
    for _ in range(5):
        g = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
        g[rng.random(size) < 0.1] = 0.0
        grads.append(g)
    for g in grads:
        adam_step(sliced_state, sliced, g)
    assert sliced_state.work.shape == (nn_core.ADAM_SLICE,)
    monkeypatch.setattr(nn_core, "ADAM_SLICE", size)
    for g in grads:
        adam_step(whole_state, whole, g)
    assert whole_state.work.shape == (size,)
    assert np.array_equal(sliced, whole)
    assert np.array_equal(sliced_state.m, whole_state.m)
    assert np.array_equal(sliced_state.v, whole_state.v)
    assert not np.array_equal(sliced, start)


def test_grad_norm_matches_the_per_array_sum():
    params = _policy("bi", seed=9)
    trace, grads = _sampled(params, np.random.default_rng(9))
    trainer = ReinforceTrainer(params.p, lr=0.001, entropy_weight=0.1)
    trainer.baseline = 0.0  # so the first advantage is not 0
    diag = trainer.update(grads, trace.total_entropy, 0.7)
    # the trainer scaled the gradient in place into the loss gradient
    per_array = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    assert per_array > 0.0
    assert abs(diag["grad_norm"] - per_array) <= 1e-12 * per_array


@pytest.mark.parametrize("name", ["embedding", "bwd.Wh", "b_op"])
def test_non_finite_gradient_raises_naming_its_parameter(name):
    params = _policy("bi", seed=10)
    trace, grads = _sampled(params, np.random.default_rng(10))
    before = params.p.flat.copy()
    trainer = ReinforceTrainer(params.p, lr=0.001, entropy_weight=0.1)
    trainer.baseline = 0.0  # so the first advantage is not 0
    grads[name].reshape(-1)[-1] = np.nan
    with pytest.raises(RuntimeError, match=f"non-finite gradient in {name!r}"):
        trainer.update(grads, trace.total_entropy, 0.7)
    assert np.array_equal(params.p.flat, before)


def test_trainer_rejects_a_gradient_of_another_layout():
    params, other = _policy("bi"), _policy("nonbi")
    _, grads = _sampled(other, np.random.default_rng(11))
    trainer = ReinforceTrainer(params.p, lr=0.001, entropy_weight=0.1)
    with pytest.raises(ValueError):
        trainer.update(grads, 0.0, 0.5)


# ---------------------------------------------------------------------------
# Binary checkpoints
# ---------------------------------------------------------------------------


def test_full_size_checkpoint_round_trip_through_a_json_name(tmp_path):
    cfg = SpaceConfig(num_blocks=5, num_ops=6)
    params = init_controller(
        cfg, np.random.default_rng(12), embed_size=100, hidden_size=100
    )
    path = os.path.join(tmp_path, "controller.json")
    save_controller(path, params)
    assert os.listdir(tmp_path) == ["controller.json"]  # written to exactly path
    assert os.path.getsize(path) < 1.5e6
    loaded = load_controller(path)
    assert loaded.p.flat.tobytes() == params.p.flat.tobytes()
    assert loaded.p.layout == params.p.layout
    _assert_named_params_tile(loaded)
    loaded.p.flat[0] += 1.0  # the loaded buffer is writable and its own
    assert loaded.p["embedding"][0, 0] == loaded.p.flat[0]


def test_version_1_json_checkpoint_is_rejected(tmp_path):
    path = os.path.join(tmp_path, "old.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "version": 1,
                "meta": {"kind": "mutation_controller"},
                "params": {"b_op": {"shape": [1, 2], "data": [0.0, 1.0]}},
            },
            fh,
        )
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_controller(path)


def _save_controller_as(path, params, named, **meta_changes):
    meta = {
        "kind": "mutation_controller",
        "num_blocks": params.num_blocks,
        "num_ops": params.num_ops,
        "embed_size": params.embed_size,
        "hidden_size": params.hidden_size,
        "bidirectional": params.bidirectional,
    }
    meta.update(meta_changes)
    # the (name, array) pairs packed into one buffer, in their order
    layout = ParamLayout([(name, a.shape) for name, a in named])
    flat = np.concatenate([a.reshape(-1) for _, a in named])
    save_params(path, layout.views(flat), meta)


def test_checkpoint_of_another_kind_is_rejected(tmp_path):
    params = _policy("bi")
    path = os.path.join(tmp_path, "c.json")
    _save_controller_as(path, params, params.named_params(), kind="oracle")
    with pytest.raises(ValueError, match="not a controller checkpoint"):
        load_controller(path)


def test_checkpoint_with_a_wrong_shape_is_rejected(tmp_path):
    params = _policy("bi")
    named = [
        (name, np.zeros((a.shape[0], 3)) if name == "w_op" else a)
        for name, a in params.named_params()
    ]
    path = os.path.join(tmp_path, "c.json")
    _save_controller_as(path, params, named)
    with pytest.raises(ValueError, match="'w_op' has shape"):
        load_controller(path)


def test_checkpoint_with_a_missing_or_extra_name_is_rejected(tmp_path):
    params = _policy("bi")
    path = os.path.join(tmp_path, "c.json")
    named = params.named_params()
    _save_controller_as(path, params, [p for p in named if p[0] != "begin_prev2"])
    with pytest.raises(ValueError, match="missing parameter 'begin_prev2'"):
        load_controller(path)
    _save_controller_as(path, params, named + [("extra", np.zeros((1, 1)))])
    with pytest.raises(ValueError, match="unexpected parameter 'extra'"):
        load_controller(path)
    _save_controller_as(path, params, [named[1], named[0]] + named[2:])
    with pytest.raises(ValueError, match="out of layout order"):
        load_controller(path)
