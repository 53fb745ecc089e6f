"""One flat parameter buffer: views, flat Adam, the trainer's vector pass,
and binary checkpoints."""

import json
import math
import os

import numpy as np
import pytest

from evocell.arch_space import SpaceConfig, random_cell
from evocell.controller import (
    init_controller,
    load_controller,
    sample_mutation,
    save_controller,
    trace_grads,
)
from evocell.harness import ConstructionPolicy
from evocell.nn_core import (
    AdamState,
    ParamLayout,
    Tensor,
    adam_step,
    flat_buffer,
    save_params,
)
from evocell.reinforce import ReinforceTrainer, RewardConfig

TINY = dict(embed_size=4, hidden_size=5)
CFG = SpaceConfig(num_blocks=3, num_ops=4)


def _policy(kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "construction":
        return ConstructionPolicy(CFG, rng, **TINY)
    return init_controller(CFG, rng, bidirectional=(kind == "bi"), **TINY)


# ---------------------------------------------------------------------------
# Layout and views
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["bi", "nonbi", "construction"])
def test_named_params_tile_the_one_buffer_in_order(kind):
    policy = _policy(kind)
    flat = policy.flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.owndata
    start = flat.__array_interface__["data"][0]
    offset = 0
    for name, t in policy.named_params():
        assert np.shares_memory(t.data, flat), name
        assert t.data.flags.c_contiguous, name
        assert t.data.__array_interface__["data"][0] == start + 8 * offset, name
        offset += t.data.size
    assert offset == flat.size
    assert [n for n, _ in policy.named_params()] == list(policy.layout.names)
    assert flat_buffer(policy.named_params()).flat is flat


def test_one_draw_equals_the_per_parameter_draws():
    # the buffer is one normal draw; drawing each parameter in layout order
    # gives the same values and leaves the generator in the same state
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    params = init_controller(CFG, rng, **TINY)
    for name, t in params.named_params():
        assert np.array_equal(t.data, ref.normal(0.0, 0.01, size=t.data.shape)), name
    assert rng.random() == ref.random()


def test_layout_names_the_parameter_at_each_index():
    layout = ParamLayout([("a", (2, 3)), ("b", (1, 1)), ("c", (4, 1))])
    assert layout.size == 11
    assert [layout.name_at(i) for i in range(11)] == ["a"] * 6 + ["b"] + ["c"] * 4


def test_flat_buffer_rejects_tensors_that_do_not_tile_one_buffer():
    with pytest.raises(ValueError):
        flat_buffer([("a", Tensor(np.zeros((2, 2)))), ("b", Tensor(np.zeros((1, 2))))])
    params = _policy("bi")
    named = params.named_params()
    with pytest.raises(ValueError):  # out of layout order
        flat_buffer([named[1], named[0]] + named[2:])


@pytest.mark.parametrize("kind", ["bi", "construction"])
def test_gradients_are_one_flat_vector_in_the_layout(kind):
    policy = _policy(kind, seed=4)
    rng = np.random.default_rng(4)
    if kind == "construction":
        cell, _, _ = policy.sample(rng)
        _, grads = policy.grads(cell)
    else:
        cell = random_cell(CFG, rng)
        _, grads = trace_grads(policy, cell, sample_mutation(policy, cell, rng))
    assert grads.layout == policy.layout
    assert list(grads) == list(policy.layout.names)
    for name, g in grads.items():
        assert np.shares_memory(g, grads.flat), name


# ---------------------------------------------------------------------------
# Flat Adam and the trainer's single pass
# ---------------------------------------------------------------------------


def _per_array_adam(state, named, grads):
    """The per-array update flat Adam replaces, kept as its reference."""
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


def test_flat_adam_is_bit_identical_to_per_array_adam():
    params = _policy("bi", seed=8)
    ref = {name: t.data.copy() for name, t in params.named_params()}
    ref_state = {"t": 0, "m": {}, "v": {}}
    state = AdamState(lr=0.001)
    rng = np.random.default_rng(8)
    for _ in range(200):
        grads = params.layout.views(rng.normal(size=params.layout.size))
        grads["w_op"][...] = 0.0  # one parameter never gets a gradient
        _per_array_adam(ref_state, list(ref.items()), grads)
        adam_step(state, params.flat, grads.flat)
        for name, t in params.named_params():
            assert np.array_equal(t.data, ref[name]), name


def test_grad_norm_matches_the_per_array_sum():
    params = _policy("bi", seed=9)
    rng = np.random.default_rng(9)
    cell = random_cell(CFG, rng)
    trace = sample_mutation(params, cell, rng)
    trainer = ReinforceTrainer(params.named_params(), RewardConfig(baseline=None))
    seen = []

    def grad_fn():
        lp, grads = trace_grads(params, cell, trace)
        seen.append(grads)
        return lp, grads

    diag = trainer.update(grad_fn, trace.total_entropy, 0.7)
    # the trainer scaled the gradient in place into the loss gradient
    per_array = math.sqrt(sum(float(np.vdot(g, g)) for g in seen[0].values()))
    assert per_array > 0.0
    assert abs(diag["grad_norm"] - per_array) <= 1e-12 * per_array


@pytest.mark.parametrize("name", ["embedding", "bwd.Wh", "b_op"])
def test_non_finite_gradient_raises_naming_its_parameter(name):
    params = _policy("bi", seed=10)
    rng = np.random.default_rng(10)
    cell = random_cell(CFG, rng)
    trace = sample_mutation(params, cell, rng)
    before = params.flat.copy()
    trainer = ReinforceTrainer(params.named_params(), RewardConfig(baseline=None))

    def grad_fn():
        lp, grads = trace_grads(params, cell, trace)
        grads[name].reshape(-1)[-1] = np.nan
        return lp, grads

    with pytest.raises(RuntimeError, match=f"non-finite gradient in {name!r}"):
        trainer.update(grad_fn, trace.total_entropy, 0.7)
    assert np.array_equal(params.flat, before)


def test_trainer_rejects_a_gradient_of_another_layout():
    params, other = _policy("bi"), _policy("nonbi")
    rng = np.random.default_rng(11)
    cell = random_cell(CFG, rng)
    trace = sample_mutation(other, cell, rng)
    trainer = ReinforceTrainer(params.named_params())
    with pytest.raises(ValueError):
        trainer.update(lambda: trace_grads(other, cell, trace), 0.0, 0.5)


# ---------------------------------------------------------------------------
# Binary checkpoints
# ---------------------------------------------------------------------------


def test_full_size_checkpoint_round_trip_through_a_json_name(tmp_path):
    cfg = SpaceConfig(num_blocks=5, num_ops=6)
    params = init_controller(cfg, np.random.default_rng(12))  # E = H = 100
    path = os.path.join(tmp_path, "controller.json")
    save_controller(path, params)
    assert os.listdir(tmp_path) == ["controller.json"]  # written to exactly path
    assert os.path.getsize(path) < 1.5e6
    loaded = load_controller(path)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert loaded.layout == params.layout
    assert flat_buffer(loaded.named_params()).flat is loaded.flat
    loaded.flat[0] += 1.0  # the loaded buffer is writable and its own
    assert loaded.embedding.data[0, 0] == loaded.flat[0]


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
    save_params(path, named, meta)


def test_checkpoint_of_another_kind_is_rejected(tmp_path):
    params = _policy("bi")
    path = os.path.join(tmp_path, "c.json")
    _save_controller_as(path, params, params.named_params(), kind="oracle")
    with pytest.raises(ValueError, match="not a controller checkpoint"):
        load_controller(path)


def test_checkpoint_with_a_wrong_shape_is_rejected(tmp_path):
    params = _policy("bi")
    named = [
        (name, Tensor(np.zeros((t.data.shape[0], 3))) if name == "w_op" else t)
        for name, t in params.named_params()
    ]
    path = os.path.join(tmp_path, "c.json")
    _save_controller_as(path, params, named)
    with pytest.raises(ValueError, match="'w_op' has shape"):
        load_controller(path)


def test_checkpoint_with_a_missing_or_extra_name_is_rejected(tmp_path):
    params = _policy("bi")
    path = os.path.join(tmp_path, "c.json")
    named = params.named_params()
    _save_controller_as(path, params, [p for p in named if p[0] != "b_input"])
    with pytest.raises(ValueError, match="missing parameter 'b_input'"):
        load_controller(path)
    _save_controller_as(path, params, named + [("extra", Tensor(np.zeros((1, 1))))])
    with pytest.raises(ValueError, match="unexpected parameter 'extra'"):
        load_controller(path)
    _save_controller_as(path, params, [named[1], named[0]] + named[2:])
    with pytest.raises(ValueError, match="out of layout order"):
        load_controller(path)
