"""numpy policy engine: log-probs against an independent per-token
reference, gradients of the sampling walk against that reference's tape
form, against central differences and byte for byte against per-decision
re-scoring."""

import copy

import numpy as np
import pytest

from evocell import nn_core
from evocell.arch_space import SpaceConfig, random_cell
from evocell.controller import (
    ConstructionPolicy,
    encode_forward,
    init_controller,
    sample_mutation,
    sample_mutation_batch,
    trace_grads,
    trace_logprob,
)
from evocell.evolution import ControllerPolicy
from evocell.nn_core import check_grads
import grad_reference
from policy_reference import construction_logprob, controller_logprob
import tape_reference


def _perturb(named_params, rng, scale=0.5):
    # move the weights off the near-uniform init so every term matters
    for _, a in named_params:
        a += rng.normal(0.0, scale, size=a.shape)


def _space(seed):
    return SpaceConfig(num_blocks=1 + seed % 4, num_ops=2 + seed % 5)


def _controller_draw(seed, bidirectional, size=8, space=_space):
    """Perturbed parameters, a cell, the trace sampled on it, the gradient
    of that trace's walk, and the rng."""
    rng = np.random.default_rng(seed)
    cfg = space(seed)
    params = init_controller(
        cfg, rng, embed_size=size, hidden_size=size, bidirectional=bidirectional
    )
    _perturb(params.named_params(), rng)
    cell = random_cell(cfg, rng)
    forward = encode_forward(params, cell)
    trace = sample_mutation(params, cell, rng, forward)
    return params, cell, trace, trace_grads(params, forward), rng


def _construction_draw(seed, size=8, space=_space):
    rng = np.random.default_rng(seed)
    cfg = space(seed)
    policy = ConstructionPolicy(cfg, rng, embed_size=size, hidden_size=size)
    _perturb(policy.named_params(), rng)
    return policy, rng


def _assert_close(got, want):
    assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12


def _tape_grads(views, f):
    """f's value and the gradient of each leaf over views, by the tape."""
    leaves = tape_reference.leaves(views)
    out = f(leaves)
    out.backward()
    grads = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in leaves.items()
    }
    return out.item(), grads


def _assert_match(named_params, walk_lp, fused, tape_lp, tape):
    assert set(fused) == {name for name, _ in named_params}
    assert abs(walk_lp - tape_lp) <= 1e-12
    for name, a in named_params:
        assert fused[name].shape == a.shape, name
        assert np.abs(fused[name] - tape[name]).max() <= 1e-12, name


@pytest.mark.parametrize("bidirectional", [True, False])
def test_controller_grads_match_tape(bidirectional):
    for seed in range(20):
        params, cell, trace, grads, _ = _controller_draw(seed, bidirectional)
        named = params.named_params()
        lp, _ = trace_logprob(params, cell, trace)
        tape_lp, tape = _tape_grads(
            params.p, lambda p: tape_reference.controller_logprob(p, cell, trace)[0]
        )
        _assert_match(named, lp, grads, tape_lp, tape)


def test_construction_grads_match_tape():
    for seed in range(20):
        policy, rng = _construction_draw(seed)
        named = policy.named_params()
        walk = policy.sample(rng)
        cell, grads = walk.cell, policy.grads(walk)
        lp, _ = policy.logprob(cell)
        tape_lp, tape = _tape_grads(
            policy.p, lambda p: tape_reference.construction_logprob(p, cell)[0]
        )
        _assert_match(named, lp, grads, tape_lp, tape)


@pytest.mark.parametrize("bidirectional", [True, False])
def test_trace_logprob_and_samplers_match_the_reference(bidirectional):
    for seed in range(20):
        params, cell, trace, _, rng = _controller_draw(seed, bidirectional)
        want = controller_logprob(params, cell, trace)
        _assert_close(trace_logprob(params, cell, trace), want)
        _assert_close((trace.total_logprob, trace.total_entropy), want)
        cfg = SpaceConfig(params.num_blocks, params.num_ops)
        cells = [random_cell(cfg, rng) for _ in range(5)]
        for parent, batched in zip(cells, sample_mutation_batch(params, cells, rng)):
            _assert_close(
                (batched.total_logprob, batched.total_entropy),
                controller_logprob(params, parent, batched),
            )


def test_trace_logprob_recomputes_a_fresh_sample_bit_for_bit():
    for seed in range(10):
        params, cell, trace, _, _ = _controller_draw(seed, seed % 2 == 0)
        assert trace_logprob(params, cell, trace) == (
            trace.total_logprob,
            trace.total_entropy,
        )


def test_construction_logprob_matches_the_reference():
    for seed in range(20):
        policy, rng = _construction_draw(seed)
        walk = policy.sample(rng)
        cell = walk.cell
        want = construction_logprob(policy, cell)
        _assert_close((walk.total_logprob, walk.total_entropy), want)
        _assert_close(policy.logprob(cell), want)
        other = random_cell(policy.cfg, rng)
        _assert_close(policy.logprob(other), construction_logprob(policy, other))


def test_fused_grads_pass_central_differences():
    # off the near-uniform init; criterion 3 covers the init itself
    for seed in range(4):
        params, cell, trace, grads, _ = _controller_draw(seed, seed < 2, size=4)
        err = check_grads(
            lambda: trace_logprob(params, cell, trace)[0], grads, params.named_params()
        )
        assert err < 1e-4
        policy, rng = _construction_draw(seed, size=4)
        walk = policy.sample(rng)
        grads, cell = policy.grads(walk), walk.cell
        err = check_grads(lambda: policy.logprob(cell)[0], grads, policy.named_params())
        assert err < 1e-4


def _assert_same(a, b):
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_sampling_forward_gives_the_fresh_gradient_bit_for_bit():
    # the policy's update differentiates the pass its proposal kept, as a
    # fresh pass sampled at the same draws does
    for seed in range(6):
        params, cell, _, _, rng = _controller_draw(seed, seed % 2 == 0)
        twin = copy.deepcopy(rng)
        policy = ControllerPolicy(params, rng)
        trace = policy.propose(cell)
        forward = encode_forward(params, cell)
        assert sample_mutation(params, cell, twin, forward) == trace
        _assert_same(policy.grads(), trace_grads(params, forward))


def test_construction_sampling_walk_gives_the_fresh_gradient_bit_for_bit():
    # the policy keeps no sample state: a walk's gradient is its own, after
    # another sample too
    cfg = SpaceConfig(num_blocks=3, num_ops=4)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        policy = ConstructionPolicy(cfg, rng, embed_size=8, hidden_size=8)
        _perturb(policy.named_params(), rng)
        walk = policy.sample(rng)
        assert policy.logprob(walk.cell) == (walk.total_logprob, walk.total_entropy)
        first = policy.grads(walk)
        policy.sample(rng)
        _assert_same(policy.grads(walk), first)


def _assert_bytes(got, want):
    assert got.flat.tobytes() == want.flat.tobytes()


def _every_space(seed):
    """Seeds 0-24 give every pair of 1-5 blocks and 2-6 ops."""
    return SpaceConfig(num_blocks=1 + seed % 5, num_ops=2 + seed // 5)


@pytest.mark.parametrize("size", [8, 100])
@pytest.mark.parametrize("bidirectional", [True, False])
def test_controller_grads_equal_per_block_rescoring_byte_for_byte(bidirectional, size):
    for seed in range(25):
        params, cell, trace, grads, _ = _controller_draw(
            seed, bidirectional, size, _every_space
        )
        _assert_bytes(grads, grad_reference.controller_grads(params, cell, trace))


@pytest.mark.parametrize("size", [8, 100])
def test_construction_grads_equal_per_token_rescoring_byte_for_byte(size):
    for seed in range(25):
        policy, rng = _construction_draw(seed, size, _every_space)
        walk = policy.sample(rng)
        want = grad_reference.construction_grads(policy, walk.cell)
        _assert_bytes(policy.grads(walk), want)


def test_gradients_rescore_nothing_after_sampling(monkeypatch):
    # a head is scored only when a SquashedHead is built; both backwards
    # differentiate the heads their walk kept, and a backward that scores
    # its heads again trips the patch
    params, cell, _, _, rng = _controller_draw(4, bidirectional=True)
    forward = encode_forward(params, cell)
    sample_mutation(params, cell, rng, forward)
    policy, rng = _construction_draw(4)
    built = policy.sample(rng)

    def score_again(*args, **kwargs):
        raise AssertionError("a head was scored again")

    monkeypatch.setattr(nn_core.SquashedHead, "__init__", score_again)
    trace_grads(params, forward)
    policy.grads(built)
    with pytest.raises(AssertionError, match="scored again"):
        grad_reference.controller_grads(params, cell, forward.walk.trace)
    with pytest.raises(AssertionError, match="scored again"):
        grad_reference.construction_grads(policy, built.cell)


def test_one_nan_parameter_makes_every_sampler_raise():
    # a NaN score reaches the head's probabilities, whose sum the draw
    # rejects, instead of falling through the inverse-CDF draw to index 0
    # and being logged as a legal choice
    params, cell, _, _, rng = _controller_draw(0, bidirectional=True)
    cfg = SpaceConfig(params.num_blocks, params.num_ops)
    cells = [random_cell(cfg, rng) for _ in range(16)]
    for name in ("w_router", "b_op", "w_input", "embedding"):
        saved = params.p[name][0, 0]
        params.p[name][0, 0] = np.nan
        with pytest.raises(ValueError, match="cannot sample"):
            sample_mutation_batch(params, [cell] + cells, rng)
        params.p[name][0, 0] = saved
    params.p["w_router"][0, 0] = np.nan  # every walk scores a router
    with pytest.raises(ValueError, match="cannot sample"):
        sample_mutation(params, cell, rng)
    policy, rng = _construction_draw(0)
    for name in ("b_input", "b_op", "start"):
        saved = policy.p[name][0, 0]
        policy.p[name][0, 0] = np.nan
        with pytest.raises(ValueError, match="cannot sample"):
            policy.sample(rng)
        policy.p[name][0, 0] = saved


# Every layout entry must move its policy's log-prob at init. Over 300
# walks sampled at init, the smallest mean |gradient| per element of any
# entry was 4.9e-7 (bwd.Wh, bidirectional controller, 1 block, E = H = 8),
# 2.4x above this floor. The router bias, input bias and input query half
# that the controller once had read at most 9.5e-8 there (b_input,
# forward-only, 1 block, E = H = 8), 2.1x below it: each added the same
# value to every candidate of its head, and the softmax cancels such a
# shift except through the squash's curvature.
LIVE_GRAD_FLOOR = 2e-7


def _mean_abs_grads(layout, walk_grads, n=300):
    """name -> mean |gradient| per element over n walks' gradients."""
    total = layout.zeros()
    for _ in range(n):
        total.flat[:] += np.abs(walk_grads().flat)
    return {name: float(a.mean()) / n for name, a in total.items()}


@pytest.mark.parametrize("blocks, ops", [(1, 2), (3, 4)])
@pytest.mark.parametrize("size", [8, 100])
@pytest.mark.parametrize("policy", ["bidirectional", "forward-only", "construction"])
def test_no_layout_entry_is_inert_at_init(policy, size, blocks, ops):
    rng = np.random.default_rng(0)
    cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
    if policy == "construction":
        built = ConstructionPolicy(cfg, rng, embed_size=size, hidden_size=size)
        means = _mean_abs_grads(built.p.layout, lambda: built.grads(built.sample(rng)))
    else:
        params = init_controller(
            cfg, rng, size, size, bidirectional=policy == "bidirectional"
        )

        def walk_grads():
            cell = random_cell(cfg, rng)
            forward = encode_forward(params, cell)
            sample_mutation(params, cell, rng, forward)
            return trace_grads(params, forward)

        means = _mean_abs_grads(params.p.layout, walk_grads)
    inert = {name: m for name, m in means.items() if m < LIVE_GRAD_FLOOR}
    assert not inert, inert
