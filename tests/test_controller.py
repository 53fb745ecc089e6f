"""Mutation policy: encoding, sampling walks, legality, serialization."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocell.arch_space import (
    CELL_PREV1,
    CELL_PREV2,
    BlockSpec,
    CellSpec,
    Op,
    SpaceConfig,
    cell_digits,
    encode_tokens,
    legal_inputs,
    random_cell,
    validate,
)
from evocell.controller import (
    LOG_ENCODER,
    MutationAction,
    MutationTrace,
    MutTarget,
    apply_mutation,
    encode_forward,
    init_controller,
    input_candidate_refs,
    load_controller,
    sample_mutation,
    sample_mutation_batch,
    save_controller,
    trace_from_dict,
    trace_grads,
    trace_json,
    trace_logprob,
    trace_to_dict,
)
from evocell.nn_core import check_grads
from walk_reference import reference_logprob, reference_sample

TINY = dict(embed_size=4, hidden_size=4)


def _tiny_controller(blocks=2, ops=3, seed=0, bidirectional=True):
    cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
    rng = np.random.default_rng(seed)
    return cfg, init_controller(cfg, rng, bidirectional=bidirectional, **TINY), rng


def test_encoding_counts_per_block():
    cfg, params, rng = _tiny_controller(blocks=1)
    cell = random_cell(cfg, rng)
    states = encode_forward(params, cell).states
    assert states.shape == (5, 8)  # width 2H
    assert params.p["begin_prev1"].shape == params.p["begin_prev2"].shape == (1, 8)
    cfg3, params3, rng3 = _tiny_controller(blocks=3)
    assert encode_forward(params3, random_cell(cfg3, rng3)).states.shape == (15, 8)


def test_zero_parameters_give_zero_states():
    cfg, params, rng = _tiny_controller()
    for _, a in params.named_params():
        a[:] = 0.0
    cell = random_cell(cfg, rng)
    states = encode_forward(params, cell).states
    assert np.array_equal(states, np.zeros_like(states))


def test_one_token_difference_perturbs_every_position():
    cfg, params, rng = _tiny_controller(blocks=2, ops=3, seed=9)
    a = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP5),
            BlockSpec(1, CELL_PREV1, Op.SEP7, Op.SEP3),
        ),
        num_ops=3,
    )
    b = CellSpec(
        (
            BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP5, Op.SEP5),  # o1 changed
            BlockSpec(1, CELL_PREV1, Op.SEP7, Op.SEP3),
        ),
        num_ops=3,
    )
    sa = encode_forward(params, a).states
    sb = encode_forward(params, b).states
    # a bidirectional encoder sees the whole sequence from every position
    for t in range(len(sa)):
        assert not np.array_equal(sa[t], sb[t]), f"position {t} unchanged"


def test_block_one_input_candidates_are_the_two_previous_cells():
    assert input_candidate_refs(1) == (CELL_PREV1, CELL_PREV2)
    assert input_candidate_refs(3) == (1, 2, CELL_PREV1, CELL_PREV2)
    cfg, params, rng = _tiny_controller(blocks=1, ops=2)
    cell = random_cell(cfg, rng)
    seen = set()
    for _ in range(300):
        trace = sample_mutation(params, cell, rng)
        action = trace.actions[0]
        if action.target in (MutTarget.I1, MutTarget.I2):
            seen.add(action.replacement)
            # two-way softmax: entropy can never exceed log 2
            assert action.replace_entropy <= math.log(2) + 1e-12
    assert seen <= {CELL_PREV1, CELL_PREV2}
    assert len(seen) == 2


def test_sampled_mutations_always_apply_cleanly():
    rng = np.random.default_rng(1234)
    failures = 0
    for trial in range(300):
        blocks = int(rng.integers(1, 5))
        ops = int(rng.integers(2, 7))
        cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
        params = init_controller(cfg, rng, **TINY)
        for _ in range(10):
            parent = random_cell(cfg, rng)
            trace = sample_mutation(params, parent, rng)
            assert len(trace.actions) == blocks
            child = apply_mutation(parent, trace)
            if validate(child, cfg) is not None:
                failures += 1
    assert failures == 0


def test_trace_carries_two_decisions_per_block():
    cfg, params, rng = _tiny_controller(blocks=3, ops=4)
    trace = sample_mutation(params, random_cell(cfg, rng), rng)
    assert len(trace.actions) == 3
    for action in trace.actions:
        # each action carries exactly one router and one replacement decision
        assert np.isfinite(action.router_logprob) and action.router_logprob < 0
        assert np.isfinite(action.replace_logprob) and action.replace_logprob <= 0
    assert trace.total_logprob == pytest.approx(
        sum(a.router_logprob + a.replace_logprob for a in trace.actions), abs=1e-12
    )
    assert trace.total_entropy == pytest.approx(
        sum(a.router_entropy + a.replace_entropy for a in trace.actions), abs=1e-12
    )


def test_router_frequencies_uniform_when_logits_equal():
    cfg, params, rng = _tiny_controller(blocks=2, ops=3, seed=4)
    params.p["w_router"][:] = 0.0
    cells = [random_cell(cfg, rng) for _ in range(100)]
    counts = np.zeros(4)
    n_rounds = 250  # 100 cells x 250 rounds x 2 blocks = 50_000 decisions
    for _ in range(n_rounds):
        for trace in sample_mutation_batch(params, cells, rng):
            for action in trace.actions:
                counts[int(action.target)] += 1
    n = counts.sum()
    freq = counts / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert (np.abs(freq - 0.25) <= 4 * sigma).all(), freq


def test_scalar_sampled_logprob_matches_differentiable_walk():
    rng = np.random.default_rng(77)
    for seed in range(25):
        blocks = 1 + seed % 4
        cfg = SpaceConfig(num_blocks=blocks, num_ops=2 + seed % 5)
        params = init_controller(cfg, np.random.default_rng(seed), **TINY)
        cell = random_cell(cfg, rng)
        trace = sample_mutation(params, cell, rng)
        totals = (trace.total_logprob, trace.total_entropy)
        assert trace_logprob(params, cell, trace) == totals


def test_batched_sampler_matches_differentiable_walk():
    cfg, params, rng = _tiny_controller(blocks=3, ops=4, seed=11)
    cells = [random_cell(cfg, rng) for _ in range(64)]
    traces = sample_mutation_batch(params, cells, rng)
    assert len(traces) == 64
    for cell, trace in zip(cells, traces):
        totals = (trace.total_logprob, trace.total_entropy)
        assert trace_logprob(params, cell, trace) == totals
        assert validate(apply_mutation(cell, trace), cfg) is None


def _twin(rng):
    """A generator at rng's current state, advancing separately."""
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


@pytest.mark.parametrize("size", [8, 100])
@pytest.mark.parametrize("bidirectional", [True, False])
def test_walk_matches_the_block_by_block_reference(bidirectional, size):
    # Bit for bit, decisions and floats alike. From 7 blocks an input head
    # has 8 or more candidates, where a padded softmax sum would regroup.
    for blocks in range(1, 10):
        for perturbed in (False, True):
            ops = 2 + (2 * blocks + perturbed) % 5
            cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
            rng = np.random.default_rng(100 * blocks + 10 * size + 2 * perturbed)
            params = init_controller(
                cfg, rng, embed_size=size, hidden_size=size, bidirectional=bidirectional
            )
            if perturbed:
                params.p.flat += rng.normal(0.0, 0.3, params.p.flat.size)
            previous = None
            for _ in range(4):
                cell = random_cell(cfg, rng)
                twin = _twin(rng)
                trace = sample_mutation(params, cell, rng)
                assert trace == reference_sample(params, cell, twin)
                assert rng.bit_generator.state == twin.bit_generator.state
                for t in (trace, previous or trace):
                    assert trace_logprob(params, cell, t) == reference_logprob(
                        params, cell, t
                    )
                previous = trace


def test_batch_sampler_draws_the_scalar_stream():
    cfg, params, rng = _tiny_controller(blocks=3, ops=4, seed=12)
    for _ in range(20):
        cell = random_cell(cfg, rng)
        twin = _twin(rng)
        [batched] = sample_mutation_batch(params, [cell], rng)
        assert batched == sample_mutation(params, cell, twin)
    cells = [random_cell(cfg, rng) for _ in range(37)]
    twin = _twin(rng)
    sample_mutation_batch(params, cells, rng)
    twin.random(2 * cfg.num_blocks * len(cells))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert sample_mutation_batch(params, [], rng) == []
    assert rng.bit_generator.state == twin.bit_generator.state


def test_trace_logprob_gradcheck_tiny():
    cfg, params, rng = _tiny_controller(blocks=2, ops=3, seed=2)
    cell = random_cell(cfg, rng)
    forward = encode_forward(params, cell)
    trace = sample_mutation(params, cell, rng, forward)
    err = check_grads(
        lambda: trace_logprob(params, cell, trace)[0],
        trace_grads(params, forward),
        params.named_params(),
    )
    assert err < 1e-4


@pytest.mark.parametrize("blocks, ops", [(2, 4), (1, 4), (3, 5)])
def test_a_cell_of_another_space_is_rejected(blocks, ops):
    _, params, rng = _tiny_controller(blocks=3, ops=4)
    other_cfg, other, _ = _tiny_controller(blocks=blocks, ops=ops, seed=1)
    cell = random_cell(other_cfg, rng)
    trace = sample_mutation(other, cell, rng)
    fits = random_cell(SpaceConfig(3, 4), rng)
    spaces = f"{blocks} blocks and {ops} ops .* 3 blocks and 4 ops"
    for call in (
        lambda: sample_mutation(params, cell, rng),
        lambda: sample_mutation_batch(params, [fits, cell], rng),
        lambda: trace_logprob(params, cell, trace),
    ):
        with pytest.raises(ValueError, match=spaces):
            call()


def test_entropy_bounded_by_uniform():
    cfg, params, rng = _tiny_controller(blocks=4, ops=6, seed=8)
    for _ in range(30):
        cell = random_cell(cfg, rng)
        trace = sample_mutation(params, cell, rng)
        bound = 0.0
        for b, action in enumerate(trace.actions, start=1):
            bound += math.log(4)
            if action.target in (MutTarget.I1, MutTarget.I2):
                bound += math.log(b + 1)
            else:
                bound += math.log(cfg.num_ops)
        assert trace.total_entropy <= bound + 1e-9


def test_probability_ratio_bounded_by_squashed_logits():
    # shaped logits live in [-2.5, 2.5], so max/min probability ratio <= e^5
    cfg, params, rng = _tiny_controller(blocks=2, ops=6, seed=3)
    for name, a in params.named_params():
        a *= 100.0  # push raw logits far out to stress the bound
    cell = random_cell(cfg, rng)
    for _ in range(200):
        trace = sample_mutation(params, cell, rng)
        for action in trace.actions:
            assert action.router_logprob >= math.log(1.0 / (1.0 + 3.0 * math.e**5))
            p = math.exp(action.replace_logprob)
            n = (
                action.block + 1
                if action.target in (MutTarget.I1, MutTarget.I2)
                else cfg.num_ops
            )
            assert p >= 1.0 / (1.0 + (n - 1) * math.e**5) - 1e-12


def test_apply_mutation_changes_at_most_one_field_per_block():
    cfg, params, rng = _tiny_controller(blocks=4, ops=5, seed=6)
    for _ in range(200):
        parent = random_cell(cfg, rng)
        trace = sample_mutation(params, parent, rng)
        child = apply_mutation(parent, trace)
        changed = sum(
            int(p != c) for p, c in zip(cell_digits(parent), cell_digits(child))
        )
        assert changed <= cfg.num_blocks
        per_block = [0] * cfg.num_blocks
        pd, cd = cell_digits(parent), cell_digits(child)
        for i in range(len(pd)):
            if pd[i] != cd[i]:
                per_block[i // 4] += 1
        assert max(per_block) <= 1


def test_no_op_replacement_keeps_parent():
    cell = CellSpec(
        (BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP5),), num_ops=3
    )
    trace = MutationTrace(
        (
            MutationAction(
                block=1,
                target=MutTarget.O1,
                replacement=Op.SEP3,  # same op as already present
                router_logprob=-1.0,
                replace_logprob=-1.0,
                router_entropy=1.0,
                replace_entropy=1.0,
            ),
        ),
        -2.0,
        2.0,
    )
    assert apply_mutation(cell, trace) == cell


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
def test_carried_digits_equal_the_childs_own(blocks, ops, seed, data):
    cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
    parent = random_cell(cfg, np.random.default_rng(seed))
    actions = []
    for b, blk in enumerate(parent.blocks, start=1):
        target = data.draw(st.sampled_from(MutTarget))
        current = (blk.i1, blk.i2, blk.o1, blk.o2)[target]
        if data.draw(st.booleans()):  # a no-op: the field's own value
            replacement = current
        elif target < 2:
            replacement = data.draw(st.sampled_from(legal_inputs(b)))
        else:
            replacement = data.draw(st.sampled_from(cfg.ops))
        actions.append(MutationAction(b, target, replacement, -1.0, -1.0, 1.0, 1.0))
    child = apply_mutation(parent, MutationTrace(tuple(actions), 0.0, 0.0))
    carried = vars(child)["digits"]  # filled by apply_mutation, not computed
    assert carried == CellSpec(child.blocks, ops).digits
    assert all(type(d) is int for d in carried)


def test_apply_mutation_rejects_type_confusion():
    cell = CellSpec(
        (BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP5),), num_ops=3
    )
    op_on_input = MutationTrace(
        (
            MutationAction(
                block=1, target=MutTarget.I1, replacement=Op.SEP3,
                router_logprob=-1.0, replace_logprob=-1.0,
                router_entropy=1.0, replace_entropy=1.0,
            ),
        ),
        -2.0,
        2.0,
    )
    with pytest.raises(ValueError):
        apply_mutation(cell, op_on_input)
    input_on_op = MutationTrace(
        (
            MutationAction(
                block=1, target=MutTarget.O2, replacement=CELL_PREV1,
                router_logprob=-1.0, replace_logprob=-1.0,
                router_entropy=1.0, replace_entropy=1.0,
            ),
        ),
        -2.0,
        2.0,
    )
    with pytest.raises(ValueError):
        apply_mutation(cell, input_on_op)


@pytest.mark.parametrize(
    "target, replacement",
    [(MutTarget.I1, 1), (MutTarget.I2, 0), (MutTarget.I1, -3), (MutTarget.O2, Op.AVG3)],
)
def test_apply_mutation_rejects_a_replacement_outside_its_legal_set(target, replacement):
    # block 1 reads only the two previous cells; 3 ops leave AVG3 out
    cell = CellSpec(
        (BlockSpec(CELL_PREV2, CELL_PREV1, Op.SEP3, Op.SEP5),), num_ops=3
    )
    trace = MutationTrace(
        (
            MutationAction(
                block=1, target=target, replacement=replacement,
                router_logprob=-1.0, replace_logprob=-1.0,
                router_entropy=1.0, replace_entropy=1.0,
            ),
        ),
        -2.0,
        2.0,
    )
    with pytest.raises(ValueError, match="block 1"):
        apply_mutation(cell, trace)


def test_trace_logprob_validates_the_trace():
    cfg, params, rng = _tiny_controller(blocks=2, ops=3)
    cell = random_cell(cfg, rng)
    good = sample_mutation(params, cell, rng)
    short = MutationTrace(good.actions[:1], 0.0, 0.0)
    with pytest.raises(ValueError):
        trace_logprob(params, cell, short)
    bad_op = MutationTrace(
        tuple(
            MutationAction(
                block=a.block, target=MutTarget.O1, replacement=Op.IDENT,  # ops=3
                router_logprob=a.router_logprob, replace_logprob=a.replace_logprob,
                router_entropy=a.router_entropy, replace_entropy=a.replace_entropy,
            )
            for a in good.actions
        ),
        good.total_logprob,
        good.total_entropy,
    )
    with pytest.raises(ValueError):
        trace_logprob(params, cell, bad_op)


def test_trace_json_round_trip():
    cfg, params, rng = _tiny_controller(blocks=3, ops=4)
    cell = random_cell(cfg, rng)
    trace = sample_mutation(params, cell, rng)
    payload = trace_to_dict(trace)
    back = trace_from_dict(payload)
    assert back == trace
    import json

    assert trace_from_dict(json.loads(json.dumps(payload))) == trace


def test_trace_json_tells_apart_actions_that_compare_equal():
    """Each action's text is cached on the object: equal actions whose
    floats differ in sign (0.0 == -0.0) keep their own text, and the cache
    is invisible to ==, hash, repr and asdict."""
    plus = MutationAction(1, MutTarget.I1, CELL_PREV1, 0.0, -1.5, 2.0, 1e-300)
    minus = dataclasses.replace(plus, router_logprob=-0.0)
    before = repr(plus), dataclasses.asdict(plus)
    assert plus.json_text != minus.json_text
    assert plus == minus and hash(plus) == hash(minus)
    assert (repr(plus), dataclasses.asdict(plus)) == before
    for trace in (
        MutationTrace((plus, minus, plus), -3.0, 4.0),
        MutationTrace((minus,), math.nan, -math.inf),
        MutationTrace((plus,), -math.inf, math.inf),
    ):
        assert trace_json(trace) == LOG_ENCODER.encode(trace_to_dict(trace))


class TestUnidirectional:
    @staticmethod
    def _uni():
        cfg = SpaceConfig(num_blocks=2, num_ops=3)
        uni = init_controller(
            cfg, np.random.default_rng(99), bidirectional=False, **TINY
        )
        return cfg, uni, np.random.default_rng(5)

    def test_state_width_and_counts(self):
        cfg, uni, rng = self._uni()
        assert uni.bwd is None
        cell = random_cell(cfg, rng)
        assert encode_forward(uni, cell).states.shape == (10, 4)  # width H, not 2H
        assert uni.p["begin_prev1"].shape == (1, 4)
        assert uni.p["w_input"].shape == (4, 1)

    def test_sampling_and_walk_agree(self):
        cfg, uni, rng = self._uni()
        for _ in range(20):
            cell = random_cell(cfg, rng)
            trace = sample_mutation(uni, cell, rng)
            totals = (trace.total_logprob, trace.total_entropy)
            assert trace_logprob(uni, cell, trace) == totals
            assert validate(apply_mutation(cell, trace), cfg) is None

    def test_gradcheck(self):
        cfg, uni, rng = self._uni()
        cell = random_cell(cfg, rng)
        forward = encode_forward(uni, cell)
        trace = sample_mutation(uni, cell, rng, forward)
        err = check_grads(
            lambda: trace_logprob(uni, cell, trace)[0],
            trace_grads(uni, forward),
            uni.named_params(),
        )
        assert err < 1e-4


def test_controller_checkpoint_round_trip(tmp_path):
    cfg, params, rng = _tiny_controller(blocks=2, ops=4, seed=31)
    path = os.path.join(tmp_path, "controller.json")
    save_controller(path, params)
    loaded = load_controller(path)
    for (name_a, a), (name_b, b) in zip(params.named_params(), loaded.named_params()):
        assert name_a == name_b
        assert np.array_equal(a, b)
    cell = random_cell(cfg, rng)
    r1, r2 = np.random.default_rng(1), np.random.default_rng(1)
    assert sample_mutation(params, cell, r1) == sample_mutation(loaded, cell, r2)
