"""Tournament loop: selection, replacement, proposers, reproducibility."""

import functools
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocell import controller
from evocell.arch_space import SpaceConfig, random_cell
from evocell.controller import init_controller
from evocell.evaluators import MaturityModel, build_tabular
from evocell.evolution import (
    ControllerPolicy,
    Individual,
    Population,
    RandomMutationPolicy,
    evolution_step,
    initialize,
    reevaluate_finalists,
    rng_streams,
    tournament,
    uniform_integers,
)
from evocell.harness import StrategyConfig, make_oracle, run_strategy
from propose_reference import reference_propose

CFG = SpaceConfig(num_blocks=2, num_ops=3)


def _oracle(sigma=0.01, seed=7):
    return build_tabular(CFG, seed=seed, maturity=MaturityModel(sigma=sigma))


def evolve(cfg, oracle, propose, budget, pop_size, sample_size, streams):
    """A whole run as harness._records takes it: initialize, steps 1 to
    `budget`, then reevaluate_finalists; the population, the step records
    and the best."""
    pop = initialize(cfg, oracle, pop_size, streams["init"], streams["eval"])
    rngs = streams["tournament"], streams["eval"]
    records = [
        evolution_step(pop, propose, oracle, sample_size, *rngs, step)
        for step in range(1, budget + 1)
    ]
    best = reevaluate_finalists(pop, oracle, streams["eval"])
    return SimpleNamespace(population=pop, records=records, best=best)


def _ind(fitness, id, cell=None, maturity=0.1, true_fitness=0.5):
    if cell is None:
        cell = random_cell(CFG, np.random.default_rng(id))
    return Individual(
        cell=cell,
        fitness=fitness,
        true_fitness=true_fitness,
        maturity=maturity,
        id=id,
    )


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_initialize_contracts():
    oracle = _oracle()
    rng = np.random.default_rng(1)
    eval_rng = np.random.default_rng(2)
    pop = initialize(CFG, oracle, 8, rng, eval_rng)
    assert pop.capacity == 8
    assert len(pop.members) == 8
    assert pop.history == pop.members
    assert [ind.id for ind in pop.members] == list(range(8))
    assert all(ind.maturity == 0.1 for ind in pop.members)


def test_initialize_reproduces_fitness_from_streams():
    oracle = _oracle()
    pop = initialize(
        CFG, oracle, 5, np.random.default_rng(1), np.random.default_rng(2)
    )
    cell_rng = np.random.default_rng(1)
    fit_rng = np.random.default_rng(2)
    for ind in pop.members:
        cell = random_cell(CFG, cell_rng)
        assert cell == ind.cell
        assert oracle.evaluate(cell, 0.1, fit_rng) == (ind.fitness, ind.true_fitness)


def test_selection_never_reads_the_carried_true_fitness():
    oracle = _oracle()
    pops = [
        initialize(CFG, oracle, 12, np.random.default_rng(1), np.random.default_rng(2))
        for _ in range(2)
    ]
    seeing, blind = pops
    streams = [(np.random.default_rng(3), np.random.default_rng(4)) for _ in pops]
    for step in range(1, 11):
        blind.members = [replace(ind, true_fitness=float("nan")) for ind in blind.members]
        records = [
            evolution_step(
                pop, RandomMutationPolicy(CFG, policy_rng).propose, oracle, 5,
                tournament_rng, np.random.default_rng(step), step=step,
            )
            for pop, (policy_rng, tournament_rng) in zip(pops, streams)
        ]
        picked = [(r.sampled_ids, r.parent_id, r.removed_id) for r in records]
        assert picked[0] == picked[1]
        assert [m.id for m in seeing.members] == [m.id for m in blind.members]


def test_initialize_rejects_empty_population():
    with pytest.raises(ValueError):
        initialize(
            CFG, _oracle(), 0, np.random.default_rng(0), np.random.default_rng(1)
        )


# ---------------------------------------------------------------------------
# Tournament rules
# ---------------------------------------------------------------------------


def test_tournament_picks_extremes():
    sample = [_ind(0.3, 0), _ind(0.9, 1), _ind(0.5, 2)]
    best, worst = tournament(sample)
    assert (best.id, worst.id) == (1, 0)


def test_tournament_ties_favor_lower_id_as_best():
    sample = [_ind(0.5, 3), _ind(0.5, 1), _ind(0.2, 2)]
    assert tournament(sample)[0].id == 1


def test_tournament_ties_remove_higher_id_as_worst():
    sample = [_ind(0.2, 3), _ind(0.2, 1), _ind(0.5, 2)]
    assert tournament(sample)[1].id == 3


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.999]), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_one_pass_tournament_equals_keyed_max_and_min(fitnesses, random):
    """Few distinct fitness values, so most samples hold ties, in any id order."""
    ids = random.sample(range(1000), len(fitnesses))
    cell = random_cell(CFG, np.random.default_rng(0))
    sample = [_ind(f, i, cell=cell) for f, i in zip(fitnesses, ids)]
    best, worst = tournament(sample)
    assert best is max(sample, key=lambda ind: (ind.fitness, -ind.id))
    assert worst is min(sample, key=lambda ind: (ind.fitness, -ind.id))


# ---------------------------------------------------------------------------
# Uniform proposals
# ---------------------------------------------------------------------------


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)
# Every bound up to 70, one whose draws reject a quarter of the time, and the
# largest bound the helper takes.
BOUNDS = (*range(1, 71), 3 * 2**30, 2**32 - 1)


def _state(bits):
    """bits.state as text, its arrays as lists, so that == compares it."""
    return json.dumps(bits.state, default=np.ndarray.tolist)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_uniform_integers_is_generator_integers(bit_generator):
    """Every value, and the bit generator's state after every draw, equal
    Generator.integers' on each bit generator, whose own next_uint32 the
    helper reads; a bound of 1 draws nothing, as in numpy."""
    for seed in range(50):
        ours = np.random.Generator(bit_generator(seed))
        numpy_ = np.random.Generator(bit_generator(seed))
        integers = uniform_integers(ours)
        for n in BOUNDS:
            for _ in range(3):
                value = integers(n)
                assert type(value) is int and value == numpy_.integers(n), (seed, n)
                assert _state(ours.bit_generator) == _state(numpy_.bit_generator)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_uniform_integers_rejects_as_numpy_does(bit_generator):
    """At n = 3 * 2**30 the threshold is 2**30 and a word u is rejected when
    u % 4 == 0, so about a quarter of draws take a second word or more: the
    words each draw took are counted by stepping a twin generator to its
    state, and the values still match numpy's."""
    draws = rejecting = 0
    n = 3 * 2**30
    for seed in range(50):
        ours = np.random.Generator(bit_generator(seed))
        numpy_ = np.random.Generator(bit_generator(seed))
        twin = bit_generator(seed)
        step = functools.partial(twin.ctypes.next_uint32, twin.ctypes.state_address)
        integers = uniform_integers(ours)
        for _ in range(40):
            assert integers(n) == numpy_.integers(n)
            target = _state(ours.bit_generator)
            words = 0
            while _state(twin) != target:
                step()
                words += 1
                assert words < 20
            draws += 1
            rejecting += words > 1
    assert 0.2 < rejecting / draws < 0.3, rejecting / draws


@pytest.mark.parametrize(
    "blocks, ops, make_rng",
    [pytest.param(b, o, np.random.default_rng, id=f"{b}-{o}")
     for b, o in [(1, 2), (2, 3), (3, 4), (5, 6)]]
    # a non-default bit generator, whose state dict == compares
    + [pytest.param(b, o, lambda s: np.random.Generator(np.random.PCG64DXSM(s)),
                    id=f"PCG64DXSM-{b}-{o}") for b, o in [(1, 2), (5, 6)]],
)
def test_random_policy_draws_as_the_field_by_field_reference(blocks, ops, make_rng):
    cfg = SpaceConfig(num_blocks=blocks, num_ops=ops)
    cells = np.random.default_rng(blocks)
    policy = RandomMutationPolicy(cfg, make_rng(ops))
    reference = make_rng(ops)
    for _ in range(200):
        cell = random_cell(cfg, cells)
        trace = policy.propose(cell)
        # repr shows each replacement's type (Op or int) and every float's bits
        assert repr(trace) == repr(reference_propose(cell, reference))
        assert policy.rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------


def test_step_invariants_and_record():
    oracle = _oracle()
    streams = rng_streams(3)
    pop = initialize(CFG, oracle, 6, streams["init"], streams["eval"])
    policy = RandomMutationPolicy(CFG, streams["policy"])
    before_ids = {ind.id for ind in pop.members}
    rec = evolution_step(
        pop, policy.propose, oracle, 3, streams["tournament"], streams["eval"], step=1
    )
    assert len(pop.members) == 6
    assert len(pop.history) == 7
    assert rec.child_id == 6
    assert rec.removed_id in before_ids
    assert rec.removed_id not in {ind.id for ind in pop.members}
    child = pop.members[-1]
    assert child.id == rec.child_id
    assert rec.diagnostics is None
    assert len(rec.sampled_ids) == 3
    sampled = [ind for ind in pop.history if ind.id in rec.sampled_ids]
    best, worst = tournament(sampled)
    assert (best.id, worst.id) == (rec.parent_id, rec.removed_id)


def test_step_child_fitness_noiseless():
    oracle = _oracle(sigma=0.0)
    streams = rng_streams(4)
    pop = initialize(CFG, oracle, 4, streams["init"], streams["eval"])
    policy = RandomMutationPolicy(CFG, streams["policy"])
    rec = evolution_step(
        pop, policy.propose, oracle, 4, streams["tournament"], streams["eval"], step=1
    )
    child = pop.members[-1]
    expected = oracle.true_fitness(child.cell) * oracle.maturity.factor(
        child.maturity
    )
    assert rec.child_fitness == expected


def test_full_sample_selects_global_best():
    oracle = _oracle()
    streams = rng_streams(5)
    pop = initialize(CFG, oracle, 5, streams["init"], streams["eval"])
    policy = RandomMutationPolicy(CFG, streams["policy"])
    for step in range(1, 21):
        best, _ = tournament(pop.members)
        rec = evolution_step(
            pop, policy.propose, oracle, len(pop.members), streams["tournament"],
            streams["eval"], step=step,
        )
        assert rec.parent_id == best.id


def test_step_rejects_bad_sample_size():
    oracle = _oracle()
    streams = rng_streams(6)
    pop = initialize(CFG, oracle, 4, streams["init"], streams["eval"])
    policy = RandomMutationPolicy(CFG, streams["policy"])
    for bad in (0, 1, 5):
        with pytest.raises(ValueError):
            evolution_step(
                pop, policy.propose, oracle, bad, streams["tournament"], streams["eval"]
            )


def test_max_member_fitness_never_drops_without_noise():
    oracle = _oracle(sigma=0.0)
    streams = rng_streams(8)
    pop = initialize(CFG, oracle, 10, streams["init"], streams["eval"])
    policy = RandomMutationPolicy(CFG, streams["policy"])
    best = max(ind.fitness for ind in pop.members)
    for step in range(1, 1001):
        evolution_step(
            pop, policy.propose, oracle, 4, streams["tournament"], streams["eval"], step
        )
        now = max(ind.fitness for ind in pop.members)
        assert now >= best
        best = now


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------


def test_run_zero_budget_returns_initial_population():
    oracle = _oracle()
    streams = rng_streams(9)
    result = evolve(
        CFG, oracle, RandomMutationPolicy(CFG, streams["policy"]).propose,
        budget=0, pop_size=6, sample_size=3, streams=streams,
    )
    assert result.records == []
    assert len(result.population.history) == 6
    assert result.population.members == result.population.history
    assert all(ind.maturity == 0.1 for ind in result.population.members)


def test_run_history_and_final_retrain():
    oracle = _oracle()
    streams = rng_streams(10)
    result = evolve(
        CFG, oracle, RandomMutationPolicy(CFG, streams["policy"]).propose,
        budget=40, pop_size=8, sample_size=3, streams=streams,
    )
    assert len(result.population.history) == 48
    assert [ind.id for ind in result.population.history] == list(range(48))
    assert len(result.population.members) == 8
    assert all(ind.maturity == 1.0 for ind in result.population.members)
    # history keeps birth-time fitness: the retrain does not rewrite it
    by_id = {ind.id: ind for ind in result.population.history}
    assert all(by_id[ind.id].maturity < 1.0 for ind in result.population.members)
    # best is the true-fitness argmax of the final members
    truth = {ind.id: oracle.true_fitness(ind.cell) for ind in result.population.members}
    assert truth[result.best.id] == max(truth.values())


def test_run_deterministic_given_seeds():
    def one():
        oracle = _oracle()
        streams = rng_streams(11)
        return evolve(
            CFG, oracle, RandomMutationPolicy(CFG, streams["policy"]).propose,
            budget=30, pop_size=6, sample_size=3, streams=streams,
        )

    a, b = one(), one()
    assert [ind.cell for ind in a.population.history] == [
        ind.cell for ind in b.population.history
    ]
    assert [ind.fitness for ind in a.population.history] == [
        ind.fitness for ind in b.population.history
    ]
    assert a.best == b.best


def test_replay_policy_reproduces_run():
    oracle = _oracle()
    streams = rng_streams(12)
    first = evolve(
        CFG, oracle, RandomMutationPolicy(CFG, streams["policy"]).propose,
        budget=25, pop_size=5, sample_size=3, streams=streams,
    )
    traces = [rec.trace for rec in first.records]
    replay_streams = rng_streams(12)
    logged = iter(traces)
    second = evolve(
        CFG, _oracle(), lambda cell: next(logged),
        budget=25, pop_size=5, sample_size=3, streams=replay_streams,
    )
    assert [ind.fitness for ind in first.population.members] == [
        ind.fitness for ind in second.population.members
    ]
    assert [ind.cell for ind in first.population.history] == [
        ind.cell for ind in second.population.history
    ]


def test_controller_grads_needs_a_proposal_since_the_last_call():
    rng = np.random.default_rng(14)
    params = init_controller(CFG, rng, embed_size=6, hidden_size=6)
    policy = ControllerPolicy(params, rng)
    with pytest.raises(ValueError, match="proposal"):
        policy.grads()
    policy.propose(random_cell(CFG, rng))
    policy.grads()
    with pytest.raises(ValueError, match="proposal"):
        policy.grads()


def test_a_reinforced_step_walks_and_encodes_once(monkeypatch):
    # the update backpropagates the proposal's own pass and walk
    cfg = StrategyConfig(
        strategy="reinforced", space=CFG, pop_size=5, sample_size=3, budget=6,
        embed_size=6, hidden_size=6,
    )
    oracle = make_oracle(cfg)
    calls = {"_walk": 0, "_encode_ids": 0}

    def counted(name):
        fn = getattr(controller, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(controller, name, counted(name))
    _, log = run_strategy(cfg, seed=15, oracle=oracle, target=1.0)
    assert calls == {"_walk": 1, "_encode_ids": 1}
    assert [r["diagnostics"] is not None for r in log if r["kind"] == "step"] == [True]


def test_random_policy_reaches_near_optimum_on_small_space():
    # uniform mutation from tournament parents solves the 2916-cell table:
    # median evaluations to reach within 1% of the optimum stays inside a
    # 1500-evaluation budget across 20 seeds
    evals_to_target = []
    for seed in range(20):
        oracle = _oracle()
        target = 0.99 * oracle.optimum_fitness
        streams = rng_streams(seed)
        pop_size, budget = 20, 1480
        result = evolve(
            CFG, oracle, RandomMutationPolicy(CFG, streams["policy"]).propose,
            budget=budget, pop_size=pop_size, sample_size=5, streams=streams,
        )
        hit = None
        for i, ind in enumerate(result.population.history, start=1):
            if oracle.true_fitness(ind.cell) >= target:
                hit = i
                break
        evals_to_target.append(hit if hit is not None else pop_size + budget + 1)
    median = float(np.median(evals_to_target))
    assert median <= 1500, (median, sorted(evals_to_target))


# ---------------------------------------------------------------------------
# Named rng streams
# ---------------------------------------------------------------------------


def test_rng_streams_names_and_independence():
    streams = rng_streams(21)
    assert list(streams) == ["init", "tournament", "policy", "eval", "params"]
    again = rng_streams(21)
    draws = {name: streams[name].random() for name in streams}
    redraws = {name: again[name].random() for name in again}
    assert draws == redraws
    assert len(set(draws.values())) == 5  # streams do not collide
    assert rng_streams(22)["init"].random() != draws["init"]
