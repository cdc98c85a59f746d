import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alarmmac import learning, policies
from alarmmac.config import PolicyKind, derive_stream
from alarmmac.engine import Simulation
from alarmmac.policies import (
    DrlPopulation,
    MapRaPopulation,
    Population,
    RchPopulation,
    decayed_epsilon,
    make_policy,
    pattern_bits,
    pattern_table,
)

from conftest import CONTENTION, agent_array, make_config
import reference_mlp as ref
from reference_engine import ReferenceAgent


def test_pattern_examples():
    assert list(pattern_bits(3, 2)) == [1, 1]
    assert list(pattern_bits(0, 4)) == [0, 0, 0, 0]
    assert list(pattern_bits(19, 5)) == [1, 1, 0, 0, 1]


def test_pattern_out_of_range():
    with pytest.raises(ValueError, match="^pattern index 4 out of range for 2 channels$"):
        pattern_bits(4, 2)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_pattern_roundtrip_property(m, data):
    i = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    # bit c of the pattern carries weight 2**c
    assert sum(int(b) << c for c, b in enumerate(pattern_bits(i, m))) == i


def test_pattern_table_bijection():
    table = pattern_table(3)
    assert table.shape == (8, 3)
    assert len({tuple(row) for row in table}) == 8


def test_pattern_table_is_read_only():
    # every caller shares the cached table: a write through one would make
    # silence "succeed" for the collision rule and the oracles alike
    with pytest.raises(ValueError, match="read-only"):
        pattern_table(2)[0, 0] = 1
    assert list(pattern_table(2)[0]) == [0, 0]


def test_pattern_table_shares_one_table_among_equal_integers():
    assert pattern_table(np.int64(3)) is pattern_table(3) is pattern_table(np.uint8(3))


def test_full_exploration_is_uniform():
    cfg = make_config(epsilon_start=1.0, epsilon_floor=1.0)
    policy = MapRaPopulation(cfg, seed=0)
    agents = np.arange(cfg.n_subnets)
    rounds = 25_000
    counts = np.zeros(4)
    ctx = np.zeros((cfg.n_subnets, 2))
    for _ in range(rounds):
        counts += np.bincount(policy.select_action(agents, ctx), minlength=4)
    draws = rounds * cfg.n_subnets
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


GREEDY = dict(epsilon_start=1e-12, epsilon_floor=1e-12)  # exploration effectively off


def test_greedy_zero_network_tie_breaks_to_lowest_index():
    policy = DrlPopulation(make_config(**GREEDY), seed=1)
    policy.params[:] = 0.0
    ctx = np.tile([0.4, 0.2], (4, 1))
    assert all(list(policy.select_action(agent_array(0, 1, 2, 3), ctx)) == [0, 0, 0, 0] for _ in range(50))


def test_greedy_mapra_argmax():
    policy = MapRaPopulation(make_config(**GREEDY), seed=3)
    policy.q[0] = [0.1, 0.9, 0.3, 0.2]
    policy.q[2] = [0.5, 0.1, 0.3, 0.8]
    assert all(list(policy.select_action(agent_array(2, 0), np.zeros((2, 2)))) == [3, 1] for _ in range(50))


MIXED = dict(n_subnets=6, epsilon_start=1.0, epsilon_floor=1e-12, epsilon_step=1.0, dnn_hidden_size=4)


@pytest.mark.parametrize("kind", ["mapra", "drl"])
def test_a_batch_of_exploring_and_greedy_agents(kind):
    # agents with one ended event are greedy (epsilon 1e-12), the others
    # explore (epsilon 1); the greedy rows 0, 2, 4 are no prefix of the batch
    cfg = make_config(policy_kind=kind, **MIXED)
    policy = make_policy(cfg, seed=128)
    if kind == "drl":  # the weights of a default_rng(128) draw, for which the contexts below were chosen
        policy.params[:] = learning.init_params(cfg.layer_sizes, cfg.n_subnets, np.random.default_rng(128))
    policy.end_event(agent_array(3, 5, 0))
    agents = agent_array(3, 1, 5, 4, 0)
    contexts = np.random.default_rng(228).uniform(-4.0, 4.0, (5, 2))
    if kind == "mapra":
        policy.q[:] = np.eye(4)[[3, 0, 2, 2, 0, 1]]  # agent n's best pattern is the nth of these

    def value_of(n, context):
        if kind == "mapra":
            return policy.q[n]
        return ref.forward(ref.model_of(policy.params, cfg.layer_sizes, n), context)

    explore = np.array([False, True, False, True, False])
    twin = copy.deepcopy(policy.rng_explore)
    # the documented draws: one uniform per agent, then one per exploring agent
    assert np.array_equal(twin.random(5) < policy.eps[agents], explore)
    patterns = (twin.random(2) * cfg.n_patterns).astype(np.int64)

    actions = policy.select_action(agents, contexts)
    assert policy.rng_explore.bit_generator.state == twin.bit_generator.state
    assert np.array_equal(actions[explore], patterns)
    greedy = [int(value_of(agents[row], contexts[row]).argmax()) for row in (0, 2, 4)]
    assert list(actions[~explore]) == greedy
    # the greedy agents' choices differ, so one agent given another's row fails
    assert len(set(greedy)) == 3
    if kind == "drl":  # and so does an agent given another's context
        swapped = [int(value_of(agents[row], contexts[other]).argmax()) for row, other in ((0, 2), (2, 4), (4, 0))]
        assert swapped != greedy


@pytest.mark.parametrize("kind", ["mapra", "drl"])
def test_all_greedy_agents_draw_one_uniform_each(kind):
    # with no agent exploring, no pattern is drawn: one uniform per agent
    cfg = make_config(policy_kind=kind, **GREEDY)
    policy = make_policy(cfg, seed=5)
    agents = agent_array(3, 0, 2)
    twin = copy.deepcopy(policy.rng_explore)
    policy.select_action(agents, np.zeros((3, 2)))
    twin.random(len(agents))
    assert policy.rng_explore.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("kind", ["mapra", "drl"])
def test_all_exploring_agents_read_no_values(kind):
    policy = make_policy(make_config(policy_kind=kind, epsilon_start=1.0, epsilon_floor=1.0), seed=6)

    def no_values(agents, contexts):
        raise AssertionError("an exploring agent read its values")

    policy._values = no_values
    agents = agent_array(1, 3, 0, 2)
    twin = copy.deepcopy(policy.rng_explore)
    actions = policy.select_action(agents, np.zeros((4, 2)))
    assert np.all(twin.random(4) < 1.0)
    assert np.array_equal(actions, (twin.random(4) * 4).astype(np.int64))


def test_mapra_update_rule():
    cfg = make_config(mapra_tau=0.1)
    policy = MapRaPopulation(cfg, seed=0)
    policy.observe(agent_array(1), np.zeros((1, 2)), np.array([2]), [1.0])
    assert abs(policy.q[1, 2] - 0.1) < 1e-15
    policy.q[1, 2] = 0.0
    assert np.all(policy.q == 0.0)  # only the taken action of the observing agent moves


@pytest.mark.parametrize("n_channels", [1, 3, 5])
def test_mapra_table_update_equals_scalar_rule(rng, n_channels):
    # the flat update against the per-agent scalar rule and the rule indexed by (agents, actions)
    cfg = make_config(n_subnets=9, n_channels=n_channels, mapra_tau=0.3)
    tau = cfg.mapra_tau
    policy = MapRaPopulation(cfg, seed=0)
    policy.q[:] = rng.standard_normal(policy.q.shape)
    expected, tupled = policy.q.copy(), policy.q.copy()
    agents = agent_array(7, 2, 8, 5, 0)
    actions = rng.integers(0, cfg.n_patterns, len(agents))
    actions[2] = cfg.n_patterns - 1  # the last agent's last pattern, the table's last entry
    rewards = rng.standard_normal(len(agents))
    for n, a, r in zip(agents, actions, rewards):
        expected[n, a] = (1.0 - tau) * expected[n, a] + tau * r
    taken = (agents, actions)
    tupled[taken] = (1.0 - tau) * tupled[taken] + tau * rewards
    policy.observe(agents, np.zeros((len(agents), n_channels)), actions, rewards)
    assert np.array_equal(policy.q, expected) and np.array_equal(policy.q, tupled)


def test_mapra_rejects_nonfinite_reward():
    policy = MapRaPopulation(make_config(), seed=0)
    with pytest.raises(ValueError):
        policy.observe(agent_array(0), np.zeros((1, 2)), np.array([1]), [np.nan])


def test_epsilon_schedule_reaches_floor_after_180_events():
    cfg = make_config()
    policy = MapRaPopulation(cfg, seed=0)
    trajectory = []
    for _ in range(200):
        policy.end_event(agent_array(0))
        trajectory.append(policy.eps[0])
    assert trajectory[178] > 0.1
    assert trajectory[179] == 0.1
    assert all(v == 0.1 for v in trajectory[179:])
    assert policy.eps[1] == cfg.epsilon_start  # counted per agent


@pytest.mark.parametrize("kind", ["mapra", "drl"])
def test_held_epsilon_is_the_decayed_epsilon_of_the_event_counts(kind):
    # a step that no binary fraction holds, and a floor that some agents reach
    cfg = replace(CONTENTION, n_subnets=8, policy_kind=kind, epsilon_start=0.97, epsilon_step=0.037)
    sim = Simulation(cfg, seed=3)
    for _ in range(120):
        sim.run_slot()
    policy = sim.policy
    assert len(set(policy.events.tolist())) > 2 and (policy.eps == cfg.epsilon_floor).any()
    held = decayed_epsilon(cfg.epsilon_start, cfg.epsilon_floor, cfg.epsilon_step, policy.events)
    assert np.array_equal(policy.eps, held)


def test_decayed_epsilon_never_below_floor():
    for n in range(0, 500, 7):
        eps = decayed_epsilon(1.0, 0.1, 0.005, n)
        assert 0.1 <= eps <= 1.0


def test_rch_observe_is_noop():
    policy = RchPopulation(make_config(), seed=0)
    assert policy.observe(agent_array(0), np.zeros((1, 2)), np.array([1]), [-1.0]) is None
    policy.end_event(agent_array(0))
    counts = np.zeros(4)
    for _ in range(5_000):
        counts += np.bincount(policy.select_action(agent_array(0, 1, 2, 3), np.zeros((4, 2))), minlength=4)
    assert np.all(counts > 0)


def test_argmax_invariant_to_constant_shift(rng):
    policy = MapRaPopulation(make_config(**GREEDY), seed=0)
    policy.q[:] = rng.standard_normal(policy.q.shape)
    agents, ctx = agent_array(0, 1, 2, 3), np.zeros((4, 2))
    shifted = copy.deepcopy(policy)  # the same exploration draws as `policy`
    before = policy.select_action(agents, ctx)
    shifted.q += 123.456
    after = shifted.select_action(agents, ctx)
    assert np.array_equal(before, after)


def test_drl_observe_updates_weights_and_returns_loss():
    cfg = make_config(minibatch_size=4, replay_capacity=16)
    policy = DrlPopulation(cfg, seed=4)
    before = policy.params.copy()
    value = policy.observe(agent_array(1), np.array([[0.2, 0.4]]), np.array([3]), [1.0])
    assert value.shape == (1,) and value[0] >= 0.0
    assert list(policy.replay.pushes) == [0, 1, 0, 0]
    assert not np.array_equal(policy.params[1], before[1])
    others = [0, 2, 3]  # only the observing agent's network moves
    assert np.array_equal(policy.params[others], before[others])


def test_drl_lr_decays_per_event():
    cfg = make_config(lr_initial=0.01, lr_decay_per_event=0.015)
    policy = DrlPopulation(cfg, seed=5)
    policy.end_event(agent_array(0, 2))
    assert abs(policy.lr[0] - 0.01 * 0.985) < 1e-15
    policy.end_event(agent_array(0))
    assert abs(policy.lr[0] - 0.01 * 0.985**2) < 1e-15
    assert abs(policy.lr[2] - 0.01 * 0.985) < 1e-15
    assert policy.lr[1] == 0.01 and policy.lr[3] == 0.01


def derived_streams(monkeypatch) -> dict:
    """The streams the populations derive from here on, by label."""
    derived = {}

    def recording(seed, label):
        derived[label] = derive_stream(seed, label)
        return derived[label]

    monkeypatch.setattr(policies, "derive_stream", recording)
    return derived


@pytest.mark.parametrize("n_channels", [1, 2, 3, 4])
@pytest.mark.parametrize("hidden_layers", [1, 2, 3])
@pytest.mark.parametrize("hidden_size", [1, 4])
def test_drl_initial_weights_are_per_agent_draws(monkeypatch, hidden_size, hidden_layers, n_channels):
    cfg = make_config(n_channels=n_channels, dnn_hidden_layers=hidden_layers, dnn_hidden_size=hidden_size)
    derived = derived_streams(monkeypatch)
    policy = DrlPopulation(cfg, seed=7)
    init, twin = derived["init"], derive_stream(7, "init")
    # drawn from the init stream in agent order, as N separate networks would be
    separate = ref.stack_of([ref.init_mlp(cfg.layer_sizes, twin) for _ in range(cfg.n_subnets)])
    assert np.array_equal(policy.params, separate)
    # the learner's state is three plain arrays
    assert all(type(a) is np.ndarray for a in (policy.params, policy.sq, policy.lr))
    assert init.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("k", [1, 3, 7])
def test_stacked_observe_matches_per_agent_updates(k):
    # replay 6 and minibatch 4: memories below the minibatch for 3 updates,
    # then at or above it, then evicting. Each reference agent trains on the
    # minibatch the population drew for it, so the kernels are compared and
    # the draws are not.
    cfg = make_config(n_subnets=9, n_channels=3, minibatch_size=4, replay_capacity=6, dnn_hidden_size=3)
    policy = DrlPopulation(cfg, seed=11)
    batches = []
    sample = policy.replay.sample

    def recording_sample(*args):
        batches.append(sample(*args))
        return batches[-1]

    policy.replay.sample = recording_sample
    init = derive_stream(11, "init")
    reference = [ReferenceAgent(ref.init_mlp(cfg.layer_sizes, init), cfg) for _ in range(cfg.n_subnets)]
    data = np.random.default_rng(12)
    agents = agent_array(8, 3, 0, 5, 1, 6, 2)[:k]
    # reward scales from 0.01 to 1e4: small ones stay under the clip threshold, large ones exceed it
    scales = np.array([0.01, 1e4, 0.1, 30.0, 0.05, 1e3, 2.0][:k])
    for step in range(9):
        contexts = data.random((k, 3))
        actions = data.integers(0, 8, k)
        rewards = data.standard_normal(k) * scales
        losses = policy.observe(agents, contexts, actions, rewards)
        for row, n in enumerate(agents):
            batch = tuple(part[row] for part in batches[-1])
            expected = reference[n].observe(contexts[row], actions[row], rewards[row], batch)
            assert abs(losses[row] - expected) <= 1e-12 * max(1.0, abs(expected)), (step, row)
        if step == 4:
            policy.end_event(agents[::2])
            for n in agents[::2]:
                reference[n].opt.lr *= 1.0 - cfg.lr_decay_per_event
    fired = [reference[n].clip_fired for n in agents]
    if k > 1:
        assert max(fired) > 0 and min(fired) < 9  # the clip fires for some updates, not for all
    for n in range(cfg.n_subnets):
        model = ref.model_of(policy.params, cfg.layer_sizes, n)
        for got, want in zip(model.weights + model.biases, reference[n].model.weights + reference[n].model.biases):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        # the RMSProp averages, which only the agents' own updates move
        sq = ref.grads_to_vector(list(zip(reference[n].opt.sq_weights, reference[n].opt.sq_biases)))
        assert np.allclose(policy.sq[n], sq, rtol=1e-12, atol=1e-15)
        assert np.any(sq != 0.0) == (n in agents)


def learner_state(policy):
    """Copies of every array an update may write, per agent in its first axis."""
    rings = policy.replay.tuples.reshape(len(policy.params), policy.replay.capacity, -1)
    return {
        "params": policy.params.copy(),
        "sq": policy.sq.copy(),
        "lr": policy.lr.copy(),
        "rings": rings.copy(),
        "pushes": policy.replay.pushes.copy(),
    }


def test_observe_leaves_every_other_agents_learner_state_unchanged():
    cfg = make_config(n_subnets=9, n_channels=3, minibatch_size=4, replay_capacity=6, dnn_hidden_size=3)
    policy = DrlPopulation(cfg, seed=11)
    data = np.random.default_rng(12)
    for step in range(40):
        agents = data.permutation(cfg.n_subnets)[: data.integers(1, cfg.n_subnets)]
        others = np.setdiff1d(np.arange(cfg.n_subnets), agents)
        before = learner_state(policy)
        rewards = data.standard_normal(len(agents)) * 10.0 ** data.integers(-2, 4, len(agents))
        policy.observe(agents, data.random((len(agents), 3)), data.integers(0, 8, len(agents)), rewards)
        after = learner_state(policy)
        assert np.array_equal(after["lr"], before["lr"])  # only an event's end decays a learning rate
        for name in ("params", "sq", "rings", "pushes"):
            assert np.array_equal(after[name][others], before[name][others]), (step, name)
        assert np.all(after["pushes"][agents] == before["pushes"][agents] + 1)
        assert not np.any(np.all(after["params"][agents] == before["params"][agents], axis=1))
        policy.end_event(agents[::2])


@pytest.mark.parametrize("actions", [[5, 1], [-1, 1], [4, 0], [1.5, 2.0], [True, False]])
@pytest.mark.parametrize("kind", ["drl", "mapra"])
def test_drl_observe_rejects_an_action_outside_the_patterns(kind, actions):
    # 4 patterns. DRL: agent 2's action 5 is bin 2 * 4 + 5 = 13, agent 3's
    # action 1, so an unchecked update would move agent 3's output row for
    # action 1 and leave agent 2's output layer as it was. MAP-RA: action -1
    # would write agent 2's value of pattern 3, and action 4 raise IndexError.
    # A float or bool action is no pattern index: DRL would store 1.5 and
    # later sample it as pattern 1, and MAP-RA would raise IndexError
    cfg = make_config(policy_kind=kind, minibatch_size=4, replay_capacity=16)
    policy = make_policy(cfg, seed=4)
    state = learner_state if kind == "drl" else lambda p: {"q": p.q.copy(), "events": p.events.copy()}
    before = state(policy)
    with pytest.raises(ValueError, match="pattern indices"):
        policy.observe(agent_array(2, 3), np.full((2, 2), 0.5), np.array(actions), [1.0, 1.0])
    after = state(policy)
    assert all(np.array_equal(after[name], before[name]) for name in before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["context", "reward"])
def test_drl_observe_rejects_a_nonfinite_context_or_reward(where, bad):
    policy = DrlPopulation(make_config(minibatch_size=4, replay_capacity=16), seed=4)
    contexts, rewards = np.full((2, 2), 0.5), [1.0, 1.0]
    if where == "context":
        contexts[1, 0] = bad
    else:
        rewards[1] = bad
    before = learner_state(policy)
    with pytest.raises(ValueError, match="must be finite"):
        policy.observe(agent_array(2, 3), contexts, np.array([1, 2]), rewards)
    after = learner_state(policy)
    assert all(np.array_equal(after[name], before[name]) for name in before)


def test_drl_observe_draws_each_minibatch_from_its_own_memory_uniformly():
    # minibatch and replay 256 over 200 calls: every memory stays below the
    # minibatch, so most tuples are drawn several times. Agent n first observes at
    # call 2n, so the fills differ. Each reward names its tuple:
    # 10_000 * agent + the agent's count of earlier pushes.
    cfg = make_config(n_subnets=3, minibatch_size=256, replay_capacity=256)
    policy = DrlPopulation(cfg, seed=4)
    batches = []
    sample = policy.replay.sample

    def recording_sample(*args):
        batches.append(sample(*args))
        return batches[-1]

    policy.replay.sample = recording_sample
    calls = 200
    pushes = np.zeros(cfg.n_subnets, dtype=np.int64)
    observed = np.zeros((cfg.n_subnets, calls))  # per agent, draws of its j-th tuple
    expected = np.zeros((cfg.n_subnets, calls))
    for call in range(calls):
        agents = np.arange(min(call // 2 + 1, cfg.n_subnets))
        rewards = 10_000.0 * agents + pushes[agents]
        policy.observe(agents, np.zeros((len(agents), 2)), np.zeros(len(agents), dtype=np.int64), rewards)
        pushes[agents] += 1
        owner, tuple_of = np.divmod(batches[-1][2].astype(np.int64), 10_000)
        assert np.all(owner == agents[:, None])
        # every index lies below its memory's fill: a tuple already pushed
        assert np.all(tuple_of < pushes[agents, None])
        for row, n in enumerate(agents):
            observed[n] += np.bincount(tuple_of[row], minlength=calls)
            expected[n, : pushes[n]] += cfg.minibatch / pushes[n]
    # each stored tuple is drawn as often as a uniform draw over the fill
    # predicts, within five Poisson standard deviations
    assert np.all(np.abs(observed - expected) <= 5 * np.sqrt(expected))
    assert np.all(observed[expected == 0] == 0)


def test_mapra_converges_on_stationary_bandit():
    # fixed reward per action; greedy choice must find the best arm. Each of
    # the 100 agents is its own bandit, one row of the value table.
    rewards = np.array([0.1, 0.9, 0.3, 0.2])
    cfg = make_config(n_subnets=100, mapra_tau=0.1)
    policy = MapRaPopulation(cfg, seed=0)
    agents = np.arange(cfg.n_subnets)
    ctx = np.zeros((cfg.n_subnets, 2))
    for _ in range(2000):
        actions = policy.select_action(agents, ctx)
        policy.observe(agents, ctx, actions, rewards[actions])
        policy.end_event(agents)
    wins = int(np.sum(np.argmax(policy.q, axis=1) == 1))
    assert wins >= 95


def test_make_policy_dispatch():
    assert isinstance(make_policy(make_config(policy_kind=PolicyKind.RCH), seed=6), RchPopulation)
    assert isinstance(make_policy(make_config(policy_kind=PolicyKind.MAP_RA), seed=6), MapRaPopulation)
    assert isinstance(make_policy(make_config(policy_kind=PolicyKind.DRL), seed=6), DrlPopulation)


@pytest.mark.parametrize("population", Population.__args__, ids=lambda cls: cls.__name__)
def test_every_population_declares_whether_it_reads_contexts(population):
    # in its own class body, so that a new policy cannot inherit the answer
    assert isinstance(population.__dict__.get("reads_contexts"), bool)
