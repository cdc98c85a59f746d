import copy
import gc
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from alarmmac import channel, engine
from alarmmac.config import ActivationMode, PolicyKind, derive_stream
from alarmmac.engine import Simulation, resolve_collisions
from alarmmac.events import maybe_spawn_event
from alarmmac.geometry import step_mobility
from alarmmac.policies import DrlPopulation, MapRaPopulation, RchPopulation
from conftest import BOUNCING, CONTENTION, FixedPolicy, counting, inject_event, make_config
from reference_engine import round_contexts
from test_golden import GOLDEN, SCENARIOS, run_digest


def test_worked_five_agent_example():
    # channels x agents matrix [[0,0,0,0,1],[1,1,0,1,1]]: agents 1, 2, 4 on
    # channel 2, agent 5 on both, agent 3 silent; channel 1 carries exactly one
    patterns = [2, 2, 0, 2, 3]
    assert resolve_collisions(patterns, 2) is True


def test_two_agents_same_channel_collide():
    assert resolve_collisions([1, 1], 2) is False


def test_single_silent_agent_fails():
    assert resolve_collisions([0], 2) is False


@pytest.mark.parametrize(
    "actions",
    [
        [-1],  # used to wrap to the last pattern, which uses every channel
        [2, -3],
        [4],  # one past the last of the 2**2 patterns
        np.array([0, 7]),
        [1.5],  # used to truncate to pattern 1
        [1.0, 2.0],  # a float index is refused even when it is whole
        np.array([True]),
    ],
)
def test_pattern_index_outside_the_patterns_refused_naming_the_range(actions):
    with pytest.raises(ValueError, match=r"integers in \[0, 4\) for 2 channels"):
        resolve_collisions(actions, 2)


def quiet_world(**overrides):
    overrides.setdefault("n_subnets", 2)
    overrides.setdefault("n_channels", 2)
    overrides.setdefault("alpha", 0.0)
    overrides.setdefault("policy_kind", PolicyKind.RCH)
    sim = Simulation(make_config(**overrides), seed=1)
    return sim


def test_no_live_alarm_means_no_policy_calls():
    sim = quiet_world(policy_kind=PolicyKind.DRL)
    for _ in range(50):
        outcome = sim.run_slot()
        assert outcome.age is None and not outcome.success
    assert sim.trace.n_contention_slots == 0
    assert not sim.policy.replay.pushes.any()
    assert len(sim.trace.events) == 0


def test_shared_reward_rewards_all_on_delivery():
    sim = quiet_world()
    sim.policy = FixedPolicy([1, 2])  # disjoint single channels
    inject_event(sim, (0, 1))
    outcome = sim.run_slot()
    assert outcome.success and list(sim.trace.events)[0].end_slot == 0
    assert sim.event is None
    assert sim.policy.observed[0] == [(1, 1.0)]
    assert sim.policy.observed[1] == [(2, 1.0)]
    assert sim.policy.events_ended[0] == 1 and sim.policy.events_ended[1] == 1
    assert len(sim.trace.events) == 1 and list(sim.trace.events)[0].delivered


def test_shared_reward_penalizes_all_on_collision():
    for reward_failure in (-1.0, 0.0):
        sim = quiet_world(reward_failure=reward_failure)
        sim.policy = FixedPolicy([1, 1])
        event = inject_event(sim, (0, 1))
        outcome = sim.run_slot()
        assert not outcome.success and sim.event is event and list(sim.trace.events) == []
        assert sim.policy.observed[0] == [(1, reward_failure)]
        assert sim.policy.observed[1] == [(1, reward_failure)]
        assert outcome.age == 0 and sim.trace.n_slots - event.birth_slot == 1


def test_forced_collision_runs_deadline_plus_one_slots_then_fails():
    deadline = 5
    sim = quiet_world(deadline_slots=deadline)
    sim.policy = FixedPolicy([1, 1])
    event = inject_event(sim, (0, 1))
    for age in range(deadline + 1):
        assert sim.event is event
        assert sim.run_slot().age == age
    (record,) = sim.trace.events
    assert sim.event is None and not record.delivered
    assert (record.birth_slot, record.end_slot) == (0, deadline) and record.attempts == deadline + 1
    assert sim.trace.n_slots == deadline + 1
    assert sim.trace.n_contention_slots == deadline + 1
    assert sim.policy.events_ended[0] == 1
    # deactivated: the following slots hold no contention
    sim.run_slot()
    assert sim.trace.n_contention_slots == deadline + 1


def test_events_end_after_the_slots_update():
    # a collided event ends by its deadline, a delivered one by delivery:
    # either way the slot's update comes before the event's end
    for patterns, delivered in (([1, 1], False), ([1, 2], True)):
        sim = quiet_world(deadline_slots=0)
        sim.policy = FixedPolicy(patterns)
        inject_event(sim, (0, 1))
        sim.run_slot()
        assert sim.event is None and [e.delivered for e in sim.trace.events] == [delivered]
        assert sim.policy.calls == [("observe", (0, 1)), ("end_event", (0, 1))]


def test_no_event_draws_while_an_alarm_is_live():
    sim = quiet_world(alpha=1.0, deadline_slots=4)
    sim.policy = FixedPolicy([1, 1])  # every round collides, so the alarm lives D + 1 slots
    inject_event(sim, (0, 1))
    before = sim.rng_events.bit_generator.state
    for _ in range(5):
        sim.run_slot()
    assert sim.event is None and len(sim.trace.events) == 1
    assert sim.rng_events.bit_generator.state == before
    sim.run_slot()  # idle again: the spawn check draws
    assert sim.rng_events.bit_generator.state != before


def test_training_tuples_only_for_active_agents():
    sim = quiet_world(n_subnets=3)
    sim.policy = FixedPolicy([1, 2, 3])
    inject_event(sim, (0, 1))
    sim.run_slot()
    assert sim.policy.observed[2] == []
    assert sim.policy.events_ended[2] == 0


def test_run_zero_slots_empty_trace():
    cfg = make_config(n_slots=0)
    trace = Simulation(cfg, seed=3).run()
    assert trace.n_slots == 0 and trace.n_contention_slots == 0 and list(trace.events) == []


def test_run_alpha_zero_no_events():
    cfg = make_config(alpha=0.0, n_slots=300)
    trace = Simulation(cfg, seed=3).run()
    assert len(trace.events) == 0 and trace.n_contention_slots == 0


def test_run_until_events_checks_the_count_before_each_slot():
    cfg = replace(CONTENTION, policy_kind=PolicyKind.RCH, n_slots=500)
    assert Simulation(cfg, seed=3).run(until_events=0).n_slots == 0
    # a positive count stops after the slot that ends its last event
    trace = Simulation(cfg, seed=3).run(until_events=2)
    stepped = Simulation(cfg, seed=3)
    while len(stepped.trace.events) < 2:
        stepped.run_slot()
    assert len(trace.events) == 2 and trace.n_slots == stepped.trace.n_slots > 0


def run_collecting(cfg, seed):
    """(trace, outcome of every contention slot) of one seeded run."""
    sim = Simulation(cfg, seed=seed)
    outcomes = [sim.run_slot() for _ in range(cfg.n_slots)]
    return sim.trace, [o for o in outcomes if o.age is not None]


def test_run_deterministic_given_seed():
    cfg = make_config(
        n_subnets=6, n_slots=800, alpha=0.4, eta=0.05, tx_threshold=0.3,
        deadline_slots=4, policy_kind=PolicyKind.DRL,
    )
    a, a_outcomes = run_collecting(cfg, seed=11)
    b, b_outcomes = run_collecting(cfg, seed=11)
    assert a.n_contention_slots == b.n_contention_slots
    assert [e.end_slot for e in a.events] == [e.end_slot for e in b.events]
    assert [e.delivered for e in a.events] == [e.delivered for e in b.events]
    assert a.mse == b.mse
    assert [o.success for o in a_outcomes] == [o.success for o in b_outcomes]
    assert len(a_outcomes) == a.n_contention_slots
    assert a.n_successful_slots == sum(o.success for o in a_outcomes)


def test_every_event_reaches_exactly_one_terminal_state():
    cfg = make_config(
        n_subnets=6, n_slots=1500, alpha=0.5, eta=0.05, tx_threshold=0.3, deadline_slots=3,
        policy_kind=PolicyKind.RCH,
    )
    trace = Simulation(cfg, seed=21).run()
    assert len(trace.events) > 30
    assert trace.delivered_count + trace.failed_count == len(trace.events)
    for e in trace.events:
        assert e.attempts >= 1
        if e.delivered:
            assert e.end_slot - e.birth_slot <= cfg.deadline_slots


# the contention scenario with rare alarms, Bernoulli detection and a long deadline
SPARSE = replace(
    CONTENTION, alpha=0.05, activation_mode=ActivationMode.THRESHOLD_AND_BERNOULLI, deadline_slots=15,
    policy_kind=PolicyKind.MAP_RA,
)


@pytest.mark.parametrize("cfg,n_slots", [
    *((replace(CONTENTION, policy_kind=kind), 301) for kind in PolicyKind),
    (SPARSE, 2000),  # idle slots between alarms
], ids=[*(kind.value for kind in PolicyKind), "sparse_bernoulli"])
def test_attempts_read_from_the_clock_add_up_to_the_contention_rounds(cfg, n_slots):
    # the rounds are counted apart from the clock: each event's attempts, and
    # the age of an alarm still live, must add up to them
    sim = Simulation(cfg, seed=9)
    trace = sim.run(n_slots)
    live = 0 if sim.event is None else trace.n_slots - sim.event.birth_slot
    assert sum(e.attempts for e in trace.events) + live == trace.n_contention_slots > 0
    assert trace.n_slots == n_slots and len(trace.events) > 10
    if cfg is SPARSE:
        assert trace.n_contention_slots < n_slots / 2


def test_delivered_event_has_successful_outcome_in_window():
    cfg = make_config(
        n_subnets=5, n_slots=600, alpha=0.5, eta=0.05, tx_threshold=0.3, deadline_slots=4,
        policy_kind=PolicyKind.RCH,
    )
    sim = Simulation(cfg, seed=5)
    outcomes = [sim.run_slot() for _ in range(cfg.n_slots)]
    delivered = [e for e in sim.trace.events if e.delivered]
    assert len(delivered) > 10
    for e in delivered:
        # a success in its last slot, after its failed attempts from its birth on
        window = outcomes[e.birth_slot : e.end_slot + 1]
        assert [o.success for o in window] == [False] * (e.attempts - 1) + [True]
        assert [o.age for o in window] == list(range(e.attempts))


def record_size(cfg, n_slots: int) -> tuple[int, int, int, int]:
    """(bytes freed by dropping the run record of `n_slots` slots of `cfg`
    at seed 2, from tracemalloc; its events, MSE entries and contention slots)."""
    tracemalloc.start()
    try:
        trace = Simulation(cfg, seed=2).run(n_slots)
        counts = len(trace.events), len(trace.mse), trace.n_contention_slots
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        return with_trace - tracemalloc.get_traced_memory()[0], *counts
    finally:
        tracemalloc.stop()


def test_run_record_retains_little_per_contention_slot():
    # the contention scenario: every slot contends
    retained, _, _, contention = record_size(replace(CONTENTION, policy_kind=PolicyKind.RCH), 1000)
    assert contention > 500
    assert retained / contention < 0.5 * 1024


def test_run_record_keeps_its_events_and_mse_as_typed_columns():
    # an event's four columns take 25 bytes and an MSE entry 8; the bounds
    # leave room for the columns' over-allocation, and an object per event
    # or per MSE entry exceeds them
    retained, events, mse, contention = record_size(replace(CONTENTION, policy_kind=PolicyKind.DRL), 300)
    assert events > 100 and mse == contention > 250
    assert retained < 40 * events + 10 * mse + 1024


def event_columns(*records) -> engine._EventColumns:
    """A run record's event columns holding `records`, each (birth slot,
    end slot, delivered, active size)."""
    columns = engine._EventColumns()
    for record in records:
        columns._append(*record)
    return columns


RECORDS = [(0, 2, False, 4), (5, 5, True, 2), (700, 701, True, 6)]


def test_event_columns_iterate_as_event_records_and_take_no_subscript():
    events = event_columns(*RECORDS)
    assert len(events) == 3 and len(event_columns()) == 0 and list(event_columns()) == []
    records = list(events)
    assert records == [engine.EventRecord(*r) for r in RECORDS] and list(events) == records
    assert [(e.birth_slot, e.end_slot, e.delivered, e.active_size) for e in records] == RECORDS
    assert [e.attempts for e in records] == [3, 1, 2]  # one per slot from birth to end
    assert all(type(e.delivered) is bool for e in records)
    # indexing goes through list(trace.events): a subscript of the columns,
    # index or slice, is refused rather than misread
    for key in (0, slice(1, None)):
        with pytest.raises(TypeError):
            events[key]


def test_delivered_and_failed_counts_read_the_delivered_column():
    trace = engine.RunTrace()
    assert trace.delivered_count == trace.failed_count == 0
    trace.events = event_columns(*RECORDS)
    assert trace.delivered_count == 2 and trace.failed_count == 1


def test_the_mse_series_is_a_float64_array_over_the_records_memory():
    trace = Simulation(replace(CONTENTION, policy_kind=PolicyKind.DRL), seed=2).run(50)
    mse = np.asarray(trace.mse)
    assert mse.dtype == np.float64 and mse.shape == (len(trace.mse),) and mse.size > 0
    assert mse.ctypes.data == trace.mse.buffer_info()[0]
    assert mse.tolist() == list(trace.mse)


# --- the signature chain runs only for a policy that reads contexts --------

WORLD_STREAMS = {"placement", "mobility", "events"}
SIGNATURE_STREAMS = {"channel", "fading", "noise"}


def derived_labels(monkeypatch) -> list:
    """The label of every `derive_stream` call that any module of the
    package makes from here on."""
    labels = []

    def recording(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "alarmmac" and getattr(module, "derive_stream", None) is derive_stream:
            monkeypatch.setattr(module, "derive_stream", recording)
    return labels


@pytest.mark.parametrize("policy,expected", [
    ("rch", WORLD_STREAMS | {"explore"}),
    ("mapra", WORLD_STREAMS | {"explore"}),
    ("drl", WORLD_STREAMS | SIGNATURE_STREAMS | {"explore", "init", "sample"}),
])
def test_a_run_derives_exactly_the_streams_it_draws_from(monkeypatch, policy, expected):
    # the world's streams in the engine, the agents' in the population and the
    # signature's in its owner, each once
    labels = derived_labels(monkeypatch)
    sim = Simulation(replace(CONTENTION, policy_kind=policy), seed=4)
    sim.run(200)
    assert sim.trace.n_contention_slots > 0
    assert sorted(labels) == sorted(expected)


def spy_contexts(monkeypatch, population) -> list:
    """The `contexts` argument of every `select_action` call on `population`."""
    seen = []
    select_action = population.select_action

    def spied(self, agents, contexts):
        seen.append((len(agents), contexts))
        return select_action(self, agents, contexts)

    monkeypatch.setattr(population, "select_action", spied)
    return seen


@pytest.mark.parametrize("policy,population", [("rch", RchPopulation), ("mapra", MapRaPopulation)])
def test_context_free_policies_skip_only_dead_work(monkeypatch, policy, population):
    cfg = replace(CONTENTION, policy_kind=policy)
    seen = spy_contexts(monkeypatch, population)
    skipped = Simulation(cfg, seed=4)
    skipped.run(2000)
    assert skipped.trace.n_contention_slots > 1000
    assert seen and all(contexts is None for _, contexts in seen)

    # computing the signature anyway changes nothing the trace holds
    monkeypatch.setattr(population, "reads_contexts", True)
    computed = Simulation(cfg, seed=4)
    computed.run(2000)
    assert list(computed.trace.events) == list(skipped.trace.events)
    assert computed.trace.n_successful_slots == skipped.trace.n_successful_slots
    assert computed.trace.mse == skipped.trace.mse
    assert computed.contexts.rng_noise.bit_generator.state != derive_stream(4, "noise").bit_generator.state


def test_drl_reads_one_context_row_per_active_agent(monkeypatch):
    cfg = replace(CONTENTION, policy_kind=PolicyKind.DRL)
    seen = spy_contexts(monkeypatch, DrlPopulation)
    Simulation(cfg, seed=4).run(50)
    assert seen
    for k, contexts in seen:
        assert isinstance(contexts, np.ndarray) and contexts.shape == (k, cfg.n_channels)


def test_a_round_hands_one_agent_array_to_the_gains_and_every_population_call(monkeypatch):
    seen = []
    for name in ("select_action", "observe", "end_event"):
        monkeypatch.setattr(DrlPopulation, name, counting(seen, getattr(DrlPopulation, name)))
    sim = Simulation(replace(CONTENTION, policy_kind=PolicyKind.DRL), seed=4)
    gains = []
    sim.contexts._link_gains = counting(gains, sim.contexts._link_gains)
    ended = repeated = 0
    live = None  # the agent array of the event still live after the last round
    for _ in range(30):
        seen.clear()
        gains.clear()
        sim.run_slot()
        if not gains:
            continue
        (_, active) = gains[0]
        # the population methods are patched on the class: their first argument is the population
        handed = [args[1] for args in seen]
        assert all(agents is active for agents in handed) and active.dtype == np.intp
        assert len(handed) == (3 if sim.event is None else 2)
        # every round of one event is handed the array built when it went live
        if live is not None:
            assert active is live
            repeated += 1
        live = None if sim.event is None else active
        ended += sim.event is None
    assert ended > 1 and repeated > 1


@pytest.mark.parametrize("policy", ["drl", "mapra", "rch"])
def test_pathloss_coefficients_are_snapshot_quantities(monkeypatch, policy):
    # computed once per DRL set-up and never in a contention round, which
    # runs no np.where; a context-free policy draws no snapshot at all
    coefficients, wheres = [], []
    monkeypatch.setattr(channel, "pathloss_coefficients", counting(coefficients, channel.pathloss_coefficients))
    sim = Simulation(replace(CONTENTION, policy_kind=policy), seed=4)
    assert len(coefficients) == (policy == "drl")
    monkeypatch.setattr(np, "where", counting(wheres, np.where))
    sim.run(50)
    assert sim.trace.n_contention_slots > 25
    assert len(coefficients) == (policy == "drl") and not wheres


# --- lazy mobility ---------------------------------------------------------


@pytest.mark.parametrize("read_share", [0.0, 0.3])
@pytest.mark.parametrize("scenario,policy", sorted(GOLDEN))
def test_golden_digest_whenever_poses_are_read(scenario, policy, read_share):
    # the poses are read before a random `read_share` of the slots
    reads = np.random.default_rng(11).random(SCENARIOS[scenario][1]) < read_share
    assert run_digest(scenario, policy, reads)[0] == GOLDEN[scenario, policy]


@pytest.mark.parametrize("alpha", [1.0, 0.05])
def test_a_context_reader_reads_the_poses_and_amplitudes_of_one_step_per_slot(monkeypatch, alpha):
    # alpha 1 reads the poses in nearly every slot, alpha 0.05 after gaps
    # that may outlast a whole look-ahead block
    blocks, steps = [], []
    monkeypatch.setattr(engine, "_look_ahead", counting(blocks, engine._look_ahead))
    monkeypatch.setattr(engine, "step_mobility", counting(steps, step_mobility))
    cfg = replace(CONTENTION, policy_kind=PolicyKind.DRL, alpha=alpha, deadline_slots=15, **BOUNCING)
    sim = Simulation(cfg, seed=3)
    contexts, reads = sim.contexts, []
    reference = {"poses": sim.poses, "rng": derive_stream(3, "mobility")}

    def checked(path, row, agents):
        # the run's poses and mobility stream are those of one step per slot
        assert np.array_equal(sim.poses, reference["poses"])
        assert sim.rng_mobility.bit_generator.state == reference["rng"].bit_generator.state
        fading, noise = copy.deepcopy(contexts.rng_fading), copy.deepcopy(contexts.rng_noise)
        got = contexts(path, row, agents)
        assert np.array_equal(got, round_contexts(contexts, reference["poses"], agents, fading, noise))
        reads.append(row)
        return got

    sim.contexts = checked
    for _ in range(1500):
        reference["poses"] = step_mobility(reference["poses"], cfg, reference["rng"])
        sim.run_slot()
    # the rounds read rows inside blocks, and blocks end early at the walls;
    # every block after the one built at the first read follows a fallback
    assert len(reads) > 100 and max(reads) > 1
    assert 10 < len(blocks) < len(reads) and len(steps) == len(blocks) - 1
    assert any(n_steps > 1 for _, _, _, n_steps in steps) == (alpha < 1.0)


@pytest.mark.parametrize("read_share", [1.0, 0.1])
@pytest.mark.parametrize("policy", ["mapra", "rch"])
def test_a_context_free_run_reads_the_poses_of_one_step_per_slot(monkeypatch, policy, read_share):
    # the same catch-up without a block: a read steps all the slots owed
    blocks, steps = [], []
    monkeypatch.setattr(engine, "_look_ahead", counting(blocks, engine._look_ahead))
    monkeypatch.setattr(engine, "step_mobility", counting(steps, step_mobility))
    cfg = replace(CONTENTION, policy_kind=policy, **BOUNCING)
    sim = Simulation(cfg, seed=3)
    poses, rng = sim.poses, derive_stream(3, "mobility")
    first = poses["heading"]
    for read in np.random.default_rng(5).random(1500) < read_share:
        if read:
            assert np.array_equal(sim.poses, poses)
            assert sim.rng_mobility.bit_generator.state == rng.bit_generator.state
        poses = step_mobility(poses, cfg, rng)
        sim.run_slot()
    assert np.array_equal(sim.poses, poses) and np.count_nonzero(poses["heading"] != first) > 10
    assert not blocks
    assert len(steps) > 100 and any(n_steps > 1 for _, _, _, n_steps in steps) == (read_share < 1.0)


def test_mobility_advances_only_when_a_slot_reads_the_poses(monkeypatch):
    calls: list[int] = []
    spawns: list[bool] = []

    def counted_step(poses, config, rng, n_steps=1):
        calls.append(n_steps)
        return step_mobility(poses, config, rng, n_steps)

    def counted_spawn(slot, poses, rng, config):
        event = maybe_spawn_event(slot, poses, rng, config)
        spawns.append(event is not None)
        return event

    monkeypatch.setattr(engine, "step_mobility", counted_step)
    monkeypatch.setattr(engine, "maybe_spawn_event", counted_spawn)
    # the sparse benchmark scenario: most slots are idle
    cfg = replace(
        CONTENTION, policy_kind=PolicyKind.MAP_RA, alpha=0.05,
        activation_mode=ActivationMode.THRESHOLD_AND_BERNOULLI, deadline_slots=15,
    )
    slots = 2000
    sim = Simulation(cfg, seed=1)
    sim.run(slots)
    assert 0 < len(calls) <= sum(spawns) + sim.trace.n_contention_slots
    assert max(calls) > 1

    # every slot's step is advanced once, and the poses are those of one step per slot
    final = sim.poses
    assert sum(calls) == slots
    rng = derive_stream(1, "mobility")
    poses = Simulation(cfg, seed=1).poses
    for _ in range(slots):
        poses = step_mobility(poses, cfg, rng)
    assert np.array_equal(final, poses)
    assert rng.bit_generator.state == sim.rng_mobility.bit_generator.state
