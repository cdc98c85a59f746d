"""The engine and `tests/reference_engine.py` in lockstep, slot by slot.

In every slot the reference starts from a copy of the engine's state
(`engine_state`), both step one slot, and every field the slot writes is
compared, so that a fault shows at the slot and the agent where it
happens, not as a changed digest. Bit for bit: the live alarm and its
agent array, the contexts, the actions, the success flag and the rewards;
each appended event record and the trace's counts; MAP-RA's values, every
agent's event count and held epsilon, and DRL's learning rates, replay
rings and push counts; the state of every stream the slot draws from. To
1e-12 relative, the bound of `test_stacked_observe_matches_per_agent_updates`:
DRL's parameters, RMSProp averages, per-agent losses and appended MSE, which
the reference computes one network at a time and so sums in another order.
At set-up the engine's placement must be `_reference_place`'s and its state
the reference's initial one, DRL's networks drawn agent by agent, bit for
bit.

The poses, and with them the mobility stream, are compared only after a
slot in which the engine read them itself: a spawn, or a context reader's
round. Reading them then steps nothing, so the lockstep forces no catch-up,
and the engine's multi-slot windows and look-ahead rows run as in a plain
run; each golden run ends on its pinned digest.

In its first rounds each run also offers the collision rule and the
learner malformed plays (a pattern of -1, one past the patterns, a float)
that the reference refuses, and checks that the engine refuses them too
and changes nothing.
"""

import ast
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import alarmmac
from alarmmac import engine
from alarmmac.config import PolicyKind
from alarmmac.engine import Simulation, resolve_collisions
from alarmmac.geometry import _LOOK_AHEAD_SLOTS

from conftest import CONTENTION, counting, pose_array
from reference_engine import ReferenceEngine, SlotState
from test_golden import GOLDEN, SCENARIOS, trace_digest

# the rounds of each run whose agents are then offered malformed plays
PROBED_ROUNDS = 2
# the paths of the slot loop that a run can take (see `paths_taken`)
WINDOW, ROW, EARLY = "a multi-slot mobility window", "a round on a block row past 0", "a block that ends early"
EXPLORE, GREEDY, BERNOULLI = "an exploring agent", "a greedy agent", "Bernoulli detection draws"
DELIVERED, FAILED = "a delivered alarm", "a failed alarm"


def engine_streams(sim) -> dict:
    """The streams a slot of `sim` draws from, besides mobility, by label."""
    streams = {"events": sim.rng_events, "explore": sim.policy.rng_explore}
    if sim.contexts is not None:
        streams.update(sample=sim.policy.rng_sample, fading=sim.contexts.rng_fading, noise=sim.contexts.rng_noise)
    return streams


def twin(rng: np.random.Generator) -> np.random.Generator:
    """A generator in `rng`'s state that draws apart from it."""
    copied = np.random.Generator(np.random.PCG64())
    copied.bit_generator.state = rng.bit_generator.state
    return copied


def engine_state(sim) -> SlotState:
    """Copies of what a slot of `sim` reads and writes besides the poses."""
    trace, policy, live = sim.trace, sim.policy, sim.event
    state = SlotState(
        trace.n_slots,
        trace.n_contention_slots,
        trace.n_successful_slots,
        len(trace.events),
        len(trace.mse),
        None if live is None else (live.epicenter, live.birth_slot, live.active_set),
        {label: twin(rng) for label, rng in engine_streams(sim).items()},
    )
    kind = sim.config.policy_kind
    if kind is not PolicyKind.RCH:
        state.events = policy.events.copy()
    if kind is PolicyKind.MAP_RA:
        state.q = policy.q.copy()
    if kind is PolicyKind.DRL:
        state.lr, state.params, state.sq = policy.lr.copy(), policy.params.copy(), policy.sq.copy()
        state.rings = policy.replay.tuples.reshape(sim.config.n_subnets, policy.replay.capacity, -1).copy()
        state.pushes = policy.replay.pushes.copy()
    return state


class Spy:
    """What the engine's population is handed and returns in a slot: the
    contexts and actions of `select_action`, the rewards and losses of
    `observe`."""

    def __init__(self, policy):
        select, observe = policy.select_action, policy.observe

        def selected(agents, contexts):
            self.contexts, self.actions = contexts, select(agents, contexts)
            return self.actions

        def observed(agents, contexts, actions, rewards):
            self.rewards, self.losses = list(rewards), observe(agents, contexts, actions, rewards)
            return self.losses

        policy.select_action, policy.observe = selected, observed
        self.clear()

    def clear(self) -> None:
        self.contexts = self.actions = self.rewards = self.losses = None


def close(got, want, floor=1.0) -> np.ndarray:
    """Within 1e-12 of `want`, relative to it or to `floor` below it; the
    RMSProp averages, far below 1, take a floor of 1e-3."""
    return np.abs(np.subtract(got, want)) <= 1e-12 * np.maximum(np.abs(want), floor)


def assert_rows(where, name, got, want, agents=None, floor=None) -> None:
    """Row n of `got` and of `want` is agent n's, or agent `agents[n]`'s;
    equal bit for bit, or `close` to `floor` when given. A mismatch names
    the first agent whose row differs."""
    if got is None or want is None:
        assert got is None and want is None, f"{where}: {name} kept by one side only"
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{where}: {name} of shape {got.shape}, reference {want.shape}"
    if floor is None:
        bits = [np.ascontiguousarray(a).view(np.uint8).reshape(len(a), -1) for a in (got, want)]
        bad = np.logical_or.reduce(bits[0] != bits[1], axis=1)
    else:
        bad = ~np.logical_and.reduce(close(got, want, floor).reshape(len(got), -1), axis=1)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        agent = row if agents is None else agents[row]
        raise AssertionError(f"{where}: {name} of agent {agent}: engine {got[row]!r}, reference {want[row]!r}")


def assert_state(where, got: SlotState, want: SlotState, exact=False) -> None:
    """Every field of two slot states; the networks and their RMSProp
    averages bit for bit only if `exact`."""
    for name in ("n_slots", "n_contention_slots", "n_successful_slots", "n_records", "n_mse", "event"):
        value = getattr(got, name)
        assert value == getattr(want, name), f"{where}: {name} {value}, reference {getattr(want, name)}"
    assert got.streams.keys() == want.streams.keys(), f"{where}: streams {sorted(got.streams)}"
    for label, rng in got.streams.items():
        assert rng.bit_generator.state == want.streams[label].bit_generator.state, f"{where}: the {label} stream"
    for name in ("events", "q", "lr", "rings", "pushes"):
        assert_rows(where, name, getattr(got, name), getattr(want, name))
    assert_rows(where, "params", got.params, want.params, floor=None if exact else 1.0)
    assert_rows(where, "sq", got.sq, want.sq, floor=None if exact else 1e-3)


def refuses(call) -> bool:
    """Whether `call` raises the ValueError of a malformed pattern index."""
    try:
        call()
    except ValueError as exc:
        return "pattern indices" in str(exc)
    return False


def assert_malformed_plays_refused(where, sim, reference) -> None:
    """The last round's agents play a pattern of -1, one past the patterns
    and a float, each by its first agent with every other agent on a
    valid pattern. The reference refuses each play; the engine's collision
    rule and learner must refuse it too and leave every field as it was."""
    agents, m, kind = sim.event_agents, sim.config.n_channels, sim.config.policy_kind
    k, before = len(agents), engine_state(sim)
    contexts = np.full((k, m), 0.5) if kind is PolicyKind.DRL else None
    for first, rest in ((-1, 0), ((1 << m) + 1, 1), (1.5, 2.0)):
        play = np.array([first] + [rest] * (k - 1))
        with pytest.raises(ValueError):
            reference.success(play.tolist())
        assert refuses(lambda: resolve_collisions(play, m)), f"{where}: the collision rule took {play}"
        if kind is not PolicyKind.RCH:
            # the population's own method, past the spy
            observe = type(sim.policy).observe
            refused = refuses(lambda: observe(sim.policy, agents, contexts, play, [1.0] * k))
            assert refused, f"{where}: the learner took {play}"
        assert_state(f"{where}, after the play {play.tolist()}", engine_state(sim), before, exact=True)


def assert_slot(where, sim, spy, outcome, want: SlotState, did, reference) -> None:
    """The engine after one slot against the reference's record `did` of it
    and the state `want` it left."""
    assert (spy.actions is None) == (did.actions is None), f"{where}: a round on one side only"
    if did.actions is not None:
        agents = list(did.agents)
        assert sim.event_agents.dtype == np.intp, f"{where}: agent array of dtype {sim.event_agents.dtype}"
        assert sim.event_agents.tolist() == agents, f"{where}: agent array {sim.event_agents}"
        assert_rows(where, "contexts", spy.contexts, did.contexts, agents)
        assert spy.actions.dtype == np.int64, f"{where}: actions of dtype {spy.actions.dtype}"
        assert_rows(where, "action", spy.actions, np.array(did.actions, dtype=np.int64), agents)
        assert (outcome.success, outcome.age) == (did.success, did.age), f"{where}: outcome {outcome}"
        assert spy.rewards == did.rewards, f"{where}: rewards {spy.rewards}, reference {did.rewards}"
        assert_rows(where, "loss", spy.losses, did.losses, agents, floor=1.0)
    else:
        assert (outcome.success, outcome.age) == (False, None), f"{where}: outcome {outcome} without an alarm"
    assert_state(where, engine_state(sim), want)
    if did.record is not None:
        last = list(sim.trace.events)[-1]
        got = (last.birth_slot, last.end_slot, last.delivered, last.active_size)
        assert got == did.record, f"{where}: event record {got}, reference {did.record}"
    if did.mse is not None:
        assert close(sim.trace.mse[-1], did.mse), f"{where}: MSE {sim.trace.mse[-1]}, reference {did.mse}"
    if want.events is not None:
        eps = np.array([reference.epsilon(n) for n in want.events.tolist()])
        assert_rows(where, "eps", sim.policy.eps, eps)
    if did.read_poses:
        # the engine read them too, so this read steps nothing
        assert sim._pending_steps <= sim._clean, f"{where}: the engine owes {sim._pending_steps} steps"
        assert_rows(where, "pose", sim.poses, pose_array(reference.poses))
        mobility = sim.rng_mobility.bit_generator.state
        assert mobility == reference.rng_mobility.bit_generator.state, f"{where}: the mobility stream"


def lockstep(monkeypatch, config, seed: int, slots: int):
    """Run `config` under `seed` for `slots` slots in lockstep with the
    reference; returns the run, its contention slots' success flags and the
    paths it took (see `paths_taken`)."""
    windows = []
    monkeypatch.setattr(engine, "step_mobility", counting(windows, engine.step_mobility))
    sim = Simulation(config, seed)
    reference = ReferenceEngine(config, seed, sim.contexts)
    # set-up: the placement, read past `sim.poses` so that no block is built
    # before a plain run builds one, and the initial state
    assert_rows("set-up", "pose", sim._poses, pose_array(reference.poses))
    assert_state("set-up", engine_state(sim), reference.initial_state(), exact=True)
    spy, flags = Spy(sim.policy), []
    taken = dict(rows=[], clean=[], explored=0, greedy=0, bernoulli_draws=0)
    for t in range(slots):
        want = engine_state(sim)
        did = reference.step(want)
        spy.clear()
        outcome = sim.run_slot()
        assert_slot(f"slot {t}", sim, spy, outcome, want, did, reference)
        if did.actions is not None:
            if sim.trace.n_contention_slots <= PROBED_ROUNDS:
                assert_malformed_plays_refused(f"slot {t}", sim, reference)
            flags.append(outcome.success)
            if did.explored is not None:
                taken["explored"] += sum(did.explored)
                taken["greedy"] += len(did.explored) - sum(did.explored)
        if did.contexts is not None:  # the row this round read, and its block's clean prefix
            taken["rows"].append(sim._pending_steps)
            taken["clean"].append(sim._clean)
        taken["bernoulli_draws"] += did.bernoulli_draws
    taken["windows"] = [args[3] for args in windows]
    return sim, flags, paths_taken(sim, taken)


def paths_taken(sim, taken) -> set:
    """The paths of the slot loop that a lockstep run went through."""
    paths = {
        WINDOW: any(n > 1 for n in taken["windows"]),
        ROW: any(row > 0 for row in taken["rows"]),
        EARLY: any(clean < _LOOK_AHEAD_SLOTS for clean in taken["clean"]),
        EXPLORE: taken["explored"] > 0,
        GREEDY: taken["greedy"] > 0,
        BERNOULLI: taken["bernoulli_draws"] > 0,
        DELIVERED: sim.trace.delivered_count > 0,
        FAILED: sim.trace.failed_count > 0,
    }
    return {path for path, seen in paths.items() if seen}


# the paths each run takes: every context-free run steps multi-slot windows
# and every DRL run reads block rows past 0; the bouncing room's blocks end
# early; the bernoulli runs draw detections
GOLDEN_PATHS = {
    ("bernoulli", "drl"): {ROW, EARLY, EXPLORE, BERNOULLI, DELIVERED},
    ("bernoulli", "mapra"): {WINDOW, EXPLORE, BERNOULLI, DELIVERED},
    ("bernoulli", "rch"): {WINDOW, BERNOULLI, DELIVERED},
    ("bouncing", "drl"): {ROW, EARLY, EXPLORE, GREEDY, FAILED},
    ("bouncing", "rch"): {WINDOW, DELIVERED, FAILED},
    ("contention", "drl"): {ROW, EXPLORE, GREEDY, DELIVERED, FAILED},
    ("contention", "mapra"): {WINDOW, EXPLORE, GREEDY, DELIVERED, FAILED},
    ("contention", "rch"): {WINDOW, DELIVERED, FAILED},
    ("crowded", "drl"): {ROW, EARLY, EXPLORE, DELIVERED, FAILED},
    ("crowded", "mapra"): {WINDOW, EXPLORE, DELIVERED, FAILED},
    ("crowded", "rch"): {WINDOW, DELIVERED},
    ("full-replay", "drl"): {ROW, EXPLORE, GREEDY, DELIVERED, FAILED},
    ("greedy", "drl"): {ROW, EXPLORE, GREEDY, DELIVERED, FAILED},
}


@pytest.mark.parametrize("scenario,policy", sorted(GOLDEN))
def test_golden_runs_match_the_reference_slot_by_slot(monkeypatch, scenario, policy):
    config, slots = SCENARIOS[scenario]
    sim, flags, paths = lockstep(monkeypatch, replace(config, policy_kind=policy), seed=3, slots=slots)
    # the lockstep ran the pinned run: it read nothing the plain run does not
    assert trace_digest(sim.trace, flags) == GOLDEN[scenario, policy]
    assert GOLDEN_PATHS[scenario, policy] <= paths


@pytest.mark.parametrize("policy,paths", [
    ("drl", {ROW, EXPLORE, GREEDY, DELIVERED, FAILED}),
    ("mapra", {WINDOW, EXPLORE, GREEDY, DELIVERED, FAILED}),
    ("rch", {WINDOW, DELIVERED, FAILED}),
])
def test_the_contention_preset_matches_the_reference_slot_by_slot(monkeypatch, policy, paths):
    # configs/contention.json at N = 20, under a seed of its own
    sim, _, taken = lockstep(monkeypatch, replace(CONTENTION, policy_kind=policy), seed=5, slots=300)
    assert sim.trace.n_contention_slots > 250
    assert paths <= taken


def test_dense_rch_matches_the_reference_slot_by_slot(monkeypatch):
    # the benchmark's dense_rch scenario: the contention keys at N = 300 under RCH
    config = replace(CONTENTION, n_subnets=300, policy_kind=PolicyKind.RCH)
    sim, _, taken = lockstep(monkeypatch, config, seed=1, slots=200)
    assert sim.trace.n_contention_slots > 150
    assert {WINDOW, FAILED} <= taken


# --- the reference checks the engine only if it does not run the engine's code ---

REFERENCE = Path(__file__).resolve().parent / "reference_engine.py"
# what the reference may take from alarmmac: the config, its streams and
# types, and scalar formulas with unit tests of their own
ALLOWED = {
    "alarmmac.config.ActivationMode",
    "alarmmac.config.PolicyKind",
    "alarmmac.config.ScenarioConfig",
    "alarmmac.config.derive_stream",
    "alarmmac.channel.attenuation",
    "alarmmac.channel.complex_gaussian",
    "alarmmac.channel.pathloss_db",
    "alarmmac.signature.contention_signatures",
    "alarmmac.signature.featurize",
    "alarmmac.events.activation_probability",
    "alarmmac.selfcheck.literal_success",
    "alarmmac.learning.layer_views",
}
MODULES = {"alarmmac"} | {f"alarmmac.{module.name}" for module in pkgutil.iter_modules(alarmmac.__path__)}


def alarmmac_names(source: str) -> set:
    """Every name that `source` takes from the alarmmac package, qualified:
    imported from one of its modules, or read as an attribute of a module
    it imported. A module name used other than through an attribute is
    taken whole, as the module itself."""
    tree = ast.parse(source)
    bound, taken = {}, set()  # local name -> the alarmmac module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "alarmmac":
                    local = alias.asname or "alarmmac"
                    bound[local] = alias.name if alias.asname else "alarmmac"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "alarmmac":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name in MODULES:
                    bound[alias.asname or alias.name] = name
                else:
                    taken.add(name)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id in bound):
            continue
        name = bound[node.id]
        # follow the attribute chain while it names a module; one that ends
        # on a module hands the module itself on, to be read by getattr
        while isinstance(parents.get(node), ast.Attribute) and name in MODULES:
            node = parents[node]
            name = f"{name}.{node.attr}"
        taken.add(name)
    return taken


def test_the_reference_takes_only_allowlisted_names_from_alarmmac():
    taken = alarmmac_names(REFERENCE.read_text())
    assert taken - ALLOWED == set()
    assert {"alarmmac.config.derive_stream", "alarmmac.selfcheck.literal_success"} <= taken  # the walk sees the imports


@pytest.mark.parametrize("module,name", [
    ("geometry", "step_mobility"),
    ("geometry", "_look_ahead"),
    ("geometry", "place_uniform"),
    ("events", "build_active_set"),
    ("events", "_activated"),
    ("events", "maybe_spawn_event"),
    ("signature", "Contexts"),
    ("policies", "DrlPopulation"),
    ("policies", "MapRaPopulation"),
    ("policies", "RchPopulation"),
    ("policies", "make_policy"),
    ("learning", "forward_stacked"),
    ("learning", "backward_stacked"),
    ("learning", "StackedReplay"),
    ("engine", "resolve_collisions"),
    ("engine", "Simulation"),
])
def test_the_walk_sees_the_code_under_check_however_it_is_taken(module, name):
    qualified = f"alarmmac.{module}.{name}"
    for source in (
        f"from alarmmac.{module} import {name}",
        f"from alarmmac.{module} import {name} as renamed",
        f"from alarmmac import {module}\n{module}.{name}()",
        f"from alarmmac import {module} as m\nf(m.{name})",
        f"import alarmmac\nalarmmac.{module}.{name}",
        f"import alarmmac.{module}\nalarmmac.{module}.{name}",
        f"import alarmmac.{module} as m\nm.{name}",
    ):
        assert qualified in alarmmac_names(source) - ALLOWED, source
    # a module handed on whole could reach anything
    assert f"alarmmac.{module}" in alarmmac_names(f"from alarmmac import {module}\ngetattr({module}, 'x')") - ALLOWED
