"""Slot loop: mobility, events, signature exchange, contention, training.

Each slot executes, in order: one mobility step; an event spawn check, made
only while no alarm is live, so at most one alarm is live at a time; and, if
an alarm is live, one full contention round:

    pilots -> aggregate at the controller -> signature broadcast ->
    featurize -> per-agent action selection -> collision resolution ->
    reward assignment -> one training update per active agent.

A live alarm's agents are one distinct `np.intp` array, built as it goes
live; each of its rounds hands it to the signature owner and every
population call.

The signature chain (link gains, pilots, broadcast, featurize) has one
owner, `signature.Contexts`, which draws the link snapshot at set-up and
derives the streams it draws from. The engine builds it, and hands it the
poses and the agents of each round, only for a policy that reads contexts
(`reads_contexts`); a context-free run holds `None` in `contexts`, and its
policy gets `None` as its contexts.

The engine derives only the world's streams from the run seed: `placement`,
`mobility` and `events`. The population and the signature owner derive the
streams they draw from themselves (see `policies` and `signature`). Every
stream is a pure function of the seed and its label, so who derives it
moves no draw.

A channel succeeds when exactly one active agent transmits on it; the slot
succeeds when any channel does, and delivers the alarm, which ends it for
every member of its active set. One delivered copy serves them all, so every
member gets the same reward. An alarm contends in every slot from its birth
on, one attempt a slot, so its age on the run's clock, `trace.n_slots -
birth_slot`, counts its attempts before the current round; undelivered, it
fails at age D, after exactly D + 1 rounds. Acknowledgements are error-free
and instantaneous on a dedicated channel.

The mobility step is lazy: a slot only counts it, and the steps owed are
advanced when the poses are next read, which is when an event spawns or a
contention round runs (see `Simulation.poses`). Each advance makes a new
pose array (see `geometry`), so an array read earlier stays as it was.
The minimum separation holds at placement only: in motion a pose turns only
at the walls of the deployment rectangle, independently of the others.

A run keeps its history in `RunTrace` as typed columns, not objects: each
terminal event's birth slot, end slot and active-set size go straight to an
`array('q')` each and its delivered flag to a byte column, and each
training slot's MSE to an `array('d')`. `trace.events` iterates the columns
as `EventRecord`s, built on access. At N = 20 with contention in every slot
a run retains about 0.02 kB per contention slot.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from . import signature as sig
from .config import ScenarioConfig, checked_int, derive_stream
from .events import AlarmEvent, maybe_spawn_event
from .geometry import place_uniform, step_mobility
from .policies import Population, _pattern_table, make_policy


@dataclass(slots=True)
class SlotOutcome:
    success: bool  # any channel with exactly one transmitter
    age: int | None  # slots since the live alarm's birth; None when idle


@dataclass(slots=True)
class EventRecord:
    birth_slot: int
    end_slot: int
    delivered: bool
    active_size: int

    @property
    def attempts(self) -> int:  # one contention round per slot from birth to end
        return self.end_slot - self.birth_slot + 1


class _EventColumns:
    """A run's terminal events as typed columns: an `array('q')` each of
    birth slot, end slot and active-set size, and one byte each of
    delivered. It has a length and iterates as `EventRecord`s, built on
    access; it takes no subscript, so `list(trace.events)` is what indexes."""

    __slots__ = ("_birth", "_end", "_delivered", "_active")

    def __init__(self) -> None:
        self._birth, self._end, self._active = array("q"), array("q"), array("q")
        self._delivered = bytearray()

    def _append(self, birth_slot: int, end_slot: int, delivered: bool, active_size: int) -> None:
        self._birth.append(birth_slot)
        self._end.append(end_slot)
        self._delivered.append(delivered)
        self._active.append(active_size)

    def __len__(self) -> int:
        return len(self._birth)

    def __iter__(self):
        return map(EventRecord, self._birth, self._end, map(bool, self._delivered), self._active)


@dataclass(eq=False)
class RunTrace:
    """What a run keeps: its terminal events, the MSE of every training
    slot, and slot counts, `n_slots` being the run's one clock. Events are
    typed columns, iterated as `EventRecord`s, and the MSE an `array('d')`.
    Per-slot outcomes are returned by `Simulation.run_slot` and not kept."""

    events: _EventColumns = field(default_factory=_EventColumns)
    mse: array = field(default_factory=lambda: array("d"))
    n_slots: int = 0
    n_contention_slots: int = 0
    n_successful_slots: int = 0

    @property
    def delivered_count(self) -> int:
        return self.events._delivered.count(1)

    @property
    def failed_count(self) -> int:
        return len(self.events) - self.delivered_count


def resolve_collisions(action_indices: list[int] | np.ndarray, n_channels: int) -> bool:
    """Whether one slot's transmission patterns succeed: some channel
    carries exactly one transmitter. Each pattern index must be an integer
    in [0, 2**M); anything else raises ValueError rather than wrapping or
    truncating to some pattern; so does an `n_channels` that is not an
    integer >= 1."""
    n_channels = checked_int(n_channels, "n_channels", minimum=1)
    n_patterns = 1 << n_channels
    actions = np.asarray(action_indices)
    if actions.size == 0:
        return False  # nobody transmits (numpy reads an empty list as floats)
    counts = None
    if actions.dtype.kind in "iu":
        try:
            counts = np.bincount(actions, minlength=n_patterns)
        except ValueError:  # a negative index
            pass
    if counts is None or counts.size > n_patterns:
        raise ValueError(
            f"pattern indices must be integers in [0, {n_patterns}) for {n_channels} channels, got {action_indices!r}"
        )
    # transmitters per channel: how often each pattern is played, times its bits
    return bool((counts @ _pattern_table(n_channels) == 1).any())


class Simulation:
    """World state for one run, whose random streams all derive from
    `seed`; strictly single threaded. The config's `rng_seed` is no run's
    seed: `reporting.run_experiment` derives its runs' seeds from it."""

    def __init__(self, config: ScenarioConfig, seed: int):
        seed = checked_int(seed, "seed")
        self.config = config
        self.rng_mobility = derive_stream(seed, "mobility")
        self.rng_events = derive_stream(seed, "events")

        self.policy: Population = make_policy(config, seed)
        self._poses = place_uniform(config, derive_stream(seed, "placement"))
        self._pending_steps = 0  # mobility steps owed to the poses
        # the signature chain and its snapshot, only for a policy that reads contexts
        self.contexts = sig.Contexts(config, seed, self._poses) if self.policy.reads_contexts else None
        self.event: AlarmEvent | None = None  # the live alarm, if any
        self.event_agents = np.empty(0, dtype=np.intp)  # the live alarm's active set
        self.trace = RunTrace()

    @property
    def poses(self) -> np.ndarray:
        """The poses in the current slot, a structured array with fields `x`,
        `y`, `heading` and the heading's direction `cos` and `sin` (see
        `geometry`). A slot only counts its mobility step; the steps owed
        are advanced here, in one call, when the poses are read. Only
        mobility draws from its stream, so the draws and the poses are those
        of one step per slot, whenever the poses are read."""
        if self._pending_steps:
            self._poses = step_mobility(self._poses, self.config, self.rng_mobility, self._pending_steps)
            self._pending_steps = 0
        return self._poses

    def run_slot(self) -> SlotOutcome:
        cfg = self.config
        self._pending_steps += 1

        if self.event is None:
            event = maybe_spawn_event(self.trace.n_slots, lambda: self.poses, self.rng_events, cfg)
            # an event nobody detects is a coverage miss, not a delivery failure
            if event is not None and event.active_set:
                self.event, self.event_agents = event, np.array(event.active_set, dtype=np.intp)

        if self.event is not None:
            outcome = self._contention_round(self.event, self.event_agents)
            self.trace.n_contention_slots += 1
            self.trace.n_successful_slots += outcome.success
        else:
            outcome = SlotOutcome(success=False, age=None)
        self.trace.n_slots += 1
        return outcome

    def _contention_round(self, event: AlarmEvent, active: np.ndarray) -> SlotOutcome:
        cfg, age = self.config, self.trace.n_slots - event.birth_slot
        contexts = None if self.contexts is None else self.contexts(self.poses, active)
        actions = self.policy.select_action(active, contexts)
        delivered = resolve_collisions(actions, cfg.n_channels)

        # the update comes before the event ends: an event's end never decays
        # a learning rate before its last update
        reward = cfg.reward_success if delivered else cfg.reward_failure
        losses = self.policy.observe(active, contexts, actions, [reward] * len(active))
        if losses is not None:
            self.trace.mse.append(np.add.reduce(losses) / len(losses))

        if delivered or age >= cfg.deadline_slots:  # the event ends in this slot
            self.trace.events._append(event.birth_slot, self.trace.n_slots, delivered, len(active))
            self.policy.end_event(active)
            self.event = None
        return SlotOutcome(success=delivered, age=age)

    def run(self, n_slots: int | None = None, until_events: int | None = None) -> RunTrace:
        """Advance the world; stops at n_slots, or earlier once until_events
        terminal events have been recorded, which with until_events = 0 is
        before the first slot. Either count, when given, must be an integer
        >= 0, or it is a ValueError naming it."""
        if until_events is not None:
            until_events = checked_int(until_events, "until_events", minimum=0)
        horizon = self.config.n_slots if n_slots is None else checked_int(n_slots, "n_slots", minimum=0)
        for _ in range(horizon):
            if until_events is not None and len(self.trace.events) >= until_events:
                break
            self.run_slot()
        return self.trace
