"""Slot loop: mobility, events, signature exchange, contention, training.

Each slot executes, in order: one mobility step; an event spawn check, made
only while no alarm is live, so at most one alarm is live at a time; and, if
an alarm is live, one full contention round:

    pilots -> aggregate at the controller -> signature broadcast ->
    featurize -> per-agent action selection -> collision resolution ->
    reward assignment -> one training update per active agent.

A live alarm's agents are one distinct `np.intp` array, built as it goes
live; each of its rounds hands it to the link gains and every population call.

The signature chain (link gains, pilots, broadcast, featurize) runs only for
a policy that reads contexts (`reads_contexts`); a context-free policy gets
`None` instead. Likewise the set-up draws the snapshot only for such a
policy: line of sight, then the pathloss coefficients and the shadowing,
whose per-link parameters `channel` selects from it.
The channel, fading and noise streams feed nothing else, so skipping them
changes no draw that a trace reads.

A channel succeeds when exactly one active agent transmits on it; the slot
succeeds when any channel does, and delivers the alarm, which ends it for
every member of its active set. One delivered copy serves them all, so every
member gets the same reward. Each attempt takes one slot, so an undelivered
event fails after exactly D + 1 contention rounds. Acknowledgements are
error-free and instantaneous on a dedicated channel.

The mobility step is lazy: a slot only counts it, and the steps owed are
advanced when the poses are next read, which is when an event spawns or a
contention round runs (see `Simulation.poses`). Each advance makes a new
pose array (see `geometry`), so an array read earlier stays as it was.
The minimum separation holds at placement only: in motion a pose turns only
at the walls of the deployment rectangle, independently of the others.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import channel as chan
from . import signature as sig
from .config import ScenarioConfig, derive_stream
from .events import AlarmEvent, maybe_spawn_event
from .geometry import place_uniform, step_mobility
from .policies import Population, make_policy, pattern_table


@dataclass
class SlotOutcome:
    slot: int
    success: bool  # any channel with exactly one transmitter
    age: int | None  # attempts the alarm made before this round; None when idle


@dataclass
class EventRecord:
    birth_slot: int
    end_slot: int
    delivered: bool
    attempts: int
    active_size: int


@dataclass
class RunTrace:
    """What a run keeps: one record per terminal event, the MSE of every
    training slot, and slot counts. Per-slot outcomes are returned by
    `Simulation.run_slot` and not kept."""

    events: list[EventRecord] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)
    n_slots: int = 0
    n_contention_slots: int = 0
    n_successful_slots: int = 0

    @property
    def delivered_count(self) -> int:
        return sum(1 for e in self.events if e.delivered)

    @property
    def failed_count(self) -> int:
        return len(self.events) - self.delivered_count


def resolve_collisions(action_indices: list[int] | np.ndarray, n_channels: int) -> bool:
    """Whether one slot's transmission patterns succeed: some channel
    carries exactly one transmitter. Each pattern index must be an integer
    in [0, 2**M); anything else raises ValueError rather than wrapping or
    truncating to some pattern."""
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
    return bool((counts @ pattern_table(n_channels) == 1).any())


def checked_int(value: Any, name: str, minimum: int | None = None) -> int:
    """`value` as an int, numpy's integers included; a ValueError naming
    `name` for anything else, a float or a bool among them, which `int`
    would truncate or take as 0 or 1, and for an integer below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {value!r}")
    return int(value)


class Simulation:
    """World state for one run, whose random streams all derive from
    `seed`; strictly single threaded. The config's `rng_seed` is no run's
    seed: `reporting.run_experiment` derives its runs' seeds from it."""

    def __init__(self, config: ScenarioConfig, seed: int):
        seed = checked_int(seed, "seed")
        self.config = config
        self.rng_mobility = derive_stream(seed, "mobility")
        self.rng_events = derive_stream(seed, "events")
        self.rng_channel = derive_stream(seed, "channel")
        self.rng_fading = derive_stream(seed, "fading")
        self.rng_noise = derive_stream(seed, "noise")
        self.rng_explore = derive_stream(seed, "explore")
        self.rng_sample = derive_stream(seed, "sample")
        rng_place = derive_stream(seed, "placement")
        rng_init = derive_stream(seed, "init")

        self.policy: Population = make_policy(config, rng_init)
        self._poses = place_uniform(config, rng_place)
        self._pending_steps = 0  # mobility steps owed to the poses
        self.cap_xy = (config.area_width_m / 2.0, config.area_height_m / 2.0)
        if self.policy.reads_contexts:
            self._snapshot_channel_state()
        self.event: AlarmEvent | None = None  # the live alarm, if any
        self.event_agents = np.empty(0, dtype=np.intp)  # the live alarm's active set
        self.slot = 0
        self.trace = RunTrace()
        self.snr_linear = 10.0 ** (config.snr_avg_db / 10.0)

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

    def _cap_distances(self, agents: np.ndarray) -> np.ndarray:
        """Distance from each of `agents` to the central controller."""
        cx, cy = self.cap_xy
        poses = self.poses
        return np.hypot(poses["x"][agents] - cx, poses["y"][agents] - cy)

    def _amplitudes(self, agents: np.ndarray) -> np.ndarray:
        """Large-scale amplitude of each of `agents`' links to the controller:
        pathloss at the current distance with the snapshot's coefficients,
        and the snapshot's shadowing."""
        pathloss = chan.pathloss_db(self._cap_distances(agents), self._pathloss[:, agents])
        return chan.attenuation(pathloss, self.shadow_db[agents])

    def _snapshot_channel_state(self) -> None:
        """Line of sight, the pathloss coefficients and shadowing that
        `channel` derives from it, and the reference attenuation are frozen
        per snapshot; only small-scale fading is redrawn each slot."""
        cfg = self.config
        everyone = np.arange(cfg.n_subnets)
        self.los = chan.draw_los(self._cap_distances(everyone), self.rng_channel, cfg)
        self._pathloss = chan.pathloss_coefficients(self.los, cfg)
        positions = np.column_stack((self.poses["x"], self.poses["y"]))
        self.shadow_db = chan.shadowing_db(positions, self.los, self.rng_channel, cfg)
        self._reference_amp = float(np.median(self._amplitudes(everyone)))

    def _link_gains(self, active: np.ndarray) -> np.ndarray:
        """Per-channel complex gains for the active uplinks this slot,
        normalised by the snapshot median attenuation, so that snr_avg_db is
        the average link SNR at a typical distance."""
        kappa = chan.complex_gaussian(self.rng_fading, (len(active), self.config.n_channels))
        return kappa * (self._amplitudes(active) / self._reference_amp)[:, None]

    def _contexts(self, active: np.ndarray) -> np.ndarray:
        return sig.featurize(sig.contention_signatures(self._link_gains(active), self.snr_linear, self.rng_noise))

    def run_slot(self) -> SlotOutcome:
        cfg = self.config
        self._pending_steps += 1

        if self.event is None:
            event = maybe_spawn_event(self.slot, lambda: self.poses, self.rng_events, cfg)
            # an event nobody detects is a coverage miss, not a delivery failure
            if event is not None and event.active_set:
                self.event, self.event_agents = event, np.array(event.active_set, dtype=np.intp)

        if self.event is not None:
            outcome = self._contention_round(self.event, self.event_agents)
            self.trace.n_contention_slots += 1
            self.trace.n_successful_slots += outcome.success
        else:
            outcome = SlotOutcome(slot=self.slot, success=False, age=None)
        self.slot += 1
        self.trace.n_slots = self.slot
        return outcome

    def _contention_round(self, event: AlarmEvent, active: np.ndarray) -> SlotOutcome:
        cfg, age = self.config, event.attempts
        contexts = self._contexts(active) if self.policy.reads_contexts else None
        actions = self.policy.select_action(active, contexts, self.rng_explore)
        delivered = resolve_collisions(actions, cfg.n_channels)

        # the update comes before the event ends: an event's end never decays
        # a learning rate before its last update
        reward = cfg.reward_success if delivered else cfg.reward_failure
        losses = self.policy.observe(active, contexts, actions, [reward] * len(active), self.rng_sample)
        if losses is not None:
            self.trace.mse.append(float(np.add.reduce(losses) / len(losses)))

        event.attempts += 1
        if delivered or event.attempts > cfg.deadline_slots:  # the event ends in this slot
            record = EventRecord(birth_slot=event.birth_slot, end_slot=self.slot, delivered=delivered,
                                 attempts=event.attempts, active_size=len(active))
            self.trace.events.append(record)
            self.policy.end_event(active)
            self.event = None
        return SlotOutcome(slot=self.slot, success=delivered, age=age)

    def run(self, n_slots: int | None = None, until_events: int | None = None) -> RunTrace:
        """Advance the world; stops at n_slots, or earlier once until_events
        terminal events have been recorded, which with until_events = 0 is
        before the first slot. Either count, when given, must be an integer
        >= 0, or it is a ValueError naming it."""
        if until_events is not None:
            checked_int(until_events, "until_events", minimum=0)
        horizon = self.config.n_slots if n_slots is None else checked_int(n_slots, "n_slots", minimum=0)
        for _ in range(horizon):
            if until_events is not None and len(self.trace.events) >= until_events:
                break
            self.run_slot()
        return self.trace
