"""The slot, agent by agent: the one reference of `alarmmac.engine`'s slot
loop and of the vectorised code under it.

A run is one slot, repeated (README, "Model notes"). The poses take one
step. While no alarm is live, the event stream decides whether one spawns
and whom it activates; an alarm nobody detects is a coverage miss. While
one is live, its active set contends: each agent picks a pattern
epsilon-greedily on its own values, the patterns decide delivery, every
active agent gets the shared reward and takes one update, and the alarm
ends at delivery or at age D, which counts each agent's event and decays
its rates. `ReferenceEngine.step` runs that slot the slow way, one pose and
one agent at a time, and draws from each stream the calls the engine
documents, in its order: where the engine draws for all agents in one
call, the reference makes the same call and then loops over the agents.

Each stage of the slot has its one reference here:

- `_reference_place` and `_reference_step`: placement one candidate at a
  time, and one slot of mobility pose by pose over the (x, y, heading)
  tuples that `headed` makes of a pose array (`geometry`);
- `round_contexts`: a round's contexts from the amplitudes of its agents'
  links alone (`signature.Contexts`);
- `ReferenceAgent`: one agent's replay ring, minibatch draw and update,
  one network at a time (`policies.DrlPopulation` and `learning`);
- `reference_activation.exact_activated`, the activation gate without its
  screen, and `reference_mlp`, the learner's kernels one network at a time,
  are used as they are.

From `alarmmac` it takes only the config and its streams, scalar formulas
with unit tests of their own (`channel.pathloss_db`, `attenuation` and
`complex_gaussian`; `signature.contention_signatures` and `featurize`;
`events.activation_probability`, through `exact_activated`),
`selfcheck.literal_success`, and `learning.layer_views` through
`reference_mlp`. `tests/test_lockstep.py` walks this file and fails on any
other name. The radio snapshot that DRL's contexts read (line of sight,
pathloss coefficients, shadowing and the median attenuation) is the
engine's own: the N x N Cholesky behind the shadowing is left to the
channel tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from alarmmac import channel, signature
from alarmmac.config import ActivationMode, PolicyKind, ScenarioConfig, derive_stream
from alarmmac.selfcheck import literal_success

from conftest import pose_array
import reference_mlp as ref
from reference_activation import exact_activated

# a pose turns at most this many times in one slot before it holds its position
_HEADING_TRIES = 16


# --- mobility: placement and one slot, pose by pose ------------------------


def headed(poses):
    """(x, y, heading) tuples of Python floats, the state the references keep."""
    return [(x, y, heading) for x, y, heading, _, _ in poses.tolist()]


def _reference_place(config, rng, rejected=None):
    """One candidate at a time; appends each pose's count of rejected
    candidates to `rejected`, if given."""
    n, sep = config.n_subnets, config.min_separation_m
    placed = []
    for _ in range(n):
        misses = 0
        while True:
            x = rng.uniform(0.0, config.area_width_m)
            y = rng.uniform(0.0, config.area_height_m)
            if all((x - px) * (x - px) + (y - py) * (y - py) >= sep * sep for px, py in placed):
                placed.append((x, y))
                break
            misses += 1
        if rejected is not None:
            rejected.append(misses)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return pose_array((px, py, h) for (px, py), h in zip(placed, headings.tolist()))


def _reference_step(poses, config, rng):
    """One slot over (x, y, heading) tuples of Python floats, pose by pose:
    only the walls turn a pose."""
    step = config.speed_mps * config.slot_ms / 1000.0
    out = []
    for x, y, heading in poses:
        moved = None
        for _ in range(_HEADING_TRIES):
            nx = x + step * math.cos(heading)
            ny = y + step * math.sin(heading)
            if 0.0 <= nx <= config.area_width_m and 0.0 <= ny <= config.area_height_m:
                moved = (nx, ny, heading)
                break
            heading = rng.uniform(0.0, 2.0 * math.pi)
        out.append((x, y, heading) if moved is None else moved)
    return out


# --- the contention signature of one round ---------------------------------


def round_contexts(contexts, poses, agents, fading, noise):
    """A round's contexts from the amplitudes of `agents`' links alone, at
    `poses`, with the fading and noise generators given."""
    cx, cy = contexts.cap_xy
    d = np.hypot(poses["x"][agents] - cx, poses["y"][agents] - cy)
    amplitudes = channel.attenuation(channel.pathloss_db(d, contexts.pathloss[:, agents]), contexts.shadow_db[agents])
    kappa = channel.complex_gaussian(fading, (len(agents), contexts.config.n_channels))
    gains = kappa * (amplitudes / contexts.reference_amp)[:, None]
    return signature.featurize(signature.contention_signatures(gains, contexts.snr_linear, noise))


# --- one learning agent ------------------------------------------------------


class ReferenceAgent:
    """One agent trained the single-model way: its own replay ring, then
    backward -> clip_gradient -> rmsprop_step.

    The ring is a (capacity, M + 2) block of context, action and reward
    rows, `cfg.replay` of them, in storage order: tuple j goes to row j %
    capacity, so once the ring is full each tuple overwrites the oldest. A
    minibatch is either handed in or drawn from uniforms, as
    `StackedReplay.sample` documents: for each uniform u, row floor(u *
    fill) of the ring."""

    def __init__(self, model, cfg, opt=None, ring=None, pushed=0):
        self.model = model
        if opt is None:
            opt = ref.RmsPropState.for_model(model, decay=cfg.rms_decay, smoothing=cfg.rms_smoothing, lr=cfg.lr_initial)
        self.opt = opt
        self.cfg = cfg
        self.ring = np.zeros((cfg.replay, cfg.n_channels + 2)) if ring is None else ring
        self.pushed = pushed
        self.clip_fired = 0

    @classmethod
    def resumed(cls, cfg, params, sq, lr, ring, pushed):
        """The agent whose network is the parameter row `params`, whose
        RMSProp averages are the row `sq` and whose learning rate is `lr`,
        with `pushed` tuples pushed to `ring`; it keeps copies."""
        model = ref.model_of(params[None].copy(), cfg.layer_sizes, 0)
        averages = ref.model_of(sq[None].copy(), cfg.layer_sizes, 0)
        opt = ref.RmsPropState(averages.weights, averages.biases, cfg.rms_decay, cfg.rms_smoothing, float(lr))
        return cls(model, cfg, opt, ring.copy(), int(pushed))

    def rows(self):
        """(params, sq, ring, pushed) in the layout `resumed` reads."""
        sq = ref.grads_to_vector(list(zip(self.opt.sq_weights, self.opt.sq_biases)))
        return ref.params_to_vector(self.model), sq, self.ring, self.pushed

    def minibatch(self, uniforms):
        """The minibatch that `uniforms` draw from the ring: row floor(u *
        fill) for each uniform u, in the uniforms' order."""
        fill, m = min(self.pushed, self.cfg.replay), self.cfg.n_channels
        rows = self.ring[[int(u * fill) for u in uniforms.tolist()]]
        return rows[:, :m], rows[:, m].astype(int), rows[:, m + 1]

    def observe(self, context, action, reward, batch=None, uniforms=None):
        """Push the tuple, then train on a minibatch from this agent's
        memory: `batch`, drawn by the population under test, or the one that
        `uniforms` draw. Returns the minibatch's loss before the update."""
        self.ring[self.pushed % self.cfg.replay] = (*context, action, reward)
        self.pushed += 1
        if batch is None:
            batch = self.minibatch(uniforms)
        else:
            stored = self.ring[: min(self.pushed, self.cfg.replay)]
            for context, action, reward in zip(*batch):
                drawn = np.array((*context, action, reward))
                assert np.any(np.all(stored == drawn, axis=1)), "the minibatch holds a tuple this agent never stored"
        grads, batch_loss = ref.backward(self.model, batch)
        self.clip_fired += ref.grad_norm(grads) > self.cfg.clip_threshold
        ref.rmsprop_step(self.model, self.opt, ref.clip_gradient(grads, self.cfg.clip_threshold))
        return batch_loss


# --- the whole slot ----------------------------------------------------------


def pattern_index(action, n_channels: int) -> int:
    """`action` as a pattern index: an integer, numpy's included, in [0,
    2**M). Anything else is a ValueError: no play wraps or truncates."""
    if isinstance(action, (bool, np.bool_)) or not isinstance(action, (int, np.integer)):
        raise ValueError(f"{action!r} is no pattern index")
    if not 0 <= action < 1 << n_channels:
        raise ValueError(f"pattern index {action} out of range for {n_channels} channels")
    return int(action)


@dataclass
class SlotState:
    """What a slot reads and writes besides the poses and the mobility
    stream: the run's clock and counts, the live alarm, every other stream
    a slot draws from, and the agents' arrays. The arrays a policy does not
    keep are None: RCH keeps none, MAP-RA `events` and `q`, and DRL `events`
    and its learner's."""

    n_slots: int
    n_contention_slots: int
    n_successful_slots: int
    n_records: int  # terminal events recorded
    n_mse: int  # MSE points recorded
    event: tuple | None  # the live alarm's (epicenter, birth slot, active set)
    streams: dict  # label -> generator: events, explore, and DRL's sample, fading and noise
    events: np.ndarray | None = None  # (N,) ended events each agent took part in
    q: np.ndarray | None = None  # (N, 2**M) MAP-RA values
    lr: np.ndarray | None = None  # (N,)
    params: np.ndarray | None = None  # (N, P) network rows
    sq: np.ndarray | None = None  # (N, P) RMSProp averages
    rings: np.ndarray | None = None  # (N, capacity, M + 2) replay rings
    pushes: np.ndarray | None = None  # (N,) tuples pushed


@dataclass
class SlotRecord:
    """What the reference did in one slot; a round's fields stay None
    without a live alarm."""

    read_poses: bool = False  # a spawn, or a round that reads contexts
    bernoulli_draws: int = 0  # detection uniforms of a spawn
    agents: tuple | None = None  # the round's active set
    contexts: np.ndarray | None = None  # DRL's (k, M)
    actions: list | None = None
    explored: list | None = None  # per agent, for an epsilon-greedy policy
    success: bool = False
    age: int | None = None
    rewards: list | None = None
    losses: list | None = None  # DRL's, per agent
    mse: float | None = None  # DRL's appended MSE
    record: tuple | None = None  # the appended (birth slot, end slot, delivered, active size)


class ReferenceEngine:
    """One run's slot, taken from a `SlotState` one slot at a time. It keeps
    only what the engine's lazy mobility leaves nothing to copy from: its
    own chain of poses, placed by `_reference_place` from the run's
    placement stream and stepped by `_reference_step` in every slot, and
    its own mobility stream. `snapshot` is the radio snapshot that DRL's
    `round_contexts` reads."""

    def __init__(self, config: ScenarioConfig, seed: int, snapshot=None):
        self.config, self.seed, self.snapshot = config, seed, snapshot
        self.poses = headed(_reference_place(config, derive_stream(seed, "placement")))
        self.rng_mobility = derive_stream(seed, "mobility")

    def initial_state(self) -> SlotState:
        """The state a run starts from: nothing recorded, no alarm, every
        stream as derived, and for DRL each agent's network drawn by
        `reference_mlp.init_mlp` from the `init` stream, agent by agent."""
        cfg, policy = self.config, self.config.policy_kind
        labels = ["events", "explore"] + (["sample", "fading", "noise"] if policy is PolicyKind.DRL else [])
        state = SlotState(0, 0, 0, 0, 0, None, {label: derive_stream(self.seed, label) for label in labels})
        n = cfg.n_subnets
        if policy is not PolicyKind.RCH:
            state.events = np.zeros(n, dtype=np.int64)
        if policy is PolicyKind.MAP_RA:
            state.q = np.zeros((n, cfg.n_patterns))
        if policy is PolicyKind.DRL:
            init = derive_stream(self.seed, "init")
            state.params = ref.stack_of([ref.init_mlp(cfg.layer_sizes, init) for _ in range(n)])
            state.sq = np.zeros_like(state.params)
            state.lr = np.full(n, cfg.lr_initial)
            state.rings = np.zeros((n, cfg.replay, cfg.n_channels + 2))
            state.pushes = np.zeros(n, dtype=np.int64)
        return state

    def epsilon(self, n_events) -> float:
        """The exploration rate of an agent after `n_events` ended events."""
        cfg = self.config
        return max(cfg.epsilon_floor, cfg.epsilon_start - cfg.epsilon_step * int(n_events))

    def success(self, actions) -> bool:
        """Whether a play delivers: some channel carries exactly one
        transmitter. A play with a pattern that is no integer in [0, 2**M)
        is a ValueError."""
        m = self.config.n_channels
        return literal_success(tuple(pattern_index(a, m) for a in actions), m)

    def step(self, s: SlotState) -> SlotRecord:
        """One slot from `s`, which it leaves as the slot leaves the run."""
        did = SlotRecord()
        self.poses = _reference_step(self.poses, self.config, self.rng_mobility)
        if s.event is None:
            self._spawn(s, did)
        if s.event is not None:
            self._round(s, did)
            s.n_contention_slots += 1
            s.n_successful_slots += did.success
        s.n_slots += 1
        return did

    def _spawn(self, s: SlotState, did: SlotRecord) -> None:
        """The alpha uniform; on a spawn, the epicentre's two uniforms and
        then, in the Bernoulli mode, one detection uniform per pose."""
        cfg, rng = self.config, s.streams["events"]
        if rng.random() >= cfg.alpha:
            return
        u, v = rng.random(2).tolist()
        ex, ey = cfg.area_width_m * u, cfg.area_height_m * v
        did.read_poses = True
        d = np.hypot([x - ex for x, _, _ in self.poses], [y - ey for _, y, _ in self.poses])
        activated = exact_activated(d, rng, cfg).tolist()
        if cfg.activation_mode is ActivationMode.THRESHOLD_AND_BERNOULLI:
            did.bernoulli_draws = len(d)
        active = tuple(n for n, on in enumerate(activated) if on)
        if active:  # an alarm nobody detects is a coverage miss and leaves no record
            s.event = ((ex, ey), s.n_slots, active)

    def _round(self, s: SlotState, did: SlotRecord) -> None:
        """One contention round of the live alarm."""
        cfg, policy = self.config, self.config.policy_kind
        _, birth, active = s.event
        did.agents, did.age = active, s.n_slots - birth
        if policy is PolicyKind.DRL:
            did.read_poses = True
            did.contexts = round_contexts(
                self.snapshot, pose_array(self.poses), list(active), s.streams["fading"], s.streams["noise"]
            )
        did.actions, did.explored = self._select(s, active, did.contexts)
        did.success = self.success(did.actions)
        reward = cfg.reward_success if did.success else cfg.reward_failure
        did.rewards = [reward] * len(active)

        if policy is PolicyKind.MAP_RA:
            tau = cfg.mapra_tau
            for n, a in zip(active, did.actions):
                s.q[n, a] = (1.0 - tau) * s.q[n, a] + tau * reward
        elif policy is PolicyKind.DRL:
            uniforms = s.streams["sample"].random((len(active), cfg.minibatch))
            did.losses = []
            for i, n in enumerate(active):
                agent = ReferenceAgent.resumed(cfg, s.params[n], s.sq[n], s.lr[n], s.rings[n], s.pushes[n])
                did.losses.append(agent.observe(did.contexts[i], did.actions[i], reward, uniforms=uniforms[i]))
                s.params[n], s.sq[n], s.rings[n], s.pushes[n] = agent.rows()
            did.mse = sum(did.losses) / len(active)
            s.n_mse += 1

        # the updates come first: an event's end never decays a rate before its last update
        if did.success or did.age >= cfg.deadline_slots:
            did.record = (birth, s.n_slots, did.success, len(active))
            s.n_records += 1
            for n in active:
                if s.events is not None:
                    s.events[n] += 1
                if s.lr is not None:
                    s.lr[n] *= 1.0 - cfg.lr_decay_per_event
            s.event = None

    def _select(self, s: SlotState, active, contexts):
        """Each agent's pattern and, for an epsilon-greedy policy, whether it
        explored: RCH floors one uniform per agent; an epsilon-greedy agent
        explores when its uniform falls below its rate, each explorer then
        floors one more uniform, and a greedy agent takes the first maximum
        of its values."""
        cfg, rng, k = self.config, s.streams["explore"], len(active)
        if cfg.policy_kind is PolicyKind.RCH:
            return [int(u * cfg.n_patterns) for u in rng.random(k).tolist()], None
        explored = [u < self.epsilon(s.events[n]) for u, n in zip(rng.random(k).tolist(), active)]
        # no explorer, no draw: `random(0)` leaves the generator as it was
        patterns = iter([int(u * cfg.n_patterns) for u in rng.random(sum(explored)).tolist()])
        actions = []
        for i, (n, explores) in enumerate(zip(active, explored)):
            if explores:
                actions.append(next(patterns))
            elif cfg.policy_kind is PolicyKind.MAP_RA:
                actions.append(int(np.argmax(s.q[n])))
            else:
                actions.append(int(np.argmax(ref.forward(ref.model_of(s.params, cfg.layer_sizes, n), contexts[i]))))
        return actions, explored
