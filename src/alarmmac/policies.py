"""Channel-access policies behind one interface.

Actions are transmission patterns: M-bit words where bit m set means
"transmit on channel m" and the all-zeros word is legal silence. Pattern
index i maps to bits via the binary expansion of i, least significant bit
first. Three policies are provided: the learned network policy, a
context-free value-table bandit, and uniform random selection; the first
two share `EpsilonGreedy`'s selection over their own values. Exploration
rate and learning rate decay once per alarm event that the agent takes part
in, never per slot: each agent counts its own events. Each agent's
exploration rate is held in one (N,) array, refreshed for an event's agents
when the event ends, so a round's selection only gathers it.

Each policy is one population object that holds the state of all N agents.
It is built from the config and the run seed (`make_policy(config, seed)`)
and derives the random streams it draws from itself: every population
derives `explore` (exploration and random patterns), and the network
population also `init` (its initial weights, drawn once) and `sample` (its
minibatches). No other component draws from them.

Its class attribute `reads_contexts` says whether it reads the contention
signature. The engine builds the signature's owner (`signature.Contexts`)
only for a policy that does, and passes `None` as `contexts` to one that
does not. Each policy class declares it in its own body, so that none
inherits the answer. The methods take the agents concerned as one `np.intp`
array of distinct agents, which the engine builds once per contention round:

- `select_action(agents, contexts)`: one pattern per agent, given each
  agent's context row;
- `observe(agents, contexts, actions, rewards)`: one training tuple per
  agent; returns each agent's minibatch loss, or None for policies that do
  not regress;
- `end_event(agents)`: the agents' alarm event ended.

A population takes each kind of random draw for all the agents concerned in
one call, in the order given; the draws are not those of N separate agents.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike

from .config import PolicyKind, ScenarioConfig, checked_int, derive_stream
from . import learning


def pattern_bits(index: int, n_channels: int) -> np.ndarray:
    """Bit m of pattern `index` is channel m's; `index` is an integer in
    [0, 2**M) and `n_channels` one >= 1, or a ValueError names it."""
    index = checked_int(index, "index", minimum=0)
    n_channels = checked_int(n_channels, "n_channels", minimum=1)
    if index >= 1 << n_channels:
        raise ValueError(f"pattern index {index} out of range for {n_channels} channels")
    return np.array([(index >> m) & 1 for m in range(n_channels)], dtype=np.uint8)


def pattern_table(n_channels: int) -> np.ndarray:
    """(2**M, M) lookup of all patterns; row i is pattern_bits(i). Read-only:
    every caller shares the cached array. `n_channels` is an integer >= 1,
    numpy's included, or a ValueError names it."""
    return _pattern_table(checked_int(n_channels, "n_channels", minimum=1))


@lru_cache(maxsize=None)
def _pattern_table(n_channels: int) -> np.ndarray:
    table = np.stack([pattern_bits(i, n_channels) for i in range(1 << n_channels)])
    table.flags.writeable = False
    return table


def _random_patterns(n_patterns: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k uniform pattern indices, each the floor of n_patterns times a
    uniform. `rng.random` returns multiples of 2**-53 and n_patterns is a
    power of two, so the product is exact and every pattern takes an equal
    share of the uniforms."""
    return (rng.random(k) * n_patterns).astype(np.int64)


def decayed_epsilon(start: float, floor: float, step: float, n_events: ArrayLike) -> np.ndarray:
    return np.maximum(floor, start - step * n_events)


class RchPopulation:
    """Uniform random pattern selection for every agent."""

    reads_contexts = False

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.rng_explore = derive_stream(seed, "explore")

    def select_action(self, agents: np.ndarray, contexts: np.ndarray | None) -> np.ndarray:
        return _random_patterns(self.config.n_patterns, len(agents), self.rng_explore)

    def observe(self, agents, contexts, actions, rewards) -> None:
        return None

    def end_event(self, agents: np.ndarray) -> None:
        return None


class EpsilonGreedy:
    """Per-agent event counters, the exploration rates they drive, and the
    epsilon-greedy selection over each agent's pattern values, which a
    subclass gives as `_values(agents, contexts)`: (K, 2**M) for K agents.
    `eps` holds each agent's rate, `decayed_epsilon` of its event count."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.rng_explore = derive_stream(seed, "explore")
        self.events = np.zeros(config.n_subnets, dtype=np.int64)
        self.eps = self._decayed(self.events)

    def _decayed(self, n_events: np.ndarray) -> np.ndarray:
        cfg = self.config
        return decayed_epsilon(cfg.epsilon_start, cfg.epsilon_floor, cfg.epsilon_step, n_events)

    def select_action(self, agents: np.ndarray, contexts: np.ndarray | None) -> np.ndarray:
        """One uniform per agent against its epsilon, then one random pattern
        per exploring agent, then each greedy agent's first maximum of its
        values, so ties break to the lowest index."""
        rng = self.rng_explore
        explore = rng.random(len(agents)) < self.eps[agents]
        actions = np.zeros(len(agents), dtype=np.int64)
        actions[explore] = _random_patterns(self.config.n_patterns, np.count_nonzero(explore), rng)
        greedy = ~explore
        if greedy.any():
            greedy_contexts = None if contexts is None else contexts[greedy]
            actions[greedy] = self._values(agents[greedy], greedy_contexts).argmax(axis=1)
        return actions

    def _pattern_indices(self, actions: ArrayLike) -> np.ndarray:
        # an action that is no integer in [0, 2**M) would be misread or index another agent's row
        actions = np.asarray(actions)
        values = actions.tolist()  # on a few values the builtins cost less than numpy's min and max
        bad = actions.dtype.kind not in "iu" or min(values, default=0) < 0
        if bad or max(values, default=0) >= self.config.n_patterns:
            raise ValueError(f"actions must be pattern indices below {self.config.n_patterns}")
        return actions

    def end_event(self, agents: np.ndarray) -> None:
        events = self.events[agents] + 1
        self.events[agents] = events
        self.eps[agents] = self._decayed(events)


def _finite_rewards(rewards) -> np.ndarray:
    rewards = np.asarray(rewards, dtype=float)
    if not np.isfinite(rewards).all():
        raise ValueError("reward must be finite")
    return rewards


class MapRaPopulation(EpsilonGreedy):
    """Context-free epsilon-greedy bandit per agent, one row of an (N, 2**M)
    value table each: Q[n, a] <- (1 - tau) Q[n, a] + tau * r."""

    reads_contexts = False

    def __init__(self, config: ScenarioConfig, seed: int):
        super().__init__(config, seed)
        self.q = np.zeros((config.n_subnets, config.n_patterns))

    def _values(self, agents: np.ndarray, contexts: np.ndarray | None) -> np.ndarray:
        return self.q[agents]

    def observe(self, agents, contexts, actions, rewards) -> None:
        # take and put read the table in C order: (agent, action) is at agent * 2**M + action
        taken = agents * self.config.n_patterns + self._pattern_indices(actions)
        tau = self.config.mapra_tau
        self.q.put(taken, (1.0 - tau) * self.q.take(taken) + tau * _finite_rewards(rewards))
        return None


class DrlPopulation(EpsilonGreedy):
    """Network policy: each agent is epsilon-greedy over its own learned
    action values. The networks `params` and their RMSProp averages `sq` are
    one (N, P) block each, the learning rates one array `lr` and the replay
    memories one set of rings, so a slot's arithmetic runs once over all
    active agents.

    Each observed tuple is pushed to its agent's replay, then one clipped
    RMSProp step is taken on a minibatch from it: `replay.pushes` also
    counts updates. The minibatch loss before the step is returned per
    agent for convergence tracking. An event's end decays its agents'
    learning rates.
    """

    reads_contexts = True

    def __init__(self, config: ScenarioConfig, seed: int):
        super().__init__(config, seed)
        self.rng_sample = derive_stream(seed, "sample")
        # per agent, in agent order, so the initial weights are those of N separate draws
        self.params = learning.init_params(config.layer_sizes, config.n_subnets, derive_stream(seed, "init"))
        self.sq = np.zeros_like(self.params)
        self.lr = np.full(config.n_subnets, config.lr_initial)  # (N,)
        self.replay = learning.StackedReplay(config.n_subnets, config.replay, config.n_channels)

    def _values(self, agents: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        return learning.forward_stacked(self.params[agents], self.config.layer_sizes, contexts)

    def observe(self, agents, contexts, actions, rewards) -> np.ndarray:
        cfg = self.config
        actions = self._pattern_indices(actions)
        self.replay.push(agents, contexts, actions, rewards)  # checks that contexts and rewards are finite
        batch = self.replay.sample(agents, cfg.minibatch, self.rng_sample)
        # the agents' rows, gathered once, stepped in place and written back
        params, sq = self.params[agents], self.sq[agents]
        grads, losses = learning.backward_stacked(params, cfg.layer_sizes, batch)
        learning.clip_gradient_stacked(grads, cfg.clip_threshold)
        learning.rmsprop_step_stacked(params, sq, self.lr[agents], grads, cfg.rms_decay, cfg.rms_smoothing)
        self.params[agents] = params
        self.sq[agents] = sq
        return losses

    def end_event(self, agents: np.ndarray) -> None:
        super().end_event(agents)
        self.lr[agents] *= 1.0 - self.config.lr_decay_per_event


Population = RchPopulation | MapRaPopulation | DrlPopulation


def make_policy(config: ScenarioConfig, seed: int) -> Population:
    """The population of all N agents under the configured policy, drawing
    from the streams it derives from the run seed `seed`."""
    if config.policy_kind is PolicyKind.RCH:
        return RchPopulation(config, seed)
    if config.policy_kind is PolicyKind.MAP_RA:
        return MapRaPopulation(config, seed)
    return DrlPopulation(config, seed)
