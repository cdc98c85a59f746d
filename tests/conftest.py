import math
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads BLAS. Above about N = 120 the
# Cholesky factor of the shadowing covariance differs in its last bits
# between one and two OpenBLAS threads, and the crowded DRL golden digest
# (N = 150) reads it through the contexts. bench/run.py pins the same value.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py could pin BLAS threads"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest

from alarmmac.config import ScenarioConfig, load_config_file
from alarmmac.events import AlarmEvent
from alarmmac.geometry import _POSE


class FixedPolicy:
    """Test stub population: agent n always plays patterns[n]; records, per
    agent, what it observes and how many of its events ended, and the order
    of the observe and end_event calls."""

    reads_contexts = False

    def __init__(self, patterns):
        self.patterns = list(patterns)
        self.observed: list[list[tuple[int, float]]] = [[] for _ in self.patterns]
        self.events_ended = [0] * len(self.patterns)
        self.calls: list[tuple[str, tuple[int, ...]]] = []

    def select_action(self, agents, contexts):
        return np.array([self.patterns[n] for n in agents], dtype=np.int64)

    def observe(self, agents, contexts, actions, rewards):
        self.calls.append(("observe", tuple(agents)))
        for n, action, reward in zip(agents, actions, rewards):
            self.observed[n].append((int(action), float(reward)))
        return None

    def end_event(self, agents):
        self.calls.append(("end_event", tuple(agents)))
        for n in agents:
            self.events_ended[n] += 1


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the contention scenario: several agents per alarm, each detecting it
# (alpha = 1, threshold activation), and D = 2, at N = 20
CONTENTION = load_config_file(str(CONFIGS / "contention.json"))
# the preset of acceptance criteria 3, 6 and 7: the contention scenario,
# run until its events are counted, with faster learning than the defaults
CRITERIA = load_config_file(str(CONFIGS / "criteria.json"))
# config keys of a small fast room: 0.12 m per slot in a 12 x 9 m rectangle,
# so some pose reaches a wall every few slots
BOUNCING = dict(n_subnets=20, area_width_m=12.0, area_height_m=9.0, speed_mps=40.0, min_separation_m=1.0)


def pose_array(records) -> np.ndarray:
    """Poses as `geometry` keeps them, from (x, y, heading) tuples: each
    carries its direction, the `math.cos` and `math.sin` of its heading."""
    rows = [(x, y, h, math.cos(h), math.sin(h)) for x, y, h in records]
    return np.array(rows, dtype=_POSE)


def make_config(**kwargs) -> ScenarioConfig:
    kwargs.setdefault("n_subnets", 4)
    kwargs.setdefault("n_channels", 2)
    return ScenarioConfig(**kwargs)


def agent_array(*agents: int) -> np.ndarray:
    """Distinct agents as a population takes them: one `np.intp` array."""
    return np.array(agents, dtype=np.intp)


def counting(calls: list, fn):
    """`fn`, appending its positional arguments to `calls` at every call."""

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted


def inject_event(sim, active) -> AlarmEvent:
    """Make an alarm with active set `active` live in `sim`, born in its
    next slot, as its slot loop does on a spawn: the event and its agents
    as one array."""
    sim.event = AlarmEvent(epicenter=(25.0, 25.0), birth_slot=sim.trace.n_slots, active_set=tuple(active))
    sim.event_agents = agent_array(*active)
    return sim.event


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
