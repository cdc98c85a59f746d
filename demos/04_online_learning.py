"""One full online-learning run, inspected.

Each active agent trains its own tiny value network from replayed
(context, action, reward) tuples, one clipped RMSProp step per contention
slot; the population object `sim.policy` holds every agent's state, all
its networks in one parameter block. This script watches the exploration
schedule, the learning-rate decay, and the system training error over a
single seeded run.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from alarmmac.config import PolicyKind, load_config_file
from alarmmac.engine import Simulation
from alarmmac.learning import forward_stacked
from alarmmac.policies import DrlPopulation, pattern_bits
from alarmmac.reporting import in_time_probability, mse_decile_medians

# the acceptance criteria's preset: the contention scenario with faster learning
criteria = load_config_file(str(Path(__file__).resolve().parent.parent / "configs" / "criteria.json"))
cfg = replace(criteria, n_subnets=10, policy_kind=PolicyKind.DRL)

sim = Simulation(cfg, seed=314159)
sim.run(n_slots=10**7, until_events=1500)
trace = sim.trace

print(f"events: {len(trace.events)}  contention slots: {trace.n_contention_slots}")
print(f"in-time delivery over the whole run (training included): {in_time_probability(trace):.3f}")

print("\n=== system training error over update epochs ===")
mse = np.array(trace.mse)
chunk = len(mse) // 8
for i in range(8):
    seg = mse[i * chunk:(i + 1) * chunk]
    bar = "#" * int(40 * float(np.median(seg)))
    print(f"epochs {i * chunk:5d}-{(i + 1) * chunk:5d}  median {np.median(seg):.3f} {bar}")
first, last = mse_decile_medians(list(mse))
print(f"first-decile median {first:.3f} -> last-decile median {last:.3f}")

print("\n=== per-agent schedules after the run ===")
fleet = sim.policy
assert isinstance(fleet, DrlPopulation)
agent = 0
print(f"epsilon: start {cfg.epsilon_start} -> now {fleet.epsilon(agent)} (floor {cfg.epsilon_floor})")
print(f"learning rate: start {cfg.lr_initial} -> now {fleet.lr[agent]:.5f}")
print(f"replay memory: {fleet.replay.size[agent]}/{fleet.replay.capacity} tuples, "
      f"{fleet.replay.pushes[agent]} updates")

print("\n=== what the fleet learned ===")
print("greedy pattern of every agent at a typical signature level:")
context = np.full(cfg.n_channels, 0.25)
values = forward_stacked(fleet.params, cfg.layer_sizes, np.tile(context, (cfg.n_subnets, 1)))
preferred = {}
for n, best in enumerate(np.argmax(values, axis=1).tolist()):
    preferred.setdefault(best, []).append(n)
for pattern in sorted(preferred):
    bits = "".join(map(str, pattern_bits(pattern, cfg.n_channels).tolist()))  # channel 0 first
    agents = preferred[pattern]
    print(f"  pattern {pattern} (channels {bits}): agents {agents}")
print("agents spread over different patterns instead of piling onto one channel,")
print("which is the anti-coordination that keeps the shared alarm deliverable")
