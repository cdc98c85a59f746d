"""Deployment, mobility, and distance-decaying event activation.

Places a fleet of subnetworks in the factory cell, steps the mobility model,
and shows how the spatial attenuation rate shapes the activation footprint
of an alarm event.
"""

import math
from dataclasses import replace

import numpy as np

from alarmmac.config import ActivationMode, ScenarioConfig, derive_stream
from alarmmac.events import activation_probability, build_active_set, empirical_activation
from alarmmac.geometry import place_uniform, step_mobility

cfg = ScenarioConfig(n_subnets=20, n_channels=3, rng_seed=7)


def closest_pair(poses) -> float:
    xs, ys = poses["x"].tolist(), poses["y"].tolist()
    return min(
        math.hypot(xs[i] - xs[j], ys[i] - ys[j]) for i in range(len(xs)) for j in range(i + 1, len(xs))
    )


print("=== placement ===")
rng = derive_stream(cfg.rng_seed, "placement")
poses = place_uniform(cfg, rng)  # a structured array: one (x, y, heading, cos, sin) row per subnetwork
print(f"{cfg.n_subnets} subnetworks in {cfg.area_width_m:.0f} x {cfg.area_height_m:.0f} m")
print(f"closest pair: {closest_pair(poses):.2f} m (separation floor {cfg.min_separation_m} m, at placement only)")

print("\n=== mobility ===")
mob = derive_stream(cfg.rng_seed, "mobility")
start = poses
poses = step_mobility(poses, cfg, mob, n_steps=1000)  # a new array: the poses and draws of 1000 one-slot steps
moved = [math.hypot(x - x0, y - y0) for x, y, x0, y0 in zip(poses["x"], poses["y"], start["x"], start["y"])]
step = cfg.speed_mps * cfg.slot_ms / 1000.0
print(f"per-slot step {step * 1000:.1f} mm; after 1000 slots mean displacement {np.mean(moved):.2f} m")
print(f"closest pair after 1000 slots: {closest_pair(poses):.2f} m (only the walls turn a pose in motion)")

print("\n=== activation footprint ===")
print("attenuation rate eta -> radius where p(d) crosses the transmit threshold")
for eta in (0.2, 0.6, 1.0):
    radius = math.log(1.0 / cfg.tx_threshold) / eta
    print(f"  eta={eta:<4} p(1 m)={activation_probability(1.0, eta):.3f}  radius={radius:6.2f} m")

print("\nactive sets for one epicenter at the cell center, increasing eta:")
for eta in (0.05, 0.1, 0.3):
    probe = replace(cfg, eta=eta, tx_threshold=0.25,
                    activation_mode=ActivationMode.THRESHOLD_ONLY)
    active = build_active_set((25.0, 25.0), poses, derive_stream(1, "demo"), probe)
    print(f"  eta={eta:<5} -> {len(active):2d} of {cfg.n_subnets} activated: {active}")

print("\nMonte Carlo per-subnetwork activation probability (uniform epicenters):")
probe = replace(cfg, eta=0.1, tx_threshold=0.25, activation_mode=ActivationMode.THRESHOLD_ONLY)
est = empirical_activation(poses, probe, derive_stream(2, "demo"), n_trials=50_000)
print(f"  alpha={probe.alpha}: min {est.min():.4f}  mean {est.mean():.4f}  max {est.max():.4f}")
print("  (interior poses see more epicenters inside their activation disk than corner poses)")
