"""Head-to-head policy comparison with common random numbers.

Runs the learned policy, the context-free value-table bandit, and uniform
random selection over the same seeds at each sweep point, then prints the
in-time delivery table the sweep CSVs are built from.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from alarmmac.config import load_config_file
from alarmmac.reporting import sweep

# the acceptance criteria's preset: the contention scenario with faster learning
criteria = load_config_file(str(Path(__file__).resolve().parent.parent / "configs" / "criteria.json"))
base = replace(criteria, n_subnets=12, n_runs=6, rng_seed=2718)

with tempfile.TemporaryDirectory(prefix="alarmmac_sweep_") as tmp:
    rows = sweep(
        base, axis="n_subnets", values=[8, 12, 16],
        policies=["drl", "mapra", "rch"], out_dir=tmp, until_events=250,
    )
    written = sorted(p.name for p in Path(tmp).iterdir())

print("in-time alarm delivery, 250 events per run, 6 runs per point")
print(f"{'N':>4} {'policy':>7} {'mean':>7} {'stderr':>7}")
for label, policy, result in rows:
    err = f"{result.stderr_in_time:.3f}" if result.stderr_in_time is not None else "  -  "
    print(f"{label:>4} {policy:>7} {result.mean_in_time:7.3f} {err:>7}")

print("\nevery policy at a sweep point ran the same seeds (common random numbers),")
print("so differences come from the policies, not from the scenario draws")
print(f"\nthe sweep wrote {written} (removed with its temporary directory)")
