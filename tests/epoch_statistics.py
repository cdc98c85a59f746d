"""Per-seed outcome statistics, to judge a change that moves random draws.

A change that reorders random draws or moves the last bit of a
floating-point result changes every trace it touches, so the golden
digests (tests/test_golden.py) cannot tell a faithful change from a wrong
one. Such a change must keep these statistics in distribution instead:

- per-slot success: successful over contention slots;
- in-time probability: events delivered within the deadline over all
  terminal events;
- for DRL, the last-decile MSE median of `reporting.mse_decile_medians`,
  None for a run with fewer than 10 training updates.

They are taken per seed by `reporting.run_experiment`, over the seeds
derive_run_seed(0, s) for s < 20 with one BLAS thread, for the golden
(scenario, policy) pairs at their slot counts and for the criteria preset
(configs/criteria.json) as acceptance criteria 6 (N = 10 DRL, 2000
events) and 7 (N = 20, each policy, 300 events) run it. Criterion 7's
per-seed differences DRL - MAP-RA and DRL - RCH of the first two are
statistics of their own, so a change that moves an ordering beyond its
paired noise fails even when each policy's mean stays inside its own wider
bound.

    PYTHONPATH=src python tests/epoch_statistics.py --write
    PYTHONPATH=src python tests/epoch_statistics.py --check

--write records them in tests/data/epoch_statistics.json, with the commit
it ran at (`git rev-parse --short HEAD`, or "unknown"). --check runs the
current code and fails if any mean differs from the recorded one by more
than three combined standard errors, sqrt(s_rec**2 / n + s_now**2 / n); for
a paired row these are the standard errors of its per-seed differences. A
seed whose value is None on either side is left out of that row, and a row
with fewer than two seeds left has no standard error and fails.
It also prints criterion 7's current paired differences with their 95 %
intervals. The file is not collected by pytest; the full run takes one to
two minutes.
"""

import argparse
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# before numpy, as under pytest: conftest pins one BLAS thread, and the
# crowded scenarios' shadowing Cholesky differs in its last bits between
# thread counts
from conftest import CRITERIA  # noqa: E402
import numpy as np  # noqa: E402

from alarmmac.config import PolicyKind  # noqa: E402
from alarmmac.reporting import paired_difference, run_experiment  # noqa: E402

from test_golden import GOLDEN, SCENARIOS  # noqa: E402

DATA = HERE / "data" / "epoch_statistics.json"
N_SEEDS = 20
POLICIES = ("rch", "mapra", "drl")
# criterion 7's DRL is compared seed by seed with these policies, on these statistics
PAIRED_WITH = ("mapra", "rch")
PAIRED = ("in_time", "per_slot_success")


def cases():
    """name -> (config, events): each of the config's runs stops at its
    n_slots slots or after `events` terminal events, whichever comes
    first."""
    runs = {"n_runs": N_SEEDS, "rng_seed": 0}
    out = {}
    for scenario, policy in GOLDEN:
        config, slots = SCENARIOS[scenario]
        out[f"golden {scenario} {policy}"] = (replace(config, **runs, policy_kind=policy, n_slots=slots), None)
    out["criterion 6 drl"] = (replace(CRITERIA, n_subnets=10, policy_kind="drl", **runs), 2000)
    for policy in POLICIES:
        out[f"criterion 7 {policy}"] = (replace(CRITERIA, policy_kind=policy, **runs), 300)
    return out


def collect() -> dict[str, dict[str, list[float | None]]]:
    """name -> statistic -> per-seed values in seed order, the paired rows
    included."""
    out = {}
    for name, (config, events) in cases().items():
        result = run_experiment(config, until_events=events)
        if None in result.per_run_in_time or None in result.per_run_success:
            raise RuntimeError(f"{name}: a run with no terminal event or contention slot")
        out[name] = {"per_slot_success": result.per_run_success, "in_time": result.per_run_in_time}
        if config.policy_kind is PolicyKind.DRL:
            out[name]["mse_last_decile"] = [None if d is None else d[1] for d in result.per_run_mse_deciles]
        print(f"ran {name}", file=sys.stderr)
    drl = out["criterion 7 drl"]
    for other in PAIRED_WITH:
        base = out[f"criterion 7 {other}"]
        out[f"criterion 7 drl - {other}"] = {
            key: [a - b for a, b in zip(drl[key], base[key])] for key in PAIRED
        }
    return out


def commit() -> str:
    """The short hash of the checked-out commit, or "unknown"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def mean_and_se(values: Sequence[float]) -> tuple[float, float]:
    a = np.asarray(values, dtype=float)
    return float(a.mean()), float(a.std(ddof=1) / math.sqrt(len(a)))


def compare(recorded: dict, current: dict) -> list[str]:
    """One table row per statistic, over the seeds where neither side's
    value is None; rows that fail start with FAIL."""
    rows = []
    for name, stats in recorded.items():
        for key, old in stats.items():
            pairs = [(a, b) for a, b in zip(old, current[name][key]) if a is not None and b is not None]
            if len(pairs) < 2:
                rows.append(f"FAIL | {name} | {key} | {len(pairs)} paired seeds, too few for a standard error")
                continue
            (m_old, se_old), (m_new, se_new) = (mean_and_se(side) for side in zip(*pairs))
            bound = 3.0 * math.hypot(se_old, se_new)
            verdict = "ok" if abs(m_new - m_old) <= bound else "FAIL"
            rows.append(
                f"{verdict:4} | {name} | {key} | {m_old:.4f} ± {se_old:.4f} | {m_new:.4f} ± {se_new:.4f} "
                f"| {m_new - m_old:+.4f} (bound {bound:.4f})"
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"record the statistics in {DATA.name}")
    mode.add_argument("--check", action="store_true", help="compare the current code with the record")
    args = parser.parse_args()
    current = collect()
    if args.write:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps({"commit": commit(), "statistics": current}, indent=1) + "\n")
        print(f"wrote {DATA}")
        return 0
    record = json.loads(DATA.read_text())
    rows = compare(record["statistics"], current)
    print(f"recorded at commit {record['commit']}")
    print("verdict | run | statistic | recorded mean ± se | current mean ± se | difference")
    print("\n".join(rows))
    failed = sum(row.startswith("FAIL") for row in rows)
    print(f"{failed} of {len(rows)} means outside three combined standard errors")
    drl = current["criterion 7 drl"]
    for other in PAIRED_WITH:
        for key in PAIRED:
            d = paired_difference(drl[key], current[f"criterion 7 {other}"][key])
            print(
                f"criterion 7 drl - {other} {key}: {d.mean:+.4f} (sd {d.sd:.4f}, se {d.se:.4f}, "
                f"95 % interval [{d.low:+.4f}, {d.high:+.4f}]), drl ahead on {d.wins} of {d.n} seeds"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
