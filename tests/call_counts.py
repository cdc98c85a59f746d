"""Python and C calls per contention slot and per slot of the slot loop,
counted exactly.

`sys.setprofile` reports every call of a Python function ("call") and of
a builtin function or method ("c_call"). This script counts both over the
slots of one seeded run and prints them per contention slot and per slot,
with the most common C callables. The counts do not depend on the host, so
two runs of one tree print the same numbers, and a change to the calls a
slot makes shows in them even where a timing could not resolve it.

The counter misses ufunc calls (`np.maximum(...)`, `np.add.reduce` counts
as one `reduce`) and array operators (`a * b`, `a[i]`), which the profiler
does not report. numpy's own functions make Python and C calls that differ
between numpy versions, so counts compare only within one numpy version;
the header line names the Python and numpy versions of the run.

The runs use the contention scenario of configs/contention.json, seed 7:
DRL and MAP-RA at N = 20 and RCH at N = 300, where every slot contends,
and the sparse MAP-RA scenario of the benchmark's sparse_mapra workload
(N = 20, alpha 0.05, Bernoulli activation, a 15-slot deadline), where about
one slot in fourteen contends, so its calls per slot show the path between
alarms. Each runs 5 warm-up slots, which fill the first-call caches, and
then counts 250 slots, the sparse run 1000.

    PYTHONPATH=src python tests/call_counts.py

The file is not collected by pytest.
"""

from __future__ import annotations

import platform
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from alarmmac.config import load_config_file  # noqa: E402
from alarmmac.engine import Simulation  # noqa: E402

CONTENTION = load_config_file(str(HERE.parent / "configs" / "contention.json"))
SEED = 7
WARM_SLOTS = 5
COUNTED_SLOTS = 250
# name: config keys over CONTENTION, and the slots counted
RUNS = {
    "drl": (dict(n_subnets=20, policy_kind="drl"), COUNTED_SLOTS),
    "mapra": (dict(n_subnets=20, policy_kind="mapra"), COUNTED_SLOTS),
    "rch": (dict(n_subnets=300, policy_kind="rch"), COUNTED_SLOTS),
    "sparse_mapra": (
        dict(n_subnets=20, policy_kind="mapra", alpha=0.05, activation_mode="threshold_and_bernoulli", deadline_slots=15),
        1000,
    ),
}
TOP_C = 8


@dataclass
class Counts:
    slots: int
    contention_slots: int
    python_calls: int
    c_calls: Counter

    def per_contention_slot(self, n: int) -> float:
        return n / self.contention_slots

    def per_slot(self, n: int) -> float:
        return n / self.slots


def count(scenario: dict, warm: int = WARM_SLOTS, slots: int = COUNTED_SLOTS, seed: int = SEED) -> Counts:
    """The calls of `slots` slots of one run of the config keys `scenario`
    over CONTENTION, after `warm` uncounted ones."""
    sim = Simulation(replace(CONTENTION, **scenario), seed=seed)
    for _ in range(warm):
        sim.run_slot()
    python_calls, c_calls = 0, Counter()

    def profile(frame, event, arg):
        nonlocal python_calls
        if event == "call":
            python_calls += 1
        elif event == "c_call" and arg is not sys.setprofile:  # not the call that ends the count
            c_calls[getattr(arg, "__qualname__", repr(arg))] += 1

    contended = sim.trace.n_contention_slots
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _ in range(slots):
            sim.run_slot()
    finally:
        sys.setprofile(previous)
    contended = sim.trace.n_contention_slots - contended
    if not contended:
        raise RuntimeError(f"{scenario}: no contention slot in {slots} slots")
    return Counts(slots, contended, python_calls, c_calls)


def main() -> int:
    # the C counts compare only within one numpy build, so the header names it
    print(
        f"calls per contention slot and per slot; seed {SEED}, {WARM_SLOTS} warm-up slots; "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )
    for name, (scenario, slots) in RUNS.items():
        counts = count(scenario, slots=slots)
        c_total = sum(counts.c_calls.values())
        print(
            f"{name} N={scenario['n_subnets']}: {counts.contention_slots} contention slots of {counts.slots}; "
            f"per contention slot {counts.per_contention_slot(counts.python_calls):.2f} Python calls, "
            f"{counts.per_contention_slot(c_total):.2f} C calls; "
            f"per slot {counts.per_slot(counts.python_calls):.2f} Python calls, {counts.per_slot(c_total):.2f} C calls"
        )
        top = ", ".join(
            f"{c_name} {counts.per_contention_slot(k):.1f}" for c_name, k in counts.c_calls.most_common(TOP_C)
        )
        print(f"  most common C calls: {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
