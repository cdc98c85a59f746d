"""Python and C calls of one run's set-up, and per contention slot and per
slot of the slot loop, counted exactly.

`sys.setprofile` reports every call of a Python function ("call") and of
a builtin function or method ("c_call"). This script counts both over one
`Simulation(config, seed)` construction and over the slots of that seeded
run, and prints them for the set-up, per contention slot and per slot, with
the most common Python and C callables of the slots. A Python callable is
named by its module and qualified name, and a generator counts once per
resumption: numpy's `_einsum_dispatcher`, resumed 5 times per `einsum`
call, counts 5. The counts do not depend on the host, so two runs of one
tree print the same numbers, and a change to the calls a set-up or a slot
makes shows in them even where a timing could not resolve it.

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
alarms. Each builds one uncounted simulation first, which fills the
first-call caches and imports of set-up, and counts the second; it then
runs 5 warm-up slots, which fill those of the slot loop, and counts 250
slots, the sparse run 1000.

For each scenario it also prints, per 1000 counted slots, the look-ahead
pose blocks built (`geometry._look_ahead`, only in a run whose policy
reads contexts) and the `geometry.step_mobility` calls, each the catch-up
of a read past a block's clean prefix, which is 0 in a context-free run.
It splits the calls of the counted slots into one-slot windows, which
`geometry._advance_window` screens with the one-slot test, and longer ones,
counted in a fresh run of the same slots.

For each scenario it also prints the bytes that dropping the run record
(`RunTrace`) of a fresh run of the same warm-up and counted slots frees,
per contention slot, from `tracemalloc`: the memory a run retains per slot
beyond its fixed state. Like the call counts, they do not depend on the
host, only on the Python build.

    PYTHONPATH=src python tests/call_counts.py

The file is not collected by pytest.
"""

from __future__ import annotations

import gc
import platform
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from alarmmac import engine  # noqa: E402
from alarmmac.config import load_config_file  # noqa: E402
from alarmmac.engine import Simulation  # noqa: E402
from alarmmac.geometry import step_mobility  # noqa: E402

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
TOP = 8


@dataclass
class Counts:
    setup_python_calls: int
    setup_c_calls: int
    slots: int
    contention_slots: int
    python_callables: Counter
    c_calls: Counter

    @property
    def python_calls(self) -> int:
        return sum(self.python_callables.values())

    def per_contention_slot(self, n: int) -> float:
        return n / self.contention_slots

    def per_slot(self, n: int) -> float:
        return n / self.slots


def profiled(call: Callable[[], Any]) -> tuple[Any, Counter, Counter]:
    """What `call()` returns, and the Python calls and the C calls, by
    callable, that it makes."""
    python_calls, c_calls = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            python_calls[f"{frame.f_globals.get('__name__')}.{getattr(code, 'co_qualname', code.co_name)}"] += 1
        elif event == "c_call" and arg is not sys.setprofile:  # not the call that ends the count
            c_calls[getattr(arg, "__qualname__", repr(arg))] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, python_calls, c_calls


def count(scenario: dict, warm: int = WARM_SLOTS, slots: int = COUNTED_SLOTS, seed: int = SEED) -> Counts:
    """The calls of the second `Simulation` construction of the config keys
    `scenario` over CONTENTION, and of `slots` slots of its run after `warm`
    uncounted ones."""
    config = replace(CONTENTION, **scenario)
    Simulation(config, seed=seed)
    sim, setup_python, setup_c = profiled(lambda: Simulation(config, seed=seed))
    for _ in range(warm):
        sim.run_slot()
    contended = sim.trace.n_contention_slots

    def run():
        for _ in range(slots):
            sim.run_slot()

    _, python_calls, c_calls = profiled(run)
    contended = sim.trace.n_contention_slots - contended
    if not contended:
        raise RuntimeError(f"{scenario}: no contention slot in {slots} slots")
    return Counts(sum(setup_python.values()), sum(setup_c.values()), slots, contended, python_calls, c_calls)


def mobility_windows(scenario: dict, slots: int) -> list[int]:
    """The `n_steps` of each `step_mobility` call in `slots` slots of a
    fresh run of the config keys `scenario` over CONTENTION, after the
    warm-up slots: the calls of `count`'s run, which draws the same."""
    sim = Simulation(replace(CONTENTION, **scenario), seed=SEED)
    for _ in range(WARM_SLOTS):
        sim.run_slot()
    windows = []

    def counted(poses, config, rng, n_steps=1):
        windows.append(n_steps)
        return step_mobility(poses, config, rng, n_steps)

    engine.step_mobility = counted
    try:
        for _ in range(slots):
            sim.run_slot()
    finally:
        engine.step_mobility = step_mobility
    return windows


def retained_record(scenario: dict, slots: int, seed: int = SEED) -> tuple[int, int]:
    """(bytes freed by dropping the run record of `slots` slots of the
    config keys `scenario` over CONTENTION, its contention slots)."""
    config = replace(CONTENTION, **scenario)
    tracemalloc.start()
    try:
        trace = Simulation(config, seed=seed).run(slots)
        contended = trace.n_contention_slots
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        return with_trace - tracemalloc.get_traced_memory()[0], contended
    finally:
        tracemalloc.stop()


def main() -> int:
    # the C counts compare only within one numpy build, so the header names it
    print(
        f"calls of one set-up, per contention slot and per slot; seed {SEED}, {WARM_SLOTS} warm-up slots; "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )
    for name, (scenario, slots) in RUNS.items():
        counts = count(scenario, slots=slots)
        c_total = sum(counts.c_calls.values())
        print(
            f"{name} N={scenario['n_subnets']}: {counts.contention_slots} contention slots of {counts.slots}; "
            f"set-up {counts.setup_python_calls} Python calls, {counts.setup_c_calls} C calls; "
            f"per contention slot {counts.per_contention_slot(counts.python_calls):.2f} Python calls, "
            f"{counts.per_contention_slot(c_total):.2f} C calls; "
            f"per slot {counts.per_slot(counts.python_calls):.2f} Python calls, {counts.per_slot(c_total):.2f} C calls"
        )
        blocks, steps = (1000 * counts.python_callables[f"alarmmac.geometry.{name}"] / counts.slots
                         for name in ("_look_ahead", "step_mobility"))
        windows = mobility_windows(scenario, slots)
        print(
            f"  mobility per 1000 slots: {blocks:.1f} look-ahead blocks, {steps:.1f} step_mobility calls; "
            f"{windows.count(1)} of the {len(windows)} calls one-slot windows"
        )
        for kind, calls in (("Python", counts.python_callables), ("C", counts.c_calls)):
            top = ", ".join(f"{name} {counts.per_contention_slot(k):.1f}" for name, k in calls.most_common(TOP))
            print(f"  most common {kind} calls: {top}")
        retained, contended = retained_record(scenario, WARM_SLOTS + slots)
        print(
            f"  run record: {retained / contended:.1f} bytes retained per contention slot "
            f"({retained} bytes over {contended} contention slots)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
