"""The benchmark harness under bench/ imports and binds names of the
library's layer modules and reads the poses and events they return; a change
that removes a name, or a pose or event format the harness cannot read,
fails here, not only in the benchmark's traced runs. So does a change that
moves the link or signature work of a traced run out of its layer."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alarmmac import engine, events, geometry, learning
from alarmmac.config import config_to_dict
from alarmmac.engine import Simulation
from conftest import CONTENTION, counting, make_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_benchmark_harness_imports_and_wraps_the_layer_modules(harness):
    tracer, workloads = harness
    original = learning.backward_stacked
    patch = tracer.install(tracer.Tracer(), workloads.HOOKS)
    try:
        assert learning.backward_stacked is not original
    finally:
        patch.apply(False)
    assert learning.backward_stacked is original


def test_benchmark_contention_keys_keep_the_committed_preset(harness):
    # bench/workloads.py keeps its own copy of configs/contention.json until
    # the benchmark reads the file; each key it sets must keep the preset's value
    _, workloads = harness
    preset = config_to_dict(CONTENTION)
    assert {key: preset[key] for key in workloads.CONTENTION} == workloads.CONTENTION


def test_mobility_hook_counts_the_resampled_headings(harness):
    tracer, workloads = harness
    # 0.5 m per slot in a 6 m square: many poses reach a wall within 5 slots
    cfg = make_config(n_subnets=8, area_width_m=6.0, area_height_m=6.0, speed_mps=100.0, slot_ms=5.0)
    rng = np.random.default_rng(3)
    before = geometry.place_uniform(cfg, rng)
    after = geometry.step_mobility(before, cfg, rng, 5)
    resampled = int(np.count_nonzero(before["heading"] != after["heading"]))
    assert resampled > 0
    phase = tracer.Phase()
    workloads.HOOKS["geometry.step_mobility"](phase, (before, cfg, rng, 5), after)
    assert phase.counters == {"resampled": resampled}


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_spawn_hook_counts_the_event_and_its_active_set(harness, threshold):
    tracer, workloads = harness
    # every pose activates at threshold 0; at threshold 1 only one at the epicenter
    cfg = make_config(n_subnets=6, alpha=1.0, tx_threshold=threshold, activation_mode="threshold_only")
    rng = np.random.default_rng(5)
    poses = geometry.place_uniform(cfg, rng)
    event = events.maybe_spawn_event(0, lambda: poses, rng, cfg)
    assert len(event.active_set) == (6 if threshold == 0.0 else 0)
    phase = tracer.Phase()
    hook = workloads.HOOKS["events.maybe_spawn_event"]
    hook(phase, (0, lambda: poses, rng, cfg), None)  # a slot without an event counts nothing
    assert phase.counters == {}
    hook(phase, (0, lambda: poses, rng, cfg), event)
    expected = {"spawned": 1, "active_total": 6} if threshold == 0.0 else {"spawned": 1, "coverage_miss": 1}
    assert phase.counters == expected


LINK_ROUND_CALLS = {  # per contention slot of a policy that reads contexts
    "channel.complex_gaussian": 2,
    "signature.aggregate_pilots": 1,
    "signature.broadcast_cs": 1,
    "signature.contention_signatures": 1,
    "signature.featurize": 1,
}
LINK_BLOCK_CALLS = ("channel.attenuation", "channel.pathloss_db")  # per look-ahead block it builds
LINK_SETUP_CALLS = ("attenuation", "correlation_factor", "draw_los", "los_probability",
                    "pathloss_coefficients", "pathloss_db", "shadowing_db")


@pytest.mark.parametrize("policy", ["drl", "mapra", "rch"])
def test_traced_runs_time_each_link_and_signature_function_in_its_layer(harness, monkeypatch, policy):
    # a wrapped method around the chain would put one layer's time inside another's
    tracer, workloads = harness
    blocks = []
    monkeypatch.setattr(engine, "_look_ahead", counting(blocks, engine._look_ahead))
    tr = tracer.Tracer()
    patch = tracer.install(tr, workloads.HOOKS)
    setup, rounds = tr.phase, tracer.Phase()
    try:
        sim = Simulation(replace(CONTENTION, policy_kind=policy), seed=5)
        tr.phase = rounds
        sim.run(50)
    finally:
        patch.apply(False)

    def link_calls(phase):
        return {name: n for name, n in phase.calls.items() if name.startswith(("channel.", "signature."))}

    if policy != "drl":
        assert link_calls(setup) == {} and link_calls(rounds) == {} and blocks == []
        return
    contention = sim.trace.n_contention_slots
    assert 0 < len(blocks) < contention
    assert link_calls(setup) == {f"channel.{name}": 1 for name in LINK_SETUP_CALLS}
    assert link_calls(rounds) == {
        **{name: n * contention for name, n in LINK_ROUND_CALLS.items()},
        **dict.fromkeys(LINK_BLOCK_CALLS, len(blocks)),
    }
