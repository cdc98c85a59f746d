import json
import os
import threading

import numpy as np
import pytest

from alarmmac.config import PolicyKind
from alarmmac.engine import Simulation
from alarmmac.events import AlarmEvent
from alarmmac.reporting import (
    ExperimentResult,
    _atomic_write,
    in_time_probability,
    mse_decile_medians,
    read_result,
    run_experiment,
    sweep,
    system_mse,
    write_result,
)

from conftest import FixedPolicy, make_config


def collision_trace(deadline=4):
    """Two agents pinned to the same channel: every event times out."""
    cfg = make_config(n_subnets=2, alpha=0.0, deadline_slots=deadline, policy_kind=PolicyKind.RCH)
    sim = Simulation(cfg, seed=1)
    sim.policy = FixedPolicy([1, 1])
    for birth in range(3):
        event = AlarmEvent(
            epicenter=(25.0, 25.0), birth_slot=sim.slot, deadline_slots=deadline, active_set=(0, 1)
        )
        sim.live_events.append(event)
        while not event.terminal:
            sim.run_slot()
    return sim.trace


def test_in_time_probability_trivial_cases():
    cfg = make_config(n_subnets=2, alpha=0.0, policy_kind=PolicyKind.RCH)
    sim = Simulation(cfg, seed=1)
    sim.policy = FixedPolicy([1, 2])
    for _ in range(3):
        event = AlarmEvent(epicenter=(25.0, 25.0), birth_slot=sim.slot, deadline_slots=5, active_set=(0, 1))
        sim.live_events.append(event)
        sim.run_slot()
    assert in_time_probability(sim.trace) == 1.0


def test_in_time_probability_forced_collisions_is_zero():
    assert in_time_probability(collision_trace()) == 0.0


def test_in_time_probability_absent_without_events():
    cfg = make_config(alpha=0.0, n_slots=50)
    sim = Simulation(cfg, seed=1)
    sim.run()
    assert in_time_probability(sim.trace) is None


def test_system_mse():
    assert system_mse([0.4]) == 0.4
    assert system_mse([0.2, 0.6]) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        system_mse([])


def test_mse_decile_medians():
    series = list(np.linspace(1.0, 0.0, 100))
    first, last = mse_decile_medians(series)
    assert first > last
    assert mse_decile_medians([1.0, 2.0]) is None


DENSE = dict(
    n_subnets=5, n_channels=2, n_slots=400, alpha=0.5, eta=0.05, tx_threshold=0.3,
    deadline_slots=3, policy_kind=PolicyKind.RCH,
)


def test_run_experiment_single_run_has_no_stderr():
    cfg = make_config(**{**DENSE, "n_runs": 1})
    result = run_experiment(cfg)
    assert result.stderr_in_time is None
    assert len(result.per_run_in_time) == 1
    assert result.wall_clock_s > 0


def test_run_experiment_identical_seeds_zero_variance():
    cfg = make_config(**{**DENSE, "n_runs": 3})
    result = run_experiment(cfg, seeds=[7, 7, 7])
    values = set(result.per_run_in_time)
    assert len(values) == 1
    assert result.stderr_in_time == 0.0


def test_run_experiment_mean_is_arithmetic_mean():
    cfg = make_config(**{**DENSE, "n_runs": 4})
    result = run_experiment(cfg)
    values = [v for v in result.per_run_in_time if v is not None]
    assert abs(result.mean_in_time - sum(values) / len(values)) < 1e-12


def test_slots_per_run_counts_the_slots_actually_run():
    cfg = make_config(**{**DENSE, "n_runs": 3, "n_slots": 5000})
    assert run_experiment(cfg, seeds=[1]).slots_per_run == 5000
    result = run_experiment(cfg, until_events=3)
    ran = [Simulation(cfg, seed=s).run(until_events=3).n_slots for s in result.seeds]
    assert max(ran) < 5000 and len(set(ran)) > 1  # every run stops early, at its own slot
    assert result.slots_per_run == ran
    same = run_experiment(cfg, seeds=[result.seeds[0]] * 2, until_events=3)
    assert same.slots_per_run == ran[0]


def test_mse_decile_medians_are_taken_per_run_then_aggregated():
    cfg = make_config(**{**DENSE, "n_runs": 3, "policy_kind": PolicyKind.DRL})
    result = run_experiment(cfg)
    per_run = [mse_decile_medians(Simulation(cfg, seed=s).run().mse) for s in result.seeds]
    assert None not in per_run
    assert result.mse_first_decile_median == float(np.median([d[0] for d in per_run]))
    assert result.mse_last_decile_median == float(np.median([d[1] for d in per_run]))
    # a run too short for deciles is left out; with none left, both are None
    short = run_experiment(make_config(**{**DENSE, "n_runs": 2, "n_slots": 3, "policy_kind": PolicyKind.DRL}))
    assert short.mse_first_decile_median is None and short.mse_last_decile_median is None


def test_result_file_round_trip(tmp_path):
    cfg = make_config(**{**DENSE, "n_runs": 2})
    result = run_experiment(cfg)
    path = str(tmp_path / "result.json")
    write_result(result, path)
    again = read_result(path)
    assert again == result  # wall clock excluded from equality and the file


def test_write_result_ignores_stale_tmp_directory(tmp_path):
    # a fixed "<path>.tmp" would collide with this directory, or with a
    # concurrent writer of the same path
    cfg = make_config(**{**DENSE, "n_runs": 2})
    result = run_experiment(cfg)
    path = tmp_path / "result.json"
    (tmp_path / "result.json.tmp").mkdir()
    write_result(result, str(path))
    assert read_result(str(path)) == result
    assert sorted(os.listdir(tmp_path)) == ["result.json", "result.json.tmp"]
    plain = tmp_path / "plain.txt"
    plain.write_text("", encoding="utf-8")
    assert path.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777


def test_concurrent_writers_of_one_path(tmp_path):
    path = str(tmp_path / "out.txt")
    errors = []

    def writer(tag):
        try:
            for _ in range(200):
                _atomic_write(path, f"{tag}\n")
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(tag,)) for tag in "abcd"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    with open(path, encoding="utf-8") as fh:
        assert fh.read() in {"a\n", "b\n", "c\n", "d\n"}
    assert os.listdir(tmp_path) == ["out.txt"]


def test_result_files_byte_identical(tmp_path):
    cfg = make_config(**{**DENSE, "n_runs": 2, "rng_seed": 123})
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(cfg, out_dir=d1)
    run_experiment(cfg, out_dir=d2)
    (f1,) = os.listdir(d1)
    (f2,) = os.listdir(d2)
    assert f1 == f2
    with open(os.path.join(d1, f1), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(d2, f2), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_sweep_cardinality_and_common_random_numbers(tmp_path):
    cfg = make_config(**{**DENSE, "n_runs": 2, "n_slots": 120})
    rows = sweep(cfg, "n_subnets", [4, 6], policies=["drl", "mapra", "rch"], out_dir=str(tmp_path))
    assert len(rows) == 6
    by_value = {}
    for label, policy, result in rows:
        by_value.setdefault(label, []).append(result.seeds)
    for seeds_lists in by_value.values():
        assert all(s == seeds_lists[0] for s in seeds_lists)  # CRN across policies
    csv_path = tmp_path / "sweep_n_subnets.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "axis_value,policy,mean,stderr,runs"
    assert len(lines) == 7
    summary = json.loads((tmp_path / "sweep_n_subnets.json").read_text())
    assert len(summary["points"]) == 6


def test_sweep_eta_axis_and_dnn_shape():
    cfg = make_config(**{**DENSE, "n_runs": 1, "n_slots": 60})
    rows = sweep(cfg, "eta", [0.1, 0.3])
    assert [label for label, _, _ in rows] == ["0.1", "0.3"]
    rows = sweep(
        make_config(**{**DENSE, "policy_kind": PolicyKind.DRL, "n_runs": 1, "n_slots": 40}),
        "dnn_shape",
        [(2, 1), (1, 4)],
    )
    assert [label for label, _, _ in rows] == ["2x1", "1x4"]


def test_sweep_invalid_axis_rejected():
    cfg = make_config(**DENSE)
    with pytest.raises(ValueError):
        sweep(cfg, "speed", [1, 2])
    with pytest.raises(ValueError):
        sweep(cfg, "eta", [])


def test_experiment_result_from_dict_round_trip():
    result = ExperimentResult(
        config_fingerprint="ab" * 32,
        policy="rch",
        seeds=[1, 2],
        slots_per_run=10,
        per_run_in_time=[0.5, None],
        mean_in_time=0.5,
        stderr_in_time=None,
        events_delivered=1,
        events_failed=1,
        mse_first_decile_median=None,
        mse_last_decile_median=None,
        mse_series=[],
    )
    assert ExperimentResult.from_dict(result.to_dict()) == result
