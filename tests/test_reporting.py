import json
import math
import os
import tempfile
import threading

import numpy as np
import pytest

from alarmmac import reporting
from alarmmac.config import ConfigError, PolicyKind
from alarmmac.engine import Simulation
from alarmmac.reporting import (
    ExperimentResult,
    _atomic_write,
    _t_quantile_975,
    in_time_probability,
    mse_decile_medians,
    paired_difference,
    run_experiment,
    sweep,
    write_result,
)

from conftest import FixedPolicy, inject_event, make_config


def collision_trace(deadline=4):
    """Two agents pinned to the same channel: every event times out."""
    cfg = make_config(n_subnets=2, alpha=0.0, deadline_slots=deadline, policy_kind=PolicyKind.RCH)
    sim = Simulation(cfg, seed=1)
    sim.policy = FixedPolicy([1, 1])
    for birth in range(3):
        inject_event(sim, (0, 1))
        while sim.event is not None:
            sim.run_slot()
    return sim.trace


def test_in_time_probability_trivial_cases():
    cfg = make_config(n_subnets=2, alpha=0.0, policy_kind=PolicyKind.RCH)
    sim = Simulation(cfg, seed=1)
    sim.policy = FixedPolicy([1, 2])
    for _ in range(3):
        inject_event(sim, (0, 1))
        sim.run_slot()
    assert in_time_probability(sim.trace) == 1.0


def test_in_time_probability_forced_collisions_is_zero():
    assert in_time_probability(collision_trace()) == 0.0


def test_in_time_probability_absent_without_events():
    cfg = make_config(alpha=0.0, n_slots=50)
    sim = Simulation(cfg, seed=1)
    sim.run()
    assert in_time_probability(sim.trace) is None


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
    assert run_experiment(cfg, seeds=[1]).slots_per_run == [5000]
    result = run_experiment(cfg, until_events=3)
    traces = [Simulation(cfg, seed=s).run(until_events=3) for s in result.seeds]
    ran = [trace.n_slots for trace in traces]
    assert max(ran) < 5000 and len(set(ran)) > 1  # every run stops early, at its own slot
    assert result.slots_per_run == ran
    assert result.per_run_success == [t.n_successful_slots / t.n_contention_slots for t in traces]
    same = run_experiment(cfg, seeds=[result.seeds[0]] * 2, until_events=3)
    assert same.slots_per_run == [ran[0]] * 2
    # a run with no contention slot has no per-slot success
    idle = run_experiment(make_config(**{**DENSE, "n_slots": 0}), seeds=[1])
    assert (idle.slots_per_run, idle.per_run_success, idle.per_run_in_time) == ([0], [None], [None])


def test_run_experiment_until_zero_events_runs_no_slot():
    result = run_experiment(make_config(**DENSE), seeds=[1, 2], until_events=0)
    assert result.slots_per_run == [0, 0] and result.per_run_in_time == [None, None]


def test_run_experiment_refuses_an_empty_seed_list_before_any_run(monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(reporting, "Simulation", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="seeds"):
        run_experiment(make_config(**DENSE), seeds=[], out_dir=str(tmp_path))
    assert built == [] and list(tmp_path.iterdir()) == []


def test_mse_decile_medians_are_taken_per_run_then_aggregated():
    cfg = make_config(**{**DENSE, "n_runs": 3, "policy_kind": PolicyKind.DRL})
    result = run_experiment(cfg)
    per_run = [mse_decile_medians(Simulation(cfg, seed=s).run().mse) for s in result.seeds]
    assert None not in per_run
    assert result.per_run_mse_deciles == [list(d) for d in per_run]
    assert result.mse_first_decile_median == float(np.median([d[0] for d in per_run]))
    assert result.mse_last_decile_median == float(np.median([d[1] for d in per_run]))
    # at 20 slots the first seed has 13 MSE points and the second 5: the
    # second has no deciles and is left out of the medians
    mixed_cfg = make_config(**{**DENSE, "n_runs": 2, "n_slots": 20, "policy_kind": PolicyKind.DRL})
    mixed = run_experiment(mixed_cfg)
    first, second = (Simulation(mixed_cfg, seed=s).run().mse for s in mixed.seeds)
    assert len(first) >= 10 > len(second)
    assert mixed.per_run_mse_deciles == [list(mse_decile_medians(first)), None]
    assert [mixed.mse_first_decile_median, mixed.mse_last_decile_median] == mixed.per_run_mse_deciles[0]
    # with none left, both are None
    short = run_experiment(make_config(**{**DENSE, "n_runs": 2, "n_slots": 3, "policy_kind": PolicyKind.DRL}))
    assert short.per_run_mse_deciles == [None, None]
    assert short.mse_first_decile_median is None and short.mse_last_decile_median is None


def test_result_file_round_trip(tmp_path):
    cfg = make_config(**{**DENSE, "n_runs": 2})
    result = run_experiment(cfg)
    path = str(tmp_path / "result.json")
    write_result(result, path)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == result.to_dict()  # the wall clock is not in the file


def test_write_result_ignores_stale_tmp_directory(tmp_path):
    # a fixed "<path>.tmp" would collide with this directory, or with a
    # concurrent writer of the same path
    cfg = make_config(**{**DENSE, "n_runs": 2})
    result = run_experiment(cfg)
    path = tmp_path / "result.json"
    (tmp_path / "result.json.tmp").mkdir()
    write_result(result, str(path))
    assert json.loads(path.read_text(encoding="utf-8")) == result.to_dict()
    assert sorted(os.listdir(tmp_path)) == ["result.json", "result.json.tmp"]
    plain = tmp_path / "plain.txt"
    plain.write_text("", encoding="utf-8")
    assert path.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777


def test_concurrent_writers_of_one_path(tmp_path):
    # a rename over an existing file can take tens of ms on a journalling disk: the same race runs in memory
    with tempfile.TemporaryDirectory(dir="/dev/shm" if os.access("/dev/shm", os.W_OK) else tmp_path) as directory:
        path = os.path.join(directory, "out.txt")
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
        assert os.listdir(directory) == ["out.txt"]


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
    with pytest.raises(ValueError, match="at least one policy"):
        sweep(cfg, "eta", [0.1], policies=[])


@pytest.mark.parametrize(
    "axis, good, bad, key",
    [
        ("n_subnets", 4, 20.7, "n_subnets"),
        ("eta", 0.1, True, "eta"),
        ("dnn_shape", (1, 1), (1.9, 2.5), "dnn_hidden_layers"),
    ],
)
def test_sweep_refuses_a_value_its_field_does_not_take_before_any_run(monkeypatch, axis, good, bad, key):
    monkeypatch.setattr(reporting, "run_experiment", lambda *args, **kwargs: pytest.fail("a sweep point ran"))
    with pytest.raises(ConfigError, match=f"^{key}: "):
        sweep(make_config(**DENSE), axis, [good, bad])


def test_result_file_holds_none_and_empty_fields(tmp_path):
    result = ExperimentResult(
        config_fingerprint="ab" * 32,
        policy="rch",
        seeds=[1, 2],
        slots_per_run=[10, 10],
        per_run_in_time=[0.5, None],
        per_run_success=[0.25, None],
        per_run_mse_deciles=[None, None],
        mean_in_time=0.5,
        stderr_in_time=None,
        events_delivered=1,
        events_failed=1,
        mse_first_decile_median=None,
        mse_last_decile_median=None,
        mse_series=[],
    )
    path = tmp_path / "result.json"
    write_result(result, str(path))
    assert json.loads(path.read_text(encoding="utf-8")) == result.to_dict()


def test_paired_difference_matches_a_hand_computed_case():
    # differences 2, 3, 1, 4: mean 2.5, variance (0.25 + 0.25 + 2.25 + 2.25) / 3 = 5/3
    d = paired_difference([3.0, 5.0, 4.0, 6.0], [1.0, 2.0, 3.0, 2.0])
    assert (d.n, d.wins) == (4, 4)
    assert d.mean == 2.5
    assert d.sd == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
    assert d.se == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0, rel=1e-12)
    half = 3.182446 * math.sqrt(5.0 / 3.0) / 2.0  # t quantile at 3 degrees of freedom
    assert (d.low, d.high) == (pytest.approx(2.5 - half, rel=1e-12), pytest.approx(2.5 + half, rel=1e-12))
    # swapping the samples flips the sign and the count of wins
    flipped = paired_difference([1.0, 2.0, 3.0, 2.0], [3.0, 5.0, 4.0, 6.0])
    assert (flipped.mean, flipped.wins, flipped.low) == (-2.5, 0, -d.high)


def test_paired_difference_of_a_constant_shift_has_no_spread():
    b = [0.125, 0.5, 0.75, 0.25, 1.0]
    d = paired_difference([x + 0.25 for x in b], b)
    assert (d.n, d.mean, d.sd, d.se, d.wins, d.low, d.high) == (5, 0.25, 0.0, 0.0, 5, 0.25, 0.25)
    tie = paired_difference(b, b)
    assert (tie.mean, tie.se, tie.wins) == (0.0, 0.0, 0)


@pytest.mark.parametrize("a,b", [
    ([1.0], [2.0]),
    ([1.0, 2.0], [1.0]),
    ([[1.0, 2.0]], [[1.0, 2.0]]),
    ([1.0, np.nan], [0.0, 0.0]),
    ([1.0, 0.5], [None, 0.0]),  # a run with no terminal event has no in-time probability
    ([1.0, 0.5], [0.0, np.inf]),
])
def test_paired_difference_rejects_unpaired_or_single_samples(a, b):
    with pytest.raises(ValueError):
        paired_difference(a, b)


def test_t_quantile_table_is_exact_at_its_rows_and_wider_between_them():
    assert _t_quantile_975(1) == 12.706205
    assert _t_quantile_975(19) == 2.093024
    assert _t_quantile_975(45) == _t_quantile_975(40) == 2.021075
    assert _t_quantile_975(10**6) == 1.979930
