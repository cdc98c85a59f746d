import json

import numpy as np
import pytest

from alarmmac import analytics, engine, learning, policies, reporting, selfcheck
from alarmmac.cli import main


def write_config(tmp_path, **extra):
    doc = {
        "n_subnets": 4, "n_channels": 2, "n_slots": 200, "n_runs": 2,
        "alpha": 0.5, "eta": 0.05, "tx_threshold": 0.3, "deadline_slots": 3,
        "policy_kind": "rch",
    }
    doc.update(extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_result(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", cfg_path, "--out", str(out_dir), "--seed", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "rch"
    assert len(list(out_dir.iterdir())) == 1


def test_simulate_overrides_policy_and_runs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main([
        "simulate", "--config", cfg_path, "--policy", "mapra", "--runs", "1", "--slots", "50",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "mapra"
    assert payload["slots_per_run"] == [50]
    assert len(payload["seeds"]) == 1


def test_simulate_bad_config_is_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_subnets": 2, "n_channels": 0}')
    code = main(["simulate", "--config", str(path)])
    assert code == 1
    assert "n_channels" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path, n_runs=1, n_slots=100)
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep", "--config", cfg_path, "--axis", "n_subnets", "--values", "4", "6",
        "--policies", "rch,mapra", "--out", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("rch") == 2 and out.count("mapra") == 2
    assert (out_dir / "sweep_n_subnets.csv").exists()


@pytest.mark.parametrize(
    "axis, values, refusal",
    [("n_subnets", ["4", "20.7"], "n_subnets: must be an integer, got 20.7"),
     ("dnn_shape", ["1x2", "1.5x2"], "dnn_hidden_layers: must be an integer, got 1.5")],
    ids=["n_subnets", "dnn_shape"],
)
def test_sweep_refuses_a_fractional_count_before_any_run(tmp_path, capsys, monkeypatch, axis, values, refusal):
    monkeypatch.setattr(reporting, "run_experiment", lambda *args, **kwargs: pytest.fail("a sweep point ran"))
    code = main(["sweep", "--config", write_config(tmp_path), "--axis", axis, "--values", *values])
    assert code == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"


@pytest.mark.parametrize(
    "axis, text",
    [("dnn_shape", "2x3x4"), ("dnn_shape", "23"), ("dnn_shape", "x3"), ("dnn_shape", "ax3"), ("eta", "abc")],
)
def test_sweep_refuses_unreadable_text_naming_the_axis_before_any_run(tmp_path, capsys, monkeypatch, axis, text):
    monkeypatch.setattr(reporting, "run_experiment", lambda *args, **kwargs: pytest.fail("a sweep point ran"))
    code = main(["sweep", "--config", write_config(tmp_path), "--axis", axis, "--values", text])
    assert code == 1
    err = capsys.readouterr().err
    assert axis in err and repr(text) in err
    assert ("LxS" in err) == (axis == "dnn_shape")


def test_analyze_stationary_table(capsys):
    code = main(["analyze", "--ps", "0.5", "--deadline", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("D")
    # D = 1 row: 1 - 0.5**2 = 0.75
    row = lines[2].split()
    assert float(row[1]) == 0.75 and float(row[2]) == 0.25


def test_analyze_age_dependent(capsys):
    code = main(["analyze", "--ps", "0.2", "0.5", "--deadline", "1"])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert abs(float(last[1]) - 0.6) < 1e-9


@pytest.mark.parametrize(
    "ps,deadline",
    [(["0.3"], 2000), (["-0.0"], 3), (["1"], 3), ([repr(v) for v in np.random.default_rng(4).random(40).tolist()], 39)],
)
def test_analyze_rows_are_the_deadline_d_chains(capsys, ps, deadline):
    # one running pass prints what each row's own chain gives
    assert main(["analyze", "--ps", *ps, "--deadline", str(deadline)]) == 0
    values = np.array([float(v) for v in ps])
    expected = ["D  P_within_deadline  P_missed"]
    for d in range(deadline + 1):
        chain = analytics.stationary_dtmc(values[0], d) if values.size == 1 else analytics.DtmcSpec(values[: d + 1])
        p_leq, p_gt = analytics.deadline_probability(chain)
        expected.append(f"{d:<3}{p_leq:<19.12f}{p_gt:.12f}")
    assert capsys.readouterr().out.splitlines() == expected


def test_analyze_rejects_bad_probability(capsys):
    assert main(["analyze", "--ps", "1.5", "--deadline", "2"]) == 2


def test_analyze_too_few_probabilities_prints_no_rows(capsys):
    assert main(["analyze", "--ps", "0.1", "0.2", "0.3", "--deadline", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 1 or >= 6 success probabilities" in captured.err


def test_analyze_checks_every_probability_before_any_row(capsys):
    # the D = 0 row reads only the first probability; the second is refused too
    assert main(["analyze", "--ps", "0.1", "2", "--deadline", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "success probabilities must lie in [0, 1]" in captured.err


def test_analyze_rejects_negative_deadline(capsys):
    assert main(["analyze", "--ps", "0.3", "--deadline", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "deadline" in captured.err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    for name in ("collision_oracle", "dtmc_consistency", "gradient_check", "clip_norm"):
        assert f"ok   {name}" in out
    assert "of 15 networks skipped near a kink" in out


def test_selftest_catches_a_wrong_pattern_table(monkeypatch, capsys):
    table = policies.pattern_table

    def swapped(n_channels):
        wrong = table(n_channels).copy()
        wrong[[0, 1]] = wrong[[1, 0]]  # silence and pattern 1 trade bits
        return wrong

    # the collision rule reads the table through the engine's name
    monkeypatch.setattr(engine, "_pattern_table", swapped)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert "FAIL collision_oracle" in captured.out
    assert "collision_oracle" in captured.err
    for name in ("dtmc_consistency", "gradient_check", "clip_norm"):
        assert f"ok   {name}" in captured.out


def test_selftest_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    table = policies.pattern_table

    def truncated(n_channels):
        return table(n_channels)[:-1]  # one pattern short: the pattern counts no longer match its rows

    monkeypatch.setattr(engine, "_pattern_table", truncated)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert "FAIL collision_oracle: raised ValueError: " in captured.out
    assert "collision_oracle" in captured.err
    assert "error:" not in captured.err
    for name in ("dtmc_consistency", "gradient_check", "clip_norm"):
        assert f"ok   {name}" in captured.out


def failed_checks():
    return [name for name, passed, _ in selfcheck.selftest() if not passed]


def test_selftest_catches_a_wrong_stacked_gradient(monkeypatch):
    backward = learning.backward_stacked

    def doubled_output_bias(params, layer_sizes, batch):
        grads, losses = backward(params, layer_sizes, batch)
        learning.layer_views(grads, layer_sizes)[-1][1][...] *= 2.0
        return grads, losses

    monkeypatch.setattr(learning, "backward_stacked", doubled_output_bias)
    assert failed_checks() == ["gradient_check"]


def test_selftest_catches_a_wrong_stacked_clip(monkeypatch):
    clip = learning.clip_gradient_stacked

    def loose(grads, beta0):
        return clip(grads, 2.0 * beta0)

    monkeypatch.setattr(learning, "clip_gradient_stacked", loose)
    assert failed_checks() == ["clip_norm"]
