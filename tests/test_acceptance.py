"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The learning criteria
(6 and 7) execute full training runs and take a few minutes combined.
"""

import math
import time
from dataclasses import replace

import numpy as np

from alarmmac import analytics, selfcheck
from alarmmac.config import PolicyKind, ScenarioConfig, derive_run_seed
from alarmmac.engine import Simulation
from alarmmac.policies import make_policy
from alarmmac.reporting import in_time_probability, paired_difference, run_experiment

from conftest import CRITERIA


def report(num: int, title: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {status} - {title}{suffix}")
    assert passed, f"criterion {num}: {title}{suffix}"


def test_criterion_1_collision_oracle_equivalence():
    started = time.perf_counter()
    mismatches, checked = selfcheck.collision_mismatches((1, 2, 3), 4)
    elapsed = time.perf_counter() - started
    report(
        1,
        "collision resolution matches exhaustive indicator evaluation",
        mismatches == 0 and elapsed < 1.0,
        f"{checked} joint assignments, {elapsed:.2f}s",
    )


def test_criterion_2_dtmc_consistency():
    worst_pair, worst_stationary = selfcheck.dtmc_disagreement(np.random.default_rng(2024), 100)
    report(
        2,
        "deadline probabilities agree across product, absorption, and path forms",
        worst_pair < 1e-10 and worst_stationary < 1e-12,
        f"max pairwise {worst_pair:.2e}, max vs closed form {worst_stationary:.2e}",
    )


def test_criterion_3_simulation_matches_theory():
    started = time.perf_counter()
    cfg = ScenarioConfig(
        n_subnets=4, n_channels=2, policy_kind=PolicyKind.RCH,
        eta=1e-6, tx_threshold=0.5, activation_mode="threshold_only",
        alpha=1.0, deadline_slots=1, n_slots=100_000,
    )
    sim = Simulation(cfg, seed=20240)
    trace = sim.run()
    per_slot = trace.n_successful_slots / trace.n_contention_slots
    theory_ps = analytics.success_probability_bruteforce(
        np.ones(4), analytics.uniform_access(4, 2)
    )
    in_time = in_time_probability(trace)
    theory_in_time, _ = analytics.stationary_deadline_probability(theory_ps, cfg.deadline_slots)
    elapsed = time.perf_counter() - started
    ok = (
        abs(per_slot - theory_ps) < 0.02
        and abs(in_time - theory_in_time) < 0.02
        and elapsed < 30.0
    )
    report(
        3,
        "random policy simulation matches exact success and deadline probabilities",
        ok,
        f"per-slot {per_slot:.4f} vs {theory_ps:.4f}, in-time {in_time:.4f} vs "
        f"{theory_in_time:.4f}, {elapsed:.1f}s for {trace.n_contention_slots} slots",
    )


def test_criterion_3_at_benchmark_scale_matches_dp():
    # contention slots at N = 20 hold up to a dozen agents, beyond any
    # enumeration; given each slot's active count k, an RCH slot succeeds
    # independently with the DP's exact P_s(k)
    cfg = replace(CRITERIA, policy_kind=PolicyKind.RCH)
    sim = Simulation(cfg, seed=derive_run_seed(0, 0))
    counts = []
    select = sim.policy.select_action

    def recording(agents, contexts):
        counts.append(len(agents))
        return select(agents, contexts)

    sim.policy.select_action = recording
    trace = sim.run(n_slots=5000)
    ps = {k: analytics.success_probability_dp(np.ones(k), analytics.uniform_access(k, 3)) for k in set(counts)}
    expected = sum(ps[k] for k in counts)
    sigma = math.sqrt(sum(ps[k] * (1.0 - ps[k]) for k in counts))
    observed = trace.n_successful_slots
    report(
        3,
        "random policy at N = 20 matches the exact DP success given each slot's active count",
        len(counts) == trace.n_contention_slots and max(counts) > 6
        and abs(observed - expected) <= 4.0 * sigma,
        f"{observed} successful slots vs {expected:.1f} +- {sigma:.1f} expected over "
        f"{len(counts)} contention slots, k up to {max(counts)}",
    )


def test_criterion_4_gradient_correctness():
    # networks near a rectifier's kink are skipped: there central
    # differences do not estimate the gradient
    worst, near_kink = selfcheck.worst_gradient_error(np.random.default_rng(4), 100, max_batch=5)
    report(4, "stacked backprop matches central finite differences on 100 random stacks of 3 networks",
           worst < 1e-4 and near_kink <= 10,
           f"max relative error {worst:.2e} ({near_kink} of 300 networks skipped near a kink)")


def test_criterion_5_clipping_and_schedules():
    clip_ok = selfcheck.clip_violations(np.random.default_rng(5), 1000) == 0

    cfg = ScenarioConfig(n_subnets=2, n_channels=2, policy_kind=PolicyKind.MAP_RA)
    policy = make_policy(cfg, seed=5)
    eps_ok = policy.epsilon(0) == 1.0
    for event in range(1, 241):
        policy.end_event(np.array([0], dtype=np.intp))
        if event == 179:
            eps_ok &= policy.epsilon(0) > 0.1
        if event == 180:
            eps_ok &= policy.epsilon(0) == 0.1
        if event > 180:
            eps_ok &= policy.epsilon(0) == 0.1
    eps_ok &= policy.epsilon(1) == 1.0  # another agent's events do not count
    report(5, "post-clip norm bounded by 5; exploration floor 0.1 hit at event 180",
           clip_ok and eps_ok)


def test_criterion_6_training_reduces_system_mse():
    started = time.perf_counter()
    cfg = replace(CRITERIA, n_subnets=10, policy_kind=PolicyKind.DRL, n_runs=10)
    deciles = run_experiment(cfg, until_events=2000).per_run_mse_deciles
    passing = sum(d is not None and d[1] < d[0] for d in deciles)
    details = [f"{d[0]:.3f}->{d[1]:.3f}" if d else "none" for d in deciles]
    elapsed = time.perf_counter() - started
    report(6, "system MSE median falls from first to last decile for >= 9/10 seeds",
           passing >= 9 and elapsed < 300.0,
           f"{passing}/10 seeds, {elapsed:.0f}s; " + " ".join(details[:3]) + " ...")


def test_criterion_7_policy_ordering():
    started = time.perf_counter()
    seeds = [derive_run_seed(0, s) for s in range(20)]  # common random numbers
    in_time = {}
    for kind in (PolicyKind.DRL, PolicyKind.MAP_RA, PolicyKind.RCH):
        result = run_experiment(replace(CRITERIA, policy_kind=kind), seeds=seeds, until_events=300)
        in_time[kind.value] = result.per_run_in_time
    means = {kind: float(np.mean(vals)) for kind, vals in in_time.items()}
    elapsed = time.perf_counter() - started
    ok = (
        means["drl"] >= means["mapra"]
        and means["drl"] >= means["rch"] + 0.05
        and elapsed < 900.0
    )
    # the per-seed differences, beside the claim, which stays on the means
    paired = []
    for other in ("mapra", "rch"):
        d = paired_difference(in_time["drl"], in_time[other])
        paired.append(f"drl - {other} {d.mean:+.4f} [{d.low:+.4f}, {d.high:+.4f}], ahead on {d.wins}/{d.n}")
    report(7, "learned policy beats the bandit and clears random selection by 0.05",
           ok,
           f"drl {means['drl']:.3f}, mapra {means['mapra']:.3f}, rch {means['rch']:.3f}; "
           + "; ".join(paired) + f"; {elapsed:.0f}s")


def test_criterion_8_complexity_identities():
    gap_ok = True
    for m in range(1, 9):
        layers = [m, 1, 1, 1 << m]
        _, z_lb, z_ub = analytics.complexity_bounds(m, 30 * (1 << m), layers)
        if z_ub - z_lb != (1 << m) - 1:
            gap_ok = False
    compact_lb = {m: analytics.complexity_bounds(m, 30 * (1 << m), [m, 1, 1, 1 << m])[1] for m in (2, 3)}
    m2_ok = compact_lb[2] == 2423
    direct3 = compact_lb[3]
    closed3 = analytics.compact_lower_bound_closed_form(3)
    discrepancy_ok = direct3 == 8197 and closed3 == 8199
    report(
        8,
        "complexity bound identities hold and the M=3 closed-form discrepancy is reported",
        gap_ok and m2_ok and discrepancy_ok,
        f"lower bound M=2: {compact_lb[2]}; "
        f"M=3 direct {direct3} vs expanded polynomial {closed3}",
    )


def test_criterion_9_byte_identical_result_files(tmp_path):
    cfg = ScenarioConfig(
        n_subnets=5, n_channels=2, n_slots=400, n_runs=3, rng_seed=90125,
        alpha=0.5, eta=0.05, tx_threshold=0.3, deadline_slots=3,
        policy_kind=PolicyKind.DRL,
    )
    dirs = [str(tmp_path / "first"), str(tmp_path / "second")]
    names = []
    payloads = []
    for d in dirs:
        run_experiment(cfg, out_dir=d)
        import os

        (name,) = os.listdir(d)
        names.append(name)
        with open(f"{d}/{name}", "rb") as fh:
            payloads.append(fh.read())
    report(9, "repeated experiments emit byte-identical result files",
           names[0] == names[1] and payloads[0] == payloads[1],
           f"{len(payloads[0])} bytes")
