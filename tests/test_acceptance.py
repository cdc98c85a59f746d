"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The learning criteria
(6 and 7) execute full training runs and take a few minutes combined.
"""

import itertools
import math
import time

import numpy as np

from alarmmac import analytics, learning
from alarmmac.config import (
    PolicyKind,
    ScenarioConfig,
    derive_run_seed,
    validate_config,
    with_overrides,
)
from alarmmac.engine import Simulation, resolve_collisions
from alarmmac.policies import make_policy
from alarmmac.reporting import in_time_probability, run_experiment


# the contention preset of criteria 6 and 7: several agents per alarm, D = 2
CONTENTION = dict(
    n_channels=3, alpha=1.0, activation_mode="threshold_only",
    eta=0.06, tx_threshold=0.3, deadline_slots=2, n_slots=10**9,
    lr_initial=0.05, lr_decay_per_event=0.002,
)


def report(num: int, title: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {status} - {title}{suffix}")
    assert passed, f"criterion {num}: {title}{suffix}"


def matrix_success_indicator(joint, n_channels):
    """Independent oracle: explicit channels x agents matrix, literal scan."""
    matrix = [[0] * len(joint) for _ in range(n_channels)]
    for col, idx in enumerate(joint):
        for ch in range(n_channels):
            matrix[ch][col] = (idx >> ch) & 1
    return any(sum(row) == 1 for row in matrix)


def test_criterion_1_collision_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    for m in (1, 2, 3):
        for k in range(0, 5):
            for joint in itertools.product(range(1 << m), repeat=k):
                if resolve_collisions(list(joint), m).success != matrix_success_indicator(joint, m):
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "collision resolution matches exhaustive indicator evaluation",
        mismatches == 0 and elapsed < 1.0,
        f"{checked} joint assignments, {elapsed:.2f}s",
    )


def test_criterion_2_dtmc_consistency():
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    worst_stationary = 0.0
    for _ in range(100):
        deadline = int(rng.integers(0, 11))
        spec = analytics.DtmcSpec(rng.random(deadline + 1))
        a = analytics.deadline_probability(spec)
        b = analytics.deadline_probability_via_absorption(spec)
        c = analytics.deadline_probability_by_paths(spec)
        worst_pair = max(
            worst_pair,
            abs(a[0] - b[0]), abs(a[1] - b[1]),
            abs(a[0] - c[0]), abs(a[1] - c[1]),
        )
    for _ in range(100):
        ps = float(rng.random())
        deadline = int(rng.integers(0, 11))
        got = analytics.deadline_probability(analytics.stationary_dtmc(ps, deadline))
        closed = analytics.stationary_deadline_probability(ps, deadline)
        worst_stationary = max(worst_stationary, abs(got[0] - closed[0]), abs(got[1] - closed[1]))
    report(
        2,
        "deadline probabilities agree across product, absorption, and path forms",
        worst_pair < 1e-10 and worst_stationary < 1e-12,
        f"max pairwise {worst_pair:.2e}, max vs closed form {worst_stationary:.2e}",
    )


def test_criterion_3_simulation_matches_theory():
    started = time.perf_counter()
    cfg = validate_config(ScenarioConfig(
        n_subnets=4, n_channels=2, policy_kind=PolicyKind.RCH,
        eta=1e-6, tx_threshold=0.5, activation_mode="threshold_only",
        alpha=1.0, deadline_slots=1, n_slots=100_000,
    ))
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
    cfg = validate_config(ScenarioConfig(n_subnets=20, policy_kind=PolicyKind.RCH, **CONTENTION))
    sim = Simulation(cfg, seed=derive_run_seed(0, 0))
    counts = []
    select = sim.policy.select_action

    def recording(agents, contexts, rng):
        counts.append(len(agents))
        return select(agents, contexts, rng)

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


def numeric_gradient(model, batch, step=1e-5):
    """Central finite differences of the single-model loss."""
    theta = learning.params_to_vector(model)
    numeric = np.zeros_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        learning.vector_to_params(model, theta + bump)
        up = learning.loss(model, batch)
        learning.vector_to_params(model, theta - bump)
        down = learning.loss(model, batch)
        numeric[j] = (up - down) / (2 * step)
    learning.vector_to_params(model, theta)
    return numeric


def relative_error(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def kink_distance(model, contexts):
    """Smallest |pre-activation| of a rectifier unit over the contexts."""
    h, nearest = contexts, np.inf
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w.T + b
        nearest = min(nearest, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return nearest


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    extra = np.random.default_rng(40)  # the stacked check's other networks
    worst = 0.0
    worst_stacked = 0.0
    near_kink = 0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        hidden = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 3))
        sizes = [m] + [hidden] * depth + [1 << m]
        model = learning.init_mlp(sizes, rng)
        b = int(rng.integers(1, 6))
        batch = (rng.random((b, m)), rng.integers(0, 1 << m, b), rng.standard_normal(b))
        grads, _ = learning.backward(model, batch)
        worst = max(worst, relative_error(learning.grads_to_vector(grads), numeric_gradient(model, batch)))

        # the stacked kernel: this network and two more of its shape, one minibatch each
        models = [model] + [learning.init_mlp(sizes, extra) for _ in range(2)]
        batches = [batch] + [
            (extra.random((b, m)), extra.integers(0, 1 << m, b), extra.standard_normal(b)) for _ in range(2)
        ]
        stacked, _ = learning.backward_stacked(
            learning.MlpStack.of(models), tuple(np.stack(part) for part in zip(*batches))
        )
        for k, (net, net_batch) in enumerate(zip(models, batches)):
            if k and kink_distance(net, net_batch[0]) < 1e-4:
                # a 1e-5 bump can cross a rectifier's kink, where central
                # differences do not estimate the gradient
                near_kink += 1
                continue
            analytic = learning.grads_to_vector([(gw[k], gb[k]) for gw, gb in stacked])
            worst_stacked = max(worst_stacked, relative_error(analytic, numeric_gradient(net, net_batch)))
    report(4, "backprop, single and stacked, matches central finite differences on 100 random models",
           worst < 1e-4 and worst_stacked < 1e-4 and near_kink <= 10,
           f"max relative error {worst:.2e}, stacked {worst_stacked:.2e} "
           f"({near_kink} of 200 extra networks skipped near a kink)")


def test_criterion_5_clipping_and_schedules():
    rng = np.random.default_rng(5)
    clip_ok = True
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-3, 3)
        grads = [(rng.standard_normal((3, 4)) * scale, rng.standard_normal(3) * scale)]
        raw_norm = learning.grad_norm(grads)
        clipped = learning.clip_gradient(grads, 5.0)
        norm = learning.grad_norm(clipped)
        if norm > 5.0 + 1e-9:
            clip_ok = False
        if raw_norm <= 5.0 and not np.array_equal(clipped[0][0], grads[0][0]):
            clip_ok = False

    cfg = validate_config(ScenarioConfig(n_subnets=2, n_channels=2, policy_kind=PolicyKind.MAP_RA))
    policy = make_policy(cfg, np.random.default_rng(5))
    eps_ok = policy.epsilon(0) == 1.0
    for event in range(1, 241):
        policy.end_event([0])
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
    cfg = validate_config(ScenarioConfig(
        n_subnets=10, policy_kind=PolicyKind.DRL, **CONTENTION,
    ))
    passing = 0
    details = []
    for s in range(10):
        sim = Simulation(cfg, seed=derive_run_seed(0, s))
        sim.run(n_slots=10**7, until_events=2000)
        mse = sim.trace.mse
        decile = max(1, len(mse) // 10)
        first = float(np.median(mse[:decile]))
        last = float(np.median(mse[-decile:]))
        passing += last < first
        details.append(f"{first:.3f}->{last:.3f}")
    elapsed = time.perf_counter() - started
    report(6, "system MSE median falls from first to last decile for >= 9/10 seeds",
           passing >= 9 and elapsed < 300.0,
           f"{passing}/10 seeds, {elapsed:.0f}s; " + " ".join(details[:3]) + " ...")


def test_criterion_7_policy_ordering():
    started = time.perf_counter()
    base = validate_config(ScenarioConfig(n_subnets=20, **CONTENTION))
    seeds = [derive_run_seed(0, s) for s in range(20)]  # common random numbers
    means = {}
    for kind in (PolicyKind.DRL, PolicyKind.MAP_RA, PolicyKind.RCH):
        cfg = with_overrides(base, policy_kind=kind)
        vals = []
        for seed in seeds:
            sim = Simulation(cfg, seed=seed)
            sim.run(n_slots=10**7, until_events=300)
            vals.append(in_time_probability(sim.trace))
        means[kind.value] = float(np.mean(vals))
    elapsed = time.perf_counter() - started
    ok = (
        means["drl"] >= means["mapra"]
        and means["drl"] >= means["rch"] + 0.05
        and elapsed < 900.0
    )
    report(7, "learned policy beats the bandit and clears random selection by 0.05",
           ok,
           f"drl {means['drl']:.3f}, mapra {means['mapra']:.3f}, rch {means['rch']:.3f}, "
           f"{elapsed:.0f}s")


def test_criterion_8_complexity_identities():
    gap_ok = True
    for m in range(1, 9):
        layers = [m, 1, 1, 1 << m]
        _, z_lb, z_ub = analytics.complexity_bounds(m, 30 * (1 << m), layers)
        if z_ub - z_lb != (1 << m) - 1:
            gap_ok = False
    m2_ok = analytics.compact_lower_bound(2) == 2423
    direct3 = analytics.compact_lower_bound(3)
    closed3 = analytics.compact_lower_bound_closed_form(3)
    discrepancy_ok = direct3 == 8197 and closed3 == 8199
    report(
        8,
        "complexity bound identities hold and the M=3 closed-form discrepancy is reported",
        gap_ok and m2_ok and discrepancy_ok,
        f"lower bound M=2: {analytics.compact_lower_bound(2)}; "
        f"M=3 direct {direct3} vs expanded polynomial {closed3}",
    )


def test_criterion_9_byte_identical_result_files(tmp_path):
    cfg = validate_config(ScenarioConfig(
        n_subnets=5, n_channels=2, n_slots=400, n_runs=3, rng_seed=90125,
        alpha=0.5, eta=0.05, tx_threshold=0.3, deadline_slots=3,
        policy_kind=PolicyKind.DRL,
    ))
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
