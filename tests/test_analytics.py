import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alarmmac import analytics, selfcheck
from alarmmac.analytics import (
    AccessDistribution,
    DP_MAX_CHANNELS,
    DtmcSpec,
    active_size_pmf,
    best_stationary_psi,
    compact_lower_bound_closed_form,
    complexity_bounds,
    deadline_probability,
    deadline_probability_by_paths,
    deadline_probability_table,
    deadline_probability_via_absorption,
    forward_madds,
    stationary_deadline_probability,
    stationary_dtmc,
    success_probability_bruteforce,
    success_probability_dp,
    transition_blocks,
    uniform_access,
)
from alarmmac.config import derive_stream
from alarmmac.engine import Simulation
from alarmmac.events import empirical_activation
from alarmmac.geometry import place_uniform
from alarmmac.policies import pattern_table
from conftest import CONTENTION


def deterministic_access(rows, width):
    psi = np.zeros((len(rows), width))
    for n, pattern in enumerate(rows):
        psi[n, pattern] = 1.0
    return AccessDistribution(psi)


class TestSuccessProbability:
    def test_lone_certain_transmitter(self):
        access = deterministic_access([1], width=2)  # always transmit on the channel
        assert success_probability_bruteforce([1.0], access) == 1.0

    def test_two_agents_half_silent_half_transmit(self):
        psi = np.array([[0.5, 0.5], [0.5, 0.5]])
        got = success_probability_bruteforce([1.0, 1.0], AccessDistribution(psi))
        assert abs(got - 0.5) < 1e-15  # exactly-one-transmits in 2 of 4 joint outcomes

    def test_certain_collision(self):
        access = deterministic_access([1, 1], width=2)
        assert success_probability_bruteforce([1.0, 1.0], access) == 0.0

    def test_inactive_agents_weighted_by_complement(self):
        # single agent active w.p. 0.3, always transmitting when active
        access = deterministic_access([1], width=2)
        assert abs(success_probability_bruteforce([0.3], access) - 0.3) < 1e-15

    def test_uniform_rch_closed_form(self):
        # k always-active agents picking uniform patterns: channels are
        # independent Bernoulli(1/2) bits, so P = 1 - (1 - k/2**k)**M
        for k, m in ((2, 1), (3, 2), (4, 2)):
            got = success_probability_bruteforce(np.ones(k), uniform_access(k, m))
            expected = 1.0 - (1.0 - k / 2.0**k) ** m
            assert abs(got - expected) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.random(3)
            psi = rng.dirichlet(np.ones(4), size=3)
            base = success_probability_bruteforce(p, AccessDistribution(psi))
            perm = rng.permutation(3)
            permuted = success_probability_bruteforce(p[perm], AccessDistribution(psi[perm]))
            assert abs(base - permuted) < 1e-12

    def test_instance_too_large_rejected(self):
        with pytest.raises(ValueError):
            success_probability_bruteforce(np.ones(7), uniform_access(7, 2))
        with pytest.raises(ValueError):
            success_probability_bruteforce(np.ones(2), uniform_access(2, 4))

    def test_row_sum_violation_rejected(self):
        with pytest.raises(ValueError):
            AccessDistribution(np.array([[0.5, 0.2]]))

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="psi entries"):
            AccessDistribution(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_access_matrix_of_no_whole_channel_count_rejected(self, width):
        # width 1 would be M = 0 channels, on which the enumeration returned
        # 0.0 and the dynamic programme failed on a raw reshape
        with pytest.raises(ValueError, match="psi width must be a power of two of at least 2"):
            AccessDistribution(np.full((2, width), 1.0 / width))

    def test_nan_activation_rejected(self):
        with pytest.raises(ValueError, match="activation probabilities"):
            success_probability_bruteforce([0.5, np.nan], uniform_access(2, 2))

    def test_matches_literal_reference(self):
        rng = np.random.default_rng(11)
        for n in range(5):
            for m in (1, 2):
                for _ in range(5):
                    p, access = selfcheck.random_instance(rng, n, m)
                    expected = _literal_success_probability(p, access.psi, m)
                    assert abs(success_probability_bruteforce(p, access) - expected) < 1e-12

    def test_largest_instance_allocates_under_ten_megabytes(self):
        # the float64 outcome grid alone is 9**6 * 8 bytes = 4.25 MB
        p, access = np.full(6, 0.5), uniform_access(6, 3)
        success_probability_bruteforce(p, access)  # fills the pattern-table cache
        tracemalloc.start()
        try:
            success_probability_bruteforce(p, access)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_a_warm_call_builds_no_count_grids(self):
        # the probability grid is 4.25 MB; rebuilding the success indicator
        # and its uint8 counts in every call peaked at 5.85 MB
        p, access = np.full(6, 0.5), uniform_access(6, 3)
        success_probability_bruteforce(p, access)
        tracemalloc.start()
        try:
            success_probability_bruteforce(p, access)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.3e6

    def test_cached_success_grid_matches_the_in_call_counts(self):
        for n in range(7):
            for m in (1, 2, 3):
                grid = analytics._enumeration_success(n, m)
                reference = _reference_success_grid(n, m)
                assert grid.dtype == bool and grid.shape == reference.shape
                assert np.array_equal(grid, reference)

    def test_cached_success_grid_is_read_only(self):
        grid = analytics._enumeration_success(2, 1)
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = True
        assert analytics._enumeration_success(2, 1) is grid

    def test_equals_the_in_call_grid_bit_for_bit_at_the_largest_instance(self):
        rng = np.random.default_rng(34)
        got = []
        for _ in range(5):
            p, access = selfcheck.random_instance(rng, 6, 3)
            got.append(success_probability_bruteforce(p, access))
            assert got[-1] == _in_call_success_probability(p, access)
        # the values of the enumeration that built the grid in every call
        assert [repr(v) for v in got] == [
            "0.44053076765886096", "0.7634717182121008", "0.7574344411131798",
            "0.8916861658004767", "0.5643366821684892",
        ]

    def test_equals_the_in_call_grid_bit_for_bit_on_the_benchmark_inputs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        cfg = workloads.oracle_config()
        _, setup_seed, input_seed = workloads.run_seeds(1, 2)
        inp = workloads.oracle_inputs(cfg, workloads.oracle_setup(cfg, setup_seed), input_seed)
        cases = {
            "0.7465937165239963": (inp.p, uniform_access(6, 3)),
            "0.7182373880193296": (inp.p, AccessDistribution(inp.psi)),
            "0.5250367203939807": (inp.p[:3], uniform_access(3, 2)),
        }
        for expected, (p, access) in cases.items():
            got = success_probability_bruteforce(p, access)
            assert repr(got) == expected and got == _in_call_success_probability(p, access)


def _reference_success_grid(n, n_channels):
    """The success indicator built in the call, as the enumeration once did:
    per channel, the transmitter count over the outcome grid by outer sums."""
    bits = np.vstack([np.zeros((1, n_channels), dtype=np.uint8), pattern_table(n_channels)])
    ok = np.zeros((len(bits),) * n, dtype=bool)
    for bit in bits.T:
        count = np.zeros((), dtype=np.uint8)
        for _ in range(n):
            count = np.add.outer(count, bit)
        ok |= count == 1
    return ok


def _in_call_success_probability(p, access):
    """The enumeration with its success indicator built in the call."""
    p = np.asarray(p, dtype=float)
    weights = np.hstack([(1.0 - p)[:, None], p[:, None] * access.psi])
    prob = np.ones(())
    for row in weights:
        prob = np.multiply.outer(prob, row)
    np.multiply(prob, _reference_success_grid(len(p), access.n_channels), out=prob)
    return float(prob.sum())


def _literal_success_probability(p, psi, n_channels):
    """The enumeration in plain Python: every activation subset and every
    joint pattern choice of its members, one float product per outcome."""
    n = len(p)
    total = 0.0
    for active in itertools.product((False, True), repeat=n):
        members = [i for i in range(n) if active[i]]
        for joint in itertools.product(range(1 << n_channels), repeat=len(members)):
            if not selfcheck.literal_success(joint, n_channels):
                continue
            prob = 1.0
            for i in range(n):
                prob *= float(p[i]) if active[i] else 1.0 - float(p[i])
            for member, pattern in zip(members, joint):
                prob *= float(psi[member, pattern])
            total += prob
    return total


def _forward_dp_step(state, rows, p_n, n_channels):
    """One more agent joins the capped-count chain, run forwards over state
    masses: the independent reference for the backward value recursion.

    `state` holds masses of shape (..., 3**M); index s = sum_c k_c 3**c,
    where k_c in {0, 1, 2} is channel c's transmitter count capped at two.
    `rows` holds R candidate access rows, shape (R, 2**M). Returns the
    masses of shape (..., R, 3**M) after the agent joins with each row: it
    stays inactive with 1 - p_n, else plays pattern a with rows[r, a].
    """
    lead = state.shape[:-1]
    # moved[..., a, :] is the mass moved by pattern a. Pattern bit c adds a
    # transmitter to channel c, which is axis -(c + 1) of the (3,)*M view.
    moved = state[..., None, :]
    for c in range(n_channels):
        grid = moved.reshape(moved.shape[:-1] + (3,) * n_channels)
        counts = np.moveaxis(grid, -(c + 1), 0)
        added = np.empty_like(counts)
        added[0] = 0.0
        added[1] = counts[0]
        added[2] = counts[1] + counts[2]
        added = np.moveaxis(added, 0, -(c + 1))
        moved = np.concatenate([grid, added], axis=len(lead)).reshape(lead + (-1, state.shape[-1]))
    return (1.0 - p_n) * state[..., None, :] + p_n * (rows @ moved)


def _forward_success(state, n_channels):
    """Success mass of the forward states: some channel counts exactly one."""
    counts = np.indices((3,) * n_channels).reshape(n_channels, -1)
    return state @ (counts == 1).any(axis=0).astype(float)


def _forward_start(n_channels):
    state = np.zeros(3**n_channels)
    state[0] = 1.0  # nobody has transmitted yet
    return state


def _forward_success_probability(p, psi, n_channels):
    state = _forward_start(n_channels)
    for n in range(len(p)):
        state = _forward_dp_step(state, psi[n : n + 1], p[n], n_channels)[0]
    return float(_forward_success(state, n_channels))


def _grid_rows(n_channels, grid_step):
    """Every access row on the grid, in lexicographic order."""
    ticks = int(round(1.0 / grid_step))
    return [tuple(c * grid_step for c in combo)
            for combo in itertools.product(range(ticks + 1), repeat=1 << n_channels) if sum(combo) == ticks]


def _forward_best_stationary_psi(p, n_channels, grid_step):
    """The grid search by the forward programme over every candidate at
    once; the lexicographically smallest of those within 1e-12 of the best."""
    rows = np.array(_grid_rows(n_channels, grid_step))
    state = _forward_start(n_channels)
    for n in range(len(p)):
        state = _forward_dp_step(state, rows, p[n], n_channels)
    success = _forward_success(state, n_channels).ravel()
    best = int(np.flatnonzero(success >= success.max() - 1e-12)[0])
    return rows[np.array(np.unravel_index(best, (len(rows),) * len(p)), dtype=int)]


class TestSuccessProbabilityDp:
    def test_matches_bruteforce_up_to_six_agents_three_channels(self):
        assert selfcheck.success_oracle_gap(np.random.default_rng(5), 4) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_backward_recursion_matches_the_forward_programme(self, m):
        rng = np.random.default_rng(20 + m)
        for _ in range(20):
            p, access = selfcheck.random_instance(rng, 20, m)
            expected = _forward_success_probability(p, access.psi, m)
            assert abs(success_probability_dp(p, access) - expected) <= 1e-14

    @pytest.mark.parametrize("m", range(1, DP_MAX_CHANNELS + 1))
    def test_dp_tables_read_the_bit_order_of_the_pattern_table(self, m):
        # the reference reads pattern bit c as axis -(c + 2) of a (2,)*M view of the pattern axis
        n_states = 3**m
        states = np.arange(n_states)
        shift = np.empty((1 << m, n_states), dtype=np.intp)
        shift[:] = states
        by_bits = shift.reshape((2,) * m + (n_states,))
        success = np.zeros(n_states, dtype=bool)
        for c in range(m):
            count = states // 3**c % 3
            by_bits[(slice(None),) * (m - 1 - c) + (1,)] += (count < 2) * 3**c
            success |= count == 1
        got_shift, got_success = analytics._dp_tables(m)
        assert got_shift.dtype == np.intp and np.array_equal(got_shift, shift)
        assert np.array_equal(got_success, success.astype(float))

    def test_first_call_at_the_largest_channel_count_stays_under_the_forward_peak(self):
        # the forward programme peaked at 27.1 MB here, at k = 4; the shift
        # map (13.4 MB of platform integers) is built inside the traced call
        p, access = np.ones(4), uniform_access(4, DP_MAX_CHANNELS)
        analytics._dp_tables.cache_clear()
        tracemalloc.start()
        try:
            got = success_probability_dp(p, access)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(got - (1.0 - (1.0 - 4 / 2.0**4) ** DP_MAX_CHANNELS)) < 1e-12
        assert peak <= 27.1e6

    def test_uniform_rch_closed_form_beyond_enumeration(self):
        for k in (1, 7, 20, 40):
            for m in (1, 3, 4):
                got = success_probability_dp(np.ones(k), uniform_access(k, m))
                assert abs(got - (1.0 - (1.0 - k / 2.0**k) ** m)) < 1e-12

    def test_inputs_checked_like_bruteforce(self):
        with pytest.raises(ValueError):
            success_probability_dp(np.ones(2), uniform_access(3, 2))
        with pytest.raises(ValueError):
            success_probability_dp([0.5, 1.5], uniform_access(2, 2))
        with pytest.raises(ValueError):
            success_probability_dp(np.ones(2), uniform_access(2, DP_MAX_CHANNELS + 1))

    def test_nan_activation_rejected(self):
        with pytest.raises(ValueError, match="activation probabilities"):
            success_probability_dp([0.5, np.nan], uniform_access(2, 2))


def _recursive_paths(spec):
    """The path oracle as a recursive walk, one level per age: the reference
    for its loop, which sums in the order this returns."""
    ps = spec.ps.tolist()

    def walk(age, prob):
        if age >= len(ps):
            return 0.0, prob
        succ, fail = walk(age + 1, prob * (1.0 - ps[age]))
        return succ + prob * ps[age], fail

    return walk(0, 1.0)


class TestDeadlineProbability:
    def test_stationary_half_deadline_one(self):
        p_leq, p_gt = deadline_probability(stationary_dtmc(0.5, 1))
        assert abs(p_leq - 0.75) < 1e-15 and abs(p_gt - 0.25) < 1e-15

    def test_age_dependent_path_enumeration(self):
        p_leq, _ = deadline_probability(DtmcSpec(np.array([0.2, 0.5])))
        assert abs(p_leq - 0.6) < 1e-15  # 0.2 + 0.8 * 0.5

    def test_never_successful(self):
        p_leq, p_gt = deadline_probability(stationary_dtmc(0.0, 9))
        assert p_leq == 0.0 and p_gt == 1.0

    def test_single_step_absorption(self):
        p_leq, p_gt = deadline_probability_via_absorption(DtmcSpec(np.array([0.3])))
        assert abs(p_leq - 0.3) < 1e-15 and abs(p_gt - 0.7) < 1e-15

    def test_three_computations_agree_on_random_instances(self):
        # 100 age chains of 1 to 11 ages; the partition into within and
        # missed is test_properties.test_deadline_probabilities_partition_unity
        worst_pair, _ = selfcheck.dtmc_disagreement(np.random.default_rng(1), 100, max_deadline=10)
        assert worst_pair < 1e-10

    def test_stationary_matches_geometric_closed_form(self):
        # 50 stationary chains with deadlines 0 to 19
        _, worst_closed = selfcheck.dtmc_disagreement(np.random.default_rng(2), 50, max_deadline=19)
        assert worst_closed < 1e-12

    def test_monotone_in_success_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ps = rng.random(6)
            base, _ = deadline_probability(DtmcSpec(ps))
            d = int(rng.integers(0, 6))
            bumped = ps.copy()
            bumped[d] = min(1.0, bumped[d] + rng.random() * (1 - bumped[d]))
            better, _ = deadline_probability(DtmcSpec(bumped))
            assert better >= base - 1e-15

    def test_path_walk_matches_the_recursive_walk(self):
        rng = np.random.default_rng(12)
        for _ in range(3000):
            spec = DtmcSpec(rng.uniform(0.0, 1.0, int(rng.integers(1, 402))))
            assert deadline_probability_by_paths(spec) == _recursive_paths(spec)
        for spec in (DtmcSpec(np.zeros(5)), DtmcSpec(np.ones(5)), DtmcSpec(np.array([0.0, 1.0, 0.5]))):
            assert deadline_probability_by_paths(spec) == _recursive_paths(spec)

    def test_table_row_d_is_the_deadline_d_chain_bit_for_bit(self):
        rng = np.random.default_rng(13)
        chains = [rng.uniform(0.0, 1.0, int(rng.integers(1, 60))) for _ in range(200)]
        chains += [np.zeros(4), np.ones(4), np.array([-0.0, 0.5]), 1.0 - rng.uniform(0.0, 1e-12, 40)]
        for ps in chains:
            rows = list(deadline_probability_table(ps.tolist()))
            assert rows == [deadline_probability(DtmcSpec(ps[: d + 1])) for d in range(ps.size)]
        stationary = itertools.repeat(0.3, 401)
        assert list(deadline_probability_table(stationary)) == [
            deadline_probability(stationary_dtmc(0.3, d)) for d in range(401)
        ]

    def test_path_walk_takes_a_deadline_beyond_the_recursion_limit(self):
        # the recursive walk overflowed the stack from about D = 990
        spec = stationary_dtmc(0.001, 5000)
        p_leq, p_gt = deadline_probability_by_paths(spec)
        ref_leq, ref_gt = deadline_probability(spec)
        assert abs(p_leq - ref_leq) < 1e-12 and abs(p_gt - ref_gt) < 1e-12

    def test_nan_success_probability_rejected(self):
        with pytest.raises(ValueError, match="success probabilities"):
            DtmcSpec(np.array([np.nan, 0.5]))

    @pytest.mark.parametrize(
        "form,ps",
        [(stationary_deadline_probability, 1.5), (stationary_deadline_probability, np.nan), (stationary_dtmc, -0.1)],
    )
    def test_stationary_forms_reject_malformed_arguments(self, form, ps):
        with pytest.raises(ValueError, match="^ps: "):
            form(ps, 2)

    def test_transition_blocks_structure(self):
        spec = DtmcSpec(np.array([0.2, 0.4, 0.9]))
        q, r = transition_blocks(spec)
        rows = np.hstack([q, r]).sum(axis=1)
        assert np.allclose(rows, 1.0, atol=1e-12)
        assert q[0, 1] == 0.8 and q[1, 2] == 0.6
        assert np.all(np.diag(q) == 0.0)
        assert np.all(np.tril(q) == 0.0)  # survival mass sits strictly above the diagonal
        assert np.allclose(r[:, 0], spec.ps)
        assert r[2, 1] == pytest.approx(0.1)

    def test_transition_blocks_match_the_literal_superdiagonal(self):
        rng = np.random.default_rng(9)
        for deadline in range(16):
            spec = DtmcSpec(rng.uniform(0.0, 1.0, deadline + 1))
            q, _ = transition_blocks(spec)
            literal = np.zeros((deadline + 1, deadline + 1))
            for d in range(deadline):
                literal[d, d + 1] = 1.0 - spec.ps[d]
            assert q.dtype == literal.dtype and np.array_equal(q, literal)


def _reference_best_stationary_psi(p, n_channels, deadline, grid_step=0.25):
    """The grid search by enumeration: every candidate matrix, every
    activation subset, every joint pattern choice. Of the candidates within
    1e-12 of the best success, the lexicographically smallest wins."""
    n = len(p)
    width = 1 << n_channels
    rows = _grid_rows(n_channels, grid_step)
    table = pattern_table(n_channels)
    subsets = []
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        weight = 1.0
        for i in range(n):
            weight *= p[i] if (mask >> i) & 1 else 1.0 - p[i]
        if weight == 0.0 or not members:
            continue
        joints = np.array(list(itertools.product(range(width), repeat=len(members))), dtype=int).T
        ok = (table[joints].sum(axis=0) == 1).any(axis=1).astype(float)
        subsets.append((members, weight, joints, ok))

    candidates = list(itertools.product(rows, repeat=n))
    successes = []
    for candidate in candidates:
        psi = np.array(candidate)
        success = 0.0
        for members, weight, joints, ok in subsets:
            choice = np.ones(joints.shape[1])
            for row, member in enumerate(members):
                choice *= psi[member, joints[row]]
            success += weight * float(choice @ ok)
        successes.append(success)
    top = max(successes)
    best = next(i for i, s in enumerate(successes) if s >= top - 1e-12)
    _, miss = stationary_deadline_probability(successes[best], deadline)
    return np.array(candidates[best]), miss


def _grid_instances():
    """(p, M, grid step, deadline) of random, all-ones and all-equal
    activation over N <= 3, M <= 2."""
    rng = np.random.default_rng(9)
    instances = []
    for i in range(54):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        kind = i % 3  # random, all ones, all equal
        p = rng.random(n) if kind == 0 else np.ones(n) if kind == 1 else np.full(n, rng.random())
        # the full 0.25 grid at N = 3, M = 2 takes the enumeration about 2 s
        instances.append((p, m, 0.5 if (n, m) == (3, 2) else 0.25))
    instances.append((rng.random(3), 2, 0.25))  # the benchmark's shape
    return [(p, m, step, int(rng.integers(0, 5))) for p, m, step in instances]


class TestBestStationaryPsi:
    def test_single_agent_always_transmits(self):
        access, miss = best_stationary_psi(np.array([1.0]), n_channels=1, deadline=3)
        assert np.array_equal(access.psi, [[0.0, 1.0]])
        assert miss == 0.0

    def test_two_agents_two_channels_reach_certain_success(self):
        access, miss = best_stationary_psi(np.array([1.0, 1.0]), n_channels=2, deadline=2)
        assert miss == 0.0
        assert success_probability_bruteforce([1.0, 1.0], access) == 1.0

    def test_nobody_active_all_equal(self):
        access, miss = best_stationary_psi(np.zeros(2), n_channels=1, deadline=4)
        assert miss == 1.0
        # every candidate ties at zero success: the lexicographically smallest wins
        assert np.array_equal(access.psi, [[0.0, 1.0], [0.0, 1.0]])

    def test_instance_too_large_rejected(self):
        with pytest.raises(ValueError):
            best_stationary_psi(np.ones(4), n_channels=2, deadline=3)

    def test_matches_enumeration_reference(self):
        for p, m, step, deadline in _grid_instances():
            access, miss = best_stationary_psi(p, m, deadline, step)
            ref_psi, ref_miss = _reference_best_stationary_psi(p, m, deadline, step)
            assert np.array_equal(access.psi, ref_psi)
            assert abs(miss - ref_miss) < 1e-12

    def test_matches_the_forward_programme(self):
        for p, m, step, deadline in _grid_instances():
            access, _ = best_stationary_psi(p, m, deadline, step)
            assert np.array_equal(access.psi, _forward_best_stationary_psi(p, m, step))
        # the full 0.25 grid at N = 3, M = 2, out of the enumeration's reach
        rng = np.random.default_rng(4)
        for p in (np.ones(3), rng.random(3), np.full(3, 0.5)):
            access, _ = best_stationary_psi(p, 2, 3, 0.25)
            assert np.array_equal(access.psi, _forward_best_stationary_psi(p, 2, 0.25))

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_step"):
            best_stationary_psi(np.ones(3), n_channels=2, deadline=3, grid_step=0.1)

    @pytest.mark.parametrize("p", [[1.5], [-0.1], [np.nan]])
    def test_activation_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="^p: "):
            best_stationary_psi(np.array(p), n_channels=1, deadline=3)

    @pytest.mark.parametrize("step", [0.0, -0.5, np.nan, np.inf, 0.3, 2.0])
    def test_step_not_a_unit_fraction_rejected(self, step):
        with pytest.raises(ValueError, match="grid_step"):
            best_stationary_psi(np.array([0.5]), n_channels=1, deadline=3, grid_step=step)

    def test_unit_fraction_steps_accepted(self):
        for step in (1.0, 0.5, 1 / 3):
            access, _ = best_stationary_psi(np.array([1.0]), n_channels=1, deadline=3, grid_step=step)
            assert np.array_equal(access.psi, [[0.0, 1.0]])


class TestComplexity:
    def test_worked_example_m2(self):
        z1, z_lb, z_ub = complexity_bounds(2, 120, [2, 1, 1, 4])
        assert z1 == 20  # 1*5 + 1*3 + 4*3
        assert z_lb == 121 * 20 + 3 == 2423
        assert z_ub == z_lb + 3

    def test_bound_gap_identity(self):
        for m in range(1, 9):
            layers = [m, 1, 1, 1 << m]
            _, z_lb, z_ub = complexity_bounds(m, 30 * (1 << m), layers)
            assert z_ub - z_lb == (1 << m) - 1

    def test_closed_form_agrees_only_at_m2(self):
        compact_lb = {m: complexity_bounds(m, 30 * (1 << m), [m, 1, 1, 1 << m])[1] for m in (2, 3)}
        assert compact_lb[2] == compact_lower_bound_closed_form(2) == 2423
        assert compact_lb[3] == 8197
        assert compact_lower_bound_closed_form(3) == compact_lower_bound_closed_form(np.int64(3)) == 8199

    def test_inconsistent_layer_vector_rejected(self):
        with pytest.raises(ValueError):
            complexity_bounds(2, 120, [3, 1, 1, 4])
        with pytest.raises(ValueError):
            complexity_bounds(2, 120, [2, 1, 1, 8])

    def test_forward_madds_formula(self):
        assert forward_madds([2, 1, 1, 4]) == 1 * 5 + 1 * 3 + 4 * 3
        assert forward_madds([3, 4, 8]) == 4 * 7 + 8 * 9
        assert forward_madds([1, 1, 2]) == 1 * 3 + 2 * 3


class TestActiveSizePmf:
    @pytest.mark.parametrize("threshold", [0.3, 0.7])
    def test_one_pose_is_active_with_the_rectangles_distance_cdf(self, threshold):
        # one epicentre per placement: the alarms are independent draws of
        # the distance between two uniform points of the W x H rectangle
        width, height, eta = 50.0, 30.0, 0.06
        r = -math.log(threshold) / eta
        assert r <= min(width, height)
        cdf = (math.pi * width * height * r**2 - 4.0 / 3.0 * (width + height) * r**3 + r**4 / 2.0) / (width * height) ** 2
        config = replace(CONTENTION, n_subnets=1, area_width_m=width, area_height_m=height, eta=eta,
                         tx_threshold=threshold)
        trials = 10_000
        pmf = active_size_pmf(config, trials, 1, seed=11)
        assert pmf.shape == (2,)
        assert abs(pmf[1] - cdf) <= 4.0 * math.sqrt(cdf * (1.0 - cdf) / trials)

    @pytest.mark.parametrize("mode", ["threshold_only", "threshold_and_bernoulli"])
    def test_summed_sizes_are_the_activation_hits_of_the_same_draws(self, mode):
        # 10 000 epicentres end in a partial chunk of the kernel
        config = replace(CONTENTION, activation_mode=mode)
        placements, epicentres, seed = 2, 10_000, 5
        pmf = active_size_pmf(config, placements, epicentres, seed)
        counts = np.rint(pmf * placements * epicentres).astype(np.int64)
        assert counts.sum() == placements * epicentres
        rng_placement, rng = derive_stream(seed, "placement"), derive_stream(seed, "epicentres")
        hits = 0
        for _ in range(placements):
            share = empirical_activation(place_uniform(config, rng_placement), config, rng, epicentres)
            hits += int(np.rint(share / config.alpha * epicentres).sum())
        assert int(np.arange(config.n_subnets + 1) @ counts) == hits

    def test_first_placement_is_the_runs_and_bernoulli_detection_only_shrinks_the_sets(self):
        gate = active_size_pmf(CONTENTION, 1, 20_000, seed=3)
        detected = active_size_pmf(replace(CONTENTION, activation_mode="threshold_and_bernoulli"), 1, 20_000, seed=3)
        sizes = np.arange(CONTENTION.n_subnets + 1)
        assert sizes @ detected < sizes @ gate
        poses = Simulation(CONTENTION, seed=3).poses
        assert np.array_equal(place_uniform(CONTENTION, derive_stream(3, "placement")), poses)
