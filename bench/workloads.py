"""The alarmmac benchmark workloads: fixed work, output checks and metrics.

Work is split into a fixed set of units: one seeded simulation of a fixed
slot count, or one kind of oracle call. A run repeats the whole set of
units for a fixed number of rounds. ``work_s`` is the median over rounds
of the host time of a round's slots or oracle calls, and ``setup_s`` the
median over rounds of a round's set-ups (over single set-ups for the
oracles). The number of rounds is ``--seconds`` over the measured length of
one round (``round_s``), so the work never depends on a clock. All unit
seeds derive from the workload seed.

A shared host runs its vCPUs up to about 2x slower, switching between fast
and slow phases that last seconds to minutes. A reference kernel with the
simulation's mix of pure-Python arithmetic and small numpy calls is
therefore timed between consecutive timed items (a set-up, a chunk of
slots, an oracle call), and every time taken in a round is scaled by
``REF_MS`` over the mean of the kernel timings from the one before the round
to its last: reported times are those of a host on which the kernel takes
``REF_MS``. The mean follows the share of the round the host spent slow. The
kernel's timings and the host seconds per round are printed beside them.

The simulation workloads use the contention scenario of the acceptance
suite (M = 3, alpha = 1, eta = 0.06, threshold 0.3, threshold-only
activation, D = 2) unless their scenario overrides it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import struct
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from alarmmac import analytics, events, geometry, learning
from alarmmac.config import PolicyKind, ScenarioConfig, config_from_dict
from alarmmac.engine import RunTrace, Simulation
from alarmmac.reporting import in_time_probability

import tracer

CONTENTION = {
    "n_channels": 3,
    "alpha": 1.0,
    "eta": 0.06,
    "tx_threshold": 0.3,
    "activation_mode": "threshold_only",
    "deadline_slots": 2,
}
MIN_ROUNDS = 3
WARM_CONTENTION_SLOTS = 5
REF_MS = 2.5  # the reference kernel on an idle 2-vCPU Intel Xeon host


@dataclass(frozen=True)
class SimWorkload:
    scenario: dict  # config keys over CONTENTION
    units: int  # distinct seeded runs
    slots_per_unit: int
    chunk: int  # slots between reference timings, about 50 ms of host time; divides slots_per_unit
    round_s: float  # median host seconds of one round in a slow host phase (2-vCPU Xeon)
    # after the timed rounds, one checked run of this many slots, whose
    # RunTrace is then part of peak_rss_mb; the traced run measures that
    # record's size per contention slot with tracemalloc
    memory_slots: int = 0


SIM_WORKLOADS = {
    # the learner's cost per slot differs by up to a fifth between seeds
    # (placements), so a round spans four. The memory run's RunTrace (about
    # 2.2 kB per contention slot) is over a tenth of peak_rss_mb, so a
    # streaming run record shows there.
    "train_drl": SimWorkload({"n_subnets": 20, "policy_kind": "drl"}, 4, 250, 25, 3.3, 2500),
    # 200 slots per run, so 10 lie beyond engine.slot_ms_p95
    "dense_rch": SimWorkload({"n_subnets": 300, "policy_kind": "rch"}, 5, 40, 2, 8.6),
    "sparse_mapra": SimWorkload(
        {
            "n_subnets": 20,
            "policy_kind": "mapra",
            "alpha": 0.05,
            "activation_mode": "threshold_and_bernoulli",
            "deadline_slots": 15,
        },
        5,
        1000,
        100,
        1.7,
    ),
}

ORACLE_AGENTS = 6
ORACLE_CHANNELS = 3
GRID_AGENTS = 3
GRID_CHANNELS = 2
GRID_STEP = 0.25
DTMC_CHAINS = 300
DTMC_MAX_DEADLINE = 15
ORACLE_ROUND_S = 4.9  # the same for one round of every oracle unit and its set-ups
ORACLE_SETUPS = 5  # set-ups per round, each timed on its own

_grad_norm = learning.grad_norm  # unwrapped, for the clipping hook


@dataclass
class Outcome:
    """What one workload run hands back to the command line."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.lines.append(f"FAILED {what}")


def run_seeds(seed: int, n: int) -> list[int]:
    """n + 1 64-bit seeds from the workload seed; entry 0 is for warm-up."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n + 1, np.uint64)]


REF_MATRIX = np.random.default_rng(0).standard_normal((24, 24)) / 5.0


def host_reference_ms() -> float:
    """One timing of a fixed kernel of pure-Python arithmetic and many small
    numpy calls, the same mix as the simulation's. A host's slow phase slows
    it by about as much as it slows the workloads. It is short, so that it
    can be timed often: one timing catches the host in one phase, and only
    many of them give the share of a round the host spent slow."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(17_000):
        acc += i * i % 7
    v = np.ones(24)
    for _ in range(500):
        v = np.tanh(REF_MATRIX @ v) + 0.1
    return (time.perf_counter_ns() - start) / 1e6


class HostSpeed:
    """Reference kernel timings taken between timed items."""

    def __init__(self) -> None:
        self.refs = [host_reference_ms()]

    def sample(self) -> None:
        self.refs.append(host_reference_ms())

    def mark(self) -> int:
        """Where a round starts: the index of the latest timing."""
        return len(self.refs) - 1

    def factor(self, start: int) -> float:
        """Scales a host time taken since `start` to the reference host."""
        return REF_MS / float(np.mean(self.refs[start:]))

    def line(self) -> str:
        q = np.percentile(self.refs, [0, 50, 100])
        return f"host_ref_ms n={len(self.refs)} min={q[0]:.3f} median={q[1]:.3f} max={q[2]:.3f}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- simulation workloads -------------------------------------------------


@dataclass
class SimRun:
    seed: int
    setup_ns: int  # Simulation(...) construction
    slot_ns: np.ndarray  # each run_slot call
    flags: list[bool]  # success flag of each contention slot
    trace: RunTrace


def simulate(
    cfg: ScenarioConfig,
    seed: int,
    n_slots: int,
    on_setup_done: Callable[[], None] = lambda: None,
    chunk: int = 0,
    between: Callable[[], None] = lambda: None,
) -> SimRun:
    """One seeded run; `between` is called after every `chunk` slots."""
    clock = time.perf_counter_ns
    start = clock()
    sim = Simulation(cfg, seed=seed)
    setup_ns = clock() - start
    on_setup_done()
    slot_ns = np.empty(n_slots, dtype=np.int64)
    flags: list[bool] = []
    for i in range(n_slots):
        t0 = clock()
        outcome = sim.run_slot()
        slot_ns[i] = clock() - t0
        if outcome.age is not None:
            flags.append(outcome.success)
        if chunk and (i + 1) % chunk == 0:
            between()
    return SimRun(seed, setup_ns, slot_ns, flags, sim.trace)


def rch_slot_success(k: int, n_channels: int) -> float:
    """P_s(k) = 1 - (1 - k 2^-k)^M: uniform patterns make channel bits independent."""
    return 1.0 - (1.0 - k * 2.0**-k) ** n_channels


def check_run(run: SimRun, cfg: ScenarioConfig) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they pass."""
    trace, deadline = run.trace, cfg.deadline_slots
    problems = []
    if len(trace.events) == 0:
        problems.append("no terminal events")
    delivered = sum(1 for e in trace.events if e.delivered)
    failed = sum(1 for e in trace.events if not e.delivered and e.attempts == deadline + 1)
    if delivered + failed != len(trace.events):
        problems.append(f"delivered {delivered} + failed {failed} != events {len(trace.events)}")
    if any(e.attempts > deadline + 1 for e in trace.events):
        problems.append("an event exceeded deadline_slots + 1 attempts")
    if any(e.attempts != e.end_slot - e.birth_slot + 1 for e in trace.events):
        problems.append("an event's attempts differ from its contention slots")
    if len(run.flags) != trace.n_contention_slots:
        problems.append("contention slots returned differ from the trace count")
    in_time = in_time_probability(trace)
    if in_time is not None and not 0.0 <= in_time <= 1.0:
        problems.append(f"in_time_probability {in_time} outside [0, 1]")
    if not all(math.isfinite(v) for v in trace.mse):
        problems.append("non-finite MSE value")
    if cfg.policy_kind is PolicyKind.RCH:
        q = [
            1.0 - (1.0 - rch_slot_success(e.active_size, cfg.n_channels)) ** (deadline + 1)
            for e in trace.events
        ]
        mean, sd = sum(q), math.sqrt(sum(x * (1.0 - x) for x in q))
        if abs(delivered - mean) > 4.0 * sd:
            problems.append(f"rch delivered {delivered}, exact mean {mean:.3f} +- {sd:.3f}")
    return problems


def fingerprint(run: SimRun) -> str:
    """sha256 over the event records, per-slot success flags and MSE series."""
    h = hashlib.sha256()
    for e in run.trace.events:
        h.update(struct.pack("<qq?qq", e.birth_slot, e.end_slot, e.delivered, e.attempts, e.active_size))
    h.update(bytes(run.flags))
    h.update(np.asarray(run.trace.mse, dtype="<f8").tobytes())
    return h.hexdigest()


def summary(run: SimRun, fp: str) -> str:
    t = run.trace
    return (
        f"run seed={run.seed} slots={run.slot_ns.size} n_contention_slots={t.n_contention_slots} "
        f"delivered={t.delivered_count} failed={t.failed_count} in_time={in_time_probability(t)} "
        f"sha256={fp}"
    )


def sim_config(name: str) -> ScenarioConfig:
    return config_from_dict({**CONTENTION, **SIM_WORKLOADS[name].scenario})


def rounds_for(seconds: float, round_s: float) -> int:
    return max(MIN_ROUNDS, round(seconds / round_s))


def warm(cfg: ScenarioConfig, seed: int) -> None:
    """Pay first-call costs (pattern_table, numpy dispatch) on a throwaway run."""
    sim = Simulation(cfg, seed=seed)
    while sim.trace.n_contention_slots < WARM_CONTENTION_SLOTS:
        sim.run_slot()


def attempt(cfg: ScenarioConfig, seed: int, n_slots: int, out: Outcome, **hooks) -> SimRun | None:
    """Build and run one simulation as one checked operation; None if it failed.
    `hooks` are passed on to `simulate`."""
    out.attempted += 1
    try:
        run = simulate(cfg, seed, n_slots, **hooks)
    except Exception as exc:  # a raising run is a failed operation, not a crash
        out.fail(f"seed={seed}: {exc!r}")
        return None
    problems = check_run(run, cfg)
    if problems:
        out.fail(f"check seed={seed}: {'; '.join(problems)}")
        return None
    return run


@dataclass
class Timed:
    """One checked unit run; the SimRun and its RunTrace are dropped, so they
    do not count in a later unit's peak RSS."""

    fingerprint: str
    summary: str
    setup_ns: int
    slots_ns: int  # all run_slot calls


def timed_unit(wl: SimWorkload, cfg: ScenarioConfig, seed: int, speed: HostSpeed, out: Outcome) -> Timed | None:
    """The reference kernel is timed after the set-up and after every chunk of slots."""
    run = attempt(cfg, seed, wl.slots_per_unit, out, on_setup_done=speed.sample, chunk=wl.chunk, between=speed.sample)
    if run is None:
        return None
    fp = fingerprint(run)
    return Timed(fp, summary(run, fp), run.setup_ns, int(run.slot_ns.sum()))


def run_simulation(name: str, seed: int, seconds: float) -> Outcome:
    wl = SIM_WORKLOADS[name]
    cfg = sim_config(name)
    out = Outcome()
    warm_seed, *seeds = run_seeds(seed, wl.units)
    rounds = rounds_for(seconds, wl.round_s)
    warm(cfg, warm_seed)

    first: dict[int, Timed] = {}
    figures: dict[str, list[float]] = {"setup_s": [], "work_s": []}
    host_round_s = []
    speed = HostSpeed()
    for _ in range(rounds):
        start, first_ref = time.perf_counter(), speed.mark()
        done = []
        for s in seeds:
            unit = timed_unit(wl, cfg, s, speed, out)
            if unit is None:
                continue
            first.setdefault(s, unit)
            if unit.fingerprint != first[s].fingerprint:
                out.fail(f"seed={s}: a repeat changed the behaviour fingerprint")
            else:
                done.append(unit)
        host_round_s.append(time.perf_counter() - start)
        if len(done) < len(seeds):
            continue
        f = speed.factor(first_ref)
        figures["setup_s"].append(sum(u.setup_ns for u in done) / 1e9 * f)
        figures["work_s"].append(sum(u.slots_ns for u in done) / 1e9 * f)
    memory_line = None
    if wl.memory_slots and (run := attempt(cfg, seeds[0], wl.memory_slots, out)) is not None:
        memory_line = "memory " + summary(run, fingerprint(run))
        del run
    rss = peak_rss_mb()
    if not figures["setup_s"]:
        raise SystemExit(f"{name}: no round ran every unit")

    describe([(u.fingerprint, u.summary) for u in first.values()], out)
    if memory_line:
        out.lines.append(memory_line)
    out.lines.append(speed.line())
    work_s = float(np.median(figures["work_s"]))
    out.lines.append(f"rounds {rounds} of {len(seeds)} units x {wl.slots_per_unit} slots, "
                     f"host seconds per round median {float(np.median(host_round_s)):.3f}, "
                     f"slots_per_s {len(seeds) * wl.slots_per_unit / work_s:.1f}")
    out.metrics = {
        "setup_s": (float(np.median(figures["setup_s"])), "s"),
        "work_s": (work_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return out


def describe(units: list[tuple[str, str]], out: Outcome) -> None:
    """Behaviour fingerprint of each unit, from its (fingerprint, summary)
    pair, and of the whole workload."""
    digest = hashlib.sha256()
    for fp, line in units:
        out.lines.append(line)
        digest.update(fp.encode())
    out.lines.append(f"fingerprint {digest.hexdigest()}")


# --- traced simulation run ------------------------------------------------


def _on_step_mobility(phase: tracer.Phase, args: tuple, poses: list) -> None:
    phase.counters["resampled"] += sum(1 for a, b in zip(args[0], poses) if a.heading != b.heading)


def _on_spawn(phase: tracer.Phase, args: tuple, event) -> None:
    if event is None:
        return
    phase.counters["spawned"] += 1
    if event.active_set:
        phase.counters["active_total"] += len(event.active_set)
    else:
        phase.counters["coverage_miss"] += 1


def _on_clip(phase: tracer.Phase, args: tuple, clipped) -> None:
    grads, threshold = args
    phase.counters["clip_fired"] += _grad_norm(grads) > threshold


HOOKS = {
    "geometry.step_mobility": _on_step_mobility,
    "events.maybe_spawn_event": _on_spawn,
    "learning.clip_gradient": _on_clip,
}


def _per(num: float, den: float, scale: float = 1.0) -> float | None:
    return num * scale / den if den else None


def _matching(table: dict[str, int], prefix: str, suffix: str) -> int:
    return sum(v for name, v in table.items() if name.startswith(prefix) and name.endswith(suffix))


def sim_layer_metrics(
    setup: tracer.Phase, run: tracer.Phase, n_sims: int, runs: list[SimRun], n_agents: int
) -> dict[str, tuple[float, str]]:
    slots = sum(r.slot_ns.size for r in runs)
    contention = sum(len(r.flags) for r in runs)
    successes = sum(sum(r.flags) for r in runs)
    spawned, misses = run.counters["spawned"], run.counters["coverage_miss"]
    updates = run.calls["learning.backward"]
    incl = run.incl_ns
    us, ms = 1e-3, 1e-6
    metrics = {
        "geometry.step_mobility_us_per_slot": (_per(incl["geometry.step_mobility"], slots, us), "us"),
        "geometry.resample_per_pose_step": (_per(run.counters["resampled"], n_agents * slots), "count"),
        "geometry.place_uniform_ms": (_per(setup.incl_ns["geometry.place_uniform"], n_sims, ms), "ms"),
        "channel.shadowing_ms": (_per(setup.incl_ns["channel.shadowing_db"], n_sims, ms), "ms"),
        "channel.us_per_contention_slot": (_per(run.module_ns["channel"], contention, us), "us"),
        "channel.pathloss_calls_per_contention_slot": (_per(run.calls["channel.pathloss_db"], contention), "count"),
        "events.spawn_us_per_slot": (_per(incl["events.maybe_spawn_event"], slots, us), "us"),
        "events.coverage_miss_share": (_per(misses, spawned), "share"),
        "events.active_size_mean": (_per(run.counters["active_total"], spawned - misses), "count"),
        "signature.us_per_contention_slot": (_per(run.module_ns["signature"], contention, us), "us"),
        "policies.make_policy_ms": (_per(setup.incl_ns["policies.make_policy"], n_sims, ms), "ms"),
        "policies.select_us_per_contention_slot": (
            _per(_matching(incl, "policies.", ".select_action"), contention, us), "us"),
        "policies.observe_us_per_contention_slot": (
            _per(_matching(incl, "policies.", ".observe"), contention, us), "us"),
        "engine.run_slot_us_per_slot": (_per(incl["engine.Simulation.run_slot"], slots, us), "us"),
        "engine.self_us_per_slot": (_per(run.self_ns["engine.Simulation.run_slot"], slots, us), "us"),
        "engine.resolve_collisions_us_per_contention_slot": (
            _per(incl["engine.resolve_collisions"], contention, us), "us"),
        "engine.contention_slot_share": (_per(contention, slots), "share"),
        "engine.slot_success_share": (_per(successes, contention), "share"),
    }
    if updates:
        metrics.update({
            "learning.backward_us_per_update": (_per(incl["learning.backward"], updates, us), "us"),
            "learning.clip_us_per_update": (_per(incl["learning.clip_gradient"], updates, us), "us"),
            "learning.rmsprop_us_per_update": (_per(incl["learning.rmsprop_step"], updates, us), "us"),
            "learning.replay_sample_us_per_update": (
                _per(incl["learning.ReplayMemory.sample"], updates, us), "us"),
            "learning.updates_per_contention_slot": (_per(updates, contention), "count"),
            "learning.clip_fire_share": (
                _per(run.counters["clip_fired"], run.calls["learning.clip_gradient"]), "share"),
        })
    return {name: (v, unit) for name, (v, unit) in metrics.items() if v is not None}


def retained_bytes(cfg: ScenarioConfig, seed: int, n_slots: int) -> tuple[int, int]:
    """(bytes freed by dropping the RunTrace of one run, its contention slots)."""
    tracemalloc.start()
    try:
        run = simulate(cfg, seed, n_slots)
        trace, contention = run.trace, run.trace.n_contention_slots
        del run
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        return with_trace - tracemalloc.get_traced_memory()[0], contention
    finally:
        tracemalloc.stop()


def run_traced_simulation(name: str, seed: int) -> Outcome:
    """Each unit once untraced and once traced, so their rates give the overhead."""
    wl = SIM_WORKLOADS[name]
    cfg = sim_config(name)
    out = Outcome()
    warm_seed, *seeds = run_seeds(seed, wl.units)
    warm(cfg, warm_seed)
    retained = retained_bytes(cfg, seeds[0], wl.slots_per_unit) if wl.memory_slots else None

    tr = tracer.Tracer()
    patch = tracer.install(tr, HOOKS)
    setup, slots = tracer.Phase(), tracer.Phase()
    traced: list[SimRun] = []
    plain_fp: dict[int, str] = {}
    plain_slot_ns: list[np.ndarray] = []  # scaled to the reference host
    slots_ns = {False: 0.0, True: 0.0}  # all run_slot calls, scaled
    speed = HostSpeed()
    for s in seeds:
        patch.apply(False)
        first_ref = speed.mark()
        run = attempt(cfg, s, wl.slots_per_unit, out, chunk=wl.chunk, between=speed.sample)
        if run is None:
            continue
        plain_fp[s], plain_slots = fingerprint(run), run.slot_ns * speed.factor(first_ref)
        patch.apply(True)
        tr.phase = setup
        first_ref = speed.mark()
        run = attempt(cfg, s, wl.slots_per_unit, out, on_setup_done=lambda: setattr(tr, "phase", slots),
                      chunk=wl.chunk, between=speed.sample)
        if run is None:
            continue
        traced.append(run)
        plain_slot_ns.append(plain_slots)
        slots_ns[False] += float(plain_slots.sum())
        slots_ns[True] += float(run.slot_ns.sum()) * speed.factor(first_ref)
        if fingerprint(run) != plain_fp[s]:
            out.fail(f"tracing changed the behaviour of seed={s}")
    patch.apply(False)
    if not traced:
        raise SystemExit(f"{name}: every run failed")
    describe([(fp, summary(r, fp)) for r in traced for fp in [fingerprint(r)]], out)

    out.metrics = sim_layer_metrics(setup, slots, len(seeds), traced, cfg.n_subnets)
    if retained is not None:
        out.metrics["engine.retained_kb_per_contention_slot"] = (retained[0] / 1024 / retained[1], "kB")
    # each traced unit has its untraced twin, so the share compares equal work
    out.metrics["trace.overhead_share"] = (1.0 - slots_ns[False] / slots_ns[True], "share")
    slot_ms = np.concatenate(plain_slot_ns) / 1e6
    out.metrics["engine.slot_ms_p50"] = (float(np.percentile(slot_ms, 50)), "ms")
    out.metrics["engine.slot_ms_p95"] = (float(np.percentile(slot_ms, 95)), "ms")
    out.lines.append(f"untraced run_slot calls timed: {slot_ms.size}")
    run_slot_ns = slots.incl_ns["engine.Simulation.run_slot"]
    out.lines.append(
        f"share of run_slot time: geometry.step_mobility {slots.incl_ns['geometry.step_mobility'] / run_slot_ns:.3f}"
        f", policies.observe {_matching(slots.incl_ns, 'policies.', '.observe') / run_slot_ns:.3f}"
    )
    return out


# --- oracles --------------------------------------------------------------

DTMC_FORMS = ("deadline_probability", "deadline_probability_via_absorption", "deadline_probability_by_paths")


@dataclass
class OracleInputs:
    p: np.ndarray  # per-agent activation probability from the set-up
    psi: np.ndarray  # non-uniform access matrix, one row per agent
    chains: list[analytics.DtmcSpec]
    deadline: int


def oracle_config() -> ScenarioConfig:
    return config_from_dict({**CONTENTION, "n_subnets": ORACLE_AGENTS})


def oracle_setup(cfg: ScenarioConfig, seed: int) -> np.ndarray:
    """Placement plus the Monte Carlo activation estimate that feeds the oracles."""
    rng = np.random.default_rng(seed)
    poses = geometry.place_uniform(cfg, rng)
    return events.empirical_activation(poses, cfg, rng)


def oracle_inputs(cfg: ScenarioConfig, p: np.ndarray, seed: int) -> OracleInputs:
    rng = np.random.default_rng(seed)
    psi = rng.dirichlet(np.ones(1 << ORACLE_CHANNELS), size=ORACLE_AGENTS)
    chains = [
        analytics.DtmcSpec(rng.uniform(0.0, 1.0, size=int(rng.integers(1, DTMC_MAX_DEADLINE + 2))))
        for _ in range(DTMC_CHAINS)
    ]
    return OracleInputs(p, psi, chains, cfg.deadline_slots)


def _call(out: Outcome, label: str, fn: Callable, *args):
    """One oracle call as one operation; None if it raised."""
    out.attempted += 1
    try:
        return fn(*args)
    except Exception as exc:
        out.fail(f"{label}: {exc!r}")
        return None


def oracle_units(inp: OracleInputs, out: Outcome) -> dict[str, Callable[[], object]]:
    """The timed oracle units. Each looks its functions up when it runs, so
    the tracer sees them; each oracle call is one operation."""
    def uniform():
        access = analytics.uniform_access(len(inp.p), ORACLE_CHANNELS)
        return _call(out, "bruteforce uniform", analytics.success_probability_bruteforce, inp.p, access)

    def skewed():
        access = analytics.AccessDistribution(inp.psi)
        return _call(out, "bruteforce non-uniform", analytics.success_probability_bruteforce, inp.p, access)

    def grid():
        p = inp.p[:GRID_AGENTS]
        found = _call(out, "grid search", analytics.best_stationary_psi, p, GRID_CHANNELS, inp.deadline, GRID_STEP)
        access = analytics.uniform_access(GRID_AGENTS, GRID_CHANNELS)
        return found, _call(out, "bruteforce grid agents", analytics.success_probability_bruteforce, p, access)

    def dtmc():
        return [[_call(out, f"dtmc {form}", getattr(analytics, form), spec) for form in DTMC_FORMS]
                for spec in inp.chains]

    return {"uniform": uniform, "skewed": skewed, "grid": grid, "dtmc": dtmc}


def uniform_success_exact(p: np.ndarray, n_channels: int) -> float:
    """Sum_k Pr(k active) P_s(k), with Pr(k active) the Poisson-binomial law of p.

    With equal p this is the binomial sum C(N,k) p^k (1-p)^(N-k) P_s(k).
    """
    dist = np.ones(1)
    for pn in p:
        dist = np.convolve(dist, [1.0 - pn, pn])
    return float(sum(dist[k] * rch_slot_success(k, n_channels) for k in range(len(dist))))


def check_oracles(inp: OracleInputs, res: dict, out: Outcome) -> None:
    if res["uniform"] is not None:
        exact = uniform_success_exact(inp.p, ORACLE_CHANNELS)
        if abs(res["uniform"] - exact) > 1e-12:
            out.fail(f"uniform brute force {res['uniform']!r} != binomial sum {exact!r}")
    if res["skewed"] is not None and not 0.0 <= res["skewed"] <= 1.0:
        out.fail(f"non-uniform success {res['skewed']} outside [0, 1]")
    found, uniform = res["grid"]
    if found is not None and uniform is not None:
        uniform_miss = (1.0 - uniform) ** (inp.deadline + 1)
        if found[1] > uniform_miss + 1e-12:
            out.fail(f"grid-search miss {found[1]} exceeds uniform access miss {uniform_miss}")
    for spec, forms in zip(inp.chains, res["dtmc"]):
        if None in forms:
            continue
        worst = max(abs(a[i] - b[i]) for a in forms for b in forms for i in (0, 1))
        if worst > 1e-10:
            out.fail(f"DTMC forms disagree by {worst:.3e} at D={spec.deadline}")


def warm_oracles(cfg: ScenarioConfig, seed: int) -> None:
    p = oracle_setup(cfg, seed)
    analytics.success_probability_bruteforce(p[:2], analytics.uniform_access(2, ORACLE_CHANNELS))
    analytics.best_stationary_psi(p[:1], GRID_CHANNELS, cfg.deadline_slots, GRID_STEP)
    spec = analytics.stationary_dtmc(0.5, cfg.deadline_slots)
    for form in DTMC_FORMS:
        getattr(analytics, form)(spec)


def run_oracles(seed: int, seconds: float) -> Outcome:
    cfg = oracle_config()
    out = Outcome()
    warm_seed, setup_seed, input_seed = run_seeds(seed, 2)
    warm_oracles(cfg, warm_seed)

    p = oracle_setup(cfg, setup_seed)
    inp = oracle_inputs(cfg, p, input_seed)
    units = oracle_units(inp, out)
    setup_s: list[float] = []
    unit_s: dict[str, list[float]] = {name: [] for name in units}
    host_round_s = []
    speed = HostSpeed()
    for _ in range(rounds_for(seconds, ORACLE_ROUND_S)):
        round_start, first_ref = time.perf_counter(), speed.mark()
        setups = []
        for _ in range(ORACLE_SETUPS):
            start = time.perf_counter()
            again = oracle_setup(cfg, setup_seed)
            setups.append(time.perf_counter() - start)
            speed.sample()
            if not np.array_equal(again, p):
                out.fail("set-up gave different activation probabilities for the same seed")
        res, host_s = {}, {}
        for name, unit in units.items():
            start = time.perf_counter()
            res[name] = unit()
            host_s[name] = time.perf_counter() - start
            speed.sample()
        f = speed.factor(first_ref)
        setup_s.extend(t * f for t in setups)
        for name, t in host_s.items():
            unit_s[name].append(t * f)
        check_oracles(inp, res, out)
        host_round_s.append(time.perf_counter() - round_start)
    rss = peak_rss_mb()

    found = res["grid"][0]
    out.lines.append(f"p={np.array2string(inp.p, precision=4)} uniform={res['uniform']} "
                     f"non_uniform={res['skewed']} grid_miss={found[1] if found else None}")
    out.lines.append(speed.line())
    out.lines.append(f"rounds {len(host_round_s)}, host seconds per round median {float(np.median(host_round_s)):.3f}")
    out.lines.append("work_s by unit (median): " +
                     ", ".join(f"{k} {float(np.median(v)):.4f}" for k, v in unit_s.items()))
    out.metrics = {
        "setup_s": (float(np.median(setup_s)), "s"),
        "work_s": (float(np.median(np.sum(list(unit_s.values()), axis=0))), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return out


def run_traced_oracles(seed: int) -> Outcome:
    cfg = oracle_config()
    out = Outcome()
    warm_seed, setup_seed, input_seed = run_seeds(seed, 2)
    warm_oracles(cfg, warm_seed)

    speed = HostSpeed()

    def timed_sequence(inp: OracleInputs) -> tuple[dict, float]:
        """The oracle results and their host time, scaled to the reference host."""
        first_ref, res, ns = speed.mark(), {}, 0
        for name, unit in oracle_units(inp, out).items():
            start = time.perf_counter_ns()
            res[name] = unit()
            ns += time.perf_counter_ns() - start
            speed.sample()
        return res, ns * speed.factor(first_ref)

    # the sequence once untraced and once traced, so their times give the overhead
    p = oracle_setup(cfg, setup_seed)
    plain, plain_ns = timed_sequence(oracle_inputs(cfg, p, input_seed))
    inp = oracle_inputs(cfg, p, input_seed)
    check_oracles(inp, plain, out)

    tr = tracer.Tracer()
    patch = tracer.install(tr, HOOKS)
    setup, seq = tr.phase, tracer.Phase()
    p = oracle_setup(cfg, setup_seed)
    inp = oracle_inputs(cfg, p, input_seed)
    tr.phase = seq
    res, traced_ns = timed_sequence(inp)
    patch.apply(False)
    check_oracles(inp, res, out)
    if repr(res) != repr(plain):
        out.fail("tracing changed the oracle results")

    s, ms = 1e-9, 1e-6
    bruteforce, grid = "analytics.success_probability_bruteforce", "analytics.best_stationary_psi"
    metrics = {
        "geometry.place_uniform_ms": (setup.incl_ns["geometry.place_uniform"] * ms, "ms"),
        "events.empirical_activation_ms": (setup.incl_ns["events.empirical_activation"] * ms, "ms"),
        "analytics.bruteforce_s": (_per(seq.incl_ns[bruteforce], seq.calls[bruteforce], s), "s"),
        "analytics.grid_search_s": (_per(seq.incl_ns[grid], seq.calls[grid], s), "s"),
        "analytics.dtmc_ms": (sum(seq.incl_ns[f"analytics.{form}"] for form in DTMC_FORMS) * ms, "ms"),
        "trace.overhead_share": (1.0 - plain_ns / traced_ns, "share"),
    }
    out.metrics = {name: (v, unit) for name, (v, unit) in metrics.items() if v is not None}
    return out


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    if name == "oracles":
        return run_traced_oracles(seed) if traced else run_oracles(seed, seconds)
    if traced:
        return run_traced_simulation(name, seed)
    return run_simulation(name, seed, seconds)
