"""Every public integer argument of alarmmac, refused and taken by one rule.

The walker reads each module's public functions, the public methods of its
public classes, and each public class through its own `__init__`. A
parameter annotated `int`, `int | None` or `tuple[int, ...]`, or named
`layer_sizes`, needs a row in ROWS, whose test refuses the integer rule's
bad values and takes numpy's integers, or an entry in EXEMPT, which names
its reason.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import numbers
import os
import pickle
import pkgutil
import tempfile
import types
from dataclasses import dataclass, replace
from typing import Any, Callable
from unittest import mock

import numpy as np
import pytest

import alarmmac
from alarmmac import analytics as an, config, engine, events, geometry, learning as ln, policies, reporting, signature
from conftest import agent_array, make_config, pose_array

MODULES = [importlib.import_module(f"alarmmac.{m.name}") for m in pkgutil.iter_modules(alarmmac.__path__)]


def public_callables(module: types.ModuleType) -> dict[str, Callable]:
    """Each public callable of `module` by its name, ``module.function``,
    ``module.Class.method`` or, for a constructor, ``module.Class``."""
    short = module.__name__.rpartition(".")[2]
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            found[f"{short}.{name}"] = obj
        elif isinstance(obj, type):
            for attr, fn in vars(obj).items():
                if attr == "__init__":
                    found[f"{short}.{name}"] = fn
                elif not attr.startswith("_") and isinstance(fn, types.FunctionType):
                    found[f"{short}.{name}.{attr}"] = fn
    return found


def integer_parameters(module: types.ModuleType) -> dict[tuple[str, str], str]:
    """The annotation of each integer parameter of `module`'s public callables, by (callable, parameter)."""
    return {
        (name, p.name): p.annotation
        for name, fn in public_callables(module).items()
        for p in inspect.signature(fn).parameters.values()
        if p.annotation in ("int", "int | None", "tuple[int, ...]") or p.name == "layer_sizes"
    }


def unchecked(modules, rows, exempt) -> list[str]:
    """``callable(parameter)`` of each integer parameter with neither a row
    nor an exemption; a method is exempt with its class, a callable with its module."""
    covered = {(row.target, row.name.partition("[")[0]) for row in rows}
    return [
        f"{name}({parameter})"
        for module in modules
        for name, parameter in integer_parameters(module)
        if (name, parameter) not in covered
        and not exempt.keys() & {name, name.partition(".")[0], name.rpartition(".")[0]}
    ]


def stale(modules, exempt) -> list[str]:
    """The exempt names that are no module or public callable."""
    known = {name for module in modules for name in [module.__name__.rpartition(".")[2], *public_callables(module)]}
    return sorted(set(exempt) - known)


@dataclass(frozen=True)
class Row:
    """`call(value)` is a valid call of `target` with `value` as the argument
    that a refusal names `name`: a parameter, or one entry of it such as
    ``layer_sizes[1]``. `also` holds further values to refuse."""

    target: str
    name: str
    call: Callable[[Any], Any]
    valid: int
    minimum: int | None = None
    also: tuple = ()

    def refused(self) -> list[Any]:
        below = [] if self.minimum is None else [self.minimum - 1]
        none = [] if ANNOTATIONS.get((self.target, self.name)) == "int | None" else [None]
        return [1.5, 2.0, True, "3", *self.also, *below, *none]

    def message(self, value: Any) -> str:
        """`checked_int`'s refusal of `value`."""
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return f"{self.name}: must be >= {self.minimum}, got {value!r}"
        return f"{self.name}: must be an integer, got {value!r}"


def untouched(subject: Callable[[], contextlib.AbstractContextManager], state: Callable[[Any], Any]):
    """Makes `call(s, value)` a row's call on a fresh subject `s`, entered
    from `subject()`: a refused value must leave `state(s)` as it was."""

    def wrap(call):
        def checked(value):
            with subject() as s:
                before = state(s)
                try:
                    return call(s, value)
                except ValueError:
                    assert state(s) == before, f"{value!r} changed its subject before its refusal"
                    raise
        return checked
    return wrap


@contextlib.contextmanager
def watched_runs():
    """A fresh result directory, and the seeds of the runs started while it is open."""
    started, build = [], reporting.Simulation
    def counted(config, seed):
        started.append(seed)
        return build(config, seed=seed)
    with tempfile.TemporaryDirectory() as out, mock.patch.object(reporting, "Simulation", counted):
        yield out, started


no_draw = untouched(lambda: contextlib.nullcontext(np.random.default_rng(1)), lambda rng: rng.bit_generator.state)
no_slot = untouched(lambda: contextlib.nullcontext(engine.Simulation(RUNS, seed=3)), lambda sim: sim.trace.n_slots)
no_run = untouched(watched_runs, lambda watched: (os.listdir(watched[0]), list(watched[1])))


def experiment(watched, **kwargs) -> reporting.ExperimentResult:
    """A run of RUNS into the watched directory, its wall-clock time zeroed."""
    return replace(reporting.run_experiment(RUNS, out_dir=watched[0], **kwargs), wall_clock_s=0.0)


CFG = make_config()
# many alarms at N = 5: a run of a few hundred slots ends several
RUNS = make_config(n_subnets=5, n_slots=400, n_runs=2, alpha=0.5, eta=0.05, tx_threshold=0.3, policy_kind="rch")
POSES = pose_array([(10.0, 10.0, 0.0), (40.0, 40.0, 1.0), (25.0, 25.0, 2.0), (5.0, 45.0, 3.0)])
WALKER = pose_array([(0.001, 10.0, np.pi), (40.0, 40.0, 2.0)])  # walks into the wall: its steps draw resamples
PARAMS = ln.init_params((3, 2, 8), 1, np.random.default_rng(0))
BATCH = (np.random.default_rng(1).random((1, 4, 3)), np.array([[0, 3, 7, 3]]), np.array([[1.0, -1.0, 1.0, 0.5]]))
REPLAY = ln.StackedReplay(2, 4, 3)
REPLAY.push(agent_array(0, 1), np.ones((2, 3)), np.array([1, 6]), np.array([1.0, -1.0]))
PSI, LAYERS = np.array([0.5]), [2, 1, 1, 4]

ROWS = [
    Row("analytics.uniform_access", "n", lambda n: an.uniform_access(n, 2), 2, 0),
    Row("analytics.uniform_access", "n_channels", lambda m: an.uniform_access(2, m), 2, 1),
    Row("analytics.stationary_dtmc", "deadline", lambda d: an.stationary_dtmc(0.5, d), 2, 0, (-3, 2.5)),
    Row("analytics.stationary_deadline_probability", "deadline", lambda d: an.stationary_deadline_probability(0.5, d),
        2, 0, (-3, 2.5)),
    Row("analytics.best_stationary_psi", "n_channels", lambda m: an.best_stationary_psi(PSI, m, 2), 1, 1, (1.0,)),
    Row("analytics.best_stationary_psi", "deadline", lambda d: an.best_stationary_psi(PSI, 1, d), 2, 0, (-3, 2.5)),
    Row("analytics.forward_madds", "layer_sizes[0]", lambda s: an.forward_madds([s, 1, 2]), 1, 1, (-1,)),
    Row("analytics.forward_madds", "layer_sizes[1]", lambda s: an.forward_madds([2, s, 4]), 1, 1),
    Row("analytics.complexity_bounds", "n_channels", lambda m: an.complexity_bounds(m, 120, LAYERS), 2, 1, (2.5,)),
    Row("analytics.complexity_bounds", "minibatch", lambda b: an.complexity_bounds(2, b, LAYERS), 120, 1, (-5,)),
    Row("analytics.complexity_bounds", "layer_sizes[1]", lambda s: an.complexity_bounds(2, 120, [2, s, 1, 4]), 1, 1),
    Row("analytics.complexity_bounds", "layer_sizes[3]", lambda s: an.complexity_bounds(2, 120, [2, 1, 1, s]),
        4, 1, (4.0,)),
    Row("analytics.compact_lower_bound_closed_form", "n_channels", an.compact_lower_bound_closed_form, 3, 1, (2.5,)),
    Row("config.derive_stream", "seed", lambda seed: config.derive_stream(seed, "x"), -5, None, (np.float64(2.0),)),
    Row("config.derive_run_seed", "base_seed", lambda seed: config.derive_run_seed(seed, 0), 7, None, (1.0, False)),
    Row("config.derive_run_seed", "run_index", lambda i: config.derive_run_seed(0, i), 3, 0),
    Row("engine.resolve_collisions", "n_channels", lambda m: engine.resolve_collisions([1, 2], m), 2, 1),
    Row("engine.Simulation", "seed", lambda seed: engine.Simulation(RUNS, seed).run(), 7),
    Row("engine.Simulation.run", "n_slots", no_slot(lambda sim, n: sim.run(n_slots=n)), 400, 0, (-5, 2.5)),
    Row("engine.Simulation.run", "until_events", no_slot(lambda sim, n: sim.run(n_slots=400, until_events=n)),
        2, 0, (0.5, False)),
    Row("events.maybe_spawn_event", "slot", lambda slot: events.maybe_spawn_event(
        slot, lambda: POSES, np.random.default_rng(0), make_config(alpha=1.0)), 5, 0),
    Row("events.empirical_activation", "n_trials",
        no_draw(lambda rng, n: events.empirical_activation(POSES[:1], CFG, rng, n)), 10_000, 10_000, (20000.0,)),
    Row("events.active_size_pmf", "placements", lambda p: events.active_size_pmf(CFG, p, 50, 3), 2, 1, (-1,)),
    Row("events.active_size_pmf", "epicentres", lambda e: events.active_size_pmf(CFG, 2, e, 3), 50, 1, (-1, 50.0)),
    Row("events.active_size_pmf", "seed", lambda seed: events.active_size_pmf(CFG, 2, 50, seed), -5, None, (2.5,)),
    Row("geometry.step_mobility", "n_steps",
        no_draw(lambda rng, n: (geometry.step_mobility(WALKER, make_config(n_subnets=2), rng, n), rng)),
        3, 0, (-3, 2.5)),
    Row("learning.n_params", "layer_sizes[1]", lambda s: ln.n_params((3, s, 8)), 2, 1, (-1, "2")),
    Row("learning.init_params", "layer_sizes[1]", no_draw(lambda rng, s: ln.init_params((3, s, 8), 2, rng)),
        2, 1, (-1, "2")),
    Row("learning.layer_views", "layer_sizes[1]", lambda s: ln.layer_views(np.zeros((1, 32)), (3, s, 8)),
        2, 1, (-1, "2")),
    Row("learning.forward_stacked", "layer_sizes[1]", lambda s: ln.forward_stacked(PARAMS, (3, s, 8), np.ones((1, 3))),
        2, 1),
    Row("learning.backward_stacked", "layer_sizes[1]", lambda s: ln.backward_stacked(PARAMS, (3, s, 8), BATCH), 2, 1),
    Row("learning.init_params", "n", no_draw(lambda rng, n: ln.init_params((3, 1, 8), n, rng)), 2, 1, (-2,)),
    Row("learning.StackedReplay", "n_agents", lambda n: ln.StackedReplay(n, 4, 3), 2, 1, (-1,)),
    Row("learning.StackedReplay", "capacity", lambda c: ln.StackedReplay(2, c, 3), 4, 1, (-1,)),
    Row("learning.StackedReplay", "n_channels", lambda m: ln.StackedReplay(2, 4, m), 3, 1, (-1,)),
    Row("learning.StackedReplay.sample", "batch_size",
        no_draw(lambda rng, b: REPLAY.sample(agent_array(0, 1), b, rng)), 4, 1),
    Row("policies.pattern_bits", "index", lambda i: policies.pattern_bits(i, 2), 2, 0, (np.float64(1.0),)),
    Row("policies.pattern_bits", "n_channels", lambda m: policies.pattern_bits(0, m), 2, 1, (False,)),
    Row("policies.pattern_table", "n_channels", policies.pattern_table, 3, 1, (-1,)),
    *(Row(f"policies.{kind.__name__}", "seed", lambda seed, kind=kind: kind(CFG, seed), 7)
      for kind in (policies.RchPopulation, policies.EpsilonGreedy, policies.MapRaPopulation, policies.DrlPopulation)),
    Row("policies.make_policy", "seed", lambda seed: policies.make_policy(CFG, seed), 7),
    # each entry of `seeds`, which the refusal names `seed`
    Row("reporting.run_experiment", "seed", no_run(lambda watched, seed: experiment(watched, seeds=[7, seed])),
        8, None, (1.7,)),
    Row("reporting.run_experiment", "until_events",
        no_run(lambda watched, n: experiment(watched, seeds=[7, 8], until_events=n)), 2, 0, (0.5,)),
    Row("reporting.sweep", "until_events", no_run(lambda watched, n: [
        (label, kind, replace(result, wall_clock_s=0.0))
        for label, kind, result in reporting.sweep(RUNS, "eta", [0.6], out_dir=watched[0], until_events=n)]), 2, 0),
    Row("signature.Contexts", "seed", lambda seed: signature.Contexts(CFG, seed, POSES), 7),
]

EXEMPT = {
    "config.ScenarioConfig": "a record whose every count key test_config.py refuses and takes",
    **dict.fromkeys(
        ("engine.SlotOutcome", "engine.EventRecord", "engine.RunTrace", "events.AlarmEvent",
         "reporting.PairedDifference", "reporting.ExperimentResult"),
        "a dataclass record: it holds what it is given",
    ),
    "config.checked_int": "the rule itself: its `minimum` is each caller's constant",
    "channel.complex_gaussian": "`shape` is an array shape handed straight to numpy",
    "selfcheck": "the helpers of `selftest`, which passes them fixed arguments",
}

ANNOTATIONS = {key: note for module in MODULES for key, note in integer_parameters(module).items()}


def test_every_public_integer_argument_has_a_row_or_an_exemption_that_names_what_exists():
    assert unchecked(MODULES, ROWS, EXEMPT) == []
    assert stale(MODULES, EXEMPT) == []


def synthetic_module(source: str) -> types.ModuleType:
    module = types.ModuleType("alarmmac.synthetic")
    exec("from __future__ import annotations\n" + source, vars(module))
    return module


def test_the_walker_reports_an_integer_argument_without_a_row_and_an_exemption_whose_name_is_gone():
    module = synthetic_module("def f(n: int, x: float):\n    return n\n\ndef _g(n: int):\n    return n\n")
    assert unchecked([module], ROWS, EXEMPT) == ["synthetic.f(n)"]
    assert stale([module], {"synthetic.f": "kept", "synthetic.gone": "removed"}) == ["synthetic.gone"]


@functools.cache
def taken(row: Row) -> bytes:
    """`row`'s valid call, pickled, made before its refusals: 2.0 must still miss a cache entry for 2."""
    return pickle.dumps(row.call(row.valid))


@pytest.mark.parametrize("row,value", [
    pytest.param(row, value, id=f"{row.target}-{row.name}-{value!r}") for row in ROWS for value in row.refused()])
def test_an_integer_argument_is_refused_unless_it_is_one(row, value):
    taken(row)
    with pytest.raises(ValueError) as refusal:
        row.call(value)
    assert str(refusal.value) == row.message(value)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.target}-{row.name}")
def test_numpy_integers_are_taken_as_the_plain_int(row):
    # pickled alike: equal in type and value all the way down, arrays bit for bit and generators by state
    for integer in (np.int64, np.min_scalar_type(row.valid).type):
        assert pickle.dumps(row.call(integer(row.valid))) == taken(row), integer
