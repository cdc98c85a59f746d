"""Call tracer that wraps the public functions of alarmmac's layer modules.

Every public module-level function and every public method of a public class
defined in a layer module is replaced by a wrapper that records, per
qualified name (``module.function`` or ``module.Class.method``), the number
of calls, the inclusive time and the self time (inclusive minus wrapped
children). Time spent inside a module that was entered from outside it is
also summed per module, so nested calls within one module count once.

Names that another module imported with ``from ... import`` are rebound at
those call sites too, since patching only the defining module would miss
them. ``alarmmac.engine`` is not a layer module: only ``resolve_collisions``
and ``Simulation.run_slot`` are wrapped there, so that the engine's own
bookkeeping stays in ``run_slot``'s self time.

Hooks inspect a call's arguments and result to count work (heading
resamples, active-set sizes, gradient clipping). Their own time is removed
from every open span, so they do not inflate any layer.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable

LAYER_MODULES = ("geometry", "channel", "events", "signature", "policies", "learning", "analytics")
ENGINE_TARGETS = ("resolve_collisions", "Simulation.run_slot")

Hook = Callable[["Phase", tuple, Any], None]


class Phase:
    """Call counts, times and hook counters recorded during one phase."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.module_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)


class Tracer:
    """Records every wrapped call into `phase`, which callers may swap."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [start_ns, child_ns, module]
        self.phase = Phase()

    def wrap(self, name: str, module: str, fn: Callable, hook: Hook | None = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [clock(), 0, module]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                phase = self.phase
                phase.calls[name] += 1
                phase.incl_ns[name] += dur
                phase.self_ns[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[2] != module:
                    phase.module_ns[module] += dur
            if hook is not None:
                start = clock()
                hook(self.phase, args, result)
                spent = clock() - start
                for open_frame in stack:
                    open_frame[0] += spent
            return result

        return traced


def _targets(module: types.ModuleType, only: tuple[str, ...] | None) -> list[tuple[str, Any, str]]:
    """(qualified attribute path, owner, attribute) of each function to wrap."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            out.append((attr, module, attr))
        elif isinstance(obj, type):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                    out.append((f"{attr}.{meth}", obj, meth))
    if only is not None:
        out = [t for t in out if t[0] in only]
    return out


class Patch:
    """The wrapped functions, which can be switched in and out."""

    def __init__(self) -> None:
        self.swaps: list[tuple[Any, str, Callable, Callable]] = []  # owner, attribute, original, wrapper

    def apply(self, traced: bool) -> None:
        for owner, attr, original, wrapped in self.swaps:
            setattr(owner, attr, wrapped if traced else original)


def install(tracer: Tracer, hooks: dict[str, Hook]) -> Patch:
    """Wrap every traced function; the returned patch is applied.

    `hooks` maps a qualified name such as ``geometry.step_mobility`` to a
    hook called after each successful call with (phase, args, result).
    """
    patch = Patch()
    wrapped_by_id: dict[int, Callable] = {}
    plan = [(name, None) for name in LAYER_MODULES] + [("engine", ENGINE_TARGETS)]
    for short, only in plan:
        module = sys.modules[f"alarmmac.{short}"]
        for path, owner, attr in _targets(module, only):
            fn = vars(owner)[attr]
            wrapped = tracer.wrap(f"{short}.{path}", short, fn, hooks.get(f"{short}.{path}"))
            patch.swaps.append((owner, attr, fn, wrapped))
            wrapped_by_id[id(fn)] = wrapped
    # names other modules imported from the layer modules are call sites too
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "alarmmac" or mod_name.startswith("alarmmac."):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped_by_id:
                    patch.swaps.append((module, attr, obj, wrapped_by_id[id(obj)]))
    patch.apply(True)
    return patch
