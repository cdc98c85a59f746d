"""Functions of src/alarmmac that nothing outside the tests calls.

The census runs, in one process under `sys.setprofile`, the traffic that
uses the package outside its tests: demos 01-05, the command-line runs of
`CLI_RUNS` (the self-test, `simulate` of every preset under configs/, the
short and the 200 001-row `analyze` tables, the refused `analyze` and the
two-value `sweep`), the README's `simulate --policy drl --seed 7 --out`,
which writes a result file, and one short untraced and one traced run of
each benchmark workload through `bench/workloads.run`. CI runs the demos
and the command line only through the census, on every Python version it
tests, so this file is the one list of that traffic. The census then lists
each function or method defined in src/alarmmac (class bodies excluded,
nested functions included) that none of them called, as
`module.qualified.name`.

Code that only the tests reach is a candidate for deletion: the tests then
pin code that no user runs. A listed name outside `ALLOWLIST` exits 1, and
so does an allowlist entry that names no unreached function (a function
that is gone or now reached), so that the list stays exact. The allowlist
holds only what the benchmark's own code reads: each entry names the text
in bench/workloads.py that reads it, and the census exits 1, naming the
entry, once that text is gone, so the benchmark change that drops a read
drops the function and its entry with it. Traffic that fails (a benchmark
run with a failed operation, a command with an exit code other than the
one listed) exits 1 too, since its calls would be missing.

    PYTHONPATH=src python -X dev -W error tests/traffic_census.py

It takes about 19 s under `-X dev -W error` on a 2-vCPU host. The file is
not collected by pytest.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alarmmac"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from alarmmac import cli  # noqa: E402
import workloads  # noqa: E402

BENCH_WORKLOADS = ROOT / "bench" / "workloads.py"
# unreached name -> (why it stays, the text in bench/workloads.py that reads it)
ALLOWLIST = {
    "learning.grad_norm": (
        "bench/workloads.py binds it for a clipping hook on a name that no longer exists; the benchmark's "
        "code changes only in a benchmark change, so only that change (ROADMAP 1b) may remove the read, "
        "the function and this entry",
        "learning.grad_norm",
    ),
    "analytics.DtmcSpec.deadline": (
        "read only by the benchmark's failure message when the DTMC forms disagree; the benchmark's code "
        "changes only in a benchmark change, so only that change (ROADMAP 1b) may remove the read, the "
        "property and this entry",
        "spec.deadline",
    ),
}

PRESETS = sorted((ROOT / "configs").glob("*.json"))
CONTENTION = str(ROOT / "configs" / "contention.json")
# (argv, exit code) of each command-line run but the README's `simulate --out`
CLI_RUNS = [
    (["selftest"], 0),
    *((["simulate", "--config", str(p), "--runs", "1", "--slots", "100"], 0) for p in PRESETS),
    (["analyze", "--ps", "0.3", "--deadline", "15"], 0),
    (["analyze", "--ps", "0.1", "2", "--deadline", "0"], 2),
    (["sweep", "--config", CONTENTION, "--runs", "1", "--slots", "100",
      "--axis", "eta", "--values", "0.3", "0.6"], 0),
    (["analyze", "--ps", "0.3", "--deadline", "200000"], 0),
]
BENCH_SECONDS = 0.01  # every workload runs its minimum of rounds


def defined() -> dict[tuple[str, int], str]:
    """(source file, first line) -> `module.qualified.name` of every
    function and method in src/alarmmac. The first line is that of the
    first decorator, as the function's code object records it."""
    names: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                names[(path, min([child.lineno, *(d.lineno for d in child.decorator_list)]))] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), path.stem)
    return names


def run_traffic() -> tuple[set, list[str]]:
    """The code objects the traffic called, and what in it failed."""
    called: set = set()
    failures: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), tempfile.TemporaryDirectory() as tmp:
            for demo in sorted((ROOT / "demos").glob("0[1-5]_*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            # the README's `simulate`, cut to one short run
            write = (["simulate", "--config", CONTENTION, "--policy", "drl", "--runs", "1", "--slots", "100",
                      "--seed", "7", "--out", tmp], 0)
            for argv, expected in [*CLI_RUNS, write]:
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
                if status != expected:
                    failures.append(f"alarmmac {' '.join(argv)}: exit {status}, not {expected}")
            for name in workloads.SIM_WORKLOADS.keys() | {"oracles"}:
                for traced in (False, True):
                    out = workloads.run(name, 1, BENCH_SECONDS, traced)
                    if out.failed:
                        failures.append(f"bench {name} traced={traced}: {out.failed} failed")
    finally:
        sys.setprofile(None)
    return called, failures


def main() -> int:
    names = defined()
    called, failures = run_traffic()
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    unreached = sorted(name for (path, line), name in names.items() if (os.path.realpath(path), line) not in reached)

    print(f"{len(names)} functions and methods in src/alarmmac, {len(names) - len(unreached)} reached, "
          f"{len(unreached)} unreached")
    bad = list(failures)
    for name in unreached:
        if name in ALLOWLIST:
            print(f"  {name}: {ALLOWLIST[name][0]}")
        else:
            print(f"  {name}: NOT ALLOWED: only the tests call it")
            bad.append(f"{name} is reached by no caller outside the tests")
    bad += [f"allowlist entry {name} names no unreached function" for name in sorted(ALLOWLIST.keys() - set(unreached))]
    bench_source = BENCH_WORKLOADS.read_text()
    bad += [f"allowlist entry {name}: {text!r} no longer appears in bench/workloads.py"
            for name, (_, text) in sorted(ALLOWLIST.items()) if text not in bench_source]
    print("\n".join(bad) or "every unreached function is on the allowlist, and every allowlist entry is unreached "
                              "and read by bench/workloads.py")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
