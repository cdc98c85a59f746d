"""alarmmac benchmark: four fixed-work workloads, end-to-end metrics and a
traced per-layer breakdown.

Run from the root of a repository checkout:

    python3 bench/run.py --workload train_drl --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: train_drl, dense_rch, sparse_mapra and oracles (see
BENCHMARK.json for why each was chosen); ``all`` runs each in its own
process. With ``--trace 0`` a run reports every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it reports every per-layer metric, from a
traced run whose wrappers time every call into alarmmac's layer modules (0
for a layer the workload never calls).

A run prints its per-run behaviour fingerprints, a host reference timing and
one line per metric, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. It exits non-zero,
without that line, when the alarmmac sources are missing, a workload cannot
run at all or its metrics differ from those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_drl", "dense_rch", "sparse_mapra", "oracles")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def manifest_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for a run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def run_one(args: argparse.Namespace) -> int:
    # one BLAS thread, set before numpy loads, so the N = 300 Cholesky does
    # not contend with the simulation for the host's cores
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "alarmmac" / "__init__.py").is_file():
        print(f"alarmmac sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    declared = manifest_metrics(bool(args.trace))
    unknown = sorted(set(out.metrics) - set(declared))
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 3
    if args.trace:
        # a layer this workload never calls did no work: its per-layer figures are 0
        out.metrics = {name: out.metrics.get(name, (0.0, unit)) for name, unit in declared.items()}
    elif set(out.metrics) != set(declared):
        print(f"end-to-end metrics not measured: {sorted(set(declared) - set(out.metrics))}", file=sys.stderr)
        return 3
    for line in out.lines:
        print(line)
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} = {value} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()}
    print(result_line(out.failed == 0, out.attempted, out.failed, metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak_rss_mb belongs to it alone."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])

    print(f"\n{'workload':<14}{'metric':<48}{'value':>16}  unit")
    merged = {}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<14}{metric:<48}{m['value']:>16.6g}  {m['unit']}")
            merged[f"{name}.{metric}"] = m
        print(f"{name:<14}{'operations failed / attempted':<48}{res['failed']:>8} / {res['attempted']}")
    print(result_line(
        all(r["correct"] for r in results.values()),
        sum(r["attempted"] for r in results.values()),
        sum(r["failed"] for r in results.values()),
        merged,
    ))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
