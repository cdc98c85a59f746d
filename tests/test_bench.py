"""The benchmark harness under bench/ imports and binds names of the
library's layer modules; a change that removes one fails here, not only in
every benchmark run."""

from pathlib import Path

from alarmmac import learning

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_harness_imports_and_wraps_the_layer_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    original = learning.backward_stacked
    patch = tracer.install(tracer.Tracer(), workloads.HOOKS)
    try:
        assert learning.backward_stacked is not original
    finally:
        patch.apply(False)
    assert learning.backward_stacked is original
