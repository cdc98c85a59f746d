"""Demo digests: each demo under demos/ must print the same bytes.

Each digest is the sha256 of one demo's stdout, run as its own process
under `-W error` with one BLAS thread, as tests/conftest.py pins for the
golden digests. The demos print traces, oracle values, a learning curve
and a policy table, so a change that moves a draw or a floating-point
result anywhere they reach changes a digest. Like the golden digests, they
hold on the host they were pinned on; another numpy or BLAS build may
print other last digits.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_scenario_and_activation.py": "191c7ed005ec3be30dd990581c9836897c3d5635d4d9a8834fabc1a1d2fe49d3",
    "02_contention_signature.py": "a0d8d443d7f84f948afb5ff07cd9a92ed01bd83e43d4260e91d1149e8c314616",
    "03_exact_oracles.py": "37f9525be6d7cfa35219ec430a065d7ec7bfce3cc9dbadc5806eca745d864e63",
    "04_online_learning.py": "c95ea3026b1c96825952b6615d2b3faba3f0b858d0f118f41ebf835e3b10bbb7",
    "05_policy_comparison.py": "1bde169c1f2fbf1de76b69d5b9cdb89ab11f55160a139ee902bd7324a3099a13",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_prints_its_pinned_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env, cwd=ROOT, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo]
