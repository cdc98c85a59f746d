"""Golden digests: a fixed (config, seed) must give a bit-identical trace.

Each digest is a sha256 over the event records, the success flag of every
contention slot and the MSE series, the fields that the benchmark's
per-run fingerprint covers. A change that alters any draw, any pose or any
floating-point result in the slot loop changes a digest. Such a change
must say so, measure the deviation and re-pin the digests in its own
commit; tests/epoch_statistics.py --check judges such a change.

greedy-drl guards the contention-signature path: its agents explore at
the floor rate from the start, so most of their actions are the argmax of
their networks over their contexts, and its networks have four hidden
units, so few of them are flat over the contexts. A one-ulp change of
`featurize`, up or down, moves its digest. contention-drl and crowded-drl read the contexts too, but
bernoulli-drl held when every noise sample of the signature changed: its 11
contention slots all explore, and its recorded MSE did not move.

full-replay-drl guards the minibatch draw from memories that hold at least
a minibatch: its replay capacity is 16 and its minibatch 8, so most of its
minibatches come from such memories, and all 20 memories reach capacity.
In the other DRL cases no memory fills to the minibatch size.

bouncing-drl guards a context reader's poses at the walls: in its 12 x 9 m
room some pose turns every few slots, and all 92 of its look-ahead blocks
end before their 32 slots.
Serving one row past a block's clean prefix, a turning pose's straight-line
position for one slot, moves its digest, though not crowded-drl's.
bouncing-rch runs the same room through the context-free catch-up.

The digests hold with one BLAS thread, which tests/conftest.py pins. The
crowded DRL trace reads the Cholesky factor of the N = 150 shadowing
covariance, whose last bits depend on the OpenBLAS thread count.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from alarmmac.config import ScenarioConfig
from alarmmac.engine import Simulation

from conftest import BOUNCING, CONTENTION

# name -> (config, slots); each run sets its own policy
SCENARIOS = {
    # the acceptance suite's contention scenario
    "contention": (CONTENTION, 120),
    # the same, with agents greedy on their contexts from the first slot;
    # four hidden units, so that few networks are flat over the contexts
    "greedy": (replace(CONTENTION, epsilon_start=0.1, epsilon_floor=0.1, dnn_hidden_size=4), 120),
    # Bernoulli activation and long deadlines: idle slots between events
    "bernoulli": (ScenarioConfig(n_subnets=12, n_channels=2, eta=0.3, alpha=0.2), 200),
    # crowded and fast: poses often resample their headings at the walls;
    # a short activation range keeps active sets small enough to succeed
    "crowded": (replace(CONTENTION, n_subnets=150, speed_mps=25.0, eta=0.6, tx_threshold=0.1), 40),
    # the contention scenario with short memories, which all fill
    "full-replay": (replace(CONTENTION, replay_capacity=16, minibatch_size=8), 120),
    # the contention scenario in a small fast room: some pose turns at a wall
    # every few slots, so a context reader's look-ahead blocks end early
    "bouncing": (replace(CONTENTION, **BOUNCING), 300),
}

GOLDEN = {
    ("contention", "rch"): "ddc9f6a0902f0608b06418779405d9de43100f97e6f26e7c7a21c497ffca6363",
    ("contention", "mapra"): "61e3ca9faee26878dc0e824062007f861b6aa18152ae42e395460ff662bca339",
    ("contention", "drl"): "e4ef53f94e3c95d0b9f623073175ff90c79db47fea6d63260e2a9ea9674f6d07",
    ("bernoulli", "rch"): "368038aa248d30548fea6c122bd3745a933629b380422eaf8b6de5d96820ba4f",
    ("bernoulli", "mapra"): "ab65016d8d4a3df7a31a52fa41f5e7884a5a699bdfb0d1c6a55c75fac7d96577",
    ("bernoulli", "drl"): "594b4ae37cd8307a809d5bd1691dc2e9b8c9c6e129d2c1a67071864ad5208574",
    ("crowded", "rch"): "bca95b12dffaf9a998a811382a55f13ef74bb60572d1b395f35f92cfa1a6a470",
    ("crowded", "mapra"): "ca29cfcf4d04809ea5f164063025faa05316fd0fd6393877ab473ab65157ec99",
    ("crowded", "drl"): "46863eaf9033be54a25248b655944b911aced4e9b954f7cbcd5fc3c4985d874d",
    ("greedy", "drl"): "067cf1495d99892b5ecf6873521d0d52eec03b7e94aea352eefff451077b2749",
    ("full-replay", "drl"): "615f2d7efb0c78463f3aef4364e40ca94ee07b4be528b0b7752151d19a4b8dac",
    ("bouncing", "rch"): "aa08290151792fb5cbed5b43ec19dffc189bea5860b31d4757a373c0c8b0954f",
    ("bouncing", "drl"): "59a59beb73e4e4dff911657640494ac65f9e168e882013f1272de27c025c4b32",
}


def run_digest(scenario: str, policy: str, reads: np.ndarray | None = None, seed: int = 3) -> tuple[str, int]:
    """(digest, heading resamples) of one seeded run. The run reads
    `sim.poses` before each slot that `reads` flags, by default before every
    slot, and once after its last; the resamples are the poses whose
    heading changed from one read to the next."""
    config, slots = SCENARIOS[scenario]
    sim = Simulation(replace(config, policy_kind=policy), seed=seed)
    flags, headings = [], [sim.poses["heading"]]  # a read before the first slot advances nothing
    for read in np.ones(slots, dtype=bool) if reads is None else reads:
        if read:
            headings.append(sim.poses["heading"])
        outcome = sim.run_slot()
        if outcome.age is not None:
            flags.append(outcome.success)
    headings.append(sim.poses["heading"])
    resamples = sum(np.count_nonzero(a != b) for a, b in zip(headings, headings[1:]))
    h = hashlib.sha256()
    for e in sim.trace.events:
        h.update(struct.pack("<qq?qq", e.birth_slot, e.end_slot, e.delivered, e.attempts, e.active_size))
    h.update(bytes(flags))
    h.update(np.asarray(sim.trace.mse, dtype="<f8").tobytes())
    return h.hexdigest(), resamples


@pytest.mark.parametrize("scenario,policy", sorted(GOLDEN))
def test_golden_digest(scenario, policy):
    digest, resamples = run_digest(scenario, policy)
    assert digest == GOLDEN[scenario, policy]
    if scenario in ("crowded", "bouncing"):
        assert resamples > 0  # these scenarios exercise the resample path


def test_statistics_record_names_its_commit_or_unknown(monkeypatch, tmp_path):
    import epoch_statistics

    # outside any git checkout the record says "unknown"
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.setattr(epoch_statistics, "HERE", tmp_path)
    assert epoch_statistics.commit() == "unknown"
    # and inside one, the short hash that git prints, without its newline
    done = epoch_statistics.subprocess.CompletedProcess([], 0, stdout="5170ff9\n", stderr="")
    monkeypatch.setattr(epoch_statistics.subprocess, "run", lambda *args, **kwargs: done)
    assert epoch_statistics.commit() == "5170ff9"


def test_statistics_compare_pairs_the_seeds_defined_on_both_sides():
    import epoch_statistics

    # seed 1 is None now and seed 3 was None: the row compares seeds 0 and 2
    recorded = {"run": {"mse": [1.0, 2.0, 5.0, None], "success": [0.5, 0.5, 0.6, 0.6]}}
    current = {"run": {"mse": [1.0, None, 5.0, 9.0], "success": [0.9, 0.9, 1.0, 1.0]}}
    kept, shifted = epoch_statistics.compare(recorded, current)
    assert kept == "ok   | run | mse | 3.0000 ± 2.0000 | 3.0000 ± 2.0000 | +0.0000 (bound 8.4853)"
    assert shifted.startswith("FAIL | run | success | 0.5500 ± 0.0289 | 0.9500 ± 0.0289 | +0.4000")


def test_statistics_compare_fails_a_row_with_fewer_than_two_paired_seeds():
    import epoch_statistics

    # rows with no, one and two seeds defined on both sides
    recorded = {"run": {"none": [None, 1.0], "one": [1.0, None], "two": [1.0, 3.0]}}
    current = {"run": {"none": [2.0, None], "one": [1.0, 2.0], "two": [1.0, 3.0]}}
    assert epoch_statistics.compare(recorded, current) == [
        "FAIL | run | none | 0 paired seeds, too few for a standard error",
        "FAIL | run | one | 1 paired seeds, too few for a standard error",
        "ok   | run | two | 2.0000 ± 1.0000 | 2.0000 ± 1.0000 | +0.0000 (bound 4.2426)",
    ]


def test_call_counts_repeat_exactly():
    import call_counts

    drl = dict(call_counts.RUNS["drl"][0], n_subnets=6)
    sparse = call_counts.RUNS["sparse_mapra"][0]
    for scenario, slots in ((drl, 10), (sparse, 200)):
        first, second = (call_counts.count(scenario, slots=slots) for _ in range(2))
        assert 0 < first.contention_slots <= first.slots == slots and first.python_calls > 0 and first.c_calls
        assert first == second
