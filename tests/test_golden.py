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

The digests hold with one BLAS thread, which tests/conftest.py pins. The
crowded DRL trace reads the Cholesky factor of the N = 150 shadowing
covariance, whose last bits depend on the OpenBLAS thread count.
"""

import hashlib
import struct

import numpy as np
import pytest

from alarmmac.config import config_from_dict
from alarmmac.engine import Simulation

CONTENTION = {
    "n_channels": 3,
    "alpha": 1.0,
    "eta": 0.06,
    "tx_threshold": 0.3,
    "activation_mode": "threshold_only",
    "deadline_slots": 2,
}

# name -> (config keys, slots)
SCENARIOS = {
    # the acceptance suite's contention scenario
    "contention": ({**CONTENTION, "n_subnets": 20}, 120),
    # the same, with agents greedy on their contexts from the first slot;
    # four hidden units, so that few networks are flat over the contexts
    "greedy": (
        {**CONTENTION, "n_subnets": 20, "epsilon_start": 0.1, "epsilon_floor": 0.1, "dnn_hidden_size": 4},
        120,
    ),
    # Bernoulli activation and long deadlines: idle slots between events
    "bernoulli": ({"n_subnets": 12, "n_channels": 2, "eta": 0.3, "alpha": 0.2}, 200),
    # crowded and fast: poses resample headings at walls and at each other;
    # a short activation range keeps active sets small enough to succeed
    "crowded": (
        {**CONTENTION, "n_subnets": 150, "speed_mps": 25.0, "eta": 0.6, "tx_threshold": 0.1},
        40,
    ),
}

GOLDEN = {
    ("contention", "rch"): "19a5e1ec5503ded570f7ae73accd1dbb4582680431bf6c666e9ca1895e2466a3",
    ("contention", "mapra"): "cb5d356b9ba8b3de6208fb3e41863d8f293e8efde0f5b73fedeef4ea51000ecc",
    ("contention", "drl"): "5d5bc7dbde3200e0c71055bbee5f37628aa74e2c3c59b5617f6efb3aead3a190",
    ("bernoulli", "rch"): "08daf6182eaca35a7db577f1cc4d120e7697d8722adc11e69818597b51f4ac32",
    ("bernoulli", "mapra"): "21c2cbaf6e400cb2fe404517acebd4016e44c7f4a2a08eee498e6dea554e83bc",
    ("bernoulli", "drl"): "d8d1a06d4a16b45caf61a3a8053a5a79ddde2f7f234806fd1b33ac993791c1a6",
    ("crowded", "rch"): "c67c4be2e821b54bf86fbffb6f0fc2bdb31ac4042de99c0368c16638eb8aa85c",
    ("crowded", "mapra"): "32d8fe0c5abde656865a2253d50b32d78a18fa537c100682673014b1113341e6",
    ("crowded", "drl"): "ca7d1fa4178f6af6ccae737fef32494e13e303cff8ee50fa8f9903c77d25fb23",
    ("greedy", "drl"): "f9aa8d720a22f8380e13e0f21823e561399475c649bb10726b1615c1ec0db26f",
}


def run_digest(scenario: str, policy: str, seed: int = 3) -> tuple[str, int]:
    """(digest, heading resamples) of one seeded run."""
    keys, slots = SCENARIOS[scenario]
    sim = Simulation(config_from_dict({**keys, "policy_kind": policy}), seed=seed)
    flags = []
    resamples = 0
    for _ in range(slots):
        before = sim.poses
        outcome = sim.run_slot()
        resamples += sum(a.heading != b.heading for a, b in zip(before, sim.poses))
        if outcome.age is not None:
            flags.append(outcome.success)
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
    if scenario == "crowded":
        assert resamples > 0  # the crowded scenario exercises the resample path
