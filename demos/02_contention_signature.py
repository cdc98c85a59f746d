"""The uplink pilot aggregate and the broadcast contention signature.

The controller hears the superposition of all active pilots; each agent then
receives that aggregate back through its own channel. The per-channel
magnitude of the received signature is the learning context, and its level
tracks how many agents are contending.
"""

import numpy as np

from alarmmac.channel import complex_gaussian
from alarmmac.signature import aggregate_pilots, broadcast_cs, contention_signatures, featurize

rng = np.random.default_rng(42)
M = 3
SNR = 10.0  # linear

print("=== signature power vs contention level ===")
print(f"{M} channels, linear SNR {SNR:.0f}, unit-power noise")
print("active agents | mean |aggregate|^2 per channel | mean context feature")
for k in (0, 1, 2, 4, 8, 16):
    agg_power, feat_mean = 0.0, 0.0
    trials = 2000
    for _ in range(trials):
        gains = complex_gaussian(rng, (k, M))
        noise = complex_gaussian(rng, (k + 1, M))  # the controller's, then each receiver's
        y = aggregate_pilots(gains, SNR, noise[0])
        cs = broadcast_cs(y, gains, SNR, noise[1:]) if k else np.zeros((1, M), dtype=complex)
        agg_power += float(np.mean(np.abs(y) ** 2))
        feat_mean += float(np.mean(featurize(cs)))
    print(f"{k:13d} | {agg_power / trials:31.2f} | {feat_mean / trials:.3f}")

print("\nthe aggregate grows like k * SNR + 1, so the broadcast signature is an")
print("implicit, zero-coordination announcement of the current contention level")

print("\n=== what one agent sees ===")
k = 4
gains = complex_gaussian(rng, (k, M))
cs = contention_signatures(gains, SNR, rng)
for n in range(k):
    feats = featurize(cs[n])
    print(f"agent {n}: |cs| = {np.round(np.abs(cs[n]), 2)}  context = {np.round(feats, 3)}")
print("\ncontexts differ per agent (own channel draw), stay in [0, 1), and keep")
print("their shape under any common phase rotation of the received signal")
