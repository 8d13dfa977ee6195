#!/usr/bin/env python3
"""End-to-end Monte Carlo validation of the analytic machinery.

Simulates the Gaussian test channel (coded route) and amplify-and-forward
(uncoded route), fuses with BLUE weights, and checks the sample statistics
against the covariance construction and the hybrid closed form.
"""

import math

import numpy as np

from sensefuse import analytic as an
from sensefuse import simulate as sim
from sensefuse.model import CodingPolicy, SystemModel

rng = np.random.Generator(np.random.Philox(2024))
model = SystemModel.from_snrs(gamma_ob=[7.0, 3.0, 12.0], gamma_ch=[5.0, 8.0, 2.0])
N = 500_000

print("=== Test-channel second moments (node 0) ===")
link = model.links[0]
st = model.sigma_theta_sq
theta = rng.standard_normal(N) * math.sqrt(st)
x, obs = sim.sample_coded_recovery(theta, link, st, rng, return_observation=True)
sigma_ob_sq = st / link.gamma_ob
sigma_qu_sq = (st + sigma_ob_sq) / (1.0 + link.gamma_ch)
cross_ob, cross_th = an.quantization_cross_moments(st, sigma_ob_sq, sigma_qu_sq)
n_qu = obs - x
print(f"E[(obs-x)^2] : sample {np.mean((obs - x) ** 2):.6f}  target {sigma_qu_sq:.6f}")
print(f"E[x n_qu]    : sample {np.mean(x * n_qu):+.6f}  target +0")
print(f"E[n_qu n_ob] : sample {np.mean(n_qu * (obs - theta)):.6f}  "
      f"target {cross_ob:.6f}")
print(f"E[n_qu theta]: sample {np.mean(n_qu * theta):.6f}  target {cross_th:.6f}")

print()
print("=== Total-noise covariance, all-coded system ===")
noise = np.empty((N, model.n_nodes))
theta = rng.standard_normal(N) * math.sqrt(st)
for k, lk in enumerate(model.links):
    noise[:, k] = theta - sim.sample_coded_recovery(theta, lk, st, rng)
print("sample:")
print(np.round(noise.T @ noise / N, 5))
print("analytic:")
print(np.round(an.total_noise_covariance(model), 5))

print()
print("=== Hybrid distortion vs simulation ===")
print(f"{'policy':>8} {'analytic':>10} {'empirical':>10} {'z':>6}")
for bits in ((1, 1, 1), (0, 0, 0), (1, 0, 1), (0, 1, 0)):
    policy = CodingPolicy(bits)
    expected = an.hybrid_distortion(model, policy).total
    stats = sim.empirical_distortion(model, policy, N, seed=7)
    z = (stats.mean_sq_error - expected) / stats.std_error
    print(f"{policy.as_bits():>8} {expected:>10.6f} {stats.mean_sq_error:>10.6f} "
          f"{z:>+6.2f}")

print()
print("=== BLUE weights sanity ===")
cov = an.total_noise_covariance(model)
weights = an.blue_weights(cov)
print("weights:", np.round(weights, 5), " sum:", weights.sum())
print(f"plug-in MSE {float(weights @ cov @ weights):.6f} == "
      f"BLUE distortion {an.blue_distortion(cov):.6f}")
