"""Monte Carlo validation of the closed forms.

The lossy-compression step of the coded scheme is realized through the
backward Gaussian test channel: given the noisy observation
``obs = theta + n_ob`` with total power ``s2 = sigma_theta^2 + sigma_ob^2``
and target distortion ``sigma_qu^2``, the recovery is sampled forward as

    x = (1 - beta) * obs + w,   beta = sigma_qu^2 / s2,
    w ~ N(0, sigma_qu^2 (1 - beta)),  independent per node.

This construction meets all three second-moment constraints of the test
channel: E[(obs - x)^2] = sigma_qu^2, x is uncorrelated with the
quantization noise, and the quantization noises of different nodes are
conditionally independent given the source.

Randomness comes from counter-based Philox streams spawned per fixed-size
chunk, so results are bit-reproducible from the seed alone and chunks form
independent streams that could be consumed in any partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize
import scipy.special

from . import analytic
from .model import (
    CodingPolicy,
    SensorLink,
    SystemModel,
    ValidationError,
    check_policy,
    validate,
)

__all__ = [
    "TrialBatchStats",
    "FoldedNormalSpec",
    "folded_normal_mean",
    "folded_normal_location",
    "sample_coded_recovery",
    "sample_uncoded_observation",
    "empirical_distortion",
    "fading_empirical_distortion",
    "generate_instance",
]

_CHUNK = 1 << 16
# Hill tail-index threshold: a sample mean converges only when the tail
# index exceeds 1; the divergent fading case sits exactly at 1 while every
# bounded per-block distortion yields a large estimate
_TAIL_INDEX_FLOOR = 1.5
_TAIL_MIN_SAMPLES = 100


@dataclass(frozen=True)
class TrialBatchStats:
    """Sample statistics of one Monte Carlo batch.

    ``std_error`` is the sample standard deviation of the per-trial values
    divided by sqrt(n_trials).  ``converged`` flags heavy-tail domination
    (a batch whose mean is still drifting with the sample size); it is the
    top-1%-share heuristic and stays True for every finite-variance target.
    """

    n_trials: int
    mean_sq_error: float
    std_error: float
    seed: int
    converged: bool = True


def _philox(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _chunk_streams(seed: int, n_items: int):
    """Deterministic per-chunk generators; chunking is a pure function of
    n_items so results cannot depend on scheduling."""
    n_chunks = (n_items + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for i, child in enumerate(children):
        size = min(_CHUNK, n_items - i * _CHUNK)
        yield size, _philox(child)


# ---------------------------------------------------------------------------
# folded normal instance generation
# ---------------------------------------------------------------------------

def folded_normal_mean(mu: float, sigma: float) -> float:
    """Mean of |N(mu, sigma^2)|."""
    if sigma <= 0:
        raise ValidationError(f"nonpositive std_dev: {sigma!r}")
    return (sigma * math.sqrt(2.0 / math.pi) * math.exp(-mu * mu / (2.0 * sigma * sigma))
            + mu * math.erf(mu / (sigma * math.sqrt(2.0))))


def folded_normal_location(target_mean: float, std_dev: float) -> float:
    """Location mu >= 0 such that the folded normal mean hits target_mean.

    The folded mean is even in mu with minimum sigma sqrt(2/pi) at mu = 0
    and is strictly increasing for mu >= 0, so the root is bracketed on
    [0, target_mean + 10 sigma] whenever it exists.
    """
    if target_mean <= 0:
        raise ValidationError(f"nonpositive target_mean: {target_mean!r}")
    floor = folded_normal_mean(0.0, std_dev)
    if target_mean < floor * (1.0 - 1e-12):
        raise ValidationError(
            f"target mean {target_mean} unreachable: folded normal with "
            f"std_dev {std_dev} has mean >= {floor:.6g}")
    if target_mean <= floor:
        return 0.0
    hi = target_mean + 10.0 * std_dev
    mu = scipy.optimize.brentq(
        lambda m: folded_normal_mean(m, std_dev) - target_mean, 0.0, hi,
        xtol=1e-13, rtol=8.9e-16)
    return float(mu)


@dataclass(frozen=True)
class FoldedNormalSpec:
    """Folded normal |N(mu, std_dev^2)| with mu calibrated so the
    distribution mean equals ``target_mean``."""

    target_mean: float
    std_dev: float

    def location(self) -> float:
        return folded_normal_location(self.target_mean, self.std_dev)


def generate_instance(n_nodes: int, ch_spec: FoldedNormalSpec,
                      ob_spec: FoldedNormalSpec, seed: int,
                      sigma_theta_sq: float = 1.0) -> SystemModel:
    """Random heterogeneous system: channel and observation SNRs drawn from
    calibrated folded normal distributions (all draws strictly positive)."""
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    rng = _philox(np.random.SeedSequence(seed))
    mu_ch = ch_spec.location()
    mu_ob = ob_spec.location()
    gch = np.abs(mu_ch + ch_spec.std_dev * rng.standard_normal(n_nodes))
    gob = np.abs(mu_ob + ob_spec.std_dev * rng.standard_normal(n_nodes))
    return SystemModel.from_snrs(gob, gch, sigma_theta_sq=sigma_theta_sq)


# ---------------------------------------------------------------------------
# per-node samplers
# ---------------------------------------------------------------------------

def sample_coded_recovery(theta, link: SensorLink, sigma_theta_sq: float,
                          rng: np.random.Generator, return_observation: bool = False):
    """Sample the coded-route recovery x for source value(s) theta.

    Draws the noisy observation internally; pass ``return_observation`` to
    also get it back (the tests reconstruct the quantization noise from it).
    """
    theta = np.asarray(theta, dtype=float)
    sigma_ob_sq = sigma_theta_sq / link.gamma_ob
    sigma_qu_sq = (sigma_theta_sq + sigma_ob_sq) / (1.0 + link.gamma_ch)
    s2 = sigma_theta_sq + sigma_ob_sq
    beta = sigma_qu_sq / s2
    obs = theta + math.sqrt(sigma_ob_sq) * rng.standard_normal(theta.shape)
    w = math.sqrt(sigma_qu_sq * (1.0 - beta)) * rng.standard_normal(theta.shape)
    x = (1.0 - beta) * obs + w
    if return_observation:
        return x, obs
    return x


def sample_uncoded_observation(theta, link: SensorLink, sigma_theta_sq: float,
                               rng: np.random.Generator,
                               return_observation: bool = False):
    """Sample the amplify-and-forward route: received y = sqrt(alpha) obs +
    n_ch and its de-gained estimate y / sqrt(alpha).

    Uses unit channel noise power, so the transmit power is gamma_ch; the
    de-gained noise variance is sigma_ob^2 + sigma_ch^2/alpha =
    sigma_theta^2 (1/g_ob + 1/g_ch + 1/(g_ob g_ch)).
    """
    theta = np.asarray(theta, dtype=float)
    sigma_ob_sq = sigma_theta_sq / link.gamma_ob
    sigma_ch_sq = 1.0
    power = link.gamma_ch * sigma_ch_sq
    alpha = analytic.amplifier_gain(power, sigma_theta_sq, sigma_ob_sq)
    obs = theta + math.sqrt(sigma_ob_sq) * rng.standard_normal(theta.shape)
    n_ch = math.sqrt(sigma_ch_sq) * rng.standard_normal(theta.shape)
    y = math.sqrt(alpha) * obs + n_ch
    degained = y / math.sqrt(alpha)
    if return_observation:
        return y, degained, obs
    return y, degained


# ---------------------------------------------------------------------------
# batch estimators
# ---------------------------------------------------------------------------

def _batch_stats(n: int, total: float, total_sq: float, seed: int,
                 converged: bool = True) -> TrialBatchStats:
    mean = total / n
    var = max(total_sq - total * total / n, 0.0) / max(n - 1, 1)
    return TrialBatchStats(n_trials=n, mean_sq_error=mean,
                           std_error=math.sqrt(var / n), seed=seed,
                           converged=converged)


def empirical_distortion(model: SystemModel, policy: CodingPolicy,
                         n_trials: int, seed: int) -> TrialBatchStats:
    """Simulate the full chain and fuse with the analytic BLUE weights.

    Per trial: draw theta, form each node's recovery according to its
    scheme, fuse with the weights of the hybrid block covariance, and
    accumulate the squared error.
    """
    validate(model)
    check_policy(model, policy)
    if n_trials < 2:
        raise ValidationError(
            f"n_trials must be >= 2 for a standard error, got {n_trials}")
    st = model.sigma_theta_sq
    k = model.n_nodes
    weights = analytic.blue_weights(analytic.hybrid_noise_covariance(model, policy))

    sigma_ob = np.sqrt(st / model.gamma_ob_array())
    s2 = st + sigma_ob ** 2
    sigma_qu_sq = s2 / (1.0 + model.gamma_ch_array())
    beta = sigma_qu_sq / s2
    coded = np.array(policy.rho, dtype=bool)
    # coded route: x = (1-beta) obs + w; uncoded route: x = obs + scaled noise
    gain = np.where(coded, 1.0 - beta, 1.0)
    noise_scale = np.where(coded, np.sqrt(sigma_qu_sq * (1.0 - beta)),
                           np.sqrt(s2 / model.gamma_ch_array()))

    total = 0.0
    total_sq = 0.0
    for size, rng in _chunk_streams(seed, n_trials):
        theta = math.sqrt(st) * rng.standard_normal(size)
        obs = theta[:, None] + sigma_ob[None, :] * rng.standard_normal((size, k))
        z = rng.standard_normal((size, k))
        x = gain[None, :] * obs + noise_scale[None, :] * z
        err = x @ weights - theta
        sq = err * err
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
    return _batch_stats(n_trials, total, total_sq, seed)


def fading_empirical_distortion(model: SystemModel, nu: float, n_blocks: int,
                                seed: int, scheme: str = "coded",
                                shared_gain: bool = False) -> TrialBatchStats:
    """Block Rayleigh fading: per block draw exponential power gains
    (inverse-CDF transform, mean nu), scale the channel SNRs, evaluate the
    instantaneous analytic distortion, and average.

    By default each node fades independently per block, which is the model
    behind the heterogeneous fading curves.  ``shared_gain`` applies one
    gain per block to every node; that is the average the homogeneous
    closed form :func:`analytic.fading_coded_homo_distortion` computes (the
    homogeneous instantaneous distortion presumes a system-wide channel
    SNR), so only the shared mode reproduces it for K > 1.

    The uncoded scheme has no finite average (instantaneous distortion
    scales like 1/h near h = 0), which the ``converged`` flag reports.
    """
    validate(model)
    if not nu > 0:
        raise ValidationError(f"nonpositive fading mean: {nu!r}")
    if scheme not in ("coded", "uncoded"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    if n_blocks < 1:
        raise ValidationError(f"n_blocks must be >= 1, got {n_blocks}")
    gob = model.gamma_ob_array()
    gch = model.gamma_ch_array()
    instant = (analytic._coded_distortion_rows if scheme == "coded"
               else analytic._uncoded_distortion_rows)

    values = np.empty(n_blocks)
    pos = 0
    for size, rng in _chunk_streams(seed, n_blocks):
        if shared_gain:
            h = -nu * np.log1p(-rng.random((size, 1)))
        else:
            h = -nu * np.log1p(-rng.random((size, model.n_nodes)))
        # one row of faded channel SNRs per block; the observation SNRs broadcast
        values[pos:pos + size] = instant(gob, h * gch[None, :], model.sigma_theta_sq)
        pos += size

    total = float(values.sum())
    total_sq = float((values * values).sum())
    return _batch_stats(n_blocks, total, total_sq, seed,
                        converged=_tail_index_converged(values))


def _tail_index_converged(values: np.ndarray) -> bool:
    """Hill estimate of the upper tail index on the top 1% of samples."""
    n = len(values)
    if n < _TAIL_MIN_SAMPLES:
        return True
    k = max(10, n // 100)
    top = np.sort(values)[-(k + 1):]
    pivot = top[0]
    if pivot <= 0:
        return True
    log_excess = float(np.log(top[1:] / pivot).sum())
    if log_excess <= 0:
        return True
    return k / log_excess > _TAIL_INDEX_FLOOR
