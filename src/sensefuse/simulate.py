"""Monte Carlo validation of the closed forms.

:func:`sample_recovery` is the one forward model: it forms every node's
recovery from the source value.  Node k observes
``obs = theta + n_ob`` with total power ``s2 = sigma_theta^2 + sigma_ob^2``.
A coded node realizes its lossy compression through the backward Gaussian
test channel with target distortion ``sigma_qu^2 = s2 / (1 + g_ch)``,
sampled forward as

    x = (1 - beta) * obs + w,   beta = sigma_qu^2 / s2,
    w ~ N(0, sigma_qu^2 (1 - beta)),  independent per node.

This construction meets all three second-moment constraints of the test
channel: E[(obs - x)^2] = sigma_qu^2, x is uncorrelated with the
quantization noise, and the quantization noises of different nodes are
conditionally independent given the source.  An uncoded node amplifies
and forwards ``obs``; after de-gaining, ``x = obs + n`` with
``n ~ N(0, s2 / g_ch)``.  :func:`empirical_distortion` fuses these
recoveries with the BLUE weights.

Randomness comes from counter-based Philox streams spawned per fixed-size
chunk of 65,536 trials or blocks, so results are bit-reproducible from the
seed alone.  Since each chunk has its own stream, :func:`_map_chunks` runs
the chunks of one call at the same time: every chunk goes on the queue of
a thread pool with one helper per further available core, the helpers take
chunks from its front, and the calling thread runs, from the back, each
chunk no helper has started.  The estimators combine the per-chunk results
in chunk order, so every result is bit-identical to running the chunks
one after another.  The helpers live for one call only.

Within a chunk the array math runs on blocks of about ``_BLOCK_ITEMS``
items (:func:`_row_blocks`), laid out node-major: a block of n trials or
fading blocks is a C-contiguous (K, n) array, one row per node, so a
per-node coefficient or SNR is a (K, 1) column and numpy runs each loop
once per node, over n items.  A chunk in flight holds one float per trial
or fading block and a few block-sized arrays, however many nodes the
model has.  A trial chunk draws its source values first; then, block
after block, it draws the observation noise node after node, then the
route noise (:func:`sample_recovery` draws in the same order), and fuses
the block into the chunk's error vector.  A fading block draws its power
gains as ``nu`` times numpy's ziggurat ``standard_exponential``, so no
SIMD-dispatched transcendental enters the draws.

Every sum over the nodes (the fusion x.w and each per-node term of the
fading distortions) is numpy's ``sum(axis=0)``.  On a block of two or
more columns it adds the node rows to 0.0 one after another, in node
order, as plain IEEE adds; a one-column block, like the closed forms' 1-D
arrays, gets numpy's pairwise sum, which is the same as node order below
8 nodes.  Neither depends on the host's SIMD dispatch.  No BLAS product
enters the chain; the fusion weights come from the LAPACK Cholesky solve
of ``analytic.blue_weights``, whose last bits depend on the BLAS kernel.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import analytic
from .model import (
    CodingPolicy,
    SystemModel,
    ValidationError,
    _noise_powers,
    _require_count,
    _require_positive_finite,
    _require_seed,
    check_policy,
)

__all__ = [
    "TrialBatchStats",
    "FoldedNormalSpec",
    "folded_normal_mean",
    "folded_normal_location",
    "sample_recovery",
    "empirical_distortion",
    "fading_empirical_distortion",
    "generate_instance",
]

_CHUNK = 1 << 16
# floats of one node-major block of a chunk (256 KiB), so its temporaries
# stay small and in cache; a block's draws fill it node after node, so the
# block size is part of the stream layout and moves every Monte Carlo pin
_BLOCK_ITEMS = 1 << 15
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
    (a batch whose mean is still drifting with the sample size): it is False
    when the Hill estimate of the tail index on the top 1% of the samples is
    at most 1.5, and stays True for every finite-variance target.
    """

    n_trials: int
    mean_sq_error: float
    std_error: float
    seed: int
    converged: bool = True


def _philox(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _chunk_streams(seed: int, n_items: int) -> list:
    """Deterministic per-chunk ``(size, generator)`` pairs; chunking is a
    pure function of n_items so results cannot depend on scheduling."""
    _require_seed(seed)
    n_chunks = (n_items + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    return [(min(_CHUNK, n_items - i * _CHUNK), _philox(child))
            for i, child in enumerate(children)]


def _block_rows(n_nodes: int) -> int:
    return max(1, _BLOCK_ITEMS // n_nodes)


def _row_blocks(n_items: int, n_nodes: int):
    """Slices of consecutive items (trials or fading blocks), each of about
    ``_BLOCK_ITEMS`` floats once laid out node-major as (n_nodes, items)."""
    step = _block_rows(n_nodes)
    return (slice(start, min(start + step, n_items)) for start in range(0, n_items, step))


def _node_major_blocks(n_items: int, n_nodes: int, n_arrays: int):
    """``(items, arrays)`` for each slice of :func:`_row_blocks`:
    ``n_arrays`` C-contiguous (n_nodes, n) arrays for its n items, cut from
    one buffer that every block reuses.  Arrays made afresh per block would
    be handed back to the system at each block's end and paged in again at
    the next one: with glibc that doubled a fading call at K = 8 and 30."""
    buffer = np.empty(n_arrays * n_nodes * min(n_items, _block_rows(n_nodes)))
    for items in _row_blocks(n_items, n_nodes):
        size = n_arrays * n_nodes * (items.stop - items.start)
        yield items, buffer[:size].reshape(n_arrays, n_nodes, -1)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_chunks(fn, seed: int, n_items: int) -> list:
    """``fn(size, rng)`` of every chunk of :func:`_chunk_streams`, in chunk
    order.

    Every chunk is submitted to a pool of ``min(available CPUs, chunks) - 1``
    helper threads, which take chunks from the front of its queue, while the
    calling thread walks the chunks from the back and runs each one it can
    still cancel from the pool; a future cancels only before it starts, so
    each chunk runs exactly once.  A single chunk starts no thread.  The
    helpers belong to this call and are joined before it returns (a pool
    kept across calls would hang a forked child).  Every chunk runs in a
    copy of the caller's context, so a caller's ``np.errstate`` holds in
    every chunk.  An exception raised by any chunk is raised here, after the
    chunks not yet started are cancelled and the helpers have stopped.
    """
    calls = [functools.partial(contextvars.copy_context().run, fn, *chunk)
             for chunk in _chunk_streams(seed, n_items)]
    n_helpers = min(_available_cpus(), len(calls)) - 1
    if n_helpers < 1:
        return [call() for call in calls]
    pool = ThreadPoolExecutor(max_workers=n_helpers)
    try:
        futures = [pool.submit(call) for call in calls]
        ran_here = {}
        for i in reversed(range(len(calls))):
            if futures[i].cancel():
                ran_here[i] = calls[i]()
        return [ran_here[i] if i in ran_here else future.result()
                for i, future in enumerate(futures)]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# folded normal instance generation
# ---------------------------------------------------------------------------

def folded_normal_mean(mu: float, sigma: float) -> float:
    """Mean of |N(mu, sigma^2)|."""
    _require_positive_finite(sigma, "std_dev")
    return (sigma * math.sqrt(2.0 / math.pi) * math.exp(-mu * mu / (2.0 * sigma * sigma))
            + mu * math.erf(mu / (sigma * math.sqrt(2.0))))


def folded_normal_location(target_mean: float, std_dev: float) -> float:
    """Location mu >= 0 such that the folded normal mean hits target_mean.

    The folded mean is even in mu with minimum sigma sqrt(2/pi) at mu = 0
    and is strictly increasing for mu >= 0, so the root is bracketed on
    [0, target_mean + 10 sigma] whenever it exists.
    """
    _require_positive_finite(target_mean, "target_mean")
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
    distribution mean equals ``target_mean``.

    The spec is checked, and its ``location`` mu solved, once when it is
    made: a bad parameter or an unreachable mean raises there.
    """

    target_mean: float
    std_dev: float
    location: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "location",
                           folded_normal_location(self.target_mean, self.std_dev))


def generate_instance(n_nodes: int, ch_spec: FoldedNormalSpec,
                      ob_spec: FoldedNormalSpec, seed: int,
                      sigma_theta_sq: float = 1.0) -> SystemModel:
    """Random heterogeneous system: channel and observation SNRs drawn from
    calibrated folded normal distributions (all draws strictly positive)."""
    _require_count(n_nodes, "node count")
    _require_seed(seed)
    rng = _philox(np.random.SeedSequence(seed))
    gch = np.abs(ch_spec.location + ch_spec.std_dev * rng.standard_normal(n_nodes))
    gob = np.abs(ob_spec.location + ob_spec.std_dev * rng.standard_normal(n_nodes))
    return SystemModel.from_snrs(gob, gch, sigma_theta_sq=sigma_theta_sq)


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def _recovery_step(model: SystemModel, policy: CodingPolicy):
    """The forward model of a node-major block: ``recover(theta, obs, x,
    rng)`` draws the observation noise of the source values ``theta`` into
    ``obs``, node after node, then their route noise into ``x``, and forms
    both in place (``obs`` and ``x`` are C-contiguous, ``(K, len(theta))``).

    The coefficients sigma_ob, gain and noise scale are formed once, here,
    as (K, 1) columns.
    """
    st = model.sigma_theta_sq
    gch = model.gamma_ch_array()
    sigma_ob_sq, sigma_qu_sq = _noise_powers(st, model.gamma_ob_array(), gch)
    s2 = st + sigma_ob_sq
    beta = sigma_qu_sq / s2
    coded = np.array(check_policy(model, policy).rho, dtype=bool)
    sigma_ob = np.sqrt(sigma_ob_sq)[:, None]
    gain = np.where(coded, 1.0 - beta, 1.0)[:, None]
    noise_scale = np.where(coded, np.sqrt(sigma_qu_sq * (1.0 - beta)),
                           np.sqrt(s2 / gch))[:, None]

    def recover(theta, obs, x, rng):
        # scaled in place; IEEE sums and products commute, so the values
        # are those of theta + sigma_ob * n and gain * obs + noise_scale * z
        rng.standard_normal(out=obs)
        obs *= sigma_ob
        obs += theta
        rng.standard_normal(out=x)
        x *= noise_scale
        x += gain * obs

    return recover


def sample_recovery(theta, model: SystemModel, policy: CodingPolicy,
                    rng: np.random.Generator):
    """Sample every node's recovery x of source value(s) theta.

    Returns ``(x, obs)`` with nodes on the last axis, ``obs`` being the
    noisy observations.  Coded nodes go through the test channel and
    uncoded nodes through the de-gained amplify-and-forward route (see the
    module docstring).  The source values, flattened, are taken in the
    node-major blocks of the estimators (:func:`_row_blocks`): each block's
    observation noise is drawn node after node, then its route noise, then
    the next block's.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.reshape(-1)
    n_nodes = model.n_nodes
    recover = _recovery_step(model, policy)
    x, obs = np.empty((flat.size, n_nodes)), np.empty((flat.size, n_nodes))
    for items, (block_obs, block_x) in _node_major_blocks(flat.size, n_nodes, 2):
        recover(flat[items], block_obs, block_x, rng)
        x[items], obs[items] = block_x.T, block_obs.T
    shape = theta.shape + (n_nodes,)
    return x.reshape(shape), obs.reshape(shape)


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

    Per trial: draw theta, form each node's recovery with the forward
    model of :func:`sample_recovery`, fuse with the weights of the hybrid
    block covariance, and take the squared error.  A chunk draws all its
    theta first, then recovers and fuses one node-major block at a time,
    so it holds its theta, its errors and a few block-sized arrays, not a
    recovery per node and trial.  The chunks of trials run in parallel
    (:func:`_map_chunks`); their sums of squared errors and of their
    squares are added in chunk order, so the result is the same bit for
    bit on any number of cores.
    """
    _require_count(n_trials, "n_trials", 2)  # a standard error needs two
    # Cholesky weights, not the closed form's a - t b: that shares its
    # cancellation (gamma_ob 1e-150,5,3, gamma_ch 5,1e-100,3, policy 110:
    # exact D 0.4375, closed form 0.778, estimates 0.438 here, 0.772 by a - t b)
    weights = analytic.blue_weights(
        analytic.hybrid_noise_covariance(model, policy))[:, None]
    recover = _recovery_step(model, policy)
    scale = math.sqrt(model.sigma_theta_sq)

    def chunk_sums(size, rng):
        theta = rng.standard_normal(size)
        theta *= scale
        sq = np.empty(size)
        for items, (obs, x) in _node_major_blocks(size, model.n_nodes, 2):
            recover(theta[items], obs, x, rng)
            # the fused error x.w - theta, summed over the node rows, not by BLAS
            x *= weights
            np.subtract(x.sum(axis=0), theta[items], out=sq[items])
        # the squared error and its square in place
        sq *= sq
        total = float(sq.sum())
        sq *= sq
        return total, float(sq.sum())

    total = 0.0
    total_sq = 0.0
    for chunk_total, chunk_total_sq in _map_chunks(chunk_sums, seed, n_trials):
        total += chunk_total
        total_sq += chunk_total_sq
    return _batch_stats(n_trials, total, total_sq, seed)


def fading_empirical_distortion(model: SystemModel, nu: float, n_blocks: int,
                                seed: int, scheme: str = "coded",
                                shared_gain: bool = False) -> TrialBatchStats:
    """Block Rayleigh fading: per block draw exponential power gains (mean
    nu), scale the channel SNRs, evaluate the instantaneous analytic
    distortion, and average.

    By default each node fades independently per block, which is the model
    behind the heterogeneous fading curves.  ``shared_gain`` applies one
    gain per block to every node; that is the average the homogeneous
    closed form :func:`analytic.fading_coded_homo_distortion` computes (the
    homogeneous instantaneous distortion presumes a system-wide channel
    SNR), so only the shared mode reproduces it for K > 1.

    A chunk takes its blocks node-major (see the module docstring): per
    slice of :func:`_row_blocks` it draws ``nu`` times numpy's
    ``standard_exponential``, one gain per node and block (node after node)
    or one per block, and multiplies the (K, 1) column of channel SNRs by
    them.  The chunks of blocks run in parallel (:func:`_map_chunks`) and
    their per-block distortions are joined in chunk order, so the result is
    the same bit for bit on any number of cores.  The uncoded scheme has no
    finite average (instantaneous distortion scales like 1/h near h = 0),
    which the ``converged`` flag reports.
    """
    _require_positive_finite(nu, "fading mean")
    if scheme not in ("coded", "uncoded"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    _require_count(n_blocks, "n_blocks")
    n_nodes = model.n_nodes
    gob = model.gamma_ob_array()[:, None]
    gch = model.gamma_ch_array()[:, None]
    instant = (analytic._coded_distortions if scheme == "coded"
               else analytic._uncoded_distortions)

    def chunk_values(size, rng):
        values = np.empty(size)
        for items, (h,) in _node_major_blocks(size, n_nodes, 1):
            # the faded channel SNRs nu * e * gch, formed in place
            if shared_gain:
                e = rng.standard_exponential(items.stop - items.start)
                e *= nu
                np.multiply(e, gch, out=h)
            else:
                rng.standard_exponential(out=h)
                h *= nu
                h *= gch
            values[items] = instant(gob, h, model.sigma_theta_sq)
        return values

    values = np.concatenate(_map_chunks(chunk_values, seed, n_blocks))
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
    # the top k + 1 values, sorted; only those are ordered
    top = np.sort(np.partition(values, n - (k + 1))[-(k + 1):])
    pivot = top[0]
    if pivot <= 0:
        return True
    log_excess = float(np.log(top[1:] / pivot).sum())
    if log_excess <= 0:
        return True
    return k / log_excess > _TAIL_INDEX_FLOOR
