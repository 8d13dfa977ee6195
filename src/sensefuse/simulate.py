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

Within a chunk the array math runs on blocks of rows of about
``_BLOCK_ITEMS`` items (:func:`_row_blocks`), so a chunk in flight holds
one float per trial or fading block and a few block-sized arrays, however
many nodes the model has.  A trial chunk draws its source values first;
then, block after block, it draws the observation noise, then the route
noise (:func:`sample_recovery` draws in the same order), and fuses the
block into the chunk's error vector.  A traced 65,536-trial call peaks at
2.8 MiB at K = 8, 64 and 256 alike.  A row of per-node coefficients or
SNRs enters the blocks in the block's shape (:func:`_block_shaped`):
broadcast as one row, it would make numpy run its loop once per row.

The sums over the nodes of a block (the fusion x.w and each per-node term
of the fading distortions) go through ``analytic._node_sum``.  Below 22
nodes it adds the node columns in numpy's own pairwise order, as plain
IEEE adds: that equals numpy's row sum bit for bit, gives the same bits on
every host, and is faster, as numpy's reduction runs its loop once per row
(over 32,768 items: 23 against 249 us at K=2 and against 80 us at K=8).
From 22 nodes on it is numpy's row sum.  No BLAS product enters the chain;
the fusion weights come from the LAPACK Cholesky solve of
``analytic.blue_weights``, whose last bits depend on the BLAS kernel.
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
# items of a chunk's arrays taken at once by the row-wise steps (256 KiB of
# floats): successive draws continue one stream and each row's result
# depends on that row only, so the values equal those of the whole chunk
# at once, with temporaries that stay small and in cache
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


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK_ITEMS // n_cols)


def _row_blocks(n_rows: int, n_cols: int):
    """Slices of consecutive rows, about ``_BLOCK_ITEMS`` items each."""
    step = _block_rows(n_cols)
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def _block_shaped(row: np.ndarray, n_rows: int) -> np.ndarray:
    """``row`` repeated down the largest of the :func:`_row_blocks` of an
    ``n_rows``-row array, for its blocks to slice.  numpy runs its loop
    once per row when a (rows, K) array meets a (K,) operand, but once per
    block when both have the block's shape: 10 against 113 us for a
    product over 16,384 rows of 2 nodes."""
    return np.tile(row, (min(n_rows, _block_rows(len(row))), 1))


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
    rng = _philox(np.random.SeedSequence(seed))
    gch = np.abs(ch_spec.location + ch_spec.std_dev * rng.standard_normal(n_nodes))
    gob = np.abs(ob_spec.location + ob_spec.std_dev * rng.standard_normal(n_nodes))
    return SystemModel.from_snrs(gob, gch, sigma_theta_sq=sigma_theta_sq)


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def _recovery_step(model: SystemModel, policy: CodingPolicy, n_rows: int):
    """The forward model of a block of rows: ``recover(theta, obs, x, rng)``
    draws the observation noise of the source values ``theta`` into
    ``obs``, then their route noise into ``x``, and forms both in place
    (``obs`` and ``x`` are C-contiguous, ``(len(theta), K)``).

    The coefficients sigma_ob, gain and noise scale are formed once, here,
    block-shaped (:func:`_block_shaped`) for the row blocks of an
    ``n_rows``-row array.
    """
    st = model.sigma_theta_sq
    gch = model.gamma_ch_array()
    sigma_ob_sq, sigma_qu_sq = _noise_powers(st, model.gamma_ob_array(), gch)
    s2 = st + sigma_ob_sq
    beta = sigma_qu_sq / s2
    coded = np.array(check_policy(model, policy).rho, dtype=bool)
    sigma_ob = _block_shaped(np.sqrt(sigma_ob_sq), n_rows)
    gain = _block_shaped(np.where(coded, 1.0 - beta, 1.0), n_rows)
    noise_scale = _block_shaped(
        np.where(coded, np.sqrt(sigma_qu_sq * (1.0 - beta)), np.sqrt(s2 / gch)), n_rows)

    def recover(theta, obs, x, rng):
        # scaled in place; IEEE sums and products commute, so the values
        # are those of theta + sigma_ob * n and gain * obs + noise_scale * z
        n = len(theta)
        rng.standard_normal(out=obs)
        obs *= sigma_ob[:n]
        obs += theta[:, None]
        rng.standard_normal(out=x)
        x *= noise_scale[:n]
        x += gain[:n] * obs

    return recover


def sample_recovery(theta, model: SystemModel, policy: CodingPolicy,
                    rng: np.random.Generator):
    """Sample every node's recovery x of source value(s) theta.

    Returns ``(x, obs)`` with nodes on the last axis, ``obs`` being the
    noisy observations.  Coded nodes go through the test channel and
    uncoded nodes through the de-gained amplify-and-forward route (see the
    module docstring).  The source values, flattened, are taken in row
    blocks of about ``_BLOCK_ITEMS`` draws (:func:`_row_blocks`): each
    block's observation noise is drawn, then its route noise, then the
    next block's.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.reshape(-1)
    shape = (flat.size, model.n_nodes)
    recover = _recovery_step(model, policy, flat.size)
    x, obs = np.empty(shape), np.empty(shape)
    for rows in _row_blocks(*shape):
        recover(flat[rows], obs[rows], x[rows], rng)
    shape = theta.shape + (model.n_nodes,)
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
    theta first, then recovers and fuses one row block at a time, so it
    holds its theta, its errors and a few block-sized arrays, not a
    recovery per node and trial.  The chunks of trials run in parallel
    (:func:`_map_chunks`); their sums of squared errors and of their
    squares are added in chunk order, so the result is the same bit for
    bit on any number of cores.
    """
    _require_count(n_trials, "n_trials", 2)  # a standard error needs two
    # Cholesky weights, not the closed form's a - t b: that shares its
    # cancellation (gamma_ob 1e-150,5,3, gamma_ch 5,1e-100,3, policy 110:
    # exact D 0.4375, closed form 0.778, estimates 0.438 here, 0.772 by a - t b)
    weights = _block_shaped(
        analytic.blue_weights(analytic.hybrid_noise_covariance(model, policy)), n_trials)
    recover = _recovery_step(model, policy, n_trials)
    scale = math.sqrt(model.sigma_theta_sq)

    def chunk_sums(size, rng):
        theta = rng.standard_normal(size)
        theta *= scale
        obs, x = np.empty(weights.shape), np.empty(weights.shape)
        sq = np.empty(size)
        for rows in _row_blocks(size, model.n_nodes):
            n = rows.stop - rows.start
            x_rows = x[:n]
            recover(theta[rows], obs[:n], x_rows, rng)
            # the fused error x.w - theta, summed by the node sum, not by BLAS
            x_rows *= weights[:n]
            np.subtract(analytic._node_sum(x_rows), theta[rows], out=sq[rows])
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
    """Block Rayleigh fading: per block draw exponential power gains
    (inverse-CDF transform, mean nu), scale the channel SNRs, evaluate the
    instantaneous analytic distortion, and average.

    By default each node fades independently per block, which is the model
    behind the heterogeneous fading curves.  ``shared_gain`` applies one
    gain per block to every node; that is the average the homogeneous
    closed form :func:`analytic.fading_coded_homo_distortion` computes (the
    homogeneous instantaneous distortion presumes a system-wide channel
    SNR), so only the shared mode reproduces it for K > 1.

    The chunks of blocks run in parallel (:func:`_map_chunks`) and their
    per-block distortions are joined in chunk order, so the result is the
    same bit for bit on any number of cores.  The uncoded scheme has no
    finite average (instantaneous distortion scales like 1/h near h = 0),
    which the ``converged`` flag reports.
    """
    _require_positive_finite(nu, "fading mean")
    if scheme not in ("coded", "uncoded"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    _require_count(n_blocks, "n_blocks")
    n_nodes = model.n_nodes
    gob = _block_shaped(model.gamma_ob_array(), n_blocks)
    gch = _block_shaped(model.gamma_ch_array(), n_blocks)
    instant = (analytic._coded_distortion_rows if scheme == "coded"
               else analytic._uncoded_distortion_rows)

    def chunk_values(size, rng):
        values = np.empty(size)
        for rows in _row_blocks(size, n_nodes):
            n = rows.stop - rows.start
            # one row of faded channel SNRs per block, formed in place as
            # -nu * log1p(-u) * gch
            h = rng.random((n, 1 if shared_gain else n_nodes))
            np.negative(h, out=h)
            np.log1p(h, out=h)
            h *= -nu
            if shared_gain:
                # one product per node column: the (rows, 1) gains times
                # the SNRs would run numpy's loop once per row (98,304
                # blocks on 1 CPU: 11.8 against 21.3 ms at K=8, 122 against
                # 214 ms at K=100)
                faded = np.empty((n, n_nodes))
                for k in range(n_nodes):
                    np.multiply(h[:, 0], gch[0, k], out=faded[:, k])
                h = faded
            else:
                h *= gch[:n]
            values[rows] = instant(gob[:n], h, model.sigma_theta_sq)
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
