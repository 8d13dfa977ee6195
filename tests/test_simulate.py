import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from sensefuse import analytic as an
from sensefuse import simulate as sim
from sensefuse.model import CodingPolicy, SystemModel, ValidationError

from conftest import random_instance


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _one_node(gamma_ob, gamma_ch, bit, theta, seed, st=1.0):
    """(x, obs) of a single node through :func:`simulate.sample_recovery`."""
    m = SystemModel.from_snrs([gamma_ob], [gamma_ch], sigma_theta_sq=st)
    x, obs = sim.sample_recovery(theta, m, CodingPolicy((bit,)), _rng(seed))
    return x[..., 0], obs[..., 0]


# ---------------------------------------------------------------------------
# test channel (coded route)
# ---------------------------------------------------------------------------

def test_coded_recovery_lossless_limit():
    theta = _rng(0).standard_normal(1000)
    x, obs = _one_node(2.0, 1e14, 1, theta, 1)
    np.testing.assert_allclose(x, obs, atol=1e-6)


def test_coded_recovery_quantization_power():
    gob, gch, st = 7.0, 5.0, 1.0
    sigma_qu_sq = (st + st / gob) / (1.0 + gch)
    n = 1_000_000
    theta = _rng(2).standard_normal(n) * math.sqrt(st)
    x, obs = _one_node(gob, gch, 1, theta, 3, st)
    emp = np.mean((obs - x) ** 2)
    se = sigma_qu_sq * math.sqrt(2.0 / n)  # chi-square variance of squares
    assert abs(emp - sigma_qu_sq) < 3 * se


def test_coded_recovery_is_uncorrelated_with_quantization_noise():
    n = 1_000_000
    theta = _rng(4).standard_normal(n)
    x, obs = _one_node(3.0, 2.0, 1, theta, 5)
    n_qu = obs - x
    corr = np.mean(x * n_qu)
    se = math.sqrt(np.var(x) * np.var(n_qu) / n)
    assert abs(corr) < 3 * se


def test_coded_recovery_cross_moments_match_closed_form():
    gob, gch, st = 7.0, 5.0, 1.0
    sigma_ob_sq = st / gob
    sigma_qu_sq = (st + sigma_ob_sq) / (1.0 + gch)
    want_ob, want_th = an.quantization_cross_moments(st, sigma_ob_sq, sigma_qu_sq)
    n = 1_000_000
    theta = _rng(6).standard_normal(n) * math.sqrt(st)
    x, obs = _one_node(gob, gch, 1, theta, 7, st)
    n_qu, n_ob = obs - x, obs - theta
    se_ob = math.sqrt((sigma_qu_sq * sigma_ob_sq + want_ob ** 2) / n)
    se_th = math.sqrt((sigma_qu_sq * st + want_th ** 2) / n)
    assert abs(np.mean(n_qu * n_ob) - want_ob) < 3 * se_ob
    assert abs(np.mean(n_qu * theta) - want_th) < 3 * se_th


# ---------------------------------------------------------------------------
# amplify-and-forward (uncoded route)
# ---------------------------------------------------------------------------

def test_uncoded_degained_noise_variance():
    gob, gch, st = 7.0, 5.0, 1.0
    n = 1_000_000
    theta = _rng(8).standard_normal(n)
    x, _ = _one_node(gob, gch, 0, theta, 9, st)
    d_k = st * (1.0 / gob + 1.0 / gch + 1.0 / (gob * gch))
    emp = np.mean((x - theta) ** 2)
    se = d_k * math.sqrt(2.0 / n)
    assert abs(emp - d_k) < 3 * se


def test_uncoded_noiseless_channel_limit():
    theta = _rng(10).standard_normal(500)
    x, obs = _one_node(2.0, 1e16, 0, theta, 11)
    np.testing.assert_allclose(x, obs, atol=1e-6)


# ---------------------------------------------------------------------------
# all nodes at once
# ---------------------------------------------------------------------------

def test_sample_recovery_puts_nodes_on_the_last_axis():
    m = random_instance(3, seed=2)
    pol = CodingPolicy((1, 0, 1))
    x, obs = sim.sample_recovery(0.5, m, pol, _rng(0))
    assert x.shape == obs.shape == (3,)
    x, obs = sim.sample_recovery(np.zeros((4, 5)), m, pol, _rng(0))
    assert x.shape == obs.shape == (4, 5, 3)
    with pytest.raises(ValidationError, match="length"):
        sim.sample_recovery(0.5, m, CodingPolicy((1,)), _rng(0))


def test_sample_recovery_draws_block_after_block():
    # 30,000 values of 3 nodes are three blocks; each block draws its
    # observation noise and then its route noise, so three calls of one
    # block each on the same generator give the same arrays
    m = random_instance(3, seed=2)
    pol = CodingPolicy((1, 0, 1))
    theta = _rng(1).standard_normal(30_000)
    x, obs = sim.sample_recovery(theta, m, pol, _rng(0))
    rng = _rng(0)
    parts = [sim.sample_recovery(theta[rows], m, pol, rng)
             for rows in sim._row_blocks(len(theta), m.n_nodes)]
    assert len(parts) == 3
    np.testing.assert_array_equal(x, np.concatenate([part[0] for part in parts]))
    np.testing.assert_array_equal(obs, np.concatenate([part[1] for part in parts]))


def test_sample_recovery_draws_a_block_node_after_node():
    # within a block the observation noise comes node-major: all of node
    # 0's draws, then node 1's, and so on, then the route noise likewise
    m = random_instance(3, seed=2)
    pol = CodingPolicy((1, 0, 1))
    theta = _rng(1).standard_normal(1000)
    x, obs = sim.sample_recovery(theta, m, pol, _rng(0))
    rng = _rng(0)
    z_ob = rng.standard_normal((3, 1000))
    z_route = rng.standard_normal((3, 1000))
    sigma_ob = np.sqrt(m.sigma_theta_sq / m.gamma_ob_array())
    np.testing.assert_array_equal(obs, (theta + sigma_ob[:, None] * z_ob).T)
    # the uncoded node forwards its observation plus its route noise alone
    scale = math.sqrt(1.0 + 1.0 / m.gamma_ob_array()[1]) / math.sqrt(m.gamma_ch_array()[1])
    np.testing.assert_allclose(x[:, 1], obs[:, 1] + scale * z_route[1], rtol=1e-14)


@pytest.mark.parametrize("bits", [(1, 0, 1, 0), (0, 1, 1, 1), (0, 0, 1, 0)])
def test_sampled_noise_covariance_matches_hybrid_covariance(bits):
    # 16 entries, each within 4 standard errors of the block covariance;
    # the product of two zero-mean Gaussians has variance S_ii S_jj + S_ij^2
    m = random_instance(4, seed=21)
    policy = CodingPolicy(bits)
    n = 1_000_000
    rng = _rng(31)
    theta = rng.standard_normal(n) * math.sqrt(m.sigma_theta_sq)
    x, _ = sim.sample_recovery(theta, m, policy, rng)
    noise = theta[:, None] - x
    want = an.hybrid_noise_covariance(m, policy)
    emp = noise.T @ noise / n
    diag = np.diag(want)
    se = np.sqrt((np.outer(diag, diag) + want ** 2) / n)
    assert np.all(np.abs(emp - want) < 4 * se)


# ---------------------------------------------------------------------------
# batch distortion
# ---------------------------------------------------------------------------

def test_empirical_distortion_matches_closed_forms():
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    cases = {(1, 1): 0.625, (0, 0): 1.5, (1, 0): 0.75}
    for bits, want in cases.items():
        stats = sim.empirical_distortion(m, CodingPolicy(bits), 1_000_000, seed=17)
        assert abs(stats.mean_sq_error - want) < 3 * stats.std_error
        assert abs(stats.mean_sq_error - want) / want < 0.01


def test_empirical_distortion_random_hybrids(rng):
    for i in range(6):
        k = int(rng.integers(1, 7))
        m = random_instance(k, seed=100 + i)
        bits = tuple(int(b) for b in rng.integers(0, 2, k))
        want = an.hybrid_distortion(m, CodingPolicy(bits)).total
        stats = sim.empirical_distortion(m, CodingPolicy(bits), 400_000, seed=55 + i)
        assert abs(stats.mean_sq_error - want) < 4 * stats.std_error


def test_empirical_distortion_deterministic():
    m = random_instance(3, seed=5)
    pol = CodingPolicy((1, 0, 1))
    a = sim.empirical_distortion(m, pol, 123_456, seed=99)
    b = sim.empirical_distortion(m, pol, 123_456, seed=99)
    assert a == b
    c = sim.empirical_distortion(m, pol, 123_456, seed=100)
    assert c.mean_sq_error != a.mean_sq_error


def test_empirical_distortion_pinned_stream():
    # two Philox chunks; any change to the coefficients, the draw order or
    # the summation of the Monte Carlo chain moves these bits
    m = SystemModel.from_snrs(gamma_ob=[7.0, 3.0, 12.0, 0.5], gamma_ch=[5.0, 8.0, 2.0, 20.0])
    stats = sim.empirical_distortion(m, CodingPolicy((1, 0, 1, 0)), 70_000, seed=2718)
    assert stats.mean_sq_error.hex() == "0x1.0b231e0a6e2abp-3"
    assert stats.std_error.hex() == "0x1.6c4f2d3227e06p-11"


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_trial_chunk_holds_no_recovery_per_node_and_trial(monkeypatch):
    # one 65,536-trial chunk: holding every node's recovery of every trial
    # took 9 MiB at K=8 and 257 MiB at K=256; a chunk that recovers and
    # fuses one row block at a time needs the same few MiB at any K
    monkeypatch.setattr(sim, "_available_cpus", lambda: 1)
    peaks = {}
    for k in (8, 256):
        m = SystemModel.from_snrs(np.geomspace(0.5, 20.0, k), np.geomspace(30.0, 0.3, k))
        policy = CodingPolicy(tuple(i % 2 for i in range(k)))
        peaks[k] = _traced_peak(lambda: sim.empirical_distortion(m, policy, sim._CHUNK, 1))
    assert peaks[256] <= 32 << 20
    assert peaks[256] <= 1.01 * peaks[8]


def test_empirical_distortion_rejects_bad_trials():
    m = SystemModel.homogeneous(1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        sim.empirical_distortion(m, CodingPolicy((1,)), 0, seed=0)


# ---------------------------------------------------------------------------
# fading
# ---------------------------------------------------------------------------

def test_fading_shared_gain_matches_closed_form():
    m = SystemModel.homogeneous(5, 7.0, 5.0)
    want = an.fading_coded_homo_distortion(5, 7.0, 5.0, 0.9)
    stats = sim.fading_empirical_distortion(m, 0.9, 400_000, seed=31,
                                            shared_gain=True)
    assert abs(stats.mean_sq_error - want) / want < 0.005
    assert stats.converged


@pytest.mark.parametrize("scheme, closed_form", [
    ("coded", an.coded_hetero_distortion),
    ("uncoded", an.uncoded_hetero_distortion),
])
@pytest.mark.parametrize("shared_gain", [False, True])
def test_fading_evaluates_the_closed_forms_exactly(scheme, closed_form, shared_gain):
    # the per-block distortions are the closed form of each faded model bit
    # for bit: at K = 6 over 7 blocks, as the node rows added in order equal
    # numpy's pairwise sum below 8 nodes; at K = 9 over a single block, as
    # a one-column block gets the closed forms' own pairwise sum.  Fewer
    # than 8 blocks, so numpy sums their values in order as np.mean does
    nu = 0.9
    for base, n_blocks in ((random_instance(6, seed=3), 7), (random_instance(9, seed=4), 1)):
        m = SystemModel.from_snrs(base.gamma_ob_array(), base.gamma_ch_array(),
                                  sigma_theta_sq=2.5)
        for seed in range(10):
            stats = sim.fading_empirical_distortion(m, nu, n_blocks, seed, scheme=scheme,
                                                    shared_gain=shared_gain)
            ((size, rng),) = sim._chunk_streams(seed, n_blocks)
            e = rng.standard_exponential(size if shared_gain else (m.n_nodes, size))
            faded = nu * e * m.gamma_ch_array()[:, None]
            want = [closed_form(SystemModel.from_snrs(m.gamma_ob_array(), column,
                                                      sigma_theta_sq=m.sigma_theta_sq))
                    for column in faded.T]
            assert stats.n_trials == n_blocks
            assert stats.mean_sq_error == np.mean(want)


def test_fading_gain_scale_invariance():
    # h enters only through nu * e * gamma_ch, so rescaling (nu, gamma_ch)
    # at fixed product is bit-identical
    m1 = SystemModel.homogeneous(3, 7.0, 5.0)
    m2 = SystemModel.homogeneous(3, 7.0, 0.5)
    a = sim.fading_empirical_distortion(m1, 0.9, 50_000, seed=3)
    b = sim.fading_empirical_distortion(m2, 9.0, 50_000, seed=3)
    assert a.mean_sq_error == b.mean_sq_error


def test_fading_uncoded_diverges_and_is_flagged():
    m = SystemModel.homogeneous(3, 7.0, 5.0)
    small = sim.fading_empirical_distortion(m, 0.9, 10_000, seed=41,
                                            scheme="uncoded", shared_gain=True)
    big = sim.fading_empirical_distortion(m, 0.9, 1_000_000, seed=41,
                                          scheme="uncoded", shared_gain=True)
    assert big.mean_sq_error > small.mean_sq_error  # drifting sample mean
    assert not big.converged
    coded = sim.fading_empirical_distortion(m, 0.9, 100_000, seed=41,
                                            shared_gain=True)
    assert coded.converged


def test_fading_independent_gains_beat_shared():
    # independent per-node fading adds diversity, so the average distortion
    # drops below the shared-gain average for K > 1
    m = SystemModel.homogeneous(10, 7.0, 5.0)
    indep = sim.fading_empirical_distortion(m, 0.9, 200_000, seed=13)
    shared = sim.fading_empirical_distortion(m, 0.9, 200_000, seed=13,
                                             shared_gain=True)
    assert indep.mean_sq_error < shared.mean_sq_error


# ---------------------------------------------------------------------------
# chunk scheduler
# ---------------------------------------------------------------------------

def _node_rows_sum(block):
    """The sum over the node rows of a node-major (K, n) block, by the rule
    the estimators document: from 0.0, one row after another, in node
    order, except that a one-column block gets numpy's pairwise sum of its
    column, as the closed forms sum a 1-D array."""
    if block.shape[1] == 1:
        return np.array([block[:, 0].sum()])
    total = block[0] + 0.0
    for row in block[1:]:
        total += row
    return total


@pytest.mark.parametrize("n_nodes", [*range(1, 21), 64, 129, 256])
@pytest.mark.parametrize("n_items", [1, 2, 7, 4096])
@pytest.mark.parametrize("decades", [300, 1])
def test_node_major_sum_follows_the_documented_rule(n_nodes, n_items, decades):
    # every node sum of the Monte Carlo is numpy's sum(axis=0) of a
    # node-major block, and its bits rest on the order of _node_rows_sum;
    # a numpy that changes that order fails here.  Narrow spreads make the
    # order show in the last bits, wide ones mix magnitudes and signs
    rng = np.random.default_rng(n_nodes * 10_000 + n_items + decades)
    shape = (n_nodes, n_items)
    block = 10.0 ** rng.uniform(-decades, decades, shape) * rng.choice([-1.0, 1.0], shape)
    if n_items > 1:
        block[:, 0] = -0.0
    got, want = block.sum(axis=0), _node_rows_sum(block)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _sequential_fading(model, nu, n_blocks, seed, scheme, shared_gain):
    """The fading estimator with its chunks one after another and the
    instantaneous distortions written as the closed forms read, on the
    node-major blocks of :func:`simulate._row_blocks`."""
    gob = model.gamma_ob_array()[:, None]
    gch, st = model.gamma_ch_array()[:, None], model.sigma_theta_sq
    parts = []
    for size, rng in sim._chunk_streams(seed, n_blocks):
        for rows in sim._row_blocks(size, model.n_nodes):
            n = rows.stop - rows.start
            g = nu * rng.standard_exponential(n if shared_gain else (model.n_nodes, n)) * gch
            if scheme == "coded":
                u = 1.0 / (1.0 + g)
                lam = (1.0 + g + gob) * g / ((1.0 + g) ** 2 * gob)
                a, b, c = (_node_rows_sum(1.0 / lam), _node_rows_sum(u / lam),
                           _node_rows_sum(u * u / lam))
                parts.append(st / (a - b * b / (1.0 + c)))
            else:
                parts.append(st / _node_rows_sum(1.0 / (1.0 / gob + 1.0 / g + 1.0 / (gob * g))))
    values = np.concatenate(parts)
    return sim._batch_stats(n_blocks, float(values.sum()), float((values * values).sum()),
                            seed, converged=_sorted_tail_converged(values))


def _sorted_tail_converged(values):
    """The Hill tail-index check read off a full sort."""
    if len(values) < 100:
        return True
    k = max(10, len(values) // 100)
    top = np.sort(values)[-(k + 1):]
    if top[0] <= 0:
        return True
    log_excess = float(np.log(top[1:] / top[0]).sum())
    return log_excess <= 0 or k / log_excess > 1.5


def test_tail_index_check_matches_a_full_sort():
    rng = np.random.default_rng(5)
    for n in (99, 100, 1000, 54_321):
        for alpha in (0.7, 1.0, 1.5, 3.0):
            values = rng.pareto(alpha, n) + 1.0
            for v in (values, np.round(values, 1), -values, np.zeros(n), np.ones(n)):
                assert sim._tail_index_converged(v) == _sorted_tail_converged(v)


def _sequential_trials(model, policy, n_trials, seed):
    """The trial estimator with its chunks one after another: per chunk the
    source values, then per block of :func:`simulate._row_blocks` the
    forward model of :func:`simulate.sample_recovery` and the fusion of the
    block's node rows."""
    weights = an.blue_weights(an.hybrid_noise_covariance(model, policy))[:, None]
    total = total_sq = 0.0
    for size, rng in sim._chunk_streams(seed, n_trials):
        theta = math.sqrt(model.sigma_theta_sq) * rng.standard_normal(size)
        err = []
        for rows in sim._row_blocks(size, model.n_nodes):
            x, _ = sim.sample_recovery(theta[rows], model, policy, rng)
            err.append(_node_rows_sum(x.T * weights) - theta[rows])
        err = np.concatenate(err)
        sq = err * err
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
    return sim._batch_stats(n_trials, total, total_sq, seed)


# one chunk, two chunks and four chunks, the last two ragged
_CHUNK_COUNTS = [1000, sim._CHUNK + 777, 3 * sim._CHUNK + 5]


@pytest.fixture(params=[1, 4], ids=["one-cpu", "four-cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(sim, "_available_cpus", lambda: request.param)
    return request.param


# K = 3 on every chunk count; K = 7 and K = 9, one on each side of
# numpy's switch from sequential to 8-accumulator sums, on four ragged
# chunks; and K = 9 on a second chunk of one block, a one-column block
# (its one value's last bit rarely reaches the totals, so the one-column
# rule is pinned bit for bit by test_fading_evaluates_the_closed_forms_exactly)
_FADING_CASES = ([pytest.param(n, 3, id=str(n)) for n in _CHUNK_COUNTS]
                 + [pytest.param(_CHUNK_COUNTS[-1], k, id=f"{_CHUNK_COUNTS[-1]}-K{k}")
                    for k in (7, 9)]
                 + [pytest.param(sim._CHUNK + 1, 9, id=f"{sim._CHUNK + 1}-K9")])


@pytest.mark.parametrize("n_blocks, n_nodes", _FADING_CASES)
@pytest.mark.parametrize("shared_gain", [False, True])
@pytest.mark.parametrize("scheme", ["coded", "uncoded"])
def test_fading_chunks_match_the_sequential_estimator(cpus, n_blocks, n_nodes, shared_gain,
                                                      scheme):
    if n_nodes == 3:
        m = SystemModel.from_snrs([7.0, 0.3, 12.0], [5.0, 40.0, 0.8], sigma_theta_sq=1.7)
    else:  # SNRs over three decades, so the order of the node sums shows
        m = SystemModel.from_snrs(np.geomspace(0.05, 50.0, n_nodes)[::-1],
                                  np.roll(np.geomspace(0.1, 100.0, n_nodes), 2),
                                  sigma_theta_sq=1.7)
    got = sim.fading_empirical_distortion(m, 0.9, n_blocks, seed=n_blocks, scheme=scheme,
                                          shared_gain=shared_gain)
    assert got == _sequential_fading(m, 0.9, n_blocks, n_blocks, scheme, shared_gain)


@pytest.mark.parametrize("n_trials", _CHUNK_COUNTS)
def test_trial_chunks_match_the_sequential_estimator(cpus, n_trials):
    m = SystemModel.from_snrs([7.0, 0.3, 12.0, 2.0], [5.0, 40.0, 0.8, 3.0],
                              sigma_theta_sq=1.7)
    policy = CodingPolicy((1, 0, 0, 1))
    got = sim.empirical_distortion(m, policy, n_trials, seed=n_trials)
    assert got == _sequential_trials(m, policy, n_trials, n_trials)


@pytest.mark.parametrize("n_nodes, n_trials", [(9, _CHUNK_COUNTS[1]), (30, _CHUNK_COUNTS[1]),
                                               (9, sim._CHUNK + 1)])
def test_wide_trial_chunks_match_the_sequential_estimator(cpus, n_nodes, n_trials):
    # K = 9 and K = 30 over many columns add the node rows in order; K = 9
    # on _CHUNK + 1 trials ends in a chunk of one one-column block, which
    # numpy sums pairwise (one trial's last bit rarely reaches the sums:
    # the fading case of one block pins that rule bit for bit); SNRs over
    # three decades, so the order shows
    m = SystemModel.from_snrs(np.geomspace(0.05, 50.0, n_nodes)[::-1],
                              np.roll(np.geomspace(0.1, 100.0, n_nodes), 2),
                              sigma_theta_sq=1.7)
    policy = CodingPolicy(tuple(i % 3 % 2 for i in range(n_nodes)))
    got = sim.empirical_distortion(m, policy, n_trials, seed=n_nodes)
    assert got == _sequential_trials(m, policy, n_trials, n_nodes)


def test_chunk_threads_are_joined_before_the_call_returns(cpus):
    before = threading.active_count()
    m = SystemModel.homogeneous(3, 7.0, 5.0)
    sim.fading_empirical_distortion(m, 0.9, 3 * sim._CHUNK + 5, seed=1)
    assert threading.active_count() == before


def test_a_single_chunk_starts_no_thread(monkeypatch, cpus):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk started a thread pool")

    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    seen = sim._map_chunks(lambda size, rng: threading.active_count(), 0, sim._CHUNK)
    assert seen == [before]
    m = SystemModel.homogeneous(3, 7.0, 5.0)
    sim.fading_empirical_distortion(m, 0.9, sim._CHUNK, seed=1)
    sim.empirical_distortion(m, CodingPolicy((1, 0, 1)), sim._CHUNK, seed=1)


def test_helper_chunks_run_under_the_callers_errstate(monkeypatch):
    # the barrier holds the first chunk until the second one has started,
    # so the two run on different threads
    monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
    barrier = threading.Barrier(2, timeout=30)

    def chunk(size, rng):
        barrier.wait()
        return threading.get_ident(), np.geterr()["over"]

    with np.errstate(over="raise"):
        seen = sim._map_chunks(chunk, 0, 2 * sim._CHUNK)
    assert seen[0][0] != seen[1][0]
    assert [mode for _, mode in seen] == ["raise", "raise"]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sim._map_chunks(lambda size, rng: np.full(size, 1e300) * 1e300, 0,
                        2 * sim._CHUNK)


@pytest.mark.parametrize("n_cpus", [2, 4])
def test_the_caller_and_one_helper_per_further_cpu_run_chunks_at_once(monkeypatch,
                                                                       n_cpus):
    # each chunk waits until min(CPUs, chunks) threads wait with it, so the
    # call ends only if that many threads, the caller among them, run chunks
    # at once: a layout with an idle caller, or with fewer threads, times out
    monkeypatch.setattr(sim, "_available_cpus", lambda: n_cpus)
    n_threads = min(n_cpus, 4)
    barrier = threading.Barrier(n_threads, timeout=30)

    def chunk(size, rng):
        barrier.wait()
        return threading.get_ident()

    before = threading.active_count()
    seen = sim._map_chunks(chunk, 0, 4 * sim._CHUNK)
    assert len(seen) == 4
    assert len(set(seen)) == n_threads
    assert threading.get_ident() in seen
    assert threading.active_count() == before


def test_each_chunk_is_claimed_once_under_frequent_thread_switches(monkeypatch):
    # more threads than cores and a short switch interval: a chunk claimed
    # twice would draw from its generator twice and change its result
    monkeypatch.setattr(sim, "_available_cpus", lambda: 8)
    n_items = 256 * sim._CHUNK
    calls = []

    def chunk(size, rng):
        calls.append(size)
        for _ in range(2000):  # Python work, so threads switch inside chunks
            pass
        return int(rng.integers(1 << 62))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sim._map_chunks(chunk, 9, n_items)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 256
    assert got == [int(rng.integers(1 << 62)) for _, rng in sim._chunk_streams(9, n_items)]


def test_an_error_in_any_chunk_reaches_the_caller(cpus):
    def chunk(size, rng):
        if size == 5:
            raise ValueError("last chunk")
        return size

    before = threading.active_count()
    with pytest.raises(ValueError, match="last chunk"):
        sim._map_chunks(chunk, 0, 3 * sim._CHUNK + 5)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# folded normal instances
# ---------------------------------------------------------------------------

def test_folded_normal_mean_formula():
    # quadrature oracle for the folded-normal mean
    for mu, sigma in ((0.0, 1.5), (2.0, 1.5), (5.0, 0.3), (-2.0, 1.0)):
        want, _ = scipy.integrate.quad(
            lambda v: abs(v) * math.exp(-(v - mu) ** 2 / (2 * sigma ** 2))
            / (sigma * math.sqrt(2 * math.pi)), -np.inf, np.inf)
        assert sim.folded_normal_mean(mu, sigma) == pytest.approx(want, rel=1e-10)


def test_folded_normal_location_calibration():
    for target, sigma in ((5.0, 1.5), (7.0, 1.5), (1.3, 1.0)):
        mu = sim.folded_normal_location(target, sigma)
        assert sim.folded_normal_mean(mu, sigma) == pytest.approx(target, abs=1e-8)


def test_folded_normal_location_at_the_floor_is_zero():
    # the smallest reachable mean, sigma sqrt(2/pi), needs no root search
    assert sim.folded_normal_location(sim.folded_normal_mean(0.0, 1.5), 1.5) == 0.0


def test_folded_normal_location_unreachable():
    # folded mean cannot go below sigma sqrt(2/pi)
    with pytest.raises(ValidationError, match="unreachable"):
        sim.folded_normal_location(0.1, 1.5)


def test_generate_instance_degenerate_spread():
    spec = sim.FoldedNormalSpec(target_mean=5.0, std_dev=1e-12)
    m = sim.generate_instance(4, spec, sim.FoldedNormalSpec(7.0, 1e-12), seed=1)
    np.testing.assert_allclose(m.gamma_ch_array(), 5.0, rtol=1e-9)
    np.testing.assert_allclose(m.gamma_ob_array(), 7.0, rtol=1e-9)


def test_generate_instance_sample_mean_and_positivity():
    spec = sim.FoldedNormalSpec(target_mean=5.0, std_dev=1.5)
    m = sim.generate_instance(1_000_000, spec, sim.FoldedNormalSpec(7.0, 1.5),
                              seed=9)
    draws = m.gamma_ch_array()
    assert np.all(draws > 0)
    assert np.all(m.gamma_ob_array() > 0)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - 5.0) < 3 * se


def test_generate_instance_deterministic():
    spec = sim.FoldedNormalSpec(5.0, 1.5)
    a = sim.generate_instance(6, spec, sim.FoldedNormalSpec(7.0, 1.5), seed=123)
    b = sim.generate_instance(6, spec, sim.FoldedNormalSpec(7.0, 1.5), seed=123)
    assert a == b
