import math

import numpy as np
import pytest
import scipy.integrate

from sensefuse import analytic as an
from sensefuse import simulate as sim
from sensefuse.model import CodingPolicy, SensorLink, SystemModel, ValidationError

from conftest import random_instance


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# test channel sampler
# ---------------------------------------------------------------------------

def test_coded_recovery_lossless_limit():
    link = SensorLink(gamma_ob=2.0, gamma_ch=1e14)
    theta = _rng(0).standard_normal(1000)
    x, obs = sim.sample_coded_recovery(theta, link, 1.0, _rng(1),
                                       return_observation=True)
    np.testing.assert_allclose(x, obs, atol=1e-6)


def test_coded_recovery_quantization_power():
    link = SensorLink(gamma_ob=7.0, gamma_ch=5.0)
    st = 1.0
    sigma_qu_sq = (st + st / link.gamma_ob) / (1.0 + link.gamma_ch)
    n = 1_000_000
    theta = _rng(2).standard_normal(n) * math.sqrt(st)
    x, obs = sim.sample_coded_recovery(theta, link, st, _rng(3),
                                       return_observation=True)
    emp = np.mean((obs - x) ** 2)
    se = sigma_qu_sq * math.sqrt(2.0 / n)  # chi-square variance of squares
    assert abs(emp - sigma_qu_sq) < 3 * se


def test_coded_recovery_is_uncorrelated_with_quantization_noise():
    link = SensorLink(gamma_ob=3.0, gamma_ch=2.0)
    n = 1_000_000
    theta = _rng(4).standard_normal(n)
    x, obs = sim.sample_coded_recovery(theta, link, 1.0, _rng(5),
                                       return_observation=True)
    n_qu = obs - x
    corr = np.mean(x * n_qu)
    se = math.sqrt(np.var(x) * np.var(n_qu) / n)
    assert abs(corr) < 3 * se


def test_coded_recovery_cross_moments_match_closed_form():
    link = SensorLink(gamma_ob=7.0, gamma_ch=5.0)
    st = 1.0
    sigma_ob_sq = st / link.gamma_ob
    sigma_qu_sq = (st + sigma_ob_sq) / (1.0 + link.gamma_ch)
    want_ob, want_th = an.quantization_cross_moments(st, sigma_ob_sq, sigma_qu_sq)
    n = 1_000_000
    theta = _rng(6).standard_normal(n) * math.sqrt(st)
    x, obs = sim.sample_coded_recovery(theta, link, st, _rng(7),
                                       return_observation=True)
    n_qu, n_ob = obs - x, obs - theta
    se_ob = math.sqrt((sigma_qu_sq * sigma_ob_sq + want_ob ** 2) / n)
    se_th = math.sqrt((sigma_qu_sq * st + want_th ** 2) / n)
    assert abs(np.mean(n_qu * n_ob) - want_ob) < 3 * se_ob
    assert abs(np.mean(n_qu * theta) - want_th) < 3 * se_th


# ---------------------------------------------------------------------------
# amplify-and-forward sampler
# ---------------------------------------------------------------------------

def test_uncoded_degained_noise_variance():
    link = SensorLink(gamma_ob=7.0, gamma_ch=5.0)
    st = 1.0
    n = 1_000_000
    theta = _rng(8).standard_normal(n)
    _, degained = sim.sample_uncoded_observation(theta, link, st, _rng(9))
    d_k = st * (1.0 / link.gamma_ob + 1.0 / link.gamma_ch
                + 1.0 / (link.gamma_ob * link.gamma_ch))
    emp = np.mean((degained - theta) ** 2)
    se = d_k * math.sqrt(2.0 / n)
    assert abs(emp - d_k) < 3 * se


def test_uncoded_noiseless_channel_limit():
    link = SensorLink(gamma_ob=2.0, gamma_ch=1e16)
    theta = _rng(10).standard_normal(500)
    _, degained, obs = sim.sample_uncoded_observation(
        theta, link, 1.0, _rng(11), return_observation=True)
    np.testing.assert_allclose(degained, obs, atol=1e-6)


def test_uncoded_unit_gain_case():
    # transmit power equal to the observation power makes alpha exactly 1
    st, gob = 1.0, 1.0
    sigma_ob_sq = st / gob
    link = SensorLink(gamma_ob=gob, gamma_ch=st + sigma_ob_sq)
    theta = _rng(12).standard_normal(200)
    y, degained, obs = sim.sample_uncoded_observation(
        theta, link, st, _rng(13), return_observation=True)
    np.testing.assert_allclose(y - obs, degained - obs, rtol=1e-12)


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
    # fewer than 8 blocks: numpy sums them in order, so the sample mean must
    # equal the mean of the closed form over the faded models bit for bit
    base = random_instance(6, seed=3)
    m = SystemModel.from_snrs(base.gamma_ob_array(), base.gamma_ch_array(),
                              sigma_theta_sq=2.5)
    nu, n_blocks = 0.9, 7
    for seed in range(10):
        stats = sim.fading_empirical_distortion(m, nu, n_blocks, seed, scheme=scheme,
                                                shared_gain=shared_gain)
        ((size, rng),) = sim._chunk_streams(seed, n_blocks)
        h = -nu * np.log1p(-rng.random((size, 1 if shared_gain else m.n_nodes)))
        faded = h * m.gamma_ch_array()[None, :]
        want = [closed_form(SystemModel.from_snrs(m.gamma_ob_array(), row,
                                                  sigma_theta_sq=m.sigma_theta_sq))
                for row in faded]
        assert stats.n_trials == n_blocks
        assert stats.mean_sq_error == np.mean(want)


def test_fading_gain_scale_invariance():
    # h enters only through h * gamma_ch, and the sampler uses the inverse
    # CDF, so rescaling (nu, gamma_ch) at fixed product is bit-identical
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
