import math

import numpy as np
import pytest
import scipy.integrate

from sensefuse import analytic as an
from sensefuse import simulate as sim
from sensefuse.model import CodingPolicy, SensorLink, SystemModel, ValidationError

from conftest import random_instance


# ---------------------------------------------------------------------------
# cross moments and covariance
# ---------------------------------------------------------------------------

def test_cross_moments_symmetric_substitution():
    assert an.quantization_cross_moments(1.0, 1.0, 1.0) == (0.5, 0.5)


def test_cross_moments_noiseless_observation_limit():
    nq_nob, nq_th = an.quantization_cross_moments(1.0, 1e-14, 0.3)
    assert nq_nob == pytest.approx(0.0, abs=1e-14)
    assert nq_th == pytest.approx(0.3, rel=1e-12)


def test_cross_moments_reject_nonpositive():
    with pytest.raises(ValidationError):
        an.quantization_cross_moments(1.0, 0.0, 1.0)


def test_cross_moments_against_test_channel_sampler():
    # oracle: 1e6 draws through the simulate test channel, 3 standard errors
    link = SensorLink(gamma_ob=7.0, gamma_ch=5.0)
    st = 1.0
    sigma_ob_sq = st / link.gamma_ob
    sigma_qu_sq = (st + sigma_ob_sq) / (1.0 + link.gamma_ch)
    n = 1_000_000
    rng = np.random.Generator(np.random.Philox(42))
    theta = rng.standard_normal(n) * math.sqrt(st)
    x, obs = sim.sample_coded_recovery(theta, link, st, rng, return_observation=True)
    n_qu = obs - x
    n_ob = obs - theta
    want_ob, want_th = an.quantization_cross_moments(st, sigma_ob_sq, sigma_qu_sq)
    for sample, want, sig2 in ((n_qu * n_ob, want_ob, sigma_ob_sq),
                               (n_qu * theta, want_th, st)):
        se = math.sqrt((sigma_qu_sq * sig2 + want ** 2) / n)
        assert abs(sample.mean() - want) < 3 * se


def test_total_noise_covariance_two_node_example():
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    np.testing.assert_allclose(an.total_noise_covariance(m),
                               [[1.0, 0.25], [0.25, 1.0]], rtol=1e-15)


def test_total_noise_covariance_single_node_entry():
    m = SystemModel(1.0, (SensorLink(7.0, 5.0),))
    ob, qu = 1.0 / 7.0, (1.0 + 1.0 / 7.0) / 6.0
    want = ob + qu - 2.0 * ob * qu / (1.0 + ob)
    assert an.total_noise_covariance(m)[0, 0] == pytest.approx(want, rel=1e-14)


def test_total_noise_covariance_positive_definite():
    for i in range(40):
        m = random_instance(int(np.random.default_rng(i).integers(1, 9)), seed=50 + i)
        eigs = np.linalg.eigvalsh(an.total_noise_covariance(m))
        assert eigs.min() > 0


def test_total_noise_covariance_matches_sampled_noise():
    # K=3 random SNRs: entrywise within 3 standard errors at 1e6 trials
    m = random_instance(3, seed=7)
    st = m.sigma_theta_sq
    n = 1_000_000
    rng = np.random.Generator(np.random.Philox(11))
    theta = rng.standard_normal(n) * math.sqrt(st)
    noise = np.empty((n, 3))
    for k, link in enumerate(m.links):
        x = sim.sample_coded_recovery(theta, link, st, rng)
        noise[:, k] = theta - x  # n_qu - n_ob
    want = an.total_noise_covariance(m)
    emp = noise.T @ noise / n
    var = np.outer(noise.var(axis=0), noise.var(axis=0))
    se = np.sqrt((var + want ** 2) / n)
    assert np.all(np.abs(emp - want) < 3 * se)


# ---------------------------------------------------------------------------
# BLUE
# ---------------------------------------------------------------------------

def test_blue_distortion_identity_and_diagonal():
    assert an.blue_distortion(np.eye(3)) == pytest.approx(1.0 / 3.0, rel=1e-14)
    d = np.array([0.5, 2.0, 4.0])
    assert an.blue_distortion(np.diag(d)) == pytest.approx(1.0 / np.sum(1.0 / d),
                                                           rel=1e-14)


def test_blue_distortion_matches_homogeneous_closed_form():
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    assert an.blue_distortion(an.total_noise_covariance(m)) == pytest.approx(
        0.625, rel=1e-12)


def test_blue_distortion_rejects_indefinite():
    with pytest.raises(ValidationError, match="positive definite"):
        an.blue_distortion(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_blue_rejects_non_square_covariance():
    for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValidationError, match="square"):
            an.blue_distortion(bad)
        with pytest.raises(ValidationError, match="square"):
            an.blue_weights(bad)


def test_blue_weights_identity_and_homogeneous():
    np.testing.assert_allclose(an.blue_weights(np.eye(4)), np.full(4, 0.25),
                               rtol=1e-14)
    m = SystemModel.homogeneous(5, 3.0, 2.0)
    f = an.blue_weights(an.total_noise_covariance(m))
    np.testing.assert_allclose(f, np.full(5, 0.2), rtol=1e-12)
    assert np.sum(f) == pytest.approx(1.0, abs=1e-15)


def test_blue_weights_plug_in_identity():
    m = random_instance(3, seed=21)
    cov = an.total_noise_covariance(m)
    f = an.blue_weights(cov)
    plug_in = float(f @ cov @ f)
    assert plug_in == pytest.approx(an.blue_distortion(cov), rel=1e-12)


# ---------------------------------------------------------------------------
# coded / uncoded closed forms
# ---------------------------------------------------------------------------

def test_coded_hetero_matches_blue_oracle():
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    assert an.coded_hetero_distortion(m) == pytest.approx(0.625, rel=1e-12)
    for i in range(100):
        inst = random_instance(int(np.random.default_rng(i).integers(1, 13)),
                               seed=1000 + i)
        direct = an.coded_hetero_distortion(inst)
        oracle = an.blue_distortion(an.total_noise_covariance(inst))
        assert direct == pytest.approx(oracle, rel=1e-10)


def test_coded_hetero_single_node_form():
    # sigma_ob^2 + (sigma_theta^2 - sigma_ob^2)/(1 + gamma_ch)
    m = SystemModel(1.0, (SensorLink(1.0, 1.0),))
    assert an.coded_hetero_distortion(m) == pytest.approx(1.0, rel=1e-14)
    m = SystemModel(1.0, (SensorLink(7.0, 5.0),))
    want = 1.0 / 7.0 + (1.0 - 1.0 / 7.0) / 6.0
    assert an.coded_hetero_distortion(m) == pytest.approx(want, rel=1e-14)


def test_coded_hetero_homogeneous_reduction():
    for k, gob, gch in ((1, 3.0, 0.5), (4, 7.0, 5.0), (9, 0.3, 12.0)):
        m = SystemModel.homogeneous(k, gob, gch)
        assert an.coded_hetero_distortion(m) == pytest.approx(
            an.coded_homo_distortion(k, gob, gch), rel=1e-12)


def test_coded_homo_values_and_limit():
    assert an.coded_homo_distortion(1, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert an.coded_homo_distortion(2, 1.0, 1.0) == pytest.approx(0.625, rel=1e-14)
    # converges to sigma^2/(1+gamma_ch)^2
    assert an.coded_homo_distortion(1_000_000, 7.0, 5.0) == pytest.approx(
        1.0 / 36.0, rel=1e-4)
    assert an.coded_homo_distortion(100_000_000, 7.0, 5.0) == pytest.approx(
        an.coded_homo_distortion_limit(5.0), rel=1e-6)


def test_homogeneous_distortions_strictly_decreasing_in_k():
    for gob, gch in ((7.0, 5.0), (0.5, 2.0), (20.0, 0.3)):
        coded = [an.coded_homo_distortion(k, gob, gch) for k in range(1, 40)]
        uncoded = [an.uncoded_homo_distortion(k, gob, gch) for k in range(1, 40)]
        assert all(b < a for a, b in zip(coded, coded[1:]))
        assert all(b < a for a, b in zip(uncoded, uncoded[1:]))


def test_uncoded_values():
    m = SystemModel(1.0, (SensorLink(1.0, 1.0),))
    assert an.uncoded_hetero_distortion(m) == pytest.approx(3.0, rel=1e-14)
    m2 = SystemModel.homogeneous(2, 1.0, 1.0)
    assert an.uncoded_hetero_distortion(m2) == pytest.approx(1.5, rel=1e-14)
    for k, gob, gch in ((3, 7.0, 5.0), (6, 0.4, 9.0)):
        m = SystemModel.homogeneous(k, gob, gch)
        assert an.uncoded_hetero_distortion(m) == pytest.approx(
            an.uncoded_homo_distortion(k, gob, gch), rel=1e-13)


def test_hybrid_reductions_and_hand_value():
    for i in range(30):
        m = random_instance(5, seed=400 + i)
        all_ones = an.hybrid_distortion(m, CodingPolicy.all_coded(5)).total
        all_zero = an.hybrid_distortion(m, CodingPolicy.all_uncoded(5)).total
        assert all_ones == pytest.approx(an.coded_hetero_distortion(m), rel=1e-12)
        assert all_zero == pytest.approx(an.uncoded_hetero_distortion(m), rel=1e-12)
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    bd = an.hybrid_distortion(m, CodingPolicy((1, 0)))
    assert bd.total == pytest.approx(0.75, rel=1e-13)
    # oracle: block BLUE on the hybrid covariance
    oracle = an.blue_distortion(an.hybrid_noise_covariance(m, CodingPolicy((1, 0))))
    assert bd.total == pytest.approx(oracle, rel=1e-12)


def test_hybrid_breakdown_terms_sum_to_reciprocal():
    m = random_instance(6, seed=77)
    bd = an.hybrid_distortion(m, CodingPolicy((1, 0, 1, 1, 0, 0)))
    assert math.fsum(bd.per_term) == pytest.approx(1.0 / bd.total, rel=1e-14)
    assert len(bd.per_term) == 1 + 3  # coded-set term + one per uncoded node


def test_hybrid_matches_block_blue_on_random_models(rng):
    for i in range(40):
        k = int(rng.integers(1, 9))
        m = random_instance(k, seed=600 + i)
        bits = tuple(int(b) for b in rng.integers(0, 2, k))
        policy = CodingPolicy(bits)
        direct = an.hybrid_distortion(m, policy).total
        oracle = an.blue_distortion(an.hybrid_noise_covariance(m, policy))
        assert direct == pytest.approx(oracle, rel=1e-10)


def test_hybrid_length_mismatch():
    m = SystemModel.homogeneous(3, 1.0, 1.0)
    with pytest.raises(ValidationError, match="length"):
        an.hybrid_distortion(m, CodingPolicy((1, 0)))


def test_amplifier_gain():
    assert an.amplifier_gain(2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert an.amplifier_gain(3.0, 1.0, 2.0) == pytest.approx(1.0)
    assert an.amplifier_gain(2.0, 1.0, 1e12) < 1e-11


# ---------------------------------------------------------------------------
# Sherman-Morrison identity
# ---------------------------------------------------------------------------

def test_sherman_morrison_scalar_case():
    m = SystemModel(1.0, (SensorLink(7.0, 5.0),))
    assert an.sherman_morrison_check(m) < 1e-12


def test_sherman_morrison_small_models():
    for i in range(50):
        k = int(np.random.default_rng(i).integers(1, 13))
        assert an.sherman_morrison_check(random_instance(k, seed=200 + i)) < 1e-10


def test_sherman_morrison_k8_folded_normal():
    for i in range(20):
        assert an.sherman_morrison_check(random_instance(8, seed=800 + i)) < 1e-9


def test_sherman_morrison_guard():
    with pytest.raises(ValidationError, match="K <= 64"):
        an.sherman_morrison_check(SystemModel.homogeneous(65, 1.0, 1.0))


# ---------------------------------------------------------------------------
# limiting cases
# ---------------------------------------------------------------------------

def test_limiting_distortion_spec_entries():
    st = 2.0
    # coded, channel SNR -> 0: sigma_theta^2 for every observation regime
    for ob in ("zero", "finite", "inf"):
        assert an.limiting_distortion("coded", ob, "zero", 4, 7.0, None, st) == st
    # uncoded, channel SNR -> 0 diverges
    assert math.isinf(an.limiting_distortion("uncoded", "finite", "zero", 4, 7.0))
    # coded, observation SNR -> inf with finite channel SNR
    want = st * (4 + 5.0) / (4 * 36.0)
    assert an.limiting_distortion("coded", "inf", "finite", 4, None, 5.0, st) == \
        pytest.approx(want, rel=1e-14)


def test_limiting_distortion_full_tables():
    k, gob, gch = 4, 7.0, 5.0
    coded = {
        ("inf", "inf"): 0.0,
        ("inf", "finite"): (k + gch) / (k * (1 + gch) ** 2),
        ("inf", "zero"): 1.0,
        ("finite", "inf"): 1.0 / (k * gob),
        ("finite", "finite"): an.coded_homo_distortion(k, gob, gch),
        ("finite", "zero"): 1.0,
        ("zero", "inf"): math.inf,
        ("zero", "finite"): math.inf,
        ("zero", "zero"): 1.0,
    }
    uncoded = {
        ("inf", "inf"): 0.0,
        ("inf", "finite"): 1.0 / (k * gch),
        ("inf", "zero"): math.inf,
        ("finite", "inf"): 1.0 / (k * gob),
        ("finite", "finite"): an.uncoded_homo_distortion(k, gob, gch),
        ("finite", "zero"): math.inf,
        ("zero", "inf"): math.inf,
        ("zero", "finite"): math.inf,
        ("zero", "zero"): math.inf,
    }
    for table, scheme in ((coded, "coded"), (uncoded, "uncoded")):
        for (ob, ch), want in table.items():
            got = an.limiting_distortion(scheme, ob, ch, k, gob, gch)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-14)


def test_limiting_distortion_rejects_unknown_regime():
    with pytest.raises(ValidationError, match="unknown regime"):
        an.limiting_distortion("coded", "small", "finite", 3, 1.0, 1.0)
    with pytest.raises(ValidationError, match="unknown scheme"):
        an.limiting_distortion("analog", "zero", "finite", 3, 1.0, 1.0)


# ---------------------------------------------------------------------------
# total power constraint
# ---------------------------------------------------------------------------

def test_total_power_single_node_equals_individual():
    for gob, gt in ((7.0, 5.0), (2.0, 0.7)):
        coded, uncoded = an.total_power_distortions(1, gob, gt)
        assert coded == pytest.approx(an.coded_homo_distortion(1, gob, gt), rel=1e-13)
        assert uncoded == pytest.approx(an.uncoded_homo_distortion(1, gob, gt),
                                        rel=1e-13)


def test_total_power_matches_rescaled_individual():
    for k in (2, 5, 12):
        coded, uncoded = an.total_power_distortions(k, 7.0, 5.0)
        assert coded == pytest.approx(an.coded_homo_distortion(k, 7.0, 5.0 / k),
                                      rel=1e-12)
        assert uncoded == pytest.approx(an.uncoded_homo_distortion(k, 7.0, 5.0 / k),
                                        rel=1e-12)


def test_total_power_limits():
    coded, _ = an.total_power_distortions(1_000_000, 7.0, 5.0)
    assert coded == pytest.approx(1.0, rel=1e-3)
    lim_c, lim_u = an.total_power_distortion_limits(7.0, 5.0)
    assert lim_c == 1.0
    assert lim_u == pytest.approx(1.0 / 5.0 + 1.0 / 35.0, rel=1e-14)
    _, uncoded = an.total_power_distortions(10_000_000, 7.0, 5.0)
    assert uncoded == pytest.approx(lim_u, rel=1e-6)


def test_total_power_crossover_root():
    assert an.crossover_node_count_total(7.0, 5.0) == pytest.approx(3.65483, abs=1e-4)


# ---------------------------------------------------------------------------
# coded-vs-uncoded conditions
# ---------------------------------------------------------------------------

def test_coded_wins_homo_small_k_always():
    for gob, gch in ((1e-6, 1e6), (1e6, 1e-6), (7.0, 5.0)):
        assert an.coded_wins_homo(1, gob, gch)
        assert an.coded_wins_homo(2, gob, gch)


def test_coded_wins_homo_crossover_example():
    # crossover at K = 4.0857 for gamma_ob=7, gamma_ch=5
    assert an.coded_wins_homo(4, 7.0, 5.0)
    assert not an.coded_wins_homo(5, 7.0, 5.0)


def test_coded_wins_homo_low_channel_snr_branch():
    assert an.coded_wins_homo(10, 1e6, 0.1)  # (K-2) gamma_ch <= 1


def test_coded_wins_homo_exact_tie_counts_as_loss():
    # construct an exact tie: gamma_ob ((K-2) gamma_ch - 1) = (g+1)(2g+1)
    k, gch = 4, 1.0
    gob = (gch + 1.0) * (2.0 * gch + 1.0) / ((k - 2) * gch - 1.0)  # exact: 6.0
    assert gob == 6.0
    assert not an.coded_wins_homo(k, gob, gch)


def test_coded_wins_sign_agreement_and_delta_formula(rng):
    for _ in range(300):
        k = int(rng.integers(1, 15))
        gob = float(rng.uniform(0.05, 30.0))
        gch = float(rng.uniform(0.05, 30.0))
        d_coded = an.coded_homo_distortion(k, gob, gch)
        d_uncoded = an.uncoded_homo_distortion(k, gob, gch)
        if abs(d_coded - d_uncoded) < 1e-9 * d_uncoded:
            continue  # skip the measure-zero boundary
        assert an.coded_wins_homo(k, gob, gch) == (d_coded < d_uncoded)
        # closed-form distortion gap
        delta = (1.0 / (k * gch * (1.0 + gch) ** 2)
                 * ((k - 2) * gch - 1.0
                    - (gch + 1.0) * (2.0 * gch + 1.0) / gob))
        assert d_coded - d_uncoded == pytest.approx(delta, rel=1e-12)


def test_coded_wins_total_examples_and_consistency(rng):
    assert an.coded_wins_total(2, 1e9, 1e9)
    assert an.coded_wins_total(3, 7.0, 5.0)
    assert not an.coded_wins_total(4, 7.0, 5.0)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        gob = float(rng.uniform(0.1, 20.0))
        gt = float(rng.uniform(0.1, 20.0))
        assert an.coded_wins_total(k, gob, gt) == an.coded_wins_homo(k, gob, gt / k)


def test_coded_wins_hetero_example_and_forms_agree(rng):
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    assert an.coded_wins_hetero(m)
    assert an.coded_hetero_distortion(m) < an.uncoded_hetero_distortion(m)
    for i in range(500):
        k = int(rng.integers(1, 13))
        m = random_instance(k, seed=3000 + i)
        verdict = an.coded_wins_hetero(m)  # raises if the two forms disagree
        d_gap = an.coded_hetero_distortion(m) - an.uncoded_hetero_distortion(m)
        if abs(d_gap) > 1e-9 * an.uncoded_hetero_distortion(m):
            assert verdict == (d_gap < 0)


def test_coded_wins_hetero_specializes_to_homo(rng):
    for _ in range(200):
        k = int(rng.integers(3, 20))
        gob = float(rng.uniform(0.1, 40.0))
        gch = float(rng.uniform(0.1, 40.0))
        m = SystemModel.homogeneous(k, gob, gch)
        assert an.coded_wins_hetero(m) == an.coded_wins_homo(k, gob, gch)


def test_gamma_ob_star_value_and_region():
    assert an.gamma_ob_star(3) == pytest.approx(7.0 + 4.0 * math.sqrt(3.0), rel=1e-12)
    # below the bound the coded scheme wins for every channel SNR
    for k in (3, 5, 9):
        bound = an.gamma_ob_star(k)
        for gch in np.geomspace(1e-3, 1e3, 25):
            assert an.coded_wins_homo(k, 0.95 * bound, float(gch))
    with pytest.raises(ValidationError):
        an.gamma_ob_star(2)


def test_channel_roots_bracket_the_uncoded_region():
    k, gob = 5, 20.0
    roots = an.coded_region_channel_roots(k, gob)
    assert roots is not None
    g1, g2 = roots
    assert 0 < g1 < g2
    mid = math.sqrt(g1 * g2)
    assert not an.coded_wins_homo(k, gob, mid)
    assert an.coded_wins_homo(k, gob, g1 * 0.9)
    assert an.coded_wins_homo(k, gob, g2 * 1.1)


def test_channel_roots_none_below_star():
    assert an.coded_region_channel_roots(3, 1.0) is None


def test_coded_max_nodes_example():
    want = 2.0 + 1.0 / 5.0 + 66.0 / 35.0
    assert an.coded_max_nodes(7.0, 5.0) == pytest.approx(want, rel=1e-14)
    assert an.coded_max_nodes(7.0, 5.0) == pytest.approx(4.085714, abs=1e-5)


def test_crossover_node_count_matches_closed_form():
    root = an.crossover_node_count(7.0, 5.0)
    assert root == pytest.approx(an.coded_max_nodes(7.0, 5.0), abs=1e-6)


# ---------------------------------------------------------------------------
# exponential integral and fading
# ---------------------------------------------------------------------------

def _quad_en(n, x):
    val, _ = scipy.integrate.quad(lambda t: t ** -n * math.exp(-x * t), 1.0,
                                  np.inf, epsabs=1e-14, epsrel=1e-12)
    return val


def test_exp_integral_small_argument_limit():
    assert an.exp_integral_en(2, 1e-12) == pytest.approx(1.0, rel=1e-9)


def test_exp_integral_against_quadrature():
    assert an.exp_integral_en(1, 1.0) == pytest.approx(0.2193839, abs=5e-8)
    for n in (1, 2, 3):
        for x in (1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 50.0):
            assert an.exp_integral_en(n, x) == pytest.approx(_quad_en(n, x),
                                                             rel=1e-10)


def test_exp_integral_recurrence():
    for x in np.geomspace(1e-6, 700.0, 40):
        lhs = an.exp_integral_en(2, float(x))
        rhs = math.exp(-x) - x * an.exp_integral_en(1, float(x))
        assert abs(lhs - rhs) <= 1e-12


def test_exp_integral_large_argument_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for x in (100.0, 400.0, 700.0):
        want = float(mpmath.expint(1, x))
        assert an.exp_integral_en(1, x) == pytest.approx(want, rel=1e-10)


def test_exp_integral_domain_errors():
    with pytest.raises(ValidationError):
        an.exp_integral_en(1, 0.0)
    with pytest.raises(ValidationError):
        an.exp_integral_en(0, 1.0)


def test_fading_formula_against_single_node_average():
    # Monte Carlo oracle: average the K=1 closed form over exponential gains
    nu, gch, gob = 0.9, 5.0, 7.0
    want = an.fading_coded_homo_distortion(1, gob, gch, nu)
    rng = np.random.Generator(np.random.Philox(5))
    h = rng.exponential(nu, 1_000_000)
    mc = np.mean([an.coded_homo_distortion(1, gob, gch * hv) for hv in h[:200_000]])
    assert mc == pytest.approx(want, rel=5e-3)


def test_fading_formula_limits():
    # huge observation SNR: the 1/gamma_ob summand vanishes
    nu, gch = 0.9, 5.0
    z = 1.0 / (nu * gch)
    e1 = math.exp(z) * an.exp_integral_en(1, z)
    e2 = math.exp(z) * an.exp_integral_en(2, z)
    want = 1.0 * (e1 / (nu * gch) + 9 * e2 / (nu * gch)) / 10
    got = an.fading_coded_homo_distortion(10, 1e12, gch, nu)
    assert got == pytest.approx(want, rel=1e-9)
    # distortion shrinks with more nodes
    assert an.fading_coded_homo_distortion(10, 7.0, gch, nu) < \
        an.fading_coded_homo_distortion(1, 7.0, gch, nu)


def test_fading_formula_scale_invariance():
    base = an.fading_coded_homo_distortion(4, 7.0, 5.0, 0.9)
    other = an.fading_coded_homo_distortion(4, 7.0, 0.5, 9.0)
    assert other == pytest.approx(base, rel=1e-12)
