"""The coded-vs-uncoded boundaries against exact rational arithmetic, over
SNRs from 1e-300 to 1e308: the crossover node counts and the channel-SNR
roots are the exact roots rounded once, and the heterogeneous condition
gives the exact verdict."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from sensefuse import analytic as an
from sensefuse.model import SystemModel

EPS = Fraction(math.ulp(1.0))
FLOAT_MAX = Fraction(sys.float_info.max)
CORNERS = [(x, y) for x in (1e-300, 1e300) for y in (1e-300, 1e300)]


def _snr_pairs(seed, n, lo=-300.0, hi=300.0):
    exponents = np.random.default_rng(seed).uniform(lo, hi, (n, 2))
    return [(float(10.0 ** a), float(10.0 ** b)) for a, b in exponents] + CORNERS


# ---------------------------------------------------------------------------
# crossover node counts
# ---------------------------------------------------------------------------

def test_individual_crossover_is_the_exact_root_rounded_once():
    for gob, gch in _snr_pairs(81, 2000):
        o, c = Fraction(gob), Fraction(gch)
        root = 2 + 1 / c + (c + 1) * (2 * c + 1) / (o * c)
        # the root of the homogeneous condition o ((K-2) c - 1) = (c+1)(2c+1)
        assert o * ((root - 2) * c - 1) == (c + 1) * (2 * c + 1)
        got = an.crossover_node_count(gob, gch)
        assert got == (math.inf if root > FLOAT_MAX else float(root)), (gob, gch)


def _total_power_gap(o, g, k):
    """k^2 times the homogeneous condition's uncoded-minus-coded margin at
    gamma_ch = g/k: negative exactly where coded wins at k nodes."""
    return o * ((k - 2) * k * g - k * k) - (g + k) * (2 * g + k)


def _total_power_pairs():
    rng = np.random.default_rng(82)
    pairs = _snr_pairs(83, 2000)
    # a = gamma_ob gamma_total - gamma_ob - 1 near 0, on both sides
    for gob in 10.0 ** rng.uniform(-300.0, 300.0, 200):
        gt = 1.0 + 1.0 / float(gob)
        pairs += [(float(gob), gt + step * math.ulp(gt)) for step in range(-3, 4)]
    return pairs


def test_total_crossover_brackets_the_exact_root():
    roots = no_crossover = 0
    for gob, gt in _total_power_pairs():
        o, g = Fraction(gob), Fraction(gt)
        if o * g - o - 1 <= 0:
            with pytest.raises(an._NoCrossover, match="no crossover"):
                an.crossover_node_count_total(gob, gt)
            no_crossover += 1
            continue
        got = an.crossover_node_count_total(gob, gt)
        assert not math.isnan(got)
        if got == math.inf:
            # the exact root lies beyond the float maximum (to rounding)
            assert _total_power_gap(o, g, FLOAT_MAX * (1 - 4 * EPS)) < 0, (gob, gt)
        else:
            k = Fraction(got)
            assert (_total_power_gap(o, g, k * (1 - 4 * EPS)) < 0
                    < _total_power_gap(o, g, k * (1 + 4 * EPS))), (gob, gt)
        roots += 1
    assert roots > 500 and no_crossover > 500


def test_crossover_counts_at_the_paper_example():
    assert an.crossover_node_count(7.0, 5.0) == float(
        2 + Fraction(1, 5) + Fraction(66, 35))
    assert an.crossover_node_count_total(7.0, 5.0) == 3.6548338013189103
    # a crossover beyond 1e9 nodes is a root like any other
    assert an.crossover_node_count(1e-9, 5.0) == 13200000002.199999


# ---------------------------------------------------------------------------
# channel-SNR roots
# ---------------------------------------------------------------------------

def _channel_polynomial(k, o, g):
    """2 g^2 - ((k-2) o - 3) g + o + 1: negative exactly where uncoded wins."""
    return 2 * g * g - ((k - 2) * o - 3) * g + o + 1


@pytest.mark.parametrize("gob", [1e8, 1e12])
@pytest.mark.parametrize("k", [3, 5, 10, 50])
def test_channel_roots_flip_the_verdict_at_the_neighbouring_floats(k, gob):
    g1, g2 = an.coded_region_channel_roots(k, gob)
    assert an.coded_wins_homo(k, gob, math.nextafter(g1, 0.0))
    assert not an.coded_wins_homo(k, gob, math.nextafter(g1, math.inf))
    assert not an.coded_wins_homo(k, gob, math.nextafter(g2, 0.0))
    assert an.coded_wins_homo(k, gob, math.nextafter(g2, math.inf))


def test_channel_roots_stay_finite_at_huge_observation_snr():
    g1, g2 = an.coded_region_channel_roots(5, 1e200)
    assert g1 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert g2 == pytest.approx(1.5e200, rel=1e-15)


def test_channel_roots_are_the_exact_roots_to_1e_15():
    rng = np.random.default_rng(86)
    cases = [(int(k), float(10.0 ** e))
             for k, e in zip(rng.integers(3, 1000, 2000), rng.uniform(-12.0, 300.0, 2000))]
    # the discriminant changes sign at gamma_ob_star
    for k in (3, 4, 5, 10, 100):
        star = an.gamma_ob_star(k)
        cases += [(k, star), (k, math.nextafter(star, 0.0)),
                  (k, math.nextafter(star, math.inf))]
    tol = Fraction(1, 10 ** 15)
    with_roots = 0
    for k, gob in cases:
        o = Fraction(gob)
        roots = an.coded_region_channel_roots(k, gob)
        b = (k - 2) * o - 3
        if b <= 0 or b * b < 8 * (o + 1):
            assert roots is None, (k, gob)
            continue
        with_roots += 1
        for r in map(Fraction, roots):
            assert (_channel_polynomial(k, o, r * (1 - tol))
                    * _channel_polynomial(k, o, r * (1 + tol)) <= 0), (k, gob)
        _assert_roots_bound_the_uncoded_region(k, gob, roots)
    assert with_roots > 1000


def _assert_roots_bound_the_uncoded_region(k, gob, roots):
    """coded_wins_homo agrees with the roots: coded wins below the lower
    root and above the upper one, and loses between two distinct roots."""
    g1, g2 = roots
    assert 0 < g1 <= g2, (k, gob)
    assert an.coded_wins_homo(k, gob, g1 * (1 - 1e-12)), (k, gob)
    if g2 < math.inf:
        assert an.coded_wins_homo(k, gob, g2 * (1 + 1e-12)), (k, gob)
    if g2 > g1 * (1 + 1e-9):
        assert not an.coded_wins_homo(k, gob, math.sqrt(g1) * math.sqrt(g2)), (k, gob)


def test_channel_roots_are_none_when_both_would_be_negative():
    # (K-2) gamma_ob <= 3: the roots' product (gamma_ob + 1) / 2 is positive
    # and their sum is not, so a real pair of roots is negative and coded
    # wins at every positive channel SNR
    assert an.coded_region_channel_roots(3, 0.01) is None
    assert all(an.coded_wins_homo(3, 0.01, float(g)) for g in np.geomspace(1e-9, 1e9, 73))
    for k in (3, 4, 5, 11, 302):
        edge = 3.0 / (k - 2)
        for gob in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            assert an.coded_region_channel_roots(k, gob) is None, (k, gob)
            assert all(an.coded_wins_homo(k, gob, float(g))
                       for g in np.geomspace(1e-9, 1e9, 19)), (k, gob)
        # below the smaller zero of the discriminant in gamma_ob, the roots
        # are real and negative
        for gob in (1e-12, 0.01 / k, 0.05 / (k - 2)):
            o = Fraction(gob)
            assert ((k - 2) * o - 3) ** 2 >= 8 * (o + 1), (k, gob)
            assert an.coded_region_channel_roots(k, gob) is None, (k, gob)


@pytest.mark.parametrize("k", [3, 4, 5, 11, 302])
def test_channel_roots_agree_with_the_verdict(k):
    star = an.gamma_ob_star(k)
    for gob in (math.nextafter(star, math.inf), 1.01 * star, 2.0 * star, 1e3 * star, 1e100):
        _assert_roots_bound_the_uncoded_region(k, gob, an.coded_region_channel_roots(k, gob))


# ---------------------------------------------------------------------------
# heterogeneous condition
# ---------------------------------------------------------------------------

def _exact_hetero_verdict(gob, gch):
    q = s = Fraction(0)
    for o, c in zip(map(Fraction, gob), map(Fraction, gch)):
        q += o / ((1 + c + o) * c)
        s += o / (1 + c + o)
    return q + 2 * s > s * s


def _near_boundary_models(seed, n):
    """Homogeneous boundary models perturbed per node by ~1e-15."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        k = int(rng.integers(3, 13))
        gch = float(10.0 ** rng.uniform(-0.9, 3.0))
        if (k - 2) * gch <= 1.0:
            continue
        gob = (gch + 1.0) * (2.0 * gch + 1.0) / ((k - 2) * gch - 1.0)
        out.append(([float(x) for x in gob * (1.0 + 1e-15 * rng.standard_normal(k))],
                    [float(x) for x in gch * (1.0 + 1e-15 * rng.standard_normal(k))]))
    return out


def _extreme_models(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 13))
        out.append(([float(10.0 ** e) for e in rng.uniform(-300.0, 308.0, k)],
                    [float(10.0 ** e) for e in rng.uniform(-300.0, 308.0, k)]))
    return out


@pytest.mark.parametrize("name, cases", [
    ("near boundary", _near_boundary_models(84, 4000)),
    ("extreme SNRs", _extreme_models(85, 2000) + [
        # 1 + g_ch + g_ob overflows on the first five nodes
        ([1e308] * 5 + [1.0], [1e308] * 5 + [1.0]),
        # (1 + g_ch + g_ob) g_ch overflows on the last node
        ([123.5, 123.5, 8e307], [100.0, 100.0, 3.0]),
        # the subnormal node adds 1 to q
        ([404.0] * 3 + [5e-324], [100.0] * 3 + [5e-324]),
        ([5.5e-110], [3.9e224]),
    ]),
])
def test_coded_wins_hetero_is_exact(name, cases):
    wrong = [(gob, gch) for gob, gch in cases
             if an.coded_wins_hetero(SystemModel.from_snrs(gob, gch))
             != _exact_hetero_verdict(gob, gch)]
    assert wrong == []
