"""Closed-form distortion expressions, optimality conditions, and BLUE fusion.

The central quantities, for node k with observation SNR ``g_ob`` and
channel SNR ``g_ch``:

* ``u_k = 1/(1 + g_ch)`` and
  ``lambda_k = (1 + g_ch + g_ob) g_ch / ((1 + g_ch)^2 g_ob)``
  parameterize the coded-system noise covariance as a diagonal plus a
  rank-one term ``sigma_theta^2 (diag(lambda) + u u^T)``;
* ``d_k = 1/g_ob + 1/g_ch + 1/(g_ob g_ch)`` is the per-node normalized
  noise power of the amplify-and-forward (uncoded) route.

All distortions are mean-squared errors of the best linear unbiased
estimator (BLUE) with weights summing to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

from .model import (
    CodingPolicy,
    SystemModel,
    ValidationError,
    check_policy,
    derived_noise_powers,
    validate,
)

__all__ = [
    "DistortionBreakdown",
    "quantization_cross_moments",
    "total_noise_covariance",
    "hybrid_noise_covariance",
    "blue_distortion",
    "blue_weights",
    "coded_hetero_distortion",
    "coded_homo_distortion",
    "coded_homo_distortion_limit",
    "uncoded_hetero_distortion",
    "uncoded_homo_distortion",
    "limiting_distortion",
    "total_power_distortions",
    "total_power_distortion_limits",
    "coded_wins_homo",
    "coded_wins_total",
    "coded_wins_hetero",
    "gamma_ob_star",
    "coded_region_channel_roots",
    "coded_max_nodes",
    "hybrid_distortion",
    "sherman_morrison_check",
    "exp_integral_en",
    "fading_coded_homo_distortion",
    "amplifier_gain",
    "crossover_node_count",
    "crossover_node_count_total",
    "link_terms",
]


@dataclass(frozen=True)
class DistortionBreakdown:
    """A hybrid distortion together with its reciprocal additive terms.

    ``per_term`` holds the coded-set contribution first (0 when no node is
    coded) and then one term per uncoded node; the terms sum to
    ``1 / total``.
    """

    total: float
    per_term: tuple[float, ...]


# ---------------------------------------------------------------------------
# covariance construction
# ---------------------------------------------------------------------------

def quantization_cross_moments(sigma_theta_sq: float, sigma_ob_sq: float,
                               sigma_qu_sq: float) -> tuple[float, float]:
    """Cross moments E[n_qu n_ob] and E[n_qu theta] of the test channel.

    Both equal sigma_qu^2 times the respective power share of the noisy
    observation: E[n_qu n_ob] = sigma_ob^2 sigma_qu^2 / (sigma_ob^2 +
    sigma_theta^2) and E[n_qu theta] = sigma_theta^2 sigma_qu^2 /
    (sigma_ob^2 + sigma_theta^2).
    """
    for name, v in (("sigma_theta_sq", sigma_theta_sq),
                    ("sigma_ob_sq", sigma_ob_sq),
                    ("sigma_qu_sq", sigma_qu_sq)):
        if not (v > 0) or math.isinf(v):
            raise ValidationError(f"nonpositive or non-finite {name}: {v!r}")
    denom = sigma_ob_sq + sigma_theta_sq
    return sigma_ob_sq * sigma_qu_sq / denom, sigma_theta_sq * sigma_qu_sq / denom


def total_noise_covariance(model: SystemModel) -> np.ndarray:
    """Covariance of the total noise n = n_qu - n_ob of an all-coded system.

    Diagonal entries are sigma_ob^2 + sigma_qu^2 - 2 sigma_ob^2 sigma_qu^2 /
    (sigma_theta^2 + sigma_ob^2); off-diagonal entries couple nodes k != j
    through the source: sigma_theta^2 sigma_qu_k^2 sigma_qu_j^2 /
    ((sigma_theta^2 + sigma_ob_k^2)(sigma_theta^2 + sigma_ob_j^2)).
    """
    validate(model)
    st = model.sigma_theta_sq
    k_nodes = model.n_nodes
    ob = np.empty(k_nodes)
    qu = np.empty(k_nodes)
    for k in range(k_nodes):
        ob[k], qu[k] = derived_noise_powers(model, k)
    ratio = qu / (st + ob)  # equals u_k = 1/(1+gamma_ch)
    cov = st * np.outer(ratio, ratio)
    np.fill_diagonal(cov, ob + qu - 2.0 * ob * qu / (st + ob))
    return cov


def hybrid_noise_covariance(model: SystemModel, policy: CodingPolicy) -> np.ndarray:
    """Block noise covariance of a hybrid system in the original node order.

    Coded nodes carry the correlated total-noise block; uncoded nodes are
    mutually independent with per-node power sigma_theta^2 d_k; the two
    blocks are uncorrelated.
    """
    validate(model)
    check_policy(model, policy)
    st = model.sigma_theta_sq
    n = model.n_nodes
    full = total_noise_covariance(model)
    cov = np.zeros((n, n))
    coded = [k for k in range(n) if policy.rho[k] == 1]
    for i in coded:
        for j in coded:
            cov[i, j] = full[i, j]
    for k in range(n):
        if policy.rho[k] == 0:
            g = model.links[k]
            d_k = 1.0 / g.gamma_ob + 1.0 / g.gamma_ch + 1.0 / (g.gamma_ob * g.gamma_ch)
            cov[k, k] = st * d_k
    return cov


# ---------------------------------------------------------------------------
# BLUE fusion
# ---------------------------------------------------------------------------

def _cho_solve_ones(cov) -> np.ndarray:
    m = np.asarray(cov, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {m.shape}")
    ones = np.ones(m.shape[0])
    try:
        factor = scipy.linalg.cho_factor(m, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(
            f"noise covariance is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(factor, ones)


def blue_distortion(cov) -> float:
    """Minimum MSE (1^T Sigma^-1 1)^-1 via a Cholesky solve, never an inverse."""
    w = _cho_solve_ones(cov)
    return 1.0 / float(np.sum(w))


def blue_weights(cov) -> np.ndarray:
    """Optimal fusion weights f = Sigma^-1 1 / (1^T Sigma^-1 1), renormalized."""
    w = _cho_solve_ones(cov)
    f = w / np.sum(w)
    return f / np.sum(f)


# ---------------------------------------------------------------------------
# per-node terms shared by the closed forms and the policy searches
# ---------------------------------------------------------------------------

def link_terms(model: SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node arrays (1/lambda, u/lambda, u^2/lambda, 1/d).

    The first three accumulate the coded-set part of the hybrid reciprocal
    distortion; the last is the uncoded per-node contribution.
    """
    return _link_terms_of(model.gamma_ob_array(), model.gamma_ch_array())


def _link_terms_of(gob: np.ndarray, gch: np.ndarray):
    """:func:`link_terms` of SNR arrays of any shape; elementwise, so a
    stacked (instances, nodes) batch gives every row bit for bit."""
    return (*_coded_link_terms(gob, gch), 1.0 / _uncoded_noise(gob, gch))


def _coded_link_terms(gob, gch):
    """The coded part 1/lambda, u/lambda, u^2/lambda of :func:`link_terms`,
    elementwise.  Yielded one at a time, so a caller that reduces each term
    as it comes (the fading Monte Carlo, on (blocks, nodes) chunks) never
    holds all three temporaries at once, which measurably slows it."""
    u = 1.0 / (1.0 + gch)
    lam = (1.0 + gch + gob) * gch / ((1.0 + gch) ** 2 * gob)
    yield 1.0 / lam
    yield u / lam
    yield u * u / lam


def _uncoded_noise(gob, gch):
    """Normalized amplify-and-forward noise power d, elementwise on floats
    or arrays."""
    return 1.0 / gob + 1.0 / gch + 1.0 / (gob * gch)


def _coded_inverse_term(a_sum, b_sum, c_sum):
    """Reciprocal coded-set distortion (in units of 1/sigma_theta^2) from the
    sums of 1/lambda, u/lambda and u^2/lambda over the coded nodes; the one
    place the rank-one term is written, so every evaluator agrees bit for
    bit.  Elementwise on floats or arrays."""
    return a_sum - b_sum * b_sum / (1.0 + c_sum)


def _coded_distortion_rows(gob, gch, sigma_theta_sq: float):
    """All-coded distortion of each row of SNR arrays (nodes on the last
    axis)."""
    return sigma_theta_sq / _coded_inverse_term(
        *(term.sum(axis=-1) for term in _coded_link_terms(gob, gch)))


def _uncoded_distortion_rows(gob, gch, sigma_theta_sq: float):
    """Amplify-and-forward distortion of each row of SNR arrays (nodes on
    the last axis)."""
    return sigma_theta_sq / (1.0 / _uncoded_noise(gob, gch)).sum(axis=-1)


# ---------------------------------------------------------------------------
# distortions
# ---------------------------------------------------------------------------

def coded_hetero_distortion(model: SystemModel) -> float:
    """Minimum distortion of an all-coded heterogeneous system.

    D = sigma_theta^2 (sum 1/lambda_k
        - (sum u_k/lambda_k)^2 / (1 + sum u_k^2/lambda_k))^-1.
    """
    validate(model)
    return float(_coded_distortion_rows(model.gamma_ob_array(), model.gamma_ch_array(),
                                        model.sigma_theta_sq))


def coded_homo_distortion(n_nodes: int, gamma_ob: float, gamma_ch: float,
                          sigma_theta_sq: float = 1.0) -> float:
    """All-coded homogeneous distortion.

    D = (sigma_theta^2/K) (gamma_ch/((1+gamma_ch) gamma_ob)
        + (K+gamma_ch)/(1+gamma_ch)^2).
    """
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    k = float(n_nodes)
    return sigma_theta_sq / k * (
        gamma_ch / ((1.0 + gamma_ch) * gamma_ob)
        + (k + gamma_ch) / (1.0 + gamma_ch) ** 2)


def coded_homo_distortion_limit(gamma_ch: float, sigma_theta_sq: float = 1.0) -> float:
    """K -> infinity limit of the all-coded homogeneous distortion."""
    return sigma_theta_sq / (1.0 + gamma_ch) ** 2


def uncoded_hetero_distortion(model: SystemModel) -> float:
    """Amplify-and-forward distortion: D = sigma_theta^2 (sum_k 1/d_k)^-1."""
    validate(model)
    return float(_uncoded_distortion_rows(model.gamma_ob_array(), model.gamma_ch_array(),
                                          model.sigma_theta_sq))


def uncoded_homo_distortion(n_nodes: int, gamma_ob: float, gamma_ch: float,
                            sigma_theta_sq: float = 1.0) -> float:
    """Uncoded homogeneous distortion (sigma_theta^2/K) d with
    d = 1/gamma_ob + 1/gamma_ch + 1/(gamma_ob gamma_ch)."""
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    return sigma_theta_sq * _uncoded_noise(gamma_ob, gamma_ch) / n_nodes


def hybrid_distortion(model: SystemModel, policy: CodingPolicy) -> DistortionBreakdown:
    """Distortion of a hybrid system: coded-set rank-one term plus the
    uncoded per-node terms, combined reciprocally.

    An all-ones policy reduces to the all-coded heterogeneous form and an
    all-zeros policy to the amplify-and-forward form.
    """
    validate(model)
    check_policy(model, policy)
    return _hybrid_breakdown(link_terms(model), model.sigma_theta_sq, policy.rho)


def _hybrid_breakdown(terms, sigma_theta_sq: float, rho) -> DistortionBreakdown:
    """:func:`hybrid_distortion` from precomputed :func:`link_terms` and a
    policy as a bit sequence.  Callers that evaluate many policies of one
    model (the policy searches, the random-error study) go through it, so
    their distortions equal ``hybrid_distortion`` bit for bit."""
    a, b, c, e = terms
    rho = np.array(rho, dtype=bool)
    coded_term = _coded_inverse_term(
        float(a[rho].sum()), float(b[rho].sum()), float(c[rho].sum()))
    per_term = [coded_term / sigma_theta_sq] + [float(v) / sigma_theta_sq for v in e[~rho]]
    total = 1.0 / math.fsum(per_term)
    return DistortionBreakdown(total=total, per_term=tuple(per_term))


def amplifier_gain(power: float, sigma_theta_sq: float, sigma_ob_sq: float) -> float:
    """Amplify-and-forward power gain alpha = P / (sigma_theta^2 + sigma_ob^2)."""
    return power / (sigma_theta_sq + sigma_ob_sq)


# ---------------------------------------------------------------------------
# limiting cases
# ---------------------------------------------------------------------------

_REGIMES = ("zero", "finite", "inf")


def limiting_distortion(scheme: str, ob_regime: str, ch_regime: str,
                        n_nodes: int, gamma_ob: Optional[float] = None,
                        gamma_ch: Optional[float] = None,
                        sigma_theta_sq: float = 1.0) -> float:
    """Closed-form homogeneous distortion limit for extreme SNR regimes.

    ``ob_regime`` and ``ch_regime`` are each "zero", "finite", or "inf";
    a finite axis requires the corresponding SNR value.  Returns
    ``math.inf`` for divergent entries.  The double limit (gamma_ob -> 0,
    gamma_ch -> 0) of the coded scheme is path dependent; the value
    returned takes the channel limit first, which pins the distortion at
    sigma_theta^2 for every gamma_ob.  The uncoded scheme diverges whenever
    gamma_ch -> 0 (the amplify-and-forward noise term 1/gamma_ch blows up
    regardless of gamma_ob), and whenever gamma_ob -> 0.
    """
    if scheme not in ("coded", "uncoded"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    if ob_regime not in _REGIMES or ch_regime not in _REGIMES:
        raise ValidationError(
            f"unknown regime ({ob_regime!r}, {ch_regime!r}); "
            f"expected one of {_REGIMES}")
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    if ob_regime == "finite" and gamma_ob is None:
        raise ValidationError("finite observation regime requires gamma_ob")
    if ch_regime == "finite" and gamma_ch is None:
        raise ValidationError("finite channel regime requires gamma_ch")
    st = sigma_theta_sq
    k = float(n_nodes)

    if scheme == "coded":
        if ch_regime == "zero":
            return st
        if ob_regime == "zero":
            return math.inf
        if ch_regime == "inf":
            if ob_regime == "inf":
                return 0.0
            return st / (k * gamma_ob)
        # ch finite
        if ob_regime == "inf":
            return st * (k + gamma_ch) / (k * (1.0 + gamma_ch) ** 2)
        return coded_homo_distortion(n_nodes, gamma_ob, gamma_ch, st)

    # uncoded
    if ob_regime == "zero" or ch_regime == "zero":
        return math.inf
    if ob_regime == "inf" and ch_regime == "inf":
        return 0.0
    if ob_regime == "inf":
        return st / (k * gamma_ch)
    if ch_regime == "inf":
        return st / (k * gamma_ob)
    return uncoded_homo_distortion(n_nodes, gamma_ob, gamma_ch, st)


# ---------------------------------------------------------------------------
# total power constraint
# ---------------------------------------------------------------------------

def total_power_distortions(n_nodes: float, gamma_ob: float, gamma_total: float,
                            sigma_theta_sq: float = 1.0) -> tuple[float, float]:
    """(coded, uncoded) distortions when K P = P_total is fixed.

    Equivalent to the individual-power formulas with gamma_ch =
    gamma_total / K; accepts fractional K so crossover roots can be located
    in continuous node count.
    """
    if n_nodes <= 0:
        raise ValidationError(f"node count must be positive, got {n_nodes}")
    k = float(n_nodes)
    st = sigma_theta_sq
    coded = st * (gamma_total / (k * (k + gamma_total) * gamma_ob)
                  + (k * k + gamma_total) / (k + gamma_total) ** 2)
    uncoded = st * (1.0 / (k * gamma_ob) + 1.0 / gamma_total
                    + 1.0 / (gamma_ob * gamma_total))
    return coded, uncoded


def total_power_distortion_limits(gamma_ob: float, gamma_total: float,
                                  sigma_theta_sq: float = 1.0) -> tuple[float, float]:
    """K -> infinity limits: coded converges to sigma_theta^2, uncoded to
    sigma_theta^2 (1/gamma_total + 1/(gamma_ob gamma_total))."""
    return (sigma_theta_sq,
            sigma_theta_sq * (1.0 / gamma_total + 1.0 / (gamma_ob * gamma_total)))


# ---------------------------------------------------------------------------
# coded-vs-uncoded conditions (exact rational arithmetic on polynomial forms)
# ---------------------------------------------------------------------------

def coded_wins_homo(n_nodes: int, gamma_ob: float, gamma_ch: float) -> bool:
    """True iff the coded scheme strictly beats the uncoded one
    (homogeneous, individual power).

    For K <= 2 the coded scheme always wins.  For K >= 3 the condition is
    gamma_ob ((K-2) gamma_ch - 1) < (gamma_ch+1)(2 gamma_ch+1), evaluated
    exactly on the float inputs so boundary verdicts never flip from
    rounding; when (K-2) gamma_ch <= 1 it holds vacuously.  Exact ties
    (equal distortions) count as a loss for the coded scheme.
    """
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    if n_nodes <= 2:
        return True
    gob = Fraction(gamma_ob)
    gch = Fraction(gamma_ch)
    return gob * ((n_nodes - 2) * gch - 1) < (gch + 1) * (2 * gch + 1)


def coded_wins_total(n_nodes: int, gamma_ob: float, gamma_total: float) -> bool:
    """Total-power analogue of :func:`coded_wins_homo`:
    gamma_ob ((K^2-2K) gamma_total - K^2) < (gamma_total+K)(2 gamma_total+K)."""
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    if n_nodes <= 2:
        return True
    k = n_nodes
    gob = Fraction(gamma_ob)
    gt = Fraction(gamma_total)
    return gob * ((k * k - 2 * k) * gt - k * k) < (gt + k) * (2 * gt + k)


def _hetero_condition_sums(gob, gch):
    """(sum q_k, sum s_k) with q_k = g_ob/((1+g_ch+g_ob) g_ch) and
    s_k = g_ob/(1+g_ch+g_ob); works for float or Fraction sequences."""
    q = s = None
    for o, c in zip(gob, gch):
        denom = 1 + c + o
        qk = o / (denom * c)
        sk = o / denom
        q = qk if q is None else q + qk
        s = sk if s is None else s + sk
    return q, s


def coded_wins_hetero(model: SystemModel) -> bool:
    """True iff the all-coded scheme strictly beats all-uncoded on this model.

    Evaluates the primary condition
        sum (1+2 g_ch) g_ob / ((1+g_ch+g_ob) g_ch) > (sum g_ob/(1+g_ch+g_ob))^2
    and its rearranged equivalent
        sum g_ob / ((1+g_ch+g_ob) g_ch) + 1 > (sum g_ob/(1+g_ch+g_ob) - 1)^2,
    asserting that the two verdicts agree.  When floating evaluation of the
    two forms disagrees (possible only within rounding distance of the
    boundary) both are recomputed in exact rational arithmetic, where they
    coincide identically.
    """
    validate(model)
    gob = [ln.gamma_ob for ln in model.links]
    gch = [ln.gamma_ch for ln in model.links]

    def verdicts(q, s):
        primary = q + 2 * s > s * s
        rearranged = q + 1 > (s - 1) * (s - 1)
        return primary, rearranged

    q, s = _hetero_condition_sums(gob, gch)
    primary, rearranged = verdicts(q, s)
    if primary != rearranged:
        q, s = _hetero_condition_sums(
            [Fraction(x) for x in gob], [Fraction(x) for x in gch])
        primary, rearranged = verdicts(q, s)
    if primary != rearranged:
        raise AssertionError(
            "equivalent heterogeneous conditions disagree under exact arithmetic")
    return primary


def gamma_ob_star(n_nodes: int) -> float:
    """Observation-SNR bound below which coded wins for every channel SNR:
    (3K-2 + 2 sqrt(2(K^2-K))) / (K-2)^2, defined for K >= 3."""
    if n_nodes < 3:
        raise ValidationError(f"gamma_ob_star requires K >= 3, got {n_nodes}")
    k = float(n_nodes)
    return (3.0 * k - 2.0 + 2.0 * math.sqrt(2.0 * (k * k - k))) / (k - 2.0) ** 2


def coded_region_channel_roots(n_nodes: int, gamma_ob: float
                               ) -> Optional[tuple[float, float]]:
    """Channel-SNR interval endpoints (gamma_ch1, gamma_ch2) where the
    uncoded scheme wins; None when the discriminant
    (K-2)^2 gamma_ob^2 - (6K-4) gamma_ob + 1 is negative (no real roots).
    """
    if n_nodes < 3:
        raise ValidationError(f"channel roots require K >= 3, got {n_nodes}")
    k = float(n_nodes)
    disc = (k - 2.0) ** 2 * gamma_ob ** 2 - (6.0 * k - 4.0) * gamma_ob + 1.0
    if disc < 0:
        return None
    root = math.sqrt(disc)
    base = (k - 2.0) * gamma_ob - 3.0
    return (base - root) / 4.0, (base + root) / 4.0


def coded_max_nodes(gamma_ob: float, gamma_ch: float) -> float:
    """Largest (continuous) node count for which coded still wins:
    K = 2 + 1/gamma_ch + (gamma_ch+1)(2 gamma_ch+1)/(gamma_ob gamma_ch)."""
    return 2.0 + 1.0 / gamma_ch + (gamma_ch + 1.0) * (2.0 * gamma_ch + 1.0) / (
        gamma_ob * gamma_ch)


# ---------------------------------------------------------------------------
# crossover roots in continuous node count
# ---------------------------------------------------------------------------

def crossover_node_count(gamma_ob: float, gamma_ch: float,
                         sigma_theta_sq: float = 1.0) -> float:
    """Continuous K where the homogeneous coded and uncoded distortions
    cross (individual power constraint), found by bracketed root finding."""
    d = _uncoded_noise(gamma_ob, gamma_ch)

    def delta(k: float) -> float:
        # (st/k) d, not uncoded_homo_distortion's (st d)/k, which rounds
        # differently and moves the roots
        uncoded = sigma_theta_sq / k * d
        return coded_homo_distortion(k, gamma_ob, gamma_ch, sigma_theta_sq) - uncoded

    lo, hi = 1.0, 2.0
    while delta(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError(
                "no crossover: coded wins for every tested node count")
    return scipy.optimize.brentq(delta, lo, hi, xtol=1e-10, rtol=1e-14)


def crossover_node_count_total(gamma_ob: float, gamma_total: float,
                               sigma_theta_sq: float = 1.0) -> float:
    """Continuous K where the total-power coded and uncoded distortions cross."""

    def delta(k: float) -> float:
        coded, uncoded = total_power_distortions(k, gamma_ob, gamma_total,
                                                 sigma_theta_sq)
        return coded - uncoded

    lo, hi = 1.0, 2.0
    while delta(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError(
                "no crossover: coded wins for every tested node count")
    return scipy.optimize.brentq(delta, lo, hi, xtol=1e-10, rtol=1e-14)


# ---------------------------------------------------------------------------
# rank-one identity check
# ---------------------------------------------------------------------------

def sherman_morrison_check(model: SystemModel) -> float:
    """Invert the coded noise covariance both by the rank-one update identity
    and by a generic factorization; return the max elementwise relative
    deviation between the two inverses.

    The covariance decomposes as Lambda + b u u^T with Lambda =
    sigma_theta^2 diag(lambda_k), u_k = 1/(1+gamma_ch_k), b = sigma_theta^2.
    """
    validate(model)
    if model.n_nodes > 64:
        raise ValidationError("rank-one check is limited to K <= 64")
    gob = model.gamma_ob_array()
    gch = model.gamma_ch_array()
    st = model.sigma_theta_sq
    u = 1.0 / (1.0 + gch)
    lam_prime = st * (1.0 + gch + gob) * gch / ((1.0 + gch) ** 2 * gob)
    cov = np.diag(lam_prime) + st * np.outer(u, u)

    # rank-one route
    inv_lam = 1.0 / lam_prime
    w = inv_lam * u
    denom = 1.0 + st * float(u @ w)
    inv_rank_one = np.diag(inv_lam) - (st / denom) * np.outer(w, w)

    # generic route
    inv_generic = scipy.linalg.inv(cov)

    scale = np.maximum(np.abs(inv_rank_one), np.abs(inv_generic))
    scale[scale == 0.0] = 1.0
    return float(np.max(np.abs(inv_rank_one - inv_generic) / scale))


# ---------------------------------------------------------------------------
# special functions and block fading
# ---------------------------------------------------------------------------

def exp_integral_en(n: int, x: float) -> float:
    """Exponential integral E_n(x) = int_1^inf t^-n e^(-x t) dt for x > 0.

    Backed by scipy's expn, which is accurate well past the 1e-10 relative
    target on x in [1e-6, 700] and satisfies the downward recurrence
    E_{n+1}(x) = (e^-x - x E_n(x)) / n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"order must be an integer >= 1, got {n!r}")
    if not x > 0:
        raise ValidationError(f"argument must be positive, got {x!r}")
    return float(scipy.special.expn(int(n), x))


def _exp_scaled_en(n: int, x: float) -> float:
    """e^x E_n(x), stable for arbitrarily large x via the asymptotic series."""
    if x <= 700.0:
        return math.exp(x) * float(scipy.special.expn(n, x))
    # E_n(x) ~ e^-x/x (1 - n/x + n(n+1)/x^2 - ...): truncate at the smallest term
    total, term, i = 1.0, 1.0, 0
    while True:
        next_term = term * (-(n + i) / x)
        if abs(next_term) >= abs(term):
            break
        total += next_term
        term = next_term
        i += 1
        if abs(term) < 1e-18 * abs(total) or i > 50:
            break
    return total / x


def fading_coded_homo_distortion(n_nodes: int, gamma_ob: float, gamma_ch: float,
                                 nu: float, sigma_theta_sq: float = 1.0) -> float:
    """Average coded homogeneous distortion under block Rayleigh fading.

    The channel power gain h is exponential with mean nu, so the average of
    the instantaneous distortion has the closed form

        (sigma_theta^2/K) [ 1/gamma_ob
            + (gamma_ob-1) e^z E_1(z) / (nu gamma_ob gamma_ch)
            + (K-1) e^z E_2(z) / (nu gamma_ch) ],   z = 1/(nu gamma_ch).
    """
    if n_nodes < 1:
        raise ValidationError(f"node count must be >= 1, got {n_nodes}")
    for name, v in (("gamma_ob", gamma_ob), ("gamma_ch", gamma_ch), ("nu", nu)):
        if not v > 0:
            raise ValidationError(f"nonpositive {name}: {v!r}")
    z = 1.0 / (nu * gamma_ch)
    e1 = _exp_scaled_en(1, z)
    e2 = _exp_scaled_en(2, z)
    return sigma_theta_sq / n_nodes * (
        1.0 / gamma_ob
        + (gamma_ob - 1.0) / (nu * gamma_ob * gamma_ch) * e1
        + (n_nodes - 1.0) / (nu * gamma_ch) * e2)
