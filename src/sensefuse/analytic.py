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
import scipy.special

from .model import (
    CodingPolicy,
    SystemModel,
    ValidationError,
    _require_all_positive_finite,
    _require_count,
    _require_positive_finite,
    check_policy,
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
    "hybrid_distortion",
    "sherman_morrison_check",
    "exp_integral_en",
    "fading_coded_homo_distortion",
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
    _require_all_positive_finite(sigma_theta_sq=sigma_theta_sq, sigma_ob_sq=sigma_ob_sq,
                                 sigma_qu_sq=sigma_qu_sq)
    denom = sigma_ob_sq + sigma_theta_sq
    return sigma_ob_sq * sigma_qu_sq / denom, sigma_theta_sq * sigma_qu_sq / denom


def total_noise_covariance(model: SystemModel) -> np.ndarray:
    """Covariance sigma_theta^2 (diag(lambda) + u u^T) of the total noise
    n = n_qu - n_ob of an all-coded system."""
    return hybrid_noise_covariance(model, CodingPolicy.all_coded(model.n_nodes))


def hybrid_noise_covariance(model: SystemModel, policy: CodingPolicy) -> np.ndarray:
    """Noise covariance sigma_theta^2 (diag(v) + w w^T) of a hybrid system in
    the original node order, from the :func:`link_terms` (a, b, _, e): a
    coded node has v = lambda = 1/a and w = u = b/a, an uncoded one v = d =
    1/e and w = 0, so it is independent of every other node.
    """
    coded = np.array(check_policy(model, policy).rho, dtype=bool)
    a, b, _, e = link_terms(model)
    v = np.where(coded, 1.0 / a, 1.0 / e)
    w = np.where(coded, b / a, 0.0)
    return model.sigma_theta_sq * (np.diag(v) + np.outer(w, w))


# ---------------------------------------------------------------------------
# BLUE fusion
# ---------------------------------------------------------------------------

def _cho_solve_ones(cov) -> np.ndarray:
    m = np.asarray(cov, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("noise covariance is not finite")
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
    """Optimal fusion weights f = Sigma^-1 1 / (1^T Sigma^-1 1)."""
    w = _cho_solve_ones(cov)
    return w / np.sum(w)


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
    as it comes (the fading Monte Carlo, on node-major (K, blocks) arrays
    with ``gob`` a (K, 1) column) never holds all three temporaries at
    once, which measurably slows it.

    lambda = (1 + g_ch + g_ob) g_ch / ((1 + g_ch)^2 g_ob) is built in place
    from one array ``1 + g_ch``, in the same IEEE operations as that
    formula read left to right; the inputs must be arrays."""
    t = 1.0 + gch
    u = 1.0 / t
    lam = t + gob
    lam *= gch
    t *= t
    t *= gob
    lam /= t
    yield 1.0 / lam
    yield u / lam
    u *= u
    u /= lam
    yield u


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


def _coded_distortions(gob, gch, sigma_theta_sq: float):
    """All-coded distortion of SNR arrays with the nodes on the first axis:
    of one model (1-D arrays), or of each column of a node-major block.
    Each link term is summed over the nodes, ``sum(axis=0)``, as it comes."""
    return sigma_theta_sq / _coded_inverse_term(
        *(term.sum(axis=0) for term in _coded_link_terms(gob, gch)))


def _uncoded_distortions(gob, gch, sigma_theta_sq: float):
    """Amplify-and-forward distortion of SNR arrays with the nodes on the
    first axis, as :func:`_coded_distortions`."""
    return sigma_theta_sq / (1.0 / _uncoded_noise(gob, gch)).sum(axis=0)


# ---------------------------------------------------------------------------
# distortions
# ---------------------------------------------------------------------------

def coded_hetero_distortion(model: SystemModel) -> float:
    """Minimum distortion of an all-coded heterogeneous system.

    D = sigma_theta^2 (sum 1/lambda_k
        - (sum u_k/lambda_k)^2 / (1 + sum u_k^2/lambda_k))^-1.
    """
    return float(_coded_distortions(model.gamma_ob_array(), model.gamma_ch_array(),
                                    model.sigma_theta_sq))


def coded_homo_distortion(n_nodes: int, gamma_ob: float, gamma_ch: float,
                          sigma_theta_sq: float = 1.0) -> float:
    """All-coded homogeneous distortion.

    D = (sigma_theta^2/K) (gamma_ch/((1+gamma_ch) gamma_ob)
        + (K+gamma_ch)/(1+gamma_ch)^2).
    """
    _require_count(n_nodes, "node count")
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_ch=gamma_ch,
                                 sigma_theta_sq=sigma_theta_sq)
    k = float(n_nodes)
    return sigma_theta_sq / k * (
        gamma_ch / ((1.0 + gamma_ch) * gamma_ob)
        + (k + gamma_ch) / (1.0 + gamma_ch) ** 2)


def coded_homo_distortion_limit(gamma_ch: float, sigma_theta_sq: float = 1.0) -> float:
    """K -> infinity limit of the all-coded homogeneous distortion."""
    _require_all_positive_finite(gamma_ch=gamma_ch, sigma_theta_sq=sigma_theta_sq)
    return sigma_theta_sq / (1.0 + gamma_ch) ** 2


def uncoded_hetero_distortion(model: SystemModel) -> float:
    """Amplify-and-forward distortion: D = sigma_theta^2 (sum_k 1/d_k)^-1."""
    return float(_uncoded_distortions(model.gamma_ob_array(), model.gamma_ch_array(),
                                      model.sigma_theta_sq))


def uncoded_homo_distortion(n_nodes: int, gamma_ob: float, gamma_ch: float,
                            sigma_theta_sq: float = 1.0) -> float:
    """Uncoded homogeneous distortion (sigma_theta^2/K) d with
    d = 1/gamma_ob + 1/gamma_ch + 1/(gamma_ob gamma_ch)."""
    _require_count(n_nodes, "node count")
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_ch=gamma_ch,
                                 sigma_theta_sq=sigma_theta_sq)
    return sigma_theta_sq * _uncoded_noise(gamma_ob, gamma_ch) / n_nodes


def hybrid_distortion(model: SystemModel, policy: CodingPolicy) -> DistortionBreakdown:
    """Distortion of a hybrid system: coded-set rank-one term plus the
    uncoded per-node terms, combined reciprocally.

    An all-ones policy reduces to the all-coded heterogeneous form and an
    all-zeros policy to the amplify-and-forward form.
    """
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
    _require_count(n_nodes, "node count")
    _require_positive_finite(sigma_theta_sq, "sigma_theta_sq")
    for regime, axis, name, snr in ((ob_regime, "observation", "gamma_ob", gamma_ob),
                                    (ch_regime, "channel", "gamma_ch", gamma_ch)):
        if regime == "finite":
            if snr is None:
                raise ValidationError(f"finite {axis} regime requires {name}")
            _require_positive_finite(snr, name)
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
    gamma_total / K; accepts fractional K (continuous node count).
    """
    _require_all_positive_finite(n_nodes=n_nodes, gamma_ob=gamma_ob,
                                 gamma_total=gamma_total, sigma_theta_sq=sigma_theta_sq)
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
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_total=gamma_total,
                                 sigma_theta_sq=sigma_theta_sq)
    return (sigma_theta_sq,
            sigma_theta_sq * (1.0 / gamma_total + 1.0 / (gamma_ob * gamma_total)))


# ---------------------------------------------------------------------------
# coded-vs-uncoded conditions (exact rational arithmetic on polynomial forms)
# ---------------------------------------------------------------------------

def coded_wins_homo(n_nodes: int, gamma_ob: float, gamma_ch: float) -> bool:
    """True iff the coded scheme strictly beats the uncoded one
    (homogeneous, individual power).

    The condition is gamma_ob ((K-2) gamma_ch - 1) < (gamma_ch+1)(2 gamma_ch+1),
    evaluated exactly on the float (or ``Fraction``) inputs so boundary
    verdicts never flip from rounding.  It holds for every K <= 2, and
    whenever (K-2) gamma_ch <= 1.  Exact ties (equal distortions) count as
    a loss for the coded scheme.
    """
    _require_count(n_nodes, "node count")
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_ch=gamma_ch)
    gob = Fraction(gamma_ob)
    gch = Fraction(gamma_ch)
    return gob * ((n_nodes - 2) * gch - 1) < (gch + 1) * (2 * gch + 1)


def coded_wins_total(n_nodes: int, gamma_ob: float, gamma_total: float) -> bool:
    """Total-power analogue of :func:`coded_wins_homo`: the homogeneous
    condition at gamma_ch = gamma_total / K, taken exactly."""
    _require_count(n_nodes, "node count")
    _require_positive_finite(gamma_total, "gamma_total")
    return coded_wins_homo(n_nodes, gamma_ob, Fraction(gamma_total) / n_nodes)


def _hetero_condition_sums(gob, gch):
    """(sum q_k, sum s_k) with q_k = g_ob/((1+g_ch+g_ob) g_ch) and
    s_k = g_ob/(1+g_ch+g_ob); works for float or Fraction sequences."""
    return (sum(o / ((1 + c + o) * c) for o, c in zip(gob, gch)),
            sum(o / (1 + c + o) for o, c in zip(gob, gch)))


def coded_wins_hetero(model: SystemModel) -> bool:
    """True iff the all-coded scheme strictly beats all-uncoded on this model:
    q + 2 s > s^2, with q and s the sums of :func:`_hetero_condition_sums`.

    The margin q + 2s - s^2 is computed in floats and trusted when it
    exceeds its rounding bound 4 (K+8) eps (q + 2s + s^2); otherwise, or
    when an SNR lies outside 1e-150..1e150 (where a float step could
    overflow, or underflow by more than the bound), it is recomputed in
    exact rational arithmetic.  So the verdict is exact for every valid
    model.  Exact ties count as a loss for the coded scheme.
    """
    gob = [ln.gamma_ob for ln in model.links]
    gch = [ln.gamma_ch for ln in model.links]
    if 1e-150 <= min(gob + gch) and max(gob + gch) <= 1e150:
        q, s = _hetero_condition_sums(gob, gch)
        margin = q + 2.0 * s - s * s
        if abs(margin) > 4.0 * (len(gob) + 8) * math.ulp(1.0) * (q + 2.0 * s + s * s):
            return margin > 0
    q, s = _hetero_condition_sums([Fraction(x) for x in gob], [Fraction(x) for x in gch])
    return q + 2 * s > s * s


def gamma_ob_star(n_nodes: int) -> float:
    """Observation-SNR bound below which coded wins for every channel SNR:
    (3K-2 + 2 sqrt(2(K^2-K))) / (K-2)^2, defined for K >= 3."""
    _require_count(n_nodes, "node count", 3)
    k = float(n_nodes)
    return (3.0 * k - 2.0 + 2.0 * math.sqrt(2.0 * (k * k - k))) / (k - 2.0) ** 2


def coded_region_channel_roots(n_nodes: int, gamma_ob: float
                               ) -> Optional[tuple[float, float]]:
    """Channel-SNR interval endpoints (gamma_ch1, gamma_ch2) where the
    uncoded scheme wins: the roots of the homogeneous condition
    2 g^2 - b g + gamma_ob + 1 in g = gamma_ch, with b = (K-2) gamma_ob - 3.
    None when no positive channel SNR lets the uncoded scheme win: when the
    discriminant b^2 - 8 (gamma_ob + 1) is negative (no real roots), or
    when b <= 0 (the roots' product (gamma_ob + 1) / 2 is positive, so both
    roots are negative exactly when their sum b / 2 is).

    Evaluated exactly on the float input and rounded once, like the
    crossover counts: the larger root r is (b + sqrt(disc)) / 4, which
    never cancels as b > 0; the other is (gamma_ob + 1) / (2 r), from the
    product of the roots.  A root above the float maximum is ``inf``.
    """
    _require_count(n_nodes, "node count", 3)
    _require_positive_finite(gamma_ob, "gamma_ob")
    gob = Fraction(gamma_ob)
    base = (n_nodes - 2) * gob - 3
    disc = base * base - 8 * (gob + 1)
    if base <= 0 or disc < 0:
        return None
    far = (base + _sqrt_to_100_bits(disc)) / 4
    near = (gob + 1) / (2 * far)
    return _rounded(near), _rounded(far)


def _sqrt_to_100_bits(x: Fraction) -> Fraction:
    """sqrt(x) rounded down to a dyadic rational of at least 100 significant
    bits, from an integer square root."""
    k = max(0, 100 - (x.numerator.bit_length() - x.denominator.bit_length()) // 2)
    return Fraction(math.isqrt(x.numerator * 4 ** k // x.denominator), 2 ** k)


def _rounded(x: Fraction) -> float:
    """``x`` rounded once to a float; ``inf`` above the float maximum."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# crossover roots in continuous node count (exact rationals, rounded once)
# ---------------------------------------------------------------------------

class _NoCrossover(ValidationError):
    """Coded beats uncoded at every node count (total power constraint)."""


def crossover_node_count(gamma_ob: float, gamma_ch: float) -> float:
    """Continuous K where the homogeneous coded and uncoded distortions
    cross (individual power constraint), the largest node count for which
    coded still wins:
    K = 2 + 1/gamma_ch + (gamma_ch+1)(2 gamma_ch+1)/(gamma_ob gamma_ch),
    the root of the homogeneous condition in K.  The root exists for every
    positive SNR pair, because uncoded wins at large K; sigma_theta^2
    scales both distortions and cancels out.  Evaluated exactly on the
    float inputs and rounded once; ``inf`` above the float maximum."""
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_ch=gamma_ch)
    gob = Fraction(gamma_ob)
    gch = Fraction(gamma_ch)
    return _rounded(2 + 1 / gch + (gch + 1) * (2 * gch + 1) / (gob * gch))


def crossover_node_count_total(gamma_ob: float, gamma_total: float) -> float:
    """Continuous K where the total-power coded and uncoded distortions
    cross: the positive root (b + sqrt(b^2 + 4ac)) / (2a) of a K^2 - b K - c,
    where a = gamma_ob gamma_total - gamma_ob - 1, b = (2 gamma_ob + 3)
    gamma_total and c = 2 gamma_total^2 (coded wins below it).  When a <= 0
    coded wins at every node count and :class:`_NoCrossover` is raised.
    Evaluated exactly on the float inputs, with the square root taken in
    integers to 100 bits, and rounded once; ``inf`` above the float maximum.
    sigma_theta^2 scales both distortions and cancels out."""
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_total=gamma_total)
    gob = Fraction(gamma_ob)
    gt = Fraction(gamma_total)
    a = gob * gt - gob - 1
    if a <= 0:
        raise _NoCrossover("no crossover: coded wins at every node count")
    b = (2 * gob + 3) * gt
    return _rounded((b + _sqrt_to_100_bits(b * b + 8 * a * gt * gt)) / (2 * a))


# ---------------------------------------------------------------------------
# rank-one identity check
# ---------------------------------------------------------------------------

def sherman_morrison_check(model: SystemModel) -> float:
    """Invert the coded noise covariance by the rank-one update identity,
    (diag(a) - b b^T / (1 + sum c)) / sigma_theta^2 with a, b, c the coded
    :func:`link_terms`, and by a generic inverse of
    :func:`total_noise_covariance`, which reads the same lambda and u; return
    the max elementwise relative deviation between the two inverses.
    """
    if model.n_nodes > 64:
        raise ValidationError("rank-one check is limited to K <= 64")
    a, b, c, _ = link_terms(model)
    inv_rank_one = (np.diag(a) - np.outer(b, b) / (1.0 + c.sum())) / model.sigma_theta_sq
    inv_generic = scipy.linalg.inv(total_noise_covariance(model))

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
    _require_count(n_nodes, "node count")
    _require_all_positive_finite(gamma_ob=gamma_ob, gamma_ch=gamma_ch, nu=nu,
                                 sigma_theta_sq=sigma_theta_sq)
    z = 1.0 / (nu * gamma_ch)
    e1 = _exp_scaled_en(1, z)
    e2 = _exp_scaled_en(2, z)
    return sigma_theta_sq / n_nodes * (
        1.0 / gamma_ob
        + (gamma_ob - 1.0) / (nu * gamma_ob * gamma_ch) * e1
        + (n_nodes - 1.0) / (nu * gamma_ch) * e2)
