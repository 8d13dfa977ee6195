"""Reference values computed apart from the program under test.

Nothing here imports ``sensefuse``.  The distortion of a policy comes from
the error model of the paper's two routes, written out from the per-node
noise powers sigma_ob^2 = sigma_theta^2 / gamma_ob and
sigma_qu^2 = (sigma_theta^2 + sigma_ob^2) / (1 + gamma_ch):

* coded node (backward test channel):
  ``x - theta = -beta theta + (1 - beta) n_ob + w`` with
  ``beta = sigma_qu^2 / (sigma_theta^2 + sigma_ob^2)`` and
  ``Var w = sigma_qu^2 (1 - beta)``;
* uncoded node (amplify and forward, de-gained):
  ``x - theta = n_ob + n_ch / sqrt(alpha)`` with
  ``1 / alpha = (sigma_theta^2 + sigma_ob^2) / gamma_ch``.

The error covariance is therefore ``sigma_theta^2 b b^T + diag(v)`` with
``b = beta`` on coded nodes and 0 on uncoded ones, and the BLUE distortion
(1^T Sigma^-1 1)^-1 is taken through a dense Cholesky factor.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.special

_BRUTE_CHUNK = 2048
_LAGUERRE_ORDER = 48  # 7e-6 relative error at K=1, far below a 5-sigma band


def _route_terms(gob, gch, st):
    """Per-node (beta, coded variance, uncoded variance) arrays."""
    gob = np.asarray(gob, dtype=float)
    gch = np.asarray(gch, dtype=float)
    s_ob = st / gob
    s2 = st + s_ob
    s_qu = s2 / (1.0 + gch)
    beta = s_qu / s2
    v_coded = (1.0 - beta) ** 2 * s_ob + s_qu * (1.0 - beta)
    v_uncoded = s_ob + s2 / gch
    return beta, v_coded, v_uncoded


def error_covariance(gob, gch, rho, st: float = 1.0) -> np.ndarray:
    """Dense error covariance; ``rho`` may be (K,) or a (P, K) stack."""
    beta, v_coded, v_uncoded = _route_terms(gob, gch, st)
    coded = np.asarray(rho, dtype=bool)
    b = np.where(coded, beta, 0.0)
    v = np.where(coded, v_coded, v_uncoded)
    cov = st * b[..., :, None] * b[..., None, :]
    idx = np.arange(cov.shape[-1])
    cov[..., idx, idx] += v
    return cov


def _blue_from_cov(cov: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(cov)
    ones = np.ones(cov.shape[:-1] + (1,))
    y = np.linalg.solve(chol, ones)[..., 0]
    return 1.0 / np.sum(y * y, axis=-1)


def blue_distortion(gob, gch, rho, st: float = 1.0) -> float:
    """(1^T Sigma^-1 1)^-1 for one policy."""
    return float(_blue_from_cov(error_covariance(gob, gch, rho, st)))


def brute_force_minimum(gob, gch, st: float = 1.0) -> tuple[float, np.ndarray]:
    """Smallest BLUE distortion over all 2^K policies, and its policy."""
    k = len(gob)
    best = (math.inf, None)
    shifts = np.arange(k)
    for start in range(0, 1 << k, _BRUTE_CHUNK):
        codes = np.arange(start, min(start + _BRUTE_CHUNK, 1 << k))
        rho = (codes[:, None] >> shifts[None, :]) & 1
        dist = _blue_from_cov(error_covariance(gob, gch, rho, st))
        pick = int(np.argmin(dist))
        if dist[pick] < best[0]:
            best = (float(dist[pick]), rho[pick].astype(np.int8))
    return best


def coded_homo_instant(n_nodes: int, gob: float, gch: float, st: float = 1.0) -> float:
    """All-coded homogeneous distortion at channel SNR ``gch``.

    With Sigma = sigma_theta^2 beta^2 1 1^T + v I, Sherman-Morrison gives
    1^T Sigma^-1 1 = K / (v + K sigma_theta^2 beta^2).
    """
    beta, v_coded, _ = _route_terms(gob, gch, st)
    return float((v_coded + n_nodes * st * beta * beta) / n_nodes)


def fading_homo_expectation(n_nodes: int, gob: float, gch: float, nu: float,
                            st: float = 1.0) -> float:
    """E[D] over a block-wide gain h ~ Exp(nu), by adaptive quadrature."""
    value, _ = scipy.integrate.quad(
        lambda t: coded_homo_instant(n_nodes, gob, nu * t * gch, st) * math.exp(-t),
        0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def fading_hetero_expectation(gob, gch, nu: float, st: float = 1.0) -> float:
    """E[D] of an all-coded system whose nodes fade independently, each gain
    Exp(nu), by tensor-product Gauss-Laguerre quadrature (K <= 3)."""
    gob = np.asarray(gob, dtype=float)
    gch = np.asarray(gch, dtype=float)
    k = len(gob)
    nodes, weights = scipy.special.roots_laguerre(_LAGUERRE_ORDER)
    grids = np.meshgrid(*([nodes] * k), indexing="ij")
    wgrid = np.ones_like(grids[0])
    for w in np.meshgrid(*([weights] * k), indexing="ij"):
        wgrid = wgrid * w
    h = np.stack([g.ravel() for g in grids], axis=1) * nu
    beta, v, _ = _route_terms(gob[None, :], h * gch[None, :], st)
    # all-coded Sigma = st b b^T + diag(v): Sherman-Morrison for 1^T Sigma^-1 1
    s0 = (1.0 / v).sum(axis=1)
    s1 = (beta / v).sum(axis=1)
    s2 = (beta * beta / v).sum(axis=1)
    dist = 1.0 / (s0 - st * s1 * s1 / (1.0 + st * s2))
    return float(np.sum(wgrid.ravel() * dist))
