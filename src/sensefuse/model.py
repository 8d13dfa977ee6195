"""Domain types and unit conventions for distributed sensing systems.

All SNRs are linear-scale (non-decibel) ratios.  A system is a Gaussian
source of power ``sigma_theta_sq`` observed by K sensor nodes; node k sees
the source through observation SNR ``gamma_ob`` and reaches the fusion
center over an orthogonal Gaussian channel with channel SNR ``gamma_ch``
(unit channel power gain, so gamma_ch = P_k / sigma_ch_k^2).

Everything here is immutable and purely functional; instances can be
shared freely across threads.

The input rules are written here once: :func:`validate` checks models, and
the scalar entry points check counts with :func:`_require_count`, seeds
with :func:`_require_seed`, and SNRs, powers and fading means with
:func:`_require_all_positive_finite`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable


class ValidationError(ValueError):
    """A system model or policy violates a structural invariant."""


def _require_positive_finite(value: float, what: str) -> None:
    if math.isnan(value):
        raise ValidationError(f"{what} is NaN")
    if math.isinf(value):
        raise ValidationError(f"{what} is infinite")
    if value <= 0:
        raise ValidationError(f"nonpositive {what}: {value!r}")


def _require_all_positive_finite(**values: float) -> None:
    """:func:`_require_positive_finite` of each value, named by its keyword."""
    for what, value in values.items():
        _require_positive_finite(value, what)


def _require_count(value: int, what: str, minimum: int = 1) -> None:
    """Reject a count below ``minimum``, NaN or infinity, or one that is not
    an integer."""
    if not minimum <= value < math.inf:
        raise ValidationError(f"{what} must be >= {minimum}, got {value}")
    if not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


def _require_seed(seed: int) -> None:
    """Reject a seed numpy's SeedSequence cannot take: a negative number or
    one that is not an integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SensorLink:
    """One node-channel pair: observation SNR and channel SNR (linear scale)."""

    gamma_ob: float
    gamma_ch: float


@dataclass(frozen=True)
class SystemModel:
    """A source plus an ordered set of sensor links.

    Parameters
    ----------
    sigma_theta_sq : float
        Source signal power (variance of the zero-mean Gaussian source).
    links : sequence of SensorLink
        Per-node SNR pairs, length K >= 1.
    bandwidth : float
        Signal bandwidth W in Hz; only the rate computations consume it.

    A model is checked once, when it is made (see :func:`validate`), so
    every model that exists is valid and no consumer checks it again.
    """

    sigma_theta_sq: float
    links: tuple[SensorLink, ...]
    bandwidth: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        validate(self)

    @property
    def n_nodes(self) -> int:
        return len(self.links)

    def gamma_ob_array(self):
        import numpy as np

        return np.array([ln.gamma_ob for ln in self.links], dtype=float)

    def gamma_ch_array(self):
        import numpy as np

        return np.array([ln.gamma_ch for ln in self.links], dtype=float)

    @classmethod
    def homogeneous(cls, n_nodes: int, gamma_ob: float, gamma_ch: float,
                    sigma_theta_sq: float = 1.0, bandwidth: float = 1.0) -> "SystemModel":
        """K identical nodes and channels."""
        _require_count(n_nodes, "node count")
        links = tuple(SensorLink(gamma_ob, gamma_ch) for _ in range(n_nodes))
        return cls(sigma_theta_sq, links, bandwidth)

    @classmethod
    def from_snrs(cls, gamma_ob: Iterable[float], gamma_ch: Iterable[float],
                  sigma_theta_sq: float = 1.0, bandwidth: float = 1.0) -> "SystemModel":
        """Heterogeneous system from parallel SNR sequences."""
        gob = tuple(float(g) for g in gamma_ob)
        gch = tuple(float(g) for g in gamma_ch)
        if len(gob) != len(gch):
            raise ValidationError(
                f"SNR sequences have different lengths: {len(gob)} vs {len(gch)}")
        links = tuple(SensorLink(o, c) for o, c in zip(gob, gch))
        return cls(sigma_theta_sq, links, bandwidth)


@dataclass(frozen=True)
class CodingPolicy:
    """Per-node scheme assignment: rho_k = 1 coded, rho_k = 0 uncoded."""

    rho: tuple[int, ...]

    def __post_init__(self):
        rho = tuple(int(r) for r in self.rho)
        if any(r not in (0, 1) for r in rho):
            raise ValidationError(f"policy bits must be 0 or 1, got {self.rho!r}")
        object.__setattr__(self, "rho", rho)

    def __len__(self) -> int:
        return len(self.rho)

    def __iter__(self):
        return iter(self.rho)

    @property
    def n_coded(self) -> int:
        return sum(self.rho)

    def as_bits(self) -> str:
        return "".join(str(r) for r in self.rho)

    @classmethod
    def all_coded(cls, n_nodes: int) -> "CodingPolicy":
        _require_count(n_nodes, "node count")
        return cls((1,) * n_nodes)

    @classmethod
    def all_uncoded(cls, n_nodes: int) -> "CodingPolicy":
        _require_count(n_nodes, "node count")
        return cls((0,) * n_nodes)

    @classmethod
    def from_bits(cls, bits: str) -> "CodingPolicy":
        if not bits or any(b not in "01" for b in bits):
            raise ValidationError(f"policy string must be nonempty bits, got {bits!r}")
        return cls(tuple(int(b) for b in bits))


@dataclass(frozen=True)
class PolicySearchResult:
    """Outcome of a policy search.

    ``distortion`` is always recomputed from scratch for the returned
    policy, so it is bitwise reproducible independent of the search path.
    ``visit_order`` records the order nodes were added (empty for the
    global exhaustive search); ``evaluations`` counts distortion-formula
    evaluations performed.
    """

    policy: CodingPolicy
    distortion: float
    visit_order: tuple[int, ...] = field(default_factory=tuple)
    evaluations: int = 0


def validate(model: SystemModel) -> SystemModel:
    """Check every structural invariant; return the model unchanged.

    Every :class:`SystemModel` runs this check once, when it is made.

    Raises
    ------
    ValidationError
        With a distinct diagnostic per violated invariant: no nodes,
        nonpositive source power/bandwidth, nonpositive or non-finite SNRs.
    """
    # one pass when everything holds; the checks below only name the fault
    if (model.links and 0 < model.sigma_theta_sq < math.inf
            and 0 < model.bandwidth < math.inf
            and all(0 < link.gamma_ob < math.inf and 0 < link.gamma_ch < math.inf
                    for link in model.links)):
        return model
    _require_positive_finite(model.sigma_theta_sq, "source power sigma_theta_sq")
    _require_positive_finite(model.bandwidth, "bandwidth")
    if len(model.links) == 0:
        raise ValidationError("no nodes: the link list is empty")
    for k, link in enumerate(model.links):
        _require_positive_finite(link.gamma_ob, f"observation SNR (node {k})")
        _require_positive_finite(link.gamma_ch, f"channel SNR (node {k})")
    return model


def check_policy(model: SystemModel, policy: CodingPolicy) -> CodingPolicy:
    """Require the policy length to match the model's node count."""
    if len(policy) != model.n_nodes:
        raise ValidationError(
            f"policy length {len(policy)} does not match node count {model.n_nodes}")
    return policy


def derived_noise_powers(model: SystemModel, k: int) -> tuple[float, float]:
    """Observation-noise and quantization-noise powers of node k.

    sigma_ob^2 = sigma_theta^2 / gamma_ob and the rate-matched quantization
    distortion sigma_qu^2 = (sigma_theta^2 + sigma_ob^2) / (1 + gamma_ch).
    """
    link = model.links[k]  # raises IndexError when out of range
    return _noise_powers(model.sigma_theta_sq, link.gamma_ob, link.gamma_ch)


def _noise_powers(sigma_theta_sq, gamma_ob, gamma_ch):
    """:func:`derived_noise_powers` elementwise on floats or SNR arrays."""
    sigma_ob_sq = sigma_theta_sq / gamma_ob
    sigma_qu_sq = (sigma_theta_sq + sigma_ob_sq) / (1.0 + gamma_ch)
    return sigma_ob_sq, sigma_qu_sq


def coding_rates(model: SystemModel, k: int) -> tuple[float, float]:
    """Channel rate and source-coding rate of node k in bits/s.

    r_ch = W log2(1 + gamma_ch); r_sc = W log2((sigma_theta^2 + sigma_ob^2)
    / sigma_qu^2).  The two are equal by construction of the quantization
    distortion, so the identity holds in any logarithm base.
    """
    link = model.links[k]
    sigma_ob_sq, sigma_qu_sq = derived_noise_powers(model, k)
    r_ch = model.bandwidth * math.log2(1.0 + link.gamma_ch)
    r_sc = model.bandwidth * math.log2(
        (model.sigma_theta_sq + sigma_ob_sq) / sigma_qu_sq)
    return r_ch, r_sc


def snr_from_db(value_db: float) -> float:
    """Convert a decibel SNR to the linear scale used everywhere internally."""
    try:
        value = 10.0 ** (value_db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:  # floats end near +3083 dB and -3237 dB; NaN fails
        raise ValidationError(f"SNR of {value_db!r} dB is out of range")
    return value
