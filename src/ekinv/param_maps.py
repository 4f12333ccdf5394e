"""Maps from latent variables to PDE coefficients.

Geometric maps produce piecewise coefficients: thresholding a continuous
latent field at a level (binary conductivities with unknown interfaces), or a
sinusoidal channel whose geometry is controlled by five scalars (amplitude,
frequency, angle, initial point, width) in normalized unit-square
coordinates.  The exponential map yields log-permeability fields.

The non-centered transform T(xi, theta) maps independent white noise xi
through the prior that the hyperparameters theta select, so that ensemble
updates on (xi, theta) move the realized field out of any fixed linear span.
:func:`noncentered_matern` is T for a stationary Matern field with scalar
(alpha, tau); :class:`NoncenteredMap` is T for a field-valued
hyperparameter that sets a nonstationary length scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Domain, Field, SpectralBasis, check_members
from .priors import (
    GMap,
    MaternSpec,
    cauchy_knot_count,
    cauchy_path,
    nonstationary_sqrt,
    operator_power,
    sqrt_cov,
    unconstrained_to_hyper,
)


@dataclass(frozen=True)
class LevelSetSpec:
    """Binary conductivity levels for thresholding a latent field."""

    kappa_minus: float
    kappa_plus: float
    threshold: float = 0.0

    def __post_init__(self):
        if self.kappa_minus <= 0 or self.kappa_plus <= 0:
            raise ValueError("conductivity levels must be positive")
        if self.kappa_minus == self.kappa_plus:
            raise ValueError("conductivity levels must be distinct")


def level_set_values(u: np.ndarray, spec: LevelSetSpec) -> np.ndarray:
    """kappa = kappa_plus where u > threshold, kappa_minus where u <= threshold."""
    return np.where(u > spec.threshold, spec.kappa_plus, spec.kappa_minus)


def level_set_map(u: Field, spec: LevelSetSpec) -> Field:
    """:func:`level_set_values` of one field."""
    return Field(u.domain, level_set_values(u.values, spec))


def exp_values(u: np.ndarray) -> np.ndarray:
    """Pointwise exponential of one field's values or a (B, n) stack.

    Rejects arguments that would overflow, naming the first member of a
    stack that has one (:class:`ekinv.grid.MemberError`).
    """
    check_members(np.max(np.abs(u), axis=-1) <= 700.0,
                  "exp map argument exceeds the overflow guard |u| <= 700")
    return np.exp(u)


def exp_map(u: Field) -> Field:
    """:func:`exp_values` of one field."""
    return Field(u.domain, exp_values(u.values))


def channel_values(d: np.ndarray, inside: np.ndarray, outside: np.ndarray,
                   domain: Domain) -> np.ndarray:
    """Log-permeability: ``inside`` within the channel, ``outside`` elsewhere.

    The channel is the region |t - h(s)| < d5 around the center
    t = h(s) = d4 + s tan(d3) + d1 sin(d2 s), in normalized unit-square
    coordinates (s, t): d1 amplitude, d2 angular frequency, d3 angle
    (radians), d4 initial point, d5 half-width.  ``d`` holds (d1, ..., d5)
    for one member, or one row per member of a stack; the result has one
    row of n interior values per member.
    """
    if domain.dim != 2:
        raise ValueError("channel geometry is two-dimensional")
    d1, d2, d3, d4, d5 = (p[..., None] for p in np.moveaxis(d, -1, 0))
    x1, x2 = domain.interior_meshgrid()
    s = x1.ravel() / domain.extents[0]
    t = x2.ravel() / domain.extents[1]
    mask = np.abs(t - (d4 + s * np.tan(d3) + d1 * np.sin(d2 * s))) < d5
    if not np.all(np.any(mask, axis=-1)):
        warnings.warn("channel does not intersect the domain", stacklevel=2)
    return np.where(mask, inside, outside)


# ---------------------------------------------------------------------------
# the non-centered transform


def noncentered_matern(basis: SpectralBasis, xi: np.ndarray, theta_raw: np.ndarray,
                       bounds, sigma2: float, mean: float, scaling: str) -> np.ndarray:
    """Grid values of T(xi, theta) = mean + C_{alpha,tau}^(1/2) xi.

    (alpha, tau) are decoded from the N(0, 1) latents ``theta_raw`` through
    the normal-quantile bijection onto their uniform prior's ``bounds``.
    ``xi`` and ``theta_raw`` hold one member, or are stacks with one member
    per row.
    """
    alpha, tau = unconstrained_to_hyper(theta_raw, bounds).T
    return sqrt_cov(MaternSpec(alpha, tau, sigma2, mean), basis, xi, scaling)


@dataclass
class NoncenteredMap:
    """Deterministic transform T: (xi, theta_raw) -> field u for a
    field-valued hyperprior.

    theta_raw carries the driving noise of the hyperparameter field v:
    white noise in the sine basis for a Gaussian v (``field_spec``), or the
    raw increments of a Cauchy walk with knot spacing ``cauchy_delta``.
    Exactly one of the two is given.  u then solves the nonstationary
    operator equation with length scale ell = g(v).  Scalar (alpha, tau)
    hyperparameters are :func:`noncentered_matern`'s.

    The Cauchy walk is stored as its raw Cauchy(0, delta) increments, not as
    N(0, 1) latents mapped through the Cauchy quantile function.  This keeps
    earlier runs reproducible byte for byte; the price is that the heavy
    tails enter EKI's empirical covariances directly, so one large increment
    can dominate the spread of the hyperparameter block.
    """

    basis: SpectralBasis
    g: GMap
    field_spec: MaternSpec | None = None
    cauchy_delta: float | None = None
    scaling: str = "normalized"
    nonstationary_alpha: float = 2.0
    n_hyper: int = field(init=False)   # number of hyperparameter latents

    def __post_init__(self):
        if (self.field_spec is None) == (self.cauchy_delta is None):
            raise ValueError("give exactly one of field_spec (Gaussian v) "
                             "and cauchy_delta (Cauchy walk)")
        operator_power(self.nonstationary_alpha)
        if self.field_spec is not None:
            self.field_spec.validate(self.basis.domain.dim)
            self.n_hyper = self.basis.n_modes
        else:
            self.n_hyper = cauchy_knot_count(self.basis.domain, self.cauchy_delta)

    def hyper_field(self, theta_raw: np.ndarray) -> np.ndarray:
        """Values of the realized hyperparameter field v, for one member or
        a stack of latents (one member per row)."""
        if self.field_spec is not None:
            return sqrt_cov(self.field_spec, self.basis, theta_raw, self.scaling)
        return cauchy_path(self.basis.domain, self.cauchy_delta, theta_raw)

    def sample_hyper_latents(self, rng: np.random.Generator) -> np.ndarray:
        """One prior draw of the hyperparameter latents: Gaussian-field
        noise, or Cauchy(0, delta) walk increments."""
        if self.cauchy_delta is not None:
            return self.cauchy_delta * rng.standard_cauchy(self.n_hyper)
        return rng.standard_normal(self.n_hyper)

    def length_scale(self, theta_raw: np.ndarray) -> np.ndarray:
        """Values of ell = g(v), shaped like :meth:`hyper_field`."""
        return self.g(self.hyper_field(theta_raw))

    def realize(self, xi: np.ndarray, theta_raw: np.ndarray) -> np.ndarray:
        """Grid values of T(xi, theta_raw) for one member, or for stacks of
        xi and theta_raw with one member per row."""
        theta_raw = np.asarray(theta_raw, dtype=float)
        if theta_raw.shape[-1] != self.n_hyper:
            raise ValueError(f"expected {self.n_hyper} hyperparameter latents, "
                             f"got {theta_raw.shape[-1]}")
        return nonstationary_sqrt(self.nonstationary_alpha, self.length_scale(theta_raw),
                                  xi, self.basis)
