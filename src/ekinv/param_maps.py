"""Maps from latent variables to PDE coefficients.

Geometric maps produce piecewise coefficients: thresholding a continuous
latent field at a level (binary conductivities with unknown interfaces), or a
sinusoidal channel whose geometry is controlled by five scalars (amplitude,
frequency, angle, initial point, width) in normalized unit-square
coordinates.  The exponential map yields log-permeability fields.

The non-centered transform T decodes unconstrained hyperparameters and maps
independent white noise through the hyperparameter-dependent prior, so that
ensemble updates on (xi, theta) move the realized field out of any fixed
linear span.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Domain, Field, SpectralBasis, check_members
from .priors import (
    GMap,
    HyperPrior,
    MaternSpec,
    cauchy_knot_count,
    cauchy_path,
    nonstationary_sqrt,
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


@dataclass
class NoncenteredMap:
    """Deterministic transform T: (xi, theta_raw) -> field u.

    For a uniform-scalar hyperprior theta = (alpha, tau), decoded through the
    normal-quantile bijection, and u = mean + C_{alpha,tau}^(1/2) xi.  For a
    field-valued hyperprior, theta_raw carries the hyperparameter field's own
    driving noise: sine-basis white noise for the Gaussian case, the raw walk
    increments for the Cauchy case.  u then solves the nonstationary operator
    equation with length scale ell = g(v).

    The Cauchy walk is stored as its raw Cauchy(0, delta) increments, not as
    N(0, 1) latents mapped through the Cauchy quantile function.  This keeps
    earlier runs reproducible byte for byte; the price is that the heavy
    tails enter EKI's empirical covariances directly, so one large increment
    can dominate the spread of the hyperparameter block.
    """

    basis: SpectralBasis
    hyper: HyperPrior
    scaling: str = "normalized"
    base_sigma2: float = 1.0
    base_mean: float = 0.0
    nonstationary_alpha: float = 2.0

    @property
    def n_hyper(self) -> int:
        if self.hyper.kind == "uniform-scalar":
            return len(self.hyper.bounds)
        if self.hyper.kind == "gaussian-field":
            return self.basis.n_modes
        return cauchy_knot_count(self.basis.domain, self.hyper.cauchy_delta)

    def hyper_field(self, theta_raw: np.ndarray) -> np.ndarray:
        """Values of the realized hyperparameter field v (field-valued kinds
        only), for one member or a stack of latents (one member per row)."""
        theta_raw = np.asarray(theta_raw, dtype=float)
        if self.hyper.kind == "gaussian-field":
            return sqrt_cov(self.hyper.field_spec, self.basis, theta_raw, self.scaling)
        if self.hyper.kind == "cauchy-process":
            return cauchy_path(self.basis.domain, self.hyper.cauchy_delta, theta_raw)
        raise ValueError("scalar hyperpriors do not define a hyperparameter field")

    def sample_hyper_latents(self, rng: np.random.Generator) -> np.ndarray:
        """One prior draw of the hyperparameter latents.

        Standard normal for scalar bijections and Gaussian-field noise;
        Cauchy(0, delta) for the walk increments.
        """
        if self.hyper.kind == "cauchy-process":
            return self.hyper.cauchy_delta * rng.standard_cauchy(self.n_hyper)
        return rng.standard_normal(self.n_hyper)

    def length_scale(self, theta_raw: np.ndarray) -> np.ndarray:
        """Values of ell = g(v), shaped like :meth:`hyper_field`."""
        return (self.hyper.g or GMap("exp"))(self.hyper_field(theta_raw), self.basis.domain)

    def decode_scalars(self, theta_raw: np.ndarray) -> np.ndarray:
        """Scalar hyperparameters in natural units (uniform-scalar kind)."""
        if self.hyper.kind != "uniform-scalar":
            raise ValueError("not a scalar hyperprior")
        return unconstrained_to_hyper(np.asarray(theta_raw, dtype=float),
                                      self.hyper.bounds)

    def realize(self, xi: np.ndarray, theta_raw: np.ndarray) -> np.ndarray:
        """Grid values of T(xi, theta_raw) for one member, or for stacks of
        xi and theta_raw with one member per row."""
        xi = np.asarray(xi, dtype=float)
        theta_raw = np.asarray(theta_raw, dtype=float)
        if theta_raw.shape[-1] != self.n_hyper:
            raise ValueError(f"expected {self.n_hyper} hyperparameter latents, "
                             f"got {theta_raw.shape[-1]}")
        if self.hyper.kind == "uniform-scalar":
            alpha, tau = self.decode_scalars(theta_raw).T
            spec = MaternSpec(alpha=alpha, tau=tau, sigma2=self.base_sigma2,
                              mean=self.base_mean)
            return sqrt_cov(spec, self.basis, xi, self.scaling)
        return nonstationary_sqrt(self.nonstationary_alpha, self.length_scale(theta_raw),
                                  xi, self.basis)

    def transform(self, xi: np.ndarray, theta_raw: np.ndarray) -> Field:
        """T(xi, theta_raw) of one member as a field."""
        return Field(self.basis.domain, self.realize(xi, theta_raw))
