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

from .grid import Domain, Field, SpectralBasis
from .priors import (
    GMap,
    HyperPrior,
    MaternSpec,
    apply_nonstationary_sqrt,
    apply_sqrt_cov,
    cauchy_knot_count,
    cauchy_path_from_increments,
    g_map,
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


def level_set_map(u: Field, spec: LevelSetSpec) -> Field:
    """kappa = kappa_plus where u > threshold, kappa_minus where u <= threshold."""
    values = np.where(u.values > spec.threshold, spec.kappa_plus, spec.kappa_minus)
    return Field(u.domain, values)


def exp_map(u: Field) -> Field:
    """Pointwise exponential; rejects arguments that would overflow."""
    if np.max(np.abs(u.values)) > 700.0:
        raise ValueError("exp map argument exceeds the overflow guard |u| <= 700")
    return Field(u.domain, np.exp(u.values))


@dataclass(frozen=True)
class ChannelSpec:
    """Sinusoidal channel in normalized coordinates plus its two log-permeability fields.

    d1: amplitude, d2: angular frequency, d3: angle (radians), d4: initial
    point, d5: half-width, all on the unit square.  The fields hold log
    permeability inside (kappa_2) and outside (kappa_1) the channel.
    """

    d1: float
    d2: float
    d3: float
    d4: float
    d5: float
    log_kappa_inside: Field
    log_kappa_outside: Field


def channel_centerline(spec: ChannelSpec, s: np.ndarray) -> np.ndarray:
    """Channel center t = d4 + s tan(d3) + d1 sin(d2 s) at normalized abscissa s."""
    return spec.d4 + s * np.tan(spec.d3) + spec.d1 * np.sin(spec.d2 * s)


def channel_mask(spec: ChannelSpec, domain: Domain) -> np.ndarray:
    """Boolean interior-grid mask of the channel region |t - h(s)| < d5."""
    if domain.dim != 2:
        raise ValueError("channel geometry is two-dimensional")
    x1, x2 = domain.interior_meshgrid()
    s = x1 / domain.extents[0]
    t = x2 / domain.extents[1]
    return np.abs(t - channel_centerline(spec, s)) < spec.d5


def channel_map(spec: ChannelSpec, domain: Domain) -> Field:
    """Log-permeability: log kappa_2 inside the channel, log kappa_1 outside."""
    mask = channel_mask(spec, domain)
    if not mask.any():
        warnings.warn("channel does not intersect the domain", stacklevel=2)
    values = np.where(mask,
                      spec.log_kappa_inside.grid,
                      spec.log_kappa_outside.grid)
    return Field(domain, values.ravel())


def constant_channel_spec(d: np.ndarray, kappa_inside: float, kappa_outside: float,
                          domain: Domain) -> ChannelSpec:
    """Channel with spatially constant permeability on each side."""
    ones = np.ones(domain.n_interior)
    return ChannelSpec(*map(float, d),
                       log_kappa_inside=Field(domain, np.log(kappa_inside) * ones),
                       log_kappa_outside=Field(domain, np.log(kappa_outside) * ones))


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

    def hyper_field(self, theta_raw: np.ndarray) -> Field:
        """Realized hyperparameter field v (field-valued kinds only)."""
        theta_raw = np.asarray(theta_raw, dtype=float)
        if self.hyper.kind == "gaussian-field":
            return apply_sqrt_cov(self.hyper.field_spec, self.basis, theta_raw,
                                  self.scaling)
        if self.hyper.kind == "cauchy-process":
            return cauchy_path_from_increments(self.basis.domain,
                                               self.hyper.cauchy_delta, theta_raw)
        raise ValueError("scalar hyperpriors do not define a hyperparameter field")

    def sample_hyper_latents(self, rng: np.random.Generator) -> np.ndarray:
        """One prior draw of the hyperparameter latents.

        Standard normal for scalar bijections and Gaussian-field noise;
        Cauchy(0, delta) for the walk increments.
        """
        if self.hyper.kind == "cauchy-process":
            return self.hyper.cauchy_delta * rng.standard_cauchy(self.n_hyper)
        return rng.standard_normal(self.n_hyper)

    def length_scale(self, theta_raw: np.ndarray) -> Field:
        g = self.hyper.g or GMap("exp")
        v = self.hyper_field(theta_raw)
        return g_map(g.kind, g.params, v, floor=g.floor, cap=g.cap)

    def decode_scalars(self, theta_raw: np.ndarray) -> np.ndarray:
        """Scalar hyperparameters in natural units (uniform-scalar kind)."""
        if self.hyper.kind != "uniform-scalar":
            raise ValueError("not a scalar hyperprior")
        return unconstrained_to_hyper(np.asarray(theta_raw, dtype=float),
                                      self.hyper.bounds)

    def transform(self, xi: np.ndarray, theta_raw: np.ndarray) -> Field:
        xi = np.asarray(xi, dtype=float)
        theta_raw = np.asarray(theta_raw, dtype=float)
        if theta_raw.size != self.n_hyper:
            raise ValueError(f"expected {self.n_hyper} hyperparameter latents, "
                             f"got {theta_raw.size}")
        if self.hyper.kind == "uniform-scalar":
            alpha, tau = self.decode_scalars(theta_raw)
            spec = MaternSpec(alpha=alpha, tau=tau, sigma2=self.base_sigma2,
                              mean=self.base_mean)
            return apply_sqrt_cov(spec, self.basis, xi, self.scaling)
        ell = self.length_scale(theta_raw)
        return apply_nonstationary_sqrt(self.nonstationary_alpha, ell, xi, self.basis)
