"""Maps from latent variables to PDE coefficients.

Geometric maps produce piecewise coefficients: thresholding a continuous
latent field at a level (binary conductivities with unknown interfaces), or a
sinusoidal channel whose geometry is controlled by five scalars (amplitude,
frequency, angle, initial point, width) in normalized unit-square
coordinates.  The exponential map yields log-permeability fields.
:func:`coefficient_map` is the one map from a latent field u to the
solver's coefficients and to the field that errors are measured on; the
truth and every ensemble member go through it.

The non-centered transform T(xi, theta) maps independent white noise xi
through the prior that the hyperparameters theta select, so that ensemble
updates on (xi, theta) move the realized field out of any fixed linear span.
:func:`noncentered_matern` is T for a stationary Matern field with scalar
(alpha, tau).  :class:`NoncenteredMap` is T under the field hyperprior, a
field-valued length scale ell = g(v), in one of its two fixed kinds:
"field-gauss" (a Gaussian v, ell = exp(v)) or "field-cauchy" (a Cauchy
walk v, ell = 4/|v|).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Domain, Field, SpectralBasis, check_members
from .priors import (
    MaternSpec,
    cauchy_knot_count,
    cauchy_path,
    nonstationary_sqrt,
    sqrt_cov,
    unconstrained_to_hyper,
)


# the conductivities of the level-set map, thresholded at zero
KAPPA_MINUS, KAPPA_PLUS = 1.0, 10.0


def level_set_values(u: np.ndarray) -> np.ndarray:
    """kappa = KAPPA_PLUS where u > 0, KAPPA_MINUS where u <= 0."""
    return np.where(u > 0, KAPPA_PLUS, KAPPA_MINUS)


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


def coefficient_map(name: str):
    """u -> (coefficients, report field) of a coefficient map.

    "identity" gives (u, u); "exp" and "channel" give (exp u, u), where
    for the channel u is the log permeability the geometry composed;
    "level-set" gives (kappa, log kappa) with kappa thresholded at
    ``KAPPA_MINUS`` and ``KAPPA_PLUS``.  u is one field's values or a stack
    of them.
    """
    def threshold(u):
        kappa = level_set_values(u)
        return kappa, np.log(kappa)

    return {"identity": lambda u: (u, u), "level-set": threshold,
            "exp": lambda u: (exp_values(u), u), "channel": lambda u: (exp_values(u), u)}[name]


# the channel prior: a uniform box per geometry scalar d1, ..., d5, and the
# log permeability's mean outside and inside, with one (alpha, tau) box for both
CHANNEL_GEOMETRY_BOUNDS = ((0.0, 1.0), (2.0, 13.0), (0.4, 1.0), (0.0, 1.0), (0.1, 0.3))
CHANNEL_MEANS = (1.0, 4.0)                          # outside, inside
CHANNEL_HYPER_BOUNDS = ((1.3, 3.0), (8.0, 30.0))    # alpha, tau
CHANNEL_TRUTH_HYPERS = ((2.0, 30.0), (2.8, 10.0))   # the truth's (alpha, tau) outside, inside


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
                       bounds, sigma2: float, mean: float) -> np.ndarray:
    """Grid values of T(xi, theta) = mean + C_{alpha,tau}^(1/2) xi.

    (alpha, tau) are decoded from the N(0, 1) latents ``theta_raw`` through
    the normal-quantile bijection onto their uniform prior's ``bounds``.
    ``xi`` and ``theta_raw`` hold one member, or are stacks with one member
    per row.
    """
    alpha, tau = unconstrained_to_hyper(theta_raw, bounds).T
    return sqrt_cov(MaternSpec(alpha, tau, sigma2, mean), basis, xi)


# the field hyperprior: the Matern prior of a Gaussian v, the knot spacing
# of a Cauchy walk, and g's floor and cap as fractions of the box's longest side
V_SPEC = MaternSpec(alpha=2.0, tau=4.0, sigma2=60.0, mean=-0.5)
CAUCHY_DELTA = 0.5
G_FLOOR_FRAC, G_CAP_FRAC = 1e-6, 10.0


@dataclass
class NoncenteredMap:
    """Deterministic transform T: (xi, theta_raw) -> field u under the field
    hyperprior ``kind``, "field-gauss" or "field-cauchy".

    theta_raw carries the driving noise of the hyperparameter field v: for
    "field-gauss", white noise in the sine basis of a Gaussian v with prior
    :data:`V_SPEC`; for "field-cauchy", the raw increments of a 1D Cauchy
    walk with knot spacing :data:`CAUCHY_DELTA`.  u then solves the
    nonstationary operator equation (I - diag(ell^2) Laplace_h) u =
    ell^(d/2) xi with length scale ell = :meth:`g` (v)
    (:func:`ekinv.priors.nonstationary_sqrt`).  Scalar (alpha, tau)
    hyperparameters are :func:`noncentered_matern`'s.

    The Cauchy walk is stored as its raw Cauchy(0, delta) increments, not as
    N(0, 1) latents mapped through the Cauchy quantile function.  This keeps
    earlier runs reproducible byte for byte; the price is that the heavy
    tails enter EKI's empirical covariances directly, so one large increment
    can dominate the spread of the hyperparameter block.
    """

    basis: SpectralBasis
    kind: str
    n_hyper: int = field(init=False)   # number of hyperparameter latents

    def __post_init__(self):
        if self.kind not in ("field-gauss", "field-cauchy"):
            raise ValueError(f"the field hyperprior kind must be 'field-gauss' or "
                             f"'field-cauchy', got {self.kind!r}")
        self.n_hyper = (self.basis.n_modes if self.kind == "field-gauss"
                        else cauchy_knot_count(self.basis.domain, CAUCHY_DELTA))

    def g(self, v: np.ndarray) -> np.ndarray:
        """ell = g(v) at every value of v, one field or a stack of them:
        exp(v) for "field-gauss", 4/|v| for "field-cauchy".  ell is clipped
        to G_FLOOR_FRAC and G_CAP_FRAC times the box's longest side, which
        guards 4/|v|'s singularity at v = 0 and keeps the operators well
        conditioned."""
        if self.kind == "field-gauss":
            with np.errstate(over="ignore"):
                raw = np.exp(v)
        else:
            with np.errstate(divide="ignore"):
                raw = 4.0 / np.abs(v)
        floor, cap = (frac * max(self.basis.domain.extents) for frac in (G_FLOOR_FRAC, G_CAP_FRAC))
        return np.clip(raw, floor, cap)

    def hyper_field(self, theta_raw: np.ndarray) -> np.ndarray:
        """Values of the realized hyperparameter field v, for one member or
        a stack of latents (one member per row)."""
        if self.kind == "field-gauss":
            return sqrt_cov(V_SPEC, self.basis, theta_raw)
        return cauchy_path(self.basis.domain, CAUCHY_DELTA, theta_raw)

    def sample_hyper_latents(self, rng: np.random.Generator) -> np.ndarray:
        """One prior draw of the hyperparameter latents: Gaussian-field
        noise, or Cauchy(0, delta) walk increments."""
        if self.kind == "field-gauss":
            return rng.standard_normal(self.n_hyper)
        return CAUCHY_DELTA * rng.standard_cauchy(self.n_hyper)

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
        return nonstationary_sqrt(self.length_scale(theta_raw), xi, self.basis)
