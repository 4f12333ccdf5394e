"""Gaussian random field priors and hyperparameter machinery.

Stationary fields follow the shifted-Laplacian covariance

    C = (tau^2 I - Laplace)^(-alpha),    Dirichlet boundary conditions,

realized spectrally: the coefficient of sine mode k is N(0, (tau^2 +
lambda_k)^(-alpha)), so sampling is an exact diagonal scaling of white noise.
With ``scaling="normalized"`` the statistics are those of the unit-square
field transported to the physical box, which keeps tau and alpha meaningful
independently of the domain size; ``scaling="physical"`` uses the box's own
eigenvalues.

Nonstationary fields solve the variable-coefficient operator equation

    (I - diag(ell(x)^2) Laplace_h)^(alpha/2) u = ell(x)^(d/2) xi

for even integer alpha, where the length-scale field ell = g(v) is driven by
a hyperparameter field v (Gaussian or a heavy-tailed Cauchy random walk).

Scalar hyperparameters with uniform priors are carried through the inversion
in an unconstrained representation via the normal-quantile bijection, so that
standard normal draws map exactly to the uniform prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from .grid import Domain, Field, SpectralBasis, neg_laplacian, white_noise

SCALINGS = ("normalized", "physical")


@dataclass(frozen=True)
class MaternSpec:
    """Shifted-Laplacian Gaussian field: regularity alpha, inverse length tau."""

    alpha: float
    tau: float
    sigma2: float = 1.0
    mean: float = 0.0

    def validate(self, dim: int) -> None:
        if not self.alpha > dim / 2:
            raise ValueError(f"alpha must exceed d/2 = {dim / 2}, got {self.alpha}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


def coefficient_scale(spec: MaternSpec, basis: SpectralBasis,
                      scaling: str = "normalized") -> np.ndarray:
    """Per-mode standard deviation of the field's sine coefficients."""
    spec.validate(basis.domain.dim)
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    if scaling == "normalized":
        lam = basis.eigenvalues_normalized
        volume = float(np.prod(basis.domain.extents))
    else:
        lam = basis.eigenvalues
        volume = 1.0
    return np.sqrt(spec.sigma2 * volume) * (spec.tau**2 + lam) ** (-spec.alpha / 2)


def apply_sqrt_cov(spec: MaternSpec, basis: SpectralBasis, xi: np.ndarray,
                   scaling: str = "normalized") -> Field:
    """Deterministic map xi -> mean + C^(1/2) xi (coefficient-wise scaling)."""
    xi = np.asarray(xi, dtype=float)
    if xi.size != basis.n_modes:
        raise ValueError(f"expected {basis.n_modes} coefficients, got {xi.size}")
    field = basis.synthesis(coefficient_scale(spec, basis, scaling) * xi)
    if spec.mean != 0.0:
        field = Field(basis.domain, field.values + spec.mean)
    return field


def sample_matern(spec: MaternSpec, basis: SpectralBasis, rng: np.random.Generator,
                  scaling: str = "normalized") -> Field:
    """Draw one field with per-mode variance (tau^2 + lambda_k)^(-alpha)."""
    return apply_sqrt_cov(spec, basis, white_noise(basis.domain, rng), scaling)


def matern_covariance(r, alpha: float, tau: float, dim: int, sigma2: float | None = None):
    """Free-space covariance of (tau^2 I - Laplace)^(-alpha) on R^d.

    Bessel-function form with smoothness nu = alpha - d/2.  When ``sigma2`` is
    omitted the variance implied by the shifted-Laplacian normalization,
    Gamma(nu) / ((4 pi)^(d/2) Gamma(alpha) tau^(2 nu)), is used.  Test oracle
    only; the sampler never evaluates this.
    """
    nu = alpha - dim / 2
    if nu <= 0:
        raise ValueError(f"alpha must exceed d/2, got alpha={alpha}, d={dim}")
    if sigma2 is None:
        sigma2 = scipy.special.gamma(nu) / (
            (4 * np.pi) ** (dim / 2) * scipy.special.gamma(alpha) * tau ** (2 * nu))
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, sigma2)
    pos = r > 0
    z = tau * r[pos]
    out[pos] = sigma2 * 2 ** (1 - nu) / scipy.special.gamma(nu) * z**nu * scipy.special.kv(nu, z)
    return out


# ---------------------------------------------------------------------------
# nonstationary sampling


def assemble_shifted_operator(ell: Field) -> scipy.sparse.csr_matrix:
    """A = I + diag(ell^2) L_h, the discrete (I - ell(x)^2 Laplace)."""
    L = neg_laplacian(ell.domain)
    return (scipy.sparse.identity(ell.domain.n_interior, format="csr")
            + scipy.sparse.diags(ell.values**2) @ L).tocsr()


def _solve_operator_power(ell: Field, rhs: np.ndarray, power: int) -> np.ndarray:
    u = rhs
    if ell.domain.dim == 1:
        # tridiagonal: row i of A is ell_i^2 times row i of L_h plus one on
        # the diagonal.  Its band takes the same products and sums as the
        # sparse assembly, without building sparse matrices for every call.
        ell2, h = ell.values**2, ell.domain.h[0]
        ab = np.zeros((3, ell2.size))
        ab[0, 1:] = ell2[:-1] * (-1.0 / h**2)
        ab[1, :] = 1.0 + ell2 * (2.0 / h**2)
        ab[2, :-1] = ell2[1:] * (-1.0 / h**2)
        for _ in range(power):
            u = scipy.linalg.solve_banded((1, 1), ab, u)
        return u
    lu = scipy.sparse.linalg.splu(assemble_shifted_operator(ell).tocsc())
    for _ in range(power):
        u = lu.solve(u)
    return u


def apply_nonstationary_sqrt(alpha: float, ell: Field, xi: np.ndarray,
                             basis: SpectralBasis) -> Field:
    """Solve (I - diag(ell^2) Laplace_h)^(alpha/2) u = ell^(d/2) xi.

    ``xi`` holds white-noise coefficients in the sine basis; the right-hand
    side is its grid realization weighted pointwise by ell^(d/2).  alpha/2
    must be a positive integer (integer operator powers are applied by
    repeated solves).
    """
    half = alpha / 2
    if abs(half - round(half)) > 1e-12 or round(half) < 1:
        raise ValueError(f"alpha/2 must be a positive integer, got alpha={alpha}")
    domain = basis.domain
    if ell.domain is not domain and ell.domain != domain:
        raise ValueError("length-scale field and basis live on different domains")
    if np.any(ell.values <= 0):
        raise ValueError("length-scale field must be strictly positive")
    xi_grid = basis.synthesis(xi).values
    rhs = ell.values ** (domain.dim / 2) * xi_grid
    u = _solve_operator_power(ell, rhs, int(round(half)))
    if not np.all(np.isfinite(u)):
        raise RuntimeError("nonstationary solve produced non-finite values")
    return Field(domain, u)


def sample_nonstationary(alpha: float, v: Field, g: "GMap", basis: SpectralBasis,
                         rng: np.random.Generator) -> Field:
    """Draw one nonstationary field with length scale ell = g(v)."""
    ell = g_map(g.kind, g.params, v, floor=g.floor, cap=g.cap)
    return apply_nonstationary_sqrt(alpha, ell, white_noise(basis.domain, rng), basis)


# ---------------------------------------------------------------------------
# length-scale maps


@dataclass(frozen=True)
class GMap:
    """Positivity-inducing map from a hyperparameter field v to ell.

    ``exp`` is ell = exp(v); ``rational`` is ell = a/(b + c|v|) + d.  The
    output is clipped to [floor, cap] (fractions of the largest extent when
    not given explicitly), which guards the rational map's singularity at
    v = 0 when b = d = 0 and keeps assembled operators well conditioned.
    """

    kind: str
    params: tuple[float, float, float, float] = (4.0, 0.0, 1.0, 0.0)
    floor: float | None = None
    cap: float | None = None


DEFAULT_G_FLOOR_FRAC = 1e-6
DEFAULT_G_CAP_FRAC = 10.0


def g_map(kind: str, params, v: Field, floor: float | None = None,
          cap: float | None = None) -> Field:
    """Pointwise positive length-scale field ell = g(v)."""
    scale = max(v.domain.extents)
    floor = DEFAULT_G_FLOOR_FRAC * scale if floor is None else floor
    cap = DEFAULT_G_CAP_FRAC * scale if cap is None else cap
    if kind == "exp":
        with np.errstate(over="ignore"):
            raw = np.exp(v.values)
    elif kind == "rational":
        a, b, c, d = params
        if a <= 0 or c <= 0 or b < 0 or d < 0:
            raise ValueError(f"rational g requires a, c > 0 and b, d >= 0, got {params}")
        denom = b + c * np.abs(v.values)
        with np.errstate(divide="ignore"):
            raw = a / denom + d
    else:
        raise ValueError(f"unknown g kind {kind!r}")
    ell = np.clip(raw, floor, cap)
    if np.any(ell <= 0):
        raise ValueError("g map produced a nonpositive length scale")
    return Field(v.domain, ell)


# ---------------------------------------------------------------------------
# Cauchy random walk hyperprior (1D)


def cauchy_knot_count(domain: Domain, delta: float) -> int:
    """Number of increment knots delta, 2*delta, ... strictly inside the domain."""
    if domain.dim != 1:
        raise ValueError("the Cauchy process prior is one-dimensional")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = int(np.ceil(domain.extents[0] / delta)) - 1
    if n < 1:
        raise ValueError(f"delta={delta} is too large for the domain length "
                         f"{domain.extents[0]}")
    return n


def cauchy_path_from_increments(domain: Domain, delta: float,
                                increments: np.ndarray) -> Field:
    """Piecewise-constant path v(x) = sum of increments at knots <= x, v(0)=0."""
    n_knots = cauchy_knot_count(domain, delta)
    increments = np.asarray(increments, dtype=float)
    if increments.size != n_knots:
        raise ValueError(f"expected {n_knots} increments, got {increments.size}")
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    x = domain.interior_coords(0)
    idx = np.minimum(np.floor(x / delta).astype(int), n_knots)
    return Field(domain, cum[idx])


def sample_cauchy_process(domain: Domain, delta: float,
                          rng: np.random.Generator) -> Field:
    """Draw a Cauchy random walk: i.i.d. Cauchy(0, delta) increments at spacing delta."""
    n_knots = cauchy_knot_count(domain, delta)
    increments = delta * rng.standard_cauchy(n_knots)
    return cauchy_path_from_increments(domain, delta, increments)


# ---------------------------------------------------------------------------
# uniform-prior bijections


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    bounds = np.asarray(bounds, dtype=float)
    a, b = bounds[..., 0], bounds[..., 1]
    if np.any(a >= b):
        raise ValueError(f"bounds must satisfy a < b, got {bounds}")
    return a, b


def hyper_to_unconstrained(theta, bounds) -> np.ndarray:
    """Normal-quantile bijection from (a, b) to the real line."""
    a, b = _check_bounds(bounds)
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= a) or np.any(theta >= b):
        raise ValueError(f"theta must lie strictly inside the bounds, got {theta}")
    return scipy.special.ndtri((theta - a) / (b - a))


def unconstrained_to_hyper(raw, bounds) -> np.ndarray:
    """Inverse of :func:`hyper_to_unconstrained`; N(0,1) maps to Uniform(a, b)."""
    a, b = _check_bounds(bounds)
    return a + (b - a) * scipy.special.ndtr(np.asarray(raw, dtype=float))


# ---------------------------------------------------------------------------
# hyperprior description


@dataclass(frozen=True)
class HyperPrior:
    """Prior on hyperparameters: uniform scalars, a Gaussian field, or a Cauchy walk."""

    kind: str  # "uniform-scalar" | "gaussian-field" | "cauchy-process"
    bounds: tuple[tuple[float, float], ...] = ()
    names: tuple[str, ...] = ()
    field_spec: MaternSpec | None = None
    cauchy_delta: float = 0.0
    g: GMap | None = None

    def __post_init__(self):
        if self.kind == "uniform-scalar":
            if not self.bounds:
                raise ValueError("uniform-scalar prior needs bounds")
            _check_bounds(self.bounds)
            if self.names and len(self.names) != len(self.bounds):
                raise ValueError("one name per bounded scalar")
        elif self.kind == "gaussian-field":
            if self.field_spec is None:
                raise ValueError("gaussian-field prior needs a MaternSpec for v")
        elif self.kind == "cauchy-process":
            if self.cauchy_delta <= 0:
                raise ValueError("cauchy-process prior needs delta > 0")
        else:
            raise ValueError(f"unknown hyperprior kind {self.kind!r}")
