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
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from .grid import Domain, Field, SpectralBasis, check_members, neg_laplacian

SCALINGS = ("normalized", "physical")


@dataclass(frozen=True)
class MaternSpec:
    """Shifted-Laplacian Gaussian field: regularity alpha, inverse length tau.

    alpha and tau are numbers, or arrays with one entry per member of a
    stack of fields that share sigma2 and mean.
    """

    alpha: float | np.ndarray
    tau: float | np.ndarray
    sigma2: float = 1.0
    mean: float = 0.0

    def validate(self, dim: int) -> None:
        """Raise :class:`ekinv.grid.MemberError` for the first member whose
        alpha or tau is out of range."""
        check_members(np.greater(self.alpha, dim / 2), f"alpha must exceed d/2 = {dim / 2}",
                      got=self.alpha)
        check_members(np.greater(self.tau, 0), "tau must be positive", got=self.tau)
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


def coefficient_scale(spec: MaternSpec, basis: SpectralBasis,
                      scaling: str = "normalized") -> np.ndarray:
    """Per-mode standard deviation of the field's sine coefficients: one
    vector, or one row per member when alpha and tau are per-member arrays."""
    spec.validate(basis.domain.dim)
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    if scaling == "normalized":
        lam = basis.eigenvalues_normalized
        volume = float(np.prod(basis.domain.extents))
    else:
        lam = basis.eigenvalues
        volume = 1.0
    if np.ndim(spec.alpha):
        # tau^2 is squared one member at a time: the scalar power and the
        # array square round differently in the last bit of a few values
        alpha, tau2 = spec.alpha[:, None], np.array([t**2 for t in spec.tau])[:, None]
    else:
        alpha, tau2 = spec.alpha, spec.tau**2
    return np.sqrt(spec.sigma2 * volume) * (tau2 + lam) ** (-alpha / 2)


def sqrt_cov(spec: MaternSpec, basis: SpectralBasis, xi: np.ndarray,
             scaling: str = "normalized") -> np.ndarray:
    """mean + C^(1/2) xi on the grid, for one coefficient vector or a
    (B, n_modes) stack with one member per row (and, optionally, one
    (alpha, tau) per member)."""
    values = basis.synthesize(coefficient_scale(spec, basis, scaling) * np.asarray(xi, float))
    return values + spec.mean if spec.mean != 0.0 else values


def apply_sqrt_cov(spec: MaternSpec, basis: SpectralBasis, xi: np.ndarray,
                   scaling: str = "normalized") -> Field:
    """Deterministic map xi -> mean + C^(1/2) xi (coefficient-wise scaling)."""
    xi = np.asarray(xi, dtype=float)
    if xi.size != basis.n_modes:
        raise ValueError(f"expected {basis.n_modes} coefficients, got {xi.size}")
    return Field(basis.domain, sqrt_cov(spec, basis, xi, scaling))


# ---------------------------------------------------------------------------
# nonstationary sampling


def assemble_shifted_operator(ell: Field) -> scipy.sparse.csr_matrix:
    """A = I + diag(ell^2) L_h, the discrete (I - ell(x)^2 Laplace)."""
    L = neg_laplacian(ell.domain)
    return (scipy.sparse.identity(ell.domain.n_interior, format="csr")
            + scipy.sparse.diags(ell.values**2) @ L).tocsr()


def _solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_banded((1, 1), ab, b)``: the same LAPACK call, so
    the same bits, without the argument checks that cost as much as the solve."""
    *_, x, info = scipy.linalg.lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _solve_operator_power(ell: np.ndarray, rhs: np.ndarray, power: int,
                          domain: Domain) -> np.ndarray:
    u = rhs
    if domain.dim == 1:
        # tridiagonal: row i of A is ell_i^2 times row i of L_h plus one on
        # the diagonal.  Its band takes the same products and sums as the
        # sparse assembly, without building sparse matrices for every call.
        ell2, h = ell**2, domain.h[0]
        ab = np.zeros((3, ell2.size))
        ab[0, 1:] = ell2[:-1] * (-1.0 / h**2)
        ab[1, :] = 1.0 + ell2 * (2.0 / h**2)
        ab[2, :-1] = ell2[1:] * (-1.0 / h**2)
        for _ in range(power):
            u = _solve_tridiagonal(ab, u)
        return u
    lu = scipy.sparse.linalg.splu(assemble_shifted_operator(Field(domain, ell)).tocsc())
    for _ in range(power):
        u = lu.solve(u)
    return u


def nonstationary_sqrt(alpha: float, ell: np.ndarray, xi: np.ndarray,
                       basis: SpectralBasis) -> np.ndarray:
    """Solve (I - diag(ell^2) Laplace_h)^(alpha/2) u = ell^(d/2) xi.

    ``ell`` holds length-scale values and ``xi`` white-noise coefficients in
    the sine basis, for one field or as (B, ·) stacks with one member per
    row.  The right-hand sides are synthesized in one transform; the operator
    differs per member, so each member is solved on its own.  alpha/2 must
    be a positive integer (integer operator powers are applied by repeated
    solves).  Raises :class:`ekinv.grid.MemberError` naming the first member
    with a nonpositive length scale or a non-finite solution.
    """
    half = alpha / 2
    if abs(half - round(half)) > 1e-12 or round(half) < 1:
        raise ValueError(f"alpha/2 must be a positive integer, got alpha={alpha}")
    domain = basis.domain
    check_members(np.all(ell > 0, axis=-1), "length-scale field must be strictly positive")
    rhs = ell ** (domain.dim / 2) * basis.synthesize(xi)
    u = np.empty_like(rhs)
    for index in np.ndindex(rhs.shape[:-1]):
        u[index] = _solve_operator_power(ell[index], rhs[index], int(round(half)), domain)
    check_members(np.all(np.isfinite(u), axis=-1),
                  "nonstationary solve produced non-finite values")
    return u


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

    def __call__(self, v: np.ndarray, domain: Domain) -> np.ndarray:
        """ell = g(v) at every value of v: one field or a stack of them."""
        scale = max(domain.extents)
        floor = DEFAULT_G_FLOOR_FRAC * scale if self.floor is None else self.floor
        cap = DEFAULT_G_CAP_FRAC * scale if self.cap is None else self.cap
        if self.kind == "exp":
            with np.errstate(over="ignore"):
                raw = np.exp(v)
        elif self.kind == "rational":
            a, b, c, d = self.params
            if a <= 0 or c <= 0 or b < 0 or d < 0:
                raise ValueError("rational g requires a, c > 0 and b, d >= 0, "
                                 f"got {self.params}")
            denom = b + c * np.abs(v)
            with np.errstate(divide="ignore"):
                raw = a / denom + d
        else:
            raise ValueError(f"unknown g kind {self.kind!r}")
        ell = np.clip(raw, floor, cap)
        if np.any(ell <= 0):
            raise ValueError("g map produced a nonpositive length scale")
        return ell


DEFAULT_G_FLOOR_FRAC = 1e-6
DEFAULT_G_CAP_FRAC = 10.0


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


def cauchy_path(domain: Domain, delta: float, increments: np.ndarray) -> np.ndarray:
    """Piecewise-constant path v(x) = sum of increments at knots <= x, v(0)=0,
    for one increment vector or a (B, n_knots) stack with one walk per row."""
    n_knots = cauchy_knot_count(domain, delta)
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1] != n_knots:
        raise ValueError(f"expected {n_knots} increments, got {increments.shape[-1]}")
    cum = np.zeros(increments.shape[:-1] + (n_knots + 1,))
    cum[..., 1:] = np.cumsum(increments, axis=-1)
    x = domain.interior_coords(0)
    idx = np.minimum(np.floor(x / delta).astype(int), n_knots)
    return cum[..., idx]


# ---------------------------------------------------------------------------
# uniform-prior bijections


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    bounds = np.asarray(bounds, dtype=float)
    a, b = bounds[..., 0], bounds[..., 1]
    if np.any(a >= b):
        raise ValueError(f"bounds must satisfy a < b, got {bounds}")
    return a, b


def unconstrained_to_hyper(raw, bounds) -> np.ndarray:
    """Normal-quantile bijection from the real line to (a, b): N(0, 1) maps
    to Uniform(a, b)."""
    a, b = _check_bounds(bounds)
    return a + (b - a) * scipy.special.ndtr(np.asarray(raw, dtype=float))


# ---------------------------------------------------------------------------
# hyperprior description


@dataclass(frozen=True)
class HyperPrior:
    """Prior on hyperparameters: uniform scalars, a Gaussian field, or a Cauchy walk."""

    kind: str  # "uniform-scalar" | "gaussian-field" | "cauchy-process"
    bounds: tuple[tuple[float, float], ...] = ()
    field_spec: MaternSpec | None = None
    cauchy_delta: float = 0.0
    g: GMap | None = None

    def __post_init__(self):
        if self.kind == "uniform-scalar":
            if not self.bounds:
                raise ValueError("uniform-scalar prior needs bounds")
            _check_bounds(self.bounds)
        elif self.kind == "gaussian-field":
            if self.field_spec is None:
                raise ValueError("gaussian-field prior needs a MaternSpec for v")
        elif self.kind == "cauchy-process":
            if self.cauchy_delta <= 0:
                raise ValueError("cauchy-process prior needs delta > 0")
        else:
            raise ValueError(f"unknown hyperprior kind {self.kind!r}")
