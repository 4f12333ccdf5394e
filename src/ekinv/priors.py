"""Gaussian random field priors, the nonstationary sampler and the Cauchy walk.

Stationary fields follow the shifted-Laplacian covariance

    C = (tau^2 I - Laplace)^(-alpha),    Dirichlet boundary conditions,

realized spectrally: the coefficient of sine mode k is N(0, (tau^2 +
lambda_k)^(-alpha)), so sampling is an exact diagonal scaling of white noise.
The eigenvalues lambda_k and the volume factor are those of the basis's
coordinate convention (:class:`ekinv.grid.SpectralBasis`): the unit box's,
transported to the physical box.

Nonstationary fields solve the variable-coefficient operator equation

    (I - diag(ell(x)^2) Laplace_h) u = ell(x)^(d/2) xi,

one solve: at a constant ell = 1/tau its covariance is that of the
stationary field with alpha = 2, up to a constant factor.  A 1D Cauchy
random walk, piecewise constant between equally spaced knots, is the
heavy-tailed alternative to a Gaussian hyperparameter field.  The field
hyperprior that turns either into ell lives in :mod:`ekinv.param_maps`
(:class:`ekinv.param_maps.NoncenteredMap`).

Scalar hyperparameters with uniform priors are carried through the inversion
in an unconstrained representation via the normal-quantile bijection, so that
standard normal draws map exactly to the uniform prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from .grid import Domain, Field, SpectralBasis, check_members, neg_laplacian, solve_tridiagonal


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


def coefficient_scale(spec: MaternSpec, basis: SpectralBasis) -> np.ndarray:
    """Per-mode standard deviation of the field's sine coefficients, in the
    basis's coordinate convention: one vector, or one row per member when
    alpha and tau are per-member arrays."""
    spec.validate(basis.domain.dim)
    if np.ndim(spec.alpha):
        # tau^2 is squared one member at a time: the scalar power and the
        # array square round differently in the last bit of a few values
        alpha, tau2 = spec.alpha[:, None], np.array([t**2 for t in spec.tau])[:, None]
    else:
        alpha, tau2 = spec.alpha, spec.tau**2
    return (np.sqrt(spec.sigma2 * basis.prior_volume)
            * (tau2 + basis.prior_eigenvalues) ** (-alpha / 2))


def sqrt_cov(spec: MaternSpec, basis: SpectralBasis, xi: np.ndarray) -> np.ndarray:
    """mean + C^(1/2) xi on the grid, for one coefficient vector or a
    (B, n_modes) stack with one member per row (and, optionally, one
    (alpha, tau) per member)."""
    values = basis.synthesize(coefficient_scale(spec, basis) * np.asarray(xi, float))
    return values + spec.mean if spec.mean != 0.0 else values


def apply_sqrt_cov(spec: MaternSpec, basis: SpectralBasis, xi: np.ndarray) -> Field:
    """Deterministic map xi -> mean + C^(1/2) xi (coefficient-wise scaling)."""
    xi = np.asarray(xi, dtype=float)
    if xi.size != basis.n_modes:
        raise ValueError(f"expected {basis.n_modes} coefficients, got {xi.size}")
    return Field(basis.domain, sqrt_cov(spec, basis, xi))


# ---------------------------------------------------------------------------
# nonstationary sampling


def assemble_shifted_operator(ell: Field) -> scipy.sparse.csr_matrix:
    """A = I + diag(ell^2) L_h, the discrete (I - ell(x)^2 Laplace)."""
    L = neg_laplacian(ell.domain)
    return (scipy.sparse.identity(ell.domain.n_interior, format="csr")
            + scipy.sparse.diags(ell.values**2) @ L).tocsr()


def _solve_shifted(ell: np.ndarray, rhs: np.ndarray, domain: Domain) -> np.ndarray:
    """Solve (I + diag(ell^2) L_h) u = rhs for one member."""
    if domain.dim == 1:
        # tridiagonal: row i of A is ell_i^2 times row i of L_h plus one on
        # the diagonal.  Its band takes the same products and sums as the
        # sparse assembly, without building sparse matrices for every call.
        ell2, h = ell**2, domain.h[0]
        ab = np.zeros((3, ell2.size))
        ab[0, 1:] = ell2[:-1] * (-1.0 / h**2)
        ab[1, :] = 1.0 + ell2 * (2.0 / h**2)
        ab[2, :-1] = ell2[1:] * (-1.0 / h**2)
        return solve_tridiagonal(ab, rhs)
    lu = scipy.sparse.linalg.splu(assemble_shifted_operator(Field(domain, ell)).tocsc())
    return lu.solve(rhs)


def nonstationary_sqrt(ell: np.ndarray, xi: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Solve (I - diag(ell^2) Laplace_h) u = ell^(d/2) xi.

    ``ell`` holds length-scale values and ``xi`` white-noise coefficients in
    the sine basis, for one field or as (B, ·) stacks with one member per
    row.  The right-hand sides are synthesized in one transform; the operator
    differs per member, so each member is solved on its own.  Raises
    :class:`ekinv.grid.MemberError` naming the first member with a
    nonpositive length scale or a non-finite solution.
    """
    domain = basis.domain
    check_members(np.all(ell > 0, axis=-1), "length-scale field must be strictly positive")
    rhs = ell ** (domain.dim / 2) * basis.synthesize(xi)
    u = np.empty_like(rhs)
    for index in np.ndindex(rhs.shape[:-1]):
        u[index] = _solve_shifted(ell[index], rhs[index], domain)
    check_members(np.all(np.isfinite(u), axis=-1),
                  "nonstationary solve produced non-finite values")
    return u


# ---------------------------------------------------------------------------
# Cauchy random walk hyperprior (1D)


def cauchy_knot_count(domain: Domain, delta: float) -> int:
    """Number of increment knots delta, 2*delta, ... strictly inside the
    domain's first side."""
    return int(np.ceil(domain.extents[0] / delta)) - 1


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


def unconstrained_to_hyper(raw, bounds) -> np.ndarray:
    """Normal-quantile bijection from the real line to (a, b): N(0, 1) maps
    to Uniform(a, b)."""
    bounds = np.asarray(bounds, dtype=float)
    a, b = bounds[..., 0], bounds[..., 1]
    if np.any(a >= b):
        raise ValueError(f"bounds must satisfy a < b, got {bounds}")
    return a + (b - a) * scipy.special.ndtr(np.asarray(raw, dtype=float))
