"""PDE forward solvers and observation operators.

The groundwater model solves -div(kappa grad p) = f on a box with a
conservative vertex-centered finite-volume scheme: harmonic-mean face
transmissibilities, Dirichlet data eliminated through neighboring nodes, and
prescribed-flux faces entering the balance exactly (second order overall,
exact on linear solutions).  The paper configuration uses Dirichlet pressure
100 on the bottom edge, inward flux 500 on the left edge (-kappa dp/dx = 500),
no-flux top and right edges, and a source that steps in the vertical
coordinate (0 / 137 / 274).  An all-Dirichlet variant with overridable
boundary data and source supports manufactured-solution testing.

The Darcy system is symmetric positive definite and is never assembled on
the solve path.  Its 5-point stencil is applied as array slices to a stack
of coefficient fields at once, and conjugate gradients preconditioned by
one symmetric multigrid V-cycle solve the stack (``ekinv.multigrid``):
red-black Gauss-Seidel smoothing, 2:1 vertex coarsening whose coarse faces
combine the fine ones in series along the flow and in parallel across it,
bilinear prolongation with its transpose as restriction, and a dense solve
on the coarsest grid.  The V-cycle runs in float32; the conjugate-gradient
vectors, the stopping test and the returned pressure are float64.  The
stacks are C-ordered, and every array of a solve lives in one plan
(:class:`ekinv.multigrid.Plan`) that a problem keeps for the widest stack it
has solved, so a later stack allocates no work buffers; every step rounds
as whole-array expressions would.
Each member stops on its own.  A problem built with its observation model
hands the solver the observation functionals: a member then stops once its
observations have settled to a thousandth of the smallest noise standard
deviation over two iterations and its relative residual is at most 1e-8.
Without them a member stops at a relative residual of 1e-10.  The
discretization is held once, as node-grid arrays.  The reference that tests
factorize is one sparse 5-point operator over every node, built from them
with its own harmonic-mean faces; :meth:`DarcyProblem.assemble` is its
unknown-node block, the Dirichlet columns moved into the right-hand side.

The 1D source model solves p'' + p = u with homogeneous Dirichlet conditions
by second-order finite differences (algebraically equivalent to lumped
piecewise-linear finite elements); the system is nonsingular because no
Dirichlet sine eigenvalue of -d^2/dx^2 on [0, 10] equals one.  A stack of
sources is solved in one call of LAPACK's tridiagonal solver
(:func:`ekinv.grid.solve_tridiagonal`, which the 1D prior decode also calls)
with one right-hand side per source.

Observations are linear functionals held as one factor per grid axis
(:class:`SeparableOperator`): in 1D a single matrix of pointwise evaluations
(linear interpolation between the two nearest nodes, exact at grid nodes),
in 2D mollified Gaussians, each the product of two 1D Gaussians that are
truncated at six standard deviations along their own axis and renormalized
to unit discrete mass.  A 2D member is observed as Kx P Ky^T, with P its
interior pressure grid and Kx, Ky the two (n, n - 1) factors; the dense
(n^2, (n - 1)^2) matrix is never built.

The composite forward map of an ensemble, observe . solve . decode, is
:mod:`ekinv.composite`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from . import multigrid
from .grid import Domain, Field, check_members, discrete_eigenvalue, solve_tridiagonal


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


class DarcyProblem:
    """Mixed-boundary Darcy flow on a 2D box, or an all-Dirichlet variant.

    ``bc="paper"`` selects the groundwater configuration described in the
    module docstring.  ``bc="dirichlet"`` prescribes ``dirichlet_fn`` on the
    whole boundary and ``source_fn`` in the interior (manufactured-solution
    override); both callables take coordinate arrays.  ``observations``, a
    2D observation model such as :func:`mollified_observations` gives, is
    what the pressures will be read through.

    :meth:`solve` takes one conductivity field, or a (B, n_interior) array of
    conductivities, one member per row, and returns a field or a (B,
    n_interior) array of interior pressures.  Either is solved as one
    (B, n1 + 1, n2 + 1) node stack: face transmissibilities
    are harmonic means of the node conductivities, the Dirichlet data enter
    the right-hand side through the same stencil, and multigrid-preconditioned
    conjugate gradients run on the stack until every member has stopped
    (:meth:`ekinv.multigrid.Plan.solve`, which raises
    :class:`ekinv.multigrid.ConvergenceError` naming the member that does not
    and the stop test it failed).  Given ``observations``, a member stops once
    its observations, laid on the node grid, have settled to within
    ``multigrid.SETTLED`` of the smallest noise standard deviation over
    ``multigrid.DELAY`` iterations and its residual is at most 1e-8 of its
    right-hand side; without them, once its residual is at most 1e-10 of it.
    A member's pressure does not depend on what it is batched with, apart
    from the last bits of a one-member stack on the finer grids (see
    :mod:`ekinv.multigrid`).

    The problem keeps the :class:`ekinv.multigrid.Plan` of the widest stack
    it has solved: the faces, the right-hand side and every work array are
    written into it, and a narrower stack works in its leading views.  So a
    process that solves chunk after chunk allocates the plan at its first
    chunk and reuses it for every later one.  A single field is solved
    through a plan of its own that is not kept, so a process that solves
    only its truth keeps none.
    :meth:`assemble` builds the same system as a sparse matrix.
    """

    DIRICHLET_PRESSURE = 100.0
    LEFT_FLUX = 500.0

    def __init__(self, domain: Domain, bc: str = "paper",
                 dirichlet_fn: Callable | None = None,
                 source_fn: Callable | None = None,
                 observations: ObservationModel | None = None):
        if domain.dim != 2:
            raise ValueError("the Darcy problem is two-dimensional")
        if bc not in ("paper", "dirichlet"):
            raise ValueError(f"bc must be 'paper' or 'dirichlet', got {bc!r}")
        if bc == "dirichlet" and dirichlet_fn is None:
            raise ValueError("the all-Dirichlet variant needs boundary data")
        self.domain = domain
        self.bc = bc
        self.dirichlet_fn = dirichlet_fn
        self.source_fn = source_fn
        self._build_static()
        self._kept = None   # the plan of the widest stack solved so far
        # the interior factors, zero on the boundary nodes, and the smallest
        # noise standard deviation
        self._observed = None if observations is None else multigrid.Observed(
            *(np.pad(f, ((0, 0), (1, 1))) for f in observations.matrix.factors),
            float(np.sqrt(np.diag(observations.gamma).min())))

    # -- static discretization data -------------------------------------

    def _build_static(self):
        n1, n2 = self.domain.n_cells
        h1, h2 = self.domain.h
        ii, jj = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
        x, y = ii * h1, jj * h2
        if self.bc == "paper":
            unknown = jj >= 1
        else:
            unknown = (ii >= 1) & (ii <= n1 - 1) & (jj >= 1) & (jj <= n2 - 1)
        self._unknown = unknown

        # control-volume widths per node; each face's geometric factor is
        # face length / node distance
        wx = np.where(ii > 0, h1 / 2, 0.0) + np.where(ii < n1, h1 / 2, 0.0)
        wy = np.where(jj > 0, h2 / 2, 0.0) + np.where(jj < n2, h2 / 2, 0.0)
        self._face_x = wy[:-1] / h1
        self._face_y = wx[:, :-1] / h2

        # Dirichlet values on the boundary nodes, zero at the unknowns
        self._boundary = np.zeros(unknown.shape)
        if self.bc == "paper":
            self._boundary[:, 0] = self.DIRICHLET_PRESSURE
        else:
            self._boundary[~unknown] = self.dirichlet_fn(x[~unknown], y[~unknown])

        # source integral over each control volume, plus (paper case) the
        # inward flux LEFT_FLUX per unit length through the left edge; top
        # and right faces are no-flux
        source = np.zeros(unknown.shape)
        if self.source_fn is not None:
            source[unknown] = (wx * wy)[unknown] * np.asarray(
                self.source_fn(x[unknown], y[unknown]), dtype=float)
        elif self.bc == "paper":
            y_lo = y - np.where(jj > 0, h2 / 2, 0.0)
            y_hi = y + np.where(jj < n2, h2 / 2, 0.0)
            source = wx * (self._paper_source_antiderivative(y_hi)
                           - self._paper_source_antiderivative(y_lo))
        flux = np.zeros(unknown.shape)
        if self.bc == "paper":
            flux[0, 1:] = self.LEFT_FLUX * wy[0, 1:]
        self._rhs_nodes = np.where(unknown, source + flux, 0.0)

    @staticmethod
    def _paper_source_antiderivative(y: np.ndarray) -> np.ndarray:
        """Exact antiderivative of the stepped source 0 / 137 / 274."""
        return 137.0 * np.clip(y - 4.0, 0.0, 1.0) + 274.0 * np.maximum(y - 5.0, 0.0)

    # -- per-coefficient assembly and solve ------------------------------

    def node_kappa(self, kappa: Field | np.ndarray) -> np.ndarray:
        """Conductivity on the full node grid (edge-copy of interior values):
        (n1+1, n2+1) for a field, (B, n1+1, n2+1) for a (B, n_interior) array.

        Raises :class:`ekinv.grid.MemberError` naming the first member with a
        value that is not strictly positive."""
        if isinstance(kappa, Field):
            if kappa.domain != self.domain:
                raise ValueError("conductivity field lives on a different domain")
            return self.node_kappa(kappa.values[None])[0]
        check_members(np.all(kappa > 0, axis=-1), "conductivity must be strictly positive")
        n1, n2 = self.domain.n_cells
        kgrid = kappa.reshape(-1, n1 - 1, n2 - 1)
        i_src = np.clip(np.arange(n1 + 1) - 1, 0, n1 - 2)
        j_src = np.clip(np.arange(n2 + 1) - 1, 0, n2 - 2)
        # one axis at a time keeps the stack C-ordered, the layout the solver is tuned for
        return np.take(np.take(kgrid, i_src, axis=1), j_src, axis=2)

    def _operator(self, kappa: Field):
        """The 5-point operator over every node, row-major, as a sparse matrix.

        The reference that tests factorize: its face transmissibilities are
        computed here from :meth:`node_kappa`, apart from the solve path."""
        knode = self.node_kappa(kappa)
        tx = _harmonic(knode[:-1], knode[1:]) * self._face_x
        ty = _harmonic(knode[:, :-1], knode[:, 1:]) * self._face_y
        diag = np.zeros(knode.shape)
        diag[:-1] += tx
        diag[1:] += tx
        diag[:, :-1] += ty
        diag[:, 1:] += ty
        # row-major, an x-neighbor is one row of nodes away; the y-neighbor
        # diagonals hold a zero where a row ends
        ty = np.pad(ty, ((0, 0), (0, 1))).ravel()[:-1]
        row = knode.shape[1]
        return scipy.sparse.diags([diag.ravel(), -tx.ravel(), -tx.ravel(), -ty, -ty],
                                  [0, row, -row, 1, -1], format="csr")

    def assemble(self, kappa: Field):
        """(A, b) over the unknown nodes in row-major order, the Dirichlet
        columns moved into b."""
        rows = self._operator(kappa)[self._unknown.ravel()]
        A = rows[:, self._unknown.ravel()].tocsc()
        return A, self._rhs_nodes[self._unknown] - rows @ self._boundary.ravel()

    def _system(self, knode: np.ndarray, plan: multigrid.Plan
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Write the x- and y-face transmissibilities and the right-hand side of
        a (B, n1+1, n2+1) conductivity stack into ``plan``'s inputs, and return
        those views, in the order of the whole-array expressions
        2 a b / (a + b) * geometry and rhs - (A boundary) * unknown."""
        tx, ty, b = plan.inputs(len(knode))
        for faces, lo, hi, geometry in ((tx, knode[:, :-1], knode[:, 1:], self._face_x),
                                        (ty, knode[:, :, :-1], knode[:, :, 1:], self._face_y)):
            # b is free until the lift below: it holds the sums a + b
            sums = b.reshape(len(b), -1)[:, :faces[0].size].reshape(faces.shape)
            np.multiply(2.0, lo, out=faces)
            faces *= hi
            faces /= np.add(lo, hi, out=sums)
            faces *= geometry
        lift = plan.apply(np.broadcast_to(self._boundary, knode.shape))
        lift *= self._unknown
        np.subtract(self._rhs_nodes, lift, out=b)
        return tx, ty, b

    def _plan(self, members: int) -> multigrid.Plan:
        """The plan of the widest stack solved so far, widened to ``members``."""
        if self._kept is None or self._kept.members < members:
            self._kept = None   # freed before its successor is allocated
            self._kept = multigrid.Plan(self._unknown, members)
        return self._kept

    def _pressure(self, knode: np.ndarray, plan: multigrid.Plan) -> np.ndarray:
        """Full-node-grid pressures of a (B, n1+1, n2+1) conductivity stack, as
        a view of ``plan``."""
        self._system(knode, plan)
        p = plan.solve(len(knode), self._observed)
        p += self._boundary
        return p

    def solve_full(self, kappa: Field) -> np.ndarray:
        """Pressure on the full node grid, Dirichlet values filled in."""
        knode = self.node_kappa(kappa)[None]
        return self._pressure(knode, multigrid.Plan(self._unknown, 1))[0].copy()

    def solve(self, kappa: Field | np.ndarray) -> Field | np.ndarray:
        """Pressure restricted to the interior nodes: a field for a field, a
        (B, n_interior) array for a (B, n_interior) array."""
        if isinstance(kappa, Field):
            return Field(self.domain, self.solve_full(kappa)[1:-1, 1:-1])
        p = self._pressure(self.node_kappa(kappa), self._plan(len(kappa)))[:, 1:-1, 1:-1]
        return p.reshape(len(p), -1)   # a copy: the plan's views are overwritten by the next solve

    def boundary_flux_balance(self, kappa: Field) -> tuple[float, float]:
        """(outflux through Dirichlet faces, total source + prescribed influx).

        The outflux is minus the sum of the operator's Dirichlet rows applied
        to the pressure; faces between two Dirichlet nodes cancel in it.
        Discrete divergence theorem: the two numbers agree to solver accuracy.
        """
        residual = self._operator(kappa) @ self.solve_full(kappa).ravel()
        return (float(-np.sum(residual[~self._unknown.ravel()])),
                float(np.sum(self._rhs_nodes)))


class SourceProblem1D:
    """Two-point boundary value problem p'' + p = u, p(0) = p(L) = 0."""

    def __init__(self, domain: Domain):
        if domain.dim != 1:
            raise ValueError("the source problem is one-dimensional")
        self.domain = domain
        n = domain.n_cells[0]
        h = domain.h[0]
        lam = discrete_eigenvalue(domain, np.arange(1, n)[:, None])
        if np.min(np.abs(1.0 - lam)) < 1e-12:
            raise ValueError("resonant grid: an eigenvalue of -d2/dx2 equals 1")
        # banded form of I - L_h (L_h = second-difference -Laplacian)
        m = domain.n_interior
        self._ab = np.zeros((3, m))
        self._ab[0, 1:] = 1.0 / h**2
        self._ab[1, :] = 1.0 - 2.0 / h**2
        self._ab[2, :-1] = 1.0 / h**2

    def solve(self, u: Field | np.ndarray) -> Field | np.ndarray:
        """Solution for one source field, or a (B, n_interior) array of
        solutions for a (B, n_interior) array of sources, one per row.

        The rows are solved in one tridiagonal solve with one right-hand side
        each (:func:`ekinv.grid.solve_tridiagonal`, bit for bit SciPy's
        banded solver); each row gives the same values as a solve on its own.
        """
        single = isinstance(u, Field)
        if single and u.domain != self.domain:
            raise ValueError("source field lives on a different domain")
        p = solve_tridiagonal(self._ab, (u.values[None] if single else u).T).T
        if not np.all(np.isfinite(p)):
            raise RuntimeError("1D solve produced non-finite values")
        return Field(self.domain, p[0]) if single else p


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class SeparableOperator:
    """Observation functionals held as one factor per grid axis: the
    operator is the Kronecker product of the factors (a single factor is
    the operator itself).  One interior vector, P as its node grid, is
    observed as K1 P K2^T without forming that product; a (B, n) stack of
    them is observed row by row in one call, each row to its own bits."""

    factors: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (int(np.prod([f.shape[0] for f in self.factors])),
                int(np.prod([f.shape[1] for f in self.factors])))

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.factors)

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        # a stacked matmul makes each row's own BLAS calls; values @ k.T and
        # (k @ values.T).T would round a 1D stack differently
        if len(self.factors) == 1:
            return np.matmul(self.factors[0], values[..., None])[..., 0]
        k1, k2 = self.factors
        grids = values.reshape(*values.shape[:-1], k1.shape[1], k2.shape[1])
        return np.matmul(np.matmul(k1, grids), k2.T).reshape(*values.shape[:-1], -1)


@dataclass(frozen=True)
class ObservationModel:
    """Linear observation functionals, data, and noise covariance."""

    centers: np.ndarray
    matrix: SeparableOperator
    gamma: np.ndarray
    y: np.ndarray | None = None
    noise_level: float | None = None

    @property
    def n_obs(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def gamma_chol(self) -> np.ndarray:
        """Lower Cholesky factor of Gamma, factored on first read."""
        return np.linalg.cholesky(self.gamma)

    def whitened_misfit(self, residual: np.ndarray) -> float:
        """|Gamma^(-1/2) residual|."""
        z = scipy.linalg.solve_triangular(self.gamma_chol, residual, lower=True)
        return float(np.linalg.norm(z))


def _check_layout(n_obs: int, gamma_scale: float) -> None:
    if n_obs < 1:
        raise ValueError("need at least one observation")
    if not gamma_scale > 0:
        raise ValueError(f"gamma_scale must be positive, got {gamma_scale}")


def point_observations(domain: Domain, n_obs: int,
                       gamma_scale: float = 1e-4) -> ObservationModel:
    """Equally spaced pointwise evaluations at t L / (n_obs + 1), t = 1..n_obs.

    Each row holds the hat-function weights of the two nodes around its
    center; a boundary node's weight is dropped (the field is zero there).
    The rows are the operator's single factor.
    """
    if domain.dim != 1:
        raise ValueError("point observation layout is one-dimensional")
    _check_layout(n_obs, gamma_scale)
    centers = (domain.extents[0] * np.arange(1, n_obs + 1) / (n_obs + 1))[:, None]
    t = centers[:, 0] / domain.h[0]
    left = np.floor(t).astype(int)   # node index; interior index = node - 1
    rows = np.zeros((n_obs, domain.n_cells[0] + 1))   # every node, boundary too
    rows[np.arange(n_obs), left] = 1.0 - (t - left)
    rows[np.arange(n_obs), left + 1] = t - left
    return ObservationModel(centers=centers,
                            matrix=SeparableOperator((np.ascontiguousarray(rows[:, 1:-1]),)),
                            gamma=gamma_scale * np.eye(n_obs))


def mollified_observations(domain: Domain, n_per_axis: int, sigma: float,
                           gamma_scale: float = 1e-4) -> ObservationModel:
    """Gaussian-kernel observations on an n x n interior lattice.

    The centers are the cell centers of a uniform n x n partition,
    row-major.  Each 2D kernel is the product of two 1D Gaussians, each cut
    at 6 sigma along its own axis and renormalized to unit discrete mass, so
    observing the constant field 1 returns 1.  The operator holds the two
    (n, n_a - 1) factors, not the dense (n^2, n_interior) matrix.  Raises
    ValueError for the first center whose kernel holds no interior node to
    renormalize: one whose tick on some axis has no node within the cut.
    """
    _check_layout(n_per_axis, gamma_scale)
    if domain.dim != 2:
        raise ValueError("the mollified lattice layout is two-dimensional")
    if not sigma > 0:
        raise ValueError(f"the mollifier sigma must be positive, got {sigma}")
    ticks = [(np.arange(n_per_axis) + 0.5) * L / n_per_axis for L in domain.extents]
    kernels = []
    for a, t in enumerate(ticks):
        d = domain.interior_coords(a) - t[:, None]
        kernels.append(np.where(np.abs(d) <= 6 * sigma, np.exp(-d**2 / (2 * sigma**2)), 0.0))
    cx, cy = np.meshgrid(*ticks, indexing="ij")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    # a weight inside the cut is at least exp(-18), so a row is empty only
    # when no node lies within it
    empty = np.flatnonzero(~np.logical_and.outer(*(k.any(axis=1) for k in kernels)))
    if empty.size:
        a, b = centers[empty[0]]
        raise ValueError(f"no interior node of the {domain.n_cells[0]} x {domain.n_cells[1]} grid "
                         f"lies within 6 sigma = {6 * sigma:g} of the observation center "
                         f"({a:g}, {b:g})")
    factors = tuple(k / k.sum(axis=1, keepdims=True) for k in kernels)
    return ObservationModel(centers=centers, matrix=SeparableOperator(factors),
                            gamma=gamma_scale * np.eye(len(centers)))


def observe(p: Field | np.ndarray, model: ObservationModel) -> np.ndarray:
    """Evaluate the observation functionals on a field, an interior vector
    or a (B, n_interior) stack of them, one row of outputs each."""
    values = p.values if isinstance(p, Field) else np.asarray(p, dtype=float)
    return model.matrix @ values


def synthesize_data(model: ObservationModel, truth_output: np.ndarray,
                    rng: np.random.Generator) -> ObservationModel:
    """Attach y = G(truth) + eta, eta ~ N(0, Gamma), recording the realized
    whitened noise norm as the noise level."""
    truth_output = np.asarray(truth_output, dtype=float)
    if truth_output.shape != (model.n_obs,):
        raise ValueError(f"expected {model.n_obs} outputs, got {truth_output.shape}")
    z = rng.standard_normal(model.n_obs)
    eta = model.gamma_chol @ z
    return replace(model, y=truth_output + eta, noise_level=float(np.linalg.norm(z)))
