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
on the coarsest grid.  Each member stops on its own at a relative residual
of 1e-10.  The composite forward map hands the solver about 64 k unknowns
of decoded coefficients at a time (one member per chunk on large grids,
many on small ones), so a chunk amortises the per-call array overhead on
small grids and keeps the working set small on large ones.  The assembled
sparse matrix (:meth:`DarcyProblem.assemble`) remains as the reference that
tests factorize directly.

The 1D source model solves p'' + p = u with homogeneous Dirichlet conditions
by second-order finite differences (algebraically equivalent to lumped
piecewise-linear finite elements); the system is nonsingular because no
Dirichlet sine eigenvalue of -d^2/dx^2 on [0, 10] equals one.

Observations are linear functionals assembled once into a matrix: either
pointwise evaluations (multilinear interpolation, exact at grid nodes) or
mollified Gaussians truncated at six standard deviations and renormalized to
unit discrete mass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from . import multigrid
from .grid import Domain, Field, discrete_eigenvalue


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


class DarcyProblem:
    """Mixed-boundary Darcy flow on a 2D box, or an all-Dirichlet variant.

    ``bc="paper"`` selects the groundwater configuration described in the
    module docstring.  ``bc="dirichlet"`` prescribes ``dirichlet_fn`` on the
    whole boundary and ``source_fn`` in the interior (manufactured-solution
    override); both callables take coordinate arrays.

    :meth:`solve` takes one conductivity field or a list of them.  A list is
    solved as one (B, n1 + 1, n2 + 1) node stack: face transmissibilities
    are harmonic means of the node conductivities, the Dirichlet data enter
    the right-hand side through the same stencil, and multigrid-preconditioned
    conjugate gradients run on the stack until every member's residual is
    below 1e-10 of its right-hand side (:func:`ekinv.multigrid.solve`, which
    raises :class:`ekinv.multigrid.ConvergenceError` naming the member that
    does not get there).  A member's pressure does not depend on what it is
    batched with.  :meth:`assemble` builds the same system as a sparse matrix.
    """

    DIRICHLET_PRESSURE = 100.0
    LEFT_FLUX = 500.0

    def __init__(self, domain: Domain, bc: str = "paper",
                 dirichlet_fn: Callable | None = None,
                 source_fn: Callable | None = None):
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

    # -- static discretization data -------------------------------------

    def _build_static(self):
        n1, n2 = self.domain.n_cells
        h1, h2 = self.domain.h
        L1, L2 = self.domain.extents
        ii, jj = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
        self._x = ii * h1
        self._y = jj * h2

        if self.bc == "paper":
            unknown = jj >= 1
        else:
            unknown = (ii >= 1) & (ii <= n1 - 1) & (jj >= 1) & (jj <= n2 - 1)
        self._unknown = unknown
        self._n_unknown = int(np.count_nonzero(unknown))
        unk_id = -np.ones((n1 + 1, n2 + 1), dtype=np.int64)
        unk_id[unknown] = np.arange(self._n_unknown)
        self._unk_id = unk_id

        # control-volume half-widths per node
        wx = np.where(ii > 0, h1 / 2, 0.0) + np.where(ii < n1, h1 / 2, 0.0)
        wy = np.where(jj > 0, h2 / 2, 0.0) + np.where(jj < n2, h2 / 2, 0.0)
        self._wx, self._wy = wx, wy

        # Dirichlet node values
        dirichlet = np.full((n1 + 1, n2 + 1), np.nan)
        if self.bc == "paper":
            dirichlet[:, 0] = self.DIRICHLET_PRESSURE
        else:
            boundary = ~unknown
            dirichlet[boundary] = self.dirichlet_fn(self._x[boundary], self._y[boundary])
        self._dirichlet = dirichlet

        # per-direction connectivity: rows (unknown ids), neighbor node index,
        # geometric transmissibility factor face_length / distance
        self._edges = []
        for di, dj, h_dir in [(1, 0, h1), (-1, 0, h1), (0, 1, h2), (0, -1, h2)]:
            iu, ju = np.nonzero(unknown)
            inb, jnb = iu + di, ju + dj
            inside = (inb >= 0) & (inb <= n1) & (jnb >= 0) & (jnb <= n2)
            iu, ju, inb, jnb = iu[inside], ju[inside], inb[inside], jnb[inside]
            face = wy[iu, ju] / h_dir if dj == 0 else wx[iu, ju] / h_dir
            nb_unknown = unknown[inb, jnb]
            self._edges.append({
                "rows": unk_id[iu, ju],
                "nb": (inb, jnb),
                "nb_rows": unk_id[inb, jnb],
                "factor": face,
                "nb_unknown": nb_unknown,
                "node": (iu, ju),
            })

        # prescribed-flux boundary faces (paper case): left edge gets inward
        # flux LEFT_FLUX per unit length; top and right faces are no-flux
        self._flux_rhs = np.zeros(self._n_unknown)
        if self.bc == "paper":
            j_left = np.arange(1, n2 + 1)
            rows = unk_id[0, j_left]
            self._flux_rhs[rows] += self.LEFT_FLUX * wy[0, j_left]

        # the matrix-free system on the node grid: geometric face factors,
        # Dirichlet values (zero at the unknowns), static right-hand side
        self._face_x = wy[:-1] / h1
        self._face_y = wx[:, :-1] / h2
        self._boundary = np.where(unknown, 0.0, dirichlet)

        # source integral over each control volume
        iu, ju = np.nonzero(unknown)
        if self.bc == "paper" and self.source_fn is None:
            y_lo = self._y[iu, ju] - np.where(ju > 0, h2 / 2, 0.0)
            y_hi = self._y[iu, ju] + np.where(ju < n2, h2 / 2, 0.0)
            self._source = wx[iu, ju] * (self._paper_source_antiderivative(y_hi)
                                         - self._paper_source_antiderivative(y_lo))
        elif self.source_fn is None:
            self._source = np.zeros(self._n_unknown)
        else:
            area = wx[iu, ju] * wy[iu, ju]
            self._source = area * np.asarray(
                self.source_fn(self._x[iu, ju], self._y[iu, ju]), dtype=float)
        self._rhs_nodes = np.zeros(unknown.shape)
        self._rhs_nodes[unknown] = self._source + self._flux_rhs

    @staticmethod
    def _paper_source_antiderivative(y: np.ndarray) -> np.ndarray:
        """Exact antiderivative of the stepped source 0 / 137 / 274."""
        return 137.0 * np.clip(y - 4.0, 0.0, 1.0) + 274.0 * np.maximum(y - 5.0, 0.0)

    # -- per-coefficient assembly and solve ------------------------------

    def node_kappa(self, kappa: Field) -> np.ndarray:
        """Conductivity on the full node grid (edge-copy of interior values)."""
        if kappa.domain != self.domain:
            raise ValueError("conductivity field lives on a different domain")
        if np.any(kappa.values <= 0):
            raise ValueError("conductivity must be strictly positive")
        n1, n2 = self.domain.n_cells
        kgrid = kappa.grid
        i_src = np.clip(np.arange(n1 + 1) - 1, 0, n1 - 2)
        j_src = np.clip(np.arange(n2 + 1) - 1, 0, n2 - 2)
        return kgrid[np.ix_(i_src, j_src)]

    def assemble(self, kappa: Field):
        knode = self.node_kappa(kappa)
        n = self._n_unknown
        diag = np.zeros(n)
        rhs = self._source + self._flux_rhs.copy()
        rows_all, cols_all, vals_all = [], [], []
        for edge in self._edges:
            iu, ju = edge["node"]
            inb, jnb = edge["nb"]
            T = _harmonic(knode[iu, ju], knode[inb, jnb]) * edge["factor"]
            np.add.at(diag, edge["rows"], T)
            off = edge["nb_unknown"]
            rows_all.append(edge["rows"][off])
            cols_all.append(edge["nb_rows"][off])
            vals_all.append(-T[off])
            fixed = ~off
            if np.any(fixed):
                np.add.at(rhs, edge["rows"][fixed],
                          T[fixed] * self._dirichlet[inb[fixed], jnb[fixed]])
        rows = np.concatenate(rows_all + [np.arange(n)])
        cols = np.concatenate(cols_all + [np.arange(n)])
        vals = np.concatenate(vals_all + [diag])
        A = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))
        return A, rhs

    def _faces(self, knode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x- and y-face transmissibilities of a (B, n1+1, n2+1) conductivity stack."""
        return (_harmonic(knode[:, :-1], knode[:, 1:]) * self._face_x,
                _harmonic(knode[:, :, :-1], knode[:, :, 1:]) * self._face_y)

    def _pressure(self, kappas: Sequence[Field]) -> np.ndarray:
        """Full-node-grid pressures of a list of conductivities, (B, n1+1, n2+1)."""
        knode = np.stack([self.node_kappa(kappa) for kappa in kappas])
        tx, ty = self._faces(knode)
        boundary = np.broadcast_to(self._boundary, knode.shape)
        b = self._rhs_nodes - multigrid.apply(tx, ty, boundary) * self._unknown
        return multigrid.solve(tx, ty, b, self._unknown) + self._boundary

    def solve_full(self, kappa: Field) -> np.ndarray:
        """Pressure on the full node grid, Dirichlet values filled in."""
        return self._pressure([kappa])[0]

    def solve(self, kappa: Field | Sequence[Field]) -> Field | list[Field]:
        """Pressure restricted to the interior nodes, one field per conductivity."""
        single = isinstance(kappa, Field)
        fields = [Field(self.domain, full[1:-1, 1:-1])
                  for full in self._pressure([kappa] if single else kappa)]
        return fields[0] if single else fields

    def boundary_flux_balance(self, kappa: Field) -> tuple[float, float]:
        """(outflux through Dirichlet faces, total source + prescribed influx).

        Discrete divergence theorem: the two numbers agree to solver accuracy.
        """
        full = self.solve_full(kappa)
        knode = self.node_kappa(kappa)
        outflux = 0.0
        for edge in self._edges:
            iu, ju = edge["node"]
            inb, jnb = edge["nb"]
            fixed = ~edge["nb_unknown"]
            T = _harmonic(knode[iu, ju], knode[inb, jnb]) * edge["factor"]
            outflux += np.sum(T[fixed] * (full[iu[fixed], ju[fixed]]
                                          - full[inb[fixed], jnb[fixed]]))
        supplied = float(np.sum(self._source) + np.sum(self._flux_rhs))
        return float(outflux), supplied


class SourceProblem1D:
    """Two-point boundary value problem p'' + p = u, p(0) = p(L) = 0."""

    def __init__(self, domain: Domain):
        if domain.dim != 1:
            raise ValueError("the source problem is one-dimensional")
        self.domain = domain
        n = domain.n_cells[0]
        h = domain.h[0]
        lam = np.array([discrete_eigenvalue(domain, np.array([k]))
                        for k in range(1, n)])
        if np.min(np.abs(1.0 - lam)) < 1e-12:
            raise ValueError("resonant grid: an eigenvalue of -d2/dx2 equals 1")
        # banded form of I - L_h (L_h = second-difference -Laplacian)
        m = domain.n_interior
        self._ab = np.zeros((3, m))
        self._ab[0, 1:] = 1.0 / h**2
        self._ab[1, :] = 1.0 - 2.0 / h**2
        self._ab[2, :-1] = 1.0 / h**2

    def solve(self, u: Field | Sequence[Field]) -> Field | list[Field]:
        """Solution for one source field, or one per field of a list."""
        if isinstance(u, Field):
            return self._solve_one(u)
        return [self._solve_one(member) for member in u]

    def _solve_one(self, u: Field) -> Field:
        if u.domain != self.domain:
            raise ValueError("source field lives on a different domain")
        p = scipy.linalg.solve_banded((1, 1), self._ab, u.values)
        if not np.all(np.isfinite(p)):
            raise RuntimeError("1D solve produced non-finite values")
        return Field(self.domain, p)


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class ObservationModel:
    """Linear observation functionals, data, and noise covariance."""

    kind: str
    centers: np.ndarray
    matrix: np.ndarray
    gamma: np.ndarray
    y: np.ndarray | None = None
    noise_level: float | None = None

    @property
    def n_obs(self) -> int:
        return self.matrix.shape[0]

    @property
    def gamma_chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.gamma)

    def whitened_misfit(self, residual: np.ndarray) -> float:
        """|Gamma^(-1/2) residual|."""
        z = scipy.linalg.solve_triangular(self.gamma_chol, residual, lower=True)
        return float(np.linalg.norm(z))


def _check_centers(domain: Domain, centers: np.ndarray) -> None:
    for a in range(domain.dim):
        if np.any(centers[:, a] <= 0) or np.any(centers[:, a] >= domain.extents[a]):
            raise ValueError("observation centers must lie inside the domain")


def _interpolation_rows(domain: Domain, centers: np.ndarray) -> np.ndarray:
    """Multilinear interpolation weights on interior nodes (implicit zero boundary)."""
    shape = domain.interior_shape
    rows = np.zeros((len(centers), domain.n_interior))
    for r, c in enumerate(centers):
        # per-axis node index/weight pairs, dropping boundary nodes
        axis_terms = []
        for a in range(domain.dim):
            t = c[a] / domain.h[a]
            i0 = int(np.floor(t))
            frac = t - i0
            pairs = [(i0 - 1, 1.0 - frac), (i0, frac)]  # interior index = node - 1
            axis_terms.append([(i, w) for i, w in pairs if 0 <= i < shape[a] and w != 0.0])
        grid = rows[r].reshape(shape)
        if domain.dim == 1:
            for i, w in axis_terms[0]:
                grid[i] += w
        else:
            for i, wi in axis_terms[0]:
                for j, wj in axis_terms[1]:
                    grid[i, j] += wi * wj
    return rows


def point_observations(domain: Domain, n_obs: int,
                       gamma_scale: float = 1e-4) -> ObservationModel:
    """Equally spaced pointwise evaluations at t L / (n_obs + 1), t = 1..n_obs."""
    if domain.dim != 1:
        raise ValueError("point observation layout is one-dimensional")
    if n_obs < 1:
        raise ValueError("need at least one observation")
    centers = (domain.extents[0] * np.arange(1, n_obs + 1) / (n_obs + 1))[:, None]
    _check_centers(domain, centers)
    return ObservationModel(kind="points", centers=centers,
                            matrix=_interpolation_rows(domain, centers),
                            gamma=gamma_scale * np.eye(n_obs))


def mollified_observations(domain: Domain, n_per_axis: int, sigma: float,
                           gamma_scale: float = 1e-4) -> ObservationModel:
    """Gaussian-kernel observations on an n x n interior lattice.

    Centers sit at the cell centers of a uniform n_per_axis partition; each
    kernel is truncated at 6 sigma and renormalized to unit discrete mass, so
    observing the constant field 1 returns exactly 1.
    """
    if domain.dim != 2:
        raise ValueError("the mollified lattice layout is two-dimensional")
    ticks = [(np.arange(n_per_axis) + 0.5) * L / n_per_axis for L in domain.extents]
    cx, cy = np.meshgrid(*ticks, indexing="ij")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    _check_centers(domain, centers)
    x1, x2 = domain.interior_meshgrid()
    rows = np.zeros((len(centers), domain.n_interior))
    for r, (a, b) in enumerate(centers):
        d2 = (x1 - a) ** 2 + (x2 - b) ** 2
        w = np.where(d2 <= (6 * sigma) ** 2, np.exp(-d2 / (2 * sigma**2)), 0.0)
        rows[r] = (w / w.sum()).ravel()
    return ObservationModel(kind="mollified", centers=centers, matrix=rows,
                            gamma=gamma_scale * np.eye(len(centers)))


def observe(p: Field | np.ndarray, model: ObservationModel) -> np.ndarray:
    """Evaluate the observation functionals on a field."""
    values = p.values if isinstance(p, Field) else np.asarray(p, dtype=float)
    return model.matrix @ values


def synthesize_data(model: ObservationModel, truth_output: np.ndarray,
                    rng: np.random.Generator, noise_free: bool = False) -> ObservationModel:
    """Attach y = G(truth) + eta, eta ~ N(0, Gamma), recording the realized
    whitened noise norm as the noise level."""
    truth_output = np.asarray(truth_output, dtype=float)
    if truth_output.shape != (model.n_obs,):
        raise ValueError(f"expected {model.n_obs} outputs, got {truth_output.shape}")
    if noise_free:
        return replace(model, y=truth_output.copy(), noise_level=0.0)
    z = rng.standard_normal(model.n_obs)
    eta = model.gamma_chol @ z
    return replace(model, y=truth_output + eta, noise_level=float(np.linalg.norm(z)))


# ---------------------------------------------------------------------------
# composite forward map


class ForwardError(RuntimeError):
    """A forward evaluation failed; the message names the member(s) and the
    phase (decode, solve or observe)."""


class CompositeForward:
    """G = observe . solve . decode for packed ensemble member vectors.

    The solver takes one decoded field or a list of them.  An ensemble is
    decoded, solved and observed one chunk of members at a time, so no more
    than one chunk of decoded coefficients is held at once.  A chunk holds
    about ``CHUNK_UNKNOWNS`` grid values: many members on a small grid, one
    member from about n = 256 on a 2D grid.
    """

    # On the darcy-channel (n=64) and darcy-exp (n=128) benchmark workloads
    # 2^16 ran 10-25 % faster per iteration than 2^14.
    CHUNK_UNKNOWNS = 1 << 16

    def __init__(self, decode: Callable[[np.ndarray], Field],
                 solver: Callable[[Field | Sequence[Field]], Field | list[Field]],
                 obs: ObservationModel):
        self.decode = decode
        self.solver = solver
        self.obs = obs
        self.chunk = max(1, self.CHUNK_UNKNOWNS // obs.matrix.shape[1])

    def member_output(self, member: np.ndarray) -> np.ndarray:
        return observe(self.solver(self.decode(member)), self.obs)

    def __call__(self, members: np.ndarray) -> np.ndarray:
        """Outputs for a (state_dim, J) ensemble matrix, one column per member.

        Raises :class:`ForwardError` naming the failing member and phase.
        """
        J = members.shape[1]
        out = np.empty((self.obs.n_obs, J))
        for start in range(0, J, self.chunk):
            cols = range(start, min(start + self.chunk, J))
            for j, output in zip(cols, self._chunk_outputs(members, cols)):
                out[:, j] = output
        return out

    def _chunk_outputs(self, members: np.ndarray, cols: range) -> list[np.ndarray]:
        fields = [_in_phase("decode", j, self.decode, members[:, j]) for j in cols]
        try:
            solutions = self.solver(fields)
        except multigrid.ConvergenceError as exc:
            raise ForwardError(f"member {cols[exc.index]}, solve: {exc}") from exc
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            raise ForwardError(f"members {cols[0]}-{cols[-1]}, solve: {exc}") from exc
        return [_in_phase("observe", j, observe, p, self.obs)
                for j, p in zip(cols, solutions)]


def _in_phase(phase: str, member: int, fn, *args):
    try:
        return fn(*args)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        raise ForwardError(f"member {member}, {phase}: {exc}") from exc
