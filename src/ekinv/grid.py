"""Uniform rectangular grids and the Dirichlet sine basis.

A domain is an axis-aligned box [0, L1] (x [0, L2]) discretized by a uniform
vertex grid of n cells per axis.  Fields store values on the interior nodes
only; boundary values are implicitly zero unless a forward solver supplies its
own boundary data.  On this grid the eigenfunctions of the negative Laplacian
with homogeneous Dirichlet boundary conditions,

    phi_k(x) = prod_a sqrt(2/L_a) * sin(k_a pi x_a / L_a),

are exactly orthonormal under the trapezoidal (interior-node) inner product
and exactly diagonalize the standard second-difference matrix.  All prior
sampling is performed in this basis, so synthesis/analysis round trips are
exact to machine precision at every resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg.lapack
import scipy.sparse


def _as_tuple(value, dim: int, name: str) -> tuple:
    if np.isscalar(value):
        value = (value,) * dim
    value = tuple(value)
    if len(value) != dim:
        raise ValueError(f"{name} must have one entry per axis, got {value!r} for dim={dim}")
    return value


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box [0, extents] with a uniform grid of n_cells per axis."""

    dim: int
    extents: tuple[float, ...]
    n_cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.extents) != self.dim or len(self.n_cells) != self.dim:
            raise ValueError("extents and n_cells must have one entry per axis")
        if any(L <= 0 or not np.isfinite(L) for L in self.extents):
            raise ValueError(f"extents must be strictly positive, got {self.extents}")
        if any(int(n) != n or n < 2 for n in self.n_cells):
            raise ValueError(f"n_cells must be integers >= 2 per axis, got {self.n_cells}")

    @property
    def h(self) -> tuple[float, ...]:
        """Grid spacing per axis."""
        return tuple(L / n for L, n in zip(self.extents, self.n_cells))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        """Number of interior nodes per axis."""
        return tuple(n - 1 for n in self.n_cells)

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    @property
    def node_measure(self) -> float:
        """Quadrature weight of one interior node (product of spacings)."""
        return float(np.prod(self.h))

    def interior_coords(self, axis: int) -> np.ndarray:
        """Coordinates of interior nodes along one axis."""
        n = self.n_cells[axis]
        return self.extents[axis] * np.arange(1, n) / n

    def interior_meshgrid(self) -> tuple[np.ndarray, ...]:
        """Interior node coordinates as arrays of shape ``interior_shape``."""
        axes = [self.interior_coords(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def norm(self, u: np.ndarray) -> float:
        """Grid L2 norm over interior nodes."""
        return float(np.sqrt(self.node_measure) * np.linalg.norm(np.ravel(u)))


def build_domain(dim: int, extents, n_cells) -> Domain:
    """Validate and construct a :class:`Domain`.

    ``extents`` and ``n_cells`` may be scalars (applied to every axis) or
    per-axis sequences.
    """
    extents = _as_tuple(extents, dim, "extents")
    n_cells = _as_tuple(n_cells, dim, "n_cells")
    return Domain(dim=dim, extents=tuple(float(L) for L in extents),
                  n_cells=tuple(int(n) for n in n_cells))


class MemberError(ValueError):
    """A check failed for one member of a stack; ``index`` is its position
    (0 for a single field)."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def check_members(ok, message: str, got=None) -> None:
    """Raise :class:`MemberError` for the first member whose ``ok`` is False.

    ``ok``, and ``got`` (the values checked, quoted in the message), hold one
    entry for a single field or one per member of a stack.
    """
    bad = np.flatnonzero(~np.atleast_1d(ok))
    if bad.size:
        index = int(bad[0])
        if got is not None:
            message += f", got {np.atleast_1d(got)[index]}"
        raise MemberError(index, message)


@dataclass
class Field:
    """Real-valued grid function stored on the interior nodes of a domain."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.domain.n_interior:
            raise ValueError(
                f"field has {self.values.size} values, domain has "
                f"{self.domain.n_interior} interior nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must all be finite")

    def norm(self) -> float:
        return self.domain.norm(self.values)


class SpectralBasis:
    """Dirichlet sine eigenbasis of -Laplace on a domain's interior grid.

    Modes are all tensor sine functions representable at the grid resolution
    (k_a = 1 .. n_a - 1 per axis), sorted ascending by continuum eigenvalue
    lambda_k = sum_a (k_a pi / L_a)^2.  Synthesis and analysis are exact
    inverses implemented with type-I discrete sine transforms.

    The basis holds the coordinate convention of the priors drawn in it, as
    the eigenvalues and volume factor a prior's per-mode scale reads: the
    unit box's sum_a (k_a pi)^2 and the box's volume, so a prior is the
    unit-box field transported to the box and tau, alpha mean the same on
    any box.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        shape = domain.interior_shape
        k_axes = [np.arange(1, n) for n in domain.n_cells]
        k_grids = np.meshgrid(*k_axes, indexing="ij")
        ks = np.stack([k.ravel() for k in k_grids], axis=1)

        lam_phys = np.zeros(len(ks))
        lam_norm = np.zeros(len(ks))
        for a in range(domain.dim):
            lam_phys += (ks[:, a] * np.pi / domain.extents[a]) ** 2
            lam_norm += (ks[:, a] * np.pi) ** 2

        # stable sort: eigenvalue, then lexicographic multi-index
        order = np.lexsort(tuple(ks[:, a] for a in reversed(range(domain.dim))) + (lam_phys,))
        self.k_indices = ks[order]
        self.eigenvalues = lam_phys[order]
        self.prior_eigenvalues = lam_norm[order]
        self.prior_volume = float(np.prod(domain.extents))
        self._order = order
        self._kgrid_shape = shape

        # DST-I scalings: synthesis f = c_syn * dstn(coeff grid),
        # analysis c = c_ana * dstn(values grid); dst1 o dst1 = 2n identity.
        c_syn = 1.0
        c_ana = 1.0
        for L, n in zip(domain.extents, domain.n_cells):
            c_syn *= np.sqrt(1.0 / (2.0 * L))
            c_ana *= np.sqrt(L / 2.0) / n
        self._c_syn = c_syn
        self._c_ana = c_ana

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of one coefficient vector, or of a (B, n_modes) stack
        with one member per row, in one transform over the member axis.

        A member's values do not depend on what it is stacked with.  Raises
        :class:`MemberError` for the first member whose values overflow.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} coefficients, got {coeffs.shape[-1]}")
        kgrid = np.empty(coeffs.shape)
        kgrid[..., self._order] = coeffs
        members = coeffs.shape[:-1]
        axes = tuple(range(-self.domain.dim, 0))
        values = self._c_syn * scipy.fft.dstn(kgrid.reshape(members + self._kgrid_shape),
                                              type=1, axes=axes)
        values = values.reshape(coeffs.shape)
        check_members(np.all(np.isfinite(values), axis=-1), "field values must all be finite")
        return values

    def analysis(self, field: Field | np.ndarray) -> np.ndarray:
        """Coefficients of a field in the sorted mode order."""
        values = field.values if isinstance(field, Field) else np.asarray(field, dtype=float)
        vgrid = values.reshape(self._kgrid_shape)
        kgrid = self._c_ana * scipy.fft.dstn(vgrid, type=1)
        return kgrid.ravel()[self._order]


def dirichlet_spectrum(domain: Domain) -> SpectralBasis:
    """All Dirichlet sine eigenpairs representable at the grid resolution."""
    return SpectralBasis(domain)


def white_noise(domain: Domain, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard normal coefficients, one per spectral mode."""
    n_modes = int(np.prod([n - 1 for n in domain.n_cells]))
    return rng.standard_normal(n_modes)


def neg_laplacian(domain: Domain) -> scipy.sparse.csr_matrix:
    """Second-difference matrix for -Laplace with Dirichlet boundaries.

    Acts on interior-node vectors in the same (x1-major) ordering as
    :class:`Field` values.  The sine basis diagonalizes it exactly with
    eigenvalues sum_a (4/h_a^2) sin^2(k_a pi h_a / (2 L_a)).
    """
    blocks = []
    for a in range(domain.dim):
        n = domain.n_cells[a]
        h = domain.h[a]
        main = np.full(n - 1, 2.0 / h**2)
        off = np.full(n - 2, -1.0 / h**2)
        blocks.append(scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr"))
    if domain.dim == 1:
        return blocks[0]
    eye = [scipy.sparse.identity(n - 1, format="csr") for n in domain.n_cells]
    return (scipy.sparse.kron(blocks[0], eye[1]) + scipy.sparse.kron(eye[0], blocks[1])).tocsr()


def discrete_eigenvalue(domain: Domain, k: np.ndarray) -> float | np.ndarray:
    """Eigenvalue of :func:`neg_laplacian` for multi-index ``k``, or an array
    of them for a (m, dim) stack of multi-indices."""
    k = np.atleast_1d(k)
    lam = 0.0
    for a in range(domain.dim):
        h = domain.h[a]
        lam = lam + (4.0 / h**2) * np.sin(k[..., a] * np.pi * h / (2.0 * domain.extents[a])) ** 2
    return float(lam) if k.ndim == 1 else lam


def solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system of band ``ab`` (SciPy's (1, 1) banded
    layout) by LAPACK's ``dgtsv``, as SciPy's banded solver does: the same
    bits, without its argument checks, which cost as much as the solve.
    ``b`` holds one right-hand side or one per column; neither is changed."""
    if ab.shape[1] == 1:   # dgtsv takes no empty off-diagonals; SciPy divides
        return b / ab[1, 0]
    *_, x, info = scipy.linalg.lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
