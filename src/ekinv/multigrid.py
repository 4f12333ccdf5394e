"""Batched, matrix-free multigrid-preconditioned conjugate gradients.

Solves A x = b for a stack of B symmetric positive definite systems that
share one vertex grid of (n1 + 1) x (n2 + 1) nodes.  Each system is the
conservative 5-point stencil

    (A x)_i = sum over the faces f of node i of T_f (x_i - x_nb(f)),

given by its face transmissibilities: ``tx[b, i, j]`` joins nodes (i, j) and
(i + 1, j), ``ty[b, i, j]`` joins (i, j) and (i, j + 1).  Nodes outside the
boolean ``unknown`` mask carry homogeneous Dirichlet values: they are held at
zero, and their faces enter the diagonal of the nodes they touch.  Every
operation is an array expression over the whole (B, n1 + 1, n2 + 1) stack.

The preconditioner is one symmetric V-cycle (black-box multigrid after
Alcouffe, Brandt, Dendy & Painter 1981 and Dendy 1982):

* red-black Gauss-Seidel smoothing, red then black before the coarse
  correction and black then red after it;
* 2:1 vertex coarsening per axis; an axis with an odd number of cells keeps
  its last node, so its last coarse cell is one fine cell wide;
* a coarse face transmissibility combines the fine faces in series along
  the flow (harmonic sum of the two faces a coarse cell spans) and in
  parallel across it (weighted by the prolongation, so a constant
  coefficient coarsens to its own rediscretization);
* bilinear prolongation, with its transpose as the restriction;
* a dense direct solve once no axis has more than ``COARSEST_CELLS`` cells.

The V-cycle runs in single precision (mixed-precision multigrid after
Goeddeke, Strzodka & Turek 2007).  Each level's faces, inverse diagonals and
the coarsest inverse are computed in float64 and stored as float32, which
halves the bytes the memory-bound fine-level passes move.  Conjugate
gradients keep the iterate, the residual, the search direction, the inner
products, their own faces and the stopping test in float64: the residual is
rounded to float32 on its way into the V-cycle and the correction widened
back.  The returned solution is float64.

Every member stops on its own and leaves the working stack, so a member's
iterates do not depend on what it is batched with among stacks of two or
more members.  A one-member stack can differ in the last bits: from 97
nodes per side, ``np.einsum("bij,bij->b")`` sums a single member's inner
products in another order than a stack's.  Without observation
functionals a member stops once |r| <= TOLERANCE |b|.  Given the functionals
K that its solution is read through and the noise standard deviation sigma
of those observations (:class:`Observed`), it stops at the first iteration
m >= DELAY at which both

    max_i |K (x_m - x_(m - DELAY))|_i < SETTLED sigma   and
    |r_m| <= SETTLED_RESIDUAL |b|

hold.  The change over DELAY iterations is a delayed estimate of the error
left in the observations, after Hestenes & Stiefel; Strakos & Tichy (ETNA 13,
2002) showed such estimates to be reliable in finite precision.  Each
member's K x_m is a pair of matrix products of its own, so this stop does not
depend on the batch either.  Both stops test the recursively updated
residual.  At high coefficient contrast the true residual can stay above
TOLERANCE |b| for every float64 solution, while the observations still
settle.

A solve works in a :class:`Plan`: one slab, allocated once per grid and
stack width, that holds every array of a solve (the faces, right-hand side,
conjugate-gradient vectors and output; each level's faces, inverse
diagonals and V-cycle buffers; the coarsest inverse), with every level's
colour masks.  A caller that keeps a plan (:class:`ekinv.forward.DarcyProblem`)
solves every later stack up to its width in the plan's leading views, and
allocates nothing larger than the observations.  A stopped member is
dropped by moving those still running to the front of each array, in
place; every step writes into its buffer in the order of the whole-array
expression it replaces, so the outputs keep their bits.  The stacks are
C-ordered, so the result does not depend on b's layout.  A slab of 4 MiB
or more lies on transparent huge pages where the kernel grants them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TOLERANCE = 1e-10         # relative residual at which an unobserved member stops
SETTLED_RESIDUAL = 1e-8   # relative residual an observed member must reach as well
SETTLED = 1e-3            # observation change, in noise standard deviations, that has settled
DELAY = 2                 # iterations over which the observation change is taken
MAX_ITERATIONS = 100      # PCG iteration cap per member
COARSEST_CELLS = 4        # coarsen until no axis has more cells than this


class Observed(NamedTuple):
    """Separable observation functionals laid on the node grid: a member's
    node grid X is observed as kx X ky^T.  ``sigma`` is the smallest noise
    standard deviation of those observations."""

    kx: np.ndarray   # (m1, N1)
    ky: np.ndarray   # (m2, N2)
    sigma: float

    def of(self, x: np.ndarray) -> np.ndarray:
        """(B, m1, m2) observations of a (B, N1, N2) stack, member by member."""
        return np.matmul(self.kx, np.matmul(x, self.ky.T))


class ConvergenceError(RuntimeError):
    """A member did not stop within the cap; ``index`` is its position in the
    stack.  The message names the test it failed: a relative ``residual``
    above its tolerance, or observations whose last ``change`` over DELAY
    iterations, in noise standard deviations, has not fallen below SETTLED
    (None when no observations were watched)."""

    def __init__(self, index: int, iterations: int, residual: float,
                 change: float | None = None):
        self.index = index
        self.iterations = iterations
        self.residual = residual
        self.change = change
        tolerance = TOLERANCE if change is None else SETTLED_RESIDUAL
        failed = []
        if not residual <= tolerance:
            failed.append(f"relative residual {residual:.3e} above {tolerance:g}")
        if change is not None and not change < SETTLED:
            failed.append(f"observations not settled: the last change over {DELAY} "
                          f"iterations is {change:.3e} sigma, not below {SETTLED:g}")
        super().__init__(f"MG-PCG did not converge within {iterations} iterations "
                         f"({'; '.join(failed)})")

    def __reduce__(self):
        # rebuilt from its fields, so it survives a process boundary
        return type(self), (self.index, self.iterations, self.residual, self.change)


def _along(axis: int, s: slice) -> tuple:
    return (slice(None),) * axis + (s,)


def _fluxes(t: np.ndarray, xf: np.ndarray, stride: int, out: np.ndarray) -> np.ndarray:
    """T_f (x_hi - x_lo) for the faces joining flat nodes k and k + stride.

    Faces are held in the row-major flat layout of each member's node grid:
    an x-face joins flat nodes k and k + N2, a y-face joins k and k + 1 (zero
    across the end of a row), so the stencil works on contiguous slices."""
    flux = np.subtract(xf[:, stride:], xf[:, :-stride], out=out[:, :t.shape[1]])
    flux *= t
    return flux


def _residual(tx: np.ndarray, ty: np.ndarray, x: np.ndarray, b: np.ndarray,
              r: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """r = b - A x on a (B, N1, N2) stack, every node included; faces in the
    flat layout of :func:`_fluxes`, ``flux`` a (B, N1 N2 - 1) scratch."""
    B, _, N2 = x.shape
    xf, bf, rf = x.reshape(B, -1), b.reshape(B, -1), r.reshape(B, -1)
    fy = _fluxes(ty, xf, 1, flux)
    np.add(bf[:, :-1], fy, out=rf[:, :-1])
    rf[:, -1] = bf[:, -1]
    rf[:, 1:] -= fy
    fx = _fluxes(tx, xf, N2, flux)
    rf[:, :-N2] += fx
    rf[:, N2:] -= fx
    return r


def _stencil(tx: np.ndarray, ty: np.ndarray, x: np.ndarray, q: np.ndarray,
             flux: np.ndarray) -> np.ndarray:
    """A x: the sums of :func:`_residual` with b = 0, each term taken with
    the opposite sign.  Negation commutes with rounding, so every nonzero
    entry equals that of -(0 - A x) bit for bit.  Written into the C-ordered q."""
    B, _, N2 = x.shape
    xf, qf = x.reshape(B, -1), q.reshape(B, -1)
    fy = _fluxes(ty, xf, 1, flux)
    np.negative(fy[:, :1], out=qf[:, :1])
    np.subtract(fy[:, :-1], fy[:, 1:], out=qf[:, 1:-1])
    qf[:, -1] = fy[:, -1]
    fx = _fluxes(tx, xf, N2, flux)
    qf[:, :-N2] -= fx
    qf[:, N2:] += fx
    return q


def _diagonal(tx: np.ndarray, ty: np.ndarray, diag: np.ndarray) -> np.ndarray:
    diag.fill(0.0)
    diag[:, :-1] += tx
    diag[:, 1:] += tx
    diag[:, :, :-1] += ty
    diag[:, :, 1:] += ty
    return diag


# -- 2:1 vertex coarsening of one axis ----------------------------------------
#
# Fine nodes 0, 2, ..., 2k - 2 (k = n // 2 + 1) are coarse nodes; with n odd
# the last fine node n is one too.  The odd fine nodes 1, 3, ..., 2k - 3 are
# midpoints of two neighbouring coarse nodes.


def _coarse_nodes(n: int) -> np.ndarray:
    """Fine indices of the coarse nodes of an axis with n cells."""
    even = np.arange(0, n + 1, 2)
    return even if n % 2 == 0 else np.append(even, n)


def _prolong(coarse: np.ndarray, axis: int, out: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Linear interpolation along ``axis`` onto the nodes of ``out``; the
    midpoint values are formed in the contiguous buffer ``mid``."""
    n = out.shape[axis] - 1
    k = n // 2 + 1
    c = coarse[_along(axis, slice(0, k))]
    out[_along(axis, slice(0, 2 * k - 1, 2))] = c
    np.add(c[_along(axis, slice(0, k - 1))], c[_along(axis, slice(1, k))], out=mid)
    mid *= 0.5
    out[_along(axis, slice(1, 2 * k - 2, 2))] = mid
    if n % 2:
        out[_along(axis, slice(n, n + 1))] = coarse[_along(axis, slice(k, k + 1))]
    return out


def _restrict(fine: np.ndarray, axis: int, out: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Transpose of the interpolation along ``axis``, into ``out``; ``mid``
    holds the halved midpoint entries."""
    n = fine.shape[axis] - 1
    k = n // 2 + 1
    out[_along(axis, slice(0, k))] = fine[_along(axis, slice(0, 2 * k - 1, 2))]
    mid = np.multiply(fine[_along(axis, slice(1, 2 * k - 2, 2))], 0.5, out=mid)
    out[_along(axis, slice(0, k - 1))] += mid
    out[_along(axis, slice(1, k))] += mid
    if n % 2:
        out[_along(axis, slice(k, k + 1))] = fine[_along(axis, slice(n, n + 1))]
    return out


def _midpoints(shape: tuple[int, int], axis: int) -> tuple[int, int]:
    """Shape of the midpoint entries of a transfer along ``axis`` of a node grid."""
    return shape[:axis] + ((shape[axis] - 1) // 2,) + shape[axis + 1:]


def _series(t: np.ndarray, axis: int, scratch: np.ndarray) -> np.ndarray:
    """Faces along ``axis`` combined in series over each coarse cell,
    a b / (a + b), at the front of each member's ``scratch`` (the sums a + b
    behind them)."""
    n = t.shape[axis]
    a = t[_along(axis, slice(0, n - 1, 2))]
    b = t[_along(axis, slice(1, n, 2))]
    shape = list(a.shape[1:])
    shape[axis - 1] += n % 2   # an odd count keeps its last face
    out = _part(scratch, tuple(shape))
    s = np.multiply(a, b, out=out[_along(axis, slice(0, n // 2))])
    s /= np.add(a, b, out=_part(scratch, a.shape[1:], out[0].size))
    if n % 2:
        out[_along(axis, slice(n // 2, n // 2 + 1))] = t[_along(axis, slice(n - 1, n))]
    return out


# -- the plan ------------------------------------------------------------------


class _Level(NamedTuple):
    """Operator and smoother of one level in float32; every array has the batch axis first."""

    tx: np.ndarray      # faces in the flat layout of :func:`_fluxes`
    ty: np.ndarray
    red: np.ndarray     # inverse diagonal on red unknown nodes, zero elsewhere
    black: np.ndarray   # inverse diagonal on black unknown nodes, zero elsewhere

    def narrow(self, m: int) -> "_Level":
        return _Level(*(a[:m] for a in self))


class _Coarsest(NamedTuple):
    unknown: np.ndarray   # (M1, M2) mask, shared by the batch
    inverse: np.ndarray   # (B, m, m) inverse of the operator on the m unknowns

    def narrow(self, m: int) -> "_Coarsest":
        return _Coarsest(self.unknown, self.inverse[:m])

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros_like(b)
        x[:, self.unknown] = np.matmul(self.inverse, b[:, self.unknown, None])[..., 0]
        return x


class _Work(NamedTuple):
    """Scratch of one level, reused by every V-cycle of a solve."""

    x: np.ndarray       # the level's correction, (B, N1, N2)
    r: np.ndarray       # its residual, then the interpolated coarse correction
    flux: np.ndarray    # face fluxes of the stencil, (B, N1 N2 - 1)
    half: np.ndarray    # a transfer along one axis: (B, K1, N2)
    rows: np.ndarray    # midpoints of a transfer along axis 1, (B, k1 - 1, N2)
    cols: np.ndarray    # midpoints of a transfer along axis 2, (B, K1, k2 - 1)
    b: np.ndarray       # the restricted residual, the next level's right-hand side

    def narrow(self, m: int) -> "_Work":
        return _Work(*(a[:m] for a in self))


def _dense(tx: np.ndarray, ty: np.ndarray, unknown: np.ndarray) -> np.ndarray:
    """The operator restricted to the unknown nodes as dense (B, m, m) matrices."""
    ids = np.full(unknown.shape, -1)
    ids[unknown] = np.arange(np.count_nonzero(unknown))
    A = np.zeros((tx.shape[0],) + (ids.max() + 1,) * 2)
    diag = _diagonal(tx, ty, np.empty((tx.shape[0],) + unknown.shape))
    A[:, ids[unknown], ids[unknown]] = diag[:, unknown]
    for t, lo, hi in ((tx, ids[:-1], ids[1:]), (ty, ids[:, :-1], ids[:, 1:])):
        both = (lo >= 0) & (hi >= 0)
        A[:, lo[both], hi[both]] = -t[:, both]
        A[:, hi[both], lo[both]] = -t[:, both]
    return A


def _masks(unknown: np.ndarray) -> list[np.ndarray]:
    """The unknown nodes of every level, the finest first and the coarsest last."""
    masks = [unknown]
    while max(masks[-1].shape) - 1 > COARSEST_CELLS:
        n1, n2 = (size - 1 for size in masks[-1].shape)
        masks.append(masks[-1][np.ix_(_coarse_nodes(n1), _coarse_nodes(n2))])
    return masks


def _layout(shapes: list[tuple[int, int]], m: int) -> dict[str, tuple[tuple[int, ...], type]]:
    """(shape, dtype) of one member's share of every array of a plan, by name,
    for the node shapes of its levels and m unknowns on the coarsest."""
    (N1, N2), f64, f32 = shapes[0], np.float64, np.float32
    grid = ((N1, N2), f64)
    arrays = {"tx": ((N1 - 1, N2), f64),
              "ty": grid,        # y-faces in rows of N2, as in the flat layout
              "b": grid,         # the right-hand side, then the residual
              "x": grid, "d": grid, "z": grid, "q": grid, "out": grid,
              "rhs": ((N1, N2), f32),
              # a level's diagonal, or its series faces, their sums and midpoints
              "scratch": ((2 * max((N1 - 1) * N2, N1 * (N2 - 1)),), f64)}
    for level, ((N1, N2), (K1, K2)) in enumerate(zip(shapes, shapes[1:])):
        grid32 = ((N1, N2), f32)
        arrays |= {f"fx{level}": ((N1 - 1, N2), f64), f"fy{level}": ((N1, N2 - 1), f64),
                   f"tx{level}": (((N1 - 1) * N2,), f32), f"ty{level}": grid32,
                   f"red{level}": grid32, f"black{level}": grid32,
                   f"x{level}": grid32, f"r{level}": grid32, f"flux{level}": ((N1 * N2 - 1,), f32),
                   f"half{level}": ((K1, N2), f32), f"b{level}": ((K1, K2), f32)}
    (M1, M2), coarsest = shapes[-1], len(shapes) - 1
    return arrays | {f"fx{coarsest}": ((M1 - 1, M2), f64), f"fy{coarsest}": ((M1, M2 - 1), f64),
                     "inverse": ((m, m), f32)}


_ALIGN = 64          # bytes; every array of a plan starts on a cache line
_HUGE_PAGE = 1 << 21  # bytes of a transparent huge page over 4 KiB base pages


def _ceil(nbytes: int, unit: int) -> int:
    return -(-nbytes // unit) * unit


def _nbytes(shape: tuple[int, ...], dtype, members: int) -> int:
    return _ceil(members * math.prod(shape) * np.dtype(dtype).itemsize, _ALIGN)


def _slab_bytes(nbytes: int) -> int:
    """Bytes to allocate for ``nbytes`` of arrays.  numpy asks the kernel for
    transparent huge pages on an allocation of 4 MiB or more
    (``MADV_HUGEPAGE``), and a huge page must fill an aligned 2 MiB.  So
    from two huge pages on the arrays take whole huge pages, and one more
    lets them start on a huge-page boundary."""
    return nbytes if nbytes < 2 * _HUGE_PAGE else _ceil(nbytes, _HUGE_PAGE) + _HUGE_PAGE


def plan_bytes(nodes: tuple[int, int], members: int) -> int:
    """Bytes of a :class:`Plan` for ``members`` stacks on a grid of ``nodes``
    nodes per axis whose every node is unknown: at least the bytes of any plan
    on that grid."""
    shapes = [mask.shape for mask in _masks(np.ones(nodes, bool))]
    return _slab_bytes(sum(_nbytes(shape, dtype, members)
                           for shape, dtype in _layout(shapes, math.prod(shapes[-1])).values()))


def _part(scratch: np.ndarray, shape: tuple[int, ...], start: int = 0) -> np.ndarray:
    """Each member's ``scratch`` from ``start`` on, viewed as ``shape``."""
    return scratch[:, start:start + math.prod(shape)].reshape((len(scratch),) + shape)


class Plan:
    """Every array of a solve of up to ``members`` stacks on the node grid of
    ``unknown``, carved from one slab that is allocated once, and the masks
    of every level, computed once.  A narrower stack works in the leading
    views of each array, so a plan serves every solve on its grid up to its
    width without allocating more than a few small arrays per iteration;
    ``nbytes`` is the slab's size.

    A caller writes each member's faces and right-hand side into the views
    :meth:`inputs` gives, and :meth:`solve` overwrites them.
    """

    def __init__(self, unknown: np.ndarray, members: int):
        self.members = members
        masks = _masks(unknown)
        red = [np.zeros(mask.shape, bool) for mask in masks[:-1]]
        for colour in red:
            colour[::2, ::2] = colour[1::2, 1::2] = True
        self._colours = [(mask & colour, mask & ~colour) for mask, colour in zip(masks, red)]
        self._coarsest = masks[-1]
        self._unknown = unknown.astype(np.float64)   # the mask's products, without a cast per use
        layout = _layout([mask.shape for mask in masks], np.count_nonzero(masks[-1]))
        # zeroed: the last column of each row-layout face array, and each
        # smoother off its colour, stay zero
        nbytes = sum(_nbytes(shape, dtype, members) for shape, dtype in layout.values())
        slab = np.zeros(_slab_bytes(nbytes), np.uint8)
        self.nbytes = slab.nbytes
        a, start = {}, 0 if slab.nbytes == nbytes else -slab.ctypes.data % _HUGE_PAGE
        for name, (shape, dtype) in layout.items():
            size = members * math.prod(shape) * np.dtype(dtype).itemsize
            a[name] = slab[start:start + size].view(dtype).reshape((members,) + shape)
            start += _nbytes(shape, dtype, members)
        self._a = a
        self._levels, self._work = [], []
        for level, mask in enumerate(masks[:-1]):
            N1, N2 = mask.shape
            K1 = masks[level + 1].shape[0]
            self._levels.append(_Level(a[f"tx{level}"], a[f"ty{level}"].reshape(members, -1)[:, :-1],
                                       a[f"red{level}"], a[f"black{level}"]))
            # the midpoints live only inside a transfer and the fluxes only
            # inside a residual, so the midpoints borrow the front of each
            # member's fluxes
            flux = a[f"flux{level}"]
            self._work.append(_Work(a[f"x{level}"], a[f"r{level}"], flux, a[f"half{level}"],
                                    _part(flux, _midpoints((N1, N2), 0)),
                                    _part(flux, _midpoints((K1, N2), 1)), a[f"b{level}"]))

    def inputs(self, B: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the faces, (B, N1 - 1, N2) and (B, N1, N2 - 1), and of the
        right-hand side, (B, N1, N2), of the first B members, for the caller
        to write.  The right-hand side must vanish off ``unknown``."""
        return self._a["tx"][:B], self._a["ty"][:B, :, :-1], self._a["b"][:B]

    def _flat_faces(self, B: int) -> tuple[np.ndarray, np.ndarray]:
        return self._a["tx"][:B].reshape(B, -1), self._a["ty"][:B].reshape(B, -1)[:, :-1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for the faces of the first len(x) members, every node
        included, in a buffer that :meth:`solve` overwrites."""
        B = len(x)
        return _stencil(*self._flat_faces(B), x, self._a["q"][:B],
                        self._a["z"][:B].reshape(B, -1)[:, :-1])

    def _hierarchy(self, B: int, scale) -> tuple[list[_Level], _Coarsest, list[_Work]]:
        """Each level's operator and smoother, and the V-cycle's work buffers,
        for the first B members' faces times ``scale``."""
        a = self._a
        fx = np.multiply(scale, a["tx"][:B], out=a["fx0"][:B])
        fy = np.multiply(scale, a["ty"][:B, :, :-1], out=a["fy0"][:B])
        scratch = a["scratch"][:B]
        for level, (red, black) in enumerate(self._colours):
            diag = _diagonal(fx, fy, _part(scratch, red.shape))
            np.divide(1.0, diag, out=diag)
            np.copyto(a[f"tx{level}"][:B], fx.reshape(B, -1))
            np.copyto(a[f"ty{level}"][:B, :, :-1], fy)
            np.copyto(a[f"red{level}"][:B], diag, where=red)
            np.copyto(a[f"black{level}"][:B], diag, where=black)
            coarse = a[f"fx{level + 1}"][:B], a[f"fy{level + 1}"][:B]
            for faces, axis, out in zip((fx, fy), (1, 2), coarse):
                series = _series(faces, axis, scratch)
                _restrict(series, 3 - axis, out,
                          _part(scratch, _midpoints(series.shape[1:], 2 - axis), series[0].size))
            fx, fy = coarse
        np.copyto(a["inverse"][:B], np.linalg.inv(_dense(fx, fy, self._coarsest)))
        return ([level.narrow(B) for level in self._levels],
                _Coarsest(self._coarsest, a["inverse"][:B]), [w.narrow(B) for w in self._work])

    def solve(self, B: int, observed: Observed | None = None) -> np.ndarray:
        """x with A x = b for the first B members written into :meth:`inputs`,
        zero off ``unknown``, as a C-ordered float64 view of the plan that the
        next solve overwrites.  Each member stops as the module docstring says;
        :class:`ConvergenceError` names the first not stopped within
        ``MAX_ITERATIONS`` iterations or whose residual is not finite."""
        a = self._a
        r = a["b"][:B]   # the right-hand side is not read again once its norm is taken
        bnorm = _norm(r)
        # The V-cycle sees each member scaled by powers of two: the operator so
        # that its largest face lies in [0.5, 1), the residual by the power of
        # two of |b|.  So float32 holds both whatever the units of the
        # coefficient and the data, and since the V-cycle is linear and these
        # scalings are exact, the correction is that of the member as given.
        largest = np.maximum(a["tx"][:B].max(axis=(1, 2)), a["ty"][:B, :, :-1].max(axis=(1, 2)))
        scale = np.ldexp(1.0, -np.frexp(largest)[1])[:, None, None]
        size = np.ldexp(1.0, np.frexp(bnorm)[1])[:, None, None]
        widen = scale * size
        levels, coarsest, work = self._hierarchy(B, scale)
        tx, ty = self._flat_faces(B)
        x, d, z, q, rhs, out = (a[name][:B] for name in ("x", "d", "z", "q", "rhs", "out"))
        x.fill(0.0)
        d.fill(0.0)
        active = np.arange(B)
        rz = np.ones(B)
        tolerance = TOLERANCE if observed is None else SETTLED_RESIDUAL
        seen = []                 # K x of the last DELAY iterates, oldest first
        change = np.full(B, np.inf)   # max_i |K (x_m - x_(m - DELAY))|_i
        iteration = 0
        while True:
            rnorm = _norm(r)
            done = rnorm <= tolerance * bnorm
            if observed is not None:
                y = observed.of(x)
                if iteration >= DELAY:
                    change = np.abs(y - seen.pop(0)).max(axis=(1, 2))
                seen.append(y)
                # a zero residual is exact: nothing is left to settle
                done &= (change < SETTLED * observed.sigma) | (rnorm == 0)
            if done.any():
                for k in np.flatnonzero(done):
                    out[active[k]] = x[k]
                keep = ~done
                m = np.count_nonzero(keep)
                if m == 0:
                    return out
                active, bnorm, rnorm, rz, size, widen, change = (
                    v[keep] for v in (active, bnorm, rnorm, rz, size, widen, change))
                seen = [y[keep] for y in seen]
                # the members still running move to the front of every array
                # that carries over to the next iteration
                _compact(np.flatnonzero(keep), x, r, d, tx, ty, coarsest.inverse,
                         *(v for level in levels for v in level))
                x, r, d, z, q, rhs, tx, ty = (v[:m] for v in (x, r, d, z, q, rhs, tx, ty))
                levels = [level.narrow(m) for level in levels]
                coarsest = coarsest.narrow(m)
                work = [w.narrow(m) for w in work]
            failed = ~np.isfinite(rnorm) | (iteration == MAX_ITERATIONS)
            if failed.any():
                k = int(np.argmax(failed))
                raise ConvergenceError(int(active[k]), iteration, float(rnorm[k] / bnorm[k]),
                                       None if observed is None
                                       else float(change[k] / observed.sigma))
            np.divide(r, size, out=rhs)
            np.multiply(widen, _vcycle(levels, coarsest, rhs, work), out=z)
            rz_new = np.einsum("bij,bij->b", r, z)
            d *= (rz_new / rz)[:, None, None]
            d += z
            rz = rz_new
            # z is free until the updates below: it holds the stencil's fluxes
            _stencil(tx, ty, d, q, z.reshape(len(z), -1)[:, :-1])
            q *= self._unknown
            alpha = (rz / np.einsum("bij,bij->b", d, q))[:, None, None]
            x += np.multiply(alpha, d, out=z)
            r -= np.multiply(alpha, q, out=z)
            iteration += 1


def _compact(kept: np.ndarray, *arrays: np.ndarray) -> None:
    """Move the rows ``kept``, in ascending order, of each array to its front.
    Row i is written only after row kept[i] >= i has been read."""
    for i, k in enumerate(kept):
        if i != k:
            for a in arrays:
                a[i] = a[k]


def _smooth(level: _Level, color: np.ndarray, x: np.ndarray, b: np.ndarray,
            w: _Work) -> None:
    """One Gauss-Seidel sweep of x over the nodes of one colour."""
    r = _residual(level.tx, level.ty, x, b, w.r, w.flux)
    r *= color
    x += r


def _vcycle(levels: list[_Level], coarsest: _Coarsest, b: np.ndarray,
            work: list[_Work]) -> np.ndarray:
    """One V-cycle on the stack b, returned in the finest buffer of ``work``,
    a workspace of b's dtype."""
    if not levels:
        return coarsest.solve(b)
    level, w = levels[0], work[0]
    x = np.multiply(level.red, b, out=w.x)
    _smooth(level, level.black, x, b, w)
    r = _residual(level.tx, level.ty, x, b, w.r, w.flux)
    _restrict(_restrict(r, 1, w.half, w.rows), 2, w.b, w.cols)
    coarse = _vcycle(levels[1:], coarsest, w.b, work[1:])
    x += _prolong(_prolong(coarse, 2, w.half, w.cols), 1, r, w.rows)
    _smooth(level, level.black, x, b, w)
    _smooth(level, level.red, x, b, w)
    return x


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("bij,bij->b", x, x))
