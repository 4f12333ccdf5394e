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
iterates do not depend on what it is batched with.  Without observation
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

Every stack is C-ordered (a right-hand side laid out otherwise is copied),
so the result does not depend on b's layout.  A solve allocates one set of
work buffers, the conjugate-gradient vectors and each level's V-cycle
buffers, narrowed to the members still running, and every step writes into
them in place, rounding as the whole-array expressions it replaces.
"""

from __future__ import annotations

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


def _along(axis: int, s: slice) -> tuple:
    return (slice(None),) * axis + (s,)


def _flat(tx: np.ndarray, ty: np.ndarray, dtype=np.float64
          ) -> tuple[np.ndarray, np.ndarray]:
    """Faces in the row-major flat layout of each member's node grid: an
    x-face joins flat nodes k and k + N2, a y-face joins k and k + 1 (zero
    across the end of a row), so the stencil works on contiguous slices."""
    B, N1, n2 = ty.shape
    ty_rows = np.zeros((B, N1, n2 + 1), dtype)
    ty_rows[:, :, :-1] = ty
    return tx.reshape(B, -1).astype(dtype, copy=False), ty_rows.reshape(B, -1)[:, :-1]


def _fluxes(t: np.ndarray, xf: np.ndarray, stride: int, out: np.ndarray) -> np.ndarray:
    """T_f (x_hi - x_lo) for the faces joining flat nodes k and k + stride."""
    flux = np.subtract(xf[:, stride:], xf[:, :-stride], out=out[:, :t.shape[1]])
    flux *= t
    return flux


def _residual(tx: np.ndarray, ty: np.ndarray, x: np.ndarray, b: np.ndarray,
              r: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """r = b - A x on a (B, N1, N2) stack, every node included; faces as from
    :func:`_flat`, ``flux`` a (B, N1 N2 - 1) scratch."""
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


def apply(tx: np.ndarray, ty: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x on a (B, N1, N2) stack, every node included."""
    B, N1, N2 = x.shape
    return _stencil(*_flat(tx, ty), x, np.empty(x.shape), np.empty((B, N1 * N2 - 1)))


def _diagonal(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    diag = np.zeros((tx.shape[0], tx.shape[1] + 1, ty.shape[2] + 1))
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


def _restrict(fine: np.ndarray, axis: int, out: np.ndarray | None = None,
              mid: np.ndarray | None = None) -> np.ndarray:
    """Transpose of the interpolation along ``axis``, into ``out``; ``mid``
    holds the halved midpoint entries.  Both are allocated when not given."""
    n = fine.shape[axis] - 1
    k = n // 2 + 1
    if out is None:
        shape = list(fine.shape)
        shape[axis] = k + n % 2
        out = np.empty(shape, fine.dtype)
    out[_along(axis, slice(0, k))] = fine[_along(axis, slice(0, 2 * k - 1, 2))]
    mid = np.multiply(fine[_along(axis, slice(1, 2 * k - 2, 2))], 0.5, out=mid)
    out[_along(axis, slice(0, k - 1))] += mid
    out[_along(axis, slice(1, k))] += mid
    if n % 2:
        out[_along(axis, slice(k, k + 1))] = fine[_along(axis, slice(n, n + 1))]
    return out


def _series(t: np.ndarray, axis: int) -> np.ndarray:
    """Faces along ``axis`` combined in series over each coarse cell."""
    n = t.shape[axis]
    a = t[_along(axis, slice(0, n - 1, 2))]
    b = t[_along(axis, slice(1, n, 2))]
    s = a * b / (a + b)
    if n % 2:
        s = np.concatenate([s, t[_along(axis, slice(n - 1, n))]], axis=axis)
    return s


# -- the hierarchy -------------------------------------------------------------


class _Level(NamedTuple):
    """Operator and smoother of one level in float32; every array has the batch axis first."""

    tx: np.ndarray      # faces in the layout of :func:`_flat`
    ty: np.ndarray
    red: np.ndarray     # inverse diagonal on red unknown nodes, zero elsewhere
    black: np.ndarray   # inverse diagonal on black unknown nodes, zero elsewhere

    def take(self, keep: np.ndarray) -> "_Level":
        return _Level(*(a[keep] for a in self))


class _Coarsest(NamedTuple):
    unknown: np.ndarray   # (M1, M2) mask, shared by the batch
    inverse: np.ndarray   # (B, m, m) inverse of the operator on the m unknowns

    def take(self, keep: np.ndarray) -> "_Coarsest":
        return _Coarsest(self.unknown, self.inverse[keep])

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros_like(b)
        x[:, self.unknown] = np.matmul(self.inverse, b[:, self.unknown, None])[..., 0]
        return x


def _dense(tx: np.ndarray, ty: np.ndarray, unknown: np.ndarray) -> np.ndarray:
    """The operator restricted to the unknown nodes as dense (B, m, m) matrices."""
    ids = np.full(unknown.shape, -1)
    ids[unknown] = np.arange(np.count_nonzero(unknown))
    A = np.zeros((tx.shape[0],) + (ids.max() + 1,) * 2)
    A[:, ids[unknown], ids[unknown]] = _diagonal(tx, ty)[:, unknown]
    for t, lo, hi in ((tx, ids[:-1], ids[1:]), (ty, ids[:, :-1], ids[:, 1:])):
        both = (lo >= 0) & (hi >= 0)
        A[:, lo[both], hi[both]] = -t[:, both]
        A[:, hi[both], lo[both]] = -t[:, both]
    return A


def _hierarchy(tx: np.ndarray, ty: np.ndarray, unknown: np.ndarray
               ) -> tuple[list[_Level], _Coarsest]:
    levels = []
    while max(unknown.shape) - 1 > COARSEST_CELLS:
        inv = (1.0 / _diagonal(tx, ty)).astype(np.float32)
        red = np.zeros(unknown.shape, bool)
        red[::2, ::2] = red[1::2, 1::2] = True
        levels.append(_Level(*_flat(tx, ty, np.float32), *(
            np.where(unknown & color, inv, np.float32(0.0)) for color in (red, ~red))))
        tx = _restrict(_series(tx, 1), 2)
        ty = _restrict(_series(ty, 2), 1)
        n1, n2 = (size - 1 for size in unknown.shape)
        unknown = unknown[np.ix_(_coarse_nodes(n1), _coarse_nodes(n2))]
    inverse = np.linalg.inv(_dense(tx, ty, unknown)).astype(np.float32)
    return levels, _Coarsest(unknown, inverse)


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


def _workspace(levels: list[_Level], coarsest: _Coarsest, dtype) -> list[_Work]:
    shapes = [level.red.shape for level in levels] + [
        (len(coarsest.inverse),) + coarsest.unknown.shape]
    work = []
    for (B, N1, N2), (_, K1, K2) in zip(shapes, shapes[1:]):
        k1, k2 = (N1 - 1) // 2 + 1, (N2 - 1) // 2 + 1
        flux = np.empty((B, N1 * N2 - 1), dtype)
        # the midpoints live only inside a transfer and the fluxes only inside
        # a residual, so the midpoints borrow the front of each member's fluxes
        rows = flux[:, :(k1 - 1) * N2].reshape(B, k1 - 1, N2)
        cols = flux[:, :K1 * (k2 - 1)].reshape(B, K1, k2 - 1)
        work.append(_Work(np.empty((B, N1, N2), dtype), np.empty((B, N1, N2), dtype), flux,
                          np.empty((B, K1, N2), dtype), rows, cols, np.empty((B, K1, K2), dtype)))
    return work


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


def solve(tx: np.ndarray, ty: np.ndarray, b: np.ndarray, unknown: np.ndarray,
          observed: Observed | None = None) -> np.ndarray:
    """x with A x = b for every member of the stack, zero off ``unknown``.

    Without ``observed`` each member stops at |r| <= TOLERANCE |b|; with it,
    once its observations have settled and |r| <= SETTLED_RESIDUAL |b| (see
    the module docstring).  ``b``, in any memory layout, must vanish off
    ``unknown``; the result is C-ordered float64, and only the preconditioner
    works in float32.  Raises :class:`ConvergenceError` for the first member
    still short of its stop after ``MAX_ITERATIONS`` iterations, or whose
    residual stops being finite.
    """
    b = np.ascontiguousarray(b)
    bnorm = _norm(b)
    # The V-cycle sees each member scaled by powers of two: the operator so
    # that its largest face lies in [0.5, 1), the residual by the power of
    # two of |b|.  So float32 holds both whatever the units of the
    # coefficient and the data, and since the V-cycle is linear and these
    # scalings are exact, the correction is that of the member as given.
    largest = np.maximum(tx.max(axis=(1, 2)), ty.max(axis=(1, 2)))
    scale = np.ldexp(1.0, -np.frexp(largest)[1])[:, None, None]
    size = np.ldexp(1.0, np.frexp(bnorm)[1])[:, None, None]
    widen = scale * size
    levels, coarsest = _hierarchy(scale * tx, scale * ty, unknown)
    work = _workspace(levels, coarsest, np.float32)
    tx, ty = _flat(tx, ty)
    out = np.zeros_like(b)
    active = np.arange(b.shape[0])
    x, r, d = np.zeros(b.shape), b.copy(), np.zeros(b.shape)
    z, q, rhs = np.empty(b.shape), np.empty(b.shape), np.empty(b.shape, np.float32)
    unknown = unknown.astype(np.float64)   # the mask's products, without a cast per use
    rz = np.ones(b.shape[0])
    tolerance = TOLERANCE if observed is None else SETTLED_RESIDUAL
    seen = []                             # K x of the last DELAY iterates, oldest first
    change = np.full(b.shape[0], np.inf)  # max_i |K (x_m - x_(m - DELAY))|_i
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
            for k in np.flatnonzero(done):   # one by one: no stack-sized copy
                out[active[k]] = x[k]
            keep = ~done
            m = np.count_nonzero(keep)
            if m == 0:
                return out
            active, bnorm, rnorm, rz, size, widen, tx, ty, change = (
                a[keep] for a in (active, bnorm, rnorm, rz, size, widen, tx, ty, change))
            seen = [y[keep] for y in seen]
            levels = [level.take(keep) for level in levels]
            coarsest = coarsest.take(keep)
            x, r, d = x[keep], r[keep], d[keep]
            z, q, rhs = z[:m], q[:m], rhs[:m]
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
        q *= unknown
        alpha = (rz / np.einsum("bij,bij->b", d, q))[:, None, None]
        x += np.multiply(alpha, d, out=z)
        r -= np.multiply(alpha, q, out=z)
        iteration += 1
