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

Every member stops on its own once |r| <= TOLERANCE |b| and leaves the
working stack, so a member's iterates do not depend on what it is batched
with.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TOLERANCE = 1e-10      # relative residual at which a member stops
MAX_ITERATIONS = 100   # PCG iteration cap per member
COARSEST_CELLS = 4     # coarsen until no axis has more cells than this


class ConvergenceError(RuntimeError):
    """A member did not reach the tolerance; ``index`` is its position in the stack."""

    def __init__(self, index: int, iterations: int, residual: float):
        self.index = index
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"MG-PCG did not converge within {iterations} iterations "
                         f"(relative residual {residual:.3e})")


def _along(axis: int, s: slice) -> tuple:
    return (slice(None),) * axis + (s,)


def _flat(tx: np.ndarray, ty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Faces in the row-major flat layout of each member's node grid: an
    x-face joins flat nodes k and k + N2, a y-face joins k and k + 1 (zero
    across the end of a row), so the stencil works on contiguous slices."""
    B, N1, n2 = ty.shape
    ty_rows = np.zeros((B, N1, n2 + 1))
    ty_rows[:, :, :-1] = ty
    return tx.reshape(B, -1), ty_rows.reshape(B, -1)[:, :-1]


def _residual(tx: np.ndarray, ty: np.ndarray, x: np.ndarray, b: np.ndarray
              ) -> np.ndarray:
    """b - A x on a (B, N1, N2) stack, every node included; faces as from :func:`_flat`."""
    B, _, N2 = x.shape
    r = np.array(b, dtype=float).reshape(B, -1)
    xf = x.reshape(B, -1)
    flux = np.subtract(xf[:, 1:], xf[:, :-1])
    flux *= ty
    r[:, :-1] += flux
    r[:, 1:] -= flux
    flux = np.subtract(xf[:, N2:], xf[:, :-N2], out=flux[:, :tx.shape[1]])
    flux *= tx
    r[:, :-N2] += flux
    r[:, N2:] -= flux
    return r.reshape(x.shape)


def apply(tx: np.ndarray, ty: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x on a (B, N1, N2) stack, every node included."""
    return -_residual(*_flat(tx, ty), x, np.zeros_like(x))


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


def _prolong(coarse: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Linear interpolation along ``axis`` onto n + 1 fine nodes."""
    k = n // 2 + 1
    shape = list(coarse.shape)
    shape[axis] = n + 1
    fine = np.empty(shape)
    c = coarse[_along(axis, slice(0, k))]
    fine[_along(axis, slice(0, 2 * k - 1, 2))] = c
    fine[_along(axis, slice(1, 2 * k - 2, 2))] = 0.5 * (
        c[_along(axis, slice(0, k - 1))] + c[_along(axis, slice(1, k))])
    if n % 2:
        fine[_along(axis, slice(n, n + 1))] = coarse[_along(axis, slice(k, k + 1))]
    return fine


def _restrict(fine: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of :func:`_prolong` along ``axis``."""
    n = fine.shape[axis] - 1
    k = n // 2 + 1
    coarse = fine[_along(axis, slice(0, 2 * k - 1, 2))].copy()
    mid = 0.5 * fine[_along(axis, slice(1, 2 * k - 2, 2))]
    coarse[_along(axis, slice(0, k - 1))] += mid
    coarse[_along(axis, slice(1, k))] += mid
    if n % 2:
        coarse = np.concatenate([coarse, fine[_along(axis, slice(n, n + 1))]], axis=axis)
    return coarse


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
    """Operator and smoother of one level; every array has the batch axis first."""

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
        inv = np.where(unknown, 1.0 / _diagonal(tx, ty), 0.0)
        ii, jj = np.indices(unknown.shape)
        red = (ii + jj) % 2 == 0
        levels.append(_Level(*_flat(tx, ty), np.where(red, inv, 0.0), np.where(red, 0.0, inv)))
        tx = _restrict(_series(tx, 1), 2)
        ty = _restrict(_series(ty, 2), 1)
        n1, n2 = (size - 1 for size in unknown.shape)
        unknown = unknown[np.ix_(_coarse_nodes(n1), _coarse_nodes(n2))]
    return levels, _Coarsest(unknown, np.linalg.inv(_dense(tx, ty, unknown)))


def _vcycle(levels: list[_Level], coarsest: _Coarsest, b: np.ndarray) -> np.ndarray:
    if not levels:
        return coarsest.solve(b)
    level, rest = levels[0], levels[1:]

    def smooth(x, color):
        r = _residual(level.tx, level.ty, x, b)
        r *= color
        x += r

    x = level.red * b
    smooth(x, level.black)
    r = _residual(level.tx, level.ty, x, b)
    n1, n2 = (size - 1 for size in b.shape[1:])
    coarse = _vcycle(rest, coarsest, _restrict(_restrict(r, 1), 2))
    x += _prolong(_prolong(coarse, 2, n2), 1, n1)
    smooth(x, level.black)
    smooth(x, level.red)
    return x


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("bij,bij->b", x, x))


def solve(tx: np.ndarray, ty: np.ndarray, b: np.ndarray, unknown: np.ndarray
          ) -> np.ndarray:
    """x with A x = b for every member of the stack, zero off ``unknown``.

    ``b`` must vanish off ``unknown``.  Raises :class:`ConvergenceError` for
    the first member still short of the tolerance after ``MAX_ITERATIONS``
    iterations, or whose residual stops being finite.
    """
    levels, coarsest = _hierarchy(tx, ty, unknown)
    tx, ty = levels[0][:2] if levels else _flat(tx, ty)
    out = np.zeros_like(b)
    active = np.arange(b.shape[0])
    bnorm = _norm(b)
    x, r, d = np.zeros_like(b), b.copy(), np.zeros_like(b)
    rz = np.ones(b.shape[0])
    iteration = 0
    while True:
        rnorm = _norm(r)
        done = rnorm <= TOLERANCE * bnorm
        if done.any():
            out[active[done]] = x[done]
            keep = ~done
            active, bnorm, rnorm, rz, tx, ty, x, r, d = (
                a[keep] for a in (active, bnorm, rnorm, rz, tx, ty, x, r, d))
            levels = [level.take(keep) for level in levels]
            coarsest = coarsest.take(keep)
            if active.size == 0:
                return out
        failed = ~np.isfinite(rnorm) | (iteration == MAX_ITERATIONS)
        if failed.any():
            k = int(np.argmax(failed))
            raise ConvergenceError(int(active[k]), iteration, float(rnorm[k] / bnorm[k]))
        z = _vcycle(levels, coarsest, r)
        rz_new = np.einsum("bij,bij->b", r, z)
        d = z + (rz_new / rz)[:, None, None] * d
        rz = rz_new
        q = -_residual(tx, ty, d, np.zeros_like(d))
        q *= unknown
        alpha = (rz / np.einsum("bij,bij->b", d, q))[:, None, None]
        x += alpha * d
        r -= alpha * q
        iteration += 1
