"""Regularizing iterative ensemble Kalman inversion.

Each iteration evaluates the forward map on every ensemble member, checks the
discrepancy principle |Gamma^(-1/2)(y - mean output)| <= zeta * noise_level,
and otherwise updates every member by

    x_j <- x_j + C_xw (C_ww + Upsilon Gamma)^(-1) (y_j - G(x_j)),

with empirical cross- and output covariances, per-member perturbed data
y_j = y + eta_j, and the regularization parameter Upsilon chosen by doubling
an initial guess until

    rho |Gamma^(-1/2) r| <= Upsilon |Gamma^(1/2) (C_ww + Upsilon Gamma)^(-1) r|

holds (a Levenberg-Marquardt-style inflation).  With C_ww V = Gamma V Lam,
V^T Gamma V = I and c = V^T r it reads rho |c| <= Upsilon |c / (lam + Upsilon)|,
whose right side grows with Upsilon: one generalized eigendecomposition per
step decides every trial, and no trial factorizes C_ww + Upsilon Gamma.

Every update is a linear combination of current members, so iterates remain
in the linear span of the initial ensemble U_0: X_n = U_0 A_n with a J x J
coefficient matrix A_n.  With S = (C_ww + Upsilon Gamma)^(-1) (Y - W) and
C_xw = X P Ac^T / (J - 1), where P = I - 1 1^T / J centres the members and Ac
holds the centred outputs, the update is X <- X (I + P D) with
D = Ac^T S / (J - 1).  So A_0 = I and A_(n+1) = A_n + A_n P D_n.
:func:`run_inversion` holds U_0 and A only, and forms members where they are
read, each block of the packed state with its own product U_0[block] A: the
blocks the forward map ignores ride along without perturbing the arithmetic
of the blocks it uses, so the hierarchical run restricted to the state
coordinate is bitwise identical to the non-hierarchical run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

__all__ = [
    "PackingLayout", "Ensemble", "SpanEnsemble", "SpanMembers", "EkiControls",
    "IterationRecord", "StepInfo", "InversionResult", "UpsilonSearchError",
    "select_upsilon", "eki_step", "run_inversion",
]


class UpsilonSearchError(RuntimeError):
    """Doubling search exhausted without satisfying the selection inequality."""


@dataclass(frozen=True)
class PackingLayout:
    """Named contiguous blocks of the packed member vector."""

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("block names must be unique")
        if any(size < 1 for _, size in self.blocks):
            raise ValueError("block sizes must be positive")

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def slices(self) -> dict[str, slice]:
        out, start = {}, 0
        for name, size in self.blocks:
            out[name] = slice(start, start + size)
            start += size
        return out


@dataclass
class Ensemble:
    """J packed member vectors stored as the columns of a (dim, J) matrix."""

    members: np.ndarray
    layout: PackingLayout

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        if self.members.ndim != 2:
            raise ValueError("members must be a (dim, J) matrix")
        if self.members.shape[0] != self.layout.dim:
            raise ValueError(f"member dimension {self.members.shape[0]} does not "
                             f"match layout dimension {self.layout.dim}")
        if self.members.shape[1] < 2:
            raise ValueError("need at least two ensemble members")
        if not np.all(np.isfinite(self.members)):
            raise ValueError("ensemble members must be finite")

    @property
    def n_members(self) -> int:
        return self.members.shape[1]


NONFINITE_UPDATE = "ensemble update produced non-finite members"
SCAN_MEMBERS = 16   # members an overflow scan forms at once; only finiteness is read


@dataclass(frozen=True)
class SpanEnsemble:
    """The ensemble U_0 A: the members of ``initial`` (U_0, never written)
    combined by the (J, J) ``coefficients`` A.

    Every member it hands out is finite: :meth:`advanced` checks A and every
    block of U_0 A that might overflow.  ``block_max`` holds max |U_0| of
    each layout block, for that bound."""

    initial: Ensemble
    coefficients: np.ndarray
    block_max: tuple[float, ...]

    @classmethod
    def of(cls, ensemble: Ensemble) -> SpanEnsemble:
        """``ensemble`` itself: U_0 = its members, A = I."""
        X = ensemble.members
        return cls(ensemble, np.eye(ensemble.n_members),
                   tuple(max(X[sl].max(), -X[sl].min())
                         for sl in ensemble.layout.slices().values()))

    @property
    def layout(self) -> PackingLayout:
        return self.initial.layout

    @property
    def n_members(self) -> int:
        return self.initial.n_members

    @property
    def members(self) -> SpanMembers:
        return SpanMembers(self.initial.members, self.coefficients, self.layout)

    def advanced(self, step: np.ndarray) -> SpanEnsemble:
        """The ensemble X (I + step), with A <- A + A step.

        Raises RuntimeError when a member of it is not finite."""
        A = self.coefficients + self.coefficients @ step
        if not np.all(np.isfinite(A)):
            raise RuntimeError(NONFINITE_UPDATE)
        # |(U_0 A)_ij| <= max |U_0[block]| |A[:, j]|_1: only a block whose
        # bound reaches the float64 range is formed and scanned
        reach = np.abs(A).sum(axis=0).max()
        U0 = self.initial.members
        for sl, top in zip(self.layout.slices().values(), self.block_max):
            if reach > np.finfo(float).max / 2 / max(top, 1.0):
                for start in range(0, A.shape[1], SCAN_MEMBERS):
                    cols = slice(start, start + SCAN_MEMBERS)
                    if not np.all(np.isfinite(U0[sl] @ A[:, cols])):
                        raise RuntimeError(NONFINITE_UPDATE)
        return replace(self, coefficients=A)


class SpanMembers:
    """The (dim, J) members U_0 A, formed each time they are read.

    A column slice ``[:, a:b]`` forms each block of the packed layout with
    its own product U_0[block] A[:, a:b]; the forward map picks the slices
    (:meth:`ekinv.composite.CompositeForward.decoded_chunks`).  Any other
    index forms U_0[rows] A[:, cols]; ``np.asarray`` is the slice ``[:, :]``.
    """

    def __init__(self, initial: np.ndarray, coefficients: np.ndarray,
                 layout: PackingLayout):
        self._initial = initial
        self._coefficients = coefficients
        self._slices = list(layout.slices().values())
        self.shape = initial.shape

    @property
    def nbytes(self) -> int:
        """Bytes of the formed (dim, J) members."""
        return self.shape[0] * self.shape[1] * 8

    def __array__(self, dtype=None, copy=None):
        X = self._form(0, self.shape[1])
        return X if dtype is None else X.astype(dtype, copy=False)

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        if isinstance(rows, slice) and rows == slice(None) and isinstance(cols, slice):
            start, stop, step = cols.indices(self.shape[1])
            if step == 1:
                return self._form(start, max(start, stop))
        return self._initial[rows] @ self._coefficients[:, cols]

    def _form(self, start: int, stop: int) -> np.ndarray:
        out = np.empty((self.shape[0], stop - start))
        for sl in self._slices:
            np.matmul(self._initial[sl], self._coefficients[:, start:stop], out=out[sl])
        return out


# the Upsilon trials of one step: upsilon0 up to 2^59 upsilon0
MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class EkiControls:
    """Regularization and stopping controls.

    ``zeta`` defaults to 1.1 / rho, strictly above the admissible floor 1/rho.
    Every step selects one Upsilon from the unperturbed mean residual by
    doubling ``upsilon0`` at most :data:`MAX_DOUBLINGS` times, and updates
    each member towards its own perturbed copy of the data.
    """

    rho: float = 0.8
    zeta: float | None = None
    upsilon0: float = 1.0
    max_outer_iterations: int = 30

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.zeta is not None and not self.zeta * self.rho > 1.0:
            raise ValueError(f"zeta must exceed 1/rho = {1 / self.rho:.6g}, got {self.zeta}")
        if not self.upsilon0 > 0:
            raise ValueError(f"upsilon0 must be positive, got {self.upsilon0}")
        if self.max_outer_iterations < 0:
            raise ValueError("max_outer_iterations must not be negative, "
                             f"got {self.max_outer_iterations}")

    @property
    def zeta_value(self) -> float:
        return self.zeta if self.zeta is not None else 1.1 / self.rho


@dataclass
class IterationRecord:
    """Per-iteration diagnostics (one row of the convergence history)."""

    iteration: int
    misfit: float
    rel_error: float | None = None
    upsilon: float | None = None          # None: no update followed
    upsilon_trials: int | None = None
    hyper_means: dict = field(default_factory=dict)
    wall_ms: float | None = None          # set when the iteration ends


@dataclass(frozen=True)
class StepInfo:
    upsilon: float
    trials: int   # Upsilon values tried, the accepted one included


@dataclass
class InversionResult:
    ensemble: SpanEnsemble   # the final iterate; its members form when read
    records: list[IterationRecord]
    stop_reason: str  # "discrepancy" | "max-iterations" | "aborted"
    message: str = ""


def select_upsilon(C_ww: np.ndarray, gamma: np.ndarray, residual: np.ndarray,
                   controls: EkiControls) -> tuple[float, int]:
    """Smallest Upsilon = 2^i upsilon0 satisfying the selection inequality,
    every trial decided in the eigenbasis of (C_ww, Gamma) from one ``eigh``.

    Returns (upsilon, number of trials).  Raises :class:`UpsilonSearchError`
    after :data:`MAX_DOUBLINGS` failed trials."""
    lam, V = scipy.linalg.eigh(C_ww, gamma)
    lam = np.maximum(lam, 0.0)   # C_ww is positive semi-definite
    c2 = (V.T @ np.asarray(residual, dtype=float)) ** 2
    lhs = controls.rho * np.sqrt(c2.sum())
    for i in range(MAX_DOUBLINGS):
        upsilon = 2.0**i * controls.upsilon0
        if lhs <= upsilon * np.sqrt(np.sum(c2 / (lam + upsilon) ** 2)):
            return upsilon, i + 1
    raise UpsilonSearchError(
        f"no admissible Upsilon within {MAX_DOUBLINGS} doublings "
        f"(lhs={lhs:.3e}); the output ensemble may be ill-conditioned")


def eki_step(span: SpanEnsemble, W: np.ndarray, obs, controls: EkiControls,
             rng: np.random.Generator) -> tuple[SpanEnsemble, StepInfo]:
    """One analysis update of every member of ``span``.

    ``W`` holds the members' forward outputs, one (n_obs,) column each;
    ``obs`` supplies the data vector and noise covariance; ``rng`` draws
    each member's perturbed data y + Gamma^(1/2) eta_j.  Returns the
    ensemble with new coefficients; ``span`` is left unchanged.  Raises
    RuntimeError when an updated member is not finite.
    """
    J = span.n_members
    y = obs.y
    w_bar = W.mean(axis=1)
    Ac = W - w_bar[:, None]
    C_ww = Ac @ Ac.T / (J - 1)

    Y = y[:, None] + obs.gamma_chol @ rng.standard_normal((obs.n_obs, J))
    R = Y - W

    upsilon, trials = select_upsilon(C_ww, obs.gamma, y - w_bar, controls)
    M = C_ww + upsilon * obs.gamma
    try:
        factor = scipy.linalg.cho_factor(M)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(M) / M.shape[0]
        factor = scipy.linalg.cho_factor(M + jitter * np.eye(M.shape[0]))
    S = scipy.linalg.cho_solve(factor, R)

    D = Ac.T @ S
    D /= J - 1
    D -= D.mean(axis=0)   # P D
    return span.advanced(D), StepInfo(upsilon=upsilon, trials=trials)


def run_inversion(ensemble: Ensemble, forward_map, obs, controls: EkiControls,
                  rng: np.random.Generator, error_fn=None, hyper_means_fn=None
                  ) -> InversionResult:
    """Iterate :func:`eki_step` until the discrepancy principle is met.

    ``error_fn(members)`` and ``hyper_means_fn(members)`` are optional
    reporting hooks evaluated every iteration (relative error against a known
    truth; decoded hyperparameter ensemble means).  Every record carries the
    wall time of its iteration: forming the members, the forward map, the
    hooks and the update, which the last record does not make.

    ``ensemble`` is never written: the run holds it as U_0 and each iterate
    as a :class:`SpanEnsemble`.  The forward map and the hooks receive its
    :class:`SpanMembers`, which form members where they are read.  An
    update that aborts on non-finite members leaves ``result.ensemble`` at
    the last iterate, the one ``records[-1]`` describes.

    A run that ends at ``max_outer_iterations`` says why in its message:
    its last misfit as a multiple of the threshold zeta eta, and the
    iterations its first misfit m_0 needs at the rate rho,
    ceil(log(m_0 / (zeta eta)) / log(1 / rho)), since an update shrinks
    the misfit by about rho at best.
    """
    if obs.y is None or obs.noise_level is None:
        raise ValueError("observation model carries no data; synthesize it first")
    threshold = controls.zeta_value * obs.noise_level
    records: list[IterationRecord] = []
    current = SpanEnsemble.of(ensemble)
    stop_reason, message = "max-iterations", ""
    n = 0
    while True:
        t0 = time.perf_counter()
        members = current.members
        try:
            W = forward_map(members)
            if not np.all(np.isfinite(W)):
                raise RuntimeError("forward outputs contain non-finite values")
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            stop_reason, message = "aborted", f"forward evaluation failed: {exc}"
            break
        misfit = obs.whitened_misfit(obs.y - W.mean(axis=1))
        record = IterationRecord(
            iteration=n,
            misfit=misfit,
            rel_error=None if error_fn is None else float(error_fn(members)),
            hyper_means={} if hyper_means_fn is None else dict(hyper_means_fn(members)),
        )
        records.append(record)
        if misfit <= threshold:
            stop_reason = "discrepancy"
        elif n < controls.max_outer_iterations:
            try:
                current, info = eki_step(current, W, obs, controls, rng)
                record.upsilon, record.upsilon_trials = info.upsilon, info.trials
            except (UpsilonSearchError, RuntimeError, ValueError,
                    np.linalg.LinAlgError) as exc:
                stop_reason, message = "aborted", str(exc)
        record.wall_ms = 1000.0 * (time.perf_counter() - t0)
        if record.upsilon is None:   # no update: the run ends at this iterate
            break
        n += 1
    if stop_reason == "max-iterations":
        first, last = records[0].misfit, records[-1].misfit
        needed = int(np.ceil(np.log(first / threshold) / np.log(1.0 / controls.rho)))
        message = (f"stopped at the cap of {controls.max_outer_iterations} iterations with the "
                   f"misfit {last / threshold:.4g} times the threshold zeta eta = "
                   f"{threshold:.4g}; the first misfit, {first:.4g}, needs at least {needed} "
                   f"iterations at the rate rho = {controls.rho:g}")
    return InversionResult(ensemble=current, records=records,
                           stop_reason=stop_reason, message=message)
