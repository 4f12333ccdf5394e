"""Regularizing iterative ensemble Kalman inversion.

Each iteration evaluates the forward map on every ensemble member, checks the
discrepancy principle |Gamma^(-1/2)(y - mean output)| <= zeta * noise_level,
and otherwise updates every member by

    x_j <- x_j + C_xw (C_ww + Upsilon Gamma)^(-1) (y_j - G(x_j)),

with empirical cross- and output covariances, per-member perturbed data
y_j = y + eta_j, and the regularization parameter Upsilon chosen by doubling
an initial guess until

    rho |Gamma^(-1/2) r| <= Upsilon |Gamma^(1/2) (C_ww + Upsilon Gamma)^(-1) r|

holds (a Levenberg-Marquardt-style inflation).  Updates are computed block by
block in the packed state so that blocks the forward map ignores ride along
without perturbing the arithmetic of the blocks it uses: the hierarchical
update restricted to the state coordinate is bitwise identical to the
non-hierarchical run.

Every update is a linear combination of current members, so iterates remain
in the linear span of the initial ensemble.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "PackingLayout", "Ensemble", "EkiControls", "IterationRecord", "StepInfo",
    "InversionResult", "UpsilonSearchError", "select_upsilon", "eki_step",
    "run_inversion",
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
    """J packed member vectors stored as the columns of a (dim, J) matrix.

    ``checked_finite=True`` skips the scan for non-finite members, for an
    update that has already scanned every block it wrote."""

    members: np.ndarray
    layout: PackingLayout
    checked_finite: InitVar[bool] = False

    def __post_init__(self, checked_finite: bool):
        self.members = np.asarray(self.members, dtype=float)
        if self.members.ndim != 2:
            raise ValueError("members must be a (dim, J) matrix")
        if self.members.shape[0] != self.layout.dim:
            raise ValueError(f"member dimension {self.members.shape[0]} does not "
                             f"match layout dimension {self.layout.dim}")
        if self.members.shape[1] < 2:
            raise ValueError("need at least two ensemble members")
        if not checked_finite and not np.all(np.isfinite(self.members)):
            raise ValueError("ensemble members must be finite")

    @property
    def n_members(self) -> int:
        return self.members.shape[1]


@dataclass(frozen=True)
class EkiControls:
    """Regularization and stopping controls.

    ``zeta`` defaults to 1.1 / rho, strictly above the admissible floor 1/rho.
    Every step selects one Upsilon from the unperturbed mean residual by
    doubling ``upsilon0`` at most ``max_doublings`` times.
    """

    rho: float = 0.8
    zeta: float | None = None
    upsilon0: float = 1.0
    max_outer_iterations: int = 30
    max_doublings: int = 60
    perturb_observations: bool = True

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
        if self.max_doublings < 1:
            raise ValueError(f"max_doublings must be at least 1, got {self.max_doublings}")

    @property
    def zeta_value(self) -> float:
        return self.zeta if self.zeta is not None else 1.1 / self.rho


@dataclass
class IterationRecord:
    """Per-iteration diagnostics (one row of the convergence history)."""

    iteration: int
    misfit: float
    rel_error: float | None = None
    upsilon: float | None = None
    hyper_means: dict = field(default_factory=dict)
    wall_ms: float | None = None


@dataclass(frozen=True)
class StepInfo:
    upsilon: float
    trials: int   # Upsilon values tried, the accepted one included


@dataclass
class InversionResult:
    ensemble: Ensemble
    records: list[IterationRecord]
    stop_reason: str  # "discrepancy" | "max-iterations" | "aborted"
    message: str = ""


def _factorize(C_ww: np.ndarray, gamma: np.ndarray, upsilon: float):
    M = C_ww + upsilon * gamma
    try:
        return scipy.linalg.cho_factor(M)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(M) / M.shape[0]
        return scipy.linalg.cho_factor(M + jitter * np.eye(M.shape[0]))


def select_upsilon(C_ww: np.ndarray, gamma: np.ndarray, residual: np.ndarray,
                   controls: EkiControls) -> tuple[float, int]:
    """Smallest Upsilon = 2^i upsilon0 satisfying the selection inequality.

    Returns (upsilon, number of trials).  Raises :class:`UpsilonSearchError`
    after ``max_doublings`` failed trials.
    """
    r = np.asarray(residual, dtype=float)
    lhs = controls.rho * np.sqrt(r @ np.linalg.solve(gamma, r))
    for i in range(controls.max_doublings):
        upsilon = 2.0**i * controls.upsilon0
        x = scipy.linalg.cho_solve(_factorize(C_ww, gamma, upsilon), r)
        rhs = upsilon * np.sqrt(x @ gamma @ x)
        if lhs <= rhs:
            return upsilon, i + 1
    raise UpsilonSearchError(
        f"no admissible Upsilon within {controls.max_doublings} doublings "
        f"(lhs={lhs:.3e}); the output ensemble may be ill-conditioned")


def _block_update(members: np.ndarray, layout: PackingLayout, Ac: np.ndarray,
                  S: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = members + C_xw S, computed block by block of the packed state.

    ``out`` may be ``members`` itself: a block reads only its own rows
    before writing them.  Each block holds one block-sized temporary, the
    centred members that the product then overwrites, and its C_xw; they
    are freed before the next block.  Raises RuntimeError on a block with
    non-finite members, after writing it into ``out``."""
    J = members.shape[1]
    for sl in layout.slices().values():
        Xb = members[sl]
        Xc = Xb - Xb.mean(axis=1, keepdims=True)
        C_xw = Xc @ Ac.T
        C_xw /= J - 1
        np.add(Xb, np.matmul(C_xw, S, out=Xc), out=out[sl])
        del Xc, C_xw
        if not np.all(np.isfinite(out[sl])):
            raise RuntimeError("ensemble update produced non-finite members")
    return out


def eki_step(ensemble: Ensemble, forward_map, obs, controls: EkiControls,
             rng: np.random.Generator, outputs: np.ndarray | None = None,
             out: np.ndarray | None = None) -> tuple[Ensemble, StepInfo]:
    """One analysis update of every ensemble member.

    ``forward_map`` maps a (dim, J) matrix to an (n_obs, J) output matrix;
    ``obs`` supplies the data vector and noise covariance.  Precomputed
    ``outputs`` skip the forward evaluation.  The updated members are
    written into ``out``, which may be ``ensemble.members`` itself, or by
    default into a new array, leaving ``ensemble`` unchanged.  The bits
    are the same either way.
    """
    X = ensemble.members
    J = ensemble.n_members
    W = forward_map(X) if outputs is None else np.asarray(outputs, dtype=float)
    if not np.all(np.isfinite(W)):
        raise RuntimeError("forward outputs contain non-finite values")
    y = obs.y
    gamma = obs.gamma
    w_bar = W.mean(axis=1)
    Ac = W - w_bar[:, None]
    C_ww = Ac @ Ac.T / (J - 1)

    if controls.perturb_observations:
        Y = y[:, None] + obs.gamma_chol @ rng.standard_normal((obs.n_obs, J))
    else:
        Y = np.broadcast_to(y[:, None], (obs.n_obs, J))
    R = Y - W

    upsilon, trials = select_upsilon(C_ww, gamma, y - w_bar, controls)
    S = scipy.linalg.cho_solve(_factorize(C_ww, gamma, upsilon), R)

    updated = _block_update(X, ensemble.layout, Ac, S,
                            np.empty_like(X) if out is None else out)
    return (Ensemble(updated, ensemble.layout, checked_finite=True),
            StepInfo(upsilon=upsilon, trials=trials))


def run_inversion(ensemble: Ensemble, forward_map, obs, controls: EkiControls,
                  rng: np.random.Generator, error_fn=None, hyper_means_fn=None,
                  record_walltime: bool = False) -> InversionResult:
    """Iterate :func:`eki_step` until the discrepancy principle is met.

    ``error_fn(members)`` and ``hyper_means_fn(members)`` are optional
    reporting hooks evaluated every iteration (relative error against a known
    truth; decoded hyperparameter ensemble means).

    ``ensemble`` is never written.  The first update writes into a new
    array, and every later one overwrites that array, so a run holds the
    initial and the current ensemble and no third.  An update that aborts
    on non-finite members may therefore leave ``result.ensemble`` partly
    updated: the blocks before the failing one updated, the failing one
    non-finite.
    """
    if obs.y is None or obs.noise_level is None:
        raise ValueError("observation model carries no data; synthesize it first")
    threshold = controls.zeta_value * obs.noise_level
    records: list[IterationRecord] = []
    current = ensemble
    out = None   # the array that updates write into, once there is one
    stop_reason, message = "max-iterations", ""
    n = 0
    while True:
        t0 = time.perf_counter() if record_walltime else None
        try:
            W = forward_map(current.members)
            if not np.all(np.isfinite(W)):
                raise RuntimeError("forward outputs contain non-finite values")
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            stop_reason, message = "aborted", f"forward evaluation failed: {exc}"
            break
        misfit = obs.whitened_misfit(obs.y - W.mean(axis=1))
        record = IterationRecord(
            iteration=n,
            misfit=misfit,
            rel_error=None if error_fn is None else float(error_fn(current.members)),
            hyper_means={} if hyper_means_fn is None else dict(hyper_means_fn(current.members)),
        )
        records.append(record)
        if misfit <= threshold:
            stop_reason = "discrepancy"
            break
        if n >= controls.max_outer_iterations:
            stop_reason = "max-iterations"
            break
        try:
            current, info = eki_step(current, forward_map, obs, controls, rng,
                                     outputs=W, out=out)
            out = current.members
        except (UpsilonSearchError, RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            stop_reason, message = "aborted", str(exc)
            break
        record.upsilon = info.upsilon
        if record_walltime:
            record.wall_ms = 1000.0 * (time.perf_counter() - t0)
        n += 1
    return InversionResult(ensemble=current, records=records,
                           stop_reason=stop_reason, message=message)

