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
in the linear span of the initial ensemble.  The continuous-time limit ODE
(Upsilon^-1 = (J-1) h) is provided as an integrator for cross-checking the
discrete iteration at small step sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "PackingLayout", "Ensemble", "EkiControls", "IterationRecord", "StepInfo",
    "InversionResult", "UpsilonSearchError", "empirical_covariances",
    "select_upsilon", "eki_step", "run_inversion", "integrate_limit_ode",
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

    def block(self, name: str) -> np.ndarray:
        return self.members[self.layout.slices()[name]]


@dataclass(frozen=True)
class EkiControls:
    """Regularization and stopping controls.

    ``zeta`` defaults to 1.1 / rho, strictly above the admissible floor 1/rho.
    ``fixed_upsilon`` bypasses the doubling selection (used by the
    continuous-time-limit comparison); ``per_member_upsilon`` selects one
    Upsilon per member from its own perturbed residual instead of a single
    shared value from the unperturbed mean residual.
    """

    rho: float = 0.8
    zeta: float | None = None
    upsilon0: float = 1.0
    max_outer_iterations: int = 30
    max_doublings: int = 60
    perturb_observations: bool = True
    per_member_upsilon: bool = False
    fixed_upsilon: float | None = None

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.zeta is not None and self.zeta * self.rho <= 1.0:
            raise ValueError(f"zeta must exceed 1/rho = {1 / self.rho:.6g}, got {self.zeta}")
        if self.upsilon0 <= 0:
            raise ValueError("upsilon0 must be positive")
        if self.max_outer_iterations < 0 or self.max_doublings < 1:
            raise ValueError("iteration budgets must be positive")

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
    upsilon: float | np.ndarray
    doublings: int


@dataclass
class InversionResult:
    ensemble: Ensemble
    records: list[IterationRecord]
    stop_reason: str  # "discrepancy" | "max-iterations" | "aborted"
    message: str = ""


def empirical_covariances(members: np.ndarray, outputs: np.ndarray,
                          hyper_slice: slice | None = None):
    """Sample covariances with 1/(J-1) normalization.

    Returns (C_xw, C_ww) or (C_xw, C_ww, C_thetaw) when a hyperparameter
    slice of the packed state is given.
    """
    X = np.asarray(members, dtype=float)
    W = np.asarray(outputs, dtype=float)
    J = X.shape[1]
    if J < 2 or W.shape[1] != J:
        raise ValueError("need matching ensembles with at least two members")
    Xc = X - X.mean(axis=1, keepdims=True)
    Ac = W - W.mean(axis=1, keepdims=True)
    C_xw = Xc @ Ac.T / (J - 1)
    C_ww = Ac @ Ac.T / (J - 1)
    if hyper_slice is None:
        return C_xw, C_ww
    return C_xw, C_ww, C_xw[hyper_slice]


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
                  S: np.ndarray) -> np.ndarray:
    """x_j += C_xw S_j, computed block by block of the packed state."""
    J = members.shape[1]
    updated = np.empty_like(members)
    for name, sl in layout.slices().items():
        Xb = members[sl]
        Xc = Xb - Xb.mean(axis=1, keepdims=True)
        updated[sl] = Xb + (Xc @ Ac.T / (J - 1)) @ S
    return updated


def eki_step(ensemble: Ensemble, forward_map, obs, controls: EkiControls,
             rng: np.random.Generator, outputs: np.ndarray | None = None
             ) -> tuple[Ensemble, StepInfo]:
    """One analysis update of every ensemble member.

    ``forward_map`` maps a (dim, J) matrix to an (n_obs, J) output matrix;
    ``obs`` supplies the data vector and noise covariance.  Precomputed
    ``outputs`` skip the forward evaluation.
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

    if controls.fixed_upsilon is not None:
        upsilon, doublings = float(controls.fixed_upsilon), 0
        S = scipy.linalg.cho_solve(_factorize(C_ww, gamma, upsilon), R)
    elif controls.per_member_upsilon:
        per = np.empty(J)
        doublings = 0
        S = np.empty_like(R)
        cache: dict[float, tuple] = {}
        for j in range(J):
            per[j], trials = select_upsilon(C_ww, gamma, Y[:, j] - w_bar, controls)
            doublings = max(doublings, trials)
            if per[j] not in cache:
                cache[per[j]] = _factorize(C_ww, gamma, per[j])
            S[:, j] = scipy.linalg.cho_solve(cache[per[j]], R[:, j])
        upsilon = per
    else:
        upsilon, doublings = select_upsilon(C_ww, gamma, y - w_bar, controls)
        S = scipy.linalg.cho_solve(_factorize(C_ww, gamma, upsilon), R)

    updated = _block_update(X, ensemble.layout, Ac, S)
    if not np.all(np.isfinite(updated)):
        raise RuntimeError("ensemble update produced non-finite members")
    return Ensemble(updated, ensemble.layout), StepInfo(upsilon=upsilon, doublings=doublings)


def run_inversion(ensemble: Ensemble, forward_map, obs, controls: EkiControls,
                  rng: np.random.Generator, error_fn=None, hyper_means_fn=None,
                  record_walltime: bool = False) -> InversionResult:
    """Iterate :func:`eki_step` until the discrepancy principle is met.

    ``error_fn(members)`` and ``hyper_means_fn(members)`` are optional
    reporting hooks evaluated every iteration (relative error against a known
    truth; decoded hyperparameter ensemble means).
    """
    if obs.y is None or obs.noise_level is None:
        raise ValueError("observation model carries no data; synthesize it first")
    threshold = controls.zeta_value * obs.noise_level
    records: list[IterationRecord] = []
    current = ensemble
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
            current, info = eki_step(current, forward_map, obs, controls, rng, outputs=W)
        except (UpsilonSearchError, RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            stop_reason, message = "aborted", str(exc)
            break
        record.upsilon = (float(np.max(info.upsilon))
                          if np.ndim(info.upsilon) else float(info.upsilon))
        if record_walltime:
            record.wall_ms = 1000.0 * (time.perf_counter() - t0)
        n += 1
    return InversionResult(ensemble=current, records=records,
                           stop_reason=stop_reason, message=message)


def integrate_limit_ode(ensemble: Ensemble, forward_map, obs, h: float, T: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the coupled-particle continuous-time limit.

    dx_j/dt = -sum_m d(j, m) x_m with
    d(j, m) = <Gamma^-1 (G(x_j) - y), G(x_m) - mean output>.

    Returns (times, trajectory) with trajectory[i] the (dim, J) state at
    times[i].  Intended for small cross-check problems; the full trajectory
    is kept in memory.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    y = obs.y
    gamma_inv = np.linalg.inv(obs.gamma)

    def rhs(X):
        W = forward_map(X)
        Ac = W - W.mean(axis=1, keepdims=True)
        P = gamma_inv @ (W - y[:, None])
        D = Ac.T @ P  # D[m, j] = <G(x_m) - mean, Gamma^-1 (G(x_j) - y)>
        Xc = X - X.mean(axis=1, keepdims=True)
        return -(Xc @ D)

    n_steps = int(round(T / h))
    times = h * np.arange(n_steps + 1)
    traj = np.empty((n_steps + 1,) + ensemble.members.shape)
    traj[0] = ensemble.members
    X = ensemble.members.copy()
    # overflow in the RHS is an anticipated blow-up symptom, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1 = rhs(X)
            k2 = rhs(X + 0.5 * h * k1)
            k3 = rhs(X + 0.5 * h * k2)
            k4 = rhs(X + h * k3)
            X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(X)) or np.linalg.norm(X) > 1e12:
                raise RuntimeError(
                    f"continuous-time trajectory blew up at t={times[i + 1]:.4g}")
            traj[i + 1] = X
    return times, traj
