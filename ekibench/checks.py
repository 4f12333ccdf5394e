"""Output checks of the EKI benchmark.

Each check takes plain arrays and returns a list of failure messages, empty
when the property holds.  The checks recompute what they test with their own
arithmetic (``numpy.linalg`` solves, a second-difference stencil, a flux sum)
instead of calling the code under test, so a defect in the program does not
hide itself.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SPAN_TOL = 1e-10         # relative least-squares residual of the final ensemble
UPSILON_RTOL = 1e-9      # slack on both sides of the selection inequality
SOLVE_TOL = 1e-8         # |A p - b| <= SOLVE_TOL |b|, and the 1D stencil residual
FLUX_TOL = 1e-8          # relative mismatch of outflux and supplied flux
MATCH_RTOL = 1e-10       # re-observed member output against the run's output
REL_ERROR_RTOL = 1e-12   # recomputed relative error against the manifest

# paper groundwater configuration (see ekinv.forward)
DARCY_PRESSURE = 100.0   # Dirichlet pressure on the bottom edge
DARCY_INFLUX = 500.0     # inward flux per unit length through the left edge
DARCY_SOURCE = ((4.0, 5.0, 137.0), (5.0, np.inf, 274.0))  # (y_lo, y_hi, rate)


def check_span(initial: np.ndarray, final: np.ndarray) -> list[str]:
    """The final members (columns) lie in the span of the initial members:
    small relative least-squares residual."""
    coeffs, *_ = np.linalg.lstsq(initial, final, rcond=None)
    res = float(np.linalg.norm(final - initial @ coeffs) / np.linalg.norm(final))
    if not res <= SPAN_TOL:
        return [f"span: final ensemble leaves the initial span "
                f"(relative residual {res:.3e} > {SPAN_TOL:g})"]
    return []


def upsilon_sides(outputs: np.ndarray, y: np.ndarray, gamma: np.ndarray,
                  upsilon: float, rho: float) -> tuple[float, float]:
    """(rho |Gamma^-1/2 r|, Upsilon |Gamma^1/2 (C_ww + Upsilon Gamma)^-1 r|) for
    the mean residual r = y - mean output of one forward evaluation."""
    J = outputs.shape[1]
    w_bar = outputs.mean(axis=1)
    r = y - w_bar
    dev = outputs - w_bar[:, None]
    c_ww = dev @ dev.T / (J - 1)
    lhs = rho * np.sqrt(r @ np.linalg.solve(gamma, r))
    x = np.linalg.solve(c_ww + upsilon * gamma, r)
    return float(lhs), float(upsilon * np.sqrt(x @ gamma @ x))


def check_upsilon(outputs: list, upsilons: list, y: np.ndarray, gamma: np.ndarray,
                  rho: float, upsilon0: float) -> list[str]:
    """Each Upsilon satisfies the selection inequality and, unless it is the
    initial guess, Upsilon / 2 does not."""
    if len(outputs) != len(upsilons):
        return [f"upsilon: {len(upsilons)} values for {len(outputs)} updates"]
    failures = []
    for it, (W, ups) in enumerate(zip(outputs, upsilons)):
        lhs, rhs = upsilon_sides(W, y, gamma, ups, rho)
        if not lhs <= rhs * (1 + UPSILON_RTOL):
            failures.append(f"upsilon: iteration {it}: Upsilon={ups:g} violates the "
                            f"selection inequality ({lhs:.6e} > {rhs:.6e})")
        if ups != upsilon0:
            lhs, rhs_half = upsilon_sides(W, y, gamma, ups / 2, rho)
            if not lhs > rhs_half * (1 - UPSILON_RTOL):
                failures.append(f"upsilon: iteration {it}: Upsilon/2={ups / 2:g} already "
                                f"satisfies the inequality, so Upsilon={ups:g} is not "
                                f"the first admissible doubling")
    return failures


def check_source1d(u: np.ndarray, p: np.ndarray, h: float, member: int) -> list[str]:
    """Relative residual of p'' + p = u at the interior nodes, p = 0 at both ends."""
    padded = np.concatenate(([0.0], p, [0.0]))
    r = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2 + p - u
    res = float(np.linalg.norm(r) / np.linalg.norm(u))
    if not res <= SOLVE_TOL:
        return [f"forward: member {member}: p'' + p = u residual {res:.3e} > {SOLVE_TOL:g}"]
    return []


def darcy_flux_balance(knode: np.ndarray, pressure: np.ndarray, h: tuple,
                       extents: tuple) -> tuple[float, float]:
    """(outflux through the Dirichlet bottom edge, source + prescribed influx).

    ``knode`` and ``pressure`` live on the full (n1+1, n2+1) node grid.  The
    outflux sums harmonic-mean face fluxes between node rows 1 and 0; each
    face is as long as the node's control volume is wide.  The supply
    integrates the stepped source and the left-edge influx over the control
    volumes of the unknown nodes, which start half a cell above the bottom.
    """
    h1, h2 = h
    L1, L2 = extents
    width = np.full(knode.shape[0], h1)
    width[[0, -1]] = h1 / 2
    k1, k0 = knode[:, 1], knode[:, 0]
    trans = 2.0 * k1 * k0 / (k1 + k0) * width / h2
    outflux = float(np.sum(trans * (pressure[:, 1] - pressure[:, 0])))
    y_lo = h2 / 2
    source = sum(rate * max(0.0, min(hi, L2) - max(lo, y_lo)) for lo, hi, rate in DARCY_SOURCE)
    supplied = L1 * source + DARCY_INFLUX * (L2 - y_lo)
    return outflux, float(supplied)


def check_darcy(A, b: np.ndarray, pressure: np.ndarray, knode: np.ndarray,
                h: tuple, extents: tuple, member: int) -> list[str]:
    """Discrete equations and conservation of one Darcy solve.

    ``pressure`` is the full node grid; the unknowns are the nodes above the
    Dirichlet bottom row, in row-major order.
    """
    failures = []
    if not np.all(pressure[:, 0] == DARCY_PRESSURE):
        failures.append(f"forward: member {member}: bottom-edge pressure is not "
                        f"{DARCY_PRESSURE:g}")
    p = pressure[:, 1:].ravel()
    res = float(np.linalg.norm(A @ p - b) / np.linalg.norm(b))
    if not res <= SOLVE_TOL:
        failures.append(f"forward: member {member}: |Ap - b| / |b| = {res:.3e} > {SOLVE_TOL:g}")
    out, supplied = darcy_flux_balance(knode, pressure, h, extents)
    mismatch = abs(out - supplied) / supplied
    if not mismatch <= FLUX_TOL:
        failures.append(f"forward: member {member}: outflux {out:.10g} differs from "
                        f"source + influx {supplied:.10g} (relative {mismatch:.3e})")
    return failures


def check_observed(observed: np.ndarray, run_output: np.ndarray, member: int) -> list[str]:
    """The re-solved member observes to the output the run itself computed."""
    scale = np.linalg.norm(run_output)
    if not np.linalg.norm(observed - run_output) <= MATCH_RTOL * scale:
        return [f"forward: member {member}: re-solved output differs from the run's output"]
    return []


def read_field_file(path) -> np.ndarray:
    """Values of a field file: int64 header (dim, n1, n2), then float64 values."""
    raw = Path(path).read_bytes()
    _, n1, n2 = np.frombuffer(raw[:24], dtype="<i8")
    values = np.frombuffer(raw[24:], dtype="<f8")
    if values.size != n1 * n2:
        raise ValueError(f"{path}: header says {n1}x{n2} values, file has {values.size}")
    return values


def check_rel_error(mean_values: np.ndarray, truth_values: np.ndarray,
                    reported: float) -> list[str]:
    """The reported relative error is the grid-L2 distance of the written
    mean field to the written truth, relative to the truth."""
    rel = float(np.linalg.norm(mean_values - truth_values) / np.linalg.norm(truth_values))
    if not abs(rel - reported) <= REL_ERROR_RTOL * rel:
        return [f"rel_error: manifest reports {reported!r}, written fields give {rel!r}"]
    return []


def check_inventories(inventories: list[dict]) -> list[str]:
    """Rounds with one seed write identical SHA-256 file inventories."""
    failures = []
    for k, inv in enumerate(inventories[1:], start=1):
        if inv != inventories[0]:
            differ = sorted(name for name in set(inv) | set(inventories[0])
                            if inv.get(name) != inventories[0].get(name))
            failures.append(f"determinism: round {k} differs from round 0 in {differ}")
    return failures
