"""Tests of the benchmark's output checks.

Each check must pass on a correct output and fail once its property is
broken: a member moved out of the initial span, an Upsilon halved or
doubled, a perturbed pressure or source solution, a misreported error, a
changed file.  Two tiny rounds per model problem, on two seeds, run the
whole round in a subprocess, so that its wrappers stay out of this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from ekinv.eki import EkiControls, select_upsilon
from ekinv.forward import DarcyProblem, SourceProblem1D
from ekinv.grid import Field, build_domain
from ekinv.harness import write_field_file

HERE = Path(__file__).resolve().parent


def test_span_check_fails_for_a_member_moved_out_of_the_span():
    rng = np.random.default_rng(0)
    initial = rng.standard_normal((40, 6))
    final = initial @ rng.standard_normal((6, 6))
    assert checks.check_span(initial, final) == []
    outside = np.linalg.svd(initial)[0][:, -1]   # orthogonal to every initial member
    final[:, 2] += 1e-6 * np.linalg.norm(final[:, 2]) * outside
    assert checks.check_span(initial, final)


def _upsilon_case():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((5, 8))
    gamma = 1e-2 * np.eye(5)
    y = W.mean(axis=1) + 3.0 * rng.standard_normal(5)
    controls = EkiControls(rho=0.8, upsilon0=1.0)
    upsilon, trials = select_upsilon(np.cov(W), gamma, y - W.mean(axis=1), controls)
    assert trials > 1
    return W, y, gamma, upsilon


def test_upsilon_check_accepts_the_doubling_search_result():
    W, y, gamma, upsilon = _upsilon_case()
    assert checks.check_upsilon([W], [upsilon], y, gamma, 0.8, 1.0) == []


def test_upsilon_check_fails_for_a_halved_or_doubled_upsilon():
    W, y, gamma, upsilon = _upsilon_case()
    assert checks.check_upsilon([W], [upsilon / 2], y, gamma, 0.8, 1.0)
    assert checks.check_upsilon([W], [2 * upsilon], y, gamma, 0.8, 1.0)


def _darcy_case():
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    x1, x2 = domain.interior_meshgrid()
    kappa = Field(domain, np.exp(np.sin(x1) * np.cos(0.5 * x2)))
    problem = DarcyProblem(domain)
    A, b = problem.assemble(kappa)
    return problem, kappa, A, b, problem.solve_full(kappa)


def test_darcy_check_passes_on_the_solver_output():
    problem, kappa, A, b, pressure = _darcy_case()
    d = kappa.domain
    assert checks.check_darcy(A, b, pressure, problem.node_kappa(kappa), d.h, d.extents, 0) == []


def test_darcy_flux_balance_matches_the_solver_own_balance():
    problem, kappa, A, b, pressure = _darcy_case()
    d = kappa.domain
    out, supplied = checks.darcy_flux_balance(problem.node_kappa(kappa), pressure,
                                              d.h, d.extents)
    assert np.allclose((out, supplied), problem.boundary_flux_balance(kappa), rtol=1e-10)


def test_darcy_check_fails_for_a_perturbed_pressure():
    problem, kappa, A, b, pressure = _darcy_case()
    d = kappa.domain
    pressure[5, 7] *= 1 + 1e-6
    failures = checks.check_darcy(A, b, pressure, problem.node_kappa(kappa),
                                  d.h, d.extents, 0)
    assert any("|Ap - b|" in f for f in failures)


def test_darcy_check_fails_when_the_bottom_row_is_not_fixed():
    problem, kappa, A, b, pressure = _darcy_case()
    d = kappa.domain
    pressure[:, 0] += 1.0
    assert checks.check_darcy(A, b, pressure, problem.node_kappa(kappa), d.h, d.extents, 0)


def test_source1d_check_passes_on_the_solver_output_and_fails_when_perturbed():
    domain = build_domain(1, [10.0], 100)
    u = Field(domain, np.sin(domain.interior_coords(0)) ** 3)
    p = SourceProblem1D(domain).solve(u).values
    assert checks.check_source1d(u.values, p, domain.h[0], 0) == []
    p[40] += 1e-6 * np.abs(p).max()
    assert checks.check_source1d(u.values, p, domain.h[0], 0)


def test_rel_error_check_reads_field_files(tmp_path):
    domain = build_domain(2, [6.0, 6.0], [8, 8])
    rng = np.random.default_rng(2)
    truth, mean = rng.standard_normal((2, domain.n_interior))
    write_field_file(tmp_path / "t.bin", domain, truth)
    write_field_file(tmp_path / "m.bin", domain, mean)
    t, m = checks.read_field_file(tmp_path / "t.bin"), checks.read_field_file(tmp_path / "m.bin")
    rel = domain.norm(mean - truth) / domain.norm(truth)
    assert checks.check_rel_error(m, t, rel) == []
    assert checks.check_rel_error(m, t, rel * (1 + 1e-9))


def test_inventory_check_fails_for_a_changed_file():
    inv = {"a.csv": "00", "b.bin": "11"}
    assert checks.check_inventories([inv, dict(inv)]) == []
    assert checks.check_inventories([inv, dict(inv, **{"b.bin": "12"})])
    assert checks.check_inventories([inv, {"a.csv": "00"}])


TINY = {
    "source1d": """
[experiment]
model_problem = source1d
parameterization = noncentered-field-gauss
n_ensemble = 12
n_initializations = 1
[eki]
max_outer_iterations = 2
[grid]
n_cells = 100
""",
    "darcy": """
[experiment]
model_problem = darcy
parameterization = noncentered-hier
coefficient_map = channel
n_ensemble = 8
n_initializations = 1
[eki]
max_outer_iterations = 2
[grid]
n_cells = 16
[observations]
n_obs = 9
""",
}


@pytest.mark.parametrize("model", sorted(TINY))
def test_tiny_rounds_pass_every_check_on_two_seeds(tmp_path, model):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY[model], encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(HERE.parent / "src"))
    inventories = {}
    for seed, trace in ((3, 0), (4, 1)):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        subprocess.run([sys.executable, str(HERE / "round.py"), "--config", str(config),
                        "--seed", str(seed), "--out", str(out), "--trace", str(trace)],
                       env=env, check=True, timeout=120)
        result = json.loads((out / "round.json").read_text(encoding="utf-8"))
        assert result["failures"] == []
        assert result["stop_reason"] == "max-iterations"
        assert len(result["iteration_s"]) == 2
        inventories[seed] = result["files"]
    assert set(inventories[3]) == set(inventories[4])
    assert inventories[3] != inventories[4]
