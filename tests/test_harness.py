import numpy as np
import pytest

from ekinv import harness, multigrid

TINY_DARCY = """
[experiment]
model_problem = darcy
parameterization = noncentered-hier
n_ensemble = 6
n_initializations = 2
out_dir = {out}

[eki]
max_outer_iterations = 2

[grid]
n_cells = 16

[observations]
n_obs = 16
"""


def tiny_darcy(tmp_path, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(TINY_DARCY.format(out=tmp_path / name), encoding="utf-8")
    return harness.load_config(path)


def test_serial_and_parallel_runs_write_identical_files(tmp_path, monkeypatch):
    builds = []
    build_model_setup = harness.build_model_setup

    def counted(config):
        builds.append(config)
        return build_model_setup(config)

    monkeypatch.setattr(harness, "build_model_setup", counted)
    serial = harness.run_experiment(tiny_darcy(tmp_path, "serial"))
    assert len(builds) == 1
    parallel = harness.run_experiment(tiny_darcy(tmp_path, "parallel"), parallel=2)
    assert [init["stop_reason"] for init in serial["initializations"]] == \
        ["max-iterations"] * 2
    assert len(serial["files"]) > 2
    assert serial["files"] == parallel["files"]


def test_solver_failure_reaches_the_manifest(tmp_path, monkeypatch):
    # the truth solve converges; the cap then drops to one iteration
    build_parameterization = harness.build_parameterization

    def capped(*args):
        monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 1)
        return build_parameterization(*args)

    monkeypatch.setattr(harness, "build_parameterization", capped)
    manifest = harness.run_experiment(tiny_darcy(tmp_path, "capped"))
    for init in manifest["initializations"]:
        assert init["stop_reason"] == "aborted"
        assert init["message"].startswith(
            "forward evaluation failed: member 0, solve: MG-PCG did not converge "
            "within 1 iterations (relative residual ")


def test_field_cauchy_prior_samples_have_cauchy_increments(tmp_path):
    delta = 0.5
    path = tmp_path / "prior.ini"
    path.write_text(f"""
[experiment]
model_problem = source1d

[grid]
n_cells = 100

[field_hyper]
cauchy_delta = {delta}

[sample_prior]
mode = field-cauchy
n_samples = 120
""", encoding="utf-8")
    harness.sample_prior_fields(harness.load_config(path), tmp_path / "out")
    increments = []
    for s in range(120):
        v = np.loadtxt(tmp_path / "out" / f"field-cauchy_v_s{s}.csv", delimiter=",",
                       skiprows=1)[:, 1]
        jumps = np.diff(v)
        assert np.count_nonzero(jumps) == 19   # one increment per knot
        increments.append(jumps[jumps != 0])
    increments = np.concatenate(increments)
    # Cauchy(0, delta): P(|D| > 10 delta) = 1 - 2 arctan(10) / pi = 0.0635;
    # standard normal draws exceed 5 with probability 6e-7
    tail = np.mean(np.abs(increments) > 10 * delta)
    assert tail == pytest.approx(1 - 2 * np.arctan(10) / np.pi, abs=0.02)

