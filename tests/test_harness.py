import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ekinv
from ekinv import harness, multigrid
from ekinv.cli import cli
from ekinv.config import (
    ConfigError,
    config_from_manifest,
    echo,
    load_config,
    snapshot_iterations,
)
from ekinv.grid import Field, build_domain
from ekinv.param_maps import CAUCHY_DELTA

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
    return load_config(path)


def test_serial_and_parallel_runs_write_identical_files(tmp_path, monkeypatch, cpus):
    builds = []
    build_model_setup = harness.build_model_setup

    def counted(config):
        builds.append(config)
        return build_model_setup(config)

    monkeypatch.setattr(harness, "build_model_setup", counted)
    runs = {}
    for n, name in ((1, "serial"), (2, "parallel")):
        cpus(n)
        config = tiny_darcy(tmp_path, name)
        config["grid"]["n_cells"] = 128   # two chunks of four members
        runs[name] = harness.run_experiment(config)
    assert len(builds) == 2   # once per run, shared by its two initializations
    serial, parallel = runs["serial"], runs["parallel"]
    assert (serial["processes"], parallel["processes"]) == \
        ({"solve_workers": 1}, {"solve_workers": 2})
    assert [init["stop_reason"] for init in serial["initializations"]] == \
        ["max-iterations"] * 2
    assert len(serial["files"]) > 2
    assert serial["files"] == parallel["files"]


def test_solver_failure_reaches_the_manifest(tmp_path, monkeypatch, capsys):
    # the truth solve converges; the cap then drops to one iteration
    build_parameterization = harness.build_parameterization

    def capped(*args):
        monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 1)
        return build_parameterization(*args)

    monkeypatch.setattr(harness, "build_parameterization", capped)
    manifest = harness.run_experiment(tiny_darcy(tmp_path, "capped"))
    for init in manifest["initializations"]:
        assert init["stop_reason"] == "aborted"
        assert init["n_records"] == 0
        assert init["wall_ms"] == []
        assert init["message"].startswith(
            "forward evaluation failed: member 0, solve: MG-PCG did not converge "
            "within 1 iterations (relative residual ")

    # an initialization that aborts before its first record made no iterations
    assert cli(["report", str(tmp_path / "capped")]) == 0
    summary = (tmp_path / "capped" / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[1:] == ["0,aborted,0,,,", "1,aborted,0,,,"]
    assert capsys.readouterr().out.splitlines()[1].split() == ["0", "aborted", "0", "-", "-", "-"]


def test_cli_exit_codes(tmp_path, capsys):
    tiny_darcy(tmp_path, "valid")
    assert cli(["validate", str(tmp_path / "valid.ini")]) == 0
    assert cli(["validate", str(tmp_path / "missing.ini")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    (tmp_path / "bad.ini").write_text("[experiment]\nmodel_problem = darcy\n"
                                      "parameterization = level-set\n", encoding="utf-8")
    assert cli(["validate", str(tmp_path / "bad.ini")]) == 1
    assert "[experiment] parameterization: must be one of" in capsys.readouterr().err
    never = str(tmp_path / "never")
    assert cli(["run", str(tmp_path / "valid.ini"), "--max-iter", "-1", "--out-dir", never]) == 1
    assert "--max-iter: max_outer_iterations must not be negative" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    for command, seed in (("run", "-1"), ("sample-prior", "-2")):
        assert cli([command, str(tmp_path / "valid.ini"), "--seed", seed, "--out-dir", never]) == 1
        assert f"--seed: must be non-negative, got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
    assert cli(["run", str(tmp_path / "valid.ini"), "--parallel", "2", "--out-dir", never]) == 2
    assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    assert cli(["frobnicate"]) == 2


def test_validate_appends_a_memory_estimate_that_bounds_the_run(tmp_path, capsys, cpus):
    cpus(1)   # tracemalloc counts this process only: solve the chunks here
    config = tiny_darcy(tmp_path, "run")
    assert cli(["validate", str(tmp_path / "run.ini")]) == 0
    echoed = capsys.readouterr().out
    assert echoed.splitlines()[-1].startswith("# memory estimate: ")
    (tmp_path / "echo.ini").write_text(echoed, encoding="utf-8")
    assert load_config(tmp_path / "echo.ini") == config
    tracemalloc.start()
    try:
        harness.run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(harness.memory_estimate(config).values()) >= peak


def test_validate_echoes_every_digit_of_a_bound(tmp_path, capsys):
    path = tmp_path / "digits.ini"
    path.write_text("[experiment]\nmodel_problem = darcy\nparameterization = centered-hier\n"
                    "[prior]\nalpha_bounds = 1.23456789, 4\n", encoding="utf-8")
    config = load_config(path)
    assert config["prior"]["alpha_bounds"] == (1.23456789, 4.0)
    assert cli(["validate", str(path)]) == 0
    (tmp_path / "echo.ini").write_text(capsys.readouterr().out, encoding="utf-8")
    assert load_config(tmp_path / "echo.ini") == config


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_module(*args, env=os.environ):
    """``python -m ekinv.cli`` with ``args`` in a fresh interpreter, in the
    environment ``env``."""
    src = str(Path(ekinv.__file__).parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("OPENBLAS_VERBOSE", None)   # it would print the BLAS core to stdout
    return subprocess.run([sys.executable, "-m", "ekinv.cli", *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_the_module_entry_point_exits_with_the_cli_codes(tmp_path):
    config = tiny_darcy(tmp_path, "valid")
    done = run_module("validate", str(tmp_path / "valid.ini"))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(echo(config) + "\n# memory estimate: ")
    (tmp_path / "bad.ini").write_text("[experiment]\nmodel_problem = darcy\n"
                                      "model_problem = source1d\n", encoding="utf-8")
    done = run_module("validate", str(tmp_path / "bad.ini"))
    assert done.returncode == 1
    assert done.stderr.startswith("configuration error: config parse error in ")
    done = run_module("run", str(tmp_path / "valid.ini"), "--parallel", "2")
    assert done.returncode == 2
    assert "unrecognized arguments: --parallel 2" in done.stderr
    assert not (tmp_path / "valid").exists()


def test_every_benchmark_workload_loads():
    # the benchmark runs these files; a schema change must keep them loading
    root = Path(__file__).resolve().parents[1]
    workloads = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    paths = sorted((root / "ekibench" / "workloads").glob("*.ini"))
    assert [p.stem for p in paths] == sorted(w["name"] for w in workloads)
    for path in paths:
        assert load_config(path)["experiment"]["n_initializations"] == 1


@pytest.mark.parametrize("coefficient_map, line", [
    ("exp", "774.6 MiB per initialization = initial ensemble 547.5 MiB + formed block 43.8 MiB"),
    ("channel",
     "1,365.9 MiB per initialization = initial ensemble 1,095.0 MiB + formed block 87.6 MiB"),
])
def test_the_paper_scale_estimate_counts_one_ensemble_and_one_formed_block(
        tmp_path, capsys, monkeypatch, coefficient_map, line):
    # n = 600, J = 200: a block of 16 members, the coefficients and no
    # second ensemble; one CPU, so no solve workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "paper.ini"
    path.write_text("[experiment]\nmodel_problem = darcy\nparameterization = noncentered-hier\n"
                    f"coefficient_map = {coefficient_map}\n", encoding="utf-8")
    assert cli(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"# memory estimate: {line} + coefficients 0.3 MiB + observation operator 0.1 MiB"
        " + forward chunk 98.1 MiB + mean fields 84.9 MiB")


def manifest_of(run_dir):
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


def test_run_warns_when_its_processes_may_exceed_the_available_memory(tmp_path, capsys,
                                                                       monkeypatch):
    estimate = sum(harness.memory_estimate(tiny_darcy(tmp_path, "run")).values())
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(f"MemTotal: {10 * estimate // 1024} kB\n"
                       f"MemAvailable: {estimate * 3 // 2 // 1024} kB\n", encoding="ascii")
    monkeypatch.setattr("ekinv.cli.MEMINFO", str(meminfo))
    run = ["run", str(tmp_path / "run.ini"), "--max-iter", "0"]
    assert cli(run + ["--out-dir", str(tmp_path / "fits")]) == 0
    assert capsys.readouterr().err == ""
    meminfo.write_text(f"MemAvailable: {estimate // 2 // 1024} kB\n", encoding="ascii")
    assert cli(run + ["--out-dir", str(tmp_path / "short")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: the memory estimate is ")
    assert err.endswith(" available; the run may run out of memory\n")
    assert err.count("\n") == 1
    assert len(manifest_of(tmp_path / "short")["initializations"]) == 2


def test_run_warns_of_nothing_where_the_available_memory_cannot_be_read(tmp_path, capsys,
                                                                        monkeypatch):
    tiny_darcy(tmp_path, "run")
    monkeypatch.setattr("ekinv.cli.MEMINFO", str(tmp_path / "missing"))
    assert cli(["run", str(tmp_path / "run.ini"), "--max-iter", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_a_cli_run_writes_the_files_of_a_run_with_one_blas_thread(tmp_path):
    # two chunks of 16,641 nodes, above the length from which OpenBLAS
    # splits a dot product over its threads: a run left at the default
    # threads would give the relative error other last bits than a run with
    # one, on a machine with more than one CPU
    path = tmp_path / "split.ini"
    path.write_text(TINY_DARCY.format(out=tmp_path / "unused").replace(
        "n_ensemble = 6", "n_ensemble = 8").replace("n_cells = 16", "n_cells = 128"),
        encoding="utf-8")
    default = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    files = []
    for name, env in (("default", default), ("one", dict(default, OPENBLAS_NUM_THREADS="1"))):
        done = run_module("run", str(path), "--out-dir", str(tmp_path / name), env=env)
        assert done.returncode == 0, done.stderr
        files.append(json.loads((tmp_path / name / "manifest.json").read_text("utf-8"))["files"])
    assert len(files[0]) > 2
    assert files[0] == files[1]


def test_cli_runs_and_validates_a_manifest_and_applies_the_seed(tmp_path, capsys):
    tiny_darcy(tmp_path, "first")
    assert cli(["run", str(tmp_path / "first.ini"), "--seed", "7", "--max-iter", "1"]) == 0
    manifest_path = tmp_path / "first" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["config"]["experiment"]["master_seed"] == 7
    assert manifest["config"]["eki"]["max_outer_iterations"] == 1
    capsys.readouterr()

    assert cli(["validate", str(manifest_path)]) == 0
    (tmp_path / "echo.ini").write_text(capsys.readouterr().out, encoding="utf-8")
    assert load_config(tmp_path / "echo.ini") == config_from_manifest(manifest_path)

    assert cli(["run", str(manifest_path), "--out-dir", str(tmp_path / "again")]) == 0
    again = json.loads((tmp_path / "again" / "manifest.json").read_text(encoding="utf-8"))
    assert again["files"] == manifest["files"]
    assert again["config"]["experiment"]["out_dir"] == str(tmp_path / "again")


def test_report_of_a_missing_run_directory_fails(tmp_path, capsys):
    assert cli(["report", str(tmp_path / "missing")]) == 1
    assert capsys.readouterr().err.startswith("missing file: ")


def test_manifest_from_another_schema_fails_loudly(tmp_path):
    config = tiny_darcy(tmp_path, "folded")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    assert config_from_manifest(manifest) == config

    config["experiment"]["parameterization"] = "level-set"
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    with pytest.raises(ConfigError, match="parameterization"):
        config_from_manifest(manifest)
    assert cli(["run", str(manifest), "--out-dir", str(tmp_path / "never")]) == 1
    assert not (tmp_path / "never").exists()

    config["experiment"]["parameterization"] = "plain"
    del config["grid"]["n_cells"]
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[grid\] n_cells"):
        config_from_manifest(manifest)

    # a manifest that still stores a key this schema has dropped
    config["grid"]["n_cells"] = 16
    for section, key, value in [("experiment", "snapshots", "auto"), ("eki", "max_doublings", 60)]:
        stored = {sec: dict(keys) for sec, keys in config.items()}
        stored[section][key] = value
        manifest.write_text(json.dumps({"config": stored}), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[{section}\]"):
            config_from_manifest(manifest)


def test_field_cauchy_prior_samples_have_cauchy_increments(tmp_path):
    delta = CAUCHY_DELTA
    path = tmp_path / "prior.ini"
    path.write_text("""
[experiment]
model_problem = source1d

[grid]
n_cells = 100

[sample_prior]
mode = field-cauchy
n_samples = 120
""", encoding="utf-8")
    harness.sample_prior_fields(load_config(path), tmp_path / "out")
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


@pytest.mark.parametrize("text,message", [
    ("model_problem = source1d\ncoefficient_map = exp", "source1d supports coefficient_map"),
    ("model_problem = source1d\ncoefficient_map = level-set",
     "source1d supports coefficient_map"),
    ("model_problem = source1d\ncoefficient_map = channel", "source1d supports coefficient_map"),
    ("model_problem = darcy\ncoefficient_map = identity", "darcy needs a positive"),
    ("model_problem = darcy\nparameterization = noncentered-field-gauss",
     "field-valued hyperparameter variants run on source1d only"),
    ("model_problem = darcy\n[observations]\nn_obs = 10", "n_obs must be a perfect square"),
    ("model_problem = darcy\n[eki]\nrho = 1.0", r"eki.rho must lie in \(0, 1\)"),
    ("model_problem = darcy\n[eki]\nrho = 0.0", r"eki.rho must lie in \(0, 1\)"),
    ("model_problem = darcy\n[eki]\nrho = 0.5\nzeta = 2.0", "eki.zeta must exceed 1/rho = 2"),
    ("model_problem = darcy\n[eki]\nzeta = nan",
     r"\[eki\] zeta: expected a finite number, got 'nan'$"),
    # every configured number is finite
    ("model_problem = darcy\n[eki]\nzeta = inf",
     r"\[eki\] zeta: expected a finite number, got 'inf'$"),
    ("model_problem = darcy\n[eki]\nupsilon0 = inf",
     r"\[eki\] upsilon0: expected a finite number, got 'inf'$"),
    ("model_problem = darcy\n[prior]\ntau_bounds = 5 inf",
     r"\[prior\] tau_bounds: expected a finite number, got 'inf'$"),
    ("model_problem = darcy\n[observations]\ngamma_scale = inf",
     r"\[observations\] gamma_scale: expected a finite number, got 'inf'$"),
    ("model_problem = darcy\n[prior]\nsigma2 = inf",
     r"\[prior\] sigma2: expected a finite number, got 'inf'$"),
    ("model_problem = darcy\n[prior]\nmean = nan",
     r"\[prior\] mean: expected a finite number, got 'nan'$"),
    ("model_problem = darcy\nn_ensemble = 1", "n_ensemble must be at least 2"),
    ("model_problem = darcy\nn_initializations = 0", "n_initializations must be at least 1"),
    ("model_problem = darcy\n[bogus]\nkey = 1", r"unknown section \[bogus\]"),
    ("model_problem = darcy\n[eki]\nfrobnicate = 1", r"unknown key 'frobnicate' in \[eki\]"),
    # the fixed model setup is not configurable: a key it had is rejected,
    # even at the value that is now its constant
    ("model_problem = darcy\ncoefficient_map = channel\n[channel]\nalpha1_bounds = 1.3 3.0",
     r"unknown section \[channel\]"),
    ("model_problem = source1d\n[field_hyper]\ncauchy_delta = 0.5",
     r"unknown section \[field_hyper\]"),
    ("model_problem = darcy\ncoefficient_map = level-set\n[level_set]\nkappa_minus = 1.0",
     r"unknown section \[level_set\]"),
    ("model_problem = darcy\n[truth]\nkind = matern-exp", r"unknown key 'kind' in \[truth\]"),
    ("model_problem = darcy\ncoefficient_map = channel\n[truth]\n"
     "channel_truth_hypers = 2 2.8 30 10", r"unknown key 'channel_truth_hypers' in \[truth\]"),
    ("model_problem = darcy\n[grid]\ncoordinate_scaling = normalized",
     r"unknown key 'coordinate_scaling' in \[grid\]"),
    ("model_problem = darcy\n[observations]\nmollifier_sigma_frac = 0.06",
     r"unknown key 'mollifier_sigma_frac' in \[observations\]"),
    ("model_problem = darcy\n[sample_prior]\nmode = matern-tau-sweep\nalpha_fixed = 1.6",
     r"unknown key 'alpha_fixed' in \[sample_prior\]"),
    ("model_problem = darcy\n[sample_prior]\nmode = matern-alpha-sweep\ntau_fixed = 15",
     r"unknown key 'tau_fixed' in \[sample_prior\]"),
    # the run options that only tests set are gone too
    ("model_problem = darcy\n[eki]\nperturb_observations = false",
     r"unknown key 'perturb_observations' in \[eki\]"),
    ("model_problem = darcy\n[eki]\nnoise_level_convention = realized",
     r"unknown key 'noise_level_convention' in \[eki\]"),
    ("model_problem = darcy\n[observations]\nnoise_free = false",
     r"unknown key 'noise_free' in \[observations\]"),
    # and so are the knobs that only tests turned, even at their old defaults
    ("model_problem = darcy\nsnapshots = auto", r"unknown key 'snapshots' in \[experiment\]"),
    ("model_problem = darcy\n[eki]\nmax_doublings = 60",
     r"unknown key 'max_doublings' in \[eki\]"),
    ("model_problem = darcy\n[prior]\nplain_prior = field-cauchy",
     "prior.plain_prior = field-cauchy is a one-dimensional prior"),
    ("model_problem = darcy\n[eki]\nupsilon0 = 0", "eki.upsilon0 must be positive, got 0.0"),
    ("model_problem = darcy\n[eki]\nmax_outer_iterations = -1",
     "eki.max_outer_iterations must not be negative, got -1"),
    ("model_problem = darcy\n[prior]\nsigma2 = -1", "sigma2 must be positive, got -1.0"),
    ("model_problem = darcy\n[truth]\nalpha_true = 0.5", "alpha must exceed d/2 = 1.0, got 0.5"),
    # each (alpha, tau) box at its lower corner
    ("model_problem = darcy\nparameterization = centered-hier\n[prior]\nalpha_bounds = 0.5 1.05",
     r"\[prior\] alpha must exceed d/2 = 1.0, got 0.5$"),
    ("model_problem = source1d\n[prior]\nalpha_bounds = 0.2 1.0",
     r"\[prior\] alpha must exceed d/2 = 0.5, got 0.2$"),
    ("model_problem = darcy\nparameterization = noncentered-hier\n[prior]\ntau_bounds = -5 3",
     r"\[prior\] tau must be positive, got -5.0$"),
    ("parameterization = plain", r"experiment.model_problem is required$"),
    ("model_problem = darcy\n[prior]\nalpha_bounds = 3 2",
     r"\[prior\] alpha_bounds: bounds need two increasing numbers, got '3 2'$"),
    ("model_problem = darcy\n[prior]\ntau_bounds = 5",
     r"\[prior\] tau_bounds: bounds need two increasing numbers, got '5'$"),
    ("model_problem = darcy\n[grid]\nn_cells = 1",
     r"\[grid\] n_cells must be integers >= 2 per axis, got \(1, 1\)"),
    ("model_problem = source1d\n[observations]\nn_obs = 0",
     r"\[observations\] need at least one observation"),
    ("model_problem = darcy\n[observations]\nn_obs = 0",
     r"\[observations\] need at least one observation"),
    ("model_problem = darcy\n[observations]\nn_obs = -4",
     r"\[observations\] need at least one observation"),
    # the mollifiers on the configured grid, not only on the checking grid
    ("model_problem = darcy\n[grid]\nn_cells = 2",
     r"\[observations\] no interior node of the 2 x 2 grid lies within 6 sigma = 2.16 "
     r"of the observation center \(0.375, 0.375\)$"),
    ("model_problem = source1d\n[observations]\ngamma_scale = -1",
     r"\[observations\] gamma_scale must be positive, got -1.0"),
    ("model_problem = darcy\n[observations]\ngamma_scale = 0",
     r"\[observations\] gamma_scale must be positive, got 0.0"),
    ("model_problem = darcy\nmaster_seed = -3",
     r"\[experiment\] master_seed: must be non-negative, got -3$"),
    # [sample_prior]: the sweep on its own grid, and the number of samples
    ("model_problem = darcy\n[sample_prior]\nn_cells = 1",
     r"\[sample_prior\] n_cells must be integers >= 2 per axis, got \(1, 1\)"),
    ("model_problem = source1d\n[sample_prior]\ntaus = 10 -5",
     r"\[sample_prior\] tau must be positive, got -5.0$"),
    ("model_problem = darcy\n[sample_prior]\nmode = matern-alpha-sweep\nalphas = 0.8",
     r"\[sample_prior\] alpha must exceed d/2 = 1.0, got 0.8$"),
    ("model_problem = source1d\n[sample_prior]\nmode = field-gauss\nn_samples = 0",
     r"\[sample_prior\] n_samples must be at least 1, got 0$"),
])
def test_invalid_configurations_raise_config_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\n" + text + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    # the CLI stops before it writes anything
    assert cli(["validate", str(path)]) == 1
    assert cli(["run", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run").exists()
    assert cli(["sample-prior", str(path), "--out-dir", str(tmp_path / "samples")]) == 1
    assert not (tmp_path / "samples").exists()
    assert capsys.readouterr().err.count("configuration error: ") == 3


def test_a_truth_that_vanishes_on_the_grid_stops_the_run_before_it_writes(tmp_path, capsys):
    # the one interior node of a 2-cell source1d grid sits at x = 5, where the
    # step-profile truth is zero, so no relative error can be formed
    path = tmp_path / "coarse.ini"
    path.write_text("[experiment]\nmodel_problem = source1d\nn_ensemble = 4\n"
                    "[grid]\nn_cells = 2\n", encoding="utf-8")
    assert cli(["run", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run").exists()
    assert capsys.readouterr().err == (
        "error: the truth field is zero at every interior node of the 2-cell grid, so its "
        "relative error is undefined; refine [grid] n_cells\n")


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5)])
def test_field_files_round_trip(tmp_path, dim, n):
    domain = build_domain(dim, 2.0, n)
    values = np.random.default_rng(1).standard_normal(domain.n_interior)
    path = tmp_path / "field.bin"
    harness.write_field_file(path, domain, values)
    back = harness.read_field_file(path)
    assert back.shape == domain.interior_shape
    assert back.ravel().tobytes() == values.tobytes()


def test_malformed_field_files_raise_value_errors(tmp_path):
    good = tmp_path / "good.bin"
    harness.write_field_file(good, build_domain(2, 2.0, 5), np.zeros(16))
    data = good.read_bytes()
    header = lambda dim, n1, n2: np.array([dim, n1, n2], dtype="<i8").tobytes()
    for name, content, message in [
        ("empty", b"", "shorter than its 24-byte header"),
        ("short_header", data[:20], "shorter than its 24-byte header"),
        ("truncated_body", data[:-3], "holds 125 bytes of values, expected 128"),
        ("long_body", data + bytes(8), "holds 136 bytes of values, expected 128"),
        ("dim_3", header(3, 4, 4) + data[24:], "invalid header: dim 3"),
        ("zero_size", header(2, 0, 4), "invalid header: dim 2, shape 0 x 4"),
        ("negative_size", header(2, 4, -4), "invalid header"),
        ("dim_1_two_columns", header(1, 8, 2) + data[24:], "invalid header"),
    ]:
        path = tmp_path / f"{name}.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"field file {re.escape(str(path))} .*{message}"):
            harness.read_field_file(path)


# Every valid model x parameterization x coefficient_map, plus each plain
# prior, on tiny grids: (model_problem, parameterization, coefficient_map,
# plain_prior or None for auto).
MATRIX = [
    ("source1d", "plain", "identity", "scalar"),
    ("source1d", "plain", "identity", "field-gauss"),
    ("source1d", "plain", "identity", "field-cauchy"),
    ("source1d", "centered-hier", "identity", None),
    ("source1d", "noncentered-hier", "identity", None),
    ("source1d", "noncentered-field-gauss", "identity", None),
    ("source1d", "noncentered-field-cauchy", "identity", None),
    ("darcy", "plain", "exp", None),
    ("darcy", "plain", "exp", "field-gauss"),
    ("darcy", "centered-hier", "exp", None),
    ("darcy", "noncentered-hier", "exp", None),
    ("darcy", "plain", "level-set", None),
    ("darcy", "centered-hier", "level-set", None),
    ("darcy", "noncentered-hier", "level-set", None),
    ("darcy", "plain", "channel", None),
    ("darcy", "centered-hier", "channel", None),
    ("darcy", "noncentered-hier", "channel", None),
]
MATRIX_GRID = {"source1d": (40, 10), "darcy": (16, 16)}   # n_cells, n_obs


def case_name(case):
    return "-".join(part for part in case if part)


def matrix_config(tmp_path, model, parameterization, coefficient_map, plain_prior):
    n_cells, n_obs = MATRIX_GRID[model]
    text = f"""
[experiment]
model_problem = {model}
parameterization = {parameterization}
coefficient_map = {coefficient_map}
n_ensemble = 6
n_initializations = 2
out_dir = {tmp_path / "run"}

[eki]
max_outer_iterations = 2

[grid]
n_cells = {n_cells}

[observations]
n_obs = {n_obs}
"""
    if plain_prior:
        text += f"\n[prior]\nplain_prior = {plain_prior}\n"
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


@pytest.mark.parametrize("case", MATRIX, ids=case_name)
def test_every_configuration_writes_its_golden_files_also_when_rerun(tmp_path, case):
    golden = GOLDEN_FILES[case_name(case)]
    manifest = harness.run_experiment(matrix_config(tmp_path, *case))
    assert [init["stop_reason"] for init in manifest["initializations"]] == \
        ["max-iterations"] * 2
    assert manifest["files"] == golden
    rerun = config_from_manifest(tmp_path / "run" / "manifest.json")
    rerun["experiment"]["out_dir"] = str(tmp_path / "rerun")
    assert harness.run_experiment(rerun)["files"] == golden


def test_report_writes_the_manifest_values_exactly(tmp_path, capsys):
    manifest = harness.run_experiment(matrix_config(tmp_path, *MATRIX[0]))
    assert cli(["report", str(tmp_path / "run")]) == 0
    lines = (tmp_path / "run" / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,stop_reason,iterations,final_misfit,final_rel_error,median_iter_ms"
    assert len(lines) == 3
    for line, init in zip(lines[1:], manifest["initializations"]):
        index, stop_reason, iterations, misfit, error, ms = line.split(",")
        assert (int(index), stop_reason, int(iterations)) == \
            (init["index"], init["stop_reason"], init["n_records"] - 1)
        assert float(misfit) == init["final_misfit"]
        assert float(error) == init["final_rel_error"]
        assert float(ms) == np.median(init["wall_ms"])
    assert "max-iterations" in capsys.readouterr().out


def test_a_run_at_its_cap_says_how_far_its_misfit_is_from_the_threshold(tmp_path, capsys):
    # the message lives in the manifest, outside the inventory that the
    # golden rows pin; a golden row stops at its cap of 2 iterations
    config = matrix_config(tmp_path, *MATRIX[0])
    manifest = harness.run_experiment(config)
    threshold = config["eki"]["zeta"] * manifest["noise_level"]
    pattern = re.compile(
        r"stopped at the cap of 2 iterations with the misfit (\S+) times the threshold "
        r"zeta eta = (\S+); the first misfit, (\S+), needs at least (\d+) iterations at the "
        r"rate rho = 0\.8")
    for init in manifest["initializations"]:
        misfits = [float(m) for m in csv_columns(
            tmp_path / "run" / f"init_{init['index']:02d}" / "records.csv")["misfit"]]
        ratio, stated, first, needed = pattern.fullmatch(init["message"]).groups()
        assert float(ratio) == pytest.approx(misfits[-1] / threshold, rel=1e-3)
        assert float(stated) == pytest.approx(threshold, rel=1e-3)
        assert float(first) == pytest.approx(misfits[0], rel=1e-3)
        assert int(needed) == int(np.ceil(np.log(misfits[0] / threshold) / np.log(1 / 0.8)))
        assert int(needed) > 2
    assert cli(["report", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    table, stats = out[:out.index("{")].splitlines(), json.loads(out[out.index("{"):])
    assert table[-2:] == [f"init {init['index']}: {init['message']}"
                          for init in manifest["initializations"]]
    assert stats["n_discrepancy"] == 0


# the golden rows stop at 3 records; 31 is a run at the default cap of 30
@pytest.mark.parametrize("n_records,kept", [
    (0, []), (1, [0]), (5, [0, 1, 2, 3, 4]), (6, [0, 1, 2, 4, 5]), (7, [0, 2, 3, 4, 6]),
    (31, [0, 8, 15, 22, 30])])
def test_snapshots_keep_at_most_five_iterations_with_the_first_and_last(n_records, kept):
    assert snapshot_iterations(n_records) == kept


def csv_columns(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def test_a_rerun_manifest_differs_only_in_the_wall_times(tmp_path):
    # the records hold the hyperparameter means and the Upsilon trials; the
    # wall time of each iteration lives in the manifest, outside the inventory
    case = ("source1d", "centered-hier", "identity", None)
    config = matrix_config(tmp_path, *case)
    manifests = []
    for _ in range(2):
        harness.run_experiment(config)
        manifests.append(json.loads((tmp_path / "run" / "manifest.json").read_text("utf-8")))
        for init in manifests[-1]["initializations"]:
            wall_ms = init.pop("wall_ms")
            assert len(wall_ms) == init["n_records"] == 3
            assert all(isinstance(ms, float) and ms > 0 for ms in wall_ms)
    assert manifests[0] == manifests[1]
    upsilon0 = config["eki"]["upsilon0"]
    for index in range(2):
        records = csv_columns(tmp_path / "run" / f"init_{index:02d}" / "records.csv")
        assert list(records) == ["iter", "misfit", "rel_error", "upsilon", "upsilon_trials",
                                 "alpha", "tau"]
        assert records["upsilon_trials"][-1] == records["upsilon"][-1] == ""
        assert [float(u) for u in records["upsilon"][:-1]] == \
            [upsilon0 * 2.0 ** (int(n) - 1) for n in records["upsilon_trials"][:-1]]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("case", MATRIX, ids=case_name)
def test_batched_decode_equals_one_column_decodes(tmp_path, case):
    config = matrix_config(tmp_path, *case)
    config["experiment"]["n_ensemble"] = J = 7
    setup, _, obs, seqs = harness._prepare(config)
    param = harness.build_parameterization(config, setup, obs)
    fwd = param.forward
    members = param.sample_initial(np.random.default_rng(seqs[0]))
    alone = [fwd.decode_block(members[:, j:j + 1]) for j in range(J)]
    mean = np.stack([param.decode_report(members[:, j]) for j in range(J)]).mean(axis=0)
    outputs = []
    for chunk in (1, 3, J):   # 3: the last chunk is short
        fwd.chunk = chunk
        chunks = list(fwd.decoded_chunks(members))
        assert [len(cols) for cols, _ in chunks] == {1: [1] * J, 3: [3, 3, 1], J: [J]}[chunk]
        for cols, block in chunks:
            for row, j in enumerate(cols):
                assert same_bits(block.coefficients[row], alone[j].coefficients[0])
                assert same_bits(block.report[row], alone[j].report[0])
                assert same_bits(fwd.decode(members[:, j]).values, alone[j].coefficients[0])
        outputs.append(fwd(members))
        assert same_bits(fwd.report_mean, mean)
        assert same_bits(param.mean_report_field(members), mean)
    assert same_bits(outputs[1], outputs[0]) and same_bits(outputs[2], outputs[0])


@pytest.mark.parametrize("case", MATRIX, ids=case_name)
def test_a_forward_evaluation_builds_no_field(tmp_path, monkeypatch, case):
    # the decoded array goes to the solver, and its rows to the observation
    config = matrix_config(tmp_path, *case)
    setup, _, obs, seqs = harness._prepare(config)
    param = harness.build_parameterization(config, setup, obs)
    members = param.sample_initial(np.random.default_rng(seqs[0]))
    built = []
    post_init = Field.__post_init__

    def counted(field):
        built.append(field)
        post_init(field)

    monkeypatch.setattr(Field, "__post_init__", counted)
    assert param.forward(members).shape == (obs.n_obs, members.shape[1])
    assert built == []


# Manifest inventories (file -> SHA-256) of every matrix case, taken before
# the parameterizations were built from one table.  The ten darcy rows were
# re-pinned when the multigrid V-cycle moved to float32: the pressures, and
# with them the synthetic data, moved by up to 5e-12 relative.  They were
# re-pinned again when the mollifiers were cut per axis and held as two 1D
# factors: the synthetic data moved by up to 1.2e-8 relative (9.3e-6, under
# 1e-3 noise standard deviations), the final misfits by up to 3.6e-9.  Every
# row was re-pinned when the ensemble came to be held as U_0 A: the same
# Upsilon, records and stops, the CSV values within 1.8e-14 relative and the
# .bin values within 2.7e-14 of their largest entry.  Every records.csv was
# re-pinned, and the separate table of hyperparameter means dropped, when
# records.csv became the one per-iteration table: it took that table's columns
# and an upsilon_trials column, and lost its fixed (alpha, tau) mean columns
# and its wall times, which the manifest holds.  Every cell it kept, and every
# other file, is byte for byte as before.  The ten darcy rows were re-pinned
# when each member's MG-PCG came to stop once its observations had settled:
# the forward outputs moved by at most 3.6e-5 noise standard deviations and the
# synthetic data by at most 6.6e-6, with the same Upsilon, trials and stops.
GOLDEN_FILES = {
    "source1d-plain-identity-scalar": {
        "init_00/mean_field.bin": "ffc54406f3322c74c808a815ecab6d1f466e20a38412dd9a669c30505b21a459",
        "init_00/records.csv": "1b91c4dfd58f9782743de906223acb20815828b0c76287b7670c6d1cb46ded9e",
        "init_00/snapshot_iter_000.bin": "b92e3d36e495708165742e744971c904789e7b33420bc0e97347d9a445f3f987",
        "init_00/snapshot_iter_001.bin": "2298eb3fc044ffc5166f23e53f5520fd8aa1d23a714048bb7d63185214b413ad",
        "init_00/snapshot_iter_002.bin": "ffc54406f3322c74c808a815ecab6d1f466e20a38412dd9a669c30505b21a459",
        "init_01/mean_field.bin": "382c4990365019b003745ea1d4d3980d689d64516443a872f2b073e2e5800da0",
        "init_01/records.csv": "54928dba8f4acd06fe2e20c5302fad854d0c4e7391a5c55bcd08f37e42d94aee",
        "init_01/snapshot_iter_000.bin": "667f7f0c3fe4bb07044e5df0782d648f31dadb1a2f6413cface8a29afaba1bea",
        "init_01/snapshot_iter_001.bin": "b4028a8837f0813ffce63571e55a69edf885db81ad8b21e3b01905ca0a3e29f7",
        "init_01/snapshot_iter_002.bin": "382c4990365019b003745ea1d4d3980d689d64516443a872f2b073e2e5800da0",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-plain-identity-field-gauss": {
        "init_00/mean_field.bin": "a5941cea8e6c3edd643b3f6320a0cc9da076316ac5e991bbffe43fe6421544f7",
        "init_00/records.csv": "0eccde9fe9fb9be64fafc520cd789167b507af8d6b44df53ccc5151b69fc2b78",
        "init_00/snapshot_iter_000.bin": "01b551505e04d2916b0b693a23bf7077eb513dcfb80c524813075adb8adb7bb4",
        "init_00/snapshot_iter_001.bin": "875f47ed69787d1c4dc637c3d317cb7a8b42e4b891ba86ca555d630e597919ea",
        "init_00/snapshot_iter_002.bin": "a5941cea8e6c3edd643b3f6320a0cc9da076316ac5e991bbffe43fe6421544f7",
        "init_01/mean_field.bin": "6550e494bb0a4cde4adb27fa48d98b87895b9ee29408beea3344d6c59c48eef3",
        "init_01/records.csv": "05495ea4031467756efa7e935b97c0667d0abfdc0fd4a9b6ab0fdba012d9639b",
        "init_01/snapshot_iter_000.bin": "ab570158c1000e6d2657102e22cd5e3b61ae445932850b33985c101fa621b5e1",
        "init_01/snapshot_iter_001.bin": "368d4821351905e3190d90a951a6ae2481f5ee784915cfcfbf7a14b1572f5c86",
        "init_01/snapshot_iter_002.bin": "6550e494bb0a4cde4adb27fa48d98b87895b9ee29408beea3344d6c59c48eef3",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-plain-identity-field-cauchy": {
        "init_00/mean_field.bin": "bed820b8ea27ca2c0cd381fb0451468934b2a515fa68601ab771f1617362a5d9",
        "init_00/records.csv": "2e3b2da280afba8b208f17e6d091077521636a0a0430bfea85de062d2e8a4634",
        "init_00/snapshot_iter_000.bin": "89f7fd2e8aedf33fce903c1947f7220bc1f67770ade9a4aaf0c6ddc72c855531",
        "init_00/snapshot_iter_001.bin": "7c832c14836f4d3de275c2c7776b21bf1f2f9419a27310e8e7eb76ec3ff5e6d0",
        "init_00/snapshot_iter_002.bin": "bed820b8ea27ca2c0cd381fb0451468934b2a515fa68601ab771f1617362a5d9",
        "init_01/mean_field.bin": "3dd909090f822d7b64830aa6d1a2964c9ec39937e97d6c2c2ca3844ba92b034f",
        "init_01/records.csv": "6736363ae316f9f114ca3b8dbbffed420d17c3abbdbe645102c07a1486e9c0da",
        "init_01/snapshot_iter_000.bin": "ac18124a2c06e857bad314db5c73b50943d7af3b31dedd3b8ad9ebc0c4b2d342",
        "init_01/snapshot_iter_001.bin": "28c6258d43adf8f244c7385e100a3ccac0024eacd3e8a0d001216bbbd53cb19f",
        "init_01/snapshot_iter_002.bin": "3dd909090f822d7b64830aa6d1a2964c9ec39937e97d6c2c2ca3844ba92b034f",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-centered-hier-identity": {
        "init_00/mean_field.bin": "08da3f5aa1bd9690cc722a17fd9398a8d51ff70e0f2d576cb64217a6223928e9",
        "init_00/records.csv": "4fa91f17bf54feda08c56d38cfa40c40edb1cae5b983423ff834106dd205d97c",
        "init_00/snapshot_iter_000.bin": "f11860aac6e4c3097afbd835c5e475a8854154d756964f30a3f9235052a11d9a",
        "init_00/snapshot_iter_001.bin": "d13436b58f1148a0f88197084e3476a0e9fb4b8b9ecfb890f0339cc96ee03c31",
        "init_00/snapshot_iter_002.bin": "08da3f5aa1bd9690cc722a17fd9398a8d51ff70e0f2d576cb64217a6223928e9",
        "init_01/mean_field.bin": "affdee9d289098f913b61904a7492e7604d04be8186a1690219c35e68ef5fc61",
        "init_01/records.csv": "4b14a32ceafd44aa94d0c61c979211fcfd5dbe7f5f8f804388b033006b5c3acc",
        "init_01/snapshot_iter_000.bin": "d483cc8483be8a17ebc06e32c22526c8548e070e2c3c8b48e3fdb4f5e21932a3",
        "init_01/snapshot_iter_001.bin": "92950dbb0acb9a063f764e9599527c7294c628e9dbd744143a40a457386ffa9a",
        "init_01/snapshot_iter_002.bin": "affdee9d289098f913b61904a7492e7604d04be8186a1690219c35e68ef5fc61",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-hier-identity": {
        "init_00/mean_field.bin": "ec175d6a9b3cb49865016b01f6372ba34be772214c1312391155261bfa4e639c",
        "init_00/records.csv": "41a496708c1b1b3e5e3b1182f5c0250b38eb6020cb494faf9bac23fe896e4e68",
        "init_00/snapshot_iter_000.bin": "880aa3c2b8de613426d8dcb0e730cf632a1c856182798adf47d15c51392d2cbc",
        "init_00/snapshot_iter_001.bin": "e7f8559e0b3c81122697dacc0686c1e56f07e9c61e1facbb99bb3f7da7e8e5fb",
        "init_00/snapshot_iter_002.bin": "ec175d6a9b3cb49865016b01f6372ba34be772214c1312391155261bfa4e639c",
        "init_01/mean_field.bin": "5ce181b91773b9cf8eb5dc28c1b10e46aa4f0e6d0f6fed72c38cf46124fca331",
        "init_01/records.csv": "6524866f29142e09949326640863929073a64346cdf59bff104c3026cbaeda66",
        "init_01/snapshot_iter_000.bin": "44afc73e02d8714ca52a006498674edef40e297b84c5b9eb7a5d8f99e1e7efd5",
        "init_01/snapshot_iter_001.bin": "5732e66aa2508848c5d1c874d29a57e3c2b09d82fa733f57670ff640920406ae",
        "init_01/snapshot_iter_002.bin": "5ce181b91773b9cf8eb5dc28c1b10e46aa4f0e6d0f6fed72c38cf46124fca331",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-field-gauss-identity": {
        "init_00/mean_field.bin": "b084d2c72642ee3150dfeccfcefc3368c6bf8d14906c1861c72e47824ba3c9a6",
        "init_00/records.csv": "4334753e9a13cb2341cf4d82127346cd1905df4b2cb788120ed46f0a18095816",
        "init_00/snapshot_iter_000.bin": "42486f68f563a850f28f26ad06d21efcad31258afb400760170b6f1d55e0500a",
        "init_00/snapshot_iter_001.bin": "fa4e941366e5edf7d110665717d1143c10c19a4516877e7e3571ae9584c47c9c",
        "init_00/snapshot_iter_002.bin": "b084d2c72642ee3150dfeccfcefc3368c6bf8d14906c1861c72e47824ba3c9a6",
        "init_01/mean_field.bin": "67659d984fa9e79229ad98fc25aebd1976df73df9bd59730ad8bef49798b0248",
        "init_01/records.csv": "36bc08fee6e483644d4996a3780438581c7bcd4f99944af5fdc13d88dd3d12e4",
        "init_01/snapshot_iter_000.bin": "be8ceb3ee3a70c60f53429871930d4d70972fe68aeddeb327e7975f7ae75a3bb",
        "init_01/snapshot_iter_001.bin": "afcd63f0218f1267619cf0e2396db0c788e27ab1b5f897fcd232a4f1d4c25ee7",
        "init_01/snapshot_iter_002.bin": "67659d984fa9e79229ad98fc25aebd1976df73df9bd59730ad8bef49798b0248",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-field-cauchy-identity": {
        "init_00/mean_field.bin": "0800972d14f100826ce565ff0e8350cc9d20233889a52b9c4a17cebf1a5eb362",
        "init_00/records.csv": "cee008e5361a40832809eeae2e3f4c47b43f12c04bb1778a32f91b7d0d6af963",
        "init_00/snapshot_iter_000.bin": "2d3706f92db6a7d251a741864e6c78702a2cdd2da263428ee1bc7c3f02e9ef77",
        "init_00/snapshot_iter_001.bin": "2a8332c07b2cdee26725f45ce0a3fc5132808b2e4174b9149ca7ceeeeff55011",
        "init_00/snapshot_iter_002.bin": "0800972d14f100826ce565ff0e8350cc9d20233889a52b9c4a17cebf1a5eb362",
        "init_01/mean_field.bin": "86414c7b6b2135bfc186bc01343d30d659167be08d7616892843eb83106fd5e2",
        "init_01/records.csv": "50717fb6987210398ec65bf18c1cff2968a47e29f9a7af53d52e6eee9c0eba01",
        "init_01/snapshot_iter_000.bin": "60083ec0123f40997c2a87a679be424842405e3d4c85ef7d582e22b48a15d5c0",
        "init_01/snapshot_iter_001.bin": "f47d3320c2f9fd703b02e978b3a8a91abe10f2dfbe9603d0f23eaaf0d870a307",
        "init_01/snapshot_iter_002.bin": "86414c7b6b2135bfc186bc01343d30d659167be08d7616892843eb83106fd5e2",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "darcy-plain-exp": {
        "init_00/mean_field.bin": "0bcc7ed188465e72e73be382b56dc60b317883d7368223c940c2ba41e137313e",
        "init_00/records.csv": "fd5276557a0e62e88542a1b2d74f335a1f04887a4c681244bce1a9b732ce618f",
        "init_00/snapshot_iter_000.bin": "9f1cecfa218e000a927625b6551cc271742b53112f82d59ddfa6ee7305d0beef",
        "init_00/snapshot_iter_001.bin": "4dbb6ef90199a3d8aa5087260b8b612f00a73b35c72c6f226185ed6bbe8e21ef",
        "init_00/snapshot_iter_002.bin": "0bcc7ed188465e72e73be382b56dc60b317883d7368223c940c2ba41e137313e",
        "init_01/mean_field.bin": "a878937641fd8a1e4309a0ed9d16a6f35de50ce6ba8e13f76f62f42a9573ff38",
        "init_01/records.csv": "cc3125b46d4c039c8f2c7038e9166850a7fbbc77105647c14b51a1f1814d6169",
        "init_01/snapshot_iter_000.bin": "c67182c20ade0048beda934731837e520a85013ab1f3de1f9f235777e9c72fc1",
        "init_01/snapshot_iter_001.bin": "4ab19929077ce5b6d48211ae0a7ae05072424e801713c77a788425c121d5641f",
        "init_01/snapshot_iter_002.bin": "a878937641fd8a1e4309a0ed9d16a6f35de50ce6ba8e13f76f62f42a9573ff38",
        "observations.csv": "631f29bf85b99653242312f9f61ed0fa831902b026493eb29871dbe3377ffaa8",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-plain-exp-field-gauss": {
        "init_00/mean_field.bin": "4aa61f1202ca12121acbe5b3914c13f53bac60b7347aa61785613c1f61ff503f",
        "init_00/records.csv": "af03e9b9d37aab541d8225f8436bffc7b5e2d091453b1d0870d8cba266d5b981",
        "init_00/snapshot_iter_000.bin": "7560ebc32d15ab3532876c00a6752f73950bc558b811d0d6e6368d614bc137bd",
        "init_00/snapshot_iter_001.bin": "1109f83a11d9efa88c0955c2cf3119dbdd30648cf6a9fe41678a14665e516992",
        "init_00/snapshot_iter_002.bin": "4aa61f1202ca12121acbe5b3914c13f53bac60b7347aa61785613c1f61ff503f",
        "init_01/mean_field.bin": "4cd00775254c411f106cab519a467f3f812ddd9fcd6dce912199691772254ede",
        "init_01/records.csv": "bcad86ab3e08dd483ee018df6d27c94f26de721e6d88c9b5a96befa51d41b2e3",
        "init_01/snapshot_iter_000.bin": "8ab6723a8d8dcbad341ad7c50258358e17b06dd4e5bd01923b8fbaf08955df21",
        "init_01/snapshot_iter_001.bin": "a3d5b348222280a4bb4665ed9029706a0acc6ee98db96619dbeba8f3096a61d6",
        "init_01/snapshot_iter_002.bin": "4cd00775254c411f106cab519a467f3f812ddd9fcd6dce912199691772254ede",
        "observations.csv": "631f29bf85b99653242312f9f61ed0fa831902b026493eb29871dbe3377ffaa8",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-centered-hier-exp": {
        "init_00/mean_field.bin": "3fb12f393ac9423853686255f9dd2fc84fa68f192b0b52a799aab3096d0f9a11",
        "init_00/records.csv": "0f7ef39a373ba9d4e3187ac7d36932e7cfb93439d8485181cab4101589f1d534",
        "init_00/snapshot_iter_000.bin": "4ddbc7bf6da5566e575ec71ffc0cf065c1a83f1099bb05609811463148b1e81e",
        "init_00/snapshot_iter_001.bin": "02470ef921776a678b27ff427c56803ad20a3449fdb154e4d0205c33e94b8afb",
        "init_00/snapshot_iter_002.bin": "3fb12f393ac9423853686255f9dd2fc84fa68f192b0b52a799aab3096d0f9a11",
        "init_01/mean_field.bin": "721414ab40e4ce05bcb47dc67a7d50a80578b5fe03381ab619ca3874b71924b6",
        "init_01/records.csv": "9b4716264a6ff7e0bbecb0cee676e5286417d5d1da98573c04ec0ff27490d6f9",
        "init_01/snapshot_iter_000.bin": "cda2820f0789f89f49ac665a6deb454f9b7c7a31888cb524d040b15e383ca100",
        "init_01/snapshot_iter_001.bin": "17d56449734537123aec032203d3bb0f6c74309c63cd43435b017000523a0f78",
        "init_01/snapshot_iter_002.bin": "721414ab40e4ce05bcb47dc67a7d50a80578b5fe03381ab619ca3874b71924b6",
        "observations.csv": "631f29bf85b99653242312f9f61ed0fa831902b026493eb29871dbe3377ffaa8",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-noncentered-hier-exp": {
        "init_00/mean_field.bin": "49b0b2d8cf05c5c3f0880567dbd8d53f249f79d54d3370bc87472d91962647a0",
        "init_00/records.csv": "a2ef315585accf0608ae9bbe38243a860ff3c9087042ead203e07378b32054b5",
        "init_00/snapshot_iter_000.bin": "c2b938e164daed70c57770096a9464c9dab6f1439ccf84ea1918a3b7d5d1a867",
        "init_00/snapshot_iter_001.bin": "3ba3e50bb1296af14dd9d7f512429cc68728bd4f9f81d3bd81ac5f1cce0f9fdb",
        "init_00/snapshot_iter_002.bin": "49b0b2d8cf05c5c3f0880567dbd8d53f249f79d54d3370bc87472d91962647a0",
        "init_01/mean_field.bin": "29d4a798c001bbf1f79c4e7d1826b573f3af9ad8782a739a0546e90178531fd1",
        "init_01/records.csv": "87574e1b36f0c812f6488febc5943fcdd7388100fbfb57bf3de0d0c69da56bbe",
        "init_01/snapshot_iter_000.bin": "229df3099742af594a6d78239d1d3b668951692a1068fc9bc9a7a5ce86458f36",
        "init_01/snapshot_iter_001.bin": "9bfb985321d75dc7e041fc2568f29e9971af9e64c4995ffb0f65ccbac86a71a4",
        "init_01/snapshot_iter_002.bin": "29d4a798c001bbf1f79c4e7d1826b573f3af9ad8782a739a0546e90178531fd1",
        "observations.csv": "631f29bf85b99653242312f9f61ed0fa831902b026493eb29871dbe3377ffaa8",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-plain-level-set": {
        "init_00/mean_field.bin": "38d4af87f6f4e3022473d57c8cc9fb08f3797fd007142bab1d7c0dc4369afae4",
        "init_00/records.csv": "d9bcd41029c2f49e5df7781cac82d894763ec43957e0a61f8f3263cec7f210c4",
        "init_00/snapshot_iter_000.bin": "f474d56b848c34dafbcfd181e41644a7f1fc97fc6c2aee30896e90e271126203",
        "init_00/snapshot_iter_001.bin": "8a79fc02bc4c7a32909330d3aaee67b088329e65c95f733f86631e39b6dc63e7",
        "init_00/snapshot_iter_002.bin": "38d4af87f6f4e3022473d57c8cc9fb08f3797fd007142bab1d7c0dc4369afae4",
        "init_01/mean_field.bin": "e76fdfd68944913d7d37958adf76946681858c994ea3a8cb48bca1f78fb80482",
        "init_01/records.csv": "85d10919479f1afed8fba98c4ca77a7b82328690e508aa4f3e4320a969d83dcc",
        "init_01/snapshot_iter_000.bin": "cff4202bc9c6fb9b4ac733e2343f0bb267a4155eaeedb253636bfdeebb5c81b1",
        "init_01/snapshot_iter_001.bin": "a0c4a7b76d7df63decd4075b295d453db0d3cee49e900c0fc9e3caa13c6ddc8c",
        "init_01/snapshot_iter_002.bin": "e76fdfd68944913d7d37958adf76946681858c994ea3a8cb48bca1f78fb80482",
        "observations.csv": "9a57d54b30d20c9bfff94865c0c42bf630534f5682b0651c13bbd61936424192",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-centered-hier-level-set": {
        "init_00/mean_field.bin": "894d72535bd0e30ea86dffd31c580593f9e0ff1ee7fb537242e8988c819a3f1b",
        "init_00/records.csv": "34785b9d96a12c46742ff80d4b71b54902bb05217bd37e67e57bd032f05d9979",
        "init_00/snapshot_iter_000.bin": "7d04f28e9445c25b4c9191222aa011f13cfd9515ab44d269f521979c801781fe",
        "init_00/snapshot_iter_001.bin": "ae1f717d1f06dff54e75912bb6686084b1fadd3074b105f6ef0a01f86f948d62",
        "init_00/snapshot_iter_002.bin": "894d72535bd0e30ea86dffd31c580593f9e0ff1ee7fb537242e8988c819a3f1b",
        "init_01/mean_field.bin": "3c8cb89cf9b9360278456fcb40254f73d5d640a95d1827adbbffbfbc634a0ed5",
        "init_01/records.csv": "7683d27a16b96674daa442683983feb38c1900a9799f3b059b12eb4655d0a3ab",
        "init_01/snapshot_iter_000.bin": "1c5c673b855e563be4271e10798e0121c1e124d918dc3ea51bfff7743b573996",
        "init_01/snapshot_iter_001.bin": "7aa36c001df667faacaa4425fbc481341a5562f82d23c66947d529754c674ed8",
        "init_01/snapshot_iter_002.bin": "3c8cb89cf9b9360278456fcb40254f73d5d640a95d1827adbbffbfbc634a0ed5",
        "observations.csv": "9a57d54b30d20c9bfff94865c0c42bf630534f5682b0651c13bbd61936424192",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-noncentered-hier-level-set": {
        "init_00/mean_field.bin": "05f93b03ce96ee72a829cdc74d7dbf3c62c2395cb8d3cb40482ca156634152da",
        "init_00/records.csv": "8c5538877d4d8be877aca51a0faeefabcdbecd4a9cd660234aa6bf983ad88d4a",
        "init_00/snapshot_iter_000.bin": "7b04b4c15f74fa34e485e0abda3c0c766cdc7ef6c8cf373539798684eb5f3768",
        "init_00/snapshot_iter_001.bin": "105461c58f4716dcba2990c4651f11bee9a17cd2123b002ea77741e04ba29bad",
        "init_00/snapshot_iter_002.bin": "05f93b03ce96ee72a829cdc74d7dbf3c62c2395cb8d3cb40482ca156634152da",
        "init_01/mean_field.bin": "0b334cf3bcfdde92fd660a7b1b5031328128be3c54a9c25806ab9bdee93484d5",
        "init_01/records.csv": "1b40f856b822caa2c8a3ded87728a79670d973f6b5a5654917c10490a1e38a2e",
        "init_01/snapshot_iter_000.bin": "3523705427d32734945f45e1b09596b35ef5330cf94284c8da8edeb9b4ddf812",
        "init_01/snapshot_iter_001.bin": "7452a4e6b1bac0b78ad125192d739389938ea90dd5b6b19522efcc31f0fd4c46",
        "init_01/snapshot_iter_002.bin": "0b334cf3bcfdde92fd660a7b1b5031328128be3c54a9c25806ab9bdee93484d5",
        "observations.csv": "9a57d54b30d20c9bfff94865c0c42bf630534f5682b0651c13bbd61936424192",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-plain-channel": {
        "init_00/mean_field.bin": "e5bf19bb2f2cfd88823eb7e4d39c3d8e2b14e30e1242269b8c7a0943760aa766",
        "init_00/records.csv": "a7106cb86cef69b6cd4ae3eb21c3be7e0115446e13fafafd7de9636d5872bd47",
        "init_00/snapshot_iter_000.bin": "1ae4f19957b838faf5c8ba3240f969eb4308064dbcaec92c4d12ef107d8942a2",
        "init_00/snapshot_iter_001.bin": "1236dd4aadafdb72175b0e87c8660cd1ce6ce49878a9afd4313a88feef8065ce",
        "init_00/snapshot_iter_002.bin": "e5bf19bb2f2cfd88823eb7e4d39c3d8e2b14e30e1242269b8c7a0943760aa766",
        "init_01/mean_field.bin": "d921486b5766ee03372c3684dcc401eb364d43b873271d00300fdc1839bd7fac",
        "init_01/records.csv": "daa1dac645483b686d6da2489bae8cba171c72a26196a10533cb81e864cc6747",
        "init_01/snapshot_iter_000.bin": "2f022475cd33e3d14d46e0388218a5af3b32272142cb46254f15146b45581b9a",
        "init_01/snapshot_iter_001.bin": "a74f1eb6a899454ed2f51b76a973262809a39f6fcc1072ddfac1fc16b4f1ea1a",
        "init_01/snapshot_iter_002.bin": "d921486b5766ee03372c3684dcc401eb364d43b873271d00300fdc1839bd7fac",
        "observations.csv": "aa08f6a647a8d56a4590b1f5a95314893f316cf3c089d7a997ac4f207a3094df",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
    "darcy-centered-hier-channel": {
        "init_00/mean_field.bin": "e5bf19bb2f2cfd88823eb7e4d39c3d8e2b14e30e1242269b8c7a0943760aa766",
        "init_00/records.csv": "845884bfb9c3045335054bd1fe096b1159dc0aee7f5bff9d87e91114c737988c",
        "init_00/snapshot_iter_000.bin": "1ae4f19957b838faf5c8ba3240f969eb4308064dbcaec92c4d12ef107d8942a2",
        "init_00/snapshot_iter_001.bin": "1236dd4aadafdb72175b0e87c8660cd1ce6ce49878a9afd4313a88feef8065ce",
        "init_00/snapshot_iter_002.bin": "e5bf19bb2f2cfd88823eb7e4d39c3d8e2b14e30e1242269b8c7a0943760aa766",
        "init_01/mean_field.bin": "d921486b5766ee03372c3684dcc401eb364d43b873271d00300fdc1839bd7fac",
        "init_01/records.csv": "3d14dd0be3be143c0ddc481f505a5ee71b7d5ee8b9be38d781724af77f38f039",
        "init_01/snapshot_iter_000.bin": "2f022475cd33e3d14d46e0388218a5af3b32272142cb46254f15146b45581b9a",
        "init_01/snapshot_iter_001.bin": "a74f1eb6a899454ed2f51b76a973262809a39f6fcc1072ddfac1fc16b4f1ea1a",
        "init_01/snapshot_iter_002.bin": "d921486b5766ee03372c3684dcc401eb364d43b873271d00300fdc1839bd7fac",
        "observations.csv": "aa08f6a647a8d56a4590b1f5a95314893f316cf3c089d7a997ac4f207a3094df",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
    "darcy-noncentered-hier-channel": {
        "init_00/mean_field.bin": "5190e175798e87eed024f2d09763f90980ba86effdb181a2afd7306c0edf441f",
        "init_00/records.csv": "e1716c456fecab5c2888a15fdad0eba3d408c4956dc951b77eeb4c60899ae4ea",
        "init_00/snapshot_iter_000.bin": "ba7bc8deb275a7b6454399ba4b0601cd0610221ead048839ab82d96be7072d2a",
        "init_00/snapshot_iter_001.bin": "98e628cd5be37b8654642108fccf4e8d9ef8b05f2ee15d2fdf373ef1c26fa7d3",
        "init_00/snapshot_iter_002.bin": "5190e175798e87eed024f2d09763f90980ba86effdb181a2afd7306c0edf441f",
        "init_01/mean_field.bin": "72a5e80499d2b147a1b91892484b7105d68b0c65fe536ca0f4afde2cc78810b9",
        "init_01/records.csv": "f224ae1d507223130df227be6734d5490b5035c73774a461a9db21e9dd0a7037",
        "init_01/snapshot_iter_000.bin": "7501032850cfc713e832502bffa0a4685554cfba384c52348f60bdcf040b3ca6",
        "init_01/snapshot_iter_001.bin": "f9a7f741b459d6a99f02f5346247b7ac31134d342a350d27f5459cdf7787ccbd",
        "init_01/snapshot_iter_002.bin": "72a5e80499d2b147a1b91892484b7105d68b0c65fe536ca0f4afde2cc78810b9",
        "observations.csv": "aa08f6a647a8d56a4590b1f5a95314893f316cf3c089d7a997ac4f207a3094df",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
}


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["inline", "pooled"])
def test_a_multi_chunk_evaluation_writes_its_golden_files(tmp_path, cpus, n_cpus):
    # n = 64 holds 16 members a chunk, and an evaluation forms its members 16
    # at a time: J = 40 makes chunks and blocks of 16, 16 and 8, the last
    # ragged.  On the channel map the members of a chunk stop at different
    # PCG iterations (16, 15, 11 and 3 members still running in the first
    # chunk's last V-cycles).  Solved in this process and in two workers,
    # against the same pins
    cpus(n_cpus)
    config = tiny_darcy(tmp_path, "run")
    config["experiment"]["n_ensemble"] = 40
    config["experiment"]["n_initializations"] = 1
    config["experiment"]["coefficient_map"] = "channel"
    config["grid"]["n_cells"] = 64
    manifest = harness.run_experiment(config)
    assert manifest["processes"] == {"solve_workers": n_cpus}
    assert [init["stop_reason"] for init in manifest["initializations"]] == ["max-iterations"]
    assert manifest["files"] == MULTI_CHUNK_FILES


MULTI_CHUNK_FILES = {
    "init_00/mean_field.bin": "aebb56b533fcc16f25917b6622f393fa2900f06620fc46cd22cf5ff5115eaf34",
    "init_00/records.csv": "2fe3e851ce113580574008c475a21b21598788dbcadeb81439c6088a9996df20",
    "init_00/snapshot_iter_000.bin": "7b8b42a69363fe1a1d1e276d3b9c385494a7379f487a71ed44183e3bdc14be17",
    "init_00/snapshot_iter_001.bin": "adb95a72674b533b75d38fa3229b80c5da333064ea757662a4237ee7a0dba1bd",
    "init_00/snapshot_iter_002.bin": "aebb56b533fcc16f25917b6622f393fa2900f06620fc46cd22cf5ff5115eaf34",
    "observations.csv": "7b40183de0626893136d3b431a302df042da813bb483bbe116ecb432615c4304",
    "truth_field.bin": "8235ac488c34b01927c0161c5d49d37e5c97a8c6538c2ff252d68fafd97701f4",
}


SAMPLE_PRIOR = """
[experiment]
model_problem = source1d

[grid]
n_cells = 40

[sample_prior]
mode = {mode}
taus = 10, 50
alphas = 1.3, 1.9
n_samples = 2
n_cells = 8
"""


@pytest.mark.parametrize("mode", ["matern-tau-sweep", "matern-alpha-sweep",
                                  "field-gauss", "field-cauchy"])
def test_sample_prior_writes_its_golden_files(tmp_path, capsys, mode):
    path = tmp_path / "prior.ini"
    path.write_text(SAMPLE_PRIOR.format(mode=mode), encoding="utf-8")
    out = tmp_path / "out"
    assert cli(["sample-prior", str(path), "--seed", "5", "--out-dir", str(out)]) == 0
    written = capsys.readouterr().out.split()
    assert sorted(written) == sorted(str(p) for p in out.iterdir())
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == SAMPLE_PRIOR_FILES[mode]


# File -> SHA-256 of what ``ekinv sample-prior`` writes in each mode.
SAMPLE_PRIOR_FILES = {
    "matern-tau-sweep": {
        "matern_alpha1.6_tau10_s0.csv": "0175f9245886ba24c93a690462162874361a0435652fe6504a944037ce349bd2",
        "matern_alpha1.6_tau10_s1.csv": "a8a5ac6108a199120037b2e902bc8c01be035d3e6c1a9d110ef379deed77a62b",
        "matern_alpha1.6_tau50_s0.csv": "71aa2102aaa74d28d6349d3b5d9f2abba1734c465dbf7598ea7602cca0adfa05",
        "matern_alpha1.6_tau50_s1.csv": "2c075aaae0bd1cac16a1dfc3aa96e857b03bbf4eef10ae3ef9f66fba3dc07f00",
    },
    "matern-alpha-sweep": {
        "matern_alpha1.3_tau15_s0.csv": "5f0e0f1ba021701d93ffeacbe28c10c3f3dfb3cac887618f94c4930bad320622",
        "matern_alpha1.3_tau15_s1.csv": "8fb12d9ad4b08de95a30e8793587862bd6148c183712180e56d8641c1caecab7",
        "matern_alpha1.9_tau15_s0.csv": "35f7f73b2a93082ec68434862aed371597853179a7353a5ffcf515e230a58853",
        "matern_alpha1.9_tau15_s1.csv": "c1d4a2ddf9628156972e54f15a5adf5e18850e0cc31e335f8fbff3e2c5d712bb",
    },
    "field-gauss": {
        "field-gauss_ell_s0.csv": "e1b27481745ea3f24420d97282757acc9d98912b15cf80c409e1e8e196a5f81d",
        "field-gauss_ell_s1.csv": "d1e9f6cfcc5f757a970e2b858bc85e865b30c4b21b90d0623e2306143bde9c7c",
        "field-gauss_u_s0.csv": "db87093ebb479162a6efc886bb16ef508e40c32d39ed1d20bbe997b4590153fd",
        "field-gauss_u_s1.csv": "6e2709d1968698f48d43bb82294ffe857ae54ccb810142c5bc66cd036957783a",
        "field-gauss_v_s0.csv": "dea284af8c29cdb0913507ff929f591c6bdd7436f85f5f381a9283e8f64fb424",
        "field-gauss_v_s1.csv": "c6bbc0d41761dc5178349f024977abd31310f76abe286d8f581074f8a8bc3db7",
    },
    "field-cauchy": {
        "field-cauchy_ell_s0.csv": "8b6af4f150593b23a4a117720e95dffa1e019d7c24fac476f95782f81b0541d2",
        "field-cauchy_ell_s1.csv": "820e57723b82ef3264c73bea77bcc313ccda818ce088654c158623e62b53f3f8",
        "field-cauchy_u_s0.csv": "a3e5f6b708a8fcbcb6319e36d6e8d95a58a06f9f6ed849107cb645acb80c53af",
        "field-cauchy_u_s1.csv": "2e3096c12cafdac69d97aa07a9b7dcc08a56b8617b5c7c38ef47f19f5f104919",
        "field-cauchy_v_s0.csv": "903e366e6c3fdd16a25980cc159558d0107a98c6f8be0e4ea42d5161d19143fb",
        "field-cauchy_v_s1.csv": "15d1028b51d65149c5ee94b21a9cbc5580a3228e3bc60649ba752a0c8a04c244",
    },
}
