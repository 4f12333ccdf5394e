import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from ekinv import harness, multigrid
from ekinv.cli import cli
from ekinv.config import ConfigError, ExperimentConfig, config_from_manifest, load_config
from ekinv.grid import build_domain

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
        assert init["n_records"] == 0
        assert init["message"].startswith(
            "forward evaluation failed: member 0, solve: MG-PCG did not converge "
            "within 1 iterations (relative residual ")

    # an initialization that aborts before its first record made no iterations
    assert cli(["report", str(tmp_path / "capped")]) == 0
    summary = (tmp_path / "capped" / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[1:] == ["0,aborted,0,,", "1,aborted,0,,"]


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
    for parallel in ("0", "-2"):
        assert cli(["run", str(tmp_path / "valid.ini"), "--parallel", parallel,
                    "--out-dir", never]) == 2
        assert f"--parallel: must be at least 1, got {parallel}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
    assert cli(["frobnicate"]) == 2


def test_validate_appends_a_memory_estimate_that_bounds_the_run(tmp_path, capsys):
    config = tiny_darcy(tmp_path, "run")
    assert cli(["validate", str(tmp_path / "run.ini")]) == 0
    echo = capsys.readouterr().out
    assert echo.splitlines()[-1].startswith("# memory estimate: ")
    (tmp_path / "echo.ini").write_text(echo, encoding="utf-8")
    assert load_config(tmp_path / "echo.ini").to_dict() == config.to_dict()
    tracemalloc.start()
    try:
        harness.run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(harness.memory_estimate(config).values()) >= peak


def test_run_warns_when_its_processes_may_exceed_the_available_memory(tmp_path, capsys,
                                                                       monkeypatch):
    estimate = sum(harness.memory_estimate(tiny_darcy(tmp_path, "run")).values())
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(f"MemTotal: {10 * estimate // 1024} kB\n"
                       f"MemAvailable: {estimate * 3 // 2 // 1024} kB\n", encoding="ascii")
    monkeypatch.setattr("ekinv.cli.MEMINFO", str(meminfo))
    run = ["run", str(tmp_path / "run.ini"), "--max-iter", "0"]
    assert cli(run + ["--out-dir", str(tmp_path / "one")]) == 0
    assert capsys.readouterr().err == ""
    assert cli(run + ["--parallel", "2", "--out-dir", str(tmp_path / "two")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: --parallel 2 x the memory estimate needs ")
    assert "may run out of memory" in err


def test_manifest_from_another_schema_fails_loudly(tmp_path):
    config = tiny_darcy(tmp_path, "folded").to_dict()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    assert config_from_manifest(manifest).to_dict() == \
        ExperimentConfig(config).to_dict()

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
    ("model_problem = darcy\n[eki]\nzeta = nan", "eki.zeta must exceed 1/rho = 1.25, got nan"),
    ("model_problem = darcy\nn_ensemble = 1", "n_ensemble must be at least 2"),
    ("model_problem = darcy\nn_initializations = 0", "n_initializations must be at least 1"),
    ("model_problem = darcy\n[bogus]\nkey = 1", r"unknown section \[bogus\]"),
    ("model_problem = darcy\n[eki]\nfrobnicate = 1", r"unknown key 'frobnicate' in \[eki\]"),
    ("model_problem = darcy\n[prior]\nplain_prior = field-cauchy",
     "prior.plain_prior = field-cauchy is a one-dimensional prior"),
    ("model_problem = darcy\n[eki]\nupsilon0 = 0", "eki.upsilon0 must be positive, got 0.0"),
    ("model_problem = darcy\n[eki]\nmax_doublings = 0",
     "eki.max_doublings must be at least 1, got 0"),
    ("model_problem = darcy\n[eki]\nmax_outer_iterations = -1",
     "eki.max_outer_iterations must not be negative, got -1"),
    ("model_problem = source1d\n[field_hyper]\nnonstationary_alpha = 3",
     r"\[field_hyper\] alpha/2 must be a positive integer, got alpha=3.0"),
    ("model_problem = source1d\n[field_hyper]\nv_sigma2 = -1",
     r"\[field_hyper\] sigma2 must be positive, got -1.0"),
    ("model_problem = source1d\n[field_hyper]\ng_rational_params = -1 0 1 0",
     r"\[field_hyper\] rational g requires a, c > 0"),
    ("model_problem = source1d\n[field_hyper]\ng_rational_params = 4 0 1",
     "g_rational_params: expected four numbers"),
    ("model_problem = source1d\n[field_hyper]\ncauchy_delta = 20",
     r"\[field_hyper\] delta=20.0 is too large for the domain length 10.0"),
    ("model_problem = source1d\n[field_hyper]\ng_floor_frac = 20",
     r"\[field_hyper\] g needs 0 < floor <= cap, got floor 200.0, cap 100.0"),
    ("model_problem = darcy\n[level_set]\nkappa_minus = 10",
     r"\[level_set\] conductivity levels must be distinct"),
    ("model_problem = darcy\n[level_set]\nkappa_minus = -1",
     r"\[level_set\] conductivity levels must be positive"),
    ("model_problem = darcy\n[prior]\nsigma2 = -1", "sigma2 must be positive, got -1.0"),
    ("model_problem = darcy\n[truth]\nalpha_true = 0.5", "alpha must exceed d/2 = 1.0, got 0.5"),
    ("model_problem = darcy\n[truth]\nchannel_truth_hypers = 2 2.8 30",
     "channel_truth_hypers: expected four numbers"),
    # the channel truth's (alpha1, tau1) and (alpha2, tau2)
    ("model_problem = darcy\ncoefficient_map = channel\n[truth]\nchannel_truth_hypers = 1 2.8 30 10",
     r"\[truth\] alpha must exceed d/2 = 1.0, got 1.0$"),
    ("model_problem = darcy\ncoefficient_map = channel\n[truth]\nchannel_truth_hypers = 2 2.8 30 0",
     r"\[truth\] tau must be positive, got 0.0$"),
    # each (alpha, tau) box at its lower corner
    ("model_problem = darcy\nparameterization = centered-hier\n[prior]\nalpha_bounds = 0.5 1.05",
     r"\[prior\] alpha must exceed d/2 = 1.0, got 0.5$"),
    ("model_problem = source1d\n[prior]\nalpha_bounds = 0.2 1.0",
     r"\[prior\] alpha must exceed d/2 = 0.5, got 0.2$"),
    ("model_problem = darcy\nparameterization = noncentered-hier\n[prior]\ntau_bounds = -5 3",
     r"\[prior\] tau must be positive, got -5.0$"),
    ("model_problem = darcy\ncoefficient_map = channel\n[channel]\nalpha1_bounds = 0.5 1.2",
     r"\[channel\] alpha must exceed d/2 = 1.0, got 0.5$"),
    ("model_problem = darcy\nsnapshots = every",
     r"\[experiment\] snapshots: expected auto, none or iteration numbers, got 'every'"),
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
    ("model_problem = darcy\n[observations]\nmollifier_sigma_frac = 0",
     r"\[observations\] the mollifier sigma must be positive, got 0.0"),
    ("model_problem = darcy\n[observations]\nmollifier_sigma_frac = -0.06",
     r"\[observations\] the mollifier sigma must be positive, got -0.36"),
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
    # a field mode's hyperprior on the grid sample-prior draws on, whatever the model
    ("model_problem = darcy\n[sample_prior]\nmode = field-cauchy\n[field_hyper]\ncauchy_delta = -1",
     r"\[field_hyper\] delta must be positive, got -1.0$"),
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
    assert lines[0] == "index,stop_reason,iterations,final_misfit,final_rel_error"
    assert len(lines) == 3
    for line, init in zip(lines[1:], manifest["initializations"]):
        index, stop_reason, iterations, misfit, error = line.split(",")
        assert (int(index), stop_reason, int(iterations)) == \
            (init["index"], init["stop_reason"], init["n_records"] - 1)
        assert float(misfit) == init["final_misfit"]
        assert float(error) == init["final_rel_error"]
    assert "max-iterations" in capsys.readouterr().out


@pytest.mark.parametrize("schedule,kept", [("none", []), ("0, 2", [0, 2]), ("7 1", [1])])
def test_snapshot_schedules_write_the_listed_iterations(tmp_path, schedule, kept):
    case = MATRIX[0]
    config = matrix_config(tmp_path, *case)
    config["experiment"]["snapshots"] = schedule
    files = harness.run_experiment(config)["files"]
    expected = {name: sha for name, sha in GOLDEN_FILES[case_name(case)].items()
                if "snapshot" not in name or int(name[-7:-4]) in kept}
    assert files == expected
    assert len(files) == 6 + 2 * len(kept)


def csv_columns(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


@pytest.mark.parametrize("section, key, value", [
    ("eki", "noise_level_convention", "expected"),
    ("observations", "noise_free", True),
    ("experiment", "record_walltime", True),
])
def test_run_options_change_what_they_name(tmp_path, section, key, value):
    case = MATRIX[0]
    config = matrix_config(tmp_path, *case)
    config[section][key] = value
    manifest = harness.run_experiment(config)
    golden = GOLDEN_FILES[case_name(case)]
    run = tmp_path / "run"
    if key == "noise_level_convention":
        assert manifest["noise_level"] == np.sqrt(MATRIX_GRID["source1d"][1])
        assert manifest["files"]["observations.csv"] == golden["observations.csv"]
    elif key == "noise_free":
        setup, truth, _, _ = harness._prepare(config)
        clean = setup.obs_template.matrix @ setup.solver.solve(truth.pde_field).values
        assert manifest["noise_level"] == 0.0
        assert np.array(csv_columns(run / "observations.csv")["y"], dtype=float).tobytes() == \
            clean.tobytes()
    else:
        assert {name: sha for name, sha in manifest["files"].items()
                if not name.endswith("records.csv")} == \
            {name: sha for name, sha in golden.items() if not name.endswith("records.csv")}
        for index in range(2):
            records = csv_columns(run / f"init_{index:02d}" / "records.csv")
            assert [bool(ms) for ms in records["wall_ms"]] == \
                [bool(upsilon) for upsilon in records["upsilon"]] == [True, True, False]
            assert all(float(ms) > 0 for ms in records["wall_ms"] if ms)


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


# Manifest inventories (file -> SHA-256) of every matrix case, taken before
# the parameterizations were built from one table.  The two hypers.csv files
# of darcy-plain-channel came later, when plain channel runs began to report
# the ensemble means of their geometry d1-d5.  The ten darcy rows were
# re-pinned when the multigrid V-cycle moved to float32: the pressures, and
# with them the synthetic data, moved by up to 5e-12 relative.
GOLDEN_FILES = {
    "source1d-plain-identity-scalar": {
        "init_00/mean_field.bin": "7f82ee1f7f53eb26a8042c5e8216993f8a11751327e5f9fae7e39690b91d29d6",
        "init_00/records.csv": "f753605bce0753e201be4c7d828f06de9640bf58b97fc7e47dc3ffd99ed91f22",
        "init_00/snapshot_iter_000.bin": "b92e3d36e495708165742e744971c904789e7b33420bc0e97347d9a445f3f987",
        "init_00/snapshot_iter_001.bin": "82d6b1fd6ee571fce6463497efebad491a73368b6902973d826f63ab2a8c7003",
        "init_00/snapshot_iter_002.bin": "7f82ee1f7f53eb26a8042c5e8216993f8a11751327e5f9fae7e39690b91d29d6",
        "init_01/mean_field.bin": "21136b1f961abea9f852fb27a2c6d1cbc9f798765d98691bfed1e130574edb41",
        "init_01/records.csv": "8d7a1614b0f1902991a5ecbdfd9330278ccb2e7245b4c5589396da14436b01d2",
        "init_01/snapshot_iter_000.bin": "667f7f0c3fe4bb07044e5df0782d648f31dadb1a2f6413cface8a29afaba1bea",
        "init_01/snapshot_iter_001.bin": "5ec9feacfbc9a6bc1341a172ebdc50be21fbb8abaa64c64149498aea85a01b1a",
        "init_01/snapshot_iter_002.bin": "21136b1f961abea9f852fb27a2c6d1cbc9f798765d98691bfed1e130574edb41",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-plain-identity-field-gauss": {
        "init_00/mean_field.bin": "85935cd1565b7340c730f87eeec1faf6b6469470fb469a2d080c056b3f8d55b0",
        "init_00/records.csv": "811dc7608e4a7e671c5545abb3a2d9890a2c9319a99d926594277b897a198727",
        "init_00/snapshot_iter_000.bin": "01b551505e04d2916b0b693a23bf7077eb513dcfb80c524813075adb8adb7bb4",
        "init_00/snapshot_iter_001.bin": "b4f7302dbd3c5781ae897afa82b1042baa2bd77916595233263aaf92410d3f87",
        "init_00/snapshot_iter_002.bin": "85935cd1565b7340c730f87eeec1faf6b6469470fb469a2d080c056b3f8d55b0",
        "init_01/mean_field.bin": "81603fab541edce9c9e6b20de242c18e0a0deb0ed03162f287058d057d908f2a",
        "init_01/records.csv": "4ed6912420e5d6a814eee5237b49b3de811f8473a7f8bca2f0ab5a9d8ea5fb90",
        "init_01/snapshot_iter_000.bin": "ab570158c1000e6d2657102e22cd5e3b61ae445932850b33985c101fa621b5e1",
        "init_01/snapshot_iter_001.bin": "f2e7a33f7fc33c3782091f6ee36e3d61097596f8457c08f48b948b853c55129f",
        "init_01/snapshot_iter_002.bin": "81603fab541edce9c9e6b20de242c18e0a0deb0ed03162f287058d057d908f2a",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-plain-identity-field-cauchy": {
        "init_00/mean_field.bin": "5600402218ea0505fcd3c80d5b0b0360779a429282430485671311a7e5802867",
        "init_00/records.csv": "92988fb45e2f1eadd59ba49e797d4f72d42b4057247adcce0672991bd20746f8",
        "init_00/snapshot_iter_000.bin": "89f7fd2e8aedf33fce903c1947f7220bc1f67770ade9a4aaf0c6ddc72c855531",
        "init_00/snapshot_iter_001.bin": "8f55fb06a12e33c875ca2cf958d18953b5885b2f821622095c9ac4cf9c706d32",
        "init_00/snapshot_iter_002.bin": "5600402218ea0505fcd3c80d5b0b0360779a429282430485671311a7e5802867",
        "init_01/mean_field.bin": "28d76976ce59f0e85361f295f2e77fb56e043cfa20048684ad37eb9ff2b8ddad",
        "init_01/records.csv": "7b861c2f5f7eb797084c3bf37f2f43472a4b5ff24ebd86ee0e55bf5387920bd8",
        "init_01/snapshot_iter_000.bin": "ac18124a2c06e857bad314db5c73b50943d7af3b31dedd3b8ad9ebc0c4b2d342",
        "init_01/snapshot_iter_001.bin": "098162d1d6bc7c31922f16ea4de4b65bba191d2742a407a381be50009b9be953",
        "init_01/snapshot_iter_002.bin": "28d76976ce59f0e85361f295f2e77fb56e043cfa20048684ad37eb9ff2b8ddad",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-centered-hier-identity": {
        "init_00/hypers.csv": "7a8f3a45818e2bda909d53ed40074c885a11d60484e57911ff0cb3a0f7a9fbdb",
        "init_00/mean_field.bin": "9c0391824a09827940a124d292652fbe99affffb0bc829ef49a16e304bfe59a0",
        "init_00/records.csv": "fb22f46a51b2d625e1c7757aa02fe782ba730d3484a4b6f09d03deb894c30cd7",
        "init_00/snapshot_iter_000.bin": "f11860aac6e4c3097afbd835c5e475a8854154d756964f30a3f9235052a11d9a",
        "init_00/snapshot_iter_001.bin": "cb6ca5d1ba61e961e88f12fdf038453393168ada6a218e8e628e56a665ea73ba",
        "init_00/snapshot_iter_002.bin": "9c0391824a09827940a124d292652fbe99affffb0bc829ef49a16e304bfe59a0",
        "init_01/hypers.csv": "3497d763759143df3836cdbef143a639e40988baacc3299116688f06f42d7cfe",
        "init_01/mean_field.bin": "9766f1316c94e1a79583d9312dc006642132e03521add50ea936698e08f59237",
        "init_01/records.csv": "34a0a8c3aaca5a33037b2f729a08bf0cfaef5a949afca993f7085a76e12c0527",
        "init_01/snapshot_iter_000.bin": "d483cc8483be8a17ebc06e32c22526c8548e070e2c3c8b48e3fdb4f5e21932a3",
        "init_01/snapshot_iter_001.bin": "d36461898fe3ad4d1b3474a1f884810c06bd3891e147961ce62e333930058162",
        "init_01/snapshot_iter_002.bin": "9766f1316c94e1a79583d9312dc006642132e03521add50ea936698e08f59237",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-hier-identity": {
        "init_00/hypers.csv": "1d8ebffcc5d4803b49bb2f67192928c6362d6b1a17bea7ab35ddf61c27879dc5",
        "init_00/mean_field.bin": "e442350d5fb1ffad8c8ca8f938cc51ab4fe4598bb4d1fb8aafdca04ecf6a25c6",
        "init_00/records.csv": "72fae7f6d1bebd434ab6258ad1803fce6114bbc92a03c195e718ffd68d22ec1c",
        "init_00/snapshot_iter_000.bin": "880aa3c2b8de613426d8dcb0e730cf632a1c856182798adf47d15c51392d2cbc",
        "init_00/snapshot_iter_001.bin": "e4f2ca1bd25150cc750fbeeb5e02c887e317da448c3f83776c215783db1c6865",
        "init_00/snapshot_iter_002.bin": "e442350d5fb1ffad8c8ca8f938cc51ab4fe4598bb4d1fb8aafdca04ecf6a25c6",
        "init_01/hypers.csv": "678e0b421dc934f5e326e038f7c430990c714d7b3407ac427318b00e326d7a9a",
        "init_01/mean_field.bin": "3acb7e89de87e7602a890998696d1929a9831a335bc42517f33f2ca4e46aaf55",
        "init_01/records.csv": "77db1bf643ba136f182cb68d0690c9f17366d6bdf10f209e7ca84983fa739944",
        "init_01/snapshot_iter_000.bin": "44afc73e02d8714ca52a006498674edef40e297b84c5b9eb7a5d8f99e1e7efd5",
        "init_01/snapshot_iter_001.bin": "dd55c0ccfc779c98905f447c883a91526b2f7a69813c8992fd526e58efa44464",
        "init_01/snapshot_iter_002.bin": "3acb7e89de87e7602a890998696d1929a9831a335bc42517f33f2ca4e46aaf55",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-field-gauss-identity": {
        "init_00/mean_field.bin": "18df3a77891b3751de217ce5b122ed9502bb4fe6c4732c6cc87285cb37e247ef",
        "init_00/records.csv": "39fff3699a91b184cbd129f88b120600ab899d8d2ddf131ed3112c108d43b083",
        "init_00/snapshot_iter_000.bin": "42486f68f563a850f28f26ad06d21efcad31258afb400760170b6f1d55e0500a",
        "init_00/snapshot_iter_001.bin": "35a7396051a81bb69d1ec082739b1acaae30c1c6df3f852c26170957dfa9e8ef",
        "init_00/snapshot_iter_002.bin": "18df3a77891b3751de217ce5b122ed9502bb4fe6c4732c6cc87285cb37e247ef",
        "init_01/mean_field.bin": "59a235f3b6a47416e6dbce811be85a7b0e6053e74069b5b4a3106cdf75f8a263",
        "init_01/records.csv": "4066c40a0dd340e9719be9b011a881eb2b7185c2648b3a3efcccd44aa046f73e",
        "init_01/snapshot_iter_000.bin": "be8ceb3ee3a70c60f53429871930d4d70972fe68aeddeb327e7975f7ae75a3bb",
        "init_01/snapshot_iter_001.bin": "3f91535bb928709504451c1aa2008e324e7d93be47f5999ddeb19d3495ef728e",
        "init_01/snapshot_iter_002.bin": "59a235f3b6a47416e6dbce811be85a7b0e6053e74069b5b4a3106cdf75f8a263",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-field-cauchy-identity": {
        "init_00/mean_field.bin": "8c5ced0b24bd3bf183b2ea4d9832d968be420f40151a017eee03bd5ec9e59f46",
        "init_00/records.csv": "1f98c40cbd8470e2c2126fca657cf4581c64a2b0465a5d23cb3864c4d0903ed6",
        "init_00/snapshot_iter_000.bin": "2d3706f92db6a7d251a741864e6c78702a2cdd2da263428ee1bc7c3f02e9ef77",
        "init_00/snapshot_iter_001.bin": "e3237d9b1eeea4d0fb0f5f61521935a257eb6dfa254ab1eb56a821133214c28e",
        "init_00/snapshot_iter_002.bin": "8c5ced0b24bd3bf183b2ea4d9832d968be420f40151a017eee03bd5ec9e59f46",
        "init_01/mean_field.bin": "dba1a567d03c43df6e217fc9c3b6106f5ae63034fdcdc2ca489d04ecddcf1c82",
        "init_01/records.csv": "72c5c1313c2a290666c3e059b18c4c55b4de758924f7483314d0bf65caec7d72",
        "init_01/snapshot_iter_000.bin": "60083ec0123f40997c2a87a679be424842405e3d4c85ef7d582e22b48a15d5c0",
        "init_01/snapshot_iter_001.bin": "b191109950aefc624be0401b45954ed262ab7a5516986c73b9af0849e30f85f1",
        "init_01/snapshot_iter_002.bin": "dba1a567d03c43df6e217fc9c3b6106f5ae63034fdcdc2ca489d04ecddcf1c82",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "darcy-plain-exp": {
        "init_00/mean_field.bin": "84ba78af4d8adea156c72ec40a1492976750652f348e9ab0cf421f0e7e48d8ff",
        "init_00/records.csv": "820d9b243905d1bf0703a33d8529c09fac79e51d249ccc65cafca568287f8445",
        "init_00/snapshot_iter_000.bin": "9f1cecfa218e000a927625b6551cc271742b53112f82d59ddfa6ee7305d0beef",
        "init_00/snapshot_iter_001.bin": "a338733bce6648cf85171073aed459037003ddf1e085eefd6f03dbec08763ee9",
        "init_00/snapshot_iter_002.bin": "84ba78af4d8adea156c72ec40a1492976750652f348e9ab0cf421f0e7e48d8ff",
        "init_01/mean_field.bin": "6496b8d6fce4a774f1a0ee2671f45f7b4334cacb6089f9d582d64c48cf6fb4cb",
        "init_01/records.csv": "4709941a95d7876ceabb86fa2ace1f79e6ac5e4d8d5c434cd60727a048fe70e5",
        "init_01/snapshot_iter_000.bin": "c67182c20ade0048beda934731837e520a85013ab1f3de1f9f235777e9c72fc1",
        "init_01/snapshot_iter_001.bin": "6f1d822cdc6174d1ac66e56289e58b309c8958e1eaa304db9facbb05afde809a",
        "init_01/snapshot_iter_002.bin": "6496b8d6fce4a774f1a0ee2671f45f7b4334cacb6089f9d582d64c48cf6fb4cb",
        "observations.csv": "05596a1fd6e22575c021af41a33d8166b2a970730fc36582acbad844cf79088e",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-plain-exp-field-gauss": {
        "init_00/mean_field.bin": "a049252e56eb5d27fd4f3c1504139a65ed6e9d1ddaca9c2209f126b362133fe3",
        "init_00/records.csv": "0adab8321f46a31f23d13ca48a566225667280a84594a5a58d04a8ac9a46db60",
        "init_00/snapshot_iter_000.bin": "7560ebc32d15ab3532876c00a6752f73950bc558b811d0d6e6368d614bc137bd",
        "init_00/snapshot_iter_001.bin": "757f5e43572f5974a9492ca2d69c7ce71076414a613b9d27cca9b26203671103",
        "init_00/snapshot_iter_002.bin": "a049252e56eb5d27fd4f3c1504139a65ed6e9d1ddaca9c2209f126b362133fe3",
        "init_01/mean_field.bin": "e3f099493ec0b8640821da558a278845849d68ab80a73534c6258fd7d5334b13",
        "init_01/records.csv": "69acbcc71dc51f1ee6f0381a8458494165ef39fa6d913c4a8995f5b9c94d736f",
        "init_01/snapshot_iter_000.bin": "8ab6723a8d8dcbad341ad7c50258358e17b06dd4e5bd01923b8fbaf08955df21",
        "init_01/snapshot_iter_001.bin": "dfe8ff7bee453a0657da5fe426f70d520d045bfe64a16902598a6b6095936470",
        "init_01/snapshot_iter_002.bin": "e3f099493ec0b8640821da558a278845849d68ab80a73534c6258fd7d5334b13",
        "observations.csv": "05596a1fd6e22575c021af41a33d8166b2a970730fc36582acbad844cf79088e",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-centered-hier-exp": {
        "init_00/hypers.csv": "e5de02819ec2d2e2b07a57a5eafe1e7ea94cbf4174f930570f3cf0785670de2c",
        "init_00/mean_field.bin": "8d82e4bbc655b53aad0c57e61a8af8ed65dd1e0f1e0238d7746a9164a11de4e2",
        "init_00/records.csv": "809cc02c2ee6dca7bc3a12f5f62230868dddddb186e4a1aeb513ff355b6fac2b",
        "init_00/snapshot_iter_000.bin": "4ddbc7bf6da5566e575ec71ffc0cf065c1a83f1099bb05609811463148b1e81e",
        "init_00/snapshot_iter_001.bin": "f2d550214cb30fae4a31be6464270baf59b80ffcffc961d66276c299323f2e86",
        "init_00/snapshot_iter_002.bin": "8d82e4bbc655b53aad0c57e61a8af8ed65dd1e0f1e0238d7746a9164a11de4e2",
        "init_01/hypers.csv": "dd2772083e66aadb197504a94a7ff710e56220574c794dbe48380b663f51891a",
        "init_01/mean_field.bin": "60ee29df4578a1625fd8e44572f62790073c15d49f217501716a474b60e5878d",
        "init_01/records.csv": "be3c6ed2d78ec28e30dfb1ba6196958f0d124f90d4e296c32574bf79294f19f3",
        "init_01/snapshot_iter_000.bin": "cda2820f0789f89f49ac665a6deb454f9b7c7a31888cb524d040b15e383ca100",
        "init_01/snapshot_iter_001.bin": "0b312f8259b44bb32412d2d5fe99625671900fb37cbd5f252c586f854de2e254",
        "init_01/snapshot_iter_002.bin": "60ee29df4578a1625fd8e44572f62790073c15d49f217501716a474b60e5878d",
        "observations.csv": "05596a1fd6e22575c021af41a33d8166b2a970730fc36582acbad844cf79088e",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-noncentered-hier-exp": {
        "init_00/hypers.csv": "0721c5103962b94cc0d588e134663731d18c9c5e088506bbb21b3be5fb88c2fc",
        "init_00/mean_field.bin": "e20ee37904fff8a5942072f4ce9498c86b9af8415b76cc4dfa4ad306c1103a11",
        "init_00/records.csv": "b25bd15cae1393406940405570c500aa4c9461211c47dba3a8d94cda3dadfc18",
        "init_00/snapshot_iter_000.bin": "c2b938e164daed70c57770096a9464c9dab6f1439ccf84ea1918a3b7d5d1a867",
        "init_00/snapshot_iter_001.bin": "0dbd9a6fb193794e709da538a7d7e29edc441050e96edbcf50acf44a938e591e",
        "init_00/snapshot_iter_002.bin": "e20ee37904fff8a5942072f4ce9498c86b9af8415b76cc4dfa4ad306c1103a11",
        "init_01/hypers.csv": "c65e10d846ed5cf76a715c3d1f88b07fb5a4b84322ce39ee6641b080b5bb6fca",
        "init_01/mean_field.bin": "58a1143839f84b3ec1bc5b059436d29459a12d642ee0c0232df7f0f03d37d859",
        "init_01/records.csv": "5810f4ec20c55b2b7f2378f40d9fd9c68bcac464d0015d924e91bf6c18a98af2",
        "init_01/snapshot_iter_000.bin": "229df3099742af594a6d78239d1d3b668951692a1068fc9bc9a7a5ce86458f36",
        "init_01/snapshot_iter_001.bin": "6456342266193d41b4cfa7a259e7a00231873541b936c9bcd2516ac944f25134",
        "init_01/snapshot_iter_002.bin": "58a1143839f84b3ec1bc5b059436d29459a12d642ee0c0232df7f0f03d37d859",
        "observations.csv": "05596a1fd6e22575c021af41a33d8166b2a970730fc36582acbad844cf79088e",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-plain-level-set": {
        "init_00/mean_field.bin": "38d4af87f6f4e3022473d57c8cc9fb08f3797fd007142bab1d7c0dc4369afae4",
        "init_00/records.csv": "31d842d4fb8a13da17da7115189cb9b493d1fce7b0db4736968135ebc7561a55",
        "init_00/snapshot_iter_000.bin": "f474d56b848c34dafbcfd181e41644a7f1fc97fc6c2aee30896e90e271126203",
        "init_00/snapshot_iter_001.bin": "8a79fc02bc4c7a32909330d3aaee67b088329e65c95f733f86631e39b6dc63e7",
        "init_00/snapshot_iter_002.bin": "38d4af87f6f4e3022473d57c8cc9fb08f3797fd007142bab1d7c0dc4369afae4",
        "init_01/mean_field.bin": "e76fdfd68944913d7d37958adf76946681858c994ea3a8cb48bca1f78fb80482",
        "init_01/records.csv": "1224cac0c2277528aff86a4f6a922f290b41d3aded359415f9adaff68b220ad9",
        "init_01/snapshot_iter_000.bin": "cff4202bc9c6fb9b4ac733e2343f0bb267a4155eaeedb253636bfdeebb5c81b1",
        "init_01/snapshot_iter_001.bin": "a0c4a7b76d7df63decd4075b295d453db0d3cee49e900c0fc9e3caa13c6ddc8c",
        "init_01/snapshot_iter_002.bin": "e76fdfd68944913d7d37958adf76946681858c994ea3a8cb48bca1f78fb80482",
        "observations.csv": "5044e54982fad9414250aabd6989582714a8428e8645e8cf45597d2735db3ad2",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-centered-hier-level-set": {
        "init_00/hypers.csv": "819f3690530b3ffe8d5e3d764cf364ed9b950999922084f7fb83a349ba598a2b",
        "init_00/mean_field.bin": "894d72535bd0e30ea86dffd31c580593f9e0ff1ee7fb537242e8988c819a3f1b",
        "init_00/records.csv": "9dd036e71e016c240ca6eb0607c237b26c5fcbf5ff873384270609ab53648588",
        "init_00/snapshot_iter_000.bin": "7d04f28e9445c25b4c9191222aa011f13cfd9515ab44d269f521979c801781fe",
        "init_00/snapshot_iter_001.bin": "ae1f717d1f06dff54e75912bb6686084b1fadd3074b105f6ef0a01f86f948d62",
        "init_00/snapshot_iter_002.bin": "894d72535bd0e30ea86dffd31c580593f9e0ff1ee7fb537242e8988c819a3f1b",
        "init_01/hypers.csv": "0560cb0ce7fa458b35c8cd8735046f508aef8354460656d40c9de409a1cc808f",
        "init_01/mean_field.bin": "3c8cb89cf9b9360278456fcb40254f73d5d640a95d1827adbbffbfbc634a0ed5",
        "init_01/records.csv": "a00da35c57748d6e7d49f9837e2bd7b551fb186343bad4a8c4a1e9f3fc01d513",
        "init_01/snapshot_iter_000.bin": "1c5c673b855e563be4271e10798e0121c1e124d918dc3ea51bfff7743b573996",
        "init_01/snapshot_iter_001.bin": "7aa36c001df667faacaa4425fbc481341a5562f82d23c66947d529754c674ed8",
        "init_01/snapshot_iter_002.bin": "3c8cb89cf9b9360278456fcb40254f73d5d640a95d1827adbbffbfbc634a0ed5",
        "observations.csv": "5044e54982fad9414250aabd6989582714a8428e8645e8cf45597d2735db3ad2",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-noncentered-hier-level-set": {
        "init_00/hypers.csv": "519f5905413271804831ec11fcae9966e136bc3ea73846240d947019cc4d9f8c",
        "init_00/mean_field.bin": "05f93b03ce96ee72a829cdc74d7dbf3c62c2395cb8d3cb40482ca156634152da",
        "init_00/records.csv": "c1f46e203cda960e0a7ff6b7de7952765a4e443f4225a8ffe04f049b1542a20b",
        "init_00/snapshot_iter_000.bin": "7b04b4c15f74fa34e485e0abda3c0c766cdc7ef6c8cf373539798684eb5f3768",
        "init_00/snapshot_iter_001.bin": "105461c58f4716dcba2990c4651f11bee9a17cd2123b002ea77741e04ba29bad",
        "init_00/snapshot_iter_002.bin": "05f93b03ce96ee72a829cdc74d7dbf3c62c2395cb8d3cb40482ca156634152da",
        "init_01/hypers.csv": "0a20f1f7caed188c4810b2fd6d56cbdac74deb46efea57c8e671573d23d25c98",
        "init_01/mean_field.bin": "0b334cf3bcfdde92fd660a7b1b5031328128be3c54a9c25806ab9bdee93484d5",
        "init_01/records.csv": "b43917954dc64b24f41cd09133d410add7ead4154e0832f99bcb112b64c63d91",
        "init_01/snapshot_iter_000.bin": "3523705427d32734945f45e1b09596b35ef5330cf94284c8da8edeb9b4ddf812",
        "init_01/snapshot_iter_001.bin": "7452a4e6b1bac0b78ad125192d739389938ea90dd5b6b19522efcc31f0fd4c46",
        "init_01/snapshot_iter_002.bin": "0b334cf3bcfdde92fd660a7b1b5031328128be3c54a9c25806ab9bdee93484d5",
        "observations.csv": "5044e54982fad9414250aabd6989582714a8428e8645e8cf45597d2735db3ad2",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-plain-channel": {
        "init_00/hypers.csv": "3b0758619988880bdc682f4a0d7ee49f7e80f40d628389533cbacb406856be79",
        "init_00/mean_field.bin": "ac53ce32fc5d9b1f543da03f9f182c031ec24d194a1cf867442f282025abfa84",
        "init_00/records.csv": "394a90d73382914bf0ea91bbdce258ef6efda7f0120e9b82f82768ac0e09b29e",
        "init_00/snapshot_iter_000.bin": "1ae4f19957b838faf5c8ba3240f969eb4308064dbcaec92c4d12ef107d8942a2",
        "init_00/snapshot_iter_001.bin": "0f3531e8d1e179f51817330070f41b72be452c9caf9a805afafa0ca63416cb22",
        "init_00/snapshot_iter_002.bin": "ac53ce32fc5d9b1f543da03f9f182c031ec24d194a1cf867442f282025abfa84",
        "init_01/hypers.csv": "b2b524020c195cf1a65e22564634e4417e7eae17c1ecd733eaaa2e8f9c123433",
        "init_01/mean_field.bin": "5146ce030d2bbb493e44d76776f82b0eed5ed48c20d22ee6f8eb84bd0748f495",
        "init_01/records.csv": "52dc9399c4e80da1690eee368f51f93e6ba79c8bc593be6860720bd9f4c27eae",
        "init_01/snapshot_iter_000.bin": "2f022475cd33e3d14d46e0388218a5af3b32272142cb46254f15146b45581b9a",
        "init_01/snapshot_iter_001.bin": "f9d7369e3ac535a2a902eba70306882c4c74316f66a8dbf086c6858efd11fd65",
        "init_01/snapshot_iter_002.bin": "5146ce030d2bbb493e44d76776f82b0eed5ed48c20d22ee6f8eb84bd0748f495",
        "observations.csv": "99d312d90ce2eae33e267e4c138d041b7d44a679af098313bd23a11fc162fb83",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
    "darcy-centered-hier-channel": {
        "init_00/hypers.csv": "ff4c0b09f61d890a380d688a7358de750734709e18e8c549a6cac30ef544d42c",
        "init_00/mean_field.bin": "ac53ce32fc5d9b1f543da03f9f182c031ec24d194a1cf867442f282025abfa84",
        "init_00/records.csv": "394a90d73382914bf0ea91bbdce258ef6efda7f0120e9b82f82768ac0e09b29e",
        "init_00/snapshot_iter_000.bin": "1ae4f19957b838faf5c8ba3240f969eb4308064dbcaec92c4d12ef107d8942a2",
        "init_00/snapshot_iter_001.bin": "0f3531e8d1e179f51817330070f41b72be452c9caf9a805afafa0ca63416cb22",
        "init_00/snapshot_iter_002.bin": "ac53ce32fc5d9b1f543da03f9f182c031ec24d194a1cf867442f282025abfa84",
        "init_01/hypers.csv": "3b4491e406aa8fc878ac2a7b614f8c57fcb9dba097503731666456a1787d4e6f",
        "init_01/mean_field.bin": "5146ce030d2bbb493e44d76776f82b0eed5ed48c20d22ee6f8eb84bd0748f495",
        "init_01/records.csv": "52dc9399c4e80da1690eee368f51f93e6ba79c8bc593be6860720bd9f4c27eae",
        "init_01/snapshot_iter_000.bin": "2f022475cd33e3d14d46e0388218a5af3b32272142cb46254f15146b45581b9a",
        "init_01/snapshot_iter_001.bin": "f9d7369e3ac535a2a902eba70306882c4c74316f66a8dbf086c6858efd11fd65",
        "init_01/snapshot_iter_002.bin": "5146ce030d2bbb493e44d76776f82b0eed5ed48c20d22ee6f8eb84bd0748f495",
        "observations.csv": "99d312d90ce2eae33e267e4c138d041b7d44a679af098313bd23a11fc162fb83",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
    "darcy-noncentered-hier-channel": {
        "init_00/hypers.csv": "f60252bdff0333926c48385e8fa261aadf38e9924840f05415cabf214f6b9b1f",
        "init_00/mean_field.bin": "f59a780c08d7fc3e13001383a8c12591c7a032cf6904b029cd5132eeaae7c25b",
        "init_00/records.csv": "0d841ed8743562aaab4e4d738fa9a4d3229b423654422e50716c6f9b43baa925",
        "init_00/snapshot_iter_000.bin": "ba7bc8deb275a7b6454399ba4b0601cd0610221ead048839ab82d96be7072d2a",
        "init_00/snapshot_iter_001.bin": "1e009e29ef3973e9da758328ffa439c18036dd818fd820a929937e277f861aff",
        "init_00/snapshot_iter_002.bin": "f59a780c08d7fc3e13001383a8c12591c7a032cf6904b029cd5132eeaae7c25b",
        "init_01/hypers.csv": "0e335e63b387d0f1846487a491c5801ab8ab3e0fcd562fe56c9ee562998fe347",
        "init_01/mean_field.bin": "d95b9a852e0a4dff3a6cb35af0122b48b50d9e012e086afd499a6732a609a2e1",
        "init_01/records.csv": "498f97e9a5ccfd7af791e8598e6c8c17cbac376cefb1f12b4d577b1045200e4a",
        "init_01/snapshot_iter_000.bin": "7501032850cfc713e832502bffa0a4685554cfba384c52348f60bdcf040b3ca6",
        "init_01/snapshot_iter_001.bin": "661ba8e89f8dda0aa94021d8257bc0d1f6911a20fc8a70a4b7febcf94c55010a",
        "init_01/snapshot_iter_002.bin": "d95b9a852e0a4dff3a6cb35af0122b48b50d9e012e086afd499a6732a609a2e1",
        "observations.csv": "99d312d90ce2eae33e267e4c138d041b7d44a679af098313bd23a11fc162fb83",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
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
