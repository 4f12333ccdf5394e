"""Experiment runner: initializations, output files, reports and prior samples.

The resolved configuration (:mod:`ekinv.config`) plus the master seed
determine every file in the manifest's SHA-256 inventory.  Each experiment
draws one truth and one data realization (:mod:`ekinv.model`), then runs the
inversion from several independent initial ensembles, writing
per-iteration records with the hyperparameter means (CSV), decoded mean
fields (flat binary with a 3-integer shape header), and a JSON manifest that
can be re-run verbatim and also holds what is not deterministic: the wall
time of every iteration, the solve workers it ran with, and their minor page
faults and system time in each initialization.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
from pathlib import Path

import numpy as np

from . import __version__, multigrid
# load_config is re-exported: the benchmark loads its configurations through
# this module
from .config import (  # noqa: F401
    controls_from,
    load_config,
    model_domain,
    observation_model,
    sample_prior_grid,
    snapshot_iterations,
)
from .composite import CompositeForward, usable_cpus
from .eki import Ensemble, run_inversion
from .forward import ObservationModel, synthesize_data
from .grid import Domain, dirichlet_spectrum, white_noise
# the runner calls these through this module's namespace, where the
# benchmark and the tests replace them
from .model import (
    ModelSetup,
    Parameterization,
    TruthBundle,
    build_model_setup,
    build_parameterization,
    make_truth,
    packing_layout,
)
from .param_maps import NoncenteredMap
from .priors import MaternSpec, sqrt_cov



# ---------------------------------------------------------------------------
# file formats


FIELD_MAGIC_DTYPE = np.dtype("<i8")
FIELD_VALUE_DTYPE = np.dtype("<f8")


def write_field_file(path, domain: Domain, values: np.ndarray) -> None:
    """Flat binary field file: int64 header (dim, n1, n2), float64 row-major."""
    shape = domain.interior_shape + (1,) * (2 - domain.dim)
    header = np.array([domain.dim, shape[0], shape[1]], dtype=FIELD_MAGIC_DTYPE)
    with open(path, "wb") as handle:
        handle.write(header.tobytes())
        handle.write(np.ascontiguousarray(values, dtype=FIELD_VALUE_DTYPE).tobytes())


def read_field_file(path) -> np.ndarray:
    """Read a field file back to an array of its stored shape.

    Raises ValueError naming the file when the header is short or invalid,
    or when the values do not fill the shape it gives."""
    with open(path, "rb") as handle:
        header = handle.read(24)
        body = handle.read()
    if len(header) < 24:
        raise ValueError(f"field file {path} is shorter than its 24-byte header")
    dim, n1, n2 = (int(v) for v in np.frombuffer(header, dtype=FIELD_MAGIC_DTYPE))
    if dim not in (1, 2) or n1 < 1 or n2 < 1 or (dim == 1 and n2 != 1):
        raise ValueError(f"field file {path} has an invalid header: dim {dim}, "
                         f"shape {n1} x {n2}")
    if len(body) != n1 * n2 * FIELD_VALUE_DTYPE.itemsize:
        raise ValueError(f"field file {path} holds {len(body)} bytes of values, "
                         f"expected {n1 * n2 * FIELD_VALUE_DTYPE.itemsize}")
    data = np.frombuffer(body, dtype=FIELD_VALUE_DTYPE)
    return data.reshape((n1,) if dim == 1 else (n1, n2))


def write_csv(path, header, rows) -> None:
    """A CSV file of one header line and one line per row.  Integers and text
    are written as they are, other numbers with 17 significant digits (which
    read back exactly), and None as an empty cell."""
    def cell(value) -> str:
        if value is None:
            return ""
        return str(value) if isinstance(value, (int, str)) else f"{value:.17g}"

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runner


def _prepare(config: dict):
    """(model setup, truth, observations with data, per-initialization seeds):
    everything the initializations of one experiment share."""
    exp = config["experiment"]
    setup = build_model_setup(config)
    seqs = np.random.SeedSequence(exp["master_seed"]).spawn(2 + exp["n_initializations"])
    truth = make_truth(config, setup, np.random.default_rng(seqs[0]))
    obs = _attach_data(setup, truth, np.random.default_rng(seqs[1]))
    return setup, truth, obs, seqs[2:]


def _run_single_initialization(config: dict, prepared, workers: int,
                               index: int) -> dict:
    """Run one initialization on what :func:`_prepare` returned for
    ``config``, its Darcy chunks solved in ``workers`` processes
    (:func:`solve_workers`).  Deterministic given (config, index)."""
    setup, truth, obs, seqs = prepared
    param: Parameterization = build_parameterization(config, setup, obs)

    rng = np.random.default_rng(seqs[index])
    members = param.sample_initial(rng)
    ensemble = Ensemble(members, param.layout)
    controls = controls_from(config)

    # run_inversion asks for the error of every recorded iterate exactly
    # once, right after evaluating the forward map on it; that evaluation
    # left the mean report field, which the files also keep
    mean_history: list[np.ndarray] = []

    def error_fn(members_now):
        mean_history.append(param.forward.report_mean)
        return setup.domain.norm(mean_history[-1] - truth.field.values) / truth.field.norm()

    # the workers are reaped when the pool shuts down, at the end of the block
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with param.forward.solving_in(workers):
        result = run_inversion(ensemble, param.forward, obs, controls, rng,
                               error_fn=error_fn, hyper_means_fn=param.hyper_means)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)

    out_dir = Path(config["experiment"]["out_dir"]) / f"init_{index:02d}"
    out_dir.mkdir(parents=True, exist_ok=True)
    records = result.records
    names = sorted({name for r in records for name in r.hyper_means})
    write_csv(out_dir / "records.csv",
              ("iter", "misfit", "rel_error", "upsilon", "upsilon_trials", *names),
              [(r.iteration, r.misfit, r.rel_error, r.upsilon, r.upsilon_trials,
                *(r.hyper_means[n] for n in names)) for r in records])
    files = [str(out_dir / "records.csv")]
    if mean_history:
        write_field_file(out_dir / "mean_field.bin", setup.domain, mean_history[-1])
        files.append(str(out_dir / "mean_field.bin"))
        for it in snapshot_iterations(len(mean_history)):
            snap = out_dir / f"snapshot_iter_{it:03d}.bin"
            write_field_file(snap, setup.domain, mean_history[it])
            files.append(str(snap))

    final = records[-1] if records else None
    return {
        "index": index,
        "stop_reason": result.stop_reason,
        "message": result.message,
        "n_records": len(records),
        "final_misfit": final.misfit if final else None,
        "final_rel_error": final.rel_error if final else None,
        "wall_ms": [r.wall_ms for r in records],
        # of its solve workers, none when it solves its chunks itself
        "worker_minor_faults": after.ru_minflt - before.ru_minflt,
        "worker_system_s": after.ru_stime - before.ru_stime,
        "files": files,
    }


def _attach_data(setup: ModelSetup, truth: TruthBundle,
                 rng: np.random.Generator) -> ObservationModel:
    clean = setup.obs_template.matrix @ setup.solver.solve(truth.pde_field).values
    return synthesize_data(setup.obs_template, clean, rng)


def memory_estimate(config: dict) -> dict[str, int]:
    """Bytes one initialization is expected to hold at its peak, by term.
    Its own process holds the initial ensemble, its (J, J) coefficients,
    the block of members the forward map forms at once
    (:meth:`CompositeForward.decoded_chunks`), one forward chunk and every
    recorded mean field.  A forward chunk counts the Darcy solve's plan
    (:class:`ekinv.multigrid.Plan`), which the process that solves the chunks
    keeps.  Each of its solve workers (:func:`solve_workers`), if it has
    more than one, holds a forward chunk of its own."""
    exp, grid, J = config["experiment"], config["grid"], config["experiment"]["n_ensemble"]
    domain = model_domain(exp["model_problem"], grid["n_cells"])
    layout = packing_layout(config, dirichlet_spectrum(domain))
    nodes = tuple(n + 1 for n in domain.n_cells)
    block, chunk = CompositeForward.evaluation_bytes(
        domain, J, layout.dim,
        lambda members: multigrid.plan_bytes(nodes, members) if domain.dim == 2 else 0)
    terms = {"initial ensemble": layout.dim * J * 8,
            "formed block": block,
            "coefficients": J * J * 8,
            "observation operator": observation_model(config, domain).matrix.nbytes,
            "forward chunk": chunk,
            "mean fields": (config["eki"]["max_outer_iterations"] + 1) * domain.n_interior * 8}
    workers = solve_workers(config)
    if workers > 1:
        terms["solve workers"] = workers * terms["forward chunk"]
    return terms


def solve_workers(config: dict) -> int:
    """Processes that solve the Darcy chunks of each initialization: the
    CPUs this process may run on, no more than the chunks of one evaluation,
    and one where the platform cannot fork them.  With one, the
    initialization solves its chunks itself, as it does every 1D source
    solve, which takes too small a share of an iteration to pay for the
    traffic."""
    exp = config["experiment"]
    if exp["model_problem"] != "darcy" or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    n_interior = model_domain("darcy", config["grid"]["n_cells"]).n_interior
    return max(1, min(usable_cpus(), CompositeForward.chunks(n_interior, exp["n_ensemble"])))


def run_experiment(config: dict) -> dict:
    """Run all initializations and write outputs plus a manifest.

    The initializations run one at a time in this process, on its prepared
    set-up, truth and data.  Each solves its Darcy chunks in the processes
    :func:`solve_workers` gives it, and shuts them down before it returns,
    however it ends.  Returns the manifest dictionary, which records the
    solve workers under "processes".  Individual initialization failures
    are recorded with stop_reason "aborted"; the run continues.

    ``ekinv run`` uses one BLAS thread (:mod:`ekinv.cli`); a Python caller
    sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads to write the same
    files.  Otherwise the files of a grid of more than about 10,000
    interior nodes follow the CPU count, through BLAS dots split over threads.
    """
    exp = config["experiment"]
    prepared = _prepare(config)
    setup, truth, obs, _ = prepared
    if truth.field.norm() == 0:
        cells = " x ".join(map(str, setup.domain.n_cells))
        raise ValueError(f"the truth field is zero at every interior node of the {cells}-cell "
                         "grid, so its relative error is undefined; refine [grid] n_cells")
    out_dir = Path(exp["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    write_field_file(out_dir / "truth_field.bin", setup.domain, truth.field.values)
    write_csv(out_dir / "observations.csv",
              ("index", *(("x1",) if setup.domain.dim == 1 else ("x1", "x2")), "y", "gamma"),
              [(i, *obs.centers[i], obs.y[i], obs.gamma[i, i]) for i in range(obs.n_obs)])

    workers = solve_workers(config)
    results = [_run_single_initialization(config, prepared, workers, i)
               for i in range(exp["n_initializations"])]

    inventory = {}
    for name in ("truth_field.bin", "observations.csv"):
        inventory[name] = _sha256(out_dir / name)
    for res in results:
        for f in res["files"]:
            rel = str(Path(f).relative_to(out_dir))
            inventory[rel] = _sha256(Path(f))

    manifest = {
        "config": config,
        "version": __version__,
        "noise_level": obs.noise_level,
        "truth_hypers": truth.hypers,
        "initializations": [
            {key: value for key, value in res.items() if key != "files"} for res in results
        ],
        "files": inventory,
        "processes": {"solve_workers": workers},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# reporting and prior sampling


def summarize_run(run_dir) -> dict:
    """Aggregate a run directory into a summary table."""
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    rows = [{"index": init["index"], "stop_reason": init["stop_reason"],
             "iterations": max(init["n_records"] - 1, 0), "final_misfit": init["final_misfit"],
             "final_rel_error": init["final_rel_error"],
             "median_iter_ms": float(np.median(init["wall_ms"])) if init.get("wall_ms") else None,
             "message": init["message"]}
            for init in manifest["initializations"]]
    errors = [r["final_rel_error"] for r in rows if r["final_rel_error"] is not None]
    summary = {
        "rows": rows,
        "n_discrepancy": sum(r["stop_reason"] == "discrepancy" for r in rows),
        "rel_error_min": min(errors) if errors else None,
        "rel_error_median": float(np.median(errors)) if errors else None,
        "rel_error_max": max(errors) if errors else None,
        "processes": manifest.get("processes"),
    }
    columns = ("index", "stop_reason", "iterations", "final_misfit", "final_rel_error",
               "median_iter_ms")
    write_csv(run_dir / "summary.csv", columns, [[r[c] for c in columns] for r in rows])
    return summary


def sample_prior_fields(config: dict, out_dir) -> list[str]:
    """Write prior field realizations as gridded CSV files."""
    sp = config["sample_prior"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config["experiment"]["master_seed"])
    written = []

    mode = sp["mode"]
    domain, sweep = sample_prior_grid(config)
    basis = dirichlet_spectrum(domain)
    columns = ("x", "value") if domain.dim == 1 else ("x1", "x2", "value")
    coords = [x.ravel() for x in domain.interior_meshgrid()]

    def write_grid_csv(name, values):
        write_csv(out_dir / name, columns, zip(*coords, np.ravel(values)))
        written.append(str(out_dir / name))

    if mode in ("field-gauss", "field-cauchy"):
        ncm = NoncenteredMap(basis, mode)
        for s in range(sp["n_samples"]):
            theta_raw = ncm.sample_hyper_latents(rng)
            u = ncm.realize(white_noise(domain, rng), theta_raw)
            for name, values in (("v", ncm.hyper_field(theta_raw)),
                                 ("ell", ncm.length_scale(theta_raw)), ("u", u)):
                write_grid_csv(f"{mode}_{name}_s{s}.csv", values)
    for alpha, tau in sweep:
        for s in range(sp["n_samples"]):
            u = sqrt_cov(MaternSpec(alpha, tau), basis, white_noise(domain, rng))
            write_grid_csv(f"matern_alpha{alpha:g}_tau{tau:g}_s{s}.csv", u)
    return written
