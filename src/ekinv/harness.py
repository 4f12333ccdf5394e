"""Truth synthesis, parameterization wiring, and the inversion runner.

The resolved configuration (:mod:`ekinv.config`) plus the master seed
determine every file in the manifest's SHA-256 inventory.  Each experiment
draws one truth and one data realization, then runs the inversion from
several independent initial ensembles, writing per-iteration records with
the hyperparameter means (CSV), decoded mean fields (flat binary with a
3-integer shape header), and a JSON manifest that can be re-run verbatim and
also holds what is not deterministic: the wall time of every iteration.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
# load_config is re-exported: the benchmark loads its configurations through
# this module
from .config import (  # noqa: F401
    ExperimentConfig,
    controls_from,
    load_config,
    model_domain,
    observation_model,
    sample_prior_grid,
    snapshot_iterations,
)
from .eki import Ensemble, PackingLayout, SpanMembers, run_inversion
from .forward import (
    CompositeForward,
    DarcyProblem,
    DecodedBlock,
    ObservationModel,
    SourceProblem1D,
    add_rows,
    synthesize_data,
)
from .grid import Domain, Field, SpectralBasis, dirichlet_spectrum, white_noise
from .param_maps import (
    CHANNEL_GEOMETRY_BOUNDS,
    CHANNEL_HYPER_BOUNDS,
    CHANNEL_MEANS,
    CHANNEL_TRUTH_HYPERS,
    NoncenteredMap,
    channel_values,
    coefficient_map,
    noncentered_matern,
)
from .priors import MaternSpec, sqrt_cov, unconstrained_to_hyper


# ---------------------------------------------------------------------------
# problem assembly


@dataclass
class TruthBundle:
    """Synthetic truth: reporting-scale field, solver-scale field, hyperparameters."""

    field: Field       # the field errors are measured against (u, or log kappa)
    pde_field: Field   # what the PDE solver consumes (u, or kappa)
    hypers: dict


def step_profile(x: np.ndarray) -> np.ndarray:
    """Source truth with smooth and piecewise-constant parts on [0, 10]."""
    out = np.zeros_like(x)
    bump = (x > 0) & (x < 5)
    xb = x[bump]
    out[bump] = np.exp(4.0 - 25.0 / (xb * (5.0 - xb)))
    out[(x >= 7) & (x <= 8)] = 1.0
    out[(x > 8) & (x <= 9)] = -1.0
    return out


@dataclass
class ModelSetup:
    """Grid, solver, and observation functionals for one model problem."""

    domain: Domain
    basis: SpectralBasis
    solver: object
    obs_template: ObservationModel


def build_model_setup(config: ExperimentConfig) -> ModelSetup:
    model = config["experiment"]["model_problem"]
    domain = model_domain(model, config["grid"]["n_cells"])
    obs = observation_model(config, domain)
    solver = (SourceProblem1D(domain) if model == "source1d"
              else DarcyProblem(domain, observations=obs))
    return ModelSetup(domain, dirichlet_spectrum(domain), solver, obs)


def make_truth(config: ExperimentConfig, setup: ModelSetup,
               rng: np.random.Generator) -> TruthBundle:
    """Synthesize the truth of the configured coefficient map, deterministic
    per seed: the step profile, a channel of two Matern fields, or one Matern field."""
    t, cmap = config["truth"], config["experiment"]["coefficient_map"]

    def draw(alpha, tau, sigma2, mean):
        return sqrt_cov(MaternSpec(alpha, tau, sigma2, mean), setup.basis,
                        white_noise(setup.domain, rng))

    if cmap == "identity":
        u, hypers = step_profile(setup.domain.interior_coords(0)), {}
    elif cmap == "channel":
        (a1, t1), (a2, t2) = CHANNEL_TRUTH_HYPERS
        d = np.array([rng.uniform(lo, hi) for lo, hi in CHANNEL_GEOMETRY_BOUNDS])
        outside = draw(a1, t1, 1.0, CHANNEL_MEANS[0])   # drawn before the inside
        inside = draw(a2, t2, 1.0, CHANNEL_MEANS[1])
        u = channel_values(d, inside, outside, setup.domain)
        hypers = {"alpha1": a1, "tau1": t1, "alpha2": a2, "tau2": t2,
                  **{f"d{i}": float(v) for i, v in enumerate(d, start=1)}}
    else:
        p = config["prior"]
        u = draw(t["alpha_true"], t["tau_true"], p["sigma2"], p["mean"])
        hypers = {"alpha": t["alpha_true"], "tau": t["tau_true"]}
    pde, report = coefficient_map(cmap)(u)
    return TruthBundle(field=Field(setup.domain, report), pde_field=Field(setup.domain, pde),
                       hypers=hypers)


# ---------------------------------------------------------------------------
# parameterization wiring


@dataclass
class Parameterization:
    """Packed-state layout plus all maps the runner needs.

    The forward map decodes a chunk of members in one batched pass and
    leaves the ensemble mean of their report-scale fields in
    ``forward.report_mean``, so the runner's reporting decodes no member a
    second time.  ``decode_report`` is the one-member case of that pass.
    """

    layout: PackingLayout
    forward: CompositeForward
    sample_initial: object     # rng -> (dim, J) matrix
    decode_report: object      # member -> reporting-scale field values
    hyper_means: object | None  # members -> dict of ensemble means

    def mean_report_field(self, members: np.ndarray) -> np.ndarray:
        """Ensemble mean of the members' report-scale fields, decoded afresh
        chunk by chunk: what a forward evaluation leaves in
        ``forward.report_mean``."""
        total = np.zeros(self.forward.obs.matrix.shape[1])
        for _, block in self.forward.decoded_chunks(members):
            add_rows(total, block.report)
        return total / members.shape[1]


@dataclass(frozen=True)
class LatentField:
    """A Matern field a member packs: its block name, prior mean and
    variance, and the bounds and names of its (alpha, tau)."""

    name: str
    mean: float
    sigma2: float
    bounds: tuple
    hyper_names: tuple


def _latent_fields(config: ExperimentConfig) -> list[LatentField]:
    if config["experiment"]["coefficient_map"] != "channel":
        p = config["prior"]
        return [LatentField("u", p["mean"], p["sigma2"],
                            (p["alpha_bounds"], p["tau_bounds"]), ("alpha", "tau"))]
    return [LatentField("log_kappa_out", CHANNEL_MEANS[0], 1.0, CHANNEL_HYPER_BOUNDS,
                        ("alpha1", "tau1")),
            LatentField("log_kappa_in", CHANNEL_MEANS[1], 1.0, CHANNEL_HYPER_BOUNDS,
                        ("alpha2", "tau2"))]


def packing_layout(config: ExperimentConfig, basis: SpectralBasis) -> PackingLayout:
    """The blocks of a packed member of :func:`build_parameterization`."""
    par = config["experiment"]["parameterization"]
    if par.startswith("noncentered-field"):
        ncm = NoncenteredMap(basis, par.removeprefix("noncentered-"))
        return PackingLayout(blocks=(("xi", basis.n_modes), ("hyper", ncm.n_hyper)))
    fields = _latent_fields(config)
    size = basis.n_modes if par == "noncentered-hier" else basis.domain.n_interior
    blocks = [(f.name, size) for f in fields]
    blocks += [("geom", 5)] if config["experiment"]["coefficient_map"] == "channel" else []
    blocks += ([("hyper", sum(len(f.bounds) for f in fields))]
               if par in ("centered-hier", "noncentered-hier") else [])
    return PackingLayout(blocks=tuple(blocks))


def memory_estimate(config: ExperimentConfig) -> dict[str, int]:
    """Bytes one process is expected to hold at its peak, by term: the initial
    ensemble, its (J, J) coefficients and the members last formed for the forward
    map (:func:`ekinv.eki.run_inversion`), and every recorded mean field."""
    exp, grid, J = config["experiment"], config["grid"], config["experiment"]["n_ensemble"]
    domain = model_domain(exp["model_problem"], grid["n_cells"])
    layout = packing_layout(config, dirichlet_spectrum(domain))
    block = SpanMembers.block_members(CompositeForward.chunk_members(domain.n_interior), J)
    return {"initial ensemble": layout.dim * J * 8,
            "formed block": layout.dim * block * 8,
            "coefficients": J * J * 8,
            "observation operator": observation_model(config, domain).matrix.nbytes,
            "forward chunk": CompositeForward.chunk_bytes(domain, J),
            "mean fields": (config["eki"]["max_outer_iterations"] + 1) * domain.n_interior * 8}


def build_parameterization(config: ExperimentConfig, setup: ModelSetup,
                           obs: ObservationModel) -> Parameterization:
    """The configured parameterization, followed by its coefficient map.

    A member packs its latent fields (one, or the outside and inside fields
    of the channel), the five channel geometry scalars under the channel
    map, and each field's (alpha, tau) unless the parameterization is plain.
    Plain and centered members hold these in natural units.  Non-centered
    members hold white noise and N(0, 1) latents: each field is decoded by
    :func:`ekinv.param_maps.noncentered_matern`, the geometry by the
    normal-quantile bijection.  The field-valued variants hold white noise
    and the latents of their :class:`ekinv.param_maps.NoncenteredMap`.  A
    plain ensemble under the scalar prior is drawn through
    ``noncentered_matern`` with one (alpha, tau) frozen per initialization.

    The decoder works on a (dim, B) block of members: one sine transform
    over the member axis per synthesis, each member's (alpha, tau) and
    geometry as arrays broadcast over its row, and the coefficient map over
    the whole block.  Only the nonstationary solve, whose operator differs
    per member, loops over members.
    """
    par = config["experiment"]["parameterization"]
    cmap = config["experiment"]["coefficient_map"]
    domain, basis = setup.domain, setup.basis
    J = config["experiment"]["n_ensemble"]
    fields = _latent_fields(config)
    bounds = np.array([b for f in fields for b in f.bounds])
    geometry = np.array(CHANNEL_GEOMETRY_BOUNDS) if cmap == "channel" else None
    noncentered = par == "noncentered-hier"
    bounded = par in ("centered-hier", "noncentered-hier")   # packs (alpha, tau)
    field_valued = par.startswith("noncentered-field")

    if field_valued:
        ncm = NoncenteredMap(basis, par.removeprefix("noncentered-"))
    layout = packing_layout(config, basis)
    sl = layout.slices()

    def unmapped(block) -> np.ndarray:
        """The block's fields before the coefficient map, one row per
        member: u, or log kappa inside and outside the channel."""
        if field_valued:
            return ncm.realize(block[sl["xi"]].T, block[sl["hyper"]].T)
        if noncentered:
            theta = block[sl["hyper"]].T
            us = [noncentered_matern(basis, block[sl[f.name]].T, theta[:, 2 * i:2 * i + 2],
                                     f.bounds, f.sigma2, f.mean)
                  for i, f in enumerate(fields)]
        else:
            us = [block[sl[f.name]].T for f in fields]
        if geometry is None:
            return us[0]
        d = block[sl["geom"]].T
        d = unconstrained_to_hyper(d, geometry) if noncentered else d
        return channel_values(d, us[1], us[0], domain)

    to_coefficients = coefficient_map(cmap)

    def decode_block(block):
        return DecodedBlock(domain, *to_coefficients(unmapped(block)))

    if noncentered:
        def sample_initial(rng):
            return rng.standard_normal((layout.dim, J))
    elif field_valued:
        def sample_initial(rng):
            members = np.empty((layout.dim, J))
            for j in range(J):
                members[sl["xi"], j] = white_noise(domain, rng)
                members[sl["hyper"], j] = ncm.sample_hyper_latents(rng)
            return members
    elif par == "plain" and geometry is None:
        # hyperparameters are drawn once per initialization and frozen, so
        # the ensemble spans a single smoothness class
        kind = config["prior"]["plain_prior"]
        if kind == "scalar":
            f = fields[0]

            def draw_hyper(rng):
                return rng.standard_normal(2)

            def realize(xi, theta_raw):
                return noncentered_matern(basis, xi, theta_raw, f.bounds, f.sigma2, f.mean)
        else:
            ncm = NoncenteredMap(basis, kind)
            draw_hyper, realize = ncm.sample_hyper_latents, ncm.realize

        def sample_initial(rng):
            theta_raw = draw_hyper(rng)
            return np.stack([realize(white_noise(domain, rng), theta_raw) for _ in range(J)],
                            axis=1)
    else:
        def sample_initial(rng):
            members = np.empty((layout.dim, J))
            for j in range(J):
                theta = rng.uniform(bounds[:, 0], bounds[:, 1])
                for i, f in enumerate(fields):
                    members[sl[f.name], j] = sqrt_cov(
                        MaternSpec(theta[2 * i], theta[2 * i + 1], f.sigma2, f.mean), basis,
                        white_noise(domain, rng))
                if geometry is not None:
                    members[sl["geom"], j] = rng.uniform(geometry[:, 0], geometry[:, 1])
                if bounded:
                    members[sl["hyper"], j] = theta
            return members

    def ensemble_mean(block, block_bounds):
        """Ensemble mean of packed bounded scalars, in natural units."""
        if noncentered:
            return unconstrained_to_hyper(block.T, block_bounds).mean(axis=0)
        return block.mean(axis=1)

    def hyper_means(members):
        """Ensemble means of every packed scalar: each field's (alpha, tau)
        unless plain, and the channel geometry d1-d5."""
        out = {}
        if bounded:
            theta = ensemble_mean(members[sl["hyper"]], bounds)
            out.update(zip([n for f in fields for n in f.hyper_names], map(float, theta)))
        if geometry is not None:
            d = ensemble_mean(members[sl["geom"]], geometry)
            out.update({f"d{i}": float(v) for i, v in enumerate(d, start=1)})
        return out

    return Parameterization(
        layout=layout,
        forward=CompositeForward(decode_block=decode_block, solver=setup.solver.solve,
                                 obs=obs),
        sample_initial=sample_initial,
        decode_report=lambda member: decode_block(member[:, None]).report[0],
        hyper_means=hyper_means if bounded or geometry is not None else None)


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


def _prepare(config: ExperimentConfig):
    """(model setup, truth, observations with data, per-initialization seeds):
    everything the initializations of one experiment share."""
    exp = config["experiment"]
    setup = build_model_setup(config)
    seqs = np.random.SeedSequence(exp["master_seed"]).spawn(2 + exp["n_initializations"])
    truth = make_truth(config, setup, np.random.default_rng(seqs[0]))
    obs = _attach_data(setup, truth, np.random.default_rng(seqs[1]))
    return setup, truth, obs, seqs[2:]


def _run_single_initialization(config_dict: dict, index: int, prepared=None) -> dict:
    """Run one initialization.  Deterministic given (config, index).

    ``prepared`` is what :func:`_prepare` returns for this config; a worker
    process passes none and builds its own."""
    config = ExperimentConfig(config_dict)
    exp = config["experiment"]
    setup, truth, obs, seqs = prepared or _prepare(config)
    param = build_parameterization(config, setup, obs)

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

    result = run_inversion(ensemble, param.forward, obs, controls, rng,
                           error_fn=error_fn, hyper_means_fn=param.hyper_means)

    out_dir = Path(exp["out_dir"]) / f"init_{index:02d}"
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
        "files": files,
    }


def _attach_data(setup: ModelSetup, truth: TruthBundle,
                 rng: np.random.Generator) -> ObservationModel:
    clean = setup.obs_template.matrix @ setup.solver.solve(truth.pde_field).values
    return synthesize_data(setup.obs_template, clean, rng)


def concurrent_initializations(config: ExperimentConfig, parallel: int) -> int:
    """Initializations run at once under ``parallel``: no more than there are."""
    return min(parallel, config["experiment"]["n_initializations"])


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> dict:
    """Run all initializations and write outputs plus a manifest.

    With one initialization at a time they run in this process, on its prepared
    truth and data; with more, each in a worker process.  Returns the manifest
    dictionary.  Individual initialization failures are recorded with
    stop_reason "aborted"; the run continues.
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

    indices = list(range(exp["n_initializations"]))
    workers = concurrent_initializations(config, parallel)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_single_initialization,
                                    [config.to_dict()] * len(indices), indices))
    else:
        results = [_run_single_initialization(config.to_dict(), i, prepared)
                   for i in indices]

    inventory = {}
    for name in ("truth_field.bin", "observations.csv"):
        inventory[name] = _sha256(out_dir / name)
    for res in results:
        for f in res["files"]:
            rel = str(Path(f).relative_to(out_dir))
            inventory[rel] = _sha256(Path(f))

    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "noise_level": obs.noise_level,
        "truth_hypers": truth.hypers,
        "initializations": [
            {key: value for key, value in res.items() if key != "files"} for res in results
        ],
        "files": inventory,
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
             "median_iter_ms": float(np.median(init["wall_ms"])) if init.get("wall_ms") else None}
            for init in manifest["initializations"]]
    errors = [r["final_rel_error"] for r in rows if r["final_rel_error"] is not None]
    summary = {
        "rows": rows,
        "n_discrepancy": sum(r["stop_reason"] == "discrepancy" for r in rows),
        "rel_error_min": min(errors) if errors else None,
        "rel_error_median": float(np.median(errors)) if errors else None,
        "rel_error_max": max(errors) if errors else None,
    }
    columns = ("index", "stop_reason", "iterations", "final_misfit", "final_rel_error",
               "median_iter_ms")
    write_csv(run_dir / "summary.csv", columns, [[r[c] for c in columns] for r in rows])
    return summary


def sample_prior_fields(config: ExperimentConfig, out_dir) -> list[str]:
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
