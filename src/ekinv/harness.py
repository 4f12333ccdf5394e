"""Truth synthesis, parameterization wiring, and the inversion runner.

The resolved configuration (:mod:`ekinv.config`) plus the master seed
determine every output byte.  Each experiment draws one truth and one data
realization, then runs the inversion from several independent initial
ensembles, writing per-iteration records (CSV), decoded mean fields (flat
binary with a 3-integer shape header), hyperparameter trajectories (CSV),
and a JSON manifest that can be re-run verbatim.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
    noncentered_map_from,
)
from .eki import Ensemble, PackingLayout, run_inversion
from .forward import (
    CompositeForward,
    DarcyProblem,
    DecodedBlock,
    ObservationModel,
    SourceProblem1D,
    add_rows,
    mollified_observations,
    point_observations,
    synthesize_data,
)
from .grid import Domain, Field, SpectralBasis, build_domain, dirichlet_spectrum, white_noise
from .param_maps import (
    LevelSetSpec,
    channel_values,
    exp_map,
    exp_values,
    level_set_map,
    level_set_values,
    noncentered_matern,
)
from .priors import MaternSpec, apply_sqrt_cov, unconstrained_to_hyper


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

    config: ExperimentConfig
    domain: Domain
    basis: SpectralBasis
    solver: object
    obs_template: ObservationModel

    @property
    def scaling(self) -> str:
        return self.config["grid"]["coordinate_scaling"]


def build_model_setup(config: ExperimentConfig) -> ModelSetup:
    model = config["experiment"]["model_problem"]
    n = config["grid"]["n_cells"]
    obs_cfg = config["observations"]
    domain = model_domain(model, n)
    if model == "source1d":
        solver = SourceProblem1D(domain)
        obs = point_observations(domain, obs_cfg["n_obs"], obs_cfg["gamma_scale"])
    else:
        solver = DarcyProblem(domain)
        sigma = obs_cfg["mollifier_sigma_frac"] * max(domain.extents)
        obs = mollified_observations(domain, int(round(np.sqrt(obs_cfg["n_obs"]))),
                                     sigma, obs_cfg["gamma_scale"])
    basis = dirichlet_spectrum(domain)
    return ModelSetup(config=config, domain=domain, basis=basis, solver=solver,
                      obs_template=obs)


def _truth_matern_spec(config: ExperimentConfig) -> MaternSpec:
    t = config["truth"]
    p = config["prior"]
    return MaternSpec(alpha=t["alpha_true"], tau=t["tau_true"],
                      sigma2=p["sigma2"], mean=p["mean"])


def make_truth(config: ExperimentConfig, setup: ModelSetup,
               rng: np.random.Generator) -> TruthBundle:
    """Synthesize the configured truth, deterministic per seed."""
    kind = config["truth"]["kind"]
    if kind == "step-profile":
        u = Field(setup.domain, step_profile(setup.domain.interior_coords(0)))
        return TruthBundle(field=u, pde_field=u, hypers={})
    if kind == "matern-exp":
        spec = _truth_matern_spec(config)
        u = apply_sqrt_cov(spec, setup.basis, white_noise(setup.domain, rng), setup.scaling)
        return TruthBundle(field=u, pde_field=exp_map(u),
                           hypers={"alpha": spec.alpha, "tau": spec.tau})
    if kind == "matern-threshold":
        spec = _truth_matern_spec(config)
        u = apply_sqrt_cov(spec, setup.basis, white_noise(setup.domain, rng), setup.scaling)
        kappa = level_set_map(u, LevelSetSpec(**config["level_set"]))
        return TruthBundle(field=Field(setup.domain, np.log(kappa.values)),
                           pde_field=kappa,
                           hypers={"alpha": spec.alpha, "tau": spec.tau})
    # channel-draw
    ch = config["channel"]
    a1, a2, t1, t2 = config["truth"]["channel_truth_hypers"]
    d = np.array([rng.uniform(*ch[f"d{i}_bounds"]) for i in range(1, 6)])
    log_out = apply_sqrt_cov(MaternSpec(a1, t1, mean=ch["log_kappa_out_mean"]),
                             setup.basis, white_noise(setup.domain, rng), setup.scaling)
    log_in = apply_sqrt_cov(MaternSpec(a2, t2, mean=ch["log_kappa_in_mean"]),
                            setup.basis, white_noise(setup.domain, rng), setup.scaling)
    log_kappa = Field(setup.domain,
                      channel_values(d, log_in.values, log_out.values, setup.domain))
    return TruthBundle(field=log_kappa, pde_field=exp_map(log_kappa),
                       hypers={"alpha1": a1, "tau1": t1, "alpha2": a2, "tau2": t2,
                               **{f"d{i}": float(v) for i, v in enumerate(d, start=1)}})


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
    ch = config["channel"]
    return [LatentField("log_kappa_out", ch["log_kappa_out_mean"], 1.0,
                        (ch["alpha1_bounds"], ch["tau1_bounds"]), ("alpha1", "tau1")),
            LatentField("log_kappa_in", ch["log_kappa_in_mean"], 1.0,
                        (ch["alpha2_bounds"], ch["tau2_bounds"]), ("alpha2", "tau2"))]


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
    domain, basis, scaling = setup.domain, setup.basis, setup.scaling
    J = config["experiment"]["n_ensemble"]
    fields = _latent_fields(config)
    bounds = np.array([b for f in fields for b in f.bounds])
    geometry = (np.array([config["channel"][f"d{i}_bounds"] for i in range(1, 6)])
                if cmap == "channel" else None)
    noncentered = par == "noncentered-hier"
    bounded = par in ("centered-hier", "noncentered-hier")   # packs (alpha, tau)
    field_valued = par.startswith("noncentered-field")

    if field_valued:
        ncm = noncentered_map_from(config, basis, par.removeprefix("noncentered-"))
        blocks = [("xi", basis.n_modes), ("hyper", ncm.n_hyper)]
    else:
        size = basis.n_modes if noncentered else domain.n_interior
        blocks = [(f.name, size) for f in fields]
        blocks += [("geom", 5)] if geometry is not None else []
        blocks += [("hyper", len(bounds))] if bounded else []
    layout = PackingLayout(blocks=tuple(blocks))
    sl = layout.slices()

    def matern(f: LatentField, theta, xi) -> Field:
        return apply_sqrt_cov(MaternSpec(theta[0], theta[1], f.sigma2, f.mean),
                              basis, xi, scaling)

    def unmapped(block) -> np.ndarray:
        """The block's fields before the coefficient map, one row per
        member: u, or log kappa inside and outside the channel."""
        if field_valued:
            return ncm.realize(block[sl["xi"]].T, block[sl["hyper"]].T)
        if noncentered:
            theta = block[sl["hyper"]].T
            us = [noncentered_matern(basis, block[sl[f.name]].T, theta[:, 2 * i:2 * i + 2],
                                     f.bounds, f.sigma2, f.mean, scaling)
                  for i, f in enumerate(fields)]
        else:
            us = [block[sl[f.name]].T for f in fields]
        if geometry is None:
            return us[0]
        d = block[sl["geom"]].T
        d = unconstrained_to_hyper(d, geometry) if noncentered else d
        return channel_values(d, us[1], us[0], domain)

    if cmap == "level-set":
        spec = LevelSetSpec(**config["level_set"])

        def decode_block(block):
            kappa = level_set_values(unmapped(block), spec)
            return DecodedBlock(domain, kappa, np.log(kappa))
    else:
        positive = (lambda u: u) if cmap == "identity" else exp_values

        def decode_block(block):
            u = unmapped(block)
            return DecodedBlock(domain, positive(u), u)

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
                return noncentered_matern(basis, xi, theta_raw, f.bounds, f.sigma2, f.mean,
                                          scaling)
        else:
            ncm = noncentered_map_from(config, basis, kind)
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
                    members[sl[f.name], j] = matern(f, theta[2 * i:2 * i + 2],
                                                    white_noise(domain, rng)).values
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


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


RECORD_HEADER = "iter,misfit,rel_error,upsilon,alpha_mean,tau_mean,wall_ms"


def write_records_csv(path, records) -> None:
    lines = [RECORD_HEADER]
    for rec in records:
        lines.append(",".join([
            str(rec.iteration), _fmt(rec.misfit), _fmt(rec.rel_error),
            _fmt(rec.upsilon),
            _fmt(rec.hyper_means.get("alpha")), _fmt(rec.hyper_means.get("tau")),
            _fmt(rec.wall_ms),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_hypers_csv(path, records) -> bool:
    names = sorted({name for rec in records for name in rec.hyper_means})
    if not names:
        return False
    lines = ["iter," + ",".join(names)]
    for rec in records:
        lines.append(",".join([str(rec.iteration)]
                              + [_fmt(rec.hyper_means.get(n)) for n in names]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return True


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runner


def _snapshot_iterations(schedule: str, n_records: int) -> list[int]:
    if schedule == "none" or n_records == 0:
        return []
    if schedule == "auto":
        if n_records <= 5:
            return list(range(n_records))
        return sorted({int(round(t)) for t in np.linspace(0, n_records - 1, 5)})
    wanted = [int(part) for part in schedule.replace(",", " ").split()]
    return sorted({n for n in wanted if 0 <= n < n_records})


def _prepare(config: ExperimentConfig):
    """(model setup, truth, observations with data, per-initialization seeds):
    everything the initializations of one experiment share."""
    exp = config["experiment"]
    setup = build_model_setup(config)
    seqs = np.random.SeedSequence(exp["master_seed"]).spawn(2 + exp["n_initializations"])
    truth = make_truth(config, setup, np.random.default_rng(seqs[0]))
    obs = _attach_data(config, setup, truth, np.random.default_rng(seqs[1]))
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
                           error_fn=error_fn, hyper_means_fn=param.hyper_means,
                           record_walltime=exp["record_walltime"])

    out_dir = Path(exp["out_dir"]) / f"init_{index:02d}"
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    write_records_csv(out_dir / "records.csv", result.records)
    files.append(str(out_dir / "records.csv"))
    if write_hypers_csv(out_dir / "hypers.csv", result.records):
        files.append(str(out_dir / "hypers.csv"))
    if mean_history:
        write_field_file(out_dir / "mean_field.bin", setup.domain, mean_history[-1])
        files.append(str(out_dir / "mean_field.bin"))
        for it in _snapshot_iterations(exp["snapshots"], len(mean_history)):
            snap = out_dir / f"snapshot_iter_{it:03d}.bin"
            write_field_file(snap, setup.domain, mean_history[it])
            files.append(str(snap))

    final = result.records[-1] if result.records else None
    return {
        "index": index,
        "stop_reason": result.stop_reason,
        "message": result.message,
        "n_records": len(result.records),
        "final_misfit": final.misfit if final else None,
        "final_rel_error": final.rel_error if final else None,
        "files": files,
    }


def _attach_data(config: ExperimentConfig, setup: ModelSetup, truth: TruthBundle,
                 rng: np.random.Generator) -> ObservationModel:
    clean = setup.obs_template.matrix @ setup.solver.solve(truth.pde_field).values
    obs = synthesize_data(setup.obs_template, clean, rng,
                          noise_free=config["observations"]["noise_free"])
    if config["eki"]["noise_level_convention"] == "expected":
        obs = replace(obs, noise_level=float(np.sqrt(obs.n_obs)))
    return obs


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> dict:
    """Run all initializations and write outputs plus a manifest.

    Returns the manifest dictionary.  Individual initialization failures are
    recorded with stop_reason "aborted"; the run continues.
    """
    exp = config["experiment"]
    out_dir = Path(exp["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    prepared = _prepare(config)
    setup, truth, obs, _ = prepared

    write_field_file(out_dir / "truth_field.bin", setup.domain, truth.field.values)
    _write_observations_csv(out_dir / "observations.csv", obs)

    indices = list(range(exp["n_initializations"]))
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
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
            {key: res[key] for key in ("index", "stop_reason", "message",
                                       "n_records", "final_misfit", "final_rel_error")}
            for res in results
        ],
        "files": inventory,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _write_observations_csv(path, obs: ObservationModel) -> None:
    dim = obs.centers.shape[1]
    header = ("index,x1,y,gamma" if dim == 1 else "index,x1,x2,y,gamma")
    lines = [header]
    gamma_diag = np.diag(obs.gamma)
    for i in range(obs.n_obs):
        coords = ",".join(_fmt(c) for c in obs.centers[i])
        lines.append(f"{i},{coords},{_fmt(obs.y[i])},{_fmt(gamma_diag[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# reporting and prior sampling


def summarize_run(run_dir) -> dict:
    """Aggregate a run directory into a summary table."""
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    rows = []
    for init in manifest["initializations"]:
        rows.append({
            "index": init["index"],
            "stop_reason": init["stop_reason"],
            "iterations": max(init["n_records"] - 1, 0),
            "final_misfit": init["final_misfit"],
            "final_rel_error": init["final_rel_error"],
        })
    errors = [r["final_rel_error"] for r in rows if r["final_rel_error"] is not None]
    misfits = [r["final_misfit"] for r in rows if r["final_misfit"] is not None]
    summary = {
        "rows": rows,
        "n_discrepancy": sum(r["stop_reason"] == "discrepancy" for r in rows),
        "rel_error_min": min(errors) if errors else None,
        "rel_error_median": float(np.median(errors)) if errors else None,
        "rel_error_max": max(errors) if errors else None,
        "misfit_median": float(np.median(misfits)) if misfits else None,
    }
    lines = ["index,stop_reason,iterations,final_misfit,final_rel_error"]
    for r in rows:
        lines.append(f"{r['index']},{r['stop_reason']},{r['iterations']},"
                     f"{_fmt(r['final_misfit'])},{_fmt(r['final_rel_error'])}")
    (run_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summary


def sample_prior_fields(config: ExperimentConfig, out_dir) -> list[str]:
    """Write prior field realizations as gridded CSV files."""
    sp = config["sample_prior"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config["experiment"]["master_seed"])
    written = []

    def write_grid_csv(name, domain, values):
        path = out_dir / name
        if domain.dim == 1:
            x = domain.interior_coords(0)
            lines = ["x,value"] + [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(x, values)]
        else:
            x1, x2 = domain.interior_meshgrid()
            lines = ["x1,x2,value"]
            for a, b, c in zip(x1.ravel(), x2.ravel(), np.ravel(values)):
                lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(c)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(path))

    mode = sp["mode"]
    if mode in ("matern-tau-sweep", "matern-alpha-sweep"):
        domain = build_domain(2, [1.0, 1.0], sp["n_cells"])
        basis = dirichlet_spectrum(domain)
        sweep = ([(sp["alpha_fixed"], tau) for tau in sp["taus"]]
                 if mode == "matern-tau-sweep"
                 else [(alpha, sp["tau_fixed"]) for alpha in sp["alphas"]])
        for alpha, tau in sweep:
            for s in range(sp["n_samples"]):
                u = apply_sqrt_cov(MaternSpec(alpha, tau), basis,
                                   white_noise(domain, rng))
                write_grid_csv(f"matern_alpha{alpha:g}_tau{tau:g}_s{s}.csv",
                               domain, u.values)
    else:
        domain = model_domain("source1d", config["grid"]["n_cells"])
        basis = dirichlet_spectrum(domain)
        ncm = noncentered_map_from(config, basis, mode)
        for s in range(sp["n_samples"]):
            theta_raw = ncm.sample_hyper_latents(rng)
            v = ncm.hyper_field(theta_raw)
            ell = ncm.length_scale(theta_raw)
            u = ncm.realize(white_noise(domain, rng), theta_raw)
            write_grid_csv(f"{mode}_v_s{s}.csv", domain, v)
            write_grid_csv(f"{mode}_ell_s{s}.csv", domain, ell)
            write_grid_csv(f"{mode}_u_s{s}.csv", domain, u)
    return written
