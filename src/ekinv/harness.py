"""Experiment configuration, truth synthesis, and the inversion runner.

Configuration files are INI-style (one section per module, ``key = value``),
parsed strictly: duplicate or unknown keys are fatal, every default is
materialized into the resolved configuration, and the resolved configuration
plus the master seed determine every output byte.  Each experiment draws one
truth and one data realization, then runs the inversion from several
independent initial ensembles, writing per-iteration records (CSV), decoded
mean fields (flat binary with a 3-integer shape header), hyperparameter
trajectories (CSV), and a JSON manifest that can be re-run verbatim.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .eki import EkiControls, Ensemble, PackingLayout, run_inversion
from .forward import (
    CompositeForward,
    DarcyProblem,
    ObservationModel,
    SourceProblem1D,
    mollified_observations,
    point_observations,
    synthesize_data,
)
from .grid import Domain, Field, SpectralBasis, build_domain, dirichlet_spectrum, white_noise
from .param_maps import (
    ChannelSpec,
    LevelSetSpec,
    NoncenteredMap,
    channel_map,
    exp_map,
    level_set_map,
)
from .priors import GMap, HyperPrior, MaternSpec, apply_sqrt_cov, unconstrained_to_hyper


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


# ---------------------------------------------------------------------------
# configuration schema


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.replace(",", " ").split())


def _parse_bounds(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if len(values) != 2 or values[0] >= values[1]:
        raise ConfigError(f"bounds need two increasing numbers, got {text!r}")
    return values


def _choice(*options):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in options:
            raise ConfigError(f"must be one of {options}, got {value!r}")
        return value
    return parse


def _int_or_auto(text: str):
    return "auto" if text.strip() == "auto" else int(text)


def _float_or_auto(text: str):
    return "auto" if text.strip() == "auto" else float(text)


PARAMETERIZATIONS = ("plain", "centered-hier", "noncentered-hier",
                     "noncentered-field-gauss", "noncentered-field-cauchy")

SCHEMA = {
    "experiment": {
        "model_problem": (_choice("source1d", "darcy"), None),
        "parameterization": (_choice(*PARAMETERIZATIONS), "plain"),
        "coefficient_map": (_choice("auto", "identity", "exp", "level-set", "channel"), "auto"),
        "n_ensemble": (int, 200),
        "n_initializations": (int, 10),
        "master_seed": (int, 0),
        "out_dir": (str, "auto"),
        "record_walltime": (_parse_bool, False),
        "snapshots": (str, "auto"),
    },
    "eki": {
        "rho": (float, 0.8),
        "zeta": (_float_or_auto, "auto"),
        "upsilon0": (float, 1.0),
        "max_outer_iterations": (int, 30),
        "max_doublings": (int, 60),
        "perturb_observations": (_parse_bool, True),
        "per_member_upsilon": (_parse_bool, False),
        "noise_level_convention": (_choice("realized", "expected"), "realized"),
    },
    "grid": {
        "n_cells": (_int_or_auto, "auto"),
        "coordinate_scaling": (_choice("normalized", "physical"), "normalized"),
    },
    "observations": {
        "n_obs": (_int_or_auto, "auto"),
        "mollifier_sigma_frac": (float, 0.06),
        "gamma_scale": (float, 1e-4),
        "noise_free": (_parse_bool, False),
    },
    "prior": {
        "alpha_bounds": (_parse_bounds, (1.3, 4.0)),
        "tau_bounds": (_parse_bounds, (5.0, 30.0)),
        "sigma2": (float, 1.0),
        "mean": (float, 0.0),
        "plain_prior": (_choice("auto", "scalar", "field-gauss", "field-cauchy"), "auto"),
    },
    "field_hyper": {
        "v_alpha": (float, 2.0),
        "v_tau": (float, 4.0),
        "v_sigma2": (float, 60.0),
        "v_mean": (float, -0.5),
        "cauchy_delta": (float, 0.5),
        "g_rational_params": (_parse_floats, (4.0, 0.0, 1.0, 0.0)),
        "g_floor_frac": (float, 1e-6),
        "g_cap_frac": (float, 10.0),
        "nonstationary_alpha": (float, 2.0),
    },
    "level_set": {
        "kappa_minus": (float, 1.0),
        "kappa_plus": (float, 10.0),
        "threshold": (float, 0.0),
    },
    "channel": {
        "d1_bounds": (_parse_bounds, (0.0, 1.0)),
        "d2_bounds": (_parse_bounds, (2.0, 13.0)),
        "d3_bounds": (_parse_bounds, (0.4, 1.0)),
        "d4_bounds": (_parse_bounds, (0.0, 1.0)),
        "d5_bounds": (_parse_bounds, (0.1, 0.3)),
        "log_kappa_out_mean": (float, 1.0),
        "log_kappa_in_mean": (float, 4.0),
        "alpha1_bounds": (_parse_bounds, (1.3, 3.0)),
        "tau1_bounds": (_parse_bounds, (8.0, 30.0)),
        "alpha2_bounds": (_parse_bounds, (1.3, 3.0)),
        "tau2_bounds": (_parse_bounds, (8.0, 30.0)),
    },
    "truth": {
        "kind": (_choice("auto", "step-profile", "matern-exp", "matern-threshold",
                         "channel-draw"), "auto"),
        "alpha_true": (float, 3.0),
        "tau_true": (float, 10.0),
        "channel_truth_hypers": (_parse_floats, (2.0, 2.8, 30.0, 10.0)),
    },
    "sample_prior": {
        "mode": (_choice("matern-tau-sweep", "matern-alpha-sweep",
                         "field-gauss", "field-cauchy"), "matern-tau-sweep"),
        "taus": (_parse_floats, (10.0, 25.0, 50.0, 100.0)),
        "alphas": (_parse_floats, (1.1, 1.3, 1.5, 1.9)),
        "alpha_fixed": (float, 1.6),
        "tau_fixed": (float, 15.0),
        "n_samples": (int, 1),
        "n_cells": (int, 128),
    },
}


@dataclass
class ExperimentConfig:
    """Fully resolved configuration (every default materialized)."""

    sections: dict

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def to_dict(self) -> dict:
        return {sec: dict(keys) for sec, keys in self.sections.items()}

    def echo(self) -> str:
        lines = []
        for sec in sorted(self.sections):
            lines.append(f"[{sec}]")
            for key in sorted(self.sections[sec]):
                value = self.sections[sec][key]
                if isinstance(value, tuple):
                    value = ", ".join(f"{v:g}" if isinstance(v, float) else str(v)
                                      for v in value)
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)


def _resolve(sections: dict) -> dict:
    exp = sections["experiment"]
    model = exp["model_problem"]
    par = exp["parameterization"]

    if exp["coefficient_map"] == "auto":
        exp["coefficient_map"] = "identity" if model == "source1d" else "exp"
    cmap = exp["coefficient_map"]

    if model == "source1d" and cmap != "identity":
        raise ConfigError("source1d supports coefficient_map = identity only")
    if model == "darcy" and cmap == "identity":
        raise ConfigError("darcy needs a positive coefficient map (exp, level-set, channel)")
    if par in ("noncentered-field-gauss", "noncentered-field-cauchy") and model != "source1d":
        raise ConfigError("field-valued hyperparameter variants run on source1d only")
    if cmap in ("level-set", "channel") and model != "darcy":
        raise ConfigError(f"coefficient_map {cmap!r} requires the darcy model")

    if sections["grid"]["n_cells"] == "auto":
        sections["grid"]["n_cells"] = 1000 if model == "source1d" else 600
    if sections["observations"]["n_obs"] == "auto":
        sections["observations"]["n_obs"] = 50 if model == "source1d" else 64
    if model == "darcy":
        root = int(round(np.sqrt(sections["observations"]["n_obs"])))
        if root * root != sections["observations"]["n_obs"]:
            raise ConfigError("darcy observations form a square lattice; "
                              "n_obs must be a perfect square")

    eki = sections["eki"]
    if not 0.0 < eki["rho"] < 1.0:
        raise ConfigError(f"eki.rho must lie in (0, 1), got {eki['rho']}")
    if eki["zeta"] == "auto":
        eki["zeta"] = 1.1 / eki["rho"]
    if eki["zeta"] * eki["rho"] <= 1.0:
        raise ConfigError(f"eki.zeta must exceed 1/rho = {1 / eki['rho']:.6g}")

    if exp["n_ensemble"] < 2:
        raise ConfigError("experiment.n_ensemble must be at least 2")
    if exp["n_initializations"] < 1:
        raise ConfigError("experiment.n_initializations must be at least 1")

    if sections["prior"]["plain_prior"] == "auto":
        sections["prior"]["plain_prior"] = "field-gauss" if model == "source1d" else "scalar"

    if sections["truth"]["kind"] == "auto":
        sections["truth"]["kind"] = {
            "identity": "step-profile",
            "exp": "matern-exp",
            "level-set": "matern-threshold",
            "channel": "channel-draw",
        }[cmap]

    if exp["out_dir"] == "auto":
        exp["out_dir"] = f"runs/{model}-{par}-{cmap}"
    return sections


def _parse_sections(raw: dict) -> ExperimentConfig:
    """Parse ``{section: {key: text}}``, materialize the defaults and resolve."""
    sections = {}
    for sec, keys in SCHEMA.items():
        sections[sec] = {key: default for key, (_, default) in keys.items()}
    for sec, keys in raw.items():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}]; expected one of "
                              f"{sorted(SCHEMA)}")
        for key, text in keys.items():
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in [{sec}]; expected one of "
                                  f"{sorted(SCHEMA[sec])}")
            parse_fn = SCHEMA[sec][key][0]
            try:
                sections[sec][key] = parse_fn(text)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"[{sec}] {key}: {exc}") from exc
    if sections["experiment"]["model_problem"] is None:
        raise ConfigError("experiment.model_problem is required")
    return ExperimentConfig(_resolve(sections))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file, materializing all defaults."""
    parser = configparser.ConfigParser(strict=True, interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return _parse_sections({sec: dict(parser.items(sec)) for sec in parser.sections()})


def _as_text(value) -> str:
    """A resolved value spelled as a configuration file spells it; floats
    keep every digit."""
    if isinstance(value, list):
        return ", ".join(map(repr, value))
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def config_from_manifest(path) -> ExperimentConfig:
    """Rebuild the resolved configuration stored in a run manifest.

    The stored values go through the same parsing and validation as a
    configuration file, so a manifest written under another schema fails
    with :class:`ConfigError` instead of running something else."""
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle)["config"]
    missing = [f"[{sec}] {key}" for sec, keys in SCHEMA.items() for key in keys
               if key not in stored.get(sec, {})]
    if missing:
        raise ConfigError(f"manifest {path} lacks {', '.join(missing)}")
    return _parse_sections({sec: {key: _as_text(value) for key, value in keys.items()}
                            for sec, keys in stored.items()})


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
    if model == "source1d":
        domain = build_domain(1, [10.0], n)
        solver = SourceProblem1D(domain)
        obs = point_observations(domain, obs_cfg["n_obs"], obs_cfg["gamma_scale"])
    else:
        domain = build_domain(2, [6.0, 6.0], [n, n])
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
        kappa = level_set_map(u, _level_set_spec(config))
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
    spec = ChannelSpec(*d, log_kappa_inside=log_in, log_kappa_outside=log_out)
    log_kappa = channel_map(spec, setup.domain)
    return TruthBundle(field=log_kappa, pde_field=exp_map(log_kappa),
                       hypers={"alpha1": a1, "tau1": t1, "alpha2": a2, "tau2": t2,
                               **{f"d{i}": float(v) for i, v in enumerate(d, start=1)}})


def _level_set_spec(config: ExperimentConfig) -> LevelSetSpec:
    ls = config["level_set"]
    return LevelSetSpec(kappa_minus=ls["kappa_minus"], kappa_plus=ls["kappa_plus"],
                        threshold=ls["threshold"])


def _noncentered_map(config: ExperimentConfig, basis: SpectralBasis,
                     kind: str) -> NoncenteredMap:
    """The non-centered transform T for a "scalar" (alpha, tau), a
    "field-gauss" or a "field-cauchy" hyperprior."""
    scaling = config["grid"]["coordinate_scaling"]
    if kind == "scalar":
        p = config["prior"]
        hyper = HyperPrior(kind="uniform-scalar", bounds=(p["alpha_bounds"], p["tau_bounds"]),
                           names=("alpha", "tau"))
        return NoncenteredMap(basis=basis, hyper=hyper, scaling=scaling,
                              base_sigma2=p["sigma2"], base_mean=p["mean"])
    fh = config["field_hyper"]
    floor = fh["g_floor_frac"] * max(basis.domain.extents)
    cap = fh["g_cap_frac"] * max(basis.domain.extents)
    if kind == "field-gauss":
        hyper = HyperPrior(kind="gaussian-field",
                           field_spec=MaternSpec(alpha=fh["v_alpha"], tau=fh["v_tau"],
                                                 sigma2=fh["v_sigma2"], mean=fh["v_mean"]),
                           g=GMap("exp", floor=floor, cap=cap))
    else:
        hyper = HyperPrior(kind="cauchy-process", cauchy_delta=fh["cauchy_delta"],
                           g=GMap("rational", tuple(fh["g_rational_params"]),
                                  floor=floor, cap=cap))
    return NoncenteredMap(basis=basis, hyper=hyper, scaling=scaling,
                          nonstationary_alpha=fh["nonstationary_alpha"])


# ---------------------------------------------------------------------------
# parameterization wiring


@dataclass
class Parameterization:
    """Packed-state layout plus all maps the runner needs."""

    layout: PackingLayout
    forward: CompositeForward
    sample_initial: object     # rng -> (dim, J) matrix
    decode_report: object      # member -> reporting-scale field values
    hyper_means: object | None  # members -> dict of ensemble means

    def mean_report_field(self, members: np.ndarray) -> np.ndarray:
        fields = np.stack([self.decode_report(members[:, j])
                           for j in range(members.shape[1])])
        return fields.mean(axis=0)


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
    members hold N(0, 1) latents, which the Matern square root and the
    normal-quantile bijection map to natural units.  The field-valued
    variants hold white noise and the latents of their NoncenteredMap.
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
        ncm = _noncentered_map(config, basis, par.removeprefix("noncentered-"))
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

    def scalars(packed, packed_bounds):
        """Bounded scalars of one member in natural units."""
        return unconstrained_to_hyper(packed, packed_bounds) if noncentered else packed

    def unmapped(member) -> Field:
        """The member's field before the coefficient map: u, or log kappa
        inside and outside the channel."""
        if field_valued:
            return ncm.transform(member[sl["xi"]], member[sl["hyper"]])
        if noncentered:
            theta = scalars(member[sl["hyper"]], bounds)
            us = [matern(f, theta[2 * i:2 * i + 2], member[sl[f.name]])
                  for i, f in enumerate(fields)]
        else:
            us = [Field(domain, member[sl[f.name]]) for f in fields]
        if geometry is None:
            return us[0]
        d = scalars(member[sl["geom"]], geometry)
        return channel_map(ChannelSpec(*d, log_kappa_inside=us[1], log_kappa_outside=us[0]),
                           domain)

    if cmap == "level-set":
        spec = _level_set_spec(config)
        decode = lambda m: level_set_map(unmapped(m), spec)
        decode_report = lambda m: np.log(decode(m).values)
    else:
        positive = (lambda u: u) if cmap == "identity" else exp_map
        decode = lambda m: positive(unmapped(m))
        decode_report = lambda m: unmapped(m).values

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
        ncm = _noncentered_map(config, basis, config["prior"]["plain_prior"])

        def sample_initial(rng):
            theta_raw = ncm.sample_hyper_latents(rng)
            return np.stack([ncm.transform(white_noise(domain, rng), theta_raw).values
                             for _ in range(J)], axis=1)
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
        theta = ensemble_mean(members[sl["hyper"]], bounds)
        out = dict(zip([n for f in fields for n in f.hyper_names], map(float, theta)))
        if geometry is not None:
            d = ensemble_mean(members[sl["geom"]], geometry)
            out.update({f"d{i}": float(v) for i, v in enumerate(d, start=1)})
        return out

    return Parameterization(
        layout=layout, forward=CompositeForward(decode=decode, solver=setup.solver.solve,
                                                obs=obs),
        sample_initial=sample_initial, decode_report=decode_report,
        hyper_means=hyper_means if bounded else None)


# ---------------------------------------------------------------------------
# metrics and file formats


def compute_metrics(mean_field: Field, truth: Field, obs: ObservationModel,
                    outputs: np.ndarray) -> tuple[float, float]:
    """Relative grid-L2 error of the mean field and whitened misfit of the
    mean forward output."""
    truth_norm = truth.norm()
    if truth_norm == 0.0:
        raise ValueError("truth field has zero norm")
    rel = truth.domain.norm(mean_field.values - truth.values) / truth_norm
    misfit = obs.whitened_misfit(obs.y - np.asarray(outputs).mean(axis=1))
    return float(rel), float(misfit)


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
    """Read a field file back to an array of its stored shape."""
    with open(path, "rb") as handle:
        header = np.frombuffer(handle.read(24), dtype=FIELD_MAGIC_DTYPE)
        dim, n1, n2 = (int(v) for v in header)
        data = np.frombuffer(handle.read(), dtype=FIELD_VALUE_DTYPE)
    shape = (n1,) if dim == 1 else (n1, n2)
    if data.size != n1 * n2:
        raise ValueError(f"field file {path} is truncated")
    return data.reshape(shape)


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
    controls = _controls_from(config)

    # run_inversion asks for the error of every recorded iterate exactly
    # once, so the mean field it decodes is also the one the files keep
    mean_history: list[np.ndarray] = []

    def error_fn(members_now):
        mean_history.append(param.mean_report_field(members_now))
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


def _controls_from(config: ExperimentConfig) -> EkiControls:
    eki = config["eki"]
    return EkiControls(rho=eki["rho"], zeta=eki["zeta"], upsilon0=eki["upsilon0"],
                       max_outer_iterations=eki["max_outer_iterations"],
                       max_doublings=eki["max_doublings"],
                       perturb_observations=eki["perturb_observations"],
                       per_member_upsilon=eki["per_member_upsilon"])


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
        domain = build_domain(1, [10.0], config["grid"]["n_cells"])
        basis = dirichlet_spectrum(domain)
        ncm = _noncentered_map(config, basis, mode)
        for s in range(sp["n_samples"]):
            theta_raw = ncm.sample_hyper_latents(rng)
            v = ncm.hyper_field(theta_raw)
            ell = ncm.length_scale(theta_raw)
            u = ncm.transform(white_noise(domain, rng), theta_raw)
            write_grid_csv(f"{mode}_v_s{s}.csv", domain, v.values)
            write_grid_csv(f"{mode}_ell_s{s}.csv", domain, ell.values)
            write_grid_csv(f"{mode}_u_s{s}.csv", domain, u.values)
    return written
