"""Experiment configuration: the INI schema, its parsers and validation.

Configuration files are INI-style (one section per module, ``key = value``),
parsed strictly: duplicate or unknown keys are fatal.  A configuration
resolves to a plain ``{section: {key: value}}`` dict with every default
materialized and every ``auto`` replaced by its value; that dict plus the
master seed determine every file a run inventories.  A run manifest stores
the dict as it is, and is parsed back through the same checks.
"""

from __future__ import annotations

import configparser
import json

import numpy as np

from .eki import EkiControls
from .forward import ObservationModel, mollified_observations, point_observations
from .grid import Domain, build_domain
from .priors import MaternSpec


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


# ---------------------------------------------------------------------------
# configuration schema


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.replace(",", " ").split())


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
    return "auto" if text.strip() == "auto" else _parse_float(text)


def parse_seed(text) -> int:
    """A master seed: a non-negative integer, as numpy's SeedSequence takes."""
    seed = int(text)
    if seed < 0:
        raise ConfigError(f"must be non-negative, got {seed}")
    return seed


def snapshot_iterations(n_records: int) -> list[int]:
    """The iterations, of a run with ``n_records`` records, whose mean field
    the run keeps: at most five, evenly spread, the first and the last
    among them."""
    if n_records <= 5:
        return list(range(n_records))
    return sorted({int(round(t)) for t in np.linspace(0, n_records - 1, 5)})


PARAMETERIZATIONS = ("plain", "centered-hier", "noncentered-hier",
                     "noncentered-field-gauss", "noncentered-field-cauchy")

SCHEMA = {
    "experiment": {
        "model_problem": (_choice("source1d", "darcy"), None),
        "parameterization": (_choice(*PARAMETERIZATIONS), "plain"),
        "coefficient_map": (_choice("auto", "identity", "exp", "level-set", "channel"), "auto"),
        "n_ensemble": (int, 200),
        "n_initializations": (int, 10),
        "master_seed": (parse_seed, 0),
        "out_dir": (str, "auto"),
    },
    "eki": {
        "rho": (_parse_float, 0.8),
        "zeta": (_float_or_auto, "auto"),
        "upsilon0": (_parse_float, 1.0),
        "max_outer_iterations": (int, 30),
    },
    "grid": {
        "n_cells": (_int_or_auto, "auto"),
    },
    "observations": {
        "n_obs": (_int_or_auto, "auto"),
        "gamma_scale": (_parse_float, 1e-4),
    },
    "prior": {
        "alpha_bounds": (_parse_bounds, (1.3, 4.0)),
        "tau_bounds": (_parse_bounds, (5.0, 30.0)),
        "sigma2": (_parse_float, 1.0),
        "mean": (_parse_float, 0.0),
        "plain_prior": (_choice("auto", "scalar", "field-gauss", "field-cauchy"), "auto"),
    },
    "truth": {
        "alpha_true": (_parse_float, 3.0),
        "tau_true": (_parse_float, 10.0),
    },
    "sample_prior": {
        "mode": (_choice("matern-tau-sweep", "matern-alpha-sweep",
                         "field-gauss", "field-cauchy"), "matern-tau-sweep"),
        "taus": (_parse_floats, (10.0, 25.0, 50.0, 100.0)),
        "alphas": (_parse_floats, (1.1, 1.3, 1.5, 1.9)),
        "n_samples": (int, 1),
        "n_cells": (int, 128),
    },
}


def controls_from(config: dict) -> EkiControls:
    """The EKI controls of a configuration's ``[eki]`` section.  Raises
    ValueError naming the key whose value EkiControls rejects."""
    eki = config["eki"]
    return EkiControls(rho=eki["rho"], zeta=None if eki["zeta"] == "auto" else eki["zeta"],
                       upsilon0=eki["upsilon0"],
                       max_outer_iterations=eki["max_outer_iterations"])


def model_domain(model: str, n_cells) -> Domain:
    """The box of a model problem, [0, 10] or [0, 6]^2, with n_cells per axis."""
    return build_domain(1, 10.0, n_cells) if model == "source1d" else build_domain(2, 6.0, n_cells)


# the alpha a tau sweep holds, and the tau an alpha sweep holds
TAU_SWEEP_ALPHA, ALPHA_SWEEP_TAU = 1.6, 15.0


def sample_prior_grid(config: dict) -> tuple[Domain, list[tuple[float, float]]]:
    """The grid ``sample-prior`` draws on and the (alpha, tau) pairs of its
    Matern sweep: the unit square, or the source1d box in the field modes,
    which sweep nothing."""
    sp = config["sample_prior"]
    if sp["mode"] in ("field-gauss", "field-cauchy"):
        return model_domain("source1d", config["grid"]["n_cells"]), []
    sweep = ([(TAU_SWEEP_ALPHA, tau) for tau in sp["taus"]] if sp["mode"] == "matern-tau-sweep"
             else [(alpha, ALPHA_SWEEP_TAU) for alpha in sp["alphas"]])
    return build_domain(2, [1.0, 1.0], sp["n_cells"]), sweep


# the mollifiers' width as a fraction of the box's longest side
MOLLIFIER_SIGMA_FRAC = 0.06


def observation_model(config: dict, domain: Domain) -> ObservationModel:
    """The observation functionals of a configuration's [observations]
    section on ``domain``: point values on the 1D box, a square lattice of
    mollifiers on the 2D one."""
    obs = config["observations"]
    if domain.dim == 1:
        return point_observations(domain, obs["n_obs"], obs["gamma_scale"])
    return mollified_observations(domain, int(round(np.sqrt(obs["n_obs"]))),
                                  MOLLIFIER_SIGMA_FRAC * max(domain.extents), obs["gamma_scale"])


def _check_values(sections: dict) -> None:
    """Build what a run builds from the configured values, so that a value
    their own checks reject stops here, not midway through a run: the grid
    and the observations as configured, the truth's (alpha, tau) and the
    prior box's lower corner in the model's dimension, and the sample-prior sweep."""
    model = sections["experiment"]["model_problem"]
    dim = model_domain(model, 2).dim
    p, t = sections["prior"], sections["truth"]

    def sample_prior():
        sp = sections["sample_prior"]
        if sp["n_samples"] < 1:
            raise ValueError(f"n_samples must be at least 1, got {sp['n_samples']}")
        for alpha, tau in sample_prior_grid(sections)[1]:   # after building the grid
            MaternSpec(alpha, tau).validate(2)

    checks = {
        "[grid]": lambda: model_domain(model, sections["grid"]["n_cells"]),
        "[observations]": lambda: observation_model(
            sections, model_domain(model, sections["grid"]["n_cells"])),
        "[prior], [truth]": lambda: MaternSpec(t["alpha_true"], t["tau_true"], p["sigma2"],
                                               p["mean"]).validate(dim),
        "[prior]": lambda: MaternSpec(p["alpha_bounds"][0], p["tau_bounds"][0]).validate(dim),
        "[sample_prior]": sample_prior,
    }
    for where, check in checks.items():
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{where} {exc}") from exc


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

    if sections["grid"]["n_cells"] == "auto":
        sections["grid"]["n_cells"] = 1000 if model == "source1d" else 600
    if sections["observations"]["n_obs"] == "auto":
        sections["observations"]["n_obs"] = 50 if model == "source1d" else 64
    if model == "darcy":
        if sections["observations"]["n_obs"] < 1:
            raise ConfigError("[observations] need at least one observation")
        root = int(round(np.sqrt(sections["observations"]["n_obs"])))
        if root * root != sections["observations"]["n_obs"]:
            raise ConfigError("darcy observations form a square lattice; "
                              "n_obs must be a perfect square")

    try:
        sections["eki"]["zeta"] = controls_from(sections).zeta_value
    except ValueError as exc:
        raise ConfigError(f"eki.{exc}") from exc

    if exp["n_ensemble"] < 2:
        raise ConfigError("experiment.n_ensemble must be at least 2")
    if exp["n_initializations"] < 1:
        raise ConfigError("experiment.n_initializations must be at least 1")

    if sections["prior"]["plain_prior"] == "auto":
        sections["prior"]["plain_prior"] = "field-gauss" if model == "source1d" else "scalar"
    if model == "darcy" and sections["prior"]["plain_prior"] == "field-cauchy":
        raise ConfigError("prior.plain_prior = field-cauchy is a one-dimensional "
                          "prior; darcy takes scalar or field-gauss")

    _check_values(sections)
    if exp["out_dir"] == "auto":
        exp["out_dir"] = f"runs/{model}-{par}-{cmap}"
    return sections


def _parse_sections(raw: dict) -> dict:
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
    return _resolve(sections)


def load_config(path) -> dict:
    """Parse and validate a configuration file into its resolved
    ``{section: {key: value}}`` dict, every default materialized."""
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
    if isinstance(value, (list, tuple)):
        return ", ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def echo(config: dict) -> str:
    """The configuration as a configuration file that loads back to it."""
    lines = []
    for sec in sorted(config):
        lines.append(f"[{sec}]")
        lines += [f"{key} = {_as_text(value)}" for key, value in sorted(config[sec].items())]
        lines.append("")
    return "\n".join(lines)


def config_from_manifest(path) -> dict:
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

