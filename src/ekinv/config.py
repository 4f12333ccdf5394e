"""Experiment configuration: the INI schema, its parsers and validation.

Configuration files are INI-style (one section per module, ``key = value``),
parsed strictly: duplicate or unknown keys are fatal, every default is
materialized into the resolved configuration, and the resolved configuration
plus the master seed determine every output byte.  A run manifest stores the
resolved configuration and is parsed back through the same checks.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass

import numpy as np

from .eki import EkiControls
from .grid import Domain, SpectralBasis, build_domain, dirichlet_spectrum
from .param_maps import LevelSetSpec, NoncenteredMap
from .priors import GMap, MaternSpec


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


def _parse_four_floats(text: str) -> tuple[float, ...]:
    values = _parse_floats(text)
    if len(values) != 4:
        raise ConfigError(f"expected four numbers, got {text!r}")
    return values


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
        "g_rational_params": (_parse_four_floats, (4.0, 0.0, 1.0, 0.0)),
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
        "channel_truth_hypers": (_parse_four_floats, (2.0, 2.8, 30.0, 10.0)),
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


def controls_from(config) -> EkiControls:
    """The EKI controls of a configuration's ``[eki]`` section.  Raises
    ValueError naming the key whose value EkiControls rejects."""
    eki = config["eki"]
    return EkiControls(rho=eki["rho"], zeta=None if eki["zeta"] == "auto" else eki["zeta"],
                       upsilon0=eki["upsilon0"],
                       max_outer_iterations=eki["max_outer_iterations"],
                       max_doublings=eki["max_doublings"],
                       perturb_observations=eki["perturb_observations"])


def model_domain(model: str, n_cells) -> Domain:
    """The box of a model problem, [0, 10] or [0, 6]^2, with n_cells per axis."""
    return build_domain(1, 10.0, n_cells) if model == "source1d" else build_domain(2, 6.0, n_cells)


def noncentered_map_from(config, basis: SpectralBasis, kind: str) -> NoncenteredMap:
    """The non-centered transform of a configuration's "field-gauss" or
    "field-cauchy" hyperprior on ``basis``."""
    fh = config["field_hyper"]
    floor, cap = (fh[key] * max(basis.domain.extents) for key in ("g_floor_frac", "g_cap_frac"))
    if kind == "field-gauss":
        v_spec = MaternSpec(fh["v_alpha"], fh["v_tau"], fh["v_sigma2"], fh["v_mean"])
        hyper = dict(g=GMap("exp", floor, cap), field_spec=v_spec)
    else:
        hyper = dict(g=GMap("rational", floor, cap, fh["g_rational_params"]),
                     cauchy_delta=fh["cauchy_delta"])
    return NoncenteredMap(basis=basis, scaling=config["grid"]["coordinate_scaling"],
                          nonstationary_alpha=fh["nonstationary_alpha"], **hyper)


def _check_values(sections: dict) -> None:
    """Build what a run builds from the [level_set], [prior], [truth] and
    [field_hyper] values, on the model's box at its coarsest grid, so that a
    value their own checks reject stops here, not midway through a run."""
    domain = model_domain(sections["experiment"]["model_problem"], 2)
    p, t = sections["prior"], sections["truth"]
    kinds = ("field-gauss", "field-cauchy") if domain.dim == 1 else ("field-gauss",)
    checks = {
        "[level_set]": lambda: LevelSetSpec(**sections["level_set"]),
        "[prior], [truth]": lambda: MaternSpec(t["alpha_true"], t["tau_true"], p["sigma2"],
                                               p["mean"]).validate(domain.dim),
        "[field_hyper]": lambda: [noncentered_map_from(sections, dirichlet_spectrum(domain), k)
                                  for k in kinds],
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

    if sections["truth"]["kind"] == "auto":
        sections["truth"]["kind"] = {
            "identity": "step-profile",
            "exp": "matern-exp",
            "level-set": "matern-threshold",
            "channel": "channel-draw",
        }[cmap]

    _check_values(sections)
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

