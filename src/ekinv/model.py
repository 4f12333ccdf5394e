"""The model set-up, the synthetic truth and the parameterizations.

:func:`build_model_setup` builds the grid, the solver and the observation
functionals of the configured model problem; :func:`make_truth` draws the
truth from them; :func:`build_parameterization` wires the configured
parameterization and coefficient map into the packed-state layout, the
batched decoder and the composite forward map that the runner
(:mod:`ekinv.harness`) iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, model_domain, observation_model
from .composite import CompositeForward, DecodedBlock, add_rows
from .eki import PackingLayout
from .forward import DarcyProblem, ObservationModel, SourceProblem1D
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
