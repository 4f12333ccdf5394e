"""Ensemble Kalman inversion with hierarchical and geometric parameterizations."""

__version__ = "0.1.0"

from .grid import (
    Domain,
    Field,
    SpectralBasis,
    build_domain,
    dirichlet_spectrum,
    white_noise,
)
from .priors import (
    GMap,
    HyperPrior,
    MaternSpec,
    apply_nonstationary_sqrt,
    apply_sqrt_cov,
    g_map,
    hyper_to_unconstrained,
    matern_covariance,
    sample_cauchy_process,
    sample_matern,
    sample_nonstationary,
    unconstrained_to_hyper,
)
from .param_maps import (
    ChannelSpec,
    LevelSetSpec,
    NoncenteredMap,
    channel_map,
    exp_map,
    level_set_map,
)
from .forward import (
    CompositeForward,
    DarcyProblem,
    ObservationModel,
    SourceProblem1D,
    mollified_observations,
    observe,
    point_observations,
    synthesize_data,
)
from .eki import (
    EkiControls,
    Ensemble,
    InversionResult,
    IterationRecord,
    PackingLayout,
    UpsilonSearchError,
    eki_step,
    empirical_covariances,
    integrate_limit_ode,
    run_inversion,
    select_upsilon,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    compute_metrics,
    config_from_manifest,
    load_config,
    make_truth,
    read_field_file,
    run_experiment,
    sample_prior_fields,
    summarize_run,
    write_field_file,
)
