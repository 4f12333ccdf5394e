import numpy as np
import pytest

from ekinv.grid import Field, build_domain, dirichlet_spectrum, white_noise
from ekinv.param_maps import (
    ChannelSpec,
    LevelSetSpec,
    NoncenteredMap,
    channel_map,
    channel_mask,
    constant_channel_spec,
    exp_map,
    level_set_map,
)
from ekinv.priors import GMap, HyperPrior, MaternSpec, apply_sqrt_cov


@pytest.fixture(scope="module")
def square():
    return build_domain(2, [1.0, 1.0], [100, 100])


def field_of(domain, values):
    return Field(domain, np.broadcast_to(values, (domain.n_interior,)).copy())


# ---------------------------------------------------------------------------
# level set


def test_level_set_constant_positive(square):
    spec = LevelSetSpec(kappa_minus=1.0, kappa_plus=2.0)
    kappa = level_set_map(field_of(square, 1.0), spec)
    np.testing.assert_array_equal(kappa.values, 2.0)


def test_level_set_zero_goes_to_minus(square):
    spec = LevelSetSpec(kappa_minus=1.0, kappa_plus=2.0)
    kappa = level_set_map(field_of(square, 0.0), spec)
    np.testing.assert_array_equal(kappa.values, 1.0)


def test_level_set_checkerboard_measure(square):
    rng = np.random.default_rng(8)
    u = Field(square, np.where(rng.uniform(size=square.n_interior) < 0.5, -1.0, 1.0))
    spec = LevelSetSpec(kappa_minus=3.0, kappa_plus=7.0)
    kappa = level_set_map(u, spec)
    assert np.count_nonzero(kappa.values == 7.0) == np.count_nonzero(u.values > 0)
    assert set(np.unique(kappa.values)) == {3.0, 7.0}


def test_level_set_invariant_under_positive_rescaling(square):
    rng = np.random.default_rng(1)
    u = Field(square, rng.standard_normal(square.n_interior))
    spec = LevelSetSpec(kappa_minus=1.0, kappa_plus=10.0)
    base = level_set_map(u, spec).values
    for c in (0.01, 3.0, 1e6):
        np.testing.assert_array_equal(level_set_map(Field(square, c * u.values), spec).values,
                                      base)


def test_level_set_spec_validation():
    with pytest.raises(ValueError):
        LevelSetSpec(kappa_minus=0.0, kappa_plus=1.0)
    with pytest.raises(ValueError):
        LevelSetSpec(kappa_minus=2.0, kappa_plus=2.0)


# ---------------------------------------------------------------------------
# exp map


def test_exp_map_values(square):
    np.testing.assert_allclose(exp_map(field_of(square, 0.0)).values, 1.0)
    np.testing.assert_allclose(exp_map(field_of(square, np.log(4.0))).values, 4.0)


def test_exp_map_round_trip(square):
    rng = np.random.default_rng(5)
    u = Field(square, rng.standard_normal(square.n_interior))
    np.testing.assert_allclose(np.log(exp_map(u).values), u.values, atol=1e-12)


def test_exp_map_overflow_guard(square):
    with pytest.raises(ValueError):
        exp_map(field_of(square, 701.0))


# ---------------------------------------------------------------------------
# channel geometry


def test_channel_horizontal_band(square):
    spec = constant_channel_spec(np.array([0.0, 1.0, 0.0, 0.5, 0.1]),
                                 kappa_inside=4.0, kappa_outside=1.0, domain=square)
    mask = channel_mask(spec, square)
    area = np.count_nonzero(mask) * square.node_measure
    assert area == pytest.approx(0.2, abs=2 * square.h[1])
    # band is 0.4 < t < 0.6 for every s
    _, x2 = square.interior_meshgrid()
    assert np.array_equal(mask, np.abs(x2 - 0.5) < 0.1)


def test_channel_covering_case(square):
    spec = constant_channel_spec(np.array([0.0, 1.0, 0.0, 0.5, 2.0]),
                                 kappa_inside=4.0, kappa_outside=1.0, domain=square)
    out = channel_map(spec, square)
    np.testing.assert_allclose(out.values, np.log(4.0))


def test_channel_empty_warns(square):
    spec = constant_channel_spec(np.array([0.0, 1.0, 0.0, 50.0, 0.01]),
                                 kappa_inside=4.0, kappa_outside=1.0, domain=square)
    with pytest.warns(UserWarning):
        out = channel_map(spec, square)
    np.testing.assert_allclose(out.values, 0.0)


def test_channel_two_values_for_constant_fields(square):
    spec = constant_channel_spec(np.array([0.3, 5.0, 0.7, 0.2, 0.15]),
                                 kappa_inside=4.0, kappa_outside=1.5, domain=square)
    values = set(np.unique(channel_map(spec, square).values))
    assert values <= {np.log(1.5), np.log(4.0)}
    assert len(values) == 2


def test_channel_prior_box_area_fraction():
    domain = build_domain(2, [6.0, 6.0], [60, 60])
    rng = np.random.default_rng(14)
    lows = np.array([0.0, 2.0, 0.4, 0.0, 0.1])
    highs = np.array([1.0, 13.0, 1.0, 1.0, 0.3])
    interior = 0
    n_draws = 1000
    for _ in range(n_draws):
        d = rng.uniform(lows, highs)
        spec = constant_channel_spec(d, 4.0, 1.0, domain)
        frac = np.count_nonzero(channel_mask(spec, domain)) / domain.n_interior
        interior += 0.0 < frac < 1.0
    assert interior >= 0.99 * n_draws


# ---------------------------------------------------------------------------
# non-centered transform


@pytest.fixture(scope="module")
def scalar_map():
    basis = dirichlet_spectrum(build_domain(1, [1.0], 32))
    hyper = HyperPrior(kind="uniform-scalar", bounds=((1.3, 4.0), (5.0, 30.0)),
                       names=("alpha", "tau"))
    return NoncenteredMap(basis=basis, hyper=hyper, base_mean=2.5)


def test_noncentered_zero_noise_gives_mean(scalar_map):
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = scalar_map.transform(np.zeros(scalar_map.basis.n_modes),
                                 rng.standard_normal(2))
        np.testing.assert_allclose(u.values, 2.5, atol=1e-14)


def test_noncentered_deterministic(scalar_map):
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(scalar_map.basis.n_modes)
    theta = rng.standard_normal(2)
    a = scalar_map.transform(xi, theta)
    b = scalar_map.transform(xi, theta)
    np.testing.assert_array_equal(a.values, b.values)


def test_noncentered_escapes_fixed_span():
    # varying theta with fixed xi leaves the span of fields built at other
    # theta values: nonzero least-squares projection residual
    basis = dirichlet_spectrum(build_domain(1, [1.0], 32))
    hyper = HyperPrior(kind="uniform-scalar", bounds=((1.3, 4.0), (5.0, 30.0)),
                       names=("alpha", "tau"))
    zero_mean = NoncenteredMap(basis=basis, hyper=hyper)
    xi = np.random.default_rng(21).standard_normal(basis.n_modes)
    thetas = [(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]
    fields = np.stack([zero_mean.transform(xi, np.array(t)).values for t in thetas])
    probe = zero_mean.transform(xi, np.array([0.3, -0.7])).values
    coeffs, *_ = np.linalg.lstsq(fields.T, probe, rcond=None)
    residual = np.linalg.norm(probe - fields.T @ coeffs)
    assert residual > 1e-4 * np.linalg.norm(probe)


def test_noncentered_continuity_in_tau():
    basis = dirichlet_spectrum(build_domain(1, [1.0], 64))
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(basis.n_modes)

    def u_at(tau):
        return apply_sqrt_cov(MaternSpec(alpha=3.0, tau=tau), basis, xi)

    base = u_at(10.0)
    d6 = basis.domain.norm(u_at(10.0 + 1e-6).values - base.values)
    d7 = basis.domain.norm(u_at(10.0 + 1e-7).values - base.values)
    assert d6 < 1e-4
    assert 5.0 < d6 / d7 < 20.0


def test_noncentered_field_gauss_kind():
    basis = dirichlet_spectrum(build_domain(1, [10.0], 100))
    hyper = HyperPrior(kind="gaussian-field",
                       field_spec=MaternSpec(alpha=2.0, tau=5.0),
                       g=GMap("exp"))
    ncm = NoncenteredMap(basis=basis, hyper=hyper)
    assert ncm.n_hyper == basis.n_modes
    rng = np.random.default_rng(6)
    u = ncm.transform(rng.standard_normal(basis.n_modes),
                      rng.standard_normal(basis.n_modes))
    assert np.all(np.isfinite(u.values)) and u.norm() > 0


def test_noncentered_field_cauchy_kind():
    basis = dirichlet_spectrum(build_domain(1, [10.0], 100))
    hyper = HyperPrior(kind="cauchy-process", cauchy_delta=0.5,
                       g=GMap("rational", (4.0, 0.0, 1.0, 0.0)))
    ncm = NoncenteredMap(basis=basis, hyper=hyper)
    assert ncm.n_hyper == 19
    rng = np.random.default_rng(6)
    u = ncm.transform(rng.standard_normal(basis.n_modes), rng.standard_normal(19))
    assert np.all(np.isfinite(u.values))
    # zero latents: v = 0 path, rational g capped, still finite
    u0 = ncm.transform(rng.standard_normal(basis.n_modes), np.zeros(19))
    assert np.all(np.isfinite(u0.values))


def test_channel_spec_requires_matching_domains(square):
    other = build_domain(2, [1.0, 1.0], [10, 10])
    spec = constant_channel_spec(np.array([0.0, 1.0, 0.0, 0.5, 0.1]), 4.0, 1.0, other)
    with pytest.raises(ValueError):
        channel_map(spec, square)
