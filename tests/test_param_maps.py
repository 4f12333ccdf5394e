import numpy as np
import pytest

from ekinv.grid import Field, build_domain, dirichlet_spectrum
from ekinv.param_maps import (
    KAPPA_MINUS,
    KAPPA_PLUS,
    NoncenteredMap,
    channel_values,
    exp_map,
    level_set_values,
    noncentered_matern,
)
from ekinv.priors import MaternSpec, apply_sqrt_cov


@pytest.fixture(scope="module")
def square():
    return build_domain(2, [1.0, 1.0], [100, 100])


def field_of(domain, values):
    return Field(domain, np.broadcast_to(values, (domain.n_interior,)).copy())


# ---------------------------------------------------------------------------
# level set


def test_level_set_constant_positive(square):
    kappa = level_set_values(field_of(square, 1.0).values)
    np.testing.assert_array_equal(kappa, KAPPA_PLUS)


def test_level_set_zero_goes_to_minus(square):
    kappa = level_set_values(field_of(square, 0.0).values)
    np.testing.assert_array_equal(kappa, KAPPA_MINUS)


def test_level_set_checkerboard_measure(square):
    rng = np.random.default_rng(8)
    u = Field(square, np.where(rng.uniform(size=square.n_interior) < 0.5, -1.0, 1.0))
    kappa = level_set_values(u.values)
    assert np.count_nonzero(kappa == KAPPA_PLUS) == np.count_nonzero(u.values > 0)
    assert set(np.unique(kappa)) == {KAPPA_MINUS, KAPPA_PLUS}


def test_level_set_invariant_under_positive_rescaling(square):
    rng = np.random.default_rng(1)
    u = Field(square, rng.standard_normal(square.n_interior))
    base = level_set_values(u.values)
    for c in (0.01, 3.0, 1e6):
        np.testing.assert_array_equal(level_set_values(c * u.values), base)


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


def channel_mask(d, domain):
    """The channel region of geometry ``d`` on the interior grid."""
    return channel_values(np.asarray(d), True, False, domain).reshape(domain.interior_shape)


def test_channel_horizontal_band(square):
    mask = channel_mask([0.0, 1.0, 0.0, 0.5, 0.1], square)
    area = np.count_nonzero(mask) * square.node_measure
    assert area == pytest.approx(0.2, abs=2 * square.h[1])
    # band is 0.4 < t < 0.6 for every s
    _, x2 = square.interior_meshgrid()
    assert np.array_equal(mask, np.abs(x2 - 0.5) < 0.1)


def test_channel_covering_case(square):
    out = channel_values(np.array([0.0, 1.0, 0.0, 0.5, 2.0]), np.log(4.0), 0.0, square)
    np.testing.assert_allclose(out, np.log(4.0))


def test_channel_empty_warns(square):
    with pytest.warns(UserWarning):
        out = channel_values(np.array([0.0, 1.0, 0.0, 50.0, 0.01]), np.log(4.0), 0.0, square)
    np.testing.assert_allclose(out, 0.0)


def test_channel_two_values_for_constant_fields(square):
    d = np.array([0.3, 5.0, 0.7, 0.2, 0.15])
    values = set(np.unique(channel_values(d, np.log(4.0), np.log(1.5), square)))
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
        frac = np.count_nonzero(channel_mask(rng.uniform(lows, highs), domain)) / domain.n_interior
        interior += 0.0 < frac < 1.0
    assert interior >= 0.99 * n_draws


# ---------------------------------------------------------------------------
# non-centered transform


SCALAR_BOUNDS = ((1.3, 4.0), (5.0, 30.0))


@pytest.fixture(scope="module")
def scalar_basis():
    return dirichlet_spectrum(build_domain(1, [1.0], 32))


def test_noncentered_zero_noise_gives_mean(scalar_basis):
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = noncentered_matern(scalar_basis, np.zeros(scalar_basis.n_modes),
                               rng.standard_normal(2), SCALAR_BOUNDS, 1.0, 2.5)
        np.testing.assert_allclose(u, 2.5, atol=1e-14)


def test_noncentered_deterministic(scalar_basis):
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(scalar_basis.n_modes)
    theta = rng.standard_normal(2)
    a = noncentered_matern(scalar_basis, xi, theta, SCALAR_BOUNDS, 1.0, 2.5)
    b = noncentered_matern(scalar_basis, xi, theta, SCALAR_BOUNDS, 1.0, 2.5)
    np.testing.assert_array_equal(a, b)


def test_noncentered_escapes_fixed_span(scalar_basis):
    # varying theta with fixed xi leaves the span of fields built at other
    # theta values: nonzero least-squares projection residual
    def zero_mean(xi, theta):
        return noncentered_matern(scalar_basis, xi, theta, SCALAR_BOUNDS, 1.0, 0.0)

    xi = np.random.default_rng(21).standard_normal(scalar_basis.n_modes)
    thetas = [(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]
    fields = np.stack([zero_mean(xi, np.array(t)) for t in thetas])
    probe = zero_mean(xi, np.array([0.3, -0.7]))
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
    ncm = NoncenteredMap(basis, "field-gauss")
    assert ncm.n_hyper == basis.n_modes
    rng = np.random.default_rng(6)
    u = ncm.realize(rng.standard_normal(basis.n_modes),
                    rng.standard_normal(basis.n_modes))
    assert np.all(np.isfinite(u)) and basis.domain.norm(u) > 0


def test_noncentered_map_rejects_an_unknown_kind():
    basis = dirichlet_spectrum(build_domain(1, [10.0], 100))
    with pytest.raises(ValueError, match="must be 'field-gauss' or 'field-cauchy', "
                                         "got 'field-gaus'"):
        NoncenteredMap(basis, "field-gaus")


def test_noncentered_field_cauchy_kind():
    basis = dirichlet_spectrum(build_domain(1, [10.0], 100))
    ncm = NoncenteredMap(basis, "field-cauchy")
    assert ncm.n_hyper == 19
    rng = np.random.default_rng(6)
    u = ncm.realize(rng.standard_normal(basis.n_modes), rng.standard_normal(19))
    assert np.all(np.isfinite(u))
    # zero latents: v = 0 path, rational g capped, still finite
    u0 = ncm.realize(rng.standard_normal(basis.n_modes), np.zeros(19))
    assert np.all(np.isfinite(u0))
