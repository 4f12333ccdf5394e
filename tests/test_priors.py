import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.linalg
import scipy.special
import scipy.stats

from ekinv.grid import Field, MemberError, build_domain, dirichlet_spectrum, white_noise
from ekinv.param_maps import NoncenteredMap
from ekinv.priors import (
    MaternSpec,
    apply_sqrt_cov,
    assemble_shifted_operator,
    cauchy_knot_count,
    cauchy_path,
    coefficient_scale,
    nonstationary_sqrt,
    unconstrained_to_hyper,
)


def matern_covariance(r, alpha: float, tau: float, dim: int, sigma2: float | None = None):
    """Free-space covariance of (tau^2 I - Laplace)^(-alpha) on R^d.

    Bessel-function form with smoothness nu = alpha - d/2.  When ``sigma2`` is
    omitted the variance implied by the shifted-Laplacian normalization,
    Gamma(nu) / ((4 pi)^(d/2) Gamma(alpha) tau^(2 nu)), is used.  The test
    oracle for the spectral sampler, which never evaluates it.
    """
    nu = alpha - dim / 2
    if nu <= 0:
        raise ValueError(f"alpha must exceed d/2, got alpha={alpha}, d={dim}")
    if sigma2 is None:
        sigma2 = scipy.special.gamma(nu) / (
            (4 * np.pi) ** (dim / 2) * scipy.special.gamma(alpha) * tau ** (2 * nu))
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, sigma2)
    pos = r > 0
    z = tau * r[pos]
    out[pos] = sigma2 * 2 ** (1 - nu) / scipy.special.gamma(nu) * z**nu * scipy.special.kv(nu, z)
    return out


def hyper_to_unconstrained(theta, bounds) -> np.ndarray:
    """Normal-quantile bijection from (a, b) to the real line: the inverse of
    :func:`ekinv.priors.unconstrained_to_hyper`."""
    a, b = np.asarray(bounds, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= a) or np.any(theta >= b):
        raise ValueError(f"theta must lie strictly inside the bounds, got {theta}")
    return scipy.special.ndtri((theta - a) / (b - a))


def cauchy_walk(domain, delta, rng) -> np.ndarray:
    """A Cauchy random walk: i.i.d. Cauchy(0, delta) increments at spacing delta."""
    increments = delta * rng.standard_cauchy(cauchy_knot_count(domain, delta))
    return cauchy_path(domain, delta, increments)


@pytest.fixture(scope="module")
def unit_1d():
    domain = build_domain(1, [1.0], 16)
    return domain, dirichlet_spectrum(domain)


def test_spec_validation(unit_1d):
    _, basis = unit_1d
    for bad in [MaternSpec(alpha=0.5, tau=10.0), MaternSpec(alpha=3.0, tau=0.0),
                MaternSpec(alpha=3.0, tau=-1.0)]:
        with pytest.raises(ValueError):
            coefficient_scale(bad, basis)


def test_per_member_specs_scale_each_row_as_its_own_spec(unit_1d):
    # the rows equal one spec at a time bit for bit; squaring tau as an
    # array instead of one member at a time breaks this for a few members
    _, basis = unit_1d
    rng = np.random.default_rng(3)
    alpha, tau = rng.uniform(1.3, 4.0, 3000), rng.uniform(5.0, 30.0, 3000)
    rows = coefficient_scale(MaternSpec(alpha, tau, sigma2=2.0), basis)
    assert rows.shape == (3000, basis.n_modes)
    for b in range(3000):
        alone = coefficient_scale(MaternSpec(alpha[b], tau[b], sigma2=2.0), basis)
        assert rows[b].tobytes() == alone.tobytes()

    alpha[[7, 9]] = 0.4
    with pytest.raises(MemberError, match=r"^alpha must exceed d/2 = 0.5, got 0.4$") as info:
        coefficient_scale(MaternSpec(alpha, tau), basis)
    assert info.value.index == 7
    alpha[[7, 9]], tau[[4, 8]] = 2.0, -1.0
    with pytest.raises(MemberError, match=r"^tau must be positive, got -1.0$") as info:
        coefficient_scale(MaternSpec(alpha, tau), basis)
    assert info.value.index == 4


def test_mode_variance_truth_values(unit_1d):
    # alpha=3, tau=10: variance of the first coefficient is (100 + pi^2)^-3
    _, basis = unit_1d
    s = coefficient_scale(MaternSpec(alpha=3.0, tau=10.0), basis)
    assert s[0] ** 2 == pytest.approx((100 + np.pi**2) ** -3, rel=1e-13)


def test_mode_variances_monte_carlo(unit_1d):
    _, basis = unit_1d
    spec = MaternSpec(alpha=3.0, tau=10.0)
    rng = np.random.default_rng(42)
    n_draws = 20_000
    coeffs = np.stack([basis.analysis(apply_sqrt_cov(spec, basis, white_noise(basis.domain, rng)))
                       for _ in range(n_draws)])
    expected = coefficient_scale(spec, basis) ** 2
    rel = np.abs(coeffs.var(axis=0) - expected) / expected
    assert np.max(rel) < 5 * np.sqrt(2 / n_draws)


def test_mode_variances_match_discrete_operator_oracle():
    # eigendecomposition of the discretized operator reproduces the design
    # variances up to discretization error
    from ekinv.grid import neg_laplacian

    domain = build_domain(1, [1.0], 128)
    basis = dirichlet_spectrum(domain)
    lam_disc = np.sort(np.linalg.eigvalsh(neg_laplacian(domain).toarray()))
    spec = MaternSpec(alpha=3.0, tau=10.0)
    ours = coefficient_scale(spec, basis)[:6] ** 2
    oracle = (spec.tau**2 + lam_disc[:6]) ** -spec.alpha
    np.testing.assert_allclose(ours, oracle, rtol=1e-2)


def test_larger_tau_shrinks_every_mode(unit_1d):
    _, basis = unit_1d
    for tau_lo, tau_hi in [(10.0, 25.0), (25.0, 50.0), (50.0, 100.0)]:
        lo = coefficient_scale(MaternSpec(alpha=1.6, tau=tau_lo), basis)
        hi = coefficient_scale(MaternSpec(alpha=1.6, tau=tau_hi), basis)
        assert np.all(hi < lo)


def test_zero_noise_returns_mean(unit_1d):
    _, basis = unit_1d
    spec = MaternSpec(alpha=3.0, tau=10.0, mean=2.5)
    u = apply_sqrt_cov(spec, basis, np.zeros(basis.n_modes))
    np.testing.assert_allclose(u.values, 2.5, atol=1e-14)


def test_sqrt_cov_single_mode_scaling():
    # first basis vector, alpha=1, tau -> 0: the unit box's eigenvalue pi^2
    # and the volume factor L scale the coefficient by sqrt(L)/pi
    L = 2.5
    domain = build_domain(1, [L], 32)
    basis = dirichlet_spectrum(domain)
    e1 = np.zeros(basis.n_modes)
    e1[0] = 1.0
    u = apply_sqrt_cov(MaternSpec(alpha=1.0, tau=1e-12), basis, e1)
    assert basis.analysis(u)[0] == pytest.approx(np.sqrt(L) / np.pi, rel=1e-10)


def test_sqrt_cov_linearity(unit_1d):
    _, basis = unit_1d
    spec = MaternSpec(alpha=2.0, tau=15.0)
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal((2, basis.n_modes))
    a, b = 0.7, -1.3
    lhs = apply_sqrt_cov(spec, basis, a * x1 + b * x2).values
    rhs = a * apply_sqrt_cov(spec, basis, x1).values + b * apply_sqrt_cov(spec, basis, x2).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_normalized_scaling_is_domain_size_invariant():
    # unit-square statistics transported to the physical box: the pointwise
    # variance at matching relative positions is unchanged
    spec = MaternSpec(alpha=2.0, tau=15.0)
    var = []
    for L in (1.0, 6.0):
        basis = dirichlet_spectrum(build_domain(1, [L], 40))
        s = coefficient_scale(spec, basis)
        mid = basis.domain.n_interior // 2
        phi = basis.synthesize(np.eye(basis.n_modes))   # one eigenfunction per row
        var.append(np.sum(s**2 * phi[:, mid] ** 2))
    assert var[0] == pytest.approx(var[1], rel=1e-12)


def test_matern_covariance_exponential_case():
    # d=1, alpha=1 (nu=1/2): c(r) = exp(-tau r) / (2 tau)
    tau = 7.0
    r = np.array([0.0, 0.1, 0.5])
    np.testing.assert_allclose(matern_covariance(r, 1.0, tau, 1),
                               np.exp(-tau * r) / (2 * tau), rtol=1e-12)


@pytest.mark.parametrize("alpha,tau,r", [(1.5, 10.0, 0.07), (2.0, 5.0, 0.2)])
def test_matern_covariance_against_quadrature(alpha, tau, r):
    # direct Fourier inversion of the spectral density (tau^2 + k^2)^-alpha
    oracle, _ = scipy.integrate.quad(
        lambda k: (tau**2 + k**2) ** -alpha / np.pi, 0, np.inf,
        weight="cos", wvar=r, epsabs=1e-14, epsrel=1e-12)
    assert matern_covariance(r, alpha, tau, 1) == pytest.approx(oracle, rel=1e-8)


def test_dirichlet_sampler_covariance_approaches_free_space():
    # short length scale, probes near the domain center: boundary images
    # decay.  The field on [0, 10] is the unit-box field at x / 10, so tau =
    # 100 on the unit box is tau = 10 on the box
    domain = build_domain(1, [10.0], 200)
    basis = dirichlet_spectrum(domain)
    spec = MaternSpec(alpha=1.5, tau=100.0)
    rng = np.random.default_rng(7)
    draws = np.stack([apply_sqrt_cov(spec, basis, white_noise(domain, rng)).values
                      for _ in range(40_000)])
    x = domain.interior_coords(0)
    i = int(np.argmin(np.abs(x - 5.0)))
    for lag in (0, 2, 6):
        emp = np.mean(draws[:, i] * draws[:, i + lag])
        assert emp == pytest.approx(
            float(matern_covariance((x[i + lag] - x[i]) / 10, 1.5, 100.0, 1)), rel=0.1)


# ---------------------------------------------------------------------------
# nonstationary sampling


def test_nonstationary_constant_ell_exact_algebra():
    from ekinv.grid import discrete_eigenvalue

    domain = build_domain(1, [1.0], 64)
    basis = dirichlet_spectrum(domain)
    ell0 = 0.2
    rng = np.random.default_rng(3)
    xi = white_noise(domain, rng)
    u = nonstationary_sqrt(np.full(domain.n_interior, ell0), xi, basis)
    lam_disc = np.array([discrete_eigenvalue(domain, k) for k in basis.k_indices])
    expected = ell0**0.5 / (1 + ell0**2 * lam_disc) * xi
    np.testing.assert_allclose(basis.analysis(u), expected, atol=1e-10)


def test_nonstationary_constant_ell_matches_stationary_convention():
    # beta=1 convention: variances tau^(2 alpha - d) (tau^2 + lambda)^-alpha,
    # agreement with the spectral sampler up to discretization error
    domain = build_domain(1, [1.0], 400)
    basis = dirichlet_spectrum(domain)
    ell0, alpha = 0.2, 2.0
    tau = 1 / ell0
    rng = np.random.default_rng(11)
    n_draws = 10_000
    ell = np.full(domain.n_interior, ell0)
    coeffs = np.stack([
        basis.analysis(nonstationary_sqrt(ell, white_noise(domain, rng), basis))
        for _ in range(n_draws)])
    stationary = tau ** (alpha - 0.5) * coefficient_scale(MaternSpec(alpha=alpha, tau=tau), basis)
    rel = np.abs(coeffs.var(axis=0)[:10] - stationary[:10] ** 2) / stationary[:10] ** 2
    assert np.max(rel) < 0.05


def test_nonstationary_1d_band_solve_matches_sparse_operator():
    # the 1D path builds the band of A directly; it must solve the operator
    # that assemble_shifted_operator assembles
    domain = build_domain(1, [3.0], 50)
    basis = dirichlet_spectrum(domain)
    rng = np.random.default_rng(5)
    ell = Field(domain, np.exp(rng.standard_normal(domain.n_interior)))
    xi = white_noise(domain, rng)
    A = assemble_shifted_operator(ell).tocsc()
    expected = scipy.sparse.linalg.spsolve(A, ell.values**0.5 * basis.synthesize(xi))
    u = nonstationary_sqrt(ell.values, xi, basis)
    np.testing.assert_allclose(u, expected, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        nonstationary_sqrt(np.zeros(domain.n_interior), xi, basis)


def test_nonstationary_zero_noise():
    domain = build_domain(1, [1.0], 32)
    basis = dirichlet_spectrum(domain)
    u = nonstationary_sqrt(np.full(domain.n_interior, 0.5), np.zeros(basis.n_modes), basis)
    np.testing.assert_allclose(u, 0.0, atol=1e-14)


def test_nonstationary_local_correlation_length():
    # larger ell in the right half -> larger empirical correlation length there
    domain = build_domain(1, [1.0], 300)
    basis = dirichlet_spectrum(domain)
    x = domain.interior_coords(0)
    ell = np.where(x < 0.5, 0.02, 0.1)
    rng = np.random.default_rng(19)
    draws = np.stack([nonstationary_sqrt(ell, white_noise(domain, rng), basis)
                      for _ in range(1000)])

    def correlation(i, j):
        c = np.mean(draws[:, i] * draws[:, j])
        return c / np.sqrt(np.mean(draws[:, i] ** 2) * np.mean(draws[:, j] ** 2))

    lag = int(round(0.05 / domain.h[0]))
    i_left = int(np.argmin(np.abs(x - 0.25)))
    i_right = int(np.argmin(np.abs(x - 0.75)))
    assert correlation(i_right, i_right + lag) > correlation(i_left, i_left + lag) + 0.2


def test_nonstationary_sqrt_runs_2d():
    domain = build_domain(2, [1.0, 1.0], [24, 24])
    basis = dirichlet_spectrum(domain)
    ell = np.ones(domain.n_interior)
    u = nonstationary_sqrt(ell, white_noise(domain, np.random.default_rng(0)), basis)
    assert np.all(np.isfinite(u)) and domain.norm(u) > 0


# ---------------------------------------------------------------------------
# Cauchy process


@pytest.fixture(scope="module")
def cauchy_increments():
    domain = build_domain(1, [10.0], 1000)
    delta = 0.5
    rng = np.random.default_rng(23)
    n_knots = cauchy_knot_count(domain, delta)
    knot_node = np.searchsorted(domain.interior_coords(0), np.arange(1, n_knots + 1) * delta)
    incs = []
    for _ in range(5000):
        v = cauchy_walk(domain, delta, rng)
        path = np.concatenate([[0.0], v[knot_node]])
        incs.append(np.diff(path))
    return delta, np.concatenate(incs)


def test_cauchy_path_shape_and_start():
    domain = build_domain(1, [10.0], 1000)
    v = cauchy_walk(domain, 0.5, np.random.default_rng(1))
    x = domain.interior_coords(0)
    # v(0) = 0: constant zero before the first knot
    assert np.all(v[x < 0.5] == 0.0)
    # piecewise constant between knots
    inside = (x > 1.01) & (x < 1.49)
    assert np.ptp(v[inside]) == 0.0


def test_cauchy_increment_sign_balance(cauchy_increments):
    _, incs = cauchy_increments
    n = len(incs)
    p_hat = np.mean(incs > 0)
    assert abs(p_hat - 0.5) < 4 * np.sqrt(0.25 / n)


def test_cauchy_increment_half_mass_within_delta(cauchy_increments):
    delta, incs = cauchy_increments
    p_hat = np.mean(np.abs(incs) <= delta)
    assert abs(p_hat - 0.5) < 4 * np.sqrt(0.25 / len(incs))


def test_cauchy_increment_ks(cauchy_increments):
    delta, incs = cauchy_increments
    result = scipy.stats.kstest(incs, scipy.stats.cauchy(scale=delta).cdf)
    assert result.pvalue > 0.01


def test_cauchy_heavy_tail(cauchy_increments):
    delta, incs = cauchy_increments
    p = 2 * np.arctan(0.1) / np.pi  # P(|X| > 10 delta)
    p_hat = np.mean(np.abs(incs) > 10 * delta)
    assert abs(p_hat - p) < 4 * np.sqrt(p * (1 - p) / len(incs))


# ---------------------------------------------------------------------------
# g maps


# the g maps that runs use on [0, 10]
EXP, RATIONAL = (NoncenteredMap(dirichlet_spectrum(build_domain(1, 10.0, 20)), kind).g
                 for kind in ("field-gauss", "field-cauchy"))


def test_g_exp_identity_at_zero():
    np.testing.assert_allclose(EXP(np.zeros(15)), 1.0)


def test_g_exp_monotone():
    rng = np.random.default_rng(0)
    v1 = rng.standard_normal(15)
    v2 = v1 + np.abs(rng.standard_normal(15))
    assert np.all(EXP(v1) <= EXP(v2))


def test_g_rational_arithmetic():
    # a=4, b=d=0, c=1: g(2) = 2
    np.testing.assert_allclose(RATIONAL(np.full(15, 2.0)), 2.0)


def test_g_rational_singularity_capped():
    ell = RATIONAL(np.zeros(15))
    assert np.all(ell == 100.0)  # capped at 10 * max extent


def test_g_rational_floor():
    ell = RATIONAL(np.full(15, 1e12))
    np.testing.assert_allclose(ell, 1e-6 * 10.0)  # floored


def test_g_clips_to_fractions_of_the_longest_side():
    # on a 2 x 5 box the floor and cap are 1e-6 and 10 times 5, the longer
    # side; exp(v) over- and underflows there without a warning
    g = NoncenteredMap(dirichlet_spectrum(build_domain(2, [2.0, 5.0], [6, 8])), "field-gauss").g
    ell = g(np.array([-1e3, -20.0, 0.0, 3.0, 1e3]))
    np.testing.assert_array_equal(ell, [1e-6 * 5.0, 1e-6 * 5.0, 1.0, np.exp(3.0), 10.0 * 5.0])


# ---------------------------------------------------------------------------
# uniform-prior bijections


def test_bijection_midpoint():
    theta = unconstrained_to_hyper(0.0, (5.0, 30.0))
    assert theta == pytest.approx(17.5, rel=1e-14)


def test_bijection_diverges_at_edges():
    raw8 = hyper_to_unconstrained(5.0 + 1e-8, (5.0, 30.0))
    raw12 = hyper_to_unconstrained(5.0 + 1e-12, (5.0, 30.0))
    assert raw8 < -5.0
    assert raw12 < raw8


def test_bijection_rejects_out_of_bounds():
    for theta in (5.0, 30.0, 4.0, 31.0):
        with pytest.raises(ValueError):
            hyper_to_unconstrained(theta, (5.0, 30.0))


def test_bijection_round_trip():
    rng = np.random.default_rng(2)
    bounds = (1.3, 4.0)
    theta = bounds[0] + (bounds[1] - bounds[0]) * rng.uniform(size=1000)
    back = unconstrained_to_hyper(hyper_to_unconstrained(theta, bounds), bounds)
    assert np.max(np.abs(back - theta)) < 1e-10


def test_bijection_pushes_normal_to_uniform():
    rng = np.random.default_rng(9)
    theta = unconstrained_to_hyper(rng.standard_normal(10**5), (5.0, 30.0))
    result = scipy.stats.kstest(theta, scipy.stats.uniform(loc=5.0, scale=25.0).cdf)
    assert result.pvalue > 0.01


def test_path_from_increments_matches_sampler():
    domain = build_domain(1, [10.0], 200)
    delta = 0.7
    n = cauchy_knot_count(domain, delta)
    incs = np.arange(1.0, n + 1)
    v = cauchy_path(domain, delta, incs)
    x = domain.interior_coords(0)
    expected = np.cumsum(incs)[np.minimum(np.floor(x / delta).astype(int), n) - 1]
    expected = np.where(x < delta, 0.0, expected)
    np.testing.assert_allclose(v, expected)


@pytest.mark.parametrize("n_cells", [40, (12, 10)])
def test_nonstationary_stack_solves_each_member_as_alone(n_cells):
    domain = build_domain(np.ndim(n_cells) + 1, 10.0, n_cells)
    basis = dirichlet_spectrum(domain)
    rng = np.random.default_rng(6)
    ell = np.exp(rng.uniform(-1.0, 0.5, (5, domain.n_interior)))
    xi = rng.standard_normal((5, basis.n_modes))
    stack = nonstationary_sqrt(ell, xi, basis)
    for b in range(5):
        alone = nonstationary_sqrt(ell[b], xi[b], basis)
        assert stack[b].tobytes() == alone.tobytes()

    ell[[2, 3], 0] = 0.0
    with pytest.raises(MemberError, match="strictly positive") as info:
        nonstationary_sqrt(ell, xi, basis)
    assert info.value.index == 2


def test_length_scales_of_a_stack_are_those_of_each_member():
    domain = build_domain(1, [10.0], 30)
    v = np.random.default_rng(9).normal(0.0, 3.0, (4, domain.n_interior))
    for g in (EXP, RATIONAL):
        stack = g(v)
        for b in range(4):
            assert stack[b].tobytes() == g(v[b]).tobytes()
