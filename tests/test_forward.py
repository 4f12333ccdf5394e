import numpy as np
import pytest
import scipy.linalg

from ekinv.grid import Field, build_domain, check_members, dirichlet_spectrum
from ekinv.forward import (
    CompositeForward,
    DarcyProblem,
    DecodedBlock,
    ForwardError,
    ObservationModel,
    SourceProblem1D,
    mollified_observations,
    observe,
    point_observations,
    synthesize_data,
)
from ekinv.param_maps import exp_values, noncentered_matern


def const_field(domain, value=1.0):
    return Field(domain, np.full(domain.n_interior, value))


# ---------------------------------------------------------------------------
# Darcy solver


def test_darcy_exact_on_linear_solution():
    domain = build_domain(2, [6.0, 6.0], [20, 20])
    problem = DarcyProblem(domain, bc="dirichlet",
                           dirichlet_fn=lambda x, y: x + y,
                           source_fn=lambda x, y: np.zeros_like(x))
    p = problem.solve(const_field(domain))
    x1, x2 = domain.interior_meshgrid()
    np.testing.assert_allclose(p.grid, x1 + x2, atol=1e-10)


def darcy_sine_error(n):
    domain = build_domain(2, [6.0, 6.0], [n, n])
    exact = lambda x, y: np.sin(np.pi * x / 6) * np.sin(np.pi * y / 6)
    problem = DarcyProblem(domain, bc="dirichlet", dirichlet_fn=exact,
                           source_fn=lambda x, y: (2 * np.pi**2 / 36) * exact(x, y))
    p = problem.solve(const_field(domain))
    x1, x2 = domain.interior_meshgrid()
    return domain.norm(p.grid - exact(x1, x2)) / domain.norm(exact(x1, x2))


def test_darcy_second_order_convergence():
    e1, e2 = darcy_sine_error(24), darcy_sine_error(48)
    assert np.log2(e1 / e2) == pytest.approx(2.0, abs=0.1)


def test_darcy_conservation_paper_bcs():
    domain = build_domain(2, [6.0, 6.0], [30, 30])
    problem = DarcyProblem(domain)
    out, supplied = problem.boundary_flux_balance(const_field(domain))
    assert abs(out - supplied) < 1e-8 * abs(supplied)


def test_darcy_conservation_heterogeneous():
    domain = build_domain(2, [6.0, 6.0], [24, 24])
    problem = DarcyProblem(domain)
    rng = np.random.default_rng(3)
    kappa = Field(domain, np.exp(rng.standard_normal(domain.n_interior)))
    out, supplied = problem.boundary_flux_balance(kappa)
    assert abs(out - supplied) < 1e-8 * abs(supplied)


def test_darcy_fixed_flux_scales_inversely_with_kappa():
    # f = 0, prescribed flux: (p - 100) is linear in 1/kappa
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    problem = DarcyProblem(domain, source_fn=lambda x, y: np.zeros_like(x))
    rng = np.random.default_rng(7)
    kappa = Field(domain, np.exp(0.3 * rng.standard_normal(domain.n_interior)))
    p1 = problem.solve(kappa).values
    for c in (0.5, 4.0):
        pc = problem.solve(Field(domain, c * kappa.values)).values
        np.testing.assert_allclose(pc - 100.0, (p1 - 100.0) / c, atol=1e-8 * np.max(np.abs(p1)))


def test_darcy_rejects_nonpositive_kappa():
    domain = build_domain(2, [6.0, 6.0], [8, 8])
    problem = DarcyProblem(domain)
    bad = const_field(domain)
    bad.values[3] = 0.0
    with pytest.raises(ValueError):
        problem.solve(bad)


def test_darcy_paper_pressure_scale():
    # bottom held at 100, inward flux on the left: pressure stays above 100
    domain = build_domain(2, [6.0, 6.0], [30, 30])
    p = DarcyProblem(domain).solve(const_field(domain))
    assert p.values.min() > 99.0
    assert p.values.max() > 100.0


# ---------------------------------------------------------------------------
# 1D source solver


def source_1d_error(n):
    domain = build_domain(1, [10.0], n)
    problem = SourceProblem1D(domain)
    x = domain.interior_coords(0)
    u = Field(domain, (1 - np.pi**2 / 100) * np.sin(np.pi * x / 10))
    p = problem.solve(u)
    return domain.norm(p.values - np.sin(np.pi * x / 10)) / domain.norm(np.sin(np.pi * x / 10))


def test_source_1d_manufactured_second_order():
    e1, e2 = source_1d_error(100), source_1d_error(200)
    assert np.log2(e1 / e2) == pytest.approx(2.0, abs=0.1)


def test_source_1d_zero():
    domain = build_domain(1, [10.0], 50)
    p = SourceProblem1D(domain).solve(const_field(domain, 0.0))
    np.testing.assert_allclose(p.values, 0.0, atol=1e-14)


def test_source_1d_linearity():
    domain = build_domain(1, [10.0], 120)
    problem = SourceProblem1D(domain)
    rng = np.random.default_rng(1)
    u1 = Field(domain, rng.standard_normal(domain.n_interior))
    u2 = Field(domain, rng.standard_normal(domain.n_interior))
    lhs = problem.solve(Field(domain, u1.values + u2.values)).values
    rhs = problem.solve(u1).values + problem.solve(u2).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# observations


def test_mollified_unit_mass():
    domain = build_domain(2, [6.0, 6.0], [40, 40])
    model = mollified_observations(domain, 8, sigma=0.36)
    assert model.n_obs == 64
    np.testing.assert_allclose(observe(const_field(domain), model), 1.0, atol=1e-13)


def test_point_observation_exact_at_nodes():
    domain = build_domain(1, [10.0], 10)
    model = point_observations(domain, 4)  # centers 2, 4, 6, 8 on nodes
    rng = np.random.default_rng(0)
    p = Field(domain, rng.standard_normal(domain.n_interior))
    np.testing.assert_array_equal(observe(p, model), p.values[[1, 3, 5, 7]])


def test_point_observation_interpolates():
    domain = build_domain(1, [10.0], 100)
    model = point_observations(domain, 7)
    x = domain.interior_coords(0)
    p = Field(domain, 2.0 * x)  # linear: interpolation is exact
    np.testing.assert_allclose(observe(p, model), 2.0 * model.centers[:, 0], atol=1e-12)


def test_mollified_first_moment():
    domain = build_domain(2, [6.0, 6.0], [100, 100])
    model = mollified_observations(domain, 8, sigma=6.0 / 50)
    x1, _ = domain.interior_meshgrid()
    vals = observe(Field(domain, x1.ravel()), model)
    assert np.max(np.abs(vals - model.centers[:, 0])) < 1e-3


def test_observe_is_linear():
    domain = build_domain(2, [6.0, 6.0], [30, 30])
    model = mollified_observations(domain, 4, sigma=0.36)
    rng = np.random.default_rng(2)
    p1, p2 = rng.standard_normal((2, domain.n_interior))
    np.testing.assert_allclose(
        observe(Field(domain, 2.0 * p1 - 3.0 * p2), model),
        2.0 * observe(Field(domain, p1), model) - 3.0 * observe(Field(domain, p2), model),
        atol=1e-12)


def test_centers_outside_domain_rejected():
    from ekinv.forward import _check_centers

    domain = build_domain(1, [1.0], 10)
    with pytest.raises(ValueError):
        point_observations(domain, 0)
    for bad in (-0.5, 0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            _check_centers(domain, np.array([[bad]]))


# ---------------------------------------------------------------------------
# composite forward map


@pytest.fixture(scope="module")
def source1d_setup():
    domain = build_domain(1, [10.0], 60)
    problem = SourceProblem1D(domain)
    obs = point_observations(domain, 12)
    fwd = CompositeForward(decode_block=lambda M: DecodedBlock(domain, M.T, M.T),
                           solver=problem.solve, obs=obs)
    return domain, fwd


def test_forward_map_affine_jacobian(source1d_setup):
    domain, fwd = source1d_setup
    n = domain.n_interior
    jac = fwd(np.eye(n)) - fwd(np.zeros((n, 1)))
    rng = np.random.default_rng(5)
    u = rng.standard_normal((n, 1))
    eps = 1e-6
    fd = (fwd(u + eps * np.eye(n)) - fwd(u)) / eps
    assert np.max(np.abs(fd - jac)) < 1e-6


def test_forward_map_deterministic(source1d_setup):
    domain, fwd = source1d_setup
    rng = np.random.default_rng(8)
    X = rng.standard_normal((domain.n_interior, 2))
    X[:, 1] = X[:, 0]
    W = fwd(X)
    np.testing.assert_array_equal(W[:, 0], W[:, 1])


def test_source_solve_of_a_list_equals_solves_one_by_one():
    domain = build_domain(1, [10.0], 60)
    problem = SourceProblem1D(domain)
    rng = np.random.default_rng(12)
    fields = [Field(domain, rng.standard_normal(domain.n_interior)) for _ in range(5)]
    for u, p in zip(fields, problem.solve(fields)):
        alone = scipy.linalg.solve_banded((1, 1), problem._ab, u.values)
        assert p.values.tobytes() == alone.tobytes()
        assert problem.solve(u).values.tobytes() == alone.tobytes()


def test_decode_failure_names_the_first_failing_member():
    # the block runs each check over all its members before the next
    # check; member 2 fails only the later check, member 4 the earlier one
    domain = build_domain(1, [10.0], 10)

    def decode_block(block):
        check_members(block[0] < 10, "early check")
        check_members(block[1] < 10, "late check")
        fields = np.repeat(block[:1].T, domain.n_interior, axis=1)
        return DecodedBlock(domain, fields, fields)

    fwd = CompositeForward(decode_block, SourceProblem1D(domain).solve,
                           point_observations(domain, 3))
    members = np.zeros((2, 7))
    members[1, 2] = members[0, 4] = 99.0
    with pytest.raises(ForwardError, match=r"^member 2, decode: late check$"):
        fwd(members)
    members[1, 2] = 0.0
    with pytest.raises(ForwardError, match=r"^member 4, decode: early check$"):
        fwd(members)
    assert fwd.report_mean is None


def test_forward_map_zero_latent_equals_mean_composition():
    # zero xi with an exp parameterization reduces to observe(solve(exp(mean)))
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    basis = dirichlet_spectrum(domain)
    problem = DarcyProblem(domain)
    obs = mollified_observations(domain, 4, sigma=0.36)
    n_modes = basis.n_modes

    def decode_block(block):
        u = noncentered_matern(basis, block[:n_modes].T, block[n_modes:].T,
                               ((1.3, 4.0), (5.0, 30.0)), 1.0, 0.5, "normalized")
        return DecodedBlock(domain, exp_values(u), u)

    fwd = CompositeForward(decode_block=decode_block, solver=problem.solve, obs=obs)
    member = np.concatenate([np.zeros(n_modes), np.array([0.7, -0.2])])
    direct = observe(problem.solve(const_field(domain, np.exp(0.5))), obs)
    np.testing.assert_allclose(fwd(member[:, None])[:, 0], direct, atol=1e-12)


# ---------------------------------------------------------------------------
# data synthesis


def test_synthesize_noise_free():
    domain = build_domain(1, [10.0], 40)
    model = point_observations(domain, 10)
    truth = np.arange(10.0)
    out = synthesize_data(model, truth, np.random.default_rng(0), noise_free=True)
    np.testing.assert_array_equal(out.y, truth)
    assert out.noise_level == 0.0


def test_synthesize_deterministic():
    domain = build_domain(1, [10.0], 40)
    model = point_observations(domain, 10)
    truth = np.linspace(0, 1, 10)
    a = synthesize_data(model, truth, np.random.default_rng(123))
    b = synthesize_data(model, truth, np.random.default_rng(123))
    np.testing.assert_array_equal(a.y, b.y)
    assert a.noise_level == b.noise_level


def test_synthesize_chi_squared():
    domain = build_domain(1, [10.0], 60)
    model = point_observations(domain, 50)
    truth = np.zeros(50)
    rng = np.random.default_rng(11)
    sq = [synthesize_data(model, truth, rng).noise_level ** 2 for _ in range(10_000)]
    assert np.mean(sq) == pytest.approx(50.0, rel=0.03)


def test_whitened_misfit_matches_direct():
    domain = build_domain(1, [10.0], 40)
    model = point_observations(domain, 10, gamma_scale=1e-4)
    r = np.random.default_rng(4).standard_normal(10)
    assert model.whitened_misfit(r) == pytest.approx(np.linalg.norm(r) / 1e-2, rel=1e-12)
