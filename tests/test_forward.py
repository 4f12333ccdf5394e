from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ekinv.composite import CompositeForward, DecodedBlock, ForwardError
from ekinv.eki import EkiControls, Ensemble, PackingLayout, run_inversion

from ekinv.grid import Field, build_domain, check_members, dirichlet_spectrum, white_noise
from ekinv.forward import (
    DarcyProblem,
    SourceProblem1D,
    mollified_observations,
    observe,
    point_observations,
    synthesize_data,
)
from ekinv.param_maps import exp_values, noncentered_matern
from ekinv.priors import MaternSpec, apply_sqrt_cov


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
    np.testing.assert_allclose(p.values.reshape(domain.interior_shape), x1 + x2, atol=1e-10)


def darcy_sine_error(n):
    domain = build_domain(2, [6.0, 6.0], [n, n])
    exact = lambda x, y: np.sin(np.pi * x / 6) * np.sin(np.pi * y / 6)
    problem = DarcyProblem(domain, bc="dirichlet", dirichlet_fn=exact,
                           source_fn=lambda x, y: (2 * np.pi**2 / 36) * exact(x, y))
    p = problem.solve(const_field(domain))
    x1, x2 = domain.interior_meshgrid()
    return (domain.norm(p.values.reshape(domain.interior_shape) - exact(x1, x2))
            / domain.norm(exact(x1, x2)))


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


def test_darcy_conservation_all_dirichlet():
    # the boundary data vary along every edge, so the faces between two
    # Dirichlet nodes carry flux, which must cancel in the balance
    domain = build_domain(2, [6.0, 6.0], [24, 24])
    problem = DarcyProblem(domain, bc="dirichlet",
                           dirichlet_fn=lambda x, y: 1.0 + x - 0.3 * y * y + np.sin(2 * x * y),
                           source_fn=lambda x, y: 1.0 + np.cos(x) * np.sin(y))
    kappa = Field(domain, np.exp(np.random.default_rng(5).standard_normal(domain.n_interior)))
    out, supplied = problem.boundary_flux_balance(kappa)
    assert supplied > 30.0
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


def test_source_1d_rejects_a_resonant_grid():
    # h = sqrt(2): the first discrete eigenvalue 4 / h^2 sin^2(pi / 4) is 1
    with pytest.raises(ValueError, match="resonant grid"):
        SourceProblem1D(build_domain(1, np.sqrt(8.0), 2))


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


def test_observation_builders_reject_an_empty_or_degenerate_layout():
    line, square = build_domain(1, [1.0], 10), build_domain(2, [6.0, 6.0], [8, 8])
    for build in (lambda n, gamma: point_observations(line, n, gamma),
                  lambda n, gamma: mollified_observations(square, n, 0.36, gamma)):
        with pytest.raises(ValueError, match="need at least one observation"):
            build(0, 1e-4)
        for gamma in (0.0, -1e-4, float("nan")):
            with pytest.raises(ValueError, match="gamma_scale must be positive"):
                build(2, gamma)
    for sigma in (0.0, -0.36):
        with pytest.raises(ValueError, match="mollifier sigma must be positive"):
            mollified_observations(square, 2, sigma)
    # every center lies strictly inside the box
    for domain, model in ((line, point_observations(line, 9)),
                          (square, mollified_observations(square, 3, 0.36))):
        assert np.all((model.centers > 0) & (model.centers < np.array(domain.extents)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_center_whose_kernel_holds_no_interior_node_is_named(n):
    # a kernel is empty when, along some axis, no interior node lies within
    # 6 sigma of its center's coordinate: that axis's factor row is empty
    domain = build_domain(2, [6.0, 6.0], [n, n])
    centers = mollified_observations(domain, 8, sigma=10.0).centers
    for sigma in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7):
        empty = np.zeros(len(centers), dtype=bool)
        for axis in range(2):
            dist = np.abs(domain.interior_coords(axis) - centers[:, axis:axis + 1])
            empty |= ~np.any(dist <= 6 * sigma, axis=1)
        if empty.any():
            a, b = centers[np.argmax(empty)]
            with pytest.raises(ValueError, match=rf"no interior node of the {n} x {n} grid "
                                                 rf"lies within .* center \({a:g}, {b:g}\)$"):
                mollified_observations(domain, 8, sigma)
        else:
            factors = mollified_observations(domain, 8, sigma).matrix.factors
            assert all(np.all(np.isfinite(f)) for f in factors)


def dense_disk_observations(domain, n_per_axis, sigma):
    """The dense (n^2, n_interior) matrix that observed Darcy pressures
    before the per-axis factors: each 2D Gaussian cut at a disk of radius
    6 sigma and renormalized to unit discrete mass."""
    x1, x2 = domain.interior_meshgrid()
    rows = np.zeros((n_per_axis**2, domain.n_interior))
    centers = mollified_observations(domain, n_per_axis, sigma).centers
    for r, (a, b) in enumerate(centers):
        d2 = (x1 - a) ** 2 + (x2 - b) ** 2
        w = np.where(d2 <= (6 * sigma) ** 2, np.exp(-d2 / (2 * sigma**2)), 0.0)
        rows[r] = (w / w.sum()).ravel()
    return rows


def high_contrast_pressure(domain, seed):
    """Interior pressure under an exponentiated Matern field at three times
    unit standard deviation."""
    u = apply_sqrt_cov(MaternSpec(alpha=2.0, tau=10.0), dirichlet_spectrum(domain),
                       white_noise(domain, np.random.default_rng(seed))).values
    return DarcyProblem(domain).solve(Field(domain, np.exp(3.0 * u / u.std()))).values


def test_mollified_observations_equal_their_kronecker_matrix():
    domain = build_domain(2, [6.0, 4.0], [24, 18])   # unequal axes
    model = mollified_observations(domain, 5, sigma=0.3)
    kx, ky = model.matrix.factors
    assert kx.shape == (5, 23) and ky.shape == (5, 17)
    assert model.matrix.shape == (25, domain.n_interior) == np.kron(kx, ky).shape
    assert model.matrix.nbytes == kx.nbytes + ky.nbytes
    p = high_contrast_pressure(domain, 0)
    expected = np.kron(kx, ky) @ p
    np.testing.assert_allclose(observe(p, model), expected, rtol=1e-14)


def test_point_observations_are_the_hat_weight_rows_product_bit_for_bit():
    domain = build_domain(1, [10.0], 137)
    model = point_observations(domain, 9)
    t = model.centers[:, 0] / domain.h[0]
    left = np.floor(t).astype(int)
    rows = np.zeros((9, 138))
    rows[np.arange(9), left] = 1.0 - (t - left)
    rows[np.arange(9), left + 1] = t - left
    p = np.random.default_rng(4).standard_normal(domain.n_interior)
    assert observe(p, model).tobytes() == (np.ascontiguousarray(rows[:, 1:-1]) @ p).tobytes()
    assert model.matrix.shape == (9, 136) and model.matrix.nbytes == 9 * 136 * 8


@pytest.mark.parametrize("dim, n", [(2, 33), (2, 64), (2, 128), (1, 40), (1, 1000)])
def test_a_stack_observes_each_row_to_its_own_bits(dim, n):
    # a chunk's solutions are observed in one call; each row must round as
    # the one-member products K P and K1 P K2^T do
    if dim == 1:
        domain = build_domain(1, [10.0], n)
        model = point_observations(domain, 50)
        (k,) = model.matrix.factors
        alone = lambda p: k @ p
    else:
        domain = build_domain(2, [6.0, 6.0], [n, n])
        model = mollified_observations(domain, 8, sigma=0.36)
        k1, k2 = model.matrix.factors
        alone = lambda p: (k1 @ p.reshape(n - 1, n - 1) @ k2.T).ravel()
    stack = np.random.default_rng(n).standard_normal((5, domain.n_interior))
    rows = [alone(p).tobytes() for p in stack]
    for together in (model.matrix @ stack, observe(stack, model)):
        assert together.shape == (5, model.n_obs)
        assert [r.tobytes() for r in together] == rows
    assert [observe(p, model).tobytes() for p in stack] == rows


@pytest.mark.parametrize("n", [64, 128])
def test_separable_observations_stay_close_to_the_dense_disk_cut_kernels(n):
    # the per-axis cut keeps a square around the old disk, and its corners
    # add weights below exp(-18); on five such pressures up to about 9e3 the
    # observations moved by at most 1.3e-7 relative when the factors came in
    domain = build_domain(2, [6.0, 6.0], [n, n])
    model = mollified_observations(domain, 8, sigma=0.36)
    dense = dense_disk_observations(domain, 8, 0.36)
    for seed in range(2):
        p = high_contrast_pressure(domain, seed)
        np.testing.assert_allclose(observe(p, model), dense @ p, rtol=1e-6)


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


def test_source_solve_of_a_stack_equals_solves_one_by_one():
    domain = build_domain(1, [10.0], 60)
    problem = SourceProblem1D(domain)
    sources = np.random.default_rng(12).standard_normal((5, domain.n_interior))
    solutions = problem.solve(sources)
    assert solutions.shape == sources.shape
    for u, p in zip(sources, solutions):
        alone = scipy.linalg.solve_banded((1, 1), problem._ab, u)
        assert p.tobytes() == alone.tobytes()
        assert problem.solve(Field(domain, u)).values.tobytes() == alone.tobytes()


def test_source_solve_of_a_stack_equals_solve_banded_bit_for_bit():
    # the oracle is the call the solve made before it called LAPACK's
    # tridiagonal solver directly: scipy.linalg.solve_banded on the stack
    for n, counts in ((40, (1, 3, 65)), (1000, (1, 3, 200))):
        domain = build_domain(1, [10.0], n)
        problem = SourceProblem1D(domain)
        ab = problem._ab.copy()
        rng = np.random.default_rng(n)
        for count in counts:
            sources = rng.standard_normal((count, domain.n_interior))
            oracle = scipy.linalg.solve_banded((1, 1), ab, np.stack(list(sources), axis=1))
            solutions = problem.solve(sources)
            assert solutions.shape == (count, domain.n_interior)
            for j, p in enumerate(solutions):
                assert p.tobytes() == oracle[:, j].tobytes()
        assert problem._ab.tobytes() == ab.tobytes()


def two_check_forward():
    """A forward map whose decode checks row 0 of every member of a block,
    then row 1, before it decodes any member."""
    domain = build_domain(1, [10.0], 10)

    def decode_block(block):
        check_members(block[0] < 10, "early check")
        check_members(block[1] < 10, "late check")
        fields = np.repeat(block[:1].T, domain.n_interior, axis=1)
        return DecodedBlock(domain, fields, fields)

    return CompositeForward(decode_block, SourceProblem1D(domain).solve,
                            point_observations(domain, 3))


def test_decode_failure_names_the_first_failing_member():
    # the block runs each check over all its members before the next
    # check; member 2 fails only the later check, member 4 the earlier one
    fwd = two_check_forward()
    members = np.zeros((2, 7))
    members[1, 2] = members[0, 4] = 99.0
    with pytest.raises(ForwardError, match=r"^member 2, decode: late check$"):
        fwd(members)
    members[1, 2] = 0.0
    with pytest.raises(ForwardError, match=r"^member 4, decode: early check$"):
        fwd(members)
    assert fwd.report_mean is None


@pytest.mark.parametrize("bad", [7, 16, 19])
def test_a_decode_failure_in_a_lazily_formed_block_names_its_member(bad):
    # run_inversion hands the forward map members formed from U_0 A; chunks
    # of 3 read blocks of 18 members, so member 7 fails inside the first
    # block, member 16 in its last chunk and member 19 in the second block
    fwd = two_check_forward()
    fwd.chunk = 3
    obs = replace(fwd.obs, y=np.zeros(3), noise_level=1.0)
    members = np.zeros((2, 20))
    members[1, bad] = 99.0
    result = run_inversion(Ensemble(members, PackingLayout((("u", 1), ("v", 1)))), fwd, obs,
                           EkiControls(), np.random.default_rng(0))
    assert result.stop_reason == "aborted"
    assert result.message == f"forward evaluation failed: member {bad}, decode: late check"


@pytest.mark.parametrize("chunk", [3, 7])
def test_a_nonpositive_conductivity_names_its_member(chunk):
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    fwd = CompositeForward(decode_block=lambda M: DecodedBlock(domain, M.T, M.T),
                           solver=DarcyProblem(domain).solve,
                           obs=mollified_observations(domain, 2, sigma=0.5))
    fwd.chunk = chunk
    members = np.ones((domain.n_interior, 7))
    members[5, 4] = 0.0
    with pytest.raises(ForwardError, match=r"^member 4, solve: conductivity must be "
                                           r"strictly positive$"):
        fwd(members)


def test_forward_map_zero_latent_equals_mean_composition():
    # zero xi with an exp parameterization reduces to observe(solve(exp(mean)))
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    basis = dirichlet_spectrum(domain)
    problem = DarcyProblem(domain)
    obs = mollified_observations(domain, 4, sigma=0.36)
    n_modes = basis.n_modes

    def decode_block(block):
        u = noncentered_matern(basis, block[:n_modes].T, block[n_modes:].T,
                               ((1.3, 4.0), (5.0, 30.0)), 1.0, 0.5)
        return DecodedBlock(domain, exp_values(u), u)

    fwd = CompositeForward(decode_block=decode_block, solver=problem.solve, obs=obs)
    member = np.concatenate([np.zeros(n_modes), np.array([0.7, -0.2])])
    direct = observe(problem.solve(const_field(domain, np.exp(0.5))), obs)
    np.testing.assert_allclose(fwd(member[:, None])[:, 0], direct, atol=1e-12)


# ---------------------------------------------------------------------------
# data synthesis


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
