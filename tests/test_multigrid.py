import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from ekinv import multigrid
from ekinv.composite import CompositeForward, DecodedBlock, ForwardError
from ekinv.config import MOLLIFIER_SIGMA_FRAC
from ekinv.forward import DarcyProblem, mollified_observations, observe
from ekinv.grid import Field, build_domain, dirichlet_spectrum, white_noise
from ekinv.param_maps import channel_values, exp_map, exp_values, level_set_values
from ekinv.priors import MaternSpec, apply_sqrt_cov

CHANNEL = np.array([0.2, 6.0, 0.6, 0.3, 0.2])


def coefficient(domain, kind, seed=0):
    """Lognormal, level-set (contrast 10) or channel (jump e^3) conductivity."""
    rng = np.random.default_rng(seed)
    u = apply_sqrt_cov(MaternSpec(alpha=2.0, tau=10.0), dirichlet_spectrum(domain),
                       white_noise(domain, rng))
    if kind == "lognormal":
        return exp_map(u)
    if kind == "level-set":
        return Field(domain, level_set_values(u.values))
    return exp_map(Field(domain, channel_values(CHANNEL, 4.0, 1.0, domain)))


def problem(domain, bc, observations=None):
    if bc == "paper":
        return DarcyProblem(domain, observations=observations)
    return DarcyProblem(domain, bc="dirichlet",
                        dirichlet_fn=lambda x, y: 1.0 + x - 0.3 * y * y,
                        source_fn=lambda x, y: np.cos(x) * np.sin(y),
                        observations=observations)


def paper_observations(domain):
    """The run's 8 x 8 mollified observations, noise variance 1e-4 (sigma 1e-2)."""
    return mollified_observations(domain, 8, MOLLIFIER_SIGMA_FRAC * max(domain.extents))


def splu_pressure(darcy, kappa):
    """The assembled system factorized directly: the reference solution."""
    A, rhs = darcy.assemble(kappa)
    full = np.array(darcy._boundary)
    full[darcy._unknown] = scipy.sparse.linalg.splu(A).solve(rhs)
    return full


@pytest.mark.parametrize("n", [8, 16, 30, 64])
@pytest.mark.parametrize("kind", ["lognormal", "level-set", "channel"])
@pytest.mark.parametrize("bc", ["paper", "dirichlet"])
def test_mg_pcg_matches_sparse_lu(bc, kind, n):
    domain = build_domain(2, [6.0, 6.0], [n, n])
    darcy = problem(domain, bc)
    kappa = coefficient(domain, kind)
    reference = splu_pressure(darcy, kappa)
    pressure = darcy.solve_full(kappa)
    assert np.linalg.norm(pressure - reference) <= 1e-8 * np.linalg.norm(reference)
    boundary = ~darcy._unknown
    np.testing.assert_array_equal(pressure[boundary], reference[boundary])


# PCG iterations of the n=64 oracle cases when this guard was written; a
# change that weakens the preconditioner fails here long before it reaches
# the 100-iteration cap
ITERATIONS_AT_64 = {("paper", "lognormal"): 10, ("paper", "level-set"): 16,
                    ("paper", "channel"): 16, ("dirichlet", "lognormal"): 10,
                    ("dirichlet", "level-set"): 13, ("dirichlet", "channel"): 14}


@pytest.mark.parametrize("bc, kind", list(ITERATIONS_AT_64))
def test_pcg_needs_no_more_iterations_than_before(monkeypatch, bc, kind):
    monkeypatch.setattr(multigrid, "MAX_ITERATIONS", ITERATIONS_AT_64[bc, kind])
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    problem(domain, bc).solve_full(coefficient(domain, kind))


def test_high_contrast_coefficient(monkeypatch):
    # a Matern field at three times unit standard deviation, exponentiated:
    # the conductivity spans a factor e^17.8 over the domain
    monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 30)
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    u = apply_sqrt_cov(MaternSpec(alpha=2.0, tau=10.0), dirichlet_spectrum(domain),
                       white_noise(domain, np.random.default_rng(3))).values
    log_kappa = 3.0 * u / u.std()
    assert np.ptp(log_kappa) > 17.5
    darcy = DarcyProblem(domain)
    kappa = Field(domain, np.exp(log_kappa))
    reference = splu_pressure(darcy, kappa)
    pressure = darcy.solve_full(kappa)
    assert np.linalg.norm(pressure - reference) <= 1e-8 * np.linalg.norm(reference)


def contrast_e26():
    """The paper boundary with a Matern field at four times unit standard
    deviation, exponentiated: the conductivity spans a factor e^26.2."""
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    u = apply_sqrt_cov(MaternSpec(alpha=2.0, tau=10.0), dirichlet_spectrum(domain),
                       white_noise(domain, np.random.default_rng(5))).values
    log_kappa = 4.0 * u / u.std()
    assert np.ptp(log_kappa) > 26.0
    return domain, Field(domain, np.exp(log_kappa))


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES FOUND, ROADMAP item 4: this pins the path without observation functionals, "
    "where multigrid.Plan.solve stops on the recursively updated residual at TOLERANCE = 1e-10; "
    "here the true |b - A p| / |b| is 4.0e-8. A direct solve reads 2.2e-8 on this case, "
    "against a float64 floor eps |A||p| / |b| of 7.6e-8, so no float64 solution can keep "
    "this promise. A DarcyProblem given its observations stops once they have settled "
    "instead (test_observed_stop_ends_at_contrast_e26)"))
def test_mg_pcg_true_residual_meets_the_tolerance_at_contrast_e26():
    domain, kappa = contrast_e26()
    darcy = DarcyProblem(domain)
    A, b = darcy.assemble(kappa)
    pressure = darcy.solve_full(kappa)
    assert np.linalg.norm(b - A @ pressure[darcy._unknown]) <= \
        multigrid.TOLERANCE * np.linalg.norm(b)


def darcy_stack(darcy, kappas):
    """Faces and right-hand side of a list of conductivities, as DarcyProblem
    writes them into the plan that solves them."""
    knode = darcy.node_kappa(np.stack([kappa.values for kappa in kappas]))
    return darcy._system(knode, multigrid.Plan(darcy._unknown, len(knode)))


def plan_of(tx, ty, unknown, b=None):
    """A plan of its own that holds a stack's faces, and its right-hand side
    if given, in any memory layout."""
    plan = multigrid.Plan(unknown, len(tx))
    plan_tx, plan_ty, plan_b = plan.inputs(len(tx))
    plan_tx[...], plan_ty[...] = tx, ty
    if b is not None:
        plan_b[...] = b
    return plan


def hierarchy(tx, ty, unknown, scale=1.0):
    """The levels, the coarsest grid and the float32 V-cycle buffers of a
    stack's faces times ``scale``."""
    return plan_of(tx, ty, unknown)._hierarchy(len(tx), scale)


def apply(tx, ty, x):
    """A x on a (B, N1, N2) stack, every node included."""
    return plan_of(tx, ty, np.ones(x.shape[1:], bool)).apply(x)


@pytest.mark.parametrize("bc", ["paper", "dirichlet"])
def test_a_stack_solves_as_its_rows_alone_through_c_ordered_node_stacks(bc, monkeypatch):
    # a (B, n_interior) array in, one row of interior pressures per member
    # out; the node stack, the x-faces and the right-hand side the solver
    # gets are C-ordered, the layout it is tuned for, and the y-faces lie in
    # the row layout of its flat faces
    domain = build_domain(2, [6.0, 6.0], [32, 24])
    darcy = problem(domain, bc)
    kappas = np.stack([coefficient(domain, kind, seed).values for seed, kind in enumerate(
        ["lognormal", "level-set", "channel"] * 2)])
    knode = darcy.node_kappa(kappas)
    assert knode.shape == (6, 33, 25) and knode.flags.c_contiguous
    for kappa, grid in zip(kappas, knode):
        np.testing.assert_array_equal(grid, darcy.node_kappa(Field(domain, kappa)))
    handed = []
    solve = multigrid.Plan.solve

    def spy(plan, B, *rest):
        handed.append(plan.inputs(B))
        return solve(plan, B, *rest)

    monkeypatch.setattr(multigrid.Plan, "solve", spy)
    pressures = darcy.solve(kappas)
    (tx, ty, b), = handed
    assert tx.flags.c_contiguous and b.flags.c_contiguous
    assert ty.shape == (6, 33, 24) and ty.strides[1:] == (25 * 8, 8)
    assert pressures.shape == kappas.shape
    for kappa, p in zip(kappas, pressures):
        assert darcy.solve(Field(domain, kappa)).values.tobytes() == p.tobytes()


@pytest.mark.parametrize("watched", [False, True], ids=["residual", "observations"])
@pytest.mark.parametrize("n", [30, 32, 64])
@pytest.mark.parametrize("bc", ["paper", "dirichlet"])
def test_member_alone_equals_member_in_a_chunk(bc, n, watched, monkeypatch):
    # bit for bit, while members leave the chunk at different iterations,
    # whether they stop on the residual or once their observations have
    # settled.  The zero right-hand side leaves before the first V-cycle, so
    # the work buffers are narrowed at once; n = 30 coarsens to odd axes,
    # which take the last-node branches of the transfers; at n = 64 the nine
    # members (38,025 nodes) make stacks of 256 KiB or more, where numpy
    # elides temporaries in whole-array expressions
    domain = build_domain(2, [6.0, 6.0], [n, n])
    darcy = problem(domain, bc, paper_observations(domain) if watched else None)
    tx, ty, b = darcy_stack(darcy, [coefficient(domain, kind, seed) for seed, kind in enumerate(
        ["lognormal", "level-set", "channel"] * 3)])
    b[2] = 0.0
    running = []   # members in each finest-level V-cycle
    vcycle = multigrid._vcycle

    def spy(levels, coarsest, rhs, work):
        if rhs.shape[1:] == b.shape[1:]:
            running.append(len(rhs))
        return vcycle(levels, coarsest, rhs, work)

    monkeypatch.setattr(multigrid, "_vcycle", spy)
    together = plan_of(tx, ty, darcy._unknown, b).solve(len(b), darcy._observed)
    assert len(set(running)) > 1
    np.testing.assert_array_equal(together[2], 0.0)
    for k in range(len(b)):
        alone = plan_of(tx[k:k + 1], ty[k:k + 1], darcy._unknown, b[k:k + 1]).solve(
            1, darcy._observed)
        np.testing.assert_array_equal(together[k], alone[0])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("kind", ["lognormal", "level-set", "channel"])
def test_observed_stop_keeps_observations_and_residual(monkeypatch, kind, n):
    # a member stopped once its observations have settled observes within a
    # hundredth of a noise standard deviation of a solve run on to
    # |r| <= 1e-13 |b|, and its true residual meets 1e-8
    domain = build_domain(2, [6.0, 6.0], [n, n])
    obs = paper_observations(domain)
    kappa = coefficient(domain, kind)
    darcy = DarcyProblem(domain, observations=obs)
    pressure = darcy.solve_full(kappa)
    A, b = darcy.assemble(kappa)
    assert np.linalg.norm(b - A @ pressure[darcy._unknown]) <= 1e-8 * np.linalg.norm(b)
    monkeypatch.setattr(multigrid, "TOLERANCE", 1e-13)
    reference = DarcyProblem(domain).solve_full(kappa)
    error = (observe(pressure[1:-1, 1:-1].ravel(), obs)
             - observe(reference[1:-1, 1:-1].ravel(), obs))
    assert np.abs(error).max() <= 1e-2 * np.sqrt(obs.gamma.diagonal().min())


def test_observed_stop_ends_at_contrast_e26():
    # where no float64 solve meets 1e-10 on the true residual, the
    # observations still settle within the iteration cap
    domain, kappa = contrast_e26()
    DarcyProblem(domain, observations=paper_observations(domain)).solve_full(kappa)


def whole_array_solve(tx, ty, b, unknown):
    """MG-PCG as whole-array expressions, a fresh array per step: the
    reference that the buffered :meth:`ekinv.multigrid.Plan.solve` matches bit
    for bit on a C-ordered b, the sums np.einsum takes included."""
    def dot(u, v):
        return np.einsum("bij,bij->b", u, v)

    bnorm = np.sqrt(dot(b, b))
    largest = np.maximum(tx.max(axis=(1, 2)), ty.max(axis=(1, 2)))
    scale = np.ldexp(1.0, -np.frexp(largest)[1])[:, None, None]
    size = np.ldexp(1.0, np.frexp(bnorm)[1])[:, None, None]
    levels, coarsest, work = hierarchy(tx, ty, unknown, scale)
    out, active = np.zeros_like(b), np.arange(len(b))
    x, r, d = np.zeros_like(b), b.copy(), np.zeros_like(b)
    rz = np.ones(len(b))
    while True:
        rnorm = np.sqrt(dot(r, r))
        done = rnorm <= multigrid.TOLERANCE * bnorm
        if done.any():
            out[active[done]] = x[done]
            keep = ~done
            active, bnorm, rz, scale, size, tx, ty, x, r, d = (
                a[keep] for a in (active, bnorm, rz, scale, size, tx, ty, x, r, d))
            if active.size == 0:
                return out
            # each member's levels are its own: those of the members left
            levels, coarsest, work = hierarchy(tx, ty, unknown, scale)
        z = scale * size * multigrid._vcycle(levels, coarsest, (r / size).astype(np.float32),
                                             work)
        rz_new = dot(r, z)
        d = z + (rz_new / rz)[:, None, None] * d
        rz = rz_new
        q = apply(tx, ty, d) * unknown
        alpha = (rz / dot(d, q))[:, None, None]
        x += alpha * d
        r -= alpha * q


def nine_members(domain):
    """Three conductivities of each kind, whose solves stop at different PCG
    iterations."""
    return np.stack([coefficient(domain, kind, seed).values for seed, kind in enumerate(
        ["lognormal", "level-set", "channel"] * 3)])


def test_a_reused_plan_gives_the_bits_of_a_fresh_solve(monkeypatch):
    # the full stack, ragged stacks in the leading views of a plan that a
    # wider stack wrote, and a single member; in each, members leave the
    # stack at different iterations and the rest move to its front
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    darcy = DarcyProblem(domain, observations=paper_observations(domain))
    kappas = nine_members(domain)
    running = []   # members in each finest-level V-cycle
    vcycle = multigrid._vcycle

    def spy(levels, coarsest, rhs, work):
        if rhs.shape[1] == 65:
            running.append(len(rhs))
        return vcycle(levels, coarsest, rhs, work)

    monkeypatch.setattr(multigrid, "_vcycle", spy)
    plan = multigrid.Plan(darcy._unknown, 9)
    for rows in (slice(0, 9), slice(3, 8), slice(2, 4), slice(4, 5), slice(0, 9)):
        knode = darcy.node_kappa(kappas[rows])
        running.clear()
        reused = darcy._pressure(knode, plan).copy()
        assert (len(set(running)) > 1) == (len(knode) > 1)
        fresh = darcy._pressure(knode, multigrid.Plan(darcy._unknown, len(knode)))
        assert reused.tobytes() == fresh.tobytes()


def test_a_second_chunk_solve_allocates_less_than_one_node_grid():
    # the plan holds every array of the solve, so a second stack of the same
    # width allocates only the observations and the coarsest grid's arrays
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    darcy = DarcyProblem(domain, observations=paper_observations(domain))
    kappas = nine_members(domain)
    first = darcy.solve(kappas)
    plan = darcy._plan(len(kappas))
    knode = darcy.node_kappa(kappas)
    tracemalloc.start()
    try:
        pressure = darcy._pressure(knode, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert darcy._plan(len(kappas)) is plan
    assert peak < knode.nbytes
    assert pressure[:, 1:-1, 1:-1].reshape(len(kappas), -1).tobytes() == first.tobytes()


LAYOUTS = {"darcy": lambda b: b, "C": np.ascontiguousarray,
           "member-fastest": np.asfortranarray}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_solve_matches_the_whole_array_loop_bit_for_bit(layout):
    # np.einsum sums in an order that follows its operands' memory layout;
    # the solve works on C-ordered stacks, so whatever layout b comes in, its
    # bits are those of the loop on the C-ordered b.  Nine members at n = 64
    # make stacks large enough for numpy to elide temporaries
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    darcy = DarcyProblem(domain)
    tx, ty, b = darcy_stack(darcy, [coefficient(domain, kind, seed) for seed, kind in
                                    enumerate(["lognormal", "level-set", "channel"] * 3)])
    given = LAYOUTS[layout](b)
    assert given.flags.c_contiguous == (layout != "member-fastest")
    x = plan_of(tx, ty, darcy._unknown, given).solve(len(b))
    reference = whole_array_solve(tx, ty, np.ascontiguousarray(b), darcy._unknown)
    assert x.flags.c_contiguous
    assert x.tobytes() == reference.tobytes()


def test_stencil_matches_assembled_matrix():
    domain = build_domain(2, [6.0, 6.0], [12, 9])
    darcy = DarcyProblem(domain)
    kappa = coefficient(domain, "level-set")
    knode = darcy.node_kappa(kappa)[None]
    tx, ty, _ = darcy._system(knode, multigrid.Plan(darcy._unknown, 1))
    x = np.random.default_rng(1).standard_normal(knode.shape) * darcy._unknown
    A, _ = darcy.assemble(kappa)
    np.testing.assert_allclose(apply(tx, ty, x)[0][darcy._unknown],
                               A @ x[0][darcy._unknown], rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("shape", [(8, 8), (12, 7), (9, 15)])
@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-14), (np.float32, 1e-6)])
def test_vcycle_is_symmetric_positive_definite(shape, dtype, rtol):
    # conjugate gradients needs a symmetric positive definite preconditioner.
    # The V-cycle is symmetric in exact arithmetic on its stored operators
    # (float64 input); solve hands it float32, where it is symmetric up to
    # float32 rounding
    n1, n2 = shape
    rng = np.random.default_rng(2)
    tx = np.exp(rng.standard_normal((1, n1, n2 + 1)))
    ty = np.exp(rng.standard_normal((1, n1 + 1, n2)))
    unknown = np.ones((n1 + 1, n2 + 1), dtype=bool)
    unknown[:, 0] = False
    levels, coarsest, work = hierarchy(tx, ty, unknown)
    assert levels
    assert {a.dtype for level in levels for a in level} | {coarsest.inverse.dtype} == {
        np.dtype(np.float32)}
    work = [multigrid._Work(*(np.zeros(a.shape, dtype) for a in w)) for w in work]
    ids = np.flatnonzero(unknown)
    M = np.empty((ids.size, ids.size))
    for col, k in enumerate(ids):
        e = np.zeros((1, n1 + 1, n2 + 1), dtype=dtype)
        e.flat[k] = 1.0
        z = multigrid._vcycle(levels, coarsest, e, work)
        assert z.dtype == dtype
        M[:, col] = z.ravel()[ids]
    assert np.abs(M - M.T).max() <= rtol * np.abs(M).max()
    assert np.linalg.eigvalsh((M + M.T) / 2).min() > 0


@pytest.mark.parametrize("power", [-140, 140])
def test_solution_does_not_depend_on_the_units_of_the_coefficient(power):
    # faces and right-hand side scaled by 2^power, far outside float32's
    # range: the same solution, bit for bit
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    darcy = DarcyProblem(domain)
    knode = darcy.node_kappa(coefficient(domain, "level-set"))[None]
    tx, ty, _ = darcy._system(knode, multigrid.Plan(darcy._unknown, 1))
    b = darcy._rhs_nodes[None] * darcy._unknown
    x = plan_of(tx, ty, darcy._unknown, b).solve(1)
    scale = 2.0 ** power
    np.testing.assert_array_equal(
        plan_of(scale * tx, scale * ty, darcy._unknown, scale * b).solve(1), x)


def test_zero_right_hand_side_returns_zero():
    tx = np.ones((2, 6, 7))
    ty = np.ones((2, 7, 6))
    unknown = np.ones((7, 7), dtype=bool)
    unknown[:, 0] = False
    b = np.zeros((2, 7, 7))
    b[1, 3, 3] = 1.0
    x = plan_of(tx, ty, unknown, b).solve(2)
    np.testing.assert_array_equal(x[0], 0.0)
    assert np.abs(x[1]).max() > 0


def test_nonconvergence_names_member_iterations_and_residual(monkeypatch):
    monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 1)
    tx = np.ones((3, 16, 17))
    ty = np.ones((3, 17, 16))
    unknown = np.ones((17, 17), dtype=bool)
    unknown[:, 0] = False
    b = np.zeros((3, 17, 17))
    b[1, 8, 8] = 1.0    # members 0 and 2 are solved before the first iteration
    with pytest.raises(multigrid.ConvergenceError) as info:
        plan_of(tx, ty, unknown, b).solve(3)
    assert (info.value.index, info.value.iterations) == (1, 1)
    assert info.value.residual > multigrid.TOLERANCE
    assert info.value.change is None
    assert "within 1 iterations (relative residual" in str(info.value)
    assert "observations" not in str(info.value)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES FOUND on the one-member rounding: from 97 nodes per side "
    "np.einsum('bij,bij->b') sums a one-member stack in another order than a stack of two "
    "or more, so a member solved alone differs in its last bits from the same member solved "
    "in a chunk"))
def test_member_alone_equals_member_in_a_chunk_at_n128():
    domain = build_domain(2, [6.0, 6.0], [128, 128])
    darcy = problem(domain, "paper", paper_observations(domain))
    tx, ty, b = darcy_stack(darcy, [coefficient(domain, kind, seed) for seed, kind in enumerate(
        ["lognormal", "level-set", "channel"])])
    together = plan_of(tx, ty, darcy._unknown, b).solve(len(b), darcy._observed)
    for k in range(len(b)):
        alone = plan_of(tx[k:k + 1], ty[k:k + 1], darcy._unknown, b[k:k + 1]).solve(
            1, darcy._observed)
        np.testing.assert_array_equal(together[k], alone[0])


@pytest.mark.parametrize("change", [None, 2.5e-3])
def test_convergence_error_survives_pickling(change):
    error = multigrid.ConvergenceError(5, 100, 3e-7, change)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is multigrid.ConvergenceError
    assert (copy.index, copy.iterations, copy.residual, copy.change) == (5, 100, 3e-7, change)
    assert str(copy) == str(error)


@pytest.mark.parametrize("cap, residual_failed", [(7, True), (8, False)])
def test_nonconvergence_names_the_stop_test_that_failed(monkeypatch, cap, residual_failed):
    # the paper lognormal case at n = 64 meets the residual test after 8
    # iterations, and its observations settle after 9
    monkeypatch.setattr(multigrid, "MAX_ITERATIONS", cap)
    domain = build_domain(2, [6.0, 6.0], [64, 64])
    darcy = DarcyProblem(domain, observations=paper_observations(domain))
    with pytest.raises(multigrid.ConvergenceError) as info:
        darcy.solve_full(coefficient(domain, "lognormal"))
    message = str(info.value)
    assert ("relative residual" in message) == residual_failed
    assert info.value.change >= multigrid.SETTLED
    assert f"observations not settled: the last change over 2 iterations is " \
           f"{info.value.change:.3e} sigma" in message


def test_forward_error_names_member_and_phase():
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    darcy = DarcyProblem(domain)
    obs = mollified_observations(domain, 2, sigma=0.5)

    def failing_solver(kappas):
        if len(kappas) > 1 and kappas[0, 0] == 4.0:
            raise multigrid.ConvergenceError(1, 100, 3e-7)
        return darcy.solve(kappas)

    def constant(block):   # one constant field per member, its first entry
        return np.repeat(block[:1].T, domain.n_interior, axis=1)

    fwd = CompositeForward(decode_block=lambda M: DecodedBlock(domain, constant(M), constant(M)),
                           solver=failing_solver, obs=obs)
    fwd.chunk = 3
    members = np.arange(1.0, 9.0)[None, :]   # chunks {1, 2, 3}, {4, 5, 6}, {7, 8}
    with pytest.raises(ForwardError, match=r"^member 4, solve: MG-PCG did not converge "
                                           r"within 100 iterations"):
        fwd(members)

    members[0, 6] = -1.0
    fwd.solver = darcy.solve
    with pytest.raises(ForwardError, match=r"^member 6, solve: conductivity must be strictly "
                                           r"positive$"):
        fwd(members)

    fwd.decode_block = lambda M: DecodedBlock(domain, exp_values(constant(M)), constant(M))
    members[0, 6] = 701.0
    with pytest.raises(ForwardError, match=r"^member 6, decode: exp map"):
        fwd(members)
