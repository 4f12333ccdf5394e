import numpy as np
import pytest
import scipy.sparse.linalg

from ekinv import multigrid
from ekinv.forward import CompositeForward, DarcyProblem, ForwardError, mollified_observations
from ekinv.grid import Field, build_domain, dirichlet_spectrum, white_noise
from ekinv.param_maps import (
    LevelSetSpec,
    channel_map,
    constant_channel_spec,
    exp_map,
    level_set_map,
)
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
        return level_set_map(u, LevelSetSpec(kappa_minus=1.0, kappa_plus=10.0))
    spec = constant_channel_spec(CHANNEL, np.exp(4.0), np.exp(1.0), domain)
    return exp_map(channel_map(spec, domain))


def problem(domain, bc):
    if bc == "paper":
        return DarcyProblem(domain)
    return DarcyProblem(domain, bc="dirichlet",
                        dirichlet_fn=lambda x, y: 1.0 + x - 0.3 * y * y,
                        source_fn=lambda x, y: np.cos(x) * np.sin(y))


def splu_pressure(darcy, kappa):
    """The assembled system factorized directly: the reference solution."""
    A, rhs = darcy.assemble(kappa)
    full = np.array(darcy._dirichlet)
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


def test_member_alone_equals_member_in_a_chunk():
    domain = build_domain(2, [6.0, 6.0], [32, 32])
    darcy = DarcyProblem(domain)
    kappas = [coefficient(domain, kind, seed) for seed, kind in
              enumerate(["lognormal", "level-set", "channel", "lognormal", "level-set"])]
    together = darcy.solve(kappas)
    assert len(together) == len(kappas)
    # a member that kept iterating until its whole chunk converged would
    # move by about 4e-13 here
    for kappa, in_chunk in zip(kappas, together):
        alone = darcy.solve(kappa).values
        assert np.linalg.norm(in_chunk.values - alone) <= 1e-14 * np.linalg.norm(alone)


def test_stencil_matches_assembled_matrix():
    domain = build_domain(2, [6.0, 6.0], [12, 9])
    darcy = DarcyProblem(domain)
    kappa = coefficient(domain, "level-set")
    knode = darcy.node_kappa(kappa)[None]
    tx, ty = darcy._faces(knode)
    x = np.random.default_rng(1).standard_normal(knode.shape) * darcy._unknown
    A, _ = darcy.assemble(kappa)
    np.testing.assert_allclose(multigrid.apply(tx, ty, x)[0][darcy._unknown],
                               A @ x[0][darcy._unknown], rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("shape", [(8, 8), (12, 7), (9, 15)])
def test_vcycle_is_symmetric_positive_definite(shape):
    # conjugate gradients needs a symmetric positive definite preconditioner
    n1, n2 = shape
    rng = np.random.default_rng(2)
    tx = np.exp(rng.standard_normal((1, n1, n2 + 1)))
    ty = np.exp(rng.standard_normal((1, n1 + 1, n2)))
    unknown = np.ones((n1 + 1, n2 + 1), dtype=bool)
    unknown[:, 0] = False
    levels, coarsest = multigrid._hierarchy(tx, ty, unknown)
    assert levels
    ids = np.flatnonzero(unknown)
    M = np.empty((ids.size, ids.size))
    for col, k in enumerate(ids):
        e = np.zeros((1, n1 + 1, n2 + 1))
        e.flat[k] = 1.0
        M[:, col] = multigrid._vcycle(levels, coarsest, e).ravel()[ids]
    assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
    assert np.linalg.eigvalsh(M).min() > 0


def test_zero_right_hand_side_returns_zero():
    tx = np.ones((2, 6, 7))
    ty = np.ones((2, 7, 6))
    unknown = np.ones((7, 7), dtype=bool)
    unknown[:, 0] = False
    b = np.zeros((2, 7, 7))
    b[1, 3, 3] = 1.0
    x = multigrid.solve(tx, ty, b, unknown)
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
        multigrid.solve(tx, ty, b, unknown)
    assert (info.value.index, info.value.iterations) == (1, 1)
    assert info.value.residual > multigrid.TOLERANCE
    assert "within 1 iterations" in str(info.value)


def test_forward_error_names_member_and_phase():
    domain = build_domain(2, [6.0, 6.0], [16, 16])
    darcy = DarcyProblem(domain)
    obs = mollified_observations(domain, 2, sigma=0.5)

    def failing_solver(fields):
        if len(fields) > 1 and fields[0].values[0] == 4.0:
            raise multigrid.ConvergenceError(1, 100, 3e-7)
        return darcy.solve(fields)

    fwd = CompositeForward(decode=lambda m: Field(domain, np.full(domain.n_interior, m[0])),
                           solver=failing_solver, obs=obs)
    fwd.chunk = 3
    members = np.arange(1.0, 9.0)[None, :]   # chunks {1, 2, 3}, {4, 5, 6}, {7, 8}
    with pytest.raises(ForwardError, match=r"^member 4, solve: MG-PCG did not converge "
                                           r"within 100 iterations"):
        fwd(members)

    members[0, 6] = -1.0
    fwd.solver = darcy.solve
    with pytest.raises(ForwardError, match=r"^members 6-7, solve: conductivity"):
        fwd(members)

    fwd.decode = lambda m: exp_map(Field(domain, np.full(domain.n_interior, m[0])))
    members[0, 6] = 701.0
    with pytest.raises(ForwardError, match=r"^member 6, decode: exp map"):
        fwd(members)
