import numpy as np
import pytest

from ekinv.eki import (
    EkiControls,
    Ensemble,
    PackingLayout,
    UpsilonSearchError,
    eki_step,
    run_inversion,
    select_upsilon,
)
from ekinv.forward import ObservationModel, synthesize_data


def empirical_covariances(members: np.ndarray, outputs: np.ndarray):
    """Sample covariances (C_xw, C_ww) with 1/(J-1) normalization: the
    oracle for the covariances that eki_step forms block by block."""
    X = np.asarray(members, dtype=float)
    W = np.asarray(outputs, dtype=float)
    J = X.shape[1]
    if J < 2 or W.shape[1] != J:
        raise ValueError("need matching ensembles with at least two members")
    Xc = X - X.mean(axis=1, keepdims=True)
    Ac = W - W.mean(axis=1, keepdims=True)
    return Xc @ Ac.T / (J - 1), Ac @ Ac.T / (J - 1)


def integrate_limit_ode(ensemble: Ensemble, forward_map, obs, h: float, T: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the coupled-particle continuous-time limit of the
    iteration (Upsilon^-1 = (J-1) h), the oracle for the discrete steps at
    small step sizes.

    dx_j/dt = -sum_m d(j, m) x_m with
    d(j, m) = <Gamma^-1 (G(x_j) - y), G(x_m) - mean output>.

    Returns (times, trajectory) with trajectory[i] the (dim, J) state at
    times[i].
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    y = obs.y
    gamma_inv = np.linalg.inv(obs.gamma)

    def rhs(X):
        W = forward_map(X)
        Ac = W - W.mean(axis=1, keepdims=True)
        P = gamma_inv @ (W - y[:, None])
        D = Ac.T @ P  # D[m, j] = <G(x_m) - mean, Gamma^-1 (G(x_j) - y)>
        Xc = X - X.mean(axis=1, keepdims=True)
        return -(Xc @ D)

    n_steps = int(round(T / h))
    times = h * np.arange(n_steps + 1)
    traj = np.empty((n_steps + 1,) + ensemble.members.shape)
    traj[0] = ensemble.members
    X = ensemble.members.copy()
    # overflow in the RHS is an anticipated blow-up symptom, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1 = rhs(X)
            k2 = rhs(X + 0.5 * h * k1)
            k3 = rhs(X + 0.5 * h * k2)
            k4 = rhs(X + h * k3)
            X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(X)) or np.linalg.norm(X) > 1e12:
                raise RuntimeError(
                    f"continuous-time trajectory blew up at t={times[i + 1]:.4g}")
            traj[i + 1] = X
    return times, traj


def toy_obs(n_obs, gamma_scale=1.0, y=None, noise_level=1.0):
    return ObservationModel(centers=np.linspace(0.1, 0.9, n_obs)[:, None],
                            matrix=np.eye(n_obs),
                            gamma=gamma_scale * np.eye(n_obs),
                            y=np.zeros(n_obs) if y is None else np.asarray(y, float),
                            noise_level=noise_level)


def plain_ensemble(X):
    X = np.asarray(X, dtype=float)
    return Ensemble(X, PackingLayout(blocks=(("state", X.shape[0]),)))


# ---------------------------------------------------------------------------
# covariances


def test_covariances_hand_computed():
    members = np.array([[0.0, 2.0]])
    outputs = np.array([[0.0, 4.0]])
    C_uw, C_ww = empirical_covariances(members, outputs)
    assert C_uw[0, 0] == 4.0
    assert C_ww[0, 0] == 8.0


def test_covariances_zero_spread():
    members = np.tile(np.arange(3.0)[:, None], (1, 5))
    outputs = np.tile(np.ones(2)[:, None], (1, 5))
    C_uw, C_ww = empirical_covariances(members, outputs)
    np.testing.assert_array_equal(C_uw, 0.0)
    np.testing.assert_array_equal(C_ww, 0.0)


def test_covariances_output_psd():
    rng = np.random.default_rng(0)
    members = rng.standard_normal((6, 40))
    outputs = rng.standard_normal((4, 40))
    _, C_ww = empirical_covariances(members, outputs)
    np.testing.assert_allclose(C_ww, C_ww.T, atol=1e-14)
    eig = np.linalg.eigvalsh(C_ww)
    assert eig.min() >= -1e-12 * np.linalg.norm(C_ww)


# ---------------------------------------------------------------------------
# Upsilon selection


def test_upsilon_degenerate_ensemble_returns_initial_guess():
    controls = EkiControls(rho=0.8, upsilon0=3.0)
    ups, trials = select_upsilon(np.zeros((2, 2)), np.eye(2), np.array([1.0, -2.0]), controls)
    assert ups == 3.0 and trials == 1


def test_upsilon_scalar_doubling_bound():
    # scalar algebra: the test holds iff Upsilon >= rho c / ((1 - rho) gamma)
    c, gamma, rho = 3.0, 0.5, 0.8
    bound = rho * c / ((1 - rho) * gamma)  # = 24
    controls = EkiControls(rho=rho, upsilon0=1.0)
    ups, _ = select_upsilon(np.array([[c]]), np.array([[gamma]]), np.array([5.0]), controls)
    assert ups == 32.0
    assert ups >= bound > ups / 2


def test_upsilon_monotone_in_doubling():
    rng = np.random.default_rng(6)
    controls = EkiControls(rho=0.7, upsilon0=1.0)
    for _ in range(20):
        B = rng.standard_normal((4, 4))
        C = B @ B.T
        gamma = np.diag(rng.uniform(0.5, 2.0, size=4))
        r = rng.standard_normal(4)
        lhs = controls.rho * np.sqrt(r @ np.linalg.solve(gamma, r))

        def rhs_at(u):
            x = np.linalg.solve(C + u * gamma, r)
            return u * np.sqrt(x @ gamma @ x)

        ups, _ = select_upsilon(C, gamma, r, controls)
        for k in range(1, 6):
            assert lhs <= rhs_at(ups * 2**k) * (1 + 1e-12)


def test_upsilon_search_exhaustion():
    controls = EkiControls(rho=0.999, upsilon0=1e-12, max_doublings=3)
    with pytest.raises(UpsilonSearchError):
        select_upsilon(np.array([[1e8]]), np.array([[1e-8]]), np.array([1.0]), controls)


# ---------------------------------------------------------------------------
# one analysis step


def test_step_is_fixed_point_for_zero_residuals():
    X = np.tile(np.array([1.0, -2.0])[:, None], (1, 4))
    ens = plain_ensemble(X)
    H = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]])
    obs = toy_obs(3, y=H @ X[:, 0])
    controls = EkiControls(perturb_observations=False)
    new, info = eki_step(ens, lambda M: H @ M, obs, controls, np.random.default_rng(0))
    np.testing.assert_array_equal(new.members, X)
    assert info.upsilon == controls.upsilon0


def test_step_matches_closed_form_kalman_update():
    rng = np.random.default_rng(12)
    J = 500
    X = rng.standard_normal((2, J))
    H = np.array([[1.0, 0.4], [-0.3, 1.2]])
    y = np.array([0.7, -0.4])
    obs = toy_obs(2, gamma_scale=0.05, y=y)
    # rho this small accepts the first trial, Upsilon = upsilon0
    controls = EkiControls(perturb_observations=False, rho=1e-12, upsilon0=1.0)
    new, info = eki_step(plain_ensemble(X), lambda M: H @ M, obs, controls, rng)
    assert info.upsilon == 1.0

    W = H @ X
    C_uw, C_ww = empirical_covariances(X, W)
    oracle = X + C_uw @ np.linalg.solve(C_ww + obs.gamma, y[:, None] - W)
    np.testing.assert_allclose(new.members, oracle, atol=1e-10)


def test_step_preserves_span_nonlinear():
    rng = np.random.default_rng(3)
    J, dim = 6, 20
    X0 = rng.standard_normal((dim, J))
    Q, _ = np.linalg.qr(X0)

    def forward(M):
        return np.tanh(M[:5]) + 0.1 * M[5:10] ** 2

    obs = toy_obs(5, gamma_scale=0.01, y=rng.standard_normal(5))
    controls = EkiControls()
    ens = plain_ensemble(X0)
    for _ in range(10):
        ens, _ = eki_step(ens, forward, obs, controls, rng)
    residual = ens.members - Q @ (Q.T @ ens.members)
    assert np.max(np.linalg.norm(residual, axis=0)
                  / np.linalg.norm(ens.members, axis=0)) < 1e-8


def test_step_gauge_invariance_under_permutation():
    rng = np.random.default_rng(9)
    J, dim = 8, 10
    X = rng.standard_normal((dim, J))
    M_map = rng.standard_normal((4, dim))
    obs = toy_obs(4, gamma_scale=0.1, y=rng.standard_normal(4))
    controls = EkiControls()
    perm = rng.permutation(dim)
    inv = np.argsort(perm)

    base, _ = eki_step(plain_ensemble(X), lambda M: M_map @ M, obs, controls,
                       np.random.default_rng(77))
    permuted, _ = eki_step(plain_ensemble(X[perm]), lambda M: M_map[:, perm] @ M,
                           obs, controls, np.random.default_rng(77))
    np.testing.assert_allclose(permuted.members[inv], base.members, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# full inversion loop


def linear_toy(rng, J=40, noise_level=1e-3):
    H = np.array([[1.0, 0.5], [-0.4, 1.0]])
    truth = np.array([0.6, -0.3])
    obs = toy_obs(2, gamma_scale=1e-4, y=H @ truth, noise_level=noise_level)
    X0 = truth[:, None] + rng.standard_normal((2, J))
    return plain_ensemble(X0), (lambda M: H @ M), obs


def test_inversion_misfit_decreases_monotonically():
    rng = np.random.default_rng(1)
    ens, fwd, obs = linear_toy(rng, noise_level=2e-2)
    controls = EkiControls(rho=0.8, perturb_observations=False, max_outer_iterations=60)
    result = run_inversion(ens, fwd, obs, controls, rng)
    misfits = [r.misfit for r in result.records]
    assert result.stop_reason == "discrepancy"
    assert all(b <= a + 1e-12 for a, b in zip(misfits, misfits[1:]))
    assert misfits[-1] <= controls.zeta_value * obs.noise_level


def test_inversion_stops_immediately_when_threshold_is_loose():
    rng = np.random.default_rng(2)
    ens, fwd, obs = linear_toy(rng, noise_level=1e9)
    result = run_inversion(ens, fwd, obs, EkiControls(), rng)
    assert result.stop_reason == "discrepancy"
    assert len(result.records) == 1
    assert result.records[0].iteration == 0
    assert result.records[0].upsilon is None


def test_inversion_initial_misfit_matches_independent_computation():
    rng = np.random.default_rng(5)
    ens, fwd, obs = linear_toy(rng)
    result = run_inversion(ens, fwd, obs, EkiControls(max_outer_iterations=2), rng)
    w_bar = fwd(ens.members).mean(axis=1)
    expected = np.linalg.norm((obs.y - w_bar) / np.sqrt(np.diag(obs.gamma)))
    assert result.records[0].misfit == pytest.approx(expected, rel=1e-12)


def test_inversion_max_iterations():
    rng = np.random.default_rng(3)
    ens, fwd, obs = linear_toy(rng, noise_level=1e-12)
    controls = EkiControls(max_outer_iterations=3)
    result = run_inversion(ens, fwd, obs, controls, rng)
    assert result.stop_reason == "max-iterations"
    assert result.records[-1].iteration == 3


def test_inversion_aborts_on_nonfinite_forward():
    rng = np.random.default_rng(3)
    ens, _, obs = linear_toy(rng)

    calls = {"n": 0}

    def flaky(M):
        calls["n"] += 1
        if calls["n"] > 2:
            return np.full((2, M.shape[1]), np.nan)
        return np.array([[1.0, 0.5], [-0.4, 1.0]]) @ M

    result = run_inversion(ens, flaky, obs, EkiControls(), rng)
    assert result.stop_reason == "aborted"
    assert "non-finite" in result.message


def test_inversion_reports_hooks():
    rng = np.random.default_rng(8)
    ens, fwd, obs = linear_toy(rng)
    result = run_inversion(
        ens, fwd, obs, EkiControls(max_outer_iterations=2), rng,
        error_fn=lambda M: np.linalg.norm(M.mean(axis=1)),
        hyper_means_fn=lambda M: {"alpha": float(M[0].mean())})
    for rec in result.records:
        assert rec.rel_error is not None
        assert "alpha" in rec.hyper_means


# ---------------------------------------------------------------------------
# continuous-time limit


def test_ode_constant_when_outputs_have_no_spread():
    X = np.random.default_rng(0).standard_normal((3, 5))
    obs = toy_obs(2, y=np.array([5.0, -1.0]))

    def constant_forward(M):
        return np.ones((2, M.shape[1]))

    times, traj = integrate_limit_ode(plain_ensemble(X), constant_forward, obs, 0.1, 1.0)
    np.testing.assert_array_equal(traj[-1], X)


def test_ode_preserves_span():
    rng = np.random.default_rng(7)
    X0 = rng.standard_normal((8, 4))
    Q, _ = np.linalg.qr(X0)
    H = rng.standard_normal((3, 8))
    obs = toy_obs(3, gamma_scale=0.5, y=rng.standard_normal(3))
    _, traj = integrate_limit_ode(plain_ensemble(X0), lambda M: H @ M, obs, 0.01, 0.5)
    for X in traj[:: len(traj) // 7]:
        residual = X - Q @ (Q.T @ X)
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-6 * np.linalg.norm(X)


def test_discrete_step_converges_to_ode_at_rate_h():
    rng = np.random.default_rng(10)
    J = 5
    X0 = rng.standard_normal((2, J))
    H = np.array([[1.0, 0.3], [-0.2, 0.9]])
    obs = toy_obs(2, gamma_scale=1.0, y=np.array([0.4, -0.1]))
    T = 0.5

    def discrete_final(h):
        # rho this small accepts the first trial, Upsilon = upsilon0
        upsilon = 1.0 / ((J - 1) * h)
        controls = EkiControls(perturb_observations=False, rho=1e-12, upsilon0=upsilon,
                               max_outer_iterations=10**9)
        ens = plain_ensemble(X0)
        for _ in range(int(round(T / h))):
            ens, info = eki_step(ens, lambda M: H @ M, obs, controls, rng)
            assert info.upsilon == upsilon
        return ens.members

    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        _, traj = integrate_limit_ode(plain_ensemble(X0), lambda M: H @ M, obs, h, T)
        errors.append(np.linalg.norm(discrete_final(h) - traj[-1]))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        assert e_coarse / e_fine == pytest.approx(2.0, rel=0.25)


def test_ode_blowup_detection():
    X = np.array([[1e11, -1e11], [1e11, 2e11]])
    obs = toy_obs(2, gamma_scale=1e-12, y=np.array([0.0, 0.0]))
    with pytest.raises(RuntimeError):
        integrate_limit_ode(plain_ensemble(X), lambda M: M, obs, 0.5, 50.0)


# ---------------------------------------------------------------------------
# hierarchical structure


def test_centered_hierarchy_u_block_is_bitwise_identical_to_plain():
    # forward ignores the hyper block: the state-block trajectory must match
    # the non-hierarchical run bit for bit under shared draws
    rng = np.random.default_rng(15)
    J, dim_u = 12, 7
    U0 = rng.standard_normal((dim_u, J))
    theta0 = rng.uniform(1.0, 2.0, size=(2, J))
    H = rng.standard_normal((5, dim_u))
    obs = toy_obs(5, gamma_scale=1e-3, y=rng.standard_normal(5), noise_level=1e-9)

    plain = plain_ensemble(U0.copy())
    packed = Ensemble(np.vstack([U0, theta0]),
                      PackingLayout(blocks=(("state", dim_u), ("hyper", 2))))
    controls = EkiControls(max_outer_iterations=5)

    ens_a, ens_b = plain, packed
    rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(5):
        ens_a, _ = eki_step(ens_a, lambda M: H @ M, obs, controls, rng_a)
        ens_b, _ = eki_step(ens_b, lambda M: H @ M[:dim_u], obs, controls, rng_b)
        np.testing.assert_array_equal(ens_b.members[:dim_u], ens_a.members)


def test_noncentered_step_escapes_initial_field_span():
    # after one update of (xi, theta), the realized fields T(xi, theta) leave
    # the span of the initial realized fields
    from ekinv.grid import build_domain, dirichlet_spectrum
    from ekinv.forward import CompositeForward, DecodedBlock, SourceProblem1D, point_observations
    from ekinv.param_maps import noncentered_matern

    domain = build_domain(1, [10.0], 50)
    basis = dirichlet_spectrum(domain)
    problem = SourceProblem1D(domain)
    m = basis.n_modes

    def decode_block(block):
        u = noncentered_matern(basis, block[:m].T, block[m:].T, ((1.3, 4.0), (5.0, 30.0)),
                               1.0, 0.0, "normalized")
        return DecodedBlock(domain, u, u)

    obs = point_observations(domain, 20)
    fwd = CompositeForward(decode_block=decode_block, solver=problem.solve, obs=obs)
    rng = np.random.default_rng(30)
    X0 = np.vstack([rng.standard_normal((m, 6)), rng.standard_normal((2, 6))])
    layout = PackingLayout(blocks=(("xi", m), ("hyper", 2)))
    truth = rng.standard_normal(m)
    data = synthesize_data(obs, fwd(np.concatenate([truth, [0.1, -0.3]])[:, None])[:, 0], rng)
    ens = Ensemble(X0, layout)

    fields0 = np.stack([fwd.decode(X0[:, j]).values for j in range(6)], axis=1)
    Q, _ = np.linalg.qr(fields0)
    ens1, _ = eki_step(ens, lambda M: fwd(M), data, EkiControls(), rng)
    fields1 = np.stack([fwd.decode(ens1.members[:, j]).values for j in range(6)], axis=1)
    residual = fields1 - Q @ (Q.T @ fields1)
    rel = np.linalg.norm(residual, axis=0) / np.linalg.norm(fields1, axis=0)
    assert np.max(rel) > 1e-6
