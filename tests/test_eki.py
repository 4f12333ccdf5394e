import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ekinv.composite import CompositeForward
from ekinv.eki import (
    MAX_DOUBLINGS,
    EkiControls,
    Ensemble,
    PackingLayout,
    SpanEnsemble,
    SpanMembers,
    StepInfo,
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


def plain_span(X):
    """The plain ensemble of X as a run holds it: U_0 = X, A = I."""
    return SpanEnsemble.of(plain_ensemble(X))


class ZeroDraws:
    """A generator whose every normal draw is zero: each member's perturbed
    data y + Gamma^(1/2) eta_j is then exactly y, the deterministic dynamics
    that the closed-form and continuous-time references describe."""

    def standard_normal(self, size):
        return np.zeros(size)


def step(span, forward_map, obs, controls, rng):
    """:func:`eki_step` on the outputs of ``forward_map`` at the members of
    ``span``, as :func:`run_inversion` calls it."""
    return eki_step(span, forward_map(span.members), obs, controls, rng)


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
    minimal = 0
    for case in range(40):
        B = rng.standard_normal((4, 4))
        C = B @ B.T
        if case < 20:
            gamma = np.diag(rng.uniform(0.5, 2.0, size=4))
        else:   # dense: the generalized eigenproblem proper
            G = rng.standard_normal((4, 4))
            gamma = G @ G.T + 0.5 * np.eye(4)
        r = rng.standard_normal(4)
        lhs = controls.rho * np.sqrt(r @ np.linalg.solve(gamma, r))

        def rhs_at(u):
            x = np.linalg.solve(C + u * gamma, r)
            return u * np.sqrt(x @ gamma @ x)

        ups, _ = select_upsilon(C, gamma, r, controls)
        for k in range(6):
            assert lhs <= rhs_at(ups * 2**k) * (1 + 1e-12)
        # the first admissible doubling: Upsilon / 2 fails, at the benchmark's
        # slack (ekibench/checks.py UPSILON_RTOL)
        if ups != controls.upsilon0:
            assert lhs > rhs_at(ups / 2) * (1 - 1e-9)
            minimal += 1
    assert minimal >= 10


def test_upsilon_search_exhaustion():
    # Upsilon Gamma stays below 2^59 1e-20 < 1e-2 against C = 1e8, so every
    # trial fails
    controls = EkiControls(rho=0.999, upsilon0=1e-12)
    with pytest.raises(UpsilonSearchError, match="within 60 doublings"):
        select_upsilon(np.array([[1e8]]), np.array([[1e-8]]), np.array([1.0]), controls)


def test_upsilon_search_accepts_no_doubling_that_fails_the_exact_inequality():
    # J=50, 64 outputs, Gamma = 1e-20 I and a residual mostly in the outputs'
    # span: exactly, no doubling is admissible; a Cholesky solve per trial of
    # C_ww + Upsilon Gamma (condition about 1e16) accepted Upsilon = 2^15,
    # where lhs / rhs is 4.59
    rng = np.random.default_rng(13)
    J, n_obs, g = 50, 64, 1e-20
    W = rng.standard_normal((n_obs, J))
    Ac = W - W.mean(axis=1, keepdims=True)
    C_ww = Ac @ Ac.T / (J - 1)
    U, s, _ = np.linalg.svd(Ac)
    rank = J - 1
    residual = (0.3 * U[:, :rank] @ rng.standard_normal(rank)
                + 0.1 * U[:, rank:] @ rng.standard_normal(n_obs - rank))
    controls = EkiControls()
    # the selection inequality in the eigenbasis of C_ww = U diag(lam) U^T
    lam = np.zeros(n_obs)
    lam[:rank] = s[:rank] ** 2 / (J - 1)
    c = U.T @ residual
    lhs = controls.rho * np.linalg.norm(c) / np.sqrt(g)
    upsilons = controls.upsilon0 * 2.0 ** np.arange(MAX_DOUBLINGS)
    rhs = [u * np.sqrt(g) * np.linalg.norm(c / (lam + u * g)) for u in upsilons]
    assert max(rhs) < 0.25 * lhs
    with pytest.raises(UpsilonSearchError):
        select_upsilon(C_ww, g * np.eye(n_obs), residual, controls)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES FOUND on the eigenbasis Upsilon rule: select_upsilon eigendecomposes the formed "
    "C_ww, so with Gamma below C_ww's rounding the null-space eigenvalues are rounding noise "
    "and decide the doubling. Here Upsilon = upsilon0 is admissible exactly (rhs / lhs 1.24), "
    "but the search returns 2^14 (SkylakeX kernel) or 2^15 (Haswell)"))
def test_upsilon_search_returns_the_first_admissible_doubling_below_rounding():
    # J=50, 64 outputs, Gamma = 1e-20 I and a residual mostly off the
    # outputs' span
    rng = np.random.default_rng(0)
    J, n_obs, g = 50, 64, 1e-20
    W = rng.standard_normal((n_obs, J))
    Ac = W - W.mean(axis=1, keepdims=True)
    C_ww = Ac @ Ac.T / (J - 1)
    U, s, _ = np.linalg.svd(Ac)
    rank = J - 1
    residual = (0.01 * U[:, :rank] @ rng.standard_normal(rank)
                + 0.1 * U[:, rank:] @ rng.standard_normal(n_obs - rank))
    controls = EkiControls()
    # the selection inequality at upsilon0 in the exact eigenbasis, in units of Gamma
    lam = np.zeros(n_obs)
    lam[:rank] = s[:rank] ** 2 / (J - 1) / g
    c = U.T @ residual
    u = controls.upsilon0
    assert controls.rho * np.linalg.norm(c) <= u * np.linalg.norm(c / (lam + u))
    ups, _ = select_upsilon(C_ww, g * np.eye(n_obs), residual, controls)
    assert ups == controls.upsilon0


def test_upsilon_search_factorizes_with_jitter_where_cholesky_fails(monkeypatch):
    # more outputs than J - 1 make C_ww singular; with Gamma = 1e-20 I the
    # rounding of C_ww outweighs Upsilon Gamma, and Cholesky of
    # C_ww + Upsilon Gamma fails.  The search decides in the eigenbasis and
    # factorizes nothing; the update's solve takes the jitter retry.
    rng = np.random.default_rng(0)
    J, n_obs, g = 50, 64, 1e-20
    W = rng.standard_normal((n_obs, J))
    w_bar = W.mean(axis=1)
    Ac = W - w_bar[:, None]
    C_ww = Ac @ Ac.T / (J - 1)
    U, s, _ = np.linalg.svd(Ac)
    rank = J - 1
    assert s[rank - 1] > 1e-8 * s[0] > s[rank]
    # a residual outside the outputs' span: exactly, every Upsilon passes;
    # rounded, the null eigenvalues of (C_ww, Gamma) reach about 6e4, so the
    # search needs more than one trial
    obs = toy_obs(n_obs, gamma_scale=g,
                  y=w_bar + U[:, rank:] @ rng.standard_normal(n_obs - rank))
    residual = obs.y - w_bar
    factorized, failures = [], []
    cho_factor = scipy.linalg.cho_factor

    def counted(M, *args, **kwargs):
        factorized.append(M.shape)
        try:
            return cho_factor(M, *args, **kwargs)
        except np.linalg.LinAlgError:
            failures.append(M.shape)
            raise

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    controls = EkiControls()
    upsilon, trials = select_upsilon(C_ww, obs.gamma, residual, controls)
    assert factorized == [] and trials > 1
    # the selection inequality, in the eigenbasis of C_ww = U diag(lam) U^T
    lam = np.zeros(n_obs)
    lam[:rank] = s[:rank] ** 2 / (J - 1)
    x = U @ ((U.T @ residual) / (lam + upsilon * g))
    lhs = controls.rho * np.linalg.norm(residual) / np.sqrt(g)
    assert lhs <= upsilon * np.sqrt(g) * np.linalg.norm(x)

    # the update at Upsilon = upsilon0, where C_ww's rounding (eigenvalues
    # down to about -1e-15) outweighs Upsilon Gamma under both the SkylakeX
    # and the Haswell OpenBLAS kernels; rho this small accepts the first trial
    span = plain_span(rng.standard_normal((3, J)))
    new, info = eki_step(span, W, obs, EkiControls(rho=1e-12), ZeroDraws())
    assert info == StepInfo(upsilon=1.0, trials=1)
    assert len(failures) == 1 and len(factorized) == 2
    assert np.all(np.isfinite(new.coefficients))


# ---------------------------------------------------------------------------
# one analysis step


def test_step_is_fixed_point_for_zero_residuals():
    X = np.tile(np.array([1.0, -2.0])[:, None], (1, 4))
    H = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]])
    obs = toy_obs(3, y=H @ X[:, 0])
    controls = EkiControls()
    new, info = step(plain_span(X), lambda M: H @ M, obs, controls, ZeroDraws())
    np.testing.assert_array_equal(np.asarray(new.members), X)
    assert info.upsilon == controls.upsilon0


def test_step_matches_closed_form_kalman_update():
    rng = np.random.default_rng(12)
    J = 500
    X = rng.standard_normal((2, J))
    H = np.array([[1.0, 0.4], [-0.3, 1.2]])
    y = np.array([0.7, -0.4])
    obs = toy_obs(2, gamma_scale=0.05, y=y)
    # rho this small accepts the first trial, Upsilon = upsilon0
    controls = EkiControls(rho=1e-12, upsilon0=1.0)
    new, info = step(plain_span(X), lambda M: H @ M, obs, controls, ZeroDraws())
    assert info.upsilon == 1.0

    W = H @ X
    C_uw, C_ww = empirical_covariances(X, W)
    oracle = X + C_uw @ np.linalg.solve(C_ww + obs.gamma, y[:, None] - W)
    np.testing.assert_allclose(np.asarray(new.members), oracle, atol=1e-10)


def test_step_preserves_span_nonlinear():
    rng = np.random.default_rng(3)
    J, dim = 6, 20
    X0 = rng.standard_normal((dim, J))
    Q, _ = np.linalg.qr(X0)

    def forward(M):
        return np.tanh(M[:5]) + 0.1 * M[5:10] ** 2

    obs = toy_obs(5, gamma_scale=0.01, y=rng.standard_normal(5))
    controls = EkiControls()
    span = plain_span(X0)
    for _ in range(10):
        span, _ = step(span, forward, obs, controls, rng)
    X = np.asarray(span.members)
    residual = X - Q @ (Q.T @ X)
    assert np.max(np.linalg.norm(residual, axis=0) / np.linalg.norm(X, axis=0)) < 1e-8


def test_step_gauge_invariance_under_permutation():
    rng = np.random.default_rng(9)
    J, dim = 8, 10
    X = rng.standard_normal((dim, J))
    M_map = rng.standard_normal((4, dim))
    obs = toy_obs(4, gamma_scale=0.1, y=rng.standard_normal(4))
    controls = EkiControls()
    perm = rng.permutation(dim)
    inv = np.argsort(perm)

    base, _ = step(plain_span(X), lambda M: M_map @ M, obs, controls,
                   np.random.default_rng(77))
    permuted, _ = step(plain_span(X[perm]), lambda M: M_map[:, perm] @ M,
                       obs, controls, np.random.default_rng(77))
    np.testing.assert_allclose(np.asarray(permuted.members)[inv], np.asarray(base.members),
                               rtol=1e-12, atol=1e-12)


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
    controls = EkiControls(rho=0.8, max_outer_iterations=60)
    result = run_inversion(ens, fwd, obs, controls, ZeroDraws())
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


def test_inversion_aborts_on_a_nonfinite_update_at_its_last_iterate():
    # the forward map sees only "u"; the unseen "v" block, near the float64
    # limit, overflows in a later update, and the run keeps the iterate
    # before it
    rng = np.random.default_rng(0)
    J = 10
    X = np.vstack([rng.standard_normal((1, J)), 1e303 * rng.standard_normal((1, J))])
    ens = Ensemble(X, PackingLayout(blocks=(("u", 1), ("v", 1))))
    before = ens.members.tobytes()
    obs = toy_obs(1, gamma_scale=1e-4, y=[1e6], noise_level=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_inversion(ens, lambda M: M[:1], obs, EkiControls(), rng)
    assert result.stop_reason == "aborted"
    assert result.message == "ensemble update produced non-finite members"
    assert len(result.records) > 1
    assert result.records[-1].upsilon is None
    # the aborted update's time is the last record's
    assert all(isinstance(r.wall_ms, float) and r.wall_ms > 0 for r in result.records)
    assert np.all(np.isfinite(result.ensemble.members))
    assert result.records[-1].misfit == obs.whitened_misfit(
        obs.y - result.ensemble.members[:1].mean(axis=1))
    assert ens.members.tobytes() == before


def test_inversion_and_step_leave_the_callers_ensemble_unwritten():
    rng = np.random.default_rng(6)
    ens, fwd, obs = linear_toy(rng, noise_level=1e-12)
    before = ens.members.tobytes()
    result = run_inversion(ens, fwd, obs, EkiControls(max_outer_iterations=3), rng)
    assert [r.upsilon is not None for r in result.records] == [True] * 3 + [False]
    assert ens.members.tobytes() == before
    span = SpanEnsemble.of(ens)
    coefficients = span.coefficients.tobytes()
    new, _ = step(span, fwd, obs, EkiControls(), rng)
    assert ens.members.tobytes() == before
    assert span.coefficients.tobytes() == coefficients
    assert new.initial is ens and new.coefficients.tobytes() != coefficients


def chunked(fn, width):
    """A forward map that reads the members ``width`` columns at a time."""
    def forward(M):
        return np.hstack([fn(M[:, a:a + width]) for a in range(0, M.shape[1], width)])
    return forward


@pytest.mark.parametrize("J, n_obs", [(8, 12), (10, 5)])
def test_the_run_is_the_step_iterated_bit_for_bit(J, n_obs):
    rng = np.random.default_rng(J)
    layout = PackingLayout(blocks=(("a", 30), ("b", 7), ("c", 2)))
    X0 = rng.standard_normal((layout.dim, J))
    H = rng.standard_normal((n_obs, layout.dim))

    def forward(M):
        return np.tanh(H @ M)

    obs = toy_obs(n_obs, gamma_scale=1e-2, y=0.5 * rng.standard_normal(n_obs),
                  noise_level=1e-12)
    controls = EkiControls(max_outer_iterations=3)
    result = run_inversion(Ensemble(X0, layout), forward, obs, controls,
                           np.random.default_rng(1))
    assert result.stop_reason == "max-iterations"

    span, step_rng = SpanEnsemble.of(Ensemble(X0, layout)), np.random.default_rng(1)
    infos = []
    for _ in range(3):
        span, info = step(span, forward, obs, controls, step_rng)
        infos.append((info.upsilon, info.trials))
    assert result.ensemble.coefficients.tobytes() == span.coefficients.tobytes()
    assert [(r.upsilon, r.upsilon_trials) for r in result.records] == infos + [(None, None)]
    assert all(isinstance(r.wall_ms, float) and r.wall_ms > 0 for r in result.records)


def test_gamma_is_factored_once_per_observation_model(monkeypatch):
    factored = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factored.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rng = np.random.default_rng(4)
    H = rng.standard_normal((6, 10))
    obs = toy_obs(6, gamma_scale=1e-2, y=H @ rng.standard_normal(10), noise_level=1e-12)
    result = run_inversion(plain_ensemble(rng.standard_normal((10, 8))), lambda M: H @ M, obs,
                           EkiControls(max_outer_iterations=3), rng)
    assert result.stop_reason == "max-iterations"
    # three updates' perturbed data and four misfits read one factor
    assert len(factored) == 1


def test_a_replaced_observation_model_factors_its_own_gamma():
    # the cached factor belongs to its instance: a model that replace()
    # builds with Gamma scaled by 4 reads a factor scaled by 2, not the old one
    rng = np.random.default_rng(5)
    G = rng.standard_normal((5, 5))
    obs = ObservationModel(centers=np.zeros((5, 1)), matrix=np.eye(5), gamma=G @ G.T + np.eye(5))
    L = obs.gamma_chol
    scaled = replace(obs, gamma=4.0 * obs.gamma)
    np.testing.assert_array_equal(scaled.gamma_chol, np.linalg.cholesky(4.0 * obs.gamma))
    np.testing.assert_allclose(scaled.gamma_chol, 2.0 * L, rtol=1e-14, atol=0)
    residual = rng.standard_normal(5)
    assert scaled.whitened_misfit(residual) == pytest.approx(obs.whitened_misfit(residual) / 2,
                                                              rel=1e-14)
    assert obs.gamma_chol is L


def explicit_update(members, layout, W, obs, controls, rng):
    """X + C_xw S block by block of the packed state, C_xw from the centred
    members: the update before the ensemble was held as U_0 A."""
    J = members.shape[1]
    w_bar = W.mean(axis=1)
    Ac = W - w_bar[:, None]
    C_ww = Ac @ Ac.T / (J - 1)
    Y = obs.y[:, None] + obs.gamma_chol @ rng.standard_normal((obs.n_obs, J))
    upsilon, _ = select_upsilon(C_ww, obs.gamma, obs.y - w_bar, controls)
    S = scipy.linalg.cho_solve(scipy.linalg.cho_factor(C_ww + upsilon * obs.gamma), Y - W)
    out = np.empty_like(members)
    for sl in layout.slices().values():
        Xb = members[sl]
        Xc = Xb - Xb.mean(axis=1, keepdims=True)
        out[sl] = Xb + (Xc @ Ac.T / (J - 1)) @ S
    return out, upsilon


def test_the_span_coefficients_follow_the_explicit_update():
    rng = np.random.default_rng(21)
    J, dim_u, n_obs = 24, 40, 15
    layout = PackingLayout(blocks=(("state", dim_u), ("hyper", 2)))
    X0 = np.vstack([rng.standard_normal((dim_u, J)), rng.uniform(1.0, 2.0, (2, J))])
    H = rng.standard_normal((n_obs, dim_u)) / np.sqrt(dim_u)
    # the hypers scale and shift the state's outputs
    forward = chunked(lambda M: np.tanh(M[dim_u] * (H @ M[:dim_u])) + 0.1 * M[dim_u + 1], 5)
    obs = toy_obs(n_obs, gamma_scale=1e-3, y=0.5 * rng.standard_normal(n_obs),
                  noise_level=1e-12)
    controls = EkiControls(max_outer_iterations=6)
    result = run_inversion(Ensemble(X0, layout), forward, obs, controls,
                           np.random.default_rng(5))
    assert result.stop_reason == "max-iterations"

    X, oracle_rng = X0, np.random.default_rng(5)
    for record in result.records:
        W = forward(X)
        assert record.misfit == pytest.approx(obs.whitened_misfit(obs.y - W.mean(axis=1)),
                                              rel=1e-12)
        if record.upsilon is not None:
            X, upsilon = explicit_update(X, layout, W, obs, controls, oracle_rng)
            assert upsilon == record.upsilon
    error = np.abs(np.asarray(result.ensemble.members) - X).max() / np.abs(X).max()
    assert 0 < error < 1e-12


def test_span_members_form_each_layout_block_with_its_own_product():
    rng = np.random.default_rng(2)
    J = 40
    layout = PackingLayout(blocks=(("a", 11), ("b", 3)))
    U0 = rng.standard_normal((layout.dim, J))
    A = rng.standard_normal((J, J))
    span = SpanEnsemble(Ensemble(U0, layout), A, (1.0, 1.0))

    def product(rows, cols):
        return np.vstack([U0[:11][rows] @ A[:, cols], U0[11:][rows] @ A[:, cols]])

    every = slice(None)
    assert np.asarray(span.members).tobytes() == product(every, every).tobytes()
    assert span.members[:, 5:21].tobytes() == product(every, slice(5, 21)).tobytes()
    assert span.members[11:].tobytes() == (U0[11:] @ A).tobytes()
    assert span.members[3].tobytes() == (U0[3] @ A).tobytes()
    assert span.members[:, 7].tobytes() == (U0 @ A[:, 7]).tobytes()


def test_span_members_form_a_column_slice_each_time_it_is_read(monkeypatch):
    rng = np.random.default_rng(3)
    layout = PackingLayout(blocks=(("a", 5), ("b", 2)))
    U0, A = rng.standard_normal((layout.dim, 10)), rng.standard_normal((10, 10))
    members = SpanEnsemble(Ensemble(U0, layout), A, (1.0, 1.0)).members
    formed = []
    form = SpanMembers._form

    def spy(self, start, stop):
        formed.append((start, stop))
        return form(self, start, stop)

    monkeypatch.setattr(SpanMembers, "_form", spy)
    assert members[:, 2:6].tobytes() == members[:, 2:6].tobytes()
    assert formed == [(2, 6), (2, 6)]
    arrays = [v for v in vars(members).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2 and arrays[0] is U0 and arrays[1] is A


def test_an_update_forms_only_the_blocks_that_may_overflow(monkeypatch):
    rng = np.random.default_rng(5)
    J = 6
    layout = PackingLayout(blocks=(("big", 9), ("small", 4)))
    U0 = np.vstack([1e306 * rng.uniform(1.0, 3.0, (9, J)), rng.standard_normal((4, J))])
    span = SpanEnsemble.of(Ensemble(U0, layout))
    scanned = []
    isfinite = np.isfinite

    def spy(array, *args, **kwargs):
        scanned.append(np.shape(array))
        return isfinite(array, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    # max |U_0 A| <= 3e306 x 20 stays below half the float64 range: A alone
    assert span.advanced(19.0 * np.eye(J)).coefficients[0, 0] == 20.0
    assert scanned == [(J, J)]
    # 3e306 x 40 may pass it: the big block is formed and scanned, and holds
    scanned.clear()
    span.advanced(39.0 * np.eye(J))
    assert scanned == [(J, J), (9, J)]
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="non-finite"):
        span.advanced(99.0 * np.eye(J))


def test_an_iteration_holds_the_initial_ensemble_and_one_formed_block_at_its_peak():
    rows, J, n_obs = 10_000, 20, 30
    rng = np.random.default_rng(4)
    picks = np.linspace(0, 2 * rows - 1, n_obs).astype(int)
    obs = toy_obs(n_obs, gamma_scale=1e-2, y=rng.standard_normal(n_obs), noise_level=1e-12)
    tracemalloc.start()
    try:
        ens = Ensemble(rng.standard_normal((2 * rows, J)),
                       PackingLayout(blocks=(("a", rows), ("b", rows))))
        result = run_inversion(ens, chunked(lambda M: M[picks], 4), obs,
                               EkiControls(max_outer_iterations=1), rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stop_reason == "max-iterations"
    # U_0, one formed block of at most 16 members, and 256 KiB for A, the
    # outputs and the update's other (n_obs, J) and (J, J) arrays: no second
    # ensemble
    block = 2 * rows * CompositeForward.BLOCK_MEMBERS * 8
    assert peak < ens.members.nbytes + block + 256 * 1024


def test_inversion_reports_hooks():
    rng = np.random.default_rng(8)
    ens, fwd, obs = linear_toy(rng)
    result = run_inversion(
        ens, fwd, obs, EkiControls(max_outer_iterations=2), rng,
        error_fn=lambda M: np.linalg.norm(np.asarray(M).mean(axis=1)),
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
        controls = EkiControls(rho=1e-12, upsilon0=upsilon, max_outer_iterations=10**9)
        span = plain_span(X0)
        for _ in range(int(round(T / h))):
            span, info = step(span, lambda M: H @ M, obs, controls, ZeroDraws())
            assert info.upsilon == upsilon
        return np.asarray(span.members)

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

    plain = plain_span(U0.copy())
    packed = SpanEnsemble.of(Ensemble(np.vstack([U0, theta0]),
                                      PackingLayout(blocks=(("state", dim_u), ("hyper", 2)))))
    controls = EkiControls(max_outer_iterations=5)

    span_a, span_b = plain, packed
    rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(5):
        span_a, _ = step(span_a, lambda M: H @ M, obs, controls, rng_a)
        span_b, _ = step(span_b, lambda M: H @ M[:dim_u], obs, controls, rng_b)
        np.testing.assert_array_equal(span_b.members[:dim_u], np.asarray(span_a.members))


def test_noncentered_step_escapes_initial_field_span():
    # after one update of (xi, theta), the realized fields T(xi, theta) leave
    # the span of the initial realized fields
    from ekinv.grid import build_domain, dirichlet_spectrum
    from ekinv.composite import CompositeForward, DecodedBlock
    from ekinv.forward import SourceProblem1D, point_observations
    from ekinv.param_maps import noncentered_matern

    domain = build_domain(1, [10.0], 50)
    basis = dirichlet_spectrum(domain)
    problem = SourceProblem1D(domain)
    m = basis.n_modes

    def decode_block(block):
        u = noncentered_matern(basis, block[:m].T, block[m:].T, ((1.3, 4.0), (5.0, 30.0)),
                               1.0, 0.0)
        return DecodedBlock(domain, u, u)

    obs = point_observations(domain, 20)
    fwd = CompositeForward(decode_block=decode_block, solver=problem.solve, obs=obs)
    rng = np.random.default_rng(30)
    X0 = np.vstack([rng.standard_normal((m, 6)), rng.standard_normal((2, 6))])
    layout = PackingLayout(blocks=(("xi", m), ("hyper", 2)))
    truth = rng.standard_normal(m)
    data = synthesize_data(obs, fwd(np.concatenate([truth, [0.1, -0.3]])[:, None])[:, 0], rng)
    span = SpanEnsemble.of(Ensemble(X0, layout))

    fields0 = np.stack([fwd.decode(X0[:, j]).values for j in range(6)], axis=1)
    Q, _ = np.linalg.qr(fields0)
    ens1, _ = step(span, fwd, data, EkiControls(), rng)
    fields1 = np.stack([fwd.decode(ens1.members[:, j]).values for j in range(6)], axis=1)
    residual = fields1 - Q @ (Q.T @ fields1)
    rel = np.linalg.norm(residual, axis=0) / np.linalg.norm(fields1, axis=0)
    assert np.max(rel) > 1e-6
