import numpy as np
import pytest
import scipy.linalg

from ekinv.grid import (
    Field,
    MemberError,
    SpectralBasis,
    build_domain,
    dirichlet_spectrum,
    discrete_eigenvalue,
    neg_laplacian,
    solve_tridiagonal,
    white_noise,
)


def test_build_domain_examples():
    d1 = build_domain(1, [10], 1000)
    assert d1.h == (10 / 1000,)
    d2 = build_domain(2, [6, 6], [600, 600])
    assert d2.h == (0.01, 0.01)
    assert d2.n_interior == 599 * 599


@pytest.mark.parametrize("args", [
    (1, [1], 1),          # resolution below minimum
    (1, [0.0], 10),       # zero extent
    (1, [-1.0], 10),
    (2, [1, 1], [10, 1]),
    (3, [1, 1, 1], [4, 4, 4]),
])
def test_build_domain_rejects(args):
    with pytest.raises(ValueError):
        build_domain(*args)


def test_field_validation():
    d = build_domain(1, [1.0], 8)
    with pytest.raises(ValueError):
        Field(d, np.zeros(3))
    with pytest.raises(ValueError):
        Field(d, np.full(7, np.nan))
    f = Field(d, np.ones(7))
    assert f.values.shape == (7,)


def test_continuum_eigenvalues():
    b1 = dirichlet_spectrum(build_domain(1, [1.0], 32))
    assert b1.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-14)
    b2 = dirichlet_spectrum(build_domain(2, [1.0, 1.0], [16, 16]))
    assert tuple(b2.k_indices[0]) == (1, 1)
    assert b2.eigenvalues[0] == pytest.approx(2 * np.pi**2, rel=1e-14)
    assert np.all(np.diff(b2.eigenvalues) >= 0)


def test_third_eigenvalue_on_0_10_matches_matrix_oracle():
    # continuum value 9 pi^2 / 100, cross-checked by eigendecomposition of
    # the discretized operator
    d = build_domain(1, [10.0], 500)
    basis = dirichlet_spectrum(d)
    assert basis.eigenvalues[2] == pytest.approx(9 * np.pi**2 / 100, rel=1e-14)
    L = neg_laplacian(d).toarray()
    lam = np.sort(np.linalg.eigvalsh(L))
    assert lam[2] == pytest.approx(basis.eigenvalues[2], rel=1e-4)


@pytest.mark.parametrize("dim,extents,n", [
    (1, [1.0], 17),
    (1, [10.0], 40),
    (2, [1.0, 1.0], [9, 9]),
    (2, [6.0, 6.0], [12, 8]),
])
def test_orthonormality_and_parseval(dim, extents, n):
    d = build_domain(dim, extents, n)
    basis = dirichlet_spectrum(d)
    Phi = basis.synthesize(np.eye(basis.n_modes))   # one eigenfunction per row
    gram = d.node_measure * (Phi @ Phi.T)
    assert np.max(np.abs(gram - np.eye(basis.n_modes))) < 1e-10

    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(basis.n_modes)
    f = Field(d, basis.synthesize(coeffs))
    assert f.norm() == pytest.approx(np.linalg.norm(coeffs), abs=1e-10)
    np.testing.assert_allclose(basis.analysis(f), coeffs, atol=1e-12)


@pytest.mark.parametrize("dim,extents,n", [
    (1, [10.0], 30),
    (2, [6.0, 6.0], [10, 14]),
])
def test_eigenfunctions_diagonalize_discrete_laplacian(dim, extents, n):
    d = build_domain(dim, extents, n)
    basis = dirichlet_spectrum(d)
    L = neg_laplacian(d)
    for mode in range(0, basis.n_modes, max(1, basis.n_modes // 7)):
        phi = basis.synthesize(np.eye(basis.n_modes)[mode])
        lam = discrete_eigenvalue(d, basis.k_indices[mode])
        err = np.linalg.norm(L @ phi - lam * phi) / (lam * np.linalg.norm(phi))
        assert err < 1e-8


def test_discrete_eigenvalue_converges_to_continuum():
    d = build_domain(1, [10.0], 1000)
    basis = dirichlet_spectrum(d)
    assert discrete_eigenvalue(d, basis.k_indices[2]) == pytest.approx(
        9 * np.pi**2 / 100, rel=1e-5)


def test_white_noise_determinism():
    d = build_domain(1, [1.0], 64)
    a = white_noise(d, np.random.default_rng(11))
    b = white_noise(d, np.random.default_rng(11))
    assert a.shape == (63,)
    np.testing.assert_array_equal(a, b)


def test_white_noise_moments():
    d = build_domain(1, [1.0], 9)
    rng = np.random.default_rng(5)
    draws = np.stack([white_noise(d, rng) for _ in range(10**5)])
    # CLT bound on the mean of the first coefficient
    assert abs(draws[:, 0].mean()) < 4 / np.sqrt(10**5)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.05)


@pytest.mark.parametrize("dim,n", [(1, 40), (2, 12)])
def test_synthesis_of_a_stack_equals_one_field_at_a_time(dim, n):
    basis = dirichlet_spectrum(build_domain(dim, 3.0, n))
    coeffs = np.random.default_rng(2).standard_normal((basis.n_modes, 6))
    stack = basis.synthesize(coeffs.T)   # rows are strided views of the columns
    assert stack.shape == (6, basis.domain.n_interior)
    for b in range(6):
        assert stack[b].tobytes() == basis.synthesize(coeffs[:, b]).tobytes()

    coeffs[0, [3, 5]] = 1e308
    with pytest.raises(MemberError, match="must all be finite") as info:
        basis.synthesize(coeffs.T)
    assert info.value.index == 3


def test_basis_holds_the_unit_box_prior_convention():
    domain = build_domain(2, [6.0, 3.0], [8, 6])
    basis = SpectralBasis(domain)
    k = basis.k_indices
    np.testing.assert_allclose(basis.prior_eigenvalues, np.pi**2 * (k**2).sum(axis=1),
                               rtol=1e-14)
    assert basis.prior_volume == 18.0


def test_tridiagonal_solve_equals_solve_banded_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 50, 999):
        ab = rng.standard_normal((3, n))
        ab[1] += 4.0
        saved = ab.copy()
        for b in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            np.testing.assert_array_equal(solve_tridiagonal(ab, b),
                                          scipy.linalg.solve_banded((1, 1), ab, b))
        assert ab.tobytes() == saved.tobytes()
    singular = np.zeros((3, 4))
    singular[1, 1:] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scipy.linalg.solve_banded((1, 1), singular, np.ones(4))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_tridiagonal(singular, np.ones(4))
