import numpy as np
import pytest
import scipy.sparse as sp

import iwri.linalg as la
from iwri.errors import FactorizationError, ParameterError, ShapeError
from iwri.linalg import (assemble_normal_matrix, factorize, lu_factorize,
                         power_iteration_mu1)


def random_sparse(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    dense = np.where(mask, rng.standard_normal((rows, cols))
                     + 1j * rng.standard_normal((rows, cols)), 0.0)
    return sp.csr_matrix(dense)


def test_normal_matrix_hand_example():
    A = sp.identity(2, format="csr", dtype=complex)
    P = sp.csr_matrix(np.array([[1.0, 0.0]]))
    H = assemble_normal_matrix(A, P, 1.0).toarray()
    assert np.allclose(H, [[2.0, 0.0], [0.0, 1.0]])


def test_normal_matrix_linear_in_lambda(rng):
    A = random_sparse(rng, 6, 6)
    P = random_sparse(rng, 2, 6)
    PtP = (P.conjugate().T @ P).toarray()
    H1 = assemble_normal_matrix(A, P, 3.0).toarray()
    H2 = assemble_normal_matrix(A, P, 6.0).toarray()
    assert np.allclose(H2 - PtP, 2.0 * (H1 - PtP), atol=1e-13)


def test_normal_matrix_matches_dense_oracle(rng):
    A = random_sparse(rng, 20, 20)
    P = random_sparse(rng, 5, 20)
    lam = 0.37
    H = assemble_normal_matrix(A, P, lam).toarray()
    Ad, Pd = A.toarray(), P.toarray()
    expected = Pd.conj().T @ Pd + lam * (Ad.conj().T @ Ad)
    assert np.max(np.abs(H - expected)) < 1e-12


def test_normal_matrix_hermitian(rng):
    A = random_sparse(rng, 25, 25)
    P = random_sparse(rng, 4, 25)
    H = assemble_normal_matrix(A, P, 2.5)
    assert abs(H - H.conjugate().T).max() < 1e-12


def test_normal_matrix_shape_errors(rng):
    with pytest.raises(ShapeError):
        assemble_normal_matrix(random_sparse(rng, 4, 5), random_sparse(rng, 2, 4), 1.0)
    with pytest.raises(ShapeError):
        assemble_normal_matrix(random_sparse(rng, 4, 4), random_sparse(rng, 2, 5), 1.0)
    with pytest.raises(ParameterError):
        assemble_normal_matrix(random_sparse(rng, 4, 4), random_sparse(rng, 2, 4), 0.0)


def hermitian_pd(rng, n):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return sp.csr_matrix(B.conj().T @ B + n * np.eye(n))


def test_factorize_identity_and_diagonal(rng):
    fact = factorize(sp.identity(5, format="csr", dtype=complex))
    rhs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.allclose(fact.solve(rhs), rhs)

    fact = factorize(sp.diags([2.0, 4.0]).tocsr())
    assert np.allclose(fact.solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_factorize_residual_random_hpd(rng):
    H = hermitian_pd(rng, 30)
    fact = factorize(H)
    for _ in range(5):
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        x = fact.solve(b)
        assert np.linalg.norm(H @ x - b) / np.linalg.norm(b) < 1e-10
    # zero right-hand side and constructed solution
    assert np.allclose(fact.solve(np.zeros(30, dtype=complex)), 0.0)
    ones = np.ones(30, dtype=complex)
    assert np.linalg.norm(fact.solve(H @ ones) - ones) / np.sqrt(30) < 1e-10


def test_factorize_splu_backend_agrees(rng, monkeypatch):
    H = hermitian_pd(rng, 24)
    b = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    x_banded = factorize(H).solve(b)
    monkeypatch.setattr(la, "_MAX_BAND_BYTES", 0)
    fact = factorize(H)
    assert fact._backend == "splu"
    x_splu = fact.solve(b)
    assert np.linalg.norm(x_banded - x_splu) / np.linalg.norm(x_banded) < 1e-9


def test_splu_fallback_keeps_real_systems_real(rng, monkeypatch):
    import warnings

    H = _spd_with_pairs(40, [(i, i + 1) for i in range(39)] + [(i, i + 7) for i in range(33)])
    b = rng.standard_normal(40)
    B = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    banded = factorize(H)
    monkeypatch.setattr(la, "_MAX_BAND_BYTES", 0)
    fact = factorize(H)
    assert fact._backend == "splu"
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        x = fact.solve(b)
        X = fact.solve(B)  # complex right-hand side: real and imaginary parts apart
    assert x.dtype == np.float64
    assert np.linalg.norm(x - banded.solve(b)) / np.linalg.norm(x) < 1e-12
    assert X.dtype == np.complex128
    assert np.linalg.norm(X - banded.solve(B)) / np.linalg.norm(X) < 1e-12


def test_factorize_multi_rhs(rng):
    H = hermitian_pd(rng, 16)
    B = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    X = factorize(H).solve(B)
    assert X.shape == (16, 3)
    assert np.linalg.norm(H @ X - B) / np.linalg.norm(B) < 1e-10


def test_factorize_breakdown_reports_pivot():
    H = sp.diags([1.0, 1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(FactorizationError) as info:
        factorize(H)
    assert info.value.pivot_index == 2


def test_solve_shape_error(rng):
    fact = factorize(hermitian_pd(rng, 8))
    with pytest.raises(ShapeError):
        fact.solve(np.zeros(9))


def test_factorize_with_ordering_matches(rng):
    H = hermitian_pd(rng, 20)
    order = np.asarray(np.random.default_rng(3).permutation(20))
    b = rng.standard_normal(20) + 0j
    x0 = factorize(H).solve(b)
    x1 = factorize(H, ordering=order).solve(b)
    assert np.linalg.norm(x0 - x1) / np.linalg.norm(x0) < 1e-10


def _spd_with_pairs(n, pairs):
    """Real SPD matrix: 4 on the diagonal, -1 at each (i, j) pair and its mirror."""
    rows = [i for i, j in pairs] + [j for i, j in pairs]
    cols = [j for i, j in pairs] + [i for i, j in pairs]
    off = sp.csr_matrix((-np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return (sp.diags(np.full(n, 4.0)) + off).tocsr()


def test_layout_detects_another_pattern(rng):
    n = 12
    order = np.random.default_rng(3).permutation(n)
    first = _spd_with_pairs(n, [(0, 1), (2, 3), (5, 9)])
    layout = la.BandLayout(n, order)
    factorize(first, ordering=layout)
    bound = layout.positions(first)
    assert layout.positions(first.copy()) is bound
    b = rng.standard_normal(n)
    others = [_spd_with_pairs(n, [(0, 3), (1, 2), (5, 9)]),  # same nnz and row counts
              _spd_with_pairs(n, [(0, 1), (2, 3), (5, 9), (4, 11)]),  # more entries
              first.tocsc()]  # same matrix, other format
    for H in others:
        assert layout.positions(H) is not bound
        fact = factorize(H, ordering=layout)
        assert np.linalg.norm(H @ fact.solve(b) - b) / np.linalg.norm(b) < 1e-12
        assert np.array_equal(fact._band, factorize(H, ordering=order)._band)
    assert layout.positions(first) is bound  # still bound to the first pattern
    with pytest.raises(ShapeError):
        factorize(_spd_with_pairs(n + 1, []), ordering=layout)


def test_power_iteration_identity():
    n = 3
    a_lu = lu_factorize(sp.identity(n, format="csc", dtype=complex))
    P = sp.identity(n, format="csr")
    result = power_iteration_mu1(a_lu, P, tol=1e-10, max_it=200, seed=7)
    assert result.converged
    assert abs(result.value - 1.0) < 1e-9


def test_power_iteration_diagonal():
    # A = diag(1, 2), P = I: operator eigenvalues are 1 and 1/4
    a_lu = lu_factorize(sp.diags([1.0, 2.0]).tocsc().astype(complex))
    P = sp.identity(2, format="csr")
    result = power_iteration_mu1(a_lu, P, tol=1e-12, max_it=500, seed=0)
    assert result.converged
    assert abs(result.value - 1.0) < 1e-8


def test_power_iteration_matches_dense_eig():
    from tests_helpers_toy import toy_helmholtz_system

    A, P = toy_helmholtz_system(nx=12, nz=9, n_receivers=3)
    a_lu = lu_factorize(A)
    est = power_iteration_mu1(a_lu, P, tol=1e-10, max_it=3000, seed=11)
    Ad = A.toarray()
    G = np.linalg.solve(Ad, np.eye(Ad.shape[0]))
    PG = P @ G
    mu_dense = float(np.linalg.eigvalsh(PG.conj().T @ PG)[-1])
    assert est.converged
    assert abs(est.value - mu_dense) / mu_dense < 1e-6


def test_power_iteration_scale_consistency():
    from tests_helpers_toy import toy_helmholtz_system

    A, P = toy_helmholtz_system(nx=10, nz=8, n_receivers=2)
    a_lu = lu_factorize(A)
    base = power_iteration_mu1(a_lu, P, tol=1e-9, max_it=3000, seed=5).value
    scaled = power_iteration_mu1(a_lu, 3.0 * P, tol=1e-9, max_it=3000, seed=5).value
    assert abs(scaled - 9.0 * base) / (9.0 * base) < 1e-6


def test_power_iteration_nonconverged_flag():
    from tests_helpers_toy import toy_helmholtz_system

    A, P = toy_helmholtz_system(nx=10, nz=8, n_receivers=2)
    result = power_iteration_mu1(lu_factorize(A), P, tol=1e-14, max_it=2, seed=5)
    assert not result.converged
    assert result.iterations == 2
    assert result.value > 0


def _power_iteration_n_space(a_factorization, P, tol, max_it, seed):
    """Reference: the power iteration on n-vectors, two sparse solves a step."""
    P = sp.csr_matrix(P)
    Pt = P.conjugate().T.tocsr()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a_factorization.n) + 1j * rng.standard_normal(a_factorization.n)
    v /= np.sqrt(np.sum(np.abs(v) ** 2))
    mu = 0.0
    for it in range(1, max_it + 1):
        y = a_factorization.solve(Pt @ (P @ a_factorization.solve(v)), adjoint=True)
        mu_new = float(np.real(np.sum(np.conj(v) * y)))
        norm_y = float(np.sqrt(np.sum(np.abs(y) ** 2)))
        converged = mu_new > 0 and abs(mu_new - mu) < tol * abs(mu_new)
        mu = mu_new
        v = y / norm_y
        if converged:
            return mu, True, it
    return mu, False, max_it


def _box_systems():
    from iwri.acquisition import build_observation
    from iwri.grid import velocity_to_slowness_sq
    from iwri.helmholtz import PmlConfig, StencilScheme, build_kernel
    from iwri.presets import box_anomaly_setup

    setup = box_anomaly_setup()
    grid = setup.true_model.grid
    pml = PmlConfig().resolved(grid, setup.bounds.v_max)
    m0 = velocity_to_slowness_sq(setup.initial_model).values
    for f in setup.frequencies:
        kern = build_kernel(grid, 2.0 * np.pi * f, pml, StencilScheme())
        yield kern.assemble(m0), build_observation(kern.topology, setup.geometry.receivers)


def test_power_iteration_factored_matches_n_space_loop():
    from tests_helpers_toy import toy_helmholtz_system

    runs = [(A, P, 1e-4, 500, 1234) for A, P in _box_systems()]
    runs.append((*toy_helmholtz_system(nx=12, nz=9, n_receivers=3), 1e-10, 3000, 11))
    iterations = []
    for A, P, tol, max_it, seed in runs:
        a_lu = lu_factorize(A)
        result = power_iteration_mu1(a_lu, P, tol=tol, max_it=max_it, seed=seed)
        mu, converged, its = _power_iteration_n_space(a_lu, P, tol, max_it, seed)
        assert (result.converged, result.iterations) == (converged, its)
        assert abs(result.value - mu) <= 1e-12 * mu
        iterations.append(its)
    assert iterations[:3] == [9, 14, 28]  # the box's 2.5, 5 and 7 Hz


def test_lu_factorize_adjoint(rng):
    A = random_sparse(rng, 12, 12) + sp.identity(12) * 4.0
    lu = lu_factorize(A)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x = lu.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11
    y = lu.solve(b, adjoint=True)
    assert np.linalg.norm(A.conjugate().T @ y - b) / np.linalg.norm(b) < 1e-11
