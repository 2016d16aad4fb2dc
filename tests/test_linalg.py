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
    P = sp.identity(n, format="csr")
    result = power_iteration_mu1(sp.identity(n, format="csc", dtype=complex), P)
    assert result.iterations == 1
    assert abs(result.value - 1.0) < 1e-14


def test_power_iteration_diagonal():
    # A = diag(1, 2), P = I: operator eigenvalues are 1 and 1/4
    A = sp.diags([1.0, 2.0]).tocsc().astype(complex)
    P = sp.identity(2, format="csr")
    assert abs(power_iteration_mu1(A, P).value - 1.0) < 1e-14


def test_power_iteration_scale_consistency():
    from tests_helpers_toy import toy_helmholtz_system

    A, P = toy_helmholtz_system(nx=10, nz=8, n_receivers=2)
    base = power_iteration_mu1(A, P).value
    scaled = power_iteration_mu1(A, 3.0 * P).value
    assert abs(scaled - 9.0 * base) / (9.0 * base) < 1e-12


def _dense_mu1(A, P):
    """Reference: largest eigenvalue of (P A^{-1})^H (P A^{-1}), all dense."""
    PG = sp.csr_matrix(P).toarray() @ np.linalg.inv(A.toarray())
    return float(np.linalg.eigvalsh(PG.conj().T @ PG)[-1])


def test_power_iteration_matches_dense_eig(rng):
    from tests_helpers_toy import toy_helmholtz_system

    cases = [toy_helmholtz_system(nx=12, nz=9, n_receivers=3),
             toy_helmholtz_system(nx=10, nz=8, n_receivers=2, f=9.0, seed=5),
             toy_helmholtz_system(nx=14, nz=10, n_receivers=6, f=4.0, seed=7)]
    for n, n_rec in ((12, 3), (30, 5), (40, 40)):
        cases.append((random_sparse(rng, n, n) + 4.0 * sp.identity(n),
                      random_sparse(rng, n_rec, n, density=0.5)))
    for A, P in cases:
        result = power_iteration_mu1(A, P)
        mu_dense = _dense_mu1(A, P)
        assert result.iterations == 1
        assert abs(result.value - mu_dense) <= 1e-12 * mu_dense


def _n_space_rayleigh_quotients(A, P, n_it, seed):
    """Reference: Rayleigh quotients of the power iteration on n-vectors,
    one solve with the LU of A and one with the LU of A^H a step."""
    a_lu, ah_lu = lu_factorize(A), lu_factorize(A.conjugate().T)
    P = sp.csr_matrix(P)
    Pt = P.conjugate().T.tocsr()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a_lu.n) + 1j * rng.standard_normal(a_lu.n)
    v /= np.linalg.norm(v)
    quotients = []
    for _ in range(n_it):
        y = ah_lu.solve(Pt @ (P @ a_lu.solve(v)))
        quotients.append(float(np.real(np.vdot(v, y))))
        v = y / np.linalg.norm(y)
    return np.array(quotients)


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

    # The exact receiver-space mu1 bounds every Rayleigh quotient of the
    # n-space power iteration from above, and the loop closes on it.
    runs = [(A, P, 300, 1234, 1e-11) for A, P in _box_systems()]
    runs[2] = (*runs[2][:4], 2e-3)  # 7 Hz: the loop is still 1.3e-3 short after 300 steps
    runs.append((*toy_helmholtz_system(nx=12, nz=9, n_receivers=3), 30, 11, 1e-12))
    stops = []
    for A, P, n_it, seed, gap in runs:
        exact = power_iteration_mu1(A, P).value
        q = _n_space_rayleigh_quotients(A, P, n_it, seed)
        assert np.all(q <= exact * (1.0 + 1e-12))
        assert np.all(np.diff(q) >= -1e-12 * exact)
        assert exact - q[-1] <= gap * exact
        # where a relative-change tolerance of 1e-4 would have stopped the loop
        stop = 1 + int(np.argmax(np.abs(np.diff(q, prepend=0.0)) < 1e-4 * q))
        stops.append((stop, (exact - q[stop - 1]) / exact))
    assert [s for s, _ in stops[:3]] == [9, 14, 28]  # the box's 2.5, 5 and 7 Hz
    assert stops[2][1] > 2e-3  # that stop leaves 7 Hz well short of mu1


class _NanSolve:
    def __init__(self, A):
        self.n = A.shape[0]

    def solve(self, rhs):
        return np.full(np.shape(rhs), np.nan, dtype=complex)


def test_power_iteration_rejects_nonfinite_solve(monkeypatch):
    monkeypatch.setattr(la, "lu_factorize", _NanSolve)
    A = sp.identity(4, format="csr", dtype=complex)
    with pytest.raises(FactorizationError):
        power_iteration_mu1(A, sp.identity(4, format="csr"))
    with pytest.raises(ShapeError):
        power_iteration_mu1(A, sp.identity(3, format="csr"))


def test_lu_factorize_adjoint(rng):
    A = random_sparse(rng, 12, 12) + sp.identity(12) * 4.0
    lu = lu_factorize(A)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x = lu.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11
    B = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    X = lu.solve(B)
    assert X.shape == (12, 5)
    assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-11


def test_every_solve_goes_through_one_method(monkeypatch):
    from iwri.helmholtz import forward_solve
    from iwri.workflow import estimate_mu1
    from tests_helpers_toy import toy_helmholtz_system

    real_solve = la.SparseFactorization.solve
    calls = []

    def solve(fact, rhs):  # the signature the benchmark's tracer wraps with
        calls.append((fact._backend, np.shape(rhs)))
        return real_solve(fact, rhs)

    monkeypatch.setattr(la.SparseFactorization, "solve", solve)
    A, P = toy_helmholtz_system(nx=10, nz=8, n_receivers=2)

    class Kernel:
        def assemble(self, m_values):
            return A

    mu1 = estimate_mu1(Kernel(), None, P)
    assert mu1 > 0
    assert calls == [("splu", (A.shape[0], 2))]
    b = np.random.default_rng(3).standard_normal(A.shape[0]) + 0j  # new content: no memo hit
    u = forward_solve(A, b)
    assert np.linalg.norm(A @ u - b) < 1e-11 * np.linalg.norm(b)
    assert calls[1:] == [("splu", (A.shape[0],))]
