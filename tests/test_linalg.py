import numpy as np
import pytest
import scipy.sparse as sp

import iwri.linalg as la
from iwri.errors import FactorizationError, ParameterError, ShapeError
from iwri.linalg import (assemble_normal_matrix, factorize, lu_factorize,
                         power_iteration_mu1)

from tests_helpers_toy import filled_split_buffer, split_buffer_oracle


def random_sparse(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    dense = np.where(mask, rng.standard_normal((rows, cols))
                     + 1j * rng.standard_normal((rows, cols)), 0.0)
    return sp.csr_matrix(dense)


def random_sampling(rng, rows, cols):
    """A sampling matrix: one random column and complex weight in each row;
    the last row samples the first row's column, so a column repeats."""
    weights = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    columns = rng.integers(0, cols, rows)
    columns[-1] = columns[0]
    return sp.csr_matrix((weights, (np.arange(rows), columns)), shape=(rows, cols))


def test_normal_matrix_hand_example():
    A = sp.identity(2, format="csr", dtype=complex)
    P = sp.csr_matrix(np.array([[1.0, 0.0]]))
    H = assemble_normal_matrix(A, P, 1.0).toarray()
    assert np.allclose(H, [[2.0, 0.0], [0.0, 1.0]])


def test_normal_matrix_linear_in_lambda(rng):
    A = random_sparse(rng, 6, 6)
    P = random_sampling(rng, 2, 6)
    PtP = (P.conjugate().T @ P).toarray()
    H1 = assemble_normal_matrix(A, P, 3.0).toarray()
    H2 = assemble_normal_matrix(A, P, 6.0).toarray()
    assert np.allclose(H2 - PtP, 2.0 * (H1 - PtP), atol=1e-13)


def test_normal_matrix_matches_dense_oracle(rng):
    A = random_sparse(rng, 20, 20)
    P = random_sampling(rng, 5, 20)
    lam = 0.37
    H = assemble_normal_matrix(A, P, lam).toarray()
    Ad, Pd = A.toarray(), P.toarray()
    expected = Pd.conj().T @ Pd + lam * (Ad.conj().T @ Ad)
    assert np.max(np.abs(H - expected)) < 1e-12


def test_normal_matrix_hermitian(rng):
    A = random_sparse(rng, 25, 25)
    P = random_sampling(rng, 4, 25)
    H = assemble_normal_matrix(A, P, 2.5)
    assert np.max(np.abs((H - H.conjugate().T).toarray())) < 1e-12


def test_normal_matrix_shape_errors(rng):
    with pytest.raises(ShapeError):
        assemble_normal_matrix(random_sparse(rng, 4, 5), random_sparse(rng, 2, 4), 1.0)
    with pytest.raises(ShapeError):
        assemble_normal_matrix(random_sparse(rng, 4, 4), random_sparse(rng, 2, 5), 1.0)
    with pytest.raises(ParameterError):
        assemble_normal_matrix(random_sparse(rng, 4, 4), random_sparse(rng, 2, 4), 0.0)
    # two entries in one row: P^H P would leave the diagonal
    two = sp.csr_matrix(([1.0, 1.0, 1.0], ([0, 0, 1], [0, 2, 3])), shape=(2, 4))
    with pytest.raises(ShapeError, match="at most one entry in each row"):
        assemble_normal_matrix(random_sparse(rng, 4, 4), two, 1.0)


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
    # H in its own order, and a band-order H with an ordering: both backends
    # take and return vectors in the caller's numbering
    M = hermitian_pd(rng, 24)
    perm = rng.permutation(24)
    b = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    for H, ordering in ((M, None), (M[perm][:, perm], perm)):
        x_banded = factorize(H, ordering=ordering).solve(b)
        with monkeypatch.context() as patch:
            patch.setattr(la, "_MAX_BAND_BYTES", 0)
            fact = factorize(H, ordering=ordering)
        assert fact._backend == "splu"
        x_splu = fact.solve(b)
        assert np.linalg.norm(x_banded - x_splu) / np.linalg.norm(x_banded) < 1e-9
        assert np.linalg.norm(M @ x_splu - b) / np.linalg.norm(b) < 1e-9


def test_backend_choice_at_band_byte_limit(rng, monkeypatch):
    # banded while the split buffer fits _MAX_BAND_BYTES exactly, SuperLU one byte below
    for H in (hermitian_pd(rng, 12), _spd_with_pairs(30, [(i, i + 5) for i in range(25)])):
        coo = H.tocoo()
        split = la.BandSplit(H.shape[0], int(np.max(np.abs(coo.row - coo.col))))
        for limit, backend in ((split.size * H.dtype.itemsize, "banded"),
                               (split.size * H.dtype.itemsize - 1, "splu")):
            monkeypatch.setattr(la, "_MAX_BAND_BYTES", limit)
            assert factorize(H)._backend == backend, (H.dtype, limit)


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
    # the pivot is named in the caller's numbering, not in the band ordering
    perm = [5, 4, 3, 2, 1, 0]
    with pytest.raises(FactorizationError) as info:
        factorize(sp.diags([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]).tocsr()[perm][:, perm], ordering=perm)
    assert info.value.pivot_index == 1
    # a band wide enough to split: a negative pivot in block 1, in block 2 and
    # in the separator, with the natural and with a reversing ordering
    n, b = 40, 3
    for bad in (5, 34, 19):  # s = 18: block 1 is 0..17, the separator 18..20
        H = _spd_with_pairs(n, [(i, i + k) for k in (1, b) for i in range(n - k)]).tolil()
        H[bad, bad] = -10.0
        for ordering in (None, np.arange(n)[::-1]):
            band = H.tocsr() if ordering is None else H.tocsr()[ordering][:, ordering]
            with pytest.raises(FactorizationError) as info:
                factorize(band, ordering=ordering)
            assert info.value.pivot_index == bad


def _random_band(rng, n, b, complex_values, ordering):
    """Hermitian positive definite matrix of bandwidth b in the band order
    H[ordering][:, ordering], with every diagonal of the band occupied."""
    band = np.zeros((n, n), dtype=complex if complex_values else float)
    for k in range(1, b + 1):
        values = rng.standard_normal(n - k) + (1j * rng.standard_normal(n - k) if complex_values else 0)
        band += np.diag(values, -k)
    band += band.conj().T + np.diag(2.0 * b + 1.0 + rng.random(n))
    inv = np.argsort(ordering)
    return sp.csr_matrix(band[np.ix_(inv, inv)])


@pytest.mark.parametrize("n, b", [(7, 0), (1, 0), (5, 4), (9, 3), (16, 3), (41, 4), (60, 7)])
@pytest.mark.parametrize("complex_values", [True, False])
def test_split_factorization_matches_dense_solve(rng, n, b, complex_values):
    # b = 0, n < 4(b+1), n = 4(b+1) and halves of unequal size ((n - b) odd)
    ordering = rng.permutation(n)
    H = _random_band(rng, n, b, complex_values, ordering)
    fact = factorize(H[ordering][:, ordering], ordering=ordering)
    s = (n - b) // 2
    assert fact._backend == "banded" and fact._split.b == b
    assert [block[:2] for block in fact._split.blocks] == [(0, s), (s, n - b - s)]
    dense = H.toarray()
    for shape in [(n,), (n, 1), (n, 3)]:
        rhs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
        if not complex_values:  # a real right-hand side too
            rhs.append(rng.standard_normal(shape))
        for r in rhs:
            x = fact.solve(r)
            expected = np.linalg.solve(dense, r)
            assert x.shape == r.shape and x.dtype == expected.dtype
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n, b", [(7, 0), (1, 0), (5, 4), (9, 3), (16, 3), (41, 4), (60, 7)])
@pytest.mark.parametrize("complex_values", [True, False])
def test_split_fill_equals_block_layout_oracle(rng, n, b, complex_values):
    # every entry of the split buffer before factoring, from H in band order
    # as CSR and as a dia_matrix
    dtype = complex if complex_values else float
    ordering = rng.permutation(n)
    H = _random_band(rng, n, b, complex_values, ordering)
    band = sp.dia_matrix(H.toarray()[np.ix_(ordering, ordering)])
    expected = split_buffer_oracle(H, ordering, dtype)
    assert la.BandSplit(n, b).size == expected.size
    assert np.array_equal(filled_split_buffer(H[ordering][:, ordering], dtype), expected)
    assert np.array_equal(filled_split_buffer(band, dtype), expected)


def test_split_factorization_repeats_bit_equal(rng):
    n, b = 200, 9
    ordering = rng.permutation(n)
    H = _random_band(rng, n, b, True, ordering)
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    band = H[ordering][:, ordering]
    first, second = factorize(band, ordering=ordering), factorize(band, ordering=ordering)
    assert np.array_equal(first._factor, second._factor)
    assert np.array_equal(first.solve(rhs), second.solve(rhs))


def test_split_factorization_solves_from_many_threads(rng):
    import sys
    import threading

    n, b = 400, 12
    ordering = rng.permutation(n)
    H = _random_band(rng, n, b, True, ordering)[ordering][:, ordering]
    fact = factorize(H, ordering=ordering)
    assert fact._split.b == b  # the separator path is exercised
    rhs = [rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)) for _ in range(8)]
    expected = [fact.solve(r) for r in rhs]
    results = [[] for _ in rhs]

    def work(i):
        for j in range(20):  # every other round factors anew: fills share the worker too
            again = fact if j % 2 else factorize(H, ordering=ordering)
            results[i].append(again.solve(rhs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(rhs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert len(got) == 20
        assert all(np.array_equal(x, want) for x in got)


def test_solve_shape_error(rng):
    fact = factorize(hermitian_pd(rng, 8))
    with pytest.raises(ShapeError):
        fact.solve(np.zeros(9))


def test_factorize_with_ordering_matches(rng):
    H = hermitian_pd(rng, 20)
    order = np.asarray(np.random.default_rng(3).permutation(20))
    b = rng.standard_normal(20) + 0j
    x0 = factorize(H).solve(b)
    x1 = factorize(H[order][:, order], ordering=order).solve(b)
    assert np.linalg.norm(x0 - x1) / np.linalg.norm(x0) < 1e-10


def _spd_with_pairs(n, pairs):
    """Real SPD matrix: 4 on the diagonal, -1 at each (i, j) pair and its mirror."""
    rows = [i for i, j in pairs] + [j for i, j in pairs]
    cols = [j for i, j in pairs] + [i for i, j in pairs]
    off = sp.csr_matrix((-np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return (sp.diags(np.full(n, 4.0)) + off).tocsr()


def test_layout_detects_another_pattern(rng):
    # matrices of one pattern, of others and in other formats are each read
    # in band order from their own entries
    n = 12
    order = np.random.default_rng(3).permutation(n)
    first = _spd_with_pairs(n, [(0, 1), (2, 3), (5, 9)])
    b = rng.standard_normal(n)
    others = [_spd_with_pairs(n, [(0, 3), (1, 2), (5, 9)]),  # same nnz and row counts
              _spd_with_pairs(n, [(0, 1), (2, 3), (5, 9), (4, 11)]),  # more entries
              first.tocsc()]  # same matrix, other format
    for H in [first, first.copy()] + others:
        band = la._diagonals(H.tocsr()[order][:, order])
        assert band.format == "dia"
        assert np.array_equal(band.toarray(), H.toarray()[np.ix_(order, order)])
        fact = factorize(band, ordering=order)
        assert np.linalg.norm(H @ fact.solve(b) - b) / np.linalg.norm(b) < 1e-12
        assert np.array_equal(fact._factor, factorize(H[order][:, order], ordering=order)._factor)
    with pytest.raises(ShapeError):
        factorize(_spd_with_pairs(n + 1, []), ordering=order)


_NOT_PERMUTATIONS = [[0, 0, 2, 3, 4, 5], [5, 4, 3, 2, 1, 1], [0, 1, 2, 3, 4, -1], [0, 1, 2, 3, 4, 6],
                     [0, 1, 2, 3, 4]]


@pytest.mark.parametrize("ordering", _NOT_PERMUTATIONS)
def test_factorize_rejects_an_ordering_that_is_not_a_permutation(ordering):
    # the first three gave a wrong solve (residual ~0.9) on this SPD tridiagonal
    H = _spd_with_pairs(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(ShapeError):
        factorize(H, ordering=ordering)


def test_factorize_sums_duplicate_entries(rng):
    # a valid non-canonical matrix: each diagonal entry 4 stored twice, as 1 and 3
    n = 6
    H = _spd_with_pairs(n, [(i, i + 1) for i in range(n - 1)])
    data, indices, indptr = [], [], [0]
    for i in range(n):
        for j, v in zip(H.indices[H.indptr[i]:H.indptr[i + 1]], H.data[H.indptr[i]:H.indptr[i + 1]]):
            indices.append(j)
            data.append(1.0 if i == j else v)
        indices.append(i)
        data.append(3.0)
        indptr.append(len(indices))
    b = rng.standard_normal(n)
    for fmt in (sp.csr_matrix, sp.csc_matrix):  # H is symmetric: one set of arrays for both
        twice = fmt((np.array(data), np.array(indices), np.array(indptr)), shape=(n, n))
        assert not twice.has_canonical_format
        assert np.array_equal(twice.toarray(), H.toarray())
        x = factorize(twice).solve(b)
        assert np.linalg.norm(H @ x - b) <= 1e-12 * np.linalg.norm(b)
        # the caller's matrix keeps its duplicates
        assert twice.nnz == H.nnz + n and np.array_equal(twice.data, data)


@pytest.mark.parametrize("complex_values", [True, False])
def test_dia_band_factor_matches_dense_solve(rng, complex_values):
    # a dia_matrix without an ordering is factored in its own (band) order
    n, b = 61, 7
    H = _random_band(rng, n, b, complex_values, np.arange(n))
    band = sp.dia_matrix(H)
    fact = factorize(band)
    assert fact._backend == "banded" and fact._split.b == b
    assert np.array_equal(fact._factor, factorize(H)._factor)
    rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    x = fact.solve(rhs)
    assert np.linalg.norm(x - np.linalg.solve(H.toarray(), rhs)) <= 1e-12 * np.linalg.norm(x)
    perm = rng.permutation(n)  # the same factors for the matrix whose band order perm gives
    M = sp.csr_matrix(H.toarray()[np.ix_(np.argsort(perm), np.argsort(perm))])
    ordered = factorize(band, ordering=perm)
    assert np.array_equal(ordered._factor, fact._factor)
    y = ordered.solve(rhs)
    assert np.linalg.norm(M @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_one_cpu_runs_no_worker_task(rng, monkeypatch):
    n, b = 300, 11
    ordering = rng.permutation(n)
    H = _random_band(rng, n, b, True, ordering)
    band = sp.dia_matrix(H.toarray()[np.ix_(ordering, ordering)])
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    monkeypatch.setattr(la.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two = [factorize(H[ordering][:, ordering], ordering=ordering), factorize(band)]
    expected = [f.solve(rhs) for f in two]

    class NoWorker:
        def submit(self, *args, **kwargs):
            raise AssertionError("a task went to the band worker")

    monkeypatch.setattr(la, "_WORKER", NoWorker())
    monkeypatch.setattr(la.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one = [factorize(H[ordering][:, ordering], ordering=ordering), factorize(band)]
    for f1, f2, x in zip(one, two, expected):
        assert not f1._parallel and f2._parallel
        assert np.array_equal(f1._factor, f2._factor)
        assert np.array_equal(f1.solve(rhs), x)


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


def test_transpose_rolls_the_diagonals_in_ascending_order(rng):
    from tests_helpers_toy import toy_helmholtz_system

    A, P = toy_helmholtz_system(nx=10, nz=8, n_receivers=2)
    for M in (A, sp.dia_matrix(A), random_sparse(rng, 9, 9), random_sparse(rng, 4, 5)):
        At = la._transpose(M)
        assert np.array_equal(At.toarray(), M.toarray().T)
    At = la._transpose(sp.dia_matrix(A))
    assert At.format == "dia" and np.all(np.diff(At.offsets) > 0)
    # mu1 still names a matrix that is not square
    with pytest.raises(ShapeError):
        power_iteration_mu1(sp.dia_matrix(A[:, :-1]), P)


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


def _n_space_rayleigh_quotients(A, P, n_it, seed, topology):
    """Reference: Rayleigh quotients of the power iteration on n-vectors,
    one solve with the LU of A and one with the LU of A^H a step.  The
    start vector is drawn per padded cell in row-major cell order, and
    moved into the topology's numbering."""
    a_lu, ah_lu = lu_factorize(A), lu_factorize(A.conjugate().T)
    P = sp.csr_matrix(P)
    Pt = P.conjugate().T.tocsr()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a_lu.n) + 1j * rng.standard_normal(a_lu.n)
    gp = topology.grid_pad
    v = v[np.arange(gp.n).reshape(gp.nz, gp.nx).ravel(topology.order)]
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
        yield kern.assemble(m0), build_observation(kern.topology, setup.geometry.receivers), kern.topology


def test_power_iteration_factored_matches_n_space_loop():
    from iwri.grid import Grid2D
    from iwri.helmholtz import PmlConfig, pad_topology
    from tests_helpers_toy import toy_helmholtz_system

    # The exact receiver-space mu1 bounds every Rayleigh quotient of the
    # n-space power iteration from above, and the loop closes on it.
    runs = [(A, P, topo, 300, 1234, 1e-11) for A, P, topo in _box_systems()]
    runs[2] = (*runs[2][:5], 2e-3)  # 7 Hz: the loop is still 1.3e-3 short after 300 steps
    toy_topology = pad_topology(Grid2D(12, 9, 10.0, 10.0), PmlConfig(n_layers=2))  # the toy system's
    runs.append((*toy_helmholtz_system(nx=12, nz=9, n_receivers=3), toy_topology, 30, 11, 1e-12))
    stops = []
    for A, P, topo, n_it, seed, gap in runs:
        exact = power_iteration_mu1(A, P).value
        q = _n_space_rayleigh_quotients(A, P, n_it, seed, topo)
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
    from tests_helpers_toy import toy_helmholtz_system

    real_solve = la.SparseFactorization.solve
    calls = []

    def solve(fact, rhs):  # the signature the benchmark's tracer wraps with
        calls.append((fact._backend, np.shape(rhs)))
        return real_solve(fact, rhs)

    monkeypatch.setattr(la.SparseFactorization, "solve", solve)
    A, P = toy_helmholtz_system(nx=10, nz=8, n_receivers=2)
    assert power_iteration_mu1(A, P).value > 0
    assert calls == [("splu", (A.shape[0], 2))]
    b = np.random.default_rng(3).standard_normal(A.shape[0]) + 0j  # new content: no memo hit
    u = forward_solve(A, b)
    assert np.linalg.norm(A @ u - b) < 1e-11 * np.linalg.norm(b)
    assert calls[1:] == [("splu", (A.shape[0],))]


def _solve_first_entry(n):
    H = _spd_with_pairs(n, [(i, i + 1) for i in range(n - 1)])
    return float(factorize(H).solve(np.ones(n))[0])


def test_factorize_in_forked_child():
    import multiprocessing

    expected = _solve_first_entry(50)  # starts the worker thread in this process
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_solve_first_entry, (50,)).get(timeout=30) == expected
