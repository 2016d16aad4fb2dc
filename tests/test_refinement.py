import numpy as np
import pytest

from iwri.errors import ParameterError, ShapeError, SolverError
from iwri.refinement import (DenseProblem, accumulated_rhs_solve, iterative_refine,
                             pseudo_inverse_solve)


def test_problem_validation(rng):
    A = rng.standard_normal((4, 4))
    with pytest.raises(ShapeError):
        DenseProblem(A=A, b=np.zeros(3))
    with pytest.raises(ParameterError):
        DenseProblem(A=A, b=np.zeros(4), beta=-1.0)
    with pytest.raises(ParameterError):
        DenseProblem(A=np.zeros((501, 501)), b=np.zeros(501))


def test_pseudo_inverse_square_invertible(rng):
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x_true = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = DenseProblem(A=A, b=A @ x_true, beta=0.0)
    assert np.linalg.norm(pseudo_inverse_solve(p) - x_true) < 1e-10 * np.linalg.norm(x_true)


def test_pseudo_inverse_damping_shrinks(rng):
    A = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    scale = np.linalg.norm(A, 2) ** 2
    norms = [np.linalg.norm(pseudo_inverse_solve(DenseProblem(A=A, b=b, beta=c * scale)))
             for c in (1.0, 10.0, 100.0)]
    assert norms[0] > norms[1] > norms[2]


def test_pseudo_inverse_overdetermined_matches_normal_equations(rng):
    A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = pseudo_inverse_solve(DenseProblem(A=A, b=b, beta=0.0))
    ref = np.linalg.solve(A.conj().T @ A, A.conj().T @ b)
    assert np.linalg.norm(x - ref) < 1e-10 * np.linalg.norm(ref)


def test_singular_without_damping(rng):
    A = np.zeros((4, 2), dtype=complex)
    A[:, 0] = rng.standard_normal(4)
    A[:, 1] = A[:, 0]  # rank deficient
    with pytest.raises(SolverError):
        pseudo_inverse_solve(DenseProblem(A=A, b=np.ones(4), beta=0.0))


def test_refine_fixed_point_when_exact(rng):
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x_true = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = DenseProblem(A=A, b=A @ x_true, beta=0.0)
    for k in (1, 3, 6):
        xk = iterative_refine(p, k)
        assert np.linalg.norm(xk - x_true) < 1e-9 * np.linalg.norm(x_true)


def test_refine_residual_decreases_with_damping(rng):
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    p = DenseProblem(A=A, b=b, beta=0.5 * np.linalg.norm(A, 2) ** 2)
    residuals = [np.linalg.norm(b - A @ iterative_refine(p, k)) for k in range(1, 8)]
    for a, c in zip(residuals, residuals[1:]):
        assert c < a


def test_form_equivalence_random_instances(rng):
    # sequential refinement vs one-shot accumulated right-hand side
    for trial in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(n, 11))
        A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        beta = float(rng.uniform(0.01, 1.0))
        p = DenseProblem(A=A, b=b, beta=beta)
        k = int(rng.integers(1, 7))
        x_seq = iterative_refine(p, k)
        x_one = accumulated_rhs_solve(p, k)
        scale = max(np.max(np.abs(x_seq)), 1e-30)
        assert np.max(np.abs(x_seq - x_one)) < 1e-12 * scale


def test_refine_requires_positive_steps(rng):
    p = DenseProblem(A=np.eye(3), b=np.ones(3))
    with pytest.raises(ParameterError):
        iterative_refine(p, 0)


def test_connection_with_dual_accumulated_wavefield_updates():
    """Frozen-model wavefield refinement with full dual accumulation equals
    iterative refinement on the stacked data/wave-equation system."""
    from iwri.grid import Grid2D, VelocityModel, velocity_to_slowness_sq
    from iwri.helmholtz import PmlConfig, StencilScheme
    from iwri.acquisition import AcquisitionGeometry, synthesize_data
    from iwri.engine import (InversionProblem, reconstruct_wavefield, update_data_dual,
                             update_source_dual)
    from iwri.linalg import assemble_normal_matrix, factorize

    rng = np.random.default_rng(3)
    grid = Grid2D(6, 5, 10.0, 10.0)
    v = VelocityModel(grid, rng.uniform(1700.0, 2000.0, grid.n))
    m_true = velocity_to_slowness_sq(v)
    pml = PmlConfig(n_layers=2).resolved(grid, 2000.0)
    geom = AcquisitionGeometry(sources=((15.0, 25.0),), receivers=((45.0, 15.0), (45.0, 35.0)))
    dataset = synthesize_data(m_true, geom, (6.0,), pml, StencilScheme(), f0=5.0)
    problem = InversionProblem(grid, pml, StencilScheme(), dataset)

    kern = problem.kernels[0]
    m = np.full(grid.n, 1.0 / 1850.0**2)
    A = kern.assemble(m)
    lam = 2.0
    d = dataset.data[0][:, 0]
    b = problem.sources[0][:, 0]
    pad = problem.pad_ordering
    fact = factorize(assemble_normal_matrix(A, problem.P, lam).tocsr()[pad][:, pad], ordering=pad)

    # engine-side: u-updates with full dual accumulation at frozen m
    d_dual = np.zeros_like(d)
    b_dual = np.zeros_like(b)
    K = 5
    for _ in range(K):
        u = reconstruct_wavefield(fact, problem.P, A, lam, d + d_dual, b + b_dual)
        d_dual = update_data_dual(d_dual, d, problem.P @ u)
        b_dual = update_source_dual(b_dual, b, A @ u, 1.0)

    # oracle: iterative refinement on [P; sqrt(lam) A] u = [d; sqrt(lam) b]
    F = np.vstack([problem.P.toarray(), np.sqrt(lam) * A.toarray()])
    s = np.concatenate([d, np.sqrt(lam) * b])
    u_ref = iterative_refine(DenseProblem(A=F, b=s, beta=0.0), K)
    assert np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref) < 1e-8
