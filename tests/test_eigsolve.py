import math
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg
from numpy.testing import assert_allclose

from crisscross import assembly, eigsolve
from crisscross.assembly import (
    assemble_div_coupling,
    assemble_orthonormal_div,
    assemble_vector_mass,
    assemble_wh_mass,
)
from crisscross.audit import exactness_check, spurious_counts
from crisscross.cli import StudyConfig, build_mesh, cmd_compare
from crisscross.eigsolve import (
    SolverError,
    _count,
    _count_zeros,
    _dense_spectrum,
    _dense_window,
    _factor_symmetric,
    _inertia,
    _shifted,
    _pencil,
    _solve_pencil,
    _vector_mass_schur,
    cluster_eigenvalues,
    dense_gevp,
    residual_norms,
    shift_invert_lanczos,
    solve_fem1,
    solve_fem2,
    solve_primal,
)
from crisscross.fespace import build_vector_space, build_wh_space, dim_sigma
from crisscross.mesh import (
    build_lshape_grid,
    build_rect_grid,
    criss_cross,
    perturb_quad_grid,
)

from fe_helpers import single_quad_mesh, traced_peak

PI = math.pi


def square_tri(n):
    return criss_cross(build_rect_grid(0, 0, PI, PI, n, n))


def unit_pi_square_tri():
    return criss_cross(single_quad_mesh([(0, 0), (PI, 0), (PI, PI), (0, PI)]))


def one_pattern(*dense):
    """CSR copies of square dense matrices that store every entry, so they
    share one pattern, as the matrices of an assembled pencil do."""
    n = len(dense[0])
    indptr, indices = np.arange(0, n * n + 1, n), np.tile(np.arange(n), n)
    return [sp.csr_matrix((np.ravel(m), indices, indptr), shape=(n, n))
            for m in dense]


# ---------------------------------------------------------------- dense_gevp


def test_dense_gevp_diagonal():
    spec = dense_gevp(np.diag([0.0, 2.0, 6.0]), np.eye(3))
    assert_allclose(spec.eigenvalues, [0, 2, 6], atol=1e-12)
    assert spec.zero_count == 1


def test_dense_gevp_scaled_mass():
    spec = dense_gevp(np.diag([2.0, 8.0]), np.diag([2.0, 2.0]))
    assert_allclose(spec.eigenvalues, [1, 4], atol=1e-13)
    assert spec.zero_count == 0


def test_dense_gevp_rejects_indefinite_mass():
    B = np.eye(2)
    A = np.diag([1.0, -3.0])
    with pytest.raises(SolverError, match="not positive definite"):
        dense_gevp(B, A)
    with pytest.raises(SolverError, match="order 2"):
        dense_gevp(B, A)


def _cluster_slices(eigenvalues):
    start = 0
    for _, mult in cluster_eigenvalues(eigenvalues):
        yield slice(start, start + mult)
        start += mult


def test_dense_gevp_agrees_with_lapack_gvd():
    # same numbers as LAPACK's sygvd, up to rounding: the eigenvalues agree
    # relative to the largest, the kernel counts are equal, and on every
    # cluster the window vectors are A-orthonormal and span gvd's subspace
    B, A = _pencil("fem2", square_tri(2), 2)[:2]
    Ad = A.toarray()
    w, v = sla.eigh(B.toarray(), Ad, driver="gvd")
    spec = dense_gevp(B, A)
    assert np.abs(spec.eigenvalues - w).max() <= 1e-13 * np.abs(w).max()
    zeros = spec.zero_count
    assert zeros == _count_zeros(w) == 38
    assert spec.vectors.shape == (len(w), len(w) - zeros)
    for cluster in _cluster_slices(w[zeros:]):
        x, y = spec.vectors[:, cluster], v[:, zeros:][:, cluster]
        assert_allclose(x.T @ Ad @ x, np.eye(x.shape[1]), atol=1e-12)
        # x = y G with G orthogonal exactly when they span one subspace
        g = y.T @ Ad @ x
        assert_allclose(g.T @ g, np.eye(x.shape[1]), atol=1e-12)
        assert np.abs(x - y @ g).max() <= 1e-12 * np.abs(x).max()


def test_dense_gevp_one_by_one_pencil():
    # the primal k=1 pencil on one quad has a single interior dof
    spec = dense_gevp(np.array([[3.0]]), np.array([[2.0]]), 6)
    assert_allclose(spec.eigenvalues, [1.5])
    assert_allclose(spec.vectors, [[2.0 ** -0.5]])
    kernel = dense_gevp(np.zeros((1, 1)), np.eye(1), 6)
    assert kernel.zero_count == 1 and kernel.vectors.shape == (1, 0)
    out = solve_primal(unit_pi_square_tri(), 1, 6)
    assert len(out.eigenvalues) == 1 and out.residuals.max() < 1e-12


def test_dense_window_clipped_at_size():
    # 26 dofs, 15 of them kernel: asking for 20 returns the 11 there are
    B, A, kernel_dim = _pencil("fem2", unit_pi_square_tri(), 2)[:3]
    spec = dense_gevp(B, A, 20)
    assert spec.zero_count == 15 and spec.vectors.shape == (26, 11)
    out = _dense_spectrum(B, A, kernel_dim, 20)
    assert len(out.eigenvalues) == 11 and out.residuals.max() < 1e-12


def test_dense_window_ends_inside_a_doublet():
    # lambda_2 = lambda_3 = 5 on the square; the window keeps only lambda_2
    B, A, kernel_dim = _pencil("fem2", square_tri(4), 2)[:3]
    out = _dense_spectrum(B, A, kernel_dim, 2)
    lam = dense_gevp(B, A, 0).eigenvalues[out.zero_count:]
    assert_allclose(lam[2], lam[1], rtol=1e-12)
    assert_allclose(out.eigenvalues, [2, 5], rtol=1e-2)
    assert out.residuals.max() < 1e-12
    assert_allclose(out.vectors.T @ A @ out.vectors, np.eye(2), atol=1e-12)


def test_dense_window_starts_inside_a_doublet():
    # B - 6A has eigenvalues lambda - 6: the kernel at -6, -4, the doublet
    # -1, -1, then 2, 4, 4, ...  Appending as many exact zeros as there are
    # values below the doublet's second member starts the window on it
    tmesh = square_tri(4)
    B, A = _pencil("fem2", tmesh, 2)[:2]
    below = dim_sigma(2, tmesh.n_quad_vertices, tmesh.n_quad_edges,
                      tmesh.n_quads) - 1 + 2
    Bz = sp.block_diag([B - 6.0 * A, sp.csr_matrix((below, below))]).toarray()
    Az = sp.block_diag([A, sp.identity(below)]).toarray()
    spec = dense_gevp(Bz, Az, 3)
    assert spec.zero_count == below
    window = spec.eigenvalues[below:below + 3]
    assert_allclose(spec.eigenvalues[below - 1], window[0], rtol=1e-12)
    assert_allclose(window, [-1, 0, 0], atol=2e-2)
    assert residual_norms(Bz, Az, window, spec.vectors).max() < 1e-12
    assert_allclose(spec.vectors.T @ Az @ spec.vectors, np.eye(3), atol=1e-12)


def test_dense_gevp_rejects_non_finite_input():
    B = np.diag([1.0, np.nan])
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_gevp(B, np.eye(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_gevp(np.eye(2), sp.csr_matrix(np.diag([1.0, np.inf])))
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_gevp(np.asfortranarray(B), None, overwrite_b=True)


def test_tridiagonal_failure_is_a_solver_error(monkeypatch):
    def diverging(*args, **kwargs):
        raise sla.LinAlgError("2 eigenvectors failed to converge")

    monkeypatch.setattr(sla, "eigh_tridiagonal", diverging)
    with pytest.raises(SolverError, match="failed to converge"):
        dense_gevp(np.diag([1.0, 2.0]), np.eye(2))


def test_dense_gevp_leaves_caller_arrays_unchanged():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 6))
    B = B + B.T
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) + 0.1
    B0, A0 = B.copy(), A.copy()
    dense_gevp(B, A)
    assert np.array_equal(B, B0) and np.array_equal(A, A0)


def test_dense_gevp_copies_a_fortran_ordered_caller_array():
    # a dense Fortran-ordered float B is what LAPACK could overwrite without
    # a copy, with the identity mass as without it
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    B = np.asfortranarray(Q @ np.diag([0.0, 1.0, 2.0, 3.0, 4.0]) @ Q.T)
    B0 = B.copy()
    dense_gevp(B, None, 2)
    assert np.array_equal(B, B0)
    dense_gevp(B, np.asfortranarray(np.eye(5)), 2)
    assert np.array_equal(B, B0)


def test_dense_gevp_overwrite_b_reduces_c_in_place():
    # the divergence-space matrix is reduced in its own storage: the same
    # bits as the copying reduction, without an n_d x n_d copy
    tmesh = square_tri(6)
    vspace = build_vector_space(tmesh, 2)
    C = _vector_mass_schur(assemble_vector_mass(vspace, tmesh),
                           assemble_orthonormal_div(vspace, tmesh))[0]
    assert C.flags.f_contiguous and C.dtype == np.float64
    copied = dense_gevp(C.copy(order="F"), None, 10)
    in_place, peak = traced_peak(
        lambda: dense_gevp(C, None, 10, overwrite_b=True))
    assert np.array_equal(in_place.eigenvalues, copied.eigenvalues)
    assert in_place.zero_count == copied.zero_count
    assert np.array_equal(in_place.vectors, copied.vectors)
    assert peak < 0.5 * C.nbytes   # a copy of C alone is C.nbytes


def test_dense_gevp_overwrite_b_copies_other_arrays():
    # only a Fortran-ordered float64 ndarray is reduced in place
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    B = np.ascontiguousarray(Q @ np.diag([0.0, 1.0, 2.0, 3.0, 4.0]) @ Q.T)
    Bi = np.diag([0, 1, 2, 3, 4])
    for b in (B, Bi):
        b0 = b.copy()
        dense_gevp(b, None, 2, overwrite_b=True)
        dense_gevp(b, np.asfortranarray(np.eye(5)), 2, overwrite_b=True)
        assert np.array_equal(b, b0) and b.dtype == b0.dtype


def test_dense_gevp_identity_mass():
    # A=None reduces B itself, and the window vectors are orthonormal
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    B = Q @ np.diag([0.0, 0.0, 1.0, 3.0, 4.0]) @ Q.T
    spec = dense_gevp(B, None, 2)
    assert spec.zero_count == 2
    assert_allclose(spec.eigenvalues, [0, 0, 1, 3, 4], atol=1e-14)
    v = spec.vectors
    assert_allclose(v.T @ v, np.eye(2), atol=1e-14)
    assert_allclose(B @ v, v * [1.0, 3.0], atol=1e-14)


def test_dense_gevp_size_cap(monkeypatch):
    monkeypatch.setattr(eigsolve, "DENSE_CAP", 10)
    B = np.eye(12)
    with pytest.raises(SolverError, match="shift-invert"):
        dense_gevp(B, np.eye(12))


def test_single_square_k2_kernel_count():
    tmesh = unit_pi_square_tri()
    spec = solve_fem2(tmesh, 2, 26)
    # 26 vector dofs, kernel = dim Sigma^3 - 1 = (3*4 + 1*4) - 1 = 15
    assert spec.zero_count == 15
    assert len(spec.eigenvalues) == 26 - 15


def test_single_square_k3_kernel_count():
    tmesh = unit_pi_square_tri()
    spec = solve_fem2(tmesh, 3, 50)
    # kernel = dim Sigma^4 - 1 = (3*4 + 3*4 + 4) - 1 = 27
    assert spec.zero_count == 27
    assert len(spec.eigenvalues) == 50 - 27 == 23


# ---------------------------------------------------------------- filtering


def test_filter_nonzero_basic():
    out = _dense_spectrum(np.diag([0.0, 0.0, 2.0, 6.0]), np.eye(4), 2, 4)
    assert out.zero_count == 2
    assert_allclose(out.eigenvalues, [2, 6])
    assert out.vectors.shape == (4, 2) and len(out.residuals) == 2


def test_dense_kernel_count_checked_against_law():
    B, A = np.diag([0.0, 0.0, 2.0, 6.0]), np.eye(4)
    with pytest.raises(SolverError, match="kernel has dimension 1"):
        _dense_spectrum(B, A, 1, 4)
    assert _dense_spectrum(B, A, 2, 4).zero_count == 2


@pytest.mark.parametrize("backend", ["dense", "lanczos"])
def test_reported_vectors_own_their_data(backend):
    # a view would keep every eigenvector of the solve alive
    tmesh = square_tri(2)
    B = _pencil("fem2", tmesh, 2)[0]
    out = _solve_pencil("fem2", tmesh, 2, 3, backend)
    assert out.vectors.shape == (B.shape[0], 3)
    assert out.vectors.base is None


def test_filter_all_zero():
    out = _dense_spectrum(np.zeros((3, 3)), np.eye(3), 3, 3)
    assert out.zero_count == 3
    assert len(out.eigenvalues) == 0


# ---------------------------------------------------------------- lanczos


@pytest.mark.parametrize("solve, tmesh, inertia", [
    (solve_fem2, unit_pi_square_tri(), 15),   # dim Sigma^3 - 1 on one quad
    (solve_primal, square_tri(2), 0),         # the interior pencil has no kernel
], ids=["fem2", "primal"])
def test_lanczos_matches_dense_on_single_square(solve, tmesh, inertia):
    dense = solve(tmesh, 2, 5)
    lanczos = solve(tmesh, 2, 5, backend="lanczos", sigma=1.0)
    assert_allclose(lanczos.eigenvalues, dense.eigenvalues[:5], rtol=1e-10)
    assert lanczos.backend == "lanczos"
    assert lanczos.converged
    assert lanczos.inertia == inertia and dense.inertia is None
    # both report the pencil's kernel dimension, not the zeros ARPACK kept
    assert lanczos.zero_count == dense.zero_count == inertia
    assert lanczos.factor_nnz > 0 and dense.factor_nnz is None


def test_shift_invert_on_explicit_pencil():
    # diagonal pencil: eigenvalues 0 (kernel), 3, 7, 11; sigma below 3
    B, A = one_pattern(np.diag([0.0, 0.0, 3.0, 7.0, 11.0, 15.0, 19.0, 23.0]),
                       np.eye(8))
    lu = _factor_symmetric(_shifted(B, A, 1.0))
    spec = shift_invert_lanczos(lu, A, sigma=1.0, n_eigs=3)
    assert_allclose(spec.eigenvalues, [3, 7, 11], atol=1e-10)
    assert residual_norms(B, A, spec.eigenvalues, spec.vectors).max() < 1e-10
    assert _inertia(lu) == 2      # the two kernel zeros lie below sigma


def test_only_a_failed_count_is_an_uncertified_count(monkeypatch):
    # the bare shift-invert spectrum was never counted (its caller reads the
    # pivots), so it reports no count doubt; a solve whose count fails does
    B, A = one_pattern(np.diag([0.0, 0.0, 3.0, 7.0, 11.0, 15.0, 19.0, 23.0]),
                       np.eye(8))
    lu = _factor_symmetric(_shifted(B, A, 1.0))
    spec = shift_invert_lanczos(lu, A, sigma=1.0, n_eigs=3)
    assert spec.inertia is None and spec.doubts == []
    monkeypatch.setattr(eigsolve, "_inertia", lambda lu: None)
    tmesh = square_tri(4)
    spec = solve_fem2(tmesh, 2, 3, backend="lanczos")
    assert spec.inertia is None
    # with no count to read, the kernel dimension is still reported
    assert spec.zero_count == dim_sigma(2, tmesh.n_quad_vertices,
                                        tmesh.n_quad_edges, tmesh.n_quads) - 1
    assert spec.doubts == ["an off-diagonal pivot leaves the eigenvalue "
                           "count below sigma uncertified"]


def test_off_diagonal_pivot_leaves_inertia_uncertified():
    # B - 2A holds the block [[0, 1], [1, 0]], whose zero diagonal forces an
    # off-diagonal pivot; the eigenvalues 1 and 3 of that block straddle sigma
    B = np.diag([2.0, 2.0, 5.0, 7.0, 9.0, 11.0])
    B[0, 1] = B[1, 0] = 1.0
    B, A = one_pattern(B, np.eye(6))
    lu = _factor_symmetric(_shifted(B, A, 2.0))
    spec = shift_invert_lanczos(lu, A, sigma=2.0, n_eigs=3)
    assert_allclose(spec.eigenvalues, [3, 5, 7], atol=1e-10)
    assert _inertia(lu) is None


@pytest.mark.parametrize("domain, n", [
    ("square", 4), ("lshape", 2), ("square-perturbed", 4),
])
@pytest.mark.parametrize("k", [2, 3])
def test_lanczos_inertia_equals_kernel_dimension(domain, n, k):
    # Sylvester: the negative pivots of B - sigma A count the eigenvalues
    # below sigma, which for 0 < sigma < lambda_1 is the div-div kernel
    tmesh = build_mesh(StudyConfig(domain=domain), n)
    spec = solve_fem2(tmesh, k, 3, backend="lanczos", sigma=1.0)
    assert spec.inertia == dim_sigma(k, tmesh.n_quad_vertices,
                                     tmesh.n_quad_edges, tmesh.n_quads) - 1


@pytest.mark.parametrize("solve", [solve_fem2, solve_primal],
                         ids=["fem2", "primal"])
def test_shift_above_first_eigenvalue_raises(solve):
    # lambda_1 ~ 2 on the square; sigma = 3 would drop it from the table
    with pytest.raises(SolverError, match=r"sigma=3\b.*kernel has dimension"):
        solve(square_tri(4), 2, 3, backend="lanczos", sigma=3.0)


def test_lanczos_counts_pivots_after_the_iteration(monkeypatch):
    # the pivot read copies L and U out of the factor; read after eigsh,
    # those copies no longer sit beside ARPACK's workspace
    events = []
    eigsh, inertia = scipy.sparse.linalg.eigsh, eigsolve._inertia

    def traced_eigsh(*args, **kwargs):
        events.append("eigsh")
        return eigsh(*args, **kwargs)

    def traced_inertia(lu):
        events.append("inertia")
        return inertia(lu)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", traced_eigsh)
    monkeypatch.setattr(eigsolve, "_inertia", traced_inertia)
    spec = solve_fem2(square_tri(4), 2, 3, backend="lanczos")
    assert events == ["eigsh", "inertia"]
    assert spec.inertia == 114
    with pytest.raises(SolverError, match="inertia check failed"):
        solve_fem2(square_tri(4), 2, 3, backend="lanczos", sigma=3.0)


@pytest.mark.parametrize("run", [
    lambda tmesh: solve_fem2(tmesh, 2, 3, backend="lanczos"),
    lambda tmesh: solve_primal(tmesh, 2, 3, backend="lanczos"),
    lambda tmesh: exactness_check(tmesh, 2),
    lambda tmesh: spurious_counts(tmesh, 2, 3),   # one tau, 3.5
], ids=["fem2", "primal", "audit", "spurious"])
def test_pivots_are_read_with_no_pencil_matrix_alive(monkeypatch, run):
    # reading the pivots copies L and U out of the factor; B and A, no longer
    # read by then, must not sit beside those copies in any frame
    refs = []
    pencil, inertia = eigsolve._pencil, eigsolve._inertia

    def tracked(*args, **kwargs):
        B, A, *rest = pencil(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in (B.data, A.data, B.indices))
        return (B, A, *rest)

    def checked(lu):
        assert refs and all(ref() is None for ref in refs)
        return inertia(lu)

    monkeypatch.setattr(eigsolve, "_pencil", tracked)
    monkeypatch.setattr(eigsolve, "_inertia", checked)
    run(square_tri(4))
    assert len(refs) == 3


def test_lanczos_excludes_kernel():
    # every returned eigenvalue exceeds the shift; the kernel maps to -1/sigma
    tmesh = square_tri(2)
    spec = solve_fem2(tmesh, 2, 8, backend="lanczos", sigma=1.0)
    assert np.all(spec.eigenvalues > 1.0)
    # the count reports the kernel dimension, which the window excludes
    assert spec.zero_count == dim_sigma(2, tmesh.n_quad_vertices,
                                        tmesh.n_quad_edges, tmesh.n_quads) - 1


def test_lanczos_first_eigenvalue_paper_level():
    tmesh = square_tri(8)
    spec = solve_fem2(tmesh, 2, 1, backend="lanczos", sigma=1.0)
    assert_allclose(spec.eigenvalues[0], 2.0000392, atol=5e-7)


def test_lanczos_residual_certificates():
    tmesh = square_tri(3)
    spec = solve_fem2(tmesh, 2, 6, backend="lanczos", sigma=1.0)
    assert spec.residuals is not None
    assert spec.residuals.max() < 1e-9


def test_lanczos_deterministic():
    tmesh = square_tri(2)
    a = solve_fem2(tmesh, 2, 5, backend="lanczos", seed=0)
    b = solve_fem2(tmesh, 2, 5, backend="lanczos", seed=0)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


# ---------------------------------------------------------------- fem1 / fem2


@pytest.mark.parametrize("k", [2, 3])
def test_fem1_matches_fem2(k):
    for tmesh in (unit_pi_square_tri(), square_tri(2)):
        s2 = solve_fem2(tmesh, k, 200)
        s1 = solve_fem1(tmesh, k, 200)
        assert len(s1.eigenvalues) == len(s2.eigenvalues)
        assert_allclose(s1.eigenvalues, s2.eigenvalues, rtol=1e-8)


def test_fem1_dimension_is_wh_dimension():
    tmesh = unit_pi_square_tri()
    spec = solve_fem1(tmesh, 2, 100)
    assert len(spec.eigenvalues) == 11   # dim W_h on one quad
    assert np.all(spec.eigenvalues > 0)


# unrefined meshes on which the Schur complement also meets a dense LU solve
# of the vector mass, the perturbed one with the most distorted quads the
# perturbation allows
_DENSE_ORACLE_MESHES = {
    "square-perturbed-0.49": lambda: criss_cross(perturb_quad_grid(
        build_rect_grid(0, 0, PI, PI, 6, 6), 0.49, seed=0)),
    "lshape-4": lambda: criss_cross(build_lshape_grid(4)),
}


@pytest.mark.parametrize("domain", ["square", "lshape", "square-perturbed",
                                    "square-perturbed-0.49"])
@pytest.mark.parametrize("k", [2, 3])
def test_fem1_flux_pencil_is_the_divdiv_pencil(domain, k):
    # div V_h = W_h, so the W_h projection of div u is div u itself: fem1's
    # B = D~^T D~ = D^T M^-1 D is fem2's div-div matrix, and both pencils
    # have one kernel, dim V_h - dim W_h = dim Sigma_h - 1; the 0.49 mesh
    # has triangles of unequal areas within each quad
    if domain in _DENSE_ORACLE_MESHES:
        tmesh = _DENSE_ORACLE_MESHES[domain]()
    else:
        tmesh = build_mesh(StudyConfig(domain=domain), 4)
    B1, A1, kernel1 = _pencil("fem1", tmesh, k)[:3]
    B2, A2, kernel2 = _pencil("fem2", tmesh, k)[:3]
    assert kernel1 == kernel2
    assert (A1 != A2).nnz == 0
    assert abs(B1 - B2).max() <= 1e-13 * abs(B2).max()


def test_fem1_whitened_coupling_is_the_wh_mass_solve(monkeypatch):
    # D~^T D~ = D^T M^-1 D against a dense solve with the assembled W_h
    # coupling and mass, on quads of unequal triangle areas; a block of the
    # mass that is not positive definite, here the last quad's, is a solver
    # error, not a bad configuration
    tmesh = _DENSE_ORACLE_MESHES["square-perturbed-0.49"]()
    for k in (2, 3):
        vspace, wh = build_vector_space(tmesh, k), build_wh_space(tmesh, k)
        D = assemble_div_coupling(vspace, wh, tmesh).toarray()
        M = assemble_wh_mass(wh, tmesh).toarray()
        expected = D.T @ np.linalg.solve(M, D)
        div = _pencil("fem1", tmesh, k, dense=True)[3]
        assert_allclose((div.T @ div).toarray(), expected, rtol=0,
                        atol=1e-13 * np.abs(expected).max())

    def indefinite(wh, tmesh):
        M = assemble_wh_mass(wh, tmesh)
        M.data[-wh.n_local ** 2:] *= -1.0
        return M

    monkeypatch.setattr(eigsolve, "assemble_wh_mass", indefinite)
    with pytest.raises(SolverError,
                       match="a block of the mass is not positive definite"):
        _pencil("fem1", tmesh, 2, dense=True)


def test_dense_fem1_peak_memory():
    # M^-1 (n_s^2) and C (n_p^2) while C is built are the peak; the pressure
    # form also held a copy of its Schur complement and the dense W_h mass,
    # and peaked near 1.91 times this
    tmesh = square_tri(6)
    n_s = build_vector_space(tmesh, 3).n_dofs // 2
    n_p = build_wh_space(tmesh, 3).n_dofs
    solve_fem1(tmesh, 3, 6)
    peak = traced_peak(lambda: solve_fem1(tmesh, 3, 6))[1]
    assert peak < 1.5 * 8 * (n_s * n_s + n_p * n_p)


@pytest.mark.parametrize("matrix", [
    np.diag([1.0, -3.0]),                   # a negative pivot
    np.array([[0.0, 1.0], [1.0, 0.0]]),     # an off-diagonal pivot
    np.array([[1.0, 1.0], [1.0, 1.0]]),     # singular
], ids=["indefinite", "zero-diagonal", "singular"])
def test_schur_factor_rejects_non_spd_matrix(matrix):
    # the vector mass is the scalar one on each interleaved component
    A = sp.csr_matrix(np.kron(matrix, np.eye(2)))
    with pytest.raises(SolverError, match="not positive definite"):
        _vector_mass_schur(A, sp.csr_matrix(np.eye(4)))


@pytest.mark.parametrize("domain, coupling, k", [
    *[(domain, coupling, k)
      for domain in ("square", "square-perturbed", "lshape")
      for coupling, k in [("orthonormal", 1), ("orthonormal", 2),
                          ("orthonormal", 3), ("wh", 2), ("wh", 3)]],
    *[(domain, "wh", k) for domain in _DENSE_ORACLE_MESHES for k in (2, 3)],
])
def test_vector_mass_schur_matches_sparse_solve(domain, coupling, k):
    # potrf and potri on the scalar mass and sparse products per component,
    # against one SuperLU solve of the whole vector mass (a dense LU solve on
    # the unrefined meshes); k = 1 has the most divergence rows per scalar
    # dof, and n = 6 spans several column blocks
    if domain in _DENSE_ORACLE_MESHES:
        tmesh = _DENSE_ORACLE_MESHES[domain]()
    else:
        tmesh = build_mesh(StudyConfig(domain=domain), 6)
    vspace = build_vector_space(tmesh, k)
    A = assemble_vector_mass(vspace, tmesh)
    if coupling == "wh":
        D = assemble_div_coupling(vspace, build_wh_space(tmesh, k), tmesh)
    else:
        D = assemble_orthonormal_div(vspace, tmesh)
    S, Minv = _vector_mass_schur(A, D)
    assert np.array_equal(S, S.T) and np.array_equal(Minv, Minv.T)
    if domain in _DENSE_ORACLE_MESHES:
        assert_allclose(Minv @ A[0::2, 0::2].toarray(), np.eye(len(Minv)),
                        rtol=0, atol=1e-10)
        expected = D @ np.linalg.solve(A.toarray(), D.T.toarray())
        expected = 0.5 * (expected + expected.T)
        assert_allclose(S, expected, rtol=0,
                        atol=1e-12 * np.abs(expected).max())
    else:
        expected = D @ _factor_symmetric(A.tocsc()).solve(D.T.toarray())
        assert_allclose(S, expected, rtol=0,
                        atol=1e-13 * np.abs(expected).max())


def test_vector_mass_schur_peak_memory():
    # M^-1 (n_s^2) and S (n_d^2) are the only large arrays; a build through
    # L^-1 D_c^T also held n_s x n_d doubles and peaked near 1.47 times this
    tmesh = square_tri(12)
    vspace = build_vector_space(tmesh, 2)
    A = assemble_vector_mass(vspace, tmesh)
    D = assemble_orthonormal_div(vspace, tmesh)
    n_s, n_d = A.shape[0] // 2, D.shape[0]
    peak = traced_peak(lambda: _vector_mass_schur(A, D))[1]
    assert peak < 1.2 * 8 * (n_s * n_s + n_d * n_d)


@pytest.mark.parametrize("domain", ["square", "lshape", "square-perturbed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_divergence_route_matches_full_pencil(domain, k):
    # C = D A^-1 D^T carries the nonzero spectrum of (B, A); the n_v - n_d
    # eigenvalues it lacks are zero, and C adds one zero per quad: the
    # centre of each is a singular vertex, where the divergence image loses
    # the alternating value
    for n in (1, 2, 5):
        tmesh = build_mesh(StudyConfig(domain=domain), n)
        B, A, kernel_dim = _pencil("fem2", tmesh, k)[:3]
        D = assemble_orthonormal_div(build_vector_space(tmesh, k), tmesh)
        full = dense_gevp(B, A, 0)
        out = _dense_spectrum(B, A, kernel_dim, 20, D)
        assert out.zero_count == full.zero_count
        lam = full.eigenvalues[full.zero_count:]
        assert_allclose(out.eigenvalues, lam[:len(out.eigenvalues)], rtol=1e-11)
        assert out.residuals.max() < 1e-11
        reduced = dense_gevp(_vector_mass_schur(A, D)[0], None, 0)
        assert reduced.zero_count + B.shape[0] - D.shape[0] == full.zero_count
        assert reduced.zero_count == tmesh.n_quads
        assert_allclose(reduced.eigenvalues[reduced.zero_count:], lam,
                        rtol=0, atol=1e-11 * lam.max())


def test_dense_fem2_reduces_only_the_divergence_space(monkeypatch):
    # rebinds the module attribute as the benchmark's tracer does: a fall-back
    # to the full pencil would show as one 1090 x 1090 call
    shapes = []

    def traced(*args, **kwargs):
        shapes.append(args[0].shape)
        return dense_gevp(*args, **kwargs)

    monkeypatch.setattr(eigsolve, "dense_gevp", traced)
    spec = solve_fem2(square_tri(8), 2, 10)
    assert shapes == [(768, 768)]
    assert spec.zero_count == 386 and len(spec.eigenvalues) == 10


def test_dense_fem2_window_peak_memory():
    # M^-1 (n_s^2) and C (n_d^2) while C is built, then C alone, reduced in
    # place; a copy of C in the reduction peaked near 1.48 times this
    tmesh = square_tri(8)
    B, A = _pencil("fem2", tmesh, 2)[:2]
    D = assemble_orthonormal_div(build_vector_space(tmesh, 2), tmesh)
    n_s, n_d = A.shape[0] // 2, D.shape[0]
    _dense_window(B, A, 10, D)
    peak = traced_peak(lambda: _dense_window(B, A, 10, D))[1]
    assert peak < 1.4 * 8 * (n_s * n_s + n_d * n_d)


def test_lanczos_fem2_builds_no_orthonormal_divergence(monkeypatch):
    # D-hat serves only the dense reduction; building it for the shift-invert
    # path as well raised the peak memory of the fine-mesh solves
    def refused(*args, **kwargs):
        raise AssertionError("the Lanczos path built the orthonormal divergence")

    monkeypatch.setattr(eigsolve, "assemble_orthonormal_div", refused)
    spec = solve_fem2(square_tri(8), 2, 5, backend="lanczos")
    assert spec.inertia == 386 and len(spec.eigenvalues) == 5


def test_dense_fem2_assembles_no_divdiv_matrix(monkeypatch):
    # the dense route reads B = D-hat^T D-hat through D-hat alone; the
    # assembled n_v x n_v div-div matrix serves the Lanczos route only
    def refused(*args, **kwargs):
        raise AssertionError("the dense route assembled the div-div matrix")

    monkeypatch.setattr(eigsolve, "assemble_divdiv", refused)
    for k in (1, 2, 3):
        spec = solve_fem2(square_tri(4), k, 5)
        assert len(spec.eigenvalues) == 5 and spec.residuals.max() < 1e-10
    report, code = cmd_compare(StudyConfig(domain="lshape", degree=2,
                                           levels=[2], n_eigs=4))
    assert code == 0 and len(report.rows[0].lambdas) == 4


def test_fem2_dense_cap_counts_the_vector_space(monkeypatch):
    # 290 vector unknowns reduce to a 192 x 192 matrix; the cap stays on 290
    monkeypatch.setattr(eigsolve, "DENSE_CAP", 289)
    with pytest.raises(SolverError, match="size 290 exceeds the cap 289; use "
                                          "the shift-invert backend"):
        solve_fem2(square_tri(4), 2, 3)


@pytest.mark.parametrize("solve, k, n", [
    (solve_fem2, 2, 12), (solve_fem2, 3, 8), (solve_primal, 2, 8),
], ids=["fem2-k2-n12", "fem2-k3-n8", "primal-k2-n8"])
def test_dense_window_reports_rayleigh_quotients(solve, k, n):
    # the reduced tridiagonal's eigenvalues are off by up to 1e-12; the
    # Rayleigh quotients of the window vectors meet Lanczos at rounding
    tmesh = square_tri(n)
    dense = solve(tmesh, k, 10)
    lanczos = solve(tmesh, k, 10, backend="lanczos")
    assert np.all(np.diff(dense.eigenvalues) >= 0)
    assert_allclose(dense.eigenvalues, lanczos.eigenvalues, rtol=1e-13)


def test_degree_four_is_one_table_entry(monkeypatch):
    # allowing k = 4 for fem2 takes its row of the form table alone: the
    # config check and both backends read the degrees from there
    fem2 = eigsolve._FORMS["fem2"]
    monkeypatch.setitem(eigsolve._FORMS, "fem2",
                        fem2._replace(degrees=fem2.degrees + (4,)))
    StudyConfig(degree=4).validate()
    tmesh = unit_pi_square_tri()
    law = dim_sigma(4, tmesh.n_quad_vertices, tmesh.n_quad_edges,
                    tmesh.n_quads) - 1
    dense = _solve_pencil("fem2", tmesh, 4, 3)
    lanczos = _solve_pencil("fem2", tmesh, 4, 3, "lanczos")
    assert dense.zero_count == law and lanczos.inertia == law
    assert_allclose(dense.eigenvalues, lanczos.eigenvalues, rtol=1e-10)


def test_fem1_requires_pressure_degree():
    tmesh = unit_pi_square_tri()
    with pytest.raises(ValueError):
        solve_fem1(tmesh, 1, 4)


# ---------------------------------------------------------------- residuals


def test_fem2_residual_certificates():
    tmesh = square_tri(3)
    spec = solve_fem2(tmesh, 2, 10)
    assert spec.residuals is not None
    assert spec.residuals.max() < 1e-10


# ---------------------------------------------------------------- primal


def test_primal_single_square_positive():
    tmesh = unit_pi_square_tri()
    spec = solve_primal(tmesh, 2, 4)
    assert np.all(spec.eigenvalues > 0)
    assert spec.zero_count == 0


def test_primal_converges_to_dirichlet_spectrum():
    spec = solve_primal(square_tri(8), 2, 3)
    assert_allclose(spec.eigenvalues, [2, 5, 5], atol=2e-3)
    err8 = spec.eigenvalues[0] - 2
    err16 = solve_primal(square_tri(16), 2, 1).eigenvalues[0] - 2
    rate = math.log2(err8 / err16)
    assert 3.8 < rate < 4.2


def test_primal_lshape_first_eigenvalue():
    # fundamental L-shape Dirichlet eigenvalue, approached from above
    spec = solve_primal(criss_cross(build_lshape_grid(8)), 2, 1)
    assert spec.eigenvalues[0] > 3.9075
    assert abs(spec.eigenvalues[0] - 3.9075420860) < 6e-3


def test_primal_rejects_bad_degree():
    with pytest.raises(ValueError):
        solve_primal(unit_pi_square_tri(), 4, 2)


# ---------------------------------------------------------------- clusters


def test_cluster_detection():
    vals = np.array([2.0, 5.0000000001, 5.0000000002, 8.0])
    clusters = cluster_eigenvalues(vals)
    assert [mult for _, mult in clusters] == [1, 2, 1]


def test_solver_rejects_unknown_backend():
    with pytest.raises(ValueError):
        solve_fem2(unit_pi_square_tri(), 2, 3, backend="magic")
    with pytest.raises(ValueError):
        solve_fem2(unit_pi_square_tri(), 4, 3)


def test_residual_certificate_inequality():
    # |B x - lambda A x| <= tol (|B| + |lambda| |A|) |x| for reported pairs
    from crisscross.assembly import assemble_divdiv, assemble_vector_mass
    from crisscross.fespace import build_vector_space

    tmesh = square_tri(2)
    vspace = build_vector_space(tmesh, 2)
    A = assemble_vector_mass(vspace, tmesh)
    B = assemble_divdiv(vspace, tmesh)
    spec = solve_fem2(tmesh, 2, 8)
    norm_a = scipy.sparse.linalg.norm(A, 1)
    norm_b = scipy.sparse.linalg.norm(B, 1)
    for lam, res in zip(spec.eigenvalues, spec.residuals):
        assert res <= 1e-9 * (norm_b + abs(lam) * norm_a)


@pytest.mark.parametrize("solve", [
    lambda t: solve_fem2(t, 2, 4),
    lambda t: solve_fem2(t, 2, 4, backend="lanczos"),
    lambda t: solve_fem1(t, 2, 4),
    lambda t: solve_primal(t, 2, 4),
], ids=["fem2", "fem2-lanczos", "fem1", "primal"])
def test_residuals_computed_once_for_reported_pairs(monkeypatch, solve):
    import crisscross.eigsolve as eigsolve

    widths = []

    def counting(B, A, eigenvalues, vectors):
        widths.append(vectors.shape[1])
        return residual_norms(B, A, eigenvalues, vectors)

    monkeypatch.setattr(eigsolve, "residual_norms", counting)
    spec = solve(square_tri(2))
    assert widths == [len(spec.eigenvalues)] == [4]
    assert dense_gevp(np.diag([1.0, 2.0]), np.eye(2)).residuals is None


def test_shifted_factor_fill_does_not_depend_on_cancellations():
    # the square and its perturbation share one element graph, so the
    # ordering and the fill of B - sigma A must agree; cancellations on the
    # square (exact zeros of the difference) must not change the pattern
    factors = []
    for domain in ("square", "square-perturbed"):
        tmesh = build_mesh(StudyConfig(domain=domain), 16)
        count, _, nnz = _count("fem2", tmesh, 2, 1.0, lambda lu, B, A: lu.nnz)
        factors.append((nnz, count))
    assert factors[0] == factors[1]
    assert factors[0][1] == 1410


@pytest.mark.parametrize("B, A", [
    _pencil("fem2", square_tri(4), 2)[:2],
], ids=["assembled"])
def test_shifted_keeps_the_union_pattern(B, A):
    # stored cancellations stay in the pattern that B and A share
    def stored(m):
        m = sp.csr_matrix(m)
        return sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), m.shape)

    M = _shifted(B, A, 1.0)
    union = stored(B) + stored(A)
    assert M.format == "csc" and M.has_sorted_indices
    assert M.nnz == union.nnz
    assert np.array_equal(M.toarray(), sp.csr_matrix(B).toarray() - A)


@pytest.mark.parametrize("form, k", [("fem2", 2), ("primal", 3)])
@pytest.mark.parametrize("domain", ["square", "square-perturbed"])
def test_transposed_solve_solves_the_shifted_pencil(form, k, domain):
    # Lanczos solves with the transposed factor; B - sigma A is symmetric
    # to rounding, so that solves the shifted pencil itself
    tmesh = build_mesh(StudyConfig(domain=domain), 3)
    sigma = 1.0

    def relative_residual(lu, B, A):
        rhs = np.random.default_rng(0).standard_normal(B.shape[0])
        x = lu.solve(rhs, trans="T")
        r = B @ x - sigma * (A @ x) - rhs
        return np.linalg.norm(r) / np.linalg.norm(rhs)

    assert _count(form, tmesh, k, sigma, relative_residual)[2] < 1e-10


def test_shifted_refuses_two_patterns():
    B = sp.csr_matrix(np.diag([0.0, 0.0, 3.0]))
    A = sp.csr_matrix(np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1))
    with pytest.raises(ValueError, match="one pattern"):
        _shifted(B, A, 1.0)


@pytest.mark.parametrize("form, builder", [
    ("fem2", "build_vector_space"), ("primal", "build_scalar_space"),
])
def test_pencil_matrices_share_one_plan(monkeypatch, form, builder):
    # both matrices are scattered through one sort of the element graph and
    # hold its pattern arrays, and the plan goes with the space
    sorts, spaces = [], []
    scatter_plan = assembly._scatter_plan
    build = getattr(eigsolve, builder)
    monkeypatch.setattr(assembly, "_scatter_plan",
                        lambda *a: sorts.append(1) or scatter_plan(*a))

    def recorded(*args):
        space = build(*args)
        spaces.append(weakref.ref(space))
        return space

    monkeypatch.setattr(eigsolve, builder, recorded)
    B, A = _pencil(form, square_tri(3), 2)[:2]
    assert len(sorts) == 1 and spaces[0]() is None
    assert np.shares_memory(B.indices, A.indices)
    assert np.shares_memory(B.indptr, A.indptr)


def test_lanczos_factor_fill_on_fine_square():
    # ordering the element graph keeps the k=2 factor near 1.2 M at n=32; a
    # graph punched by cancelled entries gives about 3.6 M
    spec = solve_fem2(square_tri(32), 2, 3, backend="lanczos", sigma=1.0)
    assert spec.factor_nnz < 1_500_000
