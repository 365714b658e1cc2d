"""Generalized symmetric eigensolvers for the mixed, div-div, and primal
eigenvalue problems.  One table maps each formulation to its degrees,
backends and pencil builder, and one solve path certifies the kernel."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from .assembly import (
    assemble_div_coupling,
    assemble_divdiv,
    assemble_orthonormal_div,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
    assemble_wh_mass,
)
from .fespace import (
    boundary_dofs,
    build_scalar_space,
    build_vector_space,
    build_wh_space,
    dim_sigma,
)
from .mesh import TriMesh

__all__ = [
    "SolverError",
    "Spectrum",
    "dense_gevp",
    "shift_invert_lanczos",
    "residual_norms",
    "solve_fem2",
    "solve_fem1",
    "solve_primal",
    "cluster_eigenvalues",
]

DENSE_CAP = 6000         # largest dense pencil; bigger ones need shift-invert
TOL_ZERO = 1e-9          # kernel threshold, relative to the largest |lambda|
CLUSTER_RTOL = 1e-8
# Shift for the shift-invert solve and the kernel counts.  Every supported
# domain lies inside (0, pi)^2, where the first Dirichlet eigenvalue is at
# least 2 (Dirichlet eigenvalues decrease as the domain grows), so 1 sits
# below lambda_1.
DEFAULT_SHIFT = 1.0
_BLOCK = 128  # columns per step of the blocked dense loops


class SolverError(RuntimeError):
    """Eigensolver failure (not positive definite, too large, no convergence)."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted generalized eigenvalues with kernel count and solver metadata.

    ``vectors`` holds eigenvectors for the reported window only: the
    columns of ``dense_gevp`` start at eigenvalue ``zero_count`` although
    its ``eigenvalues`` list the whole spectrum, and a reported spectrum's
    columns align with its ``eigenvalues`` (for a dense solve, the Rayleigh
    quotients of those columns).  ``residuals`` holds
    |B x - lambda A x| / |x| for the reported eigenpairs; ``zero_count`` is
    the number of eigenvalues classified as kernel and removed or listed
    first, which for a reported spectrum is its pencil's kernel dimension
    (``_pencil``).
    A shift-invert solve also records ``inertia``, the number of eigenvalues
    below the shift counted from the pivot signs of its factor (``_count``),
    and ``factor_nnz``, the fill of that factor.  ``inertia`` is None where
    no count was made (dense solves, and the bare ``shift_invert_lanczos``
    spectrum, whose count ``_count`` reads), and where an off-diagonal
    pivot left the count uncertified, which alone sets ``uncertified``.
    """

    eigenvalues: np.ndarray
    zero_count: int
    backend: str
    residuals: np.ndarray | None = None
    vectors: np.ndarray | None = None
    converged: bool = True
    inertia: int | None = None
    factor_nnz: int | None = None
    uncertified: bool = False

    @property
    def doubts(self) -> list:
        """Why the spectrum is not certified; empty when it is."""
        doubts = []
        if not self.converged:
            doubts.append("Lanczos did not converge")
        if self.uncertified:
            doubts.append("an off-diagonal pivot leaves the eigenvalue count "
                          "below sigma uncertified")
        return doubts


def residual_norms(B, A, eigenvalues: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Certificates |B x - lambda A x| / |x| per column of ``vectors``."""
    R = B @ vectors - A @ vectors * eigenvalues[None, :]
    return np.linalg.norm(R, axis=0) / np.linalg.norm(vectors, axis=0)


def _owned_fortran(m, overwrite: bool = False) -> np.ndarray:
    """A Fortran-ordered float64 array of a sparse or dense matrix that
    LAPACK may overwrite in place: ``m`` itself when ``overwrite`` is true
    and ``m`` already is a writeable one, else a copy.  Infinite or NaN
    entries raise ``ValueError``; the check reads the sparse ``data`` or the
    caller's array, not the copy."""
    if not np.isfinite(m.data if sp.issparse(m) else np.asarray(m)).all():
        raise ValueError("array must not contain infs or NaNs")
    if sp.issparse(m):
        return m.toarray(order="F")
    if (overwrite and isinstance(m, np.ndarray) and m.dtype == np.float64
            and m.flags.f_contiguous and m.flags.writeable):
        return m
    return np.array(m, dtype=float, order="F")


def _lapack_check(name: str, info: int) -> None:
    if info != 0:
        raise SolverError(f"LAPACK {name} failed (info={info})")


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the symmetric tridiagonal (d, e), ascending."""
    if len(d) == 1:
        return d.copy()   # f2py's dsterf rejects the empty off-diagonal
    w, info = lapack.dsterf(d, e)
    _lapack_check("dsterf", info)
    return w


def _apply_reflectors(C: np.ndarray, tau: np.ndarray, Z: np.ndarray) -> None:
    """Z <- Q Z in place, with Q = H(1) ... H(n-1) the reflectors that
    ``dsytrd`` (lower) left below the subdiagonal of C.

    Reflector j acts on rows j+1 and below, so the slice C[1:, :n-1] is the
    QR factor ``dormqr`` expects.  Passing that slice whole would make f2py
    copy N^2 doubles; column blocks copy at most N x _BLOCK, and
    the last block goes first because Q Z = Q_first (... (Q_last Z)).
    """
    n, m = Z.shape
    lwork = 64 * (m + 65)   # blocked dormqr: NB <= 64 columns plus its T
    for j0 in reversed(range(0, n - 1, _BLOCK)):
        j1 = min(j0 + _BLOCK, n - 1)
        Z[j0 + 1:], _, info = lapack.dormqr("L", "N", C[j0 + 1:, j0:j1],
                                            tau[j0:j1], Z[j0 + 1:], lwork)
        _lapack_check("dormqr", info)


def _check_dense_size(n: int, form: str | None = None) -> None:
    """Refuse a dense solve of more than ``DENSE_CAP`` unknowns, pointing to
    the shift-invert backend unless ``form``'s row of ``_FORMS`` lacks it."""
    if n > DENSE_CAP:
        hint = ("; use the shift-invert backend" if form is None
                or "lanczos" in _FORMS[form].backends else "")
        raise SolverError(
            f"dense solve of size {n} exceeds the cap {DENSE_CAP}{hint}")


def dense_gevp(B, A=None, n_eigs: int | None = None, *,
               overwrite_b: bool = False) -> Spectrum:
    """Every eigenvalue of B x = lambda A x with A symmetric positive
    definite, and the eigenvectors of the reported window.

    One LAPACK reduction: ``dpotrf`` factors A = L L^T and is the
    positive-definiteness check (its ``info`` names the first leading minor
    that is not positive definite), ``dsygst`` forms L^-1 B L^-T and
    ``dsytrd`` reduces that to Q T Q^T with T tridiagonal.  ``A=None`` is
    the identity: B is reduced directly and L is never formed.  ``dsterf``
    gives all N eigenvalues of T, ascending, so the kernel is counted against
    ``TOL_ZERO`` relative to the largest magnitude over the whole spectrum.
    Eigenvectors are computed only for the window [zero_count, zero_count +
    n_eigs), clipped at N (every nonzero eigenvalue when ``n_eigs`` is
    None): bisection and inverse iteration on T give y, and x = L^-T Q y.
    ``vectors`` holds those columns, A-orthonormal.  The generalized
    reduction serves the primal pencil and explicit ones; both mixed forms
    reach this routine with the identity mass (``_dense_spectrum``).

    By default the solve works on its own Fortran-ordered copies of B and
    A, so the caller's matrices are not modified; they are its only N x N
    arrays.  With ``overwrite_b`` a B that already is a writeable
    Fortran-ordered float64 ``ndarray`` is reduced in place instead, which
    saves its copy and leaves B holding the reflectors of ``dsytrd``; any
    other B is copied.
    """
    n = B.shape[0]
    if B.shape != (n, n) or (A is not None and A.shape != (n, n)):
        raise SolverError("pencil matrices must be square and of equal size")
    _check_dense_size(n)
    L = None
    if A is None:
        C = _owned_fortran(B, overwrite_b)
    else:
        L = _cholesky(_owned_fortran(A))
        C, info = lapack.dsygst(_owned_fortran(B, overwrite_b), L, lower=1,
                                overwrite_a=1)
        _lapack_check("dsygst", info)
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _lapack_check("dsytrd_lwork", info)
    C, d, e, tau, info = lapack.dsytrd(C, lower=1, lwork=int(lwork),
                                       overwrite_a=1)
    _lapack_check("dsytrd", info)
    w = _tridiagonal_eigenvalues(d, e)
    zeros = _count_zeros(w)
    stop = n if n_eigs is None else min(n, zeros + n_eigs)
    v = np.empty((n, 0))
    if stop > zeros:
        try:
            _, y = sla.eigh_tridiagonal(d, e, select="i",
                                        select_range=(zeros, stop - 1),
                                        lapack_driver="stebz",
                                        check_finite=False)
        except sla.LinAlgError as exc:
            raise SolverError(f"tridiagonal eigenvectors failed: {exc}") from exc
        v = np.array(y, order="F")
        _apply_reflectors(C, tau, v)
        if L is not None:
            v, info = lapack.dtrtrs(L, v, lower=1, trans=1, overwrite_b=1)
            _lapack_check("dtrtrs", info)
    return Spectrum(eigenvalues=w, zero_count=zeros, backend="dense", vectors=v)


def _cholesky(M: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of the mass M, computed in place by
    ``dpotrf``; a matrix that is not positive definite raises
    ``SolverError`` naming the first leading minor that is not."""
    L, info = lapack.dpotrf(M, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise SolverError(f"matrix A is not positive definite "
                          f"(leading minor of order {info})")
    _lapack_check("dpotrf", info)
    return L


def _mirror_lower(S: np.ndarray) -> None:
    """Copy the lower triangle of the square S onto its upper triangle in
    place, one block of columns at a time, so S is exactly symmetric."""
    n = S.shape[0]
    for j in range(0, n, _BLOCK):
        S[j:j + _BLOCK, j + _BLOCK:] = S[j + _BLOCK:, j:j + _BLOCK].T
        diagonal = S[j:j + _BLOCK, j:j + _BLOCK]
        diagonal[...] = np.tril(diagonal) + np.tril(diagonal, -1).T


def _vector_mass_schur(A, D) -> tuple[np.ndarray, np.ndarray]:
    """S = D A^-1 D^T for the interleaved vector mass A = M (x) I_2, with D
    a divergence: fem2's orthonormal one, or fem1's W_h coupling scaled by
    the inverse Cholesky factor of the W_h mass (``_pencil``), and the dense
    M^-1 it was built from, C-ordered and exactly symmetric.

    Component c of the vector dofs owns the rows and columns c::2 of A and
    the columns c::2 of D, so M = A[0::2, 0::2] and S = sum_c D_c M^-1 D_c^T.
    ``dpotrf`` factors M = L L^T and is the positive-definiteness check;
    ``dpotri`` then overwrites L with M^-1 (a mass matrix, whose condition
    number does not grow with refinement).  A row of D couples the vector
    dofs of a few triangles only, so per component and block of columns
    j:j + _BLOCK both Y = M^-1 D_c^T[:, j:j + _BLOCK] and D_c[j:] Y, the
    block's columns of S from the diagonal down, are sparse times dense
    products.  They are added into the C-ordered view S^T, whose layout is
    the product's, and its lower triangle is mirrored (``_mirror_lower``),
    so S is exactly symmetric.  The arrays are M^-1 (n_s^2), S (n_d^2),
    and Y and the product, (n_s + n_d) x _BLOCK doubles.
    """
    Minv, info = lapack.dpotri(_cholesky(A[0::2, 0::2].toarray(order="F")),
                               lower=1, overwrite_c=1)
    _lapack_check("dpotri", info)
    _mirror_lower(Minv)
    Minv = Minv.T   # the C-ordered view, which sparse products read uncopied
    n = D.shape[0]
    S = np.zeros((n, n), order="F")
    St = S.T
    for c in (0, 1):
        Dc = sp.csr_matrix(D[:, c::2])
        for j in range(0, n, _BLOCK):
            Y = (Dc[j:j + _BLOCK] @ Minv).T   # M^-1 D_c^T[:, j:j + _BLOCK]
            St[j:, j:j + _BLOCK] += Dc[j:] @ Y
    _mirror_lower(St)
    return S, Minv


def _count_zeros(w: np.ndarray) -> int:
    thresh = TOL_ZERO * max(1.0, float(np.abs(w).max(initial=0.0)))
    return int(np.count_nonzero(np.abs(w) <= thresh))


def _factor_symmetric(M: sp.csc_matrix):
    """Symmetric factor of M.

    A symmetric minimum-degree ordering with diagonal pivots gives
    P^T M P = L U with U = D L^T, so by Sylvester's law of inertia the
    negative pivots, read by ``_inertia``, count the negative eigenvalues
    of M.  A singular M raises ``RuntimeError``.  SuperLU is imported here
    and by ``shift_invert_lanczos`` only, so a dense run never loads
    ``scipy.sparse.linalg``.
    """
    import scipy.sparse.linalg as spla

    return spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _inertia(lu) -> int | None:
    """Negative pivots of a ``_factor_symmetric`` factor; None when an
    off-diagonal pivot was taken (perm_r != perm_c) and the factor is no
    congruence."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _shifted(B, A, sigma: float) -> sp.csc_matrix:
    """B - sigma A for two CSR matrices on one stored pattern, taken on that
    pattern's data; matrices on different patterns raise ``ValueError``.

    Entries that cancel stay as explicit zeros.  A sparse difference would
    drop them, and the minimum-degree ordering would then see the element
    graph with holes that depend on the numbers: on the k=2 div-div pencil
    of the square about a tenth of the pattern cancels at sigma = 1, and the
    factor of the punched graph has three times the fill.  Assembly scatters
    both matrices of a pencil through one plan of its element graph.
    """
    if not (np.array_equal(B.indptr, A.indptr)
            and np.array_equal(B.indices, A.indices)):
        raise ValueError("B and A must be stored on one pattern")
    return sp.csr_matrix((B.data - sigma * A.data, B.indices, B.indptr),
                         shape=B.shape).tocsc()


def _count(form: str, tmesh: TriMesh, k: int, sigma: float, use):
    """The count of eigenvalues below ``sigma`` of ``form``'s pencil
    (``_pencil``) on ``tmesh``, None when uncertified (``_inertia``), the
    pencil's kernel dimension, and ``use(lu, B, A)``.

    The one holder of a shifted factor and of its pencil: ``use`` runs on
    the factor of B - sigma A (``_shifted``) while B and A are alive, and
    the pivots are read, which copies L and U, only once B and A are
    dropped.  A singular B - sigma A raises ``SolverError``.
    """
    B, A, kernel_dim = _pencil(form, tmesh, k)
    try:
        lu = _factor_symmetric(_shifted(B, A, sigma))
    except RuntimeError as exc:
        raise SolverError(
            f"factorization of (B - sigma*A) failed for sigma={sigma}; "
            "try a different shift"
        ) from exc
    used = use(lu, B, A)
    del B, A
    return _inertia(lu), kernel_dim, used


def shift_invert_lanczos(lu, A, sigma: float, n_eigs: int,
                         seed: int = 0) -> Spectrum:
    """Smallest nonzero eigenpairs of B x = lambda A x by shift-invert on
    ``lu``, a factor of B - sigma A (``_count``).

    With 0 < sigma < lambda_1 the kernel maps to the negative transformed
    value -1/sigma while every target maps to a positive one, so asking for
    the algebraically largest transformed eigenvalues excludes the kernel
    entirely.  The restarted Lanczos iteration keeps the Krylov basis fully
    orthogonal and starts from a seeded deterministic vector.

    In shift-invert mode ARPACK multiplies by the factor's inverse and by A
    only, never by B, so B is no argument: ``eigsh`` reads its first
    operator for the shape and type alone.  It multiplies by a copy of A
    without its stored zeros (about half the entries of an assembled vector
    mass), whose products are the same to the last bit; the copy is
    dropped on return, before the caller reads the pivots.
    The factor's owner, ``_count``, counts the eigenvalues below sigma;
    ``inertia`` is None here.

    Each step solves with the transposed factor, (B - sigma A)^T x = b.
    Assembly makes B - sigma A symmetric up to rounding in the last bit, so
    that is the same system, and SuperLU's transposed solves gather along
    the stored columns of L and U instead of scattering into the
    right-hand side, which is faster.
    """
    import scipy.sparse.linalg as spla

    n = A.shape[0]
    if n_eigs < 1 or n_eigs > n - 2:
        raise SolverError(f"cannot compute {n_eigs} eigenvalues of size-{n} pencil")
    opinv = spla.LinearOperator((n, n), dtype=float,
                                matvec=lambda b: lu.solve(b, trans="T"))
    v0 = np.random.default_rng(seed).standard_normal(n)
    mass = sp.csr_matrix(A, copy=True)
    mass.eliminate_zeros()
    try:
        w, v = spla.eigsh(opinv, k=n_eigs, M=mass, sigma=sigma, which="LA",
                          v0=v0, tol=0, OPinv=opinv)
        converged = True
    except spla.ArpackNoConvergence as exc:
        if exc.eigenvalues is None or len(exc.eigenvalues) == 0:
            raise SolverError("Lanczos did not converge") from exc
        w, v = exc.eigenvalues, exc.eigenvectors
        converged = False
    except spla.ArpackError as exc:
        raise SolverError(f"Lanczos failed: {exc}") from exc
    order = np.argsort(w)
    return Spectrum(eigenvalues=w[order], zero_count=0, backend="lanczos",
                    vectors=v[:, order], converged=converged,
                    factor_nnz=int(lu.nnz))


class _Gram:
    """The operator x -> D^T (D x) of B = D^T D, for vectors and blocks of
    columns alike: the B of the dense mixed routes (``_dense_spectrum``)."""

    def __init__(self, D):
        self.D = D

    def __matmul__(self, x):
        return self.D.T @ (self.D @ x)


def _dense_spectrum(B, A, kernel_dim: int, n_eigs: int) -> Spectrum:
    """The reported dense spectrum of a pencil with B positive semidefinite.

    Kernel eigenvalues lead the ascending spectrum, so the split drops a
    prefix.  ``kernel_dim`` is the dimension the pencil's kernel must have;
    the solve must find exactly that many zeros, or the table would start
    with a kernel value or skip an eigenvalue.  It counts the zeros on
    every eigenvalue of its tridiagonal reduction, but reports the Rayleigh
    quotients x^T B x / x^T A x of its window vectors, ascending, which are
    more accurate than the tridiagonal's eigenvalues.  A pencil of matrices
    is reduced on a copy, since those quotients read B afterwards.

    A ``_Gram`` B = D^T D, D of n_d rows, comes with the vector mass
    A = M (x) I_2 (fem2's orthonormal divergence, or fem1's scaled W_h
    coupling, whose C has no kernel).  Then B x = lambda A x and D x = y
    give C y = lambda y with C = D A^-1 D^T (``_vector_mass_schur``), so the
    nonzero spectrum is C's and only C is reduced, in place, as nothing
    reads it afterwards.  The N - n_d eigenvalues that C has not are zero,
    and x = A^-1 D^T y / sqrt(lambda) is A-orthonormal for an orthonormal y.
    x comes from the dense M^-1 that built C, both components' rows as one
    block of 2m columns, so no sparse factor is built.  Building C holds
    n_s^2 + n_d^2 doubles, the traced peak; the reduction holds C and M^-1,
    the same count, but M^-1 stays resident beside the reduction's LAPACK
    work memory, which the trace does not see.
    """
    if isinstance(B, _Gram):
        C, Minv = _vector_mass_schur(A, B.D)
        spec = dense_gevp(C, None, n_eigs, overwrite_b=True)
        del C
        y = spec.vectors
        n, m = A.shape[0], y.shape[1]
        lam = spec.eigenvalues[spec.zero_count:spec.zero_count + m]
        x = (Minv @ (B.D.T @ y).reshape(n // 2, 2 * m)).reshape(n, m)
        zeros, v = n - B.D.shape[0] + spec.zero_count, x / np.sqrt(lam)
    else:
        spec = dense_gevp(B, A, n_eigs)
        zeros, v = spec.zero_count, spec.vectors
    if zeros != kernel_dim:
        raise SolverError(
            f"kernel check failed: {zeros} eigenvalues are zero "
            f"to the tolerance {TOL_ZERO:g}, but the kernel has dimension "
            f"{kernel_dim}"
        )
    w = np.einsum("ij,ij->j", v, B @ v) / np.einsum("ij,ij->j", v, A @ v)
    order = np.argsort(w, kind="stable")
    w, v = w[order], v.take(order, axis=1)
    return Spectrum(eigenvalues=w, zero_count=zeros, backend="dense",
                    vectors=v, residuals=residual_norms(B, A, w, v))


def _solve_pencil(form: str, tmesh: TriMesh, k: int, n_eigs: int,
                  backend: str = "dense", *, sigma: float = DEFAULT_SHIFT,
                  seed: int = 0) -> Spectrum:
    """The reported spectrum of ``form``'s pencil (``_pencil``) on ``tmesh``.

    The one place that picks the backend, among those of the form's row of
    ``_FORMS``: the solve drivers pass the form, not the matrices.  The
    dense backend is ``_dense_spectrum``.  The shift-invert backend
    iterates (``shift_invert_lanczos``), splits off the kernel, truncates
    to ``n_eigs`` and computes the residuals inside ``_count``.  Its count
    of eigenvalues below sigma must equal the kernel dimension: a larger
    one means sigma is not below lambda_1, and the smallest eigenvalues
    would be missing from the table.  Its ``zero_count`` is that dimension,
    whatever kernel values the iteration returned.
    """
    _form_rule(form, k, backend)
    if backend == "dense":
        return _dense_spectrum(*_pencil(form, tmesh, k, dense=True), n_eigs)
    def window(lu, B, A):
        spec = shift_invert_lanczos(lu, A, sigma, n_eigs, seed=seed)
        zeros = _count_zeros(spec.eigenvalues)
        w = spec.eigenvalues[zeros:zeros + n_eigs]
        # a copy, so the returned Spectrum does not keep dropped columns alive
        v = spec.vectors[:, zeros:zeros + n_eigs].copy()
        return replace(spec, eigenvalues=w, vectors=v,
                       residuals=residual_norms(B, A, w, v))

    inertia, kernel_dim, spec = _count(form, tmesh, k, sigma, window)
    if inertia is not None and inertia != kernel_dim:
        raise SolverError(
            f"inertia check failed at sigma={sigma:g}: {inertia} "
            f"eigenvalues lie below the shift, but the kernel has "
            f"dimension {kernel_dim}; choose sigma below lambda_1"
        )
    return replace(spec, zero_count=kernel_dim, inertia=inertia,
                   uncertified=inertia is None)


def _fem2_pencil(tmesh: TriMesh, k: int, dense: bool):
    """The div-div and vector mass pair on every vector dof.  The discrete
    complex is exact, so the kernel is curl Sigma_h, of dimension
    dim Sigma_h - 1 (``dim_sigma``), for every degree.  The ``dense`` route,
    capped at the vector dimension first, assembles A and B = ``_Gram(D)``
    of the orthonormal divergence D only.  Otherwise B and A are scattered
    through the one element-graph plan of the vector space, so the pencil
    holds its pattern once and the shifted factor is ordered on it."""
    space = build_vector_space(tmesh, k)
    kernel_dim = dim_sigma(k, tmesh.n_quad_vertices, tmesh.n_quad_edges,
                           tmesh.n_quads) - 1
    if not dense:
        return (assemble_divdiv(space, tmesh),
                assemble_vector_mass(space, tmesh), kernel_dim)
    _check_dense_size(space.n_dofs, "fem2")
    return (_Gram(assemble_orthonormal_div(space, tmesh)),
            assemble_vector_mass(space, tmesh), kernel_dim)


def _fem1_pencil(tmesh: TriMesh, k: int, dense: bool):
    """The mixed problem in flux form (Boffi, Acta Numerica 19, 2010): with
    the W_h coupling D and mass M = L L^T, B = D~^T D~ for D~ = L^-1 D, and
    A the vector mass.  Its nonzero spectrum is that of the pressure form
    (D A^-1 D^T, M), since D~ A^-1 D~^T = L^-1 D A^-1 D^T L^-T, and
    div V_h = W_h makes D~ onto, so the kernel has dimension
    dim V_h - dim W_h.  D and M store every quad's block whole, so their
    ``data`` are the arrays of quad blocks, and L^-1 costs one batched
    Cholesky factor and inverse of the small M blocks.  D~ keeps D's pattern
    less the exact zeros of the whitened blocks.  The ``dense`` route is
    refused above ``DENSE_CAP`` pressure unknowns before anything is
    assembled; the explicit B is what ``--export-matrices`` writes."""
    wh = build_wh_space(tmesh, k)
    if dense:
        _check_dense_size(wh.n_dofs, "fem1")
    space = build_vector_space(tmesh, k)
    A = assemble_vector_mass(space, tmesh)
    D = assemble_div_coupling(space, wh, tmesh)
    b = wh.n_local
    try:
        L = np.linalg.cholesky(
            assemble_wh_mass(wh, tmesh).data.reshape(-1, b, b))
    except np.linalg.LinAlgError as exc:
        raise SolverError("a block of the mass is not positive "
                          "definite") from exc
    # D~ = L^-1 D overwrites D's quad blocks; the inverse is lower
    # triangular, and tril drops the pivoting round-off
    Linv = np.tril(np.linalg.inv(L))
    D.data = (Linv @ D.data.reshape(len(L), b, -1)).ravel()
    D.eliminate_zeros()
    kernel_dim = space.n_dofs - wh.n_dofs
    if dense:
        return _Gram(D), A, kernel_dim
    return (D.T @ D).tocsr(), A, kernel_dim


def _primal_pencil(tmesh: TriMesh, k: int, dense: bool):
    """The stiffness and mass on the interior dofs, which have no kernel;
    both backends read the same pencil.  Both are one selection from one
    assembled pattern, which keeps stored zeros and depends on the pattern
    alone, so M takes K's pattern arrays and the pencil holds them once."""
    space = build_scalar_space(tmesh, k)
    interior = np.setdiff1d(np.arange(space.n_dofs), boundary_dofs(tmesh, k))
    K = assemble_scalar_stiffness(space, tmesh)[interior][:, interior]
    M = assemble_scalar_mass(space, tmesh)[interior][:, interior]
    return K, sp.csr_matrix((M.data, K.indices, K.indptr), K.shape), 0


# The one list of which forms, degrees and backends run.  A row holds a
# form's degrees, its backends, and its builder build(tmesh, k, dense) of
# (B, A, kernel dimension) (``_pencil``).  The CLI reads its choices and
# checks from it through ``_form_rule``; the space builders guard only
# their own inputs.
_Form = namedtuple("_Form", "degrees backends build")
_BACKENDS = {"dense": "dense", "lanczos": "shift-invert"}  # path in messages
_FORMS = {
    "fem1": _Form((2, 3), ("dense",), _fem1_pencil),
    "fem2": _Form((1, 2, 3), ("dense", "lanczos"), _fem2_pencil),
    "primal": _Form((1, 2, 3), ("dense", "lanczos"), _primal_pencil),
}


def _or_list(items) -> str:
    """'1, 2 or 3' for (1, 2, 3)."""
    *head, last = map(str, items)
    return f"{', '.join(head)} or {last}" if head else last


def _form_rule(form: str, k: int, backend: str | None = None,
               error: type = ValueError) -> _Form:
    """``form``'s row of ``_FORMS``, once it is known to run degree ``k``
    and, when given, ``backend``; ``error`` is raised otherwise."""
    if form not in _FORMS:
        raise error(f"unknown formulation {form!r}")
    row = _FORMS[form]
    degrees = sorted({d for other in _FORMS.values() for d in other.degrees})
    if k not in degrees:
        raise error(f"degree must be {_or_list(degrees)}")
    if k not in row.degrees:
        raise error(f"{form} requires degree {_or_list(row.degrees)}")
    if backend is not None and backend not in row.backends:
        if backend not in _BACKENDS:
            raise error(f"unknown backend {backend!r}")
        other = next(name for name, o in _FORMS.items() if backend in o.backends)
        raise error(f"{form} has no {_BACKENDS[backend]} path; use --backend "
                    f"{_or_list(row.backends)} or --form {other}")
    return row


def _pencil(form: str, tmesh: TriMesh, k: int, dense: bool = False):
    """The pencil (B, A) that ``form`` solves and the dimension of its
    kernel, from the form's row of ``_FORMS``.  On the dense mixed routes B
    is the operator ``_Gram(D)``.  Matrices that share a pattern share its
    arrays: none may be changed in place."""
    return _form_rule(form, k).build(tmesh, k, dense)


def solve_fem2(tmesh: TriMesh, k: int, n_eigs: int, backend: str = "dense",
               *, sigma: float = DEFAULT_SHIFT, seed: int = 0) -> Spectrum:
    """First nonzero eigenvalues of the div-div pencil (``_fem2_pencil``)."""
    return _solve_pencil("fem2", tmesh, k, n_eigs, backend, sigma=sigma,
                         seed=seed)


def solve_fem1(tmesh: TriMesh, k: int, n_eigs: int) -> Spectrum:
    """Mixed-formulation eigenvalues in flux form (``_fem1_pencil``), whose
    nonzero spectrum is the div-div one; ``vectors`` holds flux vectors."""
    return _solve_pencil("fem1", tmesh, k, n_eigs)


def solve_primal(tmesh: TriMesh, k: int, n_eigs: int, backend: str = "dense",
                 *, sigma: float = DEFAULT_SHIFT, seed: int = 0) -> Spectrum:
    """Dirichlet eigenvalues of the primal form (grad u, grad v) = l (u, v),
    whose pencil has no kernel below any valid shift."""
    return _solve_pencil("primal", tmesh, k, n_eigs, backend, sigma=sigma,
                         seed=seed)


def cluster_eigenvalues(eigenvalues: np.ndarray) -> list:
    """Group near-coincident eigenvalues (multiplicity clusters).

    Returns a list of (value, multiplicity) with value the cluster mean.
    """
    clusters = []
    for lam in np.asarray(eigenvalues, dtype=float):
        tol = CLUSTER_RTOL * max(1.0, abs(lam))
        if clusters and abs(lam - clusters[-1][0]) <= tol:
            val, count = clusters[-1]
            clusters[-1] = ((val * count + lam) / (count + 1), count + 1)
        else:
            clusters.append((lam, 1))
    return clusters
