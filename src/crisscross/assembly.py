"""Element-loop assembly of the mass, stiffness, div-div, and divergence
coupling forms into canonical CSR matrices (duplicates summed, column
indices sorted).  Each form is integrated with ``quad_rule(2 * k)``, k the
degree of its Lagrange space, which is exact for every one of them.  The
divergence is integrated once, into per-triangle blocks (``_div_blocks``),
and the div-div matrix and both divergence couplings are linear maps of
those blocks."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.io
import scipy.sparse as sp

from .fespace import DiscSpace, DofMap, WhBasis, build_disc_space
from .mesh import TriMesh
from .refelem import QuadRule, quad_rule, tabulate_shapes

__all__ = [
    "assemble_scalar_mass",
    "assemble_scalar_stiffness",
    "assemble_vector_mass",
    "assemble_divdiv",
    "assemble_orthonormal_div",
    "assemble_div_coupling",
    "assemble_wh_mass",
    "write_matrix_market",
]


def _geometry(tmesh: TriMesh):
    """Per-triangle areas and inverse Jacobians of the affine maps."""
    p = tmesh.tri_coords()
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # (T, 2, 2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1]
    Jinv[:, 0, 1] = -J[:, 0, 1]
    Jinv[:, 1, 0] = -J[:, 1, 0]
    Jinv[:, 1, 1] = J[:, 0, 0]
    Jinv /= det[:, None, None]
    return 0.5 * det, Jinv


@lru_cache(maxsize=64)
def _tabulated(degree: int, points: bytes):
    vals, grads = tabulate_shapes(degree, np.frombuffer(points).reshape(-1, 3))
    vals.flags.writeable = grads.flags.writeable = False
    return vals, grads


def _shapes(degree: int, rule: QuadRule):
    """``tabulate_shapes`` at the rule points, read-only.  Every assembly on
    one degree and rule reads the same table, so it is tabulated once per
    process."""
    return _tabulated(degree, np.asarray(rule.points, dtype=float).tobytes())


def _physical_gradients(tmesh: TriMesh, degree: int, rule: QuadRule):
    """Shape values (P, n) and physical gradients (T, P, n, 2) at rule points."""
    vals, ref_grads = _shapes(degree, rule)
    _, Jinv = _geometry(tmesh)
    grads = np.einsum("qne,ted->tqnd", ref_grads, Jinv)
    return vals, grads


def _canonical(mat) -> sp.csr_matrix:
    """CSR with duplicates summed and sorted column indices per row.  Sums
    that cancel stay stored as zeros, so every matrix assembled on one dof
    map stores that map's element graph, and a sparse factor is ordered on
    it."""
    csr = mat.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _scatter(element: np.ndarray, row_dofs: np.ndarray, col_dofs: np.ndarray,
             n_rows: int, n_cols: int, symmetric: bool) -> sp.csr_matrix:
    """Sum the element matrices into CSR.  An assembly flagged symmetric
    scatters each element matrix on one dof list to both sides, so it is
    symmetric when every element matrix is; those are checked against their
    transposes."""
    if symmetric:
        asym = element - element.transpose(0, 2, 1)
        if (np.abs(asym, out=asym).max(initial=0.0)
                > 1e-12 * np.abs(element).max(initial=0.0)):
            raise ValueError("matrix flagged symmetric is not symmetric")
    T, nr, nc = element.shape
    rows = np.repeat(row_dofs, nc, axis=1).ravel()
    cols = np.tile(col_dofs, (1, nr)).ravel()
    coo = sp.coo_matrix((element.ravel(), (rows, cols)), shape=(n_rows, n_cols))
    return _canonical(coo)


def assemble_scalar_mass(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """L2 mass matrix of the scalar Lagrange space."""
    rule = quad_rule(2 * space.degree)
    area, _ = _geometry(tmesh)
    vals, _ = _shapes(space.degree, rule)
    element = np.einsum("q,t,qi,qj->tij", rule.weights, area, vals, vals)
    return _scatter(element, space.cell_dofs, space.cell_dofs,
                    space.n_dofs, space.n_dofs, symmetric=True)


def assemble_scalar_stiffness(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """Dirichlet-form stiffness matrix (grad u, grad v) of the scalar space."""
    rule = quad_rule(2 * space.degree)
    area, _ = _geometry(tmesh)
    _, grads = _physical_gradients(tmesh, space.degree, rule)
    element = np.einsum("q,t,tqid,tqjd->tij", rule.weights, area, grads, grads)
    return _scatter(element, space.cell_dofs, space.cell_dofs,
                    space.n_dofs, space.n_dofs, symmetric=True)


def assemble_vector_mass(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """L2 mass matrix of the vector space; SPD, block of the scalar mass."""
    if space.kind != "vector2":
        raise ValueError("expected a vector dof map")
    rule = quad_rule(2 * space.degree)
    area, _ = _geometry(tmesh)
    vals, _ = _shapes(space.degree, rule)
    scalar_el = np.einsum("q,t,qi,qj->tij", rule.weights, area, vals, vals)
    T, n, _ = scalar_el.shape
    element = np.zeros((T, 2 * n, 2 * n))
    element[:, 0::2, 0::2] = scalar_el
    element[:, 1::2, 1::2] = scalar_el
    return _scatter(element, space.cell_dofs, space.cell_dofs,
                    space.n_dofs, space.n_dofs, symmetric=True)


def _div_blocks(tmesh: TriMesh, k: int):
    """Per-triangle coordinates E of the divergence of every vector basis
    field in an L2-orthonormal P_{k-1} basis, (T, m, 2n), and the lower
    Cholesky factor L of the reference P_{k-1} mass (m x m).

    The reference nodal P_{k-1} basis N (the constant for k = 1) is
    orthonormalised as psi = N L^-T and scaled by 1/sqrt|t| on triangle t,
    so E_t[i, a] = (div phi_a, psi_i)_t.  The maps are affine, so the
    divergence is the reference gradient table times the inverse Jacobian:
    it is integrated against psi once, on the reference triangle, and
    E_t = sqrt|t| (that integral) J_t^-1.  div V_h lies in P_{k-1} on every
    triangle, so the columns of E_t are the divergences in full, and
    E_t^T E_t is triangle t's div-div matrix.
    """
    rule = quad_rule(2 * k)
    area, Jinv = _geometry(tmesh)
    _, ref_grads = _shapes(k, rule)
    test = (np.ones((len(rule.weights), 1)) if k == 1
            else _shapes(k - 1, rule)[0])
    L = np.linalg.cholesky(np.einsum("q,qi,qj->ij", rule.weights, test, test))
    psi_w = np.linalg.solve(L, (rule.weights[:, None] * test).T)  # w_q psi_i
    ref = np.einsum("iq,qae->iae", psi_w, ref_grads)
    E = np.einsum("iae,ted->tiad", ref, np.sqrt(area)[:, None, None] * Jinv)
    return E.reshape(len(area), len(L), -1), L


def assemble_divdiv(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """(div u, div v) matrix of the vector space, sum_t E_t^T E_t over the
    divergence blocks (``_div_blocks``); symmetric positive semidefinite with
    a large kernel of divergence-free fields.  It is scattered on the vector
    element graph, the stored pattern of the vector mass."""
    if space.kind != "vector2":
        raise ValueError("expected a vector dof map")
    E, _ = _div_blocks(tmesh, space.degree)
    element = np.einsum("tia,tib->tab", E, E)
    return _scatter(element, space.cell_dofs, space.cell_dofs,
                    space.n_dofs, space.n_dofs, symmetric=True)


def assemble_orthonormal_div(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """Divergence D of the vector space into an L2-orthonormal discontinuous
    P_{k-1} basis, the divergence blocks E (``_div_blocks``) stacked by
    triangle, so that D^T D is the div-div matrix."""
    if space.kind != "vector2":
        raise ValueError("expected a vector dof map")
    E, _ = _div_blocks(tmesh, space.degree)
    rows = np.arange(E.shape[0] * E.shape[1]).reshape(E.shape[:2])
    return _scatter(E, rows, space.cell_dofs, rows.size, space.n_dofs,
                    symmetric=False)


def assemble_div_coupling(vspace: DofMap, testspace,
                          tmesh: TriMesh) -> sp.csr_matrix:
    """Coupling D with D[i, j] = (div phi_j, q_i).

    The test space is either the full discontinuous P_{k-1} space or the
    constrained divergence-image basis (rows compressed through its
    restriction matrix).  The nodal basis is N = sqrt|t| psi L^T in the
    orthonormal one of ``_div_blocks``, so triangle t's block is
    sqrt|t| L E_t.
    """
    if vspace.kind != "vector2":
        raise ValueError("expected a vector dof map")
    if isinstance(testspace, WhBasis):
        if testspace.degree != vspace.degree:
            raise ValueError("pressure basis degree does not match the vector space")
        disc = build_disc_space(tmesh, testspace.degree - 1)
    elif isinstance(testspace, DiscSpace):
        if testspace.degree != vspace.degree - 1:
            raise ValueError("test space degree must be one below the vector space")
        disc = testspace
    else:
        raise TypeError("testspace must be a WhBasis or DiscSpace")
    E, L = _div_blocks(tmesh, vspace.degree)
    area, _ = _geometry(tmesh)
    element = np.sqrt(area)[:, None, None] * (L @ E)
    D = _scatter(element, disc.cell_dofs, vspace.cell_dofs,
                 disc.n_dofs, vspace.n_dofs, symmetric=False)
    if isinstance(testspace, WhBasis):
        return _canonical(testspace.restriction.T @ D)
    return D


def _disc_mass_csr(tmesh: TriMesh, disc: DiscSpace,
                   rule: QuadRule) -> sp.csr_matrix:
    area, _ = _geometry(tmesh)
    vals, _ = _shapes(disc.degree, rule)
    ref_mass = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    element = area[:, None, None] * ref_mass
    return _scatter(element, disc.cell_dofs, disc.cell_dofs, disc.n_dofs,
                    disc.n_dofs, symmetric=True)


def assemble_wh_mass(wh: WhBasis, tmesh: TriMesh) -> sp.csr_matrix:
    """L2 mass matrix of the divergence-image basis (block diagonal per quad)."""
    disc = build_disc_space(tmesh, wh.degree - 1)
    G = _disc_mass_csr(tmesh, disc, quad_rule(2 * wh.degree))
    return _canonical(wh.restriction.T @ G @ wh.restriction)


def write_matrix_market(mat, path) -> None:
    """Export a sparse or dense matrix in MatrixMarket coordinate format."""
    with open(path, "wb") as fh:   # mmwrite(path) ignores a failed open
        scipy.io.mmwrite(fh, sp.coo_matrix(mat))
