"""Element-loop assembly of the mass, stiffness, div-div, and divergence
coupling forms into canonical CSR matrices (duplicates summed, column
indices sorted).  Each matrix is summed through a scatter plan of its
element graph (``_scatter_plan``), a vector map's as 2 x 2 blocks of its
node graph, so cancelled sums stay stored zeros and the stored pattern
never depends on the values.  Each form is integrated with
``quad_rule(2 * k)``, exact for it on the degree-k Lagrange space.  The
divergence is integrated once, into per-triangle blocks (``_div_blocks``),
and the div-div matrix and both divergence couplings are linear maps of
those blocks.  The divergence-image coupling and mass are per-quad blocks
of the one local basis every quad shares (``WhBasis.basis``), each stored
whole."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fespace import DofMap, WhBasis, build_disc_space
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


class _ScatterPlan(NamedTuple):
    """Where the entries of a batch of element matrices land in CSR.

    ``indptr`` and ``indices`` are the canonical pattern (sorted column
    indices, no duplicates) of every (row, column) pair the elements touch,
    and ``positions[e]`` is the slot in ``data`` of ravelled element entry
    e.  Matrices assembled through one plan share its ``indptr`` and
    ``indices`` arrays, and sums that cancel stay stored as zeros, so each
    stores the element graph itself and a sparse factor is ordered on it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    positions: np.ndarray
    shape: tuple


def _scatter_plan(row_dofs: np.ndarray, col_dofs: np.ndarray,
                  shape: tuple) -> _ScatterPlan:
    """The plan of the element graph that couples rows ``row_dofs[t]``
    (T, nr) with columns ``col_dofs[t]`` (T, nc) on each element t.  One
    sort of the (row, column) keys gives the pattern; the sorted copy is
    reused for the slots, so the plan peaks at about four integers per
    element entry and keeps one."""
    n_rows, n_cols = shape
    rows = np.asarray(row_dofs, dtype=np.int64)[:, :, None]  # keys pass 2**31
    keys = (rows * n_cols + col_dofs[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pairs = keys[first]
    slots = np.cumsum(first, out=keys)
    slots -= 1
    positions = np.empty_like(order)
    positions[order] = slots
    del keys, slots, order
    index = np.int32 if max(n_rows, n_cols, len(pairs)) < 2**31 else np.int64
    indptr = np.searchsorted(pairs, np.arange(n_rows + 1) * n_cols)
    return _ScatterPlan(indptr.astype(index), (pairs % n_cols).astype(index),
                        positions, (n_rows, n_cols))


def _assemble(plan: _ScatterPlan, element: np.ndarray,
              symmetric: bool = False) -> sp.spmatrix:
    """Sum the element matrices into CSR on the plan's pattern.  Elements of
    twice its size, (T, 2n, 2n) on n x n entries, rows and columns
    interleaved by component as on a vector map, are summed block by block
    into BSR.  An assembly flagged symmetric scatters each element matrix on
    one dof list to both sides, so it is symmetric when every element matrix
    is; those are checked against their transposes."""
    if symmetric:
        # antisymmetric, so its largest entry is its largest magnitude
        asym = element - element.transpose(0, 2, 1)
        scale = max(element.max(initial=0.0), -element.min(initial=0.0))
        if asym.max(initial=0.0) > 1e-12 * scale:
            raise ValueError("matrix flagged symmetric is not symmetric")
        del asym
    b = 2 if element.size > len(plan.positions) else 1
    parts = element.reshape(len(element), -1, b, element.shape[2] // b, b)
    data = [np.bincount(plan.positions, weights=parts[:, :, i, :, j].ravel(),
                        minlength=len(plan.indices))
            for i, j in np.ndindex(b, b)]
    if b == 1:
        return sp.csr_matrix((data[0], plan.indices, plan.indptr),
                             shape=plan.shape)
    return sp.bsr_matrix((np.stack(data, axis=1).reshape(-1, b, b),
                          plan.indices, plan.indptr))


def _graph_plan(space) -> _ScatterPlan:
    """The plan of a map's own element graph, kept by the map
    (``DofMap.plans``), so every matrix on it is scattered through one sort.
    A vector map couples both components of any two coupled nodes, so its
    plan is its node graph's, the scalar map's, with 2 x 2 block entries."""
    if "graph" not in space.plans:
        b = 2 if space.kind == "vector2" else 1   # components per node
        nodes = space.cell_dofs[:, ::b] // b
        space.plans["graph"] = _scatter_plan(nodes, nodes,
                                             (space.n_dofs // b,) * 2)
    return space.plans["graph"]


def _vector_matrix(space, bsr: sp.bsr_matrix) -> sp.csr_matrix:
    """A vector map's matrix of 2 x 2 node blocks as CSR, rows and columns
    interleaved by component, on the first one's ``indices`` and ``indptr``
    (kept by the map)."""
    mat = bsr.tocsr()
    indices, indptr = space.plans.setdefault("csr", (mat.indices, mat.indptr))
    return sp.csr_matrix((mat.data, indices, indptr), shape=mat.shape)


def _mass_elements(space, tmesh: TriMesh) -> np.ndarray:
    """Element mass matrices of a nodal space, (T, n, n).  The maps are
    affine, so each is the reference mass scaled by the triangle's area."""
    rule = quad_rule(2 * space.degree)
    area, _ = _geometry(tmesh)
    vals, _ = _shapes(space.degree, rule)
    ref = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    return area[:, None, None] * ref


def assemble_scalar_mass(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """L2 mass matrix of a scalar Lagrange space, continuous or not."""
    return _assemble(_graph_plan(space), _mass_elements(space, tmesh),
                     symmetric=True)


def assemble_scalar_stiffness(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """Dirichlet-form stiffness matrix (grad u, grad v) of the scalar space."""
    rule = quad_rule(2 * space.degree)
    area, _ = _geometry(tmesh)
    _, grads = _physical_gradients(tmesh, space.degree, rule)
    element = np.einsum("q,t,tqid,tqjd->tij", rule.weights, area, grads, grads)
    return _assemble(_graph_plan(space), element, symmetric=True)


def assemble_vector_mass(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """L2 mass matrix of the vector space; SPD, block of the scalar mass."""
    if space.kind != "vector2":
        raise ValueError("expected a vector dof map")
    mass = _assemble(_graph_plan(space), _mass_elements(space, tmesh),
                     symmetric=True)
    blocks = np.zeros((mass.nnz, 2, 2))
    blocks[:, 0, 0] = blocks[:, 1, 1] = mass.data
    return _vector_matrix(space, sp.bsr_matrix((blocks, mass.indices,
                                                mass.indptr)))


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
    divergence blocks E (``_div_blocks``); symmetric positive semidefinite
    with a large kernel of divergence-free fields.  It is summed in 2 x 2
    blocks on the map's node-graph plan and shares its ``indices`` and
    ``indptr`` arrays with the vector mass of the same map."""
    if space.kind != "vector2":
        raise ValueError("expected a vector dof map")
    E = _div_blocks(tmesh, space.degree)[0]
    return _vector_matrix(space, _assemble(
        _graph_plan(space), np.einsum("tia,tib->tab", E, E), symmetric=True))


def assemble_orthonormal_div(space: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """Divergence D of the vector space into an L2-orthonormal discontinuous
    P_{k-1} basis, the divergence blocks E (``_div_blocks``) stacked by
    triangle, so that D^T D is the div-div matrix."""
    if space.kind != "vector2":
        raise ValueError("expected a vector dof map")
    E = _div_blocks(tmesh, space.degree)[0]
    rows = np.arange(E.shape[0] * E.shape[1]).reshape(E.shape[:2])
    plan = _scatter_plan(rows, space.cell_dofs, (rows.size, space.n_dofs))
    return _assemble(plan, E)


def _quad_blocks(wh: WhBasis, slot_blocks: np.ndarray) -> np.ndarray:
    """Phi_s^T X_t for each triangle t = 4q + s and its slot's rows Phi_s of
    the shared W_h basis (``WhBasis.basis``), from the per-triangle blocks
    X (T, n_disc, c), as (Q, 4, n_local, c)."""
    phi = wh.basis.reshape(4, -1, wh.n_local).transpose(0, 2, 1)
    return phi @ slot_blocks.reshape(-1, 4, *slot_blocks.shape[1:])


def assemble_div_coupling(vspace: DofMap, wh: WhBasis,
                          tmesh: TriMesh) -> sp.csr_matrix:
    """Coupling D with D[i, j] = (div phi_j, q_i) for the W_h basis q.

    The nodal P_{k-1} basis is N = sqrt|t| psi L^T in the orthonormal one of
    ``_div_blocks``, so triangle t's nodal block is sqrt|t| L E_t, and quad
    q's block sums Phi_s^T sqrt|t| L E_t over its slots s.  It is scattered
    whole: each row of quad q stores every vector dof of the quad, in the
    same sorted order, so ``D.data`` reshaped (Q, n_local, columns) is the
    array of quad blocks.
    """
    if vspace.kind != "vector2":
        raise ValueError("expected a vector dof map")
    if wh.degree != vspace.degree:
        raise ValueError("pressure basis degree does not match the vector space")
    E, L = _div_blocks(tmesh, vspace.degree)
    area, _ = _geometry(tmesh)
    blocks = _quad_blocks(wh, np.sqrt(area)[:, None, None] * (L @ E))
    Q = tmesh.n_quads
    rows = np.arange(wh.n_dofs).reshape(Q, wh.n_local)
    plan = _scatter_plan(rows, vspace.cell_dofs.reshape(Q, -1),
                         (wh.n_dofs, vspace.n_dofs))
    # the columns of quad q are its slots' vector dofs, slot by slot
    blocks = blocks.transpose(0, 2, 1, 3).reshape(Q, wh.n_local, -1)
    return _assemble(plan, blocks)


def assemble_wh_mass(wh: WhBasis, tmesh: TriMesh) -> sp.csr_matrix:
    """L2 mass matrix of the divergence-image basis, block diagonal: quad
    q's block is the sum over its slots of Phi_s^T G_t Phi_s, G_t the
    P_{k-1} mass of triangle t.  The blocks are stored whole, so
    ``M.data`` reshaped (Q, n_local, n_local) is the array of them."""
    G = _mass_elements(build_disc_space(tmesh, wh.degree - 1), tmesh)
    phi = wh.basis.reshape(4, -1, wh.n_local)
    blocks = _quad_blocks(wh, G) @ phi
    rows = np.arange(wh.n_dofs).reshape(tmesh.n_quads, wh.n_local)
    plan = _scatter_plan(rows, rows, (wh.n_dofs, wh.n_dofs))
    return _assemble(plan, blocks.sum(axis=1), symmetric=True)


def write_matrix_market(mat, path) -> None:
    """Export a sparse or dense matrix in MatrixMarket coordinate format.
    ``scipy.io`` is imported here, by its one user, so that a run without
    an export does not load it."""
    import scipy.io

    with open(path, "wb") as fh:   # mmwrite(path) ignores a failed open
        scipy.io.mmwrite(fh, sp.coo_matrix(mat))
