"""Finite element functions for tests: a mesh of one quad, reference and
physical node coordinates, pointwise evaluation, nodal interpolation, the
global matrices of the divergence-image basis and of the divergence into the
discontinuous P_{k-1} space, the L2 projection onto the divergence-image
space, and the divergence image on one quad; and the traced peak memory of
one call.  The library itself never builds a one-quad mesh, evaluates or
projects a function, and it builds the divergence-image space per quad, so
these live beside the tests that use them."""

import tracemalloc

import numpy as np
import scipy.sparse as sp

from crisscross.assembly import (
    _div_blocks,
    _geometry,
    assemble_orthonormal_div,
    assemble_scalar_mass,
    assemble_wh_mass,
)
from crisscross.audit import exactness_check
from crisscross.fespace import DofMap, WhBasis, build_disc_space, build_vector_space
from crisscross.mesh import QuadMesh, TriMesh, _make_quad_mesh, criss_cross
from crisscross.refelem import QuadRule, node_multi_indices, tabulate_shapes


def single_quad_mesh(corners) -> QuadMesh:
    """Mesh consisting of one convex quad with the given corner coordinates."""
    return _make_quad_mesh(corners, np.array([[0, 1, 2, 3]]))


def node_barycentric(degree: int) -> np.ndarray:
    """Barycentric coordinates of the equispaced nodes, shape (n_k, 3)."""
    return np.array(node_multi_indices(degree), dtype=float) / degree


def dof_points(dmap: DofMap, tmesh: TriMesh) -> np.ndarray:
    """Physical node coordinates per scalar dof (vector dofs share nodes)."""
    k = dmap.degree
    cell_scalar = dmap.cell_dofs[:, 0::2] // 2 if dmap.kind == "vector2" \
        else dmap.cell_dofs
    n_scalar = dmap.n_dofs // 2 if dmap.kind == "vector2" else dmap.n_dofs
    bary = node_barycentric(k)                     # (n_local, 3)
    coords = np.einsum("nj,tjd->tnd", bary, tmesh.tri_coords())
    points = np.empty((n_scalar, 2))
    points[cell_scalar.ravel()] = coords.reshape(-1, 2)
    return points


def eval_scalar(tmesh: TriMesh, dmap: DofMap, coeffs, tri: int, bary) -> np.ndarray:
    """Evaluate a scalar FE function on one triangle at barycentric points."""
    values, _ = tabulate_shapes(dmap.degree, np.atleast_2d(bary))
    local = np.asarray(coeffs)[dmap.cell_dofs[tri]]
    return values @ local


def eval_vector(tmesh: TriMesh, dmap: DofMap, coeffs, tri: int, bary) -> np.ndarray:
    """Evaluate a vector FE function; returns shape (P, 2)."""
    values, _ = tabulate_shapes(dmap.degree, np.atleast_2d(bary))
    local = np.asarray(coeffs)[dmap.cell_dofs[tri]]
    out = np.empty((values.shape[0], 2))
    out[:, 0] = values @ local[0::2]
    out[:, 1] = values @ local[1::2]
    return out


def interpolate_vector(tmesh: TriMesh, dmap: DofMap, f) -> np.ndarray:
    """Nodal interpolation of a callable returning (fx, fy) components."""
    pts = dof_points(dmap, tmesh)
    fx, fy = f(pts[:, 0], pts[:, 1])
    out = np.empty(dmap.n_dofs)
    out[0::2] = fx
    out[1::2] = fy
    return out


def wh_restriction(wh: WhBasis) -> sp.csr_matrix:
    """The map of W_h coefficients to the coefficients of the discontinuous
    P_{k-1} space (``build_disc_space``): the shared local basis on the
    diagonal, once per quad, kron(I_Q, basis)."""
    return sp.kron(sp.identity(wh.n_dofs // wh.n_local), wh.basis, "csr")


def disc_coupling(vspace: DofMap, tmesh: TriMesh) -> sp.csr_matrix:
    """The divergence coupling (div phi_j, N_i) against the nodal basis N of
    the discontinuous P_{k-1} space: N = sqrt|t| psi L^T on triangle t in
    the orthonormal basis psi of ``assemble_orthonormal_div``, so it is
    blockdiag(sqrt|t| L) times that matrix."""
    L = _div_blocks(tmesh, vspace.degree)[1]
    scale = sp.kron(sp.diags(np.sqrt(_geometry(tmesh)[0])), L, "csr")
    return (scale @ assemble_orthonormal_div(vspace, tmesh)).tocsr()


def l2_project_wh(f, wh: WhBasis, tmesh: TriMesh, rule: QuadRule) -> np.ndarray:
    """L2-orthogonal projection of a callable f(x, y) onto the constrained
    space; solves one small Gram system per quad."""
    disc = build_disc_space(tmesh, wh.degree - 1)
    assert rule.exactness_degree >= 2 * disc.degree
    area, _ = _geometry(tmesh)
    vals, _ = tabulate_shapes(disc.degree, rule.points)
    coords = np.einsum("qj,tjd->tqd", rule.points, tmesh.tri_coords())
    fvals = np.asarray(f(coords[:, :, 0], coords[:, :, 1]), dtype=float)
    b_disc = np.einsum("q,t,tq,qm->tm", rule.weights, area, fvals, vals).ravel()

    b_wh = wh_restriction(wh).T @ b_disc
    gram = assemble_wh_mass(wh, tmesh)
    m = wh.n_local
    blocks = np.stack([gram[q * m:(q + 1) * m, q * m:(q + 1) * m].toarray()
                       for q in range(tmesh.n_quads)])
    rhs = b_wh.reshape(tmesh.n_quads, m)
    return np.linalg.solve(blocks, rhs[..., None])[..., 0].ravel()


def local_divergence_image(corners, k: int):
    """div V_h^k on one criss-cross quad, against the discontinuous P_{k-1}
    space: (rank, largest relative residual of the alternating centre
    identity bottom - left + top - right = 0 over the basis divergences,
    relative L2 distance of the checkerboard from the image)."""
    tmesh = criss_cross(single_quad_mesh(corners))
    rank = exactness_check(tmesh, k).rank_div
    disc = build_disc_space(tmesh, k - 1)
    vspace = build_vector_space(tmesh, k)
    G = assemble_scalar_mass(disc, tmesh).toarray()
    # nodal P_{k-1} coefficients of the divergence of each basis field
    div = np.linalg.solve(G, disc_coupling(vspace, tmesh).toarray())
    n_disc = disc.cell_dofs.shape[1]
    centre = div[[s * n_disc + 2 for s in range(4)]]  # vertex 2 per slot
    residual = np.abs([1.0, -1.0, 1.0, -1.0] @ centre) / np.abs(div).max(axis=0)
    L = np.linalg.cholesky(G)
    U = np.linalg.svd(L.T @ div, full_matrices=False)[0][:, :rank]
    cb = L.T @ np.repeat([-1.0, 1.0, -1.0, 1.0], n_disc)
    dist = np.linalg.norm(cb - U @ (U.T @ cb)) / np.linalg.norm(cb)
    return rank, float(residual.max()), float(dist)


def traced_peak(call):
    """``call()``'s result and the peak bytes it held above what was
    allocated before it, as tracemalloc counts them (numpy arrays
    included)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
