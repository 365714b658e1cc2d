"""Finite element functions for tests: node coordinates, pointwise
evaluation, nodal interpolation, and the L2 projection onto the
divergence-image space, and the divergence image on one quad.  The library
itself never evaluates or projects a function, so these live beside the
tests that use them."""

import numpy as np

from crisscross.assembly import (
    _disc_mass_csr,
    _geometry,
    assemble_div_coupling,
)
from crisscross.audit import exactness_check
from crisscross.fespace import DofMap, WhBasis, build_disc_space, build_vector_space
from crisscross.mesh import TriMesh, criss_cross, single_quad_mesh
from crisscross.refelem import QuadRule, node_barycentric, quad_rule, tabulate_shapes


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

    b_wh = wh.restriction.T @ b_disc
    gram = (wh.restriction.T @ _disc_mass_csr(tmesh, disc, rule)
            @ wh.restriction).tocsr()
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
    rule = quad_rule(2 * k)
    disc = build_disc_space(tmesh, k - 1)
    vspace = build_vector_space(tmesh, k)
    G = _disc_mass_csr(tmesh, disc, rule).toarray()
    # nodal P_{k-1} coefficients of the divergence of each basis field
    div = np.linalg.solve(
        G, assemble_div_coupling(vspace, disc, tmesh).toarray())
    centre = div[[s * disc.n_local + 2 for s in range(4)]]  # vertex 2 per slot
    residual = np.abs([1.0, -1.0, 1.0, -1.0] @ centre) / np.abs(div).max(axis=0)
    L = np.linalg.cholesky(G)
    U = np.linalg.svd(L.T @ div, full_matrices=False)[0][:, :rank]
    cb = L.T @ np.repeat([-1.0, 1.0, -1.0, 1.0], disc.n_local)
    dist = np.linalg.norm(cb - U @ (U.T @ cb)) / np.linalg.norm(cb)
    return rank, float(residual.max()), float(dist)
