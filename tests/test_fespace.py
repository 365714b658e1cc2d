import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crisscross.fespace import (
    CENTER_SIGNS,
    boundary_dofs,
    build_scalar_space,
    build_vector_space,
    build_wh_space,
)
from crisscross.mesh import (
    build_lshape_grid,
    build_rect_grid,
    criss_cross,
    perturb_quad_grid,
)

from fe_helpers import (
    dof_points,
    eval_scalar,
    eval_vector,
    interpolate_vector,
    single_quad_mesh,
)

PI = math.pi


def unit_square_tri():
    return criss_cross(single_quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1)]))


def entity_counts(tmesh):
    """Brute-force vertex and edge counts straight from the triangle array."""
    verts = set()
    edges = set()
    for tri in tmesh.triangles:
        verts.update(int(v) for v in tri)
        for a, b in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
            edges.add((min(a, b), max(a, b)))
    return len(verts), len(edges)


# ---------------------------------------------------------------- dimensions


def test_single_square_scalar_dims():
    tmesh = unit_square_tri()
    assert build_scalar_space(tmesh, 2).n_dofs == 13   # 5 vertices + 8 edges
    assert build_scalar_space(tmesh, 3).n_dofs == 25   # 5 + 2*8 + 4


def test_k1_dim_equals_vertex_count():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 3, 2))
    assert build_scalar_space(tmesh, 1).n_dofs == tmesh.n_vertices


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_scalar_dim_formula_brute_force(k):
    tmesh = criss_cross(perturb_quad_grid(
        build_rect_grid(0, 0, PI, PI, 3, 3), 0.2, seed=2))
    V, E = entity_counts(tmesh)
    T = tmesh.n_triangles
    expected = V + (k - 1) * E + (k - 1) * (k - 2) // 2 * T
    assert build_scalar_space(tmesh, k).n_dofs == expected


def test_vector_dims():
    tmesh = unit_square_tri()
    assert build_vector_space(tmesh, 2).n_dofs == 26
    assert build_vector_space(tmesh, 3).n_dofs == 50


def test_vector_dim_grid():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 4, 4))
    V, E = entity_counts(tmesh)
    assert build_vector_space(tmesh, 2).n_dofs == 2 * (V + E)


def test_unsupported_degree():
    tmesh = unit_square_tri()
    with pytest.raises(ValueError):
        build_scalar_space(tmesh, 5)


def test_cell_dofs_cover_all_indices():
    tmesh = criss_cross(build_lshape_grid(2))
    for k in (1, 2, 3, 4):
        dmap = build_scalar_space(tmesh, k)
        assert set(dmap.cell_dofs.ravel()) == set(range(dmap.n_dofs))


# ---------------------------------------------------------------- conformity


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_global_continuity_across_edges(k):
    tmesh = criss_cross(perturb_quad_grid(
        build_rect_grid(0, 0, PI, PI, 2, 2), 0.25, seed=4))
    dmap = build_scalar_space(tmesh, k)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(dmap.n_dofs)

    # adjacency: triangles per edge
    edge_tris = {}
    for t, eids in enumerate(tmesh.tri_edges):
        for e in eids:
            edge_tris.setdefault(int(e), []).append(t)

    params = np.array([0.21, 0.5, 0.87])
    for eid, tris in edge_tris.items():
        if tmesh.edge_is_boundary[eid]:
            continue
        assert len(tris) == 2
        a, b = tmesh.edges[eid]
        vals = []
        for t in tris:
            tri = list(tmesh.triangles[t])
            la, lb = tri.index(a), tri.index(b)
            bary = np.zeros((len(params), 3))
            bary[:, la] = 1 - params
            bary[:, lb] = params
            vals.append(eval_scalar(tmesh, dmap, coeffs, t, bary))
        assert_allclose(vals[0], vals[1], atol=1e-12)


def test_vector_evaluation_interleaving():
    tmesh = unit_square_tri()
    dmap = build_vector_space(tmesh, 2)
    coeffs = interpolate_vector(tmesh, dmap, lambda x, y: (x + 2 * y, 3 * x - y))
    out = eval_vector(tmesh, dmap, coeffs, 0, [(1 / 3, 1 / 3, 1 / 3)])
    p = tmesh.tri_coords()[0].mean(axis=0)
    assert_allclose(out[0], [p[0] + 2 * p[1], 3 * p[0] - p[1]], atol=1e-13)


# ---------------------------------------------------------------- boundary


def test_single_square_boundary_dofs_k2():
    tmesh = unit_square_tri()
    dmap = build_scalar_space(tmesh, 2)
    bdofs = boundary_dofs(tmesh, 2)
    assert len(bdofs) == 8  # 4 corner vertices + 4 edge midnodes
    points = dof_points(dmap, tmesh)[bdofs]
    assert np.all(np.any((points == 0.0) | (points == 1.0), axis=1))


def test_centers_never_on_boundary():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 3, 3))
    centers = np.arange(tmesh.n_quad_vertices, tmesh.n_vertices)
    assert not set(centers) & set(boundary_dofs(tmesh, 1))


def on_lshape_boundary(x, y, tol=1e-12):
    outer = (
        abs(x) < tol or abs(y) < tol or abs(x - PI) < tol or abs(y - PI) < tol
    )
    reentrant = (
        (abs(x - PI / 2) < tol and y >= PI / 2 - tol)
        or (abs(y - PI / 2) < tol and x >= PI / 2 - tol)
    )
    inside = -tol <= x <= PI + tol and -tol <= y <= PI + tol and not (
        x > PI / 2 + tol and y > PI / 2 + tol
    )
    return inside and (outer or reentrant)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lshape_boundary_matches_geometry(k):
    # geometric oracle: a dof is boundary iff its node sits on the L boundary
    tmesh = criss_cross(build_lshape_grid(2))
    dmap = build_scalar_space(tmesh, k)
    points = dof_points(dmap, tmesh)
    geometric = {
        i for i, (x, y) in enumerate(points) if on_lshape_boundary(x, y)
    }
    assert geometric == set(boundary_dofs(tmesh, k))


def test_lshape_n1_k1_all_quad_vertices_on_boundary():
    tmesh = criss_cross(build_lshape_grid(1))
    assert set(boundary_dofs(tmesh, 1)) == set(range(8))


# ---------------------------------------------------------------- W_h basis


def test_wh_local_dimension():
    tmesh = unit_square_tri()
    assert build_wh_space(tmesh, 2).n_local == 11
    assert build_wh_space(tmesh, 3).n_local == 23


def test_wh_global_dimension():
    tmesh = criss_cross(build_lshape_grid(2))
    for k in (2, 3):
        wh = build_wh_space(tmesh, k)
        assert wh.n_dofs == tmesh.n_quads * (4 * k * (k + 1) // 2 - 1)


def test_wh_unsupported_degree():
    tmesh = unit_square_tri()
    with pytest.raises(ValueError):
        build_wh_space(tmesh, 1)
    with pytest.raises(ValueError):
        build_wh_space(tmesh, 4)


@pytest.mark.parametrize("k", [2, 3])
def test_wh_basis_satisfies_center_constraint(k):
    tmesh = criss_cross(perturb_quad_grid(
        build_rect_grid(0, 0, 1, 1, 2, 2), 0.2, seed=6))
    wh = build_wh_space(tmesh, k)
    n = k * (k + 1) // 2
    # center value of slot s is disc coefficient s*n_disc + 2
    ell = np.zeros(4 * n)
    ell[np.arange(4) * n + 2] = CENTER_SIGNS
    assert wh.basis.shape == (4 * n, wh.n_local)
    residual = ell @ wh.basis
    assert np.abs(residual).max() < 1e-12
    assert np.linalg.matrix_rank(wh.basis) == wh.n_local


def test_checkerboard_violates_constraint():
    tmesh = unit_square_tri()
    wh = build_wh_space(tmesh, 2)
    n = 3                                        # nodes of P_1 per triangle
    cb = np.tile([-1.0, 1.0, -1.0, 1.0], (n, 1)).T.ravel()
    ell = np.zeros(4 * n)
    ell[np.arange(4) * n + 2] = CENTER_SIGNS
    assert ell @ cb == -4.0
    # hence no coefficient vector of the basis reproduces it
    coeffs, residual, *_ = np.linalg.lstsq(wh.basis, cb, rcond=None)
    assert residual[0] > 0.1
