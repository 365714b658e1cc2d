import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crisscross.mesh import (
    MeshError,
    _euler_residuals,
    _make_quad_mesh,
    _validate_trimesh,
    build_lshape_grid,
    build_rect_grid,
    criss_cross,
    format_mesh_text,
    mesh_stats,
    perturb_quad_grid,
)

from fe_helpers import single_quad_mesh

PI = math.pi


def brute_force_edges(cells):
    """Set of sorted vertex pairs over consecutive cell corners."""
    edges = set()
    for cell in cells:
        n = len(cell)
        for i in range(n):
            a, b = int(cell[i]), int(cell[(i + 1) % n])
            edges.add((min(a, b), max(a, b)))
    return edges


# ---------------------------------------------------------------- builders


def test_rect_grid_counts():
    mesh = build_rect_grid(0, 0, PI, PI, 8, 8)
    assert mesh.n_vertices == 81
    assert mesh.n_quads == 64


def test_rect_grid_single_cell():
    mesh = build_rect_grid(0, 0, PI, PI, 1, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_quads == 1
    assert np.count_nonzero(criss_cross(mesh).edge_is_boundary) == 4


def test_rect_grid_invalid_inputs():
    with pytest.raises(MeshError):
        build_rect_grid(0, 0, 0, 1, 4, 4)
    with pytest.raises(MeshError):
        build_rect_grid(0, 0, 1, 1, 0, 4)


def test_mesh_size_16x16_brute_force():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 16, 16))
    h = 0.0
    for tri in tmesh.triangles:
        for a, b in combinations(tri, 2):
            h = max(h, float(np.linalg.norm(tmesh.vertices[a] - tmesh.vertices[b])))
    stats = mesh_stats(tmesh)
    assert_allclose(stats.h, h, rtol=1e-15)
    # the longest side of every sub-triangle is the quad side
    assert_allclose(h, PI / 16, rtol=1e-14)


def test_lshape_quad_counts():
    assert build_lshape_grid(4).n_quads == 48
    mesh1 = build_lshape_grid(1)
    assert mesh1.n_quads == 3
    assert mesh1.n_vertices == 8


def test_lshape_euler_identity():
    mesh = build_lshape_grid(2)
    assert mesh.n_quads == 12
    edges = brute_force_edges(mesh.quads)
    assert 1 - mesh.n_vertices + len(edges) - mesh.n_quads == 0


def test_lshape_invalid():
    with pytest.raises(MeshError):
        build_lshape_grid(0)


def test_lshape_covers_three_quarters():
    mesh = build_lshape_grid(3)
    assert_allclose(mesh.quad_areas().sum(), 0.75 * PI * PI, rtol=1e-12)


# ---------------------------------------------------------------- criss-cross


def test_unit_square_center():
    tmesh = criss_cross(single_quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert tmesh.n_vertices == 5
    assert_allclose(tmesh.vertices[4], [0.5, 0.5], atol=1e-15)
    assert_allclose(tmesh.tri_areas(), 0.25, atol=1e-15)


def test_2x2_grid_counts_and_euler():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 2, 2))
    assert tmesh.n_vertices == 13
    assert tmesh.n_triangles == 16
    edges = brute_force_edges(tmesh.triangles)
    assert len(edges) == 28
    assert tmesh.n_edges == 28
    assert tmesh.n_vertices - tmesh.n_edges + tmesh.n_triangles == 1


def test_trapezoid_center_on_both_diagonals():
    corners = [(0.0, 0.0), (2.0, 0.0), (1.5, 1.0), (0.5, 1.0)]
    tmesh = criss_cross(single_quad_mesh(corners))
    c = tmesh.vertices[4]
    p = np.asarray(corners)
    # c = p0 + t(p2 - p0) = p1 + s(p3 - p1) for some t, s in (0, 1)
    for i, j in ((0, 2), (1, 3)):
        d = p[j] - p[i]
        t = np.dot(c - p[i], d) / np.dot(d, d)
        assert 0 < t < 1
        assert np.linalg.norm(p[i] + t * d - c) < 1e-14
    # and it is not the centroid for this trapezoid
    assert np.linalg.norm(c - p.mean(axis=0)) > 1e-3


def test_parent_slots():
    qmesh = build_rect_grid(0, 0, 1, 1, 2, 1)
    tmesh = criss_cross(qmesh)
    assert tmesh.n_triangles == 8
    # triangle 4q + s holds quad q's slot-s edge and its centre; slots are
    # bottom (v0,v1), left (v3,v0), top (v2,v3), right (v1,v2)
    for q, quad in enumerate(qmesh.quads):
        for s, (a, b) in enumerate(((0, 1), (3, 0), (2, 3), (1, 2))):
            tri = tmesh.triangles[4 * q + s]
            assert list(tri) == [quad[a], quad[b], tmesh.n_quad_vertices + q]
    # slot 0 is the bottom triangle: its non-center vertices have y = 0
    for t in (0, 4):
        tri = tmesh.triangles[t]
        assert_allclose(tmesh.vertices[tri[:2], 1], 0.0, atol=1e-15)


def test_center_is_local_vertex_2():
    tmesh = criss_cross(build_rect_grid(0, 0, 1, 1, 3, 2))
    centers = tmesh.n_quad_vertices + np.arange(tmesh.n_triangles) // 4
    assert np.array_equal(tmesh.triangles[:, 2], centers)


# ---------------------------------------------------------------- perturbation


def test_perturb_zero_amplitude_is_identity():
    mesh = build_rect_grid(0, 0, PI, PI, 4, 4)
    out = perturb_quad_grid(mesh, 0.0, seed=1)
    assert np.array_equal(out.vertices, mesh.vertices)


def test_perturb_validates_convexity():
    mesh = build_rect_grid(0, 0, PI, PI, 8, 8)
    out = perturb_quad_grid(mesh, 0.2, seed=42)
    tmesh = criss_cross(out)  # would raise if any invariant broke
    assert tmesh.n_quads == 64
    assert _euler_residuals(tmesh) == (0, 0)


def test_perturb_deterministic():
    mesh = build_rect_grid(0, 0, PI, PI, 6, 6)
    a = perturb_quad_grid(mesh, 0.3, seed=7)
    b = perturb_quad_grid(mesh, 0.3, seed=7)
    assert np.array_equal(a.vertices, b.vertices)
    c = perturb_quad_grid(mesh, 0.3, seed=8)
    assert not np.array_equal(a.vertices, c.vertices)


def test_perturb_keeps_boundary_and_area():
    mesh = build_rect_grid(0, 0, PI, PI, 5, 5)
    out = perturb_quad_grid(mesh, 0.25, seed=3)
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[criss_cross(mesh).boundary_vertices()] = True
    assert np.array_equal(out.vertices[on_boundary], mesh.vertices[on_boundary])
    assert np.any(out.vertices[~on_boundary] != mesh.vertices[~on_boundary])
    assert_allclose(out.quad_areas().sum(), PI * PI, rtol=1e-12)


def test_perturb_lshape_pins_exactly_the_boundary():
    mesh = build_lshape_grid(3)
    boundary = np.zeros(mesh.n_vertices, dtype=bool)
    boundary[criss_cross(mesh).boundary_vertices()] = True
    # the re-entrant corner (pi/2, pi/2) is a boundary vertex
    corner = np.flatnonzero(np.all(np.isclose(mesh.vertices, PI / 2), axis=1))
    assert len(corner) == 1 and boundary[corner[0]]
    assert np.count_nonzero(~boundary) == 16
    for seed in range(4):
        out = perturb_quad_grid(mesh, 0.3, seed)
        moved = np.any(out.vertices != mesh.vertices, axis=1)
        assert np.array_equal(moved, ~boundary)


def test_perturb_rejects_bad_inputs():
    mesh = build_rect_grid(0, 0, 1, 1, 3, 3)
    with pytest.raises(MeshError):
        perturb_quad_grid(mesh, 0.5, seed=0)
    skew = perturb_quad_grid(mesh, 0.2, seed=0)
    with pytest.raises(MeshError):
        perturb_quad_grid(skew, 0.1, seed=0)  # not a rectangular grid anymore


# ---------------------------------------------------------------- stats


def test_single_square_stats():
    tmesh = criss_cross(single_quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1)]))
    stats = mesh_stats(tmesh)
    assert_allclose(stats.h, 1.0, atol=1e-15)
    assert_allclose(stats.h_min, 1.0, atol=1e-15)
    # right isosceles triangle: diameter 1, inradius 2A/P with A=1/4, P=1+sqrt(2)
    expected = 1.0 / (2 * 0.25 / (1 + math.sqrt(2)))
    assert_allclose(stats.shape_regularity, expected, rtol=1e-14)
    assert _euler_residuals(tmesh) == (0, 0)


def test_euler_check_various_meshes():
    for tmesh in (
        criss_cross(build_rect_grid(0, 0, PI, PI, 3, 5)),
        criss_cross(build_lshape_grid(2)),
        criss_cross(perturb_quad_grid(build_rect_grid(0, 0, 1, 1, 4, 4), 0.2, 11)),
    ):
        assert _euler_residuals(tmesh) == (0, 0)


def test_area_conservation():
    qmesh = perturb_quad_grid(build_rect_grid(0, 0, PI, PI, 6, 6), 0.2, seed=5)
    tmesh = criss_cross(qmesh)
    assert_allclose(tmesh.tri_areas().sum(), PI * PI, rtol=1e-12)
    assert_allclose(qmesh.quad_areas().sum(), PI * PI, rtol=1e-12)


def test_singular_vertex_spokes():
    # opposite center-to-corner spokes must be collinear even on skewed quads
    qmesh = perturb_quad_grid(build_rect_grid(0, 0, 1, 1, 4, 4), 0.25, seed=9)
    tmesh = criss_cross(qmesh)
    for q, quad in enumerate(qmesh.quads):
        c = tmesh.vertices[tmesh.n_quad_vertices + q]
        p = qmesh.vertices[quad]
        for i, j in ((0, 2), (1, 3)):
            u, v = p[i] - c, p[j] - c
            cross = abs(u[0] * v[1] - u[1] * v[0])
            assert cross < 1e-12


def graded_lshape(n, beta):
    """``build_lshape_grid(n)`` graded towards the re-entrant corner c: a
    vertex at distance r from c, on a ray that leaves (0, pi)^2 at distance
    R, moves along the ray to distance R (r / R)^beta."""
    qmesh = build_lshape_grid(n)
    c = np.array([PI / 2, PI / 2])
    d = qmesh.vertices - c
    r = np.linalg.norm(d, axis=1)
    R = np.full_like(r, 1.0)
    ray = r > 0
    R[ray] = (PI / 2) * r[ray] / np.abs(d[ray]).max(axis=1)
    scale = np.ones_like(r)
    scale[ray] = (r[ray] / R[ray]) ** (beta - 1)
    return _make_quad_mesh(c + d * scale[:, None], qmesh.quads)


@pytest.mark.parametrize("n, beta", [(16, 3.0), (8, 4.0)])
def test_graded_mesh_centres_are_singular(n, beta):
    # the quads at the corner are 4e-4 across and 2 from the origin: their
    # computed centres are collinear with the spokes only to the rounding of
    # |c|, which a bound scaled by h alone refused
    qmesh = graded_lshape(n, beta)
    tmesh = criss_cross(qmesh)
    assert mesh_stats(tmesh).h_min < 1e-3
    assert tmesh.n_quads == 3 * n * n


def test_moved_centre_refused_on_graded_mesh():
    # a centre moved off the diagonals by 1e-3 of its quad size is not a
    # singular vertex, on the smallest quad of the graded mesh as anywhere
    qmesh = graded_lshape(16, 3.0)
    tmesh = criss_cross(qmesh)
    p = qmesh.vertices[qmesh.quads]
    size = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    q = int(np.argmin(size))
    diagonal = (p[q, 2] - p[q, 0]) / size[q]
    vertices = tmesh.vertices.copy()
    vertices[tmesh.n_quad_vertices + q] += 1e-3 * size[q] * np.array(
        [-diagonal[1], diagonal[0]])
    moved = dataclasses.replace(tmesh, vertices=vertices)
    with pytest.raises(MeshError, match="not singular"):
        _validate_trimesh(moved, qmesh)


def test_edge_of_three_quads_refused():
    # three convex quads on the edge (0, 1): one below it, two above
    vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (1, -1), (0, -1), (1, 2),
                (0, 2)]
    quads = [[0, 1, 2, 3], [1, 0, 5, 4], [0, 1, 6, 7]]
    with pytest.raises(MeshError, match="non-manifold"):
        criss_cross(_make_quad_mesh(np.array(vertices, dtype=float),
                                    np.array(quads)))


def test_interior_edges_shared_by_two_triangles():
    tmesh = criss_cross(build_rect_grid(0, 0, 1, 1, 3, 3))
    counts = {}
    for tri in tmesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    for eid, (a, b) in enumerate(tmesh.edges):
        expected = 1 if tmesh.edge_is_boundary[eid] else 2
        assert counts[(a, b)] == expected


# ---------------------------------------------------------------- export


def test_mesh_text_format():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, 1, 2, 1))
    text = format_mesh_text(tmesh)
    lines = text.strip().split("\n")
    assert lines[0] == "crisscross-mesh v1"
    assert lines[1] == "indexing 0-based"
    counts = [int(tok) for tok in lines[2].split()]
    assert counts == [tmesh.n_vertices, tmesh.n_edges,
                      tmesh.n_triangles, tmesh.n_quads]
    assert len(lines) == 3 + tmesh.n_vertices + 2 * tmesh.n_triangles
    # 17 significant digits round-trip the coordinates exactly
    x = float(lines[3].split()[0])
    assert x == tmesh.vertices[0, 0]
    pi_line = lines[3 + 2].split()
    assert float(pi_line[0]) == PI


def test_shape_regularity_lower_bound():
    # diameter over inradius is at least the equilateral value 2*sqrt(3)
    for tmesh in (
        criss_cross(build_rect_grid(0, 0, 1, 1, 2, 2)),
        criss_cross(perturb_quad_grid(build_rect_grid(0, 0, 1, 1, 3, 3), 0.2, 1)),
    ):
        assert mesh_stats(tmesh).shape_regularity >= 2 * math.sqrt(3) - 1e-12
