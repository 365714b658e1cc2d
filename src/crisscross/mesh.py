"""Quadrilateral partitions and their criss-cross triangulations.

A quad mesh covers the domain with strictly convex quadrilaterals; the
criss-cross refinement splits every quad into four triangles along its two
diagonals, adding one vertex per quad at the diagonal intersection.  The
intersection point (not the centroid) is what makes every added vertex
singular: its four incident interior edges lie on two straight lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "QuadMesh",
    "TriMesh",
    "MeshStats",
    "build_rect_grid",
    "build_lshape_grid",
    "perturb_quad_grid",
    "criss_cross",
    "mesh_stats",
    "format_mesh_text",
    "write_mesh_text",
]

class MeshError(ValueError):
    """Invalid mesh input or geometry."""


@dataclass(frozen=True)
class QuadMesh:
    """Partition of a polygonal domain into convex quadrilaterals.

    Attributes
    ----------
    vertices : (V, 2) float array
        Vertex coordinates.
    quads : (Q, 4) int array
        Vertex indices of each quad, counterclockwise.
    """

    vertices: np.ndarray
    quads: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_quads(self) -> int:
        return len(self.quads)

    def quad_areas(self) -> np.ndarray:
        """Signed shoelace areas, positive for counterclockwise quads."""
        p = self.vertices[self.quads]  # (Q, 4, 2)
        q = np.roll(p, -1, axis=1)
        return 0.5 * np.sum(p[:, :, 0] * q[:, :, 1] - q[:, :, 0] * p[:, :, 1], axis=1)


@dataclass(frozen=True)
class TriMesh:
    """Criss-cross triangulation of a :class:`QuadMesh`.

    Vertices are the quad-mesh vertices followed by one center per quad
    (center of quad ``q`` has index ``n_quad_vertices + q``).  Triangles are
    stored quad-major: triangle ``t`` is slot ``t % 4`` of quad ``t // 4``,
    the slots being bottom, left, top, right.  The center is always local
    vertex 2 of each triangle.
    """

    vertices: np.ndarray        # (V, 2)
    triangles: np.ndarray       # (T, 3) int, counterclockwise
    edges: np.ndarray           # (E, 2) int, each row sorted, rows lexsorted
    edge_is_boundary: np.ndarray  # (E,) bool
    tri_edges: np.ndarray       # (T, 3) edge index of local edges (0,1),(0,2),(1,2)
    n_quad_vertices: int
    n_quad_edges: int
    n_quads: int

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def tri_coords(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (T, 3, 2)."""
        return self.vertices[self.triangles]

    def tri_areas(self) -> np.ndarray:
        p = self.tri_coords()
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def boundary_vertices(self) -> np.ndarray:
        """Indices of vertices lying on the domain boundary."""
        return np.unique(self.edges[self.edge_is_boundary])


@dataclass(frozen=True)
class MeshStats:
    """Size and quality summary of a triangulation."""

    h: float                  # max triangle diameter
    h_min: float
    shape_regularity: float   # max over triangles of diameter / inradius
    n_vertices: int
    n_edges: int
    n_triangles: int
    n_quads: int


def _make_quad_mesh(vertices: np.ndarray, quads: np.ndarray) -> QuadMesh:
    """Assemble a QuadMesh and check that its quads are convex.  An edge
    shared by more than two quads is refused by :func:`criss_cross`."""
    mesh = QuadMesh(np.ascontiguousarray(vertices, dtype=float),
                    np.ascontiguousarray(quads, dtype=np.int64))
    _validate_convexity(mesh)
    return mesh


def _validate_convexity(mesh: QuadMesh) -> None:
    """Check that every quad is strictly convex with interior diagonal crossing."""
    p = mesh.vertices[mesh.quads]                 # (Q, 4, 2)
    e = np.roll(p, -1, axis=1) - p                # edge vectors
    enext = np.roll(e, -1, axis=1)
    cross = e[:, :, 0] * enext[:, :, 1] - e[:, :, 1] * enext[:, :, 0]
    if np.any(cross <= 0.0):
        q = int(np.argwhere(np.any(cross <= 0.0, axis=1))[0, 0])
        raise MeshError(f"quad {q} is not strictly convex (counterclockwise)")
    t, s = _diagonal_params(p)
    eps = 1e-14
    if np.any((t <= eps) | (t >= 1 - eps) | (s <= eps) | (s >= 1 - eps)):
        raise MeshError("quad diagonals do not intersect strictly inside")


def _diagonal_params(p: np.ndarray):
    """Parameters (t, s) of the diagonal intersection per quad.

    The intersection is v0 + t*(v2 - v0) = v1 + s*(v3 - v1).
    """
    d02 = p[:, 2] - p[:, 0]
    d13 = p[:, 3] - p[:, 1]
    rhs = p[:, 1] - p[:, 0]
    det = d02[:, 0] * (-d13[:, 1]) - (-d13[:, 0]) * d02[:, 1]
    if np.any(np.abs(det) < 1e-300):
        raise MeshError("degenerate quad: diagonals are parallel")
    t = (rhs[:, 0] * (-d13[:, 1]) - (-d13[:, 0]) * rhs[:, 1]) / det
    s = (d02[:, 0] * rhs[:, 1] - rhs[:, 0] * d02[:, 1]) / det
    return t, s


def build_rect_grid(x0: float, y0: float, x1: float, y1: float,
                    nx: int, ny: int) -> QuadMesh:
    """Uniform nx-by-ny grid of axis-aligned rectangles on (x0,x1)x(y0,y1)."""
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate rectangle: need x1 > x0 and y1 > y0")
    if nx < 1 or ny < 1:
        raise MeshError("need at least one subdivision in each direction")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    # lower-left vertex of each quad, row by row
    v0 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    quads = np.column_stack([v0, v0 + 1, v0 + nx + 2, v0 + nx + 1])
    return _make_quad_mesh(vertices, quads)


def build_lshape_grid(n: int) -> QuadMesh:
    """L-shaped domain (0,pi)^2 minus the closed upper-right quarter.

    Each of the three pi/2-by-pi/2 blocks is divided n-by-n, so quads have
    side pi/(2n) and the criss-cross mesh size is h = pi/(2n).
    """
    if n < 1:
        raise MeshError("need at least one subdivision per half-side")
    m = 2 * n
    full = build_rect_grid(0.0, 0.0, math.pi, math.pi, m, m)
    keep = np.ones((m, m), dtype=bool)   # [row j, column i] of the full grid
    keep[n:, n:] = False
    quads = full.quads[keep.ravel()]
    used = np.unique(quads)
    remap = -np.ones(full.n_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return _make_quad_mesh(full.vertices[used], remap[quads])


def _is_rect_grid(mesh: QuadMesh) -> bool:
    p = mesh.vertices[mesh.quads]
    e = np.roll(p, -1, axis=1) - p
    # axis-aligned: each edge has one vanishing component
    return bool(np.all(np.min(np.abs(e), axis=2) < 1e-12 * np.max(np.abs(e))))


def perturb_quad_grid(mesh: QuadMesh, amplitude: float, seed: int) -> QuadMesh:
    """Jitter the interior vertices of a rectangular grid, deterministically.

    Each interior vertex moves by a seeded pseudo-random offset of magnitude
    at most ``amplitude`` times the shortest incident quad edge; boundary
    vertices stay fixed.  If the jitter breaks convexity the amplitude is
    halved and the draw repeated, up to three times.
    """
    if not (0.0 <= amplitude < 0.5):
        raise MeshError("amplitude must lie in [0, 0.5)")
    if not _is_rect_grid(mesh):
        raise MeshError("perturbation requires an axis-aligned rectangular grid")

    # quad edges as sorted vertex pairs; boundary edges belong to one quad
    pairs = np.stack([mesh.quads, np.roll(mesh.quads, -1, axis=1)], axis=2)
    edges, counts = np.unique(np.sort(pairs.reshape(-1, 2), axis=1), axis=0,
                              return_counts=True)
    boundary = np.zeros(mesh.n_vertices, dtype=bool)
    boundary[edges[counts == 1]] = True
    length = np.linalg.norm(mesh.vertices[edges[:, 1]]
                            - mesh.vertices[edges[:, 0]], axis=1)
    min_edge = np.full(mesh.n_vertices, np.inf)
    np.minimum.at(min_edge, edges[:, 0], length)
    np.minimum.at(min_edge, edges[:, 1], length)

    amp = amplitude
    for _ in range(4):
        rng = np.random.default_rng(seed)
        offset = rng.uniform(-1.0, 1.0, size=(mesh.n_vertices, 2))
        norm = np.linalg.norm(offset, axis=1)
        norm[norm == 0.0] = 1.0
        radius = rng.uniform(0.0, 1.0, size=mesh.n_vertices) * amp * min_edge
        moved = mesh.vertices + offset / norm[:, None] * radius[:, None]
        moved[boundary] = mesh.vertices[boundary]
        try:
            return _make_quad_mesh(moved, mesh.quads.copy())
        except MeshError:
            amp *= 0.5
    raise MeshError("perturbation kept violating convexity after 3 retries")


def criss_cross(qmesh: QuadMesh) -> TriMesh:
    """Split every quad into four triangles along its two diagonals.

    The new vertex per quad sits at the intersection of the diagonals.  Sub
    triangles are emitted in slot order bottom, left, top, right relative to
    the quad's vertex ordering, each as (edge tail, edge head, center).
    """
    p = qmesh.vertices[qmesh.quads]  # (Q, 4, 2)
    t, _ = _diagonal_params(p)
    centers = p[:, 0] + t[:, None] * (p[:, 2] - p[:, 0])
    nv = qmesh.n_vertices
    vertices = np.vstack([qmesh.vertices, centers])

    q = qmesh.quads
    cid = nv + np.arange(qmesh.n_quads)
    # slots: bottom (v0,v1), left (v3,v0), top (v2,v3), right (v1,v2)
    tris = np.empty((4 * qmesh.n_quads, 3), dtype=np.int64)
    tris[0::4] = np.column_stack([q[:, 0], q[:, 1], cid])
    tris[1::4] = np.column_stack([q[:, 3], q[:, 0], cid])
    tris[2::4] = np.column_stack([q[:, 2], q[:, 3], cid])
    tris[3::4] = np.column_stack([q[:, 1], q[:, 2], cid])

    # edge table: unique sorted vertex pairs over local edges (0,1),(0,2),(1,2)
    local = np.stack([tris[:, [0, 1]], tris[:, [0, 2]], tris[:, [1, 2]]], axis=1)
    flat = np.sort(local.reshape(-1, 2), axis=1)
    edges, tri_edges_flat, counts = np.unique(
        flat, axis=0, return_inverse=True, return_counts=True
    )
    tri_edges = tri_edges_flat.reshape(-1, 3)
    if counts.max() > 2:
        # each quad edge is one triangle edge, so this also refuses a quad
        # edge shared by more than two quads
        raise MeshError("non-manifold triangulation")
    is_boundary = counts == 1
    # quad edges are the edges between two quad vertices; spokes end at a centre
    n_quad_edges = int(np.count_nonzero(edges[:, 1] < nv))

    mesh = TriMesh(
        vertices=vertices,
        triangles=tris,
        edges=edges,
        edge_is_boundary=is_boundary,
        tri_edges=tri_edges,
        n_quad_vertices=nv,
        n_quad_edges=n_quad_edges,
        n_quads=qmesh.n_quads,
    )
    _validate_trimesh(mesh, qmesh)
    return mesh


def _validate_trimesh(mesh: TriMesh, qmesh: QuadMesh) -> None:
    areas = mesh.tri_areas()
    if np.any(areas <= 0.0):
        raise MeshError("criss-cross produced a non-positively-oriented triangle")
    total_quad = float(np.sum(qmesh.quad_areas()))
    if abs(float(np.sum(areas)) - total_quad) > 1e-12 * total_quad:
        raise MeshError("triangle areas do not sum to the quad-mesh area")
    # singular-vertex property: the four spokes at each center lie on the
    # two diagonals, i.e. opposite corner-to-center vectors are anti-parallel.
    # The computed centre carries a rounding error of order eps |c|, so a
    # spoke cross product of eps (|c| + h) h is collinear to working
    # precision; a bound in h alone refuses fine meshes far from the origin.
    p = qmesh.vertices[qmesh.quads]
    c = mesh.vertices[mesh.n_quad_vertices:]
    h_local = np.max(np.linalg.norm(p - c[:, None, :], axis=2), axis=1)
    bound = (16 * np.finfo(float).eps
             * (np.linalg.norm(c, axis=1) + h_local) * h_local)
    for d in ((0, 2), (1, 3)):
        u = p[:, d[0]] - c
        v = p[:, d[1]] - c
        cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        if np.any(cross > bound):
            raise MeshError("center vertex is not singular (spokes not collinear)")
    if _euler_residuals(mesh) != (0, 0):
        raise MeshError("Euler characteristic check failed")


def _euler_residuals(mesh: TriMesh):
    tri_level = mesh.n_vertices - mesh.n_edges + mesh.n_triangles - 1
    quad_level = 1 - mesh.n_quad_vertices + mesh.n_quad_edges - mesh.n_quads
    return tri_level, quad_level


def mesh_stats(tmesh: TriMesh) -> MeshStats:
    """Mesh size, shape regularity (diameter over inradius), and counts."""
    p = tmesh.tri_coords()
    sides = np.stack(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ],
        axis=1,
    )
    diam = sides.max(axis=1)
    area = tmesh.tri_areas()
    inradius = 2.0 * area / sides.sum(axis=1)
    return MeshStats(
        h=float(diam.max()),
        h_min=float(diam.min()),
        shape_regularity=float((diam / inradius).max()),
        n_vertices=tmesh.n_vertices,
        n_edges=tmesh.n_edges,
        n_triangles=tmesh.n_triangles,
        n_quads=tmesh.n_quads,
    )


def format_mesh_text(tmesh: TriMesh) -> str:
    """Plain-text mesh format: header, counts, vertices, triangles, and the
    (quad, slot) parent of each triangle, ``(t // 4, t % 4)``."""
    lines = ["crisscross-mesh v1", "indexing 0-based"]
    lines.append(
        f"{tmesh.n_vertices} {tmesh.n_edges} {tmesh.n_triangles} {tmesh.n_quads}"
    )
    for x, y in tmesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for a, b, c in tmesh.triangles:
        lines.append(f"{a} {b} {c}")
    lines.extend(f"{t // 4} {t % 4}" for t in range(tmesh.n_triangles))
    return "\n".join(lines) + "\n"


def write_mesh_text(tmesh: TriMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_mesh_text(tmesh))
