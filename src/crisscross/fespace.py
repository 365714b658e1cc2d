"""Global degree-of-freedom maps for Lagrange spaces and the constrained
divergence-image space on criss-cross meshes.

Scalar and vector Lagrange spaces are continuous; the divergence-image space
is discontinuous and quad-local: per quad it is the full piecewise P_{k-1}
space minus one dimension, cut out by the alternating point condition at the
criss-cross center (value from bottom + top = left + right).  Every quad
uses one local basis of it, so the space is that basis and its dimension;
no global matrix is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import TriMesh
from .refelem import MAX_DEGREE

__all__ = [
    "DofMap",
    "WhBasis",
    "boundary_dofs",
    "build_scalar_space",
    "build_vector_space",
    "build_disc_space",
    "build_wh_space",
    "dim_sigma",
]

# signs of the alternating functional at the center, in slot order
# bottom, left, top, right
CENTER_SIGNS = (1.0, -1.0, 1.0, -1.0)


@dataclass(frozen=True)
class DofMap:
    """Global enumeration of nodal degrees of freedom.

    Vector maps interleave components per node: scalar dof ``s`` owns vector
    dofs ``2s`` (x) and ``2s + 1`` (y).  A disc map numbers the nodes of
    every triangle in turn, triangle-major, none shared.
    """

    kind: str                 # 'scalar', 'vector2' or 'disc'
    degree: int
    n_dofs: int
    cell_dofs: np.ndarray     # (T, n_local) in reference node order
    # the scatter plan of the element graph, built by the first assembly on
    # the map and dropped with it (``assembly._graph_plan``)
    plans: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


@dataclass(frozen=True)
class WhBasis:
    """Quad-local basis of the divergence image of the degree-k vector space.

    Every quad carries the same local basis: the discontinuous per-triangle
    P_{k-1} nodal basis with the center-node function of the right slot
    eliminated through the alternating constraint.  ``basis`` holds its
    coefficients in the nodal P_{k-1} basis of the quad's four triangles,
    slot s in rows s n_disc to (s + 1) n_disc, n_disc = k(k+1)/2; the W_h
    dofs of quad q are q n_local to (q + 1) n_local.
    """

    degree: int               # k of the vector space; local polynomials are P_{k-1}
    n_dofs: int
    n_local: int              # per-quad dimension, 4*k*(k+1)/2 - 1
    basis: np.ndarray         # (4*n_disc, n_local), shared by every quad


def _check_degree(k: int) -> None:
    if k not in range(1, MAX_DEGREE + 1):
        raise ValueError(f"unsupported degree {k}; expected 1..{MAX_DEGREE}")


def dim_sigma(k: int, n_quad_vertices: int, n_quad_edges: int, n_quads: int) -> int:
    """Dimension of the conforming stream-function space on the quad mesh,
    3 V + (2k - 3) E + 2 (k - 1)(k - 2) Q for every degree k.

    It is the criss-cross case of the dimension of C^1 piecewise polynomials
    of degree k + 1 (Morgan & Scott, Math. Comp. 29, 1975), each quad centre
    being a singular vertex that adds one function; at k = 1 it is 3 V - E,
    the dimension of C^1 quadratic splines on the type-2 triangulation
    (Chui & Wang, 1983).  The curl, whose own kernel is the constants, maps
    it onto the kernel of the div-div form on the degree-k vector space,
    which therefore has dimension ``dim_sigma - 1``.
    """
    _check_degree(k)
    return (3 * n_quad_vertices + (2 * k - 3) * n_quad_edges
            + 2 * (k - 1) * (k - 2) * n_quads)


def build_scalar_space(tmesh: TriMesh, k: int) -> DofMap:
    """Continuous scalar Lagrange space of degree k on the triangulation."""
    _check_degree(k)
    V, E, T = tmesh.n_vertices, tmesh.n_edges, tmesh.n_triangles
    per_edge = k - 1
    per_cell = (k - 1) * (k - 2) // 2
    n_local = (k + 1) * (k + 2) // 2

    cell_dofs = np.empty((T, n_local), dtype=np.int64)
    cell_dofs[:, 0:3] = tmesh.triangles
    if per_edge:
        # edge dofs run from the lower global vertex to the higher; flip the
        # local slots where the triangle traverses the edge the other way
        for le, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
            eids = tmesh.tri_edges[:, le]
            base = V + eids[:, None] * per_edge + np.arange(per_edge)
            forward = tmesh.triangles[:, a] < tmesh.triangles[:, b]
            slots = np.where(forward[:, None], base, base[:, ::-1])
            cell_dofs[:, 3 + le * per_edge: 3 + (le + 1) * per_edge] = slots
    if per_cell:
        base = V + E * per_edge
        cell_dofs[:, 3 + 3 * per_edge:] = (
            base + np.arange(T)[:, None] * per_cell + np.arange(per_cell)
        )

    return DofMap(kind="scalar", degree=k,
                  n_dofs=V + per_edge * E + per_cell * T, cell_dofs=cell_dofs)


def boundary_dofs(tmesh: TriMesh, k: int) -> np.ndarray:
    """Sorted dofs of the degree-k scalar space (``build_scalar_space``)
    whose nodes lie on the boundary."""
    V = tmesh.n_vertices
    per_edge = k - 1
    out = [tmesh.boundary_vertices()]
    if per_edge:
        beids = np.flatnonzero(tmesh.edge_is_boundary)
        out.append(
            (V + beids[:, None] * per_edge + np.arange(per_edge)).ravel()
        )
    return np.unique(np.concatenate(out))


def build_vector_space(tmesh: TriMesh, k: int) -> DofMap:
    """Two-component vector Lagrange space, dofs interleaved per node."""
    scalar = build_scalar_space(tmesh, k)
    cell = np.empty((scalar.cell_dofs.shape[0], 2 * scalar.cell_dofs.shape[1]),
                    dtype=np.int64)
    cell[:, 0::2] = 2 * scalar.cell_dofs
    cell[:, 1::2] = 2 * scalar.cell_dofs + 1
    return DofMap(kind="vector2", degree=k, n_dofs=2 * scalar.n_dofs,
                  cell_dofs=cell)


def build_disc_space(tmesh: TriMesh, degree: int) -> DofMap:
    """Discontinuous nodal P_degree space over all triangles."""
    _check_degree(degree)
    n_local = (degree + 1) * (degree + 2) // 2
    n_dofs = tmesh.n_triangles * n_local
    return DofMap(kind="disc", degree=degree, n_dofs=n_dofs,
                  cell_dofs=np.arange(n_dofs).reshape(-1, n_local))


def build_wh_space(tmesh: TriMesh, k: int) -> WhBasis:
    """Constrained pressure space div(V_h^k), one constraint per quad.

    Built for k in {2, 3}: the one node of P_0 is not the center, so the
    k = 1 image, of the same dimension 3 per quad, has no nodal basis here.
    """
    if k not in (2, 3):
        raise ValueError("the divergence-image basis is built for k in {2, 3}")
    n_disc = k * (k + 1) // 2            # nodes of P_{k-1} per triangle
    m = 4 * n_disc

    # the triangulation is quad-major (triangle t is slot t % 4 of quad
    # t // 4), so quad q's basis lives on triangles 4q to 4q + 3
    centers = tmesh.n_quad_vertices + np.arange(tmesh.n_quads)
    if not np.array_equal(tmesh.triangles[:, 2], np.repeat(centers, 4)):
        raise ValueError("center vertex is not local vertex 2 of each triangle")

    # local vertex 2 is the center, and vertex nodes lead the node order, so
    # the center value of slot s is disc coefficient s*n_disc + 2
    elim = 3 * n_disc + 2
    ell = np.zeros(m)
    ell[np.arange(4) * n_disc + 2] = CENTER_SIGNS
    # unit vectors of the kept coefficients, each with the value at elim
    # that solves ell . column = 0 (ell[elim] = -1)
    basis = np.delete(np.eye(m), elim, axis=1)
    basis[elim] = np.delete(ell, elim)
    return WhBasis(degree=k, n_dofs=tmesh.n_quads * (m - 1), n_local=m - 1,
                   basis=basis)
