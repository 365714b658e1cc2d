"""Global degree-of-freedom maps for Lagrange spaces and the constrained
divergence-image space on criss-cross meshes.

Scalar and vector Lagrange spaces are continuous; the divergence-image space
is discontinuous and quad-local: per quad it is the full piecewise P_{k-1}
space minus one dimension, cut out by the alternating point condition at the
criss-cross center (value from bottom + top = left + right).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh
from .refelem import MAX_DEGREE

__all__ = [
    "DofMap",
    "WhBasis",
    "DiscSpace",
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
    """Global enumeration of Lagrange degrees of freedom.

    Vector maps interleave components per node: scalar dof ``s`` owns vector
    dofs ``2s`` (x) and ``2s + 1`` (y).
    """

    kind: str                 # 'scalar' or 'vector2'
    degree: int
    n_dofs: int
    cell_dofs: np.ndarray     # (T, n_local) in reference node order
    boundary_dofs: np.ndarray  # sorted dof indices with nodes on the boundary


@dataclass(frozen=True)
class DiscSpace:
    """Fully discontinuous piecewise P_degree space, nodal per triangle."""

    degree: int
    n_dofs: int
    n_local: int              # nodes per triangle

    @property
    def cell_dofs(self) -> np.ndarray:
        """(T, n_local) dofs per triangle, as in :class:`DofMap`."""
        return np.arange(self.n_dofs).reshape(-1, self.n_local)


@dataclass(frozen=True)
class WhBasis:
    """Quad-local basis of the divergence image of the degree-k vector space.

    Every quad carries the same local basis: the discontinuous per-triangle
    P_{k-1} nodal basis with the center-node function of the right slot
    eliminated through the alternating constraint.  ``restriction`` maps
    these basis coefficients to coefficients in the global discontinuous
    space.
    """

    degree: int               # k of the vector space; local polynomials are P_{k-1}
    n_dofs: int
    n_local: int              # per-quad dimension, 4*k*(k+1)/2 - 1
    n_disc_local: int         # nodes of P_{k-1} per triangle
    local_basis: np.ndarray   # (4*n_disc_local, n_local) shared coefficient matrix
    constraint_indices: np.ndarray  # (4,) local disc indices of center values
    constraint_signs: np.ndarray    # (4,) alternating signs
    restriction: sp.csr_matrix  # (T*n_disc_local, n_dofs) block diagonal


def dim_sigma(k: int, n_quad_vertices: int, n_quad_edges: int, n_quads: int) -> int:
    """Dimension of the conforming stream-function space on the quad mesh.

    The curl, whose own kernel is the constants, maps it onto the kernel of
    the div-div form on the degree-k vector space, which therefore has
    dimension ``dim_sigma - 1``.
    """
    if k not in (2, 3):
        raise ValueError("dimension formula holds for k in {2, 3}")
    return (3 * n_quad_vertices + (2 * k - 3) * n_quad_edges
            + 4 * (k - 2) * n_quads)


def _entity_counts_dim(tmesh: TriMesh, k: int) -> int:
    per_edge = k - 1
    per_cell = (k - 1) * (k - 2) // 2
    return tmesh.n_vertices + per_edge * tmesh.n_edges + per_cell * tmesh.n_triangles


def build_scalar_space(tmesh: TriMesh, k: int) -> DofMap:
    """Continuous scalar Lagrange space of degree k on the triangulation."""
    if k not in range(1, MAX_DEGREE + 1):
        raise ValueError(f"unsupported degree {k}; expected 1..{MAX_DEGREE}")
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

    n_dofs = _entity_counts_dim(tmesh, k)
    bdofs = _scalar_boundary_dofs(tmesh, k)
    return DofMap(
        kind="scalar",
        degree=k,
        n_dofs=n_dofs,
        cell_dofs=cell_dofs,
        boundary_dofs=bdofs,
    )


def _scalar_boundary_dofs(tmesh: TriMesh, k: int) -> np.ndarray:
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
    bdofs = np.sort(np.concatenate([2 * scalar.boundary_dofs,
                                    2 * scalar.boundary_dofs + 1]))
    return DofMap(
        kind="vector2",
        degree=k,
        n_dofs=2 * scalar.n_dofs,
        cell_dofs=cell,
        boundary_dofs=bdofs,
    )


def build_disc_space(tmesh: TriMesh, degree: int) -> DiscSpace:
    """Discontinuous nodal P_degree space over all triangles."""
    if degree not in range(1, MAX_DEGREE + 1):
        raise ValueError(f"unsupported degree {degree}; expected 1..{MAX_DEGREE}")
    n_local = (degree + 1) * (degree + 2) // 2
    return DiscSpace(degree=degree, n_dofs=tmesh.n_triangles * n_local,
                     n_local=n_local)


def build_wh_space(tmesh: TriMesh, k: int) -> WhBasis:
    """Constrained pressure space div(V_h^k), one constraint per quad.

    Only k in {2, 3} carries the full characterization (the k=1 image is a
    strictly smaller space).
    """
    if k not in (2, 3):
        raise ValueError("the divergence-image basis is built for k in {2, 3}")
    n_disc = k * (k + 1) // 2            # nodes of P_{k-1} per triangle
    m = 4 * n_disc
    Q = tmesh.n_quads

    # the triangulation is quad-major (triangle t is slot t % 4 of quad
    # t // 4), so the restriction is block diagonal with one block per quad
    centers = tmesh.n_quad_vertices + np.arange(Q)
    if not np.array_equal(tmesh.triangles[:, 2], np.repeat(centers, 4)):
        raise ValueError("center vertex is not local vertex 2 of each triangle")

    # local vertex 2 is the center, and vertex nodes lead the node order, so
    # the center value of slot s is disc coefficient s*n_disc + 2
    cidx = np.array([s * n_disc + 2 for s in range(4)], dtype=np.int64)
    signs = np.array(CENTER_SIGNS)
    elim = int(cidx[3])

    keep = [j for j in range(m) if j != elim]
    basis = np.zeros((m, m - 1))
    ell = np.zeros(m)
    ell[cidx] = signs
    for col, j in enumerate(keep):
        basis[j, col] = 1.0
        basis[elim, col] = ell[j]       # solves ell . column = 0

    restriction = sp.kron(sp.identity(Q), sp.csr_matrix(basis), format="csr")

    return WhBasis(
        degree=k,
        n_dofs=Q * (m - 1),
        n_local=m - 1,
        n_disc_local=n_disc,
        local_basis=basis,
        constraint_indices=cidx,
        constraint_signs=signs,
        restriction=restriction,
    )
