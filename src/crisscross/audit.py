"""Structural audits of the discrete complex: dimension counts, exactness,
the divergence-image characterization, and the degree-1 spurious modes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import _geometry
from .fespace import build_vector_space, build_wh_space, dim_sigma
from .mesh import TriMesh, build_rect_grid, criss_cross, mesh_stats, single_quad_mesh
from .refelem import node_barycentric, quad_rule, tabulate_shapes
from .eigsolve import SolverError, _factor_shifted, _pencil, solve_fem2

__all__ = [
    "ComplexReport",
    "WhLocalReport",
    "SpuriousReport",
    "dim_sigma",
    "exactness_check",
    "wh_local_audit",
    "square_exact_spectrum",
    "spurious_scan",
    "RANK_TOL",
]

RANK_TOL = 1e-9          # relative singular-value cutoff for rank decisions
# Shift of the div-div kernel count.  Every supported domain lies inside
# (0, pi)^2, where the first Dirichlet eigenvalue is at least 2, so 1 sits
# below the discrete lambda_1; a mesh where it did not would report FAIL,
# never a false PASS (see exactness_check).
KERNEL_SHIFT = 1.0


@dataclass(frozen=True)
class ComplexReport:
    """Dimension and exactness bookkeeping for one mesh and degree."""

    k: int
    n_quad_vertices: int
    n_quad_edges: int
    n_quads: int
    dim_sigma: int
    dim_v: int
    dim_wh: int
    rank_div: int
    nullity_divdiv: int
    expected_nullity: int
    euler_residual: int
    euler_ok: bool
    rank_ok: bool
    nullity_ok: bool

    @property
    def passed(self) -> bool:
        return self.euler_ok and self.rank_ok and self.nullity_ok

    def lines(self) -> list:
        return [
            f"k={self.k} V={self.n_quad_vertices} E={self.n_quad_edges} Q={self.n_quads}",
            f"dim_sigma={self.dim_sigma} dim_v={self.dim_v} dim_wh={self.dim_wh}",
            f"euler_residual={self.euler_residual} ok={self.euler_ok}",
            f"rank_div={self.rank_div} expected={self.dim_wh} ok={self.rank_ok}",
            f"nullity_divdiv={self.nullity_divdiv} expected={self.expected_nullity} "
            f"ok={self.nullity_ok}",
        ]


@dataclass(frozen=True)
class WhLocalReport:
    """Per-quad audit of the divergence image of the local vector space."""

    k: int
    rank: int
    expected_rank: int
    max_center_residual: float
    checkerboard_distance: float   # relative L2 distance from the image span

    @property
    def passed(self) -> bool:
        return (
            self.rank == self.expected_rank
            and self.max_center_residual < 1e-10
            and self.checkerboard_distance > 0.1
        )


@dataclass(frozen=True)
class SpuriousReport:
    """Spectrum prefixes per level and values flagged as spurious."""

    k: int
    levels: list            # (h, eigenvalue array) per level, coarse to fine
    exact: np.ndarray
    threshold: float
    flags: list = field(default_factory=list)  # (value, dist_fine, dist_coarse)
    doubts: list = field(default_factory=list)  # (n_quads, Spectrum.doubts)

    @property
    def clean(self) -> bool:
        return not self.flags


def _svd_rank(mat: np.ndarray, rtol: float = RANK_TOL) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def exactness_check(tmesh: TriMesh, k: int) -> ComplexReport:
    """Verify the Euler identity, divergence rank, and div-div nullity.

    Both counts come from one sparse symmetric factor of B - s A (div-div
    and vector mass, s = ``KERNEL_SHIFT``).  Its negative pivots count the
    eigenvalues below s, which for 0 < s < lambda_1 are exactly the kernel.
    The curls of the stream functions lie in the kernel, so count >=
    nullity >= the kernel dimension of the fem2 pencil (``_pencil``): a
    count equal to it certifies the kernel law, and a shift at or above
    lambda_1 could only turn a pass into a failure.  A field has zero
    div-div energy exactly when its divergence vanishes, so ker D = ker B
    and rank D = dim_v - nullity, and the Euler residual is
    dim_v - kernel dimension - dim W_h.  No size cap applies.  An
    uncertified count (an off-diagonal pivot) raises ``SolverError``.
    """
    if k not in (2, 3):
        raise ValueError("exactness audit supports k in {2, 3}")
    B, A, kernel_dim = _pencil("fem2", tmesh, k)
    dim_v = B.shape[0]
    wh = build_wh_space(tmesh, k)

    V_Q = tmesh.n_quad_vertices
    E_Q = tmesh.n_quad_edges
    Q = tmesh.n_quads
    euler_residual = dim_v - kernel_dim - wh.n_dofs

    _, nullity = _factor_shifted(B, A, KERNEL_SHIFT)
    if nullity is None:
        raise SolverError(
            f"div-div kernel count at sigma={KERNEL_SHIFT:g} is uncertified: "
            "the factor of B - sigma*A took an off-diagonal pivot"
        )
    rank_div = dim_v - nullity

    return ComplexReport(
        k=k,
        n_quad_vertices=V_Q,
        n_quad_edges=E_Q,
        n_quads=Q,
        dim_sigma=dim_sigma(k, V_Q, E_Q, Q),
        dim_v=dim_v,
        dim_wh=wh.n_dofs,
        rank_div=rank_div,
        nullity_divdiv=nullity,
        expected_nullity=kernel_dim,
        euler_residual=euler_residual,
        euler_ok=euler_residual == 0,
        rank_ok=rank_div == wh.n_dofs,
        nullity_ok=nullity == kernel_dim,
    )


def _div_interpolation_matrix(tmesh: TriMesh, k: int, vspace) -> np.ndarray:
    """Matrix taking vector coefficients to nodal P_{k-1} coefficients of the
    divergence, per triangle (exact, since div V_h^k is piecewise P_{k-1})."""
    nodes = node_barycentric(k - 1)
    _, ref_grads = tabulate_shapes(k, nodes)        # (n_nodes, n_k, 2)
    _, Jinv = _geometry(tmesh)
    grads = np.einsum("qne,ted->tqnd", ref_grads, Jinv)  # (T, nodes, n_k, 2)
    T, nn, nk, _ = grads.shape
    div = grads.reshape(T, nn, 2 * nk)               # divergence of dof (i, c)
    out = np.zeros((T * nn, vspace.n_dofs))
    for t in range(T):
        out[t * nn:(t + 1) * nn, vspace.cell_dofs[t]] = div[t]
    return out


def wh_local_audit(quad_corners, k: int, n_samples: int = 200,
                   seed: int = 0) -> WhLocalReport:
    """Sample the local divergence image on one quad and audit it.

    Checks that sampled divergences satisfy the alternating center condition,
    that their span has the expected dimension (one below the full piecewise
    P_{k-1} space), and that the checkerboard function stays well away from
    the span.
    """
    if k not in (2, 3):
        raise ValueError("local audit supports k in {2, 3}")
    qmesh = single_quad_mesh(quad_corners)
    tmesh = criss_cross(qmesh)
    vspace = build_vector_space(tmesh, k)
    n_disc = k * (k + 1) // 2
    m = 4 * n_disc

    div_op = _div_interpolation_matrix(tmesh, k, vspace)   # (m, n_v)
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-1.0, 1.0, size=(n_samples, vspace.n_dofs))
    fields /= np.abs(fields).max(axis=1, keepdims=True)
    images = fields @ div_op.T                              # (n_samples, m)

    # alternating condition at the center: slot values bottom - left + top - right
    cidx = np.array([s * n_disc + 2 for s in range(4)])
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    residuals = np.abs(images[:, cidx] @ signs)
    scale = np.abs(images).max(axis=1)
    rel = residuals / np.maximum(scale, 1e-300)

    rank = _svd_rank(images)

    # relative L2 distance of the checkerboard from the sampled span
    rule = quad_rule(2 * (k - 1))
    vals, _ = tabulate_shapes(k - 1, rule.points)
    ref_mass = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    areas = tmesh.tri_areas()
    gram = np.zeros((m, m))
    for s in range(4):
        gram[s * n_disc:(s + 1) * n_disc, s * n_disc:(s + 1) * n_disc] = (
            areas[s] * ref_mass
        )
    L = np.linalg.cholesky(gram)
    span = np.linalg.svd((images @ L), full_matrices=False)
    U = span.Vh[: rank].T                                   # orthonormal in L2
    cb = np.tile([-1.0, 1.0, -1.0, 1.0], (n_disc, 1)).T.ravel()
    cb_y = L.T @ cb
    dist = np.linalg.norm(cb_y - U @ (U.T @ cb_y)) / np.linalg.norm(cb_y)

    return WhLocalReport(
        k=k,
        rank=rank,
        expected_rank=m - 1,
        max_center_residual=float(rel.max()),
        checkerboard_distance=float(dist),
    )


def square_exact_spectrum(count: int) -> np.ndarray:
    """Sorted Dirichlet eigenvalues m^2 + n^2 of the square (0, pi)^2."""
    top = int(math.isqrt(2 * count) + count + 2)
    vals = sorted(
        m * m + n * n
        for m in range(1, top)
        for n in range(1, top)
        if m * m + n * n <= top * top
    )
    return np.array(vals[:count], dtype=float)


def spurious_scan(domain: str, k: int, levels, n_eigs: int = 10,
                  threshold: float = 0.5, backend: str = "dense", *,
                  sigma: float = 1.0, seed: int = 0) -> SpuriousReport:
    """Flag computed eigenvalues far from the exact set that fail to shrink.

    A value at the finest level is flagged when its distance to the exact
    spectrum exceeds the threshold and the nearest value on the previous
    level was no better than twice as far (converging modes shrink by at
    least 4 per refinement; spurious ones stagnate).  ``backend``,
    ``sigma`` and ``seed`` go to ``solve_fem2``; ``doubts`` lists the levels
    whose spectrum the solver could not certify.
    """
    if domain != "square":
        raise ValueError("the exact spectrum is only known for the square")
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    out_levels = []
    doubts = []
    for n in levels:
        tmesh = criss_cross(build_rect_grid(0.0, 0.0, math.pi, math.pi, n, n))
        spec = solve_fem2(tmesh, k, n_eigs, backend, sigma=sigma, seed=seed)
        out_levels.append((mesh_stats(tmesh).h, spec.eigenvalues.copy()))
        if spec.doubts:
            doubts.append((tmesh.n_quads, spec.doubts))

    exact = square_exact_spectrum(4 * n_eigs + 40)

    def dist(x):
        return float(np.min(np.abs(exact - x)))

    flags = []
    h_c, coarse = out_levels[-2]
    h_f, fine = out_levels[-1]
    for lam in fine:
        d_f = dist(lam)
        if d_f <= threshold:
            continue
        nearest = coarse[np.argmin(np.abs(coarse - lam))]
        d_c = dist(nearest)
        if d_f > 0.5 * d_c:
            flags.append((float(lam), d_f, d_c))
    return SpuriousReport(
        k=k, levels=out_levels, exact=exact, threshold=threshold, flags=flags,
        doubts=doubts,
    )
