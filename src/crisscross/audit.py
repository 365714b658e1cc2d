"""Structural audits of the discrete complex: dimension counts and
exactness, and the count of spurious eigenvalues on the square.

Both are Sylvester inertia counts of the fem2 pencil (``eigsolve._count``):
at a shift below lambda_1 the count is the kernel, and at a shift tau in a
gap of the exact square spectrum the count less the kernel law, against the
number of exact values below tau, is the number of spurious eigenvalues
below tau (spectrum slicing, Ericsson & Ruhe, Math. Comp. 35, 1980).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fespace import dim_sigma
from .eigsolve import DEFAULT_SHIFT, SolverError, _count

__all__ = [
    "ComplexReport",
    "exactness_check",
    "square_exact_spectrum",
    "spurious_counts",
]


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


def exactness_check(tmesh, k: int) -> ComplexReport:
    """Verify the Euler identity, divergence rank, and div-div nullity.

    Both counts come from one sparse symmetric factor of B - s A (div-div
    and vector mass of the fem2 pencil, s = ``DEFAULT_SHIFT``), counted by
    ``_count``.  Its negative pivots count the eigenvalues below s, which
    for 0 < s < lambda_1 are exactly the kernel.
    The curls of the stream functions lie in the kernel, so count >=
    nullity >= the pencil's kernel dimension: a count equal to it certifies
    the kernel law, and a shift at or above lambda_1 could only turn a pass
    into a failure.  A field has zero div-div energy exactly when its
    divergence vanishes, so ker D = ker B and rank D = dim_v - nullity, and
    the Euler residual is dim_v - kernel dimension - dim W_h.  W_h = div V_h
    is the P_{k-1} space of each quad's four triangles less the one
    alternating condition at its centre, Q (2k(k + 1) - 1) functions.  No
    size cap applies.  An uncertified count (an off-diagonal pivot) raises
    ``SolverError``.
    """
    nullity, kernel_dim, dim_v = _certified_count(
        tmesh, k, DEFAULT_SHIFT, lambda lu, B, A: B.shape[0])
    V_Q = tmesh.n_quad_vertices
    E_Q = tmesh.n_quad_edges
    Q = tmesh.n_quads
    dim_wh = Q * (2 * k * (k + 1) - 1)
    euler_residual = dim_v - kernel_dim - dim_wh
    rank_div = dim_v - nullity

    return ComplexReport(
        k=k,
        n_quad_vertices=V_Q,
        n_quad_edges=E_Q,
        n_quads=Q,
        dim_sigma=dim_sigma(k, V_Q, E_Q, Q),
        dim_v=dim_v,
        dim_wh=dim_wh,
        rank_div=rank_div,
        nullity_divdiv=nullity,
        expected_nullity=kernel_dim,
        euler_residual=euler_residual,
        euler_ok=euler_residual == 0,
        rank_ok=rank_div == dim_wh,
        nullity_ok=nullity == kernel_dim,
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


def spurious_counts(tmesh, k: int, n_eigs: int) -> list:
    """(tau, discrete count, exact count) below each tau on a square mesh.

    The tau are the midpoints between consecutive distinct values of
    ``square_exact_spectrum(n_eigs)``.  The discrete count is the number of
    nonzero fem2 eigenvalues below tau (the inertia of B - tau A less the
    kernel law), and the exact count N(tau) the number of exact values below
    tau, exact because every tau lies below the ``n_eigs``-th value.  Their
    difference, the excess, is the number of spurious values below tau when
    the mesh resolves the exact ones.  An uncertified count raises
    ``SolverError``.
    """
    exact = square_exact_spectrum(n_eigs)
    distinct = np.unique(exact)
    rows = []
    for tau in (distinct[:-1] + distinct[1:]) / 2:
        count, law, _ = _certified_count(tmesh, k, float(tau))
        rows.append((float(tau), count - law,
                     int(np.count_nonzero(exact < tau))))
    return rows


def _certified_count(tmesh, k: int, sigma: float,
                     use=lambda lu, B, A: None):
    """``_count`` of the fem2 pencil; an uncertified count (an off-diagonal
    pivot) raises ``SolverError``."""
    count, kernel_dim, used = _count("fem2", tmesh, k, sigma, use)
    if count is None:
        raise SolverError(
            f"eigenvalue count below sigma={sigma:g} is uncertified: "
            "the factor of B - sigma*A took an off-diagonal pivot"
        )
    return count, kernel_dim, used
