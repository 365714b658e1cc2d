import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crisscross import eigsolve
from crisscross.assembly import assemble_divdiv
from crisscross.audit import exactness_check, spurious_counts, square_exact_spectrum
from crisscross.eigsolve import SolverError, solve_fem2
from crisscross.fespace import (
    build_vector_space,
    build_wh_space,
    dim_sigma,
)
from crisscross.mesh import (
    build_lshape_grid,
    build_rect_grid,
    criss_cross,
    perturb_quad_grid,
)
from crisscross.refelem import tabulate_shapes

from fe_helpers import (
    disc_coupling,
    interpolate_vector,
    local_divergence_image,
    single_quad_mesh,
)

PI = math.pi

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
SKEWED_QUAD = [(0, 0), (2, 0), (1.8, 1.1), (0.2, 0.9)]


# ---------------------------------------------------------------- dimensions


def test_dim_sigma_values():
    assert dim_sigma(2, 4, 4, 1) == 16
    assert dim_sigma(3, 4, 4, 1) == 28
    assert dim_sigma(2, 9, 12, 4) == 39
    # one formula for every degree: 3V - E, the C^1 quadratic splines, at
    # k = 1, and 3V + 5E + 12Q at k = 4
    assert dim_sigma(1, 4, 4, 1) == 8
    assert dim_sigma(4, 4, 4, 1) == 44
    with pytest.raises(ValueError):
        dim_sigma(5, 4, 4, 1)


# ---------------------------------------------------------------- exactness


def dense_counts(tmesh, k, rtol=1e-9):
    """Oracle: SVD rank of the divergence coupling D and eigvalsh nullity
    of the div-div matrix B, both dense."""
    vspace = build_vector_space(tmesh, k)
    D = disc_coupling(vspace, tmesh).toarray()
    s = np.linalg.svd(D, compute_uv=False)
    evals = np.linalg.eigvalsh(assemble_divdiv(vspace, tmesh).toarray())
    return (int(np.count_nonzero(s > rtol * s[0])),
            int(np.count_nonzero(np.abs(evals) <= rtol * np.abs(evals).max())))


def assert_matches_oracle(report, tmesh, k):
    assert (report.rank_div, report.nullity_divdiv) == dense_counts(tmesh, k)


@pytest.mark.parametrize("k", [2, 3])
def test_exactness_single_square(k):
    for corners in (UNIT_SQUARE, SKEWED_QUAD):
        tmesh = criss_cross(single_quad_mesh(corners))
        report = exactness_check(tmesh, k)
        assert report.euler_residual == 0
        assert report.passed
        assert_matches_oracle(report, tmesh, k)
        if k == 2:
            assert (report.dim_sigma, report.dim_v, report.dim_wh) == (16, 26, 11)
        else:
            assert (report.dim_sigma, report.dim_v, report.dim_wh) == (28, 50, 23)


def test_exactness_2x2_nullity():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 2, 2))
    report = exactness_check(tmesh, 2)
    assert report.dim_sigma == 39
    assert report.nullity_divdiv == 38
    assert report.rank_div == report.dim_wh
    assert report.passed
    for k in (2, 3):
        assert_matches_oracle(exactness_check(tmesh, k), tmesh, k)


@pytest.mark.parametrize("k", [2, 3])
def test_exactness_on_perturbed_and_lshape(k):
    meshes = [
        criss_cross(perturb_quad_grid(build_rect_grid(0, 0, PI, PI, 2, 2),
                                      0.2, seed=1)),
        criss_cross(build_lshape_grid(1)),
    ]
    for tmesh in meshes:
        report = exactness_check(tmesh, k)
        assert report.euler_residual == 0
        assert report.passed
        assert_matches_oracle(report, tmesh, k)


def test_exactness_beyond_dense_size():
    # 4 226 vector dofs: dense rank work was refused here; the sparse count
    # is not capped
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 16, 16))
    report = exactness_check(tmesh, 2)
    assert report.dim_v == 4226
    assert report.nullity_divdiv == report.dim_sigma - 1
    assert report.rank_div == report.dim_wh
    assert report.passed


def test_exactness_uncertified_count_raises(monkeypatch):
    def off_diagonal_pivot(lu):
        return None

    monkeypatch.setattr(eigsolve, "_inertia", off_diagonal_pivot)
    tmesh = criss_cross(single_quad_mesh(UNIT_SQUARE))
    with pytest.raises(SolverError, match="off-diagonal pivot"):
        exactness_check(tmesh, 2)


def test_exactness_rejects_k1():
    # k = 1 was refused while it had no kernel law; it now has the one of
    # every degree, and its divergence has rank 3 per quad (4 triangle
    # constants less the alternating one at each centre)
    tmesh = criss_cross(single_quad_mesh(UNIT_SQUARE))
    report = exactness_check(tmesh, 1)
    assert report.passed
    assert (report.dim_sigma, report.dim_v, report.dim_wh) == (8, 10, 3)
    assert (report.rank_div, report.nullity_divdiv) == (3, 7)


def _k1_meshes():
    for n in (1, 2, 3, 6, 12):
        grid = build_rect_grid(0, 0, PI, PI, n, n)
        yield f"square-{n}", grid
        yield f"lshape-{n}", build_lshape_grid(n)
        yield f"square-perturbed-{n}", perturb_quad_grid(grid, 0.15, seed=42)
        yield f"rectangle-{n}", build_rect_grid(0, 0, PI, PI, n, n + 1)


@pytest.mark.parametrize("qmesh", [q for _, q in _k1_meshes()],
                         ids=[name for name, _ in _k1_meshes()])
def test_k1_kernel_law(qmesh):
    # the law of every degree holds at k = 1: the Lanczos count at sigma = 1
    # and the dense zero count are 3V - E - 1, and rank D = 3Q
    tmesh = criss_cross(qmesh)
    law = 3 * tmesh.n_quad_vertices - tmesh.n_quad_edges - 1
    assert solve_fem2(tmesh, 1, 2, backend="lanczos").inertia == law
    if 2 * tmesh.n_vertices <= eigsolve.DENSE_CAP:
        assert solve_fem2(tmesh, 1, 2).zero_count == law
    report = exactness_check(tmesh, 1)
    assert report.passed and report.rank_div == 3 * tmesh.n_quads


@pytest.mark.parametrize("qmesh", [
    build_rect_grid(0, 0, PI, PI, 3, 3), build_lshape_grid(2),
    perturb_quad_grid(build_rect_grid(0, 0, PI, PI, 3, 3), 0.15, seed=42),
    build_rect_grid(0, 0, PI, PI, 3, 4),
], ids=["square", "lshape", "square-perturbed", "rectangle"])
@pytest.mark.parametrize("k", [2, 3])
def test_wh_dimension_formula(qmesh, k):
    # the audit reads dim W_h as Q (2k(k + 1) - 1) instead of building W_h
    tmesh = criss_cross(qmesh)
    assert (exactness_check(tmesh, k).dim_wh == build_wh_space(tmesh, k).n_dofs
            == tmesh.n_quads * (2 * k * (k + 1) - 1))


# ---------------------------------------------------------------- local audit


@pytest.mark.parametrize("k,rank", [(2, 11), (3, 23)])
def test_wh_local_audit_unit_square(k, rank):
    # the divergence image is the P_{k-1} space cut by one centre constraint
    got_rank, residual, distance = local_divergence_image(UNIT_SQUARE, k)
    assert got_rank == rank == 4 * k * (k + 1) // 2 - 1
    assert residual < 1e-10
    assert distance > 0.1


def test_wh_local_audit_skewed_quad_k3():
    got_rank, residual, distance = local_divergence_image(SKEWED_QUAD, 3)
    assert got_rank == 23
    assert residual < 1e-10
    assert distance > 0.1


def test_wh_local_audit_random_quads():
    rng = np.random.default_rng(20)
    for trial in range(10):
        corners = np.array(UNIT_SQUARE, dtype=float)
        corners += rng.uniform(-0.25, 0.25, size=(4, 2))
        for k in (2, 3):
            rank, residual, distance = local_divergence_image(corners, k)
            assert rank == 4 * k * (k + 1) // 2 - 1, (trial, k)
            assert residual < 1e-10 and distance > 0.1, (trial, k)


# ------------------------------------------- alternating condition, any k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_divergence_alternating_condition_every_center(k):
    # pointwise singular-vertex identity: for any continuous piecewise-P_k
    # field, div at a center satisfies bottom - left + top - right = 0
    qmesh = perturb_quad_grid(build_rect_grid(0, 0, 1, 1, 3, 3), 0.2, seed=8)
    tmesh = criss_cross(qmesh)
    vmap = build_vector_space(tmesh, k)
    rng = np.random.default_rng(21)
    center_bary = np.array([[0.0, 0.0, 1.0]])  # center is local vertex 2
    _, ref_grads = tabulate_shapes(k, center_bary)

    for _ in range(20):
        v = rng.standard_normal(vmap.n_dofs)
        div_at_center = np.empty(tmesh.n_triangles)
        for t in range(tmesh.n_triangles):
            tri = tmesh.tri_coords()[t]
            J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            g = ref_grads[0] @ np.linalg.inv(J)
            local = v[vmap.cell_dofs[t]]
            div_at_center[t] = g[:, 0] @ local[0::2] + g[:, 1] @ local[1::2]
        per_quad = div_at_center.reshape(-1, 4)
        residual = per_quad[:, 0] - per_quad[:, 1] + per_quad[:, 2] - per_quad[:, 3]
        scale = np.abs(div_at_center).max()
        assert np.abs(residual).max() < 1e-11 * max(scale, 1.0)


def test_alternating_condition_trivial_linear_field():
    # v = (x, 0): div = 1 everywhere, condition reads 1 + 1 = 1 + 1
    tmesh = criss_cross(single_quad_mesh(SKEWED_QUAD))
    vmap = build_vector_space(tmesh, 2)
    v = interpolate_vector(tmesh, vmap, lambda x, y: (x, 0 * y))
    _, ref_grads = tabulate_shapes(2, np.array([[0.0, 0.0, 1.0]]))
    divs = []
    for t in range(4):
        tri = tmesh.tri_coords()[t]
        J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        g = ref_grads[0] @ np.linalg.inv(J)
        local = v[vmap.cell_dofs[t]]
        divs.append(g[:, 0] @ local[0::2] + g[:, 1] @ local[1::2])
    assert_allclose(divs, 1.0, atol=1e-12)


# ---------------------------------------------------------------- spectra


def test_square_exact_spectrum_prefix():
    assert_allclose(square_exact_spectrum(10),
                    [2, 5, 5, 8, 10, 10, 13, 13, 17, 17])
    assert_allclose(square_exact_spectrum(13)[10:], [18, 20, 20])


def square_counts(k, n):
    return spurious_counts(criss_cross(build_rect_grid(0, 0, PI, PI, n, n)),
                           k, 10)


def test_spurious_scan_k1_flags_something():
    # the criss-cross failure of the linear element as certified integers:
    # one spurious value below 6.5 (near 5.92) and three below 15, on every
    # level, so they do not converge away
    for n in (8, 16):
        rows = square_counts(1, n)
        assert [tau for tau, _, _ in rows] == [3.5, 6.5, 9, 11.5, 15]
        assert [exact for _, _, exact in rows] == [1, 3, 4, 6, 8]
        assert [count - exact for _, count, exact in rows] == [0, 1, 1, 1, 3]


# the coarsest square level on which degree k resolves the ten exact values
COARSEST_CLEAN = {2: 3, 3: 2}


@pytest.mark.parametrize("k", [2, 3])
def test_spurious_scan_clean_for_k23(k):
    n = COARSEST_CLEAN[k]
    assert [c - e for _, c, e in square_counts(k, n)] == [0] * 5
    # one level coarser the excess is positive without a spurious mode: it
    # counts values of the mesh that do not resolve the exact ones yet
    assert max(c - e for _, c, e in square_counts(k, n - 1)) > 0


def test_spurious_counts_uncertified_count_raises(monkeypatch):
    monkeypatch.setattr(eigsolve, "_inertia", lambda lu: None)
    with pytest.raises(SolverError, match="sigma=3.5 .*off-diagonal pivot"):
        square_counts(2, 2)
