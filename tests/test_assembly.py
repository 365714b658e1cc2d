import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from numpy.testing import assert_allclose

from crisscross.assembly import (
    _assemble,
    _graph_plan,
    _scatter_plan,
    assemble_div_coupling,
    assemble_divdiv,
    assemble_orthonormal_div,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
    assemble_wh_mass,
    write_matrix_market,
)
from crisscross.cli import StudyConfig, build_mesh
from crisscross.eigsolve import _pencil
from crisscross.fespace import (
    build_disc_space,
    build_scalar_space,
    build_vector_space,
    build_wh_space,
)
from crisscross.mesh import (
    build_rect_grid,
    criss_cross,
    perturb_quad_grid,
)
from crisscross.refelem import quad_rule, tabulate_shapes

from fe_helpers import (
    disc_coupling,
    interpolate_vector,
    l2_project_wh,
    single_quad_mesh,
    traced_peak,
    wh_restriction,
)

PI = math.pi


def unit_square_tri():
    return criss_cross(single_quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1)]))


def small_perturbed_tri(n=2, seed=3):
    return criss_cross(perturb_quad_grid(
        build_rect_grid(0, 0, PI, PI, n, n), 0.2, seed=seed))


def element_matrix_oracle(tri, k, form):
    """Single-triangle bilinear form through the refelem primitives only,
    with its own inline Jacobian."""
    rule = quad_rule(2 * k)
    vals, ref_grads = tabulate_shapes(k, rule.points)
    n = (k + 1) * (k + 2) // 2
    out = np.zeros((n, n))
    J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    area = 0.5 * abs(np.linalg.det(J))
    for q, w in enumerate(rule.weights):
        if form == "mass":
            out += w * np.outer(vals[q], vals[q])
        else:
            g = ref_grads[q] @ np.linalg.inv(J)
            out += w * (g @ g.T)
    return area * out


# ------------------------------------------------ textbook element kernels


def test_p1_mass_closed_form():
    tri = np.array([[0.2, 0.1], [1.4, 0.3], [0.5, 1.2]])
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    expected = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert_allclose(element_matrix_oracle(tri, 1, "mass"), expected, rtol=1e-14)


def test_p1_stiffness_closed_form_unit_right_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert_allclose(element_matrix_oracle(tri, 1, "stiffness"), expected,
                    atol=1e-15)


# ------------------------------------------------ dense Gram agreement


def dense_gram_oracle(tmesh, dmap, form):
    """Global matrix by a plain per-triangle python loop with a stronger rule.

    Independent of the vectorized scatter path: higher-order quadrature,
    per-pair accumulation into a dense array.  ``coupling`` tests the
    divergence of the vector space ``dmap`` against the discontinuous
    P_{k-1} space; ``wh_mass`` takes a W_h basis, whose mass is the P_{k-1}
    mass compressed through its restriction (``wh_restriction``).
    """
    if form == "wh_mass":
        G = dense_gram_oracle(tmesh, build_disc_space(tmesh, dmap.degree - 1),
                              "mass")
        R = wh_restriction(dmap)
        return np.asarray(R.T @ G @ R)
    rule = quad_rule(10)
    vals, ref_grads = tabulate_shapes(dmap.degree, rule.points)
    rows = dmap
    if form == "coupling":
        rows = build_disc_space(tmesh, dmap.degree - 1)
        test_vals, _ = tabulate_shapes(rows.degree, rule.points)
    out = np.zeros((rows.n_dofs, dmap.n_dofs))
    vector = dmap.kind == "vector2"
    for t in range(tmesh.n_triangles):
        tri = tmesh.tri_coords()[t]
        J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        det = np.linalg.det(J)
        area = 0.5 * det
        g = ref_grads @ np.linalg.inv(J)
        dofs = dmap.cell_dofs[t]
        for q, w in enumerate(rule.weights):
            if form == "mass" and not vector:
                local = np.outer(vals[q], vals[q])
            elif form == "stiffness":
                local = g[q] @ g[q].T
            elif form == "mass" and vector:
                n = len(vals[q])
                local = np.zeros((2 * n, 2 * n))
                local[0::2, 0::2] = np.outer(vals[q], vals[q])
                local[1::2, 1::2] = np.outer(vals[q], vals[q])
            elif form == "divdiv":
                div = g[q].reshape(-1)
                local = np.outer(div, div)
            elif form == "coupling":
                local = np.outer(test_vals[q], g[q].reshape(-1))
            out[np.ix_(rows.cell_dofs[t], dofs)] += w * area * local
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scalar_mass_matches_dense_oracle(k):
    tmesh = small_perturbed_tri()
    dmap = build_scalar_space(tmesh, k)
    M = assemble_scalar_mass(dmap, tmesh).toarray()
    assert_allclose(M, dense_gram_oracle(tmesh, dmap, "mass"), atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffness_matches_dense_oracle(k):
    tmesh = small_perturbed_tri()
    dmap = build_scalar_space(tmesh, k)
    K = assemble_scalar_stiffness(dmap, tmesh).toarray()
    assert_allclose(K, dense_gram_oracle(tmesh, dmap, "stiffness"), atol=1e-12)


# The oracle is the only integration of the divergence that does not go
# through the divergence blocks of assembly, so the divergence forms are
# checked on every degree and on a distorted mesh.
@pytest.mark.parametrize("k", [1, 2, 3])
def test_vector_mass_and_divdiv_match_dense_oracle(k):
    for tmesh in (unit_square_tri(), small_perturbed_tri()):
        dmap = build_vector_space(tmesh, k)
        A = assemble_vector_mass(dmap, tmesh).toarray()
        B = assemble_divdiv(dmap, tmesh).toarray()
        assert_allclose(A, dense_gram_oracle(tmesh, dmap, "mass"), atol=1e-12)
        assert_allclose(B, dense_gram_oracle(tmesh, dmap, "divdiv"),
                        atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_coupling_and_wh_mass_match_dense_oracle(k):
    for tmesh in (small_perturbed_tri(), unit_square_tri()):
        vspace = build_vector_space(tmesh, k)
        wh = build_wh_space(tmesh, k)
        coupling = dense_gram_oracle(tmesh, vspace, "coupling")
        assert_allclose(disc_coupling(vspace, tmesh).toarray(), coupling,
                        atol=1e-12)
        assert_allclose(assemble_div_coupling(vspace, wh, tmesh).toarray(),
                        wh_restriction(wh).T @ coupling, atol=1e-12)
        M = assemble_wh_mass(wh, tmesh)
        assert_allclose(M.toarray(), dense_gram_oracle(tmesh, wh, "wh_mass"),
                        atol=1e-12)


@pytest.mark.parametrize("domain", ["square", "lshape", "square-perturbed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_orthonormal_div_factors_divdiv(domain, k):
    # div V_h lies in discontinuous P_{k-1} (the constants for k = 1), so its
    # coordinates in an orthonormal basis give D^T D = (div u, div v)
    for n in (1, 2, 5):
        tmesh = build_mesh(StudyConfig(domain=domain), n)
        space = build_vector_space(tmesh, k)
        D = assemble_orthonormal_div(space, tmesh)
        B = assemble_divdiv(space, tmesh)
        assert D.shape == (tmesh.n_triangles * k * (k + 1) // 2, space.n_dofs)
        assert abs(D.T @ D - B).max() <= 1e-13 * abs(B).max()


# ------------------------------------------------ structural properties


def test_vector_mass_total_sum_and_spd():
    tmesh = unit_square_tri()
    dmap = build_vector_space(tmesh, 2)
    A = assemble_vector_mass(dmap, tmesh)
    # sum_ij (phi_j, phi_i) = int |sum phi|^2 = 2 |Omega| by partition of unity
    assert_allclose(A.toarray().sum(), 2.0, rtol=1e-13)
    assert np.linalg.eigvalsh(A.toarray()).min() > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_divdiv_kernel_contains_constants_and_rotation(k):
    tmesh = small_perturbed_tri()
    dmap = build_vector_space(tmesh, k)
    B = assemble_divdiv(dmap, tmesh)
    scale = np.abs(B.toarray()).max()
    const = interpolate_vector(tmesh, dmap, lambda x, y: (np.ones_like(x), 0 * y))
    rot = interpolate_vector(tmesh, dmap, lambda x, y: (-y, x))
    assert np.abs(B @ const).max() < 1e-12 * scale
    assert np.abs(B @ rot).max() < 1e-12 * scale


def test_divdiv_energy_of_linear_field():
    tmesh = small_perturbed_tri()
    dmap = build_vector_space(tmesh, 2)
    B = assemble_divdiv(dmap, tmesh)
    v = interpolate_vector(tmesh, dmap, lambda x, y: (x, y))  # div = 2
    assert_allclose(v @ (B @ v), 4.0 * PI * PI, rtol=1e-12)


def test_stiffness_row_sums_zero_and_mass_total():
    tmesh = small_perturbed_tri()
    dmap = build_scalar_space(tmesh, 2)
    K = assemble_scalar_stiffness(dmap, tmesh)
    M = assemble_scalar_mass(dmap, tmesh)
    assert np.abs(np.asarray(K.sum(axis=1))).max() < 1e-11
    assert_allclose(M.toarray().sum(), PI * PI, rtol=1e-13)


# ------------------------------------------------ divergence coupling


def test_coupling_annihilates_constant_fields():
    tmesh = unit_square_tri()
    dmap = build_vector_space(tmesh, 2)
    wh = build_wh_space(tmesh, 2)
    D = assemble_div_coupling(dmap, wh, tmesh)
    const = interpolate_vector(tmesh, dmap, lambda x, y: (np.ones_like(x),
                                                          np.ones_like(y)))
    assert np.abs(D @ const).max() < 1e-13


def test_coupling_linear_field_against_indicator():
    # (div (x,0), 1_T) = area of T for each triangle
    tmesh = unit_square_tri()
    dmap = build_vector_space(tmesh, 2)
    disc = build_disc_space(tmesh, 1)
    D = disc_coupling(dmap, tmesh)
    v = interpolate_vector(tmesh, dmap, lambda x, y: (x, 0 * y))
    moments = D @ v
    areas = tmesh.tri_areas()
    for t in range(tmesh.n_triangles):
        indicator = np.zeros(disc.n_dofs)
        indicator[disc.cell_dofs[t]] = 1.0  # nodal constants give 1 on T
        assert_allclose(indicator @ moments, areas[t], rtol=1e-13)


@pytest.mark.parametrize("k", [2, 3])
def test_coupling_rank_equals_wh_dimension(k):
    tmesh = small_perturbed_tri()
    dmap = build_vector_space(tmesh, k)
    wh = build_wh_space(tmesh, k)
    D_full = disc_coupling(dmap, tmesh).toarray()
    s = np.linalg.svd(D_full, compute_uv=False)
    rank = int(np.count_nonzero(s > 1e-9 * s[0]))
    assert rank == wh.n_dofs
    # and D against the constrained basis has full row rank
    D_wh = assemble_div_coupling(dmap, wh, tmesh).toarray()
    s2 = np.linalg.svd(D_wh, compute_uv=False)
    assert s2[-1] > 1e-9 * s2[0]


def test_divdiv_nullity_matches_complex_dimension():
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 2, 2))
    dmap = build_vector_space(tmesh, 2)
    B = assemble_divdiv(dmap, tmesh).toarray()
    evals = np.linalg.eigvalsh(B)
    nullity = np.count_nonzero(np.abs(evals) <= 1e-9 * evals.max())
    assert nullity == 3 * 9 + 1 * 12 + 0 - 1  # dim Sigma^3 - 1 on the 2x2 grid


# ------------------------------------------------ projection


def test_projection_idempotent_on_members():
    tmesh = small_perturbed_tri()
    wh = build_wh_space(tmesh, 2)
    rule = quad_rule(4)
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(wh.n_dofs)
    disc_coeffs = wh_restriction(wh) @ coeffs

    # evaluate the member as a callable via nodal data per triangle
    def member(x, y):
        # x, y arrive as (T, P) arrays ordered by triangle
        out = np.zeros_like(x)
        vals, _ = tabulate_shapes(1, rule.points)
        for t in range(tmesh.n_triangles):
            local = disc_coeffs.reshape(tmesh.n_triangles, -1)[t]
            out[t] = vals @ local
        return out

    projected = l2_project_wh(member, wh, tmesh, rule)
    assert_allclose(projected, coeffs, atol=1e-11)


def test_projection_reproduces_divergence_of_random_field():
    tmesh = unit_square_tri()
    k = 2
    rule = quad_rule(2 * k)
    vmap = build_vector_space(tmesh, k)
    wh = build_wh_space(tmesh, k)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(vmap.n_dofs)

    # oracle projection through the assembled operators:
    # M p = D v  <=>  p is the L2 projection of div v onto the basis
    D = assemble_div_coupling(vmap, wh, tmesh).toarray()
    M = assemble_wh_mass(wh, tmesh).toarray()
    p = np.linalg.solve(M, D @ v)

    # independent evaluation route: interpolate div v nodally per triangle
    def div_v(x, y):
        out = np.zeros_like(x)
        # x has shape (T, P) with P the rule points of each triangle
        vals_p = rule.points
        for t in range(tmesh.n_triangles):
            tri = tmesh.tri_coords()[t]
            J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            _, g = tabulate_shapes(k, vals_p)
            gphys = g @ np.linalg.inv(J)
            local = v[vmap.cell_dofs[t]]
            out[t] = gphys[:, :, 0] @ local[0::2] + gphys[:, :, 1] @ local[1::2]
        return out

    projected = l2_project_wh(div_v, wh, tmesh, rule)
    assert_allclose(projected, p, atol=1e-10)
    # div v lies in the space, so the projection reproduces it pointwise:
    # its disc expansion must satisfy the center constraint exactly
    disc = wh_restriction(wh) @ projected
    n = k * (k + 1) // 2                 # nodes of P_{k-1} per triangle
    for q in range(tmesh.n_quads):
        vals_at_center = [disc[(4 * q + s) * n + 2] for s in range(4)]
        residual = (vals_at_center[0] - vals_at_center[1]
                    + vals_at_center[2] - vals_at_center[3])
        assert abs(residual) < 1e-11


def test_projection_of_checkerboard_misses():
    tmesh = unit_square_tri()
    wh = build_wh_space(tmesh, 2)
    rule = quad_rule(4)

    def checkerboard(x, y):
        # -1 on bottom/top slots, +1 on left/right; triangles are slot-ordered
        signs = np.array([-1.0, 1.0, -1.0, 1.0])
        return np.broadcast_to(signs[:, None], x.shape).copy()

    coeffs = l2_project_wh(checkerboard, wh, tmesh, rule)
    disc = wh_restriction(wh) @ coeffs
    # residual norm = L2 distance from the space, strictly positive
    M = assemble_wh_mass(wh, tmesh).toarray()
    norm_proj = math.sqrt(coeffs @ (M @ coeffs))
    norm_cb = 1.0  # |checkerboard| = sqrt(|Q|) = 1 on the unit square
    assert norm_proj < norm_cb - 1e-3


# ------------------------------------------------ CSR scatter plumbing


def test_sparse_matrix_dedup_and_sort():
    # one entry per element: (0,1) twice, then (2,0) and (1,2)
    element = np.array([1.0, 2.0, 5.0, -1.0]).reshape(4, 1, 1)
    rows = np.array([[0], [0], [2], [1]])
    cols = np.array([[1], [1], [0], [2]])
    mat = _assemble(_scatter_plan(rows, cols, (3, 3)), element)
    dense = mat.toarray()
    assert dense[0, 1] == 3.0
    assert dense[2, 0] == 5.0
    assert mat.nnz == 3
    for r in range(3):
        row_cols = mat.indices[mat.indptr[r]:mat.indptr[r + 1]]
        assert np.all(np.diff(row_cols) > 0)


def test_scatter_plan_keys_of_32_bit_dofs_do_not_wrap():
    # the row-major key row * n_cols + col exceeds 2**31 here; scipy hands
    # out 32-bit index arrays, and a 32-bit key would wrap around
    dofs = np.array([[70_000]], dtype=np.int32)
    mat = _assemble(_scatter_plan(dofs, dofs, (70_001, 70_001)),
                    np.ones((1, 1, 1)))
    assert mat.nnz == 1 and mat[70_000, 70_000] == 1.0


def test_canonical_keeps_cancelled_entries():
    # (0,1) and (1,0) each come twice with opposite signs; the sums are
    # stored zeros, so the pattern stays that of the element graph
    rows, cols = np.array([[0, 0, 1, 1, 2]]).T, np.array([[1, 1, 0, 0, 2]]).T
    triplets = np.array([1.0, -1.0, 2.0, -2.0, 4.0]).reshape(5, 1, 1)
    mat = _assemble(_scatter_plan(rows, cols, (3, 3)), triplets)
    assert mat.nnz == 3
    assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0 and mat[2, 2] == 4.0
    assert mat.has_canonical_format


@pytest.mark.parametrize("form", ["fem2", "primal"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pencil_matrices_share_one_pattern(form, k):
    # the shifted factor orders the pattern of B - sigma A, which is this
    # one pattern only because B and A store the same element graph
    tmesh = criss_cross(build_rect_grid(0, 0, PI, PI, 3, 3))
    B, A = _pencil(form, tmesh, k)[:2]
    assert np.array_equal(B.indptr, A.indptr)
    assert np.array_equal(B.indices, A.indices)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pencil_matrices_share_pattern_arrays(k):
    # B and A hold one pattern in memory, not two copies: both are scattered
    # through the dof map's one plan, whose arrays are those the vector mass
    # is assembled on alone
    tmesh = build_mesh(StudyConfig(), 3)
    B, A = _pencil("fem2", tmesh, k)[:2]
    assert np.shares_memory(B.indices, A.indices)
    assert np.shares_memory(B.indptr, A.indptr)
    assert not np.shares_memory(B.data, A.data)
    alone = assemble_vector_mass(build_vector_space(tmesh, k), tmesh)
    assert np.array_equal(alone.indices, B.indices)
    assert np.array_equal(alone.indptr, B.indptr)
    assert np.array_equal(alone.data, A.data)


@pytest.mark.parametrize("domain, n", [
    ("square", 1), ("square", 3), ("lshape", 2), ("square-perturbed", 3),
])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_vector_graph_plan_expands_the_node_plan(domain, n, k):
    # the vector plan is the node plan with 2 x 2 blocks: it must be the
    # plan that sorting every vector key gives, slot for slot
    space = build_vector_space(build_mesh(StudyConfig(domain=domain), n), k)
    direct = _scatter_plan(space.cell_dofs, space.cell_dofs,
                           (space.n_dofs, space.n_dofs))
    expanded = _graph_plan(space)
    assert expanded.shape == direct.shape
    for got, want in zip(expanded[:3], direct[:3]):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_fem2_pencil_assembly_peak_memory():
    # a COO build per matrix peaked at 4.26 times the bytes of B plus A on
    # this mesh; the one plan and a bincount per matrix peak near twice
    tmesh = build_mesh(StudyConfig(), 16)
    _pencil("fem2", tmesh, 2)           # shape tables are cached per process
    (B, A, _, _), peak = traced_peak(lambda: _pencil("fem2", tmesh, 2))
    size = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
               for m in (B, A))
    assert peak < 3.0 * size


@pytest.mark.parametrize("domain, n", [
    ("square", 3), ("lshape", 2), ("square-perturbed", 3),
])
@pytest.mark.parametrize("k", [2, 3])
def test_wh_coupling_stores_the_symbolic_product_pattern(domain, n, k):
    # the W_h coupling and mass keep every quad's block whole, the symbolic
    # pattern of the quad-block restriction (each block dense) times the
    # full P_{k-1} coupling and mass, also where the values are zero, so
    # their patterns do not depend on rounding and their data are the
    # arrays of quad blocks
    def stored(m):
        m = sp.csr_matrix(m)
        return sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), m.shape)

    tmesh = build_mesh(StudyConfig(domain=domain), n)
    vspace, wh = build_vector_space(tmesh, k), build_wh_space(tmesh, k)
    D = disc_coupling(vspace, tmesh)
    R = wh_restriction(wh)
    blocks = sp.kron(sp.identity(tmesh.n_quads), np.ones(wh.basis.shape))
    for assembled, full in [
            (assemble_div_coupling(vspace, wh, tmesh), D),
            (assemble_wh_mass(wh, tmesh),
             assemble_scalar_mass(build_disc_space(tmesh, k - 1), tmesh) @ R)]:
        symbolic = (stored(blocks).T @ stored(full)).tocsr()
        symbolic.sort_indices()
        assert assembled.has_canonical_format
        assert np.array_equal(assembled.indptr, symbolic.indptr)
        assert np.array_equal(assembled.indices, symbolic.indices)
        expected = (R.T @ full).toarray()
        assert_allclose(assembled.toarray(), expected, rtol=0,
                        atol=1e-15 * np.abs(expected).max())


def test_sparse_matrix_symmetry_flag():
    dofs = np.array([[0, 1]])
    plan = _scatter_plan(dofs, dofs, (2, 2))
    _assemble(plan, np.array([[[1.0, 0.5], [0.5, 1.0]]]), symmetric=True)
    with pytest.raises(ValueError, match="symmetric"):
        _assemble(plan, np.array([[[0.0, 1.0], [2.0, 0.0]]]), symmetric=True)


def test_assembled_matrices_are_symmetric_flagged():
    tmesh = unit_square_tri()
    dmap = build_vector_space(tmesh, 2)
    A = assemble_vector_mass(dmap, tmesh)
    assert A.has_canonical_format
    diff = np.abs(A.toarray() - A.toarray().T).max()
    assert diff < 1e-12 * np.abs(A.toarray()).max()


def test_matrix_market_round_trip(tmp_path):
    tmesh = unit_square_tri()
    dmap = build_scalar_space(tmesh, 2)
    M = assemble_scalar_mass(dmap, tmesh)
    path = tmp_path / "mass.mtx"
    write_matrix_market(M, path)
    back = scipy.io.mmread(path).tocsr()
    assert_allclose(back.toarray(), M.toarray(), rtol=1e-15)


def test_coupling_rejects_degree_mismatch():
    tmesh = unit_square_tri()
    v3 = build_vector_space(tmesh, 3)
    wh2 = build_wh_space(tmesh, 2)
    with pytest.raises(ValueError, match="degree"):
        assemble_div_coupling(v3, wh2, tmesh)
