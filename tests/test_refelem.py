import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crisscross.assembly import _physical_gradients
from crisscross.refelem import (
    MAX_DEGREE,
    QuadRule,
    node_multi_indices,
    quad_rule,
    tabulate_shapes,
)

from fe_helpers import node_barycentric

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def random_barycentric(rng, count):
    w = rng.dirichlet([1.0, 1.0, 1.0], size=count)
    return w


def shapes_at(k, point):
    """Values (n_k,) and reference gradients (n_k, 2) at one point."""
    values, grads = tabulate_shapes(k, point)
    return values[0], grads[0]


def pulled_back_grads(k, point, tri):
    """Physical gradients (n_k, 2) at one point of one triangle, through the
    batched pullback that assembly uses."""
    one_triangle = SimpleNamespace(
        tri_coords=lambda: np.asarray(tri, dtype=float)[None])
    rule = QuadRule(points=np.atleast_2d(point), weights=np.ones(1),
                    exactness_degree=0)
    return _physical_gradients(one_triangle, k, rule)[1][0, 0]


# ---------------------------------------------------------------- shapes


@pytest.mark.parametrize("k", range(1, MAX_DEGREE + 1))
def test_nodal_delta_property(k):
    nodes = node_barycentric(k)
    values, _ = tabulate_shapes(k, nodes)
    assert_allclose(values, np.eye(len(nodes)), atol=1e-12)


@pytest.mark.parametrize("k", range(1, MAX_DEGREE + 1))
def test_partition_of_unity_and_gradient_sum(k):
    rng = np.random.default_rng(7)
    pts = random_barycentric(rng, 100)
    values, grads = tabulate_shapes(k, pts)
    assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)
    assert_allclose(grads.sum(axis=1), 0.0, atol=1e-11)


def test_vertex_point_k2():
    values, _ = shapes_at(2, (1.0, 0.0, 0.0))
    assert_allclose(values, [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_centroid_sums_to_one():
    for k in range(1, MAX_DEGREE + 1):
        values, _ = shapes_at(k, (1 / 3, 1 / 3, 1 / 3))
        assert_allclose(values.sum(), 1.0, atol=1e-13)


def test_k3_against_vandermonde_oracle():
    # independent construction: solve the 10x10 nodal Vandermonde system in
    # the monomial basis and evaluate at the centroid
    k = 3
    exps = [(a, b) for d in range(k + 1) for a in range(d + 1) for b in (d - a,)]
    nodes = node_barycentric(k)
    xy = nodes[:, 1:3]  # x = l1, y = l2
    V = np.array([[x ** a * y ** b for a, b in exps] for x, y in xy])
    coeffs = np.linalg.solve(V, np.eye(len(exps)))
    pt = np.array([1 / 3, 1 / 3, 1 / 3])
    mono = np.array([pt[1] ** a * pt[2] ** b for a, b in exps])
    expected = coeffs.T @ mono

    values, _ = shapes_at(k, pt)
    assert_allclose(values, expected, atol=1e-12)


def test_node_order_vertices_edges_interior():
    idx = node_multi_indices(3)
    assert idx[:3] == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    # edge (0,1) nodes by increasing parameter toward vertex 1
    assert idx[3:5] == [(2, 1, 0), (1, 2, 0)]
    assert idx[-1] == (1, 1, 1)
    assert len(node_multi_indices(4)) == 15


def test_invalid_degree_and_point():
    with pytest.raises(ValueError):
        tabulate_shapes(5, (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError):
        tabulate_shapes(2, (0.5, 0.6, 0.2))
    with pytest.raises(ValueError):
        tabulate_shapes(2, (-0.1, 0.6, 0.5))


# ---------------------------------------------------------------- gradients


def test_reference_triangle_identity():
    pt = (0.2, 0.5, 0.3)
    _, ref_grads = shapes_at(2, pt)
    assert_allclose(pulled_back_grads(2, pt, REF_TRI), ref_grads, atol=1e-14)


def test_k1_gradients_unit_triangle():
    grads = pulled_back_grads(1, (1 / 3, 1 / 3, 1 / 3), REF_TRI)
    assert_allclose(grads, [[-1, -1], [1, 0], [0, 1]], atol=1e-14)


def test_gradient_scaling():
    s = 3.7
    pt = (0.3, 0.3, 0.4)
    _, ref_grads = shapes_at(3, pt)
    scaled = pulled_back_grads(3, pt, s * REF_TRI)
    assert_allclose(scaled, ref_grads / s, rtol=1e-13)


@pytest.mark.parametrize("k", range(1, MAX_DEGREE + 1))
def test_gradients_match_finite_differences(k):
    # central differences of shape values at mapped points on a skewed triangle
    tri = np.array([[0.1, -0.2], [1.3, 0.4], [0.2, 1.1]])
    J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    Jinv = np.linalg.inv(J)
    pt = np.array([0.25, 0.35, 0.40])
    grads = pulled_back_grads(k, pt, tri)

    h = 1e-6
    for d, e_phys in enumerate(np.eye(2)):
        # displacement in physical space maps to reference offset Jinv @ e
        dref = Jinv @ (h * e_phys)
        dbary = np.array([-dref[0] - dref[1], dref[0], dref[1]])
        vp, _ = tabulate_shapes(k, pt + dbary)
        vm, _ = tabulate_shapes(k, pt - dbary)
        fd = (vp[0] - vm[0]) / (2 * h)
        assert_allclose(grads[:, d], fd, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------- quadrature


def exact_monomial(a, b):
    # integral of x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_constant_and_linear_integrals():
    rule = quad_rule(2)
    x = rule.points[:, 1]
    assert_allclose(0.5 * rule.weights.sum(), 0.5, atol=1e-15)
    assert_allclose(0.5 * (rule.weights * x).sum(), 1 / 6, atol=1e-15)


@pytest.mark.parametrize("min_degree", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_monomial_exactness(min_degree):
    rule = quad_rule(min_degree)
    assert rule.exactness_degree >= min_degree
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(rule.exactness_degree + 1):
        for b in range(rule.exactness_degree + 1 - a):
            approx = 0.5 * np.sum(rule.weights * x ** a * y ** b)
            assert abs(approx - exact_monomial(a, b)) < 1e-14


def test_weights_positive_and_normalized():
    for deg in (1, 2, 4, 5, 6, 8, 10):
        rule = quad_rule(deg)
        assert np.all(rule.weights > 0)
        assert_allclose(rule.weights.sum(), 1.0, atol=1e-14)


def test_rule_symmetry():
    # the point set is closed under permutation of barycentric coordinates
    rule = quad_rule(8)
    pts = {tuple(np.round(p, 12)) for p in rule.points}
    for p in rule.points:
        assert tuple(np.round([p[1], p[2], p[0]], 12)) in pts
        assert tuple(np.round([p[0], p[2], p[1]], 12)) in pts


def test_degree_beyond_table():
    with pytest.raises(ValueError, match="exactness"):
        quad_rule(11)
