"""Reference-triangle Lagrange elements and triangle quadrature.

Shape functions use equispaced nodes on the reference triangle with vertices
(0,0), (1,0), (0,1) and barycentric coordinates (l0, l1, l2), l0 = 1-x-y.
Node order is vertices, then edge nodes (edges (0,1), (0,2), (1,2), nodes by
increasing parameter from the lower local vertex), then interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "QuadRule",
    "node_multi_indices",
    "tabulate_shapes",
    "quad_rule",
]

MAX_DEGREE = 4


@dataclass(frozen=True)
class QuadRule:
    """Symmetric quadrature rule on the reference triangle.

    Weights are positive and sum to one; an integral over a physical
    triangle T is |T| * sum(w_i * f(p_i)).
    """

    points: np.ndarray   # (P, 3) barycentric
    weights: np.ndarray  # (P,)
    exactness_degree: int


def node_multi_indices(degree: int):
    """Multi-indices (i, j, l), i+j+l = degree, in canonical node order."""
    k = _check_degree(degree)
    idx = [(k, 0, 0), (0, k, 0), (0, 0, k)]
    idx += [(k - j, j, 0) for j in range(1, k)]      # edge (0,1)
    idx += [(k - l, 0, l) for l in range(1, k)]      # edge (0,2)
    idx += [(0, k - l, l) for l in range(1, k)]      # edge (1,2)
    idx += sorted(
        (i, j, k - i - j)
        for i in range(1, k)
        for j in range(1, k - i)
        if k - i - j >= 1
    )
    return idx


def _check_degree(degree: int) -> int:
    if degree not in range(1, MAX_DEGREE + 1):
        raise ValueError(f"unsupported Lagrange degree {degree}; expected 1..{MAX_DEGREE}")
    return degree


def _factor_values(k: int, m: int, t: np.ndarray):
    """Value and derivative of f_m(t) = prod_{r<m} (k*t - r)/(m - r)."""
    t = np.asarray(t, dtype=float)
    if m == 0:
        return np.ones_like(t), np.zeros_like(t)
    denom = 1.0
    for r in range(m):
        denom *= m - r
    terms = [k * t - r for r in range(m)]
    value = np.ones_like(t)
    for f in terms:
        value = value * f
    deriv = np.zeros_like(t)
    for s in range(m):
        prod = np.ones_like(t)
        for r in range(m):
            if r != s:
                prod = prod * terms[r]
        deriv += prod
    return value / denom, k * deriv / denom


def tabulate_shapes(degree: int, points: np.ndarray):
    """Values and reference gradients at many barycentric points.

    Returns (values, grads) with shapes (P, n_k) and (P, n_k, 2).
    """
    k = _check_degree(degree)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("barycentric points must have three components")
    if np.any(pts < -1e-12) or np.any(np.abs(pts.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("invalid barycentric point")

    # per coordinate, precompute f_m and f_m' for m = 0..k
    fac_val = [[None] * (k + 1) for _ in range(3)]
    fac_der = [[None] * (k + 1) for _ in range(3)]
    for c in range(3):
        for m in range(k + 1):
            fac_val[c][m], fac_der[c][m] = _factor_values(k, m, pts[:, c])

    idx = node_multi_indices(k)
    n = len(idx)
    values = np.empty((len(pts), n))
    dlam = np.empty((len(pts), n, 3))
    for a, (i, j, l) in enumerate(idx):
        v0, d0 = fac_val[0][i], fac_der[0][i]
        v1, d1 = fac_val[1][j], fac_der[1][j]
        v2, d2 = fac_val[2][l], fac_der[2][l]
        values[:, a] = v0 * v1 * v2
        dlam[:, a, 0] = d0 * v1 * v2
        dlam[:, a, 1] = v0 * d1 * v2
        dlam[:, a, 2] = v0 * v1 * d2
    # chain rule for x = l1, y = l2, l0 = 1 - x - y
    grads = np.stack(
        [dlam[:, :, 1] - dlam[:, :, 0], dlam[:, :, 2] - dlam[:, :, 0]], axis=2
    )
    return values, grads


# Symmetric positive rules assembled from group orbits.  S3 is the centroid,
# S21(a) the three permutations of (1-2a, a, a), S111(a, b) all six of
# (a, b, 1-a-b).  Orbit data refined by Newton iteration on the moment
# equations to far below double precision.
_ORBIT_TABLES = {
    1: [("S3", (), 1.0)],
    2: [("S21", (1.0 / 6.0,), 1.0 / 3.0)],
    4: [
        ("S21", (0.44594849091596489,), 0.22338158967801147),
        ("S21", (0.091576213509770743,), 0.10995174365532187),
    ],
    5: [
        ("S3", (), 0.225),
        ("S21", (0.47014206410511509,), 0.13239415278850618),
        ("S21", (0.10128650732345634,), 0.12593918054482715),
    ],
    6: [
        ("S21", (0.24928674517091042,), 0.11678627572637937),
        ("S21", (0.063089014491502228,), 0.050844906370206817),
        ("S111", (0.31035245103378441, 0.053145049844816947), 0.082851075618373575),
    ],
    8: [
        ("S3", (), 0.14431560767778717),
        ("S21", (0.45929258829272316,), 0.095091634267284625),
        ("S21", (0.17056930775176021,), 0.10321737053471825),
        ("S21", (0.050547228317030975,), 0.032458497623198080),
        ("S111", (0.26311282963463811, 0.0083947774099576053), 0.027230314174434994),
    ],
    10: [
        ("S3", (), 0.090817990382753580),
        ("S21", (0.48557763338365738,), 0.036725957756466705),
        ("S21", (0.10948157548503705,), 0.045321059435527935),
        ("S111", (0.55035294182099910, 0.14170721941487995), 0.072757916845420109),
        ("S111", (0.72832390459741092, 0.025003534762686386), 0.028327242531057485),
        ("S111", (0.92365593358750028, 0.0095408154002994576), 0.0094216669637328235),
    ],
}


def _expand_orbits(table):
    points = []
    weights = []
    for kind, params, w in table:
        if kind == "S3":
            points.append((1 / 3, 1 / 3, 1 / 3))
            weights.append(w)
        elif kind == "S21":
            a = params[0]
            b = 1.0 - 2.0 * a
            points += [(b, a, a), (a, b, a), (a, a, b)]
            weights += [w] * 3
        else:
            a, b = params
            c = 1.0 - a - b
            points += [(a, b, c), (b, a, c), (c, a, b), (a, c, b), (b, c, a), (c, b, a)]
            weights += [w] * 6
    return np.array(points), np.array(weights)


@lru_cache(maxsize=None)
def quad_rule(min_degree: int) -> QuadRule:
    """Smallest tabulated symmetric rule with exactness >= min_degree."""
    if min_degree > max(_ORBIT_TABLES):
        raise ValueError(
            f"no quadrature table of exactness degree {min_degree}; max is "
            f"{max(_ORBIT_TABLES)}"
        )
    degree = min(d for d in _ORBIT_TABLES if d >= max(min_degree, 1))
    points, weights = _expand_orbits(_ORBIT_TABLES[degree])
    return QuadRule(points=points, weights=weights, exactness_degree=degree)
