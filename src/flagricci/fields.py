"""Cubic Ricci-type vector fields on metric coefficients (x1, x2, x3).

All maps are vectorized over a trailing axis of length 3, so a single point
(3,) and a batch (N, 3) both work. Coordinates are the metric coefficients on
the three isotropy summands; the unnormalized field R satisfies dx/dt = R(x)
for the homogeneous flow, and the projected field X keeps the flow on the
plane x1 + x2 + x3 = 1.

The cubic is written once, in coefficient form (_cubic), and evaluated on
arrays (ricci_field), on Python floats (point_field, the single-start
integrator's field) and on column arrays (column_field, the batch
integrator's field). On a 1-D point numpy takes its 0-d path, where `d ** 2`
is C pow; on a batch numpy squares as d * d. The two differ in the last bit
for about one point in two thousand, so a row of a 2-D batch need not equal
the same point passed alone. The float path follows the 1-D point exactly,
and column_field follows it too by squaring through cpow.
"""

from __future__ import annotations

import numpy as np

from .flags import FlagSpec


def require_finite(x, name: str = "x") -> np.ndarray:
    """x as a float array; raises ValueError naming its first non-finite coordinate."""
    x = np.asarray(x, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            "%s[%s] = %r is not finite" % (name, ", ".join(map(str, idx)), float(x[idx]))
        )
    return x


def _family_abc(spec: FlagSpec):
    # family E shares the (1,1,1) cubic of family A
    if spec.family == "E":
        return 1, 1, 1
    return spec.params


def _cubic_coefficients(spec: FlagSpec):
    """(a, b) with R_i = -x_i (a_i (x_i^2 - (x_j - x_k)^2) + b_i x_j x_k).

    Family A/E with parameters (m, n, p): a = (p, n, m),
    b = (2(m+n), 2(m+p), 2(n+p)); family D(l): a = (l-2, l-2, 2),
    b = (2l, 2l, 4(l-2)).
    """
    if spec.family == "D":
        (ell,) = spec.params
        return (ell - 2, ell - 2, 2), (2 * ell, 2 * ell, 4 * (ell - 2))
    m, n, p = _family_abc(spec)
    return (p, n, m), (2 * (m + n), 2 * (m + p), 2 * (n + p))


def cpow(x, p) -> np.ndarray:
    """x ** p on every element of the 1-D float array x, through C pow.

    A Python float's ** and a 0-d array's are C pow. numpy's array power is
    not: it squares as x * x, and where the CPU has AVX-512 its vectorized
    power, even with an array exponent, differs from C pow in the last bit
    for a few percent of elements. An array path that must equal the float
    path bit for bit takes its powers here, at the cost of one Python
    operation per element.
    """
    return np.array([v ** p for v in x.tolist()])


class _CPowTwo:
    """The exponent 2 for which `x ** CPOW_TWO` is cpow(x, 2) on a float array."""

    # makes ndarray.__pow__ defer to __rpow__
    __array_ufunc__ = None

    def __rpow__(self, x):
        return cpow(x, 2)


CPOW_TWO = _CPowTwo()


def _cubic(a, b, x1, x2, x3, two=2):
    # The one written form of the cubic, for arrays, Python floats and
    # columns. The order of every operation fixes the result bits: the
    # squares are `** two`, which with two = 2 is C pow on a 0-d array and
    # on a float; columns pass two = CPOW_TWO to get the same C pow. b_i x_j
    # x_k multiplies left to right.
    return (
        -x1 * (a[0] * (x1 * x1 - (x2 - x3) ** two) + b[0] * x2 * x3),
        -x2 * (a[1] * (x2 * x2 - (x3 - x1) ** two) + b[1] * x1 * x3),
        -x3 * (a[2] * (x3 * x3 - (x1 - x2) ** two) + b[2] * x1 * x2),
    )


def ricci_field(spec: FlagSpec, x) -> np.ndarray:
    """Unnormalized cubic field R(x); homogeneous of degree 3.

    Each component carries an explicit factor of its own coordinate, so the
    coordinate hyperplanes {x_i = 0} are invariant exactly, not just to
    rounding.
    """
    x = np.asarray(x, dtype=float)
    a, b = _cubic_coefficients(spec)
    return np.stack(_cubic(a, b, x[..., 0], x[..., 1], x[..., 2]), axis=-1)


def projected_field(spec: FlagSpec, x) -> np.ndarray:
    """Field X(x) = R(x) - (sum R(x)) x, tangent to {sum x = 1}."""
    x = np.asarray(x, dtype=float)
    r = ricci_field(spec, x)
    total = r.sum(axis=-1, keepdims=True)
    return r - total * x


def _componentwise_field(spec: FlagSpec, two):
    a, b = _cubic_coefficients(spec)
    a = tuple(float(c) for c in a)
    b = tuple(float(c) for c in b)

    def f(x):
        x1, x2, x3 = x
        r1, r2, r3 = _cubic(a, b, x1, x2, x3, two)
        total = r1 + r2 + r3
        return (r1 - total * x1, r2 - total * x2, r3 - total * x3)

    return f


def point_field(spec: FlagSpec):
    """Projected field X on one point of Python floats, as a function.

    The returned f takes a length-3 sequence of floats and returns a tuple of
    three floats equal, bit for bit, to projected_field(spec, x) on the 1-D
    array x: the same cubic in the same order of operations, and the sum of
    R taken left to right, as numpy sums three elements. It skips numpy's
    per-call overhead, which dominates on a single point.
    """
    return _componentwise_field(spec, 2)


def column_field(spec: FlagSpec):
    """Projected field X on a batch of points given as three columns.

    The returned f takes (x1, x2, x3), three 1-D float arrays of one length,
    and returns the three columns of X. Row i equals point_field(spec) at
    (x1[i], x2[i], x3[i]) bit for bit: every operation is elementwise and
    the squares go through cpow.
    """
    return _componentwise_field(spec, CPOW_TWO)


def reduced_field(spec: FlagSpec, uv) -> np.ndarray:
    """Planar restriction Y(u, v): X evaluated at (u, v, 1-u-v), first two components."""
    uv = np.asarray(uv, dtype=float)
    u, v = uv[..., 0], uv[..., 1]
    x = np.stack([u, v, 1.0 - u - v], axis=-1)
    return projected_field(spec, x)[..., :2]


def cone_form(x) -> np.ndarray:
    """Quadratic F(x) = x1^2 + x2^2 + x3^2 - 2(x1 x2 + x1 x3 + x2 x3).

    F < 0 on the realizable region, F = 0 on its boundary cone.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return x1 * x1 + x2 * x2 + x3 * x3 - 2 * (x1 * x2 + x1 * x3 + x2 * x3)


def cone_form_grad(x) -> np.ndarray:
    """Gradient of F: -2(-x1+x2+x3, x1-x2+x3, x1+x2-x3)."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack(
        [-2 * (-x1 + x2 + x3), -2 * (x1 - x2 + x3), -2 * (x1 + x2 - x3)],
        axis=-1,
    )


def cone_flux(spec: FlagSpec, x, tol: float = 1e-9) -> np.ndarray:
    """Flux R . grad F at points on the cone {F = 0}.

    Rejects points with |F| > tol * max(1, |x|_inf^2); F scales quadratically,
    so the tolerance is applied at unit scale. Non-finite points are rejected.
    """
    x = require_finite(x)
    f = cone_form(x)
    scale = np.maximum(1.0, np.max(np.abs(x), axis=-1) ** 2)
    if np.any(np.abs(f) > tol * scale):
        worst = float(np.max(np.abs(f) / scale))
        raise ValueError(
            "point not on the cone: |F| = %.3e exceeds tolerance %.1e" % (worst, tol)
        )
    r = ricci_field(spec, x)
    return (r * cone_form_grad(x)).sum(axis=-1)


def cone_flux_closed_form(spec: FlagSpec, x) -> np.ndarray:
    """Closed form that cone_flux takes on {F = 0}.

    Family A/E: -8 x1 x2 x3 (p x1 + n x2 + m x3); family D with parameter l:
    -8 x1 x2 x3 ((l-2)(x1 + x2) + 2 x3). Both are nonpositive on the first
    orthant and vanish only where some coordinate does.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    if spec.family == "D":
        (ell,) = spec.params
        lin = (ell - 2) * (x1 + x2) + 2 * x3
    else:
        m, n, p = _family_abc(spec)
        lin = p * x1 + n * x2 + m * x3
    return -8.0 * x1 * x2 * x3 * lin
