"""Cubic Ricci-type vector fields on metric coefficients (x1, x2, x3).

All maps are vectorized over a trailing axis of length 3, so a single point
(3,) and a batch (N, 3) both work. Coordinates are the metric coefficients on
the three isotropy summands; the unnormalized field R satisfies dx/dt = R(x)
for the homogeneous flow, and the projected field X keeps the flow on the
plane x1 + x2 + x3 = 1.

The cubic is written once, in coefficient form (_cubic), and evaluated on
arrays (ricci_field) and, through point_field, on Python floats or column
arrays (the integrators' field). Every operation in it is an elementwise
add, subtract or multiply, each correctly rounded, so a point gives the same
bits on every path: alone as a 1-D array, as a row of a batch, as three
floats or as a row of three columns.
"""

from __future__ import annotations

import numpy as np

from .flags import FlagSpec


def require_finite(x, name: str = "x") -> np.ndarray:
    """x as a float array; raises ValueError naming its first non-finite coordinate."""
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    # count_nonzero is about half the cost of finite.all() on a 3-vector
    if np.count_nonzero(finite) < x.size:
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
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


def _cubic(a, b, x1, x2, x3):
    # The one written form of the cubic, for arrays, numpy scalars, Python
    # floats and columns. The order of every operation fixes the result
    # bits: the squares are d * d, and b_i x_j x_k multiplies left to right.
    d23, d31, d12 = x2 - x3, x3 - x1, x1 - x2
    return (
        -x1 * (a[0] * (x1 * x1 - d23 * d23) + b[0] * x2 * x3),
        -x2 * (a[1] * (x2 * x2 - d31 * d31) + b[1] * x1 * x3),
        -x3 * (a[2] * (x3 * x3 - d12 * d12) + b[2] * x1 * x2),
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


def point_field(spec: FlagSpec):
    """Projected field X on three floats or three columns, as a function.

    The returned f takes a sequence (x1, x2, x3) of three Python floats, or
    of three 1-D float arrays of one length, and returns X in the same form.
    Each point's X equals projected_field(spec, x) there bit for bit: the
    same cubic in the same order of operations, and the sum of R taken left
    to right, as numpy sums three elements. On one point it skips numpy's
    per-call overhead, which dominates there.
    """
    a, b = _cubic_coefficients(spec)
    a = tuple(float(c) for c in a)
    b = tuple(float(c) for c in b)

    def f(x):
        x1, x2, x3 = x
        r1, r2, r3 = _cubic(a, b, x1, x2, x3)
        total = r1 + r2 + r3
        return (r1 - total * x1, r2 - total * x2, r3 - total * x3)

    return f


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
