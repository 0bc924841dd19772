"""Cubic Ricci-type vector fields on metric coefficients (x1, x2, x3).

All maps are vectorized over a trailing axis of length 3, so a single point
(3,) and a batch (N, 3) both work. Coordinates are the metric coefficients on
the three isotropy summands; the unnormalized field R satisfies dx/dt = R(x)
for the homogeneous flow, and the projected field X keeps the flow on the
plane x1 + x2 + x3 = 1.

The cubic is written once, in coefficient form (_cubic), and evaluated on
arrays (ricci_field) and, through point_field, on Python floats or column
arrays (the float loop's field). block_field is its one other form: the
same operations in the same order on a (3, n) block, one numpy call per
operation for all three coordinates (the lockstep's field), pinned to
point_field bit for bit by test_block_field_has_the_bits_of_point_field.
Every operation is an elementwise add, subtract or multiply, each correctly
rounded, so a point gives the same bits on every path: alone as a 1-D
array, as a row of a batch, as three floats, as a row of three columns or
as a column of a block. The one difference is the sign of a zero X where R
is three -0.0, which numpy's sum and point_field's take apart (point_field).

_cubic_jacobian is the cubic's exact Jacobian in the same coefficient form,
from which flow.jacobian builds the reduced field's.
"""

from __future__ import annotations

import numpy as np

from .flags import FlagSpec

# |F| at unit scale up to which a point counts as on the cone {F = 0}
CONE_TOL = 1e-9


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


def _cubic_coefficients(spec: FlagSpec):
    """(a, b) with R_i = -x_i (a_i (x_i^2 - (x_j - x_k)^2) + b_i x_j x_k).

    Family A with parameters (m, n, p): a = (p, n, m),
    b = (2(m+n), 2(m+p), 2(n+p)); family E shares the cubic of A(1,1,1);
    family D(l): a = (l-2, l-2, 2), b = (2l, 2l, 4(l-2)). This is the one
    family rule of the field layer.
    """
    if spec.family == "D":
        (ell,) = spec.params
        return (ell - 2, ell - 2, 2), (2 * ell, 2 * ell, 4 * (ell - 2))
    m, n, p = spec.params if spec.family == "A" else (1, 1, 1)
    return (p, n, m), (2 * (m + n), 2 * (m + p), 2 * (n + p))


def _cubic(a, b, x1, x2, x3):
    # The written form of the cubic, for arrays, numpy scalars, Python
    # floats and columns; block_field repeats it on (3, n) blocks, and
    # test_block_field_has_the_bits_of_point_field pins the two together.
    # The order of every operation fixes the result bits: the squares are
    # d * d, and b_i x_j x_k multiplies left to right.
    d23, d31, d12 = x2 - x3, x3 - x1, x1 - x2
    return (
        -x1 * (a[0] * (x1 * x1 - d23 * d23) + b[0] * x2 * x3),
        -x2 * (a[1] * (x2 * x2 - d31 * d31) + b[1] * x1 * x3),
        -x3 * (a[2] * (x3 * x3 - d12 * d12) + b[2] * x1 * x2),
    )


def _cubic_jacobian(a, b, x1, x2, x3):
    # The rows dR_i/dx of _cubic, i = 1, 2, 3. With (j, k) the partners of
    # _cubic's d = x_j - x_k: dR_i/dx_i = -a_i (3 x_i^2 - d^2) - b_i x_j x_k,
    # dR_i/dx_j = x_i (2 a_i d - b_i x_k), dR_i/dx_k = -x_i (2 a_i d + b_i x_j).
    # Only +, - and * are used, so Fractions give the exact rational rows.
    d23, d31, d12 = x2 - x3, x3 - x1, x1 - x2
    return (
        (
            -a[0] * (3 * x1 * x1 - d23 * d23) - b[0] * x2 * x3,
            x1 * (2 * a[0] * d23 - b[0] * x3),
            -x1 * (2 * a[0] * d23 + b[0] * x2),
        ),
        (
            -x2 * (2 * a[1] * d31 + b[1] * x3),
            -a[1] * (3 * x2 * x2 - d31 * d31) - b[1] * x3 * x1,
            x2 * (2 * a[1] * d31 - b[1] * x1),
        ),
        (
            x3 * (2 * a[2] * d12 - b[2] * x2),
            -x3 * (2 * a[2] * d12 + b[2] * x1),
            -a[2] * (3 * x3 * x3 - d12 * d12) - b[2] * x1 * x2,
        ),
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
    to right, as numpy sums three elements. The one exception is an R of
    three -0.0, as at a face midpoint x_i = x_k: numpy's sum starts from
    +0.0 and gives +0.0, this one -0.0, so the two X are zeros of opposite
    signs. On one point it skips numpy's per-call overhead, which dominates
    there.
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


# the rows that block_field takes for each coordinate's partners: x_j then
# x_k of its b_i x_j x_k term, for i = 1, 2, 3
_PARTNERS = np.array([1, 0, 0, 2, 2, 1])


def block_field(spec: FlagSpec):
    """Projected field X on a (3, n) block of n points, as a function.

    The returned f takes a (3, n) float array, a point per column, and
    returns X in the same form. Each column equals point_field(spec) on that
    point bit for bit: the operations of _cubic and of point_field's
    projection in the same order, each made by one numpy call over all
    three coordinates. Row i's partners x_j, x_k come from one take. The
    difference x_j - x_k is x3 - x1 negated in row 2, which rounds to the
    same magnitude, so its square has _cubic's bits.
    """
    a, b = _cubic_coefficients(spec)
    a = np.array(a, dtype=float)[:, None]
    b = np.array(b, dtype=float)[:, None]

    def f(x):
        pq = x.take(_PARTNERS, axis=0)
        p, q = pq[:3], pq[3:]
        d = p - q
        r = -x * (a * (x * x - d * d) + b * p * q)
        total = r[0] + r[1] + r[2]
        return r - total * x

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


def cone_flux(spec: FlagSpec, x) -> np.ndarray:
    """Flux R . grad F at points on the cone {F = 0}.

    Rejects points with |F| > CONE_TOL * max(1, |x|_inf^2); F scales
    quadratically, so the tolerance is applied at unit scale. Non-finite
    points are rejected.
    """
    x = require_finite(x)
    f = cone_form(x)
    scale = np.maximum(1.0, np.max(np.abs(x), axis=-1) ** 2)
    if np.any(np.abs(f) > CONE_TOL * scale):
        worst = float(np.max(np.abs(f) / scale))
        msg = "point not on the cone: |F| = %.3e exceeds tolerance %.1e"
        raise ValueError(msg % (worst, CONE_TOL))
    r = ricci_field(spec, x)
    return (r * cone_form_grad(x)).sum(axis=-1)


def cone_flux_closed_form(spec: FlagSpec, x) -> np.ndarray:
    """Closed form that cone_flux takes on {F = 0}: -8 x1 x2 x3 (a . x).

    a is the cubic's first coefficient triple (_cubic_coefficients), so
    family A/E gives -8 x1 x2 x3 (p x1 + n x2 + m x3) and family D(l)
    -8 x1 x2 x3 ((l-2) x1 + (l-2) x2 + 2 x3). It is nonpositive on the
    first orthant and vanishes only where some coordinate does.
    """
    a, _ = _cubic_coefficients(spec)
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return -8.0 * x1 * x2 * x3 * (a[0] * x1 + a[1] * x2 + a[2] * x3)
