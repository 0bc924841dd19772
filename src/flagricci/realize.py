"""Realization of metric coefficients by flat torus frames.

A frame is a 2 x k real matrix whose columns are commuting torus directions
expressed in the basis dual to the two independent restricted roots. The
metric it induces has coefficients

    x1 = |l1|^2,  x2 = |l2|^2,  x3 = |l1 + l2|^2

where l1, l2 are the frame rows: in every family here the third restricted
root is the sum of the first two, [a3] = [a1] + [a2]. With k = 2, frames
are parametrized by their Gram matrix: x = (Y00, Y11, Y00 + Y11 + 2 Y01)
for Y = frame frame^T, the linear map psd_to_coeffs, and the admissible
coefficient vectors are exactly the first orthant part of {F <= 0} (see
fields.cone_form).
The linear maps gram, frame_metric, psd_to_coeffs and coeffs_to_psd take
one point or a stack of points over leading axes, as fields maps a trailing
axis of length 3: a frame (2, k) or frames (..., 2, k). A point and a stack
take one code path, with no BLAS call: every sum is elementwise products
added left to right (_sum_of_products), so each point of a stack has the
bits of its own call, on every BLAS kernel.
realizing_frame inverts the correspondence through the symmetric square
root, in closed form: a 2x2 PSD matrix Y with eigenvalues lo <= hi has

    sqrt(Y) = (Y + sqrt(lo hi) I) / (sqrt(lo) + sqrt(hi)),

the polynomial in Y that takes lo and hi to their roots. It is computed on
Python floats from the two eigenvalues alone, with no BLAS call, so its
bits do not depend on the BLAS kernel, and it is symmetric by construction.
is_psd, sym_sqrt, realizing_frame and rank1_decompose take one point and
all read one eigen split, _split; rank1_decompose's projectors come from
its unit vector, so no eigenvector is formed.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import CONE_TOL, cone_form, require_finite

# eigenvalues within PSD_TOL * max(largest eigenvalue, 1) below zero count as zero
PSD_TOL = 1e-10
# smallest coordinate, relative to the sum, of a sample_cone point
CONE_FLOOR = 1e-3
# _split quarters a matrix with an entry at or above this
_BIG = 2.0**1021

SIMPLEX_CENTROID = np.array([1.0, 1.0, 1.0]) / 3.0

# orthonormal basis of the plane {sum x = 0}
_E1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
_E2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
_DISK_RADIUS = 1.0 / math.sqrt(6.0)


def _sum_of_products(p, q) -> np.ndarray:
    """Sum over the last axis of p * q, broadcast, added left to right.

    Each term is one elementwise product and each addition one elementwise
    add onto a running total that starts at 0.0, so every entry of the
    result is the same sum in the same order, whatever the leading axes:
    no BLAS call and no pairwise reduction.
    """
    total = np.zeros(np.broadcast_shapes(p.shape, q.shape)[:-1])
    for c in range(p.shape[-1]):
        total += p[..., c] * q[..., c]
    return total


def gram(frame) -> np.ndarray:
    """Gram matrix frame @ frame.T; invariant under right-orthogonal moves.

    A stack of frames (..., r, k) gives the stack (..., r, r) of their
    Gram matrices.
    """
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    return _sum_of_products(frame[..., :, None, :], frame[..., None, :, :])


def frame_metric(frame) -> np.ndarray:
    """Metric coefficients (x1, x2, x3) induced by a 2 x k frame.

    A stack of frames (..., 2, k) gives the stack (..., 3) of their
    coefficients.
    """
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    if frame.shape[-2] != 2:
        raise ValueError("frame must have two rows, got shape %r" % (frame.shape,))
    l1, l2 = frame[..., 0, :], frame[..., 1, :]
    rows = np.stack([l1, l2, l1 + l2], axis=-2)
    return _sum_of_products(rows, rows)


def psd_to_coeffs(y) -> np.ndarray:
    """Linear map from a symmetric 2x2 matrix to metric coefficients.

    A stack (..., 2, 2) gives the stack (..., 3).
    """
    y = np.asarray(y, dtype=float)
    y00, y11 = y[..., 0, 0], y[..., 1, 1]
    return np.stack([y00, y11, y00 + y11 + 2.0 * y[..., 0, 1]], axis=-1)


def coeffs_to_psd(x) -> np.ndarray:
    """Inverse of psd_to_coeffs: [[x1, s], [s, x2]] with s = (x3-x1-x2)/2.

    The result is positive semidefinite exactly when x lies in the first
    orthant with cone_form(x) <= 0 (its determinant is -F(x)/4). A stack
    (..., 3) gives the stack (..., 2, 2).
    """
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    s = (x[..., 2] - x1 - x2) / 2.0
    return np.stack([np.stack([x1, s], axis=-1), np.stack([s, x2], axis=-1)], axis=-2)


def _split(a, b, c0, c1):
    """Eigen split of Y, the symmetric part of [[a, c0], [c1, b]], on floats.

    Returns (k, a, b, c, lo, hi, d, s) with Y = k^2 [[a, c], [c, b]],
    c = (c0 + c1) / 2 and k = 2 where an entry is at or above _BIG, so that
    no sum here or in _sqrt2 overflows, else 1. [[a, c], [c, b]] is
    half_tr I + r [[d, s], [s, -d]] for half_tr = (a + b) / 2, delta =
    (a - b) / 2, r = hypot(delta, c) and the unit vector (d, s) =
    (delta, c) / r, or (-1, 0) where r = 0. Its eigenvalues lo <= hi are a
    diagonal's own entries, sorted, else half_tr -/+ r: hypot avoids
    cancellation near equal eigenvalues. Floats, not numpy scalars, as each
    numpy scalar operation costs a call; IEEE doubles round alike in both.
    """
    k = 1.0
    if abs(a) >= _BIG or abs(b) >= _BIG or abs(c0) >= _BIG or abs(c1) >= _BIG:
        # the root of Y / 4 is exactly half the root of Y
        k, a, b, c0, c1 = 2.0, a / 4, b / 4, c0 / 4, c1 / 4
    c = 0.5 * (c0 + c1)
    half_tr, delta = 0.5 * (a + b), 0.5 * (a - b)
    r = math.hypot(delta, c)
    if c == 0.0:
        lo, hi = (a, b) if a <= b else (b, a)
    else:
        lo, hi = half_tr - r, half_tr + r
    d, s = (delta / r, c / r) if r else (-1.0, 0.0)
    return k, a, b, c, lo, hi, d, s


def _matrix_split(y):
    """_split of the 2x2 matrix y; other shapes and non-finite entries raise."""
    y = require_finite(y, "y")
    if y.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (y.shape,))
    (a, c0), (c1, b) = y.tolist()
    return _split(a, b, c0, c1)


def _psd_band(k, lo, hi, tol):
    """tol * max(hi, 1) of Y at the split's scale: eigenvalues that near zero
    count as zero, and an lo further below raises."""
    band = tol * max(hi, 1.0 / (k * k))
    if lo < -band:
        lo *= k * k
        raise ValueError("matrix is not positive semidefinite (min eigenvalue %.3e)" % lo)
    return band


def is_psd(y, tol: float = PSD_TOL) -> bool:
    """PSD test: smallest eigenvalue >= -tol * max(largest eigenvalue, 1).

    Non-finite input raises ValueError.
    """
    k, _, _, _, lo, hi, _, _ = _matrix_split(y)
    return lo >= -tol * max(hi, 1.0 / (k * k))


def _sqrt2(split, tol):
    """Square root of the PSD matrix Y = k^2 [[a, c], [c, b]] from its split.

    With lo, hi >= 0 it is k ([[a, c], [c, b]] + sqrt(lo hi) I) / (sqrt(lo)
    + sqrt(hi)): the polynomial in Y that takes each eigenvalue to its root.
    An lo within _psd_band below zero counts as zero, and the root is that
    of Y's PSD part, k sqrt(hi) ([[a, c], [c, b]] - lo I) / (hi - lo); below
    that it raises. A diagonal Y gives the roots of its entries, correctly
    rounded.
    """
    k, a, b, c, lo, hi, _, _ = split
    _psd_band(k, lo, hi, tol)
    if c == 0.0:
        p, q, off = math.sqrt(max(0.0, a)), math.sqrt(max(0.0, b)), 0.0
    elif hi <= 0.0:  # Y's PSD part is zero
        return np.zeros((2, 2))
    else:
        if lo < 0.0:
            shift, denom = -lo, (hi - lo) / math.sqrt(hi)
        else:
            r_lo, r_hi = math.sqrt(lo), math.sqrt(hi)
            shift, denom = r_lo * r_hi, r_lo + r_hi
        p, q, off = (a + shift) / denom, (b + shift) / denom, c / denom
    return np.array([[k * p, k * off], [k * off, k * q]])


def sym_sqrt(y) -> np.ndarray:
    """Symmetric PSD square root in closed form from the two eigenvalues.

    The root of the symmetric part of y, symmetric by construction.
    Eigenvalues in [-PSD_TOL * scale, 0) count as zero; anything below that
    raises. scale = max(largest eigenvalue, 1). Non-finite input raises too;
    the root of finite input is always finite.
    """
    return _sqrt2(_matrix_split(y), PSD_TOL)


def realized_coeffs(x, tol: float = PSD_TOL) -> tuple[float, float, float]:
    """The coefficients that realizing_frame(x, tol) realizes, as floats.

    x with a coordinate in [-tol, 0), or -0.0, taken as 0.0. A coordinate
    below -tol, a non-finite one and any shape but (3,) raise ValueError.
    """
    return _nonnegative_coeffs(require_finite(x), tol)


def _nonnegative_coeffs(x, tol):
    # realized_coeffs of a float array x already checked finite
    if x.shape != (3,):
        raise ValueError("coefficients must be a 3-vector, got shape %r" % (x.shape,))
    x1, x2, x3 = x.tolist()
    if min(x1, x2, x3) < -tol:
        raise ValueError("coefficients must be nonnegative, got %r" % (x,))
    # max(0.0, v) gives 0.0, not -0.0, for v = -0.0
    return max(0.0, x1), max(0.0, x2), max(0.0, x3)


def realizing_frame(x, tol: float = PSD_TOL) -> np.ndarray:
    """Canonical symmetric 2x2 frame realizing coefficients x.

    Defined on the first-orthant part of {F <= 0}; raises ValueError outside
    and on non-finite input. A coordinate below -tol is rejected; one in
    [-tol, 0) is taken as zero (realized_coeffs). Satisfies
    frame_metric(realizing_frame(x)) = x and is the unique PSD square root
    of coeffs_to_psd(x), taken from x1, x2 and (x3 - x1 - x2) / 2 with no
    matrix built.
    """
    return _realizing_frame(require_finite(x), tol)


def _realizing_frame(x, tol):
    """realizing_frame of a float array x that its caller has checked finite."""
    x1, x2, x3 = _nonnegative_coeffs(x, tol)
    try:
        # (x3 - x1 - x2) / 2 is the symmetric part of [[., x3 - x1], [-x2, .]],
        # whose entries are finite: x1 and x3 are nonnegative
        return _sqrt2(_split(x1, x2, x3 - x1, -x2), tol)
    except ValueError:
        x = np.array([x1, x2, x3])
        raise ValueError(
            "coefficients %r lie outside the realizable cone (F = %.3e > 0)"
            % (x, _cone_value(x))
        ) from None


def _cone_value(x) -> float:
    """cone_form(x) as a float; ValueError, not a warning, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = float(cone_form(x))
    if not math.isfinite(f):
        raise ValueError("F at %r overflows the float range" % (np.asarray(x).tolist(),))
    return f


def disk_membership(x):
    """Classify x against the realizability disk: interior, boundary, outside.

    Points with |F| <= fields.CONE_TOL are on the boundary. Non-finite input,
    and input whose F overflows the float range, is rejected.
    """
    f = _cone_value(require_finite(x))
    if f < -CONE_TOL:
        return "interior"
    if f <= CONE_TOL:
        return "boundary"
    return "outside"


def rank1_decompose(y):
    """Spectral split of a PSD 2x2 matrix into [(weight, unit rank-1 term)].

    Weights are the positive eigenvalues; terms are the eigenprojectors
    (I -/+ [[d, s], [s, -d]]) / 2 of the split. Eigenvalues within
    PSD_TOL * max(largest eigenvalue, 1) of zero are dropped; one further
    below zero, non-finite input and a weight beyond the float range raise.
    """
    k, _, _, _, lo, hi, d, s = _matrix_split(y)
    band = _psd_band(k, lo, hi, PSD_TOL)
    if not math.isfinite(k * k * hi):
        msg = "an eigenvalue of %r overflows the float range"
        raise ValueError(msg % (np.asarray(y).tolist(),))
    r = np.array([[d, s], [s, -d]])
    terms = ((lo, np.eye(2) - r), (hi, np.eye(2) + r))
    return [(k * k * w, p / 2) for w, p in terms if w > band]


# --- samplers over the realizable region -----------------------------------


def circle_point(theta: float) -> np.ndarray:
    """Point on the boundary circle {F = 0} of the simplex disk."""
    w = _DISK_RADIUS * (math.cos(theta) * _E1 + math.sin(theta) * _E2)
    return SIMPLEX_CENTROID + w


def sample_disk(rng, count: int, radius_cap: float = 1.0) -> np.ndarray:
    """Area-uniform samples of the simplex disk, radius scaled by radius_cap."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rho = _DISK_RADIUS * radius_cap * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    w = rho[:, None] * (np.cos(theta)[:, None] * _E1 + np.sin(theta)[:, None] * _E2)
    return SIMPLEX_CENTROID + w


def sample_cone(rng, count: int) -> np.ndarray:
    """Random points on the cone {F = 0} in the first orthant.

    Points are boundary-circle samples rescaled by a random factor in
    [0.25, 2]. Samples with min coordinate below CONE_FLOOR (relative to the
    coordinate sum) are rejected: near the three tangency points all terms of
    the flux identities vanish quadratically and a relative comparison would
    only measure rounding noise.
    """
    out = np.empty((count, 3))
    have = 0
    while have < count:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=2 * (count - have) + 8).tolist()
        # circle_point of every angle in one broadcast, with its operations
        # and its math.cos and math.sin, so each point has circle_point's bits
        cos = np.array([math.cos(t) for t in theta])[:, None]
        sin = np.array([math.sin(t) for t in theta])[:, None]
        pts = SIMPLEX_CENTROID + _DISK_RADIUS * (cos * _E1 + sin * _E2)
        keep = pts.min(axis=1) >= CONE_FLOOR
        pts = pts[keep]
        take = min(len(pts), count - have)
        out[have : have + take] = pts[:take]
        have += take
    return out * rng.uniform(0.25, 2.0, size=count)[:, None]
