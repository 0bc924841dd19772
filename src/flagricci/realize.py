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
realizing_frame inverts the correspondence through the symmetric square
root, in closed form: a 2x2 PSD matrix Y with eigenvalues lo <= hi has

    sqrt(Y) = (Y + sqrt(lo hi) I) / (sqrt(lo) + sqrt(hi)),

the polynomial in Y that takes lo and hi to their roots. It is computed on
Python floats from the two eigenvalues alone, with no eigenvectors and no
BLAS call, so its bits do not depend on the BLAS kernel, and it is
symmetric by construction. Eigenvectors are used only by rank1_decompose.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import CONE_TOL, cone_form, require_finite

# eigenvalues within PSD_TOL * max(largest eigenvalue, 1) below zero count as zero
PSD_TOL = 1e-10
# smallest coordinate, relative to the sum, of a sample_cone point
CONE_FLOOR = 1e-3

SIMPLEX_CENTROID = np.array([1.0, 1.0, 1.0]) / 3.0

# orthonormal basis of the plane {sum x = 0}
_E1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
_E2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
_DISK_RADIUS = 1.0 / math.sqrt(6.0)


def gram(frame) -> np.ndarray:
    """Gram matrix frame @ frame.T; invariant under right-orthogonal moves."""
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    return frame @ frame.T


def frame_metric(frame) -> np.ndarray:
    """Metric coefficients (x1, x2, x3) induced by a 2 x k frame."""
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    if frame.shape[0] != 2:
        raise ValueError("frame must have two rows, got shape %r" % (frame.shape,))
    l1, l2 = frame[0], frame[1]
    l3 = l1 + l2
    return np.array([l1 @ l1, l2 @ l2, l3 @ l3])


def psd_to_coeffs(y) -> np.ndarray:
    """Linear map from a symmetric 2x2 matrix to metric coefficients."""
    y = np.asarray(y, dtype=float)
    return np.array([y[0, 0], y[1, 1], y[0, 0] + y[1, 1] + 2.0 * y[0, 1]])


def coeffs_to_psd(x) -> np.ndarray:
    """Inverse of psd_to_coeffs: [[x1, s], [s, x2]] with s = (x3-x1-x2)/2.

    The result is positive semidefinite exactly when x lies in the first
    orthant with cone_form(x) <= 0 (its determinant is -F(x)/4).
    """
    x = np.asarray(x, dtype=float)
    s = (x[2] - x[0] - x[1]) / 2.0
    return np.array([[x[0], s], [s, x[1]]])


def _eig2_vals(a, b, c):
    """Ascending eigenvalues of the symmetric 2x2 matrix [[a, c], [c, b]].

    Takes Python floats and returns (lo, hi, diagonal). A diagonal matrix
    gives its own entries, sorted; any other gives half_tr -/+ hypot(delta,
    c), where hypot avoids cancellation near equal eigenvalues. The
    arithmetic is on floats, not numpy scalars, because each numpy scalar
    operation costs a call; IEEE doubles round alike in both, so the bits
    are those of the numpy form the tests keep as its oracle.
    """
    half_tr = 0.5 * (a + b)
    delta = 0.5 * (a - b)
    disc = math.hypot(delta, c)
    if disc == 0.0 or (c == 0.0 and abs(delta) == disc):
        return (a, b, True) if a <= b else (b, a, True)
    return half_tr - disc, half_tr + disc, False


def _eig2_sym(a, b, c):
    """Eigen-decomposition of the symmetric 2x2 matrix [[a, c], [c, b]].

    Returns (w, v) with the eigenvalues of _eig2_vals in w and v's columns
    the matching unit eigenvectors. The eigenvector branch never divides by
    a small pivot.
    """
    lo, hi, diagonal = _eig2_vals(a, b, c)
    if diagonal:
        if a <= b:
            return np.array([lo, hi]), np.eye(2)
        return np.array([lo, hi]), np.array([[0.0, 1.0], [1.0, 0.0]])
    # eigenvector for hi: (c, hi - a), better conditioned when delta <= 0
    if 0.5 * (a - b) <= 0:
        p, q = c, hi - a
    else:
        p, q = hi - b, c
    norm = math.hypot(p, q)
    p, q = p / norm, q / norm
    # columns (-q, p) for lo and (p, q) for hi
    return np.array([lo, hi]), np.array([[-q, p], [p, q]])


def _sym_entries(y):
    """(a, b, c) of the symmetric part [[a, c], [c, b]] of the 2x2 matrix y.

    Python floats, symmetrized entrywise as 0.5 * (y + y.T) does; other
    shapes raise.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (y.shape,))
    (a, c0), (c1, b) = y.tolist()
    return 0.5 * (a + a), 0.5 * (b + b), 0.5 * (c0 + c1)


def _eigh_sym(y):
    """_eig2_sym of the symmetric part of the 2x2 matrix y; other shapes raise."""
    return _eig2_sym(*_sym_entries(y))


def is_psd(y, tol: float = PSD_TOL) -> bool:
    """PSD test: smallest eigenvalue >= -tol * max(largest eigenvalue, 1)."""
    lo, hi, _ = _eig2_vals(*_sym_entries(y))
    return lo >= -tol * max(hi, 1.0)


def _sqrt2(a, b, c, tol):
    """Square root of the PSD matrix [[a, c], [c, b]] from its two eigenvalues.

    With lo, hi >= 0 it is (Y + sqrt(lo hi) I) / (sqrt(lo) + sqrt(hi)): the
    polynomial in Y that takes each eigenvalue to its root. An lo in
    [-tol * scale, 0) counts as zero, and the root is that of Y's PSD part,
    sqrt(hi) (Y - lo I) / (hi - lo); below that it raises. scale =
    max(hi, 1). A diagonal Y gives the roots of its entries, correctly
    rounded.
    """
    lo, hi, diagonal = _eig2_vals(a, b, c)
    if lo < -tol * max(hi, 1.0):
        raise ValueError("matrix is not positive semidefinite (min eigenvalue %.3e)" % lo)
    if diagonal:
        return np.array([[math.sqrt(max(0.0, a)), 0.0], [0.0, math.sqrt(max(0.0, b))]])
    if hi <= 0.0:  # Y's PSD part is zero
        return np.zeros((2, 2))
    if lo < 0.0:
        shift, denom = -lo, (hi - lo) / math.sqrt(hi)
    else:
        r_lo, r_hi = math.sqrt(lo), math.sqrt(hi)
        shift, denom = r_lo * r_hi, r_lo + r_hi
    off = c / denom
    return np.array([[(a + shift) / denom, off], [off, (b + shift) / denom]])


def sym_sqrt(y, tol: float = PSD_TOL) -> np.ndarray:
    """Symmetric PSD square root in closed form from the two eigenvalues.

    The root of the symmetric part of y, symmetric by construction.
    Eigenvalues in [-tol * scale, 0) count as zero; anything below that
    raises. scale = max(largest eigenvalue, 1).
    """
    return _sqrt2(*_sym_entries(y), tol)


def realizing_frame(x, tol: float = PSD_TOL) -> np.ndarray:
    """Canonical symmetric 2x2 frame realizing coefficients x.

    Defined on the first-orthant part of {F <= 0}; raises ValueError outside
    and on non-finite input. A coordinate below -tol is rejected; one in
    [-tol, 0) is taken as zero. Satisfies frame_metric(realizing_frame(x))
    = x and is the unique PSD square root of coeffs_to_psd(x), taken from
    x1, x2 and (x3 - x1 - x2) / 2 with no matrix built.
    """
    x = require_finite(x)
    if x.shape != (3,):
        raise ValueError("coefficients must be a 3-vector, got shape %r" % (x.shape,))
    x1, x2, x3 = x.tolist()
    if min(x1, x2, x3) < -tol:
        raise ValueError("coefficients must be nonnegative, got %r" % (x,))
    # max(0.0, v) gives 0.0, not -0.0, for v = -0.0
    x1, x2, x3 = max(0.0, x1), max(0.0, x2), max(0.0, x3)
    try:
        return _sqrt2(x1, x2, (x3 - x1 - x2) / 2.0, tol)
    except ValueError:
        x = np.array([x1, x2, x3])
        raise ValueError(
            "coefficients %r lie outside the realizable cone (F = %.3e > 0)"
            % (x, float(cone_form(x)))
        ) from None


def disk_membership(x):
    """Classify x against the realizability disk: interior, boundary, outside.

    Points with |F| <= fields.CONE_TOL are on the boundary. Non-finite input
    is rejected.
    """
    f = float(cone_form(require_finite(x)))
    if f < -CONE_TOL:
        return "interior"
    if f <= CONE_TOL:
        return "boundary"
    return "outside"


def rank1_decompose(y):
    """Spectral split of a PSD 2x2 matrix into [(weight, unit rank-1 term)].

    Weights are the positive eigenvalues; terms are v v^T for unit
    eigenvectors. Eigenvalues within PSD_TOL * scale of zero are dropped,
    below -PSD_TOL * scale the input is rejected.
    """
    w, v = _eigh_sym(y)
    scale = max(w[-1], 1.0)
    if w[0] < -PSD_TOL * scale:
        raise ValueError("matrix is not positive semidefinite")
    terms = []
    for i in range(len(w)):
        if w[i] > PSD_TOL * scale:
            vi = v[:, i]
            terms.append((float(w[i]), np.outer(vi, vi)))
    return terms


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
        theta = rng.uniform(0.0, 2.0 * math.pi, size=2 * (count - have) + 8)
        pts = np.array([circle_point(t) for t in theta])
        keep = pts.min(axis=1) >= CONE_FLOOR
        pts = pts[keep]
        take = min(len(pts), count - have)
        out[have : have + take] = pts[:take]
        have += take
    return out * rng.uniform(0.25, 2.0, size=count)[:, None]
