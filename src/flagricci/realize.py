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
root.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import cone_form, require_finite

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


def _eig2_sym(y):
    """Eigen-decomposition of a symmetric 2x2 matrix, closed form.

    Returns (w, v) with eigenvalues ascending and v's columns the matching
    unit eigenvectors. Stable near equal eigenvalues: hypot avoids
    cancellation and the eigenvector branch never divides by a small pivot.
    """
    a, b, c = y[0, 0], y[1, 1], y[0, 1]
    half_tr = 0.5 * (a + b)
    delta = 0.5 * (a - b)
    disc = math.hypot(delta, c)
    lo, hi = half_tr - disc, half_tr + disc
    if disc == 0.0 or (c == 0.0 and abs(delta) == disc):
        if a <= b:
            return np.array([a, b]), np.eye(2)
        return np.array([b, a]), np.array([[0.0, 1.0], [1.0, 0.0]])
    # eigenvector for hi: (c, hi - a), better conditioned when delta <= 0
    if delta <= 0:
        v_hi = np.array([c, hi - a])
    else:
        v_hi = np.array([hi - b, c])
    v_hi /= math.hypot(v_hi[0], v_hi[1])
    v_lo = np.array([-v_hi[1], v_hi[0]])
    return np.array([lo, hi]), np.column_stack([v_lo, v_hi])


def _eigh_sym(y):
    y = np.asarray(y, dtype=float)
    y = 0.5 * (y + y.T)
    if y.shape == (2, 2):
        return _eig2_sym(y)
    return np.linalg.eigh(y)


def is_psd(y, tol: float = 1e-10) -> bool:
    """PSD test: smallest eigenvalue >= -tol * max(largest eigenvalue, 1)."""
    w, _ = _eigh_sym(y)
    return w[0] >= -tol * max(w[-1], 1.0)


def sym_sqrt(y, tol: float = 1e-10) -> np.ndarray:
    """Symmetric PSD square root via eigen-decomposition.

    Eigenvalues in [-tol * scale, 0] are clipped to zero; anything below that
    raises. scale = max(largest eigenvalue, 1).
    """
    w, v = _eigh_sym(y)
    scale = max(w[-1], 1.0)
    if w[0] < -tol * scale:
        raise ValueError(
            "matrix is not positive semidefinite (min eigenvalue %.3e)" % w[0]
        )
    w = np.sqrt(np.clip(w, 0.0, None))
    s = (v * w) @ v.T
    # the matmul can break symmetry in the last ulp; restore it exactly
    return 0.5 * (s + s.T)


def realizing_frame(x, tol: float = 1e-10) -> np.ndarray:
    """Canonical symmetric 2x2 frame realizing coefficients x.

    Defined on the first-orthant part of {F <= 0}; raises ValueError outside
    and on non-finite input. Satisfies frame_metric(realizing_frame(x))
    = x and is the unique PSD square root of coeffs_to_psd(x).
    """
    x = require_finite(x)
    if np.min(x) < -tol:
        raise ValueError("coefficients must be nonnegative, got %r" % (x,))
    try:
        return sym_sqrt(coeffs_to_psd(x), tol=tol)
    except ValueError:
        raise ValueError(
            "coefficients %r lie outside the realizable cone (F = %.3e > 0)"
            % (x, float(cone_form(x)))
        ) from None


def disk_membership(x, tol: float = 1e-9):
    """Classify x against the realizability disk: interior, boundary, outside.

    Non-finite input is rejected.
    """
    f = float(cone_form(require_finite(x)))
    if f < -tol:
        return "interior"
    if f <= tol:
        return "boundary"
    return "outside"


def rank1_decompose(y, tol: float = 1e-10):
    """Spectral split of a PSD 2x2 matrix into [(weight, unit rank-1 term)].

    Weights are the positive eigenvalues; terms are v v^T for unit
    eigenvectors. Eigenvalues within tol * scale of zero are dropped, below
    -tol * scale the input is rejected.
    """
    w, v = _eigh_sym(y)
    scale = max(w[-1], 1.0)
    if w[0] < -tol * scale:
        raise ValueError("matrix is not positive semidefinite")
    terms = []
    for i in range(len(w)):
        if w[i] > tol * scale:
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


def sample_cone(rng, count: int, floor: float = 1e-3) -> np.ndarray:
    """Random points on the cone {F = 0} in the first orthant.

    Points are boundary-circle samples rescaled by a random factor in
    [0.25, 2]. Samples with min coordinate below floor (relative to the
    coordinate sum) are rejected: near the three tangency points all terms of
    the flux identities vanish quadratically and a relative comparison would
    only measure rounding noise.
    """
    out = np.empty((count, 3))
    have = 0
    while have < count:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=2 * (count - have) + 8)
        pts = np.array([circle_point(t) for t in theta])
        keep = pts.min(axis=1) >= floor
        pts = pts[keep]
        take = min(len(pts), count - have)
        out[have : have + take] = pts[:take]
        have += take
    return out * rng.uniform(0.25, 2.0, size=count)[:, None]
