"""Reference computations made apart from flagricci.

Nothing here imports the package. The cubic fields are written out again
from their defining formulas, equilibria come from an exact rational solve
in sympy, trajectories from scipy's solve_ivp, frames from numpy's eigh,
orbit distances from the Hoffman-Wielandt matching of diagonal phases, and
subalgebra verdicts from the block rule of the su(N) model.
"""

from __future__ import annotations

import math

import numpy as np

DISK_RADIUS = 1.0 / math.sqrt(6.0)
CENTROID = np.full(3, 1.0 / 3.0)
# orthonormal basis of the plane {sum x = 0}
E1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
E2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)


def _coefficients(family, params):
    """(a, b, c, d, e, f) with R_i = -x_i (a_i (x_i^2 - (x_j - x_k)^2) + b_i x_j x_k)."""
    if family == "D":
        (ell,) = params
        return (ell - 2, ell - 2, 2), (2 * ell, 2 * ell, 4 * (ell - 2))
    m, n, p = params if family == "A" else (1, 1, 1)
    return (p, n, m), (2 * (m + n), 2 * (m + p), 2 * (n + p))


def ricci(family, params, x):
    """Unnormalized cubic field, vectorized over a trailing axis of length 3."""
    x = np.asarray(x, dtype=float)
    (a1, a2, a3), (b1, b2, b3) = _coefficients(family, params)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack(
        [
            -x1 * (a1 * (x1 * x1 - (x2 - x3) ** 2) + b1 * x2 * x3),
            -x2 * (a2 * (x2 * x2 - (x3 - x1) ** 2) + b2 * x1 * x3),
            -x3 * (a3 * (x3 * x3 - (x1 - x2) ** 2) + b3 * x1 * x2),
        ],
        axis=-1,
    )


def projected(family, params, x):
    x = np.asarray(x, dtype=float)
    r = ricci(family, params, x)
    return r - r.sum(axis=-1, keepdims=True) * x


def cone_form(x):
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return x1 * x1 + x2 * x2 + x3 * x3 - 2.0 * (x1 * x2 + x1 * x3 + x2 * x3)


def exact_equilibria(family, params):
    """Zeros of the projected field on the closed simplex, solved exactly.

    Returns a list of (point, location). Interior points solve
    R_1/x_1 = R_2/x_2 = R_3/x_3, face points the same equation between the
    two live coordinates, and the three vertices are zeros outright.
    """
    import sympy as sp

    x1, x2, x3 = sp.symbols("x1 x2 x3")
    xs = (x1, x2, x3)
    (a1, a2, a3), (b1, b2, b3) = _coefficients(family, params)
    q = [
        a1 * (x1**2 - (x2 - x3) ** 2) + b1 * x2 * x3,
        a2 * (x2**2 - (x3 - x1) ** 2) + b2 * x1 * x3,
        a3 * (x3**2 - (x1 - x2) ** 2) + b3 * x1 * x2,
    ]
    out = []
    sub = {x3: 1 - x1 - x2}
    eqs = [sp.expand((q[0] - q[1]).subs(sub)), sp.expand((q[1] - q[2]).subs(sub))]
    for sol in sp.solve(eqs, [x1, x2], dict=True):
        pt = [sol[x1], sol[x2], 1 - sol[x1] - sol[x2]]
        if all(v.is_real and v > 0 for v in pt):
            out.append((np.array([float(v) for v in pt]), "interior"))
    for dead in range(3):
        i, j = [k for k in range(3) if k != dead]
        t = sp.symbols("t")
        on_face = {xs[dead]: 0, xs[i]: t, xs[j]: 1 - t}
        for root in sp.solve(sp.expand((q[i] - q[j]).subs(on_face)), t):
            if root.is_real and 0 < root < 1:
                pt = np.zeros(3)
                pt[i], pt[j] = float(root), float(1 - root)
                out.append((pt, "face"))
    out.extend((np.eye(3)[k], "vertex") for k in range(3))
    return out


def reference_endpoint(family, params, x0, t_end):
    """State at t_end from scipy's DOP853 with tight tolerances."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: projected(family, params, y),
        (0.0, float(t_end)),
        np.asarray(x0, dtype=float),
        method="DOP853",
        rtol=1e-11,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError("solve_ivp failed: %s" % sol.message)
    return sol.y[:, -1]


# --- frames, orbit distances, block rule ------------------------------------


def frame(x):
    """Symmetric PSD square root of [[x1, s], [s, x2]], s = (x3 - x1 - x2)/2, via eigh."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    s = 0.5 * (x[2] - x[0] - x[1])
    w, v = np.linalg.eigh(np.array([[x[0], s], [s, x[1]]]))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def phases(blocks, omega_coords):
    """Diagonal phases of the torus element with alpha1 = c1, alpha2 = c2.

    Block phases (a, b, c) satisfy b - a = c1, a - c = c2 and the trace
    condition m a + n b + p c = 0.
    """
    m, n, p = blocks
    c1, c2 = (float(v) for v in omega_coords)
    a = (p * c2 - n * c1) / (m + n + p)
    return np.concatenate([np.full(m, a), np.full(n, a + c1), np.full(p, a - c2)])


def _diagonal(blocks, x):
    fr = frame(x)
    return phases(blocks, fr[:, 0]) + 1j * phases(blocks, fr[:, 1])


def orbit_distances(blocks, x, y):
    """(exact, matched) distances between the adjoint orbits of the frames of x and y.

    The orbit of the frame is the unitary orbit of the normal matrix
    Z = h1 + i h2. By Hoffman-Wielandt the nearest pair of orbit points is a
    best matching of the diagonal entries; the matched bound pairs the same
    Haar sample in both clouds. The ambient norm is sqrt(2N) times Frobenius.
    Also returns the norm of the orbit of x, the scale for tolerances.
    """
    from scipy.optimize import linear_sum_assignment

    z, w = _diagonal(blocks, x), _diagonal(blocks, y)
    scale = math.sqrt(2.0 * len(z))
    cost = np.abs(z[:, None] - w[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    exact = scale * math.sqrt(float(cost[rows, cols].sum()))
    matched = scale * float(np.linalg.norm(z - w))
    norm = scale * max(float(np.linalg.norm(z)), float(np.linalg.norm(w)))
    return exact, matched, norm


def expected_verdict(x, tol=1e-8):
    """Block rule: k + m_S closes iff |S| <= 1 or S = {1, 2, 3}."""
    kernel = tuple(i + 1 for i in range(3) if x[i] <= tol)
    if not kernel:
        return kernel, "no_collapse"
    if len(kernel) <= 1 or len(kernel) == 3:
        return kernel, "realizable"
    return kernel, "non_realizable"


# --- seeded inputs -----------------------------------------------------------


def disk_points(rng, count, radius_share):
    """Area-uniform points of the realizability disk, radius scaled by radius_share."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rho = DISK_RADIUS * radius_share * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return CENTROID + rho[:, None] * (
        np.cos(theta)[:, None] * E1 + np.sin(theta)[:, None] * E2
    )


def circle_points(rng, count):
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return CENTROID + DISK_RADIUS * (
        np.cos(theta)[:, None] * E1 + np.sin(theta)[:, None] * E2
    )


def simplex_points(rng, count, on_faces):
    """Uniform points of the simplex; the last on_faces of them lie on a face."""
    pts = rng.dirichlet((1.0, 1.0, 1.0), size=count)
    for k in range(count - on_faces, count):
        pts[k, rng.integers(3)] = 0.0
        pts[k] /= pts[k].sum()
    return pts
