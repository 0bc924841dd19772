"""Collapse verification: kernel summands, subalgebra tests, orbit distances.

A degenerate coefficient vector on the simplex kills one or two summands.
The killed directions assemble to a genuine homogeneous limit exactly when
k + (killed summands) closes under the bracket; otherwise the limit is not a
homogeneous space for the same group and the verdict is non_realizable, with
a concrete bracket witness. collapse_run follows a flow trajectory into such
a limit and measures the exact distance from the adjoint orbit at each
sample time to the limit orbit. hausdorff, the distance between sampled
clouds, is the reference that verify and the tests hold it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .fields import cone_form, require_finite
from .flags import FlagSpec
from .flow import Trajectory, integrate
from .orbits import LieModel, OrbitCloud, TorusElement, sample_orbit
from .realize import realizing_frame

Frame = tuple[TorusElement, TorusElement]

# rows of the distance matrix that sampling_resolution holds at once: 1 MiB
# for a 2000-point cloud
_ROWS = 64


def hausdorff(a: OrbitCloud, b: OrbitCloud) -> float:
    """Hausdorff distance between two clouds in the same ambient algebra.

    Exact max-min over both directions, in the metric induced by the
    negative Killing form.
    """
    if a.n_ambient != b.n_ambient or a.points.shape[1:] != b.points.shape[1:]:
        raise ValueError("clouds live in different ambient spaces")
    d = cdist(a.flat_points, b.flat_points)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def orbit_distance(a: Frame, b: Frame) -> float:
    """Exact distance between the adjoint orbits of two frames (h1, h2).

    With h = i diag(phases), the orbit of a frame is the unitary orbit of
    the normal matrix Z = diag(z), z = phases(h1) + i phases(h2). By
    Hoffman-Wielandt the nearest pair of points of two such orbits is a best
    matching of the diagonals. SU(N) acts by isometries, so this is also the
    Hausdorff distance of the orbits, in the metric of the negative Killing
    form (sqrt(2N) times Frobenius). Any two sampled clouds of the frames lie
    at least this far apart.
    """
    # imported here: scipy.optimize adds ~11 MiB to every process that
    # imports flagricci, and most never measure an orbit distance
    from scipy.optimize import linear_sum_assignment

    z = a[0].phases + 1j * a[1].phases
    w = b[0].phases + 1j * b[1].phases
    if z.shape != w.shape:
        raise ValueError("frames live in different ambient spaces")
    cost = np.abs(z[:, None] - w[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(2 * len(z) * cost[rows, cols].sum()))


def sampling_resolution(cloud: OrbitCloud) -> float:
    """Median nearest-neighbor distance within a cloud.

    Distances are taken _ROWS rows at a time, never as a count x count
    matrix. A point is at distance exactly 0 from itself, so the second
    smallest entry of its row is its nearest other point.
    """
    pts = cloud.flat_points
    if len(pts) < 2:
        return np.inf
    nearest = np.empty(len(pts))
    for s in range(0, len(pts), _ROWS):
        d = cdist(pts[s : s + _ROWS], pts)
        nearest[s : s + _ROWS] = np.partition(d, 1, axis=1)[:, 1]
    return float(np.median(nearest))


def kernel_summands(x, tol: float = 1e-8) -> tuple[int, ...]:
    """1-based indices of coefficients at or below tol; non-finite x is rejected."""
    x = require_finite(x)
    return tuple(int(i) + 1 for i in range(3) if x[i] <= tol)


def is_subalgebra(model: LieModel, summand_indices):
    """Whether k plus the selected summands closes under the bracket.

    Returns (True, None) or (False, witness). In the block model
    [m_rs, m_st] lies in m_rt, [k, m_i] in m_i and [m_i, m_i] in k, so
    k + m_S closes exactly when S does not hold two summands: two summands
    bracket into the third. The witness for S = {i, j} is the bracket of
    m_i[0] and m_j[0], the first pair to leak when the basis is walked in
    the order k, m_i, m_j: it records the pair, the summand m_k it leaks
    into and the norm of its component there.
    """
    selected = sorted(set(int(i) for i in summand_indices))
    if any(i not in (1, 2, 3) for i in selected):
        raise ValueError("summand indices must be among 1, 2, 3")
    if len(selected) != 2:
        return True, None
    i, j = selected
    (k,) = {1, 2, 3} - {i, j}
    xa, xb = model.summand_bases[i - 1][0], model.summand_bases[j - 1][0]
    br = xa @ xb - xb @ xa
    # basis elements all have <X, X> = 4N and are mutually orthogonal
    norm2 = 4.0 * model.n_ambient
    res2 = 0.0
    for e in model.summand_bases[k - 1]:
        res2 += model.inner(br, e) ** 2 / norm2
    witness = {
        "first": "m%d[0]" % i,
        "second": "m%d[0]" % j,
        "leaks_into": k,
        "residual": float(np.sqrt(res2)),
    }
    return False, witness


@dataclass
class CollapseVerdict:
    """Realizability verdict for a degenerate limit coefficient vector."""

    point: np.ndarray
    kernel: tuple[int, ...]
    verdict: str  # realizable | non_realizable | no_collapse
    witness: dict | None

    def as_dict(self) -> dict:
        witness = self.witness
        if witness is not None:
            witness = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in witness.items()
            }
        return {
            "point": [float(v) for v in self.point],
            "kernel": list(self.kernel),
            "verdict": self.verdict,
            "witness": witness,
        }


def collapse_verdict(model: LieModel, x_limit, tol: float = 1e-8) -> CollapseVerdict:
    """Classify a limit point: no_collapse, realizable, or non_realizable.

    Realizable verdicts attach the realizing frame at the limit when the
    point lies on the realizable disk; non_realizable ones attach the
    bracket witness. Non-finite points are rejected.
    """
    x_limit = require_finite(x_limit, "x_limit")
    kernel = kernel_summands(x_limit, tol)
    if not kernel:
        return CollapseVerdict(x_limit, kernel, "no_collapse", None)
    ok, witness = is_subalgebra(model, kernel)
    if not ok:
        return CollapseVerdict(x_limit, kernel, "non_realizable", witness)
    data = None
    if float(cone_form(x_limit)) <= tol:
        frame = realizing_frame(np.clip(x_limit, 0.0, None), tol=1e-8)
        data = {
            "tau": frame,
            "h1_omega_coords": frame[:, 0].copy(),
            "h2_omega_coords": frame[:, 1].copy(),
        }
    return CollapseVerdict(x_limit, kernel, "realizable", data)


class NonRealizableError(RuntimeError):
    """Raised when a flow limit cannot be realized as a homogeneous collapse."""

    def __init__(self, message, verdict: CollapseVerdict):
        super().__init__(message)
        self.verdict = verdict


@dataclass
class CollapseRun:
    """Orbit-cloud convergence data along one collapsing trajectory."""

    times: np.ndarray
    states: np.ndarray
    distances: np.ndarray
    resolution: float
    x_limit: np.ndarray
    verdict: CollapseVerdict
    trajectory: Trajectory

    def profile_ok(self, allowance: float = 0.1) -> bool:
        """Distances non-increasing within allowance * initial, tail below 2x resolution."""
        d = self.distances
        slack = allowance * d[0]
        monotone = bool(np.all(d[1:] <= d[:-1] + slack))
        return monotone and d[-1] <= 2.0 * self.resolution


def collapse_run(
    spec: FlagSpec,
    model: LieModel,
    x0,
    times,
    count: int = 2000,
    seed: int = 0,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    settle_time: float = 400.0,
    kernel_tol: float = 1e-8,
) -> CollapseRun:
    """Integrate from x0, realize the states at the given times, and measure
    the exact distance from each state's orbit to the limit orbit.

    x0 must lie on the realizable disk. The trajectory's limit must collapse
    to a realizable degenerate point (an edge-midpoint type limit); vertices
    and interior limits raise NonRealizableError carrying the verdict. The
    distances are orbit_distance, exact, and take no samples. Only the limit
    orbit is sampled, with count Haar points drawn from seed; resolution is
    the median nearest-neighbour distance of that cloud, the scale below
    which a sampled cloud could not resolve the profile.
    """
    times = np.unique(np.array([float(t) for t in times]))
    if len(times) == 0:
        raise ValueError("need at least one sample time")
    if times[0] < 0:
        raise ValueError("sample times must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if float(cone_form(x0)) > 1e-9:
        raise ValueError("x0 is outside the realizable disk (F > 0)")

    t_end = max(float(times[-1]), settle_time)
    traj = integrate(spec, x0, t_max=t_end, rtol=rtol, atol=atol, t_eval=times)
    # snap integration fuzz in the dead coordinates to exact zero, so the
    # limit orbit is the genuinely degenerate one
    x_limit = traj.final_state.copy()
    x_limit[x_limit <= kernel_tol] = 0.0
    x_limit /= x_limit.sum()
    verdict = collapse_verdict(model, x_limit, tol=kernel_tol)
    if verdict.verdict != "realizable":
        if verdict.verdict == "no_collapse":
            msg = (
                "trajectory limit %r keeps all summands positive; nothing collapses"
                % (np.round(x_limit, 6).tolist(),)
            )
        else:
            w = verdict.witness
            msg = (
                "trajectory limit %r is not realizable: [%s, %s] leaks into m%d "
                "(residual %.3e)"
                % (
                    np.round(x_limit, 6).tolist(),
                    w["first"],
                    w["second"],
                    w["leaks_into"],
                    w["residual"],
                )
            )
        raise NonRealizableError(msg, verdict)

    def frame_at(x) -> Frame:
        frame = realizing_frame(np.clip(x, 0.0, None), tol=1e-8)
        return model.torus_element(frame[:, 0]), model.torus_element(frame[:, 1])

    limit_frame = frame_at(x_limit)
    resolution = sampling_resolution(sample_orbit(model, *limit_frame, count, seed))
    times = traj.eval_times
    states = traj.eval_states
    distances = np.array([orbit_distance(frame_at(x), limit_frame) for x in states])
    return CollapseRun(times, states, distances, resolution, x_limit, verdict, traj)
