"""Collapse verification: kernel summands, subalgebra tests, orbit distances.

A degenerate coefficient vector on the simplex kills one or two summands,
those whose coefficient is at most KERNEL_TOL. The killed directions
assemble to a genuine homogeneous limit exactly when k + (killed summands)
closes under the bracket; otherwise the limit is not a homogeneous space for
the same group and the verdict is non_realizable, with a concrete bracket
witness. collapse_run follows a flow trajectory into such a limit and
measures the exact distance from the adjoint orbit at each sample time to
the limit orbit, the cheapest transport plan between the two frames' block
values. Only the limit orbit is sampled, for the resolution. hausdorff, the
distance between sampled clouds, is the reference that verify and the tests
hold orbit_distance against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .fields import CONE_TOL, cone_form, require_finite
from .flags import FlagSpec
from .flow import ATOL, RTOL, integrate
from .orbits import LieModel, OrbitCloud, sample_orbit
from .realize import _realizing_frame, realizing_frame

# rows that _nearest ranks at once: its float32 block is 1 MiB for a
# 2000-point cloud
_ROWS = 128
# a limit coordinate at or below KERNEL_TOL kills its summand
KERNEL_TOL = 1e-8
# collapse_run integrates at least this long, so its limit is settled
SETTLE_TIME = 400.0
# rise of a profile's distance between samples that profile_ok forgives,
# relative to the first distance
PROFILE_ALLOWANCE = 0.1


def hausdorff(a: OrbitCloud, b: OrbitCloud) -> float:
    """Hausdorff distance between two clouds in the same ambient algebra.

    Exact max-min over both directions of _nearest's distances, in the
    metric induced by the negative Killing form. Clouds with a non-finite
    coordinate are rejected.
    """
    if a.n_ambient != b.n_ambient or a.points.shape[1:] != b.points.shape[1:]:
        raise ValueError("clouds live in different ambient spaces")
    pa = require_finite(a.flat_points, "a.flat_points")
    pb = require_finite(b.flat_points, "b.flat_points")
    # each cloud is ranked, in both directions, from one prepared copy
    e = _scale(pa, pb)
    ca, cb = _prepared(pa, e), _prepared(pb, e)
    return float(max(_ranked_nearest(ca, cb).max(), _ranked_nearest(cb, ca).max()))


def _diagonal(frame, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of z = frame[0] + i frame[1] in order of first
    appearance, and how often each occurs, both padded with zeros to 3."""
    h = require_finite(frame, name)
    counts: dict[complex, int] = {}
    for v in (h[0] + 1j * h[1]).tolist():
        counts[v] = counts.get(v, 0) + 1
    if len(counts) > 3:
        raise ValueError(
            "frame %s takes %d distinct diagonal values; a torus frame is "
            "constant on its 3 blocks" % (name, len(counts))
        )
    pad = 3 - len(counts)
    return np.array(list(counts) + [0j] * pad), np.array(list(counts.values()) + [0] * pad)


@cache
def _basic_plans() -> np.ndarray:
    """(81, 9, 5) integer maps from the sums (r0, r1, r2, c0, c1) to the
    vertices of the polytope of 3 x 3 plans, one per five entries with
    independent sums (a spanning tree of the bipartite graph on 3 + 3
    values). The sums are totally unimodular: every vertex is integral."""
    sums = np.zeros((5, 9))
    for k in range(9):
        i, j = divmod(k, 3)
        sums[i, k] = 1.0
        if j < 2:
            sums[3 + j, k] = 1.0
    supports = np.array(list(combinations(range(9), 5)))
    bases = sums[:, supports].transpose(1, 0, 2)
    trees = np.abs(np.linalg.det(bases)) > 0.5
    plans = np.zeros((int(trees.sum()), 9, 5))
    plans[np.arange(len(plans))[:, None], supports[trees]] = np.linalg.inv(bases[trees])
    plans = np.rint(plans).astype(np.int8)
    plans.flags.writeable = False
    return plans


def orbit_distance(a, b) -> float:
    """Exact distance between the adjoint orbits of two (2, N) frames.

    With h_k = i diag(frame[k]), the orbit of a frame is the unitary orbit
    of the normal matrix Z = diag(z), z = frame[0] + i frame[1]. By
    Hoffman-Wielandt the nearest pair of points of two such orbits is a best
    matching of the diagonals. SU(N) acts by isometries, so this is also the
    Hausdorff distance of the orbits, in the metric of the negative Killing
    form (sqrt(2N) times Frobenius). Any two sampled clouds of the frames lie
    at least this far apart.

    A torus frame is constant on blocks, so z takes at most 3 distinct
    values, with the block sizes as multiplicities. A best matching is then
    the cheapest 3 x 3 transport plan between the values of z and w, with
    those multiplicities as its sums and |z_i - w_j|^2 as unit costs, and
    the cheapest plan is a vertex (_basic_plans). Its cost is summed in the
    order of z's values, so with unit blocks it has the bits of the matched
    costs summed in row order. Non-finite phases, and more than 3 distinct
    values, are rejected.
    """
    n = np.shape(a)[-1]
    if np.shape(b) != np.shape(a):
        raise ValueError("frames live in different ambient spaces")
    z, zn = _diagonal(a, "a")
    w, wn = _diagonal(b, "b")
    cost = (np.abs(z[:, None] - w[None, :]) ** 2).ravel()
    plans = _basic_plans() @ np.concatenate([zn, wn[:2]])
    plans = plans[(plans >= 0).all(axis=1)]
    best = plans[np.argmin(plans @ cost)]
    return float(np.sqrt(2 * n * np.repeat(cost, best).sum()))


@cache
def _skew_half(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_ranking_copy's pairs in a flat (2, 2, n, n) row: the positions of
    each pair's entry and of its partner, the sign the partner is added
    with, and the factor of the sum.

    First come the real parts' entries above the diagonal, each with its
    transpose, added with sign -1, then the imaginary parts' entries above
    and on the diagonal, added with sign +1, for both matrices of a point:
    their 2 n^2 scaled sums are the kept coordinates. The real parts'
    diagonals come last. The scaled differences of all pairs are the
    coordinates left out, those of the imaginary diagonals being 0.
    """
    i, j = np.triu_indices(n, 1)
    upper, lower, diag = i * n + j, j * n + i, np.arange(n) * (n + 1)
    half = math.sqrt(0.5)
    parts = [
        (upper, lower, -1.0, half, 0),
        (upper, lower, 1.0, half, n * n),
        (diag, diag, 1.0, 0.5, n * n),
        (diag, diag, -1.0, 0.5, 0),
    ]
    at, partner, sign, scale = [], [], [], []
    for first, second, sgn, factor, part in parts:
        for matrix in (part, part + 2 * n * n):
            at.append(first + matrix)
            partner.append(second + matrix)
            sign.append(np.full(len(first), sgn))
            scale.append(np.full(len(first), factor))
    out = tuple(np.concatenate(v) for v in (at, partner, sign, scale))
    for v in out:
        v.flags.writeable = False
    return out


def _ranking_copy(pts: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The skew-Hermitian half of pts's rows scaled by 2^-e, rounded to
    float32, with the float64 squared norms of the float32 rows and of the
    Hermitian half that the copy leaves out.

    A row is a flat (2, N, N) complex point as OrbitCloud.flat_points lays
    it out: the real and then the imaginary part of each N x N matrix. Its
    skew-Hermitian half is kept as 2 N^2 orthonormal coordinates: the real
    part's (a_ij - a_ji) / sqrt(2) and the imaginary part's b_ii and
    (b_ij + b_ji) / sqrt(2), for i < j. The Hermitian half left out has
    the coordinates a_ii, (a_ij + a_ji) / sqrt(2) and
    (b_ij - b_ji) / sqrt(2). Rows are scaled and split _ROWS at a time, so
    no float64 temporary is larger than one block of them.
    """
    count, d = pts.shape
    n = math.isqrt(d // 4)
    if 4 * n * n != d:
        raise ValueError("rows of %d coordinates are no flat (2, N, N) points" % d)
    at, partner, sign, scale = _skew_half(n)
    w = np.empty((count, d // 2), dtype=np.float32)
    dropped = np.empty(count)
    for s in range(0, count, _ROWS):
        x = np.ldexp(pts[s : s + _ROWS], -e)
        u, v = x[:, at], x[:, partner]
        v *= sign
        kept = u + v
        kept *= scale
        w[s : s + _ROWS] = kept[:, : d // 2]
        u -= v
        u *= scale
        dropped[s : s + _ROWS] = np.einsum("ij,ij->i", u, u)
    return w, np.einsum("ij,ij->i", w, w, dtype=np.float64), dropped


def _distinct(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """pts with each repeated row kept once, and the index of each row of
    pts among them, or pts itself and None when no row repeats.

    Rows are sorted by an exact key, a wrapping integer projection of their
    bits on odd multipliers, and neighbours with equal keys are compared
    entry by entry, so only rows equal in value share an index. Such rows
    lie at distance 0 from each other, and at the same distance, in every
    bit, from any other row.
    """
    odd = np.arange(pts.shape[1], dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    key = pts.view(np.uint64) @ (odd | np.uint64(1))
    order = np.argsort(key, kind="stable")
    tied = np.flatnonzero(np.diff(key[order]) == 0)
    same = (pts[order[tied]] == pts[order[tied + 1]]).all(axis=1)
    if not same.any():
        return pts, None
    first = np.ones(len(pts), dtype=bool)
    first[tied[same] + 1] = False
    group = np.empty(len(pts), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return pts[order[first]], group


def _scale(*clouds: np.ndarray) -> int:
    """The power of two e with the largest |coordinate| of the clouds in
    [2^(e-1), 2^e): _ranking_copy scales by 2^-e."""
    return math.frexp(max(max(-c.min(), c.max()) for c in clouds))[1]


def _prepared(pts: np.ndarray, e: int) -> tuple:
    """What _ranked_nearest reads of one cloud: its distinct rows, the
    index of each row among them (_distinct), and their ranking copy at
    scale 2^-e with its two squared norms (_ranking_copy)."""
    rows, group = _distinct(pts)
    return (rows, group, *_ranking_copy(rows, e))


def _nearest(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Each row of a's least distance to a row of b, or, with b None, to
    another row of a; a and b are finite (count, 4 N^2) arrays of flat
    (2, N, N) complex points.

    Repeated rows are ranked and measured once (_distinct); within one
    cloud a repeated row is exactly 0 from its copies. Rows are ranked
    _ROWS at a time on float32 copies of the skew-Hermitian half of each
    point (_ranking_copy), which is all of an orbit point but rounding,
    scaled by a power of two so that the largest coordinate lies in
    [0.5, 1). Let x_i be the scaled point, w_i its kept half and h_i the
    Hermitian half left out, so that
    |x_i - x_j|^2 = |w_i - w_j|^2 + |h_i - h_j|^2. What is ranked is
    rho_ij = |w_j|^2 / 2 - <w_i, w_j>, and
    r_ij = rho_ij + |h_j|^2 / 2 - <h_i, h_j> is |x_i - x_j|^2 / 2 less a
    term of the row, so r ranks row i's columns by distance. Column j is a
    candidate for row i when rho_ij lies within the row's slack of its
    least rho. Candidate pairs are measured on the full float64 rows as
    cdist does, in batches no larger than the block: squared differences
    summed left to right, then the root. The nearest column under that sum
    is always a candidate, so every distance has the bits of a full cdist
    scan.

    The slack is an error bound, to first order in u = 2^-24. Let
    e_i = |h_i| and E = max e. The part left out,
    r_ij - rho_ij = (|h_j|^2 - 2 <h_i, h_j>) / 2, lies in
    [-e_i E, E^2 / 2 + e_i E], so it moves from column to column by at most
    E^2 / 2 + 2 e_i E, and the nearest column's exact rho lies at most
    that far above the least exact rho. Let s be the float64 squared norms
    of the float32 rows plus e^2, S = max s, at least 1/4, and K = 2 N^2
    the number of ranked coordinates. Each float32 rho_ij is within
    (K + 7) / 2 * u * (s_i + S) of its exact value: (K + 3) u |w_i| |w_j|
    from the rounding to float32 and the K-term product, 2 u |w_j|^2 from
    the half norm and the subtraction. The float64 split and e add
    second-order terms only, and underflow less than K * 2^-125. Rounding
    the slack and the row's cutoff to float32 moves the cutoff by at most
    u (s_i + S) plus 2 u times the E-term, which is at most 1.5 (s_i + S),
    and cdist's own rounding can put its nearest column up to
    (2 K + 3) * 2^-51 * (s_i + S) above the exact least r. So the slack
    (K + 2) * 2^-21 * (s_i + S) + E^2 / 2 + 2 e_i E, whose first term is
    8 (K + 2) u (s_i + S), covers the E-term, twice the float32 bound and
    the other errors about five times over at su(3)'s K = 18, and more at
    larger K. On an orbit cloud e is about 1e-16 of |x|, so the E-term adds
    no candidates; on any other points it only adds candidates.
    """
    if b is None:
        return _ranked_nearest(_prepared(a, _scale(a)))
    e = _scale(a, b)
    return _ranked_nearest(_prepared(a, e), _prepared(b, e))


def _ranked_nearest(ca: tuple, cb: tuple | None = None) -> np.ndarray:
    """_nearest on clouds _prepared at one scale: from ca to cb, or, with
    cb None, within ca."""
    skip_self = cb is None
    a, group, wa, sa, qa = ca
    b, _, wb, sb, qb = ca if skip_self else cb
    rows, d = a.shape
    half = (0.5 * sb).astype(np.float32)
    na = sa + qa
    nb = na if skip_self else sb + qb
    big = math.sqrt(max(qa.max(), qb.max()))
    slack = (d // 2 + 2) * 2.0**-21 * (na + max(na.max(), nb.max()))
    slack += big * (0.5 * big + 2 * np.sqrt(qa))
    slack = slack.astype(np.float32)
    nearest = np.empty(rows)
    block = np.empty((min(rows, _ROWS), len(b)), dtype=np.float32)
    step = max(1, block.size // (2 * d))
    for i0 in range(0, rows, _ROWS):
        r = block[: rows - i0]
        np.matmul(wa[i0 : i0 + _ROWS], wb.T, out=r)
        np.subtract(half, r, out=r)
        if skip_self:
            own = np.arange(len(r))
            r[own, i0 + own] = np.inf
        keep = r <= (r.min(axis=1) + slack[i0 : i0 + _ROWS])[:, None]
        pairs = np.flatnonzero(keep)
        dist = np.empty(len(pairs))
        # a square beyond the float range is inf, as in cdist
        with np.errstate(over="ignore"):
            for p0 in range(0, len(pairs), step):
                i, j = np.divmod(pairs[p0 : p0 + step], len(b))
                diff = a[i0 + i]
                diff -= b[j]
                np.square(diff, out=diff)
                np.add.accumulate(diff, axis=1, out=diff)
                np.sqrt(diff[:, -1], out=dist[p0 : p0 + step])
        starts = np.searchsorted(pairs, np.arange(len(r)) * len(b))
        nearest[i0 : i0 + len(r)] = np.minimum.reduceat(dist, starts)
    if group is None:
        return nearest
    nearest = nearest[group]
    if skip_self:
        nearest[np.bincount(group)[group] > 1] = 0.0
    return nearest


def sampling_resolution(cloud: OrbitCloud) -> float:
    """Median nearest-neighbor distance within a cloud.

    _nearest's blocks give it the bits of a full cdist scan without a
    count x count matrix. Non-finite clouds are rejected.
    """
    pts = require_finite(cloud.flat_points, "cloud.flat_points")
    if len(pts) < 2:
        return np.inf
    return float(np.median(_nearest(pts)))


def is_subalgebra(model: LieModel, summand_indices):
    """Whether k plus the selected summands closes under the bracket.

    Returns (True, None) or (False, witness). In the block model
    [m_rs, m_st] lies in m_rt, [k, m_i] in m_i and [m_i, m_i] in k, so
    k + m_S closes exactly when S does not hold two summands: two summands
    bracket into the third. The witness for S = {i, j} is the bracket of
    m_i[0] and m_j[0], the first pair to leak when the basis is walked in
    the order k, m_i, m_j: it records the pair, the summand m_k it leaks
    into and the norm of its component there.

    That norm has a closed form. Each summand's first basis element is
    E_ab - E_ba on the first indices a, b of its two blocks, and two of
    them share one index, so their bracket is exactly +-m_k[0], with
    entries +-1. Its inner products with m_k's basis are sums of integers:
    +-4N with m_k[0] and 0 with every other element. The squared
    projection is therefore (4N)^2 / 4N = 4N in floats, without rounding,
    and the residual is sqrt(4N) = 2 sqrt(N), bit for bit the value of the
    bracket-and-project loop the tests keep as its oracle.
    """
    selected = sorted(set(int(i) for i in summand_indices))
    if any(i not in (1, 2, 3) for i in selected):
        raise ValueError("summand indices must be among 1, 2, 3")
    if len(selected) != 2:
        return True, None
    i, j = selected
    (k,) = {1, 2, 3} - {i, j}
    witness = {
        "first": "m%d[0]" % i,
        "second": "m%d[0]" % j,
        "leaks_into": k,
        "residual": float(np.sqrt(4.0 * model.n_ambient)),
    }
    return False, witness


@dataclass
class CollapseVerdict:
    """Realizability verdict for a degenerate limit coefficient vector."""

    point: np.ndarray
    kernel: tuple[int, ...]
    verdict: str  # realizable | non_realizable | no_collapse
    witness: dict | None


def collapse_verdict(model: LieModel, x_limit) -> CollapseVerdict:
    """Classify a limit point: no_collapse, realizable, or non_realizable.

    Realizable verdicts attach the realizing frame at the limit when the
    point lies on the realizable disk; non_realizable ones attach the
    bracket witness. Points that are no metric limit are rejected: a
    non-finite coordinate, one below -KERNEL_TOL, or all three at or below
    KERNEL_TOL.
    """
    x_limit = require_finite(x_limit, "x_limit")
    kernel = tuple(i + 1 for i in range(3) if x_limit[i] <= KERNEL_TOL)
    if not kernel:
        return CollapseVerdict(x_limit, kernel, "no_collapse", None)
    for i in kernel:
        if x_limit[i - 1] < -KERNEL_TOL:
            raise ValueError(
                "x_limit[%d] = %r is below -tol = %r: metric coefficients are "
                "nonnegative" % (i - 1, float(x_limit[i - 1]), KERNEL_TOL)
            )
    if len(kernel) == 3:
        raise ValueError(
            "x_limit = %r kills all three summands: a limit metric keeps at "
            "least one" % (x_limit.tolist(),)
        )
    ok, witness = is_subalgebra(model, kernel)
    if not ok:
        return CollapseVerdict(x_limit, kernel, "non_realizable", witness)
    data = None
    if float(cone_form(x_limit)) <= KERNEL_TOL:
        # x_limit is checked finite above, so its frame skips the check
        data = {"tau": _realizing_frame(x_limit, KERNEL_TOL)}
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

    def profile_ok(self) -> bool:
        """Distances non-increasing within PROFILE_ALLOWANCE times the first,
        and the last below 2x resolution."""
        d = self.distances
        slack = PROFILE_ALLOWANCE * d[0]
        monotone = bool(np.all(d[1:] <= d[:-1] + slack))
        return monotone and d[-1] <= 2.0 * self.resolution


def collapse_run(
    spec: FlagSpec,
    model: LieModel,
    x0,
    times,
    count: int = 2000,
    seed: int = 0,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> CollapseRun:
    """Integrate from x0, realize the states at the given times, and measure
    the exact distance from each state's orbit to the limit orbit.

    x0 must lie on the realizable disk. The trajectory's limit must collapse
    to a realizable degenerate point (an edge-midpoint type limit); vertices
    and interior limits raise NonRealizableError carrying the verdict. The
    distances are orbit_distance, exact, and take no samples. Only the limit
    orbit is sampled, with count points of sample_orbit keyed by seed;
    resolution is the median nearest-neighbour distance of that cloud, the
    scale below which a sampled cloud could not resolve the profile.
    """
    if count < 2:
        raise ValueError(
            "count must be at least 2: a sampling resolution needs two points, got %r"
            % (count,)
        )
    times = np.unique(np.array([float(t) for t in times]))
    if len(times) == 0:
        raise ValueError("need at least one sample time")
    if times[0] < 0:
        raise ValueError("sample times must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if float(cone_form(x0)) > CONE_TOL:
        raise ValueError("x0 is outside the realizable disk (F > 0)")

    t_end = max(float(times[-1]), SETTLE_TIME)
    traj = integrate(spec, x0, t_max=t_end, rtol=rtol, atol=atol, t_eval=times)
    # snap integration fuzz in the dead coordinates to exact zero, so the
    # limit orbit is the genuinely degenerate one
    x_limit = traj.final_state.copy()
    x_limit[x_limit <= KERNEL_TOL] = 0.0
    x_limit /= x_limit.sum()
    verdict = collapse_verdict(model, x_limit)
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

    def frame_at(x):
        return model.frame(realizing_frame(x, tol=KERNEL_TOL))

    # the verdict carries the limit's frame when x_limit is on the disk; off
    # it, frame_at leaves realizing_frame to realize it or raise its error
    if verdict.witness is not None:
        limit_frame = model.frame(verdict.witness["tau"])
    else:
        limit_frame = frame_at(x_limit)
    resolution = sampling_resolution(sample_orbit(model, limit_frame, count, seed))
    times = traj.eval_times
    states = traj.eval_states
    distances = np.array([orbit_distance(frame_at(x), limit_frame) for x in states])
    return CollapseRun(times, states, distances, resolution, x_limit, verdict)
