"""Flow engine: adaptive integration on the simplex and equilibrium analysis.

The integrator is an embedded Dormand-Prince 5(4) pair with a PI step-size
controller. Every accepted state is cleaned (_clean_state): coordinates
below CLAMP_TOL in magnitude become exactly zero and the state is
renormalized to unit sum, which with the factored field keeps coordinate
faces invariant exactly. A run stops early once the field norm
sqrt(k1*k1 + k2*k2 + k3*k3) falls below EQUILIBRIUM_TOL.

One attempt is written once, in _step, for three floats, three columns or
a (3, n) block: the stage inputs, the new state and the error estimate are
left-to-right float sums over the tableau's nonzero coefficients, with no
numpy contraction or BLAS call, so the result bits do not depend on the
BLAS kernel. integrate runs one start on Python floats (_float_loop);
integrate_many runs many in lockstep (_lockstep) on the (3, n) block of the
live rows, each row with its own step size, controller memory, verdict,
clean step, stop rule and t_max landing. The lockstep calls the same _step
on the block and takes the controller's powers through C pow (_cpow), so
each row equals its single-start run bit for bit; it logs each pass's
accepted rows and sorts the log into per-row arrays at the end. A batch
of at most FLOAT_LOOP_ROWS rows runs row by row on the float loop, which is
faster there. Both entries check the start (_onto_simplex) and the run
settings (_check_run) before either loop runs, both loops evaluate
fields.point_field(spec), and both stop with IntegrationError after
MAX_STEPS attempts. A run's settings default to T_MAX, RTOL and ATOL,
which collapse and the CLI read too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import cone_form, point_field, reduced_field, require_finite, ricci_field
from .flags import FlagSpec

CLAMP_TOL = 1e-14
EQUILIBRIUM_TOL = 1e-12
MAX_STEPS = 500_000  # attempted steps per start before a run gives up
# a run's settings unless its caller gives others: end time and tolerances
T_MAX = 50.0
RTOL = 1e-9
ATOL = 1e-12
JACOBIAN_STEP = 1e-6  # relative finite-difference step of jacobian
LIMIT_TOL = 1e-4  # farthest a final state lies from the equilibrium it goes to
# integrate_many's largest batch that runs row by row on the float loop. At
# t_max 50 (best of 5, 2 vCPUs) the lockstep took 7.7, 3.5, 2.1, 1.04, 0.65
# and 0.34 times the float loop's time on 4, 8, 16, 32, 64 and 128 rows of
# A(1,1,1), and 7.4, 3.9, 2.05, 1.16, 0.67 and 0.30 times on D(8).
FLOAT_LOOP_ROWS = 32

# Dormand-Prince 5(4), nonzero entries only: the rows of k2 ... k6, the
# fifth-order weights of k1, k3 ... k6 and the fourth-order ones of k1,
# k3 ... k7. The field is autonomous, so the nodes are not needed.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B4 = (5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5 + (0.0,), _B4))


def _step(f, y, k1, h):
    """One Dormand-Prince 5(4) attempt of size h from y, where k1 = f(y).

    y and k1 are three floats, or three columns or a (3, n) block (h then
    holds each row's step). Returns the fifth-order state z and the error
    h (b5 - b4) . k; the last stage is taken at z, so an attempt costs six
    field values.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), a6 = _A
    a61, a62, a63, a64, a65 = a6
    b1, b3, b4, b5, b6 = _B5
    e1, e3, e4, e5, e6, e7 = _ERR
    y1, y2, y3 = y
    p1, p2, p3 = k1
    q1, q2, q3 = f((y1 + h * (a21 * p1), y2 + h * (a21 * p2), y3 + h * (a21 * p3)))
    r1, r2, r3 = f((y1 + h * (a31 * p1 + a32 * q1),
                    y2 + h * (a31 * p2 + a32 * q2),
                    y3 + h * (a31 * p3 + a32 * q3)))
    s1, s2, s3 = f((y1 + h * (a41 * p1 + a42 * q1 + a43 * r1),
                    y2 + h * (a41 * p2 + a42 * q2 + a43 * r2),
                    y3 + h * (a41 * p3 + a42 * q3 + a43 * r3)))
    v1, v2, v3 = f((y1 + h * (a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1),
                    y2 + h * (a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2),
                    y3 + h * (a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3)))
    w1, w2, w3 = f((y1 + h * (a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * v1),
                    y2 + h * (a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * v2),
                    y3 + h * (a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * v3)))
    z = (y1 + h * (b1 * p1 + b3 * r1 + b4 * s1 + b5 * v1 + b6 * w1),
         y2 + h * (b1 * p2 + b3 * r2 + b4 * s2 + b5 * v2 + b6 * w2),
         y3 + h * (b1 * p3 + b3 * r3 + b4 * s3 + b5 * v3 + b6 * w3))
    g1, g2, g3 = f(z)
    return z, (h * (e1 * p1 + e3 * r1 + e4 * s1 + e5 * v1 + e6 * w1 + e7 * g1),
               h * (e1 * p2 + e3 * r2 + e4 * s2 + e5 * v2 + e6 * w2 + e7 * g2),
               h * (e1 * p3 + e3 * r3 + e4 * s3 + e5 * v3 + e6 * w3 + e7 * g3))


class IntegrationError(RuntimeError):
    """Raised when the state turns non-finite; carries the last valid point."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass
class Trajectory:
    """Accepted states of one integration run with per-step diagnostics.

    status is one of "equilibrium" (field norm fell below EQUILIBRIUM_TOL),
    "t_max", or "step_underflow". sum_residuals records |sum(x) - 1| before
    the renormalization of each accepted step; f_values records cone_form at
    the stored (cleaned) states. eval_states holds the states at the
    requested t_eval times when integrate was given any. n_field_evals counts
    calls of the field: one at the start, six per attempted step and one
    more per accepted step.
    """

    times: np.ndarray
    states: np.ndarray
    f_values: np.ndarray
    sum_residuals: np.ndarray
    step_sizes: np.ndarray
    status: str
    n_accepted: int
    n_rejected: int
    eval_times: np.ndarray | None = None
    eval_states: np.ndarray | None = None
    n_field_evals: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _clean_state(y1, y2, y3):
    """Clamp coordinates below CLAMP_TOL to zero and renormalize to unit sum.

    Works alike on three floats and on three column arrays. Returns the
    cleaned coordinates and |sum - 1| before the renormalization.
    """
    # y - y * (|y| < tol) is exactly +0.0 where the test holds and y elsewhere
    y1 = y1 - y1 * (abs(y1) < CLAMP_TOL)
    y2 = y2 - y2 * (abs(y2) < CLAMP_TOL)
    y3 = y3 - y3 * (abs(y3) < CLAMP_TOL)
    total = y1 + y2 + y3
    return (y1 / total, y2 / total, y3 / total), abs(total - 1.0)


def _sum_squares(q1, q2, q3):
    return q1 * q1 + q2 * q2 + q3 * q3


def _float_loop(f, x0, t_max: float, rtol: float, atol: float, t_eval=None) -> Trajectory:
    """integrate's adaptive loop on Python floats, from x0 to t_max.

    f is fields.point_field(spec); x0 is a start already checked and cleaned
    by _onto_simplex, and the run settings are checked by _check_run. Every
    accepted state goes through _clean_state, and the run stops once
    |f| < EQUILIBRIUM_TOL. t_eval times are landed on exactly by shortening
    steps.
    """
    y = tuple(x0.tolist())
    t = 0.0

    pending = []
    if t_eval is not None:
        pending = sorted(float(te) for te in t_eval)
        if not all(0 <= te < math.inf for te in pending):
            raise ValueError("t_eval times must be finite and nonnegative")
    eval_states: dict[float, tuple] = {}

    def note_eval(tcur, ycur):
        while pending and pending[0] <= tcur + 1e-13:
            eval_states[pending.pop(0)] = ycur

    k1 = f(y)
    n_evals = 1
    if not all(map(math.isfinite, k1)):
        raise IntegrationError(
            "field not finite at the initial state", t=0.0, state=np.array(y)
        )

    times, states, residuals, hsteps = [0.0], [y], [0.0], [0.0]
    note_eval(0.0, y)

    status = "t_max"
    if math.sqrt(_sum_squares(*k1)) < EQUILIBRIUM_TOL:
        status = "equilibrium"

    n_acc = n_rej = 0
    if status != "equilibrium":
        s = [atol + rtol * abs(v) for v in y]
        d0 = math.sqrt(_sum_squares(*(v / sv for v, sv in zip(y, s))) / 3)
        d1 = math.sqrt(_sum_squares(*(v / sv for v, sv in zip(k1, s))) / 3)
        h = 0.01 * d0 / d1 if d1 > 1e-12 else 1e-6
        h = min(max(h, 1e-10), t_max)
        err_prev = 1.0

        while t < t_max:
            if h < 1e-14 * max(1.0, abs(t)):
                status = "step_underflow"
                break
            if n_acc + n_rej >= MAX_STEPS:
                raise IntegrationError("step budget exhausted", t=t, state=np.array(y))
            # land exactly on t_max and on any pending t_eval time
            h_try = min(h, t_max - t)
            if pending:
                h_try = min(h_try, pending[0] - t)

            z, (e1, e2, e3) = _step(f, y, k1, h_try)
            n_evals += 6
            if not all(map(math.isfinite, z)):
                msg = "non-finite state produced at t = %.6g" % (t + h_try)
                raise IntegrationError(msg, t=t, state=np.array(y))

            (y1, y2, y3), (z1, z2, z3) = y, z
            q1 = e1 / (atol + rtol * max(abs(y1), abs(z1)))
            q2 = e2 / (atol + rtol * max(abs(y2), abs(z2)))
            q3 = e3 / (atol + rtol * max(abs(y3), abs(z3)))
            err = math.sqrt(_sum_squares(q1, q2, q3) / 3)

            if err <= 1.0:
                t += h_try
                y, residual = _clean_state(*z)
                k1 = f(y)
                n_evals += 1
                n_acc += 1
                times.append(t)
                states.append(y)
                residuals.append(residual)
                hsteps.append(h_try)
                note_eval(t, y)
                if math.sqrt(_sum_squares(*k1)) < EQUILIBRIUM_TOL:
                    status = "equilibrium"
                    break
                err = max(err, 1e-10)
                fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
                h = h_try * min(5.0, max(0.2, fac))
                err_prev = err
            else:
                n_rej += 1
                h = h_try * min(1.0, max(0.2, 0.9 * err ** (-1.0 / 5.0)))

    # unreached t_eval times take the final state
    for te in pending:
        eval_states[te] = y

    states = np.array(states)
    traj = Trajectory(
        times=np.array(times),
        states=states,
        f_values=cone_form(states),
        sum_residuals=np.array(residuals),
        step_sizes=np.array(hsteps),
        status=status,
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_field_evals=n_evals,
    )
    if t_eval is not None:
        traj.eval_times = np.array(sorted(eval_states))
        traj.eval_states = np.array([eval_states[te] for te in traj.eval_times])
    return traj


def _cpow(x, p) -> np.ndarray:
    """x ** p on every element of the 1-D float array x, through C pow.

    A Python float's ** is C pow; numpy's array power can differ from it in
    the last bit (SVML where the CPU has AVX-512).
    """
    return np.array([v ** p for v in x.tolist()])


def _bounded(lo, fac, hi) -> np.ndarray:
    """min(hi, max(lo, fac)) on each element of fac, with the semantics of
    Python's min and max: a NaN fac gives lo, where np.maximum gives NaN."""
    fac = np.where(fac > lo, fac, lo)
    return np.where(fac < hi, fac, hi)


def _lockstep(f, x0, t_max, rtol, atol) -> list[Trajectory]:
    """_float_loop's adaptive step on every row of the (n, 3) array x0.

    f is fields.point_field(spec). The live rows' states and fields are
    (3, n) blocks, and each operation is the float loop's, taken elementwise,
    so row i ends exactly as _float_loop(f, x0[i], ...) would.
    """
    n = len(x0)
    y = x0.T.copy()
    k1 = np.array(f(y))

    status = np.full(n, "t_max", dtype=object)
    n_rej = np.zeros(n, dtype=int)
    # each pass logs its accepted rows: (row, t, step size, sum residual,
    # state) per row; every row's first record is its start
    log = [(np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n), x0)]

    stopped = np.sqrt(_sum_squares(*k1)) < EQUILIBRIUM_TOL
    status[stopped] = "equilibrium"
    s = atol + rtol * np.abs(y)
    d0 = np.sqrt(_sum_squares(*(y / s)) / 3)
    d1 = np.sqrt(_sum_squares(*(k1 / s)) / 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(d1 > 1e-12, 0.01 * d0 / d1, 1e-6)
    h = np.minimum(np.maximum(h, 1e-10), t_max)

    # the live rows: their indices into x0 and their own loop state
    live = ~stopped
    rows, y, k1, h = np.flatnonzero(live), y[:, live], k1[:, live], h[live]
    t, err_prev = np.zeros(len(rows)), np.ones(len(rows))
    steps = 0

    while len(rows):
        done = h < 1e-14 * np.maximum(1.0, t)
        if done.any():
            # these rows stop before their next attempt; the others make
            # theirs on the next pass
            status[rows[done]] = "step_underflow"
        elif steps >= MAX_STEPS:
            msg = "row %d: step budget exhausted" % rows[0]
            raise IntegrationError(msg, t=t[0], state=y[:, 0].copy())
        else:
            # land exactly on t_max
            h_try = np.minimum(h, t_max - t)
            # Python floats overflow to inf and nan without a warning; a
            # step whose error estimate does is rejected, as it is there
            with np.errstate(over="ignore", invalid="ignore"):
                z, e = map(np.array, _step(f, y, k1, h_try))
                q = e / (atol + rtol * np.maximum(np.abs(y), np.abs(z)))
                err = np.sqrt(_sum_squares(*q) / 3)
            finite = np.isfinite(z).all(axis=0)
            if not finite.all():
                r = int(np.argmin(finite))
                msg = "row %d: non-finite state produced at t = %.6g"
                msg %= (rows[r], t[r] + h_try[r])
                raise IntegrationError(msg, t=t[r], state=y[:, r].copy())
            steps += 1

            # every operation below is a no-op on an empty selection
            ir = np.flatnonzero(~(err <= 1.0))
            n_rej[rows[ir]] += 1
            fac = 0.9 * _cpow(err[ir], -1.0 / 5.0)
            h[ir] = h_try[ir] * _bounded(0.2, fac, 1.0)

            ia = np.flatnonzero(err <= 1.0)
            t[ia] += h_try[ia]
            ya, residual = _clean_state(*z[:, ia])
            ya = np.array(ya)
            ka = np.array(f(ya))
            y[:, ia] = ya
            k1[:, ia] = ka
            log.append((rows[ia], t[ia], h_try[ia], residual, ya.T))
            at_rest = ia[np.sqrt(_sum_squares(*ka)) < EQUILIBRIUM_TOL]
            status[rows[at_rest]] = "equilibrium"
            ea = np.maximum(err[ia], 1e-10)
            fac = 0.9 * _cpow(ea, -0.7 / 5.0) * _cpow(err_prev[ia], 0.4 / 5.0)
            h[ia] = h_try[ia] * _bounded(0.2, fac, 5.0)
            err_prev[ia] = ea
            done = t >= t_max
            done[at_rest] = True

        if done.any():
            keep = ~done
            rows, y, k1, h = rows[keep], y[:, keep], k1[:, keep], h[keep]
            t, err_prev = t[keep], err_prev[keep]

    # a stable sort by row keeps each row's records in step order; each
    # column's per-pass pieces are dropped once it is sorted, so the whole
    # log and the whole sorted copy are never held at once
    who, *cols = map(list, zip(*log))
    del log
    who = np.concatenate(who)
    order = np.argsort(who, kind="stable")
    counts = np.bincount(who)
    cuts = np.cumsum(counts)[:-1]
    for pieces in cols:
        pieces[:] = np.split(np.concatenate(pieces)[order], cuts)
    times, step_sizes, residuals, states = cols
    return [
        Trajectory(
            times=times[r],
            states=states[r],
            f_values=cone_form(states[r]),
            sum_residuals=residuals[r],
            step_sizes=step_sizes[r],
            status=status[r],
            n_accepted=int(m - 1),
            n_rejected=int(n_rej[r]),
            n_field_evals=int(1 + 6 * (m - 1 + n_rej[r]) + m - 1),
        )
        for r, m in enumerate(counts)
    ]


def _onto_simplex(x0):
    """x0, one start (3,) or a stack (N, 3), checked and cleaned onto the simplex.

    Rejects non-finite coordinates and points off the closed simplex, naming
    the row of a stack; clips tiny negatives and renormalizes to unit sum.
    """
    require_finite(x0, "x0")
    off = (np.min(x0, axis=-1) < -1e-12) | (np.abs(x0.sum(axis=-1) - 1.0) > 1e-8)
    if off.any():
        if x0.ndim == 1:
            raise ValueError("x0 = %r is not on the closed simplex" % (x0,))
        r = int(np.argmax(off))
        raise ValueError("x0[%d] = %r is not on the closed simplex" % (r, x0[r]))
    x0 = np.clip(x0, 0.0, None)
    return x0 / x0.sum(axis=-1, keepdims=True)


def _check_run(t_max, rtol, atol):
    """Reject run settings the step control cannot use.

    t_max must be positive (NaN is not); rtol and atol must be finite and
    nonnegative, and atol positive, since the error is measured against
    atol + rtol |y|, which rtol alone leaves zero on a face.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive, got %r" % (t_max,))
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 <= tol < math.inf:
            raise ValueError("%s must be finite and nonnegative, got %r" % (name, tol))
    if atol == 0:
        msg = "atol must be positive: the error scale atol + rtol |y| is zero on a face"
        raise ValueError(msg)


def integrate(
    spec: FlagSpec,
    x0,
    t_max: float = T_MAX,
    rtol: float = RTOL,
    atol: float = ATOL,
    t_eval=None,
) -> Trajectory:
    """Integrate the projected flow on the closed simplex from x0.

    Raises ValueError for a start off the closed simplex and for run
    settings that _check_run rejects.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ValueError("x0 must be a 3-vector")
    _check_run(t_max, rtol, atol)
    f = point_field(spec)
    return _float_loop(f, _onto_simplex(x0), t_max, rtol, atol, t_eval)


def integrate_many(
    spec: FlagSpec,
    starts,
    t_max: float = T_MAX,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> list[Trajectory]:
    """Integrate the projected flow from every row of the (N, 3) array starts.

    Returns one Trajectory per row, equal bit for bit to
    integrate(spec, starts[i], t_max, rtol, atol): the same states, step
    sizes, status and counters. The rows run in lockstep, each with its own
    step control; a batch of at most FLOAT_LOOP_ROWS rows runs row by row on
    integrate's float loop instead, which is faster there.
    """
    x0 = np.asarray(starts, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != 3:
        raise ValueError("starts must be an (N, 3) array, got shape %r" % (x0.shape,))
    _check_run(t_max, rtol, atol)
    x0 = _onto_simplex(x0)
    f = point_field(spec)
    if len(x0) <= FLOAT_LOOP_ROWS:
        return [_float_loop(f, x, t_max, rtol, atol) for x in x0]
    return _lockstep(f, x0, t_max, rtol, atol)


# --- equilibria --------------------------------------------------------------


@dataclass
class Equilibrium:
    """Zero of the projected field with its Einstein constant and stability."""

    point: np.ndarray
    einstein_constant: float
    stability: str  # sink | source | saddle | degenerate
    location: str  # interior | face | vertex

    def as_dict(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "lambda": self.einstein_constant,
            "stability": self.stability,
            "location": self.location,
        }


def _in_closed_domain(uv, slack=1e-12) -> bool:
    u, v = uv
    return u >= -slack and v >= -slack and u + v <= 1.0 + slack


def _probe(f, p):
    """f(p) and jacobian(f, p) from one call of f on the (5, 2) stack of p
    and its probes; each quotient is formed as from five single calls."""
    p = np.asarray(p, dtype=float)
    steps = [JACOBIAN_STEP * max(1.0, abs(p[i])) for i in range(2)]
    pts = np.array([p] * 5)
    pts[[1, 2, 3, 4], [0, 0, 1, 1]] += [steps[0], -steps[0], steps[1], -steps[1]]
    vals = f(pts)
    cols = []
    for i, step in enumerate(steps):
        fwd, bwd = 2 * i + 1, 2 * i + 2
        if _in_closed_domain(pts[fwd]) and _in_closed_domain(pts[bwd]):
            cols.append((vals[fwd] - vals[bwd]) / (2.0 * step))
        elif _in_closed_domain(pts[fwd]):
            cols.append((vals[fwd] - vals[0]) / step)
        else:
            cols.append((vals[0] - vals[bwd]) / step)
    return vals[0], np.column_stack(cols)


def jacobian(f, p) -> np.ndarray:
    """Finite-difference Jacobian of a planar field at p.

    Central differences with relative step JACOBIAN_STEP; one-sided when a
    probe would leave the closed triangle {u >= 0, v >= 0, u + v <= 1}. f
    must be vectorized over a leading axis: it is called once, on a (5, 2)
    stack of points, and row k of its result must be f of row k.
    """
    return _probe(f, p)[1]


def _newton_root(f, seed, tol, max_iter=60):
    p = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        val, jac = _probe(f, p)
        if float(np.linalg.norm(val)) <= tol:
            return p
        try:
            delta = np.linalg.solve(jac, -val)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        if float(np.linalg.norm(delta)) > 10.0:
            return None
        p = p + delta
    return None


def _stability(eigvals, zero_tol=1e-7) -> str:
    re = np.real(eigvals)
    if np.any(np.abs(re) <= zero_tol):
        return "degenerate"
    if np.all(re < 0):
        return "sink"
    if np.all(re > 0):
        return "source"
    return "saddle"


def _location(x, tol=1e-9) -> str:
    zeros = int(np.sum(np.abs(x) <= tol))
    if zeros == 0:
        return "interior"
    if zeros == 1:
        return "face"
    return "vertex"


def find_equilibria(
    spec: FlagSpec, grid_n: int = 30, newton_tol: float = 1e-12
) -> list[Equilibrium]:
    """Newton search over a barycentric seed grid of the closed triangle.

    Each iteration makes one reduced_field call, on the point and its four
    Jacobian probes stacked. Roots are deduplicated at distance 1e-6 and
    validated as Einstein points: the unprojected field must be proportional
    to the point. newton_tol must be finite and positive.
    """
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    if not 0.0 < newton_tol < math.inf:
        raise ValueError("newton_tol must be finite and positive, got %r" % newton_tol)

    def fy(uv):
        return reduced_field(spec, uv)

    roots = []
    denom = grid_n - 1
    for i in range(grid_n):
        for j in range(grid_n - i):
            root = _newton_root(fy, (i / denom, j / denom), newton_tol)
            if root is None or not _in_closed_domain(root, 1e-9):
                continue
            if all(np.linalg.norm(root - r) > 1e-6 for r in roots):
                roots.append(root)

    out = []
    for root in sorted(roots, key=lambda r: (r[0], r[1])):
        x = np.array([root[0], root[1], 1.0 - root[0] - root[1]])
        x[np.abs(x) <= 1e-10] = 0.0
        x = x / x.sum()
        r = ricci_field(spec, x)
        lam = float(r @ x) / float(x @ x)
        if np.linalg.norm(r - lam * x) > 1e-8 * max(1.0, np.linalg.norm(r)):
            continue
        eig = np.linalg.eigvals(jacobian(fy, x[:2]))
        out.append(Equilibrium(x, lam, _stability(eig), _location(x)))
    return out


def classify_limit(traj: Trajectory, equilibria):
    """Nearest equilibrium to the final state within LIMIT_TOL, else None."""
    end = traj.final_state
    best = None
    best_d = LIMIT_TOL
    for eq in equilibria:
        d = float(np.linalg.norm(end - eq.point))
        if d <= best_d:
            best, best_d = eq, d
    return best
