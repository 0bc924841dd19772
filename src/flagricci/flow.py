"""Flow engine: adaptive integration on the simplex and equilibrium analysis.

The integrator is an embedded Dormand-Prince 5(4) pair with a PI step-size
controller. Every accepted state is cleaned (_clean_state): coordinates
below CLAMP_TOL in magnitude become exactly zero and the state is
renormalized to unit sum, which with the factored field keeps coordinate
faces invariant exactly. A run stops early once the field norm
sqrt(k1*k1 + k2*k2 + k3*k3) falls below EQUILIBRIUM_TOL.

Each loop owns its kernel. integrate runs one start on Python floats
(_float_loop), and each attempt is _step on three floats with the field
fields.point_field(spec). integrate_many runs many starts in lockstep
(_lockstep) on the (3, n) block of the live rows, each row with its own
step size, controller memory, verdict, clean step, stop rule and t_max
landing; each attempt is _block_step on the block with the field
fields.block_field(spec), and _block_clean cleans the accepted rows. In
both kernels the stage inputs, the new state and the error estimate are
left-to-right float sums over the tableau's nonzero coefficients, with no
numpy contraction or BLAS call, so the result bits do not depend on the
BLAS kernel; the block forms make the float forms' operations in the same
order, one numpy call per operation over every coordinate of every row;
each of _block_step's weighted sums is one multiply and one np.add.reduce
over the outer axis of a (k, 3, n) stack of stages, which adds them left to
right.
The lockstep takes the controller's powers on Python floats, through C
pow, so each row equals its single-start run bit for bit; it logs each
pass's accepted rows and sorts the log into per-row arrays at the end. A
batch of at most FLOAT_LOOP_ROWS rows runs row by row on the float loop,
which is faster there. Both entries check the start (_onto_simplex) and the
run settings (_check_run) before either loop runs, and both loops stop
with IntegrationError after MAX_STEPS attempts. A run's settings default to
T_MAX, RTOL and ATOL, which collapse and the CLI read too. Both loops start
a run by _start, on each start's floats, and record it by _record.

The pair is "first same as last": the kernel's last stage g = f(z) is the
field at the attempt's end point z. When an attempt is accepted and its
cleaned state equals z, and z holds no -0.0, that state is z bit for bit
(cleaning makes -0.0 into +0.0 and never makes a -0.0), and both loops take
g as the next step's first stage instead of calling f; a clamp or a
renormalization that moves z, or a -0.0 in z, makes them call f on the
cleaned state. The lockstep applies the rule row by row and calls f on the
other rows' columns only. So a run's n_field_evals counts the field values
actually computed: 1 + 6 (accepted + rejected) + fresh, one at the start,
six per attempted step and one per accepted step that does not take g.

The equilibria are closed forms: _exact_equilibria builds the ten in
fractions.Fraction with their exact Einstein constants and stabilities, and
find_equilibria rounds each number once to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import (
    _cubic,
    _cubic_coefficients,
    _cubic_jacobian,
    block_field,
    cone_form,
    point_field,
    require_finite,
)
from .flags import FlagSpec

CLAMP_TOL = 1e-14
EQUILIBRIUM_TOL = 1e-12
MAX_STEPS = 500_000  # attempted steps per start before a run gives up
# a run's settings unless its caller gives others: end time and tolerances
T_MAX = 50.0
RTOL = 1e-9
ATOL = 1e-12
LIMIT_TOL = 1e-4  # farthest a final state lies from the equilibrium it goes to
# integrate_many's largest batch that runs row by row on the float loop. At
# t_max 50 (CPU time, best of 5 alternating runs, median of 5 repeats,
# 2 vCPUs) the lockstep took 1.83, 1.21, 1.12, 0.91, 0.71 and 0.59 times the
# float loop's time on 16, 24, 28, 32, 48 and 64 rows of A(1,1,1), and 1.78,
# 1.20, 1.09, 1.04, 0.71 and 0.57 times on D(8): the two break even near 30
# rows, within this measurement's noise of 32.
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

    y and k1 are three floats, and f is fields.point_field(spec). Returns
    the fifth-order state z, the error h (b5 - b4) . k and the last stage
    g = f(z), each as three floats; an attempt costs six field values.
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
    g = f(z)
    g1, g2, g3 = g
    return z, (h * (e1 * p1 + e3 * r1 + e4 * s1 + e5 * v1 + e6 * w1 + e7 * g1),
               h * (e1 * p2 + e3 * r2 + e4 * s2 + e5 * v2 + e6 * w2 + e7 * g2),
               h * (e1 * p3 + e3 * r3 + e4 * s3 + e5 * v3 + e6 * w3 + e7 * g3)), g


# the tableau's weights as (k, 1, 1) columns, each to weight a (k, 3, n)
# stack of stages
_A_COLS = tuple(np.array(row)[:, None, None] for row in _A)
_B5_COL = np.array(_B5)[:, None, None]
_ERR_COL = np.array(_ERR)[:, None, None]


def _block_step(f, y, k1, h):
    """_step on (3, n) blocks y and k1 = f(y) of n rows, h (n,) their steps.

    f is fields.block_field(spec). The stages k1 ... k6, g share one
    (7, 3, n) array, and each weighted sum is one multiply by the weight
    column and one np.add.reduce over the stage axis. That reduction runs
    over the outer axis, so it adds the weighted stages left to right,
    elementwise, as _step writes its sums; each column of z, the error and
    g = f(z) has the bits of _step on that row.
    """
    k = np.empty((7,) + y.shape)
    k[0] = k1
    for i, a in enumerate(_A_COLS, 1):
        k[i] = f(y + h * np.add.reduce(a * k[:i], axis=0))
    # k2 has no weight in z or in the error: k1 takes its slot, so that
    # k[1:6] holds k1, k3 ... k6 and k[1:] the error's stages, g last
    k[1] = k1
    z = y + h * np.add.reduce(_B5_COL * k[1:6], axis=0)
    k[6] = g = f(z)
    return z, h * np.add.reduce(_ERR_COL * k[1:], axis=0), g


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
    the field values computed, as _record and the module docstring set out.
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


def _block_clean(z):
    """_clean_state on a (3, n) block, one numpy call per operation."""
    y = z - z * (np.abs(z) < CLAMP_TOL)
    total = y[0] + y[1] + y[2]
    return y / total, np.abs(total - 1.0)


def _block_sum_squares(q):
    """_sum_squares of each column of the (3, n) block q."""
    q = q * q
    return q[0] + q[1] + q[2]


def _has_minus_zero(v):
    # -0.0 == 0.0, so only its sign bit tells it apart
    return any(c == 0.0 and math.copysign(1.0, c) < 0.0 for c in v)


def _start(y, k1, t_max, rtol, atol, row=None):
    """The first step size from the start y, three floats with k1 = f(y).

    IntegrationError, naming a lockstep's row, if k1 is not finite; None if
    |k1| < EQUILIBRIUM_TOL. Else 0.01 d0 / d1 (1e-6 if d1 <= 1e-12), d0 and
    d1 the RMS of y and k1 over atol + rtol |y|, put in [1e-10, t_max].
    """
    if not all(map(math.isfinite, k1)):
        msg = "field not finite at the initial state"
        if row is not None:
            msg = "row %d: %s" % (row, msg)
        raise IntegrationError(msg, t=0.0, state=np.array(y))
    if math.sqrt(_sum_squares(*k1)) < EQUILIBRIUM_TOL:
        return None
    s = [atol + rtol * abs(v) for v in y]
    d0 = math.sqrt(_sum_squares(*(v / sv for v, sv in zip(y, s))) / 3)
    d1 = math.sqrt(_sum_squares(*(v / sv for v, sv in zip(k1, s))) / 3)
    h = 0.01 * d0 / d1 if d1 > 1e-12 else 1e-6
    # d0 = d1 = inf give a NaN h, which max(1e-10, h) takes to the floor
    return min(max(1e-10, h), t_max)


def _record(times, states, residuals, step_sizes, status, n_rejected, n_fresh, evals=None):
    """A run's Trajectory from its records, one per stored state, start first.

    n_fresh counts the accepted steps that called f instead of taking g, and
    evals maps each t_eval time to its state when the run was given any.
    """
    states, n_accepted = np.asarray(states), len(times) - 1
    traj = Trajectory(
        times=np.asarray(times),
        states=states,
        f_values=cone_form(states),
        sum_residuals=np.asarray(residuals),
        step_sizes=np.asarray(step_sizes),
        status=status,
        n_accepted=n_accepted,
        n_rejected=int(n_rejected),
        n_field_evals=int(1 + 6 * (n_accepted + n_rejected) + n_fresh),
    )
    if evals is not None:
        traj.eval_times = np.array(sorted(evals))
        traj.eval_states = np.array([evals[te] for te in traj.eval_times])
    return traj


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
    eval_states: dict[float, tuple] | None = None if t_eval is None else {}

    def note_eval(tcur, ycur):
        while pending and pending[0] <= tcur + 1e-13:
            eval_states[pending.pop(0)] = ycur

    k1 = f(y)
    h = _start(y, k1, t_max, rtol, atol)
    times, states, residuals, hsteps = [0.0], [y], [0.0], [0.0]
    note_eval(0.0, y)

    # in the step's bookkeeping min, max and abs are conditional
    # expressions that pick as they do, also on NaN and inf
    isfinite, sqrt = math.isfinite, math.sqrt
    n_acc = n_rej = n_fresh = 0
    status = "t_max" if h is not None else "equilibrium"
    if h is not None:
        err_prev = 1.0

        while t < t_max:
            # t is never negative, so max(1.0, abs(t)) is this
            if h < 1e-14 * (t if t > 1.0 else 1.0):
                status = "step_underflow"
                break
            if n_acc + n_rej >= MAX_STEPS:
                raise IntegrationError("step budget exhausted", t=t, state=np.array(y))
            # land exactly on t_max and on any pending t_eval time
            rest = t_max - t
            h_try = rest if rest < h else h
            if pending:
                rest = pending[0] - t
                h_try = rest if rest < h_try else h_try

            z, (e1, e2, e3), g = _step(f, y, k1, h_try)
            (y1, y2, y3), (z1, z2, z3) = y, z
            if not (isfinite(z1) and isfinite(z2) and isfinite(z3)):
                msg = "non-finite state produced at t = %.6g" % (t + h_try)
                raise IntegrationError(msg, t=t, state=np.array(y))

            # the scale max(|y_i|, |z_i|) of each coordinate; y and z are
            # finite and atol > 0, so the sign of a zero does not matter
            a, b = (y1 if y1 > 0.0 else -y1), (z1 if z1 > 0.0 else -z1)
            q1 = e1 / (atol + rtol * (b if b > a else a))
            a, b = (y2 if y2 > 0.0 else -y2), (z2 if z2 > 0.0 else -z2)
            q2 = e2 / (atol + rtol * (b if b > a else a))
            a, b = (y3 if y3 > 0.0 else -y3), (z3 if z3 > 0.0 else -z3)
            q3 = e3 / (atol + rtol * (b if b > a else a))
            err = sqrt((q1 * q1 + q2 * q2 + q3 * q3) / 3)

            if err <= 1.0:
                t += h_try
                y, residual = _clean_state(z1, z2, z3)
                # first same as last: a cleaned state equal to z is z bit for
                # bit unless z holds a -0.0, which cleaning makes +0.0; then
                # f(y) is the last stage g
                if y == z and (0.0 not in z or not _has_minus_zero(z)):
                    k1 = g
                else:
                    k1 = f(y)
                    n_fresh += 1
                n_acc += 1
                times.append(t)
                states.append(y)
                residuals.append(residual)
                hsteps.append(h_try)
                if pending:
                    note_eval(t, y)
                c1, c2, c3 = k1
                if sqrt(c1 * c1 + c2 * c2 + c3 * c3) < EQUILIBRIUM_TOL:
                    status = "equilibrium"
                    break
                if err < 1e-10:
                    err = 1e-10
                fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
                # min(5.0, max(0.2, fac))
                h = h_try * (5.0 if fac > 5.0 else fac if fac > 0.2 else 0.2)
                err_prev = err
            else:
                n_rej += 1
                # min(1.0, max(0.2, fac)): an error estimate that overflowed
                # to NaN gives 0.2
                fac = 0.9 * err ** (-1.0 / 5.0)
                h = h_try * (1.0 if fac > 1.0 else fac if fac > 0.2 else 0.2)

    # unreached t_eval times take the final state
    for te in pending:
        eval_states[te] = y

    return _record(times, states, residuals, hsteps, status, n_rej, n_fresh, eval_states)


def _bounded(lo, fac, hi) -> np.ndarray:
    """min(hi, max(lo, fac)) on each element of fac, with the semantics of
    Python's min and max: a NaN fac gives lo, where np.maximum gives NaN."""
    fac = np.where(fac > lo, fac, lo)
    return np.where(fac < hi, fac, hi)


def _lockstep(f, x0, t_max, rtol, atol) -> list[Trajectory]:
    """_float_loop's adaptive step on every row of the (n, 3) array x0.

    f is fields.block_field(spec). The live rows' states and fields are
    (3, n) blocks, stepped by _block_step and cleaned by _block_clean, and
    each operation is the float loop's, taken elementwise, so row i ends
    exactly as _float_loop(point_field(spec), x0[i], ...) would.
    """
    n = len(x0)
    y = x0.T.copy()
    k1 = f(y)
    starts = enumerate(zip(x0.tolist(), k1.T.tolist()))
    hs = [_start(yr, kr, t_max, rtol, atol, row=r) for r, (yr, kr) in starts]

    status = np.full(n, "t_max", dtype=object)
    n_rej = np.zeros(n, dtype=int)
    n_fresh = np.zeros(n, dtype=int)
    # each pass logs its accepted rows: (row, t, step size, sum residual,
    # state) per row; every row's first record is its start
    log = [(np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n), x0)]

    # the live rows: their indices into x0 and their own loop state
    live = np.array([h is not None for h in hs], dtype=bool)
    status[~live] = "equilibrium"
    rows, y, k1 = np.flatnonzero(live), y[:, live], k1[:, live]
    h = np.array([v for v in hs if v is not None], dtype=float)
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
                z, e, g = _block_step(f, y, k1, h_try)
                q = e / (atol + rtol * np.maximum(np.abs(y), np.abs(z)))
                err = np.sqrt(_block_sum_squares(q) / 3)
            if not np.isfinite(z).all():
                r = int(np.argmin(np.isfinite(z).all(axis=0)))
                msg = "row %d: non-finite state produced at t = %.6g"
                msg %= (rows[r], t[r] + h_try[r])
                raise IntegrationError(msg, t=t[r], state=y[:, r].copy())
            steps += 1

            # the step factors' powers are taken on Python floats, in the
            # float loop's order of operations: a Python float's ** is C
            # pow, and numpy's array power can differ from it in the last
            # bit (SVML where the CPU has AVX-512)
            ok = err <= 1.0
            ir = np.flatnonzero(~ok)
            if len(ir):
                n_rej[rows[ir]] += 1
                fac = np.array([0.9 * v ** (-1.0 / 5.0) for v in err[ir].tolist()])
                h[ir] = h_try[ir] * _bounded(0.2, fac, 1.0)

            # every operation below is a no-op on an empty selection; the
            # accepted rows are selected by a slice, which copies nothing,
            # when they are all the live rows
            ia = np.flatnonzero(ok)
            sel = ia if len(ia) < len(rows) else slice(None)
            ra = rows[sel]
            t[sel] += h_try[sel]
            za = z[:, sel]
            ya, residual = _block_clean(za)
            # the float loop's first-same-as-last rule, row by row: a row
            # takes its column of g when its cleaned state is z bit for bit
            # (equal to z, with no -0.0 in z), and f is called on the other
            # rows' columns only
            jf = np.flatnonzero((ya.view(np.int64) != za.view(np.int64)).any(axis=0))
            if len(jf) == len(ia):
                ka = f(ya)
            else:
                ka = g[:, sel]
                if len(jf):
                    ka[:, jf] = f(ya[:, jf])
            n_fresh[ra[jf]] += 1
            y[:, sel] = ya
            k1[:, sel] = ka
            # t[ia] is a copy, which later passes leave as it is
            log.append((ra, t[ia], h_try[sel], residual, ya.T))
            at_rest = ia[np.sqrt(_block_sum_squares(ka)) < EQUILIBRIUM_TOL]
            status[rows[at_rest]] = "equilibrium"
            ea = np.maximum(err[sel], 1e-10)
            fac = np.array([
                0.9 * a ** (-0.7 / 5.0) * b ** (0.4 / 5.0)
                for a, b in zip(ea.tolist(), err_prev[sel].tolist())
            ])
            h[sel] = h_try[sel] * _bounded(0.2, fac, 5.0)
            err_prev[sel] = ea
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
        _record(times[r], states[r], residuals[r], step_sizes[r], status[r], n_rej[r], n_fresh[r])
        for r in range(n)
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
    if len(x0) <= FLOAT_LOOP_ROWS:
        f = point_field(spec)
        return [_float_loop(f, x, t_max, rtol, atol) for x in x0]
    return _lockstep(block_field(spec), x0, t_max, rtol, atol)


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


def jacobian(spec: FlagSpec, uv) -> np.ndarray:
    """Exact Jacobian of reduced_field at uv = (u, v), a 2x2 array.

    reduced_field is Y = (R1 - s u, R2 - s v) with s = R1 + R2 + R3 at x =
    (u, v, 1 - u - v), so d/du is d/dx1 - d/dx3 and d/dv is d/dx2 - d/dx3 of
    the rows fields._cubic_jacobian gives. Only +, - and * are used: uv of
    two floats gives a float array, uv of two fractions.Fraction the exact
    rational Jacobian.
    """
    a, b = _cubic_coefficients(spec)
    u, v = uv
    x = (u, v, 1 - u - v)
    r1, r2, r3 = _cubic(a, b, *x)
    s = r1 + r2 + r3
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = _cubic_jacobian(a, b, *x)
    r1u, r1v = r11 - r13, r12 - r13
    r2u, r2v = r21 - r23, r22 - r23
    su = r1u + r2u + (r31 - r33)
    sv = r1v + r2v + (r32 - r33)
    return np.array([
        [r1u - su * u - s, r1v - sv * u],
        [r2u - su * v, r2v - sv * v - s],
    ])


def _exact_equilibria(spec: FlagSpec) -> list[tuple]:
    """The 10 equilibria in Fractions, each as (x, lambda, stability, location).

    With (a, b) the cubic's coefficients: the vertices e_k, the edge
    midpoints, the Kaehler points x_k = 1/2 with x_i : x_j = b_i : b_j, and
    the normal point b / sum b. These are all the zeros of the projected
    field on the closed simplex (Kimura's classification;
    test_the_ten_closed_form_equilibria_are_all_of_them proves it). lambda
    = R.x / x.x, and R = lambda x holds exactly. The stability comes from
    the signs of the determinant and trace of the exact jacobian, and the
    location from the count of zero coordinates.
    """
    a, b = _cubic_coefficients(spec)
    zero, half = Fraction(0), Fraction(1, 2)
    points = [[Fraction(c, sum(b)) for c in b]]
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        vertex, midpoint, kaehler = [zero] * 3, [half] * 3, [half] * 3
        vertex[k], midpoint[k] = Fraction(1), zero
        kaehler[i] = Fraction(b[i], 2 * (b[i] + b[j]))
        kaehler[j] = Fraction(b[j], 2 * (b[i] + b[j]))
        points += [vertex, midpoint, kaehler]
    out = []
    for x in points:
        r = _cubic(a, b, *x)
        lam = sum(ri * xi for ri, xi in zip(r, x)) / sum(xi * xi for xi in x)
        assert list(r) == [lam * c for c in x], (spec.label, x)
        (p, q), (s, t) = jacobian(spec, x[:2]).tolist()
        det, trace = p * t - q * s, p + t
        if det < 0:
            stability = "saddle"
        elif det == 0 or trace == 0:
            stability = "degenerate"
        else:
            stability = "sink" if trace < 0 else "source"
        out.append((x, lam, stability, ("interior", "face", "vertex")[x.count(0)]))
    return out


def find_equilibria(
    spec: FlagSpec, grid_n: int = 30, newton_tol: float = 1e-12
) -> list[Equilibrium]:
    """The 10 equilibria of _exact_equilibria, each number rounded once to float.

    They are ordered by their points to 6 decimals. grid_n and newton_tol
    are ignored, kept for compatibility; grid_n below 10 and a newton_tol
    that is not finite and positive still raise ValueError.
    """
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    if not 0.0 < newton_tol < math.inf:
        raise ValueError("newton_tol must be finite and positive, got %r" % newton_tol)
    out = [
        Equilibrium(np.array([float(c) for c in x]), float(lam), stability, location)
        for x, lam, stability, location in _exact_equilibria(spec)
    ]
    return sorted(out, key=lambda e: np.round(e.point, 6).tolist())


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
