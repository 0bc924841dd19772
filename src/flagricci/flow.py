"""Flow engine: adaptive integration on the simplex and equilibrium analysis.

The integrator is an embedded Dormand-Prince 5(4) pair with a PI step-size
controller. After every accepted step the state is cleaned for the simplex
geometry: coordinates with magnitude below CLAMP_TOL are set to exactly zero
and the state is renormalized to unit sum. Together with the factored form of
the field (each component proportional to its own coordinate) this keeps
coordinate faces invariant exactly. Integration stops early once the field
norm falls below EQUILIBRIUM_TOL.

The step loop runs on Python floats. The state, the stage inputs, the error
norm, the controller, the clean step, the stop rule and the t_eval landing
are plain float arithmetic, and the Trajectory arrays are built once, when
the loop ends: on a 3-vector, numpy's per-call overhead costs more than the
arithmetic. numpy keeps only the operations whose rounding a Python
expression would not reproduce: the eight contractions of each step
(_A[i] @ K[:i] for the six stages, _B5 @ K and _ERR @ K) on one contiguous
(7, 3) stage array, and the dot product under the stop rule's norm, both
evaluated by BLAS. Every other operation is the one numpy does elementwise on
a 3-vector: a sum of three is taken left to right, a mean divides that sum by
3, an array square is d * d, and cone_form runs on the finished states array.
The result is bit-identical to the same loop on numpy arrays, which keeps
the CLI's 17-digit output unchanged; tests/golden holds the reference bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import cone_form, point_field, reduced_field, require_finite, ricci_field
from .flags import FlagSpec

CLAMP_TOL = 1e-14
EQUILIBRIUM_TOL = 1e-12

# Dormand-Prince 5(4) coefficients; the field is autonomous, so the nodes c_i
# are not needed
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


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


def _clean_state(y):
    y1, y2, y3 = (0.0 if abs(v) < CLAMP_TOL else v for v in y)
    total = y1 + y2 + y3
    return (y1 / total, y2 / total, y3 / total), abs(total - 1.0)


def _rms(q1, q2, q3):
    # np.sqrt(np.mean(q ** 2)) on a 3-vector, operation for operation
    return math.sqrt((q1 * q1 + q2 * q2 + q3 * q3) / 3)


def integrate_field(
    f,
    x0,
    t_max: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    t_eval=None,
    max_steps: int = 500_000,
    fixed_step: float | None = None,
    clean=_clean_state,
    stop_norm: float = EQUILIBRIUM_TOL,
) -> Trajectory:
    """Integrate dx/dt = f(x) from the 3-vector x0 to t_max with the 5(4) pair.

    f takes the state as a length-3 sequence of floats and returns a length-3
    sequence. fields.point_field(spec) is the fast form; a numpy callable
    such as lambda y: projected_field(spec, y) is still accepted and gives
    the same bits, only slower. clean is applied to the state after each
    accepted step, with the same sequence contract, and must return
    (new_state, residual); pass clean=None to integrate a generic field.
    fixed_step disables adaptivity (used by the order tests). t_eval times
    are landed on exactly by shortening steps.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if fixed_step is not None and fixed_step <= 0:
        raise ValueError("fixed_step must be positive")
    if clean is None:
        clean = lambda y: (y, 0.0)

    y = np.asarray(x0, dtype=float)
    if y.shape != (3,):
        raise ValueError("x0 must be a 3-vector")
    y = tuple(y.tolist())
    t = 0.0

    pending = []
    if t_eval is not None:
        pending = sorted(float(te) for te in t_eval)
        if pending and pending[0] < 0:
            raise ValueError("t_eval times must be nonnegative")
    eval_states: dict[float, tuple] = {}

    def note_eval(tcur, ycur):
        while pending and pending[0] <= tcur + 1e-13:
            eval_states[pending.pop(0)] = ycur

    # K holds the seven stage derivatives; K[0] is the field at the state
    K = np.empty((7, 3))
    k0 = K[0]
    stages = [(i, _A[i], K[:i]) for i in range(1, 7)]
    k0[:] = f(y)
    n_evals = 1
    if not np.all(np.isfinite(k0)):
        raise IntegrationError(
            "field not finite at the initial state", t=0.0, state=np.array(y)
        )

    times = [0.0]
    states = [y]
    residuals = [0.0]
    hsteps = [0.0]
    note_eval(0.0, y)

    status = "t_max"
    # the dot product np.linalg.norm takes; BLAS rounds it differently from
    # a Python sum of squares
    if math.sqrt(k0.dot(k0)) < stop_norm:
        status = "equilibrium"

    n_acc = n_rej = 0
    if status != "equilibrium":
        if fixed_step is not None:
            h = min(fixed_step, t_max)
        else:
            s = [atol + rtol * abs(v) for v in y]
            d0 = _rms(*(v / sv for v, sv in zip(y, s)))
            d1 = _rms(*(v / sv for v, sv in zip(k0.tolist(), s)))
            h = 0.01 * d0 / d1 if d1 > 1e-12 else 1e-6
            h = min(max(h, 1e-10), t_max)
        err_prev = 1.0

        while t < t_max:
            if h < 1e-14 * max(1.0, abs(t)):
                status = "step_underflow"
                break
            if n_acc + n_rej >= max_steps:
                raise IntegrationError("step budget exhausted", t=t, state=np.array(y))
            # land exactly on t_max and on any pending t_eval time
            h_try = min(h, t_max - t)
            if pending:
                h_try = min(h_try, pending[0] - t)

            y1, y2, y3 = y
            for i, a, k in stages:
                v1, v2, v3 = (a @ k).tolist()
                K[i] = f((y1 + h_try * v1, y2 + h_try * v2, y3 + h_try * v3))
            n_evals += 6
            v1, v2, v3 = (_B5 @ K).tolist()
            z1, z2, z3 = y1 + h_try * v1, y2 + h_try * v2, y3 + h_try * v3
            if not (math.isfinite(z1) and math.isfinite(z2) and math.isfinite(z3)):
                raise IntegrationError(
                    "non-finite state produced at t = %.6g" % (t + h_try),
                    t=t,
                    state=np.array(y),
                )

            if fixed_step is not None:
                accept, err = True, 0.0
            else:
                e1, e2, e3 = (_ERR @ K).tolist()
                err = _rms(
                    h_try * e1 / (atol + rtol * max(abs(y1), abs(z1))),
                    h_try * e2 / (atol + rtol * max(abs(y2), abs(z2))),
                    h_try * e3 / (atol + rtol * max(abs(y3), abs(z3))),
                )
                accept = err <= 1.0

            if accept:
                t += h_try
                y, residual = clean((z1, z2, z3))
                k0[:] = f(y)
                n_evals += 1
                n_acc += 1
                times.append(t)
                states.append(y)
                residuals.append(residual)
                hsteps.append(h_try)
                note_eval(t, y)
                if math.sqrt(k0.dot(k0)) < stop_norm:
                    status = "equilibrium"
                    break
                if fixed_step is None:
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


def integrate(
    spec: FlagSpec,
    x0,
    t_max: float = 50.0,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    t_eval=None,
    max_steps: int = 500_000,
) -> Trajectory:
    """Integrate the projected flow on the closed simplex from x0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ValueError("x0 must be a 3-vector")
    require_finite(x0, "x0")
    if np.min(x0) < -1e-12 or abs(x0.sum() - 1.0) > 1e-8:
        raise ValueError("x0 = %r is not on the closed simplex" % (x0,))
    x0 = np.clip(x0, 0.0, None)
    x0 = x0 / x0.sum()
    return integrate_field(
        point_field(spec),
        x0,
        t_max,
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        max_steps=max_steps,
    )


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


def jacobian(f, p, h: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian of a planar field at p.

    Central differences with relative step h; one-sided when a probe would
    leave the closed triangle {u >= 0, v >= 0, u + v <= 1}.
    """
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(2):
        step = h * max(1.0, abs(p[i]))
        fwd = p.copy()
        fwd[i] += step
        bwd = p.copy()
        bwd[i] -= step
        if _in_closed_domain(fwd) and _in_closed_domain(bwd):
            cols.append((f(fwd) - f(bwd)) / (2.0 * step))
        elif _in_closed_domain(fwd):
            cols.append((f(fwd) - f(p)) / step)
        else:
            cols.append((f(p) - f(bwd)) / step)
    return np.column_stack(cols)


def _newton_root(f, seed, tol, max_iter=60):
    p = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        val = f(p)
        if float(np.linalg.norm(val)) <= tol:
            return p
        jac = jacobian(f, p)
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

    Roots are deduplicated at distance 1e-6 and validated as Einstein points:
    the unprojected field must be proportional to the point.
    """
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")

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


def classify_limit(traj: Trajectory, equilibria, tol: float = 1e-4):
    """Nearest equilibrium to the final state within tol, else None."""
    end = traj.final_state
    best = None
    best_d = tol
    for eq in equilibria:
        d = float(np.linalg.norm(end - eq.point))
        if d <= best_d:
            best, best_d = eq, d
    return best
