"""Command-line front end.

Commands: field, flow, portrait, equilibria, realize, orbit, collapse,
verify. Every option can also come from a declarative key=value config file
(--config); command-line switches win. Numbers in output files carry 17
significant digits so they round-trip to the exact float. Output files are
written atomically (temp file + rename) and runs are deterministic for a
fixed config and seed; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

import numpy as np

from . import verify as verify_mod
from .collapse import NonRealizableError, collapse_run
from .fields import (
    cone_form,
    cone_form_grad,
    projected_field,
    reduced_field,
    ricci_field,
)
from .flags import parse_flag
from .flow import (
    ATOL,
    RTOL,
    T_MAX,
    IntegrationError,
    classify_limit,
    find_equilibria,
    integrate,
    integrate_many,
)
from .orbits import build_model, sample_orbit
from .realize import coeffs_to_psd, disk_membership, realized_coeffs, realizing_frame


def fmt(v: float) -> str:
    return "%.17g" % float(v)


def fmt_vec(v) -> str:
    return "(" + ", ".join(fmt(x) for x in np.asarray(v).ravel()) + ")"


# a number as fractions.Fraction reads it: a sign, then an integer and a
# denominator, or digits with a point and an exponent (a digit comes first)
_NUMBER = re.compile(
    r"""(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*(?:_\d+)*)
    (?: /(?P<den>\d+(?:_\d+)*)
      | (?:\.(?P<frac>(?:\d+(?:_\d+)*)?))? (?:[eE][-+]?\d+(?:_\d+)*)? )""",
    re.VERBOSE,
)


def _parse_number(tok: str) -> float:
    """The float float(Fraction(tok)) gives, without building the Fraction.

    A quotient of integers is divided with correct rounding, as Fraction
    converts; any other form is read by float(), which rounds correctly
    too. So an exponent costs nothing, where Fraction builds 10**exponent.
    An exact zero is +0.0 whatever its sign. Raises ValueError when tok is
    no number of that form, when the denominator is zero and when the value
    overflows a float.
    """
    m = _NUMBER.fullmatch(tok)
    if m is None:
        raise ValueError(tok)
    try:
        if m["den"] is not None:
            value = int(m["sign"] + m["num"]) / int(m["den"])
        else:
            value = float(tok)
            digits = (m["num"] + (m["frac"] or "")).replace("_", "")
            if value == 0.0 and not any(map(int, digits)):
                value = 0.0
    except (ZeroDivisionError, OverflowError):
        raise ValueError(tok) from None
    if not math.isfinite(value):
        raise ValueError(tok)
    return value


def parse_point(text: str, dim: int | None = 3) -> np.ndarray:
    """Comma-separated numbers, dim of them (any count for dim=None).

    Fractions like 1/2 are parsed to the nearest float; a malformed number,
    a zero denominator, a value beyond the float range or a wrong count
    raises ValueError.
    """
    parts = [tok.strip() for tok in text.split(",")]
    if dim is not None and len(parts) != dim:
        raise ValueError("expected %d comma-separated values, got %r" % (dim, text))
    try:
        return np.array([_parse_number(tok) for tok in parts])
    except ValueError:
        raise ValueError("bad number in %r" % text) from None


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file that replaces path once the block ends without error.

    Writes go to a temporary file next to path, created with mode 0o666 so
    the umask sets the final mode, as for a file opened for writing
    directly. On any error the temporary file is removed, and an OSError
    names path: "cannot write PATH: reason".
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".tmp-%d-%s" % (os.getpid(), os.urandom(8).hex()))
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def atomic_write(path: str, content: str) -> None:
    """Write content to path through _atomic_open."""
    with _atomic_open(path) as fh:
        fh.write(content)


def _emit(out, text: str, note: str | None = None) -> None:
    """Write text atomically to the file out and print a "wrote" line, or to stdout."""
    if out:
        atomic_write(out, text)
        print("wrote %s (%s)" % (out, note) if note else "wrote %s" % out)
    else:
        sys.stdout.write(text)


def load_config(path: str) -> dict[str, str]:
    """Read a key = value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _flag_blocks(spec):
    if spec.family != "A":
        raise ValueError("orbit models are built for family A only (got %s)" % spec.label)
    return spec.params


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError("missing required option --%s" % name.replace("_", "-"))


def cmd_field(args) -> int:
    spec = parse_flag(args.flag)
    x = parse_point(args.point)
    # a finite point can overflow: an error, as in realize, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        r, proj, f, grad = (
            ricci_field(spec, x), projected_field(spec, x), cone_form(x), cone_form_grad(x)
        )
    if not all(np.isfinite(v).all() for v in (r, proj, f, grad)):
        raise ValueError("the field at %r overflows the float range" % (x.tolist(),))
    lines = [
        "flag = %s" % spec.label,
        "x = %s" % fmt_vec(x),
        "R = %s" % fmt_vec(r),
        "X = %s" % fmt_vec(proj),
        "F = %s" % fmt(f),
        "grad_F = %s" % fmt_vec(grad),
    ]
    print("\n".join(lines))
    return 0


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row.

    Floats go through fmt, so they carry 17 significant digits; strings are
    written as given.
    """
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj) -> str:
    rows = np.column_stack([traj.times, traj.states, traj.f_values, traj.sum_residuals])
    return _csv("t,x1,x2,x3,F,sum_residual", rows.tolist())


def cmd_flow(args) -> int:
    spec = parse_flag(args.flag)
    x0 = parse_point(args.point)
    traj = integrate(spec, x0, t_max=args.t_max, rtol=args.rtol, atol=args.atol)
    note = "%d states, status %s" % (len(traj.times), traj.status)
    _emit(args.out, _trajectory_csv(traj), note)
    return 0


def cmd_portrait(args) -> int:
    spec = parse_flag(args.flag)
    n = args.grid
    if n < 1:
        raise ValueError("grid must be at least 1")
    eqs = find_equilibria(spec, grid_n=args.eq_grid)
    ticks = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    # u-major rows, as the cells are written
    u, v = (g.ravel() for g in np.meshgrid(ticks, ticks, indexing="ij"))
    inside = u + v <= 1.0 + 1e-12
    ui, vi = u[inside], v[inside]
    # one field call and one ensemble over the in-domain cells, each row
    # bit-equal to its cell alone
    y = reduced_field(spec, np.column_stack([ui, vi]))
    starts = np.column_stack([ui, vi, np.maximum(0.0, 1.0 - ui - vi)])
    trajs = integrate_many(spec, starts, t_max=args.t_max, rtol=args.rtol, atol=args.atol)
    cells = zip(y.tolist(), trajs)
    rows = []
    for uk, vk, in_domain in zip(u.tolist(), v.tolist(), inside.tolist()):
        if not in_domain:
            rows.append((uk, vk, "nan", "nan", "0", "nan", "nan", ""))
            continue
        (yu, yv), traj = next(cells)
        eq = classify_limit(traj, eqs)
        label = "undecided" if eq is None else "eq(%s)" % ";".join(map(fmt, eq.point))
        end_u, end_v, _ = traj.final_state.tolist()
        rows.append((uk, vk, yu, yv, "1", end_u, end_v, label))
    text = _csv("u,v,Yu,Yv,in_domain,end_u,end_v,limit", rows)
    _emit(args.out, text, "%d rows" % (n * n))
    return 0


def cmd_equilibria(args) -> int:
    spec = parse_flag(args.flag)
    eqs = find_equilibria(spec, grid_n=args.grid, newton_tol=args.newton_tol)
    payload = json.dumps([e.as_dict() for e in eqs], indent=2)
    _emit(args.out, payload + "\n", "%d equilibria" % len(eqs))
    return 0


def cmd_realize(args) -> int:
    x = parse_point(args.point)
    membership = disk_membership(x)
    if membership == "outside":
        print(
            "error: point %s is outside the realizable region (F = %s)"
            % (fmt_vec(x), fmt(cone_form(x))),
            file=sys.stderr,
        )
        return 1
    frame = realizing_frame(x)
    payload = {
        "x": [float(v) for v in x],
        "F": float(cone_form(x)),
        "membership": membership,
        "mu_inverse": coeffs_to_psd(realized_coeffs(x)).tolist(),
        "tau": [[float(v) for v in row] for row in frame],
        "H1_omega_coords": [float(v) for v in frame[:, 0]],
        "H2_omega_coords": [float(v) for v in frame[:, 1]],
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_orbit(args) -> int:
    spec = parse_flag(args.flag)
    model = build_model(*_flag_blocks(spec))
    if args.point is not None:
        tau = realizing_frame(parse_point(args.point))
    else:
        _require(args, "h1", "h2")
        # column k of tau holds the omega coordinates of h_k
        tau = np.array([parse_point(args.h1, dim=2), parse_point(args.h2, dim=2)]).T
    cloud = sample_orbit(model, model.frame(tau), args.count, args.seed)
    if not args.out:
        cloud.write_json(sys.stdout)
        return 0
    # streamed: the text is never whole in memory
    with _atomic_open(args.out) as fh:
        cloud.write_json(fh)
    print("wrote %s (%d points in su(%d)^2)" % (args.out, cloud.count, cloud.n_ambient))
    return 0


def cmd_collapse(args) -> int:
    spec = parse_flag(args.flag)
    model = build_model(*_flag_blocks(spec))
    x0 = parse_point(args.point)
    times = parse_point(args.times, dim=None)
    try:
        run = collapse_run(
            spec,
            model,
            x0,
            times,
            count=args.count,
            seed=args.seed,
            rtol=args.rtol,
            atol=args.atol,
        )
    except NonRealizableError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    rows = np.column_stack([run.times, run.states, run.distances])
    note = "limit %s, resolution %s" % (fmt_vec(run.x_limit), fmt(run.resolution))
    _emit(args.out, _csv("t,x1,x2,x3,hausdorff", rows.tolist()), note)
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_all(fast=args.fast)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print("[%s] %-*s  %s" % (status, width, r.name, r.detail))
        ok = ok and r.passed
    return 0 if ok else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="flagricci",
        description="Ricci-flow lab for three-summand flag manifolds",
    )
    parser.add_argument("--config", help="key = value config file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    sub_map = {}

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        sub_map[name] = p
        return p

    common_flag = dict(help="family string: A:m,n,p | D:ell | E")
    ignored = dict(help="ignored; kept for compatibility")

    p = add("field", cmd_field, "evaluate the field and cone data at a point")
    p.add_argument("--flag", **common_flag)
    p.add_argument("--point", help="x1,x2,x3 (fractions allowed)")

    p = add("flow", cmd_flow, "integrate the projected flow, write trajectory CSV")
    p.add_argument("--flag", **common_flag)
    p.add_argument("--point", help="start point x1,x2,x3")
    p.add_argument("--t-max", type=float, default=T_MAX)
    p.add_argument("--rtol", type=float, default=RTOL)
    p.add_argument("--atol", type=float, default=ATOL)
    p.add_argument("--out")

    p = add("portrait", cmd_portrait, "grid of reduced-field vectors and endpoints")
    p.add_argument("--flag", **common_flag)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--eq-grid", type=int, default=20, **ignored)
    p.add_argument("--t-max", type=float, default=T_MAX)
    p.add_argument("--rtol", type=float, default=RTOL)
    p.add_argument("--atol", type=float, default=ATOL)
    p.add_argument("--out")

    p = add("equilibria", cmd_equilibria, "find equilibria, write JSON")
    p.add_argument("--flag", **common_flag)
    p.add_argument("--grid", type=int, default=30, **ignored)
    p.add_argument("--newton-tol", type=float, default=1e-12, **ignored)
    p.add_argument("--out")

    p = add("realize", cmd_realize, "realize metric coefficients by a torus frame")
    p.add_argument("--point", help="x1,x2,x3 on the realizable disk")
    p.add_argument("--out")

    p = add("orbit", cmd_orbit, "sample an adjoint-orbit cloud, write JSON")
    p.add_argument("--flag", **common_flag)
    p.add_argument("--point", help="realize this point and use its frame")
    p.add_argument("--h1", help="omega coordinates c1,c2 of the first torus direction")
    p.add_argument("--h2", help="omega coordinates of the second torus direction")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = add("collapse", cmd_collapse, "exact orbit distances along a collapsing flow")
    p.add_argument("--flag", **common_flag)
    p.add_argument("--point", help="start point on the realizable disk")
    p.add_argument("--times", help="comma-separated sample times")
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rtol", type=float, default=RTOL)
    p.add_argument("--atol", type=float, default=ATOL)
    p.add_argument("--out")

    p = add("verify", cmd_verify, "run the full invariant suite")
    p.add_argument("--fast", action="store_true", help="smaller sample counts")

    return parser, sub_map


_REQUIRED = {
    "field": ("flag", "point"),
    "flow": ("flag", "point"),
    "portrait": ("flag",),
    "equilibria": ("flag",),
    "realize": ("point",),
    "orbit": ("flag",),
    "collapse": ("flag", "point", "times"),
    "verify": (),
}


def _coerce(action: argparse.Action, raw: str):
    if isinstance(action, argparse._StoreTrueAction):
        low = raw.lower()
        if low not in ("true", "false", "1", "0", "yes", "no"):
            raise ValueError("bad boolean %r for --%s" % (raw, action.dest))
        return low in ("true", "1", "yes")
    return action.type(raw) if action.type else raw


def main(argv=None) -> int:
    parser, sub_map = build_parser()
    args, _ = parser.parse_known_args(argv)
    try:
        if args.config:
            defaults = load_config(args.config)
            for action in sub_map[args.command]._actions:
                if action.dest in defaults:
                    action.default = _coerce(action, defaults.pop(action.dest))
            if defaults:
                raise ValueError(
                    "unknown config keys for %s: %s"
                    % (args.command, ", ".join(sorted(defaults)))
                )
        args = parser.parse_args(argv)
        _require(args, *_REQUIRED[args.command])
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader left early, as in `flagricci orbit ... | head`: stop
        # quietly, and point stdout at devnull so the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, IntegrationError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
