"""The benchmark's three workloads: portrait, collapse and cli.

Each workload builds its specs and models in setup (timed as setup_s),
derives its inputs from the seed, runs whole rounds of the same operations,
and afterwards checks every round's outputs against oracle.py. A round
returns one timed sample per operation, in the same order every round, each
tagged "task", "rate" or both (see run.aggregate).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import re
import time
import traceback

import numpy as np
from scipy.spatial.distance import cdist

import oracle

clock = time.perf_counter
TASK, RATE, TASK_RATE = ("task",), ("rate",), ("task", "rate")
_PROBE_POINTS = np.random.default_rng(0).standard_normal((200, 144))


def probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch flagricci.

    It mixes what the workloads spend their time on: a Python loop of small
    numpy operations and a cdist over mid-sized arrays (about 5 ms in all).
    """
    t0 = clock()
    x = np.array([0.3, 0.3, 0.4])
    for _ in range(200):
        y = np.stack([x[0] * x[1], x[1] * x[2], x[2] * x[0]])
        x = x + 1e-3 * (y - y.sum() * x)
    cdist(_PROBE_POINTS, _PROBE_POINTS).min()
    return clock() - t0


class Stopwatch:
    """Times the operations of a round, probing the machine's speed between them.

    An operation is one or more segments: checkpoint() closes a segment inside
    a long operation with a probe of its own. Each segment's time is divided
    by the mean of the probes on either side of it; probe time is not counted.
    """

    def __init__(self):
        self._ops = []

    def start(self):
        self._segments = []
        self._probe = probe()
        self._t0 = clock()

    def checkpoint(self):
        dt = clock() - self._t0
        after = probe()
        self._segments.append((dt, self._probe, after))
        self._probe = after
        self._t0 = clock()

    def stop(self, tags):
        # the probe after the last segment is the next operation's first one
        self._segments.append((clock() - self._t0, self._probe, None))
        self._ops.append((tags, self._segments))

    def samples(self):
        """(tags, seconds, seconds in probe units) per operation."""
        final = probe()
        out = []
        for k, (tags, segments) in enumerate(self._ops):
            nxt = self._ops[k + 1][1][0][1] if k + 1 < len(self._ops) else final
            dt, before, _ = segments[-1]
            segments = segments[:-1] + [(dt, before, nxt)]
            seconds = sum(dt for dt, _, _ in segments)
            probes = sum(2.0 * dt / (p0 + p1) for dt, p0, p1 in segments)
            out.append((tags, seconds, probes))
        return out


class Ledger:
    """Operations attempted in a run, the failed ones, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.correct = True
        self.notes: list[str] = []

    def new_op(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op, why, wrong=False):
        """Count op as failed; wrong=True marks an output that failed its check."""
        self.failed.add(op)
        if wrong:
            self.correct = False
        if len(self.notes) < 20:
            self.notes.append(("WRONG: " if wrong else "FAILED: ") + why)

    def wrong(self, op, why):
        self.fail(op, why, wrong=True)

    def error(self, op, what):
        self.fail(op, "%s raised %s" % (what, traceback.format_exc(limit=-1).strip()))


def _start_op(ledger, tracer):
    if tracer is not None:
        tracer.next_op()
    return ledger.new_op()


def _match_equilibria(found, exact, ledger, op, label):
    """found: list of (point, location). Same set as exact, and 4/3/3 by location."""
    locs = [loc for _, loc in exact]
    counts = tuple(locs.count(k) for k in ("interior", "face", "vertex"))
    if counts != (4, 3, 3):
        ledger.wrong(op, "%s: exact solve gave %s equilibria" % (label, counts))
    if len(found) != len(exact):
        ledger.wrong(op, "%s: %d equilibria, exact %d" % (label, len(found), len(exact)))
        return
    for pt, loc in exact:
        d = [float(np.linalg.norm(np.asarray(p) - pt)) for p, _ in found]
        k = int(np.argmin(d))
        if d[k] > 1e-9 or found[k][1] != loc:
            ledger.wrong(op, "%s: exact %s %s not found (closest %.2e)" % (label, loc, pt, d[k]))
            return


def _nearest_exact(point, exact):
    return min(float(np.linalg.norm(np.asarray(point) - pt)) for pt, _ in exact)


# --- portrait ----------------------------------------------------------------


def _trajectory_summary(traj):
    """(end point, end time, max F recomputed along the states), or None."""
    if traj is None:
        return None
    f_max = float(oracle.cone_form(traj.states).max())
    return traj.final_state.copy(), float(traj.times[-1]), f_max


PORTRAIT_FAMILIES = [("A", (1, 1, 1)), ("A", (3, 2, 1)), ("D", (5,)), ("D", (8,)), ("E", ())]
STARTS_PER_KIND = 8
SIMPLEX_ON_FACES = 2
PORTRAIT_T_MAX = 50.0
CLASSIFY_TOL = 1e-4


class Portrait:
    """Phase portraits: equilibria, seeded starts of three kinds, limit classification.

    Most of the time goes to fields and flow (short trajectories that keep
    only the final state, and the Newton grid); orbits and collapse are
    never called.
    """

    name = "portrait"
    tasks_per_round = len(PORTRAIT_FAMILIES)
    # figures printed by name, in raw seconds: name -> (unit, value from run.aggregate)
    named = {
        "portrait_s": ("s", lambda a: a["task_s"]),
        "trajectories_per_s": ("1/s", lambda a: a["ops_per_s"]),
    }

    def setup(self, fr):
        return [fr.make_flag(f, p) for f, p in PORTRAIT_FAMILIES]

    def inputs(self, rng):
        out = []
        for _ in PORTRAIT_FAMILIES:
            n = STARTS_PER_KIND
            starts = [("disk", x) for x in oracle.disk_points(rng, n, 0.98)]
            starts += [("circle", x) for x in oracle.circle_points(rng, n)]
            starts += [("simplex", x) for x in oracle.simplex_points(rng, n, SIMPLEX_ON_FACES)]
            out.append(starts)
        return out

    def run_round(self, fr, specs, inputs, ledger, tracer, out_dir):
        watch, outputs = Stopwatch(), []
        for spec, starts in zip(specs, inputs):
            eq_op = _start_op(ledger, tracer)
            watch.start()
            try:
                eqs = fr.find_equilibria(spec)
            except Exception:
                ledger.error(eq_op, "find_equilibria(%s)" % spec.label)
                eqs = []
            watch.stop(TASK)
            trajs = []
            for _, x0 in starts:
                op = _start_op(ledger, tracer)
                watch.start()
                try:
                    tr = fr.integrate(spec, x0, t_max=PORTRAIT_T_MAX)
                except Exception:
                    ledger.error(op, "integrate(%s, %r)" % (spec.label, list(x0)))
                    tr = None
                watch.stop(TASK_RATE)
                trajs.append((op, tr))
            watch.start()
            limits = [None if tr is None else fr.classify_limit(tr, eqs) for _, tr in trajs]
            watch.stop(TASK)
            # keep what the checks need, not the histories, so that memory
            # does not grow with the number of rounds
            kept = [(op, _trajectory_summary(tr)) for op, tr in trajs]
            outputs.append((eq_op, eqs, kept, limits))
        return watch.samples(), outputs

    def check(self, inputs, rounds, ledger):
        exact = [oracle.exact_equilibria(f, p) for f, p in PORTRAIT_FAMILIES]
        reference = {}
        for outputs in rounds:
            for fam, (eq_op, eqs, trajs, limits), starts, ex in zip(
                PORTRAIT_FAMILIES, outputs, inputs, exact
            ):
                label = "%s%s" % fam
                found = [(e.point, e.location) for e in eqs]
                _match_equilibria(found, ex, ledger, eq_op, label)
                seen_kinds = set()
                for (op, tr), lim, (kind, x0) in zip(trajs, limits, starts):
                    if tr is None:
                        continue
                    end, t_end, f_max = tr
                    if kind in ("disk", "circle") and f_max > 1e-8:
                        ledger.wrong(op, "%s: F reached %.2e from %s start" % (label, f_max, kind))
                    if lim is None:
                        ledger.fail(op, "%s: start %r unclassified" % (label, list(x0)))
                    elif (
                        _nearest_exact(lim.point, ex) > 1e-9
                        or float(np.linalg.norm(end - lim.point)) > CLASSIFY_TOL
                    ):
                        msg = "%s: limit %s is not the exact equilibrium at the end"
                        ledger.wrong(op, msg % (label, lim.point))
                    if kind not in seen_kinds:
                        # first start of each kind: end point against solve_ivp
                        seen_kinds.add(kind)
                        key = (label, kind)
                        if key not in reference:
                            reference[key] = oracle.reference_endpoint(*fam, x0, t_end)
                        err = float(np.linalg.norm(end - reference[key]))
                        if err > 1e-6:
                            ledger.wrong(op, "%s: end point off solve_ivp by %.2e" % (label, err))


# --- collapse ----------------------------------------------------------------

COLLAPSE_BLOCKS = [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 2)]
COLLAPSE_START = (0.42, 0.40, 0.18)
COLLAPSE_TIMES = (0.0, 1.0, 2.0, 4.0, 8.0)
CLOUD_POINTS = 2000
SWEEP_BLOCKS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 3, 3)]
SWEEP_POINTS = [
    (0.0, 0.5, 0.5),
    (0.5, 0.0, 0.5),
    (0.5, 0.5, 0.0),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
]


class Collapse:
    """collapse_run profiles with 2000-point clouds, then a verdict sweep up to su(9).

    Most of the time goes to orbits (Haar sampling), collapse (cdist and the
    bracket scan) and realize; flow runs one long trajectory per profile.
    """

    name = "collapse"
    tasks_per_round = len(COLLAPSE_BLOCKS)
    named = {
        "profiles_per_s": ("1/s", lambda a: 1.0 / a["task_s"]),
        "verdicts_per_s": ("1/s", lambda a: a["ops_per_s"]),
    }

    def setup(self, fr):
        profiles = [(b, fr.make_flag("A", b), fr.build_model(*b)) for b in COLLAPSE_BLOCKS]
        sweep = [fr.build_model(*b) for b in SWEEP_BLOCKS]
        return profiles, sweep

    def inputs(self, rng):
        # the seed picks the Haar samples of each profile's clouds
        return [int(s) for s in rng.integers(0, 2**31, size=len(COLLAPSE_BLOCKS))]

    def run_round(self, fr, state, cloud_seeds, ledger, tracer, out_dir):
        profiles, sweep = state
        x0 = np.array(COLLAPSE_START)
        watch, runs, verdicts = Stopwatch(), [], []
        for (blocks, spec, model), seed in zip(profiles, cloud_seeds):
            op = _start_op(ledger, tracer)
            watch.start()
            try:
                run = fr.collapse_run(
                    spec, model, x0, COLLAPSE_TIMES, count=CLOUD_POINTS, seed=seed
                )
            except Exception:
                ledger.error(op, "collapse_run(%s)" % spec.label)
                run = None
            watch.stop(TASK)
            if run is not None:
                runs.append((op, blocks, run.states, run.distances, run.x_limit))
        for model in sweep:
            for x in SWEEP_POINTS:
                op = _start_op(ledger, tracer)
                watch.start()
                try:
                    v = fr.collapse_verdict(model, np.array(x))
                except Exception:
                    ledger.error(op, "collapse_verdict(%s, %r)" % (model.blocks, x))
                    v = None
                watch.stop(RATE)
                if v is not None:
                    verdicts.append((op, x, v))
        return watch.samples(), (runs, verdicts)

    def check(self, inputs, rounds, ledger):
        for runs, verdicts in rounds:
            for run in runs:
                _check_profile(ledger, *run)
            for op, x, v in verdicts:
                kernel, expected = oracle.expected_verdict(x)
                if v.verdict != expected or tuple(v.kernel) != kernel:
                    msg = "verdict at %r: %s, block rule says %s"
                    ledger.wrong(op, msg % (x, v.verdict, expected))
                elif expected == "non_realizable" and v.witness["leaks_into"] in kernel:
                    ledger.wrong(op, "witness at %r leaks into a killed summand" % (x,))


def _check_profile(ledger, op, blocks, states, distances, x_limit):
    """exact <= sampled <= matched at every sample time, and a realizable limit."""
    label = "A%s" % (blocks,)
    if len(distances) != len(COLLAPSE_TIMES):
        msg = "%s: %d distances, expected %d"
        ledger.wrong(op, msg % (label, len(distances), len(COLLAPSE_TIMES)))
        return
    if oracle.expected_verdict(x_limit)[1] != "realizable":
        ledger.wrong(op, "%s: limit %r not realizable by the block rule" % (label, list(x_limit)))
    for x, d in zip(states, distances):
        exact, matched, norm = oracle.orbit_distances(blocks, x, x_limit)
        tol = 1e-9 * norm
        if not exact - tol <= d <= matched + tol:
            msg = "%s: distance %.17g outside [%.17g, %.17g]"
            ledger.wrong(op, msg % (label, d, exact, matched))


# --- cli ---------------------------------------------------------------------

FLOW_DEFAULT = ["A:1,1,1", "D:5", "E"]
FLOW_TIGHT = ["A:2,1,1", "D:8"]
TIGHT = ["--rtol", "1e-12", "--atol", "1e-14", "--t-max", "200"]
EQUILIBRIA_CONFIG = "flag = A:3,2,1\ngrid = 30\nnewton-tol = 1e-12\n"
PORTRAIT_GRID = 6
ORBIT_BLOCKS = (2, 2, 2)
VERIFY_LINES = 20


def _point(x):
    return ",".join("%.17g" % v for v in x)


class Cli:
    """The command line as a user runs it, through flagricci.cli.main in this process.

    Every step of a flow is kept and written, unlike in portrait; this is
    also the only workload that exercises the cli layer and verify.
    """

    name = "cli"
    tasks_per_round = 1
    named = {
        "verify_s": ("s", lambda a: a["task_s"]),
        "commands_s": ("s", lambda a: a["rate_s"]),
    }

    def setup(self, fr):
        import flagricci.cli

        return flagricci.cli

    def inputs(self, rng):
        """(command, data for its check, argv); {dir} is the round's output directory."""
        disk = oracle.disk_points(rng, len(FLOW_DEFAULT) + len(FLOW_TIGHT) + 2, 0.95)
        cmds = [("verify", None, ["verify"])]
        for i, fam in enumerate(FLOW_DEFAULT + FLOW_TIGHT):
            extra = TIGHT if fam in FLOW_TIGHT else ["--t-max", "50"]
            argv = ["flow", "--flag", fam, "--point", _point(disk[i])] + extra
            cmds.append(("flow", (fam, disk[i]), argv + ["--out", "{dir}/flow-%d.csv" % i]))
        cmds.append(
            (
                "equilibria",
                ("A", (3, 2, 1)),
                ["--config", "{dir}/equilibria.cfg", "equilibria"]
                + ["--out", "{dir}/equilibria.json"],
            )
        )
        argv = ["portrait", "--flag", "D:8", "--grid", str(PORTRAIT_GRID), "--eq-grid", "10"]
        cmds.append(("portrait", ("D", (8,)), argv + ["--out", "{dir}/portrait.csv"]))
        orbit_x, seed = disk[-2], int(rng.integers(0, 2**31))
        argv = ["orbit", "--flag", "A:%d,%d,%d" % ORBIT_BLOCKS, "--point", _point(orbit_x)]
        argv += ["--count", "2000", "--seed", str(seed), "--out", "{dir}/orbit.json"]
        cmds.append(("orbit", (orbit_x, seed), argv))
        argv = ["collapse", "--flag", "A:1,1,1", "--point", _point(COLLAPSE_START)]
        argv += ["--times", ",".join("%g" % t for t in COLLAPSE_TIMES), "--count", "2000"]
        argv += ["--seed", str(int(rng.integers(0, 2**31))), "--out", "{dir}/collapse.csv"]
        cmds.append(("collapse", None, argv))
        argv = ["realize", "--point", _point(disk[-1]), "--out", "{dir}/realize.json"]
        cmds.append(("realize", disk[-1], argv))
        field_x = oracle.simplex_points(rng, 1, 0)[0]
        argv = ["field", "--flag", "D:5", "--point", _point(field_x)]
        cmds.append(("field", ("D", (5,), field_x), argv))
        return cmds

    def run_round(self, fr, cli, cmds, ledger, tracer, out_dir):
        out_dir.mkdir(parents=True)
        (out_dir / "equilibria.cfg").write_text(EQUILIBRIA_CONFIG)
        watch, results = Stopwatch(), []
        if tracer is None:
            # verify runs for 15 s or more, 12 s of it in one check: probe
            # between its checks and before every 10th trajectory it
            # integrates (it calls flow.integrate through the module; the
            # other commands hold their own reference and are not probed)
            verify = cli.verify_mod
            checks = verify.ALL_CHECKS
            checks[:] = [(label, _checkpointed(watch, fn, 1)) for label, fn in checks]
            verify.flow.integrate = _checkpointed(watch, verify.flow.integrate, 10)
        for name, meta, argv in cmds:
            argv = [a.replace("{dir}", str(out_dir)) for a in argv]
            op = _start_op(ledger, tracer)
            out, err = io.StringIO(), io.StringIO()
            watch.start()
            span = tracer.span("cli." + name) if tracer is not None else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                ledger.error(op, "cli %s" % " ".join(argv))
                rc = None
            watch.stop(TASK if name == "verify" else RATE)
            if rc not in (0, None):
                msg = "cli %s exited %s: %s"
                ledger.fail(op, msg % (" ".join(argv), rc, err.getvalue().strip()))
            results.append((op, name, meta, argv, rc, out.getvalue()))
        return watch.samples(), results

    def check(self, cmds, rounds, ledger):
        exact = {}
        for results in rounds:
            for op, name, meta, argv, rc, stdout in results:
                if rc != 0:
                    continue
                try:
                    _CLI_CHECKS[name](ledger, op, meta, argv, stdout, exact)
                except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
                    ledger.wrong(op, "cli %s: output unreadable (%s)" % (name, exc))


def _checkpointed(watch, fn, every):
    """fn, with a watch checkpoint before every `every`-th call."""
    calls = itertools.count()

    def checked(*args, **kwargs):
        if next(calls) % every == 0:
            watch.checkpoint()
        return fn(*args, **kwargs)

    return checked


def _out_path(argv):
    return argv[argv.index("--out") + 1]


def _exact_for(exact, fam):
    if fam not in exact:
        exact[fam] = oracle.exact_equilibria(*fam)
    return exact[fam]


def _check_verify(ledger, op, meta, argv, stdout, exact):
    lines = stdout.splitlines()
    passed = sum(1 for ln in lines if ln.startswith("[PASS]"))
    if passed != VERIFY_LINES or len(lines) != VERIFY_LINES:
        ledger.wrong(op, "verify printed %d PASS lines of %d" % (passed, len(lines)))


def _check_flow(ledger, op, meta, argv, stdout, exact):
    fam, x0 = meta
    with open(_out_path(argv)) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "x1", "x2", "x3", "F", "sum_residual"] or len(rows) < 3:
        ledger.wrong(op, "flow %s: bad CSV header or too few rows" % fam)
        return
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    t, x, f = data[:, 0], data[:, 1:4], data[:, 4]
    worst_sum = float(np.abs(x.sum(axis=1) - 1.0).max())
    worst_f = float(np.abs(f - oracle.cone_form(x)).max())
    if (
        t[0] != 0.0
        or np.any(np.diff(t) <= 0)
        or np.any(x < 0.0)
        or worst_sum > 1e-12
        or worst_f > 1e-12
        or float(np.abs(x[0] - x0 / x0.sum()).max()) > 1e-15
    ):
        msg = "flow %s: rows off the simplex (sum err %.2e, F err %.2e)"
        ledger.wrong(op, msg % (fam, worst_sum, worst_f))


def _check_equilibria(ledger, op, meta, argv, stdout, exact):
    with open(_out_path(argv)) as fh:
        found = [(np.array(e["point"]), e["location"]) for e in json.load(fh)]
    _match_equilibria(found, _exact_for(exact, meta), ledger, op, "cli equilibria")


def _check_portrait(ledger, op, meta, argv, stdout, exact):
    ex = _exact_for(exact, meta)
    with open(_out_path(argv)) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != PORTRAIT_GRID**2:
        ledger.wrong(op, "portrait: %d rows" % len(rows))
    for r in rows:
        if r["in_domain"] != "1":
            continue
        if r["limit"] == "undecided":
            ledger.fail(op, "portrait: cell (%s, %s) undecided" % (r["u"], r["v"]))
            continue
        pt = np.array([float(v) for v in r["limit"][3:-1].split(";")])
        end = np.array([float(r["end_u"]), float(r["end_v"])])
        if _nearest_exact(pt, ex) > 1e-9 or float(np.linalg.norm(end - pt[:2])) > CLASSIFY_TOL:
            ledger.wrong(op, "portrait: cell (%s, %s) limit %s wrong" % (r["u"], r["v"], pt))


def _check_orbit(ledger, op, meta, argv, stdout, exact):
    x, seed = meta
    with open(_out_path(argv)) as fh:
        doc = json.load(fh)
    fr = oracle.frame(x)
    ph = [oracle.phases(ORBIT_BLOCKS, fr[:, k]) for k in range(2)]
    n = sum(ORBIT_BLOCKS)
    pts = np.array(doc["points"]) / math.sqrt(2.0 * n)
    if doc["count"] != 2000 or pts.shape != (2000, 4 * n * n) or doc["seed"] != seed:
        ledger.wrong(op, "orbit: shape %s" % (pts.shape,))
        return
    worst = 0.0
    for k, key in enumerate(("H1", "H2")):
        worst = max(worst, float(np.abs(np.array(doc[key]) - ph[k]).max()))
        block = pts[:, 2 * k * n * n : (2 * k + 2) * n * n]
        a = (block[:, : n * n] + 1j * block[:, n * n :]).reshape(-1, n, n)
        # a = u (i diag(phases)) u^*, so -i a is Hermitian with the phases as spectrum
        spec = np.linalg.eigvalsh(-1j * a)
        worst = max(worst, float(np.abs(spec - np.sort(ph[k])).max()))
    if worst > 1e-12:
        ledger.wrong(op, "orbit: spectra off the frame phases by %.2e" % worst)


_LIMIT = re.compile(r"limit \(([^)]*)\)")


def _check_collapse(ledger, op, meta, argv, stdout, exact):
    with open(_out_path(argv)) as fh:
        rows = list(csv.DictReader(fh))
    x_limit = np.array([float(v) for v in _LIMIT.search(stdout).group(1).split(",")])
    states = np.array([[float(r["x1"]), float(r["x2"]), float(r["x3"])] for r in rows])
    dists = np.array([float(r["hausdorff"]) for r in rows])
    _check_profile(ledger, op, (1, 1, 1), states, dists, x_limit)


def _check_realize(ledger, op, meta, argv, stdout, exact):
    with open(_out_path(argv)) as fh:
        doc = json.load(fh)
    err = float(np.abs(np.array(doc["tau"]) - oracle.frame(meta)).max())
    f_err = abs(doc["F"] - float(oracle.cone_form(meta)))
    if err > 1e-13 or f_err > 1e-15 or doc["membership"] != "interior":
        ledger.wrong(op, "realize: tau off the eigh square root by %.2e" % err)


def _check_field(ledger, op, meta, argv, stdout, exact):
    fam, params, x = meta
    vals = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" = ")
        vals[key] = rest
    vec = lambda s: np.array([float(v) for v in s.strip("()").split(",")])
    r_ref, x_ref = oracle.ricci(fam, params, x), oracle.projected(fam, params, x)
    err = max(
        float(np.abs(vec(vals["R"]) - r_ref).max()),
        float(np.abs(vec(vals["X"]) - x_ref).max()),
        abs(float(vals["F"]) - float(oracle.cone_form(x))),
    )
    if err > 1e-14:
        ledger.wrong(op, "field: off the reference by %.2e" % err)


_CLI_CHECKS = {
    "verify": _check_verify,
    "flow": _check_flow,
    "equilibria": _check_equilibria,
    "portrait": _check_portrait,
    "orbit": _check_orbit,
    "collapse": _check_collapse,
    "realize": _check_realize,
    "field": _check_field,
}

WORKLOADS = {w.name: w for w in (Portrait(), Collapse(), Cli())}
