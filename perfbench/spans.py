"""Span recording for the traced run, and the per-layer metrics derived from it.

Spans are kept in flat arrays (name id, start, end, parent, operation id)
and written out once, when the run ends. A function is wrapped wherever a
flagricci module looks it up by name, so calls between modules (for example
flow -> fields.projected_field, collapse -> flow.integrate) become child
spans of the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Functions whose calls become spans, by layer. Inner kernels that only one
# of these calls (ricci_field, cone_form, integrate_field) stay inside the
# caller's self time, so flow.integrate.self_s is the integrator's own work.
SPANNED = {
    "fields": ("projected_field", "reduced_field", "cone_flux", "cone_flux_closed_form"),
    "flow": ("integrate", "find_equilibria", "jacobian", "classify_limit"),
    "realize": ("realizing_frame", "sample_disk", "sample_cone"),
    "orbits": ("build_model", "sample_orbit", "haar_unitaries", "induced_metric"),
    "collapse": (
        "collapse_run",
        "collapse_verdict",
        "is_subalgebra",
        "hausdorff",
        "sampling_resolution",
    ),
    "verify": ("run_all",),
}
LAYERS = ("fields", "flow", "realize", "orbits", "collapse", "verify", "cli")
VERIFY_CHECKS = (
    "check_flux_identity_a",
    "check_flux_type_d",
    "check_field_homogeneity",
    "check_face_tangency",
    "check_permutation_equivariance",
    "check_projected_field",
    "check_factorization",
    "check_metric_homogeneity",
    "check_section_property",
    "check_cone_characterization",
    "check_convex_hull",
    "check_sqrt_roundtrip",
    "check_oracle_equivalence",
    "check_ad_invariance",
    "check_hausdorff_pseudometric",
    "check_collapse_verdicts",
    "check_disk_invariance",
    "check_integrator_order",
    "check_equilibria",
    "check_no_recurrence",
)
CLI_COMMANDS = (
    "field",
    "flow",
    "portrait",
    "equilibria",
    "realize",
    "orbit",
    "collapse",
    "verify",
)


def _grid_seeds(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    g = int(bound.arguments["grid_n"])
    return g * (g + 1) // 2


def _count_integrate(counts, fn, args, kwargs, traj):
    counts["flow.steps_accepted"] += traj.n_accepted
    counts["flow.steps_rejected"] += traj.n_rejected


def _count_equilibria(counts, fn, args, kwargs, eqs):
    counts["flow.newton_seeds"] += _grid_seeds(fn, args, kwargs)
    counts["flow.equilibria_found"] += len(eqs)


def _count_orbit(counts, fn, args, kwargs, cloud):
    counts["orbits.points_sampled"] += cloud.count


def _count_hausdorff(counts, fn, args, kwargs, result):
    a, b = args[:2]
    counts["collapse.hausdorff.pairs"] += a.count * b.count


def _count_write(counts, fn, args, kwargs, result):
    content = args[1] if len(args) > 1 else kwargs["content"]
    counts["cli.bytes_written"] += len(content.encode())


HOOKS = {
    "flow.integrate": _count_integrate,
    "flow.find_equilibria": _count_equilibria,
    "orbits.sample_orbit": _count_orbit,
    "collapse.hausdorff": _count_hausdorff,
}


class Tracer:
    """Spans of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def next_op(self):
        """Start a new benchmark operation; later spans carry its id."""
        self.op_id += 1

    @contextmanager
    def span(self, name):
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, hook=None):
        # span() inlined with locals bound once: the field functions are
        # called about a million times per traced run
        nid = self._id(name)
        clock = time.perf_counter
        start, end, stack = self.start, self.end, self._stack
        name_id, parent, op = self.name_id, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def counting(self, fn, hook):
        """Wrapper that feeds a counter without recording a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self.counts, fn, args, kwargs, result)
            return result

        return counted

    def install(self):
        """Patch every flagricci module that binds a spanned function by name."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "flagricci" or key.startswith("flagricci."))
        ]
        patches = []
        for layer, fnames in SPANNED.items():
            # a layer the workload never imports is never called
            owner = sys.modules.get("flagricci." + layer)
            if owner is None:
                continue
            for fname in fnames:
                name = "%s.%s" % (layer, fname)
                fn = getattr(owner, fname)
                patches.append((fn, self.wrap(name, fn, HOOKS.get(name))))
        cli = sys.modules.get("flagricci.cli")
        if cli is not None:
            patches.append((cli.atomic_write, self.counting(cli.atomic_write, _count_write)))
        for fn, wrapped in patches:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
        verify = sys.modules.get("flagricci.verify")
        if verify is None:
            return
        verify.ALL_CHECKS[:] = [
            (label, self.wrap("verify." + fn.__name__, fn))
            for label, fn in verify.ALL_CHECKS
        ]

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("fields.projected_field.calls", "count"),
        ("fields.projected_field.self_s", "s"),
        ("fields.projected_field.us_per_call", "us"),
        ("fields.reduced_field.calls", "count"),
        ("fields.reduced_field.self_s", "s"),
        ("flow.integrate.calls", "count"),
        ("flow.integrate.self_s", "s"),
        ("flow.steps_accepted", "count"),
        ("flow.steps_rejected", "count"),
        ("flow.step_accept_ratio", "ratio"),
        ("flow.find_equilibria.calls", "count"),
        ("flow.find_equilibria.self_s", "s"),
        ("flow.jacobian.calls", "count"),
        ("flow.equilibria_per_seed", "ratio"),
        ("flow.classify_limit.self_s", "s"),
        ("realize.realizing_frame.calls", "count"),
        ("realize.realizing_frame.self_s", "s"),
        ("orbits.sample_orbit.calls", "count"),
        ("orbits.sample_orbit.self_s", "s"),
        ("orbits.haar_unitaries.self_s", "s"),
        ("orbits.points_sampled", "count"),
        ("orbits.induced_metric.self_s", "s"),
        ("collapse.hausdorff.calls", "count"),
        ("collapse.hausdorff.self_s", "s"),
        ("collapse.hausdorff.pairs", "count"),
        ("collapse.sampling_resolution.self_s", "s"),
        ("collapse.collapse_run.self_s", "s"),
        ("collapse.is_subalgebra.calls", "count"),
        ("collapse.is_subalgebra.self_s", "s"),
    ]
    out += [("verify.%s.s" % c, "s") for c in VERIFY_CHECKS]
    for c in CLI_COMMANDS:
        out += [("cli.%s.s" % c, "s"), ("cli.%s.self_s" % c, "s")]
    out.append(("cli.bytes_written", "B"))
    out += [("layer.%s.share" % layer, "ratio") for layer in LAYERS]
    out += [
        ("layer.unattributed.share", "ratio"),
        ("trace.spans", "count"),
        ("trace.round_s", "s"),
        ("trace.untraced_round_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return out


def per_layer_metrics(tracer, rounds, traced_wall, untraced_wall):
    """Per-layer figures per traced round; shares are of the traced wall time."""
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0] / rounds

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1] / rounds

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2] / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    vals = {}
    for name, unit in per_layer_names():
        if name.endswith(".us_per_call"):
            base = name[: -len(".us_per_call")]
            v = 1e6 * ratio(incl(base), calls(base))
        elif name.endswith(".calls"):
            v = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            v = own(name[: -len(".self_s")])
        elif name.startswith("verify.") or (name.startswith("cli.") and name.endswith(".s")):
            v = incl(name[: -len(".s")])
        else:
            v = None
        if v is not None:
            vals[name] = v
    acc, rej = counts["flow.steps_accepted"], counts["flow.steps_rejected"]
    vals["flow.steps_accepted"] = acc / rounds
    vals["flow.steps_rejected"] = rej / rounds
    vals["flow.step_accept_ratio"] = ratio(acc, acc + rej)
    vals["flow.equilibria_per_seed"] = ratio(
        counts["flow.equilibria_found"], counts["flow.newton_seeds"]
    )
    vals["orbits.points_sampled"] = counts["orbits.points_sampled"] / rounds
    vals["collapse.hausdorff.pairs"] = counts["collapse.hausdorff.pairs"] / rounds
    vals["cli.bytes_written"] = counts["cli.bytes_written"] / rounds
    share = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, s) in tot.items():
        share[name.split(".", 1)[0]] += s / rounds
    for layer in LAYERS:
        vals["layer.%s.share" % layer] = share[layer] / traced_wall
    vals["layer.unattributed.share"] = 1.0 - sum(share.values()) / traced_wall
    vals["trace.spans"] = len(tracer.start) / rounds
    vals["trace.round_s"] = traced_wall
    vals["trace.untraced_round_s"] = untraced_wall
    vals["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return {name: vals[name] for name, _ in per_layer_names()}
