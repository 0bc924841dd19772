"""flagricci benchmark: one workload per run, metrics as a JSON last line.

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer ones (one untraced round first, for the tracing overhead). See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Cap BLAS/OpenMP threads before numpy loads: one thread keeps the figures
# steady on a small shared machine, and the kernels here are too small to
# gain from more.
THREADS = "1"
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = THREADS

import importlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("task_probes", "probe"),
    ("ops_per_probe", "1/probe"),
]


def import_package(workload):
    """Import flagricci afresh from the checkout and run the workload's setup.

    Returns (seconds, package, setup state). Every flagricci module is dropped
    from sys.modules first, so each call pays the package's own import; numpy
    and scipy stay loaded after the first call.
    """
    for key in [k for k in sys.modules if k == "flagricci" or k.startswith("flagricci.")]:
        del sys.modules[key]
    t0 = time.perf_counter()
    fr = importlib.import_module("flagricci")
    state = workload.setup(fr)
    return time.perf_counter() - t0, fr, state


def aggregate(workload, rounds_samples):
    """Workload figures from per-operation samples of whole rounds.

    The speed of a shared machine drifts by tens of percent over tens of
    seconds, so each operation's time is also divided by the probe time
    measured around it. For every operation the median over the rounds is
    taken, then the operations are summed: the task ones per task (task_*),
    the rate ones into a throughput (ops_per_*). The raw seconds are kept for
    the figures printed by name.
    """
    per_op = list(zip(*rounds_samples))
    tags = [op[0][0] for op in per_op]
    rel = [statistics.median(n for _, _, n in op) for op in per_op]
    sec = [statistics.median(dt for _, dt, _ in op) for op in per_op]

    def total(values, tag):
        return sum(v for v, t in zip(values, tags) if tag in t)

    n_rate = sum(1 for t in tags if "rate" in t)
    return {
        "task_probes": total(rel, "task") / workload.tasks_per_round,
        "ops_per_probe": n_rate / total(rel, "rate"),
        "task_s": total(sec, "task") / workload.tasks_per_round,
        "ops_per_s": n_rate / total(sec, "rate"),
        "rate_s": total(sec, "rate"),
        "probe_s": statistics.median(dt / n for op in per_op for _, dt, n in op if n),
    }


def check_metric_names():
    """The names printed must be the ones BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    if declared != {"end_to_end": END_TO_END, "per_layer": spans.per_layer_names()}:
        raise SystemExit("error: metric names differ from BENCHMARK.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "flagricci" / "__init__.py").is_file():
        print("error: no flagricci package under %s" % SRC, file=sys.stderr)
        return 2
    check_metric_names()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    inputs = workload.inputs(np.random.default_rng(args.seed))
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    ledger = Ledger()
    tracer = None
    setup_times = []
    outputs, samples, walls = [], [], []
    untraced_wall = None
    t_start = time.perf_counter()
    while True:
        if tracer is None:
            # set up again before every untraced round, so that setup_s
            # samples the machine across the whole run
            for _ in range(SETUP_REPEATS):
                dt, fr, state = import_package(workload)
                setup_times.append(dt)
            if Path(fr.__file__).resolve().parent != SRC / "flagricci":
                print("error: flagricci imported from %s" % fr.__file__, file=sys.stderr)
                return 2
        if args.trace and untraced_wall is not None and tracer is None:
            tracer = spans.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        smp, out = workload.run_round(
            fr, state, inputs, ledger, tracer, out_dir / ("round-%d" % len(outputs))
        )
        wall = time.perf_counter() - t0
        outputs.append(out)
        print("round %d: %.6g s" % (len(outputs) - 1, wall), file=sys.stderr)
        if args.trace and tracer is None:
            untraced_wall = wall
        else:
            samples.append(smp)
            walls.append(wall)
        elapsed = time.perf_counter() - t_start
        # whole rounds only, as long as the next one should end within --seconds
        if len(outputs) >= MIN_ROUNDS and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.check(inputs, outputs, ledger)
    for line in ledger.notes:
        print(line, file=sys.stderr)

    agg = aggregate(workload, samples)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "task_probes": agg["task_probes"],
            "ops_per_probe": agg["ops_per_probe"],
        }
        units = dict(END_TO_END)
    else:
        tracer.save(out_dir / "trace.npz")
        metrics = spans.per_layer_metrics(
            tracer, len(walls), statistics.median(walls), untraced_wall
        )
        units = dict(spans.per_layer_names())
    print(
        "workload %s  seed %d  rounds %d%s  attempted %d  failed %d"
        % (
            args.workload,
            args.seed,
            len(outputs),
            " (1 untraced)" if tracer is not None else "",
            ledger.attempted,
            len(ledger.failed),
        )
    )
    for key, (unit, figure) in workload.named.items():
        print("  %-40s %.6g %s" % (key, figure(agg), unit))
    print("  %-40s %.6g s" % ("probe_s", agg["probe_s"]))
    for key, value in metrics.items():
        print("  %-40s %.6g %s" % (key, value, units[key]))
    if not np.all(np.isfinite(list(metrics.values()))):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
