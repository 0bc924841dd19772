"""CLI output files, byte for byte, against the golden copies in tests/golden/.

The four flow and portrait files were last written when the Dormand-Prince
step became left-to-right float sums in place of BLAS contractions, so the
integrator's bytes no longer depend on which BLAS kernel the CPU selects.
Against the files before it, flow_A211.csv moved in 83 of 85 rows (t by at
most 6.1e-7, x by 5.1e-11), flow_E.csv in 195 of 197 rows (t 1.1e-7, x
1.5e-10) and flow_D8_tight.csv in 703 of 704 rows (t 7.8e-5, x 1.75e-6: the
adaptive step sequence shifts, and its distance to a DOP853 reference stays
1.68e-12). portrait_D8.csv moved in 17 of 36 rows (end_u and end_v by at
most 6.7e-16) and collapse_A111.csv in 4 of 5 rows (x by 1.1e-16, hausdorff
by 1.1e-15).

collapse_A111.csv and verify_fast.txt were last written when realize's
square root became the closed form (Y + sqrt(lo hi) I) / (sqrt(lo) +
sqrt(hi)) of Y's two eigenvalues lo, hi, in place of eigenvectors and a
BLAS product, so the realizing frame's bytes no longer depend on the BLAS
kernel either. collapse_A111.csv moved in 3 of 5 rows (hausdorff by at most
3.3e-16; x did not move). In verify_fast.txt two detail lines moved: the
section property's max rel went from 8.43e-16 to 5.36e-16, and the
symmetric square root's from 7.65e-16 to 4.47e-16. Its convex hull line was
last written when rank1_decompose's terms became the eigenprojectors
(I -/+ [[d, s], [s, -d]]) / 2 of the eigen split in place of outer
products of eigenvectors: reconstruction and linearity went from 3.6e-15
to 1.8e-15.

verify_fast.txt was last written when verify's sample checks, realize's
linear maps and induced_metric became fixed-order elementwise sums with no
BLAS call, and the Ad-invariance check's unitaries Givens rotations in real
arithmetic in place of haar_unitaries. Three detail lines moved: the metric
factorization's max rel from 5.72e-16 to 4.35e-16, the convex hull's
linearity from 1.8e-15 to 3.6e-15, and Ad-invariance's max rel from
1.60e-15 to 9.12e-16.

orbit_A211.json and the latest verify_fast.txt were written when
sample_orbit began to build each point as i (h_3 I + (h_1 - h_3) P_1 +
(h_2 - h_3) P_2) from Gaussian columns orthonormalized by CGS2 in
elementwise float arithmetic (orbits._orthonormalize), in place of
haar_unitaries' QR and two BLAS products, so the orbit bytes no longer
depend on the BLAS kernel and the orbit file became a golden case. Its 65
points cross write_json's block of 64 rows. verify's Ad-invariance check
takes its unitaries from the same orthonormalizer in place of Givens
rotations, and two detail lines of verify_fast.txt moved: Ad-invariance's
max rel from 9.12e-16 to 5.61e-16, and the Hausdorff pseudometric's d_ab,
which samples three clouds, from 3.598 to 3.494.

equilibria_A321.json holds the ten closed-form equilibria, each point
coordinate and Einstein constant the exact rational rounded once to float,
so its bytes depend on no BLAS kernel. It and the limit column of
portrait_D8.csv were last written when the closed forms replaced the
seeded Newton search. Matched in order (the same order, stabilities and
locations), 6 of the 10 equilibria in equilibria_A321.json moved: 15 point
coordinates by at most 1.09e-14 and 5 Einstein constants by at most
2.17e-14, the face midpoints' to exactly 0.0. portrait_D8.csv moved in 8 of
36 rows, only in the limit column's equilibrium labels, each coordinate by
at most 2.2e-16: eq(0.25000000000000011;0.25000000000000011;
0.49999999999999978) became eq(0.25;0.25;0.5), and
eq(0.49999999999999994;0.5;0) became eq(0.5;0.5;0).

To regenerate a CSV or JSON file, run the command of its case with
`--out tests/golden/<name>`; any change in these bytes must be deliberate.
A mismatch is sized by csv_changes (rows changed, largest change per column)
or json_changes (numbers changed, largest change), by the file's suffix,
and test_golden_flow_is_accurate holds the flow files to an independent
solution, so a regeneration cannot hide a loss of accuracy.

verify_fast.txt is the stdout of `flagricci verify --fast`. Its digits
depend on the platform's libm and numpy's SIMD paths; it was written on
x86-64 Linux (glibc, AVX-512).
"""

import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flagricci.cli import main, parse_flag
from flagricci.fields import projected_field

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "flow_A211.csv": ["flow", "--flag", "A:2,1,1", "--point", "0.3,0.3,0.4"],
    "flow_E.csv": ["flow", "--flag", "E", "--point", "0.2,0.3,0.5"],
    "flow_D8_tight.csv": [
        "flow",
        "--flag",
        "D:8",
        "--point",
        "0.3,0.3,0.4",
        "--rtol",
        "1e-12",
        "--atol",
        "1e-14",
        "--t-max",
        "200",
    ],
    "portrait_D8.csv": ["portrait", "--flag", "D:8", "--grid", "6", "--eq-grid", "10"],
    "equilibria_A321.json": ["equilibria", "--flag", "A:3,2,1"],
    "collapse_A111.csv": [
        "collapse",
        "--flag",
        "A:1,1,1",
        "--point",
        "0.42,0.40,0.18",
        "--times",
        "0,1,2,4,8",
        "--count",
        "200",
    ],
    # 65 points cross write_json's block of 64 rows
    "orbit_A211.json": ["orbit", "--flag", "A:2,1,1", "--point", "0.3,0.3,0.4"]
    + ["--count", "65", "--seed", "7"],
}


def csv_changes(new: bytes, old: bytes) -> str:
    """How the CSV text new differs from old: rows changed, largest change per column.

    A column whose changed cells are not all numbers reports how many
    changed; a number against nan counts as an infinite change.
    """
    new_rows = [line.split(",") for line in new.decode().splitlines()]
    old_rows = [line.split(",") for line in old.decode().splitlines()]
    if new_rows[:1] != old_rows[:1] or len(new_rows) != len(old_rows):
        return "header or row count changed: %d rows %r, golden %d rows %r" % (
            len(new_rows),
            new_rows[:1],
            len(old_rows),
            old_rows[:1],
        )
    pairs = list(zip(new_rows[1:], old_rows[1:]))
    columns = []
    for j, name in enumerate(old_rows[0]):
        cells = [(a[j], b[j]) for a, b in pairs if a[j] != b[j]]
        if not cells:
            continue
        try:
            changes = [abs(float(a) - float(b)) for a, b in cells]
        except ValueError:
            columns.append("%s: %d cells" % (name, len(cells)))
            continue
        worst = max(math.inf if math.isnan(d) else d for d in changes)
        columns.append("%s %.3g" % (name, worst))
    changed = sum(a != b for a, b in pairs)
    return "%d of %d rows changed; largest absolute change per column: %s" % (
        changed,
        len(pairs),
        ", ".join(columns) or "none",
    )


def _leaves(doc, path="$"):
    # (path, value) of every number, string, bool and null of a JSON document
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, "%s.%s" % (path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, "%s[%d]" % (path, i))
    else:
        yield path, doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_changes(new: bytes, old: bytes) -> str:
    """How the JSON text new differs from old: numbers changed, largest change.

    The documents are compared leaf by leaf in order. A number against nan
    counts as an infinite change; a changed string, bool or null is counted
    apart, and a change of keys or lengths is reported at its first path.
    """
    new_leaves = dict(_leaves(json.loads(new)))
    old_leaves = dict(_leaves(json.loads(old)))
    if list(new_leaves) != list(old_leaves):
        first = next(p for p in zip_longest(new_leaves, old_leaves) if p[0] != p[1])
        return "structure changed: %s, golden %s" % first
    numbers = others = 0
    changes = []
    for a, b in zip(new_leaves.values(), old_leaves.values()):
        if _is_number(a) and _is_number(b):
            numbers += 1
            if repr(a) != repr(b):
                changes.append(abs(a - b))
        elif repr(a) != repr(b):
            others += 1
    worst = max((math.inf if math.isnan(d) else d for d in changes), default=0.0)
    summary = "%d of %d numbers changed, largest absolute change %.3g" % (
        len(changes),
        numbers,
        worst,
    )
    return "%s; %d other values changed" % (summary, others)


# how a mismatch is sized, by the file's suffix
CHANGES = {".csv": csv_changes, ".json": json_changes}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    got, want = out.read_bytes(), (GOLDEN / name).read_bytes()
    assert got == want, CHANGES[Path(name).suffix](got, want)


def test_csv_changes_names_rows_and_columns():
    old = b"t,x,label\n0,0.5,a\n1,0.25,b\n2,nan,c\n"
    new = b"t,x,label\n0,0.5,a\n1,0.2501,B\n2,0.1,c\n"
    assert csv_changes(new, old) == (
        "2 of 3 rows changed; largest absolute change per column: x inf, label: 1 cells"
    )
    assert csv_changes(old, old).startswith("0 of 3 rows changed")
    assert csv_changes(old + b"3,1,d\n", old).startswith("header or row count changed")


def test_json_changes_counts_numbers_and_the_largest_change():
    old = b'[{"point": [0.5, 0.25], "lambda": -1.0, "kind": "sink"}, {"point": [NaN]}]'
    new = b'[{"point": [0.5, 0.2501], "lambda": -1.5, "kind": "saddle"}, {"point": [1.0]}]'
    assert json_changes(new, old) == (
        "3 of 4 numbers changed, largest absolute change inf; 1 other values changed"
    )
    assert json_changes(old, old).startswith("0 of 4 numbers changed")
    longer = old.replace(b"0.25]", b"0.25, 0.0]")
    assert json_changes(longer, old) == "structure changed: $[0].point[2], golden $[0].lambda"


# flow_E.csv runs at the default rtol 1e-9 and lies 2.15e-11 from the
# reference (as it did before its last rewrite), flow_D8_tight.csv at rtol
# 1e-12 and 1.68e-12 from it
FLOW_ACCURACY = {"flow_D8_tight.csv": 1e-11, "flow_E.csv": 5e-11}


@pytest.mark.parametrize("name", sorted(FLOW_ACCURACY))
def test_golden_flow_is_accurate(name):
    # the states of the file against DOP853 at rtol 1e-13 at the file's own
    # t column, from the file's first row
    table = np.loadtxt(GOLDEN / name, delimiter=",", skiprows=1)
    argv = CASES[name]
    spec = parse_flag(argv[argv.index("--flag") + 1])
    t, x = table[:, 0], table[:, 1:4]
    ref = solve_ivp(
        lambda _, y: projected_field(spec, y),
        (0.0, t[-1]),
        x[0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        t_eval=t,
    )
    assert ref.success
    assert np.max(np.abs(ref.y.T - x)) <= FLOW_ACCURACY[name]


def test_verify_fast_stdout_matches_golden(capsys):
    assert main(["verify", "--fast"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify_fast.txt").read_bytes()


# Kernels a child process can be made to take on an AVX-512 machine:
# OpenBLAS's AVX2 and SSE3 kernels, and numpy's SIMD loops without AVX2 or
# AVX-512. Each reruns every golden command in one child process.
KERNELS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

# the golden commands in a child: argv[1] the cases as JSON, argv[2] the
# directory for their files and for verify --fast's stdout
_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from flagricci.cli import main
cases, out = json.loads(sys.argv[1]), Path(sys.argv[2])
for name, argv in cases.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out / name)]) == 0, name
text = io.StringIO()
with contextlib.redirect_stdout(text):
    assert main(["verify", "--fast"]) == 0
(out / "verify_fast.txt").write_bytes(text.getvalue().encode())
"""


@pytest.fixture(scope="module")
def kernel_outputs(tmp_path_factory):
    """The directory of each kernel's golden files, the children run side by side."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for kernel, env in KERNELS.items():
        out = tmp_path_factory.mktemp(kernel)
        argv = [sys.executable, "-c", _CHILD, json.dumps(CASES), str(out)]
        env = dict(os.environ, PYTHONPATH=path, **env)
        runs[kernel] = out, subprocess.Popen(argv, env=env, stderr=subprocess.PIPE)
    for out, proc in runs.values():
        _, err = proc.communicate(timeout=120)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args, stderr=err)
    return {kernel: out for kernel, (out, _) in runs.items()}


@pytest.mark.parametrize(
    "kernel,name",
    [(kernel, name) for kernel in KERNELS for name in sorted(CASES) + ["verify_fast.txt"]],
)
def test_golden_bytes_on_every_kernel(kernel, name, kernel_outputs):
    got, want = (kernel_outputs[kernel] / name).read_bytes(), (GOLDEN / name).read_bytes()
    if name == "verify_fast.txt":
        assert got == want
    else:
        assert got == want, CHANGES[Path(name).suffix](got, want)


@pytest.mark.parametrize("kernel", KERNELS)
def test_orbit_json_is_exactly_anti_hermitian_on_every_kernel(kernel, kernel_outputs):
    # each kernel's orbit file is json.dumps of the cloud, and every point's
    # two matrices are exactly anti-Hermitian
    text = (kernel_outputs[kernel] / "orbit_A211.json").read_text()
    assert json.dumps(json.loads(text)) + "\n" == text
    doc = json.loads(text)
    n = doc["N"]
    # each point: two matrices, each its real and then its imaginary part
    pts = np.array(doc["points"]).reshape(doc["count"], 2, 2, n, n)
    re, im = pts[:, :, 0], pts[:, :, 1]
    i, j = np.triu_indices(n, 1)
    d = np.arange(n)
    assert re[..., j, i].tobytes() == (-re[..., i, j]).tobytes()
    assert im[..., j, i].tobytes() == im[..., i, j].tobytes()
    assert re[..., d, d].tobytes() == np.zeros((doc["count"], 2, n)).tobytes()
