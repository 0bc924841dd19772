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

equilibria_A321.json pins the Newton search's 17-digit roots and Einstein
constants at the default grid of 30. It was written before the search
evaluated each iteration's point and probes in one stacked field call, and
that change kept every byte.

To regenerate a CSV or JSON file, run the command of its case with
`--out tests/golden/<name>`; any change in these bytes must be deliberate.
A mismatch reports how many rows changed and the largest change per column,
and test_golden_flow_is_accurate holds the flow files to an independent
solution, so a regeneration cannot hide a loss of accuracy.

verify_fast.txt is the stdout of `flagricci verify --fast`. Its digits
depend on the platform's libm and numpy's SIMD paths; it was written on
x86-64 Linux (glibc, AVX-512).
"""

import math
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    got, want = out.read_bytes(), (GOLDEN / name).read_bytes()
    assert got == want, csv_changes(got, want)


def test_csv_changes_names_rows_and_columns():
    old = b"t,x,label\n0,0.5,a\n1,0.25,b\n2,nan,c\n"
    new = b"t,x,label\n0,0.5,a\n1,0.2501,B\n2,0.1,c\n"
    assert csv_changes(new, old) == (
        "2 of 3 rows changed; largest absolute change per column: x inf, label: 1 cells"
    )
    assert csv_changes(old, old).startswith("0 of 3 rows changed")
    assert csv_changes(old + b"3,1,d\n", old).startswith("header or row count changed")


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
