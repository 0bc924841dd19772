"""CLI output files, byte for byte, against the golden copies in tests/golden/.

The golden files were written by the CLI before the integrator's step loop
moved to Python floats. collapse_A111.csv was written again when the
collapse profile became the exact orbit distance: only its hausdorff column
moved, by at most 3.4e-15 relative. flow_D8_tight.csv, flow_E.csv and
portrait_D8.csv were written again when the cubic's squares became d * d in
place of C pow(d, 2): t moved by at most 8.5e-9, x by 7.5e-12 and F by
1.5e-11, and the portrait's end_u and end_v by 3.4e-16. To regenerate one,
run the command of its case with `--out tests/golden/<name>`; any change in
these bytes must be deliberate.

verify_fast.txt is the stdout of `flagricci verify --fast`, written before
the disk-invariance and no-recurrence checks moved to integrate_many. Its
digits depend on the platform's libm and numpy's SIMD paths; it was written
on x86-64 Linux (glibc, AVX-512).
"""

from pathlib import Path

import pytest

from flagricci.cli import main

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_verify_fast_stdout_matches_golden(capsys):
    assert main(["verify", "--fast"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify_fast.txt").read_bytes()
