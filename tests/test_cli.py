import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from flagricci.cli import atomic_write, fmt, load_config, main, parse_point


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_point_fractions():
    x = parse_point("1/2,1/3,1/6")
    assert np.array_equal(x, [0.5, 1.0 / 3.0, 1.0 / 6.0])
    assert np.array_equal(parse_point("0.25, 0.25, 0.5"), [0.25, 0.25, 0.5])
    with pytest.raises(ValueError):
        parse_point("1,2")
    with pytest.raises(ValueError):
        parse_point("a,b,c")


def test_fmt_17_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert float(fmt(0.1 + 0.2)) == 0.1 + 0.2


def test_field_command(capsys):
    rc, out, _ = run(capsys, "field", "--flag", "A:1,1,1", "--point", "1/4,1/4,1/2")
    assert rc == 0
    assert "X = (0, 0, 0)" in out
    assert "F = -0.25" in out


def test_field_missing_option(capsys):
    with pytest.raises(SystemExit):
        main(["field", "--flag", "A:1,1,1"])


def test_flow_csv_format(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    rc, out, _ = run(
        capsys,
        "flow",
        "--flag",
        "A:1,1,1",
        "--point",
        "0.2,0.3,0.5",
        "--t-max",
        "5",
        "--out",
        str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,F,sum_residual"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.2
    # every row has six columns
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_flow_deterministic_output(tmp_path, capsys):
    args = ["flow", "--flag", "A:2,1,1", "--point", "0.3,0.3,0.4", "--t-max", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_equilibria_json(tmp_path, capsys):
    out_file = tmp_path / "eq.json"
    rc, _, _ = run(
        capsys, "equilibria", "--flag", "A:1,1,1", "--grid", "15", "--out", str(out_file)
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert len(data) == 10
    for entry in data:
        assert set(entry) == {"point", "lambda", "stability", "location"}
    cent = min(data, key=lambda e: abs(e["point"][0] - 1 / 3))
    assert cent["lambda"] == pytest.approx(-5.0 / 9.0, rel=1e-9)


def test_realize_json(capsys):
    rc, out, _ = run(capsys, "realize", "--point", "1/2,1/2,0")
    assert rc == 0
    data = json.loads(out)
    assert set(data) == {
        "x",
        "F",
        "membership",
        "mu_inverse",
        "tau",
        "H1_omega_coords",
        "H2_omega_coords",
    }
    assert data["membership"] == "boundary"
    assert np.allclose(data["mu_inverse"], [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(data["tau"], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert np.allclose(data["H1_omega_coords"], [0.5, -0.5], atol=1e-12)


def test_realize_rejects_outside(capsys):
    rc, _, err = run(capsys, "realize", "--point", "0.7,0.2,0.1")
    assert rc == 1
    assert "outside" in err


def test_orbit_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = [
        "orbit",
        "--flag",
        "A:1,1,1",
        "--point",
        "0.3,0.3,0.4",
        "--count",
        "20",
        "--seed",
        "5",
    ]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["N"] == 3 and data["count"] == 20 and data["seed"] == 5
    assert len(data["points"]) == 20


def test_orbit_explicit_torus_pair(capsys):
    rc, out, _ = run(
        capsys,
        "orbit",
        "--flag",
        "A:2,1,1",
        "--h1",
        "1,0",
        "--h2",
        "0,1",
        "--count",
        "4",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["N"] == 4
    assert len(data["points"]) == 4


def test_collapse_csv_and_failure(tmp_path, capsys):
    out_file = tmp_path / "collapse.csv"
    rc, _, _ = run(
        capsys,
        "collapse",
        "--flag",
        "A:1,1,1",
        "--point",
        "0.42,0.40,0.18",
        "--times",
        "0,1,2",
        "--count",
        "100",
        "--out",
        str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,hausdorff"
    assert len(lines) == 4

    rc, _, err = run(
        capsys,
        "collapse",
        "--flag",
        "A:1,1,1",
        "--point",
        "1/3,1/3,1/3",
        "--times",
        "0,1",
        "--count",
        "30",
    )
    assert rc == 1
    assert "nothing collapses" in err


def test_portrait_row_count(tmp_path, capsys):
    out_file = tmp_path / "portrait.csv"
    rc, _, _ = run(
        capsys,
        "portrait",
        "--flag",
        "A:1,1,1",
        "--grid",
        "5",
        "--eq-grid",
        "12",
        "--t-max",
        "30",
        "--out",
        str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 25


def test_portrait_rejects_zero_grid(capsys):
    with pytest.raises(SystemExit):
        main(["portrait", "--flag", "A:1,1,1", "--grid", "0"])


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# flow settings\n"
        "flag = A:1,1,1\n"
        "point = 0.2,0.3,0.5\n"
        "t-max = 2\n"
    )
    rc, out, _ = run(capsys, "--config", str(cfg), "flow")
    assert rc == 0
    last_t = out.strip().splitlines()[-1].split(",")[0]
    assert float(last_t) == 2.0
    # command line wins over the config value
    rc, out, _ = run(capsys, "--config", str(cfg), "flow", "--t-max", "1")
    assert rc == 0
    last_t = out.strip().splitlines()[-1].split(",")[0]
    assert float(last_t) == 1.0


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flag = A:1,1,1\npoint = 0.2,0.3,0.5\nbogus = 1\n")
    rc, _, err = run(capsys, "--config", str(cfg), "flow")
    assert rc == 2
    assert "bogus" in err


def test_config_parser(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n\n# comment\nb-c = x y  # trailing\n")
    assert load_config(str(cfg)) == {"a": "1", "b_c": "x y"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line\n")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_bad_flag_errors(capsys):
    rc, _, err = run(capsys, "field", "--flag", "Q:1", "--point", "1/3,1/3,1/3")
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize(
    "settings",
    [["--rtol", "0", "--atol", "0"], ["--t-max", "nan"], ["--rtol", "nan"]],
    ids=["zero-tolerances", "nan-t-max", "nan-rtol"],
)
def test_flow_rejects_bad_run_settings(capsys, settings):
    argv = ["flow", "--flag", "A:1,1,1", "--point", "0.2,0.3,0.5", "--t-max", "1"]
    rc, out, err = run(capsys, *argv, *settings)
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_collapse_rejects_bad_times(capsys):
    argv = ["collapse", "--flag", "A:1,1,1", "--point", "0.42,0.40,0.18"]
    for times in ("0,1/0", "0,x", "0,nan"):
        rc, out, err = run(capsys, *argv, "--times", times, "--count", "30")
        assert rc == 2
        assert err == "error: bad number in %r\n" % times
        assert out == ""


# each command with --out writes its stdout bytes to the file and prints
# "wrote FILE" with the note that matches the pattern
OUT_CASES = [
    (["flow", "--flag", "A:1,1,1", "--point", "0.2,0.3,0.5", "--t-max", "1"],
     r" \(\d+ states, status t_max\)"),
    (["portrait", "--flag", "A:1,1,1", "--grid", "2", "--eq-grid", "10"],
     r" \(4 rows\)"),
    (["equilibria", "--flag", "A:1,1,1", "--grid", "10"], r" \(\d+ equilibria\)"),
    (["realize", "--point", "1/2,1/2,0"], ""),
    (["orbit", "--flag", "A:1,1,1", "--point", "0.3,0.3,0.4", "--count", "3"],
     r" \(3 points in su\(3\)\^2\)"),
    (["collapse", "--flag", "A:1,1,1", "--point", "0.42,0.40,0.18",
      "--times", "0,1", "--count", "30"],
     r" \(limit \(.*\), resolution .*\)"),
]


@pytest.mark.parametrize("argv, note", OUT_CASES, ids=[c[0][0] for c in OUT_CASES])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, note):
    rc, stdout, _ = run(capsys, *argv)
    assert rc == 0
    path = tmp_path / "out"
    rc, wrote, _ = run(capsys, *argv, "--out", str(path))
    assert rc == 0
    assert path.read_text() == stdout
    assert re.fullmatch("wrote %s%s\n" % (re.escape(str(path)), note), wrote)


def test_verify_fast_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--fast")
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("[")]
    assert len(lines) == 20
    assert all(l.startswith("[PASS]") for l in lines)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_mode_follows_umask(tmp_path, umask):
    target = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        atomic_write(str(target), "t\n")
    finally:
        os.umask(old)
    assert target.read_text() == "t\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["out.csv"]


def test_collapse_and_verify_do_not_import_scipy_optimize(tmp_path):
    # orbit_distance needs no assignment solver; scipy.optimize would add
    # about 11 MiB to every run. A fresh interpreter, since the tests
    # themselves import scipy.optimize.
    import flagricci

    script = "\n".join(
        [
            "import sys",
            "from flagricci.cli import main",
            "argv = ['collapse', '--flag', 'A:1,1,1', '--point', '0.42,0.40,0.18',",
            "        '--times', '0,1,2,4,8', '--count', '200', '--out', 'run.csv']",
            "assert main(argv) == 0",
            "assert main(['verify', '--fast']) == 0",
            "if 'scipy.optimize' in sys.modules:",
            "    sys.exit('scipy.optimize was imported')",
        ]
    )
    src = os.path.dirname(os.path.dirname(flagricci.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "run.csv").exists()
