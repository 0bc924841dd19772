import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from flagricci import flow
from flagricci.cli import atomic_write, fmt, load_config, main, parse_point
from flagricci.fields import reduced_field
from flagricci.flags import parse_flag
from flagricci.orbits import build_model, sample_orbit
from flagricci.realize import coeffs_to_psd, realizing_frame


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


@pytest.mark.parametrize(
    "tok",
    ["-0", "1/3", "-2/6", "0.1", "-1e-400", "1e-400", "0e999", "1_000/7", "1.", ".5",
     "1.7976931348623157e308", "2.4703282292062328e-324", "-0." + "0" * 400 + "1"],
)
def test_parse_point_gives_the_nearest_float_of_the_exact_value(tok):
    (got,) = parse_point(tok, dim=None)
    want = float(Fraction(tok))
    assert got.hex() == want.hex()
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--flag", "A:1,1,1", "--point", "1e400,0,0"],
        ["field", "--flag", "A:1,1,1", "--point", "1/3,-1.8e308,0"],
        ["collapse", "--flag", "A:1,1,1", "--point", "0.42,0.40,0.18",
         "--times", "0,1e400"],
        ["collapse", "--flag", "A:1,1,1", "--point", "0.42,0.40,0.18",
         "--times", "0,1e10000000"],
    ],
)
def test_numbers_beyond_the_float_range_are_bad_numbers(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    # a huge exponent is not expanded into an integer
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert err == "error: bad number in %r\n" % argv[-1]


def test_fmt_17_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert float(fmt(0.1 + 0.2)) == 0.1 + 0.2


def test_field_command(capsys):
    rc, out, _ = run(capsys, "field", "--flag", "A:1,1,1", "--point", "1/4,1/4,1/2")
    assert rc == 0
    assert "X = (0, 0, 0)" in out
    assert "F = -0.25" in out


def test_field_missing_option(capsys):
    rc, out, err = run(capsys, "field", "--flag", "A:1,1,1")
    assert rc == 2
    assert out == ""
    assert err == "error: missing required option --point\n"


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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_equilibria_rejects_a_newton_tol_that_is_not_finite_and_positive(tol, capsys):
    # nan and -1 printed [] and inf printed only the seed points, with exit 0
    rc, out, err = run(
        capsys, "equilibria", "--flag", "A:1,1,1", "--grid", "10", "--newton-tol=" + tol
    )
    assert rc == 2
    assert out == ""
    assert "newton_tol must be finite and positive" in err


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


def test_realize_takes_a_tiny_negative_coordinate_as_zero(capsys):
    # F = 2e-11 is within CONE_TOL, and orbit realizes the same point
    rc, out, err = run(capsys, "realize", "--point=-1e-11,0.5,0.5")
    assert (rc, err) == (0, "")
    data = json.loads(out)
    assert data["membership"] == "boundary"
    assert data["tau"] == realizing_frame(np.array([0.0, 0.5, 0.5])).tolist()


def test_realize_mu_inverse_is_the_square_of_tau(capsys):
    # mu_inverse is the matrix of the point realized, the clipped one, while
    # x and F echo the input; elsewhere it is coeffs_to_psd(x) as before
    rc, out, _ = run(capsys, "realize", "--point=-1e-11,0.5,0.5")
    assert rc == 0
    data = json.loads(out)
    tau, mu = np.array(data["tau"]), np.array(data["mu_inverse"])
    assert np.abs(tau @ tau - mu).max() <= 1e-15
    assert mu.tolist() == [[0.0, 0.0], [0.0, 0.5]]
    assert math.copysign(1.0, mu[0, 0]) == math.copysign(1.0, mu[0, 1]) == 1.0
    assert data["x"] == [-1e-11, 0.5, 0.5] and data["F"] > 0.0
    for point in ("1/2,1/2,0", "0.3,0.3,0.4", "0,1/2,1/2"):
        rc, out, _ = run(capsys, "realize", "--point", point)
        assert rc == 0
        want = coeffs_to_psd(parse_point(point)).tolist()
        assert json.loads(out)["mu_inverse"] == want


@pytest.mark.parametrize("command", [["realize"]])
def test_a_point_that_overflows_is_an_error(capsys, command):
    # F of (1e308, 1e308, 1e308) is -3e616, and realize reports F: one
    # error line, no warning, no NaN
    rc, out, err = run(capsys, *command, "--point", "1e308,1e308,1e308")
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    assert re.fullmatch(r"error: .* overflows the float range\n", err)


def test_orbit_of_a_point_whose_sums_overflow_is_twice_the_quarter_point(capsys):
    # the frame of (1e308, 1e308, 1e308) is finite, about 1e154, although
    # its trace 2e308 is not; scaling by powers of two is exact, so the
    # orbit is twice that of the quarter point, bit for bit
    rc, out, _ = run(capsys, "orbit", "--flag", "A:1,1,1", "--point", "1e308,1e308,1e308")
    assert rc == 0
    got = np.array(json.loads(out)["points"])
    rc, out, _ = run(capsys, "orbit", "--flag", "A:1,1,1", "--point", "2.5e307,2.5e307,2.5e307")
    assert rc == 0
    assert np.isfinite(got).all()
    assert got.tobytes() == (2.0 * np.array(json.loads(out)["points"])).tobytes()


@pytest.mark.parametrize(
    "flag, message",
    [
        # a finite frame whose orbit coordinates overflow
        ("A:1,1,1", r"the orbit of a frame with max \|h\| = .* overflows the float range"),
        # a frame that overflows itself: 1.7e308 (-4/7 - 5/7) on the third block
        ("A:1,4,2", r"frame\[0, 5\] = -inf is not finite"),
    ],
    ids=["orbit-overflows", "frame-overflows"],
)
def test_orbit_frames_beyond_the_float_range_are_an_error(tmp_path, capsys, flag, message):
    argv = ["orbit", "--flag", flag, "--h1", "1.7e308,1.7e308", "--h2", "0,0"]
    rc, out, err = run(capsys, *argv, "--count", "1", "--out", str(tmp_path / "o.json"))
    assert (rc, out) == (2, "")
    assert re.fullmatch("error: %s\n" % message, err)
    assert list(tmp_path.iterdir()) == []


def test_realize_rejects_a_negative_coordinate_on_the_boundary(capsys):
    # F = 4e-10 is within CONE_TOL, but -2e-10 is below the -1e-10 cut
    rc, out, err = run(capsys, "realize", "--point=-2e-10,0.5,0.5")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: coefficients must be nonnegative, got ")


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
    # --h1 and --h2 are the columns of tau: omega1 and omega2 here
    model = build_model(2, 1, 1)
    assert [data["H1"], data["H2"]] == model.omega.tolist()
    assert out == json.dumps(sample_orbit(model, model.omega, 4, 0).as_dict()) + "\n"


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


@pytest.mark.parametrize("flag", ["A:3,2,1", "D:8"])
def test_portrait_runs_its_cells_in_lockstep_with_the_bytes_of_each_cell(
    tmp_path, capsys, monkeypatch, flag
):
    # 45 in-domain cells, more than FLOAT_LOOP_ROWS: one lockstep ensemble,
    # against the rows the cells give one by one
    real, batches = flow._lockstep, []

    def lockstep(f, x0, *settings):
        batches.append(len(x0))
        return real(f, x0, *settings)

    monkeypatch.setattr(flow, "_lockstep", lockstep)
    path = tmp_path / "p.csv"
    argv = ["portrait", "--flag", flag, "--grid", "9", "--eq-grid", "10"]
    rc, _, _ = run(capsys, *argv, "--out", str(path))
    assert rc == 0
    assert batches == [45] and 45 > flow.FLOAT_LOOP_ROWS
    spec = parse_flag(flag)
    eqs = flow.find_equilibria(spec, grid_n=10)
    rows = ["u,v,Yu,Yv,in_domain,end_u,end_v,limit"]
    ticks = np.linspace(0.0, 1.0, 9)
    for u in ticks:
        for v in ticks:
            if u + v > 1.0 + 1e-12:
                rows.append(",".join([fmt(u), fmt(v), "nan", "nan", "0", "nan", "nan", ""]))
                continue
            y = reduced_field(spec, (u, v))
            traj = flow.integrate(spec, np.array([u, v, max(0.0, 1.0 - u - v)]))
            eq = flow.classify_limit(traj, eqs)
            label = "undecided" if eq is None else "eq(%s)" % ";".join(map(fmt, eq.point))
            end = traj.final_state
            cells = [fmt(u), fmt(v), fmt(y[0]), fmt(y[1]), "1", fmt(end[0]), fmt(end[1])]
            rows.append(",".join(cells + [label]))
    assert path.read_text() == "\n".join(rows) + "\n"


def test_portrait_rejects_zero_grid(capsys):
    rc, out, err = run(capsys, "portrait", "--flag", "A:1,1,1", "--grid", "0")
    assert rc == 2
    assert out == ""
    assert err == "error: grid must be at least 1\n"


def test_portrait_rejects_a_small_equilibrium_grid(capsys):
    rc, out, err = run(capsys, "portrait", "--flag", "A:1,1,1", "--eq-grid", "3")
    assert rc == 2
    assert out == ""
    assert err == "error: grid_n must be at least 10\n"


def test_orbit_rejects_a_point_with_a_negative_coordinate(capsys):
    argv = ["orbit", "--flag", "A:1,1,1", "--point=-0.5,0.75,0.75", "--count", "3"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: coefficients must be nonnegative, got ")


def test_orbit_rejects_a_flag_without_a_model(capsys):
    rc, out, err = run(capsys, "orbit", "--flag", "D:5")
    assert rc == 2
    assert out == ""
    assert err == "error: orbit models are built for family A only (got D:5)\n"


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


def test_flow_rejects_zero_atol_on_a_face(capsys):
    # rtol alone gives a zero error scale on the face x3 = 0
    argv = ["flow", "--flag", "A:1,1,1", "--point", "0.3,0.7,0", "--atol", "0"]
    rc, out, err = run(capsys, *argv, "--t-max", "200")
    assert rc == 2
    assert err.startswith("error: atol must be positive")
    assert "Traceback" not in err
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
    # orbit --out streams into the same kind of temporary file
    cloud = tmp_path / "cloud.json"
    argv = ["orbit", "--flag", "A:1,1,1", "--h1", "1,0", "--h2", "0,1", "--count", "3"]
    old = os.umask(umask)
    try:
        assert main(argv + ["--out", str(cloud)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(cloud.stat().st_mode) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["cloud.json", "out.csv"]


def _orbit_argv(blocks, count):
    return ["orbit", "--flag", "A:%d,%d,%d" % blocks, "--point", "0.3,0.3,0.4",
            "--count", str(count), "--seed", "3"]


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 2, 2)])
def test_orbit_streams_the_bytes_of_as_dict(tmp_path, capsys, blocks):
    # counts on both sides of the 64-row blocks that write_json flattens at once
    model = build_model(*blocks)
    frame = model.frame(realizing_frame(np.array([0.3, 0.3, 0.4])))
    for count in (1, 63, 64, 65, 129):
        want = json.dumps(sample_orbit(model, frame, count, 3).as_dict()) + "\n"
        rc, out, _ = run(capsys, *_orbit_argv(blocks, count))
        assert rc == 0
        assert out == want
        path = tmp_path / ("cloud-%d.json" % count)
        rc, _, _ = run(capsys, *_orbit_argv(blocks, count), "--out", str(path))
        assert rc == 0
        assert path.read_bytes() == want.encode()


def test_orbit_peak_memory_is_one_cloud_not_its_text(tmp_path, capsys):
    # 2000 points in su(6)^2 are 2.3 MB of complex coordinates and 5.7 MB of
    # JSON; building the text whole traced 14.6 MB
    argv = _orbit_argv((2, 2, 2), 2000) + ["--out", str(tmp_path / "cloud.json")]
    assert main(_orbit_argv((2, 2, 2), 5)) == 0  # imports and caches warm
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "cloud.json").stat().st_size > 5_000_000
    assert peak < 9_000_000


def _cli_subprocess(args, **kwargs):
    import flagricci

    src = os.path.dirname(os.path.dirname(flagricci.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, "-m", "flagricci.cli", *args], env=env, **kwargs
    )


def test_orbit_into_a_closed_pipe_exits_quietly():
    # as `flagricci orbit ... | head -c 50`: the reader leaves after 50 of
    # some 5.7 MB
    args = ["orbit", "--flag", "A:2,2,2", "--point", "0.3,0.3,0.4", "--count", "2000"]
    proc = _cli_subprocess(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert head.startswith(b'{"N": 6, "blocks": [2, 2, 2], "H1": [')
    assert err == b""


OUT_ERROR_CASES = [
    ["flow", "--flag", "A:1,1,1", "--point", "0.2,0.3,0.5", "--t-max", "1"],
    ["orbit", "--flag", "A:1,1,1", "--point", "0.3,0.3,0.4", "--count", "100"],
]


@pytest.mark.parametrize("argv", OUT_ERROR_CASES, ids=[c[0] for c in OUT_ERROR_CASES])
def test_out_errors_name_the_out_path(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "x.out")
    rc, out, err = run(capsys, *argv, "--out", missing)
    assert rc == 2
    assert out == ""
    assert err == "error: cannot write %s: No such file or directory\n" % missing
    target = tmp_path / "a-directory"
    target.mkdir()
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err == "error: cannot write %s: Is a directory\n" % target
    # no temporary file is left behind
    assert os.listdir(tmp_path) == ["a-directory"]
    assert os.listdir(target) == []


def test_collapse_count_one_is_an_error(capsys):
    argv = ["collapse", "--flag", "A:1,1,1", "--point", "0.42,0.40,0.18", "--times", "0,1"]
    rc, out, err = run(capsys, *argv, "--count", "1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: count must be at least 2: a sampling resolution needs")


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_orbit_rejects_seeds_outside_philox_keys(capsys, seed):
    rc, out, err = run(capsys, *_orbit_argv((1, 1, 1), 3)[:-1], seed)
    assert rc == 2
    assert out == ""
    assert err == "error: seed must be an integer in [0, 2**128), got %s\n" % seed


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
