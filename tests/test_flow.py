import math
from fractions import Fraction

import numpy as np
import pytest

from flagricci import flow
from flagricci.fields import (
    _cubic,
    _cubic_coefficients,
    block_field,
    cone_form,
    point_field,
    projected_field,
    reduced_field,
)
from flagricci.flags import FlagSpec, make_flag, parse_flag
from flagricci.flow import (
    ATOL,
    RTOL,
    IntegrationError,
    _block_step,
    _clean_state,
    _float_loop,
    _lockstep,
    _onto_simplex,
    _step,
    classify_limit,
    find_equilibria,
    integrate,
    integrate_many,
    jacobian,
)
from flagricci.realize import circle_point, sample_disk

A111 = make_flag("A", (1, 1, 1))
A211 = make_flag("A", (2, 1, 1))
CATALOGUE = ["A:1,1,1", "A:2,1,1", "A:3,2,1", "A:1,4,2", "A:7,1,3", "D:4", "D:5", "D:8", "D:20", "E"]


def test_equilibrium_start_stays_put():
    traj = integrate(A111, np.ones(3) / 3.0, t_max=10.0)
    assert traj.status == "equilibrium"
    assert np.allclose(traj.final_state, np.ones(3) / 3.0, rtol=0, atol=1e-12)


def test_simplex_is_preserved():
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=40.0)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) < 1e-12
    assert np.min(traj.states) >= 0.0


def test_face_is_invariant():
    # a start with x3 = 0 keeps x3 = 0 exactly for all time
    traj = integrate(A111, np.array([0.3, 0.7, 0.0]), t_max=30.0)
    assert np.array_equal(traj.states[:, 2], np.zeros(len(traj.times)))
    assert traj.status in ("equilibrium", "t_max")


def test_interior_flow_reaches_a_midpoint():
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=80.0)
    end = traj.final_state
    mids = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    assert np.min(np.linalg.norm(mids - end, axis=1)) < 1e-6


def test_t_eval_lands_exactly():
    times = [0.0, 0.5, 1.5, 3.0, 7.0]
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=10.0, t_eval=times)
    assert np.array_equal(traj.eval_times, times)
    assert traj.eval_states.shape == (5, 3)
    # first entry is the start point
    assert np.allclose(traj.eval_states[0], [0.2, 0.3, 0.5], rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_t_eval_rejects_non_finite_and_negative_times(bad):
    with pytest.raises(ValueError, match="t_eval times must be finite and nonnegative"):
        integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=1.0, t_eval=[0.5, bad])


def test_t_eval_after_equilibrium_returns_final_state():
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=500.0, t_eval=[0.0, 450.0])
    assert traj.status == "equilibrium"
    assert np.allclose(traj.eval_states[1], traj.final_state, rtol=0, atol=1e-12)


def test_tolerance_controls_error():
    x0 = np.array([0.55, 0.35, 0.10])
    ref = integrate(A111, x0, t_max=4.0, rtol=1e-13, atol=1e-15).final_state
    coarse = integrate(A111, x0, t_max=4.0, rtol=1e-5, atol=1e-8).final_state
    fine = integrate(A111, x0, t_max=4.0, rtol=1e-11, atol=1e-13).final_state
    assert np.linalg.norm(fine - ref) < np.linalg.norm(coarse - ref)
    assert np.linalg.norm(fine - ref) < 1e-9


def test_rejects_bad_starts():
    with pytest.raises(ValueError):
        integrate(A111, np.array([0.5, 0.6, 0.2]))
    with pytest.raises(ValueError):
        integrate(A111, np.array([-0.2, 0.6, 0.6]))
    with pytest.raises(ValueError):
        integrate(A111, np.array([0.5, 0.5]))
    good = np.array([0.2, 0.3, 0.5])
    for shape_bad in (good, np.ones((2, 2)) / 2, np.ones((1, 2, 3)) / 3):
        with pytest.raises(ValueError, match=r"\(N, 3\) array"):
            integrate_many(A111, shape_bad)
    batch = np.tile(good, (5, 1))
    batch[3, 1] = np.nan
    with pytest.raises(ValueError, match=r"x0\[3, 1\] = nan is not finite"):
        integrate_many(A111, batch)
    batch[3, 1] = 0.3
    batch[2] = [0.5, 0.6, 0.2]
    with pytest.raises(ValueError, match=r"x0\[2\] = .* is not on the closed simplex"):
        integrate_many(A111, batch)


BAD_SETTINGS = [
    (dict(t_max=0.0), "t_max must be positive"),
    (dict(t_max=-1.0), "t_max must be positive"),
    (dict(t_max=math.nan), "t_max must be positive"),
    (dict(rtol=-1e-9), "rtol must be finite and nonnegative"),
    (dict(rtol=math.nan), "rtol must be finite and nonnegative"),
    (dict(rtol=math.inf), "rtol must be finite and nonnegative"),
    (dict(atol=-1e-12), "atol must be finite and nonnegative"),
    (dict(atol=math.nan), "atol must be finite and nonnegative"),
    (dict(rtol=0.0, atol=0.0), "atol must be positive"),
    (dict(rtol=1e-9, atol=0.0), "atol must be positive"),
]


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["integrate", "one-row", "batch"])
@pytest.mark.parametrize(
    "settings, message",
    BAD_SETTINGS,
    ids=[",".join("%s=%s" % kv for kv in c[0].items()) for c in BAD_SETTINGS],
)
def test_rejects_bad_run_settings(rows, settings, message):
    x0 = np.array([0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match=message):
        if rows is None:
            integrate(A111, x0, **settings)
        else:
            integrate_many(A111, np.tile(x0, (rows, 1)), **settings)


def test_one_zero_tolerance_is_accepted():
    x0 = np.array([0.2, 0.3, 0.5])
    assert integrate(A111, x0, t_max=1.0, rtol=0.0, atol=1e-12).n_accepted > 0
    (row,) = integrate_many(A111, x0[None], t_max=1.0, rtol=0.0, atol=1e-12)
    assert row.n_accepted > 0


def test_integration_error_on_nan():
    def bad(y):
        return (math.nan, math.nan, math.nan)

    with pytest.raises(IntegrationError):
        _float_loop(bad, np.array([0.2, 0.3, 0.5]), 1.0, 1e-9, 1e-12)


def test_lockstep_names_the_row_whose_initial_field_is_not_finite():
    def bad(y):
        # the field is NaN at the second start only
        out = y.copy()
        out[:, 1] = math.nan
        return out

    starts = np.array([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.5, 0.3, 0.2]])
    message = r"^row 1: field not finite at the initial state$"
    with pytest.raises(IntegrationError, match=message) as info:
        _lockstep(bad, starts, 1.0, 1e-9, 1e-12)
    assert info.value.t == 0.0
    assert info.value.state.tolist() == [0.3, 0.3, 0.4]


def test_a_nan_first_step_goes_to_the_floor_in_both_loops():
    # with atol 1e-300 and rtol 0, d0 and d1 of the start rule overflow to
    # inf and 0.01 d0 / d1 is NaN; the floor 1e-10 takes its place, and
    # both loops reject six steps and stop, with no warning
    starts = np.array([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.3, 0.7, 0.0]])
    singles = [integrate(A111, x, t_max=1.0, rtol=0.0, atol=1e-300) for x in starts]
    rows = _lockstep(block_field(A111), starts, 1.0, 0.0, 1e-300)
    for row, single in zip(rows, singles):
        assert (single.status, single.n_accepted, single.n_rejected) == ("step_underflow", 0, 6)
        assert (row.status, row.n_rejected, row.n_field_evals) == (
            single.status, single.n_rejected, single.n_field_evals
        )
        assert row.states.tobytes() == single.states.tobytes()


def test_trajectory_metadata():
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=5.0)
    assert traj.times[0] == 0.0
    assert traj.n_accepted == len(traj.times) - 1
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.f_values) == len(traj.times)
    assert np.max(traj.sum_residuals) < 1e-12


def test_equilibria_of_symmetric_flag():
    eqs = find_equilibria(A111, grid_n=20)
    pts = np.array([e.point for e in eqs])
    # centroid, three Kaehler points, three midpoints, three vertices
    assert len(eqs) == 10
    for target, stability, location in [
        ([1 / 3, 1 / 3, 1 / 3], "source", "interior"),
        ([0.25, 0.25, 0.5], "saddle", "interior"),
        ([0.5, 0.5, 0.0], "sink", "face"),
        ([1.0, 0.0, 0.0], "source", "vertex"),
    ]:
        i = int(np.argmin(np.linalg.norm(pts - np.array(target), axis=1)))
        assert np.linalg.norm(pts[i] - np.array(target)) < 1e-9
        assert eqs[i].stability == stability
        assert eqs[i].location == location


def test_equilibria_einstein_constants():
    eqs = find_equilibria(A111, grid_n=20)
    for e in eqs:
        r = projected_field(A111, e.point)
        assert np.linalg.norm(r) < 1e-8
        if np.allclose(e.point, np.ones(3) / 3.0, atol=1e-9):
            assert e.einstein_constant == pytest.approx(-5.0 / 9.0, rel=1e-9)
        if np.allclose(e.point, [0.25, 0.25, 0.5], atol=1e-9):
            assert e.einstein_constant == pytest.approx(-0.5, rel=1e-9)


def test_equilibria_as_dict_uses_lambda_key():
    eqs = find_equilibria(A111, grid_n=15)
    d = eqs[0].as_dict()
    assert set(d) == {"point", "lambda", "stability", "location"}
    assert isinstance(d["point"], list)


def test_non_symmetric_flag_einstein_point():
    eqs = find_equilibria(A211, grid_n=25)
    pts = np.array([e.point for e in eqs])
    target = np.array([0.3, 0.5, 0.2])  # the normal-metric Einstein point
    i = int(np.argmin(np.linalg.norm(pts - target, axis=1)))
    assert np.linalg.norm(pts[i] - target) < 1e-9
    assert eqs[i].einstein_constant == pytest.approx(-0.6, rel=1e-10)


@pytest.mark.parametrize("flag", CATALOGUE)
def test_phase_portrait_contract(flag):
    eqs = find_equilibria(parse_flag(flag), grid_n=10)

    def kinds(location):
        got = [e for e in eqs if e.location == location]
        return sorted(e.stability for e in got), [float(cone_form(e.point)) for e in got]

    # three vertex sources with F = 1
    stability, f = kinds("vertex")
    assert stability == ["source"] * 3
    assert f == [1.0] * 3
    # three face sinks on the circle F = 0
    stability, f = kinds("face")
    assert stability == ["sink"] * 3
    assert np.allclose(f, 0.0, rtol=0, atol=1e-9)
    # in the open disk F < 0: one source and three saddles
    stability, f = kinds("interior")
    assert stability == ["saddle"] * 3 + ["source"]
    assert max(f) < 0.0


def test_classify_limit_picks_nearest_equilibrium():
    eqs = find_equilibria(A111, grid_n=15)
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=100.0)
    hit = classify_limit(traj, eqs)
    assert hit is not None
    assert hit.stability == "sink"
    dist = np.linalg.norm(np.array(hit.point) - traj.final_state)
    assert dist < 1e-4


def test_classify_limit_none_when_far():
    eqs = find_equilibria(A111, grid_n=15)
    short = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=0.01)
    assert classify_limit(short, eqs) is None


def test_flow_keeps_disk_invariant():
    rng = np.random.default_rng(71)
    for x0 in sample_disk(rng, 20):
        traj = integrate(A111, x0, t_max=30.0)
        assert np.max(cone_form(traj.states)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_start(bad):
    with pytest.raises(ValueError, match=r"x0\[1\] = .* is not finite"):
        integrate(A111, np.array([0.2, bad, 0.5]))


def _counted(f):
    """f, and a one-item list counting the points f is called on: one per
    call on three floats, the column length per call on three columns."""
    calls = [0]

    def counted(x):
        calls[0] += np.size(x[0])
        return f(x)

    return counted, calls


# two interior starts, the second with states that cleaning renormalizes;
# a start on a face (an exact 0); and two near a vertex with a coordinate
# below CLAMP_TOL, one of them subnormal
REPLAY_STARTS = [
    [0.2, 0.3, 0.5],
    [0.1, 0.25, 0.65],
    [0.3, 0.7, 0.0],
    [0.998, 0.002, 3e-15],
    [0.999, 0.001, 5e-324],
]


def test_field_eval_count_adaptive():
    f, calls = _counted(point_field(A111))
    traj = _float_loop(f, np.array([0.2, 0.3, 0.5]), 50.0, RTOL, ATOL)
    acc, rej = traj.n_accepted, traj.n_rejected
    assert rej > 0
    assert traj.n_field_evals == calls[0]
    # one call at the start and six per attempt, and one per accepted state
    # that is not the attempt's own end point bit for bit
    assert 1 + 6 * (acc + rej) <= traj.n_field_evals < 1 + 6 * (acc + rej) + acc


@pytest.mark.parametrize("spec", [A111, make_flag("D", 8)], ids=lambda spec: spec.label)
def test_n_field_evals_counts_the_points_the_field_is_called_on(spec):
    starts = _onto_simplex(np.array(REPLAY_STARTS))
    for x in starts:
        f, calls = _counted(point_field(spec))
        assert _float_loop(f, x, 30.0, RTOL, ATOL).n_field_evals == calls[0]
    # a lockstep call evaluates the field on a column per live row
    f, calls = _counted(block_field(spec))
    rows = _lockstep(f, starts, 30.0, RTOL, ATOL)
    assert sum(row.n_field_evals for row in rows) == calls[0]


def _fresh_bound(traj):
    # the field count when every accepted step calls f on its cleaned state
    return 1 + 6 * (traj.n_accepted + traj.n_rejected) + traj.n_accepted


@pytest.mark.parametrize("spec", [A111, make_flag("D", 8)], ids=lambda spec: spec.label)
def test_a_face_row_takes_the_last_stage(spec):
    # every state of a face start keeps its exact zero, and a cleaned state
    # that is z bit for bit takes g there as in the interior
    face = _onto_simplex(np.array([[0.3, 0.7, 0.0], [0.0, 0.45, 0.55]]))
    many = _lockstep(block_field(spec), face, 30.0, RTOL, ATOL)
    for x, row in zip(face, many):
        f, calls = _counted(point_field(spec))
        traj = _float_loop(f, x, 30.0, RTOL, ATOL)
        assert 0.0 in traj.final_state
        assert traj.n_field_evals == calls[0] < _fresh_bound(traj)
        assert row.n_field_evals == traj.n_field_evals


def _minus_zeros(z):
    # z with each zero coordinate made -0.0, which compares equal to 0.0
    if isinstance(z, tuple):
        return tuple(-0.0 if v == 0.0 else v for v in z)
    return np.where(z == 0.0, -0.0, z)


def test_a_minus_zero_in_z_calls_the_field(monkeypatch):
    # the cleaned state of a z that holds -0.0 equals z but holds +0.0, so
    # it is not z bit for bit, and both loops call f on it at every
    # accepted step of a face start
    face = _onto_simplex(np.array([[0.3, 0.7, 0.0], [0.0, 0.45, 0.55]]))
    want = [integrate(A111, x, t_max=30.0).states for x in face]
    step, block_step = flow._step, flow._block_step

    def signed_step(*args):
        z, e, g = step(*args)
        return _minus_zeros(z), e, g

    def signed_block_step(*args):
        z, e, g = block_step(*args)
        return _minus_zeros(z), e, g

    monkeypatch.setattr(flow, "_step", signed_step)
    monkeypatch.setattr(flow, "_block_step", signed_block_step)
    many = _lockstep(block_field(A111), face, 30.0, RTOL, ATOL)
    for x, row, states in zip(face, many, want):
        f, calls = _counted(point_field(A111))
        traj = _float_loop(f, x, 30.0, RTOL, ATOL)
        assert traj.n_accepted > 0
        assert traj.n_field_evals == calls[0] == _fresh_bound(traj)
        assert row.n_field_evals == traj.n_field_evals
        # the states are those of the unpatched run
        assert traj.states.tobytes() == row.states.tobytes() == states.tobytes()


def _assert_replays(f, traj):
    # each stored state is _clean_state of one fresh attempt from the state
    # before it, with the slope taken there: a stale slope handed on from an
    # uncleaned state would show in the bits
    states = traj.states.tolist()
    for prev, h, state in zip(states, traj.step_sizes[1:].tolist(), states[1:]):
        y = tuple(prev)
        z = _step(f, y, f(y), h)[0]
        assert np.array(_clean_state(*z)[0]).tobytes() == np.array(state).tobytes()


@pytest.mark.parametrize("spec", [A111, make_flag("D", 8)], ids=lambda spec: spec.label)
def test_every_stored_state_replays_from_the_one_before(spec):
    f = point_field(spec)
    starts = _onto_simplex(np.array(REPLAY_STARTS))
    for x in starts:
        traj = integrate(spec, x, t_max=30.0)
        assert traj.n_accepted > 0
        _assert_replays(f, traj)
    # steps shortened to land on t_eval times
    traj = integrate(spec, starts[0], t_max=30.0, t_eval=[0.25, 1.0, 2.5, 7.0])
    assert set(traj.eval_times.tolist()) <= set(traj.times.tolist())
    _assert_replays(f, traj)
    for row in _lockstep(block_field(spec), starts, 30.0, RTOL, ATOL):
        _assert_replays(f, row)


@pytest.mark.parametrize(
    "spec",
    [A111, make_flag("A", (3, 2, 1)), make_flag("D", 8), make_flag("E")],
    ids=lambda spec: spec.label,
)
def test_integrate_many_rows_equal_single_runs(spec):
    # disk interior, circle, a face start and a vertex, which stops at t = 0;
    # at t_max 30 every family has rows ending on t_max and on equilibrium
    rng = np.random.default_rng(7)
    starts = list(sample_disk(rng, 4)) + [circle_point(a) for a in (0.4, 2.5)]
    starts += [[0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]
    # eight rows go to integrate_many's float loop, so call the lockstep itself
    batch = _lockstep(block_field(spec), _onto_simplex(np.array(starts)), 30.0, RTOL, ATOL)
    singles = [integrate(spec, x0, t_max=30.0) for x0 in starts]
    assert {traj.status for traj in singles} == {"t_max", "equilibrium"}
    assert singles[-1].status == "equilibrium" and singles[-1].n_accepted == 0
    assert len(batch) == len(starts)
    for row, single in zip(batch, singles):
        for name in ("status", "n_accepted", "n_rejected", "n_field_evals"):
            assert getattr(row, name) == getattr(single, name), name
        for name in ("times", "states", "f_values", "sum_residuals", "step_sizes"):
            got, want = getattr(row, name), getattr(single, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    # a small batch runs on the float loop and gives the same bytes
    for row, single in zip(integrate_many(spec, np.array(starts), t_max=30.0), singles):
        assert row.states.tobytes() == single.states.tobytes()


def test_lockstep_rows_keep_their_bits_as_the_batch_shrinks_to_one_row(monkeypatch):
    # the face rows stop one by one and the interior row runs on alone, so
    # the stage sums reduce (k, 3, n) stacks down to n = 1
    starts = np.array([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0], [0.0, 0.45, 0.55], [0.52, 0.0, 0.48]])
    live, block_step = [], flow._block_step

    def counted_block_step(f, y, k1, h):
        live.append(y.shape[1])
        return block_step(f, y, k1, h)

    monkeypatch.setattr(flow, "_block_step", counted_block_step)
    rows = _lockstep(block_field(A111), starts, 30.0, RTOL, ATOL)
    assert live[0] == 4 and live[-1] == 1 and set(live) == {1, 2, 3, 4}
    for x, row in zip(starts, rows):
        single = integrate(A111, x, t_max=30.0)
        assert (row.status, row.n_field_evals) == (single.status, single.n_field_evals)
        for name in ("times", "states", "step_sizes"):
            assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name


def _face_flow_error(spec, traj, k):
    """Largest error of traj's x_i on the face x_k = 0 against the exact flow.

    With (i, j) the other two coordinates, s = (2 x_i - 1)^2 obeys
    ds/dt = -c s (1 - s), c = a_i + a_j of _cubic_coefficients, so
    s(t) = s0 e^{-ct} / (1 - s0 + s0 e^{-ct}), and x_i = (1 +- sqrt(s)) / 2
    keeps the side of 1/2 it starts on.
    """
    i, j = [m for m in range(3) if m != k]
    a, _ = _cubic_coefficients(spec)
    c = a[i] + a[j]
    assert not traj.states[:, k].any()
    w0 = 2.0 * traj.states[0, i] - 1.0
    s0 = w0 * w0
    worst = 0.0
    for t, x in zip(traj.times.tolist(), traj.states[:, i].tolist()):
        e = math.exp(-c * t)
        exact = (1.0 + math.copysign(math.sqrt(s0 * e / (1.0 - s0 + s0 * e)), w0)) / 2.0
        worst = max(worst, abs(x - exact))
    return worst


# The face flows' global error is proportional to rtol: the largest over
# all three faces of the ten members, 11 starts on each, was 0.26 rtol at
# every rtol from 1e-6 to 1e-10 (at 1e-11 the atol of 1e-12 takes over).
FACE_ERROR_C = 0.3


@pytest.mark.parametrize("flag", CATALOGUE)
def test_face_rows_follow_the_closed_form_face_flow(flag):
    # the lockstep on a batch of face starts, and integrate on one start of
    # each face at a tighter rtol, against the exact solution
    spec = parse_flag(flag)
    per_face = flow.FLOAT_LOOP_ROWS // 3 + 1
    starts, faces = [], []
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        for xi in ((np.arange(per_face) + 0.3) / per_face).tolist():
            x = [0.0, 0.0, 0.0]
            x[i], x[j] = xi, 1.0 - xi
            starts.append(x)
            faces.append(k)
    assert len(starts) > flow.FLOAT_LOOP_ROWS
    rows = integrate_many(spec, np.array(starts), t_max=20.0, rtol=1e-6)
    for k, row in zip(faces, rows):
        assert _face_flow_error(spec, row, k) <= FACE_ERROR_C * 1e-6
    for k in range(3):
        single = integrate(spec, starts[k * per_face + 1], t_max=20.0, rtol=1e-9)
        assert _face_flow_error(spec, single, k) <= FACE_ERROR_C * 1e-9


def test_lockstep_step_budget_names_the_row(monkeypatch):
    # row 0 is a vertex and stops at t = 0; row 1 is the first live row
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    starts = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
    with pytest.raises(IntegrationError, match=r"row 1: step budget exhausted") as info:
        _lockstep(block_field(A111), starts, 30.0, 1e-9, 1e-12)
    assert info.value.t > 0


def test_lockstep_rejects_a_step_whose_error_estimate_overflows():
    # 1e-4 from A(3,2,1)'s normal point the field is tiny, so the first step
    # is as long as t_max and its error estimate overflows; the float loop
    # rejects it with h shrunk fivefold, and so does every lockstep row
    spec = make_flag("A", (3, 2, 1))
    x = [0.41658936562113774, 0.3333967726618085, 0.25001386171705375]
    single = integrate(spec, x, t_max=300.0)
    assert single.status == "equilibrium" and single.n_rejected == 4
    rows = _lockstep(block_field(spec), _onto_simplex(np.array([x] * 2)), 300.0, RTOL, ATOL)
    for row in rows:
        assert (row.status, row.n_rejected) == (single.status, single.n_rejected)
        for name in ("times", "states", "step_sizes"):
            assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name


def test_float_loop_step_budget(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match=r"^step budget exhausted$") as info:
        integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=30.0)
    assert info.value.t > 0
    assert info.value.state.shape == (3,)


STEP_FAMILIES = [
    A111,
    make_flag("A", (3, 2, 1)),
    make_flag("D", 5),
    make_flag("D", 8),
    make_flag("E"),
]

# the Dormand-Prince 5(4) tableau as published, zeros included: the stage
# rows, then the fifth- and fourth-order weights of k1 ... k7
DP_STAGES = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
]
DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
DP_B4 = [
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
]


def _dopri_by_hand(f, y, h):
    # one attempt in pure Python, one coordinate at a time: every sum runs
    # left to right over the nonzero coefficients
    def weighted(coefs, ks, i):
        terms = [c * k[i] for c, k in zip(coefs, ks) if c != 0.0]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    ks = [list(f(y))]
    for row in DP_STAGES:
        ks.append(list(f([y[i] + h * weighted(row, ks, i) for i in range(3)])))
    z = [y[i] + h * weighted(DP_B5, ks, i) for i in range(3)]
    ks.append(list(f(z)))
    err = [b5 - b4 for b5, b4 in zip(DP_B5, DP_B4)]
    return z, [h * weighted(err, ks, i) for i in range(3)], ks[-1]


def _renormalized(z):
    total = z[0] + z[1] + z[2]
    return [z[0] / total, z[1] / total, z[2] / total]


@pytest.mark.parametrize("spec", STEP_FAMILIES, ids=lambda spec: spec.label)
def test_step_is_the_tableau_by_hand(spec):
    rng = np.random.default_rng(5)
    f = point_field(spec)
    for x0, h in zip(rng.dirichlet(np.ones(3), 6), rng.uniform(0.02, 0.2, 6).tolist()):
        y = tuple(x0.tolist())
        assert [list(v) for v in _step(f, y, f(y), h)] == list(_dopri_by_hand(f, y, h))
        # the first accepted state of an adaptive run
        traj = integrate(spec, x0, t_max=5.0)
        start = traj.states[0].tolist()
        z = _dopri_by_hand(f, start, float(traj.step_sizes[1]))[0]
        assert traj.states[1].tolist() == _renormalized(z)


@pytest.mark.parametrize("spec", STEP_FAMILIES, ids=lambda spec: spec.label)
def test_step_is_bit_equal_on_floats_columns_and_blocks(spec):
    # _block_step with the block field, each row with its own step, against
    # the float _step with point_field on each row
    rng = np.random.default_rng(13)
    f, fb = point_field(spec), block_field(spec)
    y = rng.dirichlet(np.ones(3), 40)
    h = rng.uniform(1e-4, 0.5, 40)
    block = y.T.copy()
    on_block = _block_step(fb, block, fb(block), h)
    for i in range(len(y)):
        yi = tuple(y[i].tolist())
        # the state, the error and the last stage
        want = np.array(_step(f, yi, f(yi), float(h[i])))
        assert np.array([v[:, i] for v in on_block]).tobytes() == want.tobytes()


# --- the exact Jacobian and the closed-form equilibria ----------------------


# interior; on an edge or the hypotenuse; at each vertex; outside the triangle
JACOBIAN_POINTS = [
    (Fraction(3, 10), Fraction(1, 5)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(0), Fraction(2, 5)),
    (Fraction(2, 5), Fraction(0)),
    (Fraction(3, 5), Fraction(2, 5)),
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1, 5), Fraction(7, 10)),
    (Fraction(3, 2), Fraction(-5, 2)),
]


@pytest.mark.parametrize("spec", STEP_FAMILIES, ids=lambda spec: spec.label)
def test_jacobian_is_the_exact_jacobian_of_the_reduced_field(spec):
    sp = pytest.importorskip("sympy")
    # the reduced field written out from the cubic's formula,
    # R_i = -x_i (a_i (x_i^2 - (x_j - x_k)^2) + b_i x_j x_k), and
    # differentiated by sympy
    u, v = sp.symbols("u v")
    a, b = _cubic_coefficients(spec)
    x = (u, v, 1 - u - v)
    r = [
        -x[i] * (a[i] * (x[i] ** 2 - (x[j] - x[k]) ** 2) + b[i] * x[j] * x[k])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    total = r[0] + r[1] + r[2]
    want = sp.Matrix([r[0] - total * u, r[1] - total * v]).jacobian([u, v])
    for p in JACOBIAN_POINTS:
        exact = [
            [Fraction(int(c.p), int(c.q)) for c in row]
            for row in want.subs({u: p[0], v: p[1]}).tolist()
        ]
        assert jacobian(spec, p).tolist() == exact, p
        # on floats, the same formula to rounding
        got = jacobian(spec, np.array([float(c) for c in p]))
        assert got.dtype == float
        scale = max(1.0, max(abs(float(c)) for row in exact for c in row))
        assert np.allclose(got, np.array(exact, dtype=float), rtol=0, atol=1e-13 * scale), p


def _closed_form_equilibria(spec):
    """The 10 equilibria in Fractions, each with its location.

    With (a, b) the cubic's coefficients: the vertices e_k, the edge
    midpoints, the Kaehler points x_k = 1/2 with x_i : x_j = b_i : b_j, and
    the normal point b / sum b.
    """
    _, b = _cubic_coefficients(spec)
    zero, half = Fraction(0), Fraction(1, 2)
    out = []
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        vertex, midpoint, kaehler = [zero] * 3, [half] * 3, [half] * 3
        vertex[k], midpoint[k] = Fraction(1), zero
        kaehler[i] = Fraction(b[i], 2 * (b[i] + b[j]))
        kaehler[j] = Fraction(b[j], 2 * (b[i] + b[j]))
        out += [(vertex, "vertex"), (midpoint, "face"), (kaehler, "interior")]
    out.append(([Fraction(c, sum(b)) for c in b], "interior"))
    return out


def _exact_stability(spec, x):
    # the eigenvalues' signs from the exact Jacobian's determinant and trace
    (p, q), (r, s) = jacobian(spec, x[:2]).tolist()
    det, trace = p * s - q * r, p + s
    if det < 0:
        return "saddle"
    if det == 0 or trace == 0:
        return "degenerate"
    return "sink" if trace < 0 else "source"


# every catalogue member the Grounding checks exactly, each at one seed grid
EQUILIBRIA_CASES = list(zip(STEP_FAMILIES, (10, 15, 20, 25, 30))) + [
    (make_flag("A", (2, 1, 1)), 14),
    (make_flag("A", (1, 4, 2)), 12),
    (make_flag("A", (7, 1, 3)), 18),
    (make_flag("D", 4), 16),
    (make_flag("D", 20), 10),
]


@pytest.mark.parametrize(
    "spec,grid_n", EQUILIBRIA_CASES, ids=lambda c: getattr(c, "label", str(c))
)
def test_find_equilibria_matches_the_closed_form_equilibria(spec, grid_n):
    a, b = _cubic_coefficients(spec)
    exact = []
    for x, location in _closed_form_equilibria(spec):
        # R(x) = lambda x, exactly
        r = _cubic(a, b, *x)
        lam = sum(ri * xi for ri, xi in zip(r, x)) / sum(xi * xi for xi in x)
        assert list(r) == [lam * xi for xi in x], x
        exact.append((x, location, lam))
    eqs = find_equilibria(spec, grid_n=grid_n)
    assert len(eqs) == 10
    # each number is the exact one rounded once to float
    rounded = {tuple(map(float, x)): k for k, (x, _, _) in enumerate(exact)}
    hit = set()
    for e in eqs:
        k = rounded[tuple(e.point.tolist())]
        hit.add(k)
        x, location, lam = exact[k]
        assert e.location == location, (e.point, e.location)
        assert e.einstein_constant == float(lam), e.point
        assert e.stability == _exact_stability(spec, x), (e.point, e.stability)
    assert len(hit) == 10


# the cubic's coefficients (a, b) written out from the family rule, apart
# from fields._cubic_coefficients: A(m,n,p) has a = (p, n, m) and b = (2(m+n),
# 2(m+p), 2(n+p)), D(l) has a = (l-2, l-2, 2) and b = (2l, 2l, 4(l-2))
ORACLE_COEFFICIENTS = {"A:3,2,1": ((1, 2, 3), (10, 8, 6)), "D:8": ((6, 6, 2), (16, 16, 24))}


@pytest.mark.parametrize("flag", sorted(ORACLE_COEFFICIENTS))
def test_find_equilibria_matches_a_sympy_solve(flag):
    # with R_i = -x_i q_i, the equilibria off the vertices solve q_i = q_j
    # between the coordinates that do not vanish
    sp = pytest.importorskip("sympy")
    (a1, a2, a3), (b1, b2, b3) = ORACLE_COEFFICIENTS[flag]
    x1, x2, x3 = x = sp.symbols("x1 x2 x3")
    q = [
        a1 * (x1**2 - (x2 - x3) ** 2) + b1 * x2 * x3,
        a2 * (x2**2 - (x3 - x1) ** 2) + b2 * x1 * x3,
        a3 * (x3**2 - (x1 - x2) ** 2) + b3 * x1 * x2,
    ]
    want = [(np.eye(3)[k], "vertex") for k in range(3)]
    plane = {x3: 1 - x1 - x2}
    conics = [sp.expand((q[0] - q[1]).subs(plane)), sp.expand((q[1] - q[2]).subs(plane))]
    for sol in sp.solve(conics, [x1, x2], dict=True):
        pt = [sol[x1], sol[x2], 1 - sol[x1] - sol[x2]]
        if all(c.is_real and c > 0 for c in pt):
            want.append((np.array([float(c) for c in pt]), "interior"))
    t = sp.Symbol("t")
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        on_face = {x[k]: 0, x[i]: t, x[j]: 1 - t}
        for root in sp.solve(sp.expand((q[i] - q[j]).subs(on_face)), t):
            if root.is_real and 0 < root < 1:
                pt = np.zeros(3)
                pt[i], pt[j] = float(root), float(1 - root)
                want.append((pt, "face"))
    eqs = find_equilibria(parse_flag(flag))
    assert len(want) == len(eqs) == 10
    for pt, location in want:
        near = [e for e in eqs if np.max(np.abs(e.point - pt)) <= 1e-15]
        assert len(near) == 1 and near[0].location == location, (pt, location)


# the families A and D with sympy symbols for parameters, then the catalogue
COMPLETENESS_CASES = ["A", "D"] + [spec for spec, _ in EQUILIBRIA_CASES]


@pytest.mark.parametrize(
    "case", COMPLETENESS_CASES, ids=lambda c: "symbolic-" + c if isinstance(c, str) else c.label
)
def test_the_ten_closed_form_equilibria_are_all_of_them(case):
    # X = R - (sum R) x vanishes on the simplex exactly where R = lambda x.
    # R_i = x_i q_i with q_i a quadratic form, so an interior zero is a
    # common point of the conics q1 = q2 and q2 = q3. They share no
    # component, so by Bezout they meet in at most 4 points of the
    # projective plane, and the 4 distinct interior closed forms are all of
    # them. On the face x_k = 0, q_i = q_j is (a_i + a_j)(x_i^2 - x_j^2) = 0,
    # which leaves the midpoint; the vertices are the other 3 zeros.
    sp = pytest.importorskip("sympy")
    spec = case
    if isinstance(case, str):
        params = sp.symbols("m n p") if case == "A" else (sp.Symbol("ell"),)
        spec = FlagSpec(case, params, (0, 0, 0))
    x = sp.symbols("x1 x2 x3")
    a, b = _cubic_coefficients(spec)
    q = [sp.cancel(ri / xi) for ri, xi in zip(_cubic(a, b, *x), x)]
    conics = [sp.expand(q[0] - q[1]), sp.expand(q[1] - q[2])]
    assert all(sp.Poly(c, *x).total_degree() == 2 for c in conics)
    # a shared component would be a common factor of positive degree in x
    assert not sp.gcd(*conics).free_symbols & set(x)
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        on_face = sp.expand((q[i] - q[j]).subs(x[k], 0))
        assert sp.expand(on_face + (a[i] + a[j]) * (x[i] ** 2 - x[j] ** 2)) == 0
    if isinstance(case, str):
        return
    assert all(a[i] + a[j] > 0 for i in range(3) for j in range(i))
    interior = [p for p, location in _closed_form_equilibria(spec) if location == "interior"]
    assert len({tuple(p) for p in interior}) == 4
    for p in interior:
        assert all(c > 0 for c in p) and sum(p) == 1
        assert [c.subs(dict(zip(x, p))) for c in conics] == [0, 0]


@pytest.mark.parametrize("flag", CATALOGUE)
def test_point_field_on_three_floats_has_the_bits_of_reduced_field(flag):
    # the reduced field at (u, v) is the first two components of
    # point_field on (u, v, 1.0 - u - v): random points in and out of the
    # triangle, its edges and vertices, and coordinates that are -0.0
    spec = parse_flag(flag)
    rng = np.random.default_rng(29)
    uv = rng.dirichlet(np.ones(3), size=300)[:, :2].tolist()
    uv += rng.uniform(-2.0, 3.0, size=(100, 2)).tolist()
    for s in np.linspace(0.0, 1.0, 13).tolist() + rng.uniform(size=8).tolist():
        uv += [(s, 0.0), (0.0, s), (s, 1.0 - s), (-0.0, s), (s, -0.0)]
    uv += [(-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0)]
    f, zeros = point_field(spec), 0
    for u, v in uv:
        got, want = np.array(f((u, v, 1.0 - u - v))[:2]), reduced_field(spec, (u, v))
        r = _cubic(*_cubic_coefficients(spec), u, v, 1.0 - u - v)
        if all(c == 0.0 and np.signbit(c) for c in r):
            # R is -0.0 three times, as at a face midpoint x_i = x_k: numpy
            # sums it to +0.0 and point_field to -0.0, so the two give zeros
            # of opposite signs; the residual's norm is 0 either way
            zeros += 1
            assert got.tolist() == want.tolist() == [0.0, 0.0], (u, v)
            continue
        assert got.tobytes() == want.tobytes(), (u, v)
    assert zeros > 0


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, 0.0])
def test_find_equilibria_rejects_a_newton_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="^newton_tol must be finite and positive"):
        find_equilibria(A111, grid_n=10, newton_tol=tol)


@pytest.mark.parametrize("m", [10**6, 10**200], ids=["1e6", "1e200"])
def test_find_equilibria_gives_all_ten_at_huge_parameters(m):
    # fields of size m, far above any absolute tolerance; at m = 10^200 a
    # Kaehler coordinate is about 1e-200 and must still count as interior
    eqs = find_equilibria(make_flag("A", (m, 1, 1)))
    assert len(eqs) == 10
    split = sorted((e.location, e.stability) for e in eqs)
    assert split == sorted(
        [("vertex", "source")] * 3
        + [("face", "sink")] * 3
        + [("interior", "saddle")] * 3
        + [("interior", "source")]
    )
