import math

import numpy as np
import pytest

from flagricci import flow
from flagricci.fields import cone_form, point_field, projected_field, reduced_field
from flagricci.flags import make_flag, parse_flag
from flagricci.flow import (
    ATOL,
    RTOL,
    IntegrationError,
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


def test_trajectory_metadata():
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=5.0)
    assert traj.times[0] == 0.0
    assert traj.n_accepted == len(traj.times) - 1
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.f_values) == len(traj.times)
    assert np.max(traj.sum_residuals) < 1e-12


def test_jacobian_of_linear_field():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    jac = jacobian(lambda p: p @ a.T, np.array([0.3, 0.3]))
    assert np.allclose(jac, a, rtol=0, atol=1e-8)


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


@pytest.mark.parametrize("flag", ["A:1,1,1", "A:3,2,1", "A:1,4,2", "D:5", "D:8", "E"])
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


def test_field_eval_count_adaptive():
    traj = integrate(A111, np.array([0.2, 0.3, 0.5]), t_max=50.0)
    acc, rej = traj.n_accepted, traj.n_rejected
    assert rej > 0
    assert traj.n_field_evals == 1 + 6 * (acc + rej) + acc


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
    batch = _lockstep(point_field(spec), _onto_simplex(np.array(starts)), 30.0, RTOL, ATOL)
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


def test_lockstep_step_budget_names_the_row(monkeypatch):
    # row 0 is a vertex and stops at t = 0; row 1 is the first live row
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    starts = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
    with pytest.raises(IntegrationError, match=r"row 1: step budget exhausted") as info:
        _lockstep(point_field(A111), starts, 30.0, 1e-9, 1e-12)
    assert info.value.t > 0


def test_lockstep_rejects_a_step_whose_error_estimate_overflows():
    # 1e-4 from A(3,2,1)'s normal point the field is tiny, so the first step
    # is as long as t_max and its error estimate overflows; the float loop
    # rejects it with h shrunk fivefold, and so does every lockstep row
    spec = make_flag("A", (3, 2, 1))
    x = [0.41658936562113774, 0.3333967726618085, 0.25001386171705375]
    single = integrate(spec, x, t_max=300.0)
    assert single.status == "equilibrium" and single.n_rejected == 4
    rows = _lockstep(point_field(spec), _onto_simplex(np.array([x] * 2)), 300.0, RTOL, ATOL)
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
    return z, [h * weighted(err, ks, i) for i in range(3)]


def _renormalized(z):
    total = z[0] + z[1] + z[2]
    return [z[0] / total, z[1] / total, z[2] / total]


@pytest.mark.parametrize("spec", STEP_FAMILIES, ids=lambda spec: spec.label)
def test_step_is_the_tableau_by_hand(spec):
    rng = np.random.default_rng(5)
    f = point_field(spec)
    for x0, h in zip(rng.dirichlet(np.ones(3), 6), rng.uniform(0.02, 0.2, 6).tolist()):
        y = tuple(x0.tolist())
        z, err = _dopri_by_hand(f, y, h)
        assert [list(v) for v in _step(f, y, f(y), h)] == [z, err]
        # the first accepted state of an adaptive run
        traj = integrate(spec, x0, t_max=5.0)
        start = traj.states[0].tolist()
        z, _ = _dopri_by_hand(f, start, float(traj.step_sizes[1]))
        assert traj.states[1].tolist() == _renormalized(z)


@pytest.mark.parametrize("spec", STEP_FAMILIES, ids=lambda spec: spec.label)
def test_step_is_bit_equal_on_floats_columns_and_blocks(spec):
    rng = np.random.default_rng(13)
    f = point_field(spec)
    y = rng.dirichlet(np.ones(3), 40)
    h = rng.uniform(1e-4, 0.5, 40)
    cols = tuple(y.T)
    z_cols, e_cols = _step(f, cols, f(cols), h)
    z_block, e_block = map(np.array, _step(f, y.T, np.array(f(cols)), h))
    for i in range(len(y)):
        yi = tuple(y[i].tolist())
        want = np.array(_step(f, yi, f(yi), float(h[i])))
        got = np.array([[c[i] for c in z_cols], [c[i] for c in e_cols]])
        assert got.tobytes() == want.tobytes()
        assert np.array([z_block[:, i], e_block[:, i]]).tobytes() == want.tobytes()


# --- the Newton search against its five-call form ----------------------------


def _jacobian_five_calls(f, p):
    # jacobian as it was before its probes were stacked: one f call per probe
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(2):
        step = flow.JACOBIAN_STEP * max(1.0, abs(p[i]))
        fwd = p.copy()
        fwd[i] += step
        bwd = p.copy()
        bwd[i] -= step
        if flow._in_closed_domain(fwd) and flow._in_closed_domain(bwd):
            cols.append((f(fwd) - f(bwd)) / (2.0 * step))
        elif flow._in_closed_domain(fwd):
            cols.append((f(fwd) - f(p)) / step)
        else:
            cols.append((f(p) - f(bwd)) / step)
    return np.column_stack(cols)


def _newton_root_five_calls(f, seed, tol, max_iter=60):
    # _newton_root as it was: f at the point, then the five-call Jacobian
    p = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        val = f(p)
        if float(np.linalg.norm(val)) <= tol:
            return p
        jac = _jacobian_five_calls(f, p)
        try:
            delta = np.linalg.solve(jac, -val)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        if float(np.linalg.norm(delta)) > 10.0:
            return None
        p = p + delta
    return None


# interior; on an edge or the hypotenuse, where one probe leaves the triangle;
# at each vertex, where a column is one-sided or both probes leave; outside
JACOBIAN_POINTS = [
    (0.3, 0.2),
    (1 / 3, 1 / 3),
    (0.0, 0.4),
    (0.4, 0.0),
    (0.6, 0.4),
    (0.0, 0.0),
    (1.0, 0.0),
    (0.0, 1.0),
    (-0.0, 0.5),
    (-0.2, 0.7),
    (1.5, -2.5),
]


@pytest.mark.parametrize("spec", STEP_FAMILIES, ids=lambda spec: spec.label)
def test_jacobian_and_newton_root_have_the_bits_of_the_five_call_form(spec):
    def fy(uv):
        return reduced_field(spec, uv)

    for p in JACOBIAN_POINTS:
        want = _jacobian_five_calls(fy, np.array(p))
        assert jacobian(fy, np.array(p)).tobytes() == want.tobytes(), p
        got = flow._newton_root(fy, p, 1e-12)
        want = _newton_root_five_calls(fy, p, 1e-12)
        assert (got is None) == (want is None), p
        if want is not None:
            assert got.tobytes() == want.tobytes(), p


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
def test_find_equilibria_has_the_bits_of_the_five_call_search(spec, grid_n, monkeypatch):
    def as_bytes(eqs):
        return [(e.point.tobytes(), repr(e.as_dict())) for e in eqs]

    got = as_bytes(find_equilibria(spec, grid_n=grid_n))
    monkeypatch.setattr(flow, "jacobian", _jacobian_five_calls)
    monkeypatch.setattr(flow, "_newton_root", _newton_root_five_calls)
    assert got == as_bytes(find_equilibria(spec, grid_n=grid_n))
    assert len(got) == 10


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, 0.0])
def test_find_equilibria_rejects_a_newton_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="^newton_tol must be finite and positive"):
        find_equilibria(A111, grid_n=10, newton_tol=tol)
