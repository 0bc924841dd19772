"""Property tests: closed forms held against the forms they replaced, the
realization of metrics, torus frames and their orbits, the symmetries of the
curvature field, and the input parsers under fuzzing.

Each fast path is compared with its reference form, kept here, on inputs
that hypothesis draws under the profile in conftest.py: bit for bit where
the arithmetic is the same, within a few ulps where it is not. Each parser
either returns a value or raises ValueError, whatever its text.
"""

import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from flagricci.cli import load_config, parse_point  # noqa: E402
from flagricci.collapse import hausdorff, is_subalgebra, orbit_distance  # noqa: E402
from flagricci.fields import (  # noqa: E402
    _cubic_coefficients,
    block_field,
    cone_form,
    point_field,
    ricci_field,
)
from flagricci.flags import FlagSpec, make_flag, parse_flag  # noqa: E402
from flagricci.flow import (  # noqa: E402
    FLOAT_LOOP_ROWS,
    _block_step,
    _step,
    integrate,
    integrate_many,
)
from flagricci.orbits import (  # noqa: E402
    _flatten_real,
    build_model,
    induced_metric,
    sample_orbit,
)
from flagricci.realize import (  # noqa: E402
    _E1,
    _E2,
    PSD_TOL,
    CONE_FLOOR,
    _split,
    circle_point,
    coeffs_to_psd,
    frame_metric,
    gram,
    is_psd,
    psd_to_coeffs,
    realizing_frame,
    sample_cone,
    sym_sqrt,
)


def _projected_witness(model, i, j):
    """The bracket-and-project witness: [m_i[0], m_j[0]] projected onto m_k."""
    (k,) = {1, 2, 3} - {i, j}
    xa, xb = model.summand_bases[i - 1][0], model.summand_bases[j - 1][0]
    br = xa @ xb - xb @ xa
    # basis elements all have <X, X> = 4N and are mutually orthogonal
    norm2 = 4.0 * model.n_ambient
    res2 = 0.0
    for e in model.summand_bases[k - 1]:
        res2 += model.inner(br, e) ** 2 / norm2
    return {
        "first": "m%d[0]" % i,
        "second": "m%d[0]" % j,
        "leaks_into": k,
        "residual": float(np.sqrt(res2)),
    }


@settings(max_examples=10)
@given(
    blocks=st.tuples(*[st.integers(1, 6)] * 3),
    pair=st.sampled_from([(1, 2), (1, 3), (2, 3)]),
)
def test_witness_is_the_projected_bracket(blocks, pair):
    model = build_model(*blocks)
    ok, witness = is_subalgebra(model, pair)
    assert not ok
    want = _projected_witness(model, *pair)
    assert witness == want
    assert witness["residual"] == 2.0 * math.sqrt(model.n_ambient)


def _eig2_sym_numpy(y):
    """The closed-form 2x2 split on numpy scalars, as realize computed it."""
    a, b, c = y[0, 0], y[1, 1], y[0, 1]
    half_tr = 0.5 * (a + b)
    delta = 0.5 * (a - b)
    disc = math.hypot(delta, c)
    lo, hi = half_tr - disc, half_tr + disc
    if disc == 0.0 or (c == 0.0 and abs(delta) == disc):
        if a <= b:
            return np.array([a, b]), np.eye(2)
        return np.array([b, a]), np.array([[0.0, 1.0], [1.0, 0.0]])
    if delta <= 0:
        v_hi = np.array([c, hi - a])
    else:
        v_hi = np.array([hi - b, c])
    v_hi /= math.hypot(v_hi[0], v_hi[1])
    v_lo = np.array([-v_hi[1], v_hi[0]])
    return np.array([lo, hi]), np.column_stack([v_lo, v_hi])


# finite doubles, with the edges named: signed zeros, the smallest
# subnormal and values next to the largest double, whose sums overflow
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
)


@st.composite
def _two_by_two(draw):
    a, b, c = draw(_ENTRIES), draw(_ENTRIES), draw(_ENTRIES)
    shape = draw(st.sampled_from(["symmetric", "tie", "diagonal", "asymmetric"]))
    if shape == "tie":
        b = a
    elif shape == "diagonal":
        c = draw(st.sampled_from([0.0, -0.0]))
    c1 = draw(_ENTRIES) if shape == "asymmetric" else c
    return np.array([[a, c], [c1, b]])


@settings(max_examples=80)
@given(y=_two_by_two())
def test_eig2_sym_has_the_bits_of_the_numpy_scalar_form(y):
    # the split quarters y where an entry reaches 2^1021, and nowhere else;
    # at that scale the numpy form's sums are all finite
    k = 2.0 if np.abs(y).max() >= 2.0**1021 else 1.0
    (a, c0), (c1, b) = y.tolist()
    got_k, _, _, _, lo, hi, d, s = _split(a, b, c0, c1)
    w_ref, v_ref = _eig2_sym_numpy(0.5 * (y / k**2 + y.T / k**2))
    assert got_k == k
    assert np.array([lo, hi]).tobytes() == w_ref.tobytes()
    # the eigenprojectors of rank1_decompose against the outer products. The
    # numpy form's eigenvectors come from hi - a or hi - b, good to about
    # 2^-53 (1 + |hi| / (hi - lo)); where hi - lo is zero or subnormal, to no bit
    gap = hi - lo
    if gap < 2.0**-1000:
        return
    tol = 4 * 2.0**-53 * (1.0 + max(abs(lo), abs(hi)) / gap)
    r = np.array([[d, s], [s, -d]])
    for p, v in zip(((np.eye(2) - r) / 2, (np.eye(2) + r) / 2), v_ref.T):
        assert np.abs(p - np.outer(v, v)).max() <= tol


# --- realization: the closed-form square root and the frame -----------------


def _sym_sqrt_eigenvectors(y, tol=PSD_TOL):
    """sym_sqrt as realize computed it: eigenvectors, a matmul, a symmetry repair.

    Near the float limit it is twice the root of y / 4, whose sums are finite.
    """
    if np.abs(y).max() > 1e307:
        return 2.0 * _sym_sqrt_eigenvectors(y / 4.0, tol)
    w, v = _eig2_sym_numpy(0.5 * (y + y.T))
    if w[0] < -tol * max(w[-1], 1.0):
        raise ValueError("matrix is not positive semidefinite")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (s + s.T)


_SCALES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _psd_like(draw):
    """Random PSD, rank-one, near-singular, diagonal (c = 0) and zero matrices."""
    kind = draw(st.sampled_from(["psd", "rank1", "near_singular", "diagonal", "zero"]))
    scale = draw(_SCALES)
    if kind == "zero":
        return np.zeros((2, 2))
    if kind == "diagonal":
        a, b = draw(st.floats(-1e-9, 1.0)), draw(st.floats(-1e-9, 1.0))
        return np.array([[a, 0.0], [0.0, b]]) * scale
    if kind == "rank1":
        u = np.array([draw(_UNIT), draw(_UNIT)])
        return np.outer(u, u) * scale
    if kind == "near_singular":
        # eigenvalues 1 and one on either side of the rejection threshold
        t = draw(st.floats(0.0, 2.0 * math.pi))
        u, w = np.array([math.cos(t), math.sin(t)]), np.array([-math.sin(t), math.cos(t)])
        small = draw(st.floats(-2.0 * PSD_TOL, 2.0 * PSD_TOL))
        return (np.outer(u, u) + small * np.outer(w, w)) * scale
    a = np.array([[draw(_UNIT), draw(_UNIT)], [draw(_UNIT), draw(_UNIT)]])
    return a @ a.T * scale


def _or_none(fn, arg):
    """fn(arg), or None where it raises ValueError."""
    try:
        return fn(arg)
    except ValueError:
        return None


def _within_8_ulps(got, want):
    return np.abs(got - want).max() <= 8.0 * np.spacing(max(1.0, float(np.abs(want).max())))


@settings(max_examples=40)
@given(y=_psd_like())
def test_sym_sqrt_agrees_with_the_eigenvector_form(y):
    got, want = _or_none(sym_sqrt, y), _or_none(_sym_sqrt_eigenvectors, y)
    assert (got is None) == (want is None)
    assert is_psd(y) == (want is not None)
    if got is not None:
        assert got[0, 1] == got[1, 0]
        assert _within_8_ulps(got, want)


@settings(max_examples=40)
@given(y=_two_by_two())
def test_sym_sqrt_decides_as_the_eigenvector_form(y):
    # the whole double range: the same inputs accepted and rejected, and a
    # finite root wherever one is accepted
    want = _or_none(_sym_sqrt_eigenvectors, y)
    try:
        got = sym_sqrt(y)
    except ValueError as exc:
        assert "not positive semidefinite" in str(exc)
        assert want is None
        return
    assert want is not None and np.isfinite(want).all()
    assert np.isfinite(got).all() and np.array_equal(got, got.T)


# first-orthant points with x1 + x2 <= 1, so that |F| > 1e-9 puts the small
# eigenvalue of coeffs_to_psd(x) beyond is_psd's tolerance
_ORTHANT = st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda x: sum(x) > 0)


@settings(max_examples=40)
@given(x=_ORTHANT, t=st.floats(1e-3, 1.0))
def test_cone_characterization(x, t):
    x = np.array(x) / sum(x) * t
    f = float(cone_form(x))
    if abs(f) > 1e-9:
        assert (f <= 0.0) == is_psd(coeffs_to_psd(x))


def _sample_cone_per_point(rng, count):
    """sample_cone as it was first written: one circle_point call per angle."""
    out = np.empty((count, 3))
    have = 0
    while have < count:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=2 * (count - have) + 8)
        pts = np.array([circle_point(t) for t in theta])
        pts = pts[pts.min(axis=1) >= CONE_FLOOR]
        take = min(len(pts), count - have)
        out[have : have + take] = pts[:take]
        have += take
    return out * rng.uniform(0.25, 2.0, size=count)[:, None]


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32), count=st.integers(1, 300))
def test_sample_cone_has_the_bits_of_the_per_point_form(seed, count):
    got = sample_cone(np.random.default_rng(seed), count)
    want = _sample_cone_per_point(np.random.default_rng(seed), count)
    assert got.tobytes() == want.tobytes()


def _realizing_frame_eigenvectors(x, tol=PSD_TOL):
    """realizing_frame as realize computed it, on the eigenvector form."""
    if np.min(x) < -tol:
        raise ValueError("coefficients must be nonnegative")
    return _sym_sqrt_eigenvectors(coeffs_to_psd(np.clip(x, 0.0, None)), tol)


# boundary points (eps, u, u) with eps on either side of -PSD_TOL, in any order
_NEAR_A_FACE = st.builds(
    lambda eps, u, k: np.roll([eps, u, u], k),
    st.floats(-2.0 * PSD_TOL, 0.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2),
)


@settings(max_examples=40)
@given(x=st.one_of(_psd_like().map(psd_to_coeffs), _NEAR_A_FACE))
def test_realizing_frame_matches_the_eigenvector_form_and_is_a_section(x):
    got, want = _or_none(realizing_frame, x), _or_none(_realizing_frame_eigenvectors, x)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got[0, 1] == got[1, 0]
    assert _within_8_ulps(got, want)
    scale = max(1.0, float(np.abs(x).max()))
    assert np.abs(frame_metric(got) - x).max() <= 1e-9 * scale


# entries of every size, signed zeros among them; squares of the largest
# overflow to inf, and inf - inf gives nan, alike on a stack and on a point
_ENTRY = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40)
@given(
    data=st.data(),
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    k=st.integers(1, 5),
)
def test_realize_maps_on_a_stack_have_the_bits_of_each_point(data, lead, k):
    lead = tuple(lead)
    frames, ys, xs = (
        data.draw(hnp.arrays(np.float64, lead + shape, elements=_ENTRY))
        for shape in ((2, k), (2, 2), (3,))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        cases = (gram, frames), (frame_metric, frames), (psd_to_coeffs, ys), (coeffs_to_psd, xs)
        for fn, stack in cases:
            got = fn(stack)
            for idx in np.ndindex(*lead):
                assert fn(stack[idx]).tobytes() == got[idx].tobytes(), fn.__name__


# --- torus frames and their orbit clouds ------------------------------------

# family-A blocks of su(3) up to su(7)
_BLOCKS = st.tuples(*[st.integers(1, 5)] * 3).filter(lambda b: sum(b) <= 7)
_TAU = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2)
)


@settings(max_examples=20)
@given(blocks=_BLOCKS, tau=_TAU)
def test_frame_is_a_torus_frame_that_induces_the_frame_metric(blocks, tau):
    model = build_model(*blocks)
    frame = model.frame(tau)
    assert frame.shape == (2, model.n_ambient)
    for row in frame:
        for r in model.block_ranges:
            assert np.all(row[list(r)] == row[r.start])
        assert abs(row.sum()) <= 1e-14 * max(1.0, np.abs(row).max())
    want = frame_metric(tau)
    got = induced_metric(model, frame)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _induced_gram(model, frame):
    """induced_metric's Gram matrix as it was first written: each basis
    element bracketed with i diag(h) by two matrix products."""
    basis = [b for bas in model.summand_bases for b in bas]
    g = np.zeros((len(basis), len(basis)))
    for h in frame:
        hm = 1j * np.diag(h)
        v = _flatten_real([x @ hm - hm @ x for x in basis], model.n_ambient)
        g += v @ v.T
    return g


def _metric_of_gram(model, g):
    # induced_metric's coefficients from its Gram matrix
    dims = np.array(model.dims)
    offs = np.cumsum([0, *model.dims])
    traces = [np.trace(g[o : o + d, o : o + d]) for o, d in zip(offs, model.dims)]
    return np.array(traces) / (dims * (4.0 * model.n_ambient))


@settings(max_examples=20)
@given(blocks=_BLOCKS, tau=_TAU, scale=st.floats(-6.0, 6.0).map(lambda p: 10.0**p))
def test_induced_metric_has_the_bits_of_the_per_element_brackets(blocks, tau, scale):
    model = build_model(*blocks)
    frame = model.frame(scale * tau)
    want = _metric_of_gram(model, _induced_gram(model, frame))
    assert induced_metric(model, frame).tobytes() == want.tobytes()


@settings(max_examples=20)
@given(
    blocks=_BLOCKS,
    taus=st.lists(_TAU, min_size=1, max_size=4),
    scale=st.floats(-6.0, 6.0).map(lambda p: 10.0**p),
)
def test_induced_metric_on_a_stack_has_the_bits_of_each_frame(blocks, taus, scale):
    model = build_model(*blocks)
    frames = np.array([model.frame(scale * tau) for tau in taus])
    got = induced_metric(model, frames)
    assert got.shape == (len(taus), 3)
    for frame, row in zip(frames, got):
        assert induced_metric(model, frame).tobytes() == row.tobytes()
    # two leading axes
    assert induced_metric(model, frames[None]).tobytes() == got.tobytes()


@settings(max_examples=20)
@given(taus=st.lists(_TAU, max_size=4), at=st.integers(0, 4))
def test_induced_metric_raises_on_a_stack_that_holds_one_frame_off_the_torus(taus, at):
    # on su(4) a diagonal that is not constant on the 2x2 block is not a
    # torus element; every other frame of the stack is
    model = build_model(2, 1, 1)
    frames = [model.frame(tau) for tau in taus]
    frames.insert(min(at, len(frames)), np.array([[0.5, -0.5, 0.2, -0.2], model.omega[1]]))
    with pytest.raises(ValueError, match="^induced metric is not block-scalar on the summands"):
        induced_metric(model, np.array(frames))


@settings(max_examples=15)
@given(blocks=_BLOCKS, taus=st.tuples(_TAU, _TAU), seed=st.integers(0, 2**32))
def test_sampled_distance_lies_between_exact_and_matched(blocks, taus, seed):
    # one seed, so both clouds conjugate by the same Haar samples
    model = build_model(*blocks)
    a, b = (sample_orbit(model, model.frame(tau), 40, seed) for tau in taus)
    z, w = (c.frame[0] + 1j * c.frame[1] for c in (a, b))
    scale = math.sqrt(2.0 * model.n_ambient)
    matched = scale * float(np.linalg.norm(z - w))
    tol = 1e-9 * scale * max(1.0, float(np.linalg.norm(z)), float(np.linalg.norm(w)))
    exact = orbit_distance(a.frame, b.frame)
    assert exact - tol <= hausdorff(a, b) <= matched + tol


# --- the curvature field: symmetries on the whole catalogue ------------------

_CATALOGUE = st.one_of(
    st.tuples(*[st.integers(1, 6)] * 3).map(lambda p: make_flag("A", p)),
    st.integers(4, 12).map(lambda ell: make_flag("D", ell)),
    st.just(make_flag("E")),
)
_POINTS = st.lists(
    st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=8
).map(np.array)
_PERMS = st.sampled_from([[0, 1, 2], [1, 0, 2], [0, 2, 1], [2, 1, 0], [1, 2, 0], [2, 0, 1]])


def _permuted_member(spec, perm):
    """The member whose field at x[perm] is R(x)[perm], or None if there is none.

    In family A coordinate i belongs to the block size absent from its pair,
    s = (p, n, m), so permuting coordinates permutes s; family D is symmetric
    in its first two coordinates only, and E in all three.
    """
    if spec.family == "A":
        s = [spec.params[2], spec.params[1], spec.params[0]]
        s2 = [s[k] for k in perm]
        return make_flag("A", (s2[2], s2[1], s2[0]))
    if spec.family == "E" or perm in ([0, 1, 2], [1, 0, 2]):
        return spec
    return None


@settings(max_examples=20)
@given(spec=_CATALOGUE, x=_POINTS, lam=st.floats(0.1, 3.0), perm=_PERMS)
def test_ricci_field_symmetries(spec, x, lam, perm):
    r = ricci_field(spec, x)
    # degree-3 homogeneity; the cubic's terms are below 60 on the unit cube
    assert np.abs(ricci_field(spec, lam * x) - lam**3 * r).max() <= 1e-12 * lam**3
    # each face {x_i = 0} is invariant exactly
    for i in range(3):
        face = x.copy()
        face[:, i] = 0.0
        assert np.all(ricci_field(spec, face)[:, i] == 0.0)
    other = _permuted_member(spec, perm)
    if other is not None:
        assert np.abs(ricci_field(other, x[:, perm]) - r[:, perm]).max() <= 1e-12


def _lyapunov_linear(spec, x):
    """The linear form L of test_lyapunov_certificate_holds_symbolically at x."""
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    if spec.family == "D":
        (ell,) = spec.params
        return (ell - 2) * (x1 + x2) + 2 * x3
    m, n, p = spec.params if spec.family == "A" else (1, 1, 1)
    return p * x1 + n * x2 + m * x3


@settings(max_examples=20)
@given(spec=_CATALOGUE, x=_POINTS)
def test_lyapunov_bracket_is_nonnegative_on_the_orthant(spec, x):
    # G = L s^2 + sum R is a sum of terms nonnegative on the orthant, so
    # only rounding can take it below 0: by at most 1e-12 of the terms' size
    r = ricci_field(spec, x)
    ls2 = _lyapunov_linear(spec, x) * x.sum(axis=-1) ** 2
    g = ls2 + r.sum(axis=-1)
    assert np.all(g >= -1e-12 * (ls2 + np.abs(r).sum(axis=-1)))


# batches of 1 to FLOAT_LOOP_ROWS + 8 simplex points, their sizes drawn on
# either side of FLOAT_LOOP_ROWS alike
_BATCH_SIZES = st.one_of(
    st.integers(1, FLOAT_LOOP_ROWS), st.integers(FLOAT_LOOP_ROWS + 1, FLOAT_LOOP_ROWS + 8)
)
_SIMPLEX_STARTS = _BATCH_SIZES.flatmap(
    lambda n: st.lists(
        st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda x: sum(x) > 1e-3),
        min_size=n,
        max_size=n,
    )
).map(lambda rows: np.array(rows) / np.sum(rows, axis=1, keepdims=True))


def _assert_rows_are_single_runs(spec, starts, t_max):
    trajs = integrate_many(spec, starts, t_max=t_max)
    assert len(trajs) == len(starts)
    for start, got in zip(starts, trajs):
        want = integrate(spec, start, t_max=t_max)
        for name in ("times", "states", "f_values", "sum_residuals", "step_sizes"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.status == want.status
        assert (got.n_accepted, got.n_rejected, got.n_field_evals) == (
            want.n_accepted,
            want.n_rejected,
            want.n_field_evals,
        )


@settings(max_examples=8)
@given(spec=_CATALOGUE, starts=_SIMPLEX_STARTS, t_max=st.floats(0.05, 0.5))
def test_integrate_many_has_the_bits_of_integrate(spec, starts, t_max):
    _assert_rows_are_single_runs(spec, starts, t_max)


# a coordinate near a vertex: 0, or 10^-300 to 10^-1
_TINY = st.one_of(st.just(0.0), st.floats(-300.0, -1.0).map(lambda p: 10.0**p))
# a state near a vertex: two tiny coordinates and what they leave of 1
_NEAR_VERTEX = st.tuples(st.integers(0, 2), _TINY, _TINY).map(
    lambda v: np.roll([1.0 - v[1] - v[2], v[1], v[2]], v[0]).tolist()
)
# step sizes from the least subnormal to 1e300, where the stages overflow
# to inf and nan
_STEPS = st.one_of(
    st.sampled_from([5e-324, 1e300]), st.floats(-320.0, 300.0).map(lambda p: 10.0**p)
)


@settings(max_examples=30)
@given(spec=_CATALOGUE, rows=st.lists(st.tuples(_NEAR_VERTEX, _STEPS), min_size=1, max_size=6))
def test_step_has_the_bits_of_the_float_step_on_columns_and_blocks(spec, rows):
    # each row's attempt on Python floats against the same attempt made by
    # _block_step with the block field on a (3, n) block, each row with its
    # own step size; the largest steps overflow to inf and nan, which the
    # loops reject
    f, fb = point_field(spec), block_field(spec)
    want = []
    for y, h in rows:
        z, err, g = _step(f, y, f(y), h)
        want.append(z + err + g)
    block = np.array([y for y, _ in rows]).T
    h = np.array([h for _, h in rows])
    with np.errstate(all="ignore"):
        got = np.concatenate(_block_step(fb, block, fb(block), h))
    # the sign of a NaN is the hardware's choice, which numpy's vector
    # loops make otherwise than Python's float arithmetic
    assert _one_nan(got) == _one_nan(np.array(want).T)


# a coordinate of a block field input: a signed zero, a tiny one near a
# vertex, an ordinary one, or one so large that the cubic overflows
_COORDINATE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-320.0, 0.0).map(lambda p: 10.0**p),
    st.floats(-1.0, 1.0),
    st.floats(100.0, 308.0).map(lambda p: 10.0**p),
    st.floats(100.0, 308.0).map(lambda p: -(10.0**p)),
)


@settings(max_examples=40)
@given(
    spec=_CATALOGUE,
    points=st.lists(st.tuples(*[_COORDINATE] * 3), min_size=1, max_size=8),
)
def test_block_field_has_the_bits_of_point_field(spec, points):
    # each column of the block field against point_field on its three floats
    f, fb = point_field(spec), block_field(spec)
    want = np.array([f(x) for x in points]).T
    with np.errstate(all="ignore"):
        got = fb(np.array(points).T)
    assert _one_nan(got) == _one_nan(want)


def _one_nan(a):
    """The bytes of a, with every NaN the same one."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _interior_equilibria(spec):
    """The normal point b / sum(b) and the three Kahler points, where x_k =
    1/2 and x_i : x_j = b_i : b_j, with b from fields._cubic_coefficients."""
    b = np.array(_cubic_coefficients(spec)[1], dtype=float)
    points = [b / b.sum()]
    for k, (i, j) in enumerate([(1, 2), (0, 2), (0, 1)]):
        x = np.zeros(3)
        x[k], x[i], x[j] = 0.5, b[i] / (2 * (b[i] + b[j])), b[j] / (2 * (b[i] + b[j]))
        points.append(x)
    return points


# no shrinking: each example runs FLOAT_LOOP_ROWS + 1 to FLOAT_LOOP_ROWS + 8
# lockstep rows to t_max up to 400, and
# shrinking a failure would take minutes where reporting it takes seconds
@settings(max_examples=3, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    spec=_CATALOGUE,
    which=st.integers(0, 3),
    n=st.integers(FLOAT_LOOP_ROWS + 1, FLOAT_LOOP_ROWS + 8),
    radius=st.floats(-6.0, -3.0).map(lambda e: 10.0**e),
    phase=st.floats(0.0, 2.0 * math.pi),
    t_max=st.floats(1.0, 400.0),
)
def test_integrate_many_has_the_bits_of_integrate_near_interior_equilibria(
    spec, which, n, radius, phase, t_max
):
    # a ring of lockstep rows around an equilibrium, where the field is so
    # small that a first step as long as t_max overflows in its error estimate
    theta = phase + 2.0 * math.pi * np.arange(n) / n
    ring = np.cos(theta)[:, None] * _E1 + np.sin(theta)[:, None] * _E2
    starts = _interior_equilibria(spec)[which] + radius * ring
    _assert_rows_are_single_runs(spec, starts / starts.sum(axis=1, keepdims=True), t_max)


# --- the parsers: a value or a ValueError, never another exception ----------

_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)

# numbers in every form parse_point reads, exponents beyond the float range
# among them, and stray text
_NUMBER_TOKENS = st.one_of(
    st.sampled_from(["1e400", "1e-400", "-1e400", "-0", "1/0", "1/3", "nan", "inf", ""]),
    st.builds(
        "{}{}.{}e{}{}".format,
        st.sampled_from(["", "-", "+"]),
        _DIGITS,
        _DIGITS,
        st.sampled_from(["", "-", "+"]),
        _DIGITS,
    ),
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    _TEXT,
)


@settings(max_examples=30)
@given(
    tokens=st.lists(_NUMBER_TOKENS, min_size=1, max_size=4),
    dim=st.sampled_from([None, 3]),
)
def test_parse_point_returns_finite_numbers_or_raises_value_error(tokens, dim):
    text = ",".join(tokens)
    try:
        x = parse_point(text, dim)
    except ValueError:
        return
    assert x.dtype == float and np.isfinite(x).all()
    assert len(x) == len(tokens)


@settings(max_examples=30)
@given(
    text=st.one_of(
        st.builds(
            "{}:{}".format,
            st.sampled_from(["A", "D", "E", "a", " A ", "Q", ""]),
            st.lists(st.one_of(_DIGITS, st.sampled_from(["-1", "0", "x", ""]), _TEXT),
                     max_size=4).map(",".join),
        ),
        _TEXT,
    )
)
def test_parse_flag_returns_a_flag_or_raises_value_error(text):
    try:
        spec = parse_flag(text)
    except ValueError:
        return
    assert isinstance(spec, FlagSpec)


_CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, _TEXT, _TEXT),
    st.sampled_from(["# comment", "t-max = 5 # tail", "=", "key", "", "\r", "\x00"]),
    _TEXT,
)


@settings(max_examples=20)
@given(lines=st.lists(_CONFIG_LINES, max_size=5))
def test_load_config_returns_a_dict_or_raises_value_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines))
        try:
            out = load_config(path)
        except ValueError:
            return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in out.items())
