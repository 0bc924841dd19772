import re

import numpy as np
import pytest

from flagricci.fields import cone_form
from flagricci.realize import (
    circle_point,
    coeffs_to_psd,
    disk_membership,
    frame_metric,
    is_psd,
    psd_to_coeffs,
    rank1_decompose,
    realized_coeffs,
    realizing_frame,
    sample_cone,
    sample_disk,
    sym_sqrt,
)


def random_psd(rng, scale=1.0):
    a = rng.normal(size=(2, 2)) * scale
    return a @ a.T


def test_frame_metric_on_explicit_frames():
    # rows are the two torus directions; coefficients are the squared
    # lengths of row1, row2, row1 + row2
    frame = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(frame_metric(frame), [1.0, 1.0, 2.0])
    frame = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert np.array_equal(frame_metric(frame), [4.0, 2.0, 10.0])


def test_frame_metric_rejects_wrong_shape():
    with pytest.raises(ValueError):
        frame_metric(np.ones((3, 2)))


def test_gram_and_coeff_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        y = random_psd(rng)
        x = psd_to_coeffs(y)
        back = coeffs_to_psd(x)
        assert np.allclose(back, y, rtol=0, atol=1e-14)


def test_coeffs_to_psd_determinant_tracks_cone_form():
    rng = np.random.default_rng(19)
    pts = rng.uniform(0.05, 1.0, size=(200, 3))
    for x in pts:
        det = np.linalg.det(coeffs_to_psd(x))
        assert det == pytest.approx(-cone_form(x) / 4.0, rel=1e-12, abs=1e-15)


def test_cone_membership_matches_psd():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.0, 1.0, size=(300, 3))
    for x in pts:
        f = cone_form(x)
        if abs(f) < 1e-9:
            continue
        assert (f <= 0.0) == is_psd(coeffs_to_psd(x))


TAU_CASES = [
    ((0.5, 0.5, 0.0), [[0.5, -0.5], [-0.5, 0.5]]),
    ((0.5, 0.0, 0.5), [[np.sqrt(2.0) / 2.0, 0.0], [0.0, 0.0]]),
    ((0.25, 0.25, 0.5), [[0.5, 0.0], [0.0, 0.5]]),
]


@pytest.mark.parametrize("x,want", TAU_CASES)
def test_realizing_frame_worked_examples(x, want):
    got = realizing_frame(np.array(x))
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_realizing_frame_is_a_section():
    rng = np.random.default_rng(31)
    pts = sample_cone(rng, 200)
    for x in pts:
        frame = realizing_frame(x)
        back = frame_metric(frame)
        assert np.max(np.abs(back - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))


def test_realizing_frame_rejects_outside_cone():
    realizing_frame(np.array([1.0, 1.0, 1.0]))  # F = -3, realizable
    with pytest.raises(ValueError):
        realizing_frame(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        realizing_frame(np.array([0.6, 0.1, 0.01]))
    with pytest.raises(ValueError):
        realizing_frame(np.array([-0.1, 0.6, 0.5]))


def test_sym_sqrt_round_trip_and_rejection():
    rng = np.random.default_rng(37)
    for _ in range(100):
        y = random_psd(rng, scale=rng.uniform(0.1, 3.0))
        s = sym_sqrt(y)
        assert np.allclose(s @ s, y, rtol=0, atol=1e-13 * max(1.0, np.abs(y).max()))
        assert np.allclose(s, s.T, rtol=0, atol=0)
    with pytest.raises(ValueError):
        sym_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2,), (2, 3)])
def test_matrix_functions_take_only_2x2(shape):
    y = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
    message = re.escape("expected a 2x2 matrix, got shape %r" % (shape,))
    for fn in (is_psd, sym_sqrt, rank1_decompose):
        with pytest.raises(ValueError, match=message):
            fn(y)


def test_realizing_frame_takes_tiny_negatives_as_zero():
    x = np.array([0.5, -1e-11, 0.5])
    assert np.array_equal(realizing_frame(x), realizing_frame(np.array([0.5, 0.0, 0.5])))
    with pytest.raises(ValueError, match="must be nonnegative"):
        realizing_frame(np.array([0.5, -1e-9, 0.5]))
    # a wider tolerance takes a wider band as zero
    assert np.array_equal(
        realizing_frame(np.array([0.5, -1e-9, 0.5]), tol=1e-8),
        realizing_frame(np.array([0.5, 0.0, 0.5]), tol=1e-8),
    )


def test_realized_coeffs_is_the_point_realizing_frame_realizes():
    x = realized_coeffs(np.array([-1e-11, 0.5, -0.0]))
    assert x == (0.0, 0.5, 0.0)
    assert all(np.copysign(1.0, v) == 1.0 for v in x)
    tau = realizing_frame(np.array([-1e-11, 0.5, 0.5]))
    assert np.abs(tau @ tau - coeffs_to_psd(realized_coeffs([-1e-11, 0.5, 0.5]))).max() <= 1e-15
    with pytest.raises(ValueError, match="must be nonnegative"):
        realized_coeffs(np.array([0.5, -1e-9, 0.5]))


@pytest.mark.parametrize(
    "call, arg, message",
    [
        (realizing_frame, np.array([1e308, 1e307, 0.0]), "overflows the float range$"),
        # its eigenvalues are -1e308 and 1e308, though c0 + c1 overflows
        (sym_sqrt, np.array([[0.0, 1e308], [1e308, 0.0]]), "not positive semidefinite"),
        (disk_membership, np.array([1e308, 1e308, 1e308]), "overflows the float range$"),
    ],
    ids=["frame-outside", "sqrt-symmetrized", "disk"],
)
def test_finite_input_that_overflows_raises(call, arg, message):
    # never NaN and never a warning, which pytest would turn into an error
    with pytest.raises(ValueError, match=message):
        call(arg)


@pytest.mark.parametrize(
    "call, arg, want",
    [
        (
            realizing_frame,
            np.array([1e308, 1e308, 1e308]),
            lambda: 2.0 * realizing_frame(np.array([1e308, 1e308, 1e308]) / 4.0),
        ),
        (sym_sqrt, np.diag([1e308, 1e308]), lambda: np.diag([1e154, 1e154])),
    ],
    ids=["frame-interior", "sqrt-diagonal"],
)
def test_a_root_whose_sums_overflow_is_the_root(call, arg, want):
    # a + a and a + b overflow, but the root does not: the diagonal is taken
    # as it is, and the half trace from the halved entries, which keeps the
    # bits of the quarter-scaled root
    got = call(arg)
    assert np.isfinite(got).all()
    assert got.tobytes() == want().tobytes()


@pytest.mark.parametrize(
    "call, arg, y",
    [
        (sym_sqrt, [[1.7e308, 0.9e308], [0.9e308, 1.7e308]], None),
        (realizing_frame, [1.7e308] * 3, [[1.7e308, -0.85e308], [-0.85e308, 1.7e308]]),
        (realizing_frame, [1.7e308, 1.7e308, 0.0], [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]),
    ],
    ids=["sqrt-off-diagonal", "frame-interior", "frame-boundary"],
)
def test_a_root_whose_eigenvalues_overflow_is_the_root(call, arg, y):
    # the off-diagonal sum or the larger eigenvalue overflows, but the root
    # does not; squared at a sixteenth, no sum overflows
    got, y = call(np.array(arg)), np.array(arg if y is None else y)
    assert got[0, 1] == got[1, 0]
    assert np.abs((got / 16) @ (got / 16) - y / 256).max() <= 1e-15 * np.abs(y).max() / 256


def test_is_psd_where_the_off_diagonal_sum_overflows():
    # eigenvalues -5e307 and 2.5e308
    assert not is_psd(np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))


def test_rank1_decompose_rejects_a_weight_beyond_the_float_range():
    # PSD, with eigenvalues 8e307 and 2.6e308: the larger is no float
    with pytest.raises(ValueError, match="overflows the float range$"):
        rank1_decompose(np.array([[1.7e308, 0.9e308], [0.9e308, 1.7e308]]))


def test_a_root_whose_shifted_diagonal_overflows_is_the_quarter_scaled_root():
    # a + sqrt(lo hi) overflows before the division, but the root does not:
    # its terms are taken at a quarter, which keeps every bit
    x = np.array([1.5e308, 1e307, 1.61e308])
    got = realizing_frame(x)
    want = 2.0 * sym_sqrt(coeffs_to_psd(x) / 4.0)
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def test_sym_sqrt_rejects_non_finite_input():
    with pytest.raises(ValueError, match=r"^y\[1, 0\] = nan is not finite$"):
        sym_sqrt(np.array([[1.0, 0.0], [np.nan, 1.0]]))


def test_rank1_decompose_reconstructs():
    rng = np.random.default_rng(41)
    for _ in range(100):
        y = random_psd(rng)
        parts = rank1_decompose(y)
        assert 1 <= len(parts) <= 2
        total = sum(w * p for w, p in parts)
        assert np.allclose(total, y, rtol=0, atol=1e-12 * max(1.0, np.abs(y).max()))
        for w, p in parts:
            assert w > 0
            # projector: rank one, trace one, idempotent
            assert abs(np.trace(p) - 1.0) < 1e-12
            assert np.allclose(p @ p, p, rtol=0, atol=1e-12)


def test_rank1_images_lie_on_cone():
    rng = np.random.default_rng(43)
    for _ in range(50):
        y = random_psd(rng)
        for _, p in rank1_decompose(y):
            assert abs(cone_form(psd_to_coeffs(p))) < 1e-12


def test_mu_linearity_through_decomposition():
    rng = np.random.default_rng(47)
    for _ in range(50):
        y = random_psd(rng)
        parts = rank1_decompose(y)
        lin = sum(w * psd_to_coeffs(p) for w, p in parts)
        assert np.allclose(lin, psd_to_coeffs(y), rtol=0, atol=1e-12)


def test_disk_membership_labels():
    assert disk_membership(np.array([1.0, 1.0, 1.0]) / 3.0) == "interior"
    assert disk_membership(np.array([0.5, 0.5, 0.0])) == "boundary"
    assert disk_membership(np.array([1.0, 0.0, 0.0])) == "outside"
    assert disk_membership(np.array([0.7, 0.2, 0.1])) == "outside"


def test_circle_points_are_on_the_cone_and_simplex():
    for theta in np.linspace(0.0, 2.0 * np.pi, 17):
        x = circle_point(theta)
        assert abs(x.sum() - 1.0) < 1e-14
        assert abs(cone_form(x)) < 1e-14
        assert np.min(x) > -1e-14


def test_sample_disk_stays_inside():
    rng = np.random.default_rng(59)
    pts = sample_disk(rng, 500)
    assert pts.shape == (500, 3)
    assert np.max(np.abs(pts.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(cone_form(pts) <= 1e-12)
    assert np.min(pts) >= -1e-12


def test_sample_cone_hits_the_cone():
    rng = np.random.default_rng(61)
    pts = sample_cone(rng, 300)
    assert pts.shape == (300, 3)
    scale = np.maximum(1.0, np.max(np.abs(pts), axis=1) ** 2)
    assert np.max(np.abs(cone_form(pts)) / scale) < 1e-12
    assert np.min(pts) >= 1e-3 * 0.25 * 0.9  # floor times lowest scale, roughly
