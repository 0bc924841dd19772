"""Curvature field tests.

The rational reference values were computed once with exact arithmetic and
are frozen here as literals. Only the symbolic flux identity needs sympy at
run time, and it is skipped where sympy is missing.
"""

import numpy as np
import pytest

from flagricci.fields import (
    _cubic,
    _cubic_coefficients,
    cone_flux,
    cone_flux_closed_form,
    cone_form,
    cone_form_grad,
    point_field,
    projected_field,
    reduced_field,
    ricci_field,
)
from flagricci.flags import FlagSpec, make_flag


A111 = make_flag("A", (1, 1, 1))
A211 = make_flag("A", (2, 1, 1))
A321 = make_flag("A", (3, 2, 1))
D4 = make_flag("D", (4,))
D7 = make_flag("D", (7,))
E = make_flag("E", ())

PT = np.array([0.5, 1.0 / 3.0, 1.0 / 6.0])


def test_field_frozen_values_family_a():
    got = ricci_field(A321, PT)
    want = np.array([-7.0 / 18.0, -2.0 / 9.0, -1.0 / 6.0])
    assert np.allclose(got, want, rtol=1e-15, atol=0)

    got = ricci_field(A111, PT)
    want = np.array([-2.0 / 9.0, -1.0 / 9.0, -1.0 / 9.0])
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_field_frozen_values_family_d():
    got = ricci_field(D4, PT)
    assert np.allclose(got, [-4.0 / 9.0, -2.0 / 9.0, -2.0 / 9.0], rtol=1e-15, atol=0)

    got = ricci_field(D7, np.array([2.0, 4.0, 1.0]) / 7.0)
    want = np.array([-62.0 / 343.0, -412.0 / 343.0, -22.0 / 49.0])
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_family_e_matches_symmetric_a():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.05, 1.0, size=(40, 3))
    assert np.array_equal(ricci_field(E, pts), ricci_field(A111, pts))


def test_einstein_point_is_exact():
    # the normal metric of the (2,1,1) flag: R(x) = -15 x at (3/2, 5/2, 1)
    x = np.array([1.5, 2.5, 1.0])
    assert np.array_equal(ricci_field(A211, x), -15.0 * x)
    xn = x / 5.0
    got = ricci_field(A211, xn)
    assert np.allclose(got, -0.6 * xn, rtol=1e-15, atol=0)


def test_face_values_are_exact_zeros():
    for spec in (A321, D4, E):
        for i in range(3):
            x = np.array([0.4, 0.7, 0.3])
            x[i] = 0.0
            assert ricci_field(spec, x)[i] == 0.0


def test_field_broadcasts_over_batches():
    rng = np.random.default_rng(5)
    batch = rng.uniform(0.1, 1.0, size=(7, 4, 3))
    out = ricci_field(A321, batch)
    assert out.shape == (7, 4, 3)
    single = ricci_field(A321, batch[3, 2])
    assert np.array_equal(out[3, 2], single)


def test_cone_form_and_gradient():
    assert cone_form(np.array([0.5, 0.5, 0.0])) == 0.0
    assert cone_form(np.array([1.0, 4.0, 9.0])) == 0.0
    assert cone_form(np.array([1.0, 1.0, 1.0])) == -3.0
    g = cone_form_grad(np.array([1.0, 4.0, 9.0]))
    assert np.array_equal(g, [-24.0, -12.0, 8.0])
    # gradient is the actual derivative of the form
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 2.0, size=3)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (cone_form(x + e) - cone_form(x - e)) / (2 * h)
        assert abs(fd - cone_form_grad(x)[i]) < 1e-7


FLUX_LITERALS = [
    (A321, (1.0, 4.0, 9.0), -10368.0),
    (A111, (1.0, 4.0, 9.0), -4032.0),
    (D4, (1.0, 4.0, 9.0), -8064.0),
    (make_flag("D", (5,)), (1.0, 4.0, 9.0), -9504.0),
    (A321, (4.0, 9.0, 25.0), -698400.0),
    (D4, (4.0, 9.0, 25.0), -547200.0),
]


@pytest.mark.parametrize("spec,point,value", FLUX_LITERALS)
def test_flux_frozen_values(spec, point, value):
    x = np.array(point)
    assert cone_flux(spec, x) == pytest.approx(value, rel=1e-13)
    assert cone_flux_closed_form(spec, x) == pytest.approx(value, rel=1e-13)


def test_flux_requires_cone_point():
    with pytest.raises(ValueError):
        cone_flux(A111, np.array([1.0, 1.0, 1.0]))


def test_flux_identity_on_random_cone_points():
    rng = np.random.default_rng(29)
    a = rng.uniform(0.1, 1.5, size=200)
    b = rng.uniform(0.1, 1.5, size=200)
    pts = np.stack([a * a, b * b, (a + b) ** 2], axis=-1)
    for spec in (A321, A211, D4, D7, E):
        got = cone_flux(spec, pts)
        want = cone_flux_closed_form(spec, pts)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9


def test_flux_zero_at_midpoints():
    for spec in (A321, D4):
        for x in ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]):
            assert cone_flux(spec, np.array(x)) == 0.0


def test_type_d_flux_is_negative_inside_octant():
    rng = np.random.default_rng(41)
    a = rng.uniform(0.05, 1.0, size=500)
    b = rng.uniform(0.05, 1.0, size=500)
    pts = np.stack([a * a, b * b, (a + b) ** 2], axis=-1)
    for ell in (4, 5, 9):
        spec = make_flag("D", (ell,))
        assert np.all(cone_flux(spec, pts) < 0.0)


def test_projected_field_sums_to_zero():
    rng = np.random.default_rng(17)
    x = rng.dirichlet(np.ones(3), size=100)
    for spec in (A321, D4, E):
        s = projected_field(spec, x).sum(axis=-1)
        assert np.max(np.abs(s)) < 1e-15


def test_projected_equilibria_are_exact():
    # vertices and the Kaehler point of the symmetric flag
    for x in (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], np.array([0.25, 0.25, 0.5])):
        assert np.array_equal(projected_field(A111, x), np.zeros(3))


def test_reduced_field_matches_projection():
    rng = np.random.default_rng(23)
    uv = rng.uniform(0.05, 0.45, size=(50, 2))
    full = np.concatenate([uv, 1.0 - uv.sum(axis=1, keepdims=True)], axis=1)
    got = reduced_field(A321, uv)
    want = projected_field(A321, full)[:, :2]
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_cubic_homogeneity():
    rng = np.random.default_rng(31)
    x = rng.uniform(0.1, 1.0, size=(30, 3))
    for spec in (A321, D7):
        r1 = ricci_field(spec, 3.0 * x)
        r2 = 27.0 * ricci_field(spec, x)
        assert np.allclose(r1, r2, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "spec",
    [A111, A321, make_flag("D", (5,)), make_flag("D", (8,)), E],
    ids=lambda s: s.label,
)
def test_point_field_matches_projected_field_bitwise(spec):
    # the integrators' field must equal numpy's 1-D point path in every bit,
    # signed zeros included, on floats and on columns; and a row of a 2-D
    # batch must equal the same point passed alone
    rng = np.random.default_rng(17)
    pts = list(rng.dirichlet(np.ones(3), size=2000))
    pts += list(rng.uniform(0.0, 3.0, size=(500, 3)))
    pts += [np.array([0.3, 0.7, 0.0]), np.array([0.0, 0.0, 1.0]), np.ones(3) / 3.0]
    f = point_field(spec)
    alone = []
    for x in pts:
        alone.append(projected_field(spec, x))
        assert np.array(f(x.tolist())).tobytes() == alone[-1].tobytes(), x
    alone = np.array(alone)
    batch = np.array(pts)
    assert np.column_stack(f(batch.T)).tobytes() == alone.tobytes()
    assert projected_field(spec, batch).tobytes() == alone.tobytes()
    uv = batch[:, :2]
    uv_alone = np.array([reduced_field(spec, p) for p in uv])
    assert reduced_field(spec, uv).tobytes() == uv_alone.tobytes()


@pytest.mark.parametrize("family", ["A", "D"])
def test_flux_identity_holds_symbolically(family):
    # R . grad F + 2 L (4 x1 x2 x3 + (x1 + x2 + x3) F) is the zero
    # polynomial for every parameter value, so on the cone {F = 0} the flux
    # is -8 x1 x2 x3 L, the closed form that criteria 01 and 02 sample
    sp = pytest.importorskip("sympy")
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    if family == "A":
        m, n, p = sp.symbols("m n p")
        params, lin = (m, n, p), p * x1 + n * x2 + m * x3
    else:
        ell = sp.Symbol("ell")
        params, lin = (ell,), (ell - 2) * (x1 + x2) + 2 * x3
    # the field's own coefficient table and cubic, on symbols
    a, b = _cubic_coefficients(FlagSpec(family, params, (0, 0, 0)))
    r = _cubic(a, b, x1, x2, x3)
    f = x1**2 + x2**2 + x3**2 - 2 * (x1 * x2 + x1 * x3 + x2 * x3)
    grad = [sp.diff(f, v) for v in (x1, x2, x3)]
    flux = sum(ri * gi for ri, gi in zip(r, grad))
    assert sp.expand(flux + 2 * lin * (4 * x1 * x2 * x3 + (x1 + x2 + x3) * f)) == 0
