"""Property tests: closed forms held against the loops they replaced.

Each fast path is compared bit for bit with its reference form, kept here,
on inputs that hypothesis draws under the profile in conftest.py.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flagricci.collapse import is_subalgebra  # noqa: E402
from flagricci.orbits import build_model  # noqa: E402
from flagricci.realize import _eigh_sym  # noqa: E402


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


@settings(max_examples=40)
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


@settings(max_examples=400)
@given(y=_two_by_two())
def test_eig2_sym_has_the_bits_of_the_numpy_scalar_form(y):
    w, v = _eigh_sym(y)
    # huge entries overflow to inf and nan in both forms; numpy warns
    with np.errstate(all="ignore"):
        w_ref, v_ref = _eig2_sym_numpy(0.5 * (y + y.T))
    assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
    assert w.tobytes() == w_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()
