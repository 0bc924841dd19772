"""Property tests: closed forms held against the loops they replaced, and
the input parsers under fuzzing.

Each fast path is compared bit for bit with its reference form, kept here,
on inputs that hypothesis draws under the profile in conftest.py. Each
parser either returns a value or raises ValueError, whatever its text.
"""

import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flagricci.cli import load_config, parse_point  # noqa: E402
from flagricci.collapse import is_subalgebra  # noqa: E402
from flagricci.flags import FlagSpec, parse_flag  # noqa: E402
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


@settings(max_examples=100)
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


@settings(max_examples=100)
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


@settings(max_examples=60)
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
