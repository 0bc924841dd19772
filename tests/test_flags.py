import pytest

from flagricci.flags import make_flag, parse_flag


def test_family_a_dims():
    spec = make_flag("A", (2, 1, 1))
    assert spec.family == "A"
    assert spec.params == (2, 1, 1)
    assert spec.dims == (4, 4, 2)
    assert spec.label == "A:2,1,1"


def test_family_a_dims_general():
    spec = make_flag("A", (3, 2, 1))
    # pair dimensions 2mn, 2mp, 2np
    assert spec.dims == (12, 6, 4)


def test_family_d_dims():
    spec = make_flag("D", (4,))
    assert spec.dims == (6, 6, 6)
    assert spec.label == "D:4"
    spec = make_flag("D", (8,))
    assert spec.dims == (14, 14, 42)


def test_family_e_dims():
    spec = make_flag("E", ())
    assert spec.dims == (16, 16, 16)
    assert spec.label == "E"


@pytest.mark.parametrize(
    "family,params",
    [
        ("A", (0, 1, 1)),
        ("A", (1, 1)),
        ("A", (1, -2, 1)),
        ("D", (3,)),
        ("D", (4, 5)),
        ("E", (1,)),
        ("B", (1, 1, 1)),
    ],
)
def test_rejects_bad_parameters(family, params):
    with pytest.raises(ValueError):
        make_flag(family, params)


def test_parse_round_trip():
    for text in ("A:1,1,1", "A:3,2,1", "D:4", "D:11", "E"):
        assert parse_flag(text).label == text


def test_parse_rejects_garbage():
    for text in ("A", "A:1,1", "D:", "D:x", "E:1", "F:2", "A:1,1,1,1", ""):
        with pytest.raises(ValueError):
            parse_flag(text)
