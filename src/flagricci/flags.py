"""Flag-manifold families with three isotropy summands."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlagSpec:
    """One generalized flag manifold whose isotropy splits into three summands.

    family  "A": SU(m+n+p)/S(U(m)xU(n)xU(p)), params (m, n, p)
    family  "D": SO(2l)/U(1)xU(l-1), params (l,), l >= 4
    family  "E": E6/SO(8)xU(1)xU(1), no params

    dims holds the real dimensions (d1, d2, d3) of the summands; the
    restricted-root system always has rank 2 here.
    """

    family: str
    params: tuple[int, ...]
    dims: tuple[int, int, int]

    @property
    def label(self) -> str:
        if self.family == "A":
            return "A:%d,%d,%d" % self.params
        if self.family == "D":
            return "D:%d" % self.params
        return "E"


def make_flag(family: str, params=()) -> FlagSpec:
    """Build a FlagSpec, validating the family label and parameters.

    Parameters whose cubic coefficients (fields._cubic_coefficients) are
    beyond the float range are rejected.
    """
    if isinstance(params, int):
        params = (params,)
    params = tuple(int(v) for v in params)
    if family == "A":
        if len(params) != 3:
            raise ValueError("family A takes three block sizes (m, n, p)")
        m, n, p = params
        if min(m, n, p) < 1:
            raise ValueError("family A block sizes must be positive, got %r" % (params,))
        return _in_float_range(FlagSpec("A", params, (2 * m * n, 2 * m * p, 2 * n * p)))
    if family == "D":
        if len(params) != 1:
            raise ValueError("family D takes a single parameter l")
        (ell,) = params
        if ell < 4:
            raise ValueError("family D needs l >= 4, got %d" % ell)
        d = 2 * (ell - 1)
        return _in_float_range(FlagSpec("D", params, (d, d, (ell - 1) * (ell - 2))))
    if family == "E":
        if params:
            raise ValueError("family E takes no parameters")
        return FlagSpec("E", (), (16, 16, 16))
    raise ValueError("unknown family %r (expected 'A', 'D' or 'E')" % (family,))


def _in_float_range(spec: FlagSpec) -> FlagSpec:
    # fields imports this module, so its family rule is imported here
    from .fields import _cubic_coefficients

    try:
        for c in sum(_cubic_coefficients(spec), ()):
            float(c)
    except OverflowError:
        msg = "family %s parameters %r give a cubic coefficient beyond the float range"
        raise ValueError(msg % (spec.family, spec.params)) from None
    return spec


def parse_flag(text: str) -> FlagSpec:
    """Parse a family string: 'A:m,n,p', 'D:ell' or 'E'."""
    text = text.strip()
    if ":" in text:
        family, _, rest = text.partition(":")
        try:
            params = tuple(int(tok) for tok in rest.split(","))
        except ValueError:
            raise ValueError("bad parameters in flag string %r" % text) from None
        return make_flag(family.strip(), params)
    return make_flag(text)
