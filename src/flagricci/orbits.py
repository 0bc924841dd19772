"""Concrete su(N) models for family A flags and their adjoint-orbit clouds.

A model for block sizes (m, n, p) carries the splitting su(N) = k + m1 + m2
+ m3 with N = m + n + p: k is the block-diagonal traceless anti-Hermitian
subalgebra and the summands are spanned by the off-diagonal block pairs
(1,2), (1,3), (2,3) in that order, so their real dimensions are
(2mn, 2mp, 2np). The ambient inner product is the negative Killing form
<X, Y> = -2N Re tr(XY).

Restricted-root functionals on block phases (a, b, c): alpha1 = b - a,
alpha2 = a - c, alpha3 = alpha1 + alpha2 = b - c, so the composite class
sits on the (2,3) pair, matching the third metric coordinate. The omega
basis is dual to (alpha1, alpha2).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

# largest off-block residual of induced_metric's Gram matrix, relative to its
# largest entry (at least 1)
METRIC_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class TorusElement:
    """Diagonal torus direction i*diag(phases), constant on blocks."""

    phases: np.ndarray  # (N,) real, sums to ~0
    omega_coords: np.ndarray  # (2,) coordinates in the omega basis

    @property
    def matrix(self) -> np.ndarray:
        return 1j * np.diag(self.phases.astype(complex))


def _pair_basis(n_amb, rows, cols):
    """Anti-Hermitian basis of one off-diagonal block pair."""
    out = []
    for j in rows:
        for k in cols:
            a = np.zeros((n_amb, n_amb), dtype=complex)
            a[j, k] = 1.0
            a[k, j] = -1.0
            s = np.zeros((n_amb, n_amb), dtype=complex)
            s[j, k] = 1j
            s[k, j] = 1j
            out.extend([a, s])
    return out


class LieModel:
    """su(N) with the three-summand block splitting for sizes (m, n, p)."""

    def __init__(self, blocks):
        m, n, p = blocks
        if min(m, n, p) < 1:
            raise ValueError("block sizes must be positive, got %r" % (blocks,))
        self.blocks = (m, n, p)
        self.n_ambient = m + n + p
        edges = np.cumsum([0, m, n, p])
        self.block_ranges = [range(edges[i], edges[i + 1]) for i in range(3)]
        self.block_starts = edges[:3]
        self.summand_pairs = ((0, 1), (0, 2), (1, 2))
        self.summand_bases = [
            _pair_basis(self.n_ambient, self.block_ranges[r], self.block_ranges[s])
            for r, s in self.summand_pairs
        ]
        self.dims = tuple(len(b) for b in self.summand_bases)
        self.isotropy_basis = self._build_isotropy()
        self.omega = self._build_omega()

    def _build_isotropy(self):
        out = []
        namb = self.n_ambient
        for rng in self.block_ranges:
            idx = list(rng)
            for ii in range(len(idx)):
                for jj in range(ii + 1, len(idx)):
                    out.extend(_pair_basis(namb, [idx[ii]], [idx[jj]]))
        for j in range(namb - 1):
            d = np.zeros((namb, namb), dtype=complex)
            d[j, j] = 1j
            d[j + 1, j + 1] = -1j
            out.append(d)
        return out

    def _build_omega(self):
        m, n, p = self.blocks
        nn = self.n_ambient
        # alpha1(omega1) = 1, alpha2(omega1) = 0 forces phases (a, a+1, a)
        # with trace zero; similarly for omega2.
        a1 = -n / nn
        w1 = self.torus_from_block_phases((a1, a1 + 1.0, a1), _coords=(1.0, 0.0))
        a2 = p / nn
        w2 = self.torus_from_block_phases((a2, a2, a2 - 1.0), _coords=(0.0, 1.0))
        return (w1, w2)

    def torus_from_block_phases(self, block_phases, _coords=None) -> TorusElement:
        """Torus element from per-block phases (a, b, c); trace must vanish."""
        a, b, c = (float(v) for v in block_phases)
        m, n, p = self.blocks
        if abs(m * a + n * b + p * c) > 1e-12 * max(1.0, abs(a), abs(b), abs(c)):
            raise ValueError("block phases %r have nonzero trace" % (block_phases,))
        phases = np.concatenate([np.full(m, a), np.full(n, b), np.full(p, c)])
        if _coords is None:
            _coords = (b - a, a - c)
        return TorusElement(phases, np.array(_coords, dtype=float))

    def torus_element(self, omega_coords) -> TorusElement:
        """Torus element c1 * omega1 + c2 * omega2."""
        c1, c2 = (float(v) for v in omega_coords)
        w1, w2 = self.omega
        phases = c1 * w1.phases + c2 * w2.phases
        return TorusElement(phases, np.array([c1, c2]))

    def block_phases(self, elem: TorusElement) -> np.ndarray:
        return elem.phases[self.block_starts]

    def inner(self, x, y) -> float:
        """Negative Killing form -2N Re tr(XY)."""
        return float(-2.0 * self.n_ambient * np.real(np.trace(x @ y)))


def build_model(m: int, n: int, p: int) -> LieModel:
    return LieModel((m, n, p))


def _flatten_real(mats, n_amb) -> np.ndarray:
    """Isometric real coordinates: <X, Y> becomes the Euclidean dot product."""
    arr = np.asarray(mats)
    flat = arr.reshape(arr.shape[:-2] + (n_amb * n_amb,))
    scale = np.sqrt(2.0 * n_amb)
    return scale * np.concatenate([flat.real, flat.imag], axis=-1)


def induced_metric(model: LieModel, h1: TorusElement, h2: TorusElement) -> np.ndarray:
    """Metric coefficients induced on the summands by the frame (h1, h2).

    Computes the full Gram matrix of the bracket images of the summand bases
    and checks it is block-scalar: x_i times the basis Gram on summand i,
    zero across summands. Raises ValueError when the isotypic structure is
    violated beyond METRIC_TOL.
    """
    basis = [b for bas in model.summand_bases for b in bas]
    dims = model.dims
    namb = model.n_ambient
    g = np.zeros((len(basis), len(basis)))
    for h in (h1, h2):
        hm = h.matrix
        brackets = [x @ hm - hm @ x for x in basis]
        v = _flatten_real(brackets, namb)
        g += v @ v.T

    # basis elements all have <X, X> = 4N and are mutually orthogonal
    norm2 = 4.0 * namb
    coeffs = np.empty(3)
    offs = np.cumsum([0, *dims])
    for i in range(3):
        block = g[offs[i] : offs[i + 1], offs[i] : offs[i + 1]]
        coeffs[i] = np.trace(block) / (dims[i] * norm2)
    expected = np.zeros_like(g)
    for i in range(3):
        idx = np.arange(offs[i], offs[i + 1])
        expected[idx, idx] = coeffs[i] * norm2
    resid = np.max(np.abs(g - expected))
    if resid > METRIC_TOL * max(1.0, np.max(np.abs(g))):
        raise ValueError(
            "induced metric is not block-scalar on the summands "
            "(residual %.3e); frame is not a torus pair for this model" % resid
        )
    return coeffs


def haar_unitaries(rng, n: int, count: int) -> np.ndarray:
    """Haar-distributed SU(n) elements, (count, n, n) complex.

    QR of complex Gaussians with the R-diagonal phase fix, then a global
    det^(-1/n) phase to land in SU(n).
    """
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    ph = d / np.where(np.abs(d) > 0, np.abs(d), 1.0)
    q *= ph[:, None, :]
    q *= np.exp(-np.log(np.linalg.det(q)) / n)[:, None, None]
    return q


# rows per block that OrbitCloud.write_json flattens and writes at once
_JSON_ROWS = 64


def _rng_for(seed: int):
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass
class OrbitCloud:
    """Sampled adjoint-orbit points of a torus frame.

    points has shape (count, 2, N, N): pairs (u h1 u^-1, u h2 u^-1) over Haar
    samples u. Sampling is deterministic in (seed, count, N) via a
    counter-based generator, and the same seed yields the same unitaries for
    any frame, so clouds at different frames are directly comparable.
    """

    n_ambient: int
    blocks: tuple[int, int, int]
    h1: TorusElement
    h2: TorusElement
    seed: int
    count: int
    points: np.ndarray

    @property
    def flat_points(self) -> np.ndarray:
        """(count, 4N^2) real coordinates, isometric for the ambient norm."""
        flat = _flatten_real(self.points, self.n_ambient)
        return flat.reshape(self.count, -1)

    def as_dict(self) -> dict:
        points = [[float(v) for v in row] for row in self.flat_points]
        return dict(self._header(), points=points)

    def write_json(self, fh) -> None:
        """Write json.dumps(self.as_dict()) and a newline to the text file fh.

        The bytes are the same, but the points go out _JSON_ROWS at a time:
        only one block of rows is ever held as real coordinates, Python
        floats and text. as_dict holds all count x 4N^2 coordinates as
        floats, some 13 MiB for 2000 points in su(6)^2, and dumping it
        takes as much again.
        """
        fh.write('%s, "points": [' % json.dumps(self._header())[:-1])
        for s in range(0, self.count, _JSON_ROWS):
            block = self.points[s : s + _JSON_ROWS]
            rows = _flatten_real(block, self.n_ambient).reshape(len(block), -1)
            # the block's rows without the enclosing brackets
            fh.write((", " if s else "") + json.dumps(rows.tolist())[1:-1])
        fh.write("]}\n")

    def to_json(self) -> str:
        """The text write_json writes, as a string."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def _header(self) -> dict:
        return {
            "N": self.n_ambient,
            "blocks": list(self.blocks),
            "H1": [float(v) for v in self.h1.phases],
            "H2": [float(v) for v in self.h2.phases],
            "seed": self.seed,
            "count": self.count,
        }


def sample_orbit(
    model: LieModel, h1: TorusElement, h2: TorusElement, count: int, seed: int
) -> OrbitCloud:
    """Sample the adjoint orbit of the frame (h1, h2) at Haar-random points.

    seed is the Philox key of the Haar samples, an integer in [0, 2**128).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise ValueError("seed must be an integer in [0, 2**128), got %r" % (seed,))
    n = model.n_ambient
    us = haar_unitaries(_rng_for(seed), n, count)
    uh = np.conjugate(np.swapaxes(us, -1, -2))
    # u h u^* for each frame element, written straight into its slot; scaling
    # u's columns by the diagonal of h has the bits of the product u @ h
    points = np.empty((count, 2, n, n), dtype=complex)
    for k, h in enumerate((h1, h2)):
        np.matmul(us * np.diagonal(h.matrix), uh, out=points[:, k])
    return OrbitCloud(
        model.n_ambient, model.blocks, h1, h2, int(seed), int(count), points
    )

