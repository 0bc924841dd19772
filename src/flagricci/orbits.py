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

A torus frame (h1, h2) is one (2, N) float array: row k holds the diagonal
phases of h_k = i diag(row k). LieModel.frame builds it from the omega
coordinates that realize.realizing_frame returns, and model.omega is the
frame of the identity.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .fields import require_finite
from .realize import _sum_of_products, gram

# largest off-block residual of induced_metric's Gram matrix, relative to its
# largest entry (at least 1)
METRIC_TOL = 1e-8


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
        self.summand_pairs = ((0, 1), (0, 2), (1, 2))
        self.summand_bases = [
            _pair_basis(self.n_ambient, self.block_ranges[r], self.block_ranges[s])
            for r, s in self.summand_pairs
        ]
        self.dims = tuple(len(b) for b in self.summand_bases)
        self.isotropy_basis = self._build_isotropy()
        self.omega = self._build_omega()

    @cached_property
    def bracket_signs(self) -> np.ndarray:
        """The (sum(dims), 2N^2) signs, in {-1, 0, 1}, of the summand bases'
        brackets with a diagonal.

        [X, i diag(h)] has the entries i X_jk (h_k - h_j), and a basis entry
        X_jk is 0, +-1 or +-i, so the real coordinates (_flatten_real) of
        the bracket of basis element b are bracket_signs[b] times
        sqrt(2N) (h_k - h_j) at both the real and the imaginary coordinate
        of entry (j, k). Built on first use: induced_metric reads it.
        """
        flat = np.array([b for bas in self.summand_bases for b in bas])
        flat = flat.reshape(len(flat), -1)
        # the real coordinates of i X: Re(i X) = -Im X, Im(i X) = Re X
        return np.concatenate([-flat.imag, flat.real], axis=-1)

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
        # alpha1(omega1) = 1, alpha2(omega1) = 0 forces block phases
        # (a, a+1, a) with trace zero; similarly (a, a, a-1) for omega2.
        _, n, p = self.blocks
        a1, a2 = -n / self.n_ambient, p / self.n_ambient
        w1 = np.repeat([a1, a1 + 1.0, a1], self.blocks)
        return np.array([w1, np.repeat([a2, a2, a2 - 1.0], self.blocks)])

    def frame(self, tau) -> np.ndarray:
        """The (2, N) torus frame with omega coordinates tau.

        Column k of the 2 x 2 matrix tau gives h_k = tau[0, k] omega1 +
        tau[1, k] omega2, and row k of the result holds the diagonal
        phases of h_k = i diag(row k).
        """
        tau = np.asarray(tau, dtype=float)
        if tau.shape != (2, 2):
            raise ValueError("tau must be a 2x2 matrix, got shape %r" % (tau.shape,))
        w1, w2 = self.omega
        # a frame beyond the float range comes out inf, which sample_orbit
        # rejects, with no numpy warning on the way
        with np.errstate(over="ignore", invalid="ignore"):
            return tau[0][:, None] * w1 + tau[1][:, None] * w2

    def inner(self, x, y) -> float:
        """Negative Killing form -2N Re tr(XY)."""
        return float(-2.0 * self.n_ambient * np.real(np.trace(x @ y)))


def build_model(m: int, n: int, p: int) -> LieModel:
    return LieModel((m, n, p))


def _flatten_real(mats, n_amb) -> np.ndarray:
    """Isometric real coordinates: <X, Y> becomes the Euclidean dot product."""
    arr = np.asarray(mats)
    m = n_amb * n_amb
    flat = arr.reshape(arr.shape[:-2] + (m,))
    scale = np.sqrt(2.0 * n_amb)
    # the scaled real and imaginary parts go straight into their halves
    out = np.empty(flat.shape[:-1] + (2 * m,))
    np.multiply(scale, flat.real, out=out[..., :m])
    np.multiply(scale, flat.imag, out=out[..., m:])
    return out


def induced_metric(model: LieModel, frame) -> np.ndarray:
    """Metric coefficients induced on the summands by the (2, N) frame.

    Computes the full Gram matrix of the bracket images of the summand bases
    and checks it is block-scalar: x_i times the basis Gram on summand i,
    zero across summands. Raises ValueError when the isotypic structure is
    violated beyond METRIC_TOL. A stack of frames (..., 2, N) gives the
    stack (..., 3) of their coefficients, and raises if any frame fails. A
    non-finite frame, and one of any other shape, raise ValueError.

    There is no BLAS call. A bracket's real coordinates are the signs of
    model.bracket_signs times sqrt(2N) (h_k - h_j): each is one rounded
    difference, scaled, with the bits of the matrix products [X, i diag(h)].
    Each frame row's Gram matrix is realize.gram of those coordinates,
    accumulated over the coordinate axis, and the rows' Gram matrices are
    added in order. So a stack of F frames holds (F, B, 2N^2) coordinates
    and (F, B, B) Gram matrices, B = sum(dims), and nothing larger.
    """
    frame = require_finite(frame, "frame")
    namb = model.n_ambient
    if frame.shape[-2:] != (2, namb):
        raise ValueError("frame must have shape (..., 2, %d), got %r" % (namb, frame.shape))
    signs = model.bracket_signs
    dims = model.dims
    scale = np.sqrt(2.0 * namb)
    g = np.zeros(frame.shape[:-2] + (len(signs), len(signs)))
    for k in range(2):
        h = frame[..., k, :]
        w = scale * (h[..., None, :] - h[..., :, None])
        w = w.reshape(h.shape[:-1] + (namb * namb,))
        g += gram(signs * np.concatenate([w, w], axis=-1)[..., None, :])

    # basis elements all have <X, X> = 4N and are mutually orthogonal;
    # each trace is numpy's sum of the block's diagonal, frame by frame
    norm2 = 4.0 * namb
    offs = np.cumsum([0, *dims])
    traces = [
        np.trace(g[..., o : o + d, o : o + d], axis1=-2, axis2=-1) for o, d in zip(offs, dims)
    ]
    coeffs = np.stack(traces, axis=-1) / (np.array(dims) * norm2)
    dev = np.abs(g)
    diag = np.arange(len(signs))
    dev[..., diag, diag] = np.abs(g[..., diag, diag] - np.repeat(coeffs * norm2, dims, axis=-1))
    resid = dev.max(axis=(-2, -1))
    bad = resid > METRIC_TOL * np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
    if np.any(bad):
        raise ValueError(
            "induced metric is not block-scalar on the summands "
            "(residual %.3e); frame is not a torus pair for this model" % resid[bad][0]
        )
    return coeffs


def haar_unitaries(rng, n: int, count: int) -> np.ndarray:
    """Haar-distributed SU(n) elements, (count, n, n) complex.

    QR of complex Gaussians with the R-diagonal phase fix, then a global
    det^(-1/n) phase to land in SU(n). The package does not call it: it is
    the tests' law reference for sample_orbit, and a name perfbench spans.
    """
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    ph = d / np.where(np.abs(d) > 0, np.abs(d), 1.0)
    q *= ph[:, None, :]
    q *= np.exp(-np.log(np.linalg.det(q)) / n)[:, None, None]
    return q


def _orthonormalize(z) -> np.ndarray:
    """Orthonormalize z's k complex columns in place by CGS2 (Gram-Schmidt twice).

    z is (2, k, ..., N): the real and imaginary parts of k columns over any
    stack axes. Each inner product and norm is a left-to-right sum
    (realize._sum_of_products), with no BLAS call. Of complex Gaussians this
    gives k columns of a Haar unitary (Mezzadri, Notices AMS 54, 2007).
    """
    for j in range(z.shape[1]):
        col = z[:, j]
        for _ in range(2 if j else 0):
            # <q, col> = (qr.cr + qi.ci) + i (qr.ci - qi.cr) for each column q before col
            s = _sum_of_products(z[:, None, :j], col[None, :, None])
            cre, cim = (s[0, 0] + s[1, 1])[..., None], (s[0, 1] - s[1, 0])[..., None]
            for i in range(j):
                col -= cre[i] * z[:, i] + cim[i] * np.stack([-z[1, i], z[0, i]])
        s = _sum_of_products(col, col)
        col /= np.sqrt(s[0] + s[1])[..., None]
    return z


# rows per block that OrbitCloud.write_json flattens and writes at once
_JSON_ROWS = 64


def _json_layout(n: int) -> tuple[np.ndarray, list[int]]:
    """Where each coordinate of a flat orbit row comes from, for write_json.

    Returns own, the positions of a row's 2N^2 independent coordinates (the
    real parts above the diagonal of both matrices, then the imaginary
    parts on and above it), and order, which gives each of the row's 4N^2
    coordinates as a column of the table [row[own], -row[own[:h]], 0.0],
    h = N (N - 1). An exactly anti-Hermitian row is that table's columns
    in order.
    """
    m = n * n
    r, c = np.triu_indices(n)
    upper, lower, strict = r * n + c, c * n + r, r < c
    mats = np.array([[0], [2 * m]])
    re_up = (mats + upper[strict]).ravel()
    own = np.concatenate([re_up, (mats + m + upper).ravel()])
    h = len(re_up)
    order = np.full(4 * m, len(own) + h)  # the real diagonal reads 0.0
    order[(mats + lower[strict]).ravel()] = len(own) + np.arange(h)
    order[(mats + m + lower).ravel()] = h + np.arange(len(own) - h)
    order[own] = np.arange(len(own))
    return own, order.tolist()


def _rng_for(seed: int):
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass
class OrbitCloud:
    """Sampled adjoint-orbit points of a torus frame.

    frame is the (2, N) phase array of (h1, h2), and points has shape
    (count, 2, N, N): pairs (u h1 u^-1, u h2 u^-1) over Haar-random u, made
    of u's block projections, which depend on (seed, count, blocks) alone,
    so clouds at different frames are directly comparable.

    Every matrix of points is exactly anti-Hermitian: its lower triangle is
    -conj of its upper triangle and its real diagonal is +0.0, bit for bit.
    sample_orbit makes it so, and write_json refuses a cloud that is not.
    """

    n_ambient: int
    blocks: tuple[int, int, int]
    frame: np.ndarray
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
        only one block of rows is ever held as real coordinates and text.
        as_dict holds all count x 4N^2 coordinates as floats, some 13 MiB
        for 2000 points in su(6)^2, and dumping it takes as much again.

        Only the 2N^2 independent coordinates of a row go through repr, as
        json writes a float. A mirrored real entry is the same text with
        its sign flipped, since repr(-x) is "-" + repr(x), and the real
        diagonal is "0.0". A block that is not exactly anti-Hermitian, or
        holds a non-finite coordinate (json writes NaN where repr writes
        nan), raises ValueError naming its first such point.
        """
        own, order = _json_layout(self.n_ambient)
        pick = itemgetter(*order)
        h, w = self.n_ambient * (self.n_ambient - 1), len(own)
        fh.write('%s, "points": [' % json.dumps(self._header())[:-1])
        for s in range(0, self.count, _JSON_ROWS):
            block = self.points[s : s + _JSON_ROWS]
            rows = _flatten_real(block, self.n_ambient).reshape(len(block), -1)
            vals = rows[:, own]
            table = np.concatenate([vals, -vals[:, :h], np.zeros((len(block), 1))], axis=1)
            moved = table[:, order].view(np.int64) != rows.view(np.int64)
            faults = (
                (~np.isfinite(rows), "has a non-finite coordinate"),
                (moved, "is not exactly anti-Hermitian"),
            )
            for bad, what in faults:
                if bad.any():
                    raise ValueError("orbit point %d %s" % (s + bad.any(axis=1).argmax(), what))
            texts = list(map(repr, vals.ravel().tolist()))
            out = []
            for r in range(0, len(texts), w):
                row = texts[r : r + w]
                row += [t[1:] if t[0] == "-" else "-" + t for t in row[:h]]
                row.append("0.0")
                out.append("[%s]" % ", ".join(pick(row)))
            fh.write((", " if s else "") + ", ".join(out))
        fh.write("]}\n")

    def _header(self) -> dict:
        return {
            "N": self.n_ambient,
            "blocks": list(self.blocks),
            "H1": self.frame[0].tolist(),
            "H2": self.frame[1].tolist(),
            "seed": self.seed,
            "count": self.count,
        }


def sample_orbit(model: LieModel, frame, count: int, seed: int) -> OrbitCloud:
    """Sample the adjoint orbit of the (2, N) frame at Haar-random points.

    seed is the Philox key, in [0, 2**128), of Gaussians of shape (2, m + n,
    count, N) that _orthonormalize makes the block-1 and block-2 columns. A
    count that is not a positive integer, a frame that is not (2, N), finite
    and constant on the blocks, or whose orbit could leave the float range,
    raises ValueError.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError("count must be a positive integer, got %r" % (count,))
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise ValueError("seed must be an integer in [0, 2**128), got %r" % (seed,))
    frame = require_finite(frame, "frame")
    n = model.n_ambient
    if frame.shape != (2, n):
        raise ValueError("frame must have shape (2, %d), got %r" % (n, frame.shape))
    h = frame[:, [r.start for r in model.block_ranges]]
    if not np.array_equal(frame, np.repeat(h, model.blocks, axis=1)):
        raise ValueError("frame is not constant on the blocks %r of the model" % (model.blocks,))
    # an entry of u h u^* is at most max |h| in modulus and its real
    # coordinates scale it by sqrt(2N); half the float range leaves room
    # for the rounding of the sums, and the differences h_r - h_3 stay finite
    peak = float(np.max(np.abs(frame)))
    if peak > sys.float_info.max / (2.0 * math.sqrt(2.0 * n)):
        msg = "the orbit of a frame with max |h| = %.3e overflows the float range"
        raise ValueError(msg % peak)
    q = _orthonormalize(_rng_for(seed).standard_normal((2, sum(model.blocks[:2]), count, n)))
    # Re and Im of the upper triangles of P_1 and P_2, sums of q_a conj(q_b)
    i, j = np.triu_indices(n)
    proj = np.zeros((2, 2, count, 1, len(i)))
    for c in range(q.shape[1]):
        a, b = q[:, c][..., None, i], q[:, c][..., None, j]
        p = proj[int(c >= model.blocks[0])]
        p[0] += a[0] * b[0] + a[1] * b[1]
        p[1] += a[1] * b[0] - a[0] * b[1]
    del q, a, b  # no column is held while the points are built
    # i (h_3 I + (h_1 - h_3) P_1 + (h_2 - h_3) P_2) of each row, exactly anti-Hermitian
    dh = h[:, :2] - h[:, 2:]
    re = -(dh[:, :1] * proj[0, 1] + dh[:, 1:] * proj[1, 1])
    im = dh[:, :1] * proj[0, 0] + dh[:, 1:] * proj[1, 0]
    points = np.empty((count, 2, n, n), dtype=complex)
    points.real[..., j, i], points.imag[..., j, i] = -re, im
    points.real[..., i, j], points.imag[..., i, j] = re, im
    points.real[..., range(n), range(n)] = 0.0
    points.imag[..., range(n), range(n)] += h[:, 2:]
    return OrbitCloud(model.n_ambient, model.blocks, frame, int(seed), int(count), points)
