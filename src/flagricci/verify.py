"""Invariant suite: every structural identity the package relies on.

Each check returns a one-line detail string on success and raises
AssertionError with a diagnostic on failure. run_all collects results; the
CLI `verify` command prints one line per check and exits nonzero if any
fail. fast=True shrinks sample counts for a quick smoke run.

The checks of realize's linear maps and of orbits.induced_metric draw their
samples as stacks, in the order a loop over samples draws them, and call
each stacked map once; the maps on the float path (is_psd, sym_sqrt,
realizing_frame, rank1_decompose) run point by point. Their matrix
products (_matmul, _cmatmul), and the Ad-invariance check's unitaries and
brackets, are elementwise sums in a fixed order with no BLAS call, so the
digits they print do not depend on the BLAS kernel or numpy's SIMD paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import collapse as clp
from . import fields, flags, flow, orbits, realize

_A_PARAMS = [(1, 1, 1), (2, 1, 1), (3, 2, 1)]
_D_PARAMS = [4, 5, 8]


def _rng(seed):
    return np.random.default_rng(seed)


def check_flux_identity_a(fast=False) -> str:
    n_pts = 300 if fast else 1000
    rng = _rng(101)
    worst = 0.0
    for params in _A_PARAMS:
        spec = flags.make_flag("A", params)
        pts = realize.sample_cone(rng, n_pts)
        flux = fields.cone_flux(spec, pts)
        closed = fields.cone_flux_closed_form(spec, pts)
        rel = np.abs(flux - closed) / np.abs(closed)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-9, "flux identity off by rel %.3e" % worst
    # exact vanishing at the three tangency points (a coordinate is zero)
    for x in ([0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]):
        spec = flags.make_flag("A", (3, 2, 1))
        flux = float(fields.cone_flux(spec, x))
        assert flux == 0.0, "flux at tangency point %r is %.3e, not 0" % (x, flux)
    return "A params %s, %d points each, max rel err %.2e" % (
        _A_PARAMS,
        n_pts,
        worst,
    )


def check_flux_type_d(fast=False) -> str:
    n_pts = 300 if fast else 1000
    rng = _rng(102)
    worst_rel = 0.0
    worst_sign = -np.inf
    for ell in _D_PARAMS:
        spec = flags.make_flag("D", ell)
        pts = realize.sample_cone(rng, n_pts)
        flux = fields.cone_flux(spec, pts)
        closed = fields.cone_flux_closed_form(spec, pts)
        worst_sign = max(worst_sign, float(flux.max()))
        rel = np.abs(flux - closed) / np.abs(closed)
        worst_rel = max(worst_rel, float(rel.max()))
    assert worst_sign <= 1e-10, "flux positive: %.3e" % worst_sign
    assert worst_rel <= 1e-9, "closed form mismatch rel %.3e" % worst_rel
    return "D ell %s: flux <= %.1e, closed form matches (max rel %.2e)" % (
        _D_PARAMS,
        worst_sign,
        worst_rel,
    )


def check_field_homogeneity(fast=False) -> str:
    rng = _rng(103)
    n = 50 if fast else 200
    worst = 0.0
    for spec in [
        flags.make_flag("A", (2, 1, 1)),
        flags.make_flag("D", 5),
        flags.make_flag("E"),
    ]:
        x = rng.uniform(0.05, 1.0, size=(n, 3))
        lam = rng.uniform(0.1, 3.0, size=(n, 1))
        r1 = fields.ricci_field(spec, lam * x)
        r2 = lam**3 * fields.ricci_field(spec, x)
        num = np.abs(r1 - r2).max(axis=-1)
        den = np.maximum(1e-30, np.abs(r2).max(axis=-1))
        worst = max(worst, float((num / den).max()))
    assert worst <= 1e-10, "homogeneity rel err %.3e" % worst
    return "R(c x) = c^3 R(x) over %d samples/family, max rel %.2e" % (n, worst)


def check_face_tangency(fast=False) -> str:
    rng = _rng(104)
    n = 50 if fast else 200
    for spec in [flags.make_flag("A", (3, 2, 1)), flags.make_flag("D", 4)]:
        for i in range(3):
            x = rng.uniform(0.0, 1.0, size=(n, 3))
            x[:, i] = 0.0
            r = fields.ricci_field(spec, x)
            assert np.all(r[:, i] == 0.0), "face %d not exactly invariant" % i
    return "R_i = 0 exactly on each face {x_i = 0}"


def check_permutation_equivariance(fast=False) -> str:
    rng = _rng(105)
    n = 50 if fast else 200
    x = rng.uniform(0.05, 1.0, size=(n, 3))
    worst = 0.0
    # coordinate i is tied to the block size absent from its pair, so the
    # absent-size vector is s = (p, n, m); permuting coordinates by `perm`
    # matches permuting s the same way.
    base = (1, 2, 3)  # (m, n, p), so s = (3, 2, 1)
    cases = [
        ([1, 0, 2], (1, 3, 2)),  # swap coords 1,2  <->  swap n, p
        ([0, 2, 1], (2, 1, 3)),  # swap coords 2,3  <->  swap m, n
        ([2, 0, 1], (2, 3, 1)),  # 3-cycle
    ]
    s1 = flags.make_flag("A", base)
    r1 = fields.ricci_field(s1, x)
    for perm, params2 in cases:
        s2 = flags.make_flag("A", params2)
        r2 = fields.ricci_field(s2, x[:, perm])
        diff = np.abs(r1[:, perm] - r2)
        worst = max(worst, float((diff / np.maximum(1e-30, np.abs(r2))).max()))
    assert worst <= 1e-12, "equivariance rel err %.3e" % worst
    return "coordinate permutations match parameter permutations, max rel %.2e" % worst


def check_projected_field(fast=False) -> str:
    rng = _rng(106)
    n = 100 if fast else 500
    spec = flags.make_flag("A", (2, 1, 1))
    u = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    xp = fields.projected_field(spec, u)
    worst = float(np.abs(xp.sum(axis=-1)).max())
    assert worst <= 1e-12, "projected field not tangent: %.3e" % worst
    for v in np.eye(3):
        xv = fields.projected_field(spec, v)
        assert np.all(xv == 0.0), "X at vertex %r is %r, not 0" % (v, xv)
    e = fields.projected_field(flags.make_flag("A", (1, 1, 1)), [0.25, 0.25, 0.5])
    assert np.all(e == 0.0), "Einstein point not an exact zero"
    return "sum X = 0 (max |sum| %.2e), vertices and (1/4,1/4,1/2) exact zeros" % worst


def _matmul(p, q):
    """p @ q for stacks of real matrices, with no BLAS call: the products over
    the inner index, elementwise, added left to right."""
    return realize._sum_of_products(p[..., :, None, :], np.swapaxes(q, -1, -2)[..., None, :, :])


def _cmatmul(p, q):
    """p @ q for complex matrices held as (real, imaginary) pairs of stacks."""
    (pr, pi), (qr, qi) = p, q
    return _matmul(pr, qr) - _matmul(pi, qi), _matmul(pr, qi) + _matmul(pi, qr)


def _psd_samples(rng, n):
    """a a^T for n standard normal 2x2 matrices a."""
    a = rng.standard_normal((n, 2, 2))
    return _matmul(a, np.swapaxes(a, -1, -2))


def _worst_rel(lhs, rhs, ref):
    """Largest over samples of max |lhs - rhs| / max(1, max ref), each taken
    over a sample's own trailing axes."""
    axes = tuple(range(1, lhs.ndim))
    return float((np.abs(lhs - rhs).max(axis=axes) / np.maximum(1.0, ref.max(axis=axes))).max())


def check_factorization(fast=False) -> str:
    rng = _rng(107)
    n = 100 if fast else 500
    worst = 0.0
    for k in (1, 2, 3, 5):
        frames = rng.standard_normal((n, 2, k))
        lhs = realize.frame_metric(frames)
        rhs = realize.psd_to_coeffs(realize.gram(frames))
        worst = max(worst, _worst_rel(lhs, rhs, np.abs(rhs)))
    assert worst <= 1e-12, "factorization rel err %.3e exceeds 1e-12" % worst
    return "frame metric = linear map of Gram, k in {1,2,3,5}, max rel %.2e" % worst


def check_metric_homogeneity(fast=False) -> str:
    rng = _rng(108)
    n = 50 if fast else 200
    frames, scales = [], []
    for _ in range(n):
        frames.append(rng.standard_normal((2, 3)))
        scales.append(float(rng.uniform(0.1, 4.0)))
    frames, c = np.array(frames), np.array(scales)
    lhs = realize.frame_metric(c[:, None, None] * frames)
    rhs = (c * c)[:, None] * realize.frame_metric(frames)
    worst = _worst_rel(lhs, rhs, rhs)
    assert worst <= 1e-12, "metric homogeneity rel err %.3e exceeds 1e-12" % worst
    return "frame scaling by c scales coefficients by c^2, max rel %.2e" % worst


def check_section_property(fast=False) -> str:
    rng = _rng(109)
    n = 100 if fast else 500
    x = realize.psd_to_coeffs(_psd_samples(rng, n))
    # the square root runs point by point, as it is the map under test
    back = realize.frame_metric(np.array([realize.realizing_frame(p) for p in x]))
    worst = _worst_rel(back, x, np.abs(x))
    assert worst <= 1e-9, "section property rel err %.3e exceeds 1e-9" % worst
    return "metric(realizing_frame(x)) = x on %d cone points, max rel %.2e" % (n, worst)


def check_cone_characterization(fast=False) -> str:
    n_side = 40 if fast else 100
    ijk = [(i, j, n_side - i - j) for i in range(n_side + 1) for j in range(n_side + 1 - i)]
    grid = np.array(ijk, dtype=float) / n_side
    f = fields.cone_form(grid)
    off = np.abs(f) > 1e-9
    grid, f = grid[off], f[off].tolist()
    # the PSD test runs point by point, as it is the map under test
    for x, fx, y in zip(grid, f, realize.coeffs_to_psd(grid)):
        psd = realize.is_psd(y, tol=1e-9)
        assert (fx <= 0) == psd, "mismatch at %r (F=%.3e, psd=%s)" % (x, fx, psd)
    return "F <= 0 iff PSD on %d first-orthant grid points" % len(grid)


def check_convex_hull(fast=False) -> str:
    rng = _rng(110)
    n = 100 if fast else 500
    y = _psd_samples(rng, n)
    # each sample's rank-1 terms, padded with zero terms to two; the split
    # runs point by point, as it is the map under test
    w, m = np.zeros((2, n)), np.zeros((2, n, 2, 2))
    for i, yi in enumerate(y):
        for j, (wj, mj) in enumerate(realize.rank1_decompose(yi)):
            w[j, i], m[j, i] = wj, mj
    rec = w[0, :, None, None] * m[0] + w[1, :, None, None] * m[1]
    worst_rec = float(np.abs(rec - y).max())
    coeffs = realize.psd_to_coeffs(m)
    lin = w[0, :, None] * coeffs[0] + w[1, :, None] * coeffs[1]
    worst_lin = float(np.abs(lin - realize.psd_to_coeffs(y)).max())
    worst_face = float(np.abs(fields.cone_form(coeffs[w > 0.0])).max())
    assert worst_rec <= 1e-10, "rank-1 reconstruction err %.3e exceeds 1e-10" % worst_rec
    assert worst_lin <= 1e-10, "rank-1 linearity err %.3e exceeds 1e-10" % worst_lin
    msg = "rank-1 image off the cone surface: |F| %.3e exceeds 1e-10"
    assert worst_face <= 1e-10, msg % worst_face
    return (
        "rank-1 splits: reconstruction %.1e, linearity %.1e, faces on cone %.1e"
        % (worst_rec, worst_lin, worst_face)
    )


def check_sqrt_roundtrip(fast=False) -> str:
    rng = _rng(111)
    n = 100 if fast else 400
    y = _psd_samples(rng, n)
    # the square root runs point by point, as it is the map under test
    s = np.array([realize.sym_sqrt(p) for p in y])
    worst = _worst_rel(_matmul(s, s), y, np.abs(y))
    assert worst <= 1e-9, "sqrt(Y)^2 rel err %.3e exceeds 1e-9" % worst
    try:
        realize.sym_sqrt(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        raise AssertionError("indefinite matrix accepted")
    except ValueError:
        pass
    return "sqrt(Y)^2 = Y over %d PSD samples, max rel %.2e; indefinite rejected" % (
        n,
        worst,
    )


def check_oracle_equivalence(fast=False) -> str:
    rng = _rng(112)
    n = 30 if fast else 100
    worst = 0.0
    for blocks in [(1, 1, 1), (2, 1, 1)]:
        model = orbits.build_model(*blocks)
        tau = rng.standard_normal((n, 2, 2))
        lhs = orbits.induced_metric(model, np.array([model.frame(t) for t in tau]))
        rhs = realize.frame_metric(tau)
        worst = max(worst, _worst_rel(lhs, rhs, rhs))
    assert worst <= 1e-8, "induced metric vs frame metric rel %.3e exceeds 1e-8" % worst
    return "induced = frame metric on su(3), su(4) x %d pairs, max rel %.2e" % (n, worst)


def _unit_phases(rng, shape):
    """Unit complex numbers (a + ib) / |a + ib| of standard normal a, b, as a
    (real, imaginary) pair: +, *, / and sqrt only."""
    z = rng.standard_normal((2,) + shape)
    r = np.sqrt(z[0] * z[0] + z[1] * z[1])
    return z[0] / r, z[1] / r


def _unitaries(rng, n, count):
    """(count, n, n) unitaries as (real, imaginary) pairs: a diagonal of unit
    phases times one Givens rotation per coordinate pair, each of the form
    [[c, -conj(e) s], [e s, c]] with c + is and e unit phases. Built with
    +, -, *, / and sqrt alone, so their bits do not depend on BLAS or on
    numpy's SIMD paths."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    dr, di = _unit_phases(rng, (count, n))
    cos, sin = _unit_phases(rng, (count, len(pairs)))
    er, ei = _unit_phases(rng, (count, len(pairs)))
    eye = np.arange(n)
    ur, ui = np.zeros((count, n, n)), np.zeros((count, n, n))
    ur[:, eye, eye], ui[:, eye, eye] = dr, di
    for k, (p, q) in enumerate(pairs):
        gr, gi = np.zeros((count, n, n)), np.zeros((count, n, n))
        gr[:, eye, eye] = 1.0
        c, s = cos[:, k], sin[:, k]
        gr[:, p, p] = gr[:, q, q] = c
        gr[:, p, q], gi[:, p, q] = -er[:, k] * s, ei[:, k] * s
        gr[:, q, p], gi[:, q, p] = er[:, k] * s, ei[:, k] * s
        ur, ui = _cmatmul((ur, ui), (gr, gi))
    return ur, ui


def check_ad_invariance(fast=False) -> str:
    rng = _rng(113)
    model = orbits.build_model(1, 1, 1)
    n = 3 if fast else 10
    namb = model.n_ambient
    scale = np.sqrt(2.0 * namb)
    ur, ui = _unitaries(np.random.default_rng(7), namb, n)
    u = ur[:, None], ui[:, None]
    uh = np.swapaxes(u[0], -1, -2), -np.swapaxes(u[1], -1, -2)
    basis = np.array([b for bas in model.summand_bases for b in bas])
    # one frame per unitary; its two i diag(h) have no real part
    h = np.array([model.frame(t) for t in rng.standard_normal((n, 2, 2))])
    hs = np.zeros(h.shape + (namb,)), h[..., None] * np.eye(namb)

    def bracket_gram(xs, hs):
        # per unitary, the Gram matrix of the real coordinates of [x, h]
        # over the basis elements x, summed over the frame's two h
        g = 0.0
        for k in range(2):
            hk = hs[0][:, k, None], hs[1][:, k, None]
            (xr, xi), (yr, yi) = _cmatmul(xs, hk), _cmatmul(hk, xs)
            re, im = (d.reshape(d.shape[:-2] + (-1,)) for d in (xr - yr, xi - yi))
            g = g + realize.gram(scale * np.concatenate([re, im], axis=-1))
        return g

    g0 = bracket_gram((basis.real, basis.imag), hs)
    g1 = bracket_gram(
        _cmatmul(_cmatmul(u, (basis.real, basis.imag)), uh),
        _cmatmul(_cmatmul(u, hs), uh),
    )
    worst = _worst_rel(g0, g1, np.abs(g0))
    assert worst <= 1e-8, "Ad-invariance rel err %.3e exceeds 1e-8" % worst
    return "metric Gram invariant under conjugated frames, max rel %.2e" % worst


def check_hausdorff_pseudometric(fast=False) -> str:
    model = orbits.build_model(1, 1, 1)
    rng = _rng(114)
    clouds = []
    for _ in range(3):
        frame = model.frame(rng.standard_normal((2, 2)))
        # one seed for all three: the same Haar samples under every frame
        clouds.append(orbits.sample_orbit(model, frame, 60 if fast else 150, 7))
    a, b, c3 = clouds
    daa = clp.hausdorff(a, a)
    assert daa == 0.0, "d(a, a) = %.3e, not 0" % daa
    dab, dba = clp.hausdorff(a, b), clp.hausdorff(b, a)
    assert abs(dab - dba) <= 1e-12, "d(a, b) - d(b, a) = %.3e exceeds 1e-12" % (dab - dba)
    dac, dcb = clp.hausdorff(a, c3), clp.hausdorff(c3, b)
    assert dab <= dac + dcb + 1e-12, "triangle inequality violated"
    # the sampled distance lies between the exact orbit distance and the
    # matched bound: the distance between the two frames' images of one
    # Haar sample, the same for every sample
    scale = np.sqrt(2.0 * model.n_ambient)
    for x, y in ((a, b), (a, c3), (c3, b)):
        exact = clp.orbit_distance(x.frame, y.frame)
        dz = (x.frame[0] - y.frame[0]) + 1j * (x.frame[1] - y.frame[1])
        matched = scale * float(np.linalg.norm(dz))
        norm = scale * max(
            float(np.linalg.norm(f.frame[0] + 1j * f.frame[1])) for f in (x, y)
        )
        sampled = clp.hausdorff(x, y)
        tol = 1e-9 * norm
        assert exact - tol <= sampled <= matched + tol, (
            "sampled distance %.17g outside [exact %.17g, matched %.17g]"
            % (sampled, exact, matched)
        )
    return (
        "identity, symmetry, triangle inequality, exact <= sampled <= matched "
        "on 3 clouds (d_ab %.3f)" % dab
    )


def check_collapse_verdicts(fast=False) -> str:
    model = orbits.build_model(1, 1, 1)
    mids = [
        np.array([0.0, 0.5, 0.5]),
        np.array([0.5, 0.0, 0.5]),
        np.array([0.5, 0.5, 0.0]),
    ]
    for x in mids:
        v = clp.collapse_verdict(model, x)
        assert v.verdict == "realizable", "midpoint %r -> %s" % (x, v.verdict)
        assert v.witness is not None and "tau" in v.witness, "midpoint %r: no tau" % (x,)
    for x in np.eye(3):
        v = clp.collapse_verdict(model, x)
        assert v.verdict == "non_realizable", "vertex %r -> %s" % (x, v.verdict)
        resid = None if v.witness is None else v.witness["residual"]
        assert resid is not None and resid > 1e-7, "vertex %r: witness residual %r" % (x, resid)
    v = clp.collapse_verdict(model, np.array([1.0, 1.0, 1.0]) / 3)
    assert v.verdict == "no_collapse", "centroid -> %s" % v.verdict
    return "midpoints realizable, vertices non-realizable with witnesses"


def check_disk_invariance(fast=False) -> str:
    spec = flags.make_flag("A", (1, 1, 1))
    rng = _rng(115)
    n_int, n_bnd, t_max = (15, 5, 20.0) if fast else (150, 50, 50.0)
    starts = list(realize.sample_disk(rng, n_int))
    starts += [realize.circle_point(t) for t in rng.uniform(0, 2 * np.pi, n_bnd)]
    trajs = flow.integrate_many(spec, np.array(starts), t_max=t_max)
    worst = max(float(traj.f_values.max()) for traj in trajs)
    assert worst <= 1e-8, "F reached %.3e > 1e-8" % worst
    return "%d starts (%d on the circle): max F along flows %.2e" % (
        n_int + n_bnd,
        n_bnd,
        worst,
    )


def check_integrator_order(fast=False) -> str:
    # Step sizes are kept coarse enough that truncation error (1e-11 and
    # up) stays far above roundoff; halving from there must show the
    # fifth-order rate of the embedded pair.
    spec = flags.make_flag("A", (1, 1, 1))
    x0 = np.array([0.55, 0.35, 0.10])
    f = fields.point_field(spec)
    ref = flow.integrate(spec, x0, 4.0, rtol=1e-13, atol=1e-15).final_state
    errs = []
    for h in (0.4, 0.2, 0.1):
        # fixed steps of h to t = 4, each accepted state cleaned as in a run
        y = tuple(x0.tolist())
        for _ in range(round(4.0 / h)):
            z = flow._step(f, y, f(y), h)[0]
            y = flow._clean_state(*z)[0]
        errs.append(float(np.linalg.norm(np.array(y) - ref)))
    assert errs[-1] > 1e-12, "test errors dipped into roundoff: %r" % errs
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(4.2 <= r <= 5.8 for r in rates), "order rates %r" % rates
    tol_errs = []
    for rt in (1e-6, 5e-7, 2.5e-7):
        end = flow.integrate(spec, x0, 4.0, rtol=rt, atol=1e-14).final_state
        tol_errs.append(float(np.linalg.norm(end - ref)))
    assert tol_errs[2] < tol_errs[0], "halving tolerance did not reduce error"
    return "fixed-step rates %s (5th order), tolerance errors %s decreasing" % (
        [round(float(r), 2) for r in rates],
        ["%.1e" % e for e in tol_errs],
    )


def _nearest_float(f: float, q: Fraction) -> bool:
    # f is a nearest float to q: neither float beside f lies closer
    d = abs(Fraction(f) - q)
    return all(d <= abs(Fraction(math.nextafter(f, to)) - q) for to in (-math.inf, math.inf))


def check_equilibria(fast=False) -> str:
    spec = flags.make_flag("A", (1, 1, 1))
    a, b = fields._cubic_coefficients(spec)
    exact = flow._exact_equilibria(spec)
    third, quarter, half = Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)
    base = [quarter, quarter, half]
    for tgt in [[third] * 3] + [base[-k:] + base[:-k] for k in range(3)]:
        assert any(x == tgt for x, *_ in exact), "missing equilibrium %s" % tgt
    # each float equilibrium is the correctly rounded image of one exact
    # equilibrium, where R = lambda x holds exactly
    by_rounding = {tuple(map(float, x)): (x, lam) for x, lam, *_ in exact}
    eqs = flow.find_equilibria(spec)
    for e in eqs:
        got = e.point.tolist()
        assert tuple(got) in by_rounding, "%r is no exact equilibrium's rounding" % got
        x, lam = by_rounding.pop(tuple(got))
        assert list(fields._cubic(a, b, *x)) == [lam * c for c in x], "R != lambda x at %s" % x
        got.append(e.einstein_constant)
        assert all(map(_nearest_float, got, x + [lam])), "%r does not round %s" % (got, x + [lam])
    assert not by_rounding, "exact equilibria %s not found" % list(by_rounding.values())
    return "%d equilibria; normal metric and all three Kaehler points found" % len(eqs)


def check_no_recurrence(fast=False) -> str:
    spec = flags.make_flag("A", (1, 1, 1))
    rng = _rng(116)
    n, t_max = (10, 100.0) if fast else (100, 200.0)
    eqs = flow.find_equilibria(spec)
    starts = realize.sample_disk(rng, n, radius_cap=0.999)
    bad_cls = 0
    worst_excursion = 0.0
    for traj in flow.integrate_many(spec, starts, t_max=t_max):
        if flow.classify_limit(traj, eqs) is None:
            bad_cls += 1
            continue
        d = np.linalg.norm(traj.states - traj.final_state, axis=1)
        tail = d[int(0.75 * len(d)) :]
        if len(tail) > 1:
            worst_excursion = max(worst_excursion, float(np.max(np.diff(tail))))
    assert bad_cls == 0, "%d trajectories failed to classify" % bad_cls
    assert worst_excursion <= 1e-10, "tail distance grew by %.3e" % worst_excursion
    return "%d interior starts all classified; tail approach monotone (max growth %.1e)" % (
        n,
        worst_excursion,
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


ALL_CHECKS = [
    ("flux identity (family A)", check_flux_identity_a),
    ("flux sign and closed form (family D)", check_flux_type_d),
    ("field homogeneity", check_field_homogeneity),
    ("face tangency", check_face_tangency),
    ("permutation equivariance", check_permutation_equivariance),
    ("projected field tangency", check_projected_field),
    ("metric factorization through Gram", check_factorization),
    ("metric homogeneity", check_metric_homogeneity),
    ("section property", check_section_property),
    ("cone characterization", check_cone_characterization),
    ("convex hull closure", check_convex_hull),
    ("symmetric square root", check_sqrt_roundtrip),
    ("oracle equivalence (frames vs brackets)", check_oracle_equivalence),
    ("Ad-invariance", check_ad_invariance),
    ("Hausdorff pseudometric", check_hausdorff_pseudometric),
    ("collapse verdicts", check_collapse_verdicts),
    ("disk forward invariance", check_disk_invariance),
    ("integrator order", check_integrator_order),
    ("equilibria of the symmetric flag", check_equilibria),
    ("no recurrence", check_no_recurrence),
]


def run_all(fast: bool = False) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            detail = fn(fast=fast)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
