"""Invariant suite: every structural identity the package relies on.

Each check returns a one-line detail string on success and raises
AssertionError with a diagnostic on failure. run_all collects results; the
CLI `verify` command prints one line per check and exits nonzero if any
fail. fast=True shrinks sample counts for a quick smoke run.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        assert float(fields.cone_flux(spec, x)) == 0.0
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
        assert np.all(fields.projected_field(spec, v) == 0.0)
    e = fields.projected_field(flags.make_flag("A", (1, 1, 1)), [0.25, 0.25, 0.5])
    assert np.all(e == 0.0), "Einstein point not an exact zero"
    return "sum X = 0 (max |sum| %.2e), vertices and (1/4,1/4,1/2) exact zeros" % worst


def check_factorization(fast=False) -> str:
    rng = _rng(107)
    n = 100 if fast else 500
    worst = 0.0
    for k in (1, 2, 3, 5):
        frames = rng.standard_normal((n, 2, k))
        for fr in frames:
            lhs = realize.frame_metric(fr)
            rhs = realize.psd_to_coeffs(realize.gram(fr))
            worst = max(worst, float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max())))
    assert worst <= 1e-12, "factorization rel err %.3e" % worst
    return "frame metric = linear map of Gram, k in {1,2,3,5}, max rel %.2e" % worst


def check_metric_homogeneity(fast=False) -> str:
    rng = _rng(108)
    n = 50 if fast else 200
    worst = 0.0
    for _ in range(n):
        fr = rng.standard_normal((2, 3))
        c = float(rng.uniform(0.1, 4.0))
        lhs = realize.frame_metric(c * fr)
        rhs = c * c * realize.frame_metric(fr)
        worst = max(worst, float(np.abs(lhs - rhs).max() / max(1.0, rhs.max())))
    assert worst <= 1e-12
    return "frame scaling by c scales coefficients by c^2, max rel %.2e" % worst


def check_section_property(fast=False) -> str:
    rng = _rng(109)
    n = 100 if fast else 500
    worst = 0.0
    for _ in range(n):
        a = rng.standard_normal((2, 2))
        x = realize.psd_to_coeffs(a @ a.T)
        fr = realize.realizing_frame(x)
        back = realize.frame_metric(fr)
        worst = max(worst, float(np.abs(back - x).max() / max(1.0, np.abs(x).max())))
    assert worst <= 1e-9, "section property rel err %.3e" % worst
    return "metric(realizing_frame(x)) = x on %d cone points, max rel %.2e" % (n, worst)


def check_cone_characterization(fast=False) -> str:
    n_side = 40 if fast else 100
    count = 0
    for i in range(n_side + 1):
        for j in range(n_side + 1 - i):
            x = np.array([i, j, n_side - i - j], dtype=float) / n_side
            f = float(fields.cone_form(x))
            psd = realize.is_psd(realize.coeffs_to_psd(x), tol=1e-9)
            if abs(f) > 1e-9:
                assert (f <= 0) == psd, "mismatch at %r (F=%.3e, psd=%s)" % (x, f, psd)
                count += 1
    return "F <= 0 iff PSD on %d first-orthant grid points" % count


def check_convex_hull(fast=False) -> str:
    rng = _rng(110)
    n = 100 if fast else 500
    worst_rec = worst_lin = worst_face = 0.0
    for _ in range(n):
        a = rng.standard_normal((2, 2))
        y = a @ a.T
        terms = realize.rank1_decompose(y)
        rec = sum(w * m for w, m in terms)
        worst_rec = max(worst_rec, float(np.abs(rec - y).max()))
        lin = sum(w * realize.psd_to_coeffs(m) for w, m in terms)
        worst_lin = max(
            worst_lin, float(np.abs(lin - realize.psd_to_coeffs(y)).max())
        )
        for _, m in terms:
            fr = float(fields.cone_form(realize.psd_to_coeffs(m)))
            worst_face = max(worst_face, abs(fr))
    assert worst_rec <= 1e-10
    assert worst_lin <= 1e-10
    assert worst_face <= 1e-10, "rank-1 image off the cone surface: %.3e" % worst_face
    return (
        "rank-1 splits: reconstruction %.1e, linearity %.1e, faces on cone %.1e"
        % (worst_rec, worst_lin, worst_face)
    )


def check_sqrt_roundtrip(fast=False) -> str:
    rng = _rng(111)
    n = 100 if fast else 400
    worst = 0.0
    for _ in range(n):
        a = rng.standard_normal((2, 2))
        y = a @ a.T
        s = realize.sym_sqrt(y)
        worst = max(worst, float(np.abs(s @ s - y).max() / max(1.0, np.abs(y).max())))
    assert worst <= 1e-9
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
        for _ in range(n):
            c = rng.standard_normal((2, 2))
            h1 = model.torus_element(c[:, 0])
            h2 = model.torus_element(c[:, 1])
            lhs = orbits.induced_metric(model, h1, h2)
            rhs = realize.frame_metric(c)
            worst = max(worst, float(np.abs(lhs - rhs).max() / max(1.0, rhs.max())))
    assert worst <= 1e-8, "induced metric vs frame metric rel %.3e" % worst
    return "induced = frame metric on su(3), su(4) x %d pairs, max rel %.2e" % (n, worst)


def check_ad_invariance(fast=False) -> str:
    rng = _rng(113)
    model = orbits.build_model(1, 1, 1)
    n = 3 if fast else 10
    us = orbits.haar_unitaries(np.random.default_rng(7), 3, n)
    basis = [b for bas in model.summand_bases for b in bas]

    def bracket_gram(mats, hs):
        g = np.zeros((len(mats), len(mats)))
        for hm in hs:
            br = [x @ hm - hm @ x for x in mats]
            v = orbits._flatten_real(br, model.n_ambient)
            g += v @ v.T
        return g

    worst = 0.0
    for u in us:
        c = rng.standard_normal((2, 2))
        h1 = model.torus_element(c[:, 0])
        h2 = model.torus_element(c[:, 1])
        uh = u.conj().T
        g0 = bracket_gram(basis, [h1.matrix, h2.matrix])
        g1 = bracket_gram(
            [u @ x @ uh for x in basis],
            [u @ h1.matrix @ uh, u @ h2.matrix @ uh],
        )
        worst = max(
            worst, float(np.abs(g0 - g1).max() / max(1.0, np.abs(g0).max()))
        )
    assert worst <= 1e-8
    return "metric Gram invariant under conjugated frames, max rel %.2e" % worst


def check_hausdorff_pseudometric(fast=False) -> str:
    model = orbits.build_model(1, 1, 1)
    rng = _rng(114)
    clouds = []
    for _ in range(3):
        c = rng.standard_normal((2, 2))
        h1 = model.torus_element(c[:, 0])
        h2 = model.torus_element(c[:, 1])
        # one seed for all three: the same Haar samples under every frame
        clouds.append(orbits.sample_orbit(model, h1, h2, 60 if fast else 150, 7))
    a, b, c3 = clouds
    assert clp.hausdorff(a, a) == 0.0
    dab = clp.hausdorff(a, b)
    assert abs(dab - clp.hausdorff(b, a)) <= 1e-12
    dac, dcb = clp.hausdorff(a, c3), clp.hausdorff(c3, b)
    assert dab <= dac + dcb + 1e-12, "triangle inequality violated"
    # the sampled distance lies between the exact orbit distance and the
    # matched bound: the distance between the two frames' images of one
    # Haar sample, the same for every sample
    scale = np.sqrt(2.0 * model.n_ambient)
    for x, y in ((a, b), (a, c3), (c3, b)):
        exact = clp.orbit_distance((x.h1, x.h2), (y.h1, y.h2))
        dz = (x.h1.phases - y.h1.phases) + 1j * (x.h2.phases - y.h2.phases)
        matched = scale * float(np.linalg.norm(dz))
        norm = scale * max(
            float(np.linalg.norm(f.h1.phases + 1j * f.h2.phases)) for f in (x, y)
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
        assert v.witness is not None and "tau" in v.witness
    for x in np.eye(3):
        v = clp.collapse_verdict(model, x)
        assert v.verdict == "non_realizable", "vertex %r -> %s" % (x, v.verdict)
        assert v.witness is not None and v.witness["residual"] > 1e-7
    v = clp.collapse_verdict(model, np.array([1.0, 1.0, 1.0]) / 3)
    assert v.verdict == "no_collapse"
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
            z, _err = flow._step(f, y, f(y), h)
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


def check_equilibria(fast=False) -> str:
    spec = flags.make_flag("A", (1, 1, 1))
    eqs = flow.find_equilibria(spec, grid_n=15 if fast else 30)
    pts = np.array([e.point for e in eqs])
    targets = [np.array([1, 1, 1]) / 3.0]
    base = np.array([0.25, 0.25, 0.5])
    targets += [np.roll(base, k) for k in range(3)]
    for tgt in targets:
        d = np.linalg.norm(pts - tgt, axis=1).min()
        assert d <= 1e-8, "missing equilibrium near %r (closest %.2e)" % (tgt, d)
    for i in range(len(eqs)):
        for j in range(i + 1, len(eqs)):
            assert np.linalg.norm(pts[i] - pts[j]) > 1e-6, "duplicate equilibria"
    return "%d equilibria; normal metric and all three Kaehler points found" % len(eqs)


def check_no_recurrence(fast=False) -> str:
    spec = flags.make_flag("A", (1, 1, 1))
    rng = _rng(116)
    n, t_max = (10, 100.0) if fast else (100, 200.0)
    eqs = flow.find_equilibria(spec, grid_n=15)
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
