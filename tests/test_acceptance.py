"""Acceptance gate.

Ten numbered criteria, each printed as a single PASS/FAIL line with its
runtime. Tolerances and sample counts are part of the contract; do not
loosen them.
"""

import time
from itertools import permutations

import numpy as np

from flagricci.collapse import collapse_run, collapse_verdict, hausdorff
from flagricci.fields import cone_flux, cone_flux_closed_form, cone_form, ricci_field
from flagricci.flags import make_flag
from flagricci.flow import find_equilibria, integrate
from flagricci.orbits import build_model, induced_metric, sample_orbit
from flagricci.realize import (
    circle_point,
    frame_metric,
    psd_to_coeffs,
    rank1_decompose,
    realizing_frame,
    sample_cone,
    sample_disk,
)

A111 = make_flag("A", (1, 1, 1))


class criterion:
    """Prints `criterion NN <label>: PASS/FAIL (x.xx s)` around a block."""

    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            "criterion %02d %s: %s (%.2f s)" % (self.number, self.label, status, elapsed)
        )
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                "criterion %02d exceeded its %.0f s budget (%.2f s)"
                % (self.number, self.budget, elapsed)
            )
        return False


def cone_points(rng, count):
    a = rng.uniform(0.1, 1.4, size=count)
    b = rng.uniform(0.1, 1.4, size=count)
    return np.stack([a * a, b * b, (a + b) ** 2], axis=-1)


def test_criterion_01_flux_identity_type_a():
    with criterion(1, "flux identity, type A", 1.0):
        rng = np.random.default_rng(1001)
        for params in ((1, 1, 1), (2, 1, 1), (3, 2, 1)):
            spec = make_flag("A", params)
            pts = cone_points(rng, 1000)
            got = cone_flux(spec, pts)
            want = cone_flux_closed_form(spec, pts)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
            assert np.max(rel) <= 1e-9, "params %r: rel %.3e" % (params, np.max(rel))


def test_criterion_02_flux_sign_type_d():
    with criterion(2, "flux sign and closed form, type D", 1.0):
        rng = np.random.default_rng(1002)
        for ell in (4, 5, 8):
            spec = make_flag("D", (ell,))
            pts = cone_points(rng, 1000)
            flux = cone_flux(spec, pts)
            assert np.max(flux) <= 1e-10, "ell %d: max flux %.3e" % (ell, np.max(flux))
            want = cone_flux_closed_form(spec, pts)
            rel = np.abs(flux - want) / np.maximum(np.abs(want), 1e-30)
            assert np.max(rel) <= 1e-9, "ell %d: closed form rel %.3e" % (ell, np.max(rel))


def test_criterion_03_einstein_set_symmetric_flag():
    with criterion(3, "Einstein set of A(1,1,1)", 5.0):
        eqs = find_equilibria(A111, grid_n=30)
        pts = np.array([e.point for e in eqs])
        targets = [np.ones(3) / 3.0]
        targets += [np.roll(np.array([0.25, 0.25, 0.5]), k) for k in range(3)]
        for tgt in targets:
            dist = np.min(np.linalg.norm(pts - tgt, axis=1))
            assert dist <= 1e-8, "missing %r (nearest %.2e)" % (tgt.tolist(), dist)
        for e in eqs:
            x = np.array(e.point)
            resid = np.linalg.norm(ricci_field(A111, x) - e.einstein_constant * x)
            assert resid <= 1e-8, "R - lambda x residual %.3e at %r" % (resid, e.point)


def test_criterion_04_disk_forward_invariance():
    with criterion(4, "disk forward invariance", 30.0):
        rng = np.random.default_rng(1004)
        starts = list(sample_disk(rng, 150))
        starts += [circle_point(t) for t in rng.uniform(0.0, 2.0 * np.pi, size=50)]
        worst = -np.inf
        for x0 in starts:
            traj = integrate(A111, x0, t_max=50.0)
            worst = max(worst, float(np.max(cone_form(traj.states))))
        assert worst <= 1e-8, "max F along flows %.3e" % worst


def test_criterion_05_realizing_frame_examples_and_section():
    with criterion(5, "realizing frame examples and section", 5.0):
        got = realizing_frame(np.array([0.5, 0.5, 0.0]))
        want = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.max(np.abs(got - want)) <= 1e-12
        got = realizing_frame(np.array([0.5, 0.0, 0.5]))
        want = np.array([[np.sqrt(2.0) / 2.0, 0.0], [0.0, 0.0]])
        assert np.max(np.abs(got - want)) <= 1e-12
        rng = np.random.default_rng(1005)
        pts = sample_cone(rng, 500)
        for x in pts:
            back = frame_metric(realizing_frame(x))
            rel = np.max(np.abs(back - x)) / max(1.0, np.max(np.abs(x)))
            assert rel <= 1e-9, "section residual %.3e at %r" % (rel, x.tolist())


def test_criterion_06_oracle_equivalence():
    with criterion(6, "induced metric equals frame metric", 20.0):
        rng = np.random.default_rng(1006)
        for blocks in ((1, 1, 1), (2, 1, 1)):
            model = build_model(*blocks)
            for _ in range(100):
                c = rng.uniform(-1.5, 1.5, size=(2, 2))
                h1 = model.torus_element(c[0])
                h2 = model.torus_element(c[1])
                frame = np.stack([c[0], c[1]], axis=1)
                got = induced_metric(model, h1, h2, tol=1e-8)
                want = frame_metric(frame)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) / scale <= 1e-8


def test_criterion_07_convex_hull_membership():
    with criterion(7, "rank-one convex decomposition", 5.0):
        rng = np.random.default_rng(1007)
        for _ in range(500):
            a = rng.normal(size=(2, 2)) * rng.uniform(0.2, 2.0)
            y = a @ a.T
            parts = rank1_decompose(y)
            total = sum(w * p for w, p in parts)
            scale = max(1.0, float(np.max(np.abs(y))))
            assert np.max(np.abs(total - y)) / scale <= 1e-10
            lin = sum(w * psd_to_coeffs(p) for w, p in parts)
            assert np.max(np.abs(lin - psd_to_coeffs(y))) / scale <= 1e-10
            for _, p in parts:
                assert abs(cone_form(psd_to_coeffs(p))) <= 1e-10


def test_criterion_08_collapse_verdicts():
    with criterion(8, "collapse verdicts at midpoints and vertices", 5.0):
        model = build_model(1, 1, 1)
        for x in ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]):
            v = collapse_verdict(model, np.array(x))
            assert v.verdict == "realizable", "%r -> %s" % (x, v.verdict)
            assert "tau" in v.witness
        for x in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
            v = collapse_verdict(model, np.array(x))
            assert v.verdict == "non_realizable", "%r -> %s" % (x, v.verdict)
            assert v.witness["residual"] > 0.0


def test_criterion_09_hausdorff_collapse_profile():
    with criterion(9, "Hausdorff collapse profile", 180.0):
        model = build_model(1, 1, 1)
        run = collapse_run(
            A111,
            model,
            np.array([0.42, 0.40, 0.18]),
            times=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0],
            count=2000,
            seed=1009,
        )
        assert len(run.times) == 8
        assert run.verdict.verdict == "realizable"
        d = run.distances
        slack = 0.10 * d[0]
        assert np.all(d[1:] <= d[:-1] + slack), "profile not non-increasing: %r" % d
        assert d[-1] <= 2.0 * run.resolution, (
            "final distance %.4f vs resolution %.4f" % (d[-1], run.resolution)
        )


def test_collapse_profile_is_the_exact_orbit_distance():
    # The README run. Each distance must be the best matching of the diagonal
    # entries z = phases(h1) + i phases(h2), found here by brute force over
    # all permutations; 200-point clouds on one Haar seed must lie between
    # that and the matched bound; and the profile must fall strictly.
    def frame(model, x):
        tau = realizing_frame(np.clip(x, 0.0, None), tol=1e-8)
        return model.torus_element(tau[:, 0]), model.torus_element(tau[:, 1])

    for blocks in ((1, 1, 1), (2, 2, 2)):
        model = build_model(*blocks)
        run = collapse_run(
            make_flag("A", blocks),
            model,
            np.array([0.42, 0.40, 0.18]),
            times=[0, 1, 2, 4, 8],
            count=2000,
            seed=0,
        )
        scale = np.sqrt(2.0 * model.n_ambient)
        limit = frame(model, run.x_limit)
        w = limit[0].phases + 1j * limit[1].phases
        limit_cloud = sample_orbit(model, *limit, 200, 0)
        for x, d in zip(run.states, run.distances):
            fx = frame(model, x)
            z = fx[0].phases + 1j * fx[1].phases
            exact = scale * min(
                np.linalg.norm(z - w[list(p)]) for p in permutations(range(len(z)))
            )
            assert abs(d - exact) <= 1e-12 * exact, (blocks, d, exact)
            matched = scale * np.linalg.norm(z - w)
            norm = scale * max(np.linalg.norm(z), np.linalg.norm(w))
            sampled = hausdorff(sample_orbit(model, *fx, 200, 0), limit_cloud)
            assert exact - 1e-9 * norm <= sampled <= matched + 1e-9 * norm, (
                blocks,
                sampled,
                exact,
                matched,
            )
        assert np.all(np.diff(run.distances) < 0), run.distances


def test_criterion_10_no_recurrence():
    with criterion(10, "no recurrence by t = 200", 60.0):
        rng = np.random.default_rng(1010)
        eqs = find_equilibria(A111, grid_n=20)
        starts = sample_disk(rng, 100)
        from flagricci.flow import classify_limit

        for x0 in starts:
            traj = integrate(A111, x0, t_max=200.0)
            hit = classify_limit(traj, eqs)
            assert hit is not None, "start %r did not classify" % (x0.tolist(),)
