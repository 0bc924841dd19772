import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from flagricci import collapse, orbits, realize
from flagricci.collapse import (
    NonRealizableError,
    _distinct,
    _nearest,
    collapse_run,
    collapse_verdict,
    hausdorff,
    is_subalgebra,
    orbit_distance,
    sampling_resolution,
)
from flagricci.fields import cone_flux, require_finite
from flagricci.flags import make_flag
from flagricci.orbits import build_model, sample_orbit
from flagricci.realize import disk_membership, realizing_frame

A111 = make_flag("A", (1, 1, 1))
MODEL3 = build_model(1, 1, 1)


def small_cloud(c1, c2, count=30, seed=0):
    return sample_orbit(MODEL3, MODEL3.frame([[c1, 0.0], [0.0, c2]]), count, seed)


def test_hausdorff_identity_and_symmetry():
    a = small_cloud(1.0, 1.0, seed=1)
    b = small_cloud(0.5, 1.5, seed=2)
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, b) > 0.0


def test_hausdorff_triangle_inequality():
    a = small_cloud(1.0, 0.3, seed=3)
    b = small_cloud(0.4, 0.9, seed=4)
    c = small_cloud(0.7, 0.7, seed=5)
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


def test_hausdorff_requires_matching_ambient():
    a = small_cloud(1.0, 1.0)
    model4 = build_model(2, 1, 1)
    b = sample_orbit(model4, model4.omega, 10, seed=0)
    with pytest.raises(ValueError):
        hausdorff(a, b)


def test_orbit_distance_matches_permuted_diagonals():
    # permuting the diagonal is conjugation by a permutation matrix: same
    # orbit, distance 0, although the entrywise (matched) distance is not 0
    a = small_cloud(1.0, 0.3)
    b = a.frame[:, [2, 0, 1]]
    assert np.linalg.norm(a.frame[0] - b[0]) > 0.1
    assert orbit_distance(a.frame, b) == pytest.approx(0.0, abs=1e-15)
    c = small_cloud(0.4, 0.9, count=300)
    exact = orbit_distance(a.frame, c.frame)
    assert exact == orbit_distance(c.frame, a.frame)
    assert 0.0 < exact <= hausdorff(small_cloud(1.0, 0.3, count=300), c) + 1e-12


def test_orbit_distance_requires_matching_ambient():
    model4 = build_model(2, 1, 1)
    with pytest.raises(ValueError):
        orbit_distance(MODEL3.omega, model4.omega)


# the edge midpoints, where the flow collapses, and the interior equilibrium
LIMITS = [(0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5), (0.25, 0.25, 0.5)]


def limit_frame(model, x):
    return model.frame(realizing_frame(np.array(x)))


def _assignment_distance(a, b):
    """orbit_distance from scipy's assignment solver on the full N x N costs."""
    z = a[0] + 1j * a[1]
    w = b[0] + 1j * b[1]
    cost = np.abs(z[:, None] - w[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(2 * len(z) * cost[rows, cols].sum()))


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 2), (5, 3, 2)])
def test_orbit_distance_matches_the_assignment_solver(blocks):
    # random frames, their diagonals permuted, and the limit frames, whose
    # diagonals repeat values across blocks; with unit blocks the transport
    # sums the assignment's costs in the same order, so the bits agree
    model = build_model(*blocks)
    rng = np.random.default_rng(list(blocks))
    limits = [limit_frame(model, x) for x in LIMITS]
    for k in range(300):
        c = rng.standard_normal((4, 2))
        a = model.frame(c[:2].T)
        b = model.frame(c[2:].T)
        pb = b[:, rng.permutation(model.n_ambient)]
        for x, y in ((a, b), (a, pb), (pb, a), (a, limits[k % 4])):
            got, want = orbit_distance(x, y), _assignment_distance(x, y)
            if blocks == (1, 1, 1):
                assert got == want, (x, y)
            else:
                assert abs(got - want) <= 1e-15 * want, (x, y, got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_orbit_distance_rejects_non_finite_phases(bad):
    h1, h2 = MODEL3.omega
    broken = np.array([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^b\[1, 0\] = %r is not finite$" % bad):
        orbit_distance(MODEL3.omega, np.array([h1, broken]))
    with pytest.raises(ValueError, match=r"^a\[0, 0\] = %r is not finite$" % bad):
        orbit_distance(np.array([broken, h2]), MODEL3.omega)


def test_orbit_distance_rejects_a_frame_off_the_blocks():
    model = build_model(2, 1, 1)
    spread = np.array([[0.3, 0.1, -0.1, -0.3], model.omega[1]])
    with pytest.raises(ValueError, match="^frame a takes 4 distinct diagonal values"):
        orbit_distance(spread, model.omega)


def _scan_resolution(cloud):
    """Median nearest-neighbour distance from a cdist scan of 64-row blocks
    against the whole cloud: the oracle for sampling_resolution."""
    pts = cloud.flat_points
    nearest = np.empty(len(pts))
    for s in range(0, len(pts), 64):
        d = cdist(pts[s : s + 64], pts)
        # a point's own entry is exactly 0, the smallest of its row
        nearest[s : s + 64] = np.partition(d, 1, axis=1)[:, 1]
    return float(np.median(nearest))


RESOLUTION_BLOCKS = [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 2)]


@pytest.mark.parametrize("blocks", RESOLUTION_BLOCKS)
def test_sampling_resolution_matches_the_block_scan(blocks):
    # counts on both sides of one 64-row block; one 2000-point cloud per
    # model, at a different limit for each
    model = build_model(*blocks)
    big = RESOLUTION_BLOCKS.index(blocks)
    for k, x in enumerate(LIMITS):
        frame = limit_frame(model, x)
        for count in [2, 63, 64, 65, 500] + [2000] * (k == big):
            cloud = sample_orbit(model, frame, count, count + k)
            assert sampling_resolution(cloud) == _scan_resolution(cloud), (x, count)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_resolution_keeps_the_bits_of_near_ties(seed):
    # each point p gets the neighbours p + v and p - v, at one exact distance
    # that cdist and the Gram form round differently; only the rounding
    # slack of the candidate rule keeps cdist's nearest among the candidates
    model = build_model(2, 2, 2)
    base = sample_orbit(model, model.omega, 100, seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(base.points.shape) + 1j * rng.standard_normal(base.points.shape)
    v *= 1e-3 / np.linalg.norm(v.reshape(100, -1), axis=1)[:, None, None, None]
    points = np.concatenate([base.points, base.points + v, base.points - v])
    cloud = replace(base, points=points, count=300)
    assert sampling_resolution(cloud) == _scan_resolution(cloud)


def test_sampling_resolution_of_a_doubled_cloud_is_zero():
    cloud = small_cloud(1.0, 0.3, count=63)
    twice = replace(cloud, points=np.concatenate([cloud.points, cloud.points]), count=126)
    assert sampling_resolution(twice) == _scan_resolution(twice) == 0.0


def test_sampling_resolution_shrinks_with_count():
    coarse = small_cloud(1.0, 1.0, count=50, seed=7)
    fine = small_cloud(1.0, 1.0, count=800, seed=7)
    assert sampling_resolution(fine) < sampling_resolution(coarse)


# powers of two scale exactly; 1e+-150 round, the squares of 1e-150 underflow
# and those of 1e155 overflow
SCALES = [2.0**500, 2.0**-500, 1e150, 1e-150, 1e155]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("count", [2, 3, 127, 128, 129])
def test_nearest_has_the_bits_of_a_full_cdist_scan(count, scale):
    # on either side of one 128-row ranking block, within a cloud and
    # between two clouds, at scales whose squares overflow or underflow, in
    # su(3), su(4) and su(9): 36, 64 and 324 coordinates
    for blocks in [(1, 1, 1), (2, 1, 1), (3, 3, 3)]:
        model = build_model(*blocks)
        frame = limit_frame(model, LIMITS[count % 4])
        pts = sample_orbit(model, frame, count, count).flat_points * scale
        other = sample_orbit(model, model.omega, count + 5, count).flat_points * scale
        within = cdist(pts, pts)
        np.fill_diagonal(within, np.inf)
        assert _nearest(pts).tobytes() == within.min(axis=1).tobytes(), blocks
        assert _nearest(pts, other).tobytes() == cdist(pts, other).min(axis=1).tobytes()
        assert _nearest(other, pts).tobytes() == cdist(other, pts).min(axis=1).tobytes()


def _assert_nearest_has_the_bits_of_cdist(pts, other):
    """_nearest within pts, from pts to other and back, against cdist."""
    within = cdist(pts, pts)
    np.fill_diagonal(within, np.inf)
    assert _nearest(pts).tobytes() == within.min(axis=1).tobytes()
    assert _nearest(pts, other).tobytes() == cdist(pts, other).min(axis=1).tobytes()
    assert _nearest(other, pts).tobytes() == cdist(other, pts).min(axis=1).tobytes()


# clouds off the skew-Hermitian points: complex Gaussian points, and orbit
# points moved by complex Gaussian matrices of these sizes
OFF_SKEW = ["gaussian", 1e-8, 1e-3, 1.0]


@pytest.mark.parametrize("bend", OFF_SKEW)
@pytest.mark.parametrize("count", [3, 127, 128, 129])
def test_nearest_has_the_bits_of_cdist_off_the_skew_hermitian_points(count, bend):
    # the ranking leaves out the Hermitian half of each point, which is as
    # large as the rest here; only the slack it adds keeps the nearest
    # column among the candidates
    rng = np.random.default_rng([count, OFF_SKEW.index(bend)])
    for blocks in [(1, 1, 1), (2, 1, 1)]:
        model = build_model(*blocks)
        clouds = []
        for k, frame in enumerate([limit_frame(model, LIMITS[count % 4]), model.omega]):
            cloud = sample_orbit(model, frame, count + 5 * k, count)
            shape = cloud.points.shape
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            points = z if bend == "gaussian" else cloud.points + bend * z
            clouds.append(replace(cloud, points=points).flat_points)
        _assert_nearest_has_the_bits_of_cdist(*clouds)


def test_nearest_has_the_bits_of_cdist_on_repeated_rows():
    # 300 draws from 150 points, so most rows repeat, and two rows equal but
    # for the sign of a zero, which count as two rows and lie 0 apart
    model = build_model(2, 1, 1)
    base = sample_orbit(model, model.omega, 150, 4).flat_points
    rng = np.random.default_rng(4)
    drawn = base[rng.integers(0, 150, 300)]
    rows, group = _distinct(drawn)
    assert len(rows) == len(np.unique(drawn, axis=0)) < 150
    assert np.array_equal(rows[group], drawn)
    signed = np.repeat(base[:1], 2, axis=0)
    signed[:, 0] = [0.0, -0.0]
    pts = np.concatenate([drawn, signed])
    _assert_nearest_has_the_bits_of_cdist(pts, base[:50])
    _assert_nearest_has_the_bits_of_cdist(base, pts)
    assert _distinct(base)[1] is None


@pytest.mark.parametrize("scale", [1.0] + SCALES)
def test_hausdorff_is_the_max_min_of_a_full_cdist_scan(scale):
    a = small_cloud(1.0, 0.3, count=140, seed=8)
    b = small_cloud(0.4, 0.9, count=131, seed=9)
    a, b = replace(a, points=a.points * scale), replace(b, points=b.points * scale)
    d = cdist(a.flat_points, b.flat_points)
    assert hausdorff(a, b) == float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def test_hausdorff_prepares_each_cloud_once(monkeypatch):
    # both directions rank from one _distinct key and one float32 copy per
    # cloud, with the bits of the two one-way scans
    a = small_cloud(1.0, 0.3, count=140, seed=8)
    b = small_cloud(0.4, 0.9, count=131, seed=9)
    pa, pb = a.flat_points, b.flat_points
    want = float(max(_nearest(pa, pb).max(), _nearest(pb, pa).max()))
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for name in ("_distinct", "_ranking_copy"):
        monkeypatch.setattr(collapse, name, counted(name, getattr(collapse, name)))
    assert hausdorff(a, b) == want
    assert sorted(calls) == ["_distinct"] * 2 + ["_ranking_copy"] * 2


@pytest.mark.parametrize("where", ["orbit point", "origin"])
def test_a_cloud_of_one_point_makes_every_column_a_candidate(where):
    # one su(6) point repeated is ranked as one row and each copy is exactly
    # 0 from the others, where a full distance matrix of the 2000-point
    # cloud would take 30.5 MiB
    model = build_model(2, 2, 2)
    cloud = sample_orbit(model, model.omega, 1, 3)
    point = cloud.points if where == "orbit point" else np.zeros_like(cloud.points)
    for count in [129, 2000]:
        pts = replace(cloud, points=np.repeat(point, count, axis=0), count=count).flat_points
        tracemalloc.start()
        try:
            got = _nearest(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20
        within = cdist(pts, pts)
        np.fill_diagonal(within, np.inf)
        assert got.tobytes() == within.min(axis=1).tobytes()


def test_a_cloud_that_float32_cannot_resolve_makes_every_column_a_candidate():
    # the pair kernel's worst case: distinct points 1e-12 apart, which the
    # float32 ranking cannot tell apart, so each block measures all of its
    # pairs, in batches, and holds its pair indices and distances
    model = build_model(2, 2, 2)
    cloud = sample_orbit(model, model.omega, 1, 3)
    rng = np.random.default_rng(3)
    for count in [129, 600]:
        shape = (count,) + cloud.points.shape[1:]
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        points = cloud.points + 1e-12 * z
        pts = replace(cloud, points=points, count=count).flat_points
        tracemalloc.start()
        try:
            got = _nearest(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20
        within = cdist(pts, pts)
        np.fill_diagonal(within, np.inf)
        assert got.tobytes() == within.min(axis=1).tobytes()


def test_sampling_resolution_holds_blocks_not_the_distance_matrix():
    # a 2000-point su(6) cloud: beyond its flat coordinates, a float32 copy
    # of the points' skew-Hermitian halves (0.55 MiB), one 128-row ranking
    # block (1 MiB) and small change, where a full distance matrix would
    # take 30.5 MiB
    model = build_model(2, 2, 2)
    cloud = sample_orbit(model, model.omega, 2000, 0)
    flat = cloud.flat_points.nbytes
    tracemalloc.start()
    try:
        sampling_resolution(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - flat <= 3 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cloud_distances_reject_non_finite_points(bad):
    cloud = small_cloud(1.0, 1.0, count=50)
    cloud.points[3, 0, 1, 1] = bad
    other = small_cloud(1.0, 1.0, count=50, seed=1)
    with pytest.raises(ValueError, match=r"^cloud\.flat_points\[3, 4\] = %r" % bad):
        sampling_resolution(cloud)
    with pytest.raises(ValueError, match=r"^a\.flat_points\[3, 4\] = %r" % bad):
        hausdorff(cloud, other)
    with pytest.raises(ValueError, match=r"^b\.flat_points\[3, 4\] = %r" % bad):
        hausdorff(other, cloud)


def test_collapse_verdict_kernel():
    def kernel(x):
        return collapse_verdict(MODEL3, np.array(x)).kernel

    assert kernel([0.5, 0.5, 0.0]) == (3,)
    assert kernel([0.0, 0.5, 0.5]) == (1,)
    assert kernel([1.0, 0.0, 0.0]) == (2, 3)
    assert kernel(np.ones(3) / 3.0) == ()
    assert kernel([0.5, 0.5, 1e-12]) == (3,)


@pytest.mark.parametrize("single", [1, 2, 3])
def test_single_summand_is_subalgebra(single):
    ok, witness = is_subalgebra(MODEL3, (single,))
    assert ok
    assert witness is None


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
def test_two_summands_leak(pair):
    ok, witness = is_subalgebra(MODEL3, pair)
    assert not ok
    assert witness is not None
    assert witness["residual"] > 1e-7
    missing = ({1, 2, 3} - set(pair)).pop()
    assert witness["leaks_into"] == missing


def test_subalgebra_on_su4():
    model = build_model(2, 1, 1)
    for single in (1, 2, 3):
        ok, _ = is_subalgebra(model, (single,))
        assert ok
    ok, witness = is_subalgebra(model, (1, 2))
    assert not ok and witness["leaks_into"] == 3


def _bracket_scan(model, summand_indices, tol=1e-9):
    """Bracket every pair of basis elements of k + m_S; report the first leak.

    The numerical oracle for is_subalgebra's block rule: O(dim^2) brackets,
    each projected onto every complementary summand.
    """
    selected = sorted(set(int(i) for i in summand_indices))
    members = [("k", j, b) for j, b in enumerate(model.isotropy_basis)]
    for i in selected:
        members.extend(
            ("m%d" % i, j, b) for j, b in enumerate(model.summand_bases[i - 1])
        )
    complement = [i for i in (1, 2, 3) if i not in selected]
    if not complement:
        return True, None

    norm2 = 4.0 * model.n_ambient
    comp_bases = [(i, model.summand_bases[i - 1]) for i in complement]
    for ai in range(len(members)):
        tag_a, idx_a, xa = members[ai]
        for bi in range(ai + 1, len(members)):
            tag_b, idx_b, xb = members[bi]
            br = xa @ xb - xb @ xa
            scale = max(1.0, float(np.sqrt(2 * model.n_ambient) * np.linalg.norm(br)))
            worst = (0.0, None)
            for i, basis in comp_bases:
                res2 = 0.0
                for e in basis:
                    res2 += model.inner(br, e) ** 2 / norm2
                if res2 > worst[0]:
                    worst = (res2, i)
            residual = float(np.sqrt(worst[0]))
            if residual > tol * scale:
                witness = {
                    "first": "%s[%d]" % (tag_a, idx_a),
                    "second": "%s[%d]" % (tag_b, idx_b),
                    "leaks_into": worst[1],
                    "residual": residual,
                }
                return False, witness
    return True, None


SUMMAND_SETS = [s for r in (1, 2, 3) for s in combinations((1, 2, 3), r)]


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 1, 1)])
def test_block_rule_matches_bracket_scan(blocks):
    model = build_model(*blocks)
    assert len(SUMMAND_SETS) == 7
    for selected in SUMMAND_SETS:
        # exact equality: same verdict, same leaking pair, same residual bits
        assert is_subalgebra(model, selected) == _bracket_scan(model, selected), selected


@pytest.mark.parametrize(
    "call",
    [
        realizing_frame,
        lambda x: cone_flux(A111, x),
        lambda x: collapse_verdict(MODEL3, x),
        disk_membership,
    ],
    ids=[
        "realizing_frame",
        "cone_flux",
        "collapse_verdict",
        "disk_membership",
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_points(call, bad):
    with pytest.raises(ValueError, match=r"\[0\] = .* is not finite"):
        call(np.array([bad, 0.5, 0.5]))


def test_collapse_verdict_names_its_argument():
    # one finiteness check, made by collapse_verdict, names x_limit
    with pytest.raises(ValueError, match=r"^x_limit\[0\] = nan is not finite$"):
        collapse_verdict(MODEL3, np.array([np.nan, 0.5, 0.5]))
    # realizing_frame, called alone, names x
    with pytest.raises(ValueError, match=r"^x\[0\] = nan is not finite$"):
        realizing_frame(np.array([np.nan, 0.5, 0.5]))


def test_a_realizable_verdict_checks_its_point_once(monkeypatch):
    checks = []

    def counted(x, name="x"):
        checks.append(name)
        return require_finite(x, name)

    monkeypatch.setattr(collapse, "require_finite", counted)
    monkeypatch.setattr(realize, "require_finite", counted)
    x = np.array([0.0, 0.5, 0.5])
    verdict = collapse_verdict(MODEL3, x)
    assert verdict.verdict == "realizable"
    assert checks == ["x_limit"]
    assert verdict.witness["tau"].tobytes() == realizing_frame(x, collapse.KERNEL_TOL).tobytes()


@pytest.mark.parametrize(
    "x, message",
    [
        (
            [-0.5, 0.75, 0.75],
            r"^x_limit\[0\] = -0\.5 is below -tol = 1e-08: metric coefficients are "
            r"nonnegative$",
        ),
        (
            [0.0, 0.0, 0.0],
            r"^x_limit = \[0\.0, 0\.0, 0\.0\] kills all three summands: a limit "
            r"metric keeps at least one$",
        ),
    ],
    ids=["negative-coordinate", "all-killed"],
)
def test_collapse_verdict_rejects_points_that_are_no_limit(x, message):
    # both were once called realizable, the second with a zero frame
    with pytest.raises(ValueError, match=message):
        collapse_verdict(MODEL3, np.array(x))


def test_collapse_verdict_midpoints():
    for x, dead in (([0.5, 0.5, 0.0], 3), ([0.5, 0.0, 0.5], 2), ([0.0, 0.5, 0.5], 1)):
        v = collapse_verdict(MODEL3, np.array(x))
        assert v.verdict == "realizable"
        assert v.kernel == (dead,)
        assert "tau" in v.witness


def test_collapse_verdict_vertices():
    for x in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
        v = collapse_verdict(MODEL3, np.array(x))
        assert v.verdict == "non_realizable"
        assert len(v.kernel) == 2
        assert v.witness["residual"] > 1e-7


def test_collapse_verdict_interior():
    v = collapse_verdict(MODEL3, np.ones(3) / 3.0)
    assert v.verdict == "no_collapse"
    assert v.kernel == ()


def test_collapse_run_converges_to_midpoint():
    run = collapse_run(
        A111,
        MODEL3,
        np.array([0.42, 0.40, 0.18]),
        times=[0.0, 1.0, 2.0, 4.0, 6.0],
        count=300,
        seed=11,
    )
    assert run.verdict.verdict == "realizable"
    assert np.allclose(run.x_limit, [0.5, 0.5, 0.0], atol=1e-6)
    assert len(run.distances) == 5
    assert run.distances[-1] < run.distances[0]
    assert run.profile_ok()
    assert run.distances[-1] <= 2.0 * run.resolution


def test_collapse_run_rejects_interior_limit():
    with pytest.raises(NonRealizableError):
        collapse_run(
            A111,
            MODEL3,
            np.ones(3) / 3.0,
            times=[0.0, 1.0],
            count=50,
            seed=0,
        )


def test_collapse_run_rejects_point_off_disk():
    with pytest.raises(ValueError):
        collapse_run(
            A111,
            MODEL3,
            np.array([0.7, 0.2, 0.1]),
            times=[0.0, 1.0],
            count=50,
            seed=0,
        )


def test_collapse_run_realizes_the_limit_once(monkeypatch):
    # the verdict's frame at x_limit is the limit frame; realize's entry
    # and collapse's own name for _realizing_frame are both counted
    calls = []

    def counting(x, tol):
        calls.append(np.array(x, dtype=float))
        return real(x, tol)

    real = realize._realizing_frame
    monkeypatch.setattr(realize, "_realizing_frame", counting)
    monkeypatch.setattr(collapse, "_realizing_frame", counting)
    times = [0.0, 1.0, 2.0, 4.0, 8.0]
    run = collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), times=times, count=200)
    assert sum(np.array_equal(x, run.x_limit) for x in calls) == 1
    assert len(calls) == 1 + len(times)


@pytest.mark.parametrize("count", [1, 0, -3])
def test_collapse_run_needs_two_points_for_a_resolution(count):
    # one point has no nearest neighbour: its resolution would be inf and
    # profile_ok would hold for any distances
    with pytest.raises(ValueError, match="^count must be at least 2: a sampling resolution"):
        collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), times=[0.0, 1.0], count=count)


def test_collapse_run_rejects_a_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"^count must be a positive integer, got 2\.5$"):
        collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), times=[0.0, 1.0], count=2.5)


def test_sampling_never_calls_haar_unitaries(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("haar_unitaries called")

    monkeypatch.setattr(orbits, "haar_unitaries", refuse)
    model = build_model(2, 1, 1)
    assert sample_orbit(model, model.omega, 5, 0).points.shape == (5, 2, 4, 4)
    run = collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), times=[0.0, 1.0], count=20)
    assert run.resolution > 0.0


# seed-to-seed standard deviation of the resolution of 1000-point clouds on
# A(2,2,2) at the midpoint (1/2, 1/2, 0): 0.0102 for sample_orbit and 0.0088
# for haar_unitaries clouds, each over seeds 0-39, whose means differed by 0.0006
RESOLUTION_SPREAD = 0.010


def test_sampling_resolution_has_the_law_of_haar_clouds():
    # the same statistic of sample_orbit's clouds and of dense u h u^*
    # products over haar_unitaries, over six seeds each: their means agree
    # within two seed-to-seed spreads, and neither spread is out of scale
    model = build_model(2, 2, 2)
    n, count = model.n_ambient, 1000
    frame = model.frame(realizing_frame(np.array([0.5, 0.5, 0.0])))
    new, ref = [], []
    for seed in range(6):
        new.append(sampling_resolution(sample_orbit(model, frame, count, seed)))
        us = orbits.haar_unitaries(orbits._rng_for(seed), n, count)
        uh = np.conj(np.swapaxes(us, -1, -2))
        pts = np.stack([us @ (1j * np.diag(h)) @ uh for h in frame], axis=1)
        cloud = orbits.OrbitCloud(n, model.blocks, frame, seed, count, pts)
        ref.append(sampling_resolution(cloud))
    assert abs(np.mean(new) - np.mean(ref)) <= 2.0 * RESOLUTION_SPREAD
    assert max(np.std(new, ddof=1), np.std(ref, ddof=1)) <= 2.0 * RESOLUTION_SPREAD


def test_limit_cloud_rank_drops():
    # interior clouds span a larger linear space than the collapsed limit
    x0 = np.array([0.42, 0.40, 0.18])
    run = collapse_run(A111, MODEL3, x0, times=[0.0], count=200, seed=13)
    from flagricci.orbits import sample_orbit as so
    from flagricci.realize import disk_membership, realizing_frame

    def cloud_rank(x):
        frame = MODEL3.frame(realizing_frame(np.clip(np.asarray(x), 0.0, None)))
        cloud = so(MODEL3, frame, 200, 13)
        flat = cloud.flat_points
        centered = flat - flat.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        return int(np.sum(s > 1e-8 * s[0]))

    assert cloud_rank(run.x_limit) < cloud_rank(x0)


def test_collapse_run_samples_only_the_limit_orbit(monkeypatch):
    import flagricci.collapse as clp

    counts = []

    def counting(*args, **kwargs):
        cloud = sample_orbit(*args, **kwargs)
        counts.append(cloud.count)
        return cloud

    monkeypatch.setattr(clp, "sample_orbit", counting)
    run = collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), times=[0, 2, 4], count=70)
    assert counts == [70]
    assert len(run.distances) == 3


def test_deterministic_distances():
    kwargs = dict(times=[0.0, 2.0], count=120, seed=21)
    r1 = collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), **kwargs)
    r2 = collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), **kwargs)
    assert np.array_equal(r1.distances, r2.distances)
    # the profile takes no samples: count and seed move only the resolution
    r3 = collapse_run(A111, MODEL3, np.array([0.42, 0.40, 0.18]), [0.0, 2.0], count=40, seed=5)
    assert np.array_equal(r1.distances, r3.distances)
    assert r3.resolution != r1.resolution
