from itertools import combinations

import numpy as np
import pytest

from flagricci.collapse import (
    NonRealizableError,
    collapse_run,
    collapse_verdict,
    hausdorff,
    is_subalgebra,
    kernel_summands,
    orbit_distance,
    sampling_resolution,
)
from flagricci.fields import cone_flux
from flagricci.flags import make_flag
from flagricci.orbits import TorusElement, build_model, sample_orbit
from flagricci.realize import disk_membership, realizing_frame

A111 = make_flag("A", (1, 1, 1))
MODEL3 = build_model(1, 1, 1)


def small_cloud(c1, c2, count=30, seed=0):
    h1 = MODEL3.torus_element([c1, 0.0])
    h2 = MODEL3.torus_element([0.0, c2])
    return sample_orbit(MODEL3, h1, h2, count, seed)


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
    b = sample_orbit(model4, *model4.omega, 10, seed=0)
    with pytest.raises(ValueError):
        hausdorff(a, b)


def test_orbit_distance_matches_permuted_diagonals():
    # permuting the diagonal is conjugation by a permutation matrix: same
    # orbit, distance 0, although the entrywise (matched) distance is not 0
    a = small_cloud(1.0, 0.3)
    perm = [2, 0, 1]
    b = (
        TorusElement(a.h1.phases[perm], a.h1.omega_coords),
        TorusElement(a.h2.phases[perm], a.h2.omega_coords),
    )
    assert np.linalg.norm(a.h1.phases - b[0].phases) > 0.1
    assert orbit_distance((a.h1, a.h2), b) == pytest.approx(0.0, abs=1e-15)
    c = small_cloud(0.4, 0.9, count=300)
    exact = orbit_distance((a.h1, a.h2), (c.h1, c.h2))
    assert exact == orbit_distance((c.h1, c.h2), (a.h1, a.h2))
    assert 0.0 < exact <= hausdorff(small_cloud(1.0, 0.3, count=300), c) + 1e-12


def test_orbit_distance_requires_matching_ambient():
    model4 = build_model(2, 1, 1)
    with pytest.raises(ValueError):
        orbit_distance(MODEL3.omega, model4.omega)


def test_sampling_resolution_shrinks_with_count():
    coarse = small_cloud(1.0, 1.0, count=50, seed=7)
    fine = small_cloud(1.0, 1.0, count=800, seed=7)
    assert sampling_resolution(fine) < sampling_resolution(coarse)


def test_kernel_summands():
    assert kernel_summands(np.array([0.5, 0.5, 0.0])) == (3,)
    assert kernel_summands(np.array([0.0, 0.5, 0.5])) == (1,)
    assert kernel_summands(np.array([1.0, 0.0, 0.0])) == (2, 3)
    assert kernel_summands(np.ones(3) / 3.0) == ()
    assert kernel_summands(np.array([0.5, 0.5, 1e-12]), tol=1e-8) == (3,)


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
        kernel_summands,
    ],
    ids=[
        "realizing_frame",
        "cone_flux",
        "collapse_verdict",
        "disk_membership",
        "kernel_summands",
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_points(call, bad):
    with pytest.raises(ValueError, match=r"\[0\] = .* is not finite"):
        call(np.array([bad, 0.5, 0.5]))


def test_collapse_verdict_midpoints():
    for x, dead in (([0.5, 0.5, 0.0], 3), ([0.5, 0.0, 0.5], 2), ([0.0, 0.5, 0.5], 1)):
        v = collapse_verdict(MODEL3, np.array(x))
        assert v.verdict == "realizable"
        assert v.kernel == (dead,)
        assert "tau" in v.witness
        d = v.as_dict()
        assert d["verdict"] == "realizable"


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


def test_limit_cloud_rank_drops():
    # interior clouds span a larger linear space than the collapsed limit
    x0 = np.array([0.42, 0.40, 0.18])
    run = collapse_run(A111, MODEL3, x0, times=[0.0], count=200, seed=13)
    from flagricci.orbits import sample_orbit as so
    from flagricci.realize import disk_membership, realizing_frame

    def cloud_rank(x):
        frame = realizing_frame(np.clip(np.asarray(x), 0.0, None))
        h1 = MODEL3.torus_element(frame[:, 0])
        h2 = MODEL3.torus_element(frame[:, 1])
        cloud = so(MODEL3, h1, h2, 200, 13)
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
