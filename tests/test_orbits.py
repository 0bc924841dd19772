import json

import numpy as np
import pytest

from flagricci.orbits import (
    build_model,
    haar_unitaries,
    induced_metric,
    sample_orbit,
)
from flagricci.realize import frame_metric, realizing_frame, sample_disk


def test_model_dimensions_su3():
    model = build_model(1, 1, 1)
    assert model.n_ambient == 3
    assert model.dims == (2, 2, 2)
    assert len(model.isotropy_basis) == 2
    for pair, basis in zip(model.summand_pairs, model.summand_bases):
        assert len(basis) == 2 * model.blocks[pair[0]] * model.blocks[pair[1]]


def test_model_dimensions_su4():
    model = build_model(2, 1, 1)
    assert model.n_ambient == 4
    assert model.dims == (4, 4, 2)
    # isotropy: u(2)+u(1)+u(1) traceless has dimension 4 + 1 + 1 - 1 = 5
    assert len(model.isotropy_basis) == 5


def test_basis_matrices_are_antihermitian_traceless():
    model = build_model(2, 2, 1)
    mats = list(model.isotropy_basis)
    for basis in model.summand_bases:
        mats.extend(basis)
    for a in mats:
        assert np.allclose(a + a.conj().T, 0.0, rtol=0, atol=1e-14)
        assert abs(np.trace(a)) < 1e-14


def test_omega_duality():
    for blocks in ((1, 1, 1), (2, 1, 1), (3, 2, 1)):
        model = build_model(*blocks)
        w1, w2 = model.omega
        for w, want in ((w1, [1.0, 0.0, 1.0]), (w2, [0.0, 1.0, 1.0])):
            # (alpha1, alpha2, alpha3) = (b - a, a - c, b - c) on block phases
            a, b, c = model.block_phases(w)
            assert np.allclose([b - a, a - c, b - c], want, rtol=0, atol=1e-13)
        for w in (w1, w2):
            assert abs(np.trace(w.matrix)) < 1e-13


def test_omega_coordinates_round_trip():
    model = build_model(2, 1, 1)
    elem = model.torus_element([0.3, -1.2])
    assert np.allclose(elem.omega_coords, [0.3, -1.2], rtol=0, atol=1e-15)
    back = model.torus_from_block_phases(model.block_phases(elem))
    assert np.allclose(back.phases, elem.phases, rtol=0, atol=1e-13)


def test_induced_metric_matches_frame_metric():
    rng = np.random.default_rng(83)
    for blocks in ((1, 1, 1), (2, 1, 1)):
        model = build_model(*blocks)
        for x in sample_disk(rng, 20):
            frame = realizing_frame(x)
            h1 = model.torus_element(frame[:, 0])
            h2 = model.torus_element(frame[:, 1])
            got = induced_metric(model, h1, h2)
            want = frame_metric(frame)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_induced_metric_exact_zero_for_degenerate_direction():
    # frame realizing (1/2, 0, 1/2) kills the second summand exactly
    model = build_model(1, 1, 1)
    frame = realizing_frame(np.array([0.5, 0.0, 0.5]))
    h1 = model.torus_element(frame[:, 0])
    h2 = model.torus_element(frame[:, 1])
    got = induced_metric(model, h1, h2)
    assert abs(got[1]) < 1e-15


def test_haar_unitaries_are_unitary_and_deterministic():
    from flagricci.orbits import _rng_for

    us = haar_unitaries(_rng_for(5), 4, 30)
    assert us.shape == (30, 4, 4)
    eye = np.eye(4)
    for u in us:
        assert np.allclose(u @ u.conj().T, eye, rtol=0, atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
    again = haar_unitaries(_rng_for(5), 4, 30)
    assert np.array_equal(us, again)


def test_sample_orbit_preserves_spectra():
    model = build_model(2, 1, 1)
    h1 = model.torus_element([0.4, 0.1])
    h2 = model.torus_element([-0.2, 0.5])
    cloud = sample_orbit(model, h1, h2, 40, seed=9)
    assert cloud.points.shape == (40, 2, 4, 4)
    w1 = np.sort(np.linalg.eigvalsh(1j * h1.matrix))
    w2 = np.sort(np.linalg.eigvalsh(1j * h2.matrix))
    for pair in cloud.points:
        assert np.allclose(np.sort(np.linalg.eigvalsh(1j * pair[0])), w1, atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(1j * pair[1])), w2, atol=1e-12)


def test_sample_orbit_same_seed_same_unitaries():
    # the conjugating unitaries depend only on the seed, so clouds of two
    # different torus pairs are directly comparable point by point
    model = build_model(1, 1, 1)
    a = sample_orbit(model, model.torus_element([0.5, 0.0]), model.torus_element([0.0, 0.5]), 10, seed=3)
    b = sample_orbit(model, model.torus_element([0.2, 0.1]), model.torus_element([0.1, 0.2]), 10, seed=3)
    # first points conjugated by the same unitary: check via trace pairing
    ta = np.trace(a.points[0, 0] @ a.points[0, 1])
    tb = np.trace(b.points[0, 0] @ b.points[0, 1])
    ha = np.trace(a.h1.matrix @ a.h2.matrix)
    hb = np.trace(b.h1.matrix @ b.h2.matrix)
    assert ta == pytest.approx(ha, rel=1e-12)
    assert tb == pytest.approx(hb, rel=1e-12)


def test_cloud_flat_points_and_dict():
    model = build_model(1, 1, 1)
    cloud = sample_orbit(model, *model.omega, 6, seed=0)
    flat = cloud.flat_points
    assert flat.shape == (6, 4 * 9)
    d = cloud.as_dict()
    assert d["N"] == 3
    assert d["count"] == 6
    assert d["seed"] == 0
    assert len(d["points"]) == 6
    rebuilt = np.array(d["points"])  # each point is one flattened re/im row
    assert rebuilt.shape == (6, 4 * 9)
    assert np.allclose(rebuilt, flat, rtol=0, atol=0)


@pytest.mark.parametrize("blocks,count", [((1, 1, 1), 1), ((2, 2, 2), 7)])
def test_cloud_to_json_matches_dumps(blocks, count):
    model = build_model(*blocks)
    cloud = sample_orbit(model, *model.omega, count, seed=5)
    assert cloud.to_json() == json.dumps(cloud.as_dict()) + "\n"


def test_flat_embedding_is_isometric():
    # ambient inner product -2N tr(xy) equals the Euclidean product of the
    # flattened vectors
    model = build_model(2, 1, 1)
    rng = np.random.default_rng(91)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a - a.conj().T
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = b - b.conj().T
        from flagricci.orbits import _flatten_real

        fa = _flatten_real(a[None], 4)[0]
        fb = _flatten_real(b[None], 4)[0]
        assert model.inner(a, b) == pytest.approx(fa @ fb, rel=1e-12, abs=1e-12)


def test_induced_metric_accepts_any_diagonal_on_su3():
    # with three 1x1 blocks every traceless diagonal is a torus element, so
    # the block-scalar check always passes
    model = build_model(1, 1, 1)
    w1, w2 = model.omega
    elem = type(w1)(phases=np.array([0.9, -0.6, -0.3]), omega_coords=np.array([0.0, 0.0]))
    induced_metric(model, elem, w2)


def test_induced_metric_rejects_non_central_diagonal():
    # on su(4) with a 2x2 block, a diagonal that is not constant on the
    # block is not in the torus; the induced Gram stops being block-scalar
    model = build_model(2, 1, 1)
    w1, w2 = model.omega
    bad = type(w1)(
        phases=np.array([0.5, -0.5, 0.2, -0.2]),
        omega_coords=np.array([0.0, 0.0]),
    )
    with pytest.raises(ValueError):
        induced_metric(model, bad, w2)
