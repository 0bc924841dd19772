import io
import json
import math
import sys

import numpy as np
import pytest

from flagricci.orbits import (
    _rng_for,
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
        assert model.omega.shape == (2, model.n_ambient)
        starts = [r.start for r in model.block_ranges]
        for w, want in zip(model.omega, ([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])):
            # (alpha1, alpha2, alpha3) = (b - a, a - c, b - c) on block phases
            a, b, c = w[starts]
            assert np.allclose([b - a, a - c, b - c], want, rtol=0, atol=1e-13)
            assert abs(w.sum()) < 1e-13


def test_omega_coordinates_round_trip():
    # column k of tau holds the omega coordinates of h_k
    model = build_model(2, 1, 1)
    w1, w2 = model.omega
    tau = np.array([[0.3, 0.7], [-1.2, 0.4]])
    frame = model.frame(tau)
    assert frame.shape == (2, 4)
    assert frame[0].tobytes() == (0.3 * w1 + -1.2 * w2).tobytes()
    assert frame[1].tobytes() == (0.7 * w1 + 0.4 * w2).tobytes()
    # block phases (a, b, c) give back the omega coordinates (b - a, a - c)
    a, b, c = frame[:, [0, 2, 3]].T
    assert np.allclose(np.array([b - a, a - c]), tau, rtol=0, atol=1e-15)
    assert np.array_equal(model.frame(np.eye(2)), model.omega)


@pytest.mark.parametrize("tau", [np.zeros(2), np.zeros((2, 3)), np.zeros((3, 2))])
def test_frame_rejects_a_tau_that_is_not_2x2(tau):
    with pytest.raises(ValueError, match=r"^tau must be a 2x2 matrix, got shape "):
        build_model(1, 1, 1).frame(tau)


def test_induced_metric_matches_frame_metric():
    rng = np.random.default_rng(83)
    for blocks in ((1, 1, 1), (2, 1, 1)):
        model = build_model(*blocks)
        for x in sample_disk(rng, 20):
            frame = realizing_frame(x)
            got = induced_metric(model, model.frame(frame))
            want = frame_metric(frame)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_induced_metric_exact_zero_for_degenerate_direction():
    # frame realizing (1/2, 0, 1/2) kills the second summand exactly
    model = build_model(1, 1, 1)
    frame = realizing_frame(np.array([0.5, 0.0, 0.5]))
    got = induced_metric(model, model.frame(frame))
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
    frame = model.frame(np.array([[0.4, -0.2], [0.1, 0.5]]))
    cloud = sample_orbit(model, frame, 40, seed=9)
    assert cloud.points.shape == (40, 2, 4, 4)
    # 1j * h = -diag(frame[k]) is Hermitian
    w1 = np.sort(-frame[0])
    w2 = np.sort(-frame[1])
    for pair in cloud.points:
        assert np.allclose(np.sort(np.linalg.eigvalsh(1j * pair[0])), w1, atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(1j * pair[1])), w2, atol=1e-12)


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 2), (3, 3, 3)])
def test_sample_orbit_points_are_the_dense_products(blocks):
    # scaling u's columns by diag(h) and multiplying into the cloud in place
    # keeps the bits of the two triple products u h u^*
    model = build_model(*blocks)
    x = np.array([0.3, 0.3, 0.4])
    frame = model.frame(realizing_frame(x))
    cloud = sample_orbit(model, frame, 300, seed=4)
    us = haar_unitaries(_rng_for(4), model.n_ambient, 300)
    uh = np.conjugate(np.swapaxes(us, -1, -2))
    h1, h2 = (1j * np.diag(h) for h in frame)
    dense = np.stack([us @ h1 @ uh, us @ h2 @ uh], axis=1)
    assert cloud.points.tobytes() == dense.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**128, 1.0, 0.5, "3", None])
def test_sample_orbit_rejects_bad_seeds(seed):
    model = build_model(1, 1, 1)
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*128\), got "):
        sample_orbit(model, model.omega, 5, seed)


def test_sample_orbit_accepts_the_seed_range_ends():
    model = build_model(1, 1, 1)
    for seed in (0, 2**128 - 1, np.int64(7)):
        assert sample_orbit(model, model.omega, 2, seed).seed == seed


def test_sample_orbit_rejects_a_frame_whose_orbit_overflows():
    # the frame is finite, but its orbit coordinates, sqrt(2N) times an
    # entry of u h u^*, are not; never a warning, which pytest would raise
    model = build_model(1, 1, 1)
    frame = model.frame([[1.7e308, 0.0], [1.7e308, 0.0]])
    assert np.isfinite(frame).all()
    message = r"max \|h\| = 1\.700e\+308 overflows the float range$"
    with pytest.raises(ValueError, match=message):
        sample_orbit(model, frame, 1, 0)
    with pytest.raises(ValueError, match=r"^frame\[0, 1\] = inf is not finite$"):
        sample_orbit(model, np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]), 1, 0)


def test_sample_orbit_at_the_overflow_bound_is_finite():
    model = build_model(1, 2, 1)
    b = sys.float_info.max / (2.0 * math.sqrt(2.0 * model.n_ambient))
    frame = np.array([[b, -b, 0.0, 0.0], [0.0, 0.0, b, -b]])
    cloud = sample_orbit(model, frame, 50, 2)
    assert np.isfinite(cloud.flat_points).all()
    with pytest.raises(ValueError, match="overflows the float range$"):
        sample_orbit(model, np.array([[2.0 * b, -b, -b, 0.0], [0.0] * 4]), 1, 0)


def test_sample_orbit_same_seed_same_unitaries():
    # the conjugating unitaries depend only on the seed, so clouds of two
    # different torus pairs are directly comparable point by point
    model = build_model(1, 1, 1)
    a = sample_orbit(model, model.frame([[0.5, 0.0], [0.0, 0.5]]), 10, seed=3)
    b = sample_orbit(model, model.frame([[0.2, 0.1], [0.1, 0.2]]), 10, seed=3)
    # first points conjugated by the same unitary: check via trace pairing
    ta = np.trace(a.points[0, 0] @ a.points[0, 1])
    tb = np.trace(b.points[0, 0] @ b.points[0, 1])
    # tr(i diag(h1) i diag(h2)) = -h1 . h2
    ha = -a.frame[0] @ a.frame[1]
    hb = -b.frame[0] @ b.frame[1]
    assert ta == pytest.approx(ha, rel=1e-12)
    assert tb == pytest.approx(hb, rel=1e-12)


def test_cloud_flat_points_and_dict():
    model = build_model(1, 1, 1)
    cloud = sample_orbit(model, model.omega, 6, seed=0)
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


def _json_text(cloud):
    buf = io.StringIO()
    cloud.write_json(buf)
    return buf.getvalue()


@pytest.mark.parametrize("blocks,count", [((1, 1, 1), 1), ((2, 2, 2), 7)])
def test_cloud_write_json_matches_dumps(blocks, count):
    model = build_model(*blocks)
    cloud = sample_orbit(model, model.omega, count, seed=5)
    assert _json_text(cloud) == json.dumps(cloud.as_dict()) + "\n"


def test_write_json_writes_one_block_of_rows_at_a_time():
    class Recorder:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

    model = build_model(2, 2, 2)
    cloud = sample_orbit(model, model.omega, 129, seed=1)
    fh = Recorder()
    cloud.write_json(fh)
    # header, three blocks of 64, 64 and 1 rows, closing brackets
    assert len(fh.chunks) == 5
    assert [c.count("], [") for c in fh.chunks[1:4]] == [63, 63, 0]
    assert "".join(fh.chunks) == json.dumps(cloud.as_dict()) + "\n"


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


def _concatenated_flatten(mats, n_amb):
    """_flatten_real's former form: concatenate the parts, then scale."""
    arr = np.asarray(mats)
    flat = arr.reshape(arr.shape[:-2] + (n_amb * n_amb,))
    return np.sqrt(2.0 * n_amb) * np.concatenate([flat.real, flat.imag], axis=-1)


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
def test_flatten_real_has_the_bits_of_the_concatenated_form(blocks):
    # whole clouds, JSON-sized blocks of them, and real matrices, whose
    # imaginary half is zero
    from flagricci.orbits import _flatten_real

    model = build_model(*blocks)
    n = model.n_ambient
    points = sample_orbit(model, model.omega, 130, seed=5).points
    for mats in [points, points[64:128], np.random.default_rng(5).normal(size=(7, n, n))]:
        assert _flatten_real(mats, n).tobytes() == _concatenated_flatten(mats, n).tobytes()


def test_induced_metric_accepts_any_diagonal_on_su3():
    # with three 1x1 blocks every traceless diagonal is a torus element, so
    # the block-scalar check always passes
    model = build_model(1, 1, 1)
    induced_metric(model, np.array([[0.9, -0.6, -0.3], model.omega[1]]))


def test_induced_metric_rejects_non_central_diagonal():
    # on su(4) with a 2x2 block, a diagonal that is not constant on the
    # block is not in the torus; the induced Gram stops being block-scalar
    model = build_model(2, 1, 1)
    bad = np.array([[0.5, -0.5, 0.2, -0.2], model.omega[1]])
    with pytest.raises(ValueError):
        induced_metric(model, bad)


@pytest.mark.parametrize(
    "frame, message",
    [
        (np.full((2, 3), np.nan), r"^frame\[0, 0\] = nan is not finite$"),
        (np.zeros((3, 3)), r"^frame must have shape \(\.\.\., 2, 3\), got \(3, 3\)$"),
        (np.zeros((2, 4)), r"^frame must have shape \(\.\.\., 2, 3\), got \(2, 4\)$"),
    ],
    ids=["nan", "three-rows", "four-columns"],
)
def test_induced_metric_rejects_a_frame_that_is_not_finite_or_not_2_by_n(frame, message):
    # a torus frame is two finite rows of N phases
    with pytest.raises(ValueError, match=message):
        induced_metric(build_model(1, 1, 1), frame)
