import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from spherecov import (
    AntipodalPointError,
    FrameMismatchError,
    TangentFrame,
    TangentVec,
    exp_map,
    geodesic_distance,
    geodesic_distances,
    geographic_basis,
    geographic_metric,
    geographic_point,
    log_map,
    log_map_coords,
    rotate_points,
    rotation_about,
    tangent_frame,
    tangent_frames,
    uniform_sample,
    unit_point,
    unit_points,
)
from spherecov.geometry import _cross, _norm

rng = np.random.default_rng(20240817)


def test_unit_point_normalizes():
    p = unit_point([3.0, 0.0, 4.0])
    npt.assert_allclose(p, [0.6, 0.0, 0.8], atol=1e-15)
    with pytest.raises(ValueError):
        unit_point([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        unit_point([np.nan, 1.0, 0.0])


def test_tangent_frame_orthonormal():
    for _ in range(100):
        q = uniform_sample(rng, 1)[0]
        fr = tangent_frame(q)
        gram = np.stack([fr.base, fr.e1, fr.e2]) @ np.stack([fr.base, fr.e1, fr.e2]).T
        npt.assert_allclose(gram, np.eye(3), atol=1e-14)
        # right-handed: e2 = q x e1
        npt.assert_allclose(np.cross(q, fr.e1), fr.e2, atol=1e-14)


def test_tangent_frame_deterministic():
    q = unit_point([0.3, -0.5, 0.81])
    f1 = tangent_frame(q)
    f2 = tangent_frame(q.copy())
    assert f1.matches(f2)


def test_log_known_value():
    # quarter turn from the pole to the equator
    q = np.array([0.0, 0.0, 1.0])
    p = np.array([1.0, 0.0, 0.0])
    v = log_map(q, p)
    assert v.norm == pytest.approx(np.pi / 2, abs=1e-15)
    npt.assert_allclose(v.ambient(), (np.pi / 2) * np.array([1.0, 0.0, 0.0]), atol=1e-14)


def test_exp_log_roundtrip():
    qs = uniform_sample(rng, 300)
    ps = uniform_sample(rng, 300)
    keep = np.einsum("ij,ij->i", qs, ps) > -0.999
    qs, ps = qs[keep], ps[keep]
    for q, p in zip(qs, ps):
        v = log_map(q, p)
        back = exp_map(q, v)
        npt.assert_allclose(back, p, atol=1e-10)
        # norm of the log is the geodesic distance
        assert abs(v.norm - np.arccos(np.clip(q @ p, -1, 1))) < 1e-12


def test_log_map_coords_batch_matches_scalar():
    q = uniform_sample(rng, 1)[0]
    pts = uniform_sample(rng, 40)
    coords, dists = log_map_coords(q, pts)
    for i, p in enumerate(pts):
        v = log_map(q, p)
        npt.assert_allclose(coords[i], v.u, atol=1e-14)
        assert dists[i] == pytest.approx(geodesic_distance(q, p), abs=1e-14)


def test_log_map_coords_batched_bases_match_single():
    qs = uniform_sample(rng, 15)
    pts = uniform_sample(rng, 40)
    coords, dists = log_map_coords(qs, pts)
    assert coords.shape == (15, 40, 2) and dists.shape == (15, 40)
    for j, q in enumerate(qs):
        c1, d1 = log_map_coords(q, pts)
        npt.assert_array_equal(coords[j], c1)
        npt.assert_array_equal(dists[j], d1)
    npt.assert_array_equal(geodesic_distances(qs, pts), dists)


def test_log_coincident_is_zero():
    q = unit_point([0.2, 0.4, 0.89])
    coords, dists = log_map_coords(q, q[None, :])
    npt.assert_allclose(coords, 0.0, atol=1e-15)
    assert dists[0] == 0.0


def test_log_antipodal_raises():
    q = np.array([0.0, 0.0, 1.0])
    with pytest.raises(AntipodalPointError):
        log_map(q, -q)


def test_exp_frame_mismatch():
    q1 = unit_point([1.0, 0.1, 0.0])
    q2 = unit_point([0.0, 1.0, 0.1])
    v = TangentVec(tangent_frame(q2), np.array([0.1, 0.2]))
    with pytest.raises(FrameMismatchError):
        exp_map(q1, v)


def test_exp_rejects_a_base_scaled_by_1_plus_5e_6():
    # numpy's default rtol of 1e-5 would accept the scaled base
    q = unit_point([1.0, 0.1, 0.0])
    fr = tangent_frame(q)
    exp_map(q, TangentVec(fr, np.array([0.1, 0.2])))
    v = TangentVec(TangentFrame(base=fr.base * (1 + 5e-6), e1=fr.e1, e2=fr.e2), np.array([0.1, 0.2]))
    with pytest.raises(FrameMismatchError):
        exp_map(q, v)


def test_exp_rejects_cut_locus():
    q = np.array([0.0, 0.0, 1.0])
    v = TangentVec(tangent_frame(q), np.array([np.pi, 0.0]))
    with pytest.raises(ValueError):
        exp_map(q, v)


def test_rotation_about_matches_scipy():
    for _ in range(50):
        axis = uniform_sample(rng, 1)[0]
        angle = float(rng.uniform(-np.pi, np.pi))
        mine = rotation_about(axis, angle)
        ref = Rotation.from_rotvec(angle * axis).as_matrix()
        npt.assert_allclose(mine, ref, atol=1e-13)


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
def test_rotation_about_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="rotation angle must be finite"):
        rotation_about([0.0, 0.0, 1.0], angle)


def test_rotate_points_preserves_distances():
    pts = uniform_sample(rng, 30)
    axis = uniform_sample(rng, 1)[0]
    rotated = rotate_points(pts, axis, 1.1)
    npt.assert_allclose(pts @ pts.T, rotated @ rotated.T, atol=1e-12)
    # distances to the axis unchanged
    npt.assert_allclose(pts @ axis, rotated @ axis, atol=1e-12)


def test_uniform_sample_properties():
    pts = uniform_sample(np.random.default_rng(5), 2000)
    npt.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(pts.mean(axis=0))) < 0.05
    again = uniform_sample(np.random.default_rng(5), 2000)
    npt.assert_array_equal(pts, again)


def test_geodesic_distances_batch():
    q = uniform_sample(rng, 1)[0]
    pts = uniform_sample(rng, 20)
    d = geodesic_distances(q, pts)
    for i, p in enumerate(pts):
        assert d[i] == pytest.approx(geodesic_distance(q, p), abs=1e-14)


def test_geographic_metric_values():
    g = geographic_metric(0.7)
    npt.assert_allclose(g, np.diag([1.0, np.cos(0.7) ** 2]), atol=1e-15)
    with pytest.raises(ValueError):
        geographic_metric(np.pi / 2)


def test_geographic_basis_gram_is_metric():
    for theta, phi in [(0.3, 1.2), (-0.7, -2.5), (0.0, 0.0), (1.2, 3.0)]:
        b_theta, b_phi = geographic_basis(theta, phi)
        q = geographic_point(theta, phi)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-14
        # chart basis vectors are tangent and their Gram matrix is the metric
        assert abs(q @ b_theta) < 1e-14 and abs(q @ b_phi) < 1e-14
        gram = np.array([[b_theta @ b_theta, b_theta @ b_phi],
                         [b_phi @ b_theta, b_phi @ b_phi]])
        npt.assert_allclose(gram, geographic_metric(theta), atol=1e-14)


def test_quadratic_form_chart_invariance():
    # the xi projection computed in the deterministic frame equals the chart
    # computation through the geographic metric
    local = np.random.default_rng(7)
    for _ in range(50):
        theta = float(local.uniform(-1.4, 1.4))
        phi = float(local.uniform(-np.pi, np.pi))
        q = geographic_point(theta, phi)
        p = uniform_sample(local, 1)[0]
        if q @ p < -0.99:
            continue
        fr = tangent_frame(q)
        u = log_map(q, p)
        w = uniform_sample(local, 1)[0]
        w_t = w - (w @ q) * q
        if np.linalg.norm(w_t) < 1e-6:
            continue
        w_t /= np.linalg.norm(w_t)
        xi_frame = (np.array([w_t @ fr.e1, w_t @ fr.e2]) @ u.u) ** 2
        b_theta, b_phi = geographic_basis(theta, phi)
        g = geographic_metric(theta)
        chart = np.linalg.solve(np.stack([b_theta, b_phi], axis=1).T @ np.stack([b_theta, b_phi], axis=1),
                                np.stack([b_theta, b_phi], axis=1).T)
        u_chart = chart @ u.ambient()
        w_chart = chart @ w_t
        xi_chart = float(w_chart @ g @ u_chart) ** 2
        assert abs(xi_frame - xi_chart) < 1e-10


def test_unit_points_batch():
    pts = unit_points([[2.0, 0.0, 0.0], [0.0, 0.0, -3.0]])
    npt.assert_allclose(pts, [[1, 0, 0], [0, 0, -1]], atol=1e-15)


def test_paired_log_map_and_frames_equal_single_point_calls():
    local = np.random.default_rng(12)
    qs = local.normal(size=(6, 3)) * local.uniform(0.5, 3.0, size=(6, 1))
    pts = local.normal(size=(6, 9, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    u, d = log_map_coords(qs, pts)
    assert u.shape == (6, 9, 2) and d.shape == (6, 9)
    for r, frame in enumerate(tangent_frames(qs)):
        single = tangent_frame(qs[r])
        for a, b in ((frame.base, single.base), (frame.e1, single.e1), (frame.e2, single.e2)):
            assert np.array_equal(a, b)
        u_r, d_r = log_map_coords(qs[r], pts[r])
        assert np.array_equal(u[r], u_r) and np.array_equal(d[r], d_r)
    # a stack of point sets normalizes row by row, as unit_points does per set
    stack = unit_points(3.0 * pts)
    for r in range(6):
        assert np.array_equal(stack[r], unit_points(3.0 * pts[r]))


_coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=64)


def _nonzero_rows(a):
    return bool(np.all(np.linalg.norm(a, axis=-1) > 1e-3))


@settings(max_examples=60, deadline=None)
@given(qs=arrays(float, st.tuples(st.integers(1, 6), st.just(3)), elements=_coords)
       .filter(_nonzero_rows),
       n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_rows_equal_single_point_calls_bitwise(qs, n, seed):
    # unnormalised base points; shared target points and one set per base point
    local = np.random.default_rng(seed)
    shared = unit_points(local.normal(size=(n, 3)))
    paired = unit_points(local.normal(size=(len(qs), n, 3)))
    # keep clear of the antipodes, where the log map raises
    units = unit_points(qs)
    assume(np.all(units @ shared.T > -1.0 + 1e-6))
    assume(np.all(np.einsum("ka,kna->kn", units, paired) > -1.0 + 1e-6))
    frames = tangent_frames(qs)
    u_shared, d_shared = log_map_coords(qs, shared)
    u_paired, d_paired = log_map_coords(qs, paired)
    dist_shared = geodesic_distances(qs, shared)
    for r, q in enumerate(qs):
        single = tangent_frame(q)
        for a, b in ((frames[r].base, single.base), (frames[r].e1, single.e1),
                     (frames[r].e2, single.e2)):
            npt.assert_array_equal(a, b)
        npt.assert_array_equal(frames[r].base, unit_point(q))
        u1, d1 = log_map_coords(q, shared)
        npt.assert_array_equal(u_shared[r], u1)
        npt.assert_array_equal(d_shared[r], d1)
        npt.assert_array_equal(dist_shared[r], geodesic_distances(q, shared))
        u2, d2 = log_map_coords(q, paired[r])
        npt.assert_array_equal(u_paired[r], u2)
        npt.assert_array_equal(d_paired[r], d2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(0.5, 2.0))
@example(seed=4758, c=0.8609886675578077)  # a point 0.0137 rad from q
def test_log_map_coords_do_not_depend_on_the_target_norm(seed, c):
    # the antipodal test reads the distance, which does not depend on |p|
    local = np.random.default_rng(seed)
    q = unit_point(local.normal(size=3))
    p = unit_points(local.normal(size=(8, 3)))
    p = p[p @ q > -0.99]
    u1, d1 = log_map_coords(q, p)
    u2, d2 = log_map_coords(q, c * p)
    norm = np.linalg.norm(u1, axis=-1)
    # q x p cancels for a point near q, which leaves rounding of about eps
    # absolute; points at least 0.1 rad from q keep the relative bound alone
    floor = np.where(d1 < 0.1, 2.0 * np.finfo(float).eps, 0.0)
    assert np.all(np.linalg.norm(u2 - u1, axis=-1) <= 1e-14 * norm + floor)
    assert np.all(np.abs(d2 - d1) <= 1e-14 * d1 + floor)
    for target in (-q, -c * q):
        with pytest.raises(AntipodalPointError):
            log_map_coords(q, target[None, :])
        with pytest.raises(AntipodalPointError):
            log_map(q, target)


def test_antipodal_check_reads_the_distance_not_the_inner_product():
    q = np.array([0.0, 0.0, 1.0])
    p = np.array([np.sin(2.2), 0.0, np.cos(2.2)])
    u, d = log_map_coords(q, 2.0 * p[None, :])  # <q, 2p> = 2 cos(2.2) < -1
    assert d[0] == pytest.approx(2.2, abs=1e-15)
    npt.assert_allclose(u, log_map_coords(q, p[None, :])[0], rtol=1e-15)
    with pytest.raises(AntipodalPointError):
        log_map_coords(q, np.array([[0.0, 0.0, -0.5]]))  # <q, p> = -0.5, at distance pi


# zeros, subnormals, moderate values and values near 1e154, whose squares
# and products reach the overflow threshold
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0]),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=5e153, max_value=1.5e154),
    st.floats(min_value=-1.5e154, max_value=-5e153),
)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([((3,), (3,)), ((3,), (6, 3)), ((7, 3), (7, 3)), ((4, 1, 3), (6, 3)),
                        ((4, 1, 3), (4, 5, 3)), ((4, 5, 3), (4, 5, 3))]), st.data())
def test_norm_and_cross_kernels_have_numpys_bits(shapes, data):
    # a single (3,) point too: its norm is a scalar, and its cross a (3,) vector
    a, b = (data.draw(arrays(np.float64, shape, elements=_COMPONENTS)) for shape in shapes)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.cross(a, b)
        _same_bits(_cross(a, b), cross)
        for v in (a, b, cross):
            _same_bits(_norm(v), np.linalg.norm(v, axis=-1))
