import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecov import (
    CoincidentPointError,
    CovField,
    DimensionMismatchError,
    IterationLimitError,
    NotHemisphericError,
    ObservationMismatchError,
    TangentFrame,
    WEIGHT_KINDS,
    field_distance,
    geodesic_distance,
    geodesic_distances,
    hemispheric_witness,
    intrinsic_mean,
    log_map,
    pmf_cov_field,
    point_operator,
    point_operators,
    quadratic_form,
    rotate_points,
    sample_cov_operator,
    tangent_frame,
    uniform_sample,
    unit_point,
    unit_points,
    weight_value,
)
from spherecov import fields

rng = np.random.default_rng(1234)


def test_weight_values():
    t = np.linspace(0.01, np.pi - 0.01, 50)
    npt.assert_array_equal(weight_value("unit", t), np.ones_like(t))
    npt.assert_allclose(weight_value("pihalf", t), (1.0 - np.pi / (2 * t)) ** 2, atol=1e-15)
    with pytest.raises(ValueError):
        weight_value("cubic", t)


def test_point_operator_rank_one_trace():
    q = uniform_sample(rng, 1)[0]
    p = uniform_sample(rng, 1)[0]
    d = geodesic_distance(q, p)
    op_u = point_operator(q, p, "unit")
    op_p = point_operator(q, p, "pihalf")
    assert np.trace(op_u) == pytest.approx(d ** 2, abs=1e-12)
    assert np.trace(op_p) == pytest.approx((d - np.pi / 2) ** 2, abs=1e-12)
    # rank one
    assert abs(np.linalg.det(op_u)) < 1e-14
    npt.assert_allclose(op_u, op_u.T, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=1e-7, max_value=3.0),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pihalf_trace_identity_down_to_near_coincidence(t, phi, seed):
    q = uniform_sample(np.random.default_rng(seed), 1)[0]
    fr = tangent_frame(q)
    p = np.cos(t) * q + np.sin(t) * (np.cos(phi) * fr.e1 + np.sin(phi) * fr.e2)
    ops, d = point_operators(q, p[None, :], weight="pihalf")
    # t^2 w(t) = (t - pi/2)^2 through the operator, not only the weight
    assert np.trace(ops[0]) == pytest.approx((t - np.pi / 2) ** 2, rel=1e-6)
    assert abs(d[0] / t - 1.0) <= 1e-8
    assert abs(geodesic_distance(q, p) / t - 1.0) <= 1e-8


def test_pihalf_coincident_raises():
    q = unit_point([0.0, 0.6, 0.8])
    with pytest.raises(CoincidentPointError):
        point_operators(q, q[None, :], weight="pihalf")
    # unit weight is fine at coincidence (zero operator)
    ops, _ = point_operators(q, q[None, :], weight="unit")
    npt.assert_allclose(ops[0], 0.0, atol=1e-15)


def test_sample_cov_operator_is_mean():
    q = uniform_sample(rng, 1)[0]
    pts = uniform_sample(rng, 25)
    ops, _ = point_operators(q, pts)
    npt.assert_allclose(sample_cov_operator(q, pts), ops.mean(axis=0), atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        sample_cov_operator(q, np.empty((0, 3)))


def test_sample_cov_operator_batch_rows_equal_single_point_calls():
    local = np.random.default_rng(5)
    qs, pts = uniform_sample(local, 4), uniform_sample(local, 25)
    for weight in WEIGHT_KINDS:
        batch = sample_cov_operator(qs, pts, weight)
        assert batch.shape == (4, 2, 2)
        for r, q in enumerate(qs):
            npt.assert_array_equal(batch[r], sample_cov_operator(q, pts, weight))


def test_pmf_field_linear_in_masses():
    domain = uniform_sample(rng, 6)
    obs = uniform_sample(rng, 4)
    f1 = np.array([0.3, 0.2, 0.1, 0.1, 0.2, 0.1])
    f2 = np.array([0.1, 0.1, 0.4, 0.1, 0.2, 0.1])
    fa = pmf_cov_field(f1, domain, obs)
    fb = pmf_cov_field(f2, domain, obs)
    fm = pmf_cov_field(0.5 * f1 + 0.5 * f2, domain, obs)
    npt.assert_allclose(fm.ops, 0.5 * fa.ops + 0.5 * fb.ops, atol=1e-14)


def test_pmf_field_is_per_observation_sum():
    domain = uniform_sample(rng, 7)
    obs = uniform_sample(rng, 5)
    f = np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1])
    for weight in WEIGHT_KINDS:
        field = pmf_cov_field(f, domain, obs, weight)
        for j, q in enumerate(obs):
            ops, _ = point_operators(q, domain, weight)
            npt.assert_allclose(field.ops[j], np.einsum("i,iab->ab", f, ops),
                                rtol=1e-13, atol=1e-15)


def test_cov_field_requires_one_operator_per_observation_point():
    with pytest.raises(DimensionMismatchError, match="obs and ops lengths differ"):
        CovField(obs=np.eye(3), ops=np.zeros((2, 2, 2)))


def test_field_distance_requires_same_obs():
    domain = uniform_sample(rng, 5)
    obs1 = uniform_sample(rng, 3)
    obs2 = uniform_sample(rng, 3)
    f = np.full(5, 0.2)
    c1 = pmf_cov_field(f, domain, obs1)
    c2 = pmf_cov_field(f, domain, obs2)
    with pytest.raises(ObservationMismatchError):
        field_distance(c1, c2)
    assert field_distance(c1, pmf_cov_field(f, domain, obs1)) == pytest.approx(0.0, abs=1e-10)


def test_field_distance_rejects_an_observation_point_moved_by_2e_6_rad():
    # numpy's default rtol of 1e-5 would let this pair through to a distance of about 1.3
    local = np.random.default_rng(6)
    domain = uniform_sample(local, 6)
    f = local.dirichlet(np.ones(6))
    obs = unit_point([0.5, 0.5, 0.7])[None, :]
    moved = rotate_points(obs, [1.0, 0.0, 0.0], 2e-6)
    with pytest.raises(ObservationMismatchError):
        field_distance(pmf_cov_field(f, domain, obs), pmf_cov_field(f, domain, moved))


def test_quadratic_form_frame_check():
    q = unit_point([0.1, 0.2, 0.97])
    other = unit_point([0.9, 0.1, 0.4])
    fr = tangent_frame(q)
    op = sample_cov_operator(q, uniform_sample(rng, 10))
    v = log_map(q, uniform_sample(rng, 1)[0])
    val = quadratic_form(v, op, fr)
    assert val >= 0.0
    from spherecov import FrameMismatchError
    with pytest.raises(FrameMismatchError):
        quadratic_form(v, op, tangent_frame(other))


def test_quadratic_form_rejects_a_frame_scaled_by_1_plus_5e_6():
    # numpy's default rtol of 1e-5 would accept the scaled frame
    q = unit_point([0.1, 0.2, 0.97])
    fr = tangent_frame(q)
    op = sample_cov_operator(q, uniform_sample(np.random.default_rng(7), 10))
    v = log_map(q, [0.3, 0.1, 0.9])
    assert quadratic_form(v, op, fr) >= 0.0
    scaled = TangentFrame(base=fr.base * (1 + 5e-6), e1=fr.e1 * (1 + 5e-6), e2=fr.e2)
    from spherecov import FrameMismatchError
    with pytest.raises(FrameMismatchError):
        quadratic_form(v, op, scaled)


def test_equilateral_masses_give_isotropic_operator():
    # three domain points at equal distance and 120 degree spacing around q:
    # the covariance operator is a multiple of the identity
    q = np.array([0.0, 0.0, 1.0])
    d = 0.8
    pts = []
    for ang in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        pts.append([np.sin(d) * np.cos(ang), np.sin(d) * np.sin(ang), np.cos(d)])
    pts = unit_points(pts)
    op = sample_cov_operator(q, pts)
    npt.assert_allclose(op, (d ** 2 / 2.0) * np.eye(2), atol=1e-12)


def test_single_point_profile_is_cos_squared():
    # rank-1 operator: quadratic form along angle t is d^2 cos^2(t - t0)
    from spherecov import operator_profile
    q = np.array([0.0, 0.0, 1.0])
    p = unit_point([0.3, 0.4, 0.86])
    v = log_map(q, p)
    op = point_operator(q, p)
    prof = operator_profile(op, n_dirs=16)
    t0 = np.arctan2(v.u[1], v.u[0])
    thetas = 2 * np.pi * np.arange(16) / 16
    expected = (v.norm ** 2) * np.cos(thetas - t0) ** 2
    npt.assert_allclose(prof, expected, atol=1e-12)


def test_hemispheric_witness_certifies():
    base = unit_point([0.2, 0.1, 1.0])
    pts = unit_points(base + 0.4 * rng.normal(size=(40, 3)))
    # force all into the hemisphere around base
    pts[pts @ base < 0.05] = base
    w = hemispheric_witness(pts)
    assert np.all(pts @ w > 0.0)


def test_octahedral_points_not_hemispheric():
    pts = np.array([
        [1.0, 0, 0], [-1.0, 0, 0],
        [0, 1.0, 0], [0, -1.0, 0],
        [0, 0, 1.0], [0, 0, -1.0],
    ])
    with pytest.raises(NotHemisphericError):
        hemispheric_witness(pts)


def test_intrinsic_mean_two_points_is_midpoint():
    p1 = unit_point([1.0, 0.0, 0.3])
    p2 = unit_point([0.0, 1.0, 0.3])
    m = intrinsic_mean(np.stack([p1, p2]))
    assert geodesic_distance(m, p1) == pytest.approx(geodesic_distance(m, p2), abs=1e-9)
    # midpoint lies on the geodesic: distance sum equals endpoint distance
    total = geodesic_distance(m, p1) + geodesic_distance(m, p2)
    assert total == pytest.approx(geodesic_distance(p1, p2), abs=1e-9)


def test_intrinsic_mean_minimizes_trace():
    # the mean minimizes the trace of the unit-weight covariance operator
    pts = unit_points(np.array([0.1, -0.2, 1.0]) + 0.3 * rng.normal(size=(30, 3)))
    m = intrinsic_mean(pts)
    tr_m = np.trace(sample_cov_operator(m, pts))
    local = np.random.default_rng(8)
    for _ in range(20):
        nudge = unit_points((m + 0.05 * local.normal(size=3))[None, :])[0]
        assert tr_m <= np.trace(sample_cov_operator(nudge, pts)) + 1e-12


def test_intrinsic_mean_rotation_equivariance():
    pts = unit_points(np.array([0.0, 0.1, 1.0]) + 0.25 * rng.normal(size=(25, 3)))
    m = intrinsic_mean(pts)
    axis = unit_point([1.0, 1.0, 0.2])
    rotated = rotate_points(pts, axis, 0.7)
    m_rot = intrinsic_mean(rotated)
    npt.assert_allclose(rotate_points(m[None, :], axis, 0.7)[0], m_rot, atol=1e-7)


def test_intrinsic_mean_iteration_limit(monkeypatch):
    # one step from the chordal start leaves a spread sample's gradient above 1e-10
    monkeypatch.setattr(fields, "_MEAN_MAX_ITER", 1)
    pts = np.stack([unit_point([1.0, 0.0, 0.3]), unit_point([0.0, 1.0, 0.3]),
                    unit_point([0.2, 0.1, 1.0])])
    with pytest.raises(IterationLimitError,
                       match="^intrinsic mean did not reach tolerance 1e-10 in 1 iterations$"):
        intrinsic_mean(pts)


def test_intrinsic_mean_balanced_antipodes_rejected():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    with pytest.raises(NotHemisphericError):
        intrinsic_mean(pts)


def test_pihalf_flattens_max_trace():
    # the pihalf weight lowers the worst-case trace over observation points
    local = np.random.default_rng(0)
    from spherecov import RingDensity, rejection_sample
    sample = rejection_sample(RingDensity(a=0.5), 40, local)
    qs = uniform_sample(local, 100)
    tr_unit = max(np.trace(sample_cov_operator(q, sample, "unit")) for q in qs)
    tr_pihalf = max(np.trace(sample_cov_operator(q, sample, "pihalf")) for q in qs)
    assert tr_pihalf < tr_unit


@pytest.mark.parametrize("kind", ["trdif", "trln2", "lik", "lnpr"])
def test_field_distance_value_is_the_per_point_sum(kind):
    local = np.random.default_rng(77)
    domain, obs = uniform_sample(local, 8), uniform_sample(local, 5)
    f1, f2 = (local.dirichlet(np.ones(8)) for _ in range(2))
    c1, c2 = pmf_cov_field(f1, domain, obs), pmf_cov_field(f2, domain, obs)
    expected = 0.0
    for x, y in zip(c1.ops, c2.ops):
        if kind == "trdif":
            expected += abs(np.sum(scipy.linalg.eigh(x, eigvals_only=True))
                            - np.sum(scipy.linalg.eigh(y, eigvals_only=True)))
            continue
        sig = scipy.linalg.eigh(x, y, eigvals_only=True)  # eigenvalues of X Y^-1
        expected += {"trln2": np.sqrt(np.sum(np.log(sig) ** 2)),
                     "lik": np.sum(sig - np.log(sig) - 1.0),
                     "lnpr": np.sqrt(np.log(np.sum(sig) * np.sum(1.0 / sig) / 4.0))}[kind]
    assert expected > 0.1
    assert field_distance(c1, c2, kind) == pytest.approx(expected, rel=1e-12)
    # a callable h receives the two (k, 2, 2) stacks
    seen = []
    assert field_distance(c1, c2, lambda a, b: seen.append((a.shape, b.shape)) or np.ones(len(a))) == 5.0
    assert seen == [((5, 2, 2), (5, 2, 2))]
