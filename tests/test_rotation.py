"""Joint-rotation properties: turning every point of an input by one rotation of the
sphere leaves each output the same, up to rounding, or turned with it.

The paper compares covariance fields at common observation points through
similarity-invariant functions, so no output may depend on how the sphere is
oriented. Each property draws a seed for its data and a rotation (a unit axis
and an angle), and compares the call on the data with the call on the rotated
data. Relative errors are taken against the largest magnitude of the compared
column.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecov import (
    INVARIANT_KINDS,
    WEIGHT_KINDS,
    RingDensity,
    batch_procedures,
    convexity_probe,
    det_sign_areas,
    field_distance,
    make_problem,
    observation_scan,
    pmf_cov_field,
    random_pmfs,
    rejection_sample,
    rotation_about,
    solve,
    uniform_sample,
)

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
_ROTATIONS = st.builds(rotation_about, _AXES, st.floats(0.0, 2.0 * np.pi))


def _assert_close(turned, plain, rtol):
    plain = np.asarray(plain, dtype=float)
    npt.assert_allclose(turned, plain, rtol=0.0, atol=rtol * np.abs(plain).max())


def _samples(rng, m=20):
    """Two ring samples of m points about the north pole, ring sizes 0.2 and 0.3."""
    return [rejection_sample(RingDensity(a), m, rng) for a in (0.2, 0.3)]


def _p_values(outcome):
    if outcome is None:
        return None
    return [r.p_value for r in outcome.components] + [outcome.d_test.p_value]


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, rot=_ROTATIONS)
def test_observation_scan_is_unchanged_by_a_joint_rotation(seed, rot):
    rng = np.random.default_rng(seed)
    s1, s2 = _samples(rng)
    candidates = uniform_sample(rng, 40)
    # input order, so that rounding cannot reorder rows with nearly equal criteria
    plain = observation_scan(s1, s2, candidates, criterion="uniform")
    turned = observation_scan(s1 @ rot.T, s2 @ rot.T, candidates @ rot.T, criterion="uniform")
    for column in ("tr2", "det", "eigvals"):
        _assert_close([getattr(r, column) for r in turned], [getattr(r, column) for r in plain],
                      1e-10)
    for procedure in ("paired", "unpaired"):
        assert ([_p_values(getattr(r, procedure)) for r in turned]
                == [_p_values(getattr(r, procedure)) for r in plain])
    assert [r.error for r in turned] == [r.error for r in plain]


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, rot=_ROTATIONS)
def test_batch_procedures_are_unchanged_by_a_joint_rotation(seed, rot):
    rng = np.random.default_rng(seed)
    s1, s2 = (np.stack(s) for s in zip(*(_samples(rng) for _ in range(6))))
    qs = uniform_sample(rng, 6)
    plain = batch_procedures(s1, s2, qs)
    turned = batch_procedures(s1 @ rot.T, s2 @ rot.T, qs @ rot.T)
    for procedure, moved in zip(plain, turned):
        for test, moved_test in zip(procedure.tests, moved.tests):
            npt.assert_array_equal(moved_test.statistic, test.statistic)
            npt.assert_array_equal(moved_test.p_value, test.p_value)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, rot=_ROTATIONS)
def test_det_sign_areas_are_unchanged_by_a_joint_rotation(seed, rot):
    rng = np.random.default_rng(seed)
    s1, s2 = _samples(rng)
    grid = uniform_sample(rng, 200)
    assert det_sign_areas(s1 @ rot.T, s2 @ rot.T, grid @ rot.T) == det_sign_areas(s1, s2, grid)


def _problem_points(seed, k=8):
    """A domain, separate observation points and two endpoint pmfs on the domain."""
    rng = np.random.default_rng(seed)
    return uniform_sample(rng, k), uniform_sample(rng, k), random_pmfs(rng, k, 2)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, rot=_ROTATIONS)
def test_field_distance_is_unchanged_by_a_joint_rotation(seed, rot):
    domain, obs, (f1, f2) = _problem_points(seed)
    for weight in WEIGHT_KINDS:
        plain, turned = ([pmf_cov_field(f, d, o, weight) for f in (f1, f2)]
                         for d, o in ((domain, obs), (domain @ rot.T, obs @ rot.T)))
        for h in INVARIANT_KINDS:
            _assert_close(field_distance(*turned, h), field_distance(*plain, h), 1e-12)


@settings(max_examples=5, deadline=None)
@given(seed=_SEEDS, rot=_ROTATIONS)
def test_convexity_verdict_is_unchanged_by_a_joint_rotation(seed, rot):
    domain, obs, endpoints = _problem_points(seed)
    for invariant in INVARIANT_KINDS:
        for weight in WEIGHT_KINDS:
            verdicts = [convexity_probe(make_problem(d, endpoints, [0.4, 0.6], invariant, obs=o,
                                                     weight=weight),
                                        rng=np.random.default_rng(seed))["convex_certificate"]
                        for d, o in ((domain, obs), (domain @ rot.T, obs @ rot.T))]
            assert verdicts[0] == verdicts[1], (invariant, weight)


@pytest.mark.parametrize("weight", WEIGHT_KINDS)
@pytest.mark.parametrize("invariant", INVARIANT_KINDS)
@settings(max_examples=4, deadline=None)
@given(seed=_SEEDS, rot=_ROTATIONS)
def test_solve_with_explicit_observation_points_turns_with_them(invariant, weight, seed, rot):
    domain, obs, endpoints = _problem_points(seed)
    tol = 1e-9
    plain, turned = (solve(make_problem(d, endpoints, [0.4, 0.6], invariant, obs=o,
                                        weight=weight), tol=tol, max_iter=2000)
                     for d, o in ((domain, obs), (domain @ rot.T, obs @ rot.T)))
    assert plain.converged and turned.converged
    npt.assert_allclose(turned.f_hat, plain.f_hat, rtol=0.0, atol=10 * tol)
