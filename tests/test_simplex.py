import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from spherecov import as_pmf, is_pmf, project_to_simplex, random_pmfs

rng = np.random.default_rng(99)


def qp_projection(v):
    """Reference projection by constrained quadratic programming."""
    k = len(v)
    res = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        np.full(k, 1.0 / k),
        jac=lambda x: x - v,
        method="SLSQP",
        bounds=[(0.0, None)] * k,
        constraints={"type": "eq", "fun": lambda x: x.sum() - 1.0},
        options={"maxiter": 200, "ftol": 1e-14},
    )
    assert res.success
    return res.x


def test_projection_matches_qp_reference():
    for _ in range(30):
        v = rng.normal(scale=2.0, size=rng.integers(2, 9))
        mine = project_to_simplex(v)
        ref = qp_projection(v)
        npt.assert_allclose(mine, ref, atol=2e-6)


def test_projection_properties():
    for _ in range(200):
        v = rng.normal(scale=3.0, size=6)
        p = project_to_simplex(v)
        assert is_pmf(p, tol=1e-9)
        # idempotent
        npt.assert_allclose(project_to_simplex(p), p, atol=1e-12)
        # the projection is the nearest simplex point: no random pmf is closer
        for f in random_pmfs(rng, 6, 5):
            assert np.sum((p - v) ** 2) <= np.sum((f - v) ** 2) + 1e-12


def test_projection_fixed_point_on_simplex():
    f = np.array([0.2, 0.3, 0.5])
    npt.assert_allclose(project_to_simplex(f), f, atol=1e-15)


def test_projection_known_value():
    # only the largest coordinate survives when the rest are far below
    npt.assert_allclose(project_to_simplex(np.array([10.0, 0.0, 0.0])),
                        [1.0, 0.0, 0.0], atol=1e-15)


def test_projection_of_a_stack_matches_each_vector():
    stack = rng.normal(scale=2.0, size=(4, 5, 7))
    got = project_to_simplex(stack)
    for idx in np.ndindex(stack.shape[:-1]):
        npt.assert_array_equal(got[idx], project_to_simplex(stack[idx]))
    with pytest.raises(ValueError):
        project_to_simplex(1.0)


def test_is_pmf():
    assert is_pmf([0.5, 0.5])
    assert not is_pmf([0.5, 0.6])
    assert not is_pmf([1.1, -0.1])


def test_as_pmf_validates_strictly():
    # no silent renormalization: off-simplex input is an error
    npt.assert_array_equal(as_pmf([0.25, 0.75]), [0.25, 0.75])
    with pytest.raises(ValueError):
        as_pmf([2.0, 2.0])
    with pytest.raises(ValueError):
        as_pmf([0.5, -0.5])
    with pytest.raises(ValueError):
        as_pmf([0.0, 0.0])
    with pytest.raises(ValueError, match="alpha"):
        as_pmf([0.7, 0.7], what="alpha")


def test_random_pmfs():
    fs = random_pmfs(np.random.default_rng(3), 5, 20)
    assert fs.shape == (20, 5)
    assert all(is_pmf(f) for f in fs)
    again = random_pmfs(np.random.default_rng(3), 5, 20)
    npt.assert_array_equal(fs, again)
