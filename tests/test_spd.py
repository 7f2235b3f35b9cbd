import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecov import (
    NotPositiveDefiniteError,
    assert_spd,
    h_lik,
    h_lnpr,
    h_trdif,
    h_trln2,
    make_invariant,
    similar_eigvals,
    spd,
    spd_inv_sqrt,
)
from spherecov.twosample import _signed_eigh

rng = np.random.default_rng(31)


def rand_spd(scale=1.0):
    a = rng.normal(size=(2, 2))
    return scale * (a @ a.T) + 0.1 * np.eye(2)


def test_similar_eigvals_matches_generalized_eigh():
    for _ in range(100):
        x, y = rand_spd(), rand_spd()
        mine = np.sort(similar_eigvals(x, y))
        ref = np.sort(scipy.linalg.eigh(x, y, eigvals_only=True))
        npt.assert_allclose(mine, ref, rtol=1e-10)


def test_trdif_diagonal_value():
    x = np.diag([2.0, 3.0])
    y = np.eye(2)
    assert h_trdif(x, y) == pytest.approx(3.0, abs=1e-15)


def test_trdif_reference():
    x, y, z = rand_spd(), rand_spd(), rand_spd()
    direct = abs(np.trace(np.linalg.solve(z, x - y)))
    assert h_trdif(x, y, z) == pytest.approx(direct, rel=1e-12)


def test_trln2_scaled_identity():
    assert h_trln2(np.e * np.eye(2), np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_lik_known_value():
    # sum(sigma) - sum(ln sigma) - n at sigma = (2, 2)
    val = h_lik(np.diag([2.0, 2.0]), np.eye(2))
    assert val == pytest.approx(2.0 - np.log(4.0), abs=1e-14)
    assert val == pytest.approx(0.6137056388801094, abs=1e-15)


def test_self_distance_zero():
    for h in (h_trdif, h_trln2, h_lik, h_lnpr):
        x = rand_spd()
        assert abs(h(x, x)) < 1e-12


def test_lnpr_clamped_argument():
    # near-equal operators must not produce NaN from log of a value below 1
    x = np.eye(2)
    y = np.eye(2) * (1 + 1e-15)
    val = h_lnpr(x, y)
    assert np.isfinite(val) and val >= 0.0


def test_similarity_invariance():
    for _ in range(200):
        x, y, z = rand_spd(), rand_spd(), rand_spd()
        g = rng.normal(size=(2, 2))
        while abs(np.linalg.det(g)) < 0.1:
            g = rng.normal(size=(2, 2))
        gx, gy, gz = g @ x @ g.T, g @ y @ g.T, g @ z @ g.T
        assert h_trdif(x, y, z) == pytest.approx(h_trdif(gx, gy, gz), rel=1e-8, abs=1e-10)
        assert h_trln2(x, y) == pytest.approx(h_trln2(gx, gy), rel=1e-8, abs=1e-10)
        assert h_lik(x, y) == pytest.approx(h_lik(gx, gy), rel=1e-8, abs=1e-10)
        assert h_lnpr(x, y) == pytest.approx(h_lnpr(gx, gy), rel=1e-8, abs=1e-10)


def test_triangle_inequality_metric_like():
    slack = 1e-10
    for _ in range(1000):
        x, y, w = rand_spd(), rand_spd(), rand_spd()
        z = rand_spd()
        assert h_trdif(x, y, z) <= h_trdif(x, w, z) + h_trdif(w, y, z) + slack
        assert h_trln2(x, y) <= h_trln2(x, w) + h_trln2(w, y) + slack
        assert h_lnpr(x, y) <= h_lnpr(x, w) + h_lnpr(w, y) + slack


def test_lik_triangle_violation():
    x, y, z = np.eye(2), 2.0 * np.eye(2), 4.0 * np.eye(2)
    assert h_lik(x, z) > h_lik(x, y) + h_lik(y, z)


def test_lik_asymmetric():
    x, y = np.diag([2.0, 2.0]), np.eye(2)
    assert h_lik(x, y) != pytest.approx(h_lik(y, x), rel=1e-3)


def test_spd_inv_sqrt():
    x = rand_spd()
    s = spd_inv_sqrt(x)
    npt.assert_allclose(s @ x @ s, np.eye(2), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_cond=st.floats(0.0, 8.0),
       c=st.floats(1e-6, 1e6))
def test_spd_inv_sqrt_whitens_to_a_bound_that_scales_with_the_condition(seed, log_cond, c):
    local = np.random.default_rng(seed)
    theta = local.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    top = 10.0 ** local.uniform(-3.0, 3.0)
    x = rot @ np.diag([top, top / 10.0 ** log_cond]) @ rot.T
    x = 0.5 * (x + x.T)
    s = spd_inv_sqrt(x)
    npt.assert_array_equal(s, s.T)
    cond = np.linalg.cond(x)
    assert np.linalg.norm(s @ x @ s - np.eye(2), 2) <= 16.0 * np.finfo(float).eps * cond
    # c I maps to c^-1/2 I exactly
    npt.assert_array_equal(spd_inv_sqrt(c * np.eye(2)), (1.0 / np.sqrt(c)) * np.eye(2))


def test_spd_inv_sqrt_takes_the_symmetric_part():
    x = rand_spd()
    skew = np.array([[0.0, 0.3], [-0.3, 0.0]])
    npt.assert_array_equal(spd_inv_sqrt(x + skew), spd_inv_sqrt(0.5 * ((x + skew) + (x + skew).T)))


def test_assert_spd_raises():
    with pytest.raises(NotPositiveDefiniteError):
        assert_spd(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        assert_spd(np.diag([1.0, -2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        assert_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))  # its symmetric part is singular
    npt.assert_array_equal(assert_spd(np.eye(2)), np.eye(2))


def test_make_invariant_dispatch():
    x, y = rand_spd(), rand_spd()
    assert make_invariant("trln2")(x, y) == pytest.approx(h_trln2(x, y))
    z = rand_spd()
    assert make_invariant("trdif", reference=z)(x, y) == pytest.approx(h_trdif(x, y, z))
    with pytest.raises(ValueError):
        make_invariant("nope")
    with pytest.raises(ValueError):
        make_invariant("lik", reference=z)


def _rotated(theta, diag):
    """Symmetric parts of R diag R' for the rotations R by the angles theta (n,) and diag (n, 2)."""
    rot = np.stack([np.stack([np.cos(theta), -np.sin(theta)], -1),
                    np.stack([np.sin(theta), np.cos(theta)], -1)], -2)
    m = np.einsum("nab,nb,ncb->nac", rot, diag, rot)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _spd_stack(local, n, cond_max):
    """n symmetric positive definite 2x2 operators, scales 1e-3..1e3, conditions up to cond_max."""
    theta = local.uniform(0.0, np.pi, n)
    top = 10.0 ** local.uniform(-3.0, 3.0, n)
    return _rotated(theta, np.stack([top, top / 10.0 ** local.uniform(0.0, np.log10(cond_max), n)], -1))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       log_delta=st.one_of(st.none(), st.floats(-14.0, 0.0)))
def test_similar_eigvals_stacks_match_scipy_generalized_eigh(seed, n, log_delta):
    local = np.random.default_rng(seed)
    y = _spd_stack(local, n, 1e3)  # ill-conditioned Y up to cond 1e3
    if log_delta is None:
        x = _spd_stack(local, n, 1e2)
    else:
        # near-equal generalized eigenvalues: X = c Y + delta c P
        c = 10.0 ** local.uniform(-2.0, 2.0, n)[:, None, None]
        x = c * y + 10.0 ** log_delta * c * _spd_stack(local, n, 1e2)
    lam = similar_eigvals(x, y)
    assert lam.shape == (n, 2)
    ref = np.stack([scipy.linalg.eigh(a, b, eigvals_only=True) for a, b in zip(x, y)])
    # relative to each pair's larger eigenvalue, the scale of the rounding of both
    # kernels; near-equal eigenvalues are each within it of their own size
    assert np.all(np.abs(lam - ref) <= 1e-11 * ref[:, 1:])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8))
def test_stacked_rows_equal_single_pair_calls_bitwise(seed, n):
    local = np.random.default_rng(seed)
    x, y, z = (_spd_stack(local, n, 1e3) for _ in range(3))
    stacked = {
        "trdif": h_trdif(x, y), "trdif_z": h_trdif(x, y, z), "trln2": h_trln2(x, y),
        "lik": h_lik(x, y), "lnpr": h_lnpr(x, y), "eig": similar_eigvals(x, y),
        "inv_sqrt": spd_inv_sqrt(y), "sym": assert_spd(x),
    }
    for r in range(n):
        single = {
            "trdif": h_trdif(x[r], y[r]), "trdif_z": h_trdif(x[r], y[r], z[r]),
            "trln2": h_trln2(x[r], y[r]), "lik": h_lik(x[r], y[r]), "lnpr": h_lnpr(x[r], y[r]),
            "eig": similar_eigvals(x[r], y[r]), "inv_sqrt": spd_inv_sqrt(y[r]), "sym": assert_spd(x[r]),
        }
        for name, value in single.items():
            npt.assert_array_equal(stacked[name][r], value, err_msg=name)
    for kind in ("trdif", "trln2", "lik", "lnpr"):
        npt.assert_array_equal(make_invariant(kind)(x, y), stacked[kind])
    assert isinstance(h_trln2(x[0], y[0]), float)


@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 3), (2, 3), (3, 2), (5, 1, 2)])
def test_operators_that_are_not_2x2_raise_value_error(shape):
    bad, good = np.ones(shape), np.eye(2)
    calls = [lambda: assert_spd(bad), lambda: spd_inv_sqrt(bad),
             lambda: similar_eigvals(bad, good), lambda: similar_eigvals(good, bad),
             lambda: h_trdif(bad, good), lambda: h_trdif(good, good, bad)]
    calls += [lambda h=h: h(bad, good) for h in (h_trln2, h_lik, h_lnpr)]
    calls += [lambda h=h: h(good, bad) for h in (h_trln2, h_lik, h_lnpr)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entries", [[(0, 0)], [(1, 1)], [(0, 0), (1, 1)], [(0, 1), (1, 0)]])
def test_nan_and_inf_entries_are_not_positive_definite(bad, entries):
    m, good = np.eye(2), 2.0 * np.eye(2)
    for entry in entries:
        m[entry] = bad
    stack = np.stack([good, m])  # one bad operator in a stack is enough
    calls = [lambda: assert_spd(m), lambda: assert_spd(stack), lambda: spd_inv_sqrt(m),
             lambda: h_trdif(good, good, m), lambda: h_trdif(good, good, stack),
             lambda: similar_eigvals(m, good), lambda: similar_eigvals(good, m)]
    for h in (h_trln2, h_lik, h_lnpr):
        calls += [lambda h=h: h(m, good), lambda h=h: h(good, m), lambda h=h: h(stack, good),
                  lambda h=h: h(good, stack)]
    for call in calls:
        with pytest.raises(NotPositiveDefiniteError):
            call()


def test_each_check_names_the_operator_it_rejects(monkeypatch):
    eye, bad = np.eye(2), np.diag([1.0, -1.0])
    for call, what in ((lambda: h_lik(eye, bad), "Y"), (lambda: h_lik(bad, eye), "X"),
                       (lambda: h_trdif(eye, eye, bad), "reference Z"), (lambda: spd_inv_sqrt(bad), "matrix")):
        with pytest.raises(NotPositiveDefiniteError, match=f"^{what} has minimum eigenvalue -1.000e\\+00 "):
            call()
    # X and Y each pass through the eigenvalue kernel once (Y's check and its
    # inverse square root share one eigensystem), then X Y^-1 once
    kernel, shapes = spd._eigvals2, []
    monkeypatch.setattr(spd, "_eigvals2", lambda comps: shapes.append(comps.shape) or kernel(comps))
    h_trln2(eye, 2.0 * eye)
    assert shapes == [(3,)] * 3


_KINDS = ("random", "near_singular", "indefinite", "negative_definite", "zero", "scaled_identity",
          "negative_zero_mean")


def _symmetric_stack(local, kind, n):
    """n symmetric 2x2 matrices of one kind, scales 1e-3..1e3."""
    top = 10.0 ** local.uniform(-3.0, 3.0, n)
    if kind == "random":
        m = local.normal(size=(n, 2, 2)) * top[:, None, None]
        return 0.5 * (m + np.swapaxes(m, -1, -2))
    if kind == "zero":
        return np.zeros((n, 2, 2))
    if kind == "scaled_identity":  # c < 0 gives -0.0 off the diagonal
        return (top * local.choice([-1.0, 1.0], n))[:, None, None] * np.eye(2)
    if kind == "negative_zero_mean":  # a = d = -0.0: eigenvalues -|b| and |b|
        b, zero = top * local.choice([-1.0, 0.0, 1.0], n), np.full(n, -0.0)
        return np.stack([np.stack([zero, b], -1), np.stack([b, zero], -1)], -2)
    # the smaller eigenvalue 1e-17..1 times the larger in magnitude
    low = top * 10.0 ** -local.uniform(0.0, 17.0, n)
    diag = {"near_singular": (top, low * local.choice([-1.0, 1.0], n)),
            "indefinite": (top, -low), "negative_definite": (-top, -low)}[kind]
    return _rotated(local.uniform(0.0, np.pi, n), np.stack(diag, -1))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), kind=st.sampled_from(_KINDS))
def test_closed_form_eigensystem_of_any_symmetric_stack_matches_lapack(seed, n, kind):
    m = _symmetric_stack(np.random.default_rng(seed), kind, n)
    lam = np.stack(spd._eigvals2(spd._sym_comps(m)), -1)
    ref = np.linalg.eigvalsh(m)
    # a few rounding units of the larger |lambda|, both kernels' rounding
    bound = 6.0 * np.finfo(float).eps * np.abs(ref).max(-1, keepdims=True)
    assert np.all(lam[:, 0] <= lam[:, 1])
    assert np.all(np.abs(lam - ref) <= bound)
    w, v = _signed_eigh(m)
    npt.assert_array_equal(w, lam[:, ::-1])
    assert np.all(np.abs(np.swapaxes(v, -1, -2) @ v - np.eye(2)) <= 4.0 * np.finfo(float).eps)
    assert np.all(np.abs(m @ v - v * w[:, None, :]) <= bound[..., None])
    # the first coordinate of each eigenvector that is not numerically zero is positive
    lead = np.where(np.abs(v[:, 0, :]) > 1e-15, v[:, 0, :], v[:, 1, :])
    assert np.all(lead > 0.0)


def _lam_max_first(comps):
    """lam_max = mean + hypot first and lam_min = det / lam_max: the closed form
    for positive definite input, which cancels when the matrix is indefinite."""
    a, b, d = comps[..., 0], comps[..., 1], comps[..., 2]
    mean, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
    lam_max = mean + r
    return np.where(r == 0.0, mean, (a * d - b * b) / lam_max), lam_max


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), log_cond=st.floats(0.0, 16.0))
def test_positive_definite_eigenvalues_equal_the_lam_max_first_form_bitwise(seed, n, log_cond):
    local = np.random.default_rng(seed)
    for m in (_spd_stack(local, n, 10.0 ** log_cond), 10.0 ** local.uniform(-3.0, 3.0, (n, 1, 1)) * np.eye(2)):
        comps = spd._sym_comps(m)
        for got, ref in zip(spd._eigvals2(comps), _lam_max_first(comps)):
            npt.assert_array_equal(got, ref)
