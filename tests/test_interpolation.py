import json
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecov import (
    CoincidentPointError,
    DimensionMismatchError,
    IterationLimitError,
    NotPositiveDefiniteError,
    consistency_sweep,
    convexity_probe,
    default_observation_points,
    eval_H,
    fractional_anisotropy,
    grad_H,
    hessian_H,
    log_map_coords,
    linear_interp,
    make_problem,
    mse,
    pmf_cov_field,
    precompute,
    project_to_simplex,
    random_pmfs,
    rank_check,
    rotate_points,
    solve,
    spd_inv_sqrt,
    sqroot_interp,
    uniform_sample,
    unit_point,
    unit_points,
    weight_value,
)
from spherecov import interpolation, spd
from spherecov.io import load_problem

FIXTURE =Path(__file__).resolve().parents[1] / "src" / "spherecov" / "fixtures" / "bimodal_k6.json"


def _random_problem(seed, invariant, k=6, m=2):
    local = np.random.default_rng(seed)
    domain = uniform_sample(local, k)
    endpoints = random_pmfs(local, k, m)
    alpha = np.full(m, 1.0 / m)
    return make_problem(domain, endpoints, alpha, invariant)


def _admissible_problem(seed, invariant, k=6, m=2):
    # skip seeds whose random domain is kernel-deficient
    for s in range(seed, seed + 50):
        prob = _random_problem(s, invariant, k, m)
        if rank_check(prob)["admissible"]:
            return prob
    raise RuntimeError("no admissible seed found")


def test_make_problem_validation():
    local = np.random.default_rng(0)
    domain = uniform_sample(local, 5)
    endpoints = random_pmfs(local, 5, 2)
    alpha = np.array([0.4, 0.6])
    with pytest.raises(ValueError):
        make_problem(domain, endpoints, alpha, "frobenius")
    with pytest.raises(ValueError):
        make_problem(domain, endpoints, alpha, "trln2", weight="cubic")
    with pytest.raises(DimensionMismatchError):
        make_problem(domain, endpoints[:, :4], alpha, "trln2")
    with pytest.raises(DimensionMismatchError):
        make_problem(domain, endpoints, np.array([0.4, 0.3, 0.3]), "trln2")
    with pytest.raises(ValueError):
        make_problem(domain, endpoints, np.array([0.7, 0.7]), "trln2")
    # default weights depend on the invariant
    assert make_problem(domain, endpoints, alpha, "trdif").weight == "unit"
    assert make_problem(domain, endpoints, alpha, "lik").weight == "pihalf"


def test_with_alpha_requires_one_weight_per_endpoint():
    local = np.random.default_rng(0)
    prob = make_problem(uniform_sample(local, 5), random_pmfs(local, 5, 2), [0.4, 0.6], "trln2")
    with pytest.raises(DimensionMismatchError, match="alpha length 3 != number of endpoints 2"):
        prob.with_alpha([0.4, 0.3, 0.3])
    with pytest.raises(DimensionMismatchError):
        prob.with_alpha([1.0])
    with pytest.raises(ValueError):
        prob.with_alpha([0.7, 0.7])
    moved = prob.with_alpha([0.1, 0.9])
    npt.assert_array_equal(moved.alpha, [0.1, 0.9])
    for name in ("domain", "obs", "endpoints"):
        assert getattr(moved, name) is getattr(prob, name)


@pytest.mark.parametrize("k", [6, 50])
@pytest.mark.parametrize("invariant", ["lik", "trln2"])
@pytest.mark.parametrize("weight", ["unit", "pihalf"])
def test_precompute_endpoint_operators_are_pmf_cov_fields_bit_for_bit(k, invariant, weight):
    # raw domain and observation points: each is normalised once, on both paths
    for seed in range(5):
        local = np.random.default_rng(seed)
        domain = local.normal(size=(k, 3)) * local.uniform(0.5, 2.0, (k, 1))
        obs = local.normal(size=(k, 3)) * local.uniform(0.5, 2.0, (k, 1))
        endpoints = random_pmfs(local, k, 2)
        prob = make_problem(domain, endpoints, [0.5, 0.5], invariant, obs=obs, weight=weight)
        npt.assert_array_equal(prob.obs, unit_points(obs))
        kernels = precompute(prob)
        for s in range(2):
            field = pmf_cov_field(endpoints[s], domain, obs, weight)
            npt.assert_array_equal(field.obs, prob.obs)
            npt.assert_array_equal(kernels.C[s], field.ops)


def test_default_observation_points_are_normalised_once():
    domain = np.random.default_rng(4).normal(size=(7, 3)) * 3.0
    prob = make_problem(domain, random_pmfs(np.random.default_rng(5), 7, 2), [0.5, 0.5], "lik")
    npt.assert_array_equal(prob.obs, unit_points(default_observation_points(domain)))
    npt.assert_array_equal(prob.domain, unit_points(domain))


def test_pihalf_rejects_near_coincident_pairs():
    domain = unit_points([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.7, 0.7]])
    obs = np.vstack([domain[0] + np.array([0.0, 1e-10, 0.0]), [0.0, -0.6, 0.8]])
    endpoints = random_pmfs(np.random.default_rng(1), 3, 2)
    alpha = np.array([0.5, 0.5])
    with pytest.raises(CoincidentPointError, match="below 1e-08$"):
        make_problem(domain, endpoints, alpha, "trln2", obs=unit_points(obs))
    # unit weight tolerates coincidence
    make_problem(domain, endpoints, alpha, "trdif", obs=unit_points(obs))


def test_antipodal_domain_is_inadmissible_for_pihalf():
    # the pihalf weight cannot distinguish a point from its antipode, so a
    # domain of antipodal pairs caps the kernel rank at k/2
    base = uniform_sample(np.random.default_rng(3), 3)
    domain = np.vstack([base, -base])
    endpoints = random_pmfs(np.random.default_rng(4), 6, 2)
    prob = make_problem(domain, endpoints, np.array([0.5, 0.5]), "trln2")
    kern = precompute(prob)
    for i in range(3):
        npt.assert_allclose(kern.B[:, i], kern.B[:, i + 3], atol=1e-12)
    report = rank_check(prob, kern)
    assert report["rank_B"] <= 3
    assert not report["admissible"]


@pytest.mark.parametrize("invariant, weight, admissible", [
    ("lik", "unit", True), ("trdif", "pihalf", False),
    ("lik", None, False), ("trdif", None, True)])
def test_rank_check_judges_the_kernel_of_the_problem_weight(invariant, weight, admissible):
    # one antipodal pair: the unit kernel A keeps full rank, the pihalf kernel B loses one
    local = np.random.default_rng(0)
    base = uniform_sample(local, 5)
    domain = np.vstack([base, -base[:1]])
    prob = make_problem(domain, random_pmfs(local, 6, 2), [0.5, 0.5], invariant, weight=weight)
    assert rank_check(prob) == {"rank_A": 6, "rank_B": 5, "admissible": admissible}
    # the verdict reads the weight, not which array the active kernel is
    kernels = precompute(prob)
    assert rank_check(prob, kernels._replace(K=kernels.K.copy()))["admissible"] == admissible


def test_default_observation_points():
    domain = uniform_sample(np.random.default_rng(5), 6)
    obs = default_observation_points(domain)
    assert obs.shape == domain.shape
    npt.assert_allclose(np.linalg.norm(obs, axis=1), 1.0, atol=1e-12)
    # rotated copies stay clear of the domain points
    gaps = np.arccos(np.clip(obs @ domain.T, -1.0, 1.0))
    assert gaps.min() > 1e-3


def test_bundled_fixture_is_admissible():
    prob, solver = load_problem(FIXTURE)
    kern = precompute(prob)
    for inv in ("trdif", "trln2", "lik"):
        alt = make_problem(prob.domain, prob.endpoints, prob.alpha, inv,
                           obs=prob.obs)
        assert rank_check(alt)["admissible"], inv
    assert solver["restarts"] == 8


def test_gradient_matches_finite_differences():
    h = 1e-6
    for invariant in ("trdif", "trln2", "lik"):
        prob = _admissible_problem(11, invariant)
        kern = precompute(prob)
        f = project_to_simplex(random_pmfs(np.random.default_rng(12), prob.k, 1)[0])
        f = 0.9 * f + 0.1 / prob.k  # keep away from the boundary
        g = grad_H(f, prob, kern)
        for i in range(prob.k):
            e = np.zeros(prob.k)
            e[i] = h
            fd = (eval_H(f + e, prob, kern) - eval_H(f - e, prob, kern)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8), invariant


def test_hessians():
    prob = _admissible_problem(31, "trdif")
    kern = precompute(prob)
    f = np.full(prob.k, 1.0 / prob.k)
    H = hessian_H(None, prob, kern)
    npt.assert_array_equal(H, 2.0 * kern.K @ kern.K.T)
    npt.assert_array_equal(hessian_H(f, prob, kern), H)
    lik = _admissible_problem(31, "lik")
    lk = precompute(lik)
    Hl = hessian_H(f, lik, lk)
    npt.assert_array_equal(Hl, interpolation._model_rows(f[None], lik, lk)[0][0])
    npt.assert_allclose(Hl, Hl.T, atol=1e-12)
    assert np.linalg.eigvalsh(Hl).min() >= -1e-10
    # finite-difference cross-check of the analytic likelihood Hessian
    h = 1e-6
    for i in range(lik.k):
        e = np.zeros(lik.k)
        e[i] = h
        fd = (grad_H(f + e, lik, lk) - grad_H(f - e, lik, lk)) / (2 * h)
        npt.assert_allclose(Hl[:, i], fd, rtol=5e-4, atol=1e-6)
    with pytest.raises(NotPositiveDefiniteError):
        hessian_H(np.zeros(lik.k), _admissible_problem(31, "trln2"))


@pytest.mark.parametrize("k", [6, 50])
@pytest.mark.parametrize("invariant", ["trdif", "lik", "trln2"])
def test_hessian_is_the_central_difference_of_the_gradient(invariant, k):
    prob = _admissible_problem(31, invariant, k=k).with_alpha(np.array([0.3, 0.7]))
    kern = precompute(prob)
    h = 1e-5
    for f in 0.9 * random_pmfs(np.random.default_rng(k), k, 2) + 0.1 / k:  # interior
        got = hessian_H(f, prob, kern)
        fd = np.stack([(grad_H(f + e, prob, kern) - grad_H(f - e, prob, kern)) / (2.0 * h)
                       for e in h * np.eye(k)], axis=1)
        npt.assert_allclose(got, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())


def _log_field_rows(F, kernels):
    """ln M_j^s at each row of F by eigh: (n, m, k_obs, 2, 2)."""
    lam, vec = np.linalg.eigh(np.einsum("ni,sjia,sjib->nsjab", F, kernels.Ut, kernels.Ut))
    return np.einsum("...ab,...b,...cb->...ac", vec, np.log(lam), vec)


@pytest.mark.parametrize("seed", range(3))
def test_trln2_gauss_newton_matrix_matches_log_jacobian(seed):
    # G = 2 sum_s alpha_s sum_j <J_i, J_l>, J_i the central difference of
    # ln M_j^s along e_i
    prob = _admissible_problem(161 + seed, "trln2")
    prob = prob.with_alpha(np.array([0.3, 0.7]))
    kern = precompute(prob)
    h = 1e-5
    for f in random_pmfs(np.random.default_rng(seed), prob.k, 3):
        steps = h * np.eye(prob.k)
        jac = (_log_field_rows(f + steps, kern) - _log_field_rows(f - steps, kern)) / (2 * h)
        ref = 2.0 * np.einsum("s,isjab,lsjab->il", prob.alpha, jac, jac)
        got, ok = interpolation._model_rows(f[None], prob, kern)
        assert ok.all()
        npt.assert_allclose(got[0], ref, rtol=1e-6, atol=1e-6 * np.abs(ref).max())


def test_trln2_gauss_newton_matrix_is_the_hessian_at_zero_residual():
    # at alpha = (1, 0), f = f^1 every M_j^1 = I, so ln M = 0 and the
    # Gauss-Newton matrix is the exact Hessian of H
    prob = _admissible_problem(171, "trln2").with_alpha(np.array([1.0, 0.0]))
    kern = precompute(prob)
    f = prob.endpoints[0]
    assert eval_H(f, prob, kern) == pytest.approx(0.0, abs=1e-20)
    h = 1e-5
    steps = h * np.eye(prob.k)
    g_plus, ok_plus = interpolation._gradient_rows(f + steps, prob, kern)
    g_minus, ok_minus = interpolation._gradient_rows(f - steps, prob, kern)
    assert ok_plus.all() and ok_minus.all()
    fd = (g_plus - g_minus) / (2 * h)
    got = interpolation._model_rows(f[None], prob, kern)[0][0]
    npt.assert_allclose(got, 0.5 * (fd + fd.T), rtol=1e-6, atol=1e-6 * np.abs(fd).max())


@settings(max_examples=50, deadline=None)
@given(weights=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6),
       a=st.floats(0.0, 1.0))
def test_trln2_gauss_newton_matrix_is_symmetric_psd(weights, a):
    prob, _ = load_problem(FIXTURE)
    prob = prob.with_alpha(np.array([a, 1.0 - a]))
    f = np.asarray(weights) / np.sum(weights)
    got, ok = interpolation._model_rows(f[None], prob, precompute(prob))
    assert ok.all()
    gram = got[0]
    scale = np.abs(gram).max()
    npt.assert_allclose(gram, gram.T, rtol=0.0, atol=1e-14 * scale)
    assert np.linalg.eigvalsh(gram).min() >= -1e-12 * scale


@pytest.mark.parametrize("case", ["fixture", "k50"])
def test_trln2_exact_model_is_the_central_difference_of_the_gradient(case):
    if case == "fixture":
        prob = load_problem(FIXTURE)[0].with_alpha(np.array([0.3, 0.7]))
    else:
        prob = _admissible_problem(0, "trln2", k=50)
    kern = precompute(prob)
    k, h = prob.k, 1e-5
    points = 0.9 * random_pmfs(np.random.default_rng(7), k, 20) + 0.1 / k  # interior
    got, ok = interpolation._model_rows(points, prob, kern, exact=True)
    assert ok.all()
    g, ok = interpolation._gradient_rows((points[:, None] + np.concatenate([np.eye(k), -np.eye(k)]) * h)
                                         .reshape(-1, k), prob, kern)
    assert ok.all()
    g = g.reshape(len(points), 2, k, k)
    for model, fd in zip(got, (g[:, 0] - g[:, 1]) / (2.0 * h)):
        npt.assert_allclose(model, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
    # the default and an all-false mask are the Gauss-Newton matrix, which differs
    gauss_newton = interpolation._model_rows(points, prob, kern)[0]
    npt.assert_array_equal(interpolation._model_rows(points, prob, kern, np.zeros(20, bool))[0], gauss_newton)
    assert np.abs(gauss_newton - got).max() > 1e-3 * np.abs(got).max()
    # a mask picks the exact matrix row by row
    mixed = interpolation._model_rows(points, prob, kern, np.arange(20) % 2 == 0)[0]
    npt.assert_array_equal(mixed[::2], got[::2])
    npt.assert_array_equal(mixed[1::2], gauss_newton[1::2])


def test_trln2_exact_model_at_an_isotropic_operator():
    # u_1 = e_1, u_2 = e_2 and f = (1/2, 1/2, 0) give M = I / 2, where both
    # eigenvalues are lam and the exact Hessian is phi'(lam) (u_i' u_l)^2,
    # phi'(x) = 2 (1 - ln x) / x^2
    ut = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])[None, None]  # (m, k_obs, k, 2)
    u0, u1 = ut[..., 0], ut[..., 1]
    kern = interpolation.PrecomputedKernels(
        A=None, B=None, K=None, C=None, c_tr=None, Ut=ut,
        UU=np.stack([u0 * u0, u0 * u1, u1 * u1], axis=-1).transpose(2, 0, 1, 3))
    prob = interpolation.InterpProblem(domain=None, obs=None, endpoints=None, alpha=np.array([1.0]),
                                       invariant="trln2", weight="pihalf")
    f = np.array([[0.5, 0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ok = interpolation._model_rows(f, prob, kern, exact=True)
    assert ok.all()
    lam = 0.5
    npt.assert_allclose(got[0], 2.0 * (1.0 - np.log(lam)) / lam ** 2 * (ut[0, 0] @ ut[0, 0].T) ** 2,
                        rtol=1e-15, atol=0.0)


def test_log_divided_difference_at_equal_and_near_equal_eigenvalues():
    low = np.array([2.0, 2.0, 0.5, 3.0])
    gap = np.array([0.0, 2.0e-12, 0.5e-12, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interpolation._log_divided_difference(low, gap)
    assert got[0] == 0.5  # the limit 1 / lam at lam_1 = lam_2
    # (ln(lam + d) - ln(lam)) / d = (1 - x/2 + x^2/3 - ...) / lam, x = d / lam
    x = gap[1:3] / low[1:3]
    npt.assert_allclose(got[1:3], (1.0 - 0.5 * x) / low[1:3], rtol=2e-16)
    assert got[3] == pytest.approx((np.log(4.5) - np.log(3.0)) / 1.5, rel=1e-15)
    # the gap _model_rows passes for an isotropic M is exactly zero
    lam_min, lam_max, _, _ = spd._eigensystem(np.array([[[[3.0, 0.0, 3.0]]]]))
    assert interpolation._pd_rows(lam_min).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interpolation._log_divided_difference(lam_min, lam_max - lam_min) == 1.0 / 3.0


def test_trdif_solution_is_linear_interpolant():
    # the trdif gradient vanishes exactly at the linear interpolant, so the
    # solver must return it whenever the kernel has full rank
    for seed in range(5):
        prob = _admissible_problem(100 + seed, "trdif")
        res = solve(prob)
        expected = linear_interp(prob.alpha, prob.endpoints)
        npt.assert_allclose(res.f_hat, expected, atol=1e-8)
        assert res.converged


def test_delta_alpha_recovers_endpoint():
    for invariant in ("trdif", "lik"):
        prob = _admissible_problem(41, invariant)
        res = solve(prob.with_alpha(np.array([1.0, 0.0])))
        npt.assert_allclose(res.f_hat, prob.endpoints[0], atol=1e-6)
        assert eval_H(prob.endpoints[0], prob.with_alpha(np.array([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-18)


def test_solve_monotone_trace():
    prob = _admissible_problem(51, "lik")
    res = solve(prob, record_trace=True)
    objs = [row[1] for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert res.converged
    assert res.trace[0][0] == 1
    its = [row[0] for row in res.trace]
    assert its == sorted(its)


def test_multistart_bookkeeping():
    prob, solver = load_problem(FIXTURE)
    res = solve(prob, max_iter=solver["max_iter"], restarts=8, seed=11)
    assert res.restarts_used == 8
    assert len(res.restart_objectives) == 8
    finite = [o for o in res.restart_objectives if np.isfinite(o)]
    assert res.objective == pytest.approx(min(finite), abs=1e-12)
    with pytest.raises(ValueError):
        solve(prob, restarts=0)


@pytest.mark.parametrize("restarts", [1, 3, 4, 8])
def test_solve_rejects_a_negative_seed_at_every_restart_count(restarts):
    # the message of np.random.default_rng(-1), though only starts beyond three draw from it
    prob, _ = load_problem(FIXTURE)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        solve(prob, restarts=restarts, seed=-1)


def test_starts_beyond_the_named_three_are_seeded_dirichlet_draws():
    prob, _ = load_problem(FIXTURE)
    starts = interpolation._starts(prob, 7, 11)
    assert len(starts) == 7 and len(interpolation._starts(prob, 2, 11)) == 2
    assert np.array_equal(starts[3:], np.random.default_rng(11).dirichlet(np.ones(prob.k), size=4))


@pytest.mark.parametrize("setting", [dict(max_iter=-1), dict(tol=-1e-9), dict(tol=float("nan")),
                                     dict(tol=float("inf"))])
def test_solve_rejects_impossible_stopping_settings(setting):
    prob, _ = load_problem(FIXTURE)
    with pytest.raises(ValueError, match=next(iter(setting))):
        solve(prob, **setting)


def test_solve_with_zero_budget_returns_the_best_start():
    prob, _ = load_problem(FIXTURE)
    res = solve(prob, max_iter=0, tol=0.0)
    assert res.iterations == 0 and not res.converged
    assert res.stop_reasons == ("max_iter",) * 8


def test_warm_start_prepended():
    prob = _admissible_problem(61, "lik")
    base = solve(prob)
    warm = solve(prob, f0=base.f_hat)
    assert warm.objective <= base.objective + 1e-10
    # the warm start adds one start on top of the defaults
    assert warm.restarts_used == base.restarts_used + 1


def test_precompute_whitening_matches_spd_inv_sqrt():
    prob = _admissible_problem(91, "trln2")
    kernels = precompute(prob)
    for s in range(prob.m):
        for j, q in enumerate(prob.obs):
            u, d = log_map_coords(q, prob.domain)
            cis = spd_inv_sqrt(kernels.C[s, j])
            ref = np.sqrt(weight_value(prob.weight, d))[:, None] * (u @ cis.T)
            npt.assert_allclose(kernels.Ut[s, j], ref, rtol=1e-12, atol=1e-14)


def test_exhausted_line_search_reports_stationarity(monkeypatch):
    prob = _admissible_problem(71, "lik")
    kernels = precompute(prob)
    optimum = solve(prob, kernels, tol=1e-12, max_iter=5000).f_hat
    exact = interpolation._objective_rows

    def run(f0):
        # every evaluation after the start reads 1% high, so no trial step
        # passes the Armijo test and the search is exhausted at once
        calls = []

        def inflated(F, problem, kern):
            calls.append(None)
            values, ok = exact(F, problem, kern)
            return values * (1.0 if len(calls) == 1 else 1.01), ok

        monkeypatch.setattr(interpolation, "_objective_rows", inflated)
        out = interpolation._descend(prob, kernels, [f0], 100, 0.0, False)
        assert out.iterations[0] == 1
        assert out.reasons.tolist() == ["line_search"]
        return out.converged[0]

    assert run(optimum)
    assert not run(0.99 * optimum + 0.01 / prob.k)


def _closed_form_eigvals(mats):
    """Ascending eigenvalues of symmetric 2x2 matrices from spd._eigvals2, the kernel the solver uses."""
    comps = np.stack([mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]], -1)
    return np.stack(spd._eigvals2(comps), -1)


def test_closed_form_eigenvalues_match_eigvalsh():
    local = np.random.default_rng(5)
    n = 400
    theta = local.uniform(0.0, np.pi, n)
    rot = np.stack([np.stack([np.cos(theta), -np.sin(theta)], -1),
                    np.stack([np.sin(theta), np.cos(theta)], -1)], -2)
    top = 10.0 ** local.uniform(1.0, 3.0, n)
    for cond in (10.0 ** local.uniform(0.0, 3.0, n),   # generic
                 np.ones(n),                            # isotropic
                 10.0 ** local.uniform(6.0, 12.0, n)):  # ill-conditioned
        diag = np.stack([top / cond, top], -1)
        mats = np.einsum("nab,nb,ncb->nac", rot, diag, rot)
        lam = _closed_form_eigvals(mats)
        ref = np.linalg.eigvalsh(mats)
        assert np.all(np.abs(lam - ref) <= 1e-13 * ref[:, 1:])
        assert np.all(lam[:, 0] > interpolation.DEFINITENESS_FLOOR)
    iso = 3.0 * np.eye(2)
    npt.assert_array_equal(_closed_form_eigvals(iso), [3.0, 3.0])
    # the positivity test every row kernel applies to lam_min
    floor = interpolation.DEFINITENESS_FLOOR
    bad = np.stack([np.diag([1.0, floor]), np.diag([1.0, -1.0]), np.zeros((2, 2)), -np.eye(2)])
    npt.assert_array_equal(_closed_form_eigvals(bad)[:, 0] > floor, False)
    assert _closed_form_eigvals(np.diag([1.0, 2.0 * floor]))[0] > floor


def _k50_lik_problem():
    return _admissible_problem(1, "lik", k=50)


def test_k50_lik_solve_converges_to_certified_optimum():
    prob = _k50_lik_problem()
    kernels = precompute(prob)
    # a tolerance below the default, so that the gap decides
    res = solve(prob, kernels, max_iter=2000, tol=1e-12)
    assert res.converged
    assert res.iterations < 2000
    # for the convex lik objective the Frank-Wolfe gap bounds H(f) - min H
    g = grad_H(res.f_hat, prob, kernels)
    assert g @ res.f_hat - g.min() <= 1e-6 * max(1.0, abs(res.objective))


@pytest.mark.parametrize("seed", range(10))
def test_k50_lik_newton_solves_take_few_iterations(seed):
    # the Newton direction makes the work per solve about the same for every
    # problem; gradient steps alone took 300 to 2000+ iterations here
    prob = _admissible_problem(seed, "lik", k=50)
    kernels = precompute(prob)
    res = solve(prob, kernels, max_iter=2000)
    assert res.converged
    assert res.iterations <= 10
    g = grad_H(res.f_hat, prob, kernels)
    assert g @ res.f_hat - g.min() <= 1e-6 * max(1.0, abs(res.objective))


@pytest.mark.parametrize("seed", range(20))
def test_k50_trln2_gauss_newton_solves_converge(seed):
    # the Gauss-Newton model makes the work per solve about the same for
    # every problem; gradient steps alone hit the default max_iter=500 here
    prob = _admissible_problem(seed, "trln2", k=50)
    kernels = precompute(prob)
    res = solve(prob, kernels)
    assert res.converged
    assert res.loop_trips <= 20
    g = grad_H(res.f_hat, prob, kernels)
    assert g @ res.f_hat - g.min() <= 1e-6 * max(1.0, abs(res.objective))


def test_k50_trln2_solves_take_few_loop_trips_in_total():
    # the 20 problems of the test above: 142 trips with the Gauss-Newton
    # model alone, 112 with its exact-Hessian moves where a step cut H by
    # less than a fifth
    trips = 0
    for seed in range(20):
        prob = _admissible_problem(seed, "trln2", k=50)
        res = solve(prob, precompute(prob))
        assert res.converged
        trips += res.loop_trips
    assert trips <= 123


def _newton_target_oracle(f, g, hess):
    """The one-row active-set method the solver ran before its targets were
    batched, kept verbatim: _newton_targets must give every row its bits."""
    c = g - hess @ f  # the model's gradient at z is c + hess z
    slack = 64.0 * np.finfo(float).eps * (np.abs(c).max() + np.abs(hess).max())
    z = f.copy()
    free = z > 0.0
    for _ in range(2 * len(f) + 2):
        idx = np.flatnonzero(free)
        n = len(idx)
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = hess[np.ix_(idx, idx)]
        kkt[:n, n] = kkt[n, :n] = 1.0
        try:
            sol = np.linalg.solve(kkt, np.append(-c[idx], 1.0))
        except np.linalg.LinAlgError:
            return None
        target = sol[:n]
        neg = np.flatnonzero(target < 0.0)
        if len(neg):
            # move toward the target until the first coordinate reaches 0
            zf = z[idx]
            ratios = zf[neg] / (zf[neg] - target[neg])
            first = int(np.argmin(ratios))
            z[idx] = zf + ratios[first] * (target - zf)
            z[idx[neg[first]]] = 0.0
            free[idx[neg[first]]] = False
            continue
        z = np.zeros_like(f)
        z[idx] = target
        mult = c + hess @ z + sol[n]  # bound multipliers, >= 0 at the minimizer
        mult[idx] = np.inf
        worst = int(np.argmin(mult))
        if mult[worst] >= -slack:
            return z
        free[worst] = True
    return None


def _model_batch(local, n, k, kinds, spread, bound):
    """n model rows: starts with `bound` coordinates at 0, gradients of the
    given spread, and per row a PSD, rank-deficient or zero matrix."""
    F = random_pmfs(local, k, n)
    for f in F:
        f[local.choice(k, min(bound, k - 1), replace=False)] = 0.0
        f /= f.sum()
    hess = np.zeros((n, k, k))
    for r, kind in enumerate(kinds):
        if kind == "psd":
            root = local.standard_normal((k, k))
            hess[r] = root @ root.T + 0.1 * np.eye(k)
        elif kind == "rank-deficient":
            root = local.standard_normal((k, local.integers(1, k)))
            hess[r] = root @ root.T
    return F, spread * local.standard_normal((n, k)), hess


def _assert_matches_oracle(F, G, hess, rows=None):
    targets, settled = interpolation._newton_targets(F, G, hess)
    assert targets.shape == F.shape and settled.shape == (len(F),)
    for r in range(len(F)) if rows is None else rows:
        want = _newton_target_oracle(F[r], G[r], hess[r])
        assert settled[r] == (want is not None)
        npt.assert_array_equal(targets[r], F[r] if want is None else want)
    return settled


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       k=st.one_of(st.integers(2, 12), st.just(50)),
       kinds=st.lists(st.sampled_from(["psd", "rank-deficient", "zero"]), min_size=12, max_size=12),
       spread=st.sampled_from([0.0, 0.1, 1.0, 10.0, 1e3]), bound=st.integers(0, 11))
def test_batched_newton_targets_match_one_row_method(seed, n, k, kinds, spread, bound):
    F, G, hess = _model_batch(np.random.default_rng(seed), n, k, kinds[:n], spread, bound)
    _assert_matches_oracle(F, G, hess)


def test_singular_row_of_a_shared_solve_is_the_only_unsettled_one():
    # every row is interior, so the first pass solves them as one stack;
    # row 2's model matrix is zero, so its reduced system is exactly singular
    local = np.random.default_rng(5)
    F, G, hess = _model_batch(local, 6, 7, ["psd"] * 6, 10.0, 0)
    hess[2] = 0.0
    settled = _assert_matches_oracle(F, G, hess)
    npt.assert_array_equal(settled, np.arange(6) != 2)


@pytest.mark.parametrize("seed", range(6))
def test_newton_target_meets_kkt_conditions(seed):
    local = np.random.default_rng(seed)
    # a spread that binds several coordinates, from starts with bound ones
    F, G, hess = _model_batch(local, 5, 8, ["psd"] * 5, 10.0, 3)
    targets, settled = interpolation._newton_targets(F, G, hess)
    assert settled.all()
    for f, g, h, z in zip(F, G, hess, targets):
        assert z.min() >= 0.0
        assert z.sum() == pytest.approx(1.0, abs=1e-14)
        model_grad = g + h @ (z - f)
        support = z > 0.0
        level = model_grad[support].mean()
        scale = np.abs(model_grad).max()
        npt.assert_allclose(model_grad[support], level, atol=1e-12 * scale)
        assert np.all(model_grad[~support] >= level - 1e-12 * scale)


@pytest.mark.parametrize("case", ["k50-lik", "fixture-trln2"])
def test_solver_trace_never_increases(case):
    if case == "k50-lik":
        prob, kw = _k50_lik_problem(), dict(max_iter=2000)
    else:
        prob, solver = load_problem(FIXTURE)
        kw = dict(max_iter=solver["max_iter"], seed=solver["seed"])
    res = solve(prob, record_trace=True, **kw)
    objs = [row[1] for row in res.trace]
    assert len(objs) > 1
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert objs[-1] == res.objective


# Sweep objectives of the fixture at alpha = (1, 0), (0.5, 0.5), (0, 1),
# computed with the fixed 1/L first trial step the solver used before the
# Barzilai-Borwein step; any step rule must reach the same minima.
FIXTURE_SWEEP_OBJECTIVES = (3.968956429393217e-30, 10.57905578333633, 2.0399449970949683e-29)


def _check_fixture_sweep():
    prob, solver = load_problem(FIXTURE)
    path = [np.array([1.0 - t, t]) for t in (0.0, 0.5, 1.0)]
    results, _, _ = consistency_sweep(
        prob, path, max_iter=solver["max_iter"], tol=solver["tol"],
        restarts=solver["restarts"], seed=solver["seed"])
    for res, ref in zip(results, FIXTURE_SWEEP_OBJECTIVES):
        assert res.converged
        assert abs(res.objective - ref) <= 1e-9 * max(1.0, abs(ref))
    return results


def test_fixture_sweep_objectives_unchanged():
    _check_fixture_sweep()


def test_gradient_fallback_meets_fixture_sweep_objectives(monkeypatch):
    # every model system reads singular, so each move is the 1/L gradient step
    monkeypatch.setattr(interpolation, "_newton_targets",
                        lambda F, G, hess: (F.copy(), np.zeros(len(F), dtype=bool)))
    results = _check_fixture_sweep()
    # the endpoint solves stop at H's lower bound 0 on their first trip
    assert results[0].loop_trips == results[2].loop_trips == 1
    assert results[1].loop_trips > 900


# Objectives of the fixture's 9-step sweep with the Gauss-Newton model alone
# (132 loop trips); the minima at alpha = (1, 0) and (0, 1) are 0.
FIXTURE_SWEEP9_OBJECTIVES = (
    7.2599855183621383e-30, 4.1082132418386514, 7.4861185576653302,
    9.8518545230082033, 10.579055783336329, 9.5506590560860083,
    7.2769335677683458, 4.0470772440500342, 4.6271622471870254e-29,
)


def test_fixture_sweep9_reaches_the_gauss_newton_minima_in_fewer_trips():
    prob, solver = load_problem(FIXTURE)
    path = [np.array([1.0 - t, t]) for t in np.linspace(0.0, 1.0, 9)]
    results, _, _ = consistency_sweep(
        prob, path, max_iter=solver["max_iter"], tol=solver["tol"],
        restarts=solver["restarts"], seed=solver["seed"])
    eps = np.finfo(float).eps
    for i, (res, ref) in enumerate(zip(results, FIXTURE_SWEEP9_OBJECTIVES)):
        assert res.converged
        if i in (0, len(results) - 1):
            # a start converged at H's lower bound 0 ends the solve on its first trip
            assert res.loop_trips == 1
            best = int(np.argmin(res.restart_objectives))
            assert res.stop_reasons[best] == "pg_tol"
            assert res.restart_objectives[best] == res.objective <= 4.0 * eps
            assert set(res.stop_reasons) <= {"pg_tol", "lower_bound"}
        else:
            assert set(res.stop_reasons) <= {"pg_tol", "step_tol"}  # every start converges
        assert abs(res.objective - ref) <= (1e-20 if ref < 1e-20 else 1e-12 * ref)
    assert sum(res.loop_trips for res in results) <= 90
    assert sum(res.loop_trips for res in results) <= 70  # 64 measured


# Loop trips and stop reasons (P = pg_tol, S = step_tol, one letter per start)
# of the 9-step sweep's seven interior points, from the solver before the
# lower-bound stop existed; min H is far above 0 there, so it never fires.
FIXTURE_SWEEP9_INTERIOR_STOPS = (
    (8, "SSPPPPPSP"), (9, "PSSPSPPPP"), (8, "PSPPPPSPP"), (9, "PSSPSPSPS"),
    (10, "PPPSSPPPS"), (10, "PSPPPSPSP"), (8, "SPSSSSSPP"),
)


def test_fixture_sweep9_interior_solves_ignore_the_lower_bound():
    prob, solver = load_problem(FIXTURE)
    path = [np.array([1.0 - t, t]) for t in np.linspace(0.0, 1.0, 9)]
    results, _, _ = consistency_sweep(
        prob, path, max_iter=solver["max_iter"], tol=solver["tol"],
        restarts=solver["restarts"], seed=solver["seed"])
    names = {"P": "pg_tol", "S": "step_tol"}
    got = [(res.loop_trips, res.stop_reasons) for res in results[1:-1]]
    assert got == [(trips, tuple(names[c] for c in code)) for trips, code in FIXTURE_SWEEP9_INTERIOR_STOPS]


@pytest.mark.parametrize("invariant", ["trdif", "trln2", "lik"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), vertex=st.sampled_from([0, 1]))
def test_lower_bound_stop_fires_only_behind_a_converged_zero(invariant, seed, vertex):
    prob = _admissible_problem(seed, invariant)
    kernels = precompute(prob)
    floor = 4.0 * np.finfo(float).eps
    at_vertex = solve(prob.with_alpha(np.eye(2)[vertex]), kernels, restarts=8)
    assert at_vertex.converged
    assert at_vertex.objective <= floor
    middle = solve(prob.with_alpha([0.5, 0.5]), kernels, restarts=8)
    assert "lower_bound" not in middle.stop_reasons
    for res in (at_vertex, middle):
        if "lower_bound" in res.stop_reasons:
            # restart_objectives lists the starts that did not meet a singular operator
            kept = [reason for reason in res.stop_reasons if reason != "singular_start"]
            assert any(reason in ("pg_tol", "step_tol") and obj <= floor
                       for reason, obj in zip(kept, res.restart_objectives))


def test_exact_moves_without_positive_curvature_take_the_gauss_newton_move(monkeypatch):
    # an exact model of -I fails d'Hd > 0 (or g.d < 0 at d = 0) on every row
    # it serves, so those rows must move as with Gauss-Newton alone: the same
    # minima in as many trips. (Their Gauss-Newton matrices come from a call
    # on just those rows, whose field products round differently, so a trip
    # may differ; without the fallback these trips rise 131 -> 222.)
    prob, solver = load_problem(FIXTURE)
    path = [np.array([1.0 - t, t]) for t in np.linspace(0.0, 1.0, 9)]
    kw = dict(max_iter=solver["max_iter"], tol=solver["tol"], restarts=solver["restarts"], seed=solver["seed"])
    model, exact_rows = interpolation._model_rows, []
    with monkeypatch.context() as m:
        m.setattr(interpolation, "_model_rows", lambda F, problem, kernels, exact=False: model(F, problem, kernels))
        gauss_newton = consistency_sweep(prob, path, **kw)[0]

    def concave_exact(F, problem, kernels, exact=False):
        hess, ok = model(F, problem, kernels, exact)
        exact_rows.append(int(np.sum(exact)))
        return np.where(np.reshape(exact, (-1, 1, 1)), -np.eye(F.shape[1]), hess), ok

    monkeypatch.setattr(interpolation, "_model_rows", concave_exact)
    checked = consistency_sweep(prob, path, **kw)[0]
    assert sum(exact_rows) > 0
    for a, b in zip(gauss_newton, checked):
        assert b.objective == pytest.approx(a.objective, rel=1e-12, abs=1e-20)
        assert abs(b.loop_trips - a.loop_trips) <= 1


def test_descend_counts_one_objective_round_per_search_round(monkeypatch):
    prob, solver = load_problem(FIXTURE)
    kernels = precompute(prob)
    starts = interpolation._starts(prob, solver["restarts"], np.random.default_rng(solver["seed"]))
    exact_objective, exact_search = interpolation._objective_rows, interpolation._armijo_search
    objective_calls, search_rounds = [], []

    def counted_objective(*args):
        objective_calls.append(None)
        return exact_objective(*args)

    def counted_search(*args, **kw):
        out = exact_search(*args, **kw)
        search_rounds.append(out[-1])
        return out

    monkeypatch.setattr(interpolation, "_objective_rows", counted_objective)
    monkeypatch.setattr(interpolation, "_armijo_search", counted_search)
    run = interpolation._descend(prob, kernels, starts, solver["max_iter"], solver["tol"], False)
    assert run.searched == len(search_rounds) <= run.trips
    assert run.rounds == 1 + sum(search_rounds) == len(objective_calls)


def test_iteration_cap_reports_not_raises():
    prob = _admissible_problem(71, "lik")
    res = solve(prob, max_iter=1, tol=1e-16, restarts=1)
    assert not res.converged
    assert res.iterations <= 1


def test_sqroot_two_endpoint_closed_form():
    local = np.random.default_rng(81)
    endpoints = random_pmfs(local, 6, 2)
    r1, r2 = np.sqrt(endpoints[0]), np.sqrt(endpoints[1])
    theta = np.arccos(np.clip(r1 @ r2, -1.0, 1.0))
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        got = sqroot_interp(np.array([1.0 - t, t]), endpoints)
        p = (np.sin((1.0 - t) * theta) * r1 + np.sin(t * theta) * r2) / np.sin(theta) \
            if theta > 0 else r1
        npt.assert_allclose(got, p ** 2, atol=1e-10)
    # asymmetric weights need iteration beyond the chordal initialization
    with pytest.raises(IterationLimitError):
        sqroot_interp(np.array([0.25, 0.75]), endpoints, max_iter=1, tol=1e-15)


def test_sqroot_multiway_fixed_point():
    local = np.random.default_rng(82)
    endpoints = random_pmfs(local, 5, 3)
    alpha = np.array([0.2, 0.3, 0.5])
    f = sqroot_interp(alpha, endpoints)
    assert f.min() >= 0.0
    assert f.sum() == pytest.approx(1.0, abs=1e-12)
    # Karcher condition: weighted log sum vanishes at the mean on the sphere
    p = np.sqrt(f)
    resid = np.zeros_like(p)
    for a, ep in zip(alpha, np.sqrt(endpoints)):
        cos = np.clip(p @ ep, -1.0, 1.0)
        ang = np.arccos(cos)
        if ang > 1e-12:
            resid += a * ang * (ep - cos * p) / np.sin(ang)
    npt.assert_allclose(resid, 0.0, atol=1e-9)


def test_mse_identity():
    # the linear interpolant minimizes the alpha-weighted mean squared error
    local = np.random.default_rng(91)
    endpoints = random_pmfs(local, 7, 3)
    alpha = np.array([0.5, 0.2, 0.3])
    lin = linear_interp(alpha, endpoints)
    base = mse(lin, endpoints, alpha)
    for cand in random_pmfs(local, 7, 50):
        assert base <= mse(cand, endpoints, alpha) + 1e-15


def test_fractional_anisotropy_extremes():
    domain = uniform_sample(np.random.default_rng(101), 6)
    point_mass = np.zeros(6)
    point_mass[2] = 1.0
    assert fractional_anisotropy(point_mass, domain) == pytest.approx(1.0, abs=1e-9)
    octa = np.array([
        [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0],
    ])
    uniform = np.full(6, 1.0 / 6.0)
    assert fractional_anisotropy(uniform, octa) == pytest.approx(0.0, abs=1e-12)
    # similarity invariance: rotating the domain leaves FA unchanged
    f = random_pmfs(np.random.default_rng(102), 6, 1)[0]
    fa0 = fractional_anisotropy(f, domain)
    rotated = rotate_points(domain, unit_point([0.2, 0.9, 0.4]), 1.3)
    assert fractional_anisotropy(f, rotated) == pytest.approx(fa0, abs=1e-12)


def test_fractional_anisotropy_from_invariants():
    def from_eigenvalues(f, domain):
        lam = np.linalg.eigvalsh(np.einsum("i,ia,ib->ab", f, domain, domain))
        return np.sqrt(1.5 * np.sum((lam - lam.mean()) ** 2) / np.sum(lam ** 2))

    rng = np.random.default_rng(103)
    for _ in range(200):
        domain = uniform_sample(rng, 8)
        f = random_pmfs(rng, 8, 1)[0]
        assert abs(fractional_anisotropy(f, domain) - from_eigenvalues(f, domain)) <= 1e-12
    octa = np.concatenate([np.eye(3), -np.eye(3)])
    assert fractional_anisotropy(np.full(6, 1.0 / 6.0), octa) == 0.0
    # a point mass at a point whose moment p p' is exact
    domain = np.concatenate([uniform_sample(rng, 5), [[0.0, 0.0, 1.0]]])
    assert fractional_anisotropy(np.eye(6)[5], domain) == 1.0


def test_consistency_sweep_shapes_and_warm_start():
    prob = _admissible_problem(111, "lik")
    path = [np.array([1.0 - t, t]) for t in np.linspace(0.0, 1.0, 5)]
    results, f_steps, obj_steps = consistency_sweep(prob, path)
    assert len(results) == 5
    assert len(f_steps) == 4
    assert len(obj_steps) == 4
    npt.assert_allclose(results[0].f_hat, prob.endpoints[0], atol=1e-6)
    npt.assert_allclose(results[-1].f_hat, prob.endpoints[1], atol=1e-6)
    # neighboring steps stay close (warm start keeps the path continuous)
    assert max(f_steps) < 0.5
    assert all(np.isfinite(obj_steps))


def test_convexity_certificates():
    trdif = _admissible_problem(121, "trdif")
    rep = convexity_probe(trdif, n_points=10, rng=np.random.default_rng(0))
    assert rep["convex_certificate"]
    lik = _admissible_problem(121, "lik")
    rep = convexity_probe(lik, n_points=30, rng=np.random.default_rng(0))
    assert rep["convex_certificate"]
    assert rep["min_hessian_eig"] >= -1e-8


@pytest.mark.parametrize("k", [6, 50])
@pytest.mark.parametrize("invariant", ["trdif", "lik", "trln2"])
def test_convexity_probe_reads_the_tangent_plane_for_every_invariant(invariant, k):
    prob = _admissible_problem(41, invariant, k=k)
    kern = precompute(prob)
    rep = convexity_probe(prob, n_points=8, rng=np.random.default_rng(9), kernels=kern)
    hess = np.stack([hessian_H(f, prob, kern) for f in random_pmfs(np.random.default_rng(9), k, 8)])
    # an orthonormal basis of sum x = 0 drawn apart from the probe's
    basis = np.linalg.svd(np.ones((1, k)))[2][1:].T
    tangent = np.linalg.eigvalsh(basis.T @ hess @ basis).min()
    scale = np.abs(hess).max()
    assert rep["min_hessian_eig"] == pytest.approx(tangent, rel=1e-9, abs=1e-12 * scale)
    assert rep["min_hessian_eig"] >= np.linalg.eigvalsh(hess).min() - 1e-12 * scale


def test_trln2_nonconvex_on_fixture():
    # the log-squared invariant admits negative curvature on the simplex
    prob, _ = load_problem(FIXTURE)
    rep = convexity_probe(prob, n_points=40, rng=np.random.default_rng(5))
    assert rep["min_hessian_eig"] < -1e-8
    assert not rep["convex_certificate"]


def test_eval_off_simplex():
    prob = _admissible_problem(131, "trdif")
    f = np.full(prob.k, 2.0 / prob.k)  # sums to 2, still evaluates
    val = eval_H(f, prob)
    assert np.isfinite(val)


def test_objective_nonnegative_and_zero_at_endpoints():
    for invariant in ("trdif", "trln2", "lik"):
        prob = _admissible_problem(141, invariant)
        f = random_pmfs(np.random.default_rng(142), prob.k, 1)[0]
        assert eval_H(f, prob) >= 0.0
        one_hot = prob.with_alpha(np.array([0.0, 1.0]))
        assert eval_H(prob.endpoints[1], one_hot) == pytest.approx(0.0, abs=1e-16)


def test_singular_start_is_dropped_alone():
    prob, solver = load_problem(FIXTURE)
    kernels = precompute(prob)
    kw = dict(max_iter=solver["max_iter"], tol=solver["tol"], seed=solver["seed"])
    base = solve(prob, kernels, **kw)
    point_mass = np.zeros(prob.k)
    point_mass[0] = 1.0  # rank-1 fields at every observation point
    res = solve(prob, kernels, f0=point_mass, **kw)
    assert res.restarts_used == 9
    assert len(res.restart_objectives) == 8
    assert res.stop_reasons[0] == "singular_start"
    assert "singular_start" not in res.stop_reasons[1:]
    assert res.objective == pytest.approx(base.objective, rel=1e-12)
    npt.assert_allclose(res.restart_objectives, base.restart_objectives, rtol=1e-12)


def test_batch_of_singular_starts_raises(monkeypatch):
    prob, _ = load_problem(FIXTURE)
    monkeypatch.setattr(interpolation, "_starts", lambda problem, restarts, rng:
                        list(np.eye(problem.k)[:restarts]))
    with pytest.raises(NotPositiveDefiniteError):
        solve(prob, restarts=3)


@pytest.mark.parametrize("case", ["fixture-trln2", "lik-61"])
def test_batching_leaves_each_start_unchanged(case):
    if case == "fixture-trln2":
        prob, solver = load_problem(FIXTURE)
        kw = dict(max_iter=solver["max_iter"], tol=solver["tol"])
        starts = interpolation._starts(prob, solver["restarts"],
                                       np.random.default_rng(solver["seed"]))
    else:
        prob, kw = _admissible_problem(61, "lik"), dict(max_iter=500, tol=1e-9)
        starts = interpolation._starts(prob, 3, np.random.default_rng(0))
    kernels = precompute(prob)

    def descend(rows):
        return interpolation._descend(prob, kernels, rows, kw["max_iter"], kw["tol"], False)

    batch = descend(starts)
    assert len(batch.obj) == len(starts) > 1
    for i, start in enumerate(starts):
        alone = descend([start])
        assert alone.obj[0] == pytest.approx(batch.obj[i], rel=1e-12, abs=0.0)
        assert alone.converged[0] == batch.converged[i]


def test_rounds_of_halvings_accept_the_sequential_step():
    # Row r's trial point is (r, eta); it passes at eta <= 2^-h_r, and row 4
    # never does. Row 5 is singular above its step and passes at halving 5.
    passing = np.array([0, 3, 5, 9, -1, 5])
    threshold = np.where(passing >= 0, 0.5 ** passing, 0.0)
    f = np.stack([np.arange(6.0), np.zeros(6)], axis=1)
    g = np.tile([0.0, -1.0], (6, 1))
    obj = np.zeros(6)
    seen = []

    def trial(rows, etas):
        return f[rows] - etas[:, None] * g[rows]

    def evaluate(x):
        seen.append(x.copy())
        row, eta = x[:, 0].astype(int), x[:, 1]
        ok = (row != 5) | (eta <= threshold[5])
        return np.where(eta <= threshold[row], -1.0, 1.0), ok

    found, eta, f_new, obj_new, calls = interpolation._armijo_search(evaluate, trial, f, g, obj, np.ones(6))
    npt.assert_array_equal(found, passing >= 0)
    npt.assert_array_equal(eta[found], threshold[found])
    npt.assert_array_equal(f_new[found], trial(np.flatnonzero(found), eta[found]))
    npt.assert_array_equal(obj_new, np.where(found, -1.0, 0.0))
    # the exhausted row tries every one of the 51 halvings, one per call
    assert calls == len(seen) == interpolation._MAX_HALVINGS + 1
    assert [len(x) for x in seen] == [6] + [5] * 3 + [4] * 2 + [2] * 45
    # after halving 9, row 4 searches alone: its one trial point comes doubled
    for h, x in enumerate(seen[10:], start=10):
        npt.assert_array_equal(x, trial(np.array([4, 4]), np.full(2, 0.5 ** h)))


def _armijo_search_oracle(evaluate, trial, f, g, obj, first):
    """The search the solver ran before it tested one halving per objective
    call, kept verbatim: four halvings per call, each of at least two points.
    _armijo_search must give every solve its bits."""
    _ROUND_HALVINGS, _MAX_HALVINGS, _ARMIJO_C = 4, interpolation._MAX_HALVINGS, interpolation._ARMIJO_C
    found, eta, f_new, obj_new = np.zeros(len(f), dtype=bool), np.zeros(len(f)), f.copy(), obj.copy()
    rows = np.arange(len(f))
    for h0 in range(0, _MAX_HALVINGS + 1, _ROUND_HALVINGS):
        stop = min(h0 + _ROUND_HALVINGS, _MAX_HALVINGS + 1)
        etas = first[rows, None] * 0.5 ** np.arange(h0, stop)
        x = trial(np.repeat(rows, etas.shape[1]), etas.ravel())
        vals, ok = (a.reshape(etas.shape) for a in evaluate(x))
        x = x.reshape(*etas.shape, -1)
        decrease = np.einsum("pk,phk->ph", g[rows], f[rows, None] - x)
        passed = ok & (vals <= obj[rows, None] - _ARMIJO_C * decrease)
        hit = passed.any(axis=1)
        at = (np.flatnonzero(hit), passed.argmax(axis=1)[hit])
        done = rows[hit]
        found[done], eta[done], f_new[done], obj_new[done] = True, etas[at], x[at], vals[at]
        rows = rows[~hit]
        if not len(rows):
            break
    return found, eta, f_new, obj_new, h0 // _ROUND_HALVINGS + 1


def _peaked_trln2_problem(k, concentration, seed):
    local = np.random.default_rng(1000 * k + seed)
    domain = uniform_sample(local, k)
    return make_problem(domain, local.dirichlet(np.full(k, concentration), size=2), [0.5, 0.5], "trln2")


def _oracle_family_solves(case):
    """The solves of one case of the family the line search is checked on."""
    if case in ("sweep3", "sweep9", "sweep17"):
        prob, solver = load_problem(FIXTURE)
        path = [np.array([1.0 - t, t]) for t in np.linspace(0.0, 1.0, int(case[5:]))]
        return consistency_sweep(prob, path, max_iter=solver["max_iter"], tol=solver["tol"],
                                 restarts=solver["restarts"], seed=solver["seed"], record_trace=True)[0]
    if case == "k50-lik":
        return [solve(_k50_lik_problem(), max_iter=2000, record_trace=True)]
    if case == "trdif":
        local = np.random.default_rng(0)
        prob = make_problem(uniform_sample(local, 10), random_pmfs(local, 10, 2), [0.3, 0.7], "trdif")
        return [solve(prob, restarts=4, record_trace=True)]
    k, concentration, seed = case
    return [solve(_peaked_trln2_problem(k, concentration, seed), max_iter=2000, record_trace=True)]


# The peaked trln2 cases include long searches of a lone start: (12, 0.05, 2)
# takes 64 loop trips, and most of its objective calls hold one trial point.
@pytest.mark.parametrize("case", ["sweep3", "sweep9", "sweep17", "k50-lik", "trdif", *(
    pytest.param(case, id="trln2-k{}-dirichlet{}-seed{}".format(*case))
    for case in [(12, 0.05, 2), (20, 0.05, 1), (30, 0.1, 2), (40, 0.05, 1)])])
def test_line_search_gives_every_solve_the_four_halving_rounds_bits(case, monkeypatch):
    new = _oracle_family_solves(case)
    monkeypatch.setattr(interpolation, "_armijo_search", _armijo_search_oracle)
    old = _oracle_family_solves(case)
    assert sum(res.objective_rounds for res in new) >= sum(res.objective_rounds for res in old)
    for a, b in zip(new, old):
        assert a.f_hat.tobytes() == b.f_hat.tobytes()
        fields = ("objective", "iterations", "stop_reasons", "trace", "restart_objectives",
                  "loop_trips", "searched_trips")
        assert [getattr(a, name) for name in fields] == [getattr(b, name) for name in fields]


@pytest.mark.parametrize("invariant, k", [
    ("trdif", 6), ("trln2", 6), ("lik", 6), ("trln2", 50), ("lik", 50),
    # a plain F @ K at k = 50 is a BLAS matrix product whose rows round by the
    # batch size (row 0 one way up to 24 rows and another from 25) and by their
    # place in it (row 2 of 3); trdif takes one product per row
    ("trdif", 50),
])
def test_row_kernels_give_each_row_its_bits_in_any_batch_of_two_or_more(invariant, k):
    # The line search evaluates a lone trial point as a two-row batch and
    # relies on this: a one-row call may round otherwise (numpy takes one
    # row's product as a dot), but every batch of two or more rows, a row
    # doubled included, gives each row the bits it has in any other.
    prob = _admissible_problem(7, invariant, k=k)
    kernels = precompute(prob)
    F = random_pmfs(np.random.default_rng(k), k, 12)
    exact = np.arange(len(F)) % 2 == 0
    row_kernels = {
        "objective": lambda rows: interpolation._objective_rows(F[rows], prob, kernels),
        "gradient": lambda rows: interpolation._gradient_rows(F[rows], prob, kernels),
        "model": lambda rows: interpolation._model_rows(F[rows], prob, kernels, exact[rows]),
    }
    for name, rows_of in row_kernels.items():
        full, full_ok = rows_of(np.arange(len(F)))
        assert full_ok.all(), name
        for lo in range(len(F)):
            for hi in range(lo + 2, len(F) + 1):
                part, ok = rows_of(np.arange(lo, hi))
                assert part.tobytes() == full[lo:hi].tobytes(), (name, lo, hi)
                npt.assert_array_equal(ok, full_ok[lo:hi])
            twice, ok = rows_of(np.array([lo, lo]))
            assert twice[0].tobytes() == twice[1].tobytes() == full[lo].tobytes(), (name, lo)
            assert ok.all()


def test_row_kernels_match_eigh_reference():
    # the closed-form 2x2 matrix functions against the eigh construction
    for invariant in ("trln2", "lik"):
        prob = _admissible_problem(151, invariant)
        kern = precompute(prob)
        points = random_pmfs(np.random.default_rng(152), prob.k, 4)
        grads, ok = interpolation._gradient_rows(points, prob, kern)
        assert ok.all()
        for f, got in zip(points, grads):
            lam, vec = np.linalg.eigh(np.einsum("i,sjia,sjib->sjab", f, kern.Ut, kern.Ut))
            phi = 2.0 * np.log(lam) / lam if invariant == "trln2" else 1.0 - 1.0 / lam
            d = np.einsum("sjab,sjb,sjcb->sjac", vec, phi, vec)
            ref = np.einsum("s,sjia,sjab,sjib->i", prob.alpha, kern.Ut, d, kern.Ut)
            npt.assert_allclose(got, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())
            if invariant == "lik":
                w = kern.Ut @ (vec / np.sqrt(lam)[..., None, :])
                cross = np.einsum("sjia,sjla->sjil", w, w) ** 2
                ref_h = np.einsum("s,sjil->il", prob.alpha, cross)
                npt.assert_allclose(hessian_H(f, prob, kern), ref_h, rtol=1e-10)
