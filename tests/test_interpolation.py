import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

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
from spherecov import interpolation
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


def test_pihalf_rejects_near_coincident_pairs():
    domain = unit_points([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.7, 0.7]])
    obs = np.vstack([domain[0] + np.array([0.0, 1e-10, 0.0]), [0.0, -0.6, 0.8]])
    endpoints = random_pmfs(np.random.default_rng(1), 3, 2)
    alpha = np.array([0.5, 0.5])
    with pytest.raises(CoincidentPointError):
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
    H = hessian_H(None, prob, kern)
    npt.assert_allclose(H, 2.0 * kern.K @ kern.K.T, atol=1e-14)
    lik = _admissible_problem(31, "lik")
    lk = precompute(lik)
    f = np.full(lik.k, 1.0 / lik.k)
    Hl = hessian_H(f, lik, lk)
    npt.assert_allclose(Hl, Hl.T, atol=1e-12)
    assert np.linalg.eigvalsh(Hl).min() >= -1e-10
    # finite-difference cross-check of the analytic likelihood Hessian
    h = 1e-6
    for i in range(lik.k):
        e = np.zeros(lik.k)
        e[i] = h
        fd = (grad_H(f + e, lik, lk) - grad_H(f - e, lik, lk)) / (2 * h)
        npt.assert_allclose(Hl[:, i], fd, rtol=5e-4, atol=1e-6)
    with pytest.raises(ValueError):
        hessian_H(f, _admissible_problem(31, "trln2"))


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
    """Ascending eigenvalues of symmetric 2x2 matrices from interpolation._eigvals2."""
    comps = np.stack([mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]], -1)
    return np.stack(interpolation._eigvals2(comps), -1)


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


@pytest.mark.parametrize("seed", range(6))
def test_newton_target_meets_kkt_conditions(seed):
    local = np.random.default_rng(seed)
    k = 8
    root = local.standard_normal((k, k))
    hess = root @ root.T + 0.1 * np.eye(k)
    f = random_pmfs(local, k, 1)[0]
    f[local.choice(k, 3, replace=False)] = 0.0  # start with bound coordinates
    f /= f.sum()
    g = 10.0 * local.standard_normal(k)  # a spread that binds several coordinates
    z = interpolation._newton_target(f, g, hess)
    assert z.min() >= 0.0
    assert z.sum() == pytest.approx(1.0, abs=1e-14)
    model_grad = g + hess @ (z - f)
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


def test_fixture_sweep_objectives_unchanged():
    prob, solver = load_problem(FIXTURE)
    path = [np.array([1.0 - t, t]) for t in (0.0, 0.5, 1.0)]
    results, _, _ = consistency_sweep(
        prob, path, max_iter=solver["max_iter"], tol=solver["tol"],
        restarts=solver["restarts"], seed=solver["seed"])
    for res, ref in zip(results, FIXTURE_SWEEP_OBJECTIVES):
        assert res.converged
        assert abs(res.objective - ref) <= 1e-9 * max(1.0, abs(ref))


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

    def trial(rows, etas):
        return f[rows] - etas[:, None] * g[rows]

    def evaluate(x):
        row, eta = x[:, 0].astype(int), x[:, 1]
        ok = (row != 5) | (eta <= threshold[5])
        return np.where(eta <= threshold[row], -1.0, 1.0), ok

    results = {n: interpolation._armijo_search(evaluate, trial, f, g, obj, np.ones(6), per_round=n)
               for n in (1, 4)}
    for found, eta, f_new, obj_new, _ in results.values():
        npt.assert_array_equal(found, passing >= 0)
        npt.assert_array_equal(eta[found], threshold[found])
        npt.assert_array_equal(f_new[found], trial(np.flatnonzero(found), eta[found]))
        npt.assert_array_equal(obj_new, np.where(found, -1.0, 0.0))
    # the exhausted row tries every one of the 51 halvings, four per round
    assert results[1][4] == interpolation._MAX_HALVINGS + 1
    assert results[4][4] == 13


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
