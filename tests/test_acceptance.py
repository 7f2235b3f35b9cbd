"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Each test prints "[criterion NN] PASS|FAIL name: detail" before asserting, so
a verbose run reads as a checklist. Stochastic checks run the real command
line pipeline with frozen seeds; the frozen values and bands are recorded
next to the assertions.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from spherecov import (
    consistency_sweep,
    eval_H,
    exp_map,
    fractional_anisotropy,
    geodesic_distance,
    geographic_basis,
    geographic_metric,
    geographic_point,
    grad_H,
    h_lik,
    h_lnpr,
    h_trdif,
    h_trln2,
    hessian_H,
    linear_interp,
    log_map,
    make_problem,
    mse,
    precompute,
    projections_at,
    random_pmfs,
    rank_check,
    solve,
    tangent_frame,
    uniform_sample,
    unit_point,
    weight_value,
)
from spherecov.cli import main
from spherecov.io import dump_problem, read_json
from spherecov.ranktests import signed_rank_exact_cdf

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "spherecov" / "fixtures"

# three-sigma and five-sigma binomial bands around the nominal 0.05 level
# for 400 independent runs (sigma = sqrt(0.05 * 0.95 / 400) = 0.0109)
LEVEL_BAND = (0.0173, 0.0827)
POWER_FLOOR = 0.1045
XI_SANITY_CEILING = 0.13


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _admissible(seed, invariant, k=6, m=2):
    for s in range(seed, seed + 60):
        local = np.random.default_rng(s)
        prob = make_problem(
            uniform_sample(local, k), random_pmfs(local, k, m),
            np.full(m, 1.0 / m), invariant,
        )
        if rank_check(prob)["admissible"]:
            return prob
    raise RuntimeError("no admissible problem found")


def _rand_spd(rng):
    a = rng.normal(size=(2, 2))
    return a @ a.T + 0.1 * np.eye(2)


def test_criterion_01_geometry_round_trip():
    rng = np.random.default_rng(10)
    worst_rt = worst_norm = 0.0
    n_pairs = 0
    while n_pairs < 1000:
        q = uniform_sample(rng, 1)[0]
        p = uniform_sample(rng, 1)[0]
        if q @ p < -1.0 + 1e-6:
            continue
        n_pairs += 1
        v = log_map(q, p)
        back = exp_map(q, v)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - p))))
        worst_norm = max(worst_norm, abs(v.norm - geodesic_distance(q, p)))
    # chart consistency: frame projections equal metric-weighted chart values
    worst_chart = 0.0
    local = np.random.default_rng(11)
    checks = 0
    while checks < 100:
        theta = float(local.uniform(-1.4, 1.4))
        phi = float(local.uniform(-np.pi, np.pi))
        q = geographic_point(theta, phi)
        p = uniform_sample(local, 1)[0]
        w = uniform_sample(local, 1)[0]
        w_t = w - (w @ q) * q
        if q @ p < -0.99 or np.linalg.norm(w_t) < 1e-6:
            continue
        checks += 1
        w_t /= np.linalg.norm(w_t)
        fr = tangent_frame(q)
        u = log_map(q, p)
        xi_frame = float(np.array([w_t @ fr.e1, w_t @ fr.e2]) @ u.u) ** 2
        basis = np.stack(geographic_basis(theta, phi), axis=1)
        chart = np.linalg.solve(basis.T @ basis, basis.T)
        g = geographic_metric(theta)
        xi_chart = float((chart @ w_t) @ g @ (chart @ u.ambient())) ** 2
        worst_chart = max(worst_chart, abs(xi_frame - xi_chart))
    ok = worst_rt <= 1e-10 and worst_norm <= 1e-12 and worst_chart <= 1e-10
    report(1, "log/exp round trip and chart consistency", ok,
           f"round-trip {worst_rt:.2e} (<=1e-10), norm {worst_norm:.2e} "
           f"(<=1e-12), chart {worst_chart:.2e} (<=1e-10)")


def test_criterion_02_invariance_and_triangle():
    # one-pair draws in a fixed order, then one call of each invariant on the
    # (N, 2, 2) stacks, whose rows equal one-pair calls bit for bit
    rng = np.random.default_rng(21)
    draws = []
    for _ in range(1000):
        x, y, z = _rand_spd(rng), _rand_spd(rng), _rand_spd(rng)
        g = rng.normal(size=(2, 2))
        while abs(np.linalg.det(g)) < 0.1:
            g = rng.normal(size=(2, 2))
        draws.append((x, y, z, g @ x @ g.T, g @ y @ g.T, g @ z @ g.T))
    x, y, z, gx, gy, gz = np.moveaxis(np.array(draws), 1, 0)
    pairs = [
        (h_trdif(x, y, z), h_trdif(gx, gy, gz)),
        (h_trln2(x, y), h_trln2(gx, gy)),
        (h_lik(x, y), h_lik(gx, gy)),
        (h_lnpr(x, y), h_lnpr(gx, gy)),
    ]
    worst_inv = max(float(np.max(np.abs(v0 - v1) / np.maximum(1.0, np.abs(v0)))) for v0, v1 in pairs)
    # x, y, z and the trdif reference of each triangle
    x, y, z, ref = np.moveaxis(np.array([[_rand_spd(rng) for _ in range(4)] for _ in range(10000)]), 1, 0)
    worst_tri = float(np.max([
        h_trdif(x, z, ref) - h_trdif(x, y, ref) - h_trdif(y, z, ref),
        h_trln2(x, z) - h_trln2(x, y) - h_trln2(y, z),
        h_lnpr(x, z) - h_lnpr(x, y) - h_lnpr(y, z),
    ]))
    eye = np.eye(2)
    lik_violation = h_lik(eye, 4 * eye) > h_lik(eye, 2 * eye) + h_lik(2 * eye, 4 * eye)
    ok = worst_inv <= 1e-8 and worst_tri <= 1e-10 and lik_violation
    report(2, "similarity invariance and triangle behavior", ok,
           f"invariance {worst_inv:.2e} (<=1e-8), triangle slack "
           f"{worst_tri:.2e} (<=1e-10), lik violation at I/2I/4I: {lik_violation}")


def _rand_spd_stack(rng, n):
    a = rng.normal(size=(n, 2, 2))
    return a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)


def test_criterion_02_holds_at_ten_times_the_draws():
    # the bounds of criterion 02 over 10x its matrices, drawn in stacks
    rng = np.random.default_rng(22)
    n = 10_000
    x, y, z = (_rand_spd_stack(rng, n) for _ in range(3))
    g = rng.normal(size=(n, 2, 2))
    redraw = np.abs(np.linalg.det(g)) < 0.1
    while redraw.any():
        g[redraw] = rng.normal(size=(int(redraw.sum()), 2, 2))
        redraw = np.abs(np.linalg.det(g)) < 0.1
    gx, gy, gz = (g @ m @ g.transpose(0, 2, 1) for m in (x, y, z))
    pairs = [
        (h_trdif(x, y, z), h_trdif(gx, gy, gz)),
        (h_trln2(x, y), h_trln2(gx, gy)),
        (h_lik(x, y), h_lik(gx, gy)),
        (h_lnpr(x, y), h_lnpr(gx, gy)),
    ]
    worst_inv = max(float(np.max(np.abs(v0 - v1) / np.maximum(1.0, np.abs(v0)))) for v0, v1 in pairs)
    x, y, z, ref = (_rand_spd_stack(rng, 10 * n) for _ in range(4))
    worst_tri = float(np.max([
        h_trdif(x, z, ref) - h_trdif(x, y, ref) - h_trdif(y, z, ref),
        h_trln2(x, z) - h_trln2(x, y) - h_trln2(y, z),
        h_lnpr(x, z) - h_lnpr(x, y) - h_lnpr(y, z),
    ]))
    ok = worst_inv <= 1e-8 and worst_tri <= 1e-10
    report(2, "similarity invariance and triangle behavior at 10x the draws", ok,
           f"invariance {worst_inv:.2e} (<=1e-8) over {n} draws, triangle slack "
           f"{worst_tri:.2e} (<=1e-10) over {10 * n} triangles")


def test_criterion_03_projection_identities():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        s1 = uniform_sample(rng, 25)
        s2 = uniform_sample(rng, 20)
        q = uniform_sample(rng, 1)[0]
        proj = projections_at(q, s1, s2)
        worst = max(worst, float(np.max(np.abs(proj.xi1.sum(axis=1) - proj.dsq1))))
        worst = max(worst, float(np.max(np.abs(proj.xi2.sum(axis=1) - proj.dsq2))))
        gaps = proj.xi1.mean(axis=0) - proj.xi2.mean(axis=0)
        worst = max(worst, float(np.max(np.abs(gaps - proj.eigvals))))
    ok = worst <= 1e-10
    report(3, "projection decomposition identities", ok,
           f"max deviation {worst:.2e} (<=1e-10) over 100 configurations")


def test_criterion_04_null_level(tmp_path):
    # exact small-sample null distribution against Monte Carlo sign flips
    support, cdf = signed_rank_exact_cdf(np.arange(1.0, 9.0))
    mc = np.random.default_rng(0)
    draws = (np.arange(1, 9) * (mc.random((100_000, 8)) < 0.5)).sum(axis=1)
    emp = np.searchsorted(np.sort(draws), support, side="right") / len(draws)
    sup = float(np.abs(emp - cdf).max())

    # distance-statistic level under the null via the command line pipeline
    q = f"{float(np.sin(0.75))},0,{float(np.cos(0.75))}"
    out = tmp_path / "null"
    code = main(["test", "--a1", "0.2", "--a2", "0.2", "--m1", "50",
                 "--runs", "400", "--q", q, "--seed", "0", "--out", str(out)])
    rates = read_json(out / "summary.json")["rejection_rates"]
    lo, hi = LEVEL_BAND
    d_ok = lo <= rates["T_d"] <= hi and lo <= rates["W_d"] <= hi
    # the projection statistics select the larger of two correlated tests,
    # which inflates their null rate; keep them under a sanity ceiling
    xi_ok = rates["T_xi"] <= XI_SANITY_CEILING and rates["W_xi"] <= XI_SANITY_CEILING
    ok = sup <= 0.005 and code == 0 and d_ok and xi_ok
    report(4, "null level", ok,
           f"exact-vs-MC sup {sup:.4f} (<=0.005); T_d {rates['T_d']:.4f}, "
           f"W_d {rates['W_d']:.4f} in [{lo}, {hi}]; selection-inflated "
           f"T_xi {rates['T_xi']:.4f}, W_xi {rates['W_xi']:.4f} "
           f"(<= {XI_SANITY_CEILING})")


def test_criterion_05_power_ordering(tmp_path):
    recipe = json.loads((FIXTURES / "fig1.json").read_text())
    mu = ",".join(str(v) for v in recipe["mu"])
    t0 = time.perf_counter()
    out = tmp_path / "fig"
    code = main(["test", "--a1", str(recipe["a1"]), "--a2", str(recipe["a2"]),
                 "--mu1", mu, "--mu2", mu, "--m1", str(recipe["m"]),
                 "--runs", str(recipe["runs"]), "--alpha", str(recipe["alpha"]),
                 "--q", ",".join(str(v) for v in recipe["q"]),
                 "--concentration", recipe["concentration"],
                 "--seed", str(recipe["seed"]), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    rates = read_json(out / "summary.json")["rejection_rates"]
    ok = (code == 0 and rates["T_xi"] > rates["T_d"]
          and rates["W_xi"] > rates["W_d"] and elapsed <= 60.0)
    report(5, "projection statistics beat distance statistics", ok,
           f"T_xi {rates['T_xi']:.3f} > T_d {rates['T_d']:.3f}; "
           f"W_xi {rates['W_xi']:.3f} > W_d {rates['W_d']:.3f}; "
           f"{elapsed:.1f}s (<=60s)")


def test_criterion_06_rotation_alternative(tmp_path):
    # rotating one arm about q moves the projections, not the distances
    q = f"{float(np.sin(0.75))},0,{float(np.cos(0.75))}"
    out = tmp_path / "rot"
    code = main(["test", "--a1", "0.2", "--a2", "0.2", "--m1", "50",
                 "--runs", "400", "--q", q, "--rotate2", repr(float(np.pi / 2)),
                 "--seed", "0", "--out", str(out)])
    rates = read_json(out / "summary.json")["rejection_rates"]
    lo, hi = LEVEL_BAND
    ok = (code == 0 and rates["T_xi"] > POWER_FLOOR
          and lo <= rates["T_d"] <= hi)
    report(6, "rotation detected by projections, invisible to distances", ok,
           f"T_xi {rates['T_xi']:.3f} (> {POWER_FLOOR}); rotation-blind "
           f"T_d {rates['T_d']:.4f} stays in [{lo}, {hi}]")


def test_criterion_07_trace_objective_matches_linear():
    worst = 0.0
    for seed in range(20):
        prob = _admissible(200 + 10 * seed, "trdif")
        res = solve(prob)
        lin = linear_interp(prob.alpha, prob.endpoints)
        worst = max(worst, float(np.max(np.abs(res.f_hat - lin))))
        assert res.converged
    ok = worst <= 1e-6
    report(7, "trace-difference minimizer equals the linear mixture", ok,
           f"max deviation {worst:.2e} (<=1e-6) over 20 problems")


def test_criterion_08_convexity_and_gradients():
    rng = np.random.default_rng(81)
    min_eig = np.inf
    for block in range(4):
        prob = _admissible(300 + 10 * block, "lik")
        kern = precompute(prob)
        for f in random_pmfs(rng, prob.k, 25):
            f = 0.95 * f + 0.05 / prob.k
            eig = float(np.linalg.eigvalsh(hessian_H(f, prob, kern)).min())
            min_eig = min(min_eig, eig)
    worst_fd = 0.0
    h = 1e-6
    for idx in range(50):
        invariant = ("trdif", "trln2", "lik")[idx % 3]
        prob = _admissible(400 + 10 * idx, invariant)
        kern = precompute(prob)
        f = random_pmfs(rng, prob.k, 1)[0]
        f = 0.9 * f + 0.1 / prob.k
        g = grad_H(f, prob, kern)
        fd = np.empty(prob.k)
        for i in range(prob.k):
            e = np.zeros(prob.k)
            e[i] = h
            fd[i] = (eval_H(f + e, prob, kern) - eval_H(f - e, prob, kern)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst_fd = max(worst_fd, float(np.max(np.abs(g - fd))) / scale)
    ok = min_eig >= -1e-8 and worst_fd <= 1e-5
    report(8, "likelihood convexity and gradient correctness", ok,
           f"min Hessian eigenvalue {min_eig:.2e} (>=-1e-8) over 100 points; "
           f"gradient-vs-FD {worst_fd:.2e} (<=1e-5) over 50 instances")


def test_criterion_09_step_halving_consistency():
    rng = np.random.default_rng(1)
    domain = uniform_sample(rng, 6)
    endpoints = random_pmfs(rng, 6, 2)
    prob = make_problem(domain, endpoints, np.array([0.5, 0.5]), "lik")
    assert rank_check(prob)["admissible"]
    deltas = {}
    for T in (5, 9, 17, 33):
        path = [np.array([1.0 - t, t]) for t in np.linspace(0.0, 1.0, T)]
        results, f_steps, _ = consistency_sweep(prob, path, max_iter=4000, tol=1e-10)
        assert all(r.converged for r in results)
        deltas[T] = max(f_steps)
    ratios = [deltas[9] / deltas[5], deltas[17] / deltas[9], deltas[33] / deltas[17]]
    ok = all(r <= 0.6 for r in ratios)
    report(9, "halving the alpha step shrinks the interpolant steps", ok,
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " (each <=0.6)")


def test_criterion_10_anisotropy_and_mse():
    rng = np.random.default_rng(101)
    domain = uniform_sample(rng, 6)
    point_mass = np.zeros(6)
    point_mass[0] = 1.0
    fa_point = fractional_anisotropy(point_mass, domain)
    octa = np.array([
        [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0],
    ])
    fa_octa = fractional_anisotropy(np.full(6, 1.0 / 6.0), octa)

    from spherecov.io import load_problem
    prob, solver = load_problem(FIXTURES / "bimodal_k6.json")
    lin = linear_interp(prob.alpha, prob.endpoints)
    res = solve(prob, max_iter=solver["max_iter"], tol=solver["tol"],
                restarts=solver["restarts"], seed=solver["seed"])
    lik_prob = make_problem(prob.domain, prob.endpoints, prob.alpha, "lik",
                            obs=prob.obs)
    res_lik = solve(lik_prob, max_iter=solver["max_iter"], tol=solver["tol"])
    fa_lin = fractional_anisotropy(lin, prob.domain)
    fa_hat = fractional_anisotropy(res.f_hat, prob.domain)
    mse_lin = mse(lin, prob.endpoints, prob.alpha)
    mse_hat = mse(res.f_hat, prob.endpoints, prob.alpha)
    mse_lik = mse(res_lik.f_hat, prob.endpoints, prob.alpha)
    ok = (abs(fa_point - 1.0) <= 1e-9 and abs(fa_octa) <= 1e-12
          and fa_hat > fa_lin
          and mse_lin <= mse_hat + 1e-12 and mse_lin <= mse_lik + 1e-12)
    report(10, "anisotropy preserved, linear mixture wins on MSE", ok,
           f"FA(point)={fa_point:.2e}-close-to-1, FA(balanced)={fa_octa:.2e}; "
           f"FA {fa_hat:.4f} > {fa_lin:.4f} (margin {fa_hat - fa_lin:+.4f}); "
           f"MSE linear {mse_lin:.4f} <= solver {mse_hat:.4f}, {mse_lik:.4f}")


def test_criterion_11_weight_identity():
    t = np.linspace(1e-8, np.pi - 1e-12, 4001)
    err = float(np.max(np.abs(t ** 2 * weight_value("pihalf", t)
                              - (t - np.pi / 2.0) ** 2)))
    ok = err <= 1e-12
    report(11, "pihalf weight reproduces the shifted squared distance", ok,
           f"max error {err:.2e} (<=1e-12) over 4001 distances")


def _argv_from_manifest(manifest: dict, out_dir: Path) -> list:
    argv = [manifest["command"]]
    for key, value in manifest["params"].items():
        if value is None:
            continue
        if key == "solver":
            for skey in ("max_iter", "tol", "restarts"):
                if value.get(skey) is not None:
                    argv += ["--" + skey.replace("_", "-"), str(value[skey])]
            continue
        argv += ["--" + key.replace("_", "-"), str(value)]
    if manifest.get("seed") is not None:
        argv += ["--seed", str(manifest["seed"])]
    argv += ["--out", str(out_dir)]
    return argv


def _assert_rerun_identical(first: Path, second: Path):
    names1 = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in second.iterdir())
    assert names1 == names2, (names1, names2)
    for name in names1:
        b1 = (first / name).read_bytes()
        b2 = (second / name).read_bytes()
        assert b1 == b2, f"{name} differs between run and manifest rerun"


def test_criterion_12_manifest_reproduces_every_command(tmp_path):
    rng = np.random.default_rng(120)
    ppath = tmp_path / "problem.json"
    prob = make_problem(uniform_sample(rng, 5), random_pmfs(rng, 5, 2),
                        np.array([0.5, 0.5]), "trdif")
    dump_problem(ppath, prob)
    first_runs = {
        "sample": ["sample", "--a", "0.25", "--n", "12", "--seed", "4"],
        "test": ["test", "--a1", "0.2", "--a2", "0.4", "--m1", "10",
                 "--runs", "3", "--q", "0,0,1", "--seed", "5"],
        "scan": ["scan", "--a1", "0.2", "--a2", "0.4", "--m1", "12",
                 "--grid", "5", "--seed", "6"],
        "profile": ["profile", "--a1", "0.2", "--a2", "0.4", "--m1", "10",
                    "--q-extreme", "max", "--grid", "6", "--dirs", "5",
                    "--seed", "7"],
        "interp": ["interp", "--problem", str(ppath)],
        "check": ["check", "--seed", "0"],
    }
    reproduced = []
    for name, argv in first_runs.items():
        out1 = tmp_path / f"{name}_run"
        out2 = tmp_path / f"{name}_rerun"
        assert main(argv + ["--out", str(out1)]) == 0, name
        manifest = read_json(out1 / "run.json")
        assert main(_argv_from_manifest(manifest, out2)) == 0, name
        _assert_rerun_identical(out1, out2)
        reproduced.append(name)
    ok = len(reproduced) == 6
    report(12, "every command reruns byte-identically from its manifest", ok,
           "reproduced: " + ", ".join(reproduced))
