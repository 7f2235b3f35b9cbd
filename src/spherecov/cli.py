"""Command-line workbench.

Subcommands:
    sample   draw from a ring density and write the points
    test     run the two-sample procedures over repeated draws
    scan     rank candidate observation points by a separation criterion
    profile  xi projections along tangent directions at one point
    interp   solve or sweep an interpolation problem file
    check    rank conditions plus numerical self-tests

Every stochastic command requires an explicit --seed (no wall-clock seeding)
and writes a run.json manifest from which the run reproduces byte-for-byte.
Exit codes: 0 success, 2 usage error, 3 inadmissible data, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import io
from .errors import IterationLimitError, SphereCovError, TooFewPairsError
from .fields import weight_value
from .geometry import rotation_about, uniform_sample, unit_point
from .interpolation import (
    STOP_REASONS,
    consistency_sweep,
    eval_H,
    fractional_anisotropy,
    grad_H,
    linear_interp,
    make_problem,
    mse,
    precompute,
    rank_check,
    solve,
    sqroot_interp,
)
from .sampling import RingDensity, rejection_sample, rotate_sample
from .simplex import random_pmfs
from .spd import h_lik, h_lnpr, h_trdif, h_trln2
from .twosample import (
    _tr2,
    batch_procedures,
    det_sign_areas,
    observation_scan,
    operator_profile,
    projections_at,
    sample_profile,
    tr2_scores,
)

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return unit_point(np.array([float(p) for p in parts]))
    except ValueError as exc:
        raise UsageError(f"bad point {text!r}: {exc}") from exc


def _require_seed(args, why: str) -> int:
    if args.seed is None:
        raise UsageError(f"--seed is required ({why})")
    return args.seed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ring_params(a, mu, concentration) -> RingDensity:
    if a is None:
        raise UsageError("generator parameters required (--a missing)")
    return RingDensity(a=a, mu=_parse_vec3(mu), concentration=concentration)


# ---------------------------------------------------------------- sample ---

def cmd_sample(args) -> int:
    seed = _require_seed(args, "sampling is stochastic")
    if args.n <= 0:
        raise UsageError("--n must be a positive integer")
    params = _ring_params(args.a, args.mu, args.concentration)
    rng = np.random.default_rng(seed)
    points, proposals = rejection_sample(params, args.n, rng, return_proposals=True)
    out = _out_dir(args)
    path = io.write_points(out / "points", points, args.format)
    io.write_run_manifest(
        out, "sample",
        {"a": args.a, "mu": args.mu, "n": args.n,
         "concentration": args.concentration, "format": args.format},
        seed, [path.name],
        stats={"acceptance_rate": args.n / proposals, "proposals": proposals},
    )
    return 0


# ------------------------------------------------------------------ test ---

def _sample_source(args):
    """Returns (draw(rng) -> (s1, s2), stochastic, description dict, tally).

    In generator mode tally counts the points drawn and the sampler proposals
    made for them; in file mode it is None.
    """
    file_mode = args.sample1 is not None or args.sample2 is not None
    if file_mode:
        if not (args.sample1 and args.sample2):
            raise UsageError("--sample1 and --sample2 must be given together")
        s1 = io.read_points(args.sample1)
        s2 = io.read_points(args.sample2)
        desc = {"sample1": args.sample1, "sample2": args.sample2}
        return (lambda rng: (s1, s2)), False, desc, None
    if args.a1 is None or args.a2 is None:
        raise UsageError("give --sample1/--sample2 files or --a1/--a2 generator parameters")
    p1 = _ring_params(args.a1, args.mu1, args.concentration)
    p2 = _ring_params(args.a2, args.mu2, args.concentration)
    m1 = args.m1
    m2 = args.m2 if args.m2 is not None else m1
    if m1 <= 0 or m2 <= 0:
        raise UsageError("sample sizes must be positive")
    tally = {"points": 0, "proposals": 0}

    def sample(params, m, rng):
        points, proposals = rejection_sample(params, m, rng, return_proposals=True)
        tally["points"] += m
        tally["proposals"] += proposals
        return points

    def draw(rng):
        return sample(p1, m1, rng), sample(p2, m2, rng)

    desc = {"a1": args.a1, "a2": args.a2, "mu1": args.mu1, "mu2": args.mu2,
            "m1": m1, "m2": m2, "concentration": args.concentration}
    return draw, True, desc, tally


def _sampler_stats(tally) -> dict:
    if tally is None:
        return {}
    return {"acceptance_rate": tally["points"] / tally["proposals"],
            "proposals": tally["proposals"]}


def _resolve_q(args, rng, s1, s2):
    if args.q_mode == "fixed":
        if args.q is None:
            raise UsageError("--q is required when --q-mode is fixed")
        return _parse_vec3(args.q)
    if args.q_mode == "uniform":
        return uniform_sample(rng, 1)[0]
    # scan-best: highest squared-trace separation over a random grid; the
    # first maximum is the row a tr2 observation_scan would rank first
    grid = uniform_sample(rng, args.grid)
    return unit_point(grid[int(np.argmax(tr2_scores(s1, s2, grid)))])


_TEST_HEADER = ["run", "qx", "qy", "qz", "T_xi", "p_xi", "T_d", "p_d",
                "W_xi", "pW_xi", "W_d", "pW_d"]

# Runs tested per batched pass (one projection pass, one rank-test call per
# statistic). Blocks keep the batch arrays small: 500 runs of m = 50 in one
# pass raise the peak memory of the command from 39 MB to 47 MB.
_BLOCK_RUNS = 64


def _draw_run(args, draw, rng):
    """One replication's samples and observation point, drawn in run order."""
    s1, s2 = draw(rng)
    q = _resolve_q(args, rng, s1, s2)
    if args.rotate2 is not None:
        s2 = rotate_sample(s2, q, args.rotate2)
    return s1, s2, q


def _test_block(start: int, drawn: list, alpha: float):
    """Both procedures for consecutive runs from start; raises for the first failing run."""
    s1, s2, q = (np.stack(a) for a in zip(*drawn))
    try:
        procedures = batch_procedures(s1, s2, q, alpha)
    except SphereCovError as exc:
        # The projection pass fails as a whole; test run by run to name the first failure.
        if len(drawn) == 1:
            raise type(exc)(f"run {start}: {exc}") from exc
        for r in range(len(drawn)):
            _test_block(start + r, drawn[r:r + 1], alpha)
        raise
    tested = [p for p in procedures if p is not None]
    bad = np.flatnonzero(np.any([p.degenerate for p in tested], axis=0))
    if len(bad):
        r = int(bad[0])
        msg = next(filter(None, (p.error(r) for p in tested)))
        raise TooFewPairsError(f"run {start + r}: {msg}")
    return q, procedures


def _block_rows(start: int, drawn: list, alpha: float, rejections: Counter,
                methods: Counter) -> list:
    """runs.csv rows of a block of runs; counts rejections and rank-test methods."""
    q, procedures = _test_block(start, drawn, alpha)
    cols = [range(start, start + len(q)), q[:, 0], q[:, 1], q[:, 2]]
    for p, (xi_name, d_name) in zip(procedures, (("T_xi", "T_d"), ("W_xi", "W_d"))):
        if p is None:
            cols += [[None] * len(q)] * 4
            continue
        cols += [p.stat_xi, p.min_p, p.d_test.statistic, p.d_test.p_value]
        rejections.update({xi_name: int(np.count_nonzero(p.reject)),
                           d_name: int(np.count_nonzero(p.d_test.p_value < alpha))})
        for t in p.tests:
            exact = int(np.count_nonzero(t.exact))
            methods.update(exact=exact, normal_approx=t.exact.size - exact)
    return list(zip(*cols))


def cmd_test(args) -> int:
    draw, stochastic, desc, tally = _sample_source(args)
    stochastic = stochastic or args.q_mode != "fixed"
    seed = _require_seed(args, "the run is stochastic") if stochastic else args.seed
    if args.runs <= 0:
        raise UsageError("--runs must be positive")
    if not 0.0 < args.alpha < 1.0:
        raise UsageError("--alpha must lie in (0, 1)")
    children = np.random.SeedSequence(seed).spawn(args.runs) if stochastic else [None] * args.runs

    rows = []
    rejections = Counter()
    methods = Counter(exact=0, normal_approx=0)
    for start in range(0, args.runs, _BLOCK_RUNS):
        drawn, failure = [], None
        for idx in range(start, min(start + _BLOCK_RUNS, args.runs)):
            rng = np.random.default_rng(children[idx]) if children[idx] is not None else None
            try:
                drawn.append(_draw_run(args, draw, rng))
            except SphereCovError as exc:
                # raised after the earlier runs of the block are tested, as in run order
                failure = (idx, exc)
                break
        if drawn:
            rows += _block_rows(start, drawn, args.alpha, rejections, methods)
        if failure is not None:
            idx, exc = failure
            raise type(exc)(f"run {idx}: {exc}") from exc

    out = _out_dir(args)
    runs_path = io.write_table(out / "runs", _TEST_HEADER, rows, args.format)
    rates = {name: n / args.runs for name, n in rejections.items()}
    summary = {"alpha": args.alpha, "runs": args.runs, "rejection_rates": rates}
    summary_path = io.write_json(out / "summary.json", summary)

    # a run with too few nonzero differences ends the command, so none is left
    stats = {"rank_tests": dict(methods), "degenerate_rows": 0, **_sampler_stats(tally)}
    params = dict(desc, q=args.q, q_mode=args.q_mode, grid=args.grid,
                  rotate2=args.rotate2, runs=args.runs, alpha=args.alpha,
                  format=args.format)
    io.write_run_manifest(out, "test", params, seed,
                          [runs_path.name, summary_path.name], stats=stats)
    return 0


# ------------------------------------------------------------------ scan ---

_SCAN_HEADER = ["qx", "qy", "qz", "tr2", "det", "lambda1", "lambda2",
                "T_xi", "p_xi", "T_d", "p_d", "W_xi", "pW_xi", "W_d", "pW_d",
                "error"]


def _scan_row_cells(row):
    cells = [row.q[0], row.q[1], row.q[2], row.tr2, row.det,
             row.eigvals[0], row.eigvals[1]]
    if row.paired is not None:
        cells += [row.paired.stat_xi, row.paired.min_p,
                  row.paired.d_test.statistic, row.paired.d_test.p_value]
    else:
        cells += [None, None, None, None]
    if row.unpaired is not None:
        cells += [row.unpaired.stat_xi, row.unpaired.min_p,
                  row.unpaired.d_test.statistic, row.unpaired.d_test.p_value]
    else:
        cells += [None, None, None, None]
    cells.append(row.error)
    return cells


def cmd_scan(args) -> int:
    draw, stochastic, desc, tally = _sample_source(args)
    seed = _require_seed(args, "the candidate grid is random")
    if args.grid <= 0:
        raise UsageError("--grid must be positive")
    rng = np.random.default_rng(seed)
    s1, s2 = draw(rng)
    grid = uniform_sample(rng, args.grid)
    rows = observation_scan(s1, s2, grid, criterion=args.criterion,
                            alpha=args.alpha)
    out = _out_dir(args)
    scan_path = io.write_table(out / "scan", _SCAN_HEADER,
                               [_scan_row_cells(r) for r in rows], args.format)
    area_pos, area_neg = det_sign_areas(s1, s2, grid)
    summary = {"criterion": args.criterion, "grid": args.grid,
               "det_area_positive": area_pos, "det_area_negative": area_neg}
    summary_path = io.write_json(out / "summary.json", summary)
    outcomes = [o for r in rows for o in (r.paired, r.unpaired) if o is not None]
    methods = [t.method for o in outcomes for t in (*o.components, o.d_test)]
    stats = {"rank_tests": {"exact": methods.count("exact"),
                            "normal_approx": methods.count("normal_approx")},
             "degenerate_rows": sum(r.error is not None for r in rows),
             **_sampler_stats(tally)}
    params = dict(desc, grid=args.grid, criterion=args.criterion,
                  alpha=args.alpha, format=args.format)
    io.write_run_manifest(out, "scan", params, seed,
                          [scan_path.name, summary_path.name], stats=stats)
    return 0


# --------------------------------------------------------------- profile ---

def cmd_profile(args) -> int:
    draw, stochastic, desc, _ = _sample_source(args)
    needs_rng = stochastic or args.q_extreme is not None
    seed = _require_seed(args, "the run is stochastic") if needs_rng else args.seed
    rng = np.random.default_rng(seed) if needs_rng else None
    s1, s2 = draw(rng)
    if args.q_extreme is not None:
        grid = uniform_sample(rng, args.grid)
        tr2 = tr2_scores(s1, s2, grid)
        idx = int(np.argmin(tr2)) if args.q_extreme == "min" else int(np.argmax(tr2))
        q = grid[idx]
    elif args.q is not None:
        q = _parse_vec3(args.q)
    else:
        raise UsageError("give --q or --q-extreme")

    prof1 = sample_profile(q, s1, n_dirs=args.dirs)
    prof2 = sample_profile(q, s2, n_dirs=args.dirs)
    proj = projections_at(q, s1, s2)
    diff = operator_profile(proj.lhat, n_dirs=args.dirs)

    rows = []
    for sid, prof in (("1", prof1), ("2", prof2)):
        for i in range(prof.values.shape[0]):
            for t, theta in enumerate(prof.thetas):
                rows.append([theta, sid, i, prof.values[i, t]])
    for t, theta in enumerate(prof1.thetas):
        rows.append([theta, "diff", -1, diff[t]])

    out = _out_dir(args)
    prof_path = io.write_table(out / "profile",
                               ["theta", "sample_id", "point_id", "xi"],
                               rows, args.format)
    summary = {
        "q": q, "q_mode": args.q_extreme or "fixed", "dirs": args.dirs,
        "tr2": float(_tr2(proj.lhat)),
        "eigvals": proj.eigvals,
    }
    summary_path = io.write_json(out / "summary.json", summary)
    params = dict(desc, q=args.q, q_extreme=args.q_extreme, grid=args.grid,
                  dirs=args.dirs, format=args.format)
    io.write_run_manifest(out, "profile", params, seed,
                          [prof_path.name, summary_path.name])
    return 0


# ---------------------------------------------------------------- interp ---

def _interp_methods(problem, kernels, result):
    alpha = problem.alpha
    lin = linear_interp(alpha, problem.endpoints)
    root = sqroot_interp(alpha, problem.endpoints)
    entries = [(problem.invariant, result.f_hat, result.objective,
                result.converged, result.iterations)]
    for name, f in (("linear", lin), ("sqroot", root)):
        try:
            obj = eval_H(f, problem, kernels)
        except SphereCovError:
            obj = None
        entries.append((name, f, obj, True, 0))
    return entries


def _solver_stats(results) -> dict:
    reasons = [r for res in results for r in res.stop_reasons]
    return {"starts": len(reasons), "starts_failed": reasons.count("singular_start"),
            "stop_reasons": {r: reasons.count(r) for r in STOP_REASONS},
            "loop_trips": sum(res.loop_trips for res in results),
            "objective_rounds": sum(res.objective_rounds for res in results)}


def cmd_interp(args) -> int:
    if args.problem is None:
        raise UsageError("--problem is required")
    problem, solver = io.load_problem(args.problem)
    if args.max_iter is not None:
        solver["max_iter"] = args.max_iter
    if args.tol is not None:
        solver["tol"] = args.tol
    if args.restarts is not None:
        solver["restarts"] = args.restarts
    seed = args.seed if args.seed is not None else solver.get("seed", 0)
    kernels = precompute(problem)
    check = rank_check(problem, kernels)
    if not check["admissible"]:
        print(
            f"inadmissible problem: kernel ranks A={check['rank_A']} "
            f"B={check['rank_B']} with k={problem.k}",
            file=sys.stderr,
        )
        return 3
    solve_kw = dict(max_iter=solver["max_iter"], tol=solver["tol"],
                    restarts=solver["restarts"], seed=seed)
    out = _out_dir(args)
    outputs = []
    if args.alpha_steps is not None:
        if problem.m != 2:
            raise UsageError("--alpha-steps sweeps need exactly two endpoints")
        if args.alpha_steps < 2:
            raise UsageError("--alpha-steps must be at least 2")
        ts = np.linspace(0.0, 1.0, args.alpha_steps)
        header = (["alpha", "method", "objective", "mse", "fa", "converged",
                   "iterations"] + [f"f_{i}" for i in range(problem.k)])
        path = [np.array([1.0 - t, t]) for t in ts]
        results, _, _ = consistency_sweep(problem, path, kernels, **solve_kw)
        rows = []
        for t, alpha, res in zip(ts, path, results):
            sub = problem.with_alpha(alpha)
            for name, f, obj, conv, iters in _interp_methods(sub, kernels, res):
                rows.append([t, name, obj,
                             mse(f, sub.endpoints, sub.alpha),
                             fractional_anisotropy(f, sub.domain),
                             conv, iters] + list(f))
        outputs.append(io.write_table(out / "interp", header, rows, args.format))
    else:
        res = solve(problem, kernels, record_trace=True, **solve_kw)
        results = [res]
        outputs.append(io.write_result(
            out / "result.json", res,
            extra={"invariant": problem.invariant, "alpha": problem.alpha,
                   "mse": mse(res.f_hat, problem.endpoints, problem.alpha),
                   "fa": fractional_anisotropy(res.f_hat, problem.domain)},
        ))
        outputs.append(io.write_trace(out / "trace", res.trace, args.format))
    params = {"problem": args.problem, "alpha_steps": args.alpha_steps,
              "solver": solver, "format": args.format}
    io.write_run_manifest(out, "interp", params, seed, [p.name for p in outputs],
                          stats=_solver_stats(results))
    return 0


# ----------------------------------------------------------------- check ---

def _synthetic_problem(rng):
    domain = uniform_sample(rng, 6)
    endpoints = random_pmfs(rng, 6, 2)
    return make_problem(domain, endpoints, [0.5, 0.5], "trln2")


def _invariance_relerr(rng, n_congruences: int = 200) -> float:
    worst = 0.0
    for _ in range(n_congruences):
        a = rng.normal(size=(2, 2))
        x = a @ a.T + 0.1 * np.eye(2)
        b = rng.normal(size=(2, 2))
        y = b @ b.T + 0.1 * np.eye(2)
        c = rng.normal(size=(2, 2))
        z = c @ c.T + 0.1 * np.eye(2)
        g = rng.normal(size=(2, 2))
        while abs(np.linalg.det(g)) < 0.1:
            g = rng.normal(size=(2, 2))
        gx, gy, gz = g @ x @ g.T, g @ y @ g.T, g @ z @ g.T
        # the trace-difference form is invariant only jointly with its
        # reference operator; the other three need no reference
        pairs = [
            (h_trdif(x, y, z), h_trdif(gx, gy, gz)),
            (h_trln2(x, y), h_trln2(gx, gy)),
            (h_lik(x, y), h_lik(gx, gy)),
            (h_lnpr(x, y), h_lnpr(gx, gy)),
        ]
        for v0, v1 in pairs:
            worst = max(worst, abs(v0 - v1) / max(1.0, abs(v0)))
    return worst


def _weight_identity_err() -> float:
    t = np.linspace(1e-8, np.pi - 1e-12, 4001)
    lhs = t ** 2 * weight_value("pihalf", t)
    rhs = (t - np.pi / 2.0) ** 2
    return float(np.max(np.abs(lhs - rhs)))


def _projection_identity_err(rng) -> float:
    s1 = uniform_sample(rng, 40)
    s2 = uniform_sample(rng, 40)
    q = uniform_sample(rng, 1)[0]
    proj = projections_at(q, s1, s2)
    worst = float(np.max(np.abs(proj.xi1.sum(axis=1) - proj.dsq1)))
    worst = max(worst, float(np.max(np.abs(proj.xi2.sum(axis=1) - proj.dsq2))))
    lam = (proj.xi1.mean(axis=0) - proj.xi2.mean(axis=0))
    worst = max(worst, float(np.max(np.abs(lam - proj.eigvals))))
    return worst


def _gradient_fd_relerr(problem, kernels, rng) -> float:
    f = random_pmfs(rng, problem.k, 1)[0]
    g = grad_H(f, problem, kernels)
    h = 1e-6
    fd = np.empty(problem.k)
    for i in range(problem.k):
        e = np.zeros(problem.k)
        e[i] = h
        fd[i] = (eval_H(f + e, problem, kernels) - eval_H(f - e, problem, kernels)) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(g - fd))) / scale


def cmd_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    if args.problem is not None:
        problem, _ = io.load_problem(args.problem)
    else:
        problem = _synthetic_problem(rng)
    kernels = precompute(problem)
    rank = rank_check(problem, kernels)

    x, y, z = np.eye(2), 2.0 * np.eye(2), 4.0 * np.eye(2)
    lik_violation = h_lik(x, z) > h_lik(x, y) + h_lik(y, z) + 1e-12

    report = {
        "rank": rank,
        "invariance_max_relerr": _invariance_relerr(rng),
        "lik_triangle_violation_found": bool(lik_violation),
        "weight_identity_max_err": _weight_identity_err(),
        "projection_identity_max_err": _projection_identity_err(rng),
        "gradient_fd_max_relerr": _gradient_fd_relerr(problem, kernels, rng),
    }
    passed = (
        rank["admissible"]
        and report["invariance_max_relerr"] <= 1e-8
        and report["lik_triangle_violation_found"]
        and report["weight_identity_max_err"] <= 1e-12
        and report["projection_identity_max_err"] <= 1e-10
        and report["gradient_fd_max_relerr"] <= 1e-5
    )
    report["passed"] = passed
    out = _out_dir(args)
    check_path = io.write_json(out / "check.json", report)
    io.write_run_manifest(out, "check",
                          {"problem": args.problem, "format": args.format},
                          seed, [check_path.name])
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0 if passed else 3


# ---------------------------------------------------------------- parser ---

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed; required for stochastic commands")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")

    parser = argparse.ArgumentParser(
        prog="spherecov",
        description="covariance operator field workbench on the unit sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common],
                       help="draw from a ring density")
    p.add_argument("--a", type=float, required=True, help="ring radius parameter")
    p.add_argument("--mu", default="0,0,1", help="ring center x,y,z")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--concentration", choices=("quartic", "squared"),
                   default="quartic")
    p.set_defaults(func=cmd_sample)

    def add_samples(p):
        p.add_argument("--sample1", default=None, help="first sample CSV/JSON")
        p.add_argument("--sample2", default=None, help="second sample CSV/JSON")
        p.add_argument("--a1", type=float, default=None)
        p.add_argument("--a2", type=float, default=None)
        p.add_argument("--mu1", default="0,0,1")
        p.add_argument("--mu2", default="0,0,1")
        p.add_argument("--m1", type=int, default=50)
        p.add_argument("--m2", type=int, default=None)
        p.add_argument("--concentration", choices=("quartic", "squared"),
                       default="quartic")

    p = sub.add_parser("test", parents=[common],
                       help="two-sample procedures over repeated draws")
    add_samples(p)
    p.add_argument("--q", default=None, help="observation point x,y,z")
    p.add_argument("--q-mode", choices=("fixed", "uniform", "scan-best"),
                   default="fixed")
    p.add_argument("--grid", type=int, default=50,
                   help="candidate grid size for scan-best")
    p.add_argument("--rotate2", type=float, default=None,
                   help="rotate the second sample about q by this angle")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("scan", parents=[common],
                       help="rank candidate observation points")
    add_samples(p)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--criterion", choices=("tr2", "det", "uniform"),
                   default="tr2")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("profile", parents=[common],
                       help="xi projections along tangent directions")
    add_samples(p)
    p.add_argument("--q", default=None)
    p.add_argument("--q-extreme", choices=("min", "max"), default=None,
                   help="pick q minimizing/maximizing tr^2 over a random grid")
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--dirs", type=int, default=50)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("interp", parents=[common],
                       help="solve or sweep an interpolation problem")
    p.add_argument("--problem", required=True, help="problem JSON path")
    p.add_argument("--alpha-steps", type=int, default=None,
                   help="sweep this many alpha values over [0, 1]")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("check", parents=[common],
                       help="rank conditions and numerical self-tests")
    p.add_argument("--problem", default=None, help="problem JSON path")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except IterationLimitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except SphereCovError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
