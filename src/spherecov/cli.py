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
import functools
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import IterationLimitError, SphereCovError, TooFewPairsError
from .fields import weight_value
from .geometry import rotate_points, uniform_sample, unit_point, unit_points
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
from .sampling import (RingDensity, rejection_sample, rejection_sample_rows, spawn_states,
                       state_generators)
from .simplex import random_pmfs
from .spd import h_lik, h_lnpr, h_trdif, h_trln2
from .twosample import (
    _PROCEDURE_COLUMNS,
    _block,
    _block_rows,
    _candidate_blocks,
    _scan_order,
    _tr2,
    operator_profile,
    projections_at,
    sample_profile,
    tr2_scores,
)

__all__ = ["main", "build_parser"]


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return unit_point(np.array([float(p) for p in parts]))
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc


def _require_seed(args, why: str) -> int:
    if args.seed is None:
        raise ValueError(f"--seed is required ({why})")
    return args.seed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_grid(args) -> None:
    if args.grid <= 0:
        raise ValueError("--grid must be positive")


def _require_alpha(args) -> None:
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie in (0, 1)")


def _require_rotate2(args) -> None:
    if args.rotate2 is not None and not np.isfinite(args.rotate2):
        raise ValueError("--rotate2 must be finite")


def _ring_params(a, mu, concentration) -> RingDensity:
    return RingDensity(a=a, mu=_parse_vec3(mu), concentration=concentration)


# ---------------------------------------------------------------- sample ---

def cmd_sample(args) -> int:
    seed = _require_seed(args, "sampling is stochastic")
    if args.n <= 0:
        raise ValueError("--n must be a positive integer")
    params = _ring_params(args.a, args.mu, args.concentration)
    rng = np.random.default_rng(seed)
    points, proposals = rejection_sample(params, args.n, rng, return_proposals=True)
    out = _out_dir(args)
    path = io.write_points(out / "points", points, args.format)
    io.write_run_manifest(
        out, "sample",
        {"a": args.a, "mu": args.mu, "n": args.n,
         "concentration": args.concentration, "format": args.format},
        seed, [path.name], stats=_sampler_stats(args.n, proposals),
    )
    return 0


# ------------------------------------------------------------------ test ---

def _read_sample(path, flag: str) -> np.ndarray:
    """The (n, 3) points of a sample file, n >= 1; a bad file is a ValueError naming it."""
    try:
        points = io.read_points(path)
    except TypeError as exc:  # a null JSON cell
        raise ValueError(f"{path}: {exc}") from exc
    if not len(points):
        raise ValueError(f"{flag} {path} holds no points")
    return points


def _sample_source(args):
    """Returns (draw_rows, stochastic, description dict, sizes).

    draw_rows(rngs) gives one run per generator as stacks (R, m1, 3) and
    (R, m2, 3), and the sampler proposals made for them, 0 in file mode; each
    generator draws s1, then s2. sizes is (m1, m2).
    """
    file_mode = args.sample1 is not None or args.sample2 is not None
    if file_mode:
        if not (args.sample1 and args.sample2):
            raise ValueError("--sample1 and --sample2 must be given together")
        s1, s2 = _read_sample(args.sample1, "--sample1"), _read_sample(args.sample2, "--sample2")
        desc = {"sample1": args.sample1, "sample2": args.sample2}

        def draw_files(rngs):
            return (np.broadcast_to(s1, (len(rngs),) + s1.shape),
                    np.broadcast_to(s2, (len(rngs),) + s2.shape), 0)

        return draw_files, False, desc, (len(s1), len(s2))
    if args.a1 is None or args.a2 is None:
        raise ValueError("give --sample1/--sample2 files or --a1/--a2 generator parameters")
    p1 = _ring_params(args.a1, args.mu1, args.concentration)
    p2 = _ring_params(args.a2, args.mu2, args.concentration)
    m1 = args.m1
    m2 = args.m2 if args.m2 is not None else m1
    if m1 <= 0 or m2 <= 0:
        raise ValueError("sample sizes must be positive")

    def draw_rows(rngs):
        s1, n1 = rejection_sample_rows(p1, m1, rngs)
        s2, n2 = rejection_sample_rows(p2, m2, rngs)
        return s1, s2, int(n1.sum() + n2.sum())

    desc = {"a1": args.a1, "a2": args.a2, "mu1": args.mu1, "mu2": args.mu2,
            "m1": m1, "m2": m2, "concentration": args.concentration}
    return draw_rows, True, desc, (m1, m2)


def _sampler_stats(points: int, proposals: int) -> dict:
    """The manifest's sampler entries for points drawn from proposals; none for 0 proposals,
    where the points come from files."""
    return {"acceptance_rate": points / proposals, "proposals": proposals} if proposals else {}


def _fixed_q(args):
    """The parsed --q in fixed q mode, None in the other modes."""
    if args.q_mode != "fixed":
        return None
    if args.q is None:
        raise ValueError("--q is required when --q-mode is fixed")
    return _parse_vec3(args.q)


def _tr2_pick(rng, size: int, s1, s2, pick):
    """Row of a uniform grid of size points that pick (np.argmax or np.argmin) takes by tr2
    score; np.argmax takes the row a tr2 observation_scan ranks first."""
    grid = uniform_sample(rng, size)
    return grid[int(pick(tr2_scores(s1, s2, grid)))]


def _resolve_q(args, rng, s1, s2, fixed):
    """One run's observation point; fixed is _fixed_q(args)."""
    if args.q_mode == "fixed":
        return fixed
    if args.q_mode == "uniform":
        return uniform_sample(rng, 1)[0]
    # scan-best: highest squared-trace separation over a random grid
    return _tr2_pick(rng, args.grid, s1, s2, np.argmax)


def _rank_test_stats(counts: list) -> dict:
    """The manifest's rank_tests entry from the blocks' (exact, all) test counts."""
    exact, tested = np.sum(counts, axis=0).tolist()
    return {"exact": exact, "normal_approx": tested - exact}


def _joined(parts: list) -> list:
    """The per-row fields of consecutive blocks, each joined along its row axis.

    parts holds one tuple of fields per block and is emptied, so each field's
    blocks are freed as soon as that field is joined.
    """
    fields = [list(f) for f in zip(*parts)]
    parts.clear()
    return [np.hstack(fields.pop(0)) for _ in range(len(fields))]


def _tested_runs(args, states, draw_rows, fixed, size: int) -> tuple:
    """q.T (3, R), the T/W values and blank mask (8, R), the rank_tests stats and the sampler
    proposals of the test runs, drawn and tested in blocks of up to size consecutive runs, one
    per row of spawn_states' words (states is None in file mode with a fixed q, where no run
    draws).

    The first failure ends the test, named by its run, once the runs before it are tested: a
    block whose projection pass fails is tested again run by run, and a run whose q cannot be
    drawn fails after the earlier runs of its block.
    """
    columns, counts, done, proposals = [], [], 0, 0
    try:
        for start in range(0, args.runs, size):
            # every generator draws s1, then s2, then its q: the order of a run drawn alone
            rngs = (state_generators(states[start:start + size]) if states is not None
                    else [None] * min(size, args.runs - start))
            s1, s2, drawn = draw_rows(rngs)
            proposals += drawn
            qs, failure = [], None
            try:
                for r, rng in enumerate(rngs):
                    qs.append(_resolve_q(args, rng, s1[r], s2[r], fixed))
            except SphereCovError as exc:
                failure = exc
            if qs:
                q, s1, s2 = np.stack(qs), s1[:len(qs)], s2[:len(qs)]
                if args.rotate2 is not None:
                    s2 = np.stack([rotate_points(p, c, args.rotate2) for p, c in zip(s2, q)])
                try:
                    tested = [_block(q, s1, s2, args.alpha)]
                except SphereCovError:
                    tested = (_block(*(a[r:r + 1] for a in (q, s1, s2)), args.alpha)
                              for r in range(len(q)))
                for block in tested:
                    bad = np.flatnonzero(np.not_equal(block.errors, None))
                    if len(bad):
                        done += int(bad[0])
                        # the message of the run's first degenerate procedure
                        raise TooFewPairsError(next(filter(None, (
                            p.error(bad[0]) for p in block.procedures if p is not None))))
                    columns.append((block.q.T, block.values, block.blank))
                    counts.append(block.counts)
                    done += len(block.q)
                del q, tested, block
            if failure is not None:
                raise failure
            del s1, s2  # so the block's samples are freed before the next one is drawn
    except SphereCovError as exc:
        raise type(exc)(f"run {done}: {exc}") from exc
    return (*_joined(columns), _rank_test_stats(counts), proposals)


def cmd_test(args) -> int:
    draw_rows, stochastic, desc, sizes = _sample_source(args)
    stochastic = stochastic or args.q_mode != "fixed"
    seed = _require_seed(args, "the run is stochastic") if stochastic else args.seed
    if args.runs <= 0:
        raise ValueError("--runs must be positive")
    _require_alpha(args)
    _require_rotate2(args)
    if args.q_mode == "scan-best":
        _require_grid(args)
    fixed = _fixed_q(args)
    # run r draws from the generator of SeedSequence(seed).spawn(runs)[r]
    states = spawn_states(seed, args.runs) if stochastic else None

    q, values, blank, methods, proposals = _tested_runs(
        args, states, draw_rows, fixed, _block_rows(*sizes))
    out = _out_dir(args)
    columns = {"run": np.arange(args.runs), **dict(zip(("qx", "qy", "qz"), q)),
               **dict(zip(_PROCEDURE_COLUMNS, zip(values, blank)))}
    runs_path = io.write_table(out / "runs", columns, args.format)
    # rejections of the procedures that ran: min p below alpha/2 (xi), p below alpha (d)
    rates = {name: np.count_nonzero(columns[p][0] < cut) / args.runs
             for name, p, cut in (("T_xi", "p_xi", args.alpha / 2.0), ("T_d", "p_d", args.alpha),
                                  ("W_xi", "pW_xi", args.alpha / 2.0), ("W_d", "pW_d", args.alpha))
             if not columns[p][1].any()}
    summary = {"alpha": args.alpha, "runs": args.runs, "rejection_rates": rates}
    summary_path = io.write_json(out / "summary.json", summary)

    # a run with too few nonzero differences ends the command, so none is left
    stats = {"rank_tests": methods, "degenerate_rows": 0,
             **_sampler_stats(args.runs * sum(sizes), proposals)}
    params = dict(desc, q=args.q, q_mode=args.q_mode, grid=args.grid,
                  rotate2=args.rotate2, runs=args.runs, alpha=args.alpha,
                  format=args.format)
    io.write_run_manifest(out, "test", params, seed,
                          [runs_path.name, summary_path.name], stats=stats)
    return 0


# ------------------------------------------------------------------ scan ---

def cmd_scan(args) -> int:
    draw_rows, _, desc, sizes = _sample_source(args)
    seed = _require_seed(args, "the candidate grid is random")
    _require_grid(args)
    _require_alpha(args)
    rng = np.random.default_rng(seed)
    (s1,), (s2,), proposals = draw_rows([rng])
    grid = uniform_sample(rng, args.grid)
    parts, counts = [], []
    for block in (_block(*rows, args.alpha) for rows in _candidate_blocks(grid, s1, s2)):
        parts.append((block.tr2, block.det, block.proj.eigvals.T, block.values, block.blank,
                      block.errors))
        counts.append(block.counts)
    tr2, det, lam, values, blank, errors = _joined(parts)
    q = unit_points(grid).T
    order = _scan_order(args.criterion, tr2, det)
    for a in (tr2, det, errors, *q, *lam, *values, *blank):
        a[:] = a[order]  # in place, one column's copy at a time
    columns = {**dict(zip(("qx", "qy", "qz"), q)), "tr2": tr2, "det": det,
               "lambda1": lam[0], "lambda2": lam[1],
               **dict(zip(_PROCEDURE_COLUMNS, zip(values, blank))), "error": errors}
    out = _out_dir(args)
    scan_path = io.write_table(out / "scan", columns, args.format)
    area_pos = float(np.mean(det > 0.0))
    summary = {"criterion": args.criterion, "grid": args.grid,
               "det_area_positive": area_pos, "det_area_negative": 1.0 - area_pos}
    summary_path = io.write_json(out / "summary.json", summary)
    stats = {"rank_tests": _rank_test_stats(counts),
             "degenerate_rows": sum(e is not None for e in errors),
             **_sampler_stats(sum(sizes), proposals)}
    params = dict(desc, grid=args.grid, criterion=args.criterion,
                  alpha=args.alpha, format=args.format)
    io.write_run_manifest(out, "scan", params, seed,
                          [scan_path.name, summary_path.name], stats=stats)
    return 0


# --------------------------------------------------------------- profile ---

def cmd_profile(args) -> int:
    draw_rows, stochastic, desc, _ = _sample_source(args)
    needs_rng = stochastic or args.q_extreme is not None
    seed = _require_seed(args, "the run is stochastic") if needs_rng else args.seed
    if args.q_extreme is not None:
        _require_grid(args)
    if args.dirs < 3:
        raise ValueError("--dirs must be at least 3")
    rng = np.random.default_rng(seed) if needs_rng else None
    (s1,), (s2,), _ = draw_rows([rng])
    if args.q_extreme is not None:
        q = _tr2_pick(rng, args.grid, s1, s2, np.argmin if args.q_extreme == "min" else np.argmax)
    elif args.q is not None:
        q = _parse_vec3(args.q)
    else:
        raise ValueError("give --q or --q-extreme")

    prof1 = sample_profile(q, s1, n_dirs=args.dirs)
    prof2 = sample_profile(q, s2, n_dirs=args.dirs)
    proj = projections_at(q, s1, s2)
    diff = operator_profile(proj.lhat, n_dirs=args.dirs)

    # one row per (point, direction) of each sample, then one per direction of diff
    n1, n2, dirs = len(prof1.values), len(prof2.values), len(prof1.thetas)
    columns = {"theta": np.tile(prof1.thetas, n1 + n2 + 1),
               "sample_id": ["1"] * (n1 * dirs) + ["2"] * (n2 * dirs) + ["diff"] * dirs,
               "point_id": np.concatenate([np.arange(n1).repeat(dirs),
                                           np.arange(n2).repeat(dirs), [-1] * dirs]),
               "xi": np.concatenate([prof1.values.ravel(), prof2.values.ravel(), diff])}
    out = _out_dir(args)
    prof_path = io.write_table(out / "profile", columns, args.format)
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
            "searched_trips": sum(res.searched_trips for res in results),
            "objective_rounds": sum(res.objective_rounds for res in results)}


def cmd_interp(args) -> int:
    problem, solver = io.load_problem(args.problem)
    overrides = {"max_iter": args.max_iter, "tol": args.tol, "restarts": args.restarts}
    solver.update((key, value) for key, value in overrides.items() if value is not None)
    seed = args.seed if args.seed is not None else solver["seed"]
    kernels = precompute(problem)
    check = rank_check(problem, kernels)
    if not check["admissible"]:
        print(
            f"inadmissible problem: kernel ranks A={check['rank_A']} "
            f"B={check['rank_B']} with k={problem.k}",
            file=sys.stderr,
        )
        return 3
    solve_kw = dict(solver, seed=seed)
    if args.alpha_steps is not None:
        if problem.m != 2:
            raise ValueError("--alpha-steps sweeps need exactly two endpoints")
        if args.alpha_steps < 2:
            raise ValueError("--alpha-steps must be at least 2")
        ts = np.linspace(0.0, 1.0, args.alpha_steps)
        path = [np.array([1.0 - t, t]) for t in ts]
        results, _, _ = consistency_sweep(problem, path, kernels, **solve_kw)
        rows = []
        for t, alpha, res in zip(ts, path, results):
            sub = problem.with_alpha(alpha)
            for name, f, obj, conv, iters in _interp_methods(sub, kernels, res):
                rows.append((t, name, np.nan if obj is None else obj, obj is None,
                             mse(f, sub.endpoints, sub.alpha),
                             fractional_anisotropy(f, sub.domain), conv, iters, f))
        t, name, obj, failed, err, fa, conv, iters, f = map(list, zip(*rows))
        columns = {"alpha": t, "method": name, "objective": (obj, failed), "mse": err, "fa": fa,
                   "converged": conv, "iterations": iters,
                   **{f"f_{i}": col for i, col in enumerate(np.array(f).T)}}
        out = _out_dir(args)
        outputs = [io.write_table(out / "interp", columns, args.format)]
    else:
        res = solve(problem, kernels, record_trace=True, **solve_kw)
        results = [res]
        out = _out_dir(args)
        outputs = [io.write_result(
            out / "result.json", res,
            extra={"invariant": problem.invariant, "alpha": problem.alpha,
                   "mse": mse(res.f_hat, problem.endpoints, problem.alpha),
                   "fa": fractional_anisotropy(res.f_hat, problem.domain)},
        ), io.write_trace(out / "trace", res.trace, args.format)]
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


def _invariance_relerr(rng) -> float:
    draws = []
    for _ in range(200):
        xyz = [a @ a.T + 0.1 * np.eye(2) for a in (rng.normal(size=(2, 2)) for _ in range(3))]
        g = rng.normal(size=(2, 2))
        while abs(np.linalg.det(g)) < 0.1:
            g = rng.normal(size=(2, 2))
        draws.append(xyz + [g @ m @ g.T for m in xyz])
    x, y, z, gx, gy, gz = np.moveaxis(np.array(draws), 1, 0)
    # the trace-difference form is invariant only jointly with its
    # reference operator; the other three need no reference
    pairs = [
        (h_trdif(x, y, z), h_trdif(gx, gy, gz)),
        (h_trln2(x, y), h_trln2(gx, gy)),
        (h_lik(x, y), h_lik(gx, gy)),
        (h_lnpr(x, y), h_lnpr(gx, gy)),
    ]
    return max(float(np.max(np.abs(v0 - v1) / np.maximum(1.0, np.abs(v0)))) for v0, v1 in pairs)


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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared afterwards.

    main parses with this one parser too. parse_args keeps nothing between
    calls, so sharing it carries no state from one command to the next; it
    only saves building a second parser in a process that has built one. A
    one-shot spherecov process still builds exactly one.
    """
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


# argparse reads a value such as -0.3,0.1,1 as an option, not as the value of the flag before it
_VECTOR_FLAGS = frozenset({"--q", "--mu", "--mu1", "--mu2"})


def _join_vector_values(argv: list) -> list:
    """argv with each vector flag joined to a following negative number list as FLAG=VALUE.

    Only a token that starts with a minus and whose comma-separated parts all
    parse as floats is joined. Unjoined, argparse rejects such a token as an
    unknown option, or reads a lone negative number such as -1 as the same
    value, so no command line that parses today changes its meaning.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in _VECTOR_FLAGS and token.startswith("-"):
            try:
                [float(part) for part in token.split(",")]
            except ValueError:
                pass
            else:
                joined[-1] = f"{joined[-1]}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_vector_values(sys.argv[1:] if argv is None else argv))
    try:
        return int(args.func(args) or 0)
    except (IterationLimitError, np.linalg.LinAlgError, FloatingPointError) as exc:
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
