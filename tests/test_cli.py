import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from spherecov import (
    AntipodalPointError,
    IterationLimitError,
    ProcedureBatch,
    RankTestBatch,
    RingDensity,
    TooFewPairsError,
    det_sign_areas,
    make_problem,
    observation_scan,
    random_pmfs,
    rejection_sample,
    rejection_sample_rows,
    rotate_points,
    spawn_states,
    state_generators,
    tr2_scores,
    uniform_sample,
    unit_point,
    unit_points,
)
import spherecov
from spherecov import cli, twosample
from spherecov.cli import main
from spherecov import test_procedure_1 as procedure_1
from spherecov import test_procedure_2 as procedure_2
from spherecov.io import (dump_problem, fmt_float, load_problem, read_json, read_points, read_table,
                          write_json)

FIXTURE = Path(__file__).resolve().parents[1] / "src" / "spherecov" / "fixtures" / "bimodal_k6.json"


def _write_trdif_problem(path, k=5, seed=6):
    rng = np.random.default_rng(seed)
    prob = make_problem(
        uniform_sample(rng, k), random_pmfs(rng, k, 2), np.array([0.5, 0.5]), "trdif"
    )
    dump_problem(path, prob)
    return prob


def test_sample_writes_points_and_manifest(tmp_path):
    out = tmp_path / "s1"
    code = main(["sample", "--a", "0.3", "--n", "40", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    pts = read_points(out / "points.csv")
    assert pts.shape == (40, 3)
    npt.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    manifest = read_json(out / "run.json")
    assert manifest["command"] == "sample"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == ["points.csv"]
    assert manifest["stats"]["proposals"] >= 40
    assert manifest["stats"]["acceptance_rate"] == pytest.approx(
        40 / manifest["stats"]["proposals"]
    )


def test_sample_reruns_byte_identical(tmp_path):
    argv = ["sample", "--a", "0.2", "--n", "25", "--seed", "9"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "points.csv").read_bytes() == (out2 / "points.csv").read_bytes()
    assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()


def test_sample_json_format(tmp_path):
    out = tmp_path / "sj"
    assert main(["sample", "--a", "0.3", "--n", "10", "--seed", "1",
                 "--format", "json", "--out", str(out)]) == 0
    pts = read_points(out / "points.json")
    assert pts.shape == (10, 3)
    manifest = read_json(out / "run.json")
    assert manifest["outputs"] == ["points.json"]


def test_sample_usage_errors(tmp_path, capsys):
    assert main(["sample", "--a", "0.3", "--n", "0", "--seed", "1",
                 "--out", str(tmp_path)]) == 2
    assert main(["sample", "--a", "0.3", "--n", "10",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "--seed" in err


def test_test_command_generator_mode(tmp_path):
    out = tmp_path / "t1"
    code = main(["test", "--a1", "0.2", "--a2", "0.4", "--m1", "15",
                 "--runs", "6", "--q", "0,0,1", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "runs.csv")
    assert header[:4] == ["run", "qx", "qy", "qz"]
    assert len(rows) == 6
    assert [r[0] for r in rows] == [str(i) for i in range(6)]
    summary = read_json(out / "summary.json")
    rates = summary["rejection_rates"]
    assert set(rates) == {"T_xi", "T_d", "W_xi", "W_d"}
    for v in rates.values():
        assert 0.0 <= v <= 1.0
    assert summary["runs"] == 6


def test_test_command_unequal_sizes_skips_paired(tmp_path):
    out = tmp_path / "t2"
    code = main(["test", "--a1", "0.2", "--a2", "0.4", "--m1", "12",
                 "--m2", "9", "--runs", "3", "--q", "0,0,1", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "runs.csv")
    t_xi = header.index("T_xi")
    for row in rows:
        assert row[t_xi] == ""
        assert row[header.index("p_d")] == ""
        assert row[header.index("pW_d")] != ""
    rates = read_json(out / "summary.json")["rejection_rates"]
    assert set(rates) == {"W_xi", "W_d"}


def test_test_command_file_mode_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--a", "0.2", "--n", "20", "--seed", "1", "--out", str(d1)]) == 0
    assert main(["sample", "--a", "0.5", "--n", "20", "--seed", "2", "--out", str(d2)]) == 0
    out = tmp_path / "t3"
    code = main(["test", "--sample1", str(d1 / "points.csv"),
                 "--sample2", str(d2 / "points.csv"),
                 "--q", "0,0,1", "--runs", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_table(out / "runs.csv")
    assert len(rows) == 1
    manifest = read_json(out / "run.json")
    assert manifest["seed"] is None
    # mixing file and generator inputs is rejected
    assert main(["test", "--sample1", str(d1 / "points.csv"), "--q", "0,0,1",
                 "--out", str(out)]) == 2


def test_test_command_validation(tmp_path):
    base = ["test", "--a1", "0.2", "--a2", "0.3", "--seed", "1",
            "--out", str(tmp_path)]
    assert main(base + ["--runs", "0", "--q", "0,0,1"]) == 2
    assert main(base + ["--runs", "2", "--q", "0,0,1", "--alpha", "1.5"]) == 2
    # fixed q mode requires --q
    assert main(base + ["--runs", "2"]) == 2
    # malformed q vector
    assert main(base + ["--runs", "2", "--q", "1,2"]) == 2


def test_test_runs_beyond_one_spawn_key_word_exit_2_before_allocating(tmp_path, capsys):
    # the run keys were one (runs,) uint32 array: a MemoryError here, or wrong keys with 16 GB
    out = tmp_path / "never"
    tracemalloc.start()
    try:
        code = main(["test", "--a1", "0.2", "--a2", "0.3", "--q", "0,0,1", "--runs", str(2**32),
                     "--seed", "0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1e6
    assert capsys.readouterr().err == "usage error: runs must be below 2**32, got 4294967296\n"
    assert not out.exists()


def test_scan_sorted_by_criterion(tmp_path):
    out = tmp_path / "sc"
    code = main(["scan", "--a1", "0.2", "--a2", "0.5", "--m1", "15",
                 "--grid", "9", "--seed", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "scan.csv")
    assert len(rows) == 9
    tr2 = [float(r[header.index("tr2")]) for r in rows]
    assert tr2 == sorted(tr2, reverse=True)
    summary = read_json(out / "summary.json")
    assert summary["criterion"] == "tr2"
    assert summary["det_area_positive"] + summary["det_area_negative"] == pytest.approx(1.0)


def test_scan_identical_samples_records_errors(tmp_path):
    d1 = tmp_path / "pts"
    assert main(["sample", "--a", "0.3", "--n", "15", "--seed", "8", "--out", str(d1)]) == 0
    out = tmp_path / "sc2"
    pts = str(d1 / "points.csv")
    code = main(["scan", "--sample1", pts, "--sample2", pts, "--grid", "4",
                 "--criterion", "uniform", "--seed", "2", "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "scan.csv")
    for row in rows:
        assert float(row[header.index("tr2")]) == pytest.approx(0.0, abs=1e-20)
        assert row[header.index("error")] == "0 nonzero differences, need at least 5"
        assert row[header.index("T_xi")] == ""
        assert float(row[header.index("pW_d")]) == 1.0


def _expected_scan(argv):
    """scan.csv rows, det_area_positive and rank-test counts rebuilt from observation_scan.

    The draws follow the command: one generator draws s1, then s2, then the grid.
    """
    args = cli.build_parser().parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.sample1 is not None:
        s1, s2 = read_points(args.sample1), read_points(args.sample2)
    else:
        mu = unit_point([0.0, 0.0, 1.0])
        s1 = rejection_sample(RingDensity(a=args.a1, mu=mu), args.m1, rng)
        s2 = rejection_sample(RingDensity(a=args.a2, mu=mu), args.m2 or args.m1, rng)
    grid = uniform_sample(rng, args.grid)
    rows = observation_scan(s1, s2, grid, criterion=args.criterion, alpha=args.alpha)
    cells = []
    for r in rows:
        row = [*r.q, r.tr2, r.det, *r.eigvals]
        for o in (r.paired, r.unpaired):
            row += [None] * 4 if o is None else \
                [o.stat_xi, o.min_p, o.d_test.statistic, o.d_test.p_value]
        cells.append(row + [r.error])
    methods = [t.method for r in rows for o in (r.paired, r.unpaired) if o is not None
               for t in (*o.components, o.d_test)]
    counts = {"exact": methods.count("exact"), "normal_approx": methods.count("normal_approx")}
    return cells, det_sign_areas(s1, s2, grid)[0], counts, sum(r.error is not None for r in rows)


def _as_read(value, fmt):
    """A table cell as read_table returns it from a CSV or a JSON table."""
    if value is None:
        return "" if fmt == "csv" else None
    if isinstance(value, str):
        return value
    return fmt_float(value) if fmt == "csv" else float(value)


@pytest.mark.parametrize("extra", [
    ["--a1", "0.2", "--a2", "0.5", "--m1", "15", "--grid", "60", "--seed", "4"],
    ["--a1", "0.2", "--a2", "0.3", "--m1", "30", "--m2", "20", "--grid", "60",
     "--criterion", "det", "--seed", "1"],
    ["--a1", "0.2", "--a2", "0.3", "--m1", "20", "--grid", "60", "--criterion", "uniform",
     "--format", "json", "--seed", "2"],
    ["identical", "--grid", "30", "--criterion", "uniform", "--seed", "2"],
    ["identical", "--grid", "30", "--criterion", "det", "--format", "json", "--seed", "3"],
])
def test_scan_table_equals_observation_scan_rows(tmp_path, extra):
    identical = extra[0] == "identical"
    if identical:
        assert main(["sample", "--a", "0.3", "--n", "15", "--seed", "8",
                     "--out", str(tmp_path / "pts")]) == 0
        pts = str(tmp_path / "pts" / "points.csv")
        extra = ["--sample1", pts, "--sample2", pts] + extra[1:]
    argv = ["scan"] + extra
    out = tmp_path / "sc"
    assert main(argv + ["--out", str(out)]) == 0
    fmt = "json" if "json" in extra else "csv"
    header, rows = read_table(out / f"scan.{fmt}")
    cells, area_pos, counts, degenerate = _expected_scan(argv)
    columns = ["qx", "qy", "qz", "tr2", "det", "lambda1", "lambda2", "T_xi", "p_xi", "T_d",
               "p_d", "W_xi", "pW_xi", "W_d", "pW_d", "error"]
    assert header == (columns if fmt == "csv" else sorted(columns))
    # JSON records come back with sorted keys, so compare every row by column name
    assert [dict(zip(header, row)) for row in rows] == \
        [{h: _as_read(v, fmt) for h, v in zip(columns, row)} for row in cells]
    summary = read_json(out / "summary.json")
    assert summary["det_area_positive"] == area_pos
    assert summary["det_area_negative"] == 1.0 - area_pos
    stats = read_json(out / "run.json")["stats"]
    assert stats["rank_tests"] == counts
    assert stats["degenerate_rows"] == degenerate
    if identical or "--m2" in extra:
        assert all(r[header.index("T_xi")] in ("", None) for r in rows)


def test_scan_makes_one_projection_pass_and_no_row_objects(tmp_path, monkeypatch):
    def per_candidate(*args, **kwargs):
        raise AssertionError("scan built a per-candidate object")

    monkeypatch.setattr(ProcedureBatch, "outcome", per_candidate)
    monkeypatch.setattr(RankTestBatch, "result", per_candidate)
    monkeypatch.setattr(twosample, "tangent_frames", per_candidate)
    monkeypatch.setattr(twosample, "det_sign_areas", per_candidate)
    log_images, calls = twosample._log_images, []

    def counted(*args, **kwargs):
        calls.append(args)
        return log_images(*args, **kwargs)

    monkeypatch.setattr(twosample, "_log_images", counted)
    assert main(["scan", "--a1", "0.2", "--a2", "0.3", "--m1", "20", "--grid", "50",
                 "--seed", "1", "--out", str(tmp_path / "sc")]) == 0
    assert len(calls) == 1


def test_profile_fixed_q(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--a", "0.2", "--n", "8", "--seed", "1", "--out", str(d1)]) == 0
    assert main(["sample", "--a", "0.4", "--n", "6", "--seed", "2", "--out", str(d2)]) == 0
    out = tmp_path / "p1"
    code = main(["profile", "--sample1", str(d1 / "points.csv"),
                 "--sample2", str(d2 / "points.csv"), "--q", "0,0,1",
                 "--dirs", "12", "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "profile.csv")
    assert header == ["theta", "sample_id", "point_id", "xi"]
    assert len(rows) == 12 * (8 + 6 + 1)
    ids = {r[1] for r in rows}
    assert ids == {"1", "2", "diff"}
    summary = read_json(out / "summary.json")
    assert summary["dirs"] == 12
    assert summary["q_mode"] == "fixed"


def test_profile_extreme_q_modes_differ(tmp_path):
    base = ["profile", "--a1", "0.2", "--a2", "0.5", "--m1", "20",
            "--grid", "16", "--dirs", "8", "--seed", "6"]
    out_min, out_max = tmp_path / "mn", tmp_path / "mx"
    assert main(base + ["--q-extreme", "min", "--out", str(out_min)]) == 0
    assert main(base + ["--q-extreme", "max", "--out", str(out_max)]) == 0
    q_min = read_json(out_min / "summary.json")
    q_max = read_json(out_max / "summary.json")
    assert q_min["q_mode"] == "min" and q_max["q_mode"] == "max"
    assert q_min["tr2"] <= q_max["tr2"]
    assert not np.allclose(q_min["q"], q_max["q"])
    # no q selection given at all
    assert main(["profile", "--a1", "0.2", "--a2", "0.5", "--seed", "1",
                 "--out", str(tmp_path / "px")]) == 2


def test_interp_single_solve(tmp_path):
    ppath = tmp_path / "problem.json"
    prob = _write_trdif_problem(ppath)
    out = tmp_path / "i1"
    code = main(["interp", "--problem", str(ppath), "--out", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["converged"] is True
    assert result["invariant"] == "trdif"
    # trdif solves to the midpoint mixture of the endpoints
    expected = 0.5 * prob.endpoints[0] + 0.5 * prob.endpoints[1]
    npt.assert_allclose(result["f_hat"], expected, atol=1e-7)
    assert (out / "trace.csv").exists()
    manifest = read_json(out / "run.json")
    assert manifest["params"]["solver"]["max_iter"] == 500
    assert manifest["outputs"] == ["result.json", "trace.csv"]


def test_interp_sweep_reproduces_endpoints(tmp_path):
    ppath = tmp_path / "problem.json"
    prob = _write_trdif_problem(ppath)
    out = tmp_path / "i2"
    code = main(["interp", "--problem", str(ppath), "--alpha-steps", "3",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "interp.csv")
    assert len(rows) == 3 * 3  # three alphas, three methods each
    f_cols = [header.index(f"f_{i}") for i in range(prob.k)]
    for row in rows:
        t = float(row[0])
        f = np.array([float(row[c]) for c in f_cols])
        if t == 0.0:
            npt.assert_allclose(f, prob.endpoints[0], atol=1e-6)
        elif t == 1.0:
            npt.assert_allclose(f, prob.endpoints[1], atol=1e-6)
    methods = {row[1] for row in rows}
    assert methods == {"trdif", "linear", "sqroot"}
    with_two = main(["interp", "--problem", str(ppath), "--alpha-steps", "1",
                     "--out", str(out)])
    assert with_two == 2


@pytest.mark.parametrize("extra", [
    ["--alpha-steps", "1"], ["--restarts", "0"], ["--max-iter", "-1"], ["--tol", "-1"],
    ["--tol", "nan"], ["--tol", "inf"], ["--alpha-steps", "3", "--tol", "nan"]])
def test_interp_usage_error_creates_no_output_dir(tmp_path, extra):
    out = tmp_path / "never"
    assert main(["interp", "--problem", str(FIXTURE)] + extra + ["--out", str(out)]) == 2
    assert not out.exists()


def test_interp_sweep_needs_two_endpoints(tmp_path, capsys):
    rng = np.random.default_rng(7)
    prob = make_problem(uniform_sample(rng, 5), random_pmfs(rng, 5, 3), np.full(3, 1 / 3), "trdif")
    ppath = tmp_path / "problem.json"
    dump_problem(ppath, prob)
    out = tmp_path / "never"
    assert main(["interp", "--problem", str(ppath), "--alpha-steps", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: --alpha-steps sweeps need exactly two endpoints\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"max_iter": -1}, {"tol": -1.0}, {"tol": float("nan")},
    # mistyped or unknown: a null seed drew the starts from OS entropy, and each
    # other setting was ignored, ran, or raised TypeError (exit 1)
    {"seed": None}, {"max_iter": None}, {"tol": "1e-9"}, {"restarts": 2.0}, {"max_iter": True},
    {"seed": 1.5}, {"max_iters": 100},
    # "solver" stands for the whole block
    {"solver": [1, 2]}, {"solver": 3}])
@pytest.mark.parametrize("alpha_steps", [[], ["--alpha-steps", "3"]])
def test_interp_rejects_impossible_solver_block(tmp_path, capsys, setting, alpha_steps):
    prob, solver = load_problem(FIXTURE)
    ppath = tmp_path / "problem.json"
    dump_problem(ppath, prob)
    data = read_json(ppath)
    data["solver"] = setting["solver"] if "solver" in setting else dict(solver, **setting)
    write_json(ppath, data)
    out = tmp_path / "never"
    assert main(["interp", "--problem", str(ppath)] + alpha_steps + ["--out", str(out)]) == 2
    assert next(iter(setting)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["interp"], ["check", "--seed", "0"]])
@pytest.mark.parametrize("top", [[1, 2], None, 5, "domain"])
def test_problem_file_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, command, top):
    ppath = tmp_path / "problem.json"
    write_json(ppath, top)
    out = tmp_path / "never"
    assert main([*command, "--problem", str(ppath), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: a problem file holds a JSON object, got {type(top).__name__}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["interp"], ["check", "--seed", "0"]])
@pytest.mark.parametrize("field", ["domain", "obs", "endpoints", "alpha"])
def test_problem_field_that_is_not_numeric_is_a_named_usage_error(tmp_path, capsys, command,
                                                                  field):
    # an object there raised TypeError from the float conversion: a traceback and exit 1
    data = read_json(FIXTURE)
    data[field] = {"a": 1}
    ppath = tmp_path / "problem.json"
    write_json(ppath, data)
    out = tmp_path / "never"
    assert main([*command, "--problem", str(ppath), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: the problem file's {field!r} field is not numeric: float() argument "
        "must be a string or a real number, not 'dict'\n")
    assert not out.exists()


def test_interp_inadmissible_problem_exits_3(tmp_path, capsys):
    # antipodal domain pairs collapse the pihalf kernel rank
    rng = np.random.default_rng(11)
    base = uniform_sample(rng, 3)
    domain = np.vstack([base, -base])
    prob = make_problem(domain, random_pmfs(rng, 6, 2), np.array([0.5, 0.5]), "trln2")
    ppath = tmp_path / "bad.json"
    dump_problem(ppath, prob)
    code = main(["interp", "--problem", str(ppath), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "inadmissible" in capsys.readouterr().err


@pytest.mark.parametrize("invariant, weight, code", [("lik", "unit", 0), ("trdif", "pihalf", 3)])
def test_interp_judges_the_kernel_of_the_problem_weight(tmp_path, capsys, invariant, weight, code):
    # one antipodal pair: rank A = 6 and rank B = 5, so only the unit weight is admissible
    rng = np.random.default_rng(0)
    base = uniform_sample(rng, 5)
    domain = np.vstack([base, -base[:1]])
    prob = make_problem(domain, random_pmfs(rng, 6, 2), [0.5, 0.5], invariant, weight=weight)
    ppath = tmp_path / "problem.json"
    dump_problem(ppath, prob)
    assert main(["interp", "--problem", str(ppath), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "inadmissible problem: kernel ranks A=6 B=5 with k=6\n")


def test_interp_fixture_problem(tmp_path):
    out = tmp_path / "fx"
    code = main(["interp", "--problem", str(FIXTURE), "--restarts", "2",
                 "--out", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["invariant"] == "trln2"
    assert result["converged"] is True
    assert len(result["restart_objectives"]) == 2
    f_hat = np.array(result["f_hat"])
    assert f_hat.min() >= -1e-15
    assert f_hat.sum() == pytest.approx(1.0, abs=1e-9)


def test_interp_manifest_reports_solver_stats(tmp_path):
    out = tmp_path / "sweep"
    assert main(["interp", "--problem", str(FIXTURE), "--alpha-steps", "3",
                 "--out", str(out)]) == 0
    stats = read_json(out / "run.json")["stats"]
    # 8 starts at the first alpha point, plus the warm start at the other two
    assert stats["starts"] == 26
    assert stats["starts_failed"] == stats["stop_reasons"]["singular_start"] == 0
    assert sorted(stats["stop_reasons"]) == sorted(
        ["pg_tol", "step_tol", "line_search", "max_iter", "singular_start", "lower_bound"])
    assert sum(stats["stop_reasons"].values()) == 26
    # the endpoints have H = 0: 6 starts are cut at alpha = (1, 0) and 7 at (0, 1)
    assert stats["stop_reasons"]["lower_bound"] == 13
    # one objective round per start batch, then at least one per line search;
    # a trip whose every start stops at pg_tol runs no search
    assert stats["objective_rounds"] >= stats["searched_trips"] + 3 > 3
    assert 0 < stats["searched_trips"] <= stats["loop_trips"]


def test_interp_endpoint_sweep_stops_at_the_lower_bound(tmp_path):
    # alpha = (1, 0) and (0, 1) only: the linear start is the endpoint, where
    # H = 0, so each solve ends on its first trip without a line search
    out = tmp_path / "ends"
    assert main(["interp", "--problem", str(FIXTURE), "--alpha-steps", "2",
                 "--out", str(out)]) == 0
    stats = read_json(out / "run.json")["stats"]
    assert stats["loop_trips"] == 2
    assert stats["searched_trips"] == 0
    reasons = stats["stop_reasons"]
    assert reasons["lower_bound"] == stats["starts"] - reasons["pg_tol"] > 0
    prob, _ = load_problem(FIXTURE)
    header, rows = read_table(out / "interp.csv")
    f_cols = [header.index(f"f_{i}") for i in range(prob.k)]
    solved = [row for row in rows if row[1] == "trln2"]
    assert [float(row[0]) for row in solved] == [0.0, 1.0]
    for row, endpoint in zip(solved, prob.endpoints):
        npt.assert_allclose([float(row[c]) for c in f_cols], endpoint, rtol=0, atol=1e-15)


def test_interp_gradient_form_mismatch_exits_2(tmp_path):
    # the --gradient option is gone; argparse rejects it with code 2
    ppath = tmp_path / "problem.json"
    _write_trdif_problem(ppath)
    with pytest.raises(SystemExit) as exc:
        main(["interp", "--problem", str(ppath), "--gradient",
              "multiplicative", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_iteration_limit_maps_to_exit_4(tmp_path, monkeypatch, capsys):
    ppath = tmp_path / "problem.json"
    _write_trdif_problem(ppath)

    def blow_up(*args, **kwargs):
        raise IterationLimitError("stalled")

    monkeypatch.setattr("spherecov.cli.solve", blow_up)
    code = main(["interp", "--problem", str(ppath), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
def test_linear_algebra_and_float_failures_map_to_exit_4(tmp_path, monkeypatch, capsys, error):
    # LinAlgError is a ValueError, which alone would map to exit 2
    ppath = tmp_path / "problem.json"
    _write_trdif_problem(ppath)

    def blow_up(*args, **kwargs):
        raise error("singular")

    monkeypatch.setattr("spherecov.cli.solve", blow_up)
    assert main(["interp", "--problem", str(ppath), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "numerical failure: singular\n"


def test_missing_input_file_exits_2(tmp_path):
    assert main(["interp", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_check_self_tests_pass(tmp_path, capsys):
    out = tmp_path / "chk"
    code = main(["check", "--seed", "0", "--out", str(out)])
    assert code == 0
    report = read_json(out / "check.json")
    assert report["passed"] is True
    assert report["rank"]["admissible"] is True
    assert report["invariance_max_relerr"] <= 1e-8
    assert report["lik_triangle_violation_found"] is True
    assert report["weight_identity_max_err"] <= 1e-12
    assert report["projection_identity_max_err"] <= 1e-10
    assert report["gradient_fd_max_relerr"] <= 1e-5
    assert "passed: True" in capsys.readouterr().out


def test_check_fixture_problem(tmp_path):
    out = tmp_path / "chk2"
    code = main(["check", "--problem", str(FIXTURE), "--seed", "0",
                 "--out", str(out)])
    assert code == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_option_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--a1", "0.2", "--a2", "0.3", "--grid", "5", "--seed", "1",
              "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_module_entry_point():
    import subprocess
    import sys
    res = subprocess.run(
        [sys.executable, "-m", "spherecov", "--help"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert "sample" in res.stdout and "interp" in res.stdout


@pytest.mark.parametrize("flag, value, argv", [
    ("--q", "-0.3,0.1,1", ["test", "--a1", "0.2", "--a2", "0.3", "--runs", "5", "--seed", "1"]),
    ("--mu1", "-0.3,0.5,0.8", ["test", "--a1", "0.7", "--a2", "2.0", "--concentration", "squared",
                               "--m1", "40", "--q-mode", "uniform", "--runs", "5", "--seed", "4"]),
    ("--mu", "-0.2,0.9,-0.1", ["sample", "--a", "0.2", "--n", "30", "--seed", "3"]),
])
def test_vector_flag_takes_a_leading_minus_value_spaced_or_joined(tmp_path, flag, value, argv):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main([*argv, flag, value, "--out", str(spaced)]) == 0
    assert main([*argv, f"{flag}={value}", "--out", str(joined)]) == 0
    names = sorted(p.name for p in joined.iterdir())
    assert sorted(p.name for p in spaced.iterdir()) == names
    for name in names:
        assert (spaced / name).read_bytes() == (joined / name).read_bytes(), name


def test_only_negative_number_lists_after_vector_flags_are_joined(tmp_path, monkeypatch):
    argv = ["test", "--q", "-h", "--mu1", "-0.1,x,1", "--seed", "-1", "--mu2", "0,-1,0",
            "--q-mode", "-2"]
    assert cli._join_vector_values(argv) == argv
    joined = cli._join_vector_values(["sample", "--mu", "-1e-3,-inf,2"])
    assert joined == ["sample", "--mu=-1e-3,-inf,2"]
    # main() without argv reads sys.argv the same way
    monkeypatch.setattr(sys, "argv", ["spherecov", "sample", "--a", "0.2", "--n", "5", "--mu",
                                      "-0.2,0.9,-0.1", "--seed", "3", "--out", str(tmp_path / "s")])
    assert main() == 0


def test_build_parser_returns_one_shared_parser():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_carries_no_state_between_commands(tmp_path):
    """main calls in one process write the files that separate processes write."""
    sampler = ["--a1", "0.2", "--a2", "0.3"]
    commands = {
        "test": ["test", *sampler, "--m1", "12", "--q-mode", "uniform", "--runs", "3",
                 "--format", "json", "--seed", "2"],
        "scan": ["scan", *sampler, "--grid", "20", "--criterion", "det", "--seed", "4"],
        # the flags set by the first call fall back to their defaults
        "test-defaults": ["test", *sampler, "--q", "0,0,1", "--runs", "2", "--seed", "2"],
        "sample": ["sample", "--a", "0.2", "--n", "15", "--seed", "3"],
    }
    for name, argv in commands.items():
        assert main(argv + ["--out", str(tmp_path / "shared" / name)]) == 0
    src = str(Path(spherecov.__file__).resolve().parents[1])
    for name, argv in commands.items():
        res = subprocess.run([sys.executable, "-m", "spherecov", *argv,
                              "--out", str(tmp_path / "separate" / name)],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert res.returncode == 0, res.stderr
        shared, separate = tmp_path / "shared" / name, tmp_path / "separate" / name
        names = sorted(p.name for p in separate.iterdir())
        assert sorted(p.name for p in shared.iterdir()) == names
        for file in names:
            assert (shared / file).read_bytes() == (separate / file).read_bytes(), (name, file)


def test_scan_best_q_is_the_top_tr2_scan_row():
    args = cli.build_parser().parse_args(
        ["test", "--q-mode", "scan-best", "--grid", "40", "--seed", "0"])
    # the pick is the grid row as drawn, the scan row its unit point (they may differ in the last bit)
    for seed in range(40):
        local = np.random.default_rng(seed)
        s1 = unit_points(unit_point([0.0, 0.2, 1.0]) + 0.3 * local.normal(size=(25, 3)))
        s2 = unit_points(unit_point([0.2, 0.0, 1.0]) + 0.4 * local.normal(size=(25, 3)))
        got = cli._resolve_q(args, np.random.default_rng(100 + seed), s1, s2, cli._fixed_q(args))
        grid = uniform_sample(np.random.default_rng(100 + seed), 40)
        rows = observation_scan(s1, s2, grid, criterion="tr2")
        npt.assert_array_equal(unit_point(got), rows[0].q)
        in_order = observation_scan(s1, s2, grid, criterion="uniform")
        npt.assert_array_equal(tr2_scores(s1, s2, grid), [r.tr2 for r in in_order])


def test_tr2_picker_takes_the_grid_row_as_drawn():
    # the pick is not normalised again: its unit point is the top (max) or bottom (min) scan row
    for seed in range(20):
        local = np.random.default_rng(seed)
        s1 = unit_points(unit_point([0.0, 0.2, 1.0]) + 0.3 * local.normal(size=(15, 3)))
        s2 = unit_points(unit_point([0.2, 0.0, 1.0]) + 0.4 * local.normal(size=(15, 3)))
        grid = uniform_sample(np.random.default_rng(200 + seed), 30)
        rows = observation_scan(s1, s2, grid, criterion="tr2")
        for pick, row in ((np.argmax, rows[0]), (np.argmin, rows[-1])):
            got = cli._tr2_pick(np.random.default_rng(200 + seed), 30, s1, s2, pick)
            npt.assert_array_equal(got, grid[pick(tr2_scores(s1, s2, grid))])
            npt.assert_array_equal(unit_point(got), row.q)


# ---------------------------------------------- batched test replications ---

def _expected_runs(argv):
    """runs.csv rows rebuilt from per-run test_procedure_1/2 calls on the same draws."""
    args = cli.build_parser().parse_args(argv)
    if args.sample1 is not None:
        pair = (read_points(args.sample1), read_points(args.sample2))
        draw = lambda rng: pair  # noqa: E731
    else:
        p1 = RingDensity(a=args.a1, mu=unit_point([0.0, 0.0, 1.0]))
        p2 = RingDensity(a=args.a2, mu=unit_point([0.0, 0.0, 1.0]))
        m2 = args.m2 or args.m1
        draw = lambda rng: (rejection_sample(p1, args.m1, rng),  # noqa: E731
                            rejection_sample(p2, m2, rng))
    stochastic = args.sample1 is None or args.q_mode != "fixed"
    children = np.random.SeedSequence(args.seed).spawn(args.runs) if stochastic else None
    rows = []
    for idx in range(args.runs):
        rng = np.random.default_rng(children[idx]) if stochastic else None
        s1, s2 = draw(rng)
        q = cli._resolve_q(args, rng, s1, s2, cli._fixed_q(args))
        if args.rotate2 is not None:
            s2 = rotate_points(s2, q, args.rotate2)
        row = [str(idx)] + [fmt_float(v) for v in q]
        outcomes = [procedure_1(s1, s2, q, alpha=args.alpha) if len(s1) == len(s2) else None,
                    procedure_2(s1, s2, q, alpha=args.alpha)]
        for o in outcomes:
            values = [None] * 4 if o is None else \
                [o.stat_xi, o.min_p, o.d_test.statistic, o.d_test.p_value]
            row += ["" if v is None else fmt_float(v) for v in values]
        rows.append(row)
    return rows


@pytest.mark.parametrize("extra", [
    ["--q", "0,0,1", "--runs", "130", "--seed", "2"],
    ["--q-mode", "uniform", "--runs", "70", "--seed", "3"],
    ["--q-mode", "scan-best", "--grid", "25", "--runs", "66", "--seed", "4"],
    ["--q", "0.3,0.1,1", "--rotate2", "0.7", "--runs", "65", "--seed", "5"],
    ["--m2", "13", "--q", "0,0,1", "--runs", "65", "--seed", "6"],
])
def test_test_runs_equal_per_run_procedures(tmp_path, extra):
    argv = ["test", "--a1", "0.2", "--a2", "0.3", "--m1", "18"] + extra
    out = tmp_path / "t"
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = read_table(out / "runs.csv")
    assert rows == _expected_runs(argv)
    if "--m2" in extra:
        assert all(r[header.index("T_xi")] == "" for r in rows)


def test_test_file_mode_runs_equal_per_run_procedures(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--a", "0.2", "--n", "20", "--seed", "1", "--out", str(d1)]) == 0
    assert main(["sample", "--a", "0.5", "--n", "20", "--seed", "2", "--out", str(d2)]) == 0
    files = ["--sample1", str(d1 / "points.csv"), "--sample2", str(d2 / "points.csv")]
    for extra in (["--q", "0,0,1", "--runs", "3"],
                  ["--q-mode", "uniform", "--runs", "67", "--seed", "8"]):
        out = tmp_path / "t"
        assert main(["test"] + files + extra + ["--out", str(out)]) == 0
        assert read_table(out / "runs.csv")[1] == _expected_runs(["test"] + files + extra)


def test_test_identical_samples_exit_3_at_run_0(tmp_path, capsys):
    d1 = tmp_path / "a"
    assert main(["sample", "--a", "0.2", "--n", "20", "--seed", "1", "--out", str(d1)]) == 0
    pts = str(d1 / "points.csv")
    for extra in (["--q", "0,0,1", "--runs", "3"],
                  ["--q-mode", "uniform", "--runs", "70", "--seed", "1"]):
        code = main(["test", "--sample1", pts, "--sample2", pts] + extra
                    + ["--out", str(tmp_path / "t")])
        assert code == 3
        assert "data error: run 0: 0 nonzero differences, need at least 5" in capsys.readouterr().err


def test_test_block_names_the_first_failing_run():
    local = np.random.default_rng(0)
    q = unit_point([0.0, 0.0, 1.0])

    def run():
        return (unit_points(q + 0.3 * local.normal(size=(12, 3))),
                unit_points(q + 0.4 * local.normal(size=(12, 3))))

    first = [run() for _ in range(10)]
    drawn = [run() for _ in range(5)]

    def tested_runs():
        # blocks of ten runs at the fixed q, drawn by a stub in place of the sampler, so the
        # second block starts at run 10
        blocks = iter([first, drawn])

        def draw_rows(rngs):
            s1, s2 = map(np.stack, zip(*next(blocks)))
            assert len(rngs) == len(s1)
            return s1, s2, 0

        args = cli.build_parser().parse_args(["test", "--q", "0,0,1", "--runs", "15"])
        return cli._tested_runs(args, None, draw_rows, q, 10)

    assert tested_runs()[0].shape == (3, 15)
    antipodal = drawn[3][0].copy()
    antipodal[4] = -q
    drawn[3] = (antipodal, drawn[3][1])
    with pytest.raises(AntipodalPointError, match="^run 13: log map undefined"):
        tested_runs()
    # an earlier degenerate run is reported before the antipodal one
    drawn[1] = (drawn[1][0], drawn[1][0])
    with pytest.raises(TooFewPairsError, match="^run 11: 0 nonzero differences"):
        tested_runs()


@pytest.mark.parametrize("same, runs, failing_draw, message", [
    # run 1 fails while it is drawn, but run 0 of the same block fails first
    pytest.param(True, 3, 2, "run 0: 0 nonzero differences", id="earlier-run-first"),
    # the draw failure is the first failure of its block, the first or the second
    pytest.param(False, 3, 2, "run 1: log map undefined", id="first-block"),
    pytest.param(False, 70, 66, "run 65: log map undefined", id="second-block")])
def test_test_draw_failure_waits_for_earlier_runs(tmp_path, monkeypatch, capsys,
                                                  same, runs, failing_draw, message):
    # samples of 100 points make blocks of 64 runs, so run 65 lies in the second block
    assert twosample._block_rows(100, 100) == 64
    paths = []
    for name, a, seed in (("a", "0.2", "1"), ("b", "0.5", "2")):
        assert main(["sample", "--a", a, "--n", "100", "--seed", seed,
                     "--out", str(tmp_path / name)]) == 0
        paths.append(str(tmp_path / name / "points.csv"))
    resolve = cli._resolve_q
    calls = []

    def failing_draw_at(*args):
        calls.append(1)
        if len(calls) == failing_draw:
            raise AntipodalPointError("log map undefined at an antipodal point")
        return resolve(*args)

    monkeypatch.setattr(cli, "_resolve_q", failing_draw_at)
    out = tmp_path / "t"
    code = main(["test", "--sample1", paths[0], "--sample2", paths[0] if same else paths[1],
                 "--q", "0,0,1", "--runs", str(runs), "--out", str(out)])
    assert code == 3
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_test_without_samples_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["test", "--q", "0,0,1", "--seed", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("usage error: give --sample1/--sample2 files or "
                                       "--a1/--a2 generator parameters\n")
    assert not out.exists()


def test_test_bad_q_fails_before_sampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "rejection_sample_rows", lambda *a: pytest.fail("sampled"))
    for q in ("1,2", "0,0,0"):
        assert main(["test", "--a1", "0.2", "--a2", "0.3", "--q", q, "--runs", "3",
                     "--seed", "1", "--out", str(tmp_path / "t")]) == 2
        assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["test", "--q-mode", "scan-best", "--grid", "0"],
    ["test", "--q-mode", "scan-best", "--grid", "-3"],
    ["profile", "--q-extreme", "max", "--grid", "0"],
    ["profile", "--q-extreme", "min", "--grid", "-1"],
    ["scan", "--grid", "0"]])
def test_bad_grid_is_a_named_usage_error_before_sampling(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "rejection_sample_rows", lambda *a: pytest.fail("sampled"))
    out = tmp_path / "never"
    assert main(argv + ["--a1", "0.2", "--a2", "0.3", "--seed", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: --grid must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["profile", "--q", "0,0,1", "--dirs", "2"], "--dirs must be at least 3"),
    (["profile", "--q-extreme", "max", "--dirs", "-1"], "--dirs must be at least 3"),
    (["scan", "--alpha", "2"], "--alpha must lie in (0, 1)"),
    (["scan", "--alpha", "0"], "--alpha must lie in (0, 1)"),
    (["scan", "--alpha", "nan"], "--alpha must lie in (0, 1)"),
    (["test", "--q", "0,0,1", "--alpha", "1"], "--alpha must lie in (0, 1)"),
    (["test", "--q", "0,0,1", "--m1", "0"], "sample sizes must be positive")])
def test_bad_dirs_and_alpha_are_named_usage_errors_before_sampling(tmp_path, monkeypatch, capsys,
                                                                   argv, message):
    monkeypatch.setattr(cli, "rejection_sample_rows", lambda *a: pytest.fail("sampled"))
    out = tmp_path / "never"
    assert main(argv + ["--a1", "0.2", "--a2", "0.3", "--seed", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_non_finite_rotate2_is_a_named_usage_error_before_sampling(tmp_path, monkeypatch, capsys,
                                                                   angle):
    monkeypatch.setattr(cli, "rejection_sample_rows", lambda *a: pytest.fail("sampled"))
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["test", "--a1", "0.2", "--a2", "0.3", "--q", "0,0,1", f"--rotate2={angle}",
                     "--runs", "3", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "usage error: --rotate2 must be finite\n"
    assert not out.exists()
    assert [str(w.message) for w in caught] == []


def test_negative_seed_is_a_usage_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["test", "--a1", "0.2", "--a2", "0.3", "--q", "0,0,1", "--runs", "3",
                 "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: expected non-negative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["test", "--q", "0,0,1"],
    ["test", "--q-mode", "scan-best", "--grid", "4"],
    ["scan", "--grid", "4"],
    ["profile", "--q", "0,0,1"]])
def test_non_finite_file_points_fail_before_any_rank_test(tmp_path, monkeypatch, capsys, argv):
    # rank_sum_rows' W is unspecified with NaNs in both samples, so none may reach it
    from spherecov import twosample
    monkeypatch.setattr(twosample, "rank_sum_rows", lambda *a, **k: pytest.fail("ranked"))
    monkeypatch.setattr(twosample, "signed_rank_rows", lambda *a, **k: pytest.fail("ranked"))
    paths = []
    for name, bad in (("s1.csv", "nan,0,1"), ("s2.csv", "0.5,inf,0.5")):
        paths.append(tmp_path / name)
        paths[-1].write_text("x,y,z\n0,0,1\n0,1,0\n1,0,0\n" + bad + "\n0.5,0.5,0.7\n0.1,0.2,0.9\n")
    out = tmp_path / "never"
    assert main(argv + ["--sample1", str(paths[0]), "--sample2", str(paths[1]),
                        "--seed", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: cannot normalize zero or non-finite rows\n"
    assert not out.exists()


@pytest.mark.parametrize("name, text, message", [
    pytest.param("empty.csv", "x,y,z\n", "{flag} {path} holds no points", id="header-only"),
    pytest.param("two.csv", "x,y,z\n1,2\n0,1\n",
                 "{path}: point row 1 has 2 cells, expected 3", id="two-cells"),
    pytest.param("null.json", '[{"x": 1.0, "y": null, "z": 0.0}]',
                 "{path}: float() argument must be a string or a real number, not 'NoneType'",
                 id="null-cell"),
    pytest.param("rows.json", "[[1, 2, 3]]", "{path}: expected a JSON array of records",
                 id="json-rows")])
@pytest.mark.parametrize("command", [["test", "--q", "0,0,1"], ["scan", "--seed", "0"],
                                     ["profile", "--q", "0,0,1"]])
@pytest.mark.parametrize("flag", ["--sample1", "--sample2"])
def test_malformed_point_file_is_a_usage_error_naming_it(tmp_path, capsys, name, text, message,
                                                         command, flag):
    bad, good = tmp_path / name, tmp_path / "good.csv"
    bad.write_text(text)
    good.write_text("x,y,z\n0,0,1\n0,1,0\n1,0,0\n0.5,0.5,0.7\n0.1,0.2,0.9\n0.3,0.1,0.8\n")
    files = {"--sample1": good, "--sample2": good, flag: bad}
    out = tmp_path / "never"
    assert main([*command, *(a for f, path in files.items() for a in (f, str(path))),
                 "--out", str(out)]) == 2
    expected = message.format(flag=flag, path=bad)
    assert capsys.readouterr().err == f"usage error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--a", "nan", "--n", "5"],
    ["test", "--a1", "nan", "--a2", "0.3", "--q", "0,0,1"],
    ["scan", "--a1", "nan", "--a2", "0.3"],
    ["profile", "--a1", "nan", "--a2", "0.3", "--q", "0,0,1"]])
def test_ring_parameter_off_the_sphere_fails_before_sampling(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "rejection_sample", lambda *a, **k: pytest.fail("sampled"))
    monkeypatch.setattr(cli, "rejection_sample_rows", lambda *a: pytest.fail("sampled"))
    out = tmp_path / "never"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("usage error: ring parameter a must lie in [0, pi**4] "
                                       "(about 97.41) for quartic concentration, got nan\n")
    assert not out.exists()


def test_smallest_dirs_and_alpha_bounds_still_run(tmp_path):
    assert main(["profile", "--a1", "0.2", "--a2", "0.3", "--q", "0,0,1", "--dirs", "3",
                 "--seed", "0", "--out", str(tmp_path / "p")]) == 0
    assert main(["scan", "--a1", "0.2", "--a2", "0.3", "--m1", "15", "--grid", "5",
                 "--alpha", "0.999", "--seed", "0", "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize("argv", [
    ["test", "--q", "0,0,1", "--runs", "2"],
    ["test", "--q-mode", "uniform", "--runs", "2"],
    ["profile", "--q", "0,0,1"]])
def test_grid_is_ignored_where_unused(tmp_path, argv):
    out = tmp_path / "t"
    assert main(argv + ["--a1", "0.2", "--a2", "0.3", "--grid", "0", "--seed", "0",
                        "--out", str(out)]) == 0


def test_test_block_outputs_are_pinned(tmp_path):
    # the first 64 runs were written by the per-run sampler loop, run 129 by blocks of 64 runs
    out = tmp_path / "t"
    assert main(["test", "--a1", "0.2", "--a2", "0.3", "--m1", "50", "--q", "0,0,1",
                 "--runs", "64", "--seed", "0", "--out", str(out)]) == 0
    assert read_json(out / "run.json")["stats"]["proposals"] == 32328
    header, rows = read_table(out / "runs.csv")
    # 130 runs span two blocks of 128; every run depends on its own seed alone
    longer = tmp_path / "t130"
    assert main(["test", "--a1", "0.2", "--a2", "0.3", "--m1", "50", "--q", "0,0,1",
                 "--runs", "130", "--seed", "0", "--out", str(longer)]) == 0
    assert twosample._block_rows(50, 50) == 128
    assert read_json(longer / "run.json")["stats"]["proposals"] == 64296
    header130, rows130 = read_table(longer / "runs.csv")
    assert header130 == header and rows130[:64] == rows
    pinned = [(0, "p_xi", 0.29715485844530987), (32, "pW_xi", 0.23983620757666801),
              (63, "pW_d", 0.78009157004985918), (129, "p_d", 0.64310822538177281)]
    for run, column, value in pinned:
        assert float(rows130[run][header.index(column)]) == pytest.approx(value, rel=0.0, abs=1e-12)


def test_block_runs_fit_the_point_budget():
    budget = twosample._BLOCK_POINTS
    assert twosample._block_rows(50, 50) == budget // 100 == 128
    assert twosample._block_rows(40, 30) == budget // 70 == 182
    # a run larger than the budget is a block of its own
    assert twosample._block_rows(budget, 1) == twosample._block_rows(budget // 2, budget // 2) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["--m1", "400", "--m2", "300", "--q", "0,0,1", "--runs", "40", "--seed", "0"],
                 id="unequal-big"),
    pytest.param(["--m1", "40", "--m2", "30", "--q", "0.3,0.1,1", "--runs", "190", "--seed", "1"],
                 id="unequal"),
    pytest.param(["--m1", "300", "--q-mode", "scan-best", "--grid", "20", "--runs", "30",
                  "--seed", "2"], id="scan-best"),
    pytest.param(["--q-mode", "uniform", "--rotate2", "0.7", "--runs", "130", "--seed", "3"],
                 id="uniform-rotate2")])
def test_test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, argv):
    args = cli.build_parser().parse_args(["test", "--a1", "0.2", "--a2", "0.3", *argv])
    m1, m2 = args.m1, args.m2 or args.m1
    # the default blocks split the runs differently from both others
    assert 1 < twosample._block_rows(m1, m2) < args.runs
    _assert_outputs_do_not_depend_on_the_block_size(
        tmp_path, monkeypatch, ["test", "--a1", "0.2", "--a2", "0.3", *argv], m1 + m2,
        ("runs.csv", "summary.json", "run.json"))


def _assert_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, argv, row_points,
                                                    names):
    """The named outputs of argv are the same bytes with blocks of one row, 64 rows and
    the default budget, row_points being the sample points of one row."""
    files = {}
    for name, budget in (("one", row_points), ("sixty-four", 64 * row_points),
                         ("default", twosample._BLOCK_POINTS)):
        monkeypatch.setattr(twosample, "_BLOCK_POINTS", budget)
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        files[name] = [(out / f).read_bytes() for f in names]
    assert files["one"] == files["sixty-four"] == files["default"]


@pytest.mark.parametrize("argv, m1, m2", [
    pytest.param(["--a1", "0.2", "--a2", "0.3", "--m1", "20", "--grid", "700", "--seed", "0"],
                 20, 20, id="tr2"),
    pytest.param(["--a1", "0.2", "--a2", "0.3", "--m1", "30", "--m2", "20", "--grid", "600",
                  "--criterion", "det", "--format", "json", "--seed", "1"], 30, 20, id="det-json"),
    # every row degenerate in both procedures: blank cells and "; "-joined error messages
    pytest.param(["identical", "--grid", "1700", "--criterion", "uniform", "--seed", "2"],
                 4, 4, id="identical-uniform")])
def test_scan_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, argv, m1, m2):
    if argv[0] == "identical":
        assert main(["sample", "--a", "0.3", "--n", str(m1), "--seed", "8",
                     "--out", str(tmp_path / "pts")]) == 0
        pts = str(tmp_path / "pts" / "points.csv")
        argv = ["--sample1", pts, "--sample2", pts, *argv[1:]]
    args = cli.build_parser().parse_args(["scan", *argv])
    # the default splits the grid into more than one block
    assert 1 < twosample._block_rows(m1, m2) < args.grid
    table = "scan.json" if args.format == "json" else "scan.csv"
    _assert_outputs_do_not_depend_on_the_block_size(
        tmp_path, monkeypatch, ["scan", *argv], m1 + m2, (table, "summary.json", "run.json"))


def _traced_peak(argv) -> int:
    """Bytes that one main(argv) call allocates at its peak, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_test_memory_stays_bounded_at_large_samples(tmp_path):
    # blocks of a fixed 64 runs hold 12 MB of arrays here at the peak
    peak = _traced_peak(["test", "--a1", "0.2", "--a2", "0.3", "--m1", "500", "--q", "0,0,1",
                         "--runs", "64", "--seed", "0", "--out", str(tmp_path / "t")])
    assert peak < 5e6


def _assert_scan_memory_grows_only_with_its_table(tmp_path, fmt):
    # The scan sorts all rows before it writes the first, so it holds its table (15 float
    # columns, the blank mask and the error column: 136 bytes a row) and its grid (24
    # bytes a row); any other growth with --grid must stay below 2 MB. One batch of
    # 20,000 candidates peaked at 59.5 MB, against 1.5 MB at --grid 500.
    argv = ["scan", "--a1", "0.2", "--a2", "0.3", "--m1", "20", "--format", fmt, "--seed", "0"]
    small = _traced_peak([*argv, "--grid", "500", "--out", str(tmp_path / "s")])
    large = _traced_peak([*argv, "--grid", "20000", "--out", str(tmp_path / "l")])
    assert large <= small + 2e6 + 160 * (20000 - 500)


def test_scan_memory_grows_only_with_its_table(tmp_path):
    _assert_scan_memory_grows_only_with_its_table(tmp_path, "csv")


def test_scan_json_memory_grows_only_with_its_table(tmp_path):
    # a whole-table JSON writer held one dict per row: 22.8 MB at --grid 20000
    _assert_scan_memory_grows_only_with_its_table(tmp_path, "json")


def test_profile_memory_does_not_grow_with_the_grid(tmp_path):
    # the tr2 pick log-maps the grid in candidate blocks; in one batch it peaked at 146 MB
    argv = ["profile", "--a1", "0.2", "--a2", "0.3", "--q-extreme", "max", "--seed", "0"]
    small = _traced_peak([*argv, "--grid", "500", "--out", str(tmp_path / "s")])
    large = _traced_peak([*argv, "--grid", "20000", "--out", str(tmp_path / "l")])
    assert large <= small + 2e6


def test_test_and_scan_manifests_carry_stats(tmp_path):
    out = tmp_path / "t"
    assert main(["test", "--a1", "0.2", "--a2", "0.3", "--m1", "30", "--m2", "20",
                 "--q", "0,0,1", "--runs", "70", "--seed", "1", "--out", str(out)]) == 0
    stats = read_json(out / "run.json")["stats"]
    # unequal sizes: three rank-sum tests per run, all by the normal approximation
    assert stats["rank_tests"] == {"exact": 0, "normal_approx": 3 * 70}
    assert stats["degenerate_rows"] == 0
    assert stats["acceptance_rate"] == pytest.approx(70 * 50 / stats["proposals"])

    out = tmp_path / "s"
    assert main(["scan", "--a1", "0.2", "--a2", "0.3", "--m1", "15", "--grid", "30",
                 "--seed", "2", "--out", str(out)]) == 0
    stats = read_json(out / "run.json")["stats"]
    # m = 15: the signed-rank tests are exact, the rank-sum tests normal
    assert stats["rank_tests"] == {"exact": 3 * 30, "normal_approx": 3 * 30}
    assert stats["degenerate_rows"] == 0
    assert stats["acceptance_rate"] == pytest.approx(30 / stats["proposals"])

    d1 = tmp_path / "pts"
    assert main(["sample", "--a", "0.3", "--n", "15", "--seed", "8", "--out", str(d1)]) == 0
    pts = str(d1 / "points.csv")
    out = tmp_path / "s2"
    assert main(["scan", "--sample1", pts, "--sample2", pts, "--grid", "4",
                 "--seed", "2", "--out", str(out)]) == 0
    stats = read_json(out / "run.json")["stats"]
    assert stats == {"rank_tests": {"exact": 0, "normal_approx": 3 * 4}, "degenerate_rows": 4}


def test_sampler_stats_equal_the_samplers_counts(tmp_path):
    # 130 runs at m = 50 span two blocks of 128; each run's generator draws s1, then s2
    p1, p2 = RingDensity(0.2), RingDensity(0.3)
    out = tmp_path / "t"
    assert main(["test", "--a1", "0.2", "--a2", "0.3", "--m1", "50", "--q", "0,0,1",
                 "--runs", "130", "--seed", "4", "--out", str(out)]) == 0
    rngs = state_generators(spawn_states(4, 130))
    proposals = sum(int(rejection_sample_rows(p, 50, rngs)[1].sum()) for p in (p1, p2))
    stats = read_json(out / "run.json")["stats"]
    assert (stats["proposals"], stats["acceptance_rate"]) == (proposals, 130 * 100 / proposals)

    out = tmp_path / "s"
    assert main(["scan", "--a1", "0.2", "--a2", "0.3", "--m1", "20", "--m2", "30",
                 "--grid", "30", "--seed", "5", "--out", str(out)]) == 0
    rng = np.random.default_rng(5)
    proposals = sum(int(rejection_sample_rows(p, m, [rng])[1].sum()) for p, m in ((p1, 20), (p2, 30)))
    stats = read_json(out / "run.json")["stats"]
    assert (stats["proposals"], stats["acceptance_rate"]) == (proposals, 50 / proposals)


def test_file_mode_writes_no_sampler_stats(tmp_path):
    paths = []
    for name, a, seed in (("a", "0.2", "1"), ("b", "0.3", "2")):
        assert main(["sample", "--a", a, "--n", "30", "--seed", seed,
                     "--out", str(tmp_path / name)]) == 0
        paths.append(str(tmp_path / name / "points.csv"))
    files = ["--sample1", paths[0], "--sample2", paths[1]]
    for argv in (["test", *files, "--q", "0,0,1", "--runs", "3"],
                 ["test", *files, "--q-mode", "uniform", "--runs", "3", "--seed", "2"],
                 ["scan", *files, "--grid", "5", "--seed", "2"]):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        stats = read_json(out / "run.json")["stats"]
        assert "proposals" not in stats and "acceptance_rate" not in stats, argv
        assert "rank_tests" in stats


@pytest.mark.parametrize("seed", [0, 1])
def test_profile_prints_the_scan_tr2_at_each_top_row(tmp_path, seed):
    # profile --q at a point printed by scan recomputes the same tr2 bits
    sampler = ["--a1", "0.2", "--a2", "0.3", "--m1", "20", "--seed", str(seed)]
    scan = tmp_path / "scan"
    assert main(["scan", *sampler, "--grid", "100", "--out", str(scan)]) == 0
    header, rows = read_table(scan / "scan.csv")
    for r, row in enumerate(rows[:10]):
        out = tmp_path / f"profile{r}"
        q = ",".join(row[:3])
        assert main(["profile", *sampler, f"--q={q}", "--dirs", "3", "--out", str(out)]) == 0
        assert read_json(out / "summary.json")["tr2"] == float(row[header.index("tr2")]), q


_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from spherecov.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" and sys.modules[m] is not None)))
"""


def test_no_command_imports_scipy(tmp_path):
    sampler = ["--a1", "0.2", "--a2", "0.3", "--m1", "10", "--seed", "1"]
    commands = [
        ["sample", "--a", "0.2", "--n", "20", "--seed", "1", "--out", "sample"],
        ["test", *sampler, "--q", "0,0,1", "--runs", "3", "--out", "test"],
        ["scan", *sampler, "--grid", "5", "--out", "scan"],
        ["profile", *sampler, "--q", "0,0,1", "--dirs", "4", "--out", "profile"],
        ["interp", "--problem", str(FIXTURE), "--restarts", "2", "--out", "interp"],
        ["interp", "--problem", str(FIXTURE), "--alpha-steps", "2", "--out", "sweep"],
        ["check", "--seed", "0", "--out", "check"],
    ]
    src = str(Path(spherecov.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(commands)],
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == []
    for name in ("sample", "test", "scan", "profile", "interp", "sweep", "check"):
        assert (tmp_path / name / "run.json").is_file()


def test_importing_the_cli_leaves_scipy_unloaded():
    code = ("import json, sys, spherecov.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    src = str(Path(spherecov.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


_START_UP = """
import json, sys
import numpy as np
from spherecov import cli, io
cli.build_parser()
unloaded = [m for m in ("dataclasses", "csv") if m not in sys.modules]
points = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
io.write_points(sys.argv[1], points)
np.testing.assert_array_equal(io.read_points(sys.argv[1] + ".csv"), points)
print(json.dumps([unloaded, "csv" in sys.modules]))
"""


def test_start_up_loads_neither_dataclasses_nor_csv(tmp_path):
    # CSV reading still works: read_table imports csv on its first call
    src = str(Path(spherecov.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", _START_UP, str(tmp_path / "points")],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [["dataclasses", "csv"], True]


def test_start_up_leaves_numpy_random_unloaded():
    # a test command imports numpy.random where it seeds its generators, after start-up
    src = str(Path(spherecov.__file__).resolve().parents[1])
    code = "import sys\nfrom spherecov import cli\ncli.build_parser()\nprint('numpy.random' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
