import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from spherecov import (
    IterationLimitError,
    make_problem,
    observation_scan,
    random_pmfs,
    tr2_scores,
    uniform_sample,
    unit_point,
    unit_points,
)
from spherecov import cli
from spherecov.cli import main
from spherecov.io import dump_problem, read_json, read_points, read_table

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
        assert row[header.index("error")] != ""
        assert row[header.index("T_xi")] == ""
        assert float(row[header.index("pW_d")]) == 1.0


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


def test_interp_gradient_form_mismatch_exits_2(tmp_path):
    ppath = tmp_path / "problem.json"
    _write_trdif_problem(ppath)
    code = main(["interp", "--problem", str(ppath), "--gradient",
                 "multiplicative", "--out", str(tmp_path / "o")])
    assert code == 2


def test_iteration_limit_maps_to_exit_4(tmp_path, monkeypatch, capsys):
    ppath = tmp_path / "problem.json"
    _write_trdif_problem(ppath)

    def blow_up(*args, **kwargs):
        raise IterationLimitError("stalled")

    monkeypatch.setattr("spherecov.cli.solve", blow_up)
    code = main(["interp", "--problem", str(ppath), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


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


def test_scan_best_q_is_the_top_tr2_scan_row():
    args = cli.build_parser().parse_args(
        ["test", "--q-mode", "scan-best", "--grid", "40", "--seed", "0"])
    for seed in range(6):
        local = np.random.default_rng(seed)
        s1 = unit_points(unit_point([0.0, 0.2, 1.0]) + 0.3 * local.normal(size=(25, 3)))
        s2 = unit_points(unit_point([0.2, 0.0, 1.0]) + 0.4 * local.normal(size=(25, 3)))
        got = cli._resolve_q(args, np.random.default_rng(100 + seed), s1, s2)
        grid = uniform_sample(np.random.default_rng(100 + seed), 40)
        rows = observation_scan(s1, s2, grid, criterion="tr2")
        npt.assert_array_equal(got, rows[0].q)
        in_order = observation_scan(s1, s2, grid, criterion="uniform")
        npt.assert_array_equal(tr2_scores(s1, s2, grid), [r.tr2 for r in in_order])
