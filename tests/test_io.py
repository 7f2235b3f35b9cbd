import json

import numpy as np
import numpy.testing as npt
import pytest

from spherecov import make_problem, random_pmfs, solve, uniform_sample
from spherecov.io import (
    dump_problem,
    fmt_float,
    load_problem,
    read_json,
    read_points,
    read_table,
    table_path,
    write_json,
    write_points,
    write_result,
    write_run_manifest,
    write_table,
    write_trace,
)


def test_table_path_extension():
    from pathlib import Path
    assert table_path(Path("/tmp/x"), "csv").suffix == ".csv"
    assert table_path(Path("/tmp/x"), "json").suffix == ".json"
    with pytest.raises(ValueError):
        table_path(Path("/tmp/x"), "tsv")


def test_float_format_round_trips_exactly():
    rng = np.random.default_rng(0)
    for x in rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200):
        assert float(fmt_float(x)) == x
    assert fmt_float(1.0) == "1"


def test_write_read_table_csv(tmp_path):
    header = ["run", "value", "flag", "note"]
    rows = [[0, 0.1 + 0.2, True, "ok"], [1, -1e-17, False, None]]
    path = write_table(tmp_path / "t", header, rows, "csv")
    got_header, got_rows = read_table(path)
    assert got_header == header
    assert got_rows[0][0] == "0"
    assert float(got_rows[0][1]) == 0.1 + 0.2
    assert got_rows[0][2] == "1"
    assert got_rows[1][2] == "0"
    assert got_rows[1][3] == ""
    # LF endings only
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_write_read_table_json(tmp_path):
    header = ["a", "b"]
    rows = [[1, 2.5], [3, None]]
    path = write_table(tmp_path / "t", header, rows, "json")
    got_header, got_rows = read_table(path)
    assert got_header == header
    assert got_rows == [[1, 2.5], [3, None]]
    assert path.read_text().endswith("\n")


def test_points_round_trip(tmp_path):
    pts = uniform_sample(np.random.default_rng(1), 17)
    path = write_points(tmp_path / "points", pts, "csv")
    back = read_points(path)
    npt.assert_array_equal(back, pts)
    # wrong header rejected
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_points(bad)


def test_problem_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    prob = make_problem(
        uniform_sample(rng, 5), random_pmfs(rng, 5, 2), np.array([0.3, 0.7]), "lik"
    )
    path = tmp_path / "problem.json"
    dump_problem(path, prob, {"max_iter": 123})
    back, solver = load_problem(path)
    # loading re-normalizes the geometry, which can shift the last ulp
    npt.assert_allclose(back.domain, prob.domain, atol=1e-15)
    npt.assert_allclose(back.obs, prob.obs, atol=1e-15)
    npt.assert_allclose(back.endpoints, prob.endpoints, atol=1e-15)
    npt.assert_allclose(back.alpha, prob.alpha, atol=1e-15)
    assert back.invariant == prob.invariant
    assert back.weight == prob.weight
    assert solver["max_iter"] == 123
    assert solver["tol"] == 1e-9


def test_problem_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    write_json(path, {"domain": [[0, 0, 1.0]], "alpha": [1.0], "invariant": "lik"})
    with pytest.raises(ValueError):
        load_problem(path)


def test_write_result_and_trace(tmp_path):
    rng = np.random.default_rng(3)
    prob = make_problem(
        uniform_sample(rng, 5), random_pmfs(rng, 5, 2), np.array([0.5, 0.5]), "trdif"
    )
    res = solve(prob, record_trace=True)
    rpath = write_result(tmp_path / "result.json", res, extra={"invariant": "trdif"})
    data = read_json(rpath)
    npt.assert_allclose(data["f_hat"], res.f_hat, atol=0.0)
    assert data["objective"] == res.objective
    assert data["converged"] == res.converged
    assert data["invariant"] == "trdif"
    tpath = write_trace(tmp_path / "trace", res.trace, "csv")
    header, rows = read_table(tpath)
    assert header == ["iter", "objective", "step", "grad_norm"]
    assert len(rows) == len(res.trace or [])


def test_manifest_is_deterministic(tmp_path):
    params = {"n": 10, "a1": 0.2, "mu": [0.0, 0.0, 1.0], "note": None}
    p1 = write_run_manifest(tmp_path, "sample", params, 7, ["points.csv"],
                            stats={"acceptance_rate": 0.5})
    first = p1.read_bytes()
    p2 = write_run_manifest(tmp_path, "sample", params, 7, ["points.csv"],
                            stats={"acceptance_rate": 0.5})
    assert p2.read_bytes() == first
    data = json.loads(first)
    assert data["command"] == "sample"
    assert data["seed"] == 7
    assert data["outputs"] == ["points.csv"]
    assert set(data["versions"]) == {"spherecov", "numpy", "python"}
    # nothing time- or host-dependent in the manifest
    assert "time" not in first.decode().lower()


def test_json_keys_sorted(tmp_path):
    path = write_json(tmp_path / "obj.json", {"b": 1, "a": np.float64(2.0)})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2.0, "b": 1}
