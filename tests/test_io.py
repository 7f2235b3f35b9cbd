import csv
import inspect
import io
import json
import re
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherecov.io as sio
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
    columns = {"run": [0, 1], "value": np.array([0.1 + 0.2, -1e-17]), "flag": [True, False],
               "note": ["ok", None]}
    header = list(columns)
    path = write_table(tmp_path / "t", columns, "csv")
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
    columns = {"a": [1, 3], "b": (np.array([2.5, 0.0]), [False, True])}
    path = write_table(tmp_path / "t", columns, "json")
    got_header, got_rows = read_table(path)
    assert got_header == header
    assert got_rows == [[1, 2.5], [3, None]]
    assert path.read_text().endswith("\n")


def _cell_by_cell(value) -> str:
    """The CSV text of one cell under the per-cell rule that columnar tables replaced."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def _csv_line(cells) -> str:
    """One row as csv.writer writes it with CRLF line ends (so CR is quoted on every
    Python version), ended with LF instead."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _write_rows(path, header, rows, fmt):
    """Row-at-a-time table writer, the reference the column writer must equal byte for byte."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(_csv_line(header))
            for row in rows:
                fh.write(_csv_line([_cell_by_cell(v) for v in row]))
    else:
        write_json(path, [dict(zip(header, row)) for row in rows])


_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, 0.1]))
_INTS = st.integers(min_value=-2**63, max_value=2**63 - 1)
_STR = st.one_of(st.text(max_size=8),
                 st.sampled_from(['a,b', 'say "hi"', '"', ",", "", "x\ny", "1e5", "\r", "a\r\nb"]))
_TEXT = st.one_of(st.none(), _STR)


@st.composite
def _column(draw, n):
    """One column as write_table takes it, and its cells as the rows of the old API held them."""
    kind = draw(st.sampled_from(["float", "float_list", "masked", "bool", "bool_list", "int",
                                 "int_array", "masked_int", "text"]))
    blank = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if kind in ("float", "float_list", "masked"):
        values = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
        if kind == "float":
            return values, list(values)
        if kind == "float_list":
            return values.tolist(), values.tolist()
        return (values, np.array(blank)), [None if b else v for v, b in zip(values, blank)]
    if kind in ("bool", "bool_list"):
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if kind == "bool":
            return np.array(flags), list(np.array(flags))
        # Python and numpy bools mixed in one list
        mixed = [np.bool_(f) if b else f for f, b in zip(flags, blank)]
        return mixed, mixed
    if kind in ("int", "int_array", "masked_int"):
        ints = draw(st.lists(_INTS, min_size=n, max_size=n))
        if kind == "int":
            return ints, ints
        arr = np.array(ints, dtype=np.int64)
        if kind == "int_array":
            return arr, list(arr)
        return (arr, blank), [None if b else v for v, b in zip(arr, blank)]
    text = draw(st.lists(_TEXT, min_size=n, max_size=n))
    return text, text


def _column_and_row_writers_agree(tmp_path_factory, fmt, data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    width = data.draw(st.integers(min_value=1, max_value=5))
    drawn = [data.draw(_column(n)) for _ in range(width)]
    header = data.draw(st.lists(_STR, min_size=width, max_size=width, unique=True))
    tmp = tmp_path_factory.mktemp("t")
    got = write_table(tmp / "columns", dict(zip(header, (c for c, _ in drawn))), fmt)
    ref = tmp / ("rows" + got.suffix)
    _write_rows(ref, header, list(zip(*(cells for _, cells in drawn))), fmt)
    assert got.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_writer_equals_row_writer(tmp_path_factory, fmt, data):
    _column_and_row_writers_agree(tmp_path_factory, fmt, data)


@pytest.mark.parametrize("chunk_rows", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_writer_equals_row_writer_across_chunks(tmp_path_factory, fmt, chunk_rows, data):
    # up to 6 rows in chunks of 1 or 2: rows and records on both sides of chunk boundaries
    with mock.patch.object(sio, "_CHUNK_ROWS", chunk_rows):
        _column_and_row_writers_agree(tmp_path_factory, fmt, data)


@pytest.mark.parametrize("header, column, cells", [
    ("", ["", None, "a,b", "\r", "a\r\nb"], ["", "", "a,b", "\r", "a\r\nb"]),
    ("v", (np.array([1.5, 2.0]), [True, False]), [None, 2.0]),
    ("v", np.array([0.5, -0.0]), [0.5, -0.0]),
    ("n", [], []),
    ('say "hi"', np.array([], dtype=float), []),
])
def test_one_column_and_zero_row_tables_equal_csv_writer(tmp_path, header, column, cells):
    got = write_table(tmp_path / "columns", {header: column}, "csv")
    ref = tmp_path / "rows.csv"
    _write_rows(ref, [header], [[c] for c in cells], "csv")
    assert got.read_bytes() == ref.read_bytes()


def test_str_cells_with_cr_lf_comma_and_quote_round_trip(tmp_path):
    notes = ["\r", "a\rb", "a\r\nb", ",", '"', "x\ny", "plain"]
    path = write_table(tmp_path / "t", {"note": notes, "v": list(range(len(notes)))}, "csv")
    header, rows = read_table(path)
    assert header == ["note", "v"]
    assert rows == [[note, str(i)] for i, note in enumerate(notes)]


def test_column_floats_are_written_as_fmt_float(tmp_path):
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1 + 0.2, 1e-17, 3.0])
    path = write_table(tmp_path / "t", {"v": values}, "csv")
    _, rows = read_table(path)
    assert [r[0] for r in rows] == [fmt_float(v) for v in values]
    assert [r[0] for r in rows][:4] == ["nan", "inf", "-inf", "-0"]


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


def _same_bits_or_nan(back: np.ndarray, pts: np.ndarray) -> bool:
    nan = np.isnan(pts)
    return (np.array_equal(np.isnan(back), nan)
            and back[~nan].tobytes() == pts[~nan].tobytes())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS), min_size=1, max_size=12))
def test_points_read_back_with_the_bits_written(tmp_path_factory, triples):
    pts = np.array(triples, dtype=float).reshape(-1, 3)
    for fmt in ("csv", "json"):
        path = write_points(tmp_path_factory.mktemp("p") / "points", pts, fmt)
        assert _same_bits_or_nan(read_points(path), pts)


def test_points_read_back_special_values(tmp_path):
    pts = np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, -5e-324],
                    [0.1 + 0.2, 1e308, -2.2250738585072014e-308]])
    for fmt in ("csv", "json"):
        back = read_points(write_points(tmp_path / f"points-{fmt}", pts, fmt))
        assert _same_bits_or_nan(back, pts)
        assert np.signbit(back[1, 0])


@pytest.mark.parametrize("text, error, message", [
    ("x,y,z\n1,2,abc\n", ValueError, "could not convert string to float: 'abc'"),
    ("x,y,z\n1,2,\n", ValueError, "could not convert string to float: ''"),
    ("x,y,z\n1,2,3\n1,2\n", ValueError, None)])
def test_bad_point_cells_fail_as_float_does(tmp_path, text, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(error) as got:
        read_points(path)
    if message is not None:
        assert str(got.value) == message


def test_null_json_point_cell_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"x": 1.0, "y": null, "z": 0.0}]')
    with pytest.raises(TypeError):
        read_points(path)


def test_header_only_point_table_reads_as_no_points(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,z\n")
    assert read_points(path).shape == (0, 3)


def test_point_row_without_three_cells_names_the_file(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x,y,z\n1,2,3\n1,2,3,4\n")
    message = f"{path}: point row 2 has 4 cells, expected 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_points(path)


@pytest.mark.parametrize("text", ["[[1, 2, 3]]", '{"x": 1}', "[{}, 5]"])
def test_json_table_that_is_not_an_array_of_records_names_the_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    message = f"{path}: expected a JSON array of records"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_table(path)


def test_problem_file_solver_defaults_are_solves(tmp_path):
    # a problem file without a solver block, or dumped without settings, solves as solve does
    rng = np.random.default_rng(3)
    prob = make_problem(uniform_sample(rng, 5), random_pmfs(rng, 5, 2), [0.5, 0.5], "trln2")
    path = tmp_path / "problem.json"
    dump_problem(path, prob)
    data = read_json(path)
    params = inspect.signature(solve).parameters
    defaults = {key: params[key].default for key in ("max_iter", "tol", "restarts", "seed")}
    assert data.pop("solver") == defaults
    assert sio.problem_from_dict(data)[1] == defaults


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


def test_json_numpy_values_write_the_bytes_of_python_values(tmp_path):
    arrays = {"f": np.array([[0.1, np.nan], [-np.inf, 2.0]]), "i": np.arange(3),
              "b": np.array([True, False]), "empty": np.zeros((0, 3))}
    numpy_obj = {"bool": np.bool_(True), "int": np.int64(-7), "float": np.float64(0.1),
                 "nan": np.float64(np.nan), "tuple": (np.int64(1), np.float64(2.5), None),
                 "nested": [{"x": np.bool_(False)}, "s"], **arrays}
    python_obj = {"bool": True, "int": -7, "float": 0.1, "nan": float("nan"),
                  "tuple": [1, 2.5, None], "nested": [{"x": False}, "s"],
                  **{k: v.tolist() for k, v in arrays.items()}}
    a = write_json(tmp_path / "numpy.json", numpy_obj).read_bytes()
    assert a == write_json(tmp_path / "python.json", python_obj).read_bytes()
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})


def test_json_keys_sorted(tmp_path):
    path = write_json(tmp_path / "obj.json", {"b": 1, "a": np.float64(2.0)})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2.0, "b": 1}
