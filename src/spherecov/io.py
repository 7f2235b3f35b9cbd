"""File formats for the command-line workbench.

All tabular artifacts are either CSV (17 significant digit floats, LF line
endings) or JSON arrays of records, switched by a single format argument, and
round-trip through the readers here. Run manifests capture the invocation
(command, parameters, seed, library versions, output names) so a run can be
reproduced byte-for-byte; nothing time- or host-dependent goes in.
"""

from __future__ import annotations

import json
import numbers
import re
import sys
from pathlib import Path

import numpy as np

from .interpolation import make_problem, solve

__all__ = [
    "FLOAT_FMT",
    "fmt_float",
    "table_path",
    "write_table",
    "read_table",
    "write_points",
    "read_points",
    "write_json",
    "read_json",
    "problem_from_dict",
    "load_problem",
    "dump_problem",
    "write_result",
    "write_trace",
    "write_run_manifest",
]

FLOAT_FMT = "%.17g"


def fmt_float(x) -> str:
    return FLOAT_FMT % float(x)


def _json_default(value):
    """numpy arrays and scalars as Python values, for json.dump's default hook.

    np.float64 subclasses float, so json writes it as it writes a float
    without calling the hook; np.bool_, np.int64 and arrays come here.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def table_path(base: Path, fmt: str) -> Path:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format: {fmt!r}")
    return base.with_suffix(".csv" if fmt == "csv" else ".json")


# A comma, a quote, CR or LF: what csv.writer quotes with CRLF line ends, on
# every Python version (with LF line ends, 3.11's writer leaves a bare CR
# unquoted, and csv.reader then splits the row at it).
_needs_quotes = re.compile('[,"\r\n]').search


def _quoted(cell: str) -> str:
    """One str cell as csv.writer writes it: wrapped in quotes, inner quotes doubled, if needed."""
    return '"%s"' % cell.replace('"', '""') if _needs_quotes(cell) else cell


def _column(col, rows=slice(None)) -> tuple[list, list, str]:
    """Rows of one table column as (JSON values, CSV cells, CSV row-format slot); see write_table.

    A float column without blank cells keeps its floats as cells, for a
    FLOAT_FMT slot. Any other column becomes str cells for a "%s" slot: bools
    as 1/0, ints by str, floats with blanks by FLOAT_FMT, other values by str
    and quoted as csv.writer quotes them, blanks and None as "".
    """
    values, blank = col if isinstance(col, tuple) else (col, None)
    values, blank = values[rows], None if blank is None else blank[rows]
    kind = np.asarray(values).dtype.kind
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    blanks = [] if blank is None else np.flatnonzero(blank).tolist()
    if kind == "f" and not blanks:
        return values, values, FLOAT_FMT
    if kind == "f":
        cells = [FLOAT_FMT % v for v in values]
    elif kind == "b":
        cells = ["1" if v else "0" for v in values]
    elif kind in "iu":
        cells = [str(v) for v in values]
    else:
        cells = ["" if v is None else _quoted(str(v)) for v in values]
    for i in blanks:
        values[i], cells[i] = None, ""
    return values, cells, "%s"


# Rows per chunk: a table's cells are Python objects only one chunk at a time.
_CHUNK_ROWS = 1024

# One JSON record as json.dump(records, indent=2, sort_keys=True) writes it, less its indent.
_encode_record = json.JSONEncoder(indent=2, sort_keys=True, default=_json_default).encode


def write_table(base: Path, columns: dict, fmt: str = "csv") -> Path:
    """Write equal-length columns as CSV or as a JSON array of records.

    columns maps each header name (a str), in order, to one column: a float
    array (every cell as fmt_float writes it), a bool array or list (1/0), a
    list of str/int/None (None blank), or a (values, blank_mask) pair of one
    of these whose masked cells are blank (null in JSON).

    Both formats convert and stream the rows in chunks of _CHUNK_ROWS. CSV
    rows are written one `%` operation each, through one row format per chunk
    (a FLOAT_FMT slot per float column without blanks in it, "%s" for the
    rest). Header names and str cells are quoted as csv.writer quotes them
    (QUOTE_MINIMAL): a cell holding a comma, a quote, CR or LF is wrapped in
    quotes with its quotes doubled, and the empty cell of a one-column row is
    written as "". The bytes equal those of csv.writer with CRLF line endings,
    each row ended with LF instead. JSON records are encoded one at a time,
    and the file holds the bytes of write_json(path, records).
    """
    path = table_path(Path(base), fmt)
    first = next(iter(columns.values()), [])
    rows = len(first[0] if isinstance(first, tuple) else first)
    # a lone empty header cell would read as a blank line
    header = ",".join(map(_quoted, columns)) or '""'
    with open(path, "w", newline="") as fh:
        fh.write("[" if fmt == "json" else header + "\n")
        for lo in range(0, rows, _CHUNK_ROWS):
            values, cells, slots = zip(*(_column(col, slice(lo, lo + _CHUNK_ROWS))
                                         for col in columns.values()))
            if fmt == "json":
                records = (dict(zip(columns, rec)) for rec in zip(*values))
                fh.writelines(("," if lo or i else "") + "\n  "
                              + _encode_record(rec).replace("\n", "\n  ")
                              for i, rec in enumerate(records))
            else:
                if len(columns) == 1 and slots[0] == "%s":
                    cells = [[c or '""' for c in cells[0]]]
                fh.writelines(map((",".join(slots) + "\n").__mod__, zip(*cells)))
        if fmt == "json":
            fh.write("\n]\n" if rows else "]\n")
    return path


def read_table(path) -> tuple:
    """Read a table written by write_table; returns (header, rows of str/values)."""
    path = Path(path)
    if path.suffix == ".json":
        records = read_json(path)
        if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
            raise ValueError(f"{path}: expected a JSON array of records")
        if not records:
            return [], []
        header = list(records[0].keys())
        return header, [[rec.get(h) for h in header] for rec in records]
    import csv  # only CSV reading needs the module, so no writing command loads it

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def write_points(base: Path, points: np.ndarray, fmt: str = "csv") -> Path:
    x, y, z = np.asarray(points, dtype=float).T
    return write_table(base, {"x": x, "y": y, "z": z}, fmt)


def read_points(path) -> np.ndarray:
    """The (n, 3) points of a table with columns x, y, z, each cell parsed by float().

    A header-only table gives (0, 3); a row without 3 cells raises ValueError.
    """
    header, rows = read_table(path)
    if list(header) != ["x", "y", "z"]:
        raise ValueError(f"{path}: expected point columns x,y,z, got {header}")
    for i, row in enumerate(rows, 1):
        if len(row) != 3:
            raise ValueError(f"{path}: point row {i} has {len(row)} cells, expected 3")
    return np.array([[float(v) for v in row] for row in rows], dtype=float).reshape(-1, 3)


def write_json(path, obj) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# A problem file's solver settings, with solve's defaults.
DEFAULT_SOLVER = {key: solve.__kwdefaults__[key] for key in ("max_iter", "tol", "restarts", "seed")}


def _solver_settings(block) -> dict:
    """DEFAULT_SOLVER updated by a problem file's solver block, each setting checked for its type.

    A missing or null block leaves the defaults. max_iter and seed are
    integers, restarts an integer or null, and tol a real number; a bool is
    none of these. Raises ValueError naming the first unknown or mistyped
    setting.
    """
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise ValueError(f"the problem file's 'solver' block must be an object, got {block!r}")
    for key in block:
        if key not in DEFAULT_SOLVER:
            raise ValueError(f"unknown solver setting {key!r}")
    solver = dict(DEFAULT_SOLVER, **block)
    for key, value in solver.items():
        kind = numbers.Real if key == "tol" else numbers.Integral
        if isinstance(value, bool) or not (isinstance(value, kind)
                                           or key == "restarts" and value is None):
            what = "a real number" if key == "tol" else "an integer"
            raise ValueError(f"solver setting {key!r} must be {what}, got {value!r}")
    return solver


def _float_field(data: dict, key: str) -> np.ndarray:
    """A problem field as a float array; raises ValueError naming the field if it is not numeric."""
    try:
        return np.asarray(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"the problem file's {key!r} field is not numeric: {exc}") from exc


def problem_from_dict(data: dict):
    """Build (InterpProblem, solver settings) from a problem dictionary."""
    if not isinstance(data, dict):
        raise ValueError(f"a problem file holds a JSON object, got {type(data).__name__}")
    for key in ("domain", "endpoints", "alpha", "invariant"):
        if key not in data:
            raise ValueError(f"problem file is missing the {key!r} field")
    problem = make_problem(
        domain=_float_field(data, "domain"),
        endpoints=_float_field(data, "endpoints"),
        alpha=_float_field(data, "alpha"),
        invariant=data["invariant"],
        obs=None if data.get("obs") is None else _float_field(data, "obs"),
        weight=data.get("weight"),
    )
    return problem, _solver_settings(data.get("solver"))


def load_problem(path):
    return problem_from_dict(read_json(path))


def dump_problem(path, problem, solver: dict | None = None) -> Path:
    data = {
        "domain": problem.domain,
        "obs": problem.obs,
        "endpoints": problem.endpoints,
        "alpha": problem.alpha,
        "invariant": problem.invariant,
        "weight": problem.weight,
        "solver": dict(DEFAULT_SOLVER, **(solver or {})),
    }
    return write_json(path, data)


def write_result(path, result, extra: dict | None = None) -> Path:
    data = {
        "f_hat": result.f_hat,
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "restart_objectives": list(result.restart_objectives),
    }
    if extra:
        data.update(extra)
    return write_json(path, data)


def write_trace(base, trace, fmt: str = "csv") -> Path:
    it, objective, step, grad_norm = np.array(trace or [], dtype=float).reshape(-1, 4).T
    return write_table(base, {"iter": it.astype(int), "objective": objective, "step": step,
                              "grad_norm": grad_norm}, fmt)


def write_run_manifest(out_dir, command: str, params: dict, seed, outputs: list,
                       stats: dict | None = None) -> Path:
    from . import __version__

    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "versions": {
            "spherecov": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "outputs": sorted(str(o) for o in outputs),
    }
    if stats:
        manifest["stats"] = stats
    return write_json(Path(out_dir) / "run.json", manifest)
