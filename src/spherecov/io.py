"""File formats for the command-line workbench.

All tabular artifacts are either CSV (17 significant digit floats, LF line
endings) or JSON arrays of records, switched by a single format argument, and
round-trip through the readers here. Run manifests capture the invocation
(command, parameters, seed, library versions, output names) so a run can be
reproduced byte-for-byte; nothing time- or host-dependent goes in.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def _jsonable(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def table_path(base: Path, fmt: str) -> Path:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format: {fmt!r}")
    return base.with_suffix(".csv" if fmt == "csv" else ".json")


def write_table(base: Path, header: list, rows: list, fmt: str = "csv") -> Path:
    """Write rows under the header as CSV or as a JSON array of records."""
    path = table_path(Path(base), fmt)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    else:
        records = [
            {h: _jsonable(v) for h, v in zip(header, row)} for row in rows
        ]
        write_json(path, records)
    return path


def read_table(path) -> tuple:
    """Read a table written by write_table; returns (header, rows of str/values)."""
    path = Path(path)
    if path.suffix == ".json":
        records = read_json(path)
        if not records:
            return [], []
        header = list(records[0].keys())
        return header, [[rec.get(h) for h in header] for rec in records]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def write_points(base: Path, points: np.ndarray, fmt: str = "csv") -> Path:
    points = np.asarray(points, dtype=float)
    return write_table(base, ["x", "y", "z"], points.tolist(), fmt)


def read_points(path) -> np.ndarray:
    header, rows = read_table(path)
    if list(header) != ["x", "y", "z"]:
        raise ValueError(f"{path}: expected point columns x,y,z, got {header}")
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def write_json(path, obj) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


DEFAULT_SOLVER = {"max_iter": 500, "tol": 1e-9, "restarts": None, "seed": 0}


def problem_from_dict(data: dict):
    """Build (InterpProblem, solver settings) from a problem dictionary."""
    from .interpolation import make_problem

    for key in ("domain", "endpoints", "alpha", "invariant"):
        if key not in data:
            raise ValueError(f"problem file is missing the {key!r} field")
    problem = make_problem(
        domain=np.asarray(data["domain"], dtype=float),
        endpoints=np.asarray(data["endpoints"], dtype=float),
        alpha=np.asarray(data["alpha"], dtype=float),
        invariant=data["invariant"],
        obs=None if data.get("obs") is None else np.asarray(data["obs"], dtype=float),
        weight=data.get("weight"),
    )
    solver = dict(DEFAULT_SOLVER)
    solver.update(data.get("solver") or {})
    return problem, solver


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
    rows = list(trace or [])
    return write_table(base, ["iter", "objective", "step", "grad_norm"], rows, fmt)


def write_run_manifest(out_dir, command: str, params: dict, seed, outputs: list,
                       stats: dict | None = None) -> Path:
    from . import __version__

    manifest = {
        "command": command,
        "params": _jsonable(params),
        "seed": seed,
        "versions": {
            "spherecov": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "outputs": sorted(str(o) for o in outputs),
    }
    if stats:
        manifest["stats"] = _jsonable(stats)
    return write_json(Path(out_dir) / "run.json", manifest)
