"""Benchmark of the spherecov command-line workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Each invocation of a workload's CLI command runs in a fresh single-threaded
child interpreter (``child.py``), so the start-up cost users pay is counted.
Invocations repeat until ``--seconds`` have passed (at least three, or four
with tracing) and every one has its outputs checked.

With ``--trace 0`` the end-to-end metrics are the medians over invocations of
``setup_s`` (child spawn until ``spherecov.cli`` is imported and
``build_parser()`` has returned), ``wall_s`` (``cli.main`` for the command)
and ``peak_rss_mb`` (the child's ``ru_maxrss``). ``failed_frac`` and, for the
interp workloads, ``objective_gap`` are printed alongside them.

The shared host this was written on changes speed by up to 1.7x for seconds
to tens of seconds at a time, so each child also times a fixed calibration
kernel just before and after ``cli.main``. ``setup_s`` and ``wall_s`` are
expressed at the nominal speed on which that kernel takes
``CALIBRATION_NOMINAL_S``: the raw time times the nominal over the child's
mean kernel time. The raw medians and the kernel time are printed too, and
reported by the traced run.

With ``--trace 1`` traced and untraced invocations alternate; the traced ones
wrap every public spherecov function (``tracer.py``) and the per-layer
metrics come from their spans and counts. ``trace.overhead_s`` is the traced
minus the untraced median ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# The benchmark process and every child stay single-threaded, so BLAS results
# (and with them the reference solves) do not depend on the thread count.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

CHILD_TIMEOUT_S = 120
CALIBRATION_NOMINAL_S = 0.1
MIN_INVOCATIONS = {0: 3, 1: 4}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

IO_WRITERS = ("io.write_table", "io.write_points", "io.write_json",
              "io.write_result", "io.write_trace", "io.write_run_manifest")


def _per_layer_spec():
    """(metric name, unit, source) for every per-layer metric.

    source is ("calls", fn), ("self", fn), ("count", key) or a derived name.
    """
    spec = [
        ("import.scipy_s", "s", ("import", "scipy")),
        ("import.numpy_s", "s", ("import", "numpy")),
        ("import.spherecov_s", "s", ("import", "spherecov")),
    ]
    for fn, parts in (
        ("sampling.rejection_sample", ("calls", "self")),
        ("geometry.log_map_coords", ("calls", "self")),
        ("geometry.tangent_frame", ("calls",)),
        ("twosample.projections_at", ("calls", "self")),
        ("twosample.test_procedure_1", ("self",)),
        ("twosample.test_procedure_2", ("self",)),
        ("twosample.observation_scan", ("self",)),
        ("twosample.det_sign_areas", ("self",)),
        ("ranktests.signed_rank", ("calls", "self")),
        ("ranktests.rank_sum", ("calls", "self")),
        ("ranktests.midranks", ("calls", "self")),
        ("spd.spd_inv_sqrt", ("calls", "self")),
        ("fields.weight_value", ("self",)),
        ("simplex.project_to_simplex", ("calls", "self")),
        ("interpolation.eval_H", ("calls", "self")),
        ("interpolation.grad_H", ("calls", "self")),
        ("interpolation.hessian_H", ("calls",)),
        ("interpolation.precompute", ("self",)),
        ("interpolation.solve", ("calls", "self")),
        ("cli.main", ("self",)),
    ):
        for part in parts:
            unit = "count" if part == "calls" else "s"
            spec.append((f"{fn}.{part}" if part == "calls" else f"{fn}.self_s", unit, (part, fn)))
    for key in ("geometry.log_map_coords.points", "sampling.proposals",
                "ranktests.signed_rank.exact", "ranktests.signed_rank.normal",
                "solver.starts", "solver.starts_failed", "solver.unconverged"):
        spec.append((key, "count", ("count", key)))
    spec += [
        ("sampling.acceptance", "ratio", ("derived", "acceptance")),
        ("twosample.projections_per_item", "ratio", ("derived", "projections_per_item")),
        ("solver.evals_per_iter", "ratio", ("derived", "evals_per_iter")),
        ("solver.objective_gap", "rel", ("derived", "objective_gap")),
        ("io.write_s", "s", ("derived", "io_write")),
        ("io.bytes_written", "B", ("derived", "bytes_written")),
        ("trace.spans", "count", ("derived", "spans")),
        ("machine.calibration_s", "s", ("derived", "calibration")),
        ("machine.raw_setup_s", "s", ("derived", "raw_setup")),
        ("machine.raw_wall_s", "s", ("derived", "raw_wall")),
        ("trace.wall_s", "s", ("derived", "traced_wall")),
        ("trace.overhead_s", "s", ("derived", "overhead")),
    ]
    return spec


PER_LAYER = _per_layer_spec()


@dataclass
class Invocation:
    traced: bool
    problems: list
    setup_s: float | None = None   # at the calibration kernel's nominal speed
    wall_s: float | None = None
    raw_setup_s: float | None = None
    raw_wall_s: float | None = None
    calibration_s: float | None = None
    rss_mb: float | None = None
    gap: float | None = None
    summary: dict | None = None
    imports: dict | None = None
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def _import_times(stderr_text: str) -> dict:
    """Self import time per top-level package, from ``-X importtime`` output."""
    totals = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + int(fields[0]) * 1e-6
    return totals


def _invoke(prep, index: int, traced: bool, work: Path, refs: dict) -> Invocation:
    import tracer
    import workloads

    out = work / f"out{index}"
    result = work / f"result{index}.json"
    spans = work / f"spans{index}.npz"
    errors = work / f"stderr{index}.txt"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD),
           str(result), str(spans) if traced else "-", *prep.argv, "--out", str(out)]
    with open(errors, "w") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=CHILD_TIMEOUT_S)
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            exit_code = None
    stderr_text = errors.read_text()
    inv = Invocation(traced=traced, problems=[])
    try:
        if exit_code != 0 or not result.is_file():
            inv.problems.append(f"child exited with {exit_code}: {stderr_text[-500:]}")
            return inv
        timing = json.loads(result.read_text())
        inv.raw_setup_s = timing["ready"] - t_spawn
        inv.raw_wall_s = timing["wall_s"]
        before, after = timing["calibration_s"]
        inv.calibration_s = 0.5 * (before + after)
        speed = CALIBRATION_NOMINAL_S / inv.calibration_s
        inv.setup_s = inv.raw_setup_s * speed
        inv.wall_s = inv.raw_wall_s * speed
        inv.rss_mb = timing["maxrss_kb"] / 1024.0
        if timing["rc"] != 0:
            inv.problems.append(f"cli exit code {timing['rc']}: {stderr_text[-500:]}")
            return inv
        inv.problems, inv.gap = workloads.check(prep, out, refs)
        if traced:
            inv.summary = tracer.summarize(spans)
            inv.imports = _import_times(stderr_text)
            inv.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return inv
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for path in (result, spans, errors):
            path.unlink(missing_ok=True)


def _warm_up() -> None:
    """Compile the package's bytecode and fill the file cache before timing."""
    subprocess.run([sys.executable, "-c", "import spherecov.cli"], cwd=ROOT,
                   env=_child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
                   check=True)


def _cpu_times():
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """Commit of the checkout when it is a git work tree; read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _record(name, seed, cpu0, cpu1, invocations) -> dict:
    import numpy
    import scipy

    steal = None
    if cpu0 and cpu1:
        delta = [b - a for a, b in zip(cpu0, cpu1)]
        steal = delta[7] / sum(delta) if sum(delta) > 0 else 0.0
    return {
        "workload": name, "seed": seed, "invocations": len(invocations),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
        "steal_share": steal,
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _per_layer(prep, invocations) -> dict:
    traced = [i for i in invocations if i.traced and i.summary is not None]
    plain = [i for i in invocations if not i.traced and i.wall_s is not None]
    if not traced:
        raise RuntimeError("no traced invocation produced spans")
    first = traced[0].summary
    for other in traced[1:]:
        if other.summary["calls"] != first["calls"] or other.summary["counts"] != first["counts"]:
            print("note: call counts differ between traced invocations", file=sys.stderr)

    def calls(fn):
        return first["calls"].get(fn, 0)

    def count(key):
        return first["counts"].get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = _median([i.wall_s for i in traced])
    derived = {
        "acceptance": ratio(count("sampling.points"), count("sampling.proposals")),
        "projections_per_item": ratio(calls("twosample.projections_at"), prep.items),
        "evals_per_iter": ratio(calls("interpolation.eval_H"), calls("interpolation.grad_H")),
        "objective_gap": max([i.gap or 0.0 for i in traced]),
        "io_write": _median([sum(i.summary["self_s"].get(fn, 0.0) for fn in IO_WRITERS)
                             for i in traced]),
        "bytes_written": traced[0].bytes_written,
        "spans": first["spans"],
        "traced_wall": traced_wall,
        "overhead": traced_wall - _median([i.wall_s for i in plain]),
        "calibration": _median([i.calibration_s for i in plain]),
        "raw_setup": _median([i.raw_setup_s for i in plain]),
        "raw_wall": _median([i.raw_wall_s for i in plain]),
    }
    metrics = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind == "calls":
            value = calls(key)
        elif kind == "self":
            value = _median([i.summary["self_s"].get(key, 0.0) for i in traced])
        elif kind == "count":
            value = count(key)
        elif kind == "import":
            value = _median([i.imports.get(key, 0.0) for i in traced])
        else:
            value = derived[key]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool,
                 work: Path) -> dict:
    import workloads

    prep = workloads.prepare(name, seed, work, tiny=tiny)
    refs = workloads.load_references()
    _warm_up()
    cpu0 = _cpu_times()
    invocations = []
    start = time.monotonic()
    while len(invocations) < MIN_INVOCATIONS[trace] or time.monotonic() - start < seconds:
        traced = bool(trace) and len(invocations) % 2 == 1
        inv = _invoke(prep, len(invocations), traced, work, refs)
        for problem in inv.problems:
            print(f"{name} invocation {len(invocations)}: {problem}", file=sys.stderr)
        invocations.append(inv)
    cpu1 = _cpu_times()

    timed = [i for i in invocations if not i.traced and i.wall_s is not None]
    if not timed:
        raise RuntimeError(f"{name}: no invocation completed")
    failed = sum(not i.ok for i in invocations)
    e2e = {
        "setup_s": _median([i.setup_s for i in timed]),
        "wall_s": _median([i.wall_s for i in timed]),
        "peak_rss_mb": _median([i.rss_mb for i in timed]),
    }
    gaps = [i.gap for i in invocations if i.gap is not None]
    print("record: " + json.dumps(_record(name, seed, cpu0, cpu1, invocations), sort_keys=True))
    for key, value in e2e.items():
        print(f"{name:<13} {key:<14} {value:.6g} {END_TO_END_UNITS[key]}")
    for key in ("raw_setup_s", "raw_wall_s", "calibration_s"):
        value = _median([getattr(i, key) for i in timed])
        print(f"{name:<13} {key:<14} {value:.6g} s")
    print(f"{name:<13} {'failed_frac':<14} {failed / len(invocations):.6g} ratio")
    if workloads.WORKLOADS[name].interp:
        gap = f"{max(gaps):.6g} rel" if gaps else "n/a (no reference at this size)"
        print(f"{name:<13} {'objective_gap':<14} {gap}")
    if trace:
        metrics = _per_layer(prep, invocations)
        for key, m in metrics.items():
            print(f"{name:<13} {key:<36} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"correct": failed == 0, "attempted": len(invocations), "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for this long (at least three invocations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test; no reference comparison")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "spherecov" / "cli.py").is_file():
        print(f"spherecov sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, args.tiny, work)
                   for n in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
