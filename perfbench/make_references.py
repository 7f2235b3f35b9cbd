"""Write ``references.json``: stored outputs of every workload at the default seed.

    python3 perfbench/make_references.py

Runs each workload's CLI command once in-process at full size and keeps what
``workloads.py`` compares against: the per-row p-values of ``test-fixed``,
the top rows of ``scan-grid``, the best known objective at each alpha point
of ``interp-sweep`` (the lower of the CLI's value and a 64-start solve per
seed over four seeds) and the objective of ``interp-large``. Rerun it only
when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, SRC  # sets single-threaded BLAS before numpy loads, as runs do

import numpy as np  # noqa: E402

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _best_known_sweep(prep, cli_objectives) -> list:
    from spherecov import interpolation, io

    problem, _ = io.load_problem(workloads.FIXTURE)
    kernels = interpolation.precompute(problem)
    best = []
    for t, obj in zip(np.linspace(0.0, 1.0, prep.items), cli_objectives):
        sub = problem.with_alpha(np.array([1.0 - t, t]))
        for seed in range(4):
            res = interpolation.solve(sub, kernels, max_iter=20000, tol=1e-12,
                                      restarts=64, seed=seed)
            obj = min(obj, res.objective)
        best.append(obj)
    return best


def main() -> int:
    from spherecov import cli

    work = ROOT / ".perfbench_work" / "references"
    work.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for name in workloads.WORKLOADS:
            prep = workloads.prepare(name, workloads.DEFAULT_SEED, work)
            out = work / name
            if cli.main([*prep.argv, "--out", str(out)]) != 0:
                raise RuntimeError(f"{name}: the CLI failed")
            if name == "test-fixed":
                refs[name] = {"p_values": workloads._test_pvalues(out)[0]}
            elif name == "scan-grid":
                refs[name] = {"top_rows": workloads._scan_top(out, workloads.SCAN_TOP_ROWS)[0]}
            elif name == "interp-sweep":
                header, rows = workloads._read_csv(out / "interp.csv")
                col = header.index("objective")
                cli_obj = [float(r[col]) for r in rows[::3]]
                refs[name] = {"objectives": _best_known_sweep(prep, cli_obj)}
            else:
                result = json.loads((out / "result.json").read_text())
                refs[name] = {"objective": result["objective"]}
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
