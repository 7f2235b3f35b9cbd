"""One CLI invocation in a fresh interpreter, timed from the inside.

Usage: child.py RESULT_JSON SPANS_NPZ|- [CLI ARGUMENTS...]

Imports ``spherecov.cli`` and builds its parser (the end of set-up), then
times ``cli.main(argv)``. With a spans path other than ``-`` the public
functions of every spherecov module are wrapped by the tracer for the call and
the spans are written there afterwards. The result file records the monotonic
clock at the end of set-up, the wall time of ``main``, its exit code, the
peak resident set size, and the time of a fixed calibration kernel run just
before and just after ``main``.
"""

import json
import resource
import statistics
import sys
import time

import numpy as np

CALIBRATION_SEGMENTS = 9
CALIBRATION_ROUNDS = 450  # per segment


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter work.

    The mix resembles the program's own (batched 2x2 eigenvalues, a sort, an
    einsum, a short Python loop), so the kernel slows down with the machine
    when other tenants load it, and the benchmark divides that out. The
    kernel runs in segments and the median segment is scaled up, so a brief
    interruption does not count.
    """
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((40, 2, 2))
    mats = mats @ mats.transpose(0, 2, 1) + np.eye(2)
    x = rng.standard_normal(50)
    acc = 0.0
    segments = []
    for _ in range(CALIBRATION_SEGMENTS):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            acc += float(np.linalg.eigvalsh(mats).sum()) + float(np.einsum("i,i->", x, x))
            acc += int(np.argsort(x, kind="stable")[0])
            for j in range(100):
                acc += j * 0.5
        segments.append(time.perf_counter() - t0)
    return statistics.median(segments) * CALIBRATION_SEGMENTS


def main() -> int:
    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from spherecov import cli

    cli.build_parser()
    ready = time.monotonic()
    calibration = [calibrate()]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    calibration.append(calibrate())
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({
            "ready": ready,
            "wall_s": wall,
            "rc": rc,
            "calibration_s": calibration,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
