"""Span recorder that wraps the public functions of the spherecov modules.

Every function listed in a module's ``__all__`` and defined in that module is
replaced by a wrapper that records one span (name, start, end, parent span)
per call. The wrapper is bound wherever the original function object is bound
in any loaded ``spherecov`` module, so calls through ``cli.projections_at``,
``twosample.signed_rank`` or a module-internal global such as
``interpolation.grad_H`` are all seen. Results are returned unchanged.

A few boundaries also record counts (points passed to the log map, sampler
proposals, exact versus normal rank tests, solver starts). Spans are kept in
memory and written once, by ``dump``, as an ``.npz`` file that
``summarize`` turns into per-function calls and self times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "spherecov"


def _layer_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _count_log_map_points(counts, args, kwargs, result):
    points = kwargs["points"] if "points" in kwargs else args[1]
    counts["geometry.log_map_coords.points"] += len(points)


def _count_signed_rank_method(counts, args, kwargs, result):
    key = "exact" if result.method == "exact" else "normal"
    counts[f"ranktests.signed_rank.{key}"] += 1


def _count_solver_starts(counts, args, kwargs, result):
    counts["solver.starts"] += result.restarts_used
    counts["solver.starts_failed"] += result.restarts_used - len(result.restart_objectives)
    counts["solver.unconverged"] += int(not result.converged)


# per-name hooks run after a call returns: hook(counts, args, kwargs, result)
RESULT_HOOKS = {
    "geometry.log_map_coords": _count_log_map_points,
    "ranktests.signed_rank": _count_signed_rank_method,
    "interpolation.solve": _count_solver_starts,
}


class Tracer:
    """Records spans in memory while installed; restores every binding on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = RESULT_HOOKS.get(name)
        if name == "sampling.rejection_sample":
            fn = self._counting_sampler(fn)
        clock = time.perf_counter
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[sid] = t0
                span_end[sid] = t1
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counting_sampler(self, fn):
        """Asks the sampler for its proposal count and hands back what the caller asked for."""
        counts = self.counts

        @functools.wraps(fn)
        def sample(params, n, rng, return_proposals=False):
            points, proposals = fn(params, n, rng, return_proposals=True)
            counts["sampling.points"] += len(points)
            counts["sampling.proposals"] += proposals
            return (points, proposals) if return_proposals else points

        return sample

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _layer_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
            counts=np.array(json.dumps(dict(self.counts), sort_keys=True)),
        )


def bindings() -> dict:
    """Identity of every callable bound in the loaded spherecov modules."""
    return {(mod.__name__, attr): id(value)
            for mod in _layer_modules()
            for attr, value in vars(mod).items() if callable(value)}


def summarize(path) -> dict:
    """Per-name call counts and self times, plus the recorded counts.

    A span's self time is its duration minus the durations of its direct
    child spans; calls run on one thread, so children nest inside parents.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        counts = json.loads(str(data["counts"]))
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = np.bincount(name, weights=dur - child_time, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    return {
        "calls": {n: int(c) for n, c in zip(names, calls)},
        "self_s": {n: float(s) for n, s in zip(names, self_time)},
        "counts": counts,
        "spans": int(len(dur)),
    }
