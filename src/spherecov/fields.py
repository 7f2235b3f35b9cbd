"""Covariance operator fields of spherical distributions.

A point operator at q for a point p is the weighted rank-1 matrix
(log_q p)(log_q p)' r(d(q, p)) in an orthonormal frame at q. Averaging point
operators over a sample, or mixing them with pmf weights over a fixed
domain, produces the covariance operators studied here. Every one of them
is a sum of such rank-1 terms from one kernel, _op_sums, at points that
each public function normalises once. Two weight choices are supported:

  unit:    r(t) = 1,               trace of the operator is t^2
  pihalf:  r(t) = (1 - pi/(2t))^2, trace of the operator is (t - pi/2)^2

The pihalf weight is undefined at coincident points: the trace limit is
(pi/2)^2 but the rank-1 direction has no limit, so coincidence is an error.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentPointError,
    DimensionMismatchError,
    IterationLimitError,
    NotHemisphericError,
    ObservationMismatchError,
    FrameMismatchError,
)
from .geometry import TangentFrame, TangentVec, exp_map, log_map_coords, tangent_frame, unit_point, unit_points
from .geometry import _log_coords, _unit_base
from .simplex import as_pmf, project_to_simplex
from .spd import make_invariant

__all__ = [
    "COINCIDENT_EPS",
    "WEIGHT_KINDS",
    "weight_value",
    "point_operator",
    "point_operators",
    "sample_cov_operator",
    "CovField",
    "pmf_cov_field",
    "quadratic_form",
    "field_distance",
    "hemispheric_witness",
    "intrinsic_mean",
]

COINCIDENT_EPS = 1e-8
WEIGHT_KINDS = ("unit", "pihalf")

_WITNESS_TOL, _WITNESS_MAX_ITER = 1e-8, 20000  # largest hull norm that fails; step budget
_MEAN_TOL, _MEAN_MAX_ITER = 1e-10, 1000  # gradient norm that ends intrinsic_mean; step budget


def weight_value(kind: str, t):
    """Evaluate the weight function r at distance(s) t."""
    t = np.asarray(t, dtype=float)
    if kind == "unit":
        return np.ones_like(t)
    if kind == "pihalf":
        return (1.0 - np.pi / (2.0 * t)) ** 2
    raise ValueError(f"unknown weight kind: {kind!r}")


def _op_sums(u, c=1.0):
    """sum_i c_i u_i u_i' over the point axis of log coordinates u (..., n, 2)
    with coefficients c (..., n), or 1: the one construction of every
    covariance operator here, (..., 2, 2)."""
    return np.swapaxes(u * np.expand_dims(c, -1), -1, -2) @ u


def _weighted_logs(q, pts, weight: str):
    """Log coordinates (..., n, 2) of the unit points pts at the unit base
    point(s) q, and the weights r(d) (..., n) and distances d (..., n)."""
    if weight not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind: {weight!r}")
    u, d = _log_coords(q, pts)
    if weight == "pihalf" and np.any(d < COINCIDENT_EPS):
        raise CoincidentPointError(
            "pihalf weight is undefined at a coincident point pair"
        )
    return u, weight_value(weight, d), d


def point_operators(q, points, weight: str = "unit"):
    """Point operators at q for each row of points.

    q is one base point (3,) or a batch (k, 3), as for log_map_coords.

    Returns:
        (ops, dists): (..., n, 2, 2) operators in the frame tangent_frame(q)
        and the (..., n) geodesic distances.

    Raises:
        AntipodalPointError: any point antipodal to q.
        CoincidentPointError: pihalf weight with some d(q, p) below 1e-8.
    """
    u, w, d = _weighted_logs(_unit_base(q), unit_points(points), weight)
    return _op_sums(u[..., None, :], w[..., None]), d


def point_operator(q, p, weight: str = "unit") -> np.ndarray:
    """Single-point operator (log_q p)(log_q p)' r(d(q, p)) at q."""
    ops, _ = point_operators(q, np.asarray(p, dtype=float)[None, :], weight)
    return ops[0]


def sample_cov_operator(q, sample, weight: str = "unit") -> np.ndarray:
    """Arithmetic mean of the point operators of a sample at q, one point (3,) or a batch (k, 3)."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2 or len(sample) == 0:
        raise DimensionMismatchError("sample must be a nonempty (n, 3) array")
    u, w, _ = _weighted_logs(_unit_base(q), unit_points(sample), weight)
    return _op_sums(u, w) / len(sample)


class CovField(NamedTuple("CovField", [("obs", np.ndarray), ("ops", np.ndarray)])):
    """Observation points obs (k, 3) paired with 2x2 operators ops (k, 2, 2) in their canonical frames."""

    __slots__ = ()

    def __new__(cls, obs, ops):
        if len(obs) != len(ops):
            raise DimensionMismatchError("obs and ops lengths differ")
        return super().__new__(cls, obs, ops)

    @classmethod
    def _make(cls, iterable):
        """Through __new__, so that _replace checks its fields too."""
        return cls(*iterable)


def pmf_cov_field(f, domain, obs, weight: str = "unit") -> CovField:
    """Discrete covariance field sum_i f_i op(q_j, p_i) at each q_j.

    Linear in f. Admissibility of every (q_j, p_i) pair is validated by the
    underlying point-operator construction.
    """
    f = as_pmf(f, what="pmf")
    domain = unit_points(domain)
    if len(f) != len(domain):
        raise DimensionMismatchError(
            f"pmf length {len(f)} != domain size {len(domain)}"
        )
    obs = unit_points(obs)
    u, w, _ = _weighted_logs(obs, domain, weight)
    return CovField(obs=obs, ops=_op_sums(u, f * w))


def quadratic_form(v: TangentVec, op, op_frame: TangentFrame) -> float:
    """<v, op v> in frame coordinates (the metric is the identity there).

    Raises:
        FrameMismatchError: v and op are expressed in different frames.
    """
    if not v.frame.matches(op_frame):
        raise FrameMismatchError("tangent vector and operator frames differ")
    op = np.asarray(op, dtype=float)
    return float(v.u @ op @ v.u)


def field_distance(f1: CovField, f2: CovField, h="trln2") -> float:
    """Sum over shared observation points of h(op1_j, op2_j); h is a name for
    make_invariant or a callable that maps the two (k, 2, 2) stacks to k values."""
    if isinstance(h, str):
        h = make_invariant(h)
    if len(f1.obs) != len(f2.obs) or not np.allclose(f1.obs, f2.obs, rtol=0.0, atol=1e-12):
        raise ObservationMismatchError("fields are on different observation sets")
    return float(np.sum(h(f1.ops, f2.ops)))


def hemispheric_witness(points) -> np.ndarray:
    """A direction q with <p_i, q> > 0 for all points, if one exists.

    Computes the minimum-norm point z of the convex hull of the points by
    projected gradient descent over mixture weights. The hull avoids the
    origin exactly when the points fit in an open hemisphere, and then
    q = z/|z| satisfies <p_i, q> >= |z| > 0 for every i by optimality of z.

    Raises:
        NotHemisphericError: the minimum norm is at most 1e-8.
    """
    pts = unit_points(points)
    n = len(pts)
    gram = pts @ pts.T
    lam = np.full(n, 1.0 / n)
    step = 1.0 / max(np.linalg.eigvalsh(gram).max(), 1e-12)
    for _ in range(_WITNESS_MAX_ITER):
        new = project_to_simplex(lam - step * (gram @ lam))
        if np.max(np.abs(new - lam)) < 1e-14:
            lam = new
            break
        lam = new
    z = pts.T @ lam
    norm = np.linalg.norm(z)
    if norm <= _WITNESS_TOL:
        raise NotHemisphericError(
            "points are not contained in any open hemisphere"
        )
    return z / norm


def intrinsic_mean(sample) -> np.ndarray:
    """Karcher mean by the fixed-point iteration q <- exp_q(mean log_q p_i).

    The sample must lie in an open hemisphere (checked up front), which
    keeps the mean unique at the scales used here. Initialization is the
    normalized extrinsic mean.

    Raises:
        NotHemisphericError: no open hemisphere contains the sample.
        IterationLimitError: gradient norm still at least 1e-10 after 1000 steps.
    """
    pts = unit_points(sample)
    hemispheric_witness(pts)
    q = unit_point(pts.mean(axis=0))
    for _ in range(_MEAN_MAX_ITER):
        coords, _ = log_map_coords(q, pts)
        g = coords.mean(axis=0)
        if np.linalg.norm(g) < _MEAN_TOL:
            return q
        q = exp_map(q, TangentVec(frame=tangent_frame(q), u=g))
    raise IterationLimitError(
        f"intrinsic mean did not reach tolerance {_MEAN_TOL:g} in {_MEAN_MAX_ITER} iterations"
    )
