"""Geometry of the unit 2-sphere.

Closed-form log/exp maps, geodesic distance, deterministic orthonormal
tangent frames, rotations, uniform sampling, and the geographic-coordinate
metric used by the coordinate-invariance cross-checks.

All points are unit 3-vectors (numpy arrays). Tangent vectors are stored as
2 coordinates in an orthonormal frame at their base point, so the metric
representation in that frame is the identity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AntipodalPointError, FrameMismatchError

__all__ = [
    "ANTIPODAL_EPS",
    "TangentFrame",
    "TangentVec",
    "unit_point",
    "unit_points",
    "tangent_frame",
    "tangent_frames",
    "log_map",
    "log_map_coords",
    "exp_map",
    "geodesic_distance",
    "geodesic_distances",
    "rotation_about",
    "rotate_points",
    "uniform_sample",
    "geographic_metric",
    "geographic_point",
    "geographic_basis",
]

# Distances are atan2(|q x p|, <q, p>), accurate at every separation. The log
# map is undefined at the antipode, so it rejects distances at or beyond
# _ANTIPODAL_DIST, where the cosine of unit vectors is -1 + ANTIPODAL_EPS.
ANTIPODAL_EPS = 1e-9
_ANTIPODAL_DIST = float(np.arccos(-1.0 + ANTIPODAL_EPS))


def unit_point(p) -> np.ndarray:
    """Return p as a unit 3-vector, renormalizing if needed."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    return unit_points(p[None, :])[0]


def unit_points(points) -> np.ndarray:
    """Return an (n, 3) array, or a stack (..., n, 3), of unit rows, renormalizing each row."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
    norms = np.linalg.norm(pts, axis=-1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("cannot normalize zero or non-finite rows")
    return pts / norms[..., None]


class TangentFrame(NamedTuple):
    """Right-handed orthonormal frame (e1, e2, base) of the tangent plane."""

    base: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def lift(self, uv) -> np.ndarray:
        """Ambient 3-vector(s) of frame coordinates uv."""
        uv = np.asarray(uv, dtype=float)
        return np.multiply.outer(uv[..., 0], self.e1) + np.multiply.outer(uv[..., 1], self.e2)

    def matches(self, other: "TangentFrame") -> bool:
        return (
            np.allclose(self.base, other.base, rtol=0.0, atol=1e-12)
            and np.allclose(self.e1, other.e1, rtol=0.0, atol=1e-12)
            and np.allclose(self.e2, other.e2, rtol=0.0, atol=1e-12)
        )


class TangentVec(NamedTuple):
    """Tangent vector at frame.base, stored as 2 frame coordinates."""

    frame: TangentFrame
    u: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.hypot(self.u[0], self.u[1]))

    def ambient(self) -> np.ndarray:
        return self.frame.lift(self.u)


def _unit_base(q) -> np.ndarray:
    """One base point (3,) or a batch of them (k, 3), as unit vectors."""
    q = np.asarray(q, dtype=float)
    return unit_point(q) if q.ndim == 1 else unit_points(q)


def _frame_axes(q):
    """(e1, e2) of the deterministic frame at each unit base point in q."""
    axis = (np.arange(3) == np.argmin(np.abs(q), axis=-1)[..., None]).astype(float)
    e1 = axis - np.sum(axis * q, axis=-1, keepdims=True) * q
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return e1, np.cross(q, e1)


def tangent_frame(q) -> TangentFrame:
    """Deterministic orthonormal frame at q.

    Picks the ambient axis least aligned with q, Gram-Schmidts it into e1,
    and sets e2 = q x e1, giving a right-handed triple (e1, e2, q).
    """
    q = unit_point(q)
    e1, e2 = _frame_axes(q)
    return TangentFrame(base=q, e1=e1, e2=e2)


def tangent_frames(qs) -> list:
    """tangent_frame at each row of qs (k, 3), from one batched construction."""
    qs = unit_points(qs)
    e1, e2 = _frame_axes(qs)
    return [TangentFrame(base=q, e1=a, e2=b) for q, a, b in zip(qs, e1, e2)]


def _cross_dot(q, pts):
    """q x p and <q, p> for every base point in q and every row p of pts.

    pts (n, 3) is shared by every base point; pts (k, n, 3) pairs its k-th
    set with the k-th base point of q (k, 3). Each <q, p> row is its own
    (1, 3) @ (3, n) product, which gives the bits of the single-point call;
    one (k, 3) @ (3, n) product would round differently in some rows.
    """
    c = (q[..., None, :] @ np.swapaxes(pts, -1, -2))[..., 0, :]
    return np.cross(q[..., None, :], pts), c


def _geodesics(q, pts):
    """q x p, |q x p| and the distance atan2(|q x p|, <q, p>) for unit base points q (see _cross_dot)."""
    cross, c = _cross_dot(q, pts)
    s = np.linalg.norm(cross, axis=-1)
    return cross, s, np.arctan2(s, c)


def geodesic_distances(q, points) -> np.ndarray:
    """Distances atan2(|q x p|, <q, p>) from q to each row of points.

    q is one base point (3,) or a batch (k, 3); the result has shape (n,)
    or (k, n).
    """
    return _geodesics(_unit_base(q), np.asarray(points, dtype=float))[2]


def geodesic_distance(q, p) -> float:
    """Great-circle distance between q and p, in [0, pi]."""
    return float(geodesic_distances(q, unit_point(p)[None, :])[0])


def log_map_coords(q, points):
    """Log map at one base point or a batch of them, as tangent_frame coordinates.

    Args:
        q: base point (3,) or base points (k, 3).
        points: (n, 3) array of target points, shared by every base point,
            or (k, n, 3) with one set per base point (a paired batch, whose
            k-th row equals the single-point call on q[k] and points[k]).

    Returns:
        (coords, dists): (..., n, 2) coordinates of log_q(p) in the frame
        tangent_frame(q) and the (..., n) geodesic distances, where ... is
        empty or (k,).

    Raises:
        AntipodalPointError: if any point is antipodal to its base point
            within tolerance.
    """
    return _log_coords(_unit_base(q), np.asarray(points, dtype=float))


def _log_coords(q, pts):
    """log_map_coords at unit base points q, which it does not normalise again."""
    e1, e2 = _frame_axes(q)
    cross, s, d = _geodesics(q, pts)
    if np.any(d >= _ANTIPODAL_DIST):
        raise AntipodalPointError("log map undefined at an antipodal point")
    # log_q p = (d/s)(p - c q), and p - c q = (q x p) x q has the frame
    # coordinates (<q x p, e2>, -<q x p, e1>); d = 0 wherever s = 0, so s
    # becomes 1 there, then the scale d/s, in place.
    s[s == 0.0] = 1.0
    coords = cross @ np.stack([e2, -e1], axis=-1)
    coords *= np.divide(d, s, out=s)[..., None]
    return coords, d


def log_map(q, p) -> TangentVec:
    """Log map of a single point p at base q, in the frame tangent_frame(q).

    The closed form is d/sin(d) (p - c q) with c = <p, q> and
    d = atan2(|q x p|, c); coincident points map to the zero vector.

    Raises:
        AntipodalPointError: when d(q, p) >= arccos(-1 + ANTIPODAL_EPS).
    """
    coords, _ = log_map_coords(q, np.asarray(p, dtype=float)[None, :])
    return TangentVec(frame=tangent_frame(q), u=coords[0])


def exp_map(q, v: TangentVec) -> np.ndarray:
    """Exponential map at q: cos(|v|) q + sin(|v|) v/|v|.

    The base of v's frame must be q (FrameMismatchError otherwise).
    """
    q = unit_point(q)
    if not np.allclose(q, v.frame.base, rtol=0.0, atol=1e-12):
        raise FrameMismatchError("tangent vector is based at a different point")
    t = v.norm
    if t == 0.0:
        return q.copy()
    if t >= np.pi:
        raise ValueError("tangent vector norm must be below pi")
    direction = v.ambient() / t
    return np.cos(t) * q + np.sin(t) * direction


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis; raises ValueError for a non-finite angle."""
    if not np.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    axis = unit_point(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotate_points(points, axis, angle: float) -> np.ndarray:
    """Rotate each row of points about the axis by the given angle."""
    pts = np.asarray(points, dtype=float)
    return pts @ rotation_about(axis, angle).T


def uniform_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. uniform points on the sphere (normalized Gaussian draws)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    z = rng.standard_normal((n, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def geographic_metric(theta: float) -> np.ndarray:
    """Metric diag(1, cos^2(theta)) of the (latitude, longitude) chart."""
    if not abs(theta) < np.pi / 2:
        raise ValueError("latitude must satisfy |theta| < pi/2")
    return np.diag([1.0, np.cos(theta) ** 2])


def geographic_point(theta: float, phi: float) -> np.ndarray:
    """Point at latitude theta and longitude phi."""
    return np.array(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)]
    )


def geographic_basis(theta: float, phi: float):
    """Coordinate basis (d/dtheta, d/dphi) of the geographic chart.

    The basis is not orthonormal: |d/dphi| = cos(theta), matching the
    geographic_metric entries. Used only by coordinate-invariance checks.
    """
    if not abs(theta) < np.pi / 2:
        raise ValueError("latitude must satisfy |theta| < pi/2")
    b_theta = np.array(
        [-np.sin(theta) * np.cos(phi), -np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    b_phi = np.array([-np.cos(theta) * np.sin(phi), np.cos(theta) * np.cos(phi), 0.0])
    return b_theta, b_phi
