"""Probability simplex utilities: projection, membership, random draws."""

from __future__ import annotations

import numpy as np

__all__ = ["project_to_simplex", "is_pmf", "as_pmf", "random_pmfs"]


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of v onto {x : x >= 0, sum x = 1}, along the last axis.

    Sort-and-threshold algorithm: with u the coordinates sorted in
    decreasing order, the projection is max(v - tau, 0) with the threshold
    tau = max_j (u_1 + ... + u_j - 1) / j. The maximum sits at the largest j
    with u_j > tau, so the projection sums to 1 by construction.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        raise ValueError("expected a vector or a stack of vectors")
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    tau = (css / np.arange(1, v.shape[-1] + 1)).max(axis=-1, keepdims=True)
    return np.maximum(v - tau, 0.0)


def is_pmf(f, tol: float = 1e-12) -> bool:
    """True when f is entrywise nonnegative and sums to 1 within tol."""
    f = np.asarray(f, dtype=float)
    return bool(f.ndim == 1 and np.all(f >= 0.0) and abs(f.sum() - 1.0) <= tol)


def as_pmf(f, tol: float = 1e-12, what: str = "vector") -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if not is_pmf(f, tol):
        raise ValueError(f"{what} is not a probability vector within {tol:g}")
    return f


def random_pmfs(rng: np.random.Generator, k: int, n: int = 1) -> np.ndarray:
    """n Dirichlet(1, ..., 1) draws, i.e. uniform on the simplex, as (n, k)."""
    return rng.dirichlet(np.ones(k), size=n)
