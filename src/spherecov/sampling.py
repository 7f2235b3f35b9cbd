"""Seeded samplers for the ring-shaped experiment distributions.

The density family is f(p; a, mu) proportional to exp(-(d^4(mu, p) - a)^2)
with d the geodesic distance. Its mode set is the ring d = a^(1/4) around
mu (a circle for a > 0, the point mu itself for a = 0). The alternative
reading exp(-(d^2 - a)^2) is available as concentration="squared".

Sampling is plain rejection from the uniform envelope: the unnormalized
density is bounded by 1 exactly, so a uniform proposal p is accepted with
probability equal to the density value. rejection_sample_rows draws one
sample per generator, batching the arithmetic of all generators while each
one makes exactly the draws of a one-generator call; rejection_sample is its
one-row call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AntipodalPointError
from .geometry import ANTIPODAL_EPS, geodesic_distances, unit_point

__all__ = [
    "RingDensity",
    "ring_density_unnormalized",
    "rejection_sample",
    "rejection_sample_rows",
]

# The power of d in each concentration. A ring d = a^(1/power) beyond pi, or a NaN a,
# has acceptance probability 0 or one that underflows, and rejection never returns.
_POWERS = {"quartic": 4, "squared": 2}


class RingDensity(NamedTuple("RingDensity", [("a", float), ("mu", np.ndarray), ("concentration", str)])):
    """Ring density parameters: ring size a and center mu.

    a lies in [0, pi**4] for quartic concentration and in [0, pi**2] for
    squared, so that the ring radius is at most pi. mu is the center of the
    ring, not a mean of the distribution, and is stored as unit_point(mu).
    """

    __slots__ = ()

    def __new__(cls, a, mu=(0.0, 0.0, 1.0), concentration="quartic"):
        if concentration not in _POWERS:
            raise ValueError(f"unknown concentration: {concentration!r}")
        power = _POWERS[concentration]
        if not 0.0 <= a <= np.pi ** power:
            raise ValueError(f"ring parameter a must lie in [0, pi**{power}] (about "
                             f"{np.pi ** power:.4g}) for {concentration} "
                             f"concentration, got {a}")
        return super().__new__(cls, a, unit_point(mu), concentration)

    @classmethod
    def _make(cls, iterable):
        """Through __new__, so that _replace checks its fields too."""
        return cls(*iterable)


def _density_values(params: RingDensity, dists, out=None) -> np.ndarray:
    """exp(-(d^4 - a)^2), or exp(-(d^2 - a)^2), at each distance; out may be dists itself."""
    if params.concentration == "quartic":
        d = np.power(dists, 4.0, out=out)
    else:
        d = np.square(dists, out=out)
    d -= params.a
    np.square(d, out=d)
    np.negative(d, out=d)
    return np.exp(d, out=d)


def ring_density_unnormalized(p, params: RingDensity) -> float:
    """Unnormalized density at p, a value in (0, 1].

    Raises:
        AntipodalPointError: p antipodal to the center within tolerance.
    """
    p = unit_point(p)
    if float(p @ params.mu) <= -1.0 + ANTIPODAL_EPS:
        raise AntipodalPointError("density evaluation at the center's antipode")
    d = geodesic_distances(params.mu, p[None, :])
    return float(_density_values(params, d)[0])


# Proposals per round that one batched pass may hold; rows beyond it are drawn
# in further passes, so the sampler's working memory does not grow with R * n.
# At n = 50 a pass holds 64 rows, half of one of test's blocks.
_ROUND_PROPOSALS = 12_800


def rejection_sample_rows(params: RingDensity, n: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws from the ring density per generator, by uniform-envelope rejection.

    Each round, every generator still short of n points draws a chunk of
    max(4 (n - got), 64) proposals: standard_normal((chunk, 3)), normalized
    to uniform sphere points, then random(chunk). A proposal is accepted
    with probability equal to the unnormalized density; antipodal proposals
    (measure zero up to the antipodal tolerance) are always rejected. The
    first accepted points, in proposal order, fill the row. The draws go
    straight into shared buffers and the arithmetic runs once per round for
    all rows of a pass: the normal draws are normalized in place (squares
    summed in the order np.linalg.norm sums them) and the density overwrites
    the clipped cosines. So each row and each generator's state afterwards
    equal a one-generator call bit for bit. A pass takes as many rows as
    keep a first round within _ROUND_PROPOSALS proposals (at least one), so
    the working memory is about 0.1 KB per proposal of a round, not per
    proposal of the whole call.

    Returns the (R, n, 3) samples and the (R,) proposal counts.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = np.empty((len(rngs), n, 3))
    proposals = np.zeros(len(rngs), dtype=np.int64)
    rows = max(1, _ROUND_PROPOSALS // max(4 * n, 64))
    for lo in range(0, len(rngs), rows):
        hi = min(lo + rows, len(rngs))
        proposals[lo:hi] = _fill_rows(params, rngs[lo:hi], out[lo:hi])
    return out, proposals


def _fill_rows(params: RingDensity, rngs, out: np.ndarray) -> np.ndarray:
    """Fills out (R, n, 3) with one sample per generator; returns the proposal counts."""
    rows, n = out.shape[:2]
    got = np.zeros(rows, dtype=np.int64)
    proposals = np.zeros(rows, dtype=np.int64)
    # the first round fills every buffer row to full width, so padding never holds unset values
    z = np.empty((rows, max(4 * n, 64), 3))
    u = np.empty(z.shape[:2])
    pending = np.arange(rows)
    while len(pending):
        need = n - got[pending]
        chunks = np.maximum(4 * need, 64)
        for j, (r, chunk) in enumerate(zip(pending.tolist(), chunks.tolist())):
            rngs[r].standard_normal(out=z[j, :chunk])
            rngs[r].random(out=u[j, :chunk])
        width = int(chunks.max())
        pts = z[: len(pending), :width]
        # |z| summed left to right, as np.linalg.norm sums it, and normalized in place
        norms = pts[..., 0] * pts[..., 0]
        norms += pts[..., 1] * pts[..., 1]
        norms += pts[..., 2] * pts[..., 2]
        pts /= np.sqrt(norms, out=norms)[..., None]
        cosines = pts @ params.mu
        dens = np.clip(cosines, -1.0, 1.0)
        dens = _density_values(params, np.arccos(dens, out=dens), out=dens)
        accept = ((u[: len(pending), :width] < dens) & (cosines > -1.0 + ANTIPODAL_EPS)
                  & (np.arange(width) < chunks[:, None]))
        rank = np.cumsum(accept, axis=1)
        j, k = np.nonzero(accept & (rank <= need[:, None]))
        r = pending[j]
        out[r, got[r] + rank[j, k] - 1] = pts[j, k]
        got[pending] += np.minimum(need, rank[:, -1])
        proposals[pending] += chunks
        pending = pending[got[pending] < n]
    return proposals


def rejection_sample(params: RingDensity, n: int, rng: np.random.Generator,
                     return_proposals: bool = False):
    """n i.i.d. draws from the ring density: the one-generator rejection_sample_rows.

    Deterministic given rng state. Returns the (n, 3) sample, or
    (sample, n_proposals) when return_proposals is set.
    """
    points, proposals = rejection_sample_rows(params, n, [rng])
    if return_proposals:
        return points[0], int(proposals[0])
    return points[0]
