"""Seeded samplers for the ring-shaped experiment distributions.

The density family is f(p; a, mu) proportional to exp(-(d^4(mu, p) - a)^2)
with d the geodesic distance. Its mode set is the ring d = a^(1/4) around
mu (a circle for a > 0, the point mu itself for a = 0). The alternative
reading exp(-(d^2 - a)^2) is available as concentration="squared".

Sampling is plain rejection from the uniform envelope: the unnormalized
density is bounded by 1 exactly, so a uniform proposal p is accepted with
probability equal to the density value. A squeeze (Marsaglia 1977; Devroye,
Non-Uniform Random Variate Generation, 1986, ch. II.3) decides most proposals
without the density: the approximate cosine (z . mu) / |z| of the raw normal
draw z picks a bin of a table of density bounds, u < lo accepts and u >= hi
rejects. Only the undecided rest, under 1% of the proposals, are normalized
and take the exact density, and only the kept points are normalized for the
output. The bounds hold with room to spare for a cosine in the neighbouring
bins and for 100 times the rounding of the density, so every decision, point
and generator state is the one that testing each proposal exactly gives, bit
for bit. rejection_sample_rows draws one
sample per distinct generator, in rounds that batch the arithmetic of many
generators while each one makes exactly the draws of a one-generator call;
rejection_sample is its one-row call. spawn_states and state_generators give
the generators of np.random.SeedSequence(seed).spawn(runs) from one
vectorized hash over all runs.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import AntipodalPointError
from .geometry import ANTIPODAL_EPS, _norm, geodesic_distances, unit_point

__all__ = [
    "RingDensity",
    "ring_density_unnormalized",
    "rejection_sample",
    "rejection_sample_rows",
    "spawn_states",
    "state_generators",
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


# Proposals that one sampler round may hold, unless one chunk alone exceeds it;
# other generators wait for later rounds, so working memory does not grow with
# R * n. At n = 50 a first round holds 64 generators, half of a test block.
_ROUND_PROPOSALS = 12_800

# Cosine bins of the squeeze table: bin b holds the cosines in
# [-1 + 2b / _COSINE_BINS, -1 + 2(b + 1) / _COSINE_BINS).
_COSINE_BINS = 1024


@functools.lru_cache(maxsize=64)
def _squeeze_table(a: float, concentration: str) -> np.ndarray:
    """(2, _COSINE_BINS + 1) density bounds: lo in row 0, hi in row 1, column b for bin b.

    The density is unimodal in the cosine c, so a bin's densities lie
    between _density_values at its two edges, and up to 1 in the bins around
    the mode cos(a^(1/power)). Each bound is widened to cover both
    neighbouring bins, so that a cosine a few ulps from its bin's edge is
    covered too, and then by a 1e-9 relative and a 1e-300 absolute margin:
    about 100 times the rounding of arccos, pow and exp, and every subnormal
    density. Bin 0 holds the antipodal tolerance, so its lo is 0: there the
    squeeze rejects but never accepts. Column _COSINE_BINS holds c = 1.
    """
    edges = np.linspace(-1.0, 1.0, _COSINE_BINS + 1)
    dens = _density_values(RingDensity(a, concentration=concentration), np.arccos(edges))
    # column b spans the edges of bins b - 1, b and b + 1, the end edges repeated
    dens = np.concatenate((dens[:1], dens, dens[-1:], dens[-1:]))
    table = np.empty((2, _COSINE_BINS + 1))
    lo, hi = table
    np.minimum(np.minimum(dens[:-3], dens[1:-2]), np.minimum(dens[2:-1], dens[3:]), out=lo)
    np.maximum(np.maximum(dens[:-3], dens[1:-2]), np.maximum(dens[2:-1], dens[3:]), out=hi)
    mode = int((math.cos(a ** (1.0 / _POWERS[concentration])) + 1.0) * (_COSINE_BINS / 2))
    hi[max(mode - 2, 0) : mode + 3] = 1.0
    lo *= 1.0 - 1e-9
    lo -= 1e-300
    lo[0] = 0.0
    hi *= 1.0 + 1e-9
    hi += 1e-300
    table.flags.writeable = False
    return table


def rejection_sample_rows(params: RingDensity, n: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws from the ring density per generator, by uniform-envelope rejection.

    rngs are distinct generators. Each round, every generator still short of
    n points draws a chunk of max(4 (n - got), 64) proposals:
    standard_normal((chunk, 3)), normalized to uniform sphere points, then
    random(chunk). A proposal is accepted with probability equal to the
    unnormalized density; antipodal proposals (measure zero up to the
    antipodal tolerance) are always rejected. The first accepted points, in
    proposal order, fill the row. A round takes waiting generators, in order,
    while their chunks fit in _ROUND_PROPOSALS (at least one), looking at no
    more than _ROUND_PROPOSALS // 64 + 1 of them, lays the chunks
    end to end in one buffer and runs the arithmetic once for all of them,
    with |z| summed as np.linalg.norm sums it (geometry._norm); so the working
    memory is about 0.1 KB per proposal of a round, not of the whole call.
    The squeeze table of (a, concentration) decides each proposal from its
    approximate cosine (z . mu) / |z|: u < lo accepts, u >= hi rejects, and
    only the undecided rest (0.3% of test's proposals) are normalized for the
    exact cosine, the density and the antipodal test. These are the decisions
    of the exact test, and only the kept points are divided by their norms,
    by the same division. A generator's draws and decisions depend on its own
    proposals alone, so each row and each generator's state afterwards equal
    a one-generator call bit for bit, whatever else its rounds hold.

    Returns the (R, n, 3) samples and the (R,) proposal counts.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = len(rngs)
    out = np.empty((rows, n, 3))
    got = np.zeros(rows, dtype=np.int64)
    proposals = np.zeros(rows, dtype=np.int64)
    # room for the largest round: the budget, all first chunks if less, or one larger first chunk
    first = max(4 * n, 64)
    z_buffer = np.empty(max(first, min(rows * first, _ROUND_PROPOSALS)) * 3)
    u_buffer = np.empty(len(z_buffer) // 3)
    lo, hi = _squeeze_table(params.a, params.concentration)
    to_bin = params.mu * (_COSINE_BINS / 2)
    # the waiting generators, in order: those carried over from earlier rounds, then fresh on
    carried, fresh = np.empty(0, dtype=np.intp), 0
    while len(carried) or fresh < rows:
        # every chunk holds at least 64 proposals, so no round takes more generators than these
        top = min(fresh + _ROUND_PROPOSALS // 64 + 1 - len(carried), rows)
        head, fresh = np.concatenate((carried, np.arange(fresh, top))), top
        need = n - got[head]
        chunks = np.maximum(4 * need, 64)
        ends = np.cumsum(chunks)
        # the waiting generators whose chunks fit in the budget, and at least one
        taken = max(1, int(np.searchsorted(ends, _ROUND_PROPOSALS, side="right")))
        pending, need, chunks, ends = head[:taken], need[:taken], chunks[:taken], ends[:taken]
        z = z_buffer[: ends[-1] * 3].reshape(-1, 3)
        u = u_buffer[: ends[-1]]
        for r, start, stop in zip(pending.tolist(), (ends - chunks).tolist(), ends.tolist()):
            rngs[r].standard_normal(out=z[start:stop])
            rngs[r].random(out=u[start:stop])
        norms = _norm(z)
        # each proposal's cosine bin from its approximate cosine (z . mu) / |z|; u >= hi rejects
        bins = z @ to_bin
        bins /= norms
        bins += _COSINE_BINS / 2
        bins = bins.astype(np.intp)
        # the surviving proposals; only a NaN cosine (a zero draw) falls outside the table, and
        # "clip" sends it to bin 0, where lo = 0 leaves it to the exact test, which rejects it
        cand = np.flatnonzero(u < hi.take(bins, mode="clip"))
        # u < lo accepts; the undecided rest take the exact test on their normalized points
        draws = u.take(cand)
        accept = draws < lo.take(bins.take(cand), mode="clip")
        undecided = ~accept
        exact = cand[undecided]
        if len(exact):
            points = np.take(z, exact, axis=0) / norms.take(exact)[:, None]
            accept[undecided] = _exact_accepts(params, points, draws[undecided])
        cand = cand[accept]
        # each accepted proposal's chunk, and its place among its chunk's accepted ones; the
        # first need are kept
        j = np.searchsorted(ends, cand, side="right")
        counts = np.bincount(j, minlength=taken)
        pos = np.arange(len(j)) - (np.cumsum(counts) - counts)[j]
        keep = pos < need[j]
        r = pending[j[keep]]
        cand = cand[keep]
        points = np.take(z, cand, axis=0) / norms.take(cand)[:, None]
        out.reshape(-1, 3)[r * n + got[r] + pos[keep]] = points
        got[pending] += np.minimum(need, counts)
        proposals[pending] += chunks
        carried = np.concatenate((pending[got[pending] < n], head[taken:]))
    return out, proposals


def _exact_accepts(params: RingDensity, pts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The rejection test u < density of (k, 3) unit points, antipodal ones rejected."""
    # numpy takes one row's product as a dot, which rounds otherwise than the rows' gemv
    cosines = (np.repeat(pts, 2, axis=0) @ params.mu)[:1] if len(pts) == 1 else pts @ params.mu
    dens = np.minimum(np.maximum(cosines, -1.0), 1.0)
    dens = _density_values(params, np.arccos(dens, out=dens), out=dens)
    return (u < dens) & (cosines > -1.0 + ANTIPODAL_EPS)


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


# The constants of numpy's SeedSequence (O'Neill's seed_seq hash, 32-bit words, pool of 4).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """seed_seq's hashmix over uint32 arrays; each call advances the running constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ value >> 16


def spawn_states(seed: int, runs: int) -> np.ndarray:
    """The (runs, 4) uint64 PCG64 seeding words of np.random.SeedSequence(seed).spawn(runs).

    Row r is children[r].generate_state(4, np.uint64) for the spawned
    children, computed for all runs in one pass of uint32 array arithmetic:
    the words of the seed (zero-padded to the pool size) are shape-(1,)
    arrays, and only the spawn key r, the last entropy word of child r,
    spans the runs. A seed of any size is split into 32-bit words as numpy
    splits it. runs must be below 2**32, where a spawn key takes one word.

    Raises ValueError for a negative seed (numpy's message) and for runs >= 2**32.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if runs >= 2**32:
        raise ValueError(f"runs must be below 2**32, got {runs}")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(runs, dtype=np.uint32))
    # SeedSequence.mix_entropy: the first 4 words fill the pool, every pool word is mixed
    # into every other, and each remaining word into every pool word
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64): 8 words cycled from the pool, paired little-endian
    hashout = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashout(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def state_generators(states) -> list:
    """One np.random.Generator(np.random.PCG64) per row of spawn_states' words.

    The generator of row r of spawn_states(seed, runs) equals
    np.random.default_rng(np.random.SeedSequence(seed).spawn(runs)[r]): the
    same state and the same stream.
    """
    # imported here, so that importing spherecov leaves numpy.random unloaded
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """Hands PCG64 one run's precomputed seeding words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(Words(w))) for w in states]
