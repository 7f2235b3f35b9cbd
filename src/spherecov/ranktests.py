"""Wilcoxon signed-rank and rank-sum tests, batched over leading axes.

Every test ranks along the last axis, so one call tests all rows of an
(..., n) array; a 1-D input is a batch with no leading axes. Both tests use
midranks for ties and report two-sided p-values, and the signed-rank test
drops exact zeros. The signed-rank null distribution is computed exactly (by
the subset-sum recursion over doubled ranks) up to 25 effective pairs and by
a tie-corrected normal approximation with continuity correction beyond that.
A call groups its exact rows by their null, with one cached lookup and one
gather of p-values per group: a tie-free row's doubled ranks are 2, 4, ...,
2n, so those rows are grouped by their size n alone, and tied rows by their
zero count and doubled ranks. The rank-sum test always uses the normal
approximation. The twosample procedures prepare their three tests apart and
take the normal tails of all three from one call (_normal_tails).

signed_rank_rows and rank_sum_rows flag rows with too few observations in a
per-row mask; the scalar signed_rank and rank_sum test one row and raise
TooFewPairsError for it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import TooFewPairsError

__all__ = [
    "EXACT_LIMIT",
    "RankTestResult",
    "RankTestBatch",
    "midranks",
    "signed_rank",
    "signed_rank_rows",
    "signed_rank_exact_cdf",
    "rank_sum",
    "rank_sum_rows",
]

EXACT_LIMIT = 25


class RankTestResult(NamedTuple):
    statistic: float
    p_value: float
    n_effective: int
    method: str  # "exact" or "normal_approx"


class RankTestBatch(NamedTuple):
    """Per-row results of one rank test; every array has the batch shape.

    Rows flagged in too_few have no p-value (NaN); error() gives their
    TooFewPairsError message.
    """

    statistic: np.ndarray
    p_value: np.ndarray
    n_effective: np.ndarray
    exact: np.ndarray      # True where the exact null distribution was used
    too_few: np.ndarray
    message: str           # too-few message, formatted with n = n_effective

    def error(self, idx=()) -> str | None:
        """The too-few message of one row, or None when the row was tested."""
        if not self.too_few[idx]:
            return None
        return self.message.format(n=int(self.n_effective[idx]))

    def result(self, idx=()) -> RankTestResult:
        """One row as a RankTestResult; () selects the only row of a 1-D test.

        Raises:
            TooFewPairsError: the row has too few observations.
        """
        err = self.error(idx)
        if err is not None:
            raise TooFewPairsError(err)
        return RankTestResult(
            float(self.statistic[idx]), float(self.p_value[idx]), int(self.n_effective[idx]),
            "exact" if self.exact[idx] else "normal_approx",
        )


def midranks(x) -> np.ndarray:
    """Ranks along the last axis starting at 1, with tied values sharing their average rank.

    One argsort and one sort per row. Midranks do not depend on the order
    within a tie group, so neither needs to be stable, and the sorted values
    mark the same tie groups as the values taken in argsort order (equal
    values compare equal, 0.0 and -0.0 included). A row without ties takes
    its sorted positions + 1 directly; in a row with ties, each sorted
    position's group runs from the last group start at or before it (running
    max) to the first group end at or after it (running min from the right).
    NaNs compare unequal to everything, so they take the top ranks, one
    each, in an unspecified order.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    order = np.argsort(rows, axis=-1)
    xs = np.sort(rows, axis=-1)
    pos = np.arange(n)
    starts = np.ones(rows.shape, dtype=bool)
    np.not_equal(xs[:, 1:], xs[:, :-1], out=starts[:, 1:])
    values = pos + 1.0
    tied = ~starts.all(axis=-1)
    if tied.any():
        starts = starts[tied]
        ends = np.ones(starts.shape, dtype=bool)
        ends[:, :-1] = starts[:, 1:]
        first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
        last = np.minimum.accumulate(np.where(ends, pos, n)[:, ::-1], axis=-1)[:, ::-1]
        # a one-element group has first == last == pos, and 0.5 * (2 pos) + 1.0 == pos + 1.0
        values = np.tile(values, (len(rows), 1))
        values[tied] = 0.5 * (first + last) + 1.0
    ranks = np.empty(rows.shape)
    ranks[np.arange(len(rows))[:, None], order] = values
    return ranks.reshape(x.shape)


def _tie_sum(ranks: np.ndarray, n):
    """Sum of t^3 - t over tie groups (t = group size), from midranks 1..n along the last axis.

    A tie group's squared ordinal ranks exceed its squared midranks by
    t (t^2 - 1) / 12, and the ordinal ranks' squares sum to n(n+1)(2n+1)/6.
    Midranks are half-integers, so the sums are exact.
    """
    return 2 * n * (n + 1) * (2 * n + 1) - 12.0 * np.sum(ranks * ranks, axis=-1)


# Rational approximations of erf and erfc from the Cephes library (S. L.
# Moshier, ndtr.c), the ones scipy.special.ndtr evaluates. The stdlib
# math.erfc differs from them by up to 1.5e-16, and the rank tests promise
# p-values equal to scipy's.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_SQRT_HALF = 7.07106781186547524401e-1


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """Polynomial with the given coefficients, highest degree first, at each element of x."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _norm_sf(z) -> np.ndarray:
    """Upper tails P(N(0, 1) > z) at each element of z >= 0, as scipy.stats.norm.sf gives them.

    Above z = 37.677 scipy returns 0, and this keeps the subnormal tail. Each
    ndtr branch runs over its elements in the scalar operation order, and a
    branch without elements is skipped (z >= 11.3 is rare in practice).
    exp is math.exp per element: np.exp may differ from libm by an ulp.
    """
    x = np.asarray(z, dtype=float) * _SQRT_HALF
    sf = np.empty_like(x)
    small = x < 1.0
    if small.any():
        xs = x[small]
        zz = xs * xs
        erf = xs * _horner(zz, _ERF_T) / _horner(zz, _ERF_U)
        sf[small] = np.where(xs < _SQRT_HALF, 0.5 - 0.5 * erf, 0.5 * (1.0 - erf))
    mid = x < 8.0
    for sel, p, q in ((~small & mid, _ERFC_P, _ERFC_Q), (~mid, _ERFC_R, _ERFC_S)):
        if not sel.any():
            continue
        xt = x[sel]
        e = np.fromiter(map(math.exp, (-xt * xt).tolist()), float, len(xt))
        sf[sel] = 0.5 * (e * _horner(xt, p) / _horner(xt, q))
    return sf


def _normal_tails(pending) -> list:
    """The RankTestBatch of each pending test, its normal rows' p-values filled in.

    A pending test is (batch, mean, var): batch.p_value holds the exact rows'
    p-values and NaN elsewhere, and every row neither exact nor too_few takes
    the continuity-corrected two-sided normal p-value of (statistic - mean) /
    sqrt(var): 1 where var <= 0 (all observations tied), else its tail from
    _norm_sf, so p-values equal scipy's bit for bit. The tests share one
    batch shape and are stacked, so a whole procedure takes one pass of
    _norm_sf, with the bits of one call per test (every step is elementwise).
    """
    batches, means, variances = zip(*pending)
    shape = batches[0].statistic.shape
    p = np.stack([b.p_value for b in batches])
    stat = np.stack([b.statistic for b in batches])
    mean = np.stack([np.broadcast_to(m, shape) for m in means])
    var = np.stack([np.broadcast_to(v, shape) for v in variances])
    normal = np.stack([~(b.exact | b.too_few) for b in batches])
    positive = var > 0.0
    zstat = np.maximum(np.abs(stat - mean) - 0.5, 0.0) / np.sqrt(np.where(positive, var, 1.0))
    p[normal] = 1.0
    tested = normal & positive
    if tested.any():  # an exact signed-rank call often has none
        tail = 2.0 * _norm_sf(zstat[tested])
        p[tested] = np.where(tail < 1.0, tail, 1.0)  # min(1.0, tail), NaN included
    return [b._replace(p_value=p[i, ...]) for i, b in enumerate(batches)]


@functools.lru_cache(maxsize=256)
def _exact_null(doubled: tuple):
    """Rows P(2T <= s) and P(2T >= s) of the null of 2T for a sorted tuple of doubled ranks.

    The recursion counts sign patterns in exact integers, so the result does
    not depend on the order of the ranks. Partial sums of pmf = counts / 2^n
    are exact for n <= 52, so the upper tail at s has the bits of
    pmf[s:].sum(). The array is shared; read-only.
    """
    total = sum(doubled)
    # counts[s] = number of sign patterns whose positive doubled-ranks sum to s
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] += counts[: total + 1 - r].copy()
    pmf = counts / counts.sum()
    tails = np.stack([np.cumsum(pmf), np.cumsum(pmf[::-1])[::-1]])
    tails.flags.writeable = False
    return tails


def _doubled(ranks) -> np.ndarray:
    """Doubled ranks sorted along the last axis: integers, as midranks are half-integers."""
    return np.rint(2.0 * np.sort(ranks, axis=-1)).astype(int)


def signed_rank_exact_cdf(ranks) -> tuple[np.ndarray, np.ndarray]:
    """Support (in statistic units) and exact null CDF of T for given ranks."""
    cdf = _exact_null(tuple(_doubled(np.asarray(ranks, dtype=float)).tolist()))[0]
    return np.arange(len(cdf)) / 2.0, cdf.copy()


def _signed_rank_pending(z, min_pairs: int = 5) -> tuple:
    """The signed-rank tests of the rows of z as a pending test (see _normal_tails)."""
    z = np.asarray(z, dtype=float)
    nonzero = z != 0.0
    zeros = z.shape[-1] - np.count_nonzero(nonzero, axis=-1)
    n = z.shape[-1] - zeros
    # Zeros rank first, so a nonzero value's midrank among the nonzero ones is
    # its full midrank minus the row's zero count (exact for half-integers).
    ranks = np.where(nonzero, midranks(np.abs(z)) - zeros[..., None], 0.0)
    t = np.sum(np.where(z > 0.0, ranks, 0.0), axis=-1)
    too_few = n < min_pairs
    exact = (n <= EXACT_LIMIT) & ~too_few
    ties = _tie_sum(ranks, n)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0
    p = np.full(t.shape, np.nan)
    if exact.any():
        t2 = np.rint(2.0 * t[exact]).astype(int)
        sizes, tied = n[exact], ties[exact] != 0.0
        tails = np.empty((2, len(t2)))
        # A tie-free row has the doubled ranks 2, 4, ..., 2n: one null per size n, the sizes
        # taken from a set (np.unique on an int array would import numpy.ma).
        for size in set(sizes[~tied].tolist()):
            rows = ~tied & (sizes == size)
            tails[:, rows] = _exact_null(tuple(range(2, 2 * size + 1, 2)))[:, t2[rows]]
        # One null per distinct key of a tied row (zero count, sorted doubled
        # ranks with the zeros' 0 first); a void view makes each key one sortable scalar.
        if tied.any():
            keyed = np.column_stack([zeros[exact][tied], _doubled(ranks[exact][tied])])
            row_keys = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1]))).ravel()
            _, first, group = np.unique(row_keys, return_index=True, return_inverse=True)
            tied_rows = np.flatnonzero(tied)
            for g, key in enumerate(keyed[first].tolist()):
                rows = tied_rows[group == g]
                tails[:, rows] = _exact_null(tuple(key[1 + key[0]:]))[:, t2[rows]]
        p[exact] = np.minimum(1.0, 2.0 * tails.min(axis=0))
    batch = RankTestBatch(t, p, n, exact, too_few,
                          f"{{n}} nonzero differences, need at least {min_pairs}")
    return batch, n * (n + 1) / 4.0, var


# signed_rank and rank_sum call these kernels directly, not through the public
# *_rows functions, so that a traced one-row test keeps midranks as its first
# child span (perfbench/tracer.py).
def _signed_rank_rows(z, min_pairs: int) -> RankTestBatch:
    return _normal_tails([_signed_rank_pending(z, min_pairs)])[0]


def signed_rank_rows(z, min_pairs: int = 5) -> RankTestBatch:
    """Signed-rank tests of median-zero differences, one per row of z (..., n).

    T is the sum of the |z| ranks at positions where z > 0, after dropping
    exact zeros. Two-sided p-value: exact when the row's effective sample size
    is at most EXACT_LIMIT, normal approximation with tie correction and
    continuity correction otherwise. Rows with fewer than min_pairs nonzero
    differences are flagged in too_few.
    """
    return _signed_rank_rows(z, min_pairs)


def signed_rank(z, min_pairs: int = 5) -> RankTestResult:
    """Signed-rank test of one row of differences (see signed_rank_rows).

    Raises:
        TooFewPairsError: fewer than min_pairs nonzero differences.
    """
    return _signed_rank_rows(np.asarray(z, dtype=float).ravel(), min_pairs).result()


def _rank_sum_pending(x, y, min_size: int = 5) -> tuple:
    """The rank-sum tests of the row pairs of x and y as a pending test (see _normal_tails)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = x.shape[-1], y.shape[-1]
    big_n = m + n
    ranks = midranks(np.concatenate([x, y], axis=-1))
    w = np.sum(ranks[..., :m], axis=-1)
    too_few = np.full(w.shape, m < min_size or n < min_size)
    var = m * n / 12.0 * ((big_n + 1) - _tie_sum(ranks, big_n) / max(big_n * (big_n - 1), 1))
    batch = RankTestBatch(w, np.full(w.shape, np.nan), np.full(w.shape, big_n),
                          np.zeros(w.shape, dtype=bool), too_few,
                          f"sample sizes ({m}, {n}), need at least {min_size} each")
    return batch, m * (big_n + 1) / 2.0, var


def _rank_sum_rows(x, y, min_size: int) -> RankTestBatch:
    return _normal_tails([_rank_sum_pending(x, y, min_size)])[0]


def rank_sum_rows(x, y, min_size: int = 5) -> RankTestBatch:
    """Rank-sum tests, one per row pair of x (..., m) and y (..., n).

    W is the sum of the ranks of x in the pooled sample. Two-sided p-value by
    the normal approximation with tie-corrected variance and continuity
    correction (used for every sample size). When either sample is smaller
    than min_size, every row is flagged in too_few. NaNs take the top ranks
    in an unspecified order (see midranks), so W is unspecified for a row
    with NaNs in both samples; the CLI rejects non-finite points before any
    rank test.
    """
    return _rank_sum_rows(x, y, min_size)


def rank_sum(x, y, min_size: int = 5) -> RankTestResult:
    """Rank-sum test of one pair of samples (see rank_sum_rows).

    Raises:
        TooFewPairsError: either sample smaller than min_size.
    """
    return _rank_sum_rows(np.asarray(x, dtype=float).ravel(),
                          np.asarray(y, dtype=float).ravel(), min_size).result()
