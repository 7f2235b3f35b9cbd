"""Wilcoxon signed-rank and rank-sum tests.

Both tests drop exact zeros, use midranks for ties, and report two-sided
p-values. The signed-rank null distribution is computed exactly (by the
subset-sum recursion over doubled ranks) up to 25 effective pairs and by a
tie-corrected normal approximation with continuity correction beyond that.
The rank-sum test always uses the normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPairsError

__all__ = [
    "EXACT_LIMIT",
    "RankTestResult",
    "midranks",
    "signed_rank",
    "signed_rank_exact_cdf",
    "rank_sum",
]

EXACT_LIMIT = 25


@dataclass(frozen=True)
class RankTestResult:
    statistic: float
    p_value: float
    n_effective: int
    method: str  # "exact" or "normal_approx"


def midranks(x) -> np.ndarray:
    """Ranks starting at 1, with tied values sharing their average rank."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # tie group g spans sorted positions starts[g] .. ends[g] - 1
    starts = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


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


def _horner(x: float, coefs) -> float:
    """Polynomial with the given coefficients, highest degree first."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _erf_small(x: float) -> float:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U)


def _norm_sf(z: float) -> float:
    """Upper tail P(N(0, 1) > z) for z >= 0, as scipy.stats.norm.sf gives it."""
    x = z * _SQRT_HALF
    if x < _SQRT_HALF:
        return 0.5 - 0.5 * _erf_small(x)
    if x < 1.0:
        return 0.5 * (1.0 - _erf_small(x))
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return 0.5 * (math.exp(-x * x) * _horner(x, p) / _horner(x, q))


def _tie_term(ranks: np.ndarray) -> float:
    """Sum of t^3 - t over tie groups (t = group size)."""
    _, counts = np.unique(ranks, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


def _exact_t2_pmf(ranks: np.ndarray) -> np.ndarray:
    """Null pmf of 2T over doubled ranks (doubled midranks are integers)."""
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    # counts[s] = number of sign patterns whose positive doubled-ranks sum to s
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        counts[r:] += counts[: total + 1 - r].copy()
    return counts / counts.sum()


def signed_rank_exact_cdf(ranks) -> tuple[np.ndarray, np.ndarray]:
    """Support (in statistic units) and exact null CDF of T for given ranks."""
    ranks = np.asarray(ranks, dtype=float)
    pmf = _exact_t2_pmf(ranks)
    support = np.arange(len(pmf)) / 2.0
    return support, np.cumsum(pmf)


def signed_rank(z, min_pairs: int = 5) -> RankTestResult:
    """Signed-rank test of median-zero differences.

    T is the sum of the |z| ranks at positions where z > 0, after dropping
    exact zeros. Two-sided p-value: exact when the effective sample size is
    at most 25, normal approximation with tie correction and continuity
    correction otherwise.

    Raises:
        TooFewPairsError: fewer than min_pairs nonzero differences.
    """
    z = np.asarray(z, dtype=float)
    z = z[z != 0.0]
    n = len(z)
    if n < min_pairs:
        raise TooFewPairsError(
            f"{n} nonzero differences, need at least {min_pairs}"
        )
    ranks = midranks(np.abs(z))
    t = float(ranks[z > 0.0].sum())
    if n <= EXACT_LIMIT:
        pmf = _exact_t2_pmf(ranks)
        t2 = int(round(2.0 * t))
        cdf = np.cumsum(pmf)
        p_le = float(cdf[t2])
        p_ge = float(pmf[t2:].sum())
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return RankTestResult(t, p, n, "exact")
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_term(ranks) / 48.0
    if var <= 0.0:
        return RankTestResult(t, 1.0, n, "normal_approx")
    zstat = max(abs(t - mean) - 0.5, 0.0) / np.sqrt(var)
    p = min(1.0, 2.0 * _norm_sf(zstat))
    return RankTestResult(t, p, n, "normal_approx")


def rank_sum(x, y, min_size: int = 5) -> RankTestResult:
    """Rank-sum test: W = sum of the ranks of x in the pooled sample.

    Two-sided p-value by the normal approximation with tie-corrected
    variance and continuity correction (used for every sample size).

    Raises:
        TooFewPairsError: either sample smaller than min_size.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = len(x), len(y)
    if m < min_size or n < min_size:
        raise TooFewPairsError(
            f"sample sizes ({m}, {n}), need at least {min_size} each"
        )
    big_n = m + n
    ranks = midranks(np.concatenate([x, y]))
    w = float(ranks[:m].sum())
    mean = m * (big_n + 1) / 2.0
    var = m * n / 12.0 * ((big_n + 1) - _tie_term(ranks) / (big_n * (big_n - 1)))
    if var <= 0.0:
        return RankTestResult(w, 1.0, m + n, "normal_approx")
    zstat = max(abs(w - mean) - 0.5, 0.0) / np.sqrt(var)
    p = min(1.0, 2.0 * _norm_sf(zstat))
    return RankTestResult(w, p, m + n, "normal_approx")
