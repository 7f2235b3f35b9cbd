import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from spherecov import TooFewPairsError, ranktests
from spherecov.ranktests import (
    midranks,
    rank_sum,
    signed_rank,
    signed_rank_exact_cdf,
)

rng = np.random.default_rng(77)


def test_midranks_with_ties():
    npt.assert_array_equal(midranks([3, 1, 4, 1, 5]), [3.0, 1.5, 4.0, 1.5, 5.0])
    npt.assert_array_equal(midranks([2.0, 2.0, 2.0]), [2.0, 2.0, 2.0])
    npt.assert_array_equal(midranks([10.0]), [1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), max_size=60),
       st.floats(min_value=0.1, max_value=10.0))
def test_midranks_match_scipy_with_many_ties(values, scale):
    x = scale * np.asarray(values, dtype=float)
    npt.assert_array_equal(midranks(x), stats.rankdata(x, method="average"))


def _stable_midranks(x) -> np.ndarray:
    """midranks as it stood with one stable argsort and the running max/min pass on every row."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    n = x.shape[-1]
    pos = np.arange(n)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = xs[..., 1:] != xs[..., :-1]
    ends = np.ones(x.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=-1)
    return ranks


# a few values drawn often make heavy ties; 0.0 and -0.0 tie with each other
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 5e-324, np.inf, -np.inf])
_RANK_ELEMENTS = st.one_of(_TIED, _TIED, st.floats(allow_nan=False, width=64))
_RANK_SHAPES = st.one_of(st.tuples(st.integers(1, 60)),
                         st.tuples(st.integers(1, 6), st.integers(1, 60)),
                         st.tuples(st.just(3), st.integers(1, 4), st.integers(1, 60)))


@settings(max_examples=300, deadline=None)
@given(arrays(float, _RANK_SHAPES, elements=_RANK_ELEMENTS))
def test_midranks_equal_the_stable_sort_oracle(x):
    assert np.array_equal(midranks(x), _stable_midranks(x))


@settings(max_examples=200, deadline=None)
@given(arrays(float, _RANK_SHAPES, elements=st.one_of(_RANK_ELEMENTS, st.just(np.nan))))
def test_midranks_rank_nans_last(x):
    ranks, oracle = midranks(x), _stable_midranks(x)
    nan = np.isnan(x)
    assert np.array_equal(ranks[~nan], oracle[~nan])
    n = x.shape[-1]
    for r, m in zip(ranks.reshape(-1, n), nan.reshape(-1, n)):
        assert np.array_equal(np.sort(r[m]), np.arange(n - m.sum(), n) + 1.0)


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, spherecov.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_normal_tail_and_p_values_match_scipy():
    for z in np.linspace(0.0, 12.0, 481):
        assert abs(ranktests._norm_sf(z) - stats.norm.sf(z)) <= 1e-15
    z = rng.normal(0.3, 1.0, size=60)
    res = signed_rank(z)
    assert res.method == "normal_approx"
    ranks = midranks(np.abs(z))
    var = 60 * 61 * 121 / 24.0 - ranktests._tie_sum(midranks(ranks), 60) / 48.0
    zstat = max(abs(res.statistic - 60 * 61 / 4.0) - 0.5, 0.0) / np.sqrt(var)
    assert abs(res.p_value - 2.0 * stats.norm.sf(zstat)) <= 1e-15


def test_vectorised_normal_tail_equals_scipy_bit_for_bit():
    # every ndtr branch (x = z / sqrt(2) below 1/sqrt(2), below 1, below 8, beyond), up to
    # the z where scipy flushes the tail to 0
    z = np.concatenate([np.linspace(0.0, 37.0, 20001),
                        np.random.default_rng(4).uniform(0.0, 3.0, 20000),
                        [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0)]])
    npt.assert_array_equal(ranktests._norm_sf(z), stats.norm.sf(z))
    assert ranktests._norm_sf(z[:0]).shape == (0,)


def test_signed_rank_all_positive_small():
    res = signed_rank([0.3, 1.1, 0.7, 2.0, 0.5], min_pairs=1)
    assert res.statistic == 15.0
    assert res.n_effective == 5
    assert res.method == "exact"
    # only T=15 and T=0 are at least this extreme, two-sided
    assert res.p_value == pytest.approx(2.0 / 32.0, abs=1e-15)


def test_signed_rank_known_small_case():
    res = signed_rank([1.2, -0.5, 2.0], min_pairs=1)
    assert res.statistic == 5.0
    assert res.method == "exact"
    assert res.p_value == pytest.approx(0.5, abs=1e-15)


def test_signed_rank_sign_flip_symmetry():
    z = rng.normal(size=9)
    a = signed_rank(z, min_pairs=1)
    b = signed_rank(-z, min_pairs=1)
    n = 9
    assert a.statistic + b.statistic == pytest.approx(n * (n + 1) / 2.0)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


def test_signed_rank_drops_zeros():
    res = signed_rank([0.0, 0.0, 1.0, -2.0, 3.0, 0.0], min_pairs=1)
    assert res.n_effective == 3
    ref = signed_rank([1.0, -2.0, 3.0], min_pairs=1)
    assert res.statistic == ref.statistic
    assert res.p_value == ref.p_value


def test_signed_rank_too_few_pairs():
    with pytest.raises(TooFewPairsError):
        signed_rank([1.0, -1.0, 2.0, 0.0], min_pairs=5)
    with pytest.raises(TooFewPairsError):
        signed_rank([0.0, 0.0, 0.0], min_pairs=1)


def test_signed_rank_exact_matches_scipy():
    # untied data uses the exact null distribution
    for trial in range(200):
        n = int(rng.integers(5, 26))
        z = rng.normal(size=n)
        res = signed_rank(z, min_pairs=5)
        assert res.method == "exact"
        ref = stats.wilcoxon(z, mode="exact")
        assert res.p_value == pytest.approx(ref.pvalue, abs=0.0)


def test_signed_rank_normal_approx_matches_scipy():
    # beyond the exact-size cutoff the tie-corrected normal approximation is used
    checked = 0
    for trial in range(100):
        n = int(rng.integers(30, 60))
        z = np.round(rng.normal(size=n), 1)
        z = z[z != 0.0]
        if len(z) < 30:
            continue
        res = signed_rank(z, min_pairs=5)
        assert res.method == "normal_approx"
        ref = stats.wilcoxon(z, mode="approx", correction=True)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)
        checked += 1
    assert checked > 50


def test_signed_rank_exact_handles_ties():
    # midrank ties stay exact at small sizes; sanity check against sign flips
    z = np.array([0.5, 0.5, -0.5, 1.0, 1.0, -2.0, 3.0])
    res = signed_rank(z, min_pairs=5)
    assert res.method == "exact"
    flip = signed_rank(-z, min_pairs=5)
    assert res.p_value == pytest.approx(flip.p_value, abs=1e-15)
    assert 0.0 < res.p_value <= 1.0


def test_signed_rank_exact_cdf_is_distribution():
    ranks = np.arange(1.0, 9.0)
    support, cdf = signed_rank_exact_cdf(ranks)
    npt.assert_array_equal(support, np.arange(0.0, 36.0 + 0.5, 0.5)[::1][: len(support)])
    assert cdf[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(cdf) >= 0.0)
    # symmetry of the null distribution around n(n+1)/4
    pmf = np.diff(np.concatenate([[0.0], cdf]))
    npt.assert_allclose(pmf, pmf[::-1], atol=1e-15)


def test_signed_rank_exact_cdf_support_spacing():
    # midranks can be half-integers, so the support uses steps of 1/2
    support, cdf = signed_rank_exact_cdf(np.array([1.5, 1.5, 3.0]))
    assert support[0] == 0.0
    assert support[-1] == pytest.approx(6.0)
    npt.assert_allclose(np.diff(support), 0.5)


def test_rank_sum_matches_scipy_asymptotic():
    for trial in range(100):
        nx = int(rng.integers(5, 30))
        ny = int(rng.integers(5, 30))
        if trial % 2 == 0:
            x = rng.normal(size=nx)
            y = rng.normal(loc=0.3, size=ny)
        else:
            # heavy ties
            x = rng.integers(0, 4, size=nx).astype(float)
            y = rng.integers(0, 4, size=ny).astype(float)
        res = rank_sum(x, y)
        ref = stats.mannwhitneyu(x, y, method="asymptotic", use_continuity=True)
        assert res.p_value == pytest.approx(ref.pvalue, abs=0.0)
        assert res.method == "normal_approx"


def test_rank_sum_statistic_complement():
    x = rng.normal(size=12)
    y = rng.normal(size=9)
    a = rank_sum(x, y)
    b = rank_sum(y, x)
    total = 21 * 22 / 2.0
    assert a.statistic + b.statistic == pytest.approx(total)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


def test_rank_sum_all_tied_gives_p_one():
    x = np.full(8, 2.0)
    y = np.full(10, 2.0)
    res = rank_sum(x, y)
    assert res.p_value == 1.0


def test_rank_sum_too_small():
    with pytest.raises(TooFewPairsError):
        rank_sum([1.0, 2.0], [3.0, 4.0, 5.0])


# ------------------------------------------------------- batched rank tests ---

def _same_result(batch, idx, ref_call):
    """A batch row equals the 1-D call bit for bit, or both report the same shortfall."""
    try:
        ref = ref_call()
    except TooFewPairsError as exc:
        assert batch.too_few[idx]
        assert batch.error(idx) == str(exc)
        with pytest.raises(TooFewPairsError, match=re.escape(str(exc))):
            batch.result(idx)
        return
    got = batch.result(idx)
    assert (got.statistic, got.p_value, got.n_effective, got.method) == \
        (ref.statistic, ref.p_value, ref.n_effective, ref.method)
    assert batch.error(idx) is None


_ROW_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),   # heavy ties and exact zeros
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False),
)


def _rows(n_rows, n):
    return arrays(np.float64, (n_rows, n), elements=_ROW_VALUES)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=40),
       st.data())
def test_midranks_rows_equal_one_dimensional_calls(n_rows, n, data):
    x = data.draw(_rows(n_rows, n))
    ranks = midranks(x)
    for r in range(n_rows):
        assert np.array_equal(ranks[r], midranks(x[r]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=8), st.data())
def test_signed_rank_rows_equal_one_dimensional_calls(n_rows, n, min_pairs, data):
    z = data.draw(_rows(n_rows, n))
    batch = ranktests.signed_rank_rows(z, min_pairs=min_pairs)
    assert batch.statistic.shape == (n_rows,)
    for r in range(n_rows):
        _same_result(batch, r, lambda: signed_rank(z[r], min_pairs=min_pairs))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=8),
       st.data())
def test_rank_sum_rows_equal_one_dimensional_calls(n_rows, m, n, min_size, data):
    x, y = data.draw(_rows(n_rows, m)), data.draw(_rows(n_rows, n))
    batch = ranktests.rank_sum_rows(x, y, min_size=min_size)
    for r in range(n_rows):
        _same_result(batch, r, lambda: rank_sum(x[r], y[r], min_size=min_size))


def test_signed_rank_rows_cross_the_exact_limit():
    # one batch: the zero count moves the effective size from 20 to 32 across
    # rows, so the exact and the normal path run side by side
    local = np.random.default_rng(5)
    z = np.round(local.normal(0.2, 1.0, size=(13, 32)), 1)
    z[z == 0.0] = 0.05
    for r in range(13):
        z[r, : 12 - r] = 0.0
    batch = ranktests.signed_rank_rows(z)
    n_eff = batch.n_effective
    assert list(n_eff) == list(range(20, 33))
    assert list(batch.exact) == [n <= ranktests.EXACT_LIMIT for n in n_eff]
    for r in range(13):
        _same_result(batch, r, lambda: signed_rank(z[r]))


def test_exact_null_is_shared_by_tie_free_rows():
    ranktests._exact_null.cache_clear()
    z = rng.normal(size=(40, 18))
    batch = ranktests.signed_rank_rows(z)
    assert batch.exact.all()
    # the 40 rows have one null: one recursion and one lookup serve them all
    info = ranktests._exact_null.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    cdf, upper = ranktests._exact_null(tuple(range(2, 37, 2)))
    assert not cdf.flags.writeable and not upper.flags.writeable
    # the public CDF is a private copy of the cached one
    support, public_cdf = signed_rank_exact_cdf(np.arange(1.0, 19.0))
    public_cdf[0] = -1.0
    assert cdf[0] > 0.0


def _null_pmf(doubled):
    """Null pmf of 2T for doubled ranks, by the subset-sum recursion."""
    total = sum(doubled)
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] += counts[: total + 1 - r].copy()
    return counts / counts.sum()


def _exact_p_oracle(z):
    """(T, exact two-sided p) of one row, by the one-row lookup that batching replaced."""
    z = z[z != 0.0]
    ranks = midranks(np.abs(z))
    t = float(np.sum(ranks[z > 0.0]))
    pmf = _null_pmf(np.rint(2.0 * np.sort(ranks)).astype(int).tolist())
    cdf = np.cumsum(pmf)
    t2 = int(round(2.0 * t))
    return t, min(1.0, 2.0 * min(float(cdf[t2]), float(pmf[t2:].sum())))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 20, 25])
def test_cached_upper_tail_equals_each_suffix_sum(n):
    # tie-free and tied doubled ranks; the suffix sums are the ones the
    # one-row lookup took, at every support point
    local = np.random.default_rng(n)
    for values in (np.arange(1.0, n + 1), local.integers(1, 4, size=n)):
        doubled = tuple(np.rint(2.0 * np.sort(midranks(np.abs(values)))).astype(int).tolist())
        cdf, upper = ranktests._exact_null(doubled)
        pmf = _null_pmf(doubled)
        assert np.array_equal(upper, [pmf[s:].sum() for s in range(len(pmf))])
        assert np.array_equal(cdf, np.cumsum(pmf))


# few distinct values give ties and exact zeros; the sizes straddle EXACT_LIMIT
_EXACT_VALUES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.5]),
                          st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                                    allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(), (7,), (2, 3)]), st.sampled_from([0, 3, 6, 20, 24, 25, 26, 27]),
       st.integers(min_value=1, max_value=8), st.data())
def test_batched_exact_rows_equal_scalar_test_and_per_row_lookup(lead, n, min_pairs, data):
    z = data.draw(arrays(np.float64, lead + (n,), elements=_EXACT_VALUES))
    batch = ranktests.signed_rank_rows(z, min_pairs=min_pairs)
    assert batch.statistic.shape == lead
    for idx in np.ndindex(*lead):
        _same_result(batch, idx, lambda: signed_rank(z[idx], min_pairs=min_pairs))
        if batch.exact[idx]:
            t, p = _exact_p_oracle(z[idx])
            assert (batch.statistic[idx], batch.p_value[idx]) == (t, p)
