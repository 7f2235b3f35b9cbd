import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from spherecov import (
    ANTIPODAL_EPS,
    AntipodalPointError,
    RingDensity,
    geodesic_distances,
    rejection_sample,
    rejection_sample_rows,
    ring_density_unnormalized,
    rotate_points,
    spawn_states,
    state_generators,
    uniform_sample,
    unit_point,
)
from spherecov import sampling


def test_ring_density_validation():
    with pytest.raises(ValueError):
        RingDensity(a=-0.1)
    with pytest.raises(ValueError):
        RingDensity(a=0.2, concentration="cubic")
    params = RingDensity(a=0.2, mu=[0.0, 0.0, 2.0])
    npt.assert_allclose(params.mu, [0.0, 0.0, 1.0], atol=1e-15)
    # both ends of each ring range: the center itself and the antipode
    for a, concentration in ((0.0, "quartic"), (np.pi ** 4, "quartic"),
                             (0.0, "squared"), (np.pi ** 2, "squared")):
        assert RingDensity(a=a, concentration=concentration).a == a


@pytest.mark.parametrize("a, concentration", [
    (np.nan, "quartic"), (np.inf, "quartic"), (-np.inf, "quartic"), (-0.1, "quartic"),
    (np.pi ** 4 + 1.0, "quartic"), (np.nan, "squared"), (np.pi ** 2 + 0.01, "squared")])
def test_ring_parameter_off_the_sphere_is_rejected(a, concentration):
    # a NaN or infinite a, or a ring beyond the antipode, accepts no proposal: sampling never ends
    power = 4 if concentration == "quartic" else 2
    with pytest.raises(ValueError, match=rf"^ring parameter a must lie in \[0, pi\*\*{power}\]"):
        RingDensity(a=a, concentration=concentration)


def test_ring_density_default_center_is_the_north_pole_bit_for_bit():
    mu = RingDensity(a=0.2).mu
    assert isinstance(mu, np.ndarray)
    assert mu.tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()


def test_ring_density_values():
    params = RingDensity(a=0.3)
    # maximal exactly on the ring d = a^(1/4), value 1 there
    on_ring = unit_point([np.sin(0.3 ** 0.25), 0.0, np.cos(0.3 ** 0.25)])
    assert ring_density_unnormalized(on_ring, params) == pytest.approx(1.0, abs=1e-12)
    at_center = ring_density_unnormalized(params.mu, params)
    assert at_center == pytest.approx(np.exp(-0.09), abs=1e-12)
    assert at_center < 1.0
    with pytest.raises(AntipodalPointError):
        ring_density_unnormalized(-params.mu, params)


@pytest.mark.parametrize("concentration, power", [("quartic", 4.0), ("squared", 2.0)])
def test_in_place_density_has_the_bits_of_the_expression(concentration, power):
    params = RingDensity(a=0.7, concentration=concentration)
    d = np.concatenate([np.linspace(0.0, np.pi, 20001),
                        np.random.default_rng(3).uniform(0.0, np.pi, 20000)])
    expected = np.exp(-((d ** power - params.a) ** 2))
    assert sampling._density_values(params, d).tobytes() == expected.tobytes()
    work = d.copy()
    assert sampling._density_values(params, work, out=work) is work
    assert work.tobytes() == expected.tobytes()


def test_rejection_sample_basics():
    params = RingDensity(a=0.3)
    rng = np.random.default_rng(42)
    sample, proposals = rejection_sample(params, 200, rng, return_proposals=True)
    assert sample.shape == (200, 3)
    npt.assert_allclose(np.linalg.norm(sample, axis=1), 1.0, atol=1e-12)
    assert proposals >= 200
    again = rejection_sample(params, 200, np.random.default_rng(42))
    npt.assert_array_equal(sample, again)
    with pytest.raises(ValueError):
        rejection_sample(params, 0, rng)


def _radial_pdf(params):
    power = 4.0 if params.concentration == "quartic" else 2.0

    def unnorm(d):
        return np.exp(-((d ** power - params.a) ** 2)) * np.sin(d)

    z, _ = integrate.quad(unnorm, 0.0, np.pi)
    return lambda d: unnorm(d) / z


def test_radial_distribution_quartic_gof():
    # chi-square against the quadrature radial law; frozen seed, p = 0.822
    params = RingDensity(a=0.3)
    sample = rejection_sample(params, 4000, np.random.default_rng(0))
    d = geodesic_distances(params.mu, sample)
    pdf = _radial_pdf(params)
    edges = np.linspace(0.0, np.pi, 21)
    counts, _ = np.histogram(d, bins=edges)
    expected = np.array([
        integrate.quad(pdf, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])
    ]) * len(d)
    # merge the sparse tail so every expected count is at least 5
    while expected[-1] < 5.0:
        expected[-2] += expected[-1]
        counts[-2] += counts[-1]
        expected = expected[:-1]
        counts = counts[:-1]
    stat = float(((counts - expected) ** 2 / expected).sum())
    p = float(stats.chi2.sf(stat, len(counts) - 1))
    assert p > 0.01
    assert p == pytest.approx(0.822, abs=0.01)


def test_azimuth_is_uniform():
    # rotational symmetry about mu: azimuth KS against the uniform law
    params = RingDensity(a=0.3)
    sample = rejection_sample(params, 4000, np.random.default_rng(0))
    phi = np.arctan2(sample[:, 1], sample[:, 0])
    res = stats.kstest(phi, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert res.pvalue > 0.01
    assert res.pvalue == pytest.approx(0.678, abs=0.01)


def test_transformed_distance_peak_bin():
    # histogram of d^4 with fixed bins peaks in the bin holding a, matching
    # the pushforward density computed by quadrature
    params = RingDensity(a=0.3)
    sample = rejection_sample(params, 4000, np.random.default_rng(0))
    y = geodesic_distances(params.mu, sample) ** 4
    edges = np.linspace(0.0, 3.2, 11)
    assert y.max() < edges[-1]

    def pushforward(v):
        return np.exp(-((v - params.a) ** 2)) * np.sin(v ** 0.25) * v ** (-0.75) / 4.0

    masses = np.array([
        integrate.quad(pushforward, lo, hi)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    counts, _ = np.histogram(y, bins=edges)
    assert int(np.argmax(masses)) == 0
    assert edges[0] <= params.a < edges[1]
    assert int(np.argmax(counts)) == 0


def test_radial_distribution_squared_gof():
    params = RingDensity(a=0.3, concentration="squared")
    sample = rejection_sample(params, 3000, np.random.default_rng(0))
    d = geodesic_distances(params.mu, sample)
    pdf = _radial_pdf(params)
    edges = np.linspace(0.0, np.pi, 21)
    counts, _ = np.histogram(d, bins=edges)
    expected = np.array([
        integrate.quad(pdf, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])
    ]) * len(d)
    while expected[-1] < 5.0:
        expected[-2] += expected[-1]
        counts[-2] += counts[-1]
        expected = expected[:-1]
        counts = counts[:-1]
    stat = float(((counts - expected) ** 2 / expected).sum())
    p = float(stats.chi2.sf(stat, len(counts) - 1))
    assert p > 0.01
    assert p == pytest.approx(0.871, abs=0.01)


def test_point_concentration_mean_distance():
    # a = 0 concentrates near the center; mean distance from quadrature
    params = RingDensity(a=0.0)
    pdf = _radial_pdf(params)
    expected_mean, _ = integrate.quad(lambda d: d * pdf(d), 0.0, np.pi)
    assert expected_mean == pytest.approx(0.6408, abs=5e-4)
    sample = rejection_sample(params, 4000, np.random.default_rng(1))
    observed = float(geodesic_distances(params.mu, sample).mean())
    assert abs(observed - expected_mean) < 0.02


def test_rotate_points_preserves_axis_distances():
    params = RingDensity(a=0.3, mu=[0.1, 0.0, 1.0])
    sample = rejection_sample(params, 100, np.random.default_rng(7))
    axis = unit_point([0.3, -0.2, 0.9])
    rotated = rotate_points(sample, axis, 1.1)
    npt.assert_allclose(
        geodesic_distances(axis, rotated), geodesic_distances(axis, sample), atol=1e-12
    )
    # pairwise geometry preserved as well
    npt.assert_allclose(rotated @ rotated.T, sample @ sample.T, atol=1e-12)


def _looped_sample(params, n, rng):
    """The per-call rejection loop that rejection_sample_rows replaced, kept verbatim as an oracle."""
    out = np.empty((n, 3))
    got = 0
    proposals = 0
    while got < n:
        chunk = max(4 * (n - got), 64)
        pts = uniform_sample(rng, chunk)
        cosines = pts @ params.mu
        d = np.arccos(np.clip(cosines, -1.0, 1.0))
        dens = np.exp(-((d ** (4.0 if params.concentration == "quartic" else 2.0) - params.a) ** 2))
        accept = (rng.random(chunk) < dens) & (cosines > -1.0 + ANTIPODAL_EPS)
        proposals += chunk
        accepted = pts[accept]
        take = min(n - got, len(accepted))
        out[got : got + take] = accepted[:take]
        got += take
    return out, proposals


_finite = st.floats(-1.0, 1.0, allow_nan=False)

# ring parameters whose mode cosine cos(a^(1/power)) is the bin edge 0.25 exactly
_EDGE_MODE_A = {"quartic": 3.0186629296673937, "squared": 1.7374299783494567}


@settings(max_examples=40, deadline=None)
@example(a=0.0, concentration="quartic", n=50, rows=8, mu=(0.3, -0.5, 0.8), seed=11)
@example(a=_EDGE_MODE_A["quartic"], concentration="quartic", n=50, rows=8, mu=(-0.6, 0.2, 0.4),
         seed=12)
@example(a=_EDGE_MODE_A["squared"], concentration="squared", n=40, rows=12, mu=(0.1, 0.9, -0.3),
         seed=13)
@given(a=st.one_of(st.sampled_from([0.0, 0.2, 0.5, 2.0]), st.floats(0.0, 6.0)),
       concentration=st.sampled_from(["quartic", "squared"]),
       n=st.integers(1, 80), rows=st.integers(1, 70),
       mu=st.tuples(_finite, _finite, _finite).filter(lambda v: np.linalg.norm(v) > 0.1),
       seed=st.integers(0, 2**32 - 1))
def test_rejection_sample_rows_equal_the_looped_sampler(a, concentration, n, rows, mu, seed):
    params = RingDensity(a=a, mu=np.array(mu), concentration=concentration)
    seeds = np.random.SeedSequence(seed).spawn(rows)
    gens = [np.random.default_rng(s) for s in seeds]
    points, proposals = rejection_sample_rows(params, n, gens)
    assert points.shape == (rows, n, 3) and proposals.shape == (rows,)
    for r, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        expected, count = _looped_sample(params, n, rng)
        npt.assert_array_equal(points[r], expected)
        assert proposals[r] == count
        # the same next draw shows each generator was left in the same state
        assert gens[r].random() == rng.random()


class _LoggedGenerator:
    """Draws from rng and logs (row, buffer address, size) of each normal chunk it draws."""

    def __init__(self, rng, row, log):
        self.rng, self.row, self.log = rng, row, log

    def standard_normal(self, out):
        self.log.append((self.row, out.ctypes.data, len(out)))
        return self.rng.standard_normal(out=out)

    def random(self, out):
        return self.rng.random(out=out)


@pytest.mark.parametrize("n, budget, mixes", [
    # a small round budget gives several rounds, down to one generator per round at n = 60
    pytest.param(1, 200, False, id="1"),
    pytest.param(20, 200, True, id="20"),
    pytest.param(60, 200, False, id="60"),
    # the second round holds generator 0 on its second chunk next to 3 and 4 on their first
    pytest.param(20, 300, True, id="mixed"),
    # every first chunk of 1,000 proposals alone exceeds the budget
    pytest.param(250, 200, False, id="oversized"),
])
def test_rejection_sample_rows_split_into_rounds_equal_the_looped_sampler(monkeypatch, n, budget,
                                                                          mixes):
    monkeypatch.setattr(sampling, "_ROUND_PROPOSALS", budget)
    params = RingDensity(a=0.5, mu=[0.0, 0.4, 1.0], concentration="squared")
    seeds = np.random.SeedSequence(9).spawn(9)
    log = []
    gens = [_LoggedGenerator(np.random.default_rng(s), r, log) for r, s in enumerate(seeds)]
    points, proposals = rejection_sample_rows(params, n, gens)
    for r, s in enumerate(seeds):
        expected, count = _looped_sample(params, n, np.random.default_rng(s))
        npt.assert_array_equal(points[r], expected)
        assert proposals[r] == count
    # a round draws its first chunk at the start of the buffer; it holds one chunk or chunks
    # within the budget, and mixes generators on different chunks of their own only if expected
    rows = [row for row, _, _ in log]
    stages = [rows[:i].count(row) for i, row in enumerate(rows)]
    starts = [i for i, (_, address, _) in enumerate(log) if address == log[0][1]] + [len(log)]
    rounds = [range(a, b) for a, b in zip(starts, starts[1:])]
    assert all(len(rd) == 1 or sum(log[i][2] for i in rd) <= budget for rd in rounds)
    assert any(len({stages[i] for i in rd}) > 1 for rd in rounds) == mixes


def _working_memory(rows: int, n: int) -> int:
    """The traced peak of one rejection_sample_rows call over rows generators, less its points."""
    params = RingDensity(0.2)
    sampling._squeeze_table(params.a, params.concentration)
    gens = state_generators(spawn_states(3, rows))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        points, _ = rejection_sample_rows(params, n, gens)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - points.nbytes


@pytest.mark.parametrize("rows, n", [(200, 50), (2000, 50), (1, 3000)])
def test_rejection_sample_rows_working_memory_does_not_grow_with_the_generators(rows, n):
    # a round's buffers hold at most one round's budget of proposals, or one larger first chunk
    assert _working_memory(rows, n) < 2e6


def test_rejection_sample_rows_round_bookkeeping_does_not_grow_with_the_generators():
    # a round looks at no more than 201 waiting generators; what grows with them is the
    # per-generator counts (16 bytes each, 0.13 MB at 8,000). Sums over every waiting
    # generator and a rescan of all of them after each round read 0.31 MB more at 8,000.
    assert _working_memory(8000, 50) < _working_memory(128, 50) + 0.2e6


def _exact_density(params, cosines):
    return sampling._density_values(params, np.arccos(np.clip(cosines, -1.0, 1.0)))


def test_exact_test_of_a_few_points_decides_as_in_a_batch():
    # numpy takes a one-row product as a dot, which rounds otherwise than a batch's gemv, and a
    # gemv may treat the rows past its block size in tail code; u on the batch's density decides
    # each point on the last bit of its cosine, so each slice of 1 to 9 points, at every offset,
    # must decide as the whole batch does
    params = RingDensity(a=0.3, mu=[0.2, -0.7, 0.5])
    z = np.random.default_rng(8).standard_normal((400, 3))
    pts = z / np.linalg.norm(z, axis=1, keepdims=True)
    dens = _exact_density(params, pts @ params.mu)
    for u in (dens, np.nextafter(dens, 0.0)):
        batch = sampling._exact_accepts(params, pts, u)
        for k in range(1, 10):
            for i in range(len(pts) - k + 1):
                npt.assert_array_equal(sampling._exact_accepts(params, pts[i : i + k], u[i : i + k]),
                                       batch[i : i + k], err_msg=f"{k} points from {i}")


def _ulps(x, k):
    """x moved k ulps toward +inf (k > 0) or -inf (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def test_edge_mode_rings_have_their_mode_on_a_bin_edge():
    assert (0.25 + 1.0) * (sampling._COSINE_BINS / 2) == 640
    for concentration, a in _EDGE_MODE_A.items():
        assert math.cos(a ** (1.0 / sampling._POWERS[concentration])) == 0.25


@st.composite
def _rings(draw):
    concentration = draw(st.sampled_from(["quartic", "squared"]))
    top = np.pi ** sampling._POWERS[concentration]
    return concentration, draw(st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top)))


@settings(max_examples=30, deadline=None)
@given(ring=_rings(), seed=st.integers(0, 2**32 - 1))
@example(ring=("quartic", 0.0), seed=1)
@example(ring=("squared", 0.0), seed=2)
@example(ring=("quartic", _EDGE_MODE_A["quartic"]), seed=3)
@example(ring=("squared", _EDGE_MODE_A["squared"]), seed=4)
def test_squeeze_bounds_enclose_the_density_in_each_bin_and_its_neighbours(ring, seed):
    concentration, a = ring
    params = RingDensity(a, concentration=concentration)
    lo, hi = sampling._squeeze_table(a, concentration)
    bins = sampling._COSINE_BINS
    assert lo.shape == hi.shape == (bins + 1,)
    # random cosines in every bin, every edge and the mode, each also moved by up to 3 ulps
    rng = np.random.default_rng(seed)
    inside = -1.0 + 2.0 * (np.arange(bins)[:, None] + rng.random((bins, 4))).ravel() / bins
    marks = np.append(np.linspace(-1.0, 1.0, bins + 1),
                      math.cos(a ** (1.0 / sampling._POWERS[concentration])))
    cosines = np.clip(np.concatenate([inside] + [_ulps(marks, k) for k in range(-3, 4)]), -1.0, 1.0)
    dens = _exact_density(params, cosines)
    # each cosine is bounded by the column of its bin and by both neighbouring columns
    own = np.minimum(((cosines + 1.0) * (bins / 2)).astype(np.intp), bins)
    for shift in (-1, 0, 1):
        col = np.clip(own + shift, 0, bins)
        assert np.all(lo[col] <= dens), (shift, cosines[lo[col] > dens][:3])
        assert np.all(dens <= hi[col]), (shift, cosines[dens > hi[col]][:3])


def test_squeeze_leaves_at_most_one_percent_of_test_fixed_proposals_to_the_exact_density(
        monkeypatch):
    # the proposals of test --a1 0.2 --a2 0.3 --m1 50 --runs 500 --seed 1, in test's 128-run blocks
    params = [RingDensity(0.2), RingDensity(0.3)]
    for p in params:
        sampling._squeeze_table(p.a, p.concentration)
    evaluated = [0]
    density = sampling._density_values

    def counted(params, dists, out=None):
        evaluated[0] += np.size(dists)
        return density(params, dists, out=out)

    monkeypatch.setattr(sampling, "_density_values", counted)
    states = spawn_states(1, 500)
    proposals = 0
    for start in range(0, 500, 128):
        gens = state_generators(states[start : start + 128])
        for p in params:
            proposals += int(rejection_sample_rows(p, 50, gens)[1].sum())
    assert proposals > 200_000
    assert evaluated[0] <= 0.01 * proposals


def test_rejection_sample_is_the_one_row_call():
    params = RingDensity(a=0.2, mu=[0.3, 0.0, 1.0])
    points, proposals = rejection_sample(params, 33, np.random.default_rng(5), return_proposals=True)
    expected, count = _looped_sample(params, 33, np.random.default_rng(5))
    npt.assert_array_equal(points, expected)
    assert type(proposals) is int and proposals == count
    with pytest.raises(ValueError):
        rejection_sample_rows(params, 0, [np.random.default_rng(0)])


_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 99999999999999999999999]),
                   st.integers(0, 2**32 - 1), st.integers(0, 2**160))


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, runs=st.integers(1, 300))
def test_spawned_states_and_generators_equal_numpys_spawned_children(seed, runs):
    # numpy's own SeedSequence is the oracle, multi-word seeds and spawn keys included
    children = np.random.SeedSequence(seed).spawn(runs)
    states = spawn_states(seed, runs)
    assert states.shape == (runs, 4) and states.dtype == np.uint64
    npt.assert_array_equal(states, [c.generate_state(4, np.uint64) for c in children])
    gens = state_generators(states)
    assert len(gens) == runs
    for gen, child in zip(gens, children):
        ref = np.random.default_rng(child)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.standard_normal() == ref.standard_normal()
        assert gen.random() == ref.random()


def test_spawn_states_rejects_a_negative_seed_with_numpys_message():
    with pytest.raises(ValueError) as numpys:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError) as ours:
        spawn_states(-1, 3)
    assert str(ours.value) == str(numpys.value) == "expected non-negative integer"


def test_spawn_states_rejects_runs_whose_keys_take_two_words():
    # numpy spawns keys of 2**32 and up as two words; the check comes before any array
    with pytest.raises(ValueError, match="runs must be below 2"):
        spawn_states(0, 2**32)
