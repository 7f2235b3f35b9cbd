import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecov import (
    AntipodalPointError,
    SampleSizeMismatchError,
    TooFewPairsError,
    batch_procedures,
    det_sign_areas,
    log_map,
    log_map_coords,
    observation_scan,
    operator_profile,
    paired_projections,
    projections_at,
    sample_cov_operator,
    sample_profile,
    tangent_frame,
    tr2_scores,
    uniform_sample,
    unit_point,
    unit_points,
)
from spherecov import test_procedure_1 as procedure_1
from spherecov import test_procedure_2 as procedure_2
from spherecov import ranktests, twosample
from spherecov.spd import _det2, _sym_comps
from spherecov.twosample import _block, _candidate_blocks

rng = np.random.default_rng(2024)


def _clustered(center, n, spread, seed):
    local = np.random.default_rng(seed)
    return unit_points(unit_point(center) + spread * local.normal(size=(n, 3)))


S1 = _clustered([0.0, 0.2, 1.0], 30, 0.25, 1)
S2 = _clustered([0.15, 0.0, 1.0], 30, 0.35, 2)
Q = unit_point([0.5, -0.3, 0.9])


def test_projection_identities():
    proj = projections_at(Q, S1, S2)
    # the two xi components of a point always sum to its squared distance
    npt.assert_allclose(proj.xi1.sum(axis=1), proj.dsq1, atol=1e-12)
    npt.assert_allclose(proj.xi2.sum(axis=1), proj.dsq2, atol=1e-12)
    # per-eigenvector mean gaps recover the eigenvalues
    gaps = proj.xi1.mean(axis=0) - proj.xi2.mean(axis=0)
    npt.assert_allclose(gaps, proj.eigvals, atol=1e-12)


def test_eigensystem_conventions():
    proj = projections_at(Q, S1, S2)
    assert proj.eigvals[0] >= proj.eigvals[1]
    v = proj.eigvecs
    npt.assert_allclose(v.T @ v, np.eye(2), atol=1e-12)
    for s in range(2):
        lead = v[0, s] if abs(v[0, s]) > 1e-15 else v[1, s]
        assert lead > 0.0
    # eigvec accessor hands back the matching column in the same frame
    tv = proj.eigvec(1)
    npt.assert_array_equal(tv.u, v[:, 1])
    assert tv.frame is proj.frame


def test_lhat_matches_manual_construction():
    u1, _ = log_map_coords(Q, S1)
    u2, _ = log_map_coords(Q, S2)
    manual = (u1.T @ u1) / len(u1) - (u2.T @ u2) / len(u2)
    proj = projections_at(Q, S1, S2)
    npt.assert_allclose(proj.lhat, manual, atol=1e-14)
    w_manual = np.sort(np.linalg.eigvalsh(manual))[::-1]
    npt.assert_allclose(proj.eigvals, w_manual, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(0.5, 2.0))
def test_tangent_quantities_are_in_the_frame_at_the_callers_point(seed, c):
    # q is normalised once: every frame is tangent_frame(q), every base unit_point(q)
    local = np.random.default_rng(seed)
    q0 = uniform_sample(local, 1)[0]
    s1, s2 = uniform_sample(local, 12), uniform_sample(local, 9)
    cands = c * uniform_sample(local, 6)
    for q in (q0, c * q0):
        expected = tangent_frame(q)
        proj = projections_at(q, s1, s2)
        for frame in (log_map(q, s1[0]).frame, proj.frame):
            for a, b in ((frame.base, expected.base), (frame.e1, expected.e1),
                         (frame.e2, expected.e2)):
                npt.assert_array_equal(a, b)
        npt.assert_array_equal(sample_profile(q, s1, n_dirs=8).base, unit_point(q))
        u1, _ = log_map_coords(q, unit_points(s1))
        u2, _ = log_map_coords(q, unit_points(s2))
        npt.assert_array_equal(proj.lhat, (u1.T @ u1) / len(u1) - (u2.T @ u2) / len(u2))
    rows = observation_scan(s1, s2, cands, criterion="uniform")
    scan_q = np.vstack([unit_points(_block(*b, 0.05).q)
                        for b in _candidate_blocks(cands, s1, s2)])
    batch = paired_projections(cands, np.stack([s1] * 6), np.stack([s2] * 6))
    for r, q in enumerate(cands):
        npt.assert_array_equal(rows[r].q, unit_point(q))
        npt.assert_array_equal(scan_q[r], unit_point(q))
        single = projections_at(q, s1, s2)
        for name in _PROJECTION_FIELDS:
            npt.assert_array_equal(getattr(batch, name)[r], getattr(single, name))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_lhat_is_the_difference_of_sample_cov_operators_bit_for_bit(seed):
    # unnormalised q and samples: both paths normalise each point once and
    # build each operator through the same kernel
    local = np.random.default_rng(seed)
    m1, m2 = local.integers(3, 40, 2)
    s1 = local.normal(size=(m1, 3)) * local.uniform(0.5, 2.0, (m1, 1))
    s2 = local.normal(size=(m2, 3)) * local.uniform(0.5, 2.0, (m2, 1))
    for q in (local.normal(size=3) * 1.7, local.normal(size=(7, 3)) * 0.6):
        npt.assert_array_equal(projections_at(q, s1, s2).lhat,
                               sample_cov_operator(q, s1) - sample_cov_operator(q, s2))


def test_paired_procedure_requires_equal_sizes():
    with pytest.raises(SampleSizeMismatchError):
        procedure_1(S1, S2[:-1], Q)


def test_alpha_validation():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            procedure_1(S1, S2, Q, alpha=bad)
        with pytest.raises(ValueError):
            procedure_2(S1, S2, Q, alpha=bad)


def test_outcome_fields_and_rejection_rule():
    out = procedure_1(S1, S2, Q, alpha=0.05)
    assert out.kind == "signed_rank"
    assert len(out.components) == 2
    assert out.stat_xi == max(c.statistic for c in out.components)
    assert out.min_p == min(c.p_value for c in out.components)
    assert out.reject == (out.min_p < 0.025)
    out2 = procedure_2(S1, S2[:-3], Q, alpha=0.05)
    assert out2.kind == "rank_sum"
    assert out2.reject == (out2.min_p < 0.025)


def test_identical_samples_paired_degenerates():
    with pytest.raises(TooFewPairsError):
        procedure_1(S1, S1, Q)


def test_identical_samples_unpaired_never_rejects():
    out = procedure_2(S1, S1.copy(), Q)
    for comp in out.components:
        assert comp.p_value == 1.0
    assert not out.reject


def test_scan_records_degenerate_rows():
    rows = observation_scan(S1, S1.copy(), [Q], criterion="uniform")
    row = rows[0]
    assert row.error is not None
    assert row.paired is None
    assert row.unpaired is not None
    assert row.tr2 == pytest.approx(0.0, abs=1e-20)


def test_scan_orderings():
    cands = uniform_sample(np.random.default_rng(3), 12)
    by_tr2 = observation_scan(S1, S2, cands, criterion="tr2")
    vals = [r.tr2 for r in by_tr2]
    assert vals == sorted(vals, reverse=True)
    by_det = observation_scan(S1, S2, cands, criterion="det")
    dets = [r.det for r in by_det]
    assert dets == sorted(dets, reverse=True)
    plain = observation_scan(S1, S2, cands, criterion="uniform")
    for row, q in zip(plain, unit_points(cands)):
        npt.assert_allclose(row.q, q, atol=1e-15)
    with pytest.raises(ValueError):
        observation_scan(S1, S2, cands, criterion="trace")
    with pytest.raises(ValueError):
        observation_scan(S1, S2, np.empty((0, 3)))


def test_scan_rows_match_procedures_at_each_candidate():
    cands = uniform_sample(np.random.default_rng(4), 10)
    rows = observation_scan(S1, S2, cands, criterion="uniform")
    for row, q in zip(rows, cands):
        proj = projections_at(q, S1, S2)
        tr = np.trace(proj.lhat)
        assert row.tr2 == tr * tr
        # the package's closed form a d - b^2, bit for bit, and LAPACK's LU to rounding
        assert row.det == _det2(_sym_comps(proj.lhat))
        npt.assert_allclose(row.det, np.linalg.det(proj.lhat), rtol=1e-12)
        npt.assert_array_equal(row.eigvals, proj.eigvals)
        for got, ref in ((row.paired, procedure_1(S1, S2, q)),
                         (row.unpaired, procedure_2(S1, S2, q))):
            assert got.kind == ref.kind
            assert got.stat_xi == ref.stat_xi
            for a, b in zip(got.components + (got.d_test,), ref.components + (ref.d_test,)):
                assert a.p_value == b.p_value


def test_det_sign_areas_partition():
    grid = uniform_sample(np.random.default_rng(5), 64)
    pos, neg = det_sign_areas(S1, S2, grid)
    assert pos + neg == pytest.approx(1.0, abs=1e-15)
    dets = np.array([np.linalg.det(projections_at(q, S1, S2).lhat) for q in grid])
    assert 0.0 < pos < 1.0
    assert pos == np.mean(dets > 0.0)


def test_profile_difference_matches_operator_profile():
    n_dirs = 36
    p1 = sample_profile(Q, S1, n_dirs=n_dirs)
    p2 = sample_profile(Q, S2, n_dirs=n_dirs)
    proj = projections_at(Q, S1, S2)
    expected = operator_profile(proj.lhat, n_dirs=n_dirs)
    npt.assert_allclose(p1.mean - p2.mean, expected, atol=1e-10)


def test_single_point_profile_shape():
    p = unit_point([0.3, 0.4, 0.86])
    prof = sample_profile(Q, p[None, :], n_dirs=24)
    u, d = log_map_coords(Q, p[None, :])
    t0 = np.arctan2(u[0, 1], u[0, 0])
    expected = (d[0] ** 2) * np.cos(prof.thetas - t0) ** 2
    npt.assert_allclose(prof.values[0], expected, atol=1e-12)
    # pi-periodicity
    npt.assert_allclose(prof.values[:, :12], prof.values[:, 12:], atol=1e-12)


def test_profile_direction_count_validation():
    with pytest.raises(ValueError):
        sample_profile(Q, S1, n_dirs=2)


# --------------------------------------------------------------- batches ---

_PROJECTION_FIELDS = ("lhat", "eigvals", "eigvecs", "xi1", "xi2", "dsq1", "dsq2")


def _same_test(got, ref):
    assert (got.statistic, got.p_value, got.n_effective, got.method) == \
        (ref.statistic, ref.p_value, ref.n_effective, ref.method)


def _same_outcome(got, ref):
    assert got.kind == ref.kind
    assert got.stat_xi == ref.stat_xi
    for a, b in zip(got.components + (got.d_test,), ref.components + (ref.d_test,)):
        _same_test(a, b)


def _pair_stack(n_rows, m1, m2, seed):
    local = np.random.default_rng(seed)
    qs = local.normal(size=(n_rows, 3)) * local.uniform(0.5, 2.0, size=(n_rows, 1))
    s1 = np.stack([_clustered([0.0, 0.2, 1.0], m1, 0.3, seed + 10 + r) for r in range(n_rows)])
    s2 = np.stack([_clustered([0.2, 0.0, 1.0], m2, 0.4, seed + 50 + r) for r in range(n_rows)])
    return qs, s1, s2


def test_paired_projections_rows_equal_projections_at():
    qs, s1, s2 = _pair_stack(9, 30, 24, 0)
    batch = paired_projections(qs, s1, s2)
    for r in range(9):
        single = projections_at(qs[r], s1[r], s2[r])
        for name in _PROJECTION_FIELDS:
            assert np.array_equal(getattr(batch, name)[r], getattr(single, name)), name


def test_batch_procedures_rows_equal_single_procedures():
    for m1, m2 in ((20, 20), (40, 40), (30, 24)):
        qs, s1, s2 = _pair_stack(7, m1, m2, m1 + m2)
        paired, unpaired = batch_procedures(s1, s2, qs, alpha=0.1)
        assert (paired is None) == (m1 != m2)
        for r in range(7):
            _same_outcome(unpaired.outcome(r, projections_at(qs[r], s1[r], s2[r])),
                          procedure_2(s1[r], s2[r], qs[r], alpha=0.1))
            assert unpaired.reject[r] == procedure_2(s1[r], s2[r], qs[r], alpha=0.1).reject
            if paired is not None:
                ref = procedure_1(s1[r], s2[r], qs[r], alpha=0.1)
                _same_outcome(paired.outcome(r, projections_at(qs[r], s1[r], s2[r])), ref)
                assert (paired.stat_xi[r], paired.min_p[r], paired.reject[r]) == \
                    (ref.stat_xi, ref.min_p, ref.reject)


def test_batch_procedures_flag_degenerate_rows():
    qs, s1, s2 = _pair_stack(4, 15, 15, 3)
    s2[2] = s1[2]
    paired, unpaired = batch_procedures(s1, s2, qs)
    assert list(paired.degenerate) == [False, False, True, False]
    with pytest.raises(TooFewPairsError) as exc:
        procedure_1(s1[2], s2[2], qs[2])
    assert paired.error(2) == str(exc.value)
    assert paired.error(1) is None
    assert not unpaired.degenerate.any()
    s1[3, 0] = -unit_point(qs[3])
    with pytest.raises(AntipodalPointError):
        batch_procedures(s1, s2, qs)


@pytest.mark.parametrize("m1, m2", [(4, 4), (15, 15), (20, 20), (40, 40), (30, 24)])
def test_procedure_tests_equal_one_statistic_calls_bit_for_bit(m1, m2):
    # a procedure's three tests take their normal tails from one call; each
    # equals its own rank-test call. Row 1 repeats a point pair (tied paired
    # differences) and row 2 holds identical samples (no nonzero difference).
    # In row 3, at the pole, the first three points of sample 2 mirror those of
    # sample 1 (x -> -x keeps their distances bit for bit): only the distance
    # test sees those zeros or ties, so its size and variance differ from the
    # xi tests'.
    qs, s1, s2 = _pair_stack(6, m1, m2, m1 + 3 * m2)
    s1[1, 1], s2[1, 1] = s1[1, 0], s2[1, 0]
    s2[2] = s1[2, :m2]
    qs[3] = [0.0, 0.0, 1.0]
    s2[3, :3] = s1[3, :3] * np.array([-1.0, 1.0, 1.0])
    proj = paired_projections(qs, s1, s2)
    paired, unpaired = batch_procedures(s1, s2, qs)
    assert (paired is None) == (m1 != m2)
    stats = [(proj.xi1[..., 0], proj.xi2[..., 0]), (proj.xi1[..., 1], proj.xi2[..., 1]),
             (proj.dsq1, proj.dsq2)]
    for procedure, test in ((paired, lambda a, b: ranktests.signed_rank_rows(a - b)),
                            (unpaired, ranktests.rank_sum_rows)):
        if procedure is None:
            continue
        for got, (a, b) in zip(procedure.tests, stats):
            want = test(a, b)
            assert got.message == want.message
            for name in ("statistic", "p_value", "n_effective", "exact", "too_few"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("at", [0, 4, 9])
def test_scan_path_raises_for_an_antipodal_candidate_in_any_block(monkeypatch, at):
    # a budget of 180 points makes blocks of 3 candidates at m1 = m2 = 30: the
    # antipode lies in the first, second or last (one-candidate) block
    monkeypatch.setattr(twosample, "_BLOCK_POINTS", 180)
    assert [len(b[0]) for b in _candidate_blocks(np.zeros((10, 3)), S1, S2)] == [3, 3, 3, 1]
    cands = uniform_sample(np.random.default_rng(12), 10)
    cands[at] = -S2[7]
    for scan in (lambda: observation_scan(S1, S2, cands), lambda: tr2_scores(S1, S2, cands),
                 lambda: det_sign_areas(S1, S2, cands)):
        with pytest.raises(AntipodalPointError):
            scan()


def test_scan_with_some_degenerate_rows():
    # Mirroring x -> -x keeps every distance to the pole bit for bit, so at the
    # pole the paired distance differences all vanish; elsewhere they do not.
    s2 = S1 * np.array([-1.0, 1.0, 1.0])
    pole = np.array([0.0, 0.0, 1.0])
    cands = np.vstack([uniform_sample(np.random.default_rng(8), 3), pole,
                       uniform_sample(np.random.default_rng(9), 2)])
    rows = observation_scan(S1, s2, cands, criterion="uniform")
    with pytest.raises(TooFewPairsError) as exc:
        procedure_1(S1, s2, pole)
    assert [r.error for r in rows] == [None] * 3 + [str(exc.value)] + [None] * 2
    assert rows[3].error == "0 nonzero differences, need at least 5"
    assert rows[3].paired is None
    _same_outcome(rows[3].unpaired, procedure_2(S1, s2, pole))
    for row, q in zip(rows, cands):
        if row.error is None:
            _same_outcome(row.paired, procedure_1(S1, s2, q))
            _same_outcome(row.unpaired, procedure_2(S1, s2, q))
