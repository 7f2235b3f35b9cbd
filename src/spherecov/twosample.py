"""Two-sample location tests driven by covariance-operator projections.

At an observation point q, each sample point contributes the rank-1 point
operator of its log image. The difference of the two sample mean operators
is eigendecomposed in closed form (spd's 2x2 kernel, with no LAPACK call),
and the per-point quadratic forms (xi projections) along its eigenvectors
feed paired signed-rank tests (procedure 1) or unpaired rank-sum tests
(procedure 2). Squared geodesic distances give the baseline
T_d / W_d statistics those projections are compared against.

Rejection rule: the test along each eigenvector yields a two-sided p-value;
the null is rejected when the smaller one is below alpha/2 (union test over
the two directions with a Bonferroni-corrected threshold).

The procedures run on batches (ProjectionData with a leading axis), and one
private block engine runs them for `test`, `scan` and observation_scan: each
block of rows, sized by a budget of sample points, makes one projection pass
and one batched rank-test call per statistic, and yields per-row columns.
paired_projections projects R sample pairs, each at its own point, and
test_procedure_1/2 are the same code on a single point.

Each function normalises the caller's q (one point or a batch) exactly once,
inside log_map_coords: tangent coordinates are in tangent_frame(q), and a
returned base point is unit_point(q), the base of that frame.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SampleSizeMismatchError, SphereCovError
from .fields import _op_sums
from .geometry import (
    TangentFrame, TangentVec, log_map_coords, tangent_frame, tangent_frames, unit_point, unit_points,
)
from .ranktests import RankTestBatch, RankTestResult, rank_sum_rows, signed_rank_rows
# The one-row tests, also reachable through this module.
from .ranktests import rank_sum, signed_rank  # noqa: F401
from .spd import _det2, _eigensystem, _sym_comps

__all__ = [
    "ProjectionData",
    "ProcedureOutcome",
    "ProcedureBatch",
    "ScanRow",
    "SampleProfile",
    "projections_at",
    "paired_projections",
    "test_procedure_1",
    "test_procedure_2",
    "batch_procedures",
    "observation_scan",
    "tr2_scores",
    "det_sign_areas",
    "sample_profile",
    "operator_profile",
]


def _signed_eigh(lhat: np.ndarray):
    """Descending eigenvalues and sign-fixed eigenvectors of symmetric 2x2s (..., 2, 2),
    from the closed-form eigensystem of their symmetric parts.

    Sign convention: the first coordinate of each eigenvector that is not
    (numerically) zero is made positive, so reported eigenvectors are
    reproducible across runs and platforms.
    """
    lam_min, lam_max, c, s = _eigensystem(_sym_comps(lhat))
    w, v = np.stack([lam_max, lam_min], -1), np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    lead = np.where(np.abs(v[..., 0, :]) > 1e-15, v[..., 0, :], v[..., 1, :])
    return w, np.where((lead < 0.0)[..., None, :], -v, v)


class ProjectionData(NamedTuple):
    """Projections of two samples at one observation point, or of a batch.

    A batch (frame None) holds R rows, one sample pair at one observation
    point each, with the batch axis first in every array.
    """

    frame: TangentFrame | None
    lhat: np.ndarray      # 2x2 difference of sample mean operators
    eigvals: np.ndarray   # descending (lambda_1 >= lambda_2)
    eigvecs: np.ndarray   # columns are the matching eigenvectors
    xi1: np.ndarray       # (m1, 2) projections of sample 1, column s along v_s
    xi2: np.ndarray       # (m2, 2)
    dsq1: np.ndarray      # (m1,) squared geodesic distances to q
    dsq2: np.ndarray      # (m2,)

    def eigvec(self, s: int) -> TangentVec:
        return TangentVec(frame=self.frame, u=self.eigvecs[:, s].copy())

    def row(self, r: int, frame: TangentFrame) -> ProjectionData:
        """Row r of a batch, at the observation point of the given frame."""
        return ProjectionData(frame, self.lhat[r], self.eigvals[r], self.eigvecs[r],
                              self.xi1[r], self.xi2[r], self.dsq1[r], self.dsq2[r])


def _log_images(q, sample1, sample2):
    """Log coordinates, distances and operator difference of both samples at q.

    q is the caller's point (3,) or batch (R, 3), normalised once, inside
    log_map_coords; the samples are (m, 3), or (R, m, 3) stacks paired with
    a batch q. Both samples are normalised once, as one concatenated stack.
    Returns (u1, d1, u2, d2, lhat), batched over leading axes.
    """
    u, d = log_map_coords(q, unit_points(np.concatenate([sample1, sample2], axis=-2)))
    m1 = np.shape(sample1)[-2]
    u1, u2 = u[..., :m1, :], u[..., m1:, :]
    lhat = _op_sums(u1) / m1 - _op_sums(u2) / u2.shape[-2]
    return u1, d[..., :m1], u2, d[..., m1:], lhat


def _projections(q, sample1, sample2) -> ProjectionData:
    """ProjectionData at one point q, in the frame tangent_frame(q), or at a batch q (frame None)."""
    u1, d1, u2, d2, lhat = _log_images(q, sample1, sample2)
    w, v = _signed_eigh(lhat)
    frame = tangent_frame(q) if np.ndim(q) == 1 else None
    return ProjectionData(frame, lhat, w, v, (u1 @ v) ** 2, (u2 @ v) ** 2, d1 ** 2, d2 ** 2)


def projections_at(q, sample1, sample2) -> ProjectionData:
    """Eigensystem of the sample-mean-operator difference and xi projections.

    q is normalised once, and every tangent coordinate is in the frame
    tangent_frame(q), which is also the returned frame.

    For any i and l the projections satisfy xi_{i,1} + xi_{i,2} = d_i^2, and
    the per-eigenvector means satisfy mean(xi_s^1) - mean(xi_s^2) = lambda_s
    (for equal sample sizes).
    """
    return _projections(q, sample1, sample2)


def paired_projections(qs, samples1, samples2) -> ProjectionData:
    """Projections of R sample pairs, the r-th pair at its own point qs[r], as a batch.

    samples1 (R, m1, 3) and samples2 (R, m2, 3) are stacks of samples; row r
    equals projections_at(qs[r], samples1[r], samples2[r]) bit for bit.
    """
    return _projections(qs, samples1, samples2)


class ProcedureOutcome(NamedTuple):
    """Result of one test procedure at one observation point."""

    kind: str                     # "signed_rank" or "rank_sum"
    stat_xi: float                # max of the two per-eigenvector statistics
    components: tuple             # RankTestResult per eigenvector
    d_test: RankTestResult        # the squared-distance baseline test
    eigvals: np.ndarray
    projections: ProjectionData
    alpha: float

    @property
    def min_p(self) -> float:
        return min(r.p_value for r in self.components)

    @property
    def reject(self) -> bool:
        return self.min_p < self.alpha / 2.0


class ProcedureBatch(NamedTuple):
    """One test procedure over the rows of a batch, as per-row arrays.

    Rows where a test had too few observations are flagged in degenerate;
    their statistics are undefined, and error() gives the message that
    test_procedure_1/2 raise for them.
    """

    kind: str                     # "signed_rank" or "rank_sum"
    components: tuple             # RankTestBatch per eigenvector
    d_test: RankTestBatch         # the squared-distance baseline tests
    alpha: float

    @property
    def stat_xi(self) -> np.ndarray:
        return np.maximum(*(c.statistic for c in self.components))

    @property
    def min_p(self) -> np.ndarray:
        return np.minimum(*(c.p_value for c in self.components))

    @property
    def reject(self) -> np.ndarray:
        return self.min_p < self.alpha / 2.0

    @property
    def tests(self) -> tuple:
        return (*self.components, self.d_test)

    @property
    def degenerate(self) -> np.ndarray:
        return np.any([t.too_few for t in self.tests], axis=0)

    def error(self, idx=()) -> str | None:
        """Message of the first test with too few observations in one row, or None."""
        return next(filter(None, (t.error(idx) for t in self.tests)), None)

    def outcome(self, idx, proj: ProjectionData) -> ProcedureOutcome:
        """One row as a ProcedureOutcome; raises TooFewPairsError for a degenerate row."""
        comps = tuple(c.result(idx) for c in self.components)
        return ProcedureOutcome(
            kind=self.kind,
            stat_xi=max(c.statistic for c in comps),
            components=comps,
            d_test=self.d_test.result(idx),
            eigvals=proj.eigvals,
            projections=proj,
            alpha=self.alpha,
        )


def _rank_procedure(proj, paired: bool, alpha: float) -> ProcedureBatch:
    """Rank tests of the xi projections along each eigenvector and of the
    squared distances, for every row of proj (one point or a batch): paired
    signed-rank tests or unpaired rank-sum tests."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    def test(a, b):
        return signed_rank_rows(a - b) if paired else rank_sum_rows(a, b)

    return ProcedureBatch(
        kind="signed_rank" if paired else "rank_sum",
        components=tuple(test(proj.xi1[..., s], proj.xi2[..., s]) for s in range(2)),
        d_test=test(proj.dsq1, proj.dsq2),
        alpha=alpha,
    )


def test_procedure_1(sample1, sample2, q, alpha: float = 0.05) -> ProcedureOutcome:
    """Paired signed-rank procedure on xi projections at q.

    Requires equal sample sizes (the i-th points form a pair). Also runs the
    signed-rank test on paired squared-distance differences for comparison.

    Raises:
        SampleSizeMismatchError: samples of different sizes.
        TooFewPairsError: all paired differences vanish (degenerate input).
    """
    if len(sample1) != len(sample2):
        raise SampleSizeMismatchError(
            f"paired procedure needs equal sizes, got {len(sample1)} and {len(sample2)}"
        )
    proj = projections_at(q, sample1, sample2)
    return _rank_procedure(proj, True, alpha).outcome((), proj)


def test_procedure_2(sample1, sample2, q, alpha: float = 0.05) -> ProcedureOutcome:
    """Unpaired rank-sum procedure on xi projections at q.

    Same pipeline as the paired procedure with rank-sum tests per
    eigenvector; sample sizes may differ.
    """
    proj = projections_at(q, sample1, sample2)
    return _rank_procedure(proj, False, alpha).outcome((), proj)


def batch_procedures(samples1, samples2, qs, alpha: float = 0.05):
    """Both procedures for R sample pairs, the r-th at qs[r], from one projection pass.

    Returns (paired, unpaired) ProcedureBatch objects, paired None when the
    sample sizes differ. Row r holds what test_procedure_1/2 return for the
    r-th pair; degenerate rows are flagged instead of raising.

    Raises:
        AntipodalPointError: a sample point is antipodal to its row's point.
    """
    return _procedures(paired_projections(qs, samples1, samples2), alpha)


def _procedures(proj: ProjectionData, alpha: float):
    """(paired, unpaired) procedures over the rows of proj; paired is None for unequal sizes."""
    paired = proj.xi1.shape[-2] == proj.xi2.shape[-2]
    return (_rank_procedure(proj, True, alpha) if paired else None,
            _rank_procedure(proj, False, alpha))


# Sample points per block of rows: the runs of `test`, or the candidates of a
# scan (`scan`, observation_scan, tr2_scores and det_sign_areas). A block is
# projected in one pass, with one rank-test call per statistic, so larger
# blocks mean fewer passes. A budget of points, not of rows, keeps the block's
# arrays the same size at every m: 128 rows at m = 50, 320 at m = 20, one row
# once m1 + m2 exceeds the budget. At m = 500 a block of 64 runs would hold
# 12 MB of arrays (tracemalloc peak of `test --m1 500 --runs 64`), this one
# 2.5 MB; `scan --m1 20 --grid 20000` in one batch held 59 MB.
_BLOCK_POINTS = 12_800


def _block_rows(m1: int, m2: int) -> int:
    """Rows per block for samples of sizes m1 and m2 (at least one)."""
    return max(1, _BLOCK_POINTS // (m1 + m2))


class _Block(NamedTuple):
    """Both procedures over one block of rows, with the per-row columns of `test` and `scan`."""

    q: np.ndarray            # the block's batch of points, as given
    proj: ProjectionData     # their projections; eigvals holds each row's lambda
    procedures: tuple        # (paired, unpaired) of _procedures
    tr2: np.ndarray          # (n,) squared trace of each operator difference
    det: np.ndarray          # (n,) its determinant
    values: np.ndarray       # (8, n) T_xi, p_xi, T_d, p_d, W_xi, pW_xi, W_d, pW_d
    blank: np.ndarray        # (8, n) set where the procedure is absent or its row degenerate
    errors: np.ndarray       # (n,) "; "-joined too-few messages of a degenerate row, else None
    counts: np.ndarray       # (2,) exact tests and all tests of the non-degenerate rows


def _row_blocks(blocks, alpha: float):
    """The block engine: both procedures over each (q, samples1, samples2) block of rows.

    q is a batch (R, 3); the samples are (R, m, 3) stacks or (m, 3) samples shared by
    every row. A block whose projection pass fails (a point antipodal to its row's q) is
    run again row by row, so the rows before the first failing one are yielded first.
    """
    for q, s1, s2 in blocks:
        try:
            proj = _projections(q, s1, s2)
        except SphereCovError:
            if len(q) == 1:
                raise
            yield from _row_blocks([(q[r:r + 1], *(s if np.ndim(s) == 2 else s[r:r + 1]
                                                   for s in (s1, s2))) for r in range(len(q))],
                                   alpha)
            raise
        procedures, n = _procedures(proj, alpha), len(q)
        tested = [(p, p.degenerate) for p in procedures if p is not None]
        errors = np.full(n, None)
        for r in np.flatnonzero(np.any([bad for _, bad in tested], axis=0)):
            errors[r] = "; ".join(filter(None, (p.error(r) for p, _ in tested)))
        counts = np.sum([(np.count_nonzero(t.exact & ~bad), np.count_nonzero(~bad))
                         for p, bad in tested for t in p.tests], axis=0)
        values = [np.zeros((4, n)) if p is None else
                  np.stack([p.stat_xi, p.min_p, p.d_test.statistic, p.d_test.p_value])
                  for p in procedures]
        blank = [np.broadcast_to(p is None or p.degenerate, (4, n)) for p in procedures]
        yield _Block(q, proj, procedures, _tr2(proj.lhat), _det2(_sym_comps(proj.lhat)),
                     np.concatenate(values), np.concatenate(blank), errors, counts)
        del s1, s2, proj  # so the block's arrays are freed before the next one is drawn


def _candidate_blocks(candidates, sample1, sample2) -> list:
    """(q, sample1, sample2) blocks of consecutive candidates, sized by the point budget."""
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    size = _block_rows(np.shape(sample1)[-2], np.shape(sample2)[-2])
    return [(candidates[i:i + size], sample1, sample2) for i in range(0, len(candidates), size)]


def _scan_order(criterion: str, tr2, det) -> np.ndarray:
    """Order of a scan's rows: by decreasing tr2 or det, stable ("uniform" keeps the input)."""
    key = {"tr2": tr2, "det": det}.get(criterion, np.zeros(len(tr2)))
    return np.argsort(-key, kind="stable")


class ScanRow(NamedTuple):
    """Criteria and test outcomes at one candidate observation point."""

    q: np.ndarray
    tr2: float
    det: float
    eigvals: np.ndarray
    paired: ProcedureOutcome | None
    unpaired: ProcedureOutcome | None
    error: str | None


def observation_scan(sample1, sample2, candidates, criterion: str = "tr2",
                     alpha: float = 0.05) -> list:
    """Evaluate both procedures at each candidate point; sort by criterion.

    The candidates are projected and ranked in blocks of the point budget.
    criterion "tr2" or "det" sorts rows in decreasing order of that column
    (stable, so input order breaks ties); "uniform" keeps the input order.
    """
    if criterion not in ("tr2", "det", "uniform"):
        raise ValueError(f"unknown scan criterion: {criterion!r}")
    blocks = _row_blocks(_candidate_blocks(candidates, sample1, sample2), alpha)
    frames, rows = tangent_frames(candidates), []
    for block in blocks:
        for r, (tr2, det, error) in enumerate(zip(block.tr2, block.det, block.errors)):
            frame = frames[len(rows)]
            proj = block.proj.row(r, frame)
            # Degenerate candidates (for instance identical samples) keep their
            # criterion columns; the affected test outcomes stay empty.
            paired, unpaired = (None if p is None or p.error(r) else p.outcome(r, proj)
                                for p in block.procedures)
            rows.append(ScanRow(q=frame.base, tr2=float(tr2), det=float(det),
                                eigvals=proj.eigvals, paired=paired, unpaired=unpaired,
                                error=error))
    tr2, det = (np.array([getattr(row, k) for row in rows]) for k in ("tr2", "det"))
    return [rows[c] for c in _scan_order(criterion, tr2, det)]


def _tr2(lhats) -> np.ndarray:
    tr = np.trace(lhats, axis1=-2, axis2=-1)
    return tr * tr


def tr2_scores(sample1, sample2, candidates) -> np.ndarray:
    """Squared trace of the operator difference at each candidate point.

    The same values as observation_scan's tr2 column, in input order, from
    the operator differences of the scan's candidate blocks and without any
    rank test; a stable argmax picks the row observation_scan(...,
    criterion="tr2") ranks first.
    """
    return np.concatenate([_tr2(_log_images(*block)[4])
                           for block in _candidate_blocks(candidates, sample1, sample2)])


def det_sign_areas(sample1, sample2, grid) -> tuple[float, float]:
    """Fractions of grid points with det of the operator difference > 0 / <= 0.

    With a uniform grid these estimate the spherical area fractions of the
    two determinant-sign regions; the pair always sums to 1. The grid is
    taken in the scan's candidate blocks.
    """
    pos = sum(int(np.count_nonzero(_det2(_sym_comps(_log_images(*block)[4])) > 0.0))
              for block in _candidate_blocks(grid, sample1, sample2)) / len(grid)
    return pos, 1.0 - pos


class SampleProfile(NamedTuple):
    """Per-point xi projections along directions sweeping the tangent circle."""

    base: np.ndarray
    thetas: np.ndarray   # (n_dirs,) angles in [0, 2*pi)
    values: np.ndarray   # (n_points, n_dirs), values[i, t] = <v_t, eta_i v_t>

    @property
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)


def sample_profile(q, sample, n_dirs: int = 50) -> SampleProfile:
    """Profile of a sample at q along n_dirs equally spaced directions.

    Direction t is v(theta_t) = cos(theta_t) e1 + sin(theta_t) e2 in the
    frame (e1, e2) = tangent_frame(q), with theta_t = 2 pi t / n_dirs.
    q is normalised once, and the base is unit_point(q). Values are
    quadratic forms of unit directions, so each profile is pi-periodic.
    """
    if n_dirs < 3:
        raise ValueError("need at least 3 directions")
    u, _ = log_map_coords(q, unit_points(sample))
    thetas, dirs = _direction_sweep(n_dirs)
    return SampleProfile(base=unit_point(q), thetas=thetas, values=(u @ dirs) ** 2)


def operator_profile(op, n_dirs: int = 50) -> np.ndarray:
    """Quadratic form of a 2x2 operator along the same direction sweep."""
    _, dirs = _direction_sweep(n_dirs)
    op = np.asarray(op, dtype=float)
    return np.einsum("it,ij,jt->t", dirs, op, dirs)


def _direction_sweep(n_dirs: int):
    """Angles theta_t = 2 pi t / n_dirs and the unit directions (2, n_dirs) at them."""
    thetas = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    return thetas, np.stack([np.cos(thetas), np.sin(thetas)], axis=0)
