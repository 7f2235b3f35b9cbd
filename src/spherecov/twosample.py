"""Two-sample location tests driven by covariance-operator projections.

At an observation point q, each sample point contributes the rank-1 point
operator of its log image. The difference of the two sample mean operators
is eigendecomposed, and the per-point quadratic forms (xi projections) along
its eigenvectors feed paired signed-rank tests (procedure 1) or unpaired
rank-sum tests (procedure 2). Squared geodesic distances give the baseline
T_d / W_d statistics those projections are compared against.

Rejection rule: the test along each eigenvector yields a two-sided p-value;
the null is rejected when the smaller one is below alpha/2 (union test over
the two directions with a Bonferroni-corrected threshold).

The procedures run on batches (ProjectionData with a leading axis).
observation_scan projects one sample pair at all candidate points at once,
and paired_projections projects R sample pairs, each at its own point. Each
procedure then makes one batched rank-test call per statistic over all rows
(ranktests.signed_rank_rows / rank_sum_rows); batch_procedures does both for
the replications of the `test` command. test_procedure_1/2 are the same code
on a single point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SampleSizeMismatchError
from .geometry import (
    TangentFrame, TangentVec, log_map_coords, tangent_frame, tangent_frames, unit_point, unit_points,
)
from .ranktests import RankTestBatch, RankTestResult, rank_sum_rows, signed_rank_rows
# The one-row tests, also reachable through this module.
from .ranktests import rank_sum, signed_rank  # noqa: F401

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
    """Descending eigenvalues and sign-fixed eigenvectors of symmetric 2x2s (..., 2, 2).

    Sign convention: the first coordinate of each eigenvector that is not
    (numerically) zero is made positive, so reported eigenvectors are
    reproducible across runs and platforms.
    """
    w, v = np.linalg.eigh(lhat)
    w, v = w[..., ::-1], v[..., ::-1]
    lead = np.where(np.abs(v[..., 0, :]) > 1e-15, v[..., 0, :], v[..., 1, :])
    return w, np.where((lead < 0.0)[..., None, :], -v, v)


@dataclass(frozen=True, eq=False)
class ProjectionData:
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


def _log_images(q, sample1, sample2, frame: TangentFrame | None = None):
    """Log coordinates and distances of both samples at q (see log_map_coords).

    q is one point or a batch; the samples are (m, 3), or (R, m, 3) stacks
    paired with a batch q (R, 3).
    """
    s1, s2 = unit_points(sample1), unit_points(sample2)
    u, d = log_map_coords(q, np.concatenate([s1, s2], axis=-2), frame)
    m1 = s1.shape[-2]
    return u[..., :m1, :], d[..., :m1], u[..., m1:, :], d[..., m1:]


def _operator_difference(u1, u2) -> np.ndarray:
    """Difference of the two sample mean operators, batched over leading axes."""
    return (np.swapaxes(u1, -1, -2) @ u1) / u1.shape[-2] \
        - (np.swapaxes(u2, -1, -2) @ u2) / u2.shape[-2]


def _project(lhat, u1, d1, u2, d2) -> dict:
    """Eigensystem of the operator differences and xi projections, batched over leading axes."""
    w, v = _signed_eigh(lhat)
    return dict(lhat=lhat, eigvals=w, eigvecs=v, xi1=(u1 @ v) ** 2, xi2=(u2 @ v) ** 2,
                dsq1=d1 ** 2, dsq2=d2 ** 2)


def projections_at(q, sample1, sample2, frame: TangentFrame | None = None) -> ProjectionData:
    """Eigensystem of the sample-mean-operator difference and xi projections.

    For any i and l the projections satisfy xi_{i,1} + xi_{i,2} = d_i^2, and
    the per-eigenvector means satisfy mean(xi_s^1) - mean(xi_s^2) = lambda_s
    (for equal sample sizes).
    """
    q = unit_point(q)
    if frame is None:
        frame = tangent_frame(q)
    u1, d1, u2, d2 = _log_images(q, sample1, sample2, frame)
    return ProjectionData(frame=frame, **_project(_operator_difference(u1, u2), u1, d1, u2, d2))


def paired_projections(qs, samples1, samples2) -> ProjectionData:
    """Projections of R sample pairs, the r-th pair at its own point qs[r], as a batch.

    samples1 (R, m1, 3) and samples2 (R, m2, 3) are stacks of samples; row r
    equals projections_at(qs[r], samples1[r], samples2[r]) bit for bit.
    """
    qs = unit_points(qs)
    u1, d1, u2, d2 = _log_images(qs, samples1, samples2)
    return ProjectionData(frame=None, **_project(_operator_difference(u1, u2), u1, d1, u2, d2))


@dataclass(frozen=True, eq=False)
class ProcedureOutcome:
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


def _rank_procedure(proj, paired: bool, alpha: float, min_n: int = 5) -> ProcedureBatch:
    """Rank tests of the xi projections along each eigenvector and of the
    squared distances, for every row of proj (one point or a batch): paired
    signed-rank tests or unpaired rank-sum tests."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if paired:
        def test(a, b):
            return signed_rank_rows(a - b, min_pairs=min_n)
    else:
        def test(a, b):
            return rank_sum_rows(a, b, min_size=min_n)
    return ProcedureBatch(
        kind="signed_rank" if paired else "rank_sum",
        components=tuple(test(proj.xi1[..., s], proj.xi2[..., s]) for s in range(2)),
        d_test=test(proj.dsq1, proj.dsq2),
        alpha=alpha,
    )


def test_procedure_1(sample1, sample2, q, alpha: float = 0.05,
                     frame: TangentFrame | None = None, min_pairs: int = 5) -> ProcedureOutcome:
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
    proj = projections_at(q, sample1, sample2, frame)
    return _rank_procedure(proj, True, alpha, min_pairs).outcome((), proj)


def test_procedure_2(sample1, sample2, q, alpha: float = 0.05,
                     frame: TangentFrame | None = None, min_size: int = 5) -> ProcedureOutcome:
    """Unpaired rank-sum procedure on xi projections at q.

    Same pipeline as the paired procedure with rank-sum tests per
    eigenvector; sample sizes may differ.
    """
    proj = projections_at(q, sample1, sample2, frame)
    return _rank_procedure(proj, False, alpha, min_size).outcome((), proj)


def batch_procedures(samples1, samples2, qs, alpha: float = 0.05):
    """Both procedures for R sample pairs, the r-th at qs[r], from one projection pass.

    Returns (paired, unpaired) ProcedureBatch objects, paired None when the
    sample sizes differ. Row r holds what test_procedure_1/2 return for the
    r-th pair; degenerate rows are flagged instead of raising.

    Raises:
        AntipodalPointError: a sample point is antipodal to its row's point.
    """
    proj = paired_projections(qs, samples1, samples2)
    paired = proj.xi1.shape[-2] == proj.xi2.shape[-2]
    return (_rank_procedure(proj, True, alpha) if paired else None,
            _rank_procedure(proj, False, alpha))


@dataclass(frozen=True, eq=False)
class ScanRow:
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

    The log images, operator differences and projections are computed once
    for all candidates, and each rank test runs once over all of them.
    criterion "tr2" or "det" sorts rows in decreasing order of that column
    (stable, so input order breaks ties); "uniform" keeps the input order.
    """
    if criterion not in ("tr2", "det", "uniform"):
        raise ValueError(f"unknown scan criterion: {criterion!r}")
    cands = _candidates(candidates)
    u1, d1, u2, d2 = _log_images(cands, sample1, sample2)
    lhats = _operator_difference(u1, u2)
    batch = ProjectionData(None, **_project(lhats, u1, d1, u2, d2))
    del u1, d1, u2, d2  # the rows below reuse their memory (1.5 MB less at 500 candidates)
    tr2, det = _tr2(lhats), np.linalg.det(lhats)
    kinds = (True, False) if len(sample1) == len(sample2) else (False,)
    procedures = {paired: _rank_procedure(batch, paired, alpha) for paired in kinds}
    rows = []
    for c, frame in enumerate(tangent_frames(cands)):
        proj = batch.row(c, frame)
        outcomes, errors = {}, []
        # Degenerate candidates (for instance identical samples) keep their
        # criterion columns; the affected test outcomes stay empty.
        for paired, procedure in procedures.items():
            err = procedure.error(c)
            if err is None:
                outcomes[paired] = procedure.outcome(c, proj)
            else:
                errors.append(err)
        rows.append(ScanRow(
            q=frame.base, tr2=float(tr2[c]), det=float(det[c]),
            eigvals=proj.eigvals, paired=outcomes.get(True),
            unpaired=outcomes.get(False), error="; ".join(errors) or None,
        ))
    if criterion == "uniform":
        return rows
    key = np.array([getattr(r, criterion) for r in rows])
    order = np.argsort(-key, kind="stable")
    return [rows[i] for i in order]


def _candidates(candidates) -> np.ndarray:
    cands = unit_points(candidates)
    if len(cands) == 0:
        raise ValueError("candidate list is empty")
    return cands


def _tr2(lhats) -> np.ndarray:
    tr = np.trace(lhats, axis1=-2, axis2=-1)
    return tr * tr


def tr2_scores(sample1, sample2, candidates) -> np.ndarray:
    """Squared trace of the operator difference at each candidate point.

    The same values as observation_scan's tr2 column, in input order, from
    one batched operator difference and without any rank test; a stable
    argmax picks the row observation_scan(..., criterion="tr2") ranks first.
    """
    cands = _candidates(candidates)
    u1, _, u2, _ = _log_images(cands, sample1, sample2)
    return _tr2(_operator_difference(u1, u2))


def det_sign_areas(sample1, sample2, grid) -> tuple[float, float]:
    """Fractions of grid points with det of the operator difference > 0 / <= 0.

    With a uniform grid these estimate the spherical area fractions of the
    two determinant-sign regions; the pair always sums to 1.
    """
    u1, _, u2, _ = _log_images(unit_points(grid), sample1, sample2)
    pos = float(np.mean(np.linalg.det(_operator_difference(u1, u2)) > 0.0))
    return pos, 1.0 - pos


@dataclass(frozen=True, eq=False)
class SampleProfile:
    """Per-point xi projections along directions sweeping the tangent circle."""

    base: np.ndarray
    thetas: np.ndarray   # (n_dirs,) angles in [0, 2*pi)
    values: np.ndarray   # (n_points, n_dirs), values[i, t] = <v_t, eta_i v_t>

    @property
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)


def sample_profile(q, sample, n_dirs: int = 50, frame: TangentFrame | None = None) -> SampleProfile:
    """Profile of a sample at q along n_dirs equally spaced directions.

    Direction t is v(theta_t) = cos(theta_t) e1 + sin(theta_t) e2 with
    theta_t = 2 pi t / n_dirs. Values are quadratic forms of unit
    directions, so each profile is pi-periodic.
    """
    if n_dirs < 3:
        raise ValueError("need at least 3 directions")
    q = unit_point(q)
    if frame is None:
        frame = tangent_frame(q)
    u, _ = log_map_coords(q, unit_points(sample), frame)
    thetas = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=0)  # (2, n_dirs)
    return SampleProfile(base=q, thetas=thetas, values=(u @ dirs) ** 2)


def operator_profile(op, n_dirs: int = 50) -> np.ndarray:
    """Quadratic form of a 2x2 operator along the same direction sweep."""
    thetas = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=0)
    op = np.asarray(op, dtype=float)
    return np.einsum("it,ij,jt->t", dirs, op, dirs)
