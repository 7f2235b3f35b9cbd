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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SampleSizeMismatchError, TooFewPairsError
from .geometry import TangentFrame, TangentVec, log_map_coords, tangent_frame, unit_point, unit_points
from .ranktests import RankTestResult, rank_sum, signed_rank

__all__ = [
    "ProjectionData",
    "ProcedureOutcome",
    "ScanRow",
    "SampleProfile",
    "projections_at",
    "test_procedure_1",
    "test_procedure_2",
    "observation_scan",
    "tr2_scores",
    "det_sign_areas",
    "sample_profile",
    "operator_profile",
]


def _signed_eigh(lhat: np.ndarray):
    """Descending eigenvalues and sign-fixed eigenvectors of a symmetric 2x2.

    Sign convention: the first coordinate of each eigenvector that is not
    (numerically) zero is made positive, so reported eigenvectors are
    reproducible across runs and platforms.
    """
    w, v = np.linalg.eigh(lhat)
    w = w[::-1]
    v = v[:, ::-1]
    for s in range(2):
        col = v[:, s]
        lead = col[0] if abs(col[0]) > 1e-15 else col[1]
        if lead < 0.0:
            v[:, s] = -col
    return w, v


@dataclass(frozen=True, eq=False)
class ProjectionData:
    """Projections of two samples at one observation point."""

    frame: TangentFrame
    lhat: np.ndarray      # 2x2 difference of sample mean operators
    eigvals: np.ndarray   # descending (lambda_1 >= lambda_2)
    eigvecs: np.ndarray   # columns are the matching eigenvectors
    xi1: np.ndarray       # (m1, 2) projections of sample 1, column s along v_s
    xi2: np.ndarray       # (m2, 2)
    dsq1: np.ndarray      # (m1,) squared geodesic distances to q
    dsq2: np.ndarray      # (m2,)

    def eigvec(self, s: int) -> TangentVec:
        return TangentVec(frame=self.frame, u=self.eigvecs[:, s].copy())


def _log_images(q, sample1, sample2, frame: TangentFrame | None = None):
    """Log coordinates and distances of both samples at q, one point or a batch."""
    s1, s2 = unit_points(sample1), unit_points(sample2)
    u, d = log_map_coords(q, np.concatenate([s1, s2]), frame)
    m1 = len(s1)
    return u[..., :m1, :], d[..., :m1], u[..., m1:, :], d[..., m1:]


def _operator_difference(u1, u2) -> np.ndarray:
    """Difference of the two sample mean operators, batched over leading axes."""
    return (np.swapaxes(u1, -1, -2) @ u1) / u1.shape[-2] \
        - (np.swapaxes(u2, -1, -2) @ u2) / u2.shape[-2]


def _projections(frame: TangentFrame, lhat, u1, d1, u2, d2) -> ProjectionData:
    """ProjectionData from the operator difference and log images at one point."""
    w, v = _signed_eigh(lhat)
    return ProjectionData(
        frame=frame,
        lhat=lhat,
        eigvals=w,
        eigvecs=v,
        xi1=(u1 @ v) ** 2,
        xi2=(u2 @ v) ** 2,
        dsq1=d1 ** 2,
        dsq2=d2 ** 2,
    )


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
    return _projections(frame, _operator_difference(u1, u2), u1, d1, u2, d2)


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


def _rank_procedure(proj: ProjectionData, paired: bool, alpha: float,
                    min_n: int = 5) -> ProcedureOutcome:
    """Rank tests of the xi projections along each eigenvector and of the
    squared distances: paired signed-rank tests or unpaired rank-sum tests."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if paired:
        def test(a, b):
            return signed_rank(a - b, min_pairs=min_n)
    else:
        def test(a, b):
            return rank_sum(a, b, min_size=min_n)
    comps = tuple(test(proj.xi1[:, s], proj.xi2[:, s]) for s in range(2))
    return ProcedureOutcome(
        kind="signed_rank" if paired else "rank_sum",
        stat_xi=max(c.statistic for c in comps),
        components=comps,
        d_test=test(proj.dsq1, proj.dsq2),
        eigvals=proj.eigvals,
        projections=proj,
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
    return _rank_procedure(projections_at(q, sample1, sample2, frame), True, alpha, min_pairs)


def test_procedure_2(sample1, sample2, q, alpha: float = 0.05,
                     frame: TangentFrame | None = None, min_size: int = 5) -> ProcedureOutcome:
    """Unpaired rank-sum procedure on xi projections at q.

    Same pipeline as the paired procedure with rank-sum tests per
    eigenvector; sample sizes may differ.
    """
    return _rank_procedure(projections_at(q, sample1, sample2, frame), False, alpha, min_size)


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

    The log images of both samples and the operator differences are computed
    once for all candidates. criterion "tr2" or "det" sorts rows in
    decreasing order of that column (stable, so input order breaks ties);
    "uniform" keeps the input order.
    """
    if criterion not in ("tr2", "det", "uniform"):
        raise ValueError(f"unknown scan criterion: {criterion!r}")
    cands = _candidates(candidates)
    u1, d1, u2, d2 = _log_images(cands, sample1, sample2)
    lhats = _operator_difference(u1, u2)
    tr2 = _tr2(lhats)
    kinds = (True, False) if len(sample1) == len(sample2) else (False,)
    rows = []
    for c, q in enumerate(cands):
        proj = _projections(tangent_frame(q), lhats[c], u1[c], d1[c], u2[c], d2[c])
        outcomes, errors = {}, []
        # Degenerate candidates (for instance identical samples) keep their
        # criterion columns; the affected test outcomes stay empty.
        for paired in kinds:
            try:
                outcomes[paired] = _rank_procedure(proj, paired, alpha)
            except TooFewPairsError as exc:
                errors.append(str(exc))
        rows.append(ScanRow(
            q=unit_point(q), tr2=float(tr2[c]), det=float(np.linalg.det(proj.lhat)),
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
