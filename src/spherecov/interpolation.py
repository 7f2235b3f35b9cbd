"""Interpolation of discrete spherical distributions.

Given endpoint pmfs f^1..f^m on a fixed domain and mixing weights alpha, the
interpolant is the pmf minimizing

    H(f; alpha) = sum_s alpha_s sum_j h(field(f)_j, field(f^s)_j)

over the probability simplex, where field(.)_j are covariance operators at
observation points q_j and h is one of

    trdif:  squared trace difference (reduces to a linear-residual quadratic)
    trln2:  squared affine-invariant distance tr(ln^2(Y)), Y = field(f) C^-1
    lik:    tr(Y) - ln|Y| - 2

The solver takes projected Newton moves: around each iterate it models H by
its exact gradient (the chain rule through the fields, grad_H) and a
matrix, and a monotone Armijo backtracking search halves the way toward the
minimizer of that quadratic model over the simplex, full step first. The
matrix is the Hessian for trdif (constant) and lik. trln2 is a nonlinear
least squares problem in the logs of the M_j^s below: a start models it by
the Gauss-Newton matrix, and by the exact Hessian after an accepted step
that cut H by less than a fifth, where the residual is large and
Gauss-Newton converges only linearly (Fletcher & Xu, Hybrid methods for
nonlinear least squares, IMA J. Numer. Anal. 7, 1987). An exact move that
does not descend along positive curvature falls back to Gauss-Newton.
Where the model's reduced system is singular, the move is a projected
gradient step from 1 / (largest model eigenvalue) instead. k=50 solves
take a handful of iterations where gradient steps took hundreds to
thousands. trdif and lik are convex (trdif always, lik when the kernel
matrix of its weight has full rank), trln2 is not and runs multi-start.

All starts of a solve run as one (R, k) iterate through one loop, by row
kernels that evaluate every row at once and mask the rows they cannot. The
move targets of all starts come from one batched active-set pass, in which
the starts that share their free coordinates share one stacked solve.

Everything is evaluated through the symmetric matrices
M_j^s = (C_j^s)^-1/2 field(f)_j (C_j^s)^-1/2, which are similar to the
Y_j^s above, so logs and inverses stay symmetric in floating point.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    CoincidentPointError,
    IterationLimitError,
    NotPositiveDefiniteError,
)
from .fields import COINCIDENT_EPS, WEIGHT_KINDS, _op_sums, weight_value
from .geometry import _geodesics, _log_coords, rotation_about, unit_point, unit_points
from .simplex import as_pmf, project_to_simplex, random_pmfs
from .spd import DEFINITENESS_FLOOR, _eigensystem, _eigvals2, _matrix_function, _term_sum, spd_inv_sqrt

__all__ = [
    "INVARIANT_KINDS",
    "DEFAULT_WEIGHTS",
    "InterpProblem",
    "PrecomputedKernels",
    "InterpResult",
    "make_problem",
    "default_observation_points",
    "precompute",
    "eval_H",
    "grad_H",
    "hessian_H",
    "solve",
    "linear_interp",
    "sqroot_interp",
    "mse",
    "fractional_anisotropy",
    "rank_check",
    "consistency_sweep",
    "convexity_probe",
]

INVARIANT_KINDS = ("trdif", "trln2", "lik")

# trdif keeps the plain squared-distance kernel; the other two default to the
# pihalf weight, which flattens the trace profile and conditions the solve.
DEFAULT_WEIGHTS = {"trdif": "unit", "trln2": "pihalf", "lik": "pihalf"}


class InterpProblem(NamedTuple):
    domain: np.ndarray     # (k, 3)
    obs: np.ndarray        # (k_obs, 3)
    endpoints: np.ndarray  # (m, k) rows are pmfs
    alpha: np.ndarray      # (m,) simplex weights
    invariant: str
    weight: str

    @property
    def k(self) -> int:
        return len(self.domain)

    @property
    def m(self) -> int:
        return len(self.endpoints)

    def with_alpha(self, alpha) -> "InterpProblem":
        """The same problem at other mixing weights; raises DimensionMismatchError
        when alpha has not one entry per endpoint, as make_problem does."""
        return self._replace(alpha=_endpoint_weights(alpha, self.m))


def _endpoint_weights(alpha, m: int) -> np.ndarray:
    alpha = as_pmf(alpha, what="alpha")
    if len(alpha) != m:
        raise DimensionMismatchError(f"alpha length {len(alpha)} != number of endpoints {m}")
    return alpha


def default_observation_points(domain) -> np.ndarray:
    """Default observation set: the domain displaced by a fixed rotation.

    Same size as the domain but separated from it, which keeps the pihalf
    weight admissible and (generically) both kernel matrices full rank.
    """
    domain = unit_points(domain)
    rot = rotation_about(unit_point(np.array([1.0, 0.7, 0.3])), 0.35)
    return domain @ rot.T


def make_problem(domain, endpoints, alpha, invariant: str, obs=None,
                 weight: str | None = None) -> InterpProblem:
    """Validate and assemble an interpolation problem.

    Raises:
        DimensionMismatchError: inconsistent shapes.
        CoincidentPointError: pihalf weight with an observation point closer
            than 1e-8 to a domain point.
    """
    if invariant not in INVARIANT_KINDS:
        raise ValueError(f"unknown invariant: {invariant!r}")
    if weight is None:
        weight = DEFAULT_WEIGHTS[invariant]
    if weight not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight: {weight!r}")
    obs = unit_points(default_observation_points(domain) if obs is None else obs)
    domain = unit_points(domain)
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    if endpoints.shape[1] != len(domain):
        raise DimensionMismatchError(
            f"endpoint length {endpoints.shape[1]} != domain size {len(domain)}"
        )
    endpoints = np.stack([as_pmf(f, what=f"endpoint {s}") for s, f in enumerate(endpoints)])
    alpha = _endpoint_weights(alpha, len(endpoints))
    if weight == "pihalf":
        min_sep = _geodesics(obs, domain)[2].min()
        if min_sep < COINCIDENT_EPS:
            raise CoincidentPointError(
                f"observation/domain separation {min_sep:.2e} below {COINCIDENT_EPS:.0e}"
            )
    return InterpProblem(domain=domain, obs=obs, endpoints=endpoints,
                         alpha=alpha, invariant=invariant, weight=weight)


class PrecomputedKernels(NamedTuple):
    """Distance kernels and endpoint operators shared by all evaluations."""

    A: np.ndarray        # (k, k_obs), squared distances d^2(q_j, p_i)
    B: np.ndarray        # (k, k_obs), (d(q_j, p_i) - pi/2)^2
    K: np.ndarray        # the active kernel: A for unit weight, B for pihalf
    C: np.ndarray        # (m, k_obs, 2, 2) endpoint operators
    c_tr: np.ndarray     # (m, k_obs) endpoint kernel traces K' f^s
    Ut: np.ndarray | None  # (m, k_obs, k, 2) whitened sqrt-weighted log coords
    UU: np.ndarray | None = None  # (k, m, k_obs, 3) products u0 u0, u0 u1, u1 u1 of Ut


def precompute(problem: InterpProblem) -> PrecomputedKernels:
    """Build kernels; validates endpoint operators for trln2/lik.

    Raises:
        NotPositiveDefiniteError: some endpoint operator C_j^s is singular
            (the endpoint pmf is inadmissible for trln2/lik).
    """
    k_obs = len(problem.obs)
    # problem.obs and problem.domain are unit points already
    if problem.invariant == "trdif":
        dists = _geodesics(problem.obs, problem.domain)[2]  # (k_obs, k)
    else:
        u, dists = _log_coords(problem.obs, problem.domain)  # (k_obs, k, 2), (k_obs, k)
    a = dists.T ** 2
    b = (dists.T - np.pi / 2.0) ** 2
    kernel = a if problem.weight == "unit" else b
    c_tr = problem.endpoints @ kernel  # (m, k_obs)

    if problem.invariant == "trdif":
        return PrecomputedKernels(A=a, B=b, K=kernel, C=np.empty((0, k_obs, 2, 2)),
                                  c_tr=c_tr, Ut=None)

    w = weight_value(problem.weight, dists)  # (k_obs, k)
    c_ops = _op_sums(u, problem.endpoints[:, None, :] * w)  # (m, k_obs, 2, 2), as pmf_cov_field

    try:
        c_inv_sqrt = spd_inv_sqrt(c_ops)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError(
            "an endpoint operator is singular; the endpoint pmf is "
            "inadmissible for this invariant"
        ) from None
    # ut[s, j, i] = (C_j^s)^-1/2 u[j, i] as two broadcast products, the bits of
    # np.einsum("jia,sjba->sjib", u, c_inv_sqrt) in a fraction of its time
    c = c_inv_sqrt[:, :, None]  # (m, k_obs, 1, 2, 2)
    whitened = u[None, :, :, None, 0] * c[..., 0] + u[None, :, :, None, 1] * c[..., 1]
    ut = np.sqrt(w)[None, :, :, None] * whitened
    u0, u1 = ut[..., 0], ut[..., 1]
    uu = np.ascontiguousarray(np.stack([u0 * u0, u0 * u1, u1 * u1], axis=-1).transpose(2, 0, 1, 3))
    return PrecomputedKernels(A=a, B=b, K=kernel, C=c_ops, c_tr=c_tr, Ut=ut, UU=uu)


def _field_rows(F, kernels: PrecomputedKernels) -> np.ndarray:
    """Components (M00, M01, M11) of every M_j^s at each row of F: (n, m, k_obs, 3)."""
    uu = kernels.UU
    return (F @ uu.reshape(len(uu), -1)).reshape(len(F), *uu.shape[1:])


def _require_pd(ok) -> None:
    if not np.all(ok):
        raise NotPositiveDefiniteError("a covariance operator of the iterate is singular")


def _pd_rows(lam_min) -> np.ndarray:
    """Mask of the rows n of lam_min (n, m, k_obs) where every M is positive definite."""
    return (lam_min > DEFINITENESS_FLOOR).all(axis=(1, 2))


def _log_divided_difference(low, gap):
    """(ln(low + gap) - ln(low)) / gap for gap >= 0, as log1p(x) / x / low with
    x = gap / low, which keeps full accuracy as gap -> 0 and is 1 / low at 0."""
    x = gap / low
    return np.where(x != 0.0, np.log1p(x) / np.where(x != 0.0, x, 1.0), 1.0) / low


def _objective_rows(F, problem: InterpProblem, kernels: PrecomputedKernels):
    """H at each row of F (n, k) and the mask of rows where it is defined."""
    alpha = problem.alpha
    if problem.invariant == "trdif":
        # one product per row: a plain F @ K rounds each row by the size of the batch
        resid = F[:, None, :] @ kernels.K - kernels.c_tr  # (n, m, k_obs)
        return (resid ** 2).sum(axis=2) @ alpha, np.ones(len(F), dtype=bool)
    lam = _eigvals2(_field_rows(F, kernels))
    with np.errstate(divide="ignore", invalid="ignore"):
        per = _term_sum(problem.invariant, lam)
        return per.sum(axis=2) @ alpha, _pd_rows(lam[0])


def _gradient_rows(F, problem: InterpProblem, kernels: PrecomputedKernels):
    """grad_H at each row of F (n, k) and the mask of rows where it is defined.
    d tr ln^2(M) = tr(2 ln(M) M^-1 dM), d (tr M - ln|M|) = tr((I - M^-1) dM)."""
    alpha = problem.alpha
    if problem.invariant == "trdif":
        resid = F[:, None, :] @ kernels.K - kernels.c_tr
        return 2.0 * ((alpha @ resid)[:, None, :] @ kernels.K.T)[:, 0], np.ones(len(F), dtype=bool)
    phi = (lambda x: 2.0 * np.log(x) / x) if problem.invariant == "trln2" else (lambda x: 1.0 - 1.0 / x)
    d, lam_min = _matrix_function(_field_rows(F, kernels), phi)
    pd = _pd_rows(lam_min)
    d = np.where(pd[:, None, None, None], d, 0.0) * [1.0, 2.0, 1.0]  # u'Du counts D01 twice
    return np.einsum("nsjc,isjc->ni", alpha[:, None, None] * d, kernels.UU), pd


def _model_rows(F, problem: InterpProblem, kernels: PrecomputedKernels, exact=False):
    """Matrix of the quadratic model of H at each row of F (n, k), shape
    (n, k, k), and the mask of rows where it is defined.

    trdif: its constant Hessian 2 K K'. lik and trln2: sum_s alpha_s sum_j
    R diag(c) R', where R holds the components (t^2, b^2, t b) of the
    whitened u_i rotated into the eigenbasis (top, low) of M_j^s. The
    gradient is sum u_i' phi(M) u_i, and its derivative along u_l u_l'
    scales those components by divided differences of phi (Daleckii-Krein;
    Higham, Functions of Matrices, 2008, ch. 3), so c = (phi'(lam_max),
    phi'(lam_min), 2 phi[lam_min, lam_max]) is the exact Hessian. lik,
    phi = 1 - 1/x: c = (1/lam_max^2, 1/lam_min^2, 2/(lam_min lam_max)), PSD.
    trln2, phi = 2 ln(x) / x, takes the exact c = (phi'(lam_max),
    phi'(lam_min), 4 (lam_min D - ln lam_min) / (lam_min lam_max)),
    phi'(x) = 2 (1 - ln x) / x^2, on the rows where exact (a mask over F,
    or one bool) is true; D = _log_divided_difference keeps it exact and
    uncancelled at lam_min = lam_max. Its other rows take the Gauss-Newton
    c = (2/lam_max^2, 2/lam_min^2, 4 D^2), PSD: the 2 sum <L_i, L_l> of the
    least-squares form sum ||ln M||_F^2, L_i the Frechet derivative of ln
    at M applied to u_i u_i'.
    """
    if problem.invariant == "trdif":
        hess = 2.0 * kernels.K @ kernels.K.T
        return np.broadcast_to(hess, (len(F), *hess.shape)), np.ones(len(F), dtype=bool)
    lam_min, lam_max, c, s = _eigensystem(_field_rows(F, kernels))
    pd = _pd_rows(lam_min)
    with np.errstate(divide="ignore", invalid="ignore"):
        if problem.invariant == "lik":
            coef = [1.0 / lam_max ** 2, 1.0 / lam_min ** 2, 2.0 / (lam_min * lam_max)]
        else:
            dd = _log_divided_difference(lam_min, lam_max - lam_min)
            coef = [2.0 / lam_max ** 2, 2.0 / lam_min ** 2, 4.0 * dd * dd]
            if np.any(exact):
                ln_min, sel = np.log(lam_min), np.asarray(exact)[..., None, None]
                coef = np.where(sel, [2.0 * (1.0 - np.log(lam_max)) / lam_max ** 2,
                                      2.0 * (1.0 - ln_min) / lam_min ** 2,
                                      4.0 * (lam_min * dd - ln_min) / (lam_min * lam_max)], coef)
    coef = np.stack(coef, -1) * problem.alpha[:, None, None]  # (n, m, k_obs, 3)
    c, s = c[..., None], s[..., None]  # against Ut's k
    u0, u1 = kernels.Ut[..., 0], kernels.Ut[..., 1]  # (m, k_obs, k)
    w_top, w_low = c * u0 + s * u1, c * u1 - s * u0  # (n, m, k_obs, k)
    rows = np.moveaxis(np.stack([w_top * w_top, w_low * w_low, w_top * w_low], -1), 3, 1)
    rows = rows.reshape(*F.shape, coef[0].size)
    return (rows * coef.reshape(len(F), 1, -1)) @ rows.transpose(0, 2, 1), pd


def _one_row(rows, f, problem, kernels, *args):
    """Row 0 of rows(F, problem, kernels, *args) at the one row F = [f],
    precomputing the kernels on demand; raises NotPositiveDefiniteError where
    the row is not defined."""
    if kernels is None:
        kernels = precompute(problem)
    value, ok = rows(np.asarray(f, dtype=float)[None], problem, kernels, *args)
    _require_pd(ok)
    return value[0]


def eval_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> float:
    """Objective value at f (f is not required to lie on the simplex).

    Raises:
        NotPositiveDefiniteError: trln2/lik with a singular operator at f.
    """
    return float(_one_row(_objective_rows, f, problem, kernels))


def grad_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> np.ndarray:
    """Euclidean gradient of eval_H at f, by the chain rule through the
    operator fields (the one checked against finite differences and used by
    the solver).

    Raises:
        NotPositiveDefiniteError: trln2/lik with a singular operator at f.
    """
    return _one_row(_gradient_rows, f, problem, kernels)


def hessian_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> np.ndarray:
    """Exact Hessian of eval_H at f, the exact model matrix of _model_rows
    for every invariant. trdif: the constant 2 sum_j K_.j K_.j' (f may be
    None). lik: positive semidefinite. trln2: indefinite in general.

    Raises:
        NotPositiveDefiniteError: trln2/lik with a singular operator at f.
    """
    return _one_row(_model_rows, f, problem, kernels, True)


# lower_bound: cut once another start converged at H's lower bound 0
STOP_REASONS = ("pg_tol", "step_tol", "line_search", "max_iter", "singular_start", "lower_bound")


class InterpResult(NamedTuple):
    f_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    restart_objectives: tuple  # per start not dropped, the objective it stopped at
    trace: list | None  # rows (iteration, objective, step, grad_norm)
    stop_reasons: tuple = ()   # one of STOP_REASONS per start, in start order
    loop_trips: int = 0        # trips of the batched solver loop
    objective_rounds: int = 0  # objective calls: one for the starts, one per halving tested
    searched_trips: int = 0    # loop trips that ran a line search


_ARMIJO_C = 1e-4
# a trln2 start models H by its exact Hessian after an accepted step that cut
# H by less than this share: Gauss-Newton converges only linearly there
_SLOW_CUT = 0.2
_MAX_HALVINGS = 50
_ROUNDING_FACTOR = 4.0


def _solve_stack(kkt, rhs):
    """np.linalg.solve over a stack of systems, and the mask of the ones that
    are not singular; a singular one leaves its stack to be solved row by row."""
    try:
        return np.linalg.solve(kkt, rhs), np.ones(len(kkt), dtype=bool)
    except np.linalg.LinAlgError:
        sol, ok = np.zeros_like(rhs), np.ones(len(kkt), dtype=bool)
        for r in range(len(kkt)):
            try:
                sol[r] = np.linalg.solve(kkt[r], rhs[r])
            except np.linalg.LinAlgError:
                ok[r] = False
        return sol, ok


def _newton_targets(F, G, hess):
    """Minimizers over the simplex of the quadratic models of H around the
    rows of F (n, k), with gradients G and model matrices hess (n, k, k).
    For an indefinite hess (trln2's exact Hessian) a settled target is only a
    constrained stationary point of the model, which the caller checks.

    Primal active-set method on g.(z - f) + (z - f).hess.(z - f) / 2 per row,
    started from the feasible z = f with its zero coordinates held at the
    bound. Each pass solves the equality-constrained model on the free
    coordinates; a negative coordinate blocks the move toward that solution
    and is bound, and a bound coordinate whose multiplier is negative beyond
    rounding is freed. The rows of a pass that share their free coordinates
    share one stacked solve. A row leaves when it settles, when its reduced system is singular, or
    after 2k + 2 passes. Returns the targets and the mask of settled rows;
    the caller takes a gradient step on the others, whose targets are f.
    """
    # Stacked @ and np.linalg.solve give each row the bits of its one-row
    # product and solve (einsum does not), so every target is the one a
    # row-by-row pass finds.
    n, k = F.shape
    C = G - (hess @ F[:, :, None])[:, :, 0]  # the model's gradient at z is c + hess z
    slack = 64.0 * np.finfo(float).eps * (np.abs(C).max(axis=1) + np.abs(hess).max(axis=(1, 2)))
    Z, targets, free = F.copy(), F.copy(), F > 0.0
    settled = np.zeros(n, dtype=bool)
    active = list(range(n))
    for _ in range(2 * k + 2):
        groups = {}
        for r in active:
            groups.setdefault(free[r].tobytes(), []).append(r)
        active = []
        for rows in groups.values():
            rows = np.array(rows)
            idx = np.flatnonzero(free[rows[0]])
            m = len(idx)
            kkt = np.ones((len(rows), m + 1, m + 1))
            kkt[:, :m, :m] = hess[rows[:, None, None], idx[:, None], idx]
            kkt[:, m, m] = 0.0
            rhs = np.ones((len(rows), m + 1, 1))
            rhs[:, :m, 0] = -C[rows[:, None], idx]
            sol, ok = _solve_stack(kkt, rhs)
            rows, sol = rows[ok], sol[ok, :, 0]
            target = sol[:, :m]
            neg = target < 0.0
            blocked = neg.any(axis=1)
            if blocked.any():
                # move toward the target until the first coordinate reaches 0
                b, tb, nb = rows[blocked], target[blocked], neg[blocked]
                zf = Z[b[:, None], idx]
                ratios = np.full(nb.shape, np.inf)
                ratios[nb] = zf[nb] / (zf[nb] - tb[nb])
                first = ratios.argmin(axis=1)
                Z[b[:, None], idx] = zf + ratios[np.arange(len(b)), first, None] * (tb - zf)
                Z[b, idx[first]] = 0.0
                free[b, idx[first]] = False
                active.extend(b.tolist())
                rows, sol, target = rows[~blocked], sol[~blocked], target[~blocked]
            if not len(rows):
                continue
            z = np.zeros((len(rows), k))
            z[:, idx] = target
            Z[rows] = z
            # bound multipliers, >= 0 at the minimizer
            mult = C[rows] + (hess[rows] @ z[:, :, None])[:, :, 0] + sol[:, m, None]
            mult[:, idx] = np.inf
            worst = mult.argmin(axis=1)
            done = mult[np.arange(len(rows)), worst] >= -slack[rows]
            targets[rows[done]], settled[rows[done]] = z[done], True
            free[rows[~done], worst[~done]] = True
            active.extend(rows[~done].tolist())
        if not active:
            break
    return targets, settled


def _armijo_search(evaluate, trial, f, g, obj, first):
    """Monotone Armijo search of every row of f (n, k): row r takes the first
    step first_r / 2^h, h = 0.._MAX_HALVINGS, whose trial(rows, etas) point is
    defined and decreases H by at least _ARMIJO_C g.(f - trial). One
    evaluate(points) -> (H, defined) call per halving tests every row still
    searching; a lone trial point goes in as a two-row batch, since numpy
    takes one row's product as a dot, which rounds otherwise than a row of a
    batch. Returns (accepted, step, point, H, calls)."""
    found, eta, f_new, obj_new = np.zeros(len(f), dtype=bool), np.zeros(len(f)), f.copy(), obj.copy()
    rows = np.arange(len(f))
    for h in range(_MAX_HALVINGS + 1):
        etas = first[rows] * 0.5 ** h
        x = trial(rows, etas)
        vals, ok = (a[:len(x)] for a in evaluate(np.repeat(x, 2, axis=0) if len(x) == 1 else x))
        passed = ok & (vals <= obj[rows] - _ARMIJO_C * np.einsum("pk,pk->p", g[rows], f[rows] - x))
        done = rows[passed]
        found[done], eta[done], f_new[done], obj_new[done] = True, etas[passed], x[passed], vals[passed]
        rows = rows[~passed]
        if not len(rows):
            break
    return found, eta, f_new, obj_new, h + 1


# per start: last accepted iterate and objective, iterations, converged (for
# a start cut at the lower bound: whether its own objective is within it), an
# entry of STOP_REASONS and the trace; per batch: loop trips, the trips that
# ran a line search, and objective calls (one for the starts, one per halving)
_Descent = namedtuple("_Descent", "f obj iterations converged reasons traces trips searched rounds")


def _descend(problem, kernels, starts, max_iter, tol, record_trace) -> _Descent:
    """Run every start (row of starts) by the rules of solve in one loop; a row
    leaves it when it stops, or is dropped when it meets a singular operator."""
    f = project_to_simplex(np.asarray(starts, dtype=float))
    obj, live = _objective_rows(f, problem, kernels)
    g, _ = _gradient_rows(f, problem, kernels)  # defined where obj is
    iterations, converged = np.full(len(f), max_iter), np.zeros(len(f), dtype=bool)
    reasons = np.where(live, "max_iter", "singular_start")
    traces = [[] for _ in f] if record_trace else None
    rounds, trips, searched = 1, 0, 0
    exact = np.zeros(len(f), dtype=bool)
    floor = _ROUNDING_FACTOR * np.finfo(float).eps  # the rounding level of H at 0

    def stop(rows, reason, conv, its):
        reasons[rows], converged[rows], iterations[rows] = reason, conv, its

    act = np.flatnonzero(live)
    for it in range(1, max_iter + 1):
        if not len(act):
            break
        trips += 1
        fa, ga, oa = f[act], g[act], obj[act]
        pg = np.abs(fa - project_to_simplex(fa - ga)).max(axis=1)
        stop(act[pg < tol], "pg_tol", True, it - 1)
        keep = pg >= tol
        act, fa, ga, oa, pg = act[keep], fa[keep], ga[keep], oa[keep], pg[keep]
        if not len(act):
            break
        if np.any(converged & (obj <= floor)):  # a converged start sits at H's lower bound 0
            stop(act, "lower_bound", obj[act] <= floor, it - 1)
            break
        searched += 1
        # the Newton move, full step first; an exact-Hessian move that does
        # not settle or descend along positive curvature is redone with the
        # Gauss-Newton model; where the model's reduced system is singular,
        # a gradient step from 1 / (largest model eigenvalue)
        ex = exact[act]
        hess = _model_rows(fa, problem, kernels, ex)[0]
        targets, toward = _newton_targets(fa, ga, hess)
        if ex.any():
            d = targets - fa
            curv = np.einsum("pk,pk->p", d, (hess @ d[:, :, None])[:, :, 0])
            redo = ex & ~(toward & (np.einsum("pk,pk->p", ga, d) < 0.0) & (curv > 0.0))
            if redo.any():
                hess[redo] = _model_rows(fa[redo], problem, kernels)[0]
                targets[redo], toward[redo] = _newton_targets(fa[redo], ga[redo], hess[redo])
        move, first = targets - fa, np.ones(len(act))
        if not toward.all():
            top = np.linalg.eigvalsh(hess[~toward])[:, -1]
            first[~toward] = np.divide(1.0, top, out=first[~toward], where=top > 0.0)

        def trial(rows, etas):
            x = fa[rows] + etas[:, None] * move[rows]
            grad = ~toward[rows]
            if grad.any():
                x[grad] = project_to_simplex(fa[rows[grad]] - etas[grad, None] * ga[rows[grad]])
            return x

        found, eta, f_new, obj_new, used = _armijo_search(
            lambda x: _objective_rows(x, problem, kernels), trial, fa, ga, oa, first)
        rounds += used
        if not found.all():
            # No step decreased H: stationary if the decrease the first trial
            # step predicts is below the rounding level of H, stalled if not.
            lost = np.flatnonzero(~found)
            predicted = np.einsum("pk,pk->p", ga[lost], fa[lost] - trial(lost, first[lost]))
            level = floor * np.maximum(1.0, np.abs(oa[lost]))
            stop(act[lost], "line_search", predicted <= level, it)
        acc = np.flatnonzero(found)
        if record_trace:
            for r in acc:
                traces[act[r]].append((it, float(obj_new[r]), float(eta[r]), float(pg[r])))
        f[act[acc]], obj[act[acc]] = f_new[acc], obj_new[acc]
        exact[act[acc]] = (problem.invariant == "trln2") & (oa[acc] - obj_new[acc] < _SLOW_CUT * oa[acc])
        tiny = np.abs(f_new[acc] - fa[acc]).max(axis=1) < tol
        stop(act[acc[tiny]], "step_tol", True, it)
        acc = acc[~tiny]
        g_new, ok = _gradient_rows(f_new[acc], problem, kernels)
        stop(act[acc[~ok]], "singular_start", False, it)
        act = act[acc[ok]]
        g[act] = g_new[ok]
    return _Descent(f, obj, iterations, converged, reasons, traces, trips, searched, rounds)


def _starts(problem, restarts, rng):
    linear = linear_interp(problem.alpha, problem.endpoints)
    try:
        root = sqroot_interp(problem.alpha, problem.endpoints)
    except IterationLimitError:
        root = linear
    named = [linear, root, np.full(problem.k, 1.0 / problem.k)]
    starts = named[:restarts]
    if restarts > len(named):
        starts.extend(random_pmfs(rng, problem.k, restarts - len(named)))
    return starts


def solve(problem: InterpProblem, kernels: PrecomputedKernels | None = None, *,
          max_iter: int = 500, tol: float = 1e-9, restarts: int | None = None,
          seed: int = 0, record_trace: bool = False,
          f0=None) -> InterpResult:
    """Minimize the objective over the simplex by projected Newton moves.

    Each iteration moves toward the minimizer over the simplex of a local
    quadratic model of H: the gradient with the Hessian (trdif, lik) or, for
    trln2, the Gauss-Newton matrix, and the exact Hessian after an accepted
    step that cut H by less than a fifth (_SLOW_CUT). An exact move that
    does not settle or is not a descent direction along positive curvature
    is replaced by the Gauss-Newton move. An Armijo search halves the move,
    full step first, until H decreases enough. Where the model's reduced
    system is singular, the move is a projected gradient step from
    1 / (largest model eigenvalue) instead. Stops when the iterate change
    or the unit-step projected gradient drops below tol, or when the line search finds no
    decrease; the latter counts as converged only if the decrease it
    predicted is below the rounding level of H. H >= 0, so once a start has
    converged within 4 eps of 0, every start still running stops where it is
    (lower_bound; converged if its own H is that low). An exhausted
    iteration budget is reported through converged=False (the best iterate
    is still returned). Multi-start
    (default 8 for trln2: linear, square-root and uniform starts plus
    seeded Dirichlet draws; 1 otherwise) merges by best objective with
    start-index tie-breaking. An explicit f0 (a warm start) is prepended
    to the start list. All starts run as one batch, and one batched
    active-set pass finds the move targets of all of them; a start that
    meets a singular operator at its first point or at an accepted one is
    dropped.

    Raises:
        ValueError: restarts below 1, max_iter below 0, or a tol that is
            negative or not finite (no stop test could pass).
        NotPositiveDefiniteError: every start meets a singular operator.
    """
    if kernels is None:
        kernels = precompute(problem)
    if restarts is None:
        restarts = 8 if problem.invariant == "trln2" else 1
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_iter < 0:
        raise ValueError("max_iter must be at least 0")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be finite and at least 0")
    rng = np.random.default_rng(seed)
    starts = _starts(problem, restarts, rng)
    if f0 is not None:
        starts.insert(0, f0)
    run = _descend(problem, kernels, starts, max_iter, tol, record_trace)
    kept = np.flatnonzero(run.reasons != "singular_start")
    if not len(kept):
        raise NotPositiveDefiniteError("every start produced a singular operator")
    best = kept[int(np.argmin(run.obj[kept]))]
    return InterpResult(
        f_hat=run.f[best], objective=float(run.obj[best]),
        iterations=int(run.iterations[best]), converged=bool(run.converged[best]),
        restarts_used=len(starts), restart_objectives=tuple(map(float, run.obj[kept])),
        trace=run.traces[best] if record_trace else None, stop_reasons=tuple(run.reasons.tolist()),
        loop_trips=run.trips, objective_rounds=run.rounds, searched_trips=run.searched,
    )


def linear_interp(alpha, endpoints) -> np.ndarray:
    """Convex combination sum_s alpha_s f^s."""
    alpha = as_pmf(alpha, what="alpha")
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    if len(alpha) != len(endpoints):
        raise DimensionMismatchError("alpha and endpoint counts differ")
    return alpha @ endpoints


def sqroot_interp(alpha, endpoints, tol: float = 1e-12, max_iter: int = 1000) -> np.ndarray:
    """Square-root interpolation: intrinsic mean of sqrt(f^s) on the sphere.

    The sqrt(f^s) are unit vectors in the nonnegative orthant of S^(k-1);
    their weighted intrinsic mean (general-dimension log/exp fixed point)
    is squared coordinatewise to give a pmf.

    Raises:
        IterationLimitError: fixed point not reached within max_iter.
    """
    alpha = as_pmf(alpha, what="alpha")
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    roots = np.sqrt(endpoints)  # rows are unit vectors since rows sum to 1
    p = roots.T @ alpha
    p = p / np.linalg.norm(p)
    for _ in range(max_iter):
        cos = np.clip(roots @ p, -1.0, 1.0)
        theta = np.arccos(cos)
        # theta/sin(theta) -> 1 at coincidence
        scale = np.where(theta > 1e-15, theta / np.where(theta > 1e-15, np.sin(theta), 1.0), 1.0)
        logs = scale[:, None] * (roots - cos[:, None] * p[None, :])
        v = logs.T @ alpha
        t = np.linalg.norm(v)
        if t < tol:
            return p ** 2
        p = np.cos(t) * p + np.sin(t) * (v / t)
        p = p / np.linalg.norm(p)
    raise IterationLimitError(
        f"square-root mean did not reach tolerance {tol:g} in {max_iter} iterations"
    )


def mse(f_hat, endpoints, alpha) -> float:
    """Alpha-weighted mean squared error sum_s alpha_s |f_hat - f^s|^2."""
    f_hat = np.asarray(f_hat, dtype=float)
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    alpha = as_pmf(alpha, what="alpha")
    return float(alpha @ ((endpoints - f_hat[None, :]) ** 2).sum(axis=1))


def fractional_anisotropy(f, domain) -> float:
    """Eigenvalue dispersion of the ambient second moment sum_i f_i p_i p_i'.

    0 for an isotropic moment, 1 for a point mass; invariant under joint
    rotation of the domain. From invariants, without the eigenvalues:
    sum lam^2 = |M|_F^2 and sum (lam - mean)^2 = |M - mean I|_F^2 with
    mean = tr(M) / 3, which does not cancel near isotropy as
    |M|_F^2 - tr(M)^2 / 3 would.
    """
    f = np.asarray(f, dtype=float)
    domain = unit_points(domain)
    moment = np.einsum("i,ia,ib->ab", f, domain, domain)
    total = float(np.sum(moment * moment))
    if total == 0.0:
        return 0.0
    spread = moment - np.trace(moment) / 3.0 * np.eye(3)
    return float(min(np.sqrt(1.5 * float(np.sum(spread * spread)) / total), 1.0))  # in [0, 1]


def _numerical_rank(mat, k: int) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > k * sv[0] * 1e-12))


def rank_check(problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> dict:
    """Numerical ranks of the kernel matrices and problem admissibility.

    admissible means the kernel matrix of the problem's weight, the one
    precompute and the solver use (A for unit, B for pihalf), has full rank k.
    """
    if kernels is None:
        kernels = precompute(problem)
    k = problem.k
    rank_a = _numerical_rank(kernels.A, k)
    rank_b = _numerical_rank(kernels.B, k)
    needed = rank_a if problem.weight == "unit" else rank_b
    return {"rank_A": rank_a, "rank_B": rank_b, "admissible": needed == k}


def consistency_sweep(problem: InterpProblem, alpha_path, kernels=None, **solve_kw):
    """Solve along a path of alpha vectors, warm-starting from the previous.

    Returns (results, f_steps, objective_steps): the per-alpha results and
    the step-to-step change diagnostics max|f(t+1) - f(t)| and
    |H(t+1) - H(t)|.
    """
    if kernels is None:
        kernels = precompute(problem)
    results = []
    prev_f = None
    for alpha in alpha_path:
        sub = problem.with_alpha(alpha)
        res = solve(sub, kernels, f0=prev_f, **solve_kw)
        results.append(res)
        prev_f = res.f_hat
    f_steps = [
        float(np.max(np.abs(b.f_hat - a.f_hat)))
        for a, b in zip(results, results[1:])
    ]
    obj_steps = [abs(b.objective - a.objective) for a, b in zip(results, results[1:])]
    return results, f_steps, obj_steps


def _simplex_tangent_basis(k: int) -> np.ndarray:
    """Orthonormal (k, k-1) basis of the hyperplane sum x = 0: the QR of the
    differences e_i - e_(i+1), which span it."""
    return np.linalg.qr(np.eye(k, k - 1) - np.eye(k, k - 1, -1))[0]


def convexity_probe(problem: InterpProblem, n_points: int = 100,
                    rng: np.random.Generator | None = None,
                    kernels: PrecomputedKernels | None = None) -> dict:
    """Minimum Hessian eigenvalue over random interior simplex points.

    Every invariant takes its exact Hessian (hessian_H, for trln2 the exact
    and not the Gauss-Newton model of _model_rows) at n_points draws from
    rng, projected onto the simplex tangent plane: the curvature of H along
    the simplex, where a full-space eigenvalue could only under-certify.
    The certificate is true when every sampled eigenvalue stays above -1e-8.
    """
    if kernels is None:
        kernels = precompute(problem)
    if rng is None:
        rng = np.random.default_rng(0)
    hess, ok = _model_rows(random_pmfs(rng, problem.k, n_points), problem, kernels, exact=True)
    _require_pd(ok)
    basis = _simplex_tangent_basis(problem.k)
    min_eig = float(np.linalg.eigvalsh(basis.T @ hess @ basis).min())
    return {"min_hessian_eig": min_eig, "convex_certificate": min_eig >= -1e-8}
