"""Interpolation of discrete spherical distributions.

Given endpoint pmfs f^1..f^m on a fixed domain and mixing weights alpha, the
interpolant is the pmf minimizing

    H(f; alpha) = sum_s alpha_s sum_j h(field(f)_j, field(f^s)_j)

over the probability simplex, where field(.)_j are covariance operators at
observation points q_j and h is one of

    trdif:  squared trace difference (reduces to a linear-residual quadratic)
    trln2:  squared affine-invariant distance tr(ln^2(Y)), Y = field(f) C^-1
    lik:    tr(Y) - ln|Y| - 2

The solver is projected gradient descent on the exact gradient of H (the
chain rule through the fields, grad_H) with a monotone Armijo backtracking
line search. Each search starts from the Barzilai-Borwein step
s.s / s.y of the last accepted move (s the change of the iterate, y the
change of the gradient; Barzilai & Borwein 1988, Birgin, Martinez & Raydan
2000), clamped to [1e-10, 1e10]. The first search, and any search after a
move with s.y <= 0, starts from 1 / (curvature estimate) instead. For lik,
whose Hessian is analytic, the move is a projected Newton step instead: the
search halves the way toward the minimizer over the simplex of the
quadratic model of H, so k=50 solves take a handful of iterations where
gradient steps took hundreds to thousands. trdif and lik are convex (trdif
always, lik when the pihalf kernel matrix B has full rank), trln2 is not
and runs multi-start.

All starts of a solve run as one (R, k) iterate through one loop, by row
kernels that evaluate every row at once and mask the rows they cannot.

Everything is evaluated through the symmetric matrices
M_j^s = (C_j^s)^-1/2 field(f)_j (C_j^s)^-1/2, which are similar to the
Y_j^s above, so logs and inverses stay symmetric in floating point.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    CoincidentPointError,
    IterationLimitError,
    NotPositiveDefiniteError,
)
from .fields import point_operators, weight_value
from .geometry import geodesic_distances, log_map_coords, rotation_about, unit_point, unit_points
from .simplex import as_pmf, project_to_simplex, random_pmfs
from .spd import DEFINITENESS_FLOOR

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

MIN_SEPARATION = 1e-8


@dataclass(frozen=True, eq=False)
class InterpProblem:
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
        return InterpProblem(
            domain=self.domain, obs=self.obs, endpoints=self.endpoints,
            alpha=as_pmf(alpha, what="alpha"), invariant=self.invariant,
            weight=self.weight,
        )


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
    if weight not in ("unit", "pihalf"):
        raise ValueError(f"unknown weight: {weight!r}")
    domain = unit_points(domain)
    obs = default_observation_points(domain) if obs is None else unit_points(obs)
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    if endpoints.shape[1] != len(domain):
        raise DimensionMismatchError(
            f"endpoint length {endpoints.shape[1]} != domain size {len(domain)}"
        )
    endpoints = np.stack([as_pmf(f, what=f"endpoint {s}") for s, f in enumerate(endpoints)])
    alpha = as_pmf(alpha, what="alpha")
    if len(alpha) != len(endpoints):
        raise DimensionMismatchError(
            f"alpha length {len(alpha)} != number of endpoints {len(endpoints)}"
        )
    if weight == "pihalf":
        min_sep = geodesic_distances(obs, domain).min()
        if min_sep < MIN_SEPARATION:
            raise CoincidentPointError(
                f"observation/domain separation {min_sep:.2e} below {MIN_SEPARATION:.0e}"
            )
    return InterpProblem(domain=domain, obs=obs, endpoints=endpoints,
                         alpha=alpha, invariant=invariant, weight=weight)


@dataclass(frozen=True, eq=False)
class PrecomputedKernels:
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
    dists = geodesic_distances(problem.obs, problem.domain).T  # (k, k_obs)
    a = dists ** 2
    b = (dists - np.pi / 2.0) ** 2
    kernel = a if problem.weight == "unit" else b
    c_tr = problem.endpoints @ kernel  # (m, k_obs)

    if problem.invariant == "trdif":
        return PrecomputedKernels(A=a, B=b, K=kernel, C=np.empty((0, k_obs, 2, 2)),
                                  c_tr=c_tr, Ut=None)

    w = weight_value(problem.weight, dists.T)  # (k_obs, k)
    u, _ = log_map_coords(problem.obs, problem.domain)  # (k_obs, k, 2)
    raw = np.einsum("ji,jia,jib->jiab", w, u, u)  # (k_obs, k, 2, 2)
    c_ops = np.einsum("si,jiab->sjab", problem.endpoints, raw)  # (m, k_obs, 2, 2)

    lam, vec = np.linalg.eigh(c_ops)
    if lam.min() <= DEFINITENESS_FLOOR:
        raise NotPositiveDefiniteError(
            "an endpoint operator is singular; the endpoint pmf is "
            "inadmissible for this invariant"
        )
    c_inv_sqrt = np.einsum("sjab,sjb,sjcb->sjac", vec, 1.0 / np.sqrt(lam), vec)
    ut = np.sqrt(w)[None, :, :, None] * np.einsum("jia,sjba->sjib", u, c_inv_sqrt)
    u0, u1 = ut[..., 0], ut[..., 1]
    uu = np.ascontiguousarray(np.stack([u0 * u0, u0 * u1, u1 * u1], axis=-1).transpose(2, 0, 1, 3))
    return PrecomputedKernels(A=a, B=b, K=kernel, C=c_ops, c_tr=c_tr, Ut=ut, UU=uu)


def _field_rows(F, kernels: PrecomputedKernels) -> np.ndarray:
    """Components (M00, M01, M11) of every M_j^s at each row of F: (n, m, k_obs, 3)."""
    uu = kernels.UU
    return (F @ uu.reshape(len(uu), -1)).reshape(len(F), *uu.shape[1:])


def _eigvals2(comps):
    """Closed-form eigenvalues (lam_min, lam_max) of symmetric 2x2 matrices
    given by their components (a, b, d) on the last axis.

    lam_max = mean + hypot((a - d)/2, b) and lam_min = det / lam_max are both
    accurate to rounding in lam_max, however ill-conditioned the matrix. A
    zero lam_max gives a NaN lam_min, which no positivity test passes.
    """
    a, b, d = comps[..., 0], comps[..., 1], comps[..., 2]
    lam_max = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (a * d - b * b) / lam_max, lam_max


def _require_pd(ok) -> None:
    if not np.all(ok):
        raise NotPositiveDefiniteError("a covariance operator of the iterate is singular")


def _matrix_function(comps, phi):
    """Components of phi(M) for the (n, m, k_obs) matrices M given by comps, zero
    on rows where some M is not positive definite, and the mask of the other
    rows. The top eigenvector lies at angle atan2(2 M01, M00 - M11) / 2."""
    lam_min, lam_max = _eigvals2(comps)
    theta = 0.5 * np.arctan2(comps[..., 1], 0.5 * (comps[..., 0] - comps[..., 2]))
    c, s = np.cos(theta), np.sin(theta)
    pd = (lam_min > DEFINITENESS_FLOOR).all(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        top, low = phi(lam_max), phi(lam_min)
        out = np.stack([top * c * c + low * s * s, (top - low) * c * s, top * s * s + low * c * c], -1)
    return np.where(pd[:, None, None, None], out, 0.0), pd


def _objective_rows(F, problem: InterpProblem, kernels: PrecomputedKernels):
    """H at each row of F (n, k) and the mask of rows where it is defined."""
    alpha = problem.alpha
    if problem.invariant == "trdif":
        resid = (F @ kernels.K)[:, None, :] - kernels.c_tr  # (n, m, k_obs)
        return (resid ** 2).sum(axis=2) @ alpha, np.ones(len(F), dtype=bool)
    lam = _eigvals2(_field_rows(F, kernels))
    h = (lambda x: np.log(x) ** 2) if problem.invariant == "trln2" else (lambda x: x - np.log(x) - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        per = h(lam[0]) + h(lam[1])
        return per.sum(axis=2) @ alpha, (lam[0] > DEFINITENESS_FLOOR).all(axis=(1, 2))


def _gradient_rows(F, problem: InterpProblem, kernels: PrecomputedKernels):
    """grad_H at each row of F (n, k) and the mask of rows where it is defined.
    d tr ln^2(M) = tr(2 ln(M) M^-1 dM), d (tr M - ln|M|) = tr((I - M^-1) dM)."""
    alpha = problem.alpha
    if problem.invariant == "trdif":
        resid = (F @ kernels.K)[:, None, :] - kernels.c_tr
        return 2.0 * (alpha @ resid) @ kernels.K.T, np.ones(len(F), dtype=bool)
    phi = (lambda x: 2.0 * np.log(x) / x) if problem.invariant == "trln2" else (lambda x: 1.0 - 1.0 / x)
    d, pd = _matrix_function(_field_rows(F, kernels), phi)
    d = d * [1.0, 2.0, 1.0]  # u'Du counts D01 twice
    return np.einsum("nsjc,isjc->ni", alpha[:, None, None] * d, kernels.UU), pd


def _hessian_rows(F, alpha, kernels: PrecomputedKernels):
    """lik Hessian at each row of F (n, k), shape (n, k, k), and the mask of
    rows where it is defined: Gram matrices of the rows (w_1^2, w_2^2,
    sqrt(2) w_1 w_2) sqrt(alpha_s) per (s, j), with w = M^-1/2 u_i."""
    root, pd = _matrix_function(_field_rows(F, kernels), lambda x: 1.0 / np.sqrt(x))
    root = root[..., None, :]  # (n, m, k_obs, 1, 3) against Ut's (m, k_obs, k)
    u0, u1 = kernels.Ut[..., 0], kernels.Ut[..., 1]  # (m, k_obs, k)
    w0 = u0 * root[..., 0] + u1 * root[..., 1]
    w1 = u0 * root[..., 1] + u1 * root[..., 2]
    rows = np.stack([w0 * w0, w1 * w1, np.sqrt(2.0) * w0 * w1], -1) * np.sqrt(alpha)[:, None, None, None]
    gram = np.moveaxis(rows, 3, 1).reshape(*F.shape, kernels.UU[0].size)
    return gram @ gram.transpose(0, 2, 1), pd


def eval_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> float:
    """Objective value at f (f is not required to lie on the simplex).

    Raises:
        NotPositiveDefiniteError: trln2/lik with a singular operator at f.
    """
    if kernels is None:
        kernels = precompute(problem)
    value, ok = _objective_rows(np.asarray(f, dtype=float)[None], problem, kernels)
    _require_pd(ok)
    return float(value[0])


def grad_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> np.ndarray:
    """Euclidean gradient of eval_H at f, by the chain rule through the
    operator fields (the one checked against finite differences and used by
    the solver).

    Raises:
        NotPositiveDefiniteError: trln2/lik with a singular operator at f.
    """
    if kernels is None:
        kernels = precompute(problem)
    g, ok = _gradient_rows(np.asarray(f, dtype=float)[None], problem, kernels)
    _require_pd(ok)
    return g[0]


def hessian_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> np.ndarray:
    """Analytic Hessian for trdif (constant) and lik.

    trdif: 2 sum_j K_.j K_.j'. lik: sum_s alpha_s sum_j of squared whitened
    cross projections (w_i . w_l)^2 with w = M^-1/2 u. Each square is the
    inner product of the symmetric outer products w w', so the Hessian is
    one Gram matrix P P' with rows (w_1^2, w_2^2, sqrt(2) w_1 w_2) per
    (s, j), scaled by sqrt(alpha_s); it is positive semidefinite by
    construction.
    """
    if kernels is None:
        kernels = precompute(problem)
    if problem.invariant == "trdif":
        return 2.0 * kernels.K @ kernels.K.T
    if problem.invariant != "lik":
        raise ValueError("analytic Hessian available for trdif and lik only")
    h, ok = _hessian_rows(np.asarray(f, dtype=float)[None], problem.alpha, kernels)
    _require_pd(ok)
    return h[0]


STOP_REASONS = ("pg_tol", "step_tol", "line_search", "max_iter", "singular_start")


@dataclass(frozen=True, eq=False)
class InterpResult:
    f_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    restart_objectives: tuple
    trace: list | None  # rows (iteration, objective, step, grad_norm)
    stop_reasons: tuple = ()   # one of STOP_REASONS per start, in start order
    loop_trips: int = 0        # trips of the batched solver loop
    objective_rounds: int = 0  # batched objective evaluations


def _initial_step(problem, kernels, f) -> np.ndarray:
    """1 / curvature estimate at each row of f (one for all rows with trdif);
    the line search only ever shrinks it. The lik Hessian shares the kernels
    and gives the right scale for trln2 as well."""
    trdif = problem.invariant == "trdif"
    h = hessian_H(None, problem, kernels) if trdif else _hessian_rows(f, problem.alpha, kernels)[0]
    top = np.linalg.eigvalsh(h)[..., -1]
    return 1.0 / np.where(top > 0.0, top, 1.0)


_ARMIJO_C = 1e-4
_MAX_HALVINGS = 50
_ROUNDING_FACTOR = 4.0
_BB_MIN, _BB_MAX = 1e-10, 1e10


def _newton_target(f, g, hess):
    """Minimizer over the simplex of the quadratic model of H around f.

    Primal active-set method on g.(z - f) + (z - f).hess.(z - f) / 2,
    started from the feasible z = f with its zero coordinates held at the
    bound. Each pass solves the equality-constrained model on the free
    coordinates; a negative coordinate blocks the move toward that solution
    and is bound, and a bound coordinate whose multiplier is negative beyond
    rounding is freed. Returns None when a reduced system is singular or the
    pivots do not settle, and the caller takes a gradient step instead.
    """
    c = g - hess @ f  # the model's gradient at z is c + hess z
    slack = 64.0 * np.finfo(float).eps * (np.abs(c).max() + np.abs(hess).max())
    z = f.copy()
    free = z > 0.0
    for _ in range(2 * len(f) + 2):
        idx = np.flatnonzero(free)
        n = len(idx)
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = hess[np.ix_(idx, idx)]
        kkt[:n, n] = kkt[n, :n] = 1.0
        try:
            sol = np.linalg.solve(kkt, np.append(-c[idx], 1.0))
        except np.linalg.LinAlgError:
            return None
        target = sol[:n]
        neg = np.flatnonzero(target < 0.0)
        if len(neg):
            # move toward the target until the first coordinate reaches 0
            zf = z[idx]
            ratios = zf[neg] / (zf[neg] - target[neg])
            first = int(np.argmin(ratios))
            z[idx] = zf + ratios[first] * (target - zf)
            z[idx[neg[first]]] = 0.0
            free[idx[neg[first]]] = False
            continue
        z = np.zeros_like(f)
        z[idx] = target
        mult = c + hess @ z + sol[n]  # bound multipliers, >= 0 at the minimizer
        mult[idx] = np.inf
        worst = int(np.argmin(mult))
        if mult[worst] >= -slack:
            return z
        free[worst] = True
    return None


def _armijo_search(evaluate, trial, f, g, obj, first, per_round=4):
    """Monotone Armijo search of every row of f (n, k): row r takes the first
    step first_r / 2^h, h = 0.._MAX_HALVINGS, whose trial(rows, etas) point is
    defined and decreases H by at least _ARMIJO_C g.(f - trial). One
    evaluate(points) -> (H, defined) call per round tests the next per_round
    halvings of every row still searching, so each row accepts the step a
    one-at-a-time search would. Returns (accepted, step, point, H, rounds)."""
    found, eta, f_new, obj_new = np.zeros(len(f), dtype=bool), np.zeros(len(f)), f.copy(), obj.copy()
    rows = np.arange(len(f))
    for h0 in range(0, _MAX_HALVINGS + 1, per_round):
        etas = first[rows, None] * 0.5 ** np.arange(h0, min(h0 + per_round, _MAX_HALVINGS + 1))
        x = trial(np.repeat(rows, etas.shape[1]), etas.ravel())
        vals, ok = (a.reshape(etas.shape) for a in evaluate(x))
        x = x.reshape(*etas.shape, -1)
        decrease = np.einsum("pk,phk->ph", g[rows], f[rows, None] - x)
        passed = ok & (vals <= obj[rows, None] - _ARMIJO_C * decrease)
        hit = passed.any(axis=1)
        at = (np.flatnonzero(hit), passed.argmax(axis=1)[hit])
        done = rows[hit]
        found[done], eta[done], f_new[done], obj_new[done] = True, etas[at], x[at], vals[at]
        rows = rows[~hit]
        if not len(rows):
            break
    return found, eta, f_new, obj_new, h0 // per_round + 1


# per start: last accepted iterate and objective, iterations, converged, an
# entry of STOP_REASONS and the trace; per batch: loop trips and objective calls
_Descent = namedtuple("_Descent", "f obj iterations converged reasons traces trips rounds")


def _descend(problem, kernels, starts, max_iter, tol, record_trace) -> _Descent:
    """Run every start (row of starts) by the rules of solve in one loop; a row
    leaves it when it stops, or is dropped when it meets a singular operator."""
    f = project_to_simplex(np.asarray(starts, dtype=float))
    obj, live = _objective_rows(f, problem, kernels)
    g, _ = _gradient_rows(f, problem, kernels)  # defined where obj is
    eta_lip = np.ones(len(f))
    eta_lip[live] = _initial_step(problem, kernels, f[live])
    eta0 = eta_lip.copy()
    iterations, converged = np.full(len(f), max_iter), np.zeros(len(f), dtype=bool)
    reasons = np.where(live, "max_iter", "singular_start")
    traces = [[] for _ in f] if record_trace else None
    rounds, trips = 1, 0

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
        first = eta0[act]
        toward = np.full(len(act), False)
        if problem.invariant == "lik":
            move = np.zeros_like(fa)
            for r, hess in enumerate(_hessian_rows(fa, problem.alpha, kernels)[0]):
                target = _newton_target(fa[r], ga[r], hess)
                if target is not None:
                    toward[r], move[r] = True, target - fa[r]
            first = np.where(toward, 1.0, first)

        def trial(rows, etas):
            x = project_to_simplex(fa[rows] - etas[:, None] * ga[rows])
            sel = toward[rows]
            if sel.any():
                x[sel] = fa[rows[sel]] + etas[sel, None] * move[rows[sel]]
            return x

        found, eta, f_new, obj_new, used = _armijo_search(
            lambda x: _objective_rows(x, problem, kernels), trial, fa, ga, oa, first)
        rounds += used
        if not found.all():
            # No step decreased H: stationary if the decrease the first trial
            # step predicts is below the rounding level of H, stalled if not.
            lost = np.flatnonzero(~found)
            predicted = np.einsum("pk,pk->p", ga[lost], fa[lost] - trial(lost, first[lost]))
            level = _ROUNDING_FACTOR * np.finfo(float).eps * np.maximum(1.0, np.abs(oa[lost]))
            stop(act[lost], "line_search", predicted <= level, it)
        acc = np.flatnonzero(found)
        if record_trace:
            for r in acc:
                traces[act[r]].append((it, float(obj_new[r]), float(eta[r]), float(pg[r])))
        f[act[acc]], obj[act[acc]] = f_new[acc], obj_new[acc]
        tiny = np.abs(f_new[acc] - fa[acc]).max(axis=1) < tol
        stop(act[acc[tiny]], "step_tol", True, it)
        acc = acc[~tiny]
        # a gradient search starts from the spectral step of this move
        g_new, ok = _gradient_rows(f_new[acc], problem, kernels)
        stop(act[acc[~ok]], "singular_start", False, it)
        acc, g_new = acc[ok], g_new[ok]
        # Barzilai-Borwein step s.s / s.y, clamped; 1/L where s.y <= 0
        s_, y = f_new[acc] - fa[acc], g_new - ga[acc]
        sy = np.einsum("rk,rk->r", s_, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = np.clip(np.einsum("rk,rk->r", s_, s_) / sy, _BB_MIN, _BB_MAX)
        act = act[acc]
        g[act], eta0[act] = g_new, np.where(sy > 0.0, bb, eta_lip[act])
    return _Descent(f, obj, iterations, converged, reasons, traces, trips, rounds)


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
    """Minimize the objective over the simplex by projected gradient descent.

    Each Armijo search halves a trial step until H decreases enough. The
    first trial step is the Barzilai-Borwein step s.s / s.y of the previous
    accepted move, or 1 / (curvature estimate) on the first iteration and
    whenever s.y <= 0 (a move without positive curvature, which the
    nonconvex trln2 allows). lik moves toward the minimizer over the simplex
    of the local quadratic model instead (a projected Newton step, full step
    first), and falls back to the gradient step if that model is singular.
    Stops when the iterate change or the unit-step projected gradient drops
    below tol, or when the line search finds no decrease; the latter counts
    as converged only if the decrease it predicted is below the rounding
    level of H. An exhausted iteration budget is reported through
    converged=False (the best iterate is still returned). Multi-start
    (default 8 for trln2: linear, square-root and uniform starts plus
    seeded Dirichlet draws; 1 otherwise) merges by best objective with
    start-index tie-breaking. An explicit f0 (a warm start) is prepended
    to the start list. All starts run as one batch; a start that meets a
    singular operator at its first point or at an accepted one is dropped.
    """
    if kernels is None:
        kernels = precompute(problem)
    if restarts is None:
        restarts = 8 if problem.invariant == "trln2" else 1
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
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
        loop_trips=run.trips, objective_rounds=run.rounds,
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
    rotation of the domain.
    """
    f = np.asarray(f, dtype=float)
    domain = unit_points(domain)
    moment = np.einsum("i,ia,ib->ab", f, domain, domain)
    lam = np.linalg.eigvalsh(moment)
    n = 3.0
    denom = float(np.sum(lam ** 2))
    if denom == 0.0:
        return 0.0
    fa = np.sqrt((n / (n - 1.0)) * float(np.sum((lam - lam.mean()) ** 2)) / denom)
    return float(min(max(fa, 0.0), 1.0))


def _numerical_rank(mat, k: int) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > k * sv[0] * 1e-12))


def rank_check(problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> dict:
    """Numerical ranks of the kernel matrices and problem admissibility.

    admissible means the kernel matrix backing the configured invariant
    (A for trdif, B for trln2/lik) has full rank k.
    """
    if kernels is None:
        kernels = precompute(problem)
    k = problem.k
    rank_a = _numerical_rank(kernels.A, k)
    rank_b = _numerical_rank(kernels.B, k)
    needed = rank_a if problem.invariant == "trdif" else rank_b
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
    """Orthonormal (k, k-1) basis of the hyperplane sum x = 0."""
    full = np.zeros((k, k))
    full[:, 0] = 1.0 / np.sqrt(k)
    q, _ = np.linalg.qr(np.eye(k) - np.outer(full[:, 0], full[:, 0]))
    # drop the column closest to the normal direction
    dots = np.abs(q.T @ full[:, 0])
    keep = np.argsort(dots)[: k - 1]
    return q[:, np.sort(keep)]


def convexity_probe(problem: InterpProblem, n_points: int = 100,
                    rng: np.random.Generator | None = None,
                    kernels: PrecomputedKernels | None = None) -> dict:
    """Minimum Hessian eigenvalue over random interior simplex points.

    trdif and lik use their analytic Hessians (trdif is constant so one
    evaluation suffices); trln2 uses a central finite-difference Hessian
    projected onto the simplex tangent plane, which is how its negative
    curvature is searched for. The certificate is true when every sampled
    eigenvalue stays above -1e-8.
    """
    if kernels is None:
        kernels = precompute(problem)
    if rng is None:
        rng = np.random.default_rng(0)
    k, h = problem.k, 1e-5
    if problem.invariant == "trdif":
        hess, ok = hessian_H(None, problem, kernels), True
    elif problem.invariant == "lik":
        hess, ok = _hessian_rows(random_pmfs(rng, k, n_points), problem.alpha, kernels)
    else:
        shifted = random_pmfs(rng, k, n_points)[:, None] + np.concatenate([np.eye(k), -np.eye(k)]) * h
        g, ok = _gradient_rows(shifted.reshape(-1, k), problem, kernels)
        g = g.reshape(n_points, 2, k, k)
        hess = (g[:, 0] - g[:, 1]) / (2.0 * h)
        basis = _simplex_tangent_basis(k)
        hess = basis.T @ (0.5 * (hess + hess.transpose(0, 2, 1))) @ basis
    _require_pd(ok)
    min_eig = float(np.linalg.eigvalsh(hess).min())
    return {"min_hessian_eig": min_eig, "convex_certificate": min_eig >= -1e-8}
