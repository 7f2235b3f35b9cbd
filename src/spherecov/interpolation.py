"""Interpolation of discrete spherical distributions.

Given endpoint pmfs f^1..f^m on a fixed domain and mixing weights alpha, the
interpolant is the pmf minimizing

    H(f; alpha) = sum_s alpha_s sum_j h(field(f)_j, field(f^s)_j)

over the probability simplex, where field(.)_j are covariance operators at
observation points q_j and h is one of

    trdif:  squared trace difference (reduces to a linear-residual quadratic)
    trln2:  squared affine-invariant distance tr(ln^2(Y)), Y = field(f) C^-1
    lik:    tr(Y) - ln|Y| - 2

The solver is projected gradient descent with a monotone Armijo
backtracking line search. Each search starts from the Barzilai-Borwein step
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

Everything is evaluated through the symmetric matrices
M_j^s = (C_j^s)^-1/2 field(f)_j (C_j^s)^-1/2, which are similar to the
Y_j^s above, so logs and inverses stay symmetric in floating point.
"""

from __future__ import annotations

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
    trZ: np.ndarray | None  # (m, k_obs, k) traces of the Z matrices

    @property
    def needs_pd(self) -> bool:
        return self.Ut is not None


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
                                  c_tr=c_tr, Ut=None, trZ=None)

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
    tr_z = np.einsum("sjia,sjia->sji", ut, ut)
    return PrecomputedKernels(A=a, B=b, K=kernel, C=c_ops, c_tr=c_tr, Ut=ut, trZ=tr_z)


def _whitened_fields(f, kernels: PrecomputedKernels) -> np.ndarray:
    """M_j^s = (C_j^s)^-1/2 field(f)_j (C_j^s)^-1/2, shape (m, k_obs, 2, 2)."""
    f = np.asarray(f, dtype=float)
    return np.einsum("i,sjia,sjib->sjab", f, kernels.Ut, kernels.Ut)


def _pd_eigvalsh(mats):
    """Eigenvalues of symmetric 2x2 matrices that must be strictly positive.

    Closed form, ascending along the last axis: lam_max = mean + hypot((a -
    d)/2, b) and lam_min = det / lam_max. Both are accurate to rounding in
    lam_max, however ill-conditioned the matrix.
    """
    a, b, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
    lam_max = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.stack([(a * d - b * b) / lam_max, lam_max], axis=-1)
    # a zero lam_max gives a NaN lam_min, which must raise as well
    if not lam.min() > DEFINITENESS_FLOOR:
        raise NotPositiveDefiniteError(
            "a covariance operator of the iterate is singular"
        )
    return lam


def _pd_eigh(mats):
    """Batched eigendecomposition that insists on strict positivity."""
    w, v = np.linalg.eigh(mats)
    if w.min() <= DEFINITENESS_FLOOR:
        raise NotPositiveDefiniteError(
            "a covariance operator of the iterate is singular"
        )
    return w, v


def eval_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> float:
    """Objective value at f (f is not required to lie on the simplex).

    Raises:
        NotPositiveDefiniteError: trln2/lik with a singular operator at f.
    """
    if kernels is None:
        kernels = precompute(problem)
    f = np.asarray(f, dtype=float)
    if problem.invariant == "trdif":
        resid = kernels.K.T @ f - kernels.c_tr  # (m, k_obs) broadcast over s
        return float(problem.alpha @ (resid ** 2).sum(axis=1))
    lam = _pd_eigvalsh(_whitened_fields(f, kernels))
    if problem.invariant == "trln2":
        per = (np.log(lam) ** 2).sum(axis=(1, 2))
    else:  # lik
        per = (lam - np.log(lam) - 1.0).sum(axis=(1, 2))
    return float(problem.alpha @ per)


def grad_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None,
           form: str = "chain") -> np.ndarray:
    """Gradient of the objective at f.

    form "chain" is the exact Euclidean gradient of eval_H (the one checked
    against finite differences and used by the solver). form
    "multiplicative" is the rescaled update direction with the extra f_i and
    1/tr(Z) factors (trln2/lik only); it is not the derivative of eval_H.
    """
    if kernels is None:
        kernels = precompute(problem)
    if form not in ("chain", "multiplicative"):
        raise ValueError(f"unknown gradient form: {form!r}")
    f = np.asarray(f, dtype=float)
    if problem.invariant == "trdif":
        if form == "multiplicative":
            raise ValueError("the multiplicative form applies to trln2/lik only")
        resid = kernels.K.T @ f - kernels.c_tr
        return 2.0 * kernels.K @ (problem.alpha @ resid)
    m = _whitened_fields(f, kernels)
    lam, vec = _pd_eigh(m)
    if form == "chain":
        if problem.invariant == "trln2":
            # d tr(ln^2 M) = tr(2 ln(M) M^-1 dM)
            d = np.einsum("sjab,sjb,sjcb->sjac", vec, 2.0 * np.log(lam) / lam, vec)
        else:
            # d (tr M - ln|M|) = tr((I - M^-1) dM)
            d = np.einsum("sjab,sjb,sjcb->sjac", vec, 1.0 - 1.0 / lam, vec)
        per = np.einsum("sjia,sjab,sjib->sji", kernels.Ut, d, kernels.Ut)
        return np.einsum("s,sji->i", problem.alpha, per)
    # multiplicative rescaling; terms with tr(Z) = 0 contribute nothing
    if problem.invariant == "trln2":
        core = np.einsum("sjab,sjb,sjcb->sjac", vec, np.log(lam), vec)
    else:
        shifted = lam - 1.0
        core = np.einsum("sjab,sjb,sjcb->sjac", vec, shifted, vec)
    num = np.einsum("sjia,sjab,sjib->sji", kernels.Ut, core, kernels.Ut)
    safe = np.where(kernels.trZ > 1e-300, kernels.trZ, 1.0)
    ratio = np.where(kernels.trZ > 1e-300, num / safe, 0.0)
    return f * np.einsum("s,sji->i", problem.alpha, ratio)


def hessian_H(f, problem: InterpProblem, kernels: PrecomputedKernels | None = None) -> np.ndarray:
    """Analytic Hessian for trdif (constant) and lik.

    trdif: 2 sum_j K_.j K_.j'. lik: sum_s alpha_s sum_j of squared whitened
    cross projections (w_i . w_l)^2 with w = Ut M^-1/2. Each square is the
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
    f = np.asarray(f, dtype=float)
    m = _whitened_fields(f, kernels)
    lam, vec = _pd_eigh(m)
    w = kernels.Ut @ (vec / np.sqrt(lam)[..., None, :])  # (m, k_obs, k, 2)
    w1, w2 = w[..., 0], w[..., 1]
    rows = np.stack([w1 * w1, w2 * w2, np.sqrt(2.0) * w1 * w2], axis=-1)
    rows = rows * np.sqrt(problem.alpha)[:, None, None, None]
    gram = np.moveaxis(rows, 2, 0).reshape(problem.k, -1)
    return gram @ gram.T


@dataclass(frozen=True, eq=False)
class InterpResult:
    f_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    restart_objectives: tuple
    trace: list | None  # rows (iteration, objective, step, grad_norm)


def _projected_gradient_norm(f, g) -> float:
    return float(np.max(np.abs(f - project_to_simplex(f - g))))


def _initial_step(problem, kernels, f0) -> float:
    """1 / curvature estimate; the line search only ever shrinks it."""
    try:
        if problem.invariant == "trdif":
            h = hessian_H(f0, problem, kernels)
        else:
            # lik Hessian shares the kernels and gives the right scale for
            # trln2 as well
            lik_like = InterpProblem(
                domain=problem.domain, obs=problem.obs,
                endpoints=problem.endpoints, alpha=problem.alpha,
                invariant="lik", weight=problem.weight,
            )
            h = hessian_H(f0, lik_like, kernels)
        top = float(np.linalg.eigvalsh(h).max())
        return 1.0 / top if top > 0.0 else 1.0
    except NotPositiveDefiniteError:
        return 1.0


_ARMIJO_C = 1e-4
_MAX_HALVINGS = 50
_ROUNDING_FACTOR = 4.0
_BB_MIN, _BB_MAX = 1e-10, 1e10


def _bb_step(s, y, fallback) -> float:
    """Barzilai-Borwein step s.s / s.y, clamped; fallback when s.y <= 0."""
    sy = float(s @ y)
    if sy <= 0.0:
        return fallback
    return min(max(float(s @ s) / sy, _BB_MIN), _BB_MAX)


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


def _pgd(problem, kernels, f0, max_iter, tol, record_trace, gradient):
    f = project_to_simplex(np.asarray(f0, dtype=float))
    obj = eval_H(f, problem, kernels)
    g = grad_H(f, problem, kernels, form=gradient)
    eta_lip = _initial_step(problem, kernels, f)
    eta0 = eta_lip
    newton = problem.invariant == "lik" and gradient == "chain"
    trace = [] if record_trace else None
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        pg = _projected_gradient_norm(f, g)
        if pg < tol:
            converged = True
            iterations = it - 1
            break
        target = _newton_target(f, g, hessian_H(f, problem, kernels)) if newton else None
        if target is None:
            def trial(eta, f=f, g=g):
                return project_to_simplex(f - eta * g)
            first = eta0
        else:
            def trial(eta, f=f, d=target - f):
                return f + eta * d
            first = 1.0
        eta = first
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            f_new = trial(eta)
            try:
                obj_new = eval_H(f_new, problem, kernels)
            except NotPositiveDefiniteError:
                eta *= 0.5
                continue
            # Armijo sufficient decrease; g'(f - f_new) >= 0 for both moves
            if obj_new <= obj - _ARMIJO_C * float(g @ (f - f_new)):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            # No trial step decreased H. That is a stationary point when the
            # decrease the first trial step predicts is below the rounding
            # level of H, and a stalled search otherwise.
            predicted = float(g @ (f - trial(first)))
            converged = predicted <= _ROUNDING_FACTOR * np.finfo(float).eps * max(1.0, abs(obj))
            break
        step_inf = float(np.max(np.abs(f_new - f)))
        if record_trace:
            trace.append((it, obj_new, eta, pg))
        if step_inf < tol:
            f, obj = f_new, obj_new
            converged = True
            break
        # a gradient search starts from the spectral step of this move
        g_new = grad_H(f_new, problem, kernels, form=gradient)
        eta0 = _bb_step(f_new - f, g_new - g, eta_lip)
        f, obj, g = f_new, obj_new, g_new
    return f, obj, iterations, converged, trace


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
          seed: int = 0, gradient: str = "chain", record_trace: bool = False,
          f0=None) -> InterpResult:
    """Minimize the objective over the simplex by projected gradient descent.

    Each Armijo search halves a trial step until H decreases enough. The
    first trial step is the Barzilai-Borwein step s.s / s.y of the previous
    accepted move, or 1 / (curvature estimate) on the first iteration and
    whenever s.y <= 0 (as can happen with the multiplicative direction).
    lik with the chain gradient moves toward the minimizer over the simplex
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
    to the start list.
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
        starts.insert(0, project_to_simplex(np.asarray(f0, dtype=float)))

    def run(start):
        try:
            return _pgd(problem, kernels, start, max_iter, tol, record_trace, gradient)
        except NotPositiveDefiniteError:
            # a degenerate start is skipped, not fatal
            return None

    runs = [r for r in map(run, starts) if r is not None]
    if not runs:
        raise NotPositiveDefiniteError("every start produced a singular operator")
    objectives = tuple(r[1] for r in runs)
    best = min(range(len(runs)), key=lambda i: (runs[i][1], i))
    f_hat, obj, iters, converged, trace = runs[best]
    return InterpResult(
        f_hat=f_hat, objective=obj, iterations=iters, converged=converged,
        restarts_used=len(starts), restart_objectives=objectives, trace=trace,
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
    if problem.invariant == "trdif":
        min_eig = float(np.linalg.eigvalsh(hessian_H(None, problem, kernels)).min())
        return {"min_hessian_eig": min_eig, "convex_certificate": min_eig >= -1e-8}
    points = random_pmfs(rng, problem.k, n_points)
    min_eig = np.inf
    if problem.invariant == "lik":
        for f in points:
            w = np.linalg.eigvalsh(hessian_H(f, problem, kernels))
            min_eig = min(min_eig, float(w.min()))
    else:
        basis = _simplex_tangent_basis(problem.k)
        h = 1e-5
        for f in points:
            k = problem.k
            hess = np.empty((k, k))
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                gp = grad_H(f + e, problem, kernels)
                gm = grad_H(f - e, problem, kernels)
                hess[:, i] = (gp - gm) / (2.0 * h)
            hess = 0.5 * (hess + hess.T)
            proj = basis.T @ hess @ basis
            w = np.linalg.eigvalsh(proj)
            min_eig = min(min_eig, float(w.min()))
    return {"min_hessian_eig": min_eig, "convex_certificate": min_eig >= -1e-8}
