"""Similarity-invariant functions on 2x2 symmetric positive definite operators.

The four invariants compare covariance operators:

  trdif(X, Y; Z) = |tr(Z^-1 X - Z^-1 Y)|
  trln2(X, Y)    = sqrt(tr(ln^2(X Y^-1)))          (affine-invariant distance)
  lik(X, Y)      = tr(X Y^-1) - ln|X Y^-1| - 2      (not symmetric, no triangle)
  lnpr(X, Y)     = sqrt(ln(tr(X Y^-1) tr(Y X^-1) / 4))

All are unchanged when X, Y (and the trdif reference Z) are congruence
transformed by any invertible A. Eigenvalues of the non-symmetric product
X Y^-1 are computed through the symmetric similar matrix Y^-1/2 X Y^-1/2 so
that they stay real and positive in floating point.

The lnpr form divides by n^2 = 4 inside the log so that lnpr(X, cX) = 0; by
the AM-GM inequality tr(X Y^-1) tr(Y X^-1) >= 4, so the argument is >= 1.

Every function takes 2x2 operators or (..., 2, 2) stacks of them (one h_*
value per pair, each equal to the single-pair call bit for bit), through
_eigvals2, the one eigenvalue kernel for symmetric 2x2 matrices (definite
or not; the two-sample tests take their eigensystems from it too), and
_eigensystem, which adds their eigenvectors.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError

__all__ = [
    "DEFINITENESS_FLOOR",
    "assert_spd",
    "spd_inv_sqrt",
    "similar_eigvals",
    "h_trdif",
    "h_trln2",
    "h_lik",
    "h_lnpr",
    "make_invariant",
]

DEFINITENESS_FLOOR = 1e-12


def _stack2(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator or a stack of them, got shape {m.shape}")
    return m


def _sym_comps(m):
    """Components (a, b, d) on the last axis of the symmetric parts of a (..., 2, 2) stack."""
    return np.stack([m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1]], -1)


def _det2(comps):
    """Determinants a d - b^2 of the symmetric 2x2 matrices given by their
    components (a, b, d) on the last axis."""
    return comps[..., 0] * comps[..., 2] - comps[..., 1] * comps[..., 1]


def _eigvals2(comps):
    """Closed-form eigenvalues (lam_min, lam_max) of symmetric 2x2 matrices,
    definite or not, given by their components (a, b, d) on the last axis.

    The root of larger magnitude, big = mean + copysign(r, mean) with
    r = hypot((a - d)/2, b), comes first and the other is det / big (the
    stable quadratic formula; Golub & Van Loan, Matrix Computations, 8.5), so
    both are accurate to rounding in max |lam| whatever the signs. At r = 0
    (c I, 0 included) the other root is the mean c, which c^2 / c can miss by
    a rounding. The sign bit of the mean, not a comparison, orders the pair:
    big is lam_max where the mean is +0.0 or positive and lam_min where it is
    -0.0 or negative (near c I, det / big can exceed big by a rounding, and
    the pair keeps that order). Any other zero big gives a NaN root, which no
    positivity test passes; so does a NaN or infinite component.
    """
    a, b, d = comps[..., 0], comps[..., 1], comps[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
        big = mean + np.copysign(r, mean)
        small, neg = np.where(r == 0.0, mean, _det2(comps) / big), np.signbit(mean)
        return np.where(neg, big, small), np.where(neg, small, big)


def _eigensystem(comps):
    """Closed-form eigensystems of the symmetric 2x2 matrices given by comps:
    lam_min, lam_max (as _eigvals2), and the cosine and sine of the angle
    atan2(2b, a - d) / 2 at which the eigenvector of lam_max lies, whatever
    the signs of the eigenvalues; (-sin, cos) is that of lam_min."""
    lam_min, lam_max = _eigvals2(comps)
    theta = 0.5 * np.arctan2(comps[..., 1], 0.5 * (comps[..., 0] - comps[..., 2]))
    return lam_min, lam_max, np.cos(theta), np.sin(theta)


def _matrix_function(comps, phi):
    """Components (a, b, d) on the last axis of phi(M) for the symmetric 2x2
    matrices M given by comps, and their lam_min; phi(lam) may be NaN or
    infinite where M is not positive definite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_min, lam_max, c, s = _eigensystem(comps)
        top, low = phi(lam_max), phi(lam_min)
        return np.stack([top * c * c + low * s * s, (top - low) * c * s, top * s * s + low * c * c], -1), lam_min


def _term_sum(kind: str, lam):
    """Sum over the eigenvalue pair lam = (lam_min, lam_max) of X Y^-1 of the
    per-eigenvalue term of an invariant: ln^2 for trln2 (its square), and
    lam - ln lam - 1 for lik. The square is np.square, which an array's ** 2
    computes too; a float64 scalar's ** 2 calls pow, which can differ by a bit."""
    term = (lambda x: np.square(np.log(x))) if kind == "trln2" else (lambda x: x - np.log(x) - 1.0)
    return term(lam[0]) + term(lam[1])


def _sym(m) -> np.ndarray:
    m = _stack2(m)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _check_floor(lam_min, what: str):
    if not np.all(lam_min > DEFINITENESS_FLOOR):
        raise NotPositiveDefiniteError(
            f"{what} has minimum eigenvalue {np.min(lam_min):.3e} (floor {DEFINITENESS_FLOOR:.1e})"
        )


def assert_spd(m, what: str = "matrix") -> np.ndarray:
    """Symmetric part of m, checked for eigenvalues above DEFINITENESS_FLOOR (NaN and inf fail)."""
    m = _sym(m)
    _check_floor(_eigvals2(_sym_comps(m))[0], what)
    return m


def _inv_sqrt(x, what: str) -> np.ndarray:
    """spd_inv_sqrt of x, whose check names x as what: one eigensystem serves
    both the check and the matrix function."""
    comps, lam_min = _matrix_function(_sym_comps(_sym(x)), lambda lam: 1.0 / np.sqrt(lam))
    _check_floor(lam_min, what)
    return np.stack([comps[..., :2], comps[..., 1:]], -2)


def spd_inv_sqrt(x) -> np.ndarray:
    """Inverse square root of the symmetric part of x, checked as by assert_spd, in closed form."""
    return _inv_sqrt(x, "matrix")


def _pencil_eigvals(x, y):
    """(lam_min, lam_max) of X Y^-1, the eigenvalues of the similar Y^-1/2 X Y^-1/2,
    which is symmetric positive definite, so they are real and positive."""
    x = assert_spd(x, what="X")
    yis = _inv_sqrt(y, what="Y")
    return _eigvals2(_sym_comps(yis @ x @ yis))


def similar_eigvals(x, y) -> np.ndarray:
    """Eigenvalues (lam_min, lam_max) of X Y^-1 on the last axis, (..., 2)."""
    return np.stack(_pencil_eigvals(x, y), -1)


def h_trdif(x, y, z=None):
    """|tr(Z^-1 X - Z^-1 Y)|; Z defaults to the identity."""
    x, y = _stack2(x), _stack2(y)
    if z is None:
        return np.abs(np.trace(x, axis1=-2, axis2=-1) - np.trace(y, axis1=-2, axis2=-1))
    comps, dif = _sym_comps(assert_spd(z, what="reference Z")), x - y
    # tr(Z^-1 D) = tr(adj(Z) D) / det(Z) for the symmetric Z
    a, b, d = np.moveaxis(comps, -1, 0)
    tr_adj = d * dif[..., 0, 0] + a * dif[..., 1, 1] - b * (dif[..., 0, 1] + dif[..., 1, 0])
    return np.abs(tr_adj / _det2(comps))


def h_trln2(x, y):
    """Affine-invariant distance sqrt(sum of squared log eigenvalues)."""
    return np.sqrt(_term_sum("trln2", _pencil_eigvals(x, y)))


def h_lik(x, y):
    """tr(X Y^-1) - ln|X Y^-1| - 2. Nonnegative, zero iff X = Y."""
    return _term_sum("lik", _pencil_eigvals(x, y))


def h_lnpr(x, y):
    """sqrt(ln(tr(X Y^-1) tr(Y X^-1) / 4)). Zero iff X = cY."""
    lo, hi = _pencil_eigvals(x, y)
    # AM-GM makes the argument >= 1; the clip guards roundoff at equality.
    return np.sqrt(np.log(np.maximum((lo + hi) * (1.0 / lo + 1.0 / hi) / 4.0, 1.0)))


def make_invariant(kind: str, reference=None):
    """Return the invariant named by kind as a callable h(X, Y).

    kind is one of "trdif", "trln2", "lik", "lnpr". The reference matrix
    applies to trdif only (defaults to the identity).
    """
    kind = kind.lower()
    if kind == "trdif":
        if reference is not None:
            assert_spd(reference, what="reference Z")
        return lambda x, y: h_trdif(x, y, reference)
    if reference is not None:
        raise ValueError("a reference matrix applies to trdif only")
    try:
        return {"trln2": h_trln2, "lik": h_lik, "lnpr": h_lnpr}[kind]
    except KeyError:
        raise ValueError(f"unknown invariant kind: {kind!r}") from None
