"""Synthetic stochastic convex problems with known or solvable optima.

Every per-sample loss depends on x through one scalar of its sample (a, b):
the residual r = <a,x> - b, or the margin r = b <a,x> for logistic.  The
table ``LOSSES`` holds each kind's value and slope as functions of that
scalar (per-sample; the objective averages them over the sampling law):

* ``linreg``     F(x; (a,b)) = (1/2)(<a,x> - b)^2
* ``absreg``     F(x; (a,b)) = (1/2)|<a,x> - b|
* ``logistic``   F(x; (a,b)) = (1/2) log(1 + exp(-b <a,x>)),  b in {-1,+1}
* ``halfspace``  F(x; i)     = dist(x, {y : <a_i,y> <= b_i})
                             = max(<a_i,x> - b_i, 0) / ||a_i||
* ``power``      F(x; (a,b)) = |<a,x> - b|^(1+gamma) / (1+gamma)
* ``twopoint``   the power loss on two one-dimensional atoms, a = 0, b = 0
  (zero loss) with probability 1-delta and a = 1, b = v*R with probability
  delta, so that F(x; S) = |x - v*R|^(1+gamma) / (1+gamma) on the
  informative atom; v in {-1,+1} is fixed at generation.

The 1/2 weight on linreg/absreg/logistic makes the empirical objective
(1/2N)||Ax-b||^2, (1/2N)||Ax-b||_1, and (1/2N) sum log(1+exp(.)).  The
weight rescales smoothness and gradient-variance constants but not the
relative behavior of the methods.  All losses are nonnegative with
per-sample infimum 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry

LINREG = "linreg"
ABSREG = "absreg"
LOGISTIC = "logistic"
HALFSPACE = "halfspace"
POWER = "power"
TWOPOINT = "twopoint"

KINDS = (LINREG, ABSREG, LOGISTIC, HALFSPACE, POWER, TWOPOINT)


@dataclass(frozen=True)
class Loss:
    """A per-sample loss as a function of one scalar r of its sample (a, b):
    F = value(r, gamma) with subgradient slope(r, gamma) a, where r is the
    residual <a,x> - b, or the margin b <a,x> when ``margin`` (the slope then
    takes a factor b).  curvature(gamma) bounds value'', inf for a loss that
    is not smooth."""
    value: Callable
    slope: Callable
    curvature: Callable
    margin: bool = False


LOSSES = {
    LINREG: Loss(lambda r, g: 0.5 * r * r, lambda r, g: r, lambda g: 1.0),
    ABSREG: Loss(lambda r, g: 0.5 * np.abs(r), lambda r, g: 0.5 * np.sign(r),
                 lambda g: math.inf),
    LOGISTIC: Loss(lambda u, g: 0.5 * np.logaddexp(0.0, -u),
                   lambda u, g: -0.5 * expit(-u), lambda g: 0.125, margin=True),
    HALFSPACE: Loss(lambda r, g: np.where(r > 0, r, 0.0),
                    lambda r, g: np.where(r > 0, 1.0, 0.0), lambda g: math.inf),
    POWER: Loss(lambda r, g: np.abs(r) ** (1.0 + g) / (1.0 + g),
                lambda r, g: np.abs(r) ** g * np.sign(r),
                lambda g: 1.0 if g == 1.0 else math.inf),
}
LOSSES[TWOPOINT] = LOSSES[POWER]

NOISE_NONE = "none"
NOISE_GAUSSIAN = "gaussian"
NOISE_LAPLACE = "laplace"
NOISE_FLIP = "flip"


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = NOISE_NONE
    sigma: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in (NOISE_NONE, NOISE_GAUSSIAN, NOISE_LAPLACE, NOISE_FLIP):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("flip probability must lie in [0, 1]")


@dataclass
class OptimumInfo:
    f_star: float
    x_star: np.ndarray | None
    method: str  # "closed_form" or "high_accuracy_solve"
    tolerance: float


class ReferenceSolveError(RuntimeError):
    """The high-accuracy solve for a reference optimum failed."""


@dataclass(eq=False)
class ProblemInstance:
    kind: str
    A: np.ndarray  # N x n data matrix (the two atoms for twopoint)
    b: np.ndarray
    noise: NoiseSpec
    domain: geometry.Domain
    n: int
    N: int
    x_planted: np.ndarray | None = None
    gamma: float = 0.0
    delta: float = 0.0
    radius: float = 0.0
    sign: int = 1  # twopoint atom sign v
    row_norms: np.ndarray | None = None  # halfspace losses divide by these
    flips_applied: int = 0
    _reference: OptimumInfo | None = field(default=None, repr=False)
    _cdf: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        center = self.domain.center
        if self.domain.kind == geometry.BALL and center.shape != (self.n,):
            raise ValueError(f"ball center has shape {center.shape}, expected ({self.n},)")

    @property
    def sample_probabilities(self) -> np.ndarray | None:
        """Categorical sampling law; None means uniform over the dataset."""
        if self.kind == TWOPOINT:
            return np.array([1.0 - self.delta, self.delta])
        return None


def generate_problem(
    kind: str,
    N: int = 1000,
    n: int = 40,
    sigma: float = 0.0,
    p: float = 0.0,
    cond: float = 1.0,
    gamma: float = 0.0,
    delta: float = 0.1,
    radius: float = 1.0,
    seed: int = 0,
    domain: geometry.Domain | None = None,
) -> ProblemInstance:
    """Draw a synthetic instance; rows of A and the planted point are iid
    standard normal, with post-hoc singular-value rescaling to a geometric
    ramp spanning the requested condition number."""
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind: {kind!r}")
    if kind == TWOPOINT:
        return _generate_twopoint(delta, radius, gamma, seed)
    if N < 1 or n < 1:
        raise ValueError("N and n must be positive")
    if cond < 1.0:
        raise ValueError("condition number must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("power exponent gamma must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, n))
    x_star = rng.standard_normal(n)
    if cond > 1.0 and min(N, n) > 1:
        A = _rescale_condition(A, cond)

    dom = domain if domain is not None else geometry.all_space()
    flips = 0

    if kind == LINREG:
        noise = NoiseSpec(NOISE_GAUSSIAN, sigma=sigma) if sigma > 0 else NoiseSpec()
        b = A @ x_star
        if sigma > 0:
            b = b + sigma * rng.standard_normal(N)
    elif kind == ABSREG:
        noise = NoiseSpec(NOISE_LAPLACE, sigma=sigma) if sigma > 0 else NoiseSpec()
        b = A @ x_star
        if sigma > 0:
            b = b + sigma * rng.laplace(0.0, 1.0, N)
    elif kind == LOGISTIC:
        noise = NoiseSpec(NOISE_FLIP, p=p) if p > 0 else NoiseSpec()
        b = np.sign(A @ x_star)
        b[b == 0] = 1.0
        if p > 0:
            flip = rng.random(N) < p
            b = np.where(flip, -b, b)
            flips = int(flip.sum())
    elif kind == HALFSPACE:
        # Margins keep the planted point in the interior of every halfspace,
        # certifying a nonempty intersection.
        noise = NoiseSpec()
        margins = rng.uniform(0.1, 1.0, N)
        b = A @ x_star + margins
    elif kind == POWER:
        noise = NoiseSpec()
        b = A @ x_star
    else:  # pragma: no cover
        raise AssertionError(kind)

    inst = ProblemInstance(
        kind=kind, A=A, b=b, noise=noise, domain=dom, n=n, N=N,
        x_planted=x_star, gamma=gamma, flips_applied=flips,
    )
    if kind == HALFSPACE:
        inst.row_norms = np.linalg.norm(A, axis=1)
    return inst


def make_custom_linreg(A, b, x_planted=None,
                       domain: geometry.Domain | None = None) -> ProblemInstance:
    """Least-squares instance from explicit data (controlled spectra,
    hand-built examples).  Consistency (b = A x_planted) marks it noiseless."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    N, n = A.shape
    if b.shape != (N,):
        raise ValueError("b must have one entry per row of A")
    # Marking the noise kind routes reference_optimum to the solver path
    # unless the planted point certifies interpolation.
    noise = NoiseSpec(NOISE_GAUSSIAN, sigma=0.0)
    if x_planted is not None:
        x_planted = np.asarray(x_planted, dtype=float)
        if np.allclose(A @ x_planted, b, atol=1e-12):
            noise = NoiseSpec()
    return ProblemInstance(
        kind=LINREG, A=A, b=b, noise=noise,
        domain=domain if domain is not None else geometry.all_space(),
        n=n, N=N, x_planted=x_planted,
    )


def _generate_twopoint(delta: float, radius: float, gamma: float, seed: int) -> ProblemInstance:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    v = twopoint_sign(seed)
    # Atom 0 carries zero loss; atom 1 is the informative sample v.
    return ProblemInstance(
        kind=TWOPOINT, A=np.array([[0.0], [1.0]]), b=np.array([0.0, v * radius]),
        noise=NoiseSpec(),
        domain=geometry.all_space(), n=1, N=2,
        x_planted=np.array([v * radius], dtype=float),
        gamma=gamma, delta=delta, radius=radius, sign=v,
    )


def twopoint_sign(seed: int) -> int:
    """The atom sign v of the two-point instance from ``seed``, its only draw."""
    return (-1, 1)[int(np.random.default_rng(seed).integers(0, 2))]


def _rescale_condition(A: np.ndarray, cond: float) -> np.ndarray:
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = s.size
    ramp = s[0] * cond ** (-np.arange(r) / (r - 1))
    return (U * ramp) @ Vt


# ---------------------------------------------------------------------------
# Loss evaluation


def expit(x):
    """The logistic function 1/(1 + exp(-x)), elementwise, to a few ulp and
    without floating-point warnings: exp is taken of -min(|x|, 708), which
    cannot underflow, and entries beyond that take the exact limits 0 and 1.
    NaN stays NaN."""
    e = np.exp(-np.minimum(np.abs(x), 708.0))
    num = np.array(e)  # e / (1 + e) for x < 0, 1 / (1 + e) for x >= 0
    num[x >= 0] = 1.0
    num[x < -708.0] = 0.0
    return num / (1.0 + e)


def batch_losses(inst: ProblemInstance, x: np.ndarray, idx: np.ndarray):
    """Per-sample values and subgradients of one point on a batch of
    indices: (values (m,), grads (m, n)), the one-point case of
    ``stacked_losses`` with the indices checked.  Subgradients use the
    sign-0 convention at kinks.  Every per-sample infimum is 0.
    """
    idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        raise ValueError("empty batch")
    if int(idx.min()) < 0 or int(idx.max()) >= inst.N:
        raise IndexError("sample index out of range")
    x = np.asarray(x, dtype=float)
    vals, grads = stacked_losses(inst, x[np.newaxis], idx[np.newaxis])
    return vals[0], grads[0]


def stacked_losses(inst: ProblemInstance, X: np.ndarray, idx: np.ndarray):
    """Per-sample values and subgradients for C points at once: point X[c]
    with its own batch idx[c].  Returns (values (C, m), grads (C, m, n)).

    Each point's numbers come from per-point stacked products, so they do not
    depend on C or on the other points.  Indices are not validated.
    """
    loss = LOSSES[inst.kind]
    rows = inst.A[idx]
    ax = np.matmul(rows, X[..., np.newaxis])[..., 0]
    b = inst.b[idx]
    r = b * ax if loss.margin else ax - b
    vals, slope = loss.value(r, inst.gamma), loss.slope(r, inst.gamma)
    if loss.margin:
        slope = b * slope
    if inst.row_norms is not None:
        nrm = inst.row_norms[idx]
        vals, slope = vals / nrm, slope / nrm
    return vals, rows * slope[..., np.newaxis]


def objective_value(inst: ProblemInstance, x: np.ndarray) -> float:
    """Population objective: the dataset average, or the exact two-atom
    expectation for the two-point family."""
    x = np.asarray(x, dtype=float)
    return float(objective_values(inst, x[np.newaxis])[0])


def objective_values(inst: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """objective_value of each row of X (C, n), from the residuals (or
    margins) of each row (per-row products, so a row's value does not depend
    on C)."""
    loss = LOSSES[inst.kind]
    ax = np.matmul(inst.A, X[..., np.newaxis])[..., 0]
    r = inst.b * ax if loss.margin else ax - inst.b
    if inst.kind == TWOPOINT:
        # Atom 0 has zero loss.  Python's float power per row: NumPy's
        # vectorized power can differ from it in the last bit (also at
        # exponent 2), and a row's value should be the one a lone point gets.
        e = 1.0 + inst.gamma
        return inst.delta * np.array([abs(v) ** e for v in r[:, 1].tolist()]) / e
    vals = loss.value(r, inst.gamma)
    if inst.row_norms is not None:
        vals = vals / inst.row_norms
    return np.add.reduce(vals, axis=1) / inst.N


def sample_batch(inst: ProblemInstance, m: int, rng: np.random.Generator) -> np.ndarray:
    """m indices drawn iid from the instance's sampling law (uniform with
    replacement for dataset problems): one row of ``sample_batches``.  The
    optimizers draw their batches in blocks with ``sample_batches``, on the
    same stream that consecutive calls of this function read."""
    return sample_batches(inst, 1, m, rng)[0]


def sample_batches(inst: ProblemInstance, rows: int, m: int,
                   rng: np.random.Generator) -> np.ndarray:
    """A (rows, m) block of batches drawn in one call.  Its rows are those of
    ``rows`` consecutive ``sample_batch(inst, m, rng)`` calls, and rng is left
    in the same state: NumPy's bounded integers and its uniforms take their
    words from the bit generator's own buffer in order, whatever the shape.

    A categorical law is drawn by inverse CDF: uniforms placed in the
    normalized cumulative sums, computed once per instance.  That is the
    computation ``Generator.choice`` makes with ``p`` and replacement, so a
    row and the generator state afterwards are those of
    ``rng.choice(inst.N, size=m, p=probs)``, without its validation of p,
    which is most of its cost.
    """
    if m < 1:
        raise ValueError("batch size must be at least 1")
    cdf = inst._cdf
    if cdf is None:
        probs = inst.sample_probabilities
        if probs is None:
            return rng.integers(0, inst.N, size=(rows, m))
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        inst._cdf = cdf
    return cdf.searchsorted(rng.random((rows, m)), side="right")


# ---------------------------------------------------------------------------
# Reference optima


def reference_optimum(inst: ProblemInstance) -> OptimumInfo:
    """f* (and x* when unique/known), cached on the instance.

    Interpolation instances return 0 directly.  Noisy linear regression is
    solved by least squares; noisy absolute regression by an interior point
    on its n-row dual LP (max b'y s.t. A'y = 0, |y_i| <= 1/(2N)), then
    exactly at the vertex x* that interpolates the n rows of smallest
    residual, with f* = f(x*) and the duality gap f* - b'y of the dual point
    built on those rows reported as the tolerance; noisy logistic regression
    by the one-cell, alpha = inf call of ``logistic_newton`` (n x n Newton) to
    a gradient norm of 1e-12, reported as the tolerance, and f* = 0 when the
    planted point or the Newton iterate separates the data.  Raises
    ReferenceSolveError when that dual point leaves its box by more than
    1e-12 relative or leaves a duality gap above 1e-10 * max(1, f*), or when
    the Newton solve stops with a gradient norm above 1e-8, so that no gap
    is ever measured against an inexact f*.  Raises ValueError on a ball
    domain that does not hold the point attaining f*.  No reference solve
    loads SciPy.
    """
    if inst._reference is not None:
        return inst._reference
    info = _compute_reference(inst)
    _check_attained_in_domain(inst, info)
    inst._reference = info
    return info


def _check_attained_in_domain(inst, info):
    """f* is computed over all of R^n, so on a ball it is the ball's f* only
    when the point that attains it lies in the ball: x*, or the planted
    point of an interpolation instance.  A separable logistic instance's
    f* = 0 is approached at infinity, so no ball serves it."""
    dom = inst.domain
    if dom.kind != geometry.BALL:
        return
    x = info.x_star
    if x is None and inst.kind != LOGISTIC:
        x = inst.x_planted
    if x is None or not np.linalg.norm(x - dom.center) <= dom.radius:
        raise ValueError("the reference optimum lies outside the ball domain, "
                         "so the gaps would be measured against the wrong f*")


def _compute_reference(inst: ProblemInstance) -> OptimumInfo:
    if inst.kind == LOGISTIC:
        return _logistic_reference(inst)
    if inst.noise.kind == NOISE_NONE:
        # Interpolation: every per-sample loss is 0 at the planted point (on
        # the whole feasible polyhedron for halfspace, so no single x*).
        x = None if inst.kind == HALFSPACE else inst.x_planted.copy()
        return OptimumInfo(0.0, x, "closed_form", 0.0)
    if inst.kind == LINREG:
        xhat, *_ = np.linalg.lstsq(inst.A, inst.b, rcond=None)
        resid = inst.A.T @ (inst.A @ xhat - inst.b) / inst.N
        return OptimumInfo(objective_value(inst, xhat), xhat, "closed_form",
                           float(np.linalg.norm(resid)))
    return _absreg_reference(inst)


_ABSREG_REFERENCE_GAP = 1e-10


def _absreg_reference(inst: ProblemInstance) -> OptimumInfo:
    # The LAD dual max b'y s.t. A'y = 0, |y_i| <= r has n equality rows where
    # the primal has 2N inequality rows, and its optimum is attained at a
    # vertex x* that interpolates n rows (the basis B).  The interior point
    # only names B: x* is solved from it exactly, and the dual point built on
    # it certifies f* = f(x*) by the gap f* - b'y.
    A, b, r = inst.A, inst.b, 0.5 / inst.N
    x, u = _lad_interior_point(A, b)
    basis, q = [], np.zeros((inst.n, 0))
    for i in np.argsort(np.abs(A @ x - b), kind="stable"):
        v = A[i] - q @ (q.T @ A[i])
        v -= q @ (q.T @ v)  # Gram-Schmidt, twice for orthogonality
        norm = float(np.linalg.norm(v))
        if norm > 1e-9 * np.linalg.norm(A[i]):
            basis.append(i)
            q = np.column_stack([q, v / norm])
            if len(basis) == inst.n:
                break
    # LU, not lstsq, on a square basis: lstsq's rounding on B can lift f(x*).
    x = (np.linalg.solve(A[basis], b[basis]) if len(basis) == inst.n
         else np.linalg.lstsq(A[basis], b[basis], rcond=None)[0])
    res = A @ x - b
    # Off B, complementary slackness fixes y_i = -r sign(res_i), except on
    # rows that B also interpolates (duplicates of basis rows, or N <= n):
    # there the interior point's y is kept.
    zero = np.abs(res) <= 1e-12 * (np.abs(A) @ np.abs(x) + np.abs(b))
    y = np.where(zero, np.clip(r * (2.0 * u - 1.0), -r, r), -r * np.sign(res))
    y[basis] = 0.0
    y[basis] = np.linalg.lstsq(A[basis].T, -(A.T @ y), rcond=None)[0]
    excess = float(np.max(np.abs(y))) / r - 1.0
    if not excess <= 1e-12:
        raise ReferenceSolveError(
            f"absreg reference dual point lies outside its box by {excess:.3e} (relative)")
    f_star = objective_value(inst, x)
    gap = f_star - float(b @ np.clip(y, -r, r))
    if not gap <= _ABSREG_REFERENCE_GAP * max(1.0, f_star):
        raise ReferenceSolveError(
            f"absreg reference LP stopped at duality gap {gap:.3e}")
    return OptimumInfo(f_star, x, "high_accuracy_solve", max(gap, 0.0))


def _lad_interior_point(A, b):
    """Mehrotra predictor-corrector on the LAD dual in u = 1/2 + N y:
    max b'u s.t. A'u = A'1/2, 0 <= u <= 1, paired with the primal x and
    w - z = b - Ax, w, z >= 0.  The slack s = 1 - u is a variable of its own,
    so that it keeps its relative accuracy as u nears 1.  Each Newton system
    is the n x n A'(Theta)A, solved through the triangular factor of
    sqrt(Theta) A, whose condition number is the square root of the
    product's.  Returns (x, u) once the complementarity u'z + s'w is
    1e-12 of the objective, or after 100 iterations."""
    N = A.shape[0]
    c = 0.5 * A.sum(axis=0)
    u, s = np.full(N, 0.5), np.full(N, 0.5)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    res = b - A @ x
    shift = float(np.abs(res).mean()) + 1e-300  # w, z > 0 also when Ax = b
    w, z = np.maximum(res, 0.0) + shift, np.maximum(-res, 0.0) + shift

    def ratio(v, dv):  # the longest step that keeps v positive, capped at 1
        neg = dv < 0
        return min(1.0, 0.99995 * float(np.min(-v[neg] / dv[neg], initial=np.inf)))

    for _ in range(100):
        gap = float(u @ z + s @ w)
        if gap <= 1e-12 * (1.0 + abs(float(b @ u))):
            break
        theta = 1.0 / (z / u + w / s)
        R = np.linalg.qr(np.sqrt(theta)[:, np.newaxis] * A, mode="r")
        r_p, r_d = c - A.T @ u, b - A @ x - w + z

        def newton(r_uz, r_sw):  # right-hand sides of U dz + Z du, S dw + W ds
            t = r_d + r_uz / u - r_sw / s
            dx = np.linalg.solve(R, np.linalg.solve(R.T, A.T @ (theta * t) - r_p))
            du = theta * (t - A @ dx)
            dz, dw = (r_uz - z * du) / u, (r_sw + w * du) / s
            return (dx, du, dz, dw, min(ratio(u, du), ratio(s, -du)),
                    min(ratio(z, dz), ratio(w, dw)))

        dx, du, dz, dw, ap, ad = newton(-u * z, -s * w)
        mu = gap / (2 * N)
        sigma = (float((u + ap * du) @ (z + ad * dz) + (s - ap * du) @ (w + ad * dw))
                 / (2 * N) / mu) ** 3
        dx, du, dz, dw, ap, ad = newton(sigma * mu - u * z - du * dz,
                                        sigma * mu - s * w + du * dw)
        u, s = u + ap * du, s - ap * du
        x, z, w = x + ad * dx, z + ad * dz, w + ad * dw
    return x, u


_LOGISTIC_REFERENCE_GTOL = 1e-8


def _logistic_reference(inst: ProblemInstance) -> OptimumInfo:
    x, gnorm = inst.x_planted, 0.0
    if not np.all(inst.b * (inst.A @ x) > 0):
        (x,), (gnorm,), _ = logistic_newton(inst.A[np.newaxis], inst.b[np.newaxis],
                                            np.zeros((1, inst.n)), np.array([np.inf]), 1e-12, 100)
    if np.all(inst.b * (inst.A @ x) > 0):
        # Separable (by the planted point, or by the point Newton reached on
        # its way to infinity): every per-sample infimum (0) is approached
        # along t * x, so inf f = 0 though no minimizer exists.
        return OptimumInfo(0.0, None, "closed_form", 0.0)
    if not gnorm <= _LOGISTIC_REFERENCE_GTOL:
        raise ReferenceSolveError(
            f"logistic reference solve stopped at gradient norm {gnorm:.3e}")
    return OptimumInfo(objective_value(inst, x), x, "high_accuracy_solve", float(gnorm))


def logistic_newton(A, b, X0, alpha, tol, max_newton):
    """Damped Newton on C cells: cell c minimizes (1/2m) sum_i log(1 +
    exp(-b_ci <a_ci, x>)) + ||x - X0_c||^2 / (2 alpha_c) (A (C, m, n), b (C, m),
    X0 (C, n), alpha (C,); inf drops the prox term).  The Newton system is
    I + alpha B B' (B = W^1/2 A, W the curvatures; Woodbury) when m < n and
    every alpha is finite, else A'WA + I/alpha with A'WA an einsum, whose sums
    the code orders, not the BLAS thread split.  Each cell backtracks (Armijo)
    and stops on its own at gradient norm <= tol or after max_newton steps;
    all products are per cell.  Returns (X, gradient norms, iterations)."""
    from .prox import matvec, rowdot
    C, m, n = A.shape
    X, gnorm, iters = np.empty_like(X0), np.empty(C), np.empty(C, dtype=int)
    At = np.ascontiguousarray(A.transpose(0, 2, 1))  # einsum sums over contiguous rows
    run, x0, x, a, nb = np.arange(C), X0, X0, alpha[:, np.newaxis], -b  # the running cells

    def objective(z, d):  # per running cell, from z = -b * Ax and d = x - x0
        return np.add.reduce(np.logaddexp(0.0, z), axis=1) / (2 * m) + rowdot(d, d) / (2 * alpha)

    for k in range(1, max_newton + 2):  # every cell stops by k = max_newton + 1
        z = nb * matvec(A, x)  # minus the margins
        s = expit(z)
        d = x - x0
        grad = matvec(At, nb * s) * (0.5 / m) + d / a
        g = np.sqrt(rowdot(grad, grad))
        stop = g <= tol if k <= max_newton else np.ones(run.size, dtype=bool)
        if stop.any():
            X[run[stop]], gnorm[run[stop]], iters[run[stop]] = x[stop], g[stop], k
            if stop.all():
                return X, gnorm, iters
            keep = np.flatnonzero(~stop)
            run, A, At, nb, x0, alpha, a, x, z, s, d, grad = (
                v.take(keep, axis=0) for v in (run, A, At, nb, x0, alpha, a, x, z, s, d, grad))
        w = s * (1.0 - s) * (0.5 / m)  # Hessian weights (b^2 = 1)
        if m < n and np.isfinite(alpha).all():  # Woodbury
            Bt = np.sqrt(w)[:, np.newaxis] * At
            K = np.matmul(Bt.transpose(0, 2, 1), a[..., np.newaxis] * Bt)
            K.reshape(run.size, -1)[:, ::m + 1] += 1.0  # I + alpha B B'
            y = np.linalg.solve(K, matvec(Bt.transpose(0, 2, 1), grad)[..., np.newaxis])[..., 0]
            step = a * (a * matvec(Bt, y) - grad)
        else:
            H = np.einsum("cik,cjk->cij", At * w[:, np.newaxis], At)
            H.reshape(run.size, -1)[:, ::n + 1] += 1.0 / a
            step = -np.linalg.solve(H, grad[..., np.newaxis])[..., 0]
        f0, slope = objective(z, d), rowdot(grad, step)  # slope: minus the squared decrement
        # A decrease below rounding level cannot be tested; such a step is
        # tiny (||step||^2 <= alpha * |slope|) and is taken in full.
        back, t = -slope > 1e-12 * (1.0 + np.abs(f0)), np.ones(run.size)
        if back.any():
            dz, armijo = nb * matvec(A, step), 1e-4 * slope
            trial = z + dz, d + step  # t = 1
            for _ in range(40):  # halve while t > 1e-12, that is, at most 40 times
                back &= objective(*trial) > f0 + t * armijo
                if not back.any():
                    break
                t[back] *= 0.5
                trial = z + t[:, np.newaxis] * dz, d + t[:, np.newaxis] * step
        x = x + t[:, np.newaxis] * step


def distances_to_optimum(inst: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of X (C, n) to the optimal set, a known
    point or the feasible polyhedron of the halfspace intersection.  To a
    point it is sqrt(d.d) by one dot per row, the computation of
    ``np.linalg.norm`` on the row alone, so a row's value does not depend on
    C; the halfspace intersection takes one exact projection per row."""
    from .prox import project_polyhedron, rowdot
    if inst.kind == HALFSPACE:
        return np.array([np.linalg.norm(x - project_polyhedron(inst.A, inst.b, x))
                         for x in X])
    info = reference_optimum(inst)
    if info.x_star is None:
        raise ValueError(f"optimal set of {inst.kind} instance is not a point")
    D = X - info.x_star
    return np.sqrt(rowdot(D, D))
