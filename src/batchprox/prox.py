"""Regularized model subproblem solvers.

Each outer iteration minimizes ``model(x) + ||x - center||^2 / (2 alpha)``.
For the linear model this is a (projected) gradient step; for the truncated
model it is the clipped Polyak step; for the average-of-truncated model it
reduces to a box-constrained QP in the dual; the full proximal model gets an
exact per-loss solver (linear system, box QP, or one damped Newton in min(m, n)
dimensions for a stack of logistic batches).  Single-sample proxes are 1-d roots
along the sample direction, the logistic one by monotone Newton on the margin.

One box dual serves pam and the absreg and halfspace batch prox: with
per-sample rows G = [g_1 ... g_m]' and affine values v_i at the prox center,

    maximize  -(alpha/2) lam' G G' lam + lam' v   s.t.  lo <= lam <= hi,

and the primal update is x+ = center - alpha * G' lam (pam and halfspace:
v_i = F(x;s_i), every per-sample infimum being 0, and the box [0, 1/m];
absreg: the residuals and [-1/(2m), 1/(2m)]).  ``box_dual_steps`` solves it
for a stack of cells by projected Newton (``solve_box_qps``, the box as two
floats; a zero column of G fixes its coordinate at the endpoint given by the
sign of v) and forms no duality gap: only the one-cell API reads it.  The
polyhedron projection is the same QP over [0, inf), per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, problems


class InnerSolveError(RuntimeError):
    """An inner solver failed to reach its tolerance within budget."""


class DegenerateSampleError(ValueError):
    """Zero model subgradient with value above the lower bound."""


@dataclass(eq=False)
class BoxQP:
    Q: np.ndarray
    v: np.ndarray
    alpha: float
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.lo = np.broadcast_to(np.asarray(self.lo, dtype=float), self.v.shape).copy()
        self.hi = np.broadcast_to(np.asarray(self.hi, dtype=float), self.v.shape).copy()
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    def objective(self, lam: np.ndarray) -> float:
        return float(-0.5 * self.alpha * lam @ self.Q @ lam + lam @ self.v)

    def kkt_residual(self, lam: np.ndarray) -> float:
        """Componentwise stationarity residual of the box-constrained maximum
        (the test the solver stops on)."""
        lam, lo, hi = lam[np.newaxis], self.lo[np.newaxis], self.hi[np.newaxis]
        g = _ascent(self.alpha * self.Q[np.newaxis], self.v[np.newaxis], lam)
        return float(_kkt(g, lam, lo, hi)[0]) if lam.size else 0.0


@dataclass
class BoxQPInfo:
    sweeps: int  # projected-Newton iterations
    residual: float
    converged: bool


@dataclass(eq=False)
class ProxResult:
    x_next: np.ndarray
    lam: np.ndarray | None = None
    duality_gap: float = 0.0
    inner_iterations: int = 0


def solve_box_qp(qp: BoxQP, tol: float = 1e-9, max_sweeps: int = 500):
    """solve_box_qps for one QP.  Returns (lam, BoxQPInfo); non-convergence
    is flagged, not raised."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam, iters, res = solve_box_qps(qp.Q[np.newaxis], qp.v[np.newaxis], np.array([qp.alpha]),
                                    qp.lo[np.newaxis], qp.hi[np.newaxis], tol, max_sweeps)
    return lam[0], BoxQPInfo(int(iters[0]), float(res[0]), bool(res[0] <= tol))


_ARMIJO = 1e-4       # sufficient-increase fraction that accepts a full step
_NEWTON_REG = 1e-12  # relative diagonal shift of the free Newton block


def solve_box_qps(Q, v, alpha, lo, hi, tol: float = 1e-9, max_iter: int = 500):
    """Projected Newton (Bertsekas 1982) for a stack of C box QPs

        maximize  -(alpha_c/2) lam' Q_c lam + v_c' lam   s.t.  lo_c <= lam <= hi_c

    with Q (C, m, m) positive semidefinite, v (C, m), alpha (C,), and lo, hi
    (C, m) or, for one box shared by every coordinate, two finite floats.
    Returns (lam, iterations, KKT residual); a cell converged iff its
    residual is at most tol (inf: nonfinite data, an unbounded dual, or no
    increase along the search arc).  Cells retire on their own and every
    product is per cell, so a cell's result does not depend on the others.

    A zero diagonal of Q is a zero row and column: that term is linear, and
    its coordinate is fixed at the endpoint given by the sign of v.  The rest
    start at their coordinatewise maxima; when every cell's start passes the
    KKT test, the call returns it with 0 iterations before it builds any
    Newton matrix.  An iteration takes the epsilon-active set (coordinates
    whose own Newton step g_i / (alpha Q_ii) leaves the box) and solves the
    Newton system of the free block, its diagonal shifted by _NEWTON_REG so
    that a singular block stays solvable (active coordinates take the
    diagonal step).  The projected full step is taken when it passes the KKT
    test or increases the objective by at least _ARMIJO times the
    first-order increase.  Otherwise free coordinates at a bound that the
    step pushes out are made active, the system is solved again (a
    direction in which a singular free block is linear then runs until a
    coordinate reaches its bound), and the step maximizes the objective
    along the projection arc.
    """
    C, m = v.shape
    shared = not isinstance(lo, np.ndarray)  # one box for every coordinate
    aQ = alpha[:, np.newaxis, np.newaxis] * Q
    scale = np.diagonal(aQ, axis1=1, axis2=2).copy()  # curvature of each coordinate
    fixed = (scale <= 0.0) if shared else (scale <= 0.0) | (lo == hi)
    if fixed.any():
        scale[fixed] = 1.0
    else:
        fixed = None
    lam = np.minimum(np.maximum(v / scale, lo), hi)
    if fixed is not None:
        lam = np.where(fixed & (v > 0), hi, np.where(fixed & (v < 0), lo, lam))
    if not shared:  # an infinite bound can be the coordinatewise maximum
        unbounded = np.isinf(lam).any(axis=1)
        lam[unbounded] = 0.0
    g = _ascent(aQ, v, lam)
    r = _kkt(g, lam, lo, hi) if m else np.zeros(C)
    if not shared:
        r[unbounded] = np.nan
    if (r <= tol).all():  # the coordinatewise maxima already pass
        return lam, np.zeros(C, dtype=int), r
    # Newton matrices: `shifted` on free x free entries, `lone` elsewhere.
    shifted, lone = aQ.copy(), np.zeros_like(aQ)
    shifted.reshape(C, -1)[:, ::m + 1] = scale * (1.0 + _NEWTON_REG)
    lone.reshape(C, -1)[:, ::m + 1] = scale
    cells, out = np.arange(C), None  # out: (lam, iterations, residual) of retired cells
    for it in range(max_iter + 1):
        # converged, or failed (nan); at max_iter every cell stops and the loop returns
        stop = ~(r > tol) if it < max_iter else np.full(r.shape, True)
        if stop.any():
            res = np.where(np.isnan(r), np.inf, r)
            if out is None:
                if stop.all():  # the whole stack stops at once
                    return lam, np.full(C, it), res
                out = np.zeros((C, m)), np.zeros(C, dtype=int), np.zeros(C)
            done = cells[stop]
            out[0][done], out[1][done], out[2][done] = lam[stop], it, res[stop]
            if stop.all():
                return out
            keep = ~stop  # gather what later iterations read (not shared floats)
            cells, lam, g, r, aQ, shifted, lone, v, scale, lo, hi, fixed = (
                a[keep] if isinstance(a, np.ndarray) else a
                for a in (cells, lam, g, r, aQ, shifted, lone, v, scale, lo, hi, fixed))
        active = ((lam - lo) * scale < -g) | ((hi - lam) * scale < g)
        free = ~(active if fixed is None else active | fixed)
        d = _newton(shifted, lone, g, free)
        trial = np.minimum(np.maximum(lam + d, lo), hi)
        g_t = _ascent(aQ, v, trial)
        r_t = _kkt(g_t, trial, lo, hi)
        ok = r_t <= tol
        if not ok.all():
            # For a quadratic the increase is exactly (g + g_t)'step / 2.
            step = trial - lam
            lin = rowdot(g, step)
            ok |= (lin > 0.0) & (rowdot(g + g_t, step) >= 2.0 * _ARMIJO * lin)
        if not ok.all():
            b = ~ok
            lb, db = lam[b], d[b]
            lob, hib = (lo, hi) if shared else (lo[b], hi[b])
            blocked = free[b] & (((lb <= lob) & (db < 0.0)) | ((lb >= hib) & (db > 0.0)))
            if blocked.any():
                d[b] = db = _newton(shifted[b], lone[b], g[b], free[b] & ~blocked)
            t = _arc_max(aQ[b], v[b], lob, hib, lb, g[b], db)
            trial[b] = np.minimum(np.maximum(lb + t[:, np.newaxis] * db, lob), hib)
            g_t[b] = _ascent(aQ[b], v[b], trial[b])
            # No increase along the arc would repeat forever: the cell fails.
            r_t[b] = np.where((t > 0.0) & np.isfinite(t),
                              _kkt(g_t[b], trial[b], lob, hib), np.nan)
        lam, g, r = trial, g_t, r_t


def _newton(shifted, lone, g, free):
    """Newton steps of the free blocks; the other coordinates take their
    diagonal steps."""
    M = shifted if free.all() else np.where(
        free[:, :, np.newaxis] & free[:, np.newaxis, :], shifted, lone)
    return np.linalg.solve(M, g[..., np.newaxis])[..., 0]


def _arc_max(aQ, v, lo, hi, lam, g, d):
    """The t >= 0 that maximizes the objective along the projection arc
    P[lam + t d] (a projected search, exact for a QP): the arc is linear
    between the breakpoints at which coordinates reach their bounds, so the
    objective is a quadratic on each piece.  inf for an unbounded arc."""
    C = lam.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        brk = np.where(d != 0.0, np.where(d > 0.0, hi - lam, lo - lam) / d, np.inf)
    starts = np.concatenate([np.zeros((C, 1)), np.sort(brk, axis=1)], axis=1)
    reach = np.isfinite(starts)
    t0 = np.where(reach, starts, 0.0)
    length = np.concatenate([starts[:, 1:], np.full((C, 1), np.inf)], axis=1) - t0
    if isinstance(lo, np.ndarray):
        lo, hi = lo[:, np.newaxis], hi[:, np.newaxis]
    P = np.minimum(np.maximum(lam[:, np.newaxis] + t0[..., np.newaxis] * d[:, np.newaxis], lo),
                   hi)  # each piece's start
    D = np.where(brk[:, np.newaxis] > t0[..., np.newaxis], d[:, np.newaxis], 0.0)  # its direction
    gP = v[:, np.newaxis] - np.matmul(P, aQ)  # aQ is symmetric
    gain = 0.5 * ((g[:, np.newaxis] + gP) * (P - lam[:, np.newaxis])).sum(axis=2)
    slope = (gP * D).sum(axis=2)
    curv = (D * np.matmul(D, aQ)).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(slope > 0.0, np.minimum(np.where(curv > 0.0, slope / curv, np.inf), length),
                     0.0)
    # On a piece, the increase is s (slope - s curv / 2), with s curv <= slope.
    value = np.where(reach, gain + s * (slope - 0.5 * np.where(curv > 0.0, s * curv, 0.0)),
                     -np.inf)
    j = value.argmax(axis=1)
    return t0[np.arange(C), j] + s[np.arange(C), j]


def _ascent(aQ, v, lam):
    """Gradients v - (alpha Q) lam of a stack of box-QP objectives."""
    return v - matvec(aQ, lam)


def _kkt(g, lam, lo, hi):
    """Per-cell KKT residuals: |g| inside the box, the outward-pointing
    part at a bound (nothing for a coordinate pinned by lo = hi).  A NaN
    coordinate of lam takes |g|, so its residual is NaN, not 0."""
    return np.maximum(np.where(lam <= lo, 0.0, -g), np.where(lam >= hi, 0.0, g)).max(axis=1)


# ---------------------------------------------------------------------------
# Model steps


def truncated_step(x_k, fbar, gbar, lam_lb, alpha):
    """Clipped Polyak step x - min{alpha, (fbar - lam_lb)/||g||^2} g.

    ``alpha`` may be ``inf`` (pure Polyak stepping).  A zero gradient is
    only admissible when the value already sits at the lower bound.
    """
    if not alpha > 0:
        raise ValueError("stepsize must be positive")
    x_k = np.asarray(x_k, dtype=float)
    gbar = np.asarray(gbar, dtype=float)
    return truncated_steps(x_k[np.newaxis], np.array([fbar - lam_lb]),
                           gbar[np.newaxis], np.array([alpha], dtype=float))[0]


def truncated_steps(centers, gaps, gbars, alpha) -> np.ndarray:
    """truncated_step for a stack of C rows: centers and gbars (C, n), gaps
    (model value minus its floor) and alpha (C,).  Raises
    DegenerateSampleError if any row has a zero gradient above its floor.

    A NaN ratio takes the full stepsize, as Python's min does.
    """
    gsq = rowdot(gbars, gbars)
    if not gsq.all():
        flat = gsq == 0.0
        if np.any(flat & (gaps > 1e-12 * (1.0 + np.abs(gaps)))):
            raise DegenerateSampleError(
                "zero model gradient with value above the lower bound"
            )
        gsq = np.where(flat, np.inf, gsq)  # already at the floor: no step
    t = np.fmin(np.maximum(gaps, 0.0) / gsq, alpha)
    return centers - t[:, np.newaxis] * gbars


def rowdot(U, V) -> np.ndarray:
    """Row-wise inner products of two (C, n) stacks, one BLAS dot per row
    (the same call as ``u @ v`` on the rows alone)."""
    return np.matmul(U[:, np.newaxis, :], V[:, :, np.newaxis])[:, 0, 0]


def pam_step(x_k, model: models.BatchModel, alpha, tol: float = 1e-9) -> ProxResult:
    """Prox step on the average of per-sample truncated models via the dual
    box QP over [0, 1/m]."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("pam_step needs a finite positive stepsize")
    x_k = np.asarray(x_k, dtype=float)
    G = model.grads
    v = model.values + G @ (x_k - model.anchor)  # the pieces' values at x_k
    return _first(x_k[np.newaxis], G[np.newaxis], v[np.newaxis], np.array([alpha], dtype=float),
                  0.0, 1.0 / model.m, tol)


def box_dual_steps(centers, G, v, alpha, lo: float, hi: float, tol: float = 1e-9):
    """Prox steps x+ = argmin sum_i h(v_i + <g_i, x - center>) +
    ||x - center||^2 / (2 alpha) of C cells, h the support function of
    [lo, hi] (max(u, 0)/m for pam and halfspace, |u|/(2m) for absreg), with
    rows g_i in G (C, m, n), v (C, m) and alpha (C,).  Its dual is the box
    QP over [lo, hi]^m with Q = G G' (solve_box_qps on the shared box lo, hi);
    x+ = center - alpha G'lam.  Returns (x+, lam, iterations), no duality gap
    (``box_dual_gaps``); raises InnerSolveError if any cell's solve fails."""
    Gt = G.transpose(0, 2, 1)
    lam, iters, res = solve_box_qps(np.matmul(G, Gt), v, alpha, lo, hi, tol)
    if not (res <= tol).all():
        raise InnerSolveError(f"box QP did not converge (residual {res.max():.3e})")
    return centers + alpha[:, np.newaxis] * matvec(Gt, -lam), lam, iters


def box_dual_gaps(G, v, alpha, lam, lo: float, hi: float) -> np.ndarray:
    """Duality gaps (primal - dual) of box_dual_steps' solutions lam, for the one-cell API."""
    d = alpha[:, np.newaxis] * matvec(G.transpose(0, 2, 1), -lam)  # x+ - center
    u = v + matvec(G, d)
    # alpha lam'G G'lam = ||d||^2 / alpha
    support = np.add.reduce(hi * np.maximum(u, 0.0) + lo * np.minimum(u, 0.0), axis=1)
    return support - rowdot(v, lam) + rowdot(d, d) / alpha


def _first(centers, G, v, alpha, lo: float, hi: float, tol: float) -> ProxResult:
    """ProxResult of a one-cell box_dual_steps, with its duality gap."""
    x, lam, iters = box_dual_steps(centers, G, v, alpha, lo, hi, tol)
    gap = box_dual_gaps(G, v, alpha, lam, lo, hi)
    return ProxResult(x[0], lam=lam[0], duality_gap=float(gap[0]), inner_iterations=int(iters[0]))


def prox_step_linreg(x_k, A_b, b_b, alpha) -> np.ndarray:
    """Exact minimizer of (1/2m)||Ax - b||^2 + ||x - x_k||^2/(2 alpha).

    Solves the m x m system (Woodbury) when m < n, else the n x n normal
    system; the operator I/alpha + A'A/m is always positive definite.
    """
    return linreg_prox_stacked(*_one_cell("prox_step_linreg", x_k, A_b, b_b, alpha))[0]


def _one_cell(name, x_k, A_b, b_b, alpha):
    """The one-cell stacks (center, batch rows, labels, stepsize) of a batch
    prox's arguments; raises ValueError unless alpha is finite and positive."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"{name} needs a finite positive stepsize")
    return (np.asarray(x_k, dtype=float)[np.newaxis],
            np.atleast_2d(np.asarray(A_b, dtype=float))[np.newaxis],
            np.atleast_1d(np.asarray(b_b, dtype=float))[np.newaxis], np.array([float(alpha)]))


def linreg_prox_stacked(X, A, B, alpha) -> np.ndarray:
    """prox_step_linreg for C problems at once: centers X (C, n), batches
    A (C, m, n) and B (C, m), stepsizes alpha (C,).  Every product and solve
    is per problem, so each row equals its own single solve bit for bit.
    Raises InnerSolveError if any row fails its stationarity check."""
    m, n = A.shape[1:]
    At = A.transpose(0, 2, 1)
    c = 1.0 / alpha
    rhs = c[:, np.newaxis] * X + matvec(At, B) / m
    if m < n:
        K = (m * c)[:, np.newaxis, np.newaxis] * np.eye(m) + np.matmul(A, At)
        u = np.linalg.solve(K, matvec(A, rhs)[..., np.newaxis])[..., 0]
        x = (rhs - matvec(At, u)) / c[:, np.newaxis]
    else:
        M = c[:, np.newaxis, np.newaxis] * np.eye(n) + np.matmul(At, A) / m
        x = np.linalg.solve(M, rhs[..., np.newaxis])[..., 0]
    resid = c[:, np.newaxis] * (x - X) + matvec(At, matvec(A, x) - B) / m
    bound = 1e-10 * (1.0 + np.sqrt(rowdot(X, X))) * np.maximum(c, 1.0)
    if np.any(np.sqrt(rowdot(resid, resid)) > bound):
        raise InnerSolveError("linear prox stationarity residual too large")
    return x


def matvec(M, V):
    """Per-row matrix-vector products of (C, p, q) and (C, q) stacks."""
    return np.matmul(M, V[..., np.newaxis])[..., 0]


def prox_step_absreg(x_k, A_b, b_b, alpha, tol: float = 1e-9) -> ProxResult:
    """Full prox step for (1/2m)||Ax - b||_1 via the dual box QP over
    [-1/(2m), 1/(2m)]; x+ = x_k - alpha A' lam."""
    X, A, B, stepsizes = _one_cell("prox_step_absreg", x_k, A_b, b_b, alpha)
    c = 0.5 / A.shape[1]
    return _first(X, A, matvec(A, X) - B, stepsizes, -c, c, tol)


def prox_step_logistic(x_k, A_b, b_b, alpha, tol: float = 1e-9,
                       max_newton: int = 100) -> ProxResult:
    """Full prox step for (1/2m) sum log(1+exp(-b <a,x>)): the one-cell call
    of ``logistic_prox_steps``."""
    (x,), (gnorm,), (iters,) = logistic_prox_steps(
        *_one_cell("prox_step_logistic", x_k, A_b, b_b, alpha), tol, max_newton)
    # (1/alpha)-strong convexity turns the gradient norm into a gap bound.
    return ProxResult(x, duality_gap=0.5 * alpha * float(gnorm) ** 2, inner_iterations=int(iters))


def logistic_prox_steps(centers, A, b, alpha, tol: float = 1e-9, max_newton: int = 100):
    """(points, gradient norms, iterations) of C cells' logistic batch prox by
    ``problems.logistic_newton``; raises InnerSolveError if a cell ends above tol."""
    x, gnorm, iters = problems.logistic_newton(A, b, centers, alpha, tol, max_newton)
    if not (gnorm <= tol).all():
        raise InnerSolveError("logistic prox Newton did not converge "
                              f"(gradient norm {gnorm.max():.3e})")
    return x, gnorm, iters


# ---------------------------------------------------------------------------
# The step of a strategy: one factory for the optimizer engine's stacks and
# for one model


def stacked_step(inst, strategy, m: int, tol: float):
    """The step of a strategy on a stack of cells: step(A, Zc, alpha, idx)
    takes model anchors A and prox centers Zc (C, n), stepsizes alpha (C,)
    and batches idx (C, m), and returns the new points before projection or
    raises a solver error.  Pass the same array for A and Zc when the prox
    term is centered at the anchor.  Closed forms, the box-QP duals (pam,
    absreg and halfspace prox) and the logistic Newton run on the whole
    stack.  Iterate averaging (pia) is the m = 1 step of its per-sample
    model applied to every sample, averaged."""
    scheme, kind = strategy.scheme, strategy.kind
    if scheme == models.ITERATE_AVERAGE:
        # Built here, once per factory call, rather than in every step.
        single = stacked_step(inst, models.BatchStrategy(models.MODEL_OF_AVERAGE, kind), 1, tol)

        def pia(A, Zc, alpha, idx):
            C, m = idx.shape
            anchors = np.repeat(A, m, axis=0)
            centers = anchors if Zc is A else np.repeat(Zc, m, axis=0)
            parts = single(anchors, centers, np.repeat(alpha, m), idx.reshape(-1, 1))
            return np.add.reduce(parts.reshape(C, m, -1), axis=1) / m
        return pia
    if scheme == models.AVERAGE_OF_TRUNCATED and m > 1:
        def pam(A, Zc, alpha, idx):
            # Per-sample infima are 0: the box dual of the truncated pieces.
            vals, grads = problems.stacked_losses(inst, A, idx)
            if Zc is not A:  # the pieces' values at the prox center
                vals = vals + matvec(grads, Zc - A)
            return box_dual_steps(Zc, grads, vals, alpha, 0.0, 1.0 / m, tol)[0]
        return pam
    if scheme == models.MODEL_OF_AVERAGE and kind == models.FULL_PROX:
        return lambda A, Zc, alpha, idx: full_prox_steps(inst, Zc, idx, alpha, tol)
    linear = scheme == models.MODEL_OF_AVERAGE and kind == models.LINEAR

    def model_of_average(A, Zc, alpha, idx):
        # The linear or truncated model of the batch average (pam at m = 1
        # is the same truncated step).
        vals, grads = problems.stacked_losses(inst, A, idx)
        inv_m = 1.0 / idx.shape[1]
        gbar = np.add.reduce(grads, axis=1) * inv_m
        if linear:
            return Zc - alpha[:, np.newaxis] * gbar
        fbar = np.add.reduce(vals, axis=1) * inv_m
        if Zc is not A:  # the model's value at the prox center
            fbar = fbar + rowdot(gbar, Zc - A)
        return truncated_steps(Zc, fbar, gbar, alpha)
    return model_of_average


def solve_model_prox(model: models.BatchModel, center, alpha,
                     tol: float = 1e-9) -> ProxResult:
    """Minimize model + ||x - center||^2/(2 alpha) over all of R^n: the
    engine's ``stacked_step`` for one cell, on the model's anchor and batch.

    ``center`` may differ from the model anchor (the accelerated iteration
    centers the prox term at the auxiliary sequence).
    """
    anchor = model.anchor[np.newaxis]
    center = np.asarray(center, dtype=float)[np.newaxis]
    step = stacked_step(model.inst, model.strategy, model.m, tol)
    return ProxResult(step(anchor, anchor if np.array_equal(center, anchor) else center,
                           np.array([alpha], dtype=float), model.batch[np.newaxis])[0])


def full_prox_steps(inst, centers, idx, alpha, tol: float = 1e-9) -> np.ndarray:
    """Exact prox steps on the batch-averaged losses of C cells: centers
    (C, n), batches idx (C, m) and stepsizes alpha (C,).  One sample is a 1-d
    root, linreg a linear system, absreg and halfspace a box dual (halfspace
    distances are globally max{affine, 0}, so theirs is the pam dual with
    signed affine values), logistic one stacked damped Newton."""
    m = idx.shape[1]
    if m == 1:
        return single_sample_prox(inst, centers, idx[:, 0], alpha)
    if not np.isfinite(alpha).all():
        raise ValueError("a batch full prox needs finite stepsizes")
    rows, b = inst.A[idx], inst.b[idx]
    if inst.kind == problems.LINREG:
        return linreg_prox_stacked(centers, rows, b, alpha)
    if inst.kind == problems.LOGISTIC:
        return logistic_prox_steps(centers, rows, b, alpha, tol)[0]
    r = matvec(rows, centers) - b
    if inst.kind == problems.ABSREG:
        return box_dual_steps(centers, rows, r, alpha, -0.5 / m, 0.5 / m, tol)[0]
    if inst.kind == problems.HALFSPACE:
        nrm = inst.row_norms[idx]
        return box_dual_steps(centers, rows / nrm[..., np.newaxis], r / nrm, alpha,
                              0.0, 1.0 / m, tol)[0]
    raise ValueError(
        f"no batch full-prox solver for {inst.kind!r}; use m=1 or another model"
    )


# ---------------------------------------------------------------------------
# Vectorized single-sample prox solves (the full prox at m = 1, which iterate
# averaging takes per sample)


def single_sample_prox(inst, centers: np.ndarray, idx: np.ndarray, alpha) -> np.ndarray:
    """Exact per-sample full-prox solutions from per-sample centers.

    ``centers`` has shape (m, n) (one prox center per sample; iterate
    averaging passes m copies of a cell's point) and ``alpha`` is a scalar
    or one stepsize per sample.  All solves reduce to one-dimensional
    problems along the sample direction, and each row's solution depends
    only on that row.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    idx = np.asarray(idx, dtype=int)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), idx.shape)
    if inst.kind != problems.HALFSPACE and not np.all(np.isfinite(alpha)):
        raise ValueError("full prox with infinite stepsize is not supported")
    rows, b = inst.A[idx], inst.b[idx]
    az = np.einsum("ij,ij->i", rows, centers)
    r = az - b
    asq = np.einsum("ij,ij->i", rows, rows)
    if inst.kind in (problems.ABSREG, problems.HALFSPACE):
        safe_asq = np.where(asq > 0, asq, 1.0)

    if inst.kind == problems.LINREG:
        t = alpha * r / (1.0 + alpha * asq)
    elif inst.kind == problems.ABSREG:
        lam = np.clip(r / (alpha * safe_asq), -0.5, 0.5)
        t = alpha * lam
    elif inst.kind == problems.HALFSPACE:
        nrm = np.sqrt(safe_asq)
        d0 = np.maximum(r, 0.0) / nrm
        t = np.minimum(alpha, d0) / nrm  # an infinite alpha projects
    elif inst.kind == problems.LOGISTIC:
        t = _logistic_single_prox_t(b, az, asq, alpha)
    elif inst.kind in (problems.POWER, problems.TWOPOINT):
        t = _power_single_prox_t(r, asq, alpha, inst.gamma)
    else:
        raise ValueError(f"no single-sample prox for kind {inst.kind!r}")
    return centers - t[:, np.newaxis] * rows


def _logistic_single_prox_t(b, az, asq, alpha, max_iter: int = 100):
    """t with x = z - t a minimizing the single-sample logistic prox; az =
    <a, z>, vectorized over the entries (alpha is a scalar or one stepsize
    per entry).

    Stationarity gives t = -(alpha b / 2) expit(v) at v = -b <a, x> (minus
    the margin), the root of g(v) = v + c + k expit(v) with c = b az and
    k = alpha asq / 2.  g is increasing, convex for v <= 0 and concave for
    v >= 0.  A root above 0 (g(0) < 0) is mapped to one below by the
    reflection v -> -v, c -> -c - k, which keeps the form of g.  Newton from
    v = min(-c, 0), where g >= 0, then decreases monotonically to the root
    without safeguards.  A step is taken only while it moves v left, so each
    entry ends at a fixed point of its own iteration, whatever the others
    do; raises InnerSolveError if max_iter steps do not reach one everywhere.
    """
    c = b * az
    k = 0.5 * alpha * asq
    flip = c + 0.5 * k < 0
    c = np.where(flip, -c - k, c)
    v = np.minimum(-c, 0.0)
    for _ in range(max_iter):
        # expit(v) for v <= 0 (true here) in fewer calls: the same bits, no warnings
        e = np.exp(np.maximum(v, -708.0))
        s = e / (1.0 + e)
        s[v < -708.0] = 0.0
        ks = k * s
        v_next = v - np.maximum((v + c + ks) / (1.0 + ks * (1.0 - s)), 0.0)
        if (v_next == v).all():  # expit(-v) = 1 / (1 + e) for the reflected entries
            return -0.5 * alpha * b * np.where(flip, 1.0 / (1.0 + e), s)
        v = v_next
    raise InnerSolveError("single-sample logistic prox did not converge")


def _power_single_prox_t(r, asq, alpha, gamma, iters: int = 100):
    """Bisection for the 1-d power-loss prox along the sample direction.

    Finds t with  -|r - t*asq|^gamma sign(r - t*asq) + t/alpha = 0 scaled by
    asq; the solution lies between 0 and r/asq.
    """
    safe = np.where(asq > 0, asq, 1.0)
    lo = np.minimum(0.0, r / safe)
    hi = np.maximum(0.0, r / safe)

    def psi(t):
        res = r - t * asq
        return t / alpha - np.abs(res) ** gamma * np.sign(res)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        neg = psi(mid) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(asq > 0, out, 0.0)


def pia_step(inst, x_k, idx, kind: str, alpha) -> np.ndarray:
    """Iterate-averaging update: solve the m single-sample prox subproblems
    from the same point and average the solutions (``stacked_step`` for one
    cell)."""
    if kind == models.LINEAR and not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("linear model needs a finite positive stepsize")
    x_k = np.asarray(x_k, dtype=float)[np.newaxis]
    idx = np.asarray(idx, dtype=int)[np.newaxis]
    step = stacked_step(inst, models.pia(kind), idx.shape[1], 1e-9)
    return step(x_k, x_k, np.array([alpha], dtype=float), idx)[0]


# ---------------------------------------------------------------------------
# Polyhedron projection (used to measure distances to halfspace intersections)


def project_polyhedron(A, b, x, tol: float = 1e-10, max_sweeps: int = 500):
    """Euclidean projection onto {y : Ay <= b} via the nonnegative dual QP."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    viol = A @ x - b
    if np.all(viol <= 0):
        return x.copy()
    # Only constraints that could be active matter; keep it simple and exact.
    qp = BoxQP(Q=A @ A.T, v=viol, alpha=1.0,
               lo=np.zeros(b.size), hi=np.full(b.size, np.inf))
    lam, info = solve_box_qp(qp, tol=tol, max_sweeps=max_sweeps)
    if not info.converged:
        raise InnerSolveError("polyhedron projection QP did not converge")
    return x - A.T @ lam
