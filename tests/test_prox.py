import dataclasses
import math

import numpy as np
import pytest
from helpers import grid_minimize, primal_fn
from hypothesis import given, settings
from hypothesis import strategies as st

from batchprox import models, problems, prox


class TestTruncatedStep:
    def test_at_floor_no_move(self):
        x = np.array([1.0, -1.0])
        out = prox.truncated_step(x, 0.0, np.array([0.3, 0.1]), 0.0, 2.0)
        np.testing.assert_array_equal(out, x)

    def test_1d_grid_oracle(self):
        # min max{2 + (y - 2), 0} + (y - 2)^2 / 20  ->  y = 0
        out = prox.truncated_step(np.array([2.0]), 2.0, np.array([1.0]), 0.0,
                                  10.0)
        ys = np.arange(-3.0, 5.0, 1e-5)
        obj = np.maximum(2.0 + (ys - 2.0), 0.0) + (ys - 2.0) ** 2 / 20.0
        assert out[0] == pytest.approx(ys[np.argmin(obj)], abs=2e-5)
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_linear_when_truncation_inactive(self):
        x = np.array([0.0, 0.0])
        g = np.array([1.0, 0.0])
        out = prox.truncated_step(x, 100.0, g, 0.0, 0.5)
        np.testing.assert_array_equal(out, x - 0.5 * g)

    def test_infinite_alpha_polyak(self):
        out = prox.truncated_step(np.array([3.0]), 3.0, np.array([1.0]), 0.0,
                                  math.inf)
        assert out[0] == pytest.approx(0.0)

    def test_zero_gradient_above_floor_raises(self):
        with pytest.raises(prox.DegenerateSampleError):
            prox.truncated_step(np.zeros(2), 1.0, np.zeros(2), 0.0, 1.0)
        # Two residuals of opposite sign on one row: the batch gradient is 0.
        inst = problems.make_custom_linreg([[1.0, 0.0], [1.0, 0.0]], [1.0, -1.0])
        model = models.build_batch_model(inst, np.zeros(2), np.array([0, 1]), models.pma())
        with pytest.raises(prox.DegenerateSampleError):
            prox.solve_model_prox(model, np.zeros(2), 1.0)


class TestBoxQP:
    def test_zero_linear_term(self):
        qp = prox.BoxQP(np.eye(3), np.zeros(3), 1.0, np.zeros(3),
                        np.full(3, 1 / 3))
        lam, info = prox.solve_box_qp(qp)
        np.testing.assert_array_equal(lam, np.zeros(3))
        assert info.converged

    def test_identity_example_against_grid(self):
        # maximize -(1/2)|l|^2 + <v, l> over [0, 1/2]^2 with v = (1, 1)
        qp = prox.BoxQP(np.eye(2), np.ones(2), 1.0, np.zeros(2), np.full(2, 0.5))
        lam, info = prox.solve_box_qp(qp, tol=1e-12)
        ls = np.linspace(0, 0.5, 501)
        g1, g2 = np.meshgrid(ls, ls, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
        vals = -0.5 * (pts**2).sum(axis=1) + pts.sum(axis=1)
        best = pts[np.argmax(vals)]
        np.testing.assert_allclose(lam, best, atol=1e-3)
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)
        grad = qp.v - qp.alpha * (qp.Q @ lam)
        assert np.all(grad >= -1e-12)  # at the upper bound

    def test_m1_polyak_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gsq = rng.uniform(0.1, 5.0)
            v = rng.uniform(-1.0, 3.0)
            a = rng.uniform(0.1, 4.0)
            qp = prox.BoxQP(np.array([[gsq]]), np.array([v]), a,
                            np.zeros(1), np.ones(1))
            lam, info = prox.solve_box_qp(qp, tol=1e-14)
            closed = min(max(v / (a * gsq), 0.0), 1.0)
            assert lam[0] == pytest.approx(closed, abs=1e-12)

    def test_random_psd_kkt(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            G = rng.standard_normal((int(rng.integers(1, 6)), m))
            qp = prox.BoxQP(G.T @ G + 1e-12 * np.eye(m), rng.standard_normal(m),
                            float(rng.uniform(0.05, 3.0)), np.zeros(m),
                            np.full(m, 1.0 / m))
            lam, info = prox.solve_box_qp(qp, tol=1e-10)
            assert info.converged
            assert qp.kkt_residual(lam) <= 1e-10

    def test_zero_diagonal_fallback(self):
        # One all-zero row/column: its term is linear, so it sits exactly at
        # the endpoint given by the sign of v.
        Q = np.zeros((2, 2))
        Q[0, 0] = 2.0
        qp = prox.BoxQP(Q, np.array([1.0, 0.5]), 1.0, np.zeros(2), np.ones(2))
        lam, info = prox.solve_box_qp(qp, tol=1e-6, max_sweeps=200_000)
        assert info.converged
        np.testing.assert_array_equal(lam, [0.5, 1.0])

    def test_unbounded_dual_is_flagged(self):
        # A zero column with v > 0 and no upper bound: the dual is unbounded.
        qp = prox.BoxQP(np.diag([1.0, 0.0]), np.array([1.0, 2.0]), 1.0,
                        np.zeros(2), np.full(2, np.inf))
        lam, info = prox.solve_box_qp(qp)
        assert not info.converged
        assert np.all(np.isfinite(lam))

    def test_pinned_coordinate(self):
        # lo = hi pins a coordinate whatever its gradient.
        qp = prox.BoxQP(np.eye(2), np.array([-3.0, 0.25]), 1.0,
                        np.array([0.5, 0.0]), np.array([0.5, 1.0]))
        lam, info = prox.solve_box_qp(qp, tol=1e-12)
        assert info.converged
        np.testing.assert_allclose(lam, [0.5, 0.25], atol=1e-15)
        assert qp.kkt_residual(lam) == 0.0

    def test_infinite_upper_bound(self):
        qp = prox.BoxQP(np.eye(2), np.array([3.0, -1.0]), 1.0, np.zeros(2),
                        np.full(2, np.inf))
        lam, info = prox.solve_box_qp(qp, tol=1e-12)
        np.testing.assert_allclose(lam, [3.0, 0.0], atol=1e-12)


def _coordinate_ascent(qp, tol=1e-11, max_sweeps=20_000):
    """Reference: cyclic coordinate ascent with exact clipped 1-d maxima (a
    zero diagonal takes the endpoint of the sign of v).  Every step keeps
    the iterate feasible and does not lower the objective."""
    m = qp.v.size
    lam = np.clip(np.zeros(m), qp.lo, qp.hi)
    a, Q, v = qp.alpha, qp.Q, qp.v
    q = Q @ lam
    for _ in range(max_sweeps):
        for i in range(m):
            if Q[i, i] > 0:
                new = (v[i] - a * (q[i] - Q[i, i] * lam[i])) / (a * Q[i, i])
            else:
                new = math.copysign(math.inf, v[i]) if v[i] else lam[i]
            new = min(max(new, qp.lo[i]), qp.hi[i])
            if new != lam[i]:
                q += Q[:, i] * (new - lam[i])
                lam[i] = new
        if qp.kkt_residual(lam) <= tol:
            return lam, True
    return lam, False


@st.composite
def box_qps(draw):
    """Box QPs Q = G G' with m in [1, 64], n in [1, 40] (m > n included),
    rows of G rescaled, duplicated or zeroed, alpha in [1e-3, 1e3], and the
    boxes [0, 1/m], [-c, c] and [0, inf) (the last with a bounded dual:
    v = G x - b for a polyhedron G y <= b that holds a point)."""
    m = draw(st.integers(1, 64))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((m, n)) * np.exp(rng.uniform(-1.0, 1.0, m))[:, np.newaxis]
    if draw(st.booleans()):
        k = int(rng.integers(1, m + 1))
        G[rng.integers(0, m, k)] = G[rng.integers(0, m, k)]
    if draw(st.booleans()):
        G[rng.random(m) < 0.25] = 0.0
    alpha = 10.0 ** draw(st.floats(-3.0, 3.0))
    box = draw(st.sampled_from(["simplex", "symmetric", "halfline"]))
    if box == "simplex":
        lo, hi, v = np.zeros(m), np.full(m, 1.0 / m), rng.uniform(-0.5, 2.0, m)
    elif box == "symmetric":
        c = float(rng.uniform(0.1, 2.0))
        lo, hi, v = np.full(m, -c), np.full(m, c), rng.standard_normal(m)
    else:
        y = rng.standard_normal(n)
        b = G @ y + rng.uniform(0.0, 1.0, m)
        lo, hi, v = np.zeros(m), np.full(m, np.inf), G @ (y + rng.standard_normal(n)) - b
    return prox.BoxQP(G @ G.T, v, alpha, lo, hi)


class TestProjectedNewton:
    @given(box_qps())
    @settings(max_examples=60, deadline=None)
    def test_kkt_and_reference_objective(self, qp):
        lam, info = prox.solve_box_qp(qp, tol=1e-9)
        assert info.converged
        assert qp.kkt_residual(lam) <= 1e-9
        assert np.all((qp.lo <= lam) & (lam <= qp.hi))
        ref, ref_converged = _coordinate_ascent(qp)
        f, f_ref = qp.objective(lam), qp.objective(ref)
        scale = max(1.0, abs(f_ref))
        # The reference is feasible, so the maximum is at least its value.
        assert f >= f_ref - 1e-9 * scale
        if ref_converged:
            assert abs(f - f_ref) <= 1e-9 * scale

    @given(box_qps(), box_qps(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_stacked_rows_equal_lone_solves(self, qp, other, where):
        # Stack the QP with one of a different difficulty (same m) and one
        # with a different alpha; each row must equal its lone solve.
        m = qp.v.size
        if other.v.size != m:
            other = prox.BoxQP(qp.Q[::-1, ::-1], qp.v[::-1], qp.alpha, qp.lo, qp.hi)
        scaled = prox.BoxQP(qp.Q, qp.v, 7.0 * qp.alpha, qp.lo, qp.hi)
        qps = [other, scaled]
        qps.insert(where, qp)
        lam, iters, res = prox.solve_box_qps(
            np.stack([q.Q for q in qps]), np.stack([q.v for q in qps]),
            np.array([q.alpha for q in qps]), np.stack([q.lo for q in qps]),
            np.stack([q.hi for q in qps]), 1e-9)
        for c, q in enumerate(qps):
            alone, info = prox.solve_box_qp(q, tol=1e-9)
            np.testing.assert_array_equal(lam[c], alone)
            assert iters[c] == info.sweeps
            assert res[c] == info.residual

    def test_cells_that_pass_at_the_start_equal_lone_solves(self, monkeypatch):
        # Diagonal Q: the coordinatewise maxima are the solution (with zero
        # diagonals fixed at an endpoint), so those cells take 0 iterations.
        # Full-rank Q needs Newton steps; rank-2 Q at m = 6 needs arc steps.
        arcs = []
        real_arc = prox._arc_max

        def counting_arc(aQ, *args):
            arcs.append(aQ.shape[0])
            return real_arc(aQ, *args)

        def cell(rng, kind, m=6):
            if kind == "diag":
                Q = np.diag(rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.8))
            else:
                G = rng.standard_normal((m, 8 if kind == "full" else 2))
                Q = G @ G.T
            lo, hi = ((-0.5 / m, 0.5 / m) if rng.random() < 0.5 else (0.0, 1.0 / m))
            return (Q, rng.uniform(-1.0, 2.0, m), 10.0 ** rng.uniform(-1.0, 3.0),
                    np.full(m, lo), np.full(m, hi))

        def solve(cells):
            Q, v, alpha, lo, hi = (np.array(part) for part in zip(*cells))
            return prox.solve_box_qps(Q, v, alpha, lo, hi, 1e-9)

        monkeypatch.setattr(prox, "_arc_max", counting_arc)
        stacks = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            kinds = ["diag"] * 5 + ["full"] * 5 + ["low"] * 10
            order = rng.permutation(len(kinds))
            stacks.append([(kinds[i], cell(rng, kinds[i])) for i in order])
        rng = np.random.default_rng(9)
        stacks.append([("diag", cell(rng, "diag")) for _ in range(3)])
        most = 0
        for stack in stacks:
            del arcs[:]
            kinds, cells = zip(*stack)
            lam, iters, res = solve(cells)
            # A stack of passing cells returns before any Newton step.
            assert (sum(arcs) > 0) == (set(kinds) != {"diag"})
            for c, one in enumerate(cells):
                lam1, iters1, res1 = solve([one])
                assert lam[c].tobytes() == lam1[0].tobytes()
                assert iters[c] == iters1[0] and res[c] == res1[0]
                if kinds[c] == "diag":
                    assert iters[c] == 0 and res[c] <= 1e-9
            assert np.all(res <= 1e-9)
            most = max(most, iters.max())
        assert most >= 2
        lam, iters, res = prox.solve_box_qps(np.zeros((2, 0, 0)), np.zeros((2, 0)),
                                             np.ones(2), np.zeros((2, 0)),
                                             np.zeros((2, 0)), 1e-9)
        assert lam.shape == (2, 0) and iters.tolist() == [0, 0] and res.tolist() == [0, 0]

    def test_box_dual_steps_stack_and_failure(self):
        rng = np.random.default_rng(21)
        C, m, n = 4, 6, 3
        G = rng.standard_normal((C, m, n))
        G[1, 2] = G[1, 4]  # a duplicated sample
        G[2, 0] = 0.0      # a zero gradient
        centers = rng.standard_normal((C, n))
        v = rng.uniform(-0.5, 2.0, (C, m))
        alpha = np.array([0.1, 1.0, 10.0, 100.0])
        x, ok, lam, iters = prox.box_dual_steps(centers, G, v, alpha, 0.0, 1.0 / m)
        assert ok is None
        gap = prox.box_dual_gaps(G, v, alpha, lam, 0.0, 1.0 / m)
        for c in range(C):
            one = (G[c:c + 1], v[c:c + 1], alpha[c:c + 1])
            xc, _, lc, ic = prox.box_dual_steps(centers[c:c + 1], *one, 0.0, 1.0 / m)
            gc = prox.box_dual_gaps(*one, lc, 0.0, 1.0 / m)
            np.testing.assert_array_equal(x[c], xc[0])
            np.testing.assert_array_equal(lam[c], lc[0])
            assert gap[c] == gc[0] and iters[c] == ic[0]
            np.testing.assert_allclose(
                x[c], centers[c] - alpha[c] * (G[c].T @ lam[c]), rtol=1e-14, atol=1e-14)
        assert np.all(np.abs(gap) <= 1e-8)
        v[3, 1] = np.nan  # one cell that cannot be solved fails alone, at its center
        with np.errstate(all="raise"):
            xf, ok, _, _ = prox.box_dual_steps(centers, G, v, alpha, 0.0, 1.0 / m)
        assert ok.tolist() == [True, True, True, False]
        np.testing.assert_array_equal(xf[:3], x[:3])
        np.testing.assert_array_equal(xf[3], centers[3])

def _reference_solve_box_qps(Q, v, alpha, lo, hi, tol, max_iter=500):
    """Reference projected Newton for solve_box_qps to match byte for byte:
    per-coordinate bounds only, every retired cell scattered into output
    arrays, the gathered state always complete."""
    C, m = v.shape
    iters, res = np.zeros(C, dtype=int), np.zeros(C)
    aQ = alpha[:, np.newaxis, np.newaxis] * Q
    scale = np.diagonal(aQ, axis1=1, axis2=2).copy()
    fixed = (scale <= 0.0) | (lo == hi)
    scale[fixed] = 1.0
    lam = np.minimum(np.maximum(v / scale, lo), hi)
    if fixed.any():
        lam = np.where(fixed & (v > 0), hi, np.where(fixed & (v < 0), lo, lam))
    unbounded = np.isinf(lam).any(axis=1)
    lam[unbounded] = 0.0
    g = prox._ascent(aQ, v, lam)
    r = np.where(unbounded, np.nan, prox._kkt(g, lam, lo, hi)) if m else res.copy()
    if (r <= tol).all():
        return lam, iters, r
    shifted, lone = aQ.copy(), np.zeros_like(aQ)
    shifted.reshape(C, -1)[:, ::m + 1] = scale * (1.0 + prox._NEWTON_REG)
    lone.reshape(C, -1)[:, ::m + 1] = scale
    lam_out = np.zeros((C, m))
    cells, const = np.arange(C), (aQ, shifted, lone, v, lo, hi, scale, fixed)

    def newton(shifted, lone, g, free):
        M = np.where(free[:, :, np.newaxis] & free[:, np.newaxis, :], shifted, lone)
        return np.linalg.solve(M, g[..., np.newaxis])[..., 0]

    for it in range(max_iter + 1):
        stop = ~(r > tol)
        if it == max_iter:
            stop[:] = True
        if stop.any():
            done = cells[stop]
            lam_out[done], iters[done] = lam[stop], it
            res[done] = np.where(np.isnan(r[stop]), np.inf, r[stop])
            if stop.all():
                break
            keep = ~stop
            cells, lam, g, r = cells[keep], lam[keep], g[keep], r[keep]
            const = tuple(a[keep] for a in const)
        aQ, shifted, lone, v, lo, hi, scale, fixed = const
        free = ~(((lam - lo) * scale < -g) | ((hi - lam) * scale < g) | fixed)
        d = newton(shifted, lone, g, free)
        trial = np.minimum(np.maximum(lam + d, lo), hi)
        g_t = prox._ascent(aQ, v, trial)
        r_t = prox._kkt(g_t, trial, lo, hi)
        ok = r_t <= tol
        if not ok.all():
            step = trial - lam
            lin = prox.rowdot(g, step)
            ok |= (lin > 0.0) & (prox.rowdot(g + g_t, step) >= 2.0 * prox._ARMIJO * lin)
        if not ok.all():
            b = ~ok
            lb, db = lam[b], d[b]
            blocked = free[b] & (((lb <= lo[b]) & (db < 0.0)) | ((lb >= hi[b]) & (db > 0.0)))
            if blocked.any():
                d[b] = db = newton(shifted[b], lone[b], g[b], free[b] & ~blocked)
            t = _reference_arc_max(aQ[b], v[b], lo[b], hi[b], lb, g[b], db)
            trial[b] = np.minimum(np.maximum(lb + t[:, np.newaxis] * db, lo[b]), hi[b])
            with np.errstate(invalid="ignore"):  # an unbounded arc: infinite trial, failed cell
                g_t[b] = prox._ascent(aQ[b], v[b], trial[b])
            r_t[b] = np.where((t > 0.0) & np.isfinite(t),
                              prox._kkt(g_t[b], trial[b], lo[b], hi[b]), np.nan)
        lam, g, r = trial, g_t, r_t
    return lam_out, iters, res


def _reference_arc_max(aQ, v, lo, hi, lam, g, d):
    """The projected arc search of _reference_solve_box_qps (per-coordinate bounds)."""
    C = lam.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        brk = np.where(d != 0.0, np.where(d > 0.0, hi - lam, lo - lam) / d, np.inf)
    starts = np.concatenate([np.zeros((C, 1)), np.sort(brk, axis=1)], axis=1)
    reach = np.isfinite(starts)
    t0 = np.where(reach, starts, 0.0)
    length = np.concatenate([starts[:, 1:], np.full((C, 1), np.inf)], axis=1) - t0
    P = np.minimum(np.maximum(lam[:, np.newaxis] + t0[..., np.newaxis] * d[:, np.newaxis],
                              lo[:, np.newaxis]), hi[:, np.newaxis])
    D = np.where(brk[:, np.newaxis] > t0[..., np.newaxis], d[:, np.newaxis], 0.0)
    gP = v[:, np.newaxis] - np.matmul(P, aQ)
    gain = 0.5 * ((g[:, np.newaxis] + gP) * (P - lam[:, np.newaxis])).sum(axis=2)
    slope = (gP * D).sum(axis=2)
    curv = (D * np.matmul(D, aQ)).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(slope > 0.0, np.minimum(np.where(curv > 0.0, slope / curv, np.inf), length),
                     0.0)
    value = np.where(reach, gain + s * (slope - 0.5 * np.where(curv > 0.0, s * curv, 0.0)),
                     -np.inf)
    j = value.argmax(axis=1)
    return t0[np.arange(C), j] + s[np.arange(C), j]


def _assert_reference_bytes(Q, v, alpha, lo, hi, tol=1e-9):
    """solve_box_qps returns the reference's bytes, with the bounds as
    arrays and, where every coordinate of every cell shares one finite box,
    as two floats.  Returns the reference's (lam, iterations, residual)."""
    ref = _reference_solve_box_qps(Q, v, alpha, lo, hi, tol)
    runs = [(lo, hi)]
    if lo.size and np.all(lo == lo.flat[0]) and np.all(hi == hi.flat[0]) \
            and np.isfinite([lo.flat[0], hi.flat[0]]).all():
        runs.append((float(lo.flat[0]), float(hi.flat[0])))
    for bounds in runs:
        out = prox.solve_box_qps(Q, v, alpha, *bounds, tol)
        for a, b in zip(out, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return ref


def _low_rank_cell(rng, m):
    """A cell of the random low-rank stress family: rank(Q) <= 3, alpha up to
    1e3 and a box [-c, c]."""
    G = rng.standard_normal((m, int(rng.integers(1, 4))))
    c = float(rng.uniform(0.1, 2.0))
    return G @ G.T, rng.standard_normal(m), 10.0 ** rng.uniform(-3.0, 3.0), -c, c


def _reference_box_dual_gap(G, v, alpha, lam, lo, hi):
    """Reference duality gap of a box-dual step: d = alpha G'(-lam), the support
    term of u = v + G d, minus lam'v, plus ||d||^2 / alpha."""
    Gt = G.transpose(0, 2, 1)
    d = alpha[:, np.newaxis] * np.matmul(Gt, -lam[..., np.newaxis])[..., 0]
    u = v + np.matmul(G, d[..., np.newaxis])[..., 0]
    support = np.add.reduce(hi * np.maximum(u, 0.0) + lo * np.minimum(u, 0.0), axis=1)
    dot = lambda a, b: np.matmul(a[:, np.newaxis, :], b[:, :, np.newaxis])[:, 0, 0]  # noqa: E731
    return d, support - dot(v, lam) + dot(d, d) / alpha


class TestBoxDualRework:
    @given(box_qps(), box_qps(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_qps_keep_the_reference_bytes(self, qp, other, where):
        _assert_reference_bytes(qp.Q[np.newaxis], qp.v[np.newaxis], np.array([qp.alpha]),
                             qp.lo[np.newaxis], qp.hi[np.newaxis])
        m = qp.v.size
        if other.v.size != m:
            other = prox.BoxQP(qp.Q[::-1, ::-1], qp.v[::-1], qp.alpha, qp.lo, qp.hi)
        qps = [prox.BoxQP(other.Q, other.v, other.alpha, qp.lo, qp.hi),
               prox.BoxQP(qp.Q, qp.v, 7.0 * qp.alpha, qp.lo, qp.hi)]
        qps.insert(where, qp)
        _assert_reference_bytes(*(np.stack([getattr(q, f) for q in qps])
                               for f in ("Q", "v", "alpha", "lo", "hi")))

    def test_unbounded_arc_fails_its_cell_without_a_warning(self):
        # A case Hypothesis found: on [0, inf) the dual of (Q, v) is
        # unbounded, the arc search leaves an infinite trial point, and its
        # gradient took an "invalid value" warning from the matmul.
        Q = np.array([
            [0.08239658964793184, -0.04693492004517425, 0.2909105571940927,
             0.03285661188757113, -0.3670713935094176],
            [-0.04693492004517425, 0.02673516864058939, -0.1657090882103583,
             -0.018715852907113376, 0.2090919852247507],
            [0.2909105571940927, -0.1657090882103583, 1.027092900914761,
             0.1160040156099262, -1.2959874197720154],
            [0.03285661188757113, -0.018715852907113376, 0.1160040156099262,
             0.013101961493106258, -0.14637404731315304],
            [-0.3670713935094176, 0.2090919852247507, -1.2959874197720154,
             -0.14637404731315304, 1.6352789418673195]])
        v = np.array([1.5396338853038305, -0.49315374957462976, 1.6435106914689235,
                      -0.4160360617363391, 1.32413861607486])
        lo, hi = np.zeros(5), np.full(5, np.inf)
        lam, iters, res = _assert_reference_bytes(Q[np.newaxis], v[np.newaxis],
                                                  np.array([1.0]), lo[np.newaxis],
                                                  hi[np.newaxis])
        assert res.tolist() == [np.inf] and np.isinf(lam).all()
        stack = _assert_reference_bytes(np.stack([Q] * 3), np.stack([-v, v, -v]),
                                        np.array([1.0, 1.0, 7.0]), np.stack([lo] * 3),
                                        np.stack([hi] * 3))
        assert stack[2][1] == np.inf and np.isfinite(stack[2][::2]).all()

    def test_shuffled_stacks_keep_the_reference_bytes(self, monkeypatch):
        # Stacks that mix cells passing at the start, Newton cells, arc-search
        # cells of the low-rank family, cells with zero columns (fixed at an
        # endpoint), pinned coordinates (lo = hi), hi = inf (some of those
        # duals unbounded) and a NaN cell, so that cells retire at different
        # iterations.
        arcs = []
        real_arc = prox._arc_max

        def counting_arc(aQ, *args):
            arcs.append(aQ.shape[0])
            return real_arc(aQ, *args)

        def cell(rng, kind, m, box):
            if kind == "low":
                Q, v, alpha, _, _ = _low_rank_cell(rng, m)
            else:
                G = rng.standard_normal((m, m + 2 if kind == "full" else 2))
                if kind == "zero":
                    G[rng.random(m) < 0.3] = 0.0
                Q = np.diag(rng.uniform(0.5, 2.0, m)) if kind == "diag" else G @ G.T
                v, alpha = rng.uniform(-1.0, 2.0, m), 10.0 ** rng.uniform(-1.0, 3.0)
                if kind == "nan":
                    v[rng.integers(m)] = np.nan
            if box == "pinned":
                lo, hi = np.full(m, -0.5), np.full(m, 0.5)
                pin = rng.random(m) < 0.3
                lo[pin] = hi[pin] = rng.uniform(-0.5, 0.5, pin.sum())
            else:
                lo, hi = np.full(m, box[0]), np.full(m, box[1])
            return Q, v, alpha, lo, hi

        monkeypatch.setattr(prox, "_arc_max", counting_arc)
        kinds = ["diag", "full", "zero", "low", "low", "low", "nan"]
        most, retire_apart, fixed_shared = 0, False, False
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = (3, 8, 24, 64)[seed % 4]
            for box in ((0.0, 1.0 / m), (-0.75, 0.75), (0.0, np.inf), "pinned"):
                stack = [kinds[i] for i in rng.permutation(len(kinds))]
                if box != (0.0, 1.0 / m):
                    stack.remove("nan")
                Q, v, alpha, lo, hi = (np.array(p) for p in zip(*(cell(rng, k, m, box)
                                                                   for k in stack)))
                with np.errstate(invalid="ignore"):  # the NaN cell
                    _, iters, res = _assert_reference_bytes(Q, v, alpha, lo, hi)
                most = max(most, iters.max())
                retire_apart |= len(set(iters.tolist())) >= 3
                if box == (0.0, 1.0 / m):  # passed as two floats too
                    fixed_shared |= bool((np.diagonal(Q, axis1=1, axis2=2) == 0.0).any())
                    c = stack.index("nan")
                    assert np.isinf(res[c])
                    with np.errstate(invalid="ignore"):  # the NaN cell alone
                        _assert_reference_bytes(Q[c:c + 1], v[c:c + 1], alpha[c:c + 1],
                                             lo[c:c + 1], hi[c:c + 1])
        assert arcs and most >= 5 and retire_apart and fixed_shared
        # m = 0, with per-coordinate bounds and with two floats
        _assert_reference_bytes(np.zeros((3, 0, 0)), np.zeros((3, 0)), np.ones(3),
                             np.zeros((3, 0)), np.zeros((3, 0)))
        lam, iters, res = prox.solve_box_qps(np.zeros((3, 0, 0)), np.zeros((3, 0)), np.ones(3),
                                             0.0, 1.0)
        assert lam.shape == (3, 0) and iters.tolist() == [0] * 3 and res.tolist() == [0.0] * 3

    def test_low_rank_family_keeps_the_reference_bytes(self):
        # One-cell solves (the whole stack stops at once) and stacks of one m.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            Q, v, alpha, lo, hi = _low_rank_cell(rng, int(rng.integers(1, 65)))
            m = v.size
            _assert_reference_bytes(Q[np.newaxis], v[np.newaxis], np.array([alpha]),
                                 np.full((1, m), lo), np.full((1, m), hi))
        rng = np.random.default_rng(40)
        parts = [_low_rank_cell(rng, 64) for _ in range(5)]
        Q, v, alpha = (np.array(p) for p in list(zip(*parts))[:3])
        lo, hi = np.full((5, 64), -1.0), np.full((5, 64), 1.0)
        _, iters, res = _assert_reference_bytes(Q, v, alpha, lo, hi)
        assert np.all(res <= 1e-9) and len(set(iters.tolist())) > 1

    def test_all_nan_dual_does_not_read_converged(self):
        # NaN compares false with both bounds, so a NaN coordinate of lam
        # takes |g| (NaN), and the cell fails with residual inf.
        lam, iters, res = prox.solve_box_qps(np.ones((1, 1, 1)), np.array([[np.nan]]),
                                             np.ones(1), 0.0, 1.0)
        _, info = prox.solve_box_qp(prox.BoxQP(np.ones((1, 1)), [np.nan], 1.0, 0.0, 1.0))
        assert np.isnan(lam[0, 0]) and iters.tolist() == [0] and res.tolist() == [np.inf]
        assert info.residual == np.inf and not info.converged
        inst = problems.generate_problem("absreg", N=20, n=3, sigma=0.5, seed=1)
        x = np.ones(3)
        model = models.build_batch_model(inst, x, np.array([2, 5, 7]), models.pam())
        model.values = np.full(3, np.nan)
        with pytest.raises(prox.InnerSolveError):
            prox.pam_step(x, model, 1.0)

    def test_one_cell_gaps_keep_the_reference_formula(self):
        rng = np.random.default_rng(8)
        inst = problems.generate_problem("absreg", N=60, n=5, sigma=0.5, seed=3)
        for m in (2, 4, 8, 12):
            for _ in range(10):
                x = rng.standard_normal(5)
                idx = rng.integers(0, 60, m)
                a = float(10.0 ** rng.uniform(-2.0, 2.0))
                model = models.build_batch_model(inst, x, idx, models.pam())
                res = prox.pam_step(x, model, a)
                G = model.grads[np.newaxis]
                v = (model.values + model.grads @ (x - model.anchor))[np.newaxis]
                d, gap = _reference_box_dual_gap(G, v, np.array([a]), res.lam[np.newaxis],
                                              0.0, 1.0 / m)
                assert res.duality_gap == float(gap[0])
                assert res.x_next.tobytes() == (x + d[0]).tobytes()
                A, b = inst.A[idx][np.newaxis], inst.b[idx][np.newaxis]
                res = prox.prox_step_absreg(x, A[0], b[0], a)
                v = np.matmul(A, x[np.newaxis, :, np.newaxis])[..., 0] - b
                d, gap = _reference_box_dual_gap(A, v, np.array([a]), res.lam[np.newaxis],
                                              -0.5 / m, 0.5 / m)
                assert res.duality_gap == float(gap[0])
                assert res.x_next.tobytes() == (x + d[0]).tobytes()


class TestPamStep:
    def test_m1_equals_truncated(self):
        rng = np.random.default_rng(3)
        inst = problems.generate_problem("absreg", N=30, n=4, sigma=0.5, seed=5)
        for _ in range(20):
            x = rng.standard_normal(4)
            model = models.build_batch_model(inst, x,
                                             np.array([int(rng.integers(30))]),
                                             models.pam())
            a = float(rng.uniform(0.1, 5.0))
            res = prox.pam_step(x, model, a)
            t = prox.truncated_step(x, model.anchor_value, model.gbar,
                                    model.lower_bound, a)
            np.testing.assert_allclose(res.x_next, t, atol=1e-12)

    def test_small_alpha_limit_is_sgm(self):
        rng = np.random.default_rng(4)
        inst = problems.generate_problem("absreg", N=30, n=4, sigma=0.5, seed=6)
        x = rng.standard_normal(4) * 3
        batch = np.array([0, 1, 2, 3])
        model = models.build_batch_model(inst, x, batch, models.pam())
        assert np.all(model.values > 0)
        a = 1e-7
        res = prox.pam_step(x, model, a)
        np.testing.assert_allclose(res.x_next, x - a * model.gbar, rtol=1e-6)
        np.testing.assert_allclose(res.lam, np.full(4, 0.25), atol=1e-9)

    def test_orthogonal_gradients_grid_oracle(self):
        inst = problems.generate_problem("absreg", N=4, n=2, sigma=0.5, seed=7)
        x = np.zeros(2)
        model = models.build_batch_model(inst, x, np.array([0, 1]), models.pam())
        model.grads = np.eye(2)  # orthogonal unit gradients
        model.values = np.array([1.0, 1.0])
        res = prox.pam_step(x, model, 1.0, tol=1e-12)
        best = grid_minimize(primal_fn(model, x, 1.0), res.x_next, 0.05)
        assert np.abs(res.x_next - best).max() <= 2e-3
        assert abs(res.duality_gap) <= 1e-10

    def test_strong_duality_random(self):
        rng = np.random.default_rng(8)
        inst = problems.generate_problem("absreg", N=50, n=6, sigma=0.5, seed=9)
        for _ in range(30):
            x = rng.standard_normal(6)
            batch = rng.integers(0, 50, int(rng.integers(2, 9)))
            model = models.build_batch_model(inst, x, batch, models.pam())
            res = prox.pam_step(x, model, float(rng.uniform(0.1, 3.0)),
                                tol=1e-11)
            assert -1e-10 <= res.duality_gap <= 1e-8


class TestFullProxSolvers:
    def test_linreg_fixed_point(self):
        inst = problems.generate_problem("linreg", N=30, n=4, sigma=0.0, seed=1)
        x = prox.prox_step_linreg(inst.x_planted, inst.A[:5], inst.b[:5], 2.0)
        np.testing.assert_allclose(x, inst.x_planted, atol=1e-10)

    def test_linreg_1d_hand(self):
        # min (1/2)(2x-4)^2 + (x-0)^2/2: stationarity 4x - 8 + x = 0 -> 1.6
        x = prox.prox_step_linreg(np.array([0.0]), np.array([[2.0]]),
                                  np.array([4.0]), 1.0)
        assert x[0] == pytest.approx(1.6, abs=1e-12)
        ys = np.arange(0.0, 3.0, 1e-5)
        obj = 0.5 * (2 * ys - 4) ** 2 + ys**2 / 2
        assert x[0] == pytest.approx(ys[np.argmin(obj)], abs=2e-5)

    def test_linreg_large_alpha_is_least_squares(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((12, 4))
        b = rng.standard_normal(12)
        x = prox.prox_step_linreg(rng.standard_normal(4), A, b, 1e9)
        ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(x, ls, atol=1e-8)

    def test_linreg_woodbury_matches_direct(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 8))  # m < n takes the Woodbury branch
        b = rng.standard_normal(3)
        xk = rng.standard_normal(8)
        x_w = prox.prox_step_linreg(xk, A, b, 0.9)
        H = np.eye(8) / 0.9 + A.T @ A / 3
        x_d = np.linalg.solve(H, xk / 0.9 + A.T @ b / 3)
        np.testing.assert_allclose(x_w, x_d, atol=1e-11)

    def test_absreg_m1_soft_threshold(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal(3)
            b = float(rng.standard_normal())
            xk = rng.standard_normal(3)
            alpha = float(rng.uniform(0.1, 5.0))
            res = prox.prox_step_absreg(xk, a[np.newaxis, :], np.array([b]),
                                        alpha, tol=1e-12)
            r = float(a @ xk - b)
            lam = np.clip(r / (alpha * float(a @ a)), -0.5, 0.5)
            np.testing.assert_allclose(res.x_next, xk - alpha * lam * a,
                                       atol=1e-10)

    def test_absreg_zero_residual_fixed_point(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 5))
        xk = rng.standard_normal(5)
        res = prox.prox_step_absreg(xk, A, A @ xk, 1.0, tol=1e-12)
        np.testing.assert_allclose(res.x_next, xk, atol=1e-11)

    def test_absreg_grid_oracle(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        xk = rng.standard_normal(2)
        res = prox.prox_step_absreg(xk, A, b, 0.8, tol=1e-12)

        def fun(pts):
            return (np.abs(pts @ A.T - b).sum(axis=1) / 6
                    + ((pts - xk) ** 2).sum(axis=1) / 1.6)

        best = grid_minimize(fun, res.x_next, 0.05)
        assert np.abs(res.x_next - best).max() <= 2e-3

    def test_logistic_near_stationary_anchor(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 3))
        w = np.ones(3)
        b = np.sign(A @ w)
        xk = 500.0 * w / np.abs(A @ w).min()  # margins >= 500: gradient ~ 0
        res = prox.prox_step_logistic(xk, A, b, 1.0, tol=1e-12)
        # (1/alpha)-strong convexity: the move is at most alpha * ||grad||.
        u = np.minimum(b * (A @ xk), 500.0)
        gnorm = np.linalg.norm(A.T @ (-0.5 * b / (1.0 + np.exp(u))) / 4)
        assert np.linalg.norm(res.x_next - xk) <= gnorm + 1e-12
        np.testing.assert_allclose(res.x_next, xk, atol=1e-8)

    def test_logistic_1d_grid_oracle(self):
        res = prox.prox_step_logistic(np.array([0.5]), np.array([[1.5]]),
                                      np.array([-1.0]), 2.0, tol=1e-12)
        ys = np.arange(-2.0, 2.0, 1e-5)
        obj = 0.5 * np.logaddexp(0.0, 1.5 * ys) + (ys - 0.5) ** 2 / 4.0
        assert res.x_next[0] == pytest.approx(ys[np.argmin(obj)], abs=1e-4)

    def test_logistic_gradient_postcondition(self):
        rng = np.random.default_rng(8)
        # alpha None draws a moderate stepsize; the m < n cases at large
        # alpha need the exact Newton step to converge quadratically.
        for m, n, alpha in ((3, 6, None), (8, 4, None), (16, 20, 10.0),
                            (16, 20, 100.0)):
            A = rng.standard_normal((m, n))
            b = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            xk = rng.standard_normal(n)
            if alpha is None:
                alpha = float(rng.uniform(0.2, 4.0))
            res = prox.prox_step_logistic(xk, A, b, alpha, tol=1e-10)
            assert res.inner_iterations <= 20
            u = b * (A @ res.x_next)
            s = 1.0 / (1.0 + np.exp(np.minimum(u, 500.0)))
            grad = A.T @ (-0.5 * b * s) / m + (res.x_next - xk) / alpha
            assert np.linalg.norm(grad) <= 1e-10

    def test_logistic_unconverged_newton_raises(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((16, 20))
        b = np.where(rng.random(16) < 0.5, -1.0, 1.0)
        with pytest.raises(prox.InnerSolveError):
            prox.prox_step_logistic(rng.standard_normal(20), A, b, 100.0,
                                    max_newton=1)

    def test_logistic_single_prox_against_bisection(self):
        def bisect_t(b, az, asq, alpha, iters=200):
            lo = np.full(b.shape, -0.5 * alpha)
            hi = np.full(b.shape, 0.5 * alpha)
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                u = np.clip(b * (az - mid * asq), -700.0, 700.0)
                neg = mid / alpha + 0.5 * b / (1.0 + np.exp(u)) < 0
                lo = np.where(neg, mid, lo)
                hi = np.where(neg, hi, mid)
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(13)
        b = np.where(rng.random(40) < 0.5, -1.0, 1.0)
        az = rng.standard_normal(40) * np.repeat([0.1, 1.0, 10.0, 100.0], 10)
        asq = rng.uniform(0.01, 60.0, 40)
        for alpha in 10.0 ** np.arange(-3, 5):
            t, ok = prox._logistic_single_prox_t(b, az, asq, alpha)
            assert ok is None
            np.testing.assert_allclose(t, bisect_t(b, az, asq, alpha),
                                       rtol=0, atol=2e-15 * alpha)
        # An exact root after one Newton step (phi(0) ~ 8e-36), and a case
        # where plain Newton from t = 0 cycles between two points.
        b = np.array([1.0, -1.0])
        az = np.array([80.06523159, 3.7552639])
        asq = np.array([41.55740061, 45.95995174])
        t, _ = prox._logistic_single_prox_t(b, az, asq, 1.0)
        np.testing.assert_allclose(t, bisect_t(b, az, asq, 1.0), rtol=1e-12)
        # Two steps do not reach the cycling entry's fixed point: it alone fails.
        capped, ok = prox._logistic_single_prox_t(b, az, asq, 1.0, max_iter=2)
        assert ok.tolist() == [True, False] and capped[0] == t[0]

    def test_logistic_single_prox_entries_do_not_depend_on_the_stack(self):
        # Every entry stops at a fixed point of its own Newton iteration, so
        # solving it alone or among others that take more steps agrees.
        rng = np.random.default_rng(14)
        b = np.where(rng.random(30) < 0.5, -1.0, 1.0)
        az = rng.standard_normal(30) * np.repeat([0.1, 10.0, 300.0], 10)
        asq = 10.0 ** rng.uniform(-3, 3, 30)
        alpha = 10.0 ** rng.uniform(-3, 4, 30)
        t, _ = prox._logistic_single_prox_t(b, az, asq, alpha)
        alone = [prox._logistic_single_prox_t(b[i:i + 1], az[i:i + 1], asq[i:i + 1],
                                              alpha[i:i + 1])[0][0] for i in range(30)]
        np.testing.assert_array_equal(t, alone)

    def test_logistic_single_prox_loop_keeps_its_bits(self):
        # The loop's exp(max(v, -708)) / (1 + ...) is expit(v) for v <= 0,
        # bit for bit and without warnings, also where v < -708 gives 0.
        def expit_loop_t(b, az, asq, alpha, max_iter=100):
            c = b * az
            k = 0.5 * alpha * asq
            flip = c + 0.5 * k < 0
            c = np.where(flip, -c - k, c)
            v = np.minimum(-c, 0.0)
            for _ in range(max_iter):
                s = problems.expit(v)
                ks = k * s
                v_next = v - np.maximum((v + c + ks) / (1.0 + ks * (1.0 - s)), 0.0)
                if (v_next == v).all():
                    return -0.5 * alpha * b * problems.expit(np.where(flip, -v, v))
                v = v_next
            raise AssertionError("no fixed point")

        rng = np.random.default_rng(21)
        b = np.where(rng.random(400) < 0.5, -1.0, 1.0)
        # Margins of 600 or more leave s ~ e^-600 (k s stays normal); from
        # 710 on, the start v = -|<a, z>| is below -708, where s is 0.
        az = np.concatenate([rng.uniform(-1.0, 1.0, 300) * np.repeat([1.0, 30.0, 600.0], 100),
                             rng.choice([-1.0, 1.0], 100) * rng.uniform(710.0, 2000.0, 100)])
        asq = 10.0 ** rng.uniform(-3, 2, 400)
        with np.errstate(all="raise"):
            for alpha in (1e-3, 1.0, 10.0 ** rng.uniform(-3, 4, 400), 1e4):
                t, _ = prox._logistic_single_prox_t(b, az, asq, alpha)
                np.testing.assert_array_equal(t, expit_loop_t(b, az, asq, alpha))
                assert (t == 0.0).any()  # s = 0 exactly: some v ended below -708
            # Margins just short of 708 take exp(v) itself, not the clamp (k s
            # and the returned t stay normal numbers at these stepsizes), and
            # margins just past it take s = 0.
            near = np.concatenate([rng.uniform(700.0, 704.0, 40), rng.uniform(708.0, 709.0, 10)])
            asq = rng.uniform(30.0, 100.0, 50)
            for alpha in (1.0, 1e4):
                np.testing.assert_array_equal(
                    prox._logistic_single_prox_t(np.ones(50), near, asq, alpha)[0],
                    expit_loop_t(np.ones(50), near, asq, alpha))


def per_cell_logistic_newton(A, b, x0, alpha, tol, max_newton):
    """The one-cell damped Newton the stacked solve replaced: the n x n
    system at every batch shape, its Hessian by a BLAS product."""
    m, n = A.shape

    def objective(u, d):
        return float(np.logaddexp(0.0, -u).sum()) / (2 * m) + float(d @ d) / (2 * alpha)

    x = x0.copy()
    iters = 0
    while True:
        iters += 1
        u = b * (A @ x)
        s = problems.expit(-u)
        d = x - x0
        grad = A.T @ (-0.5 * b * s) / m + d / alpha
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol or iters > max_newton:
            return x, gnorm, iters
        w = 0.5 * s * (1.0 - s) / m
        step = -np.linalg.solve((A.T * w) @ A + np.eye(n) / alpha, grad)
        f0 = objective(u, d)
        slope = float(grad @ step)
        t = 1.0
        if -slope > 1e-12 * (1.0 + abs(f0)):
            du = b * (A @ step)
            while (objective(u + t * du, d + t * step) > f0 + 1e-4 * t * slope
                   and t > 1e-12):
                t *= 0.5
        x = x + t * step


def logistic_stack(m, n, seed):
    """Six cells with stepsizes 1e-3 ... 1e3; cell 4 is a near-separable
    batch at alpha = 1e3 (margins scaled by 300), which needs the most steps."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, m, n))
    b = np.where(rng.random((6, m)) < 0.5, -1.0, 1.0)
    b[4] = np.sign(A[4] @ rng.standard_normal(n))
    A[4] *= 300.0
    alpha = np.array([1e-3, 1e-1, 1.0, 10.0, 1e3, 1e2])
    return A, b, rng.standard_normal((6, n)), alpha


class TestStackedLogisticNewton:
    @pytest.mark.parametrize("m,n", [(4, 10), (10, 10), (25, 6)])
    def test_every_cell_of_a_shuffled_stack_equals_its_lone_call(self, m, n):
        A, b, Z, alpha = logistic_stack(m, n, seed=25)
        order = np.random.default_rng(m).permutation(6)
        A, b, Z, alpha = A[order], b[order], Z[order], alpha[order]
        X, g, iters = problems.logistic_newton(A, b, Z, alpha, 1e-10, 100)
        assert (g <= 1e-10).all()
        slow = int(np.flatnonzero(order == 4)[0])
        assert iters[slow] >= 3 * np.median(np.delete(iters, slow))
        for c in range(6):
            x1, g1, i1 = problems.logistic_newton(A[c:c + 1], b[c:c + 1], Z[c:c + 1],
                                                  alpha[c:c + 1], 1e-10, 100)
            np.testing.assert_array_equal(x1[0], X[c])
            assert (g1[0], i1[0]) == (g[c], iters[c])
            res = prox.prox_step_logistic(Z[c], A[c], b[c], float(alpha[c]), tol=1e-10)
            np.testing.assert_array_equal(res.x_next, X[c])
            assert res.inner_iterations == iters[c]
            assert res.duality_gap == 0.5 * alpha[c] * g[c] ** 2

    @pytest.mark.parametrize("m,n", [(4, 10), (10, 10), (25, 6)])
    def test_points_agree_with_the_per_cell_newton(self, m, n):
        A, b, Z, alpha = logistic_stack(m, n, seed=26)
        X, _, _ = problems.logistic_newton(A, b, Z, alpha, 1e-10, 100)
        for c in range(6):
            x, gnorm, _ = per_cell_logistic_newton(A[c], b[c], Z[c], alpha[c], 1e-10, 100)
            assert gnorm <= 1e-10
            assert np.abs(X[c] - x).max() <= 1e-12 * np.abs(x).max()

    def test_a_cell_at_max_newton_fails_alone(self, monkeypatch):
        # With max_newton = 10 only the near-separable cell runs out of steps:
        # the stack's mask charges that cell alone, and the others keep the
        # points of the uncapped stack.
        A, b, Z, alpha = logistic_stack(25, 6, seed=25)
        inst = dataclasses.replace(problems.generate_problem("logistic", N=40, n=6, seed=3),
                                   A=A.reshape(150, 6), b=b.reshape(150), N=150)
        idx = np.arange(150).reshape(6, 25)
        newton = problems.logistic_newton
        X, _, iters = newton(A, b, Z, alpha, 1e-9, 100)
        assert iters[4] > 10 and (np.delete(iters, 4) <= 10).all()
        monkeypatch.setattr(problems, "logistic_newton",
                            lambda A, b, X0, alpha, tol, max_newton:
                            newton(A, b, X0, alpha, tol, 10))
        kernel = prox.stacked_step(inst, models.full_prox(), 25, 1e-9)
        for out, good in (prox.full_prox_steps(inst, Z, idx, alpha), kernel(Z, Z, alpha, idx)):
            np.testing.assert_array_equal(good, np.arange(6) != 4)
            np.testing.assert_array_equal(out[good], X[good])
        TestFailureMasks.check(lambda *args: prox.full_prox_steps(inst, *args), (Z, idx, alpha), 4)


class TestFailureMasks:
    """A stack with one failing cell: the kernel's ok mask is False there
    only, every other row equals its lone call bit for bit, and nothing
    raises a floating-point warning."""

    @staticmethod
    def check(kernel, args, bad):
        """kernel(*args), every argument stacked on axis 0, against each
        cell's lone call; returns the stacked points."""
        with np.errstate(all="raise", under="ignore"):
            out, ok = kernel(*args)[:2]
            assert ok.tolist() == [c != bad for c in range(ok.size)]
            for c in np.flatnonzero(ok):
                lone, lone_ok = kernel(*(a[c:c + 1] for a in args))[:2]
                assert lone_ok is None
                np.testing.assert_array_equal(out[c], lone[0])
        return out

    def test_truncated_steps(self):
        rng = np.random.default_rng(30)
        centers, gbars = rng.standard_normal((2, 4, 3))
        gbars[2] = 0.0  # a zero gradient above the floor
        args = (centers, rng.uniform(0.1, 2.0, 4), gbars, np.full(4, 0.5))
        out = self.check(prox.truncated_steps, args, 2)
        np.testing.assert_array_equal(out[2], centers[2])

    def test_linreg_prox_stacked(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((4, 3, 5))
        A[1] *= 1e6  # an ill-conditioned batch: its stationarity residual fails
        A[1, :, 0] *= 1e-6
        X, B = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
        self.check(prox.linreg_prox_stacked, (X, A, B, np.full(4, 1e3)), 1)
        with pytest.raises(prox.InnerSolveError):
            prox.prox_step_linreg(X[1], A[1], B[1], 1e3)

    def test_box_dual_steps(self):
        rng = np.random.default_rng(32)
        G, v = rng.standard_normal((4, 6, 3)), rng.uniform(-0.5, 2.0, (4, 6))
        v[0, 2] = np.nan
        centers = rng.standard_normal((4, 3))
        out = self.check(lambda *args: prox.box_dual_steps(*args, -0.1, 0.1),
                         (centers, G, v, np.array([0.1, 1.0, 10.0, 100.0])), 0)
        np.testing.assert_array_equal(out[0], centers[0])

    @pytest.mark.parametrize("method, m", [("prox", 1), ("pia", 3)])
    def test_single_sample_logistic_root(self, monkeypatch, method, m):
        # Capped at 8 Newton steps, only the root of the sample with
        # |a|^2 = 1e6 (13 steps; 3 or 4 for the others) stays unreached.  It is in cell 3's batch: prox at m = 1 fails that cell,
        # and so does pia, whose cell holds two solved samples besides.
        rng = np.random.default_rng(33)
        A = np.zeros((12, 2))
        A[:, 0] = rng.uniform(0.1, 1.0, 12)
        A[11, 0] = 1e3
        inst = dataclasses.replace(problems.generate_problem("logistic", N=40, n=2, seed=3),
                                   A=A, b=np.where(rng.random(12) < 0.5, -1.0, 1.0), N=12)
        idx = np.arange(12).reshape(4, 3)[:, 3 - m:]
        real = prox._logistic_single_prox_t
        monkeypatch.setattr(prox, "_logistic_single_prox_t",
                            lambda b, az, asq, alpha: real(b, az, asq, alpha, max_iter=8))
        kernel = prox.stacked_step(inst, models.strategy_from_id(method, models.FULL_PROX), m,
                                   1e-9)
        self.check(lambda X, alpha, idx: kernel(X, X, alpha, idx),
                   (0.1 * rng.standard_normal((4, 2)), np.full(4, 1.0), idx), 3)


def _batch_axis_m1_step(inst, strategy, A, Zc, alpha, idx):
    """The m = 1 step as the batch axis computes it: the model of the batch
    mean over the length-one axis (add.reduce, times 1/1), and pia's
    per-sample steps repeated, averaged and divided by 1."""
    if strategy.scheme == models.ITERATE_AVERAGE:
        C, m = idx.shape
        anchors = np.repeat(A, m, axis=0)
        centers = anchors if Zc is A else np.repeat(Zc, m, axis=0)
        single = models.BatchStrategy(models.MODEL_OF_AVERAGE, strategy.kind)
        parts, ok = _batch_axis_m1_step(inst, single, anchors, centers, np.repeat(alpha, m),
                                        idx.reshape(-1, 1))
        return (np.add.reduce(parts.reshape(C, m, -1), axis=1) / m,
                ok if ok is None else ok.reshape(C, m).all(axis=1))
    if strategy.kind == models.FULL_PROX:
        return prox.single_sample_prox(inst, Zc, idx[:, 0], np.broadcast_to(alpha, idx.shape[:1]))
    vals, grads = problems.stacked_losses(inst, A, idx)
    inv_m = 1.0 / idx.shape[1]
    gbar = np.add.reduce(grads, axis=1) * inv_m
    if strategy.kind == models.LINEAR:
        return Zc - alpha[:, np.newaxis] * gbar, None
    fbar = np.add.reduce(vals, axis=1) * inv_m
    if Zc is not A:
        fbar = fbar + prox.rowdot(gbar, Zc - A)
    return prox.truncated_steps(Zc, fbar, gbar, alpha)


class TestOneSampleStep:
    """At m = 1 the step takes the one sample's model and pia its per-sample
    step, with no batch axis: the same bytes as the batch-axis computation."""

    STRATEGIES = [models.sgm(), models.pma(), models.pam(), models.full_prox(),
                  models.pia(models.LINEAR), models.pia(models.TRUNCATED),
                  models.pia(models.FULL_PROX)]

    @pytest.mark.parametrize("kind", problems.KINDS)
    def test_m1_steps_keep_the_batch_axis_bytes(self, kind):
        rng = np.random.default_rng(40)
        n = 1 if kind == "twopoint" else 4
        inst = problems.generate_problem(kind, N=12, n=n, sigma=0.5, p=0.1, gamma=0.5, seed=4)
        if kind != "twopoint":  # row 0: a zero gradient above its floor
            inst = dataclasses.replace(inst, A=np.vstack([np.zeros(n), inst.A[1:]]),
                                       b=np.r_[-1.0 if kind == "halfspace" else 1.0, inst.b[1:]])
        failed = False
        for trial in range(4):
            A = rng.standard_normal((6, n))
            alpha = 10.0 ** rng.uniform(-2.0, 2.0, 6)
            idx = rng.integers(0, inst.N, (6, 1))
            idx[2, 0] = 0
            for Zc in (A, A + rng.standard_normal((6, n))):
                for strategy in self.STRATEGIES:
                    out, ok = prox.stacked_step(inst, strategy, 1, 1e-9)(A, Zc, alpha, idx)
                    ref, ref_ok = _batch_axis_m1_step(inst, strategy, A, Zc, alpha, idx)
                    assert out.dtype == ref.dtype and out.shape == ref.shape
                    assert out.tobytes() == ref.tobytes(), (kind, strategy, trial)
                    assert (ok is None) == (ref_ok is None), (kind, strategy, trial)
                    if ok is not None:
                        np.testing.assert_array_equal(ok, ref_ok)
                        failed = True
        assert failed == (kind != "twopoint")

    @pytest.mark.parametrize("kind", problems.KINDS)
    def test_single_sample_prox_checks_every_stepsize(self, kind):
        # One stepsize per sample (taken as given) and a scalar (broadcast)
        # give the same bytes, and a non-finite one raises except on
        # halfspaces, which take no check (an infinite stepsize projects).
        rng = np.random.default_rng(41)
        n = 1 if kind == "twopoint" else 3
        inst = problems.generate_problem(kind, N=10, n=n, sigma=0.5, p=0.1, gamma=0.5, seed=5)
        centers, idx = rng.standard_normal((5, n)), rng.integers(0, inst.N, 5)
        scalar = prox.single_sample_prox(inst, centers, idx, 0.8)[0]
        np.testing.assert_array_equal(
            prox.single_sample_prox(inst, centers, idx, np.full(5, 0.8))[0], scalar)
        if kind == "halfspace":
            out, _ = prox.single_sample_prox(inst, centers, idx, math.inf)
            assert (inst.A[idx] * out).sum(axis=1) == pytest.approx(
                np.minimum(inst.b[idx], (inst.A[idx] * centers).sum(axis=1)))
            return
        for bad in (math.inf, math.nan):
            for alpha in (bad, np.r_[np.ones(4), bad]):
                with pytest.raises(ValueError, match="infinite stepsize"):
                    prox.single_sample_prox(inst, centers, idx, alpha)


class TestDispatcherAndPia:
    def test_shifted_center_truncated(self):
        # Model anchored at y, prox centered at z: matches grid minimization.
        rng = np.random.default_rng(9)
        inst = problems.generate_problem("absreg", N=20, n=2, sigma=0.4, seed=3)
        y = rng.standard_normal(2)
        z = y + rng.standard_normal(2)
        model = models.build_batch_model(inst, y, np.array([0, 4, 9]),
                                         models.pma())
        res = prox.solve_model_prox(model, z, 0.7)
        best = grid_minimize(primal_fn(model, z, 0.7), res.x_next, 0.05)
        assert np.abs(res.x_next - best).max() <= 2e-3

    def test_pia_m1_matches_single_prox(self):
        rng = np.random.default_rng(10)
        for kind in ("linreg", "absreg", "logistic", "halfspace", "power"):
            inst = problems.generate_problem(kind, N=20, n=3, sigma=0.3, p=0.1,
                                             gamma=0.5, seed=4)
            x = rng.standard_normal(3)
            idx = np.array([7])
            out = prox.pia_step(inst, x, idx, models.FULL_PROX, 1.3)
            model = models.build_batch_model(inst, x, idx, models.full_prox())
            res = prox.solve_model_prox(model, x, 1.3)
            np.testing.assert_allclose(out, res.x_next, atol=1e-9)

    def test_pia_linear_equals_sgm(self):
        rng = np.random.default_rng(11)
        inst = problems.generate_problem("linreg", N=30, n=4, sigma=0.5, seed=5)
        x = rng.standard_normal(4)
        idx = np.array([0, 3, 9, 12])
        out = prox.pia_step(inst, x, idx, models.LINEAR, 0.5)
        model = models.build_batch_model(inst, x, idx, models.sgm())
        np.testing.assert_allclose(out, x - 0.5 * model.gbar, atol=1e-14)

    def test_pia_fullprox_against_1d_grids(self):
        rng = np.random.default_rng(12)
        for kind in ("logistic", "power"):
            inst = problems.generate_problem(kind, N=10, n=2, p=0.2, gamma=0.6,
                                             seed=6)
            x = rng.standard_normal(2)
            i = 3
            out = prox.single_sample_prox(inst, x[np.newaxis, :],
                                          np.array([i]), 0.9)[0][0]
            a = inst.A[i]
            ts = np.arange(-2.0, 2.0, 1e-6)
            pts = x[np.newaxis, :] - ts[:, np.newaxis] * a[np.newaxis, :]
            sub = pts[:: len(pts) // 4001]
            vals = np.array([problems.batch_losses(inst, p, [i])[0][0] for p in sub])
            obj = vals + ((sub - x) ** 2).sum(axis=1) / 1.8
            best = sub[np.argmin(obj)]
            np.testing.assert_allclose(out, best, atol=2e-3)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_twopoint_single_prox_moves_only_on_the_informative_atom(self, gamma):
        inst = problems.generate_problem("twopoint", delta=0.3, radius=1.5,
                                         gamma=gamma, seed=2)
        rng = np.random.default_rng(14)
        centers = 3.0 * rng.standard_normal((40, 1))
        idx = rng.integers(0, 2, 40)
        alpha = rng.uniform(0.1, 5.0, 40)
        out, ok = prox.single_sample_prox(inst, centers, idx, alpha)
        assert ok is None
        on = idx == 1
        r = centers[on, 0] - inst.b[1]  # v * R
        t = prox._power_single_prox_t(r, np.ones_like(r), alpha[on], gamma)
        np.testing.assert_array_equal(out[on, 0], centers[on, 0] - t)
        np.testing.assert_array_equal(out[~on], centers[~on])
        with pytest.raises(ValueError, match="infinite stepsize"):
            prox.single_sample_prox(inst, centers[:2], np.array([1, 0]), np.inf)

    def test_claim1_inequality_on_random_solves(self):
        # model(x+) + psi(x+) <= model(y) + psi(y) - ||y-x+||^2/(2a) + tol
        rng = np.random.default_rng(13)
        inst = problems.generate_problem("absreg", N=40, n=4, sigma=0.5, seed=7)
        for strat in (models.pma(), models.pam(), models.full_prox()):
            for _ in range(20):
                x = rng.standard_normal(4)
                batch = rng.integers(0, 40, 3)
                a = float(rng.uniform(0.2, 3.0))
                model = models.build_batch_model(inst, x, batch, strat)
                res = prox.solve_model_prox(model, x, a, tol=1e-11)
                xp = res.x_next
                lhs = float(models.evaluate_model(model, xp)) \
                    + float((xp - x) @ (xp - x)) / (2 * a)
                assert lhs <= model.anchor_value + 1e-9  # descent
                for _ in range(5):
                    y = x + rng.standard_normal(4)
                    rhs = float(models.evaluate_model(model, y)) \
                        + float((y - x) @ (y - x)) / (2 * a) \
                        - float((y - xp) @ (y - xp)) / (2 * a)
                    assert lhs <= rhs + 1e-8


class TestPolyhedronProjection:
    def test_interior_identity(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 1.0])
        x = np.array([0.2, -0.5])
        np.testing.assert_array_equal(prox.project_polyhedron(A, b, x), x)

    def test_single_halfspace_formula(self):
        A = np.array([[3.0, 4.0]])
        b = np.array([0.0])
        x = np.array([3.0, 4.0])
        out = prox.project_polyhedron(A, b, x)
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-9)

    def test_kkt_of_projection(self):
        rng = np.random.default_rng(14)
        inst = problems.generate_problem("halfspace", N=30, n=5, seed=8)
        x = inst.x_planted + 5 * rng.standard_normal(5)
        p = prox.project_polyhedron(inst.A, inst.b, x)
        assert np.all(inst.A @ p - inst.b <= 1e-8)
        # Optimality against a brute-force candidate search along feasible dirs
        rng2 = np.random.default_rng(15)
        d0 = float(np.linalg.norm(x - p))
        for _ in range(30):
            q = p + 0.01 * rng2.standard_normal(5)
            if np.all(inst.A @ q - inst.b <= 0):
                assert np.linalg.norm(x - q) >= d0 - 1e-7
