import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchprox import geometry


def unit_vecs(dim, n, rng):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_simplex_point(dim, rng):
    w = rng.exponential(1.0, dim)
    return w / w.sum()


def _grad_h(h, x):
    """Gradient of the potential: x, or log(x) + 1 for negative entropy
    (clamped away from the boundary as the mirror step does)."""
    if h.kind == geometry.EUCLIDEAN:
        return x
    return np.log(np.maximum(x, 1e-15)) + 1.0


class TestMirrorStep:
    def test_zero_gradient_fixed_point(self):
        h = geometry.euclidean(3)
        z = np.array([1.0, -2.0, 0.5])
        out = geometry.mirror_linear_step(h, geometry.all_space(), z,
                                          np.zeros(3), 2.0)
        np.testing.assert_array_equal(out, z)

    def test_euclidean_all_space_exact(self):
        rng = np.random.default_rng(0)
        h = geometry.euclidean(4)
        for _ in range(20):
            z, g = rng.standard_normal(4), rng.standard_normal(4)
            a = rng.uniform(0.1, 5.0)
            out = geometry.mirror_linear_step(h, geometry.all_space(), z, g, a)
            np.testing.assert_array_equal(out, z - a * g)

    def test_ball_projection_example(self):
        h = geometry.euclidean(2)
        dom = geometry.ball(np.zeros(2), 1.0)
        out = geometry.mirror_linear_step(h, dom, np.zeros(2),
                                          np.array([-2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_ball_step_equals_projection(self):
        h = geometry.euclidean(3)
        dom = geometry.ball(np.zeros(3), 0.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = geometry.project_domain(dom, rng.standard_normal(3))
            g = rng.standard_normal(3)
            out = geometry.mirror_linear_step(h, dom, z, g, 0.7)
            np.testing.assert_allclose(
                out, geometry.project_domain(dom, z - 0.7 * g), atol=1e-15
            )

    def test_entropy_step_against_grid_oracle(self):
        # Oracle: dense grid minimization of <g,x> + KL(x, z) on the simplex.
        h = geometry.entropy_simplex(2)
        z = np.array([0.5, 0.5])
        g = np.array([np.log(2.0), 0.0])
        out = geometry.mirror_linear_step(h, geometry.simplex(), z, g, 1.0)
        ts = np.linspace(1e-6, 1 - 1e-6, 200_001)
        pts = np.stack([ts, 1 - ts], axis=1)
        obj = pts @ g + (pts * np.log(pts / z)).sum(axis=1)
        best = pts[np.argmin(obj)]
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(out, best, atol=1e-4)

    def test_nonpositive_alpha_rejected(self):
        h = geometry.euclidean(2)
        with pytest.raises(ValueError):
            geometry.mirror_linear_step(h, geometry.all_space(), np.zeros(2),
                                        np.ones(2), 0.0)

    def test_incompatible_geometry_rejected(self):
        h = geometry.entropy_simplex(2)
        with pytest.raises(ValueError):
            geometry.mirror_linear_step(h, geometry.all_space(), np.ones(2) / 2,
                                        np.ones(2), 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_first_order_optimality(self, seed):
        # <g + (grad h(x+) - grad h(z))/alpha, x - x+> >= 0 for feasible x.
        rng = np.random.default_rng(seed)
        cases = [
            (geometry.euclidean(4), geometry.ball(rng.standard_normal(4), 1.5)),
            (geometry.euclidean(4), geometry.all_space()),
            (geometry.entropy_simplex(4), geometry.simplex()),
        ]
        for h, dom in cases:
            if dom.kind == geometry.SIMPLEX:
                z = random_simplex_point(4, rng)
            elif dom.kind == geometry.BALL:
                z = geometry.project_domain(dom, rng.standard_normal(4))
            else:
                z = rng.standard_normal(4)
            g = rng.standard_normal(4)
            a = rng.uniform(0.05, 2.0)
            xp = geometry.mirror_linear_step(h, dom, z, g, a)
            grad_term = g + (_grad_h(h, xp) - _grad_h(h, z)) / a
            for _ in range(10):
                if dom.kind == geometry.SIMPLEX:
                    x = random_simplex_point(4, rng)
                else:
                    x = geometry.project_domain(dom, z + rng.standard_normal(4))
                assert float(grad_term @ (x - xp)) >= -1e-8


class TestProjection:
    def test_all_space_identity(self):
        x = np.array([3.0, -1.0])
        np.testing.assert_array_equal(
            geometry.project_domain(geometry.all_space(), x), x
        )

    def test_ball_radial_scaling(self):
        dom = geometry.ball(np.zeros(2), 1.0)
        out = geometry.project_domain(dom, np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_simplex_against_active_set_enumeration(self):
        # Oracle: enumerate support sets, solve the equality-constrained
        # projection on each, keep the feasible minimizer.
        from itertools import combinations

        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(2, 6)
            x = rng.standard_normal(n) * 2
            best, best_val = None, np.inf
            for k in range(1, n + 1):
                for sup in combinations(range(n), k):
                    w = np.zeros(n)
                    sel = np.array(sup)
                    w[sel] = x[sel] - (x[sel].sum() - 1.0) / k
                    if np.all(w[sel] >= -1e-12):
                        val = np.sum((w - x) ** 2)
                        if val < best_val:
                            best, best_val = w, val
            out = geometry.project_simplex(x)
            np.testing.assert_allclose(out, best, atol=1e-10)

    def test_simplex_interior_example(self):
        out = geometry.project_simplex(np.array([0.2, 0.2]))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)
