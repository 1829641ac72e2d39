import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchprox import geometry


class TestMirrorStep:
    def test_zero_gradient_fixed_point(self):
        z = np.array([1.0, -2.0, 0.5])
        out = geometry.mirror_linear_step(geometry.all_space(), z, np.zeros(3), 2.0)
        np.testing.assert_array_equal(out, z)

    def test_euclidean_all_space_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z, g = rng.standard_normal(4), rng.standard_normal(4)
            a = rng.uniform(0.1, 5.0)
            out = geometry.mirror_linear_step(geometry.all_space(), z, g, a)
            np.testing.assert_array_equal(out, z - a * g)

    def test_ball_projection_example(self):
        dom = geometry.ball(np.zeros(2), 1.0)
        out = geometry.mirror_linear_step(dom, np.zeros(2), np.array([-2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_ball_step_equals_projection(self):
        dom = geometry.ball(np.zeros(3), 0.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = geometry.project_domain(dom, rng.standard_normal(3))
            g = rng.standard_normal(3)
            out = geometry.mirror_linear_step(dom, z, g, 0.7)
            np.testing.assert_allclose(
                out, geometry.project_domain(dom, z - 0.7 * g), atol=1e-15
            )

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            geometry.mirror_linear_step(geometry.all_space(), np.zeros(2),
                                        np.ones(2), 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_first_order_optimality(self, seed):
        # <g + (x+ - z)/alpha, x - x+> >= 0 for feasible x.
        rng = np.random.default_rng(seed)
        for dom in (geometry.ball(rng.standard_normal(4), 1.5), geometry.all_space()):
            z = geometry.project_domain(dom, rng.standard_normal(4))
            g = rng.standard_normal(4)
            a = rng.uniform(0.05, 2.0)
            xp = geometry.mirror_linear_step(dom, z, g, a)
            grad_term = g + (xp - z) / a
            for _ in range(10):
                x = geometry.project_domain(dom, z + rng.standard_normal(4))
                assert float(grad_term @ (x - xp)) >= -1e-8


def _lone_row_projection(dom, x):
    """The one-point ball projection the stacked call must reproduce per row."""
    d = x - dom.center
    nrm = float(np.linalg.norm(d))
    if nrm <= dom.radius:
        return x
    return dom.center + (dom.radius / nrm) * d


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

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_stack_rows_are_lone_projections(self, n):
        # Rows inside, outside and at the center of the ball, each projected
        # as it would be alone, bit for bit; the point at the center divides
        # nothing (a RuntimeWarning is an error in this suite).
        rng = np.random.default_rng(n)
        dom = geometry.ball(rng.standard_normal(n), 0.8)
        dirs = rng.standard_normal((12, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dist = dom.radius * np.concatenate([[0.5, 1.5, 0.0], rng.uniform(0.1, 3.0, 9)])
        X = dom.center + dist[:, np.newaxis] * dirs
        expected = np.array([_lone_row_projection(dom, x) for x in X])
        inside = np.linalg.norm(X - dom.center, axis=1) <= dom.radius
        assert inside.any() and not inside.all()
        out = geometry.project_domain(dom, X)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out[inside], X[inside])
        for x, e in zip(X, expected):
            np.testing.assert_array_equal(geometry.project_domain(dom, x), e)
