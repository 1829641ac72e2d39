import functools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from batchprox import geometry, models, optimizers, problems

ALL_DATASET_KINDS = ["linreg", "absreg", "logistic", "halfspace", "power"]


def small_instances(seed=0):
    return [
        problems.generate_problem("linreg", N=30, n=4, sigma=0.5, seed=seed),
        problems.generate_problem("absreg", N=30, n=4, sigma=0.5, seed=seed + 1),
        problems.generate_problem("logistic", N=30, n=4, p=0.1, seed=seed + 2),
        problems.generate_problem("halfspace", N=30, n=4, seed=seed + 3),
        problems.generate_problem("power", N=30, n=4, gamma=0.5, seed=seed + 4),
        problems.generate_problem("twopoint", delta=0.3, radius=2.0, gamma=0.0,
                                  seed=seed + 5),
    ]


class TestExpit:
    def test_exact_limits_without_warnings(self):
        x = np.array([-np.inf, -800.0, -0.0, 0.0, 800.0, np.inf])
        with np.errstate(all="raise"):
            out = problems.expit(x)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.5, 0.5, 1.0, 1.0])
        assert np.isnan(problems.expit(np.array([np.nan]))[0])
        assert problems.expit(0.0) == 0.5 and problems.expit(-np.inf) == 0.0

    def test_matches_scipy_to_a_few_ulp(self):
        x = np.concatenate([np.linspace(-700.0, 700.0, 400_001),
                            np.random.default_rng(0).standard_normal(1000)])
        ref = scipy.special.expit(x)
        ulps = np.abs(problems.expit(x) - ref) / np.spacing(ref)
        assert ulps.max() <= 4


class TestGeneration:
    def test_benchmark_default_shapes(self):
        inst = problems.generate_problem("linreg", N=1000, n=40, sigma=0.5, seed=7)
        assert inst.A.shape == (1000, 40)
        assert inst.b.shape == (1000,)
        assert inst.noise.sigma == 0.5

    def test_label_flip_rate(self):
        flips, total = 0, 0
        for seed in range(40):
            inst = problems.generate_problem("logistic", N=500, n=5, p=0.01,
                                             seed=seed)
            flips += inst.flips_applied
            total += inst.N
        rate = flips / total
        assert abs(rate - 0.01) < 3 * np.sqrt(0.01 * 0.99 / total)

    def test_noiseless_linreg_interpolates(self):
        inst = problems.generate_problem("linreg", N=50, n=5, sigma=0.0, seed=3)
        ref = problems.reference_optimum(inst)
        assert ref.f_star == 0.0
        assert problems.objective_value(inst, ref.x_star) < 1e-24

    def test_condition_number_ramp(self):
        inst = problems.generate_problem("linreg", N=100, n=10, cond=50.0, seed=1)
        s = np.linalg.svd(inst.A, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(50.0, rel=1e-9)

    def test_halfspace_planted_interior(self):
        inst = problems.generate_problem("halfspace", N=60, n=6, seed=2)
        slack = inst.b - inst.A @ inst.x_planted
        assert np.all(slack >= 0.1 - 1e-12) and np.all(slack <= 1.0 + 1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            problems.generate_problem("linreg", N=0, n=3)
        with pytest.raises(ValueError):
            problems.generate_problem("power", N=5, n=2, gamma=1.5)
        with pytest.raises(ValueError):
            problems.generate_problem("twopoint", delta=1.5)

    def test_config_round_trip(self):
        # Sweeps regenerate an instance from its spec: the same arguments
        # give the same data.
        args = dict(N=40, n=3, sigma=0.25, seed=9)
        inst, clone = (problems.generate_problem("absreg", **args) for _ in range(2))
        np.testing.assert_array_equal(inst.A, clone.A)
        np.testing.assert_array_equal(inst.b, clone.b)


def test_twopoint_sign_is_the_generated_sign():
    # The sign is the `choice([-1, 1])` draw of the same stream.
    for seed in range(1000):
        inst = problems.generate_problem("twopoint", delta=0.1, seed=seed)
        assert problems.twopoint_sign(seed) == inst.sign
        assert inst.sign == int(np.random.default_rng(seed).choice([-1, 1]))


class TestLossEval:
    def test_linreg_at_optimum(self):
        inst = problems.generate_problem("linreg", N=20, n=3, sigma=0.0, seed=5)
        (v,), (g,) = problems.batch_losses(inst, inst.x_planted, [4])
        assert v == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_absreg_hand_value(self):
        # Half-weighted convention: F = |a x - b| / 2.
        inst = problems.make_custom_linreg(np.array([[2.0]]), np.array([0.0]))
        inst.kind = problems.ABSREG
        (v,), (g,) = problems.batch_losses(inst, np.array([3.0]), [0])
        assert v == pytest.approx(3.0)
        np.testing.assert_allclose(g, [1.0])

    def test_value_by_finite_differences(self):
        # Oracle: central differences of the value function away from kinks.
        rng = np.random.default_rng(11)
        for inst in small_instances(20):
            for _ in range(5):
                x = rng.standard_normal(inst.n)
                i = int(rng.integers(inst.N))
                (v,), (g,) = problems.batch_losses(inst, x, [i])
                d = rng.standard_normal(inst.n)
                d /= np.linalg.norm(d)
                h = 1e-6
                (vp,), _ = problems.batch_losses(inst, x + h * d, [i])
                (vm,), _ = problems.batch_losses(inst, x - h * d, [i])
                fd = (vp - vm) / (2 * h)
                # Skip near-kink evaluations where the derivative jumps.
                if abs(vp - 2 * v + vm) > 1e-7:
                    continue
                assert fd == pytest.approx(float(g @ d), abs=2e-4)

    def test_every_kind_has_a_loss_record(self):
        assert set(problems.LOSSES) == set(problems.KINDS)
        for loss in problems.LOSSES.values():
            assert isinstance(loss, problems.Loss)

    def test_twopoint_is_the_power_loss_on_two_atoms(self):
        inst = problems.generate_problem("twopoint", delta=0.3, radius=1.7,
                                         gamma=0.5, seed=5)
        np.testing.assert_array_equal(inst.A, [[0.0], [1.0]])
        np.testing.assert_array_equal(inst.b, [0.0, inst.sign * 1.7])
        x = np.array([0.4])
        r = 0.4 - inst.sign * 1.7
        (v0,), (g0,) = problems.batch_losses(inst, x, [0])
        (v1,), (g1,) = problems.batch_losses(inst, x, [1])
        assert (v0, g0.tolist()) == (0.0, [0.0])
        assert v1 == abs(r) ** 1.5 / 1.5
        assert g1.tolist() == [np.sign(r) * abs(r) ** 0.5]

    def test_halfspace_inside_is_zero(self):
        inst = problems.generate_problem("halfspace", N=20, n=4, seed=6)
        (v,), (g,) = problems.batch_losses(inst, inst.x_planted, [3])
        assert v == 0.0
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_index_out_of_range(self):
        inst = problems.generate_problem("linreg", N=10, n=2, seed=0)
        with pytest.raises(IndexError):
            problems.batch_losses(inst, np.zeros(2), [10])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_convexity_along_segments(self, seed):
        rng = np.random.default_rng(seed)
        for inst in small_instances(seed % 7):
            x = rng.standard_normal(inst.n)
            y = rng.standard_normal(inst.n)
            t = float(rng.random())
            i = int(rng.integers(inst.N))
            (vx,), _ = problems.batch_losses(inst, x, [i])
            (vy,), _ = problems.batch_losses(inst, y, [i])
            (vm,), _ = problems.batch_losses(inst, t * x + (1 - t) * y, [i])
            assert vm <= t * vx + (1 - t) * vy + 1e-10

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_subgradient_inequality(self, seed):
        rng = np.random.default_rng(seed)
        for inst in small_instances(seed % 5):
            x = rng.standard_normal(inst.n)
            y = rng.standard_normal(inst.n)
            i = int(rng.integers(inst.N))
            (vx,), (gx,) = problems.batch_losses(inst, x, [i])
            (vy,), _ = problems.batch_losses(inst, y, [i])
            assert vy >= vx + float(gx @ (y - x)) - 1e-10

    def test_interpolation_definition(self):
        # Every per-sample loss is minimized at the planted point.
        for kind, kwargs in (
            ("linreg", dict(sigma=0.0)),
            ("absreg", dict(sigma=0.0)),
            ("power", dict(gamma=0.7)),
            ("halfspace", dict()),
        ):
            inst = problems.generate_problem(kind, N=40, n=5, seed=8, **kwargs)
            vals, _ = problems.batch_losses(inst, inst.x_planted,
                                            np.arange(inst.N))
            np.testing.assert_allclose(vals, 0.0, atol=1e-20)


class TestObjective:
    def test_hand_linreg(self):
        inst = problems.make_custom_linreg(np.array([[2.0]]), np.array([4.0]))
        assert problems.objective_value(inst, np.array([0.0])) == pytest.approx(8.0)

    def test_matches_mean_of_loss_eval(self):
        rng = np.random.default_rng(3)
        for inst in small_instances(2):
            x = rng.standard_normal(inst.n)
            vals, _ = problems.batch_losses(inst, x, np.arange(inst.N))
            # The mean under the sampling law (uniform for a dataset).
            assert problems.objective_value(inst, x) == pytest.approx(
                float(np.average(vals, weights=inst.sample_probabilities)), rel=1e-14
            )

    def test_twopoint_population_objective(self):
        inst = problems.generate_problem("twopoint", delta=0.25, radius=2.0,
                                         gamma=1.0, seed=4)
        x = np.array([0.5])
        r = abs(0.5 - inst.sign * 2.0)
        assert problems.objective_value(inst, x) == pytest.approx(
            0.25 * r**2 / 2.0
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_twopoint_rows_are_the_scalar_formula(self, gamma):
        inst = problems.generate_problem("twopoint", delta=0.3, radius=1.7,
                                         gamma=gamma, seed=5)
        X = 3.0 * np.random.default_rng(6).standard_normal((500, 1))
        expected = [inst.delta * abs(float(x[0]) - inst.sign * inst.radius)
                    ** (1.0 + gamma) / (1.0 + gamma) for x in X]
        np.testing.assert_array_equal(problems.objective_values(inst, X), expected)


class TestStacked:
    def test_rows_match_single_evaluations_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for inst in small_instances(7):
            X = 2.0 * rng.standard_normal((4, inst.n))
            idx = rng.integers(0, inst.N, size=(4, 5))
            vals, grads = problems.stacked_losses(inst, X, idx)
            objs = problems.objective_values(inst, X)
            for c in range(4):
                v, g = problems.batch_losses(inst, X[c], idx[c])
                np.testing.assert_array_equal(vals[c], v)
                np.testing.assert_array_equal(grads[c], g)
                assert objs[c] == problems.objective_value(inst, X[c])
                one_v, one_g = problems.stacked_losses(inst, X[c:c + 1], idx[c:c + 1])
                np.testing.assert_array_equal(one_v[0], vals[c])
                np.testing.assert_array_equal(one_g[0], grads[c])


@functools.cache
def _sampling_instance(law):
    """A uniform law over N rows (law = N) or the two-point law."""
    if law == "twopoint":
        return problems.generate_problem("twopoint", delta=0.3, seed=0)
    return problems.generate_problem("linreg", N=law, n=1, seed=0)


class TestSampling:
    def test_single_index(self):
        inst = problems.generate_problem("linreg", N=10, n=2, seed=0)
        idx = problems.sample_batch(inst, 1, np.random.default_rng(0))
        assert idx.shape == (1,)

    def test_determinism(self):
        inst = problems.generate_problem("linreg", N=10, n=2, seed=0)
        a = problems.sample_batch(inst, 16, np.random.default_rng(42))
        b = problems.sample_batch(inst, 16, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_zero_batch_rejected(self):
        inst = problems.generate_problem("linreg", N=10, n=2, seed=0)
        with pytest.raises(ValueError):
            problems.sample_batch(inst, 0, np.random.default_rng(0))

    def test_uniformity_chi_square(self):
        inst = problems.generate_problem("linreg", N=10, n=2, seed=0)
        idx = problems.sample_batch(inst, 100_000, np.random.default_rng(1))
        counts = np.bincount(idx, minlength=10)
        expected = 10_000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 9 dof; 3-sigma-ish acceptance
        assert chi2 < 27.9

    def test_twopoint_frequency(self):
        inst = problems.generate_problem("twopoint", delta=0.3, seed=1)
        idx = problems.sample_batch(inst, 50_000, np.random.default_rng(2))
        freq0 = float(np.mean(idx == 0))
        assert abs(freq0 - 0.7) < 3 * np.sqrt(0.3 * 0.7 / 50_000)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_categorical_draw_is_generator_choice(self, seed, m, delta):
        inst = problems.generate_problem("twopoint", delta=delta, seed=0)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        idx = problems.sample_batch(inst, m, mine)
        expected = ref.choice(inst.N, size=m, p=inst.sample_probabilities)
        np.testing.assert_array_equal(idx, expected)
        assert idx.dtype == expected.dtype
        assert mine.random() == ref.random()  # the same state afterwards

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 7, 200, 1000, 123457, "twopoint"]),
           st.integers(1, 64), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_block_is_consecutive_batches(self, seed, law, m, rows):
        # A (rows, m) block is the stream of rows one-batch draws: the
        # engine's block draws rely on this.
        inst = _sampling_instance(law)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        block = problems.sample_batches(inst, rows, m, mine)
        expected = np.array([problems.sample_batch(inst, m, ref) for _ in range(rows)])
        assert block.shape == (rows, m)
        assert block.dtype == expected.dtype
        np.testing.assert_array_equal(block, expected)
        assert mine.random() == ref.random()  # the same state afterwards
        assert mine.integers(0, 1000) == ref.integers(0, 1000)


def primal_lad_lp(inst):
    """Oracle: the dense primal LP min (1/2N) sum t_i s.t. t >= Ax - b,
    t >= b - Ax, over (x, t); returns f at the x it finds."""
    N, n = inst.N, inst.n
    c = np.concatenate([np.zeros(n), np.full(N, 0.5 / N)])
    A_ub = np.block([[inst.A, -np.eye(N)], [-inst.A, -np.eye(N)]])
    b_ub = np.concatenate([inst.b, -inst.b])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (n + N), method="highs")
    assert res.success, res.message
    return problems.objective_value(inst, res.x[:n])


def lbfgs_logistic(inst):
    """Oracle: L-BFGS-B on the logistic objective to a tight gradient
    tolerance; returns f at the x it finds."""
    A, b, N = inst.A, inst.b, inst.N

    def fun(x):
        return float(np.logaddexp(0.0, -(b * (A @ x))).sum()) / (2.0 * N)

    def jac(x):
        return A.T @ (-0.5 * b * scipy.special.expit(-(b * (A @ x)))) / N

    res = scipy.optimize.minimize(
        fun, np.zeros(inst.n), jac=jac, method="L-BFGS-B",
        options={"maxiter": 50_000, "ftol": 0.0, "gtol": 1e-13})
    return problems.objective_value(inst, res.x)


class TestReferenceOptimum:
    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    @pytest.mark.parametrize("N,n", [(4, 3), (30, 5), (60, 10), (200, 20),
                                     (1000, 40)])
    def test_absreg_dual_lp_matches_primal_oracle(self, N, n, sigma):
        inst = problems.generate_problem("absreg", N=N, n=n, sigma=sigma,
                                         seed=N + int(100 * sigma))
        ref = problems.reference_optimum(inst)
        assert ref.f_star == pytest.approx(primal_lad_lp(inst), rel=1e-12,
                                           abs=1e-12)
        assert ref.f_star == problems.objective_value(inst, ref.x_star)
        assert 0.0 <= ref.tolerance <= 1e-10
        assert ref.method == "high_accuracy_solve"

    @pytest.mark.parametrize("kw", [
        dict(N=269, n=37, sigma=2.0, cond=10.0, seed=176),
        dict(N=483, n=32, sigma=2.0, cond=1.0, seed=198),
        dict(N=1000, n=40, sigma=0.5, cond=1.0, seed=0),
    ])
    def test_absreg_optimum_satisfies_kkt(self, kw):
        # x* interpolates the n rows B of smallest residual, and the dual
        # point that complementary slackness fixes off B (y_i = -sign(res_i)
        # / 2N) completes on B to a point inside the box |y_i| <= 1/(2N).
        inst = problems.generate_problem("absreg", **kw)
        N, n = inst.N, inst.n
        res = inst.A @ problems.reference_optimum(inst).x_star - inst.b
        order = np.argsort(np.abs(res), kind="stable")
        B, off = order[:n], order[n:]
        y_off = -np.sign(res[off]) / (2 * N)
        y_B = np.linalg.solve(inst.A[B].T, -(inst.A[off].T @ y_off))
        assert 2 * N * np.max(np.abs(y_B)) <= 1.0 + 1e-9

    @given(st.integers(1, 40), st.data(), st.sampled_from([0.25, 0.5, 2.0]),
           st.sampled_from([1.0, 10.0, 100.0]), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_absreg_reference_certifies(self, n, data, sigma, cond, seed):
        # N = n is the square case below, where f* is 0 up to rounding.
        N = data.draw(st.integers(n + 1, 1200), label="N")
        inst = problems.generate_problem("absreg", N=N, n=n, sigma=sigma,
                                         cond=cond, seed=seed)
        f_star = self._certified_f_star(inst)
        assert f_star <= primal_lad_lp(inst) * (1.0 + 1e-12)

    def test_absreg_reference_certifies_duplicated_rows_and_square(self):
        # The duplicated-row instance of test_analysis.py's
        # test_duplication_invariance: same optimum as the single copy.
        doubled = problems.generate_problem("absreg", N=15, n=3, sigma=0.5, seed=5)
        doubled.A = np.vstack([doubled.A, doubled.A])
        doubled.b = np.concatenate([doubled.b, doubled.b])
        doubled.N = 30
        f_star = self._certified_f_star(doubled)
        assert f_star <= primal_lad_lp(doubled) * (1.0 + 1e-12)
        single = problems.generate_problem("absreg", N=15, n=3, sigma=0.5, seed=5)
        assert f_star == pytest.approx(self._certified_f_star(single), rel=1e-14)
        for n in (1, 7, 40):  # N = n: x* interpolates every row, f* = 0
            inst = problems.generate_problem("absreg", N=n, n=n, sigma=0.5,
                                             cond=100.0, seed=n)
            assert self._certified_f_star(inst) <= 1e-13

    @pytest.mark.parametrize("kw", [
        dict(N=20, n=19, sigma=0.25, cond=10.0, seed=480),
        dict(N=23, n=22, sigma=0.25, cond=1.0, seed=243626041),
        dict(N=6, n=5, sigma=0.25, cond=100.0, seed=870715804)])
    def test_absreg_reference_near_square(self, kw):
        # N = n + 1: f* is one residual, so the rounding left on the basis
        # rows must stay far below it.  A least-squares basis solve put
        # f(x*) 1.1e-11, 9.1e-12 and 8.8e-11 relative above the LP oracle.
        inst = problems.generate_problem("absreg", **kw)
        assert self._certified_f_star(inst) <= primal_lad_lp(inst) * (1.0 + 1e-12)

    @staticmethod
    def _certified_f_star(inst):
        ref = problems.reference_optimum(inst)
        assert ref.method == "high_accuracy_solve"
        assert 0.0 <= ref.tolerance <= 1e-10 * max(1.0, ref.f_star)
        assert ref.f_star == problems.objective_value(inst, ref.x_star)
        return ref.f_star

    def test_large_absreg_duality_gap_raises(self, monkeypatch):
        inst = problems.generate_problem("absreg", N=30, n=3, sigma=0.5, seed=19)
        objective_value = problems.objective_value

        def loose(inst, x):
            return objective_value(inst, x) + 1e-6  # f(x*) 1e-6 above b'y

        monkeypatch.setattr(problems, "objective_value", loose)
        with pytest.raises(problems.ReferenceSolveError, match="duality gap"):
            problems.reference_optimum(inst)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # Neither the import nor a logistic, linreg or noisy-absreg
        # reference solve may load any scipy module.
        src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, batchprox, batchprox.harness.cli\n"
            "from batchprox import problems\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(scipy_modules())\n"
            "for kind, kw in [('logistic', {'p': 0.1}), ('linreg', {'sigma': 0.7}),\n"
            "                 ('absreg', {'sigma': 0.5})]:\n"
            "    inst = problems.generate_problem(kind, N=100, n=4, seed=29, **kw)\n"
            "    print(problems.reference_optimum(inst).f_star > 0, scipy_modules())\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split("\n") == ["[]", "True []", "True []", "True []", ""]

    def test_linreg_two_solve_paths_agree(self):
        inst = problems.generate_problem("linreg", N=80, n=7, sigma=0.7, seed=13)
        ref = problems.reference_optimum(inst)
        x_ne = np.linalg.solve(inst.A.T @ inst.A, inst.A.T @ inst.b)
        assert np.linalg.norm(ref.x_star - x_ne) < 1e-8
        assert ref.f_star == pytest.approx(
            problems.objective_value(inst, x_ne), abs=1e-12
        )

    def test_absreg_lp_vs_subgradient_certificate(self):
        inst = problems.generate_problem("absreg", N=60, n=5, sigma=0.5, seed=17)
        ref = problems.reference_optimum(inst)
        # No descent direction among +-coordinates and random directions.
        rng = np.random.default_rng(0)
        f0 = problems.objective_value(inst, ref.x_star)
        assert f0 == pytest.approx(ref.f_star, abs=1e-12)
        for _ in range(40):
            d = rng.standard_normal(inst.n)
            d /= np.linalg.norm(d)
            assert problems.objective_value(inst, ref.x_star + 1e-6 * d) \
                >= f0 - 1e-12

    def test_absreg_lp_vs_own_prox_solver(self):
        # Independent cross-check of the LP reference: high-accuracy full
        # prox iteration on the whole dataset.
        inst = problems.generate_problem("absreg", N=30, n=3, sigma=0.5, seed=19)
        ref = problems.reference_optimum(inst)
        from batchprox import prox

        x = np.zeros(3)
        for _ in range(60):
            res = prox.prox_step_absreg(x, inst.A, inst.b, alpha=50.0, tol=1e-12)
            x = res.x_next
        assert problems.objective_value(inst, x) == pytest.approx(
            ref.f_star, abs=1e-8
        )

    def test_separable_logistic(self):
        inst = problems.generate_problem("logistic", N=40, n=4, p=0.0, seed=23)
        ref = problems.reference_optimum(inst)
        assert ref.f_star == 0.0

    def test_flipped_logistic_stationary(self):
        inst = problems.generate_problem("logistic", N=100, n=4, p=0.1, seed=29)
        ref = problems.reference_optimum(inst)
        assert ref.tolerance <= 1e-8
        assert ref.f_star > 0.0

    def test_failed_absreg_lp_raises(self, monkeypatch):
        # An interior point stopped far from the optimum names the wrong
        # basis: the dual point built on it must leave its box.
        inst = problems.generate_problem("absreg", N=30, n=3, sigma=0.5, seed=19)
        monkeypatch.setattr(problems, "_lad_interior_point", lambda A, b: (
            np.zeros(A.shape[1]), np.full(A.shape[0], 0.5)))
        with pytest.raises(problems.ReferenceSolveError, match="outside its box"):
            problems.reference_optimum(inst)

    def test_unconverged_logistic_solve_raises(self, monkeypatch):
        inst = problems.generate_problem("logistic", N=100, n=4, p=0.1, seed=29)
        newton = problems.logistic_newton

        def one_step(A, b, x0, alpha, tol, max_newton):
            return newton(A, b, x0, alpha, tol, 1)

        monkeypatch.setattr(problems, "logistic_newton", one_step)
        with pytest.raises(problems.ReferenceSolveError, match="gradient norm"):
            problems.reference_optimum(inst)

    def test_logistic_reference_does_not_depend_on_blas_threads(self):
        # The instance of a sweep (N = 1000, n = 40, p = 0.01, cond 10,
        # master seed 0, seed index 1) whose f* moved by one ulp between one
        # and two BLAS threads while the Hessian was a BLAS product.
        src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = (
            "from batchprox import problems\n"
            "from batchprox.harness import config, sweep\n"
            "prob = config.ProblemSpec(kind='logistic', N=1000, n=40, p=0.01)\n"
            "inst = prob.instantiate(10.0, sweep._instance_seed(0, prob, 10.0, 1))\n"
            "print(problems.reference_optimum(inst).f_star.hex())\n")
        out = [subprocess.run([sys.executable, "-c", code], check=True, text=True,
                              capture_output=True, env=dict(env, **{k: t for k in threads})
                              ).stdout for t in ("1", "2")]
        assert out[0] == out[1] and out[0].startswith("0x1.05a73bc597e")

    def test_separable_flipped_logistic(self):
        # A flipped label that the planted point misclassifies, but another
        # direction still separates every sample: inf f = 0, unattained.
        inst = problems.generate_problem("logistic", N=200, n=20, p=0.01, seed=2)
        assert inst.flips_applied > 0
        assert not np.all(inst.b * (inst.A @ inst.x_planted) > 0)
        ref = problems.reference_optimum(inst)
        assert ref.f_star == 0.0 and ref.x_star is None

    @pytest.mark.parametrize("cond", [1.0, 10.0])
    @pytest.mark.parametrize("p", [0.01, 0.1])
    @pytest.mark.parametrize("N,n", [(200, 20), (1000, 40)])
    def test_logistic_newton_matches_lbfgs_oracle(self, N, n, p, cond):
        for seed in range(3):
            inst = problems.generate_problem("logistic", N=N, n=n, p=p, cond=cond,
                                             seed=seed)
            ref = problems.reference_optimum(inst)
            assert ref.f_star <= lbfgs_logistic(inst) + 1e-12 * max(1.0, ref.f_star)
            assert 0.0 <= ref.tolerance <= 1e-10
            if ref.x_star is not None:
                assert ref.f_star == problems.objective_value(inst, ref.x_star)

    def test_cached(self):
        inst = problems.generate_problem("linreg", N=20, n=3, sigma=0.3, seed=1)
        assert problems.reference_optimum(inst) is problems.reference_optimum(inst)


class TestBallDomain:
    def test_center_must_be_a_point_of_the_space(self):
        for center in (np.zeros(3), np.zeros((1, 5))):
            dom = geometry.ball(center, 1.0)
            with pytest.raises(ValueError, match="ball center"):
                problems.generate_problem("linreg", N=20, n=5, seed=0, domain=dom)
            with pytest.raises(ValueError, match="ball center"):
                problems.make_custom_linreg(np.ones((4, 5)), np.ones(4), domain=dom)

    def test_reference_optimum_outside_the_ball_is_rejected(self):
        # A noiseless instance certifies f* = 0 at its planted point, a noisy
        # one at x*; on a ball that misses that point f* over the ball is
        # larger, and every gap would be measured against the wrong value.
        x_planted = problems.generate_problem("linreg", N=300, n=15, seed=31).x_planted
        noisy = problems.generate_problem("linreg", N=300, n=15, sigma=0.5, seed=31)
        x_star = problems.reference_optimum(noisy).x_star
        for sigma, x in ((0.0, x_planted), (0.5, x_star)):
            small = geometry.ball(np.zeros(15), 0.3 * float(np.linalg.norm(x)))
            inst = problems.generate_problem("linreg", N=300, n=15, sigma=sigma, seed=31,
                                             domain=small)
            with pytest.raises(ValueError, match="outside the ball"):
                problems.reference_optimum(inst)
            with pytest.raises(ValueError, match="outside the ball"):
                optimizers.run_base(inst, models.pam(), optimizers.poly_decay(1.0), m=8,
                                    n_steps=10, epsilon=1e-6, rng=np.random.default_rng(0))
        # The acceptance suite's ball, 1.5 ||x*||, serves the unconstrained f*.
        dom = geometry.ball(np.zeros(15), 1.5 * float(np.linalg.norm(x_star)))
        inst = problems.generate_problem("linreg", N=300, n=15, sigma=0.5, seed=31, domain=dom)
        assert problems.reference_optimum(inst).f_star == problems.reference_optimum(noisy).f_star

    def test_separable_logistic_has_no_ball(self):
        # f* = 0 is approached along t * x_planted as t grows: no point of a
        # ball attains it, however large the ball.
        inst = problems.generate_problem("logistic", N=50, n=5, seed=3)
        assert problems.reference_optimum(inst).x_star is None
        big = problems.generate_problem(
            "logistic", N=50, n=5, seed=3,
            domain=geometry.ball(np.zeros(5), 1e3 * float(np.linalg.norm(inst.x_planted))))
        with pytest.raises(ValueError, match="outside the ball"):
            problems.reference_optimum(big)


class TestDistanceToOptimum:
    def test_twopoint(self):
        inst = problems.generate_problem("twopoint", delta=0.2, radius=3.0,
                                         seed=2)
        (d,) = problems.distances_to_optimum(inst, np.array([[0.0]]))
        assert d == pytest.approx(3.0)

    def test_rows_match_lone_distances(self):
        rng = np.random.default_rng(8)
        for inst in small_instances(3):
            if inst.kind == problems.LOGISTIC:
                continue
            X = 3.0 * rng.standard_normal((4, inst.n))
            dists = problems.distances_to_optimum(inst, X)
            for c in range(4):
                assert dists[c] == problems.distances_to_optimum(inst, X[c:c + 1])[0]
                if inst.kind != problems.HALFSPACE:
                    x_star = problems.reference_optimum(inst).x_star
                    assert dists[c] == np.linalg.norm(X[c] - x_star)

    def test_halfspace_uses_projection(self):
        inst = problems.generate_problem("halfspace", N=25, n=3, seed=3)
        assert problems.distances_to_optimum(inst, inst.x_planted[np.newaxis]).tolist() == [0.0]
        x = inst.x_planted + 10.0 * np.ones(3)
        (d,) = problems.distances_to_optimum(inst, x[np.newaxis])
        assert d > 0.0
        # Projection feasibility: the projected point satisfies every halfspace.
        from batchprox.prox import project_polyhedron

        proj = project_polyhedron(inst.A, inst.b, x)
        assert np.all(inst.A @ proj - inst.b <= 1e-7)
