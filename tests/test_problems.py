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
        assert not inst.noiseless

    def test_label_flip_rate(self):
        flips, total = 0, 0
        for seed in range(40):
            inst = problems.generate_problem("logistic", N=500, n=5, p=0.01,
                                             seed=seed)
            # The flipped labels are those the planted point misclassifies.
            flips += int(np.count_nonzero(inst.b * (inst.A @ inst.x_planted) < 0))
            total += inst.N
        rate = flips / total
        assert abs(rate - 0.01) < 3 * np.sqrt(0.01 * 0.99 / total)

    def test_noiseless_linreg_interpolates(self):
        inst = problems.generate_problem("linreg", N=50, n=5, sigma=0.0, seed=3)
        ref = problems.reference_optimum(inst)
        assert ref.f_star == 0.0
        assert problems.objective_value(inst, ref.x_star) < 1e-24

    def test_noiseless_flag_reads_the_kinds_own_parameter(self):
        # Each kind reads only its NOISE_PARAMETERS entry, and ignores the other.
        for kind in problems.KINDS:
            own = problems.NOISE_PARAMETERS.get(kind)
            for sigma, p in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.2), (0.5, 0.2)):
                inst = problems.generate_problem(kind, N=20, n=3, sigma=sigma, p=p, seed=1)
                level = {"sigma": sigma, "p": p, None: 0.0}[own]
                assert inst.noiseless == (level == 0.0)
                if own is not None:
                    ref = problems.generate_problem(kind, N=20, n=3, seed=1,
                                                    **{own: level})
                    np.testing.assert_array_equal(inst.b, ref.b)
        assert problems.make_custom_linreg([[1.0], [2.0]], [1.0, 2.0], [1.0]).noiseless
        assert not problems.make_custom_linreg([[1.0], [2.0]], [1.0, 2.5], [1.0]).noiseless
        assert not problems.make_custom_linreg([[1.0], [2.0]], [1.0, 2.0]).noiseless

    def test_condition_number_ramp(self):
        inst = problems.generate_problem("linreg", N=100, n=10, cond=50.0, seed=1)
        s = np.linalg.svd(inst.A, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(50.0, rel=1e-9)

    def test_halfspace_planted_interior(self):
        # Unit rows, and the planted point strictly inside every halfspace.
        for cond in (1.0, 10.0):
            inst = problems.generate_problem("halfspace", N=60, n=6, cond=cond, seed=2)
            np.testing.assert_allclose(np.linalg.norm(inst.A, axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(inst.b - inst.A @ inst.x_planted > 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            problems.generate_problem("linreg", N=0, n=3)
        for kind in problems.KINDS:
            for noise in (dict(sigma=-0.5), dict(sigma=np.nan), dict(p=1.5), dict(p=-0.1)):
                with pytest.raises(ValueError, match="sigma must be >= 0 and p"):
                    problems.generate_problem(kind, N=5, n=2, **noise)
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
    # The sign v is the `choice([-1, 1])` draw of the seed's stream, and the
    # instance holds v * R (R = 1) as its informative label and planted point.
    for seed in range(1000):
        inst = problems.generate_problem("twopoint", delta=0.1, seed=seed)
        v = int(np.random.default_rng(seed).choice([-1, 1]))
        assert inst.b.tolist() == [0.0, v] and inst.x_planted.tolist() == [v]


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
        v = int(np.random.default_rng(5).choice([-1, 1]))
        np.testing.assert_array_equal(inst.b, [0.0, v * 1.7])
        np.testing.assert_array_equal(inst.x_planted, [v * 1.7])
        x = np.array([0.4])
        r = 0.4 - v * 1.7
        (v0,), (g0,) = problems.batch_losses(inst, x, [0])
        (v1,), (g1,) = problems.batch_losses(inst, x, [1])
        assert (v0, g0.tolist()) == (0.0, [0.0])
        assert v1 == abs(r) ** 1.5 / 1.5
        assert g1.tolist() == [np.sign(r) * abs(r) ** 0.5]

    def test_halfspace_losses_are_distances_on_any_row_scale(self):
        # Scaling a row and its b keeps the halfspace.  On such scaled data,
        # max(<a,x> - b, 0) / ||a|| and its gradient match the losses of the
        # unit-row instance, and so does the distance to each halfspace.
        from batchprox.prox import project_polyhedron

        rng = np.random.default_rng(21)
        for seed in range(3):
            inst = problems.generate_problem("halfspace", N=30, n=4, seed=seed)
            scale = np.exp(rng.uniform(-3.0, 3.0, inst.N))
            A, b = inst.A * scale[:, np.newaxis], inst.b * scale
            X = inst.x_planted + 2.0 * rng.standard_normal((5, inst.n))
            idx = np.tile(np.arange(inst.N), (5, 1))
            vals, grads = problems.stacked_losses(inst, X, idx)
            norms = np.linalg.norm(A, axis=1)
            r = X @ A.T - b
            # Relative to the terms of <a,x> - b, whose difference cancels.
            terms = (np.abs(X) @ np.abs(A).T + np.abs(b)) / norms
            assert np.all(np.abs(vals - np.maximum(r, 0.0) / norms) <= 1e-14 * terms)
            np.testing.assert_allclose(
                grads, np.where(r > 0, 1.0, 0.0)[..., np.newaxis] * (A / norms[:, np.newaxis]),
                rtol=1e-14, atol=0)
            assert (vals > 0).any() and (vals == 0).any()
            for c, x in enumerate(X):
                for i in range(inst.N):
                    d = np.linalg.norm(x - project_polyhedron(A[i:i + 1], b[i:i + 1], x))
                    assert vals[c, i] == pytest.approx(d, rel=1e-12, abs=1e-15)

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
        r = abs(0.5 - inst.b[1])  # b[1] = v * R
        assert problems.objective_value(inst, x) == pytest.approx(
            0.25 * r**2 / 2.0
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_twopoint_rows_are_the_scalar_formula(self, gamma):
        inst = problems.generate_problem("twopoint", delta=0.3, radius=1.7,
                                         gamma=gamma, seed=5)
        X = 3.0 * np.random.default_rng(6).standard_normal((500, 1))
        expected = [inst.delta * abs(float(x[0]) - float(inst.b[1]))  # b[1] = v * R
                    ** (1.0 + gamma) / (1.0 + gamma) for x in X]
        np.testing.assert_array_equal(problems.objective_values(inst, X), expected)

    def test_values_do_not_depend_on_blas_threads(self):
        # N-sized reductions of 20 rows, in one- and two-thread processes.
        src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from batchprox import problems\n"
            "X = np.random.default_rng(1).standard_normal((20, 40))\n"
            "for kind, kw in [('logistic', {'p': 0.1}), ('absreg', {'sigma': 0.5}),\n"
            "                 ('linreg', {'sigma': 0.5})]:\n"
            "    for N in (1000, 10000):\n"
            "        inst = problems.generate_problem(kind, N=N, n=40, seed=3, **kw)\n"
            "        vals = problems.objective_values(inst, X)\n"
            "        print(kind, N, vals.size, hashlib.sha256(vals.tobytes()).hexdigest())\n")
        out = [subprocess.run([sys.executable, "-c", code], check=True, text=True,
                              capture_output=True, env=dict(env, **{k: t for k in threads})
                              ).stdout for t in ("1", "2")]
        assert out[0].count(" 20 ") == 6
        assert out[0] == out[1]


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

    def test_absreg_reference_does_not_depend_on_blas_threads(self):
        # Paper-size noisy absreg (N = 1000, n = 40, sigma 0.5) at cond 1 and
        # 10: f* is solved on the named rows in index order, so it holds its
        # bits however the interior point's products are split.
        src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = (
            "from batchprox import problems\n"
            "from batchprox.harness import config, sweep\n"
            "prob = config.preset('paper-absreg').problems[0]\n"
            "for cond in (1.0, 10.0):\n"
            "    for seed in range(12):\n"
            "        inst = prob.instantiate(cond, sweep._instance_seed(0, prob, cond, seed))\n"
            "        print(problems.reference_optimum(inst).f_star.hex())\n")
        out = [subprocess.run([sys.executable, "-c", code], check=True, text=True,
                              capture_output=True, env=dict(env, **{k: t for k in threads})
                              ).stdout for t in ("1", "2")]
        assert out[0].count("\n") == 24 and out[0] == out[1]

    def test_separable_flipped_logistic(self):
        # A flipped label that the planted point misclassifies, but another
        # direction still separates every sample: inf f = 0, unattained.
        inst = problems.generate_problem("logistic", N=200, n=20, p=0.01, seed=2)
        assert not np.all(inst.b * (inst.A @ inst.x_planted) > 0)  # a flip
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


def _qr_lad_interior_point(A, b):
    """The Mehrotra interior point as it was before the normal equations:
    each iteration QR-factors sqrt(Theta) A and solves both Newton systems
    through R'R.  Kept as the oracle for the naming of the basis."""
    N = A.shape[0]
    c = 0.5 * A.sum(axis=0)
    u, s = np.full(N, 0.5), np.full(N, 0.5)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    res = b - A @ x
    shift = float(np.abs(res).mean()) + 1e-300
    w, z = np.maximum(res, 0.0) + shift, np.maximum(-res, 0.0) + shift

    def ratio(v, dv):
        neg = dv < 0
        return min(1.0, 0.99995 * float(np.min(-v[neg] / dv[neg], initial=np.inf)))

    for _ in range(100):
        gap = float(u @ z + s @ w)
        if gap <= 1e-12 * (1.0 + abs(float(b @ u))):
            break
        theta = 1.0 / (z / u + w / s)
        R = np.linalg.qr(np.sqrt(theta)[:, np.newaxis] * A, mode="r")
        r_p, r_d = c - A.T @ u, b - A @ x - w + z

        def newton(r_uz, r_sw):
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


def _named_basis(A, b, x):
    """The rows named from the iterate x, in the order they are named: by
    residual, skipping rows dependent on those already named (Gram-Schmidt,
    twice), as ``problems._absreg_reference`` named them before it read the
    same test off the diagonal of one QR per block of rows.  The oracle for
    that naming."""
    n = A.shape[1]
    basis, q = [], np.zeros((n, 0))
    for i in np.argsort(np.abs(A @ x - b), kind="stable"):
        v = A[i] - q @ (q.T @ A[i])
        v -= q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-9 * np.linalg.norm(A[i]):
            basis.append(i)
            q = np.column_stack([q, v / norm])
            if len(basis) == n:
                break
    return basis


def _vertex(A, b, basis):
    """x solved on the rows ``basis`` in the given order (LU when square)."""
    if len(basis) == A.shape[1]:
        return np.linalg.solve(A[basis], b[basis])
    return np.linalg.lstsq(A[basis], b[basis], rcond=None)[0]


def _stressed_absreg(i):
    """Instance i of a seeded noisy-absreg stress family: n 1-40, N <= n in
    half the draws, else up to 1000, cond 1, 10 or 100, sigma 0.01-5, and
    duplicated rows, shuffled in, in 30% of the draws."""
    rng = np.random.default_rng(1000 + i)
    n = int(rng.integers(1, 41))
    shape = int(rng.integers(0, 4))
    N = ((n, max(1, n - int(rng.integers(1, n + 1))))[shape] if shape < 2
         else int(rng.integers(n + 1, 1001)))
    cond = float(rng.choice([1.0, 10.0, 100.0]))
    sigma = float(10 ** rng.uniform(-2, np.log10(5)))
    inst = problems.generate_problem("absreg", N=N, n=n, sigma=sigma, cond=cond, seed=i)
    if rng.random() < 0.3:
        extra = rng.integers(0, N, int(rng.integers(1, N + 1)))
        perm = rng.permutation(N + extra.size)
        inst.A = np.vstack([inst.A, inst.A[extra]])[perm]
        inst.b = np.concatenate([inst.b, inst.b[extra]])[perm]
        inst.N = inst.A.shape[0]
    return inst


class TestAbsregNormalEquations:
    """The interior point solves its Newton systems with A'(Theta)A; it only
    has to name the basis, which the QR form it replaced named too."""

    def test_names_the_basis_of_the_qr_interior_point(self):
        moved = 0
        for i in range(200):
            inst = _stressed_absreg(i)
            A, b = inst.A, inst.b
            named = _named_basis(A, b, problems._lad_interior_point(A, b)[0])
            oracle = _named_basis(A, b, _qr_lad_interior_point(A, b)[0])
            # The same rows; a duplicated row may be named by another copy.
            assert ({(A[j].tobytes(), b[j].tobytes()) for j in named}
                    == {(A[j].tobytes(), b[j].tobytes()) for j in oracle}), i
            ref = problems.reference_optimum(inst)
            assert 0.0 <= ref.tolerance <= 1e-10 * max(1.0, ref.f_star), i
            assert ref.x_star.tobytes() == _vertex(A, b, sorted(named)).tobytes(), i
            assert ref.f_star == problems.objective_value(inst, ref.x_star), i
            # Against f* solved on the rows in the order the QR iterate named
            # them: the two differ only by the rounding of the vertex solve.
            parent = problems.objective_value(inst, _vertex(A, b, oracle))
            moved += parent != ref.f_star
            if np.unique(A, axis=0).shape[0] > inst.n:
                assert abs(ref.f_star - parent) <= 1e-15 * max(1.0, parent), i
            else:  # at most n distinct rows: f* is 0 up to rounding
                assert max(ref.f_star, parent) <= 1e-13, i
        assert 0 < moved < 200

    def test_f_star_depends_only_on_the_named_rows(self, monkeypatch):
        # Iterates that order the basis rows differently but name the same
        # rows give the same f* and x* bytes: the rows are solved in index
        # order.  The QR solve in the naming order moved f* on some of them.
        inst = problems.generate_problem("absreg", N=1000, n=40, sigma=0.5, seed=3)
        A, b = inst.A, inst.b
        x, u = problems._lad_interior_point(A, b)
        basis = set(_named_basis(A, b, x))
        ref = problems.reference_optimum(inst)
        rng = np.random.default_rng(0)
        orders, named_order_f = set(), set()
        for _ in range(8):
            xp = x + 1e-9 * rng.standard_normal(inst.n)
            assert set(_named_basis(A, b, xp)) == basis
            orders.add(tuple(_named_basis(A, b, xp)))
            named_order_f.add(problems.objective_value(inst, _vertex(A, b, _named_basis(A, b, xp))))
            monkeypatch.setattr(problems, "_lad_interior_point", lambda A, b: (xp, u))
            inst._reference = None
            again = problems.reference_optimum(inst)
            assert again.f_star.hex() == ref.f_star.hex()
            assert again.x_star.tobytes() == ref.x_star.tobytes()
        assert len(orders) > 1 and len(named_order_f) > 1

    @pytest.mark.parametrize("N,n,seed", [(30, 3, 19), (200, 10, 1), (3, 3, 4)])
    @pytest.mark.parametrize("column", ["duplicated", "zero"])
    def test_rank_deficient_data_raises_reference_error(self, N, n, seed, column):
        # A'(Theta)A is singular: the solve's LinAlgError must not escape.
        inst = problems.generate_problem("absreg", N=N, n=n, sigma=0.5, seed=seed)
        inst.A[:, -1] = inst.A[:, 0] if column == "duplicated" else 0.0
        with pytest.raises(problems.ReferenceSolveError) as err:
            problems.reference_optimum(inst)
        assert not isinstance(err.value, np.linalg.LinAlgError)


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
