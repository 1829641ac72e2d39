import math

import numpy as np
import pytest

from batchprox import analysis, geometry, models, optimizers, problems, prox


def noisy_linreg(seed=0, **kw):
    defaults = dict(N=60, n=6, sigma=0.5, seed=seed)
    defaults.update(kw)
    return problems.generate_problem("linreg", **defaults)


def eta(schedule, k):
    """eta(k) = eta0 k^power of a smoothness-adaptive schedule: the oracle
    of the engine's smoothness-adaptive stepsizes."""
    if schedule.power == 0.0:
        return schedule.eta0
    return schedule.eta0 * math.sqrt(k)


class TestSchedules:
    def test_poly_decay_values(self):
        s = optimizers.poly_decay(2.0, 0.5)
        assert s.alpha(1) == 2.0
        assert s.alpha(4) == pytest.approx(1.0)

    def test_constant(self):
        s = optimizers.poly_decay(3.0, 0.0)
        assert s.alpha(100) == 3.0

    def test_smooth_schedule(self):
        s = optimizers.smoothness_adaptive(2.0, 1.0, power=0.5)
        assert s.alpha(4) == pytest.approx(1.0 / 4.0)
        assert eta(s, 9) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimizers.poly_decay(-1.0)
        with pytest.raises(ValueError):
            optimizers.poly_decay(1.0, 1.5)
        with pytest.raises(ValueError):
            optimizers.smoothness_adaptive(0.0, 0.0)
        with pytest.raises(ValueError):
            optimizers.smoothness_adaptive(1.0, 1.0, power=0.3)

    def test_theta_schedule_properties(self):
        assert optimizers.theta(0) == 1.0
        vals = np.array([optimizers.theta(k) for k in range(100)])
        assert np.all(np.diff(vals) < 0)

    def test_theta_recursion_identity(self):
        # (1 - theta_k)/theta_k^2 = k(k+2)/4 and 1/theta_{k-1}^2 = (k+1)^2/4,
        # so the recursion bound is k(k+2) <= (k+1)^2, i.e. 0 <= 1.
        ks = np.arange(1, 10_001)
        assert np.all(ks * (ks + 2) == (ks + 1) ** 2 - 1)
        for k in (1, 2, 10, 1000, 10**6):
            t, prev = optimizers.theta(k), optimizers.theta(k - 1)
            assert (1.0 - t) / t**2 <= 1.0 / prev**2 * (1.0 + 1e-15)


class TestRunBase:
    def test_start_at_optimum_converges_immediately(self):
        inst = problems.generate_problem("linreg", N=30, n=4, sigma=0.0, seed=1)
        rec = optimizers.run_base(inst, models.pma(), optimizers.poly_decay(1.0),
                                  m=2, n_steps=10, epsilon=1e-10,
                                  rng=np.random.default_rng(0),
                                  x0=inst.x_planted)
        assert rec.status == "converged" and rec.k_converged == 0
        assert _time_to_epsilon(rec, 2) == 2  # one batch

    def test_bitwise_determinism(self):
        inst = noisy_linreg(3)
        kw = dict(m=4, n_steps=200, epsilon=1e-12,
                  record=optimizers.RecordOptions(stride=7))
        a = optimizers.run_base(inst, models.pam(), optimizers.poly_decay(0.5),
                                rng=np.random.default_rng(9), **kw)
        b = optimizers.run_base(inst, models.pam(), optimizers.poly_decay(0.5),
                                rng=np.random.default_rng(9), **kw)
        assert a.status == b.status
        np.testing.assert_array_equal(a.gaps, b.gaps)
        np.testing.assert_array_equal(a.x_final, b.x_final)
        np.testing.assert_array_equal(a.ks, b.ks)

    def test_divergence_guard(self):
        inst = noisy_linreg(5)
        rec = optimizers.run_base(inst, models.sgm(),
                                  optimizers.poly_decay(1e4, 0.0), m=1,
                                  n_steps=5000, epsilon=1e-12,
                                  rng=np.random.default_rng(1))
        assert rec.status == "diverged"

    def test_budget_status(self):
        inst = noisy_linreg(6)
        rec = optimizers.run_base(inst, models.sgm(),
                                  optimizers.poly_decay(1e-6), m=1, n_steps=50,
                                  epsilon=1e-12, rng=np.random.default_rng(2))
        assert rec.status == "budget"
        assert rec.samples[-1] == 50

    def test_full_batch_prox_monotone_gap(self):
        inst = noisy_linreg(7, N=40, n=5)
        rec = optimizers.run_base(inst, models.full_prox(),
                                  optimizers.poly_decay(1.0, 0.0), m=40,
                                  n_steps=60, epsilon=1e-14,
                                  rng=np.random.default_rng(3),
                                  record=optimizers.RecordOptions(stride=1))
        assert rec.config["full_batch"]
        assert np.all(np.diff(rec.gaps) <= 1e-12)

    def test_full_batch_needs_a_uniform_law(self):
        # On the two-point family a full batch would weigh both atoms alike,
        # not by the sampling law (1 - delta, delta).
        inst = problems.generate_problem("twopoint", delta=0.1, radius=1.0, seed=1)
        for run in (optimizers.run_base, optimizers.run_accelerated):
            with pytest.raises(ValueError, match="uniform sampling law"):
                run(inst, models.sgm(), optimizers.poly_decay(0.5, 0.0), m=2,
                    n_steps=5, epsilon=1e-12, rng=np.random.default_rng(0),
                    full_batch=True)
        rec = optimizers.run_base(inst, models.sgm(), optimizers.poly_decay(0.5, 0.0),
                                  m=2, n_steps=5, epsilon=1e-12,
                                  rng=np.random.default_rng(0))
        assert not rec.config["full_batch"]

    def test_infinite_alpha_restricted_to_truncated(self):
        inst = noisy_linreg(8)
        sched = optimizers.poly_decay(math.inf, 0.0)
        with pytest.raises(ValueError):
            optimizers.run_base(inst, models.full_prox(), sched, m=1,
                                n_steps=5, epsilon=1e-6,
                                rng=np.random.default_rng(0))
        rec = optimizers.run_base(inst, models.pma(), sched, m=1, n_steps=5,
                                  epsilon=1e-12, rng=np.random.default_rng(0))
        assert rec.status in ("budget", "converged")

    def test_nonexpansive_toward_planted_minimizer(self):
        # Interpolation: dist(x_{k+1}, x*)^2 <= dist(x_k, x*)^2 + 1e-9.
        inst = problems.generate_problem("halfspace", N=50, n=8, seed=9)
        x_star = inst.x_planted
        for strat in (models.pma(), models.pam()):
            rng = np.random.default_rng(4)
            x = np.zeros(8)
            prev = float(np.sum((x - x_star) ** 2))
            sched = optimizers.poly_decay(math.inf, 0.0) \
                if strat.method_id == "pma" else optimizers.poly_decay(10.0, 0.0)
            for k in range(1, 300):
                idx = problems.sample_batch(inst, 4, rng)
                model = models.build_batch_model(inst, x, idx, strat)
                res = prox.solve_model_prox(model, x, sched.alpha(k))
                x = res.x_next
                cur = float(np.sum((x - x_star) ** 2))
                assert cur <= prev + 1e-9
                prev = cur

    def test_small_consistent_system_solved_in_three_prox_steps(self):
        # m = n full-rank batch on a consistent system: the full proximal
        # step with a large stepsize nails the solution almost immediately.
        inst = problems.generate_problem("linreg", N=50, n=2, sigma=0.0, seed=2)
        rec = optimizers.run_base(inst, models.full_prox(),
                                  optimizers.poly_decay(1e6, 0.0), m=2,
                                  n_steps=3, epsilon=1e-8,
                                  rng=np.random.default_rng(6),
                                  record=optimizers.RecordOptions(stride=1))
        assert rec.status == "converged" and rec.k_converged <= 3

    def test_gap_trace_nonnegative_within_reference_accuracy(self):
        inst = problems.generate_problem("logistic", N=120, n=5, p=0.1, seed=24)
        rec = optimizers.run_base(inst, models.full_prox(),
                                  optimizers.poly_decay(3.16), m=8,
                                  n_steps=2000, epsilon=1e-9,
                                  rng=np.random.default_rng(7),
                                  record=optimizers.RecordOptions(stride=10))
        assert np.all(rec.gaps >= -1e-8)

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_one_config_for_both_loops(self, accelerated):
        inst = noisy_linreg(25)
        run = optimizers.run_accelerated if accelerated else optimizers.run_base
        for strat in (models.pma(), models.pia(models.LINEAR)):
            rec = run(inst, strat, optimizers.poly_decay(0.5), m=2, n_steps=3,
                      epsilon=1e-12, rng=np.random.default_rng(8))
            pia = strat.method_id == "pia"
            assert set(rec.config) == {"method", "accelerated", "m", "epsilon", "full_batch",
                                       "schedule"} | ({"pia_kind"} if pia else set())
            assert rec.config["accelerated"] is accelerated
            assert rec.config.get("pia_kind") == (models.LINEAR if pia else None)


class TestRunPia:
    def test_m1_identical_to_base(self):
        # At m = 1, pia takes the step of its per-sample model, so it is that
        # model's run bit for bit, redraws after a degenerate sample included.
        # Row 0 of the custom instance is a = 0 with b = 1: a truncated model
        # there has a zero gradient above its floor.
        rng = np.random.default_rng(13)
        A, b = rng.standard_normal((30, 4)), rng.standard_normal(30)
        A[0], b[0] = 0.0, 1.0
        instances = [problems.generate_problem("absreg", N=30, n=4, sigma=0.5, seed=13),
                     problems.make_custom_linreg(A, b)]
        pairs = [(models.TRUNCATED, models.pma()), (models.LINEAR, models.sgm()),
                 (models.FULL_PROX, models.full_prox())]
        kw = dict(m=1, n_steps=150, epsilon=1e-12,
                  record=optimizers.RecordOptions(stride=1))
        for inst in instances:
            for kind, strat in pairs:
                a = optimizers.run_pia(inst, kind, optimizers.poly_decay(0.7),
                                       rng=np.random.default_rng(7), **kw)
                base = optimizers.run_base(inst, strat, optimizers.poly_decay(0.7),
                                           rng=np.random.default_rng(7), **kw)
                assert a.status == base.status == optimizers.STATUS_BUDGET, (inst.kind, kind)
                assert a.gaps.tobytes() == base.gaps.tobytes(), (inst.kind, kind)

    def test_linear_kind_equals_sgm(self):
        inst = noisy_linreg(14)
        kw = dict(m=6, n_steps=100, epsilon=1e-12,
                  record=optimizers.RecordOptions(stride=1))
        a = optimizers.run_pia(inst, models.LINEAR, optimizers.poly_decay(0.3),
                               rng=np.random.default_rng(8), **kw)
        b = optimizers.run_base(inst, models.sgm(), optimizers.poly_decay(0.3),
                                rng=np.random.default_rng(8), **kw)
        np.testing.assert_allclose(a.gaps, b.gaps, rtol=1e-10)

    def test_two_halfspace_mean_of_projections(self):
        # Feasibility intuition: with two halfspaces, infinite stepsize, the
        # iterate-averaged truncated update is the mean of the projections.
        rng = np.random.default_rng(15)
        A = rng.standard_normal((2, 3))
        x_star = rng.standard_normal(3)
        b = A @ x_star + rng.uniform(0.1, 1.0, 2)
        norms = np.linalg.norm(A, axis=1)  # instances carry unit rows
        A, b = A / norms[:, np.newaxis], b / norms
        inst = problems.generate_problem("halfspace", N=2, n=3, seed=0)
        inst.A, inst.b, inst.x_planted = A, b, x_star

        # A point violating both halfspaces: push along d with A d = (1, 1).
        d, *_ = np.linalg.lstsq(A, np.ones(2), rcond=None)
        x = x_star + 10.0 * d
        assert np.all(A @ x - b > 0)
        out = prox.pia_step(inst, x, np.array([0, 1]), models.TRUNCATED,
                            math.inf)
        projections = []
        for i in range(2):
            viol = float(A[i] @ x - b[i])
            proj = x - max(viol, 0.0) * A[i] / float(A[i] @ A[i])
            projections.append(proj)
        np.testing.assert_allclose(out, np.mean(projections, axis=0),
                                   atol=1e-12)


class TestRunAccelerated:
    def test_theta0_collapses_first_step(self):
        # theta_0 = 1: y_0 = z_0 and x_1 = z_1 exactly, with no x_0 mixing.
        inst = noisy_linreg(16)
        x0 = 5.0 * np.ones(6)
        rec = optimizers.run_accelerated(
            inst, models.sgm(), optimizers.poly_decay(0.5), m=3, n_steps=1,
            epsilon=1e-14, rng=np.random.default_rng(11), x0=x0,
        )
        # Replay: same stream, model anchored at y_0 = z_0 = x_0.
        rng = np.random.default_rng(11)
        idx = problems.sample_batch(inst, 3, rng)
        model = models.build_batch_model(inst, x0, idx, models.sgm())
        z1 = x0 - 0.5 * model.gbar
        np.testing.assert_allclose(rec.x_final, z1, atol=1e-14)

    def test_deterministic_quadratic_matches_scalar_reference(self):
        # f(x) = x^2/2 via one sample (a=1, b=0); full-batch linear model.
        inst = problems.make_custom_linreg(np.array([[1.0]]), np.array([0.0]),
                                           x_planted=np.array([0.0]))
        sched = optimizers.poly_decay(0.4, 0.0)
        rec = optimizers.run_accelerated(
            inst, models.sgm(), sched, m=1, n_steps=3, epsilon=1e-30,
            rng=np.random.default_rng(0), x0=np.array([2.0]), full_batch=True,
            record=optimizers.RecordOptions(stride=1),
        )
        # Scalar transcription of the three-term iteration: F(x) = x^2/2,
        # F'(y) = y, alpha_k = 0.4, theta_k = 2/(k+2).
        x, z = 2.0, 2.0
        gaps = []
        for k in range(3):
            th = 2.0 / (k + 2)
            y = (1 - th) * x + th * z
            z = z - 0.4 * y
            x = (1 - th) * x + th * z
            gaps.append(0.5 * x * x)
        np.testing.assert_allclose(rec.gaps[1:], gaps, rtol=1e-12)

    def test_pam_replays_pam_step_at_shifted_centers(self):
        # The stacked pam kernel shifts the pieces' values from the anchor y
        # to the prox center z; replay it with pam_step on models at y.
        inst = problems.generate_problem("absreg", N=30, n=4, sigma=0.5, seed=3)
        sched = optimizers.poly_decay(0.7, 0.5)
        rec = optimizers.run_accelerated(
            inst, models.pam(), sched, m=4, n_steps=4, epsilon=1e-300,
            rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        x = z = np.zeros(inst.n)
        for k in range(1, 5):
            th = 2.0 / (k + 1)
            y = (1 - th) * x + th * z
            model = models.build_batch_model(
                inst, y, problems.sample_batch(inst, 4, rng), models.pam())
            z = prox.pam_step(z, model, sched.alpha(k)).x_next
            x = (1 - th) * x + th * z
        np.testing.assert_allclose(rec.x_final, x, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("power", [0.0, 0.5])
    def test_smooth_schedule_honours_power(self, power):
        # alpha_k = 1/(L theta_k + eta(k+1)), eta(j) = eta0 j^power.
        inst = noisy_linreg(12)
        L, eta0 = optimizers.smoothness_constant(inst), 3.0
        rec = optimizers.run_accelerated(
            inst, models.sgm(), optimizers.smoothness_adaptive(L, eta0, power),
            m=inst.N, n_steps=4, epsilon=1e-300, rng=np.random.default_rng(0),
            full_batch=True)
        x = z = np.zeros(inst.n)
        for k in range(4):
            th = 2.0 / (k + 2)
            alpha = 1.0 / (L * th + eta0 * (k + 1) ** power)
            y = (1 - th) * x + th * z
            z = z - alpha * inst.A.T @ (inst.A @ y - inst.b) / inst.N
            x = (1 - th) * x + th * z
        np.testing.assert_allclose(rec.x_final, x, rtol=1e-12, atol=1e-14)

    def test_suggested_eta0(self):
        assert optimizers.suggested_eta0(2.0, 4, 5.0) == pytest.approx(0.2)
        assert optimizers.suggested_eta0(2.0, 4, 5.0, accelerated=True) == \
            pytest.approx(0.8)

    def test_accelerated_beats_base_on_smooth(self):
        inst = problems.generate_problem("linreg", N=50, n=30, sigma=0.0,
                                         cond=30.0, seed=17)
        L = optimizers.smoothness_constant(inst)
        sched = optimizers.smoothness_adaptive(L, 0.0, 0.0)
        kw = dict(m=50, n_steps=400, epsilon=1e-300,
                  rng=np.random.default_rng(0), full_batch=True,
                  record=optimizers.RecordOptions(stride=50))
        base = optimizers.run_base(inst, models.sgm(), sched, **kw)
        acc = optimizers.run_accelerated(inst, models.sgm(), sched, **kw)
        assert acc.gaps[-1] < base.gaps[-1] / 10

    def test_pia_composes_with_acceleration(self):
        inst = noisy_linreg(20)
        rec = optimizers.run_accelerated(
            inst, models.pia(models.TRUNCATED), optimizers.poly_decay(1.0),
            m=4, n_steps=100, epsilon=1e-12, rng=np.random.default_rng(12),
        )
        assert rec.status in ("budget", "converged")
        assert rec.gaps[-1] < rec.gaps[0]


ENGINE_INSTANCES = {
    "linreg": dict(N=40, n=5, sigma=0.5),
    "absreg": dict(N=40, n=5, sigma=0.5),
    "logistic": dict(N=40, n=5, p=0.1),
    "halfspace": dict(N=40, n=5),
}


def _assert_same_record(a, b):
    assert (a.status, a.k_converged) == (b.status, b.k_converged)
    np.testing.assert_array_equal(a.ks, b.ks)
    np.testing.assert_array_equal(a.gaps, b.gaps)
    np.testing.assert_array_equal(a.avg_gaps, b.avg_gaps)
    np.testing.assert_array_equal(a.x_final, b.x_final)


def _lockstep_kwargs(inst, m, accelerated):
    gap0 = problems.objective_value(inst, np.zeros(inst.n)) \
        - problems.reference_optimum(inst).f_star
    return dict(m=m, n_steps=30, epsilon=0.05 * gap0, accelerated=accelerated,
                record=optimizers.RecordOptions(stride=4))


def _group(inst, method, alphas, m, accelerated):
    return optimizers._run_lockstep(
        inst, models.strategy_from_id(method),
        [optimizers.poly_decay(a) for a in alphas],
        rngs=[np.random.default_rng(40 + i) for i in range(len(alphas))],
        **_lockstep_kwargs(inst, m, accelerated))


def _group_and_alone(inst, method, alphas, m, accelerated):
    strategy = models.strategy_from_id(method)
    alone = [optimizers._run_lockstep(inst, strategy, [optimizers.poly_decay(a)],
                                      rngs=[np.random.default_rng(40 + i)],
                                      **_lockstep_kwargs(inst, m, accelerated))[0]
             for i, a in enumerate(alphas)]
    return _group(inst, method, alphas, m, accelerated), alone


def _fail_fifth_step_of_alpha0_2(monkeypatch, kernel):
    """Make the alpha0 = 2 cell fail every attempt of its fifth step."""
    real = getattr(prox, kernel)
    doomed = 2.0 * 5 ** -0.5
    alpha_arg = 3 if kernel == "box_dual_steps" else -1

    def flaky(*args):
        if np.any(args[alpha_arg] == doomed):
            raise prox.InnerSolveError("forced")
        return real(*args)

    monkeypatch.setattr(prox, kernel, flaky)


FORCED_FAILURES = pytest.mark.parametrize("method, m, kernel", [
    ("pma", 4, "truncated_steps"), ("prox", 4, "linreg_prox_stacked"),
    ("pam", 4, "box_dual_steps")])


class TestLockstep:
    @pytest.mark.parametrize("kind", sorted(ENGINE_INSTANCES))
    @pytest.mark.parametrize("method", ["sgm", "pma", "pam", "prox", "pia"])
    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("m", [1, 4])
    def test_group_equals_cells_run_alone(self, kind, method, accelerated, m):
        inst = problems.generate_problem(kind, seed=5, **ENGINE_INSTANCES[kind])
        group, alone = _group_and_alone(inst, method, [0.05, 1.0, 40.0], m,
                                        accelerated)
        for a, b in zip(group, alone):
            _assert_same_record(a, b)

    @FORCED_FAILURES
    def test_failing_cell_leaves_the_others_alone(self, monkeypatch, method, m,
                                                  kernel):
        _fail_fifth_step_of_alpha0_2(monkeypatch, kernel)
        inst = noisy_linreg(30)
        group, alone = _group_and_alone(inst, method, [0.5, 2.0, 8.0], m, False)
        for a, b in zip(group, alone):
            _assert_same_record(a, b)
        assert group[1].status == optimizers.STATUS_INNERFAIL
        assert group[1].ks[-1] == 4
        assert all(r.status != optimizers.STATUS_INNERFAIL for r in group[::2])

    @pytest.mark.parametrize("kind", sorted(ENGINE_INSTANCES))
    @pytest.mark.parametrize("method", ["sgm", "pma", "pam", "prox", "pia"])
    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_rows_do_not_depend_on_block_size(self, monkeypatch, kind, method,
                                              accelerated, m):
        inst = problems.generate_problem(kind, seed=5, **ENGINE_INSTANCES[kind])
        blocks = _group(inst, method, [0.05, 1.0, 40.0], m, accelerated)
        monkeypatch.setattr(optimizers, "_BLOCK_INDICES", 1)  # one batch per draw
        per_step = _group(inst, method, [0.05, 1.0, 40.0], m, accelerated)
        for a, b in zip(blocks, per_step):
            _assert_same_record(a, b)

    @FORCED_FAILURES
    def test_redraws_cross_block_boundaries(self, monkeypatch, method, m, kernel):
        # With five batches per block, the fifth step's first attempt takes
        # the last batch of the doomed cell's first block and its redraws
        # take the first two of the next.
        _fail_fifth_step_of_alpha0_2(monkeypatch, kernel)
        inst = noisy_linreg(30)
        runs = []
        for block in (optimizers._BLOCK_INDICES, 5 * m, 1):
            monkeypatch.setattr(optimizers, "_BLOCK_INDICES", block)
            runs.append(_group(inst, method, [0.5, 2.0, 8.0], m, False))
        assert runs[0][1].status == optimizers.STATUS_INNERFAIL
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                _assert_same_record(a, b)

    @pytest.mark.parametrize("method", ["sgm", "pma", "pam", "prox"])
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_a_redraw_that_succeeds_puts_one_cell_ahead(self, monkeypatch, method,
                                                        accelerated):
        # The alpha0 = 2 cell fails only the first attempt of its fifth step
        # (the stacked call and its lone redo), and its redraw succeeds: from
        # then on it reads its batches one ahead of the other cells.
        real, doomed = prox.stacked_step, 2.0 * 5 ** -0.5
        failed = []

        def stacked_step(*args):
            kernel, first = real(*args), []

            def step(A, Zc, alpha, idx):
                hit = np.flatnonzero(alpha == doomed)
                if hit.size and not first:
                    first.append(idx[hit[0]].copy())
                if hit.size and np.array_equal(idx[hit[0]], first[0]):
                    failed.append(alpha.size)
                    raise prox.InnerSolveError("forced")
                return kernel(A, Zc, alpha, idx)
            return step

        monkeypatch.setattr(prox, "stacked_step", stacked_step)
        inst, m, alphas = noisy_linreg(30), 4, [0.5, 2.0, 8.0]
        kw = dict(m=m, n_steps=30, epsilon=1e-300, accelerated=accelerated,
                  record=optimizers.RecordOptions(stride=1, record_average=True,
                                                  record_distance=True))
        strategy = models.strategy_from_id(method)

        def lone(i):
            return optimizers._run_lockstep(
                inst, strategy, [optimizers.poly_decay(alphas[i])],
                rngs=[np.random.default_rng(40 + i)], **kw)[0]

        # One batch per draw reads the plain stream: the reference.
        blocks = (optimizers._BLOCK_INDICES, 5 * m, 1)
        monkeypatch.setattr(optimizers, "_BLOCK_INDICES", 1)
        reference = [lone(i) for i in range(3)]
        for block in blocks:
            monkeypatch.setattr(optimizers, "_BLOCK_INDICES", block)
            failed.clear()
            group = optimizers._run_lockstep(
                inst, strategy, [optimizers.poly_decay(a) for a in alphas],
                rngs=[np.random.default_rng(40 + i) for i in range(3)], **kw)
            assert failed == [3, 1]
            assert group[1].status != optimizers.STATUS_INNERFAIL
            assert group[1].ks[-1] == 30
            for i, (rec, ref) in enumerate(zip(group, reference)):
                for run in (rec, lone(i)):
                    assert (run.status, run.k_converged) == (ref.status, ref.k_converged)
                    for name in ("ks", "gaps", "avg_gaps", "dists", "x_final",
                                 "x_avg_final"):
                        assert getattr(run, name).tobytes() == getattr(ref, name).tobytes()

    def test_settle_statuses(self):
        cells = np.array([0, 2, 3, 5, 6, 7])
        gaps = np.array([0.05, np.nan, np.inf, 5.0, 1.0, -np.inf])
        limit = np.array([1.0, 9.0, np.inf, np.inf, 9.0, 4.0, np.nan, 1.0])
        status, k_conv = ["budget"] * 8, [None] * 8
        running = optimizers._settle(cells, 7, gaps, 0.1, limit, status, k_conv)
        assert running.tolist() == [6]  # a NaN limit stops nothing finite
        assert status == ["converged", "budget", "diverged", "diverged",
                          "budget", "diverged", "budget", "converged"]
        assert k_conv == [7, None, None, None, None, None, None, 7]

    def test_settle_wide_stacks_take_the_mask(self, monkeypatch):
        # test_settle_statuses' NaN, +-inf and NaN-limit cases, tiled past the
        # widest stack that takes the comparison chain, and a wide stack in
        # which every cell runs on: the NumPy mask gives the chain's answer.
        reps = optimizers._CHAIN_CELLS // 6 + 1
        cells = (np.array([0, 2, 3, 5, 6, 7]) + 8 * np.arange(reps)[:, np.newaxis]).ravel()
        gaps = np.tile([0.05, np.nan, np.inf, 5.0, 1.0, -np.inf], reps)
        limit = np.tile([1.0, 9.0, np.inf, np.inf, 9.0, 4.0, np.nan, 1.0], reps)
        calm = np.full(cells.size, 0.5)  # below every limit: every cell runs on
        assert cells.size > optimizers._CHAIN_CELLS
        outcomes = []
        for widest in (optimizers._CHAIN_CELLS, 10 ** 9):  # the mask, then the chain
            monkeypatch.setattr(optimizers, "_CHAIN_CELLS", widest)
            status, k_conv = ["budget"] * (8 * reps), [None] * (8 * reps)
            running = optimizers._settle(cells, 7, gaps, 0.1, limit, status, k_conv)
            calm_running = optimizers._settle(cells, 7, calm, 0.1, limit, status[:], k_conv[:])
            assert calm_running.tolist() == cells.tolist()
            outcomes.append((running.tolist(), status, k_conv))
        assert outcomes[0] == outcomes[1]
        running, status, k_conv = outcomes[0]
        assert running == [6 + 8 * r for r in range(reps)]
        assert status == ["converged", "budget", "diverged", "diverged",
                          "budget", "diverged", "budget", "converged"] * reps
        assert k_conv == [7, None, None, None, None, None, None, 7] * reps

    def test_array_stepsizes_are_the_schedules(self):
        schedules = [optimizers.poly_decay(a, b) for a, b in (
            (0.7, 0.0), (math.inf, 0.0), (3.0, 0.3), (0.05, 0.5), (40.0, 1.0),
            (1.3, 0.5))]
        schedules += [optimizers.smoothness_adaptive(L, eta0, power) for L, eta0, power in (
            (2.0, 0.0, 0.0), (0.0, 0.3, 0.5), (1.7, 0.9, 0.0), (3.1, 0.25, 0.5))]
        ks = list(range(1, 1001)) + list(range(1001, 10 ** 5, 97)) + [10 ** 5]
        for accelerated in (False, True):
            alphas = optimizers._stepsizes(schedules, accelerated)
            for k in ks:
                th = optimizers.theta(k - 1) if accelerated else None
                expected = [1.0 / (s.L * th + eta(s, k))
                            if accelerated and s.kind == optimizers.SMOOTHNESS_ADAPTIVE
                            else s.alpha(k) for s in schedules]
                assert alphas(k, th).tolist() == expected

    @pytest.mark.parametrize("inst", [
        noisy_linreg(31, n=7),
        problems.generate_problem("twopoint", delta=0.3, gamma=0.5, seed=4)],
        ids=["linreg", "twopoint"])
    def test_recorded_distances_are_distance_to_optimum(self, inst):
        # Cells that stop at different steps leave rows of different sets
        # of running cells; each recorded distance is the lone computation at
        # x_k, the final point of a lone run of k steps on the same generator.
        gap0 = float(problems.objective_value(inst, np.zeros(inst.n)))
        kw = dict(epsilon=0.2 * gap0,
                  record=optimizers.RecordOptions(stride=2, record_distance=True))
        schedules = [optimizers.poly_decay(a) for a in (0.05, 1.0, 50.0)]
        recs = optimizers._run_lockstep(
            inst, models.pma(), schedules, 1, 24,
            rngs=[np.random.default_rng(70 + i) for i in range(3)], **kw)
        assert len({r.ks.size for r in recs}) > 1
        x_star = problems.reference_optimum(inst).x_star
        for i, rec in enumerate(recs):
            for k, d in zip(rec.ks, rec.dists):
                x = np.zeros(inst.n) if k == 0 else optimizers.run_base(
                    inst, models.pma(), schedules[i], 1, int(k),
                    rng=np.random.default_rng(70 + i), **kw).x_final
                assert d == problems.distances_to_optimum(inst, x[np.newaxis])[0]
                assert d == np.linalg.norm(x - x_star)


def _tight_ball_linreg():
    """Noisy linreg on a ball that holds x* with little room: large steps
    overshoot it."""
    base = noisy_linreg(41)
    r = 1.05 * float(np.linalg.norm(problems.reference_optimum(base).x_star))
    return noisy_linreg(41, domain=geometry.ball(np.zeros(base.n), r))


class TestLockstepOnABall:
    """The stacked projection of C > 1 cells gives every cell its lone run."""

    @pytest.mark.parametrize("method", ["sgm", "pma", "pam", "prox", "pia"])
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_projected_stack_rows_are_lone_runs(self, method, accelerated):
        inst = _tight_ball_linreg()
        alphas = [0.05, 1.0, 40.0]
        group = _group(inst, method, alphas, 4, accelerated)
        run = optimizers.run_accelerated if accelerated else optimizers.run_base
        kw = _lockstep_kwargs(inst, 4, accelerated)
        del kw["accelerated"]
        for i, (a, rec) in enumerate(zip(alphas, group)):
            alone = run(inst, models.strategy_from_id(method), optimizers.poly_decay(a),
                        rng=np.random.default_rng(40 + i), **kw)
            _assert_same_record(rec, alone)

    def test_large_steps_land_on_the_sphere(self, monkeypatch):
        # Every step projects a stack of more than one cell in which a row
        # is rescaled onto the sphere and another is left inside the ball.
        inst = _tight_ball_linreg()
        dom, real, mixed = inst.domain, geometry.project_domain, []

        def project(d, X):
            out = real(d, X)
            if out.ndim == 2 and out.shape[0] > 1:
                dist = np.linalg.norm(out - dom.center, axis=1)
                on = np.abs(dist - dom.radius) <= 1e-12 * dom.radius
                mixed.append(on.any() and not on.all())
            return out

        monkeypatch.setattr(geometry, "project_domain", project)
        group = _group(inst, "sgm", [0.05, 1.0, 40.0], 4, False)
        assert len(mixed) == 30 and all(mixed)
        assert abs(np.linalg.norm(group[2].x_final) - dom.radius) <= 1e-12 * dom.radius
        assert all(np.linalg.norm(r.x_final) <= dom.radius * (1 + 1e-15) for r in group)


class TestRecorder:
    """The recorder's tables: each cell's columns are its lone run's records."""

    def test_cells_stopping_at_different_steps_match_their_lone_runs(self, monkeypatch):
        # sgm on one instance: alpha0 = 0.01 runs out of budget, 0.5 and 0.1
        # converge at different steps, 5 diverges, and 2 fails every attempt
        # of its fifth step.  The budget cell takes 81 records, so the tables
        # grow past their first allocation.
        real, doomed = prox.stacked_step, 2.0 * 5 ** -0.5

        def stacked_step(*args):
            kernel = real(*args)

            def step(A, Zc, alpha, idx):
                if np.any(alpha == doomed):
                    raise prox.InnerSolveError("forced")
                return kernel(A, Zc, alpha, idx)
            return step

        monkeypatch.setattr(prox, "stacked_step", stacked_step)
        inst = noisy_linreg(30)
        gap0 = problems.objective_value(inst, np.zeros(inst.n)) \
            - problems.reference_optimum(inst).f_star
        alphas = [0.01, 0.5, 5.0, 2.0, 0.1]
        kw = dict(m=2, n_steps=240, epsilon=0.02 * gap0,
                  record=optimizers.RecordOptions(stride=3, record_average=True,
                                                  record_distance=True))
        group = optimizers._run_lockstep(
            inst, models.sgm(), [optimizers.poly_decay(a) for a in alphas],
            rngs=[np.random.default_rng(40 + i) for i in range(len(alphas))], **kw)
        assert [r.status for r in group] == ["budget", "converged", "diverged",
                                             "innerfail", "converged"]
        assert len({r.ks.size for r in group}) == len(alphas)
        assert group[0].ks.size == 81
        for i, (a, rec) in enumerate(zip(alphas, group)):
            alone = optimizers._run_lockstep(
                inst, models.sgm(), [optimizers.poly_decay(a)],
                rngs=[np.random.default_rng(40 + i)], **kw)[0]
            assert (rec.status, rec.k_converged) == (alone.status, alone.k_converged)
            for name in ("ks", "gaps", "avg_gaps", "dists", "samples", "x_final",
                         "x_avg_final"):
                x, y = getattr(rec, name), getattr(alone, name)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name

    def test_tables_grow_with_the_records_not_the_budget(self, monkeypatch):
        made = []

        class Recorder(optimizers._Recorder):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(optimizers, "_Recorder", Recorder)
        inst = noisy_linreg(31)
        gap0 = problems.objective_value(inst, np.zeros(inst.n)) \
            - problems.reference_optimum(inst).f_star
        rec = optimizers.run_base(inst, models.strategy_from_id("prox"),
                                  optimizers.poly_decay(20.0), m=inst.N, n_steps=10 ** 9,
                                  epsilon=0.1 * gap0, rng=np.random.default_rng(3))
        assert rec.status == "converged" and rec.k_converged <= 3
        assert rec.ks.tolist() == list(range(rec.k_converged + 1))
        assert made[0].ks.size <= 64 and made[0].table.shape[0] <= 64


class TestRecordAverage:
    """The gaps and the averaged gaps come from one stacked evaluation."""

    @pytest.mark.parametrize("kind", sorted(ENGINE_INSTANCES))
    @pytest.mark.parametrize("method", ["sgm", "pma", "prox"])
    def test_gaps_do_not_depend_on_record_average(self, kind, method):
        inst = problems.generate_problem(kind, seed=6, **ENGINE_INSTANCES[kind])
        with_avg, without = [optimizers.run_base(
            inst, models.strategy_from_id(method), optimizers.poly_decay(1.0),
            m=4, n_steps=30, epsilon=1e-300, rng=np.random.default_rng(8),
            record=optimizers.RecordOptions(record_average=flag))
            for flag in (True, False)]
        assert with_avg.gaps.tobytes() == without.gaps.tobytes()
        assert without.avg_gaps is None
        last = problems.objective_value(inst, with_avg.x_avg_final) - with_avg.f_star
        assert with_avg.avg_gaps[-1] == last


class TestOneCellApi:
    @pytest.mark.parametrize("kind", sorted(ENGINE_INSTANCES))
    @pytest.mark.parametrize("method", ["sgm", "pma", "pam", "prox", "pia"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_engine_step_is_solve_model_prox(self, kind, method, m):
        # One engine step from x0 = 0 and the one-cell API on the same batch
        # take the same path, so they agree bit for bit (pam at m = 1
        # included: both take the truncated step).
        inst = problems.generate_problem(kind, seed=5, **ENGINE_INSTANCES[kind])
        strat = models.strategy_from_id(method)
        x0 = np.zeros(inst.n)
        for s, a in ((0, 0.3), (1, 2.0)):
            rec = optimizers.run_base(inst, strat, optimizers.poly_decay(a, 0.0), m=m,
                                      n_steps=1, epsilon=1e-300,
                                      rng=np.random.default_rng(s))
            idx = problems.sample_batch(inst, m, np.random.default_rng(s))
            if method == "pia":
                expected = prox.pia_step(inst, x0, idx, strat.kind, a)
            else:
                model = models.build_batch_model(inst, x0, idx, strat)
                expected = prox.solve_model_prox(model, x0, a).x_next
            np.testing.assert_array_equal(rec.x_final, expected)


def _time_to_epsilon(rec, m):
    """Time to epsilon as a sweep row reports it: samples_used at the
    converged step, inf for a run that did not converge."""
    k = rec.k_converged
    return analysis.cell_time({
        "status": rec.status,
        "samples_to_eps": None if k is None else optimizers.samples_used(k, m)})


class TestTimeToEpsilon:
    def test_start_below(self):
        inst = noisy_linreg(11)
        gap0 = problems.objective_value(inst, np.zeros(inst.n)) \
            - problems.reference_optimum(inst).f_star
        rec = optimizers.run_base(inst, models.sgm(), optimizers.poly_decay(0.5), m=2,
                                  n_steps=10, epsilon=2.0 * gap0,
                                  rng=np.random.default_rng(0))
        assert rec.k_converged == 0
        assert _time_to_epsilon(rec, 2) == 2  # one batch of m=2

    def test_crossing(self):
        # A cell stops at the first recorded gap <= epsilon, so the time is a
        # multiple of the stride: the first multiple at which the stride-1
        # trace of the same stream is at or below epsilon.
        inst = noisy_linreg(12)
        gap0 = problems.objective_value(inst, np.zeros(inst.n)) \
            - problems.reference_optimum(inst).f_star
        eps = 0.1 * gap0

        def run(epsilon, stride):
            return optimizers.run_base(inst, models.pma(), optimizers.poly_decay(0.5),
                                       m=2, n_steps=200, epsilon=epsilon,
                                       rng=np.random.default_rng(3),
                                       record=optimizers.RecordOptions(stride=stride))
        trace, rec = run(1e-300, 1), run(eps, 5)
        assert np.flatnonzero(trace.gaps <= eps)[0] % 5 != 0  # crosses between records
        hits = [k for k in range(5, 201, 5) if trace.gaps[k] <= eps]
        assert rec.status == "converged" and rec.k_converged == hits[0]
        assert _time_to_epsilon(rec, 2) == 2 * hits[0]

    def test_never(self):
        rec = optimizers.run_base(noisy_linreg(13), models.sgm(),
                                  optimizers.poly_decay(1e-6), m=2, n_steps=20,
                                  epsilon=1e-12, rng=np.random.default_rng(1))
        assert rec.status == "budget" and rec.k_converged is None
        assert _time_to_epsilon(rec, 2) == math.inf


class TestSmoothness:
    def test_linreg_constant(self):
        inst = noisy_linreg(21, N=40, n=6)
        L = optimizers.smoothness_constant(inst)
        H = inst.A.T @ inst.A / inst.N
        assert L == pytest.approx(float(np.linalg.eigvalsh(H).max()), rel=1e-10)

    def test_logistic_constant(self):
        inst = problems.generate_problem("logistic", N=40, n=6, p=0.1, seed=22)
        L = optimizers.smoothness_constant(inst)
        s = np.linalg.svd(inst.A, compute_uv=False)[0]
        assert L == pytest.approx(s * s / (8 * inst.N))

    def test_power_gamma_one_constant(self):
        inst = problems.generate_problem("power", N=40, n=6, gamma=1.0, seed=24)
        H = inst.A.T @ inst.A / inst.N
        assert optimizers.smoothness_constant(inst) == pytest.approx(
            float(np.linalg.eigvalsh(H).max()), rel=1e-10)

    def test_twopoint_constant_follows_the_sampling_law(self):
        # f(x) = delta |x - vR|^2 / 2 at gamma = 1.
        inst = problems.generate_problem("twopoint", delta=0.3, gamma=1.0, seed=4)
        assert optimizers.smoothness_constant(inst) == pytest.approx(0.3, rel=1e-14)

    def test_nonsmooth_rejected(self):
        for inst in (problems.generate_problem("absreg", N=20, n=3, sigma=0.5, seed=23),
                     problems.generate_problem("power", N=20, n=3, gamma=0.5, seed=23),
                     problems.generate_problem("halfspace", N=20, n=3, seed=23),
                     problems.generate_problem("twopoint", gamma=0.0, seed=23)):
            with pytest.raises(ValueError, match="nonsmooth"):
                optimizers.smoothness_constant(inst)
