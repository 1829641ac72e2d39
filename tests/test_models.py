import numpy as np
import pytest

from batchprox import models, problems

STRATEGIES = [models.sgm(), models.pma(), models.pam(), models.full_prox()]


def make_inst(kind="absreg", seed=0, **kw):
    defaults = dict(N=40, n=5, seed=seed)
    defaults.update(kw)
    return problems.generate_problem(kind, **defaults)


class TestBuild:
    def test_anchor_equality_exact(self):
        rng = np.random.default_rng(0)
        inst = make_inst(sigma=0.5)
        x = rng.standard_normal(5)
        batch = np.array([0, 3, 7])
        for strat in STRATEGIES:
            model = models.build_batch_model(inst, x, batch, strat)
            assert models.evaluate_model(model, x) == pytest.approx(
                problems.batch_losses(inst, x, batch)[0].mean(), abs=1e-12
            )

    def test_nonnegative_loss_gives_zero_floor(self):
        inst = make_inst()
        model = models.build_batch_model(inst, np.ones(5), np.array([1, 2]),
                                         models.pma())
        assert model.lower_bound == 0.0

    def test_empty_batch_rejected(self):
        inst = make_inst()
        with pytest.raises(ValueError):
            models.build_batch_model(inst, np.zeros(5), np.array([], dtype=int),
                                     models.pma())

    def test_pam_value_is_mean_of_truncations(self):
        # Oracle: recompute from each sample's value and subgradient.
        rng = np.random.default_rng(1)
        inst = make_inst(sigma=0.4)
        x = rng.standard_normal(5)
        batch = np.array([2, 9])
        model = models.build_batch_model(inst, x, batch, models.pam())
        for _ in range(20):
            y = x + rng.standard_normal(5)
            expected = 0.0
            for i in batch:
                (v,), (g,) = problems.batch_losses(inst, x, [i])
                expected += max(v + float(g @ (y - x)), 0.0)
            expected /= batch.size
            assert models.evaluate_model(model, y) == pytest.approx(
                expected, rel=1e-12
            )

    def test_truncated_hand_example(self):
        inst = make_inst()
        model = models.build_batch_model(inst, np.zeros(5), np.array([0]),
                                         models.pma())
        model.anchor_value = 2.0
        model.gbar = np.array([1.0, 0, 0, 0, 0])
        model.lower_bound = 0.0
        y = model.anchor - np.array([5.0, 0, 0, 0, 0])
        assert models.evaluate_model(model, y) == pytest.approx(0.0)

    def test_linear_below_full_prox(self):
        rng = np.random.default_rng(2)
        for kind in ("linreg", "absreg", "logistic"):
            inst = make_inst(kind, sigma=0.3, p=0.1)
            x = rng.standard_normal(5)
            batch = np.array([0, 5, 11])
            lin = models.build_batch_model(inst, x, batch, models.sgm())
            fp = models.build_batch_model(inst, x, batch, models.full_prox())
            ys = x + rng.standard_normal((100, 5))
            lv = models.evaluate_model(lin, ys)
            fv = models.evaluate_model(fp, ys)
            assert np.all(lv <= fv + 1e-9)

    def test_m1_truncated_variants_coincide(self):
        rng = np.random.default_rng(3)
        inst = make_inst(sigma=0.2)
        x = rng.standard_normal(5)
        batch = np.array([4])
        pma_m = models.build_batch_model(inst, x, batch, models.pma())
        pam_m = models.build_batch_model(inst, x, batch, models.pam())
        ys = x + rng.standard_normal((200, 5))
        np.testing.assert_allclose(
            models.evaluate_model(pma_m, ys), models.evaluate_model(pam_m, ys),
            atol=1e-14,
        )

    def test_subgradient_at_anchor_valid(self):
        # F_bar(y) >= F_bar(x) + <gbar, y - x> on probes.
        rng = np.random.default_rng(4)
        for kind in ("linreg", "absreg", "logistic", "halfspace", "power"):
            inst = make_inst(kind, sigma=0.3, p=0.05, gamma=0.5, seed=6)
            x = rng.standard_normal(5)
            batch = np.array([1, 2, 3])
            model = models.build_batch_model(inst, x, batch, models.pma())
            f_x = problems.batch_losses(inst, x, batch)[0].mean()
            for _ in range(30):
                y = x + rng.standard_normal(5)
                f_y = problems.batch_losses(inst, y, batch)[0].mean()
                assert f_y >= f_x + float(model.gbar @ (y - x)) - 1e-9


class TestEvaluate:
    def test_dimension_mismatch(self):
        inst = make_inst()
        model = models.build_batch_model(inst, np.zeros(5), np.array([0]),
                                         models.sgm())
        with pytest.raises(ValueError):
            models.evaluate_model(model, np.zeros(4))

    def test_batched_evaluation_matches_loop(self):
        rng = np.random.default_rng(5)
        inst = make_inst("logistic", p=0.1)
        model = models.build_batch_model(inst, rng.standard_normal(5),
                                         np.array([0, 1, 2]), models.full_prox())
        ys = rng.standard_normal((7, 5))
        batched = models.evaluate_model(model, ys)
        for i in range(7):
            assert batched[i] == pytest.approx(
                models.evaluate_model(model, ys[i]), rel=1e-14
            )


def _batch_average_loop(inst, Y, batch):
    """The batch-averaged loss at each row of Y, one batch_losses call per row."""
    return np.array([problems.batch_losses(inst, y, batch)[0].mean() for y in Y])


class TestStackedBatchAverages:
    @pytest.mark.parametrize("kind", ["linreg", "absreg", "logistic",
                                      "halfspace", "power"])
    def test_match_a_per_probe_loop(self, kind):
        # evaluate_model (full prox) and check_model_conditions' batch losses
        # against one batch_losses call per probe, bit for bit.
        inst = make_inst(kind, sigma=0.3, p=0.05, gamma=0.5, seed=10)
        rng = np.random.default_rng(14)
        for m in (1, 3, 16):
            x, batch = rng.standard_normal(5), rng.integers(0, inst.N, m)
            ys = x + 2.0 * rng.standard_normal((40, 5))
            fp = models.build_batch_model(inst, x, batch, models.full_prox())
            loop = _batch_average_loop(inst, ys, batch)
            assert models.evaluate_model(fp, ys).tobytes() == loop.tobytes()
            for strat in STRATEGIES:
                model = models.build_batch_model(inst, x, batch, strat)
                report = models.check_model_conditions(inst, model, 30,
                                                       np.random.default_rng(m))
                scale = np.linalg.norm(x) + 1.0
                probes = x + scale * np.random.default_rng(m).standard_normal((30, 5))
                fvals = _batch_average_loop(inst, probes, batch)
                # The full-prox model is the batch average itself.
                mvals = (fvals if strat == models.full_prox()
                         else models.evaluate_model(model, probes))
                assert report.lower_bound_violation == float(np.max(mvals - fvals))


class TestConditions:
    @pytest.mark.parametrize("kind", ["linreg", "absreg", "logistic",
                                      "halfspace", "power"])
    def test_all_strategies_pass(self, kind):
        inst = make_inst(kind, sigma=0.3, p=0.05, gamma=0.5, seed=10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(5)
        batch = np.array([0, 7, 13, 21])
        for strat in STRATEGIES:
            model = models.build_batch_model(inst, x, batch, strat)
            report = models.check_model_conditions(inst, model, 200,
                                                   np.random.default_rng(12))
            assert report.c1_ok and report.c2_ok and report.c3_ok, (
                strat.method_id, report)

    def test_corrupted_floor_flagged(self):
        inst = make_inst()
        model = models.build_batch_model(inst, np.ones(5), np.array([0, 1]),
                                         models.pma())
        model.lower_bound = model.anchor_value + 1.0  # above the batch minimum
        report = models.check_model_conditions(inst, model, 200,
                                               np.random.default_rng(0))
        assert not (report.c2_ok and report.c3_ok)

    def test_full_prox_zero_gap(self):
        inst = make_inst("linreg", sigma=0.5)
        model = models.build_batch_model(inst, np.ones(5), np.array([0, 1]),
                                         models.full_prox())
        report = models.check_model_conditions(inst, model, 100,
                                               np.random.default_rng(1))
        assert report.lower_bound_violation <= 1e-12


class TestStrategyIds:
    def test_method_ids(self):
        assert models.sgm().method_id == "sgm"
        assert models.pma().method_id == "pma"
        assert models.pam().method_id == "pam"
        assert models.full_prox().method_id == "prox"
        assert models.pia().method_id == "pia"

    def test_pam_takes_only_the_truncated_kind(self):
        # Any other kind would spell pam a second way, unequal to models.pam().
        for kind in (models.LINEAR, models.FULL_PROX):
            with pytest.raises(ValueError):
                models.BatchStrategy(models.AVERAGE_OF_TRUNCATED, kind)
        assert models.BatchStrategy(models.AVERAGE_OF_TRUNCATED, models.TRUNCATED) == models.pam()

    def test_round_trip(self):
        for mid in ("sgm", "pma", "pam", "prox", "pia"):
            assert models.strategy_from_id(mid).method_id == mid
        with pytest.raises(ValueError):
            models.strategy_from_id("nope")
