import numpy as np
import pytest

from batchprox import analysis, optimizers, problems


class TestSigma0:
    def test_single_sample_dataset_is_zero(self):
        inst = problems.make_custom_linreg(np.array([[1.0, 2.0]]),
                                           np.array([3.0]))
        est = analysis.estimate_sigma0(inst, np.zeros((1, 2)))
        assert est.sigma0_sq == 0.0

    def test_noiseless_at_optimum_is_zero(self):
        inst = problems.generate_problem("linreg", N=30, n=4, sigma=0.0, seed=1)
        est = analysis.estimate_sigma0(inst, inst.x_planted[np.newaxis, :])
        assert est.sigma0_sq <= 1e-20

    def test_matches_exhaustive_enumeration(self):
        # Oracle: population variance over the 5 samples by direct loops.
        inst = problems.generate_problem("linreg", N=5, n=2, sigma=0.5, seed=2)
        x = np.array([0.3, -0.7])
        grads = np.array([problems.batch_losses(inst, x, [i])[1][0] for i in range(5)])
        gbar = grads.mean(axis=0)
        expected = float(np.mean([(g - gbar) @ (g - gbar) for g in grads]))
        est = analysis.estimate_sigma0(inst, x[np.newaxis, :])
        assert est.sigma0_sq == pytest.approx(expected, rel=1e-12)

    def test_row_permutation_invariance(self):
        inst = problems.generate_problem("absreg", N=20, n=3, sigma=0.4, seed=3)
        perm = np.random.default_rng(0).permutation(20)
        shuffled = problems.generate_problem("absreg", N=20, n=3, sigma=0.4,
                                             seed=3)
        shuffled.A = shuffled.A[perm]
        shuffled.b = shuffled.b[perm]
        probes = np.random.default_rng(1).standard_normal((4, 3))
        a = analysis.estimate_sigma0(inst, probes).sigma0_sq
        b = analysis.estimate_sigma0(shuffled, probes).sigma0_sq
        assert a == pytest.approx(b, rel=1e-12)


class TestNoiseToSignal:
    def test_single_sample_is_zero(self):
        inst = problems.make_custom_linreg(np.array([[1.0, 2.0]]),
                                           np.array([3.0]))
        rho, _ = analysis.estimate_noise_to_signal(inst,
                                                   np.array([[1.0, 0.0]]))
        assert rho == 0.0

    def test_duplication_invariance(self):
        inst = problems.generate_problem("absreg", N=15, n=3, sigma=0.5, seed=5)
        doubled = problems.generate_problem("absreg", N=15, n=3, sigma=0.5,
                                            seed=5)
        doubled.A = np.vstack([doubled.A, doubled.A])
        doubled.b = np.concatenate([doubled.b, doubled.b])
        doubled.N = 30
        probes = np.random.default_rng(4).standard_normal((5, 3))
        r1, _ = analysis.estimate_noise_to_signal(inst, probes)
        r2, _ = analysis.estimate_noise_to_signal(doubled, probes)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_hand_dataset(self):
        # N=4 1-d absolute-loss dataset; spreadsheet-style enumeration.
        A = np.array([[1.0], [2.0], [-1.0], [0.5]])
        b = np.zeros(4)
        inst = problems.make_custom_linreg(A, b)
        inst.kind = problems.ABSREG
        x = np.array([1.0])
        grads = 0.5 * A[:, 0] * np.sign(A[:, 0] * x[0])
        gbar = grads.mean()
        var = np.mean((grads - gbar) ** 2)
        expected = var / gbar**2
        rho, _ = analysis.estimate_noise_to_signal(inst, x[np.newaxis, :])
        assert rho == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_twopoint_follows_the_sampling_law(self, delta):
        # Atom 0 has gradient 0 and atom 1 gradient g (drawn w.p. delta):
        # the variance is delta (1 - delta) g^2 and the mean delta g, so
        # rho = (1 - delta) / delta at every x other than the optimum.
        inst = problems.generate_problem("twopoint", delta=delta, gamma=0.5,
                                         radius=1.0, seed=3)
        x = np.array([inst.b[1] + 0.7])  # 0.7 past v * R
        rho, skipped = analysis.estimate_noise_to_signal(inst, x[np.newaxis, :])
        assert skipped == []
        assert rho == pytest.approx((1.0 - delta) / delta, rel=1e-14, abs=0.0)
        g = 0.7 ** 0.5
        est = analysis.estimate_sigma0(inst, x[np.newaxis, :])
        assert est.sigma0_sq == pytest.approx(delta * (1.0 - delta) * g * g, rel=1e-14)

    def test_all_probes_degenerate(self):
        inst = problems.generate_problem("halfspace", N=10, n=3, seed=6)
        with pytest.raises(ValueError):
            analysis.estimate_noise_to_signal(
                inst, inst.x_planted[np.newaxis, :]
            )


class TestGammaGrowth:
    def test_deterministic_abs_is_one(self):
        # f = |x| with a single sample: F^2/F'^2 = x^2, so lambda1 = 1.
        inst = problems.make_custom_linreg(np.array([[1.0]]), np.array([0.0]),
                                           x_planted=np.array([0.0]))
        inst.kind = problems.ABSREG
        est = analysis.estimate_gamma_growth(
            inst, gamma=0.0, alpha=1e9, radii=[0.5, 1.0, 2.0],
            directions=np.array([[1.0]]),
        )
        assert est.lambda1_hat == pytest.approx(1.0, abs=1e-12)
        assert analysis.growth_bound_holds(est)

    def test_powerreg_paper_style_bound(self):
        # Gaussian-design power regression dominates 1/(2^(2-g)(1+g)n).
        n = 10
        hits = 0
        for seed in range(10):
            inst = problems.generate_problem("power", N=400, n=n, gamma=0.0,
                                             seed=seed)
            dirs = np.random.default_rng(seed).standard_normal((4, n))
            est = analysis.estimate_gamma_growth(
                inst, gamma=0.0, alpha=0.02, radii=[0.5, 1.0], directions=dirs
            )
            bound = 1.0 / (2.0**2 * 1.0 * n)
            hits += est.lambda1_hat >= bound
            assert analysis.growth_bound_holds(est)
        assert hits >= 9

    def test_batch_averaging_raises_lambda1(self):
        inst = problems.generate_problem("power", N=400, n=8, gamma=1.0, seed=3)
        dirs = np.random.default_rng(5).standard_normal((3, 8))
        vals = []
        for m in (1, 4, 16):
            est = analysis.estimate_gamma_growth(
                inst, gamma=1.0, alpha=1e6, radii=[1.0], directions=dirs,
                draws=None if m == 1 else 3000, m=m,
                rng=np.random.default_rng(6),
            )
            vals.append(est.lambda1_hat)
        assert vals[1] > vals[0]
        assert vals[2] > vals[1]

    @pytest.mark.parametrize("m", [2, 5, 8, 32])
    @pytest.mark.parametrize("kind, kw", [
        ("power", dict(gamma=0.5)), ("power", dict(gamma=1.0)),
        ("linreg", dict(sigma=0.3)), ("absreg", dict(sigma=0.3)),
        ("twopoint", dict(delta=0.3, gamma=0.5))])
    def test_batch_draws_match_a_per_draw_loop(self, kind, kw, m):
        # The stacked m > 1 expectation against one sample_batch and one
        # batch_losses call per draw: E, its standard error, the negative
        # flag and the generator state afterwards, bit for bit.
        inst = problems.generate_problem(kind, N=40, n=5, seed=3, **kw)
        x_star = problems.reference_optimum(inst).x_star
        vals_star, _ = problems.batch_losses(inst, x_star, np.arange(inst.N))
        draws = 300
        for r in (0.1, 1.0):
            x = x_star + r * np.random.default_rng(4).standard_normal(inst.n)
            rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
            got = analysis._growth_expectation(inst, x, vals_star, 0.7, m, draws, rng)
            terms, neg = np.empty(draws), False
            for t in range(draws):
                idx = problems.sample_batch(inst, m, ref_rng)
                vals, grads = problems.batch_losses(inst, x, idx)
                diff = float(vals.mean() - vals_star[idx].mean())
                g = grads.mean(axis=0)
                terms[t] = analysis._growth_terms(np.array([diff]),
                                                  np.array([float(g @ g)]), 0.7)[0]
                neg = neg or diff < -1e-12
            assert got == (float(terms.mean()),
                           float(terms.std(ddof=1) / np.sqrt(draws)), neg)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_needs_known_optimum(self):
        inst = problems.generate_problem("logistic", N=30, n=3, p=0.0, seed=7)
        with pytest.raises(ValueError):
            analysis.estimate_gamma_growth(inst, 0.0, 1.0, [1.0],
                                           np.ones((1, 3)))


class TestProfiles:
    def _rows(self, table):
        # table: {(method, cell): T or None}
        rows = []
        for (method, cell), t in table.items():
            rows.append({
                "problem": "p", "noise": "none", "cond": 1.0, "m": 1,
                "alpha0": 1.0, "seed": cell, "method": method,
                "samples_to_eps": t,
                "status": "converged" if t is not None else "budget",
            })
        return rows

    def test_two_method_hand_example(self):
        rows = self._rows({("a", 0): 10, ("b", 0): 20,
                           ("a", 1): 30, ("b", 1): 15})
        curves = {c.method: c for c in
                  analysis.performance_profile(rows, ["a", "b"])}
        assert curves["a"].at(1.0) == pytest.approx(0.5)
        assert curves["b"].at(1.0) == pytest.approx(0.5)
        assert curves["a"].at(2.0) == pytest.approx(1.0)
        assert curves["b"].at(2.0) == pytest.approx(1.0)
        assert curves["a"].at(1.5) == pytest.approx(0.5)

    def test_base_and_accelerated_rows_do_not_collide(self):
        # Same cell, both loops: two experiments, one won by each method.
        rows = self._rows({("a", 0): 10, ("b", 0): 20})
        acc = self._rows({("a", 0): 40, ("b", 0): 10})
        for r in acc:
            r["accelerated"] = True
        curves = {c.method: c for c in
                  analysis.performance_profile(rows + acc, ["a", "b"])}
        assert curves["a"].at(1.0) == pytest.approx(0.5)
        assert curves["b"].at(1.0) == pytest.approx(0.5)
        assert curves["a"].at(4.0) == pytest.approx(1.0)

    def test_single_method_curve_is_one(self):
        rows = self._rows({("a", 0): 10, ("a", 1): 99})
        (curve,) = analysis.performance_profile(rows, ["a"])
        assert curve.at(1.0) == 1.0

    def test_always_failing_method_is_zero(self):
        rows = self._rows({("a", 0): 10, ("b", 0): None,
                           ("a", 1): 5, ("b", 1): None})
        curves = {c.method: c for c in
                  analysis.performance_profile(rows, ["a", "b"],
                                               max_failures=3)}
        assert curves["b"].at(100.0) == 0.0
        assert curves["a"].at(1.0) == 1.0

    def test_discard_rule(self):
        # 5 methods, 4 failures in cell 0 -> cell discarded.
        table = {}
        meths = ["a", "b", "c", "d", "e"]
        for i, m in enumerate(meths):
            table[(m, 0)] = 10 if i == 0 else None
            table[(m, 1)] = 10 + i
        rows = self._rows(table)
        curves = {c.method: c for c in
                  analysis.performance_profile(rows, meths)}
        # Only cell 1 survives; method a wins it.
        assert curves["a"].at(1.0) == 1.0
        assert curves["e"].at(1.0) == 0.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(8)
        table = {}
        for m in ("a", "b", "c"):
            for cell in range(20):
                table[(m, cell)] = (None if rng.random() < 0.2
                                    else int(rng.integers(1, 100)))
        curves = analysis.performance_profile(self._rows(table),
                                              ["a", "b", "c"])
        for c in curves:
            assert np.all(np.diff(c.fraction) >= 0)
            assert np.all((c.fraction >= 0) & (c.fraction <= 1))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            analysis.performance_profile([], ["a"])


class TestSpeedup:
    def _rows(self, entries):
        rows = []
        for method, m, alpha0, seed, t in entries:
            rows.append({
                "problem": "p", "noise": "none", "cond": 1.0, "m": m,
                "alpha0": alpha0, "seed": seed, "method": method,
                "samples_to_eps": t,
                "status": "converged" if t is not None else "budget",
            })
        return rows

    def test_m1_is_one(self):
        rows = self._rows([("a", 1, 1.0, s, 100) for s in range(3)]
                          + [("a", 4, 1.0, s, 50) for s in range(3)])
        table = analysis.speedup_table(rows, "a")
        assert table[1] == 1.0
        assert table[4] == 2.0

    def test_exact_inverse_scaling(self):
        entries = []
        C = 1200
        for m in (1, 2, 4, 8):
            entries += [("a", m, 1.0, s, C // m) for s in range(3)]
        table = analysis.speedup_table(self._rows(entries), "a")
        for m in (2, 4, 8):
            assert table[m] == pytest.approx(m)

    def test_min_over_alpha_and_median_over_seeds(self):
        entries = [
            ("a", 1, 0.1, 0, 300), ("a", 1, 0.1, 1, 100), ("a", 1, 0.1, 2, 200),
            ("a", 1, 1.0, 0, 400), ("a", 1, 1.0, 1, 500), ("a", 1, 1.0, 2, 600),
            ("a", 2, 0.1, 0, 50), ("a", 2, 0.1, 1, 60), ("a", 2, 0.1, 2, 70),
        ]
        table = analysis.speedup_table(self._rows(entries), "a")
        # T*_1 = min(median(300,100,200)=200, median 500) = 200; T*_2 = 60.
        assert table[2] == pytest.approx(200 / 60)

    def test_iteration_units(self):
        entries = [("a", 1, 1.0, 0, 100), ("a", 4, 1.0, 0, 100)]
        table = analysis.speedup_table(self._rows(entries), "a",
                                       units="iterations")
        assert table[4] == pytest.approx(4.0)

    def test_all_failures_at_m1(self):
        rows = self._rows([("a", 1, 1.0, 0, None), ("a", 2, 1.0, 0, 10)])
        with pytest.raises(ValueError):
            analysis.speedup_table(rows, "a")


class TestRateSlope:
    def _record(self, ks, gaps):
        ks = np.array(ks)
        return optimizers.RunRecord(
            ks=ks, gaps=np.array(gaps, dtype=float), avg_gaps=None, dists=None,
            samples=ks, status="budget", k_converged=None,
            x_final=np.zeros(1), x_avg_final=None, f_star=0.0, initial_gap=1.0,
            config={"m": 1},
        )

    def test_exact_inverse_k(self):
        ks = np.arange(1, 1001)
        rec = self._record(ks, 1.0 / ks)
        assert analysis.rate_slope(rec, (10, 1000)) == pytest.approx(-1.0)

    def test_exact_inverse_k_squared(self):
        ks = np.arange(1, 1001)
        rec = self._record(ks, 1.0 / ks.astype(float) ** 2)
        assert analysis.rate_slope(rec, (10, 1000)) == pytest.approx(-2.0)

    def test_noisy_intermediate_slope(self):
        rng = np.random.default_rng(9)
        ks = np.arange(1, 5001)
        gaps = 3.0 * ks.astype(float) ** -1.5 * (1 + 0.01 * rng.standard_normal(5000))
        rec = self._record(ks, gaps)
        assert analysis.rate_slope(rec, (100, 5000)) == pytest.approx(-1.5,
                                                                      abs=0.05)

    def test_nonpositive_gaps_signal_geometric_fit(self):
        rec = self._record([1, 2, 3], [1.0, 0.0, -1e-12])
        with pytest.raises(ValueError, match="geometric"):
            analysis.rate_slope(rec, (1, 3))

    def test_loglinear_fit(self):
        ks = np.arange(50)
        vals = 3.0 * np.exp(-0.2 * ks)
        slope, intercept, r2 = analysis.loglinear_fit(ks, vals)
        assert slope == pytest.approx(-0.2, abs=1e-12)
        assert r2 == pytest.approx(1.0)
