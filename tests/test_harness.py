import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchprox import analysis, models, optimizers, problems, prox
from batchprox.harness import (
    CellResult,
    ConfigError,
    cli,
    config as config_mod,
    execute_sweep,
    lab,
    load_config,
    preset,
    read_csv,
    results,
    stable_seed,
    svg,
    sweep,
    write_csv,
)
from batchprox.harness import results as results_mod

TINY_CONFIG = {
    "problems": [{"kind": "linreg", "N": 30, "n": 3, "sigma": 0.5}],
    "methods": [{"method": "pma"}],
    "alpha0_grid": [1.0],
    "m_grid": [2],
    "cond_grid": [1.0],
    "seeds": 1,
    "epsilon": 1e-2,
    "sample_budget": 4000,
    "record_stride": 5,
}


def quiet(done, total):
    pass


class TestConfig:
    def test_preset_grids_match_benchmark_defaults(self):
        cfg = preset("paper-linreg")
        assert cfg.alpha0_grid == [10.0 ** (i / 2.0) for i in range(-4, 6)]
        assert cfg.m_grid == [1, 4, 8, 16, 32, 64]
        assert cfg.seeds == 30
        prob = cfg.problems[0]
        assert (prob.N, prob.n, prob.sigma) == (1000, 40, 0.5)

    def test_logistic_preset_flip_probability(self):
        cfg = preset("paper-logistic")
        assert cfg.problems[0].p == 0.01

    def test_empty_methods_rejected(self):
        data = dict(TINY_CONFIG, methods=[])
        with pytest.raises(ConfigError):
            config_mod.config_from_dict(data)

    def test_zero_alpha_rejected(self):
        data = dict(TINY_CONFIG, alpha0_grid=[0.0, 1.0])
        with pytest.raises(ConfigError):
            config_mod.config_from_dict(data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_mod.config_from_dict(dict(TINY_CONFIG, bogus=1))
        bad = dict(TINY_CONFIG)
        bad["problems"] = [{"kind": "linreg", "wat": 2}]
        with pytest.raises(ConfigError):
            config_mod.config_from_dict(bad)

    def test_smooth_schedule_rejected_on_absreg(self):
        data = dict(TINY_CONFIG)
        data["problems"] = [{"kind": "absreg", "N": 30, "n": 3, "sigma": 0.5}]
        data["methods"] = [{"method": "pma", "schedule": {"kind": "smooth"}}]
        with pytest.raises(ConfigError):
            config_mod.config_from_dict(data)

    @pytest.mark.parametrize("problem", [
        {"kind": "power", "N": 30, "n": 3, "gamma": 0.5},
        {"kind": "halfspace", "N": 30, "n": 3},
        {"kind": "twopoint", "gamma": 0.0}])
    def test_smooth_schedule_rejected_on_nonsmooth_losses(self, problem):
        data = dict(TINY_CONFIG, problems=[problem],
                    methods=[{"method": "pma", "schedule": {"kind": "smooth"}}])
        with pytest.raises(ConfigError, match="nonsmooth"):
            config_mod.config_from_dict(data)

    def test_smooth_schedule_sweeps_on_power_gamma_one(self):
        # The squared residual scaled by 1/2: smooth, with L = lambda_max(A'A)/N.
        data = dict(TINY_CONFIG, problems=[{"kind": "power", "N": 30, "n": 3, "gamma": 1.0}],
                    methods=[{"method": "pma", "schedule": {"kind": "smooth"}}],
                    sample_budget=400)
        rows = execute_sweep(config_mod.config_from_dict(data), progress=lambda *a: None)
        assert len(rows) == 1
        assert rows[0].status in ("converged", "budget")
        assert math.isfinite(rows[0].final_gap)

    @pytest.mark.parametrize("key,grid", [("alpha0_grid", [1.0, 0.5, 1.0]),
                                          ("m_grid", [2, 2]),
                                          ("cond_grid", [1.0, 1])])
    def test_duplicate_grid_entries_rejected(self, key, grid):
        with pytest.raises(ConfigError, match=f"duplicate {key} entry"):
            config_mod.config_from_dict(dict(TINY_CONFIG, **{key: grid}))

    def test_colliding_problem_specs_rejected(self):
        # Same (kind, noise label) rows: N does not enter either label.
        data = dict(TINY_CONFIG, problems=[
            {"kind": "absreg", "N": 30, "n": 3, "sigma": 0.5},
            {"kind": "absreg", "N": 60, "n": 3, "sigma": 0.5}])
        with pytest.raises(ConfigError, match="duplicate problem spec"):
            config_mod.config_from_dict(data)
        data["problems"][1]["sigma"] = 0.25
        assert len(config_mod.config_from_dict(data).problems) == 2

    def test_colliding_method_specs_rejected(self):
        data = dict(TINY_CONFIG, methods=[
            {"method": "pma"},
            {"method": "pma", "schedule": {"kind": "smooth"}}])
        with pytest.raises(ConfigError, match="duplicate method spec"):
            config_mod.config_from_dict(data)
        data["methods"][1]["accelerated"] = True
        assert len(config_mod.config_from_dict(data).methods) == 2

    def test_load_from_file_and_text(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_CONFIG))
        a = load_config(str(path))
        b = load_config(json.dumps(TINY_CONFIG))
        assert a.problems[0] == b.problems[0]
        with pytest.raises(ConfigError):
            load_config("{not json")


class TestSweep:
    def test_single_cell(self):
        cfg = config_mod.config_from_dict(TINY_CONFIG)
        rows = execute_sweep(cfg, progress=quiet)
        assert len(rows) == 1
        row = rows[0]
        assert row.method == "pma" and row.m == 2
        assert row.status in ("converged", "budget")
        if row.status == "converged":
            assert row.samples_to_eps == row.k_to_eps * row.m

    def test_parallel_matches_serial(self, tmp_path):
        data = dict(TINY_CONFIG, seeds=3,
                    methods=[{"method": "pma"}, {"method": "sgm"}])
        cfg1 = config_mod.config_from_dict(data)
        cfg2 = config_mod.config_from_dict(data)
        rows1 = execute_sweep(cfg1, jobs=1, progress=quiet)
        rows2 = execute_sweep(cfg2, jobs=2, progress=quiet)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows1, p1)
        write_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jobs_two_writes_the_one_thread_csv(self, tmp_path):
        # The workers start with one BLAS thread whatever the parent's
        # environment says, so --jobs 2 writes the bytes of a --jobs 1 run
        # with OPENBLAS_NUM_THREADS=1.
        data = dict(TINY_CONFIG, seeds=2, sample_budget=400, alpha0_grid=[0.5, 2.0],
                    problems=[{"kind": "logistic", "N": 200, "n": 8, "p": 0.1},
                              {"kind": "absreg", "N": 200, "n": 8, "sigma": 0.5}],
                    methods=[{"method": "pma"}, {"method": "prox"}])
        src = os.path.dirname(os.path.dirname(os.path.abspath(sweep.__file__)))
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(src),
                                             os.environ.get("PYTHONPATH", "")])
        for jobs, extra in ((1, {"OPENBLAS_NUM_THREADS": "1"}), (2, {})):
            subprocess.run([sys.executable, "-m", "batchprox.harness", "sweep",
                            "--config", json.dumps(data), "--jobs", str(jobs),
                            "--out", str(tmp_path / f"jobs{jobs}")],
                           env=dict(env, **extra), check=True, capture_output=True)
        one = (tmp_path / "jobs1" / "sweep.csv").read_bytes()
        assert one.count(b"\n") == 1 + 2 * 2 * 2 * 2
        assert (tmp_path / "jobs2" / "sweep.csv").read_bytes() == one

    def test_logistic_sweep_does_not_depend_on_blas_threads(self, tmp_path):
        # The logistic instance whose reference once moved with the thread
        # count (N = 1000, n = 40, p = 0.01, cond 10, seed index 1), swept by
        # sgm, pma, prox and accelerated pma in one- and two-thread processes.
        data = dict(TINY_CONFIG, seeds=2, sample_budget=2000, alpha0_grid=[0.1, 1.0, 10.0],
                    problems=[{"kind": "logistic", "N": 1000, "n": 40, "p": 0.01}],
                    cond_grid=[10.0], m_grid=[1, 16, 64], master_seed=0,
                    methods=[{"method": "sgm"}, {"method": "pma"}, {"method": "prox"},
                             {"method": "pma", "accelerated": True}])
        src = os.path.dirname(os.path.dirname(os.path.abspath(sweep.__file__)))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(src),
                                             os.environ.get("PYTHONPATH", "")])
        for threads in ("1", "2"):
            subprocess.run([sys.executable, "-m", "batchprox.harness", "sweep",
                            "--config", json.dumps(data), "--out", str(tmp_path / threads)],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                           capture_output=True)
        one = (tmp_path / "1" / "sweep.csv").read_bytes()
        assert one.count(b"\n") == 1 + 4 * 3 * 2 * 3
        assert (tmp_path / "2" / "sweep.csv").read_bytes() == one

    def test_parallel_sweep_restores_the_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        execute_sweep(config_mod.config_from_dict(dict(TINY_CONFIG, seeds=2)), jobs=2,
                      progress=quiet)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_master_seed_changes_results(self):
        cfg1 = config_mod.config_from_dict(TINY_CONFIG)
        cfg2 = config_mod.config_from_dict(TINY_CONFIG)
        cfg2.master_seed = 1
        r1 = execute_sweep(cfg1, progress=quiet)
        r2 = execute_sweep(cfg2, progress=quiet)
        assert r1[0].final_gap != r2[0].final_gap

    def test_row_independent_of_alpha_grid(self, tmp_path):
        data = dict(TINY_CONFIG, m_grid=[1, 4], alpha0_grid=[0.1, 1.0, 30.0],
                    sample_budget=400,
                    methods=[{"method": "pma"}, {"method": "pia"},
                             {"method": "prox", "accelerated": True}])
        whole = tmp_path / "whole.csv"
        write_csv(execute_sweep(config_mod.config_from_dict(data), progress=quiet),
                  whole)
        lines = whole.read_text().splitlines()[1:]
        for a in data["alpha0_grid"]:
            one = tmp_path / f"one{a}.csv"
            write_csv(execute_sweep(config_mod.config_from_dict(
                dict(data, alpha0_grid=[a])), progress=quiet), one)
            mine = one.read_text().splitlines()[1:]
            assert len(mine) == 6
            assert all(line in lines for line in mine)

    def test_solver_failure_is_an_innerfail_row(self, monkeypatch):
        def fail(*args):
            raise prox.InnerSolveError("forced")

        monkeypatch.setattr(prox, "truncated_steps", fail)
        rows = execute_sweep(config_mod.config_from_dict(TINY_CONFIG),
                             progress=quiet)
        assert [r.status for r in rows] == ["innerfail"]

    def test_unexpected_error_aborts_naming_the_group(self, monkeypatch):
        def broken(*args):
            raise TypeError("broken kernel")

        monkeypatch.setattr(prox, "truncated_steps", broken)
        with pytest.raises(TypeError, match="broken kernel") as info:
            execute_sweep(config_mod.config_from_dict(TINY_CONFIG), progress=quiet)
        note = " ".join(getattr(info.value, "__notes__", []))
        for part in ("problem=linreg", "cond=1", "seed=0", "method=pma",
                     "accelerated=False", "m=2"):
            assert part in note

    def test_stable_seed_is_stable(self):
        assert stable_seed("a", 1, 2.0) == stable_seed("a", 1, 2.0)
        assert stable_seed("a", 1) != stable_seed("a", 2)


class TestCsv:
    def _row(self, **kw):
        base = dict(problem="linreg", noise="sigma0.5", cond=1.0, method="pma",
                    accelerated=False, m=2, alpha0=1.0, seed=0, k_to_eps=10,
                    samples_to_eps=20, final_gap=0.5, status="converged")
        base.update(kw)
        return CellResult(**base)

    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == ",".join(results_mod.CSV_HEADER) + "\n"

    def test_round_trip(self, tmp_path):
        rows = [self._row(seed=s, final_gap=0.1 * s + 1e-17) for s in range(4)]
        path = tmp_path / "t.csv"
        write_csv(rows, path)
        back = read_csv(path)
        assert back == sorted(rows, key=lambda r: r.sort_key())

    def test_none_time_means_empty_field_budget(self, tmp_path):
        rows = [self._row(k_to_eps=None, samples_to_eps=None, status="budget")]
        path = tmp_path / "b.csv"
        write_csv(rows, path)
        text = path.read_text().splitlines()[1]
        fields = text.split(",")
        assert fields[8] == "" and fields[9] == ""
        assert fields[11] == "budget"

    def test_rows_sorted(self, tmp_path):
        rows = [self._row(seed=2), self._row(seed=0), self._row(seed=1)]
        path = tmp_path / "s.csv"
        write_csv(rows, path)
        seeds = [int(line.split(",")[7])
                 for line in path.read_text().splitlines()[1:]]
        assert seeds == [0, 1, 2]


class TestSvg:
    def test_single_series(self, tmp_path):
        path = tmp_path / "one.svg"
        svg.emit_svg(svg.Plot([svg.Series("flat", [1, 2, 3], [1.0, 1.0, 1.0])]),
                     str(path))
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert sum(1 for el in root.iter() if el.tag.endswith("polyline")) == 1

    def test_profile_and_guides(self, tmp_path):
        path = tmp_path / "p.svg"
        series = [svg.Series("a", [1, 2, 4], [0.2, 0.7, 1.0]),
                  svg.Series("b", [1, 2, 4], [0.5, 0.8, 1.0])]
        svg.emit_svg(svg.Plot(series, extra_lines=[("lin", [1, 4], [1, 4])]),
                     str(path))
        root = ET.parse(path).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_log_axes(self, tmp_path):
        path = tmp_path / "log.svg"
        svg.emit_svg(svg.Plot([svg.Series("s", [1, 10, 100], [1e-3, 1e-2, 1e-1])],
                              xlog=True, ylog=True), str(path))
        assert path.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            svg.emit_svg(svg.Plot([]), str(tmp_path / "x.svg"))


class TestLab:
    def test_orthcol_full_batch_zero_risk(self):
        rep = lab.orthcol_lab(8, 8, rounds=3, trials=50, seed=0)
        np.testing.assert_allclose(rep.empirical_risk, 0.0, atol=1e-30)
        np.testing.assert_allclose(rep.closed_form_risk, 0.0, atol=1e-30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0
            assert rep.max_relative_error() == 0.0

    def test_orthcol_rank_recursion(self):
        rep = lab.orthcol_lab(16, 4, rounds=10, trials=2000, seed=1)
        np.testing.assert_allclose(rep.mean_rank, rep.predicted_rank, rtol=0.02)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), data=st.data(), rounds=st.integers(1, 6),
           trials=st.integers(1, 30), seed=st.integers(0, 2**20))
    def test_orthcol_subset_draws(self, n, data, rounds, trials, seed):
        m = data.draw(st.integers(1, n))
        rep = lab.orthcol_lab(n, m, rounds, trials, seed=seed)
        # Every trial observes m distinct coordinates in its first round.
        assert rep.mean_rank[0] == m
        assert np.all(np.diff(rep.mean_rank) >= 0) and np.all(rep.mean_rank <= n)
        assert np.all(np.diff(rep.empirical_risk) <= 0)
        assert np.all(rep.empirical_risk >= 0)
        if m == n:
            assert np.all(rep.empirical_risk == 0.0)

    def test_twopoint_respects_envelope(self):
        rep = lab.twopoint_lab(0.08, 0.0, rounds=15, trials=1500, seed=2)
        # MC slack: the empirical factor cannot beat the envelope by more
        # than sampling noise.
        assert rep.empirical_log_factor >= rep.envelope_log_factor - 0.01

    def test_twopoint_verdict_holds_at_the_defaults_and_seeds_0_to_19(self):
        # The CLI defaults: lambda1 = 0.05, gamma = 0, 20 rounds, 500 trials.
        for seed in range(20):
            rep = lab.twopoint_lab(0.05, 0.0, rounds=20, trials=500, seed=seed)
            assert 0.0 < rep.log_factor_se < 0.01
            assert rep.respects_lower_bound, seed

    def test_twopoint_decay_five_se_faster_than_the_envelope_fails(self):
        rep = lab.twopoint_lab(0.05, 0.0, rounds=20, trials=500, seed=0)
        se, envelope = rep.log_factor_se, rep.envelope_log_factor
        for z, verdict in ((5.0, False), (3.5, False), (2.5, True), (-5.0, True)):
            moved = dataclasses.replace(rep, empirical_log_factor=envelope - z * se)
            assert moved.respects_lower_bound is verdict, z

    def test_twopoint_gamma_one_decays_slower(self):
        rep = lab.twopoint_lab(0.05, 1.0, rounds=15, trials=800, seed=3)
        assert rep.empirical_log_factor >= rep.envelope_log_factor - 0.01

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_twopoint_equals_per_trial_runs(self, gamma):
        lambda1, rounds, trials, seed = 0.05, 12, 40, 9
        rep = lab.twopoint_lab(lambda1, gamma, rounds, trials, seed=seed)
        delta = (1.0 + gamma) ** 2 * lambda1
        signs, sq = set(), np.zeros((trials, rounds + 1))
        for t in range(trials):  # one lone run per trial
            inst = problems.generate_problem("twopoint", delta=delta, gamma=gamma,
                                             seed=seed + 7 * t)
            signs.add(inst.sign)
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, t, 12345)).generate_state(1)[0])
            rec = optimizers.run_base(
                inst, models.pma(), optimizers.poly_decay(math.inf, beta=0.0), m=1,
                n_steps=rounds, epsilon=1e-300, rng=rng,
                record=optimizers.RecordOptions(stride=1, record_average=False,
                                                record_distance=True))
            d = np.concatenate([rec.dists, np.full(rounds + 1 - rec.dists.size,
                                                   rec.dists[-1])])
            sq[t] = d ** 2
        assert signs == {-1, 1}
        np.testing.assert_array_equal(rep.mean_sq_dist, sq.mean(axis=0))

    @pytest.mark.parametrize("seed, trials", [(0, 30), (5, 57), (11, 3)])
    def test_twopoint_sign_draws_keep_the_per_trial_instances(self, seed, trials):
        # The per-trial instance path: one instance drawn per trial, and one
        # lockstep stack per sign on its first trial's instance.
        lambda1, gamma, rounds = 0.05, 0.0, 12
        rep = lab.twopoint_lab(lambda1, gamma, rounds, trials, seed=seed)
        stacks = {}
        for t in range(trials):
            inst = problems.generate_problem("twopoint", delta=lambda1, gamma=gamma,
                                             seed=seed + 7 * t)
            stacks.setdefault(inst.sign, (inst, []))[1].append(t)
        sq = np.zeros((trials, rounds + 1))
        record = optimizers.RecordOptions(stride=1, record_average=False,
                                          record_distance=True)
        for inst, ts in stacks.values():
            rngs = [np.random.default_rng(
                np.random.SeedSequence((seed, t, 12345)).generate_state(1)[0]) for t in ts]
            recs = optimizers._run_lockstep(
                inst, models.pma(), [optimizers.poly_decay(math.inf, beta=0.0)] * len(ts),
                1, rounds, 1e-300, rngs, record=record)
            for t, rec in zip(ts, recs):
                d = np.concatenate([rec.dists, np.full(rounds + 1 - rec.dists.size,
                                                       rec.dists[-1])])
                sq[t] = d[: rounds + 1] ** 2
        mean_sq = sq.mean(axis=0)
        assert rep.mean_sq_dist.tobytes() == mean_sq.tobytes()
        ks, positive = np.arange(rounds + 1), mean_sq > 0
        assert rep.empirical_log_factor == analysis.loglinear_fit(ks[positive],
                                                                  mean_sq[positive])[0]
        # The delta method on the OLS slope of log(mean): g = c / mean.
        c = ks[positive] - ks[positive].mean()
        g = c / (c @ c) / mean_sq[positive]
        cov = np.atleast_2d(np.cov(sq[:, positive], rowvar=False))
        assert rep.log_factor_se == pytest.approx(math.sqrt(g @ cov @ g / trials),
                                                  rel=1e-10)

    @pytest.mark.parametrize("rounds, trials", [(0, 5), (5, 0), (-1, 5)])
    def test_labs_reject_empty_runs(self, rounds, trials):
        with pytest.raises(ValueError):
            lab.orthcol_lab(8, 2, rounds=rounds, trials=trials)
        with pytest.raises(ValueError):
            lab.twopoint_lab(0.05, 0.0, rounds=rounds, trials=trials)


class TestCli:
    def test_run_and_sweep_and_postprocess(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        data = dict(TINY_CONFIG, seeds=2, m_grid=[1, 2],
                    methods=[{"method": "pma"}, {"method": "sgm"}],
                    alpha0_grid=[0.1, 1.0])
        cfgfile.write_text(json.dumps(data))

        assert cli.main(["run", "--config", str(cfgfile), "--method", "pma",
                         "--m", "2", "--steps", "50"]) == 0
        out = capsys.readouterr().out
        assert "k,samples,gap" in out

        outdir = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfgfile), "--out",
                         str(outdir)]) == 0
        sweep_csv = outdir / "sweep.csv"
        assert sweep_csv.exists()
        capsys.readouterr()

        assert cli.main(["profile", "--csv", str(sweep_csv), "--out",
                         str(outdir)]) == 0
        assert (outdir / "profile.csv").exists()
        assert (outdir / "profile.svg").exists()
        capsys.readouterr()

        assert cli.main(["speedup", "--csv", str(sweep_csv), "--method", "pma",
                         "--units", "iterations", "--out", str(outdir)]) == 0
        assert (outdir / "speedup.csv").exists()
        assert (outdir / "speedup.svg").exists()

    def test_run_uses_the_sweep_instance(self, capsys):
        assert cli.main(["run", "--preset", "desk-linreg", "--steps", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        gaps = [line.split(",")[2] for line in lines if line[:1].isdigit()]
        cfg = preset("desk-linreg")
        prob, cond = cfg.problems[0], cfg.cond_grid[0]
        inst = prob.instantiate(cond, sweep._instance_seed(0, prob, cond, 0))
        cell = sweep._cell_seed(0, prob, cond, 0, config_mod.MethodSpec("pma"),
                                8, 1.0)
        rec = optimizers.run_base(
            inst, models.pma(), optimizers.poly_decay(1.0, 0.5), m=8, n_steps=20,
            epsilon=cfg.epsilon * sweep._initial_gap(inst),
            rng=np.random.default_rng(cell),
            record=optimizers.RecordOptions(stride=cfg.record_stride,
                                            record_average=False))
        assert gaps == [f"{g:.10e}" for g in rec.gaps]

    def test_run_replays_a_sweep_row(self, capsys):
        data = dict(TINY_CONFIG, sample_budget=600, m_grid=[1, 4],
                    alpha0_grid=[0.1, 3.0],
                    methods=[{"method": "pma"}, {"method": "sgm"},
                             {"method": "prox", "accelerated": True}])
        rows = execute_sweep(config_mod.config_from_dict(data), progress=quiet)
        assert {r.status for r in rows} == {"converged", "budget"}
        for r in rows:
            assert cli.main(["run", "--config", json.dumps(data),
                             "--method", r.method, "--m", str(r.m),
                             "--alpha0", repr(r.alpha0),
                             "--accelerated", str(r.accelerated),
                             "--steps", str(data["sample_budget"] // r.m)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-2].split(",")[2] == f"{r.final_gap:.10e}"
            assert lines[-1].startswith(f"# status={r.status} ")

    def test_exit_codes(self, tmp_path, capsys):
        assert cli.main(["sweep"]) == 1  # no config
        assert cli.main(["sweep", "--config", "{bad json"]) == 1
        assert cli.main(["profile", "--csv",
                         str(tmp_path / "missing.csv")]) == 1
        assert cli.main(["nope"]) == 1

    def test_growth_command(self, capsys):
        assert cli.main(["growth", "--kind", "power", "--N", "100", "--n",
                         "5", "--gamma", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "lambda1_hat" in out

    def test_lbtest_commands(self, tmp_path, capsys):
        assert cli.main(["lbtest", "--kind", "orthcol", "--n", "8", "--m",
                         "2", "--rounds", "5", "--trials", "50", "--out",
                         str(tmp_path)]) == 0
        assert (tmp_path / "orthcol.svg").exists()
        assert cli.main(["lbtest", "--kind", "twopoint", "--rounds", "10",
                         "--trials", "50", "--lambda1", "0.05", "--out",
                         str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["lbtest", "--kind", "twopoint", "--out", str(tmp_path)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert " +- 0.003" in last and last.endswith("respects_lower_bound=True")
        for bad in (["--trials", "0"], ["--rounds", "0"], ["--radius", "0"]):
            for kind in ("twopoint", "orthcol"):
                assert cli.main(["lbtest", "--kind", kind, *bad,
                                 "--out", str(tmp_path)]) == 1
        for bad in (["--kind", "orthcol", "--m", "0"],
                    ["--kind", "orthcol", "--m", "40", "--n", "32"],
                    ["--kind", "twopoint", "--lambda1", "0"],
                    ["--kind", "twopoint", "--lambda1", "1.5"],
                    ["--kind", "twopoint", "--lambda1", "0.3", "--gamma", "1"],
                    ["--kind", "twopoint", "--gamma", "-0.5"]):
            assert cli.main(["lbtest", *bad, "--out", str(tmp_path)]) == 1

    def test_lbtest_orthcol_full_batch(self, tmp_path, capsys):
        # m = n observes everything in round 1: zero risk on a linear axis.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["lbtest", "--kind", "orthcol", "--n", "8", "--m",
                             "8", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "orthcol.svg").exists()
        assert "max relative risk error: 0.0000" in capsys.readouterr().out

    def test_unwritable_out_dir_is_runtime_failure(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        # out path nested under a regular file -> makedirs fails -> exit 2
        assert cli.main(["sweep", "--config", str(cfg), "--out",
                         str(blocker / "sub")]) == 2

    def test_sweep_rejects_colliding_specs(self, tmp_path, capsys):
        data = dict(TINY_CONFIG, methods=[{"method": "sgm"}, {"method": "sgm"}])
        assert cli.main(["sweep", "--config", json.dumps(data), "--out",
                         str(tmp_path)]) == 1
        assert "duplicate method spec" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_preset_and_empty_problems(self, capsys):
        assert cli.main(["sweep", "--preset", "not-a-preset", "--out",
                         "."]) == 1  # rejected by the parser's choices
        assert cli.main(["run", "--config", '{"problems": []}']) == 1


class TestEndToEnd:
    def test_profile_pipeline_from_sweep(self, tmp_path):
        data = dict(TINY_CONFIG, seeds=2,
                    methods=[{"method": "pma"}, {"method": "prox"}],
                    alpha0_grid=[0.316, 3.16])
        cfg = config_mod.config_from_dict(data)
        rows = execute_sweep(cfg, progress=quiet)
        dicts = results.rows_as_dicts(rows)
        curves = analysis.performance_profile(dicts, ["pma", "prox"])
        assert {c.method for c in curves} == {"pma", "prox"}
