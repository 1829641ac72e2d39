import argparse
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
from hypothesis import assume, given, settings
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

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

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

# Problem parameters that generate_problem does not take: each config is
# rejected at load, so the CLI exits 1 before any work.
OUT_OF_RANGE_PROBLEMS = [
    {"kind": "power", "N": 20, "n": 2, "gamma": 1.5},
    {"kind": "power", "N": 20, "n": 2, "gamma": math.nan},
    {"kind": "twopoint", "delta": 0.0},
    {"kind": "twopoint", "delta": 1.0},
    {"kind": "twopoint", "radius": 0.0},
    {"kind": "linreg", "N": 0, "n": 2},
    {"kind": "linreg", "N": 20, "n": 0},
]
_PROBE_IDS = ["gamma1.5", "gammaNaN", "delta0", "delta1", "radius0", "N0", "n0"]
_PROBE_VALUES = st.sampled_from([0.0, 0.5, 1.0, -0.25, 1.5, math.nan])


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

    @pytest.mark.parametrize("text", ['"alpha0_grid": [NaN]', '"cond_grid": [NaN]',
                                      '"epsilon": NaN'])
    def test_nan_values_rejected(self, text):
        # Python's JSON reader takes NaN, which fails every comparison.
        with pytest.raises(ConfigError):
            load_config('{"problems": [{"kind": "linreg", "N": 30, "n": 3}], ' + text + "}")

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

    @pytest.mark.parametrize("problem", [
        {"kind": "power", "N": 20, "n": 2, "sigma": 0.5},
        {"kind": "halfspace", "N": 20, "n": 2, "p": 0.1},
        {"kind": "logistic", "N": 20, "n": 2, "sigma": 0.5},
        {"kind": "linreg", "N": 20, "n": 2, "p": 0.1},
        {"kind": "twopoint", "sigma": 0.5},
    ])
    def test_noise_parameter_of_another_kind_rejected(self, problem):
        # The kind would ignore it, and the row's noise label would name it.
        with pytest.raises(ConfigError, match="problem takes no"):
            config_mod.config_from_dict(dict(TINY_CONFIG, problems=[problem]))
        problem = dict(problem, **{k: 0.0 for k in ("sigma", "p") if k in problem})
        config_mod.config_from_dict(dict(TINY_CONFIG, problems=[problem]))

    @pytest.mark.parametrize("text", ['"sigma": -0.5', '"sigma": NaN',
                                      '"p": 1.5', '"p": -0.1', '"p": NaN'])
    def test_noise_parameter_out_of_range_rejected(self, text):
        # The parent took a negative or NaN value as noiseless.
        kind = "logistic" if text.startswith('"p"') else "absreg"
        with pytest.raises(ConfigError, match="sigma must be >= 0 and p"):
            load_config('{"problems": [{"kind": "%s", "N": 30, "n": 3, %s}]}' % (kind, text))

    @pytest.mark.parametrize("problem", OUT_OF_RANGE_PROBLEMS, ids=_PROBE_IDS)
    def test_problem_parameter_out_of_range_rejected(self, problem):
        with pytest.raises(ConfigError):
            load_config(json.dumps({"problems": [problem]}))
        with pytest.raises(ValueError):
            problems.generate_problem(**problem)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(problems.KINDS), N=st.integers(-1, 4),
           n=st.integers(-1, 3), level=_PROBE_VALUES, gamma=_PROBE_VALUES,
           delta=_PROBE_VALUES, radius=_PROBE_VALUES,
           cond=st.sampled_from([1.0, 10.0, 0.5, math.nan]))
    def test_a_config_is_rejected_exactly_when_its_problem_is(
            self, kind, N, n, level, gamma, delta, radius, cond):
        # Both run problems.check_parameters.  Left out: what only the
        # config rejects, another kind's noise parameter and a cond_grid
        # entry below 1 for twopoint, which has no cond.
        assume(kind != problems.TWOPOINT or cond >= 1.0)
        noise = problems.NOISE_PARAMETERS.get(kind)
        probe = dict(kind=kind, N=N, n=n, gamma=gamma, delta=delta, radius=radius,
                     **({noise: level} if noise else {}))
        try:
            problems.generate_problem(**probe, cond=cond, seed=1)
            generated = True
        except ValueError:
            generated = False
        try:
            config_mod.config_from_dict({"problems": [probe], "cond_grid": [cond]})
            loaded = True
        except ConfigError:
            loaded = False
        assert generated == loaded

    @pytest.mark.parametrize("name", sorted(config_mod.PRESETS))
    def test_every_preset_loads(self, name):
        # validate rejects another kind's noise parameter; no preset sets one.
        assert preset(name).problems

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
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config("[1, 2]")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config("desk-linreg")  # a preset name is no config text

    @pytest.mark.parametrize("change", [
        {"methods": [{"method": "pma", "accelerated": "false"}]},
        {"seeds": 2.7},
        {"m_grid": [2.5]},
        {"problems": [{"kind": "linreg", "N": "50", "n": 3}]},
        {"alpha0_grid": ["x"]},
        {"alpha0_grid": [1.0, True]},
        {"epsilon": True},
        {"sample_budget": 400.0},
        {"master_seed": None},
        {"cond_grid": 1.0},
        {"problems": ["linreg"]},
        {"problems": [{"kind": "linreg", "sigma": "0.5"}]},
        {"methods": {"method": "pma"}},
        {"methods": [{"method": 3}]},
        {"methods": [{"method": "pma", "schedule": "smooth"}]},
        {"methods": [{"method": "pma", "schedule": {"beta": "0.5"}}]},
    ])
    def test_values_of_another_json_type_rejected(self, change):
        with pytest.raises(ConfigError, match="must be a JSON"):
            config_mod.config_from_dict(dict(TINY_CONFIG, **change))

    def test_numbers_take_json_integers(self):
        cfg = config_mod.config_from_dict(dict(
            TINY_CONFIG, alpha0_grid=[1, 2.5], cond_grid=[1], epsilon=1,
            problems=[{"kind": "linreg", "N": 30, "n": 3, "sigma": 1}],
            methods=[{"method": "pma", "schedule": {"beta": 1}}]))
        assert cfg.alpha0_grid == [1, 2.5] and cfg.cond_grid == [1]
        assert cfg.epsilon == 1 and cfg.problems[0].sigma == 1
        assert cfg.methods[0] == config_mod.MethodSpec("pma", beta=1.0)

    def test_config_shares_no_list_with_its_source(self):
        cfg = preset("desk-linreg")
        cfg.alpha0_grid.append(123.0)
        cfg.m_grid.append(99)
        assert preset("desk-linreg").alpha0_grid == config_mod.DEFAULT_ALPHA0_GRID
        assert config_mod.PRESETS["desk-linreg"]["m_grid"] == [1, 4, 16]

    def test_presets_and_benchmark_configs_load_unchanged(self):
        # Every preset and benchmark config has JSON-typed values, so each
        # loads to the SweepConfig that its values build directly.
        sys.path.insert(0, PERFBENCH)
        try:
            import workloads
        finally:
            sys.path.remove(PERFBENCH)
        sources = list(config_mod.PRESETS.values())
        for name, wl in workloads.WORKLOADS.items():
            if wl.kind == "sweep":
                sources += [wl.config, workloads.workload(name, tiny=True).config,
                            dataclasses.asdict(wl)["config"]]
                for rnd in range(2):
                    cfg = workloads.sweep_config(wl, 0, rnd)
                    assert cfg.master_seed == workloads.derive_seed(name, 0, rnd)
        assert len(sources) == 7 + 3 * 3
        for data in sources:
            rest = {k: v for k, v in data.items() if k != "problems"}
            if "methods" in rest:
                rest["methods"] = [config_mod.MethodSpec(d["method"],
                                                         d.get("accelerated", False))
                                   for d in rest["methods"]]
            expected = config_mod.SweepConfig(
                [config_mod.ProblemSpec(**p) for p in data["problems"]], **rest)
            assert load_config(json.dumps(data)) == expected
            assert config_mod.config_from_dict(data) == expected
        for name, data in config_mod.PRESETS.items():
            assert preset(name) == load_config(json.dumps(data))


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
        def fail(centers, gaps, gbars, alpha):  # every row reads failed
            return centers.copy(), np.zeros(alpha.size, dtype=bool)

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
        # A guide line is a dashed Series: its own colour and legend entry,
        # and its points count in the axis ranges (y = 4 is the top).
        path = tmp_path / "p.svg"
        series = [svg.Series("a", [1, 2, 4], [0.2, 0.7, 1.0]),
                  svg.Series("b", [1, 2, 4], [0.5, 0.8, 1.0]),
                  svg.Series("lin", [1, 4], [1, 4], dashed=True)]
        svg.emit_svg(svg.Plot(series), str(path))
        root = ET.parse(path).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3
        assert [el.get("stroke-dasharray") for el in polylines] == [None, None, "4 3"]
        assert len({el.get("stroke") for el in polylines}) == 3
        assert polylines[2].get("points").endswith(",36.00")
        assert "lin" in [el.text for el in root.iter() if el.tag.endswith("text")]

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
            signs.add(int(np.sign(inst.b[1])))
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
        # The lab as it ran before the mirror argument: one instance drawn
        # per trial, and one lockstep stack per sign on its first trial's
        # instance.
        lambda1, gamma, rounds = 0.05, 0.0, 12
        rep = lab.twopoint_lab(lambda1, gamma, rounds, trials, seed=seed)
        stacks = {}
        for t in range(trials):
            inst = problems.generate_problem("twopoint", delta=lambda1, gamma=gamma,
                                             seed=seed + 7 * t)
            stacks.setdefault(float(inst.b[1]), (inst, []))[1].append(t)  # by sign v
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

    @pytest.mark.parametrize("gamma, R", [(0.3, 2.5), (0.5, 0.7)])
    def test_mirrored_instances_give_the_same_distances(self, gamma, R):
        # v -> -v: each trial's lone run on its own instance (seed + 7t) has
        # the distances of its lone run on trial 0's instance, bit for bit.
        lambda1, rounds, trials, seed = 0.05, 12, 16, 4
        delta = (1.0 + gamma) ** 2 * lambda1
        record = optimizers.RecordOptions(stride=1, record_average=False,
                                          record_distance=True)
        first = problems.generate_problem("twopoint", delta=delta, gamma=gamma, radius=R,
                                          seed=seed)
        signs, sq = set(), np.zeros((trials, rounds + 1))
        for t in range(trials):
            own = problems.generate_problem("twopoint", delta=delta, gamma=gamma, radius=R,
                                            seed=seed + 7 * t)
            signs.add(float(np.sign(own.b[1])))
            dists = [optimizers.run_base(
                inst, models.pma(), optimizers.poly_decay(math.inf, beta=0.0), m=1,
                n_steps=rounds, epsilon=1e-300, record=record,
                rng=np.random.default_rng(
                    np.random.SeedSequence((seed, t, 12345)).generate_state(1)[0])).dists
                for inst in (own, first)]
            assert dists[0].tobytes() == dists[1].tobytes(), t
            d = np.concatenate([dists[0], np.full(rounds + 1 - dists[0].size, dists[0][-1])])
            sq[t] = d ** 2
        assert signs == {-1.0, 1.0}
        rep = lab.twopoint_lab(lambda1, gamma, rounds, trials, R=R, seed=seed)
        assert rep.mean_sq_dist.tobytes() == sq.mean(axis=0).tobytes()

    @pytest.mark.parametrize("kind, flags", [
        ("twopoint", dict(gamma=1.5)),
        ("twopoint", dict(lambda1=0.3, gamma=1.0)),  # delta = 4 * 0.3 = 1.2
        ("twopoint", dict(radius=0.0)),
        ("twopoint", dict(radius=-1.0)),
        ("twopoint", dict(rounds=0)),
        ("orthcol", dict(n=4, m=5)),
    ])
    def test_labs_reject_bad_arguments(self, kind, flags, tmp_path, capsys):
        args = dict(rounds=5, trials=5, radius=1.0) | flags
        if kind == "twopoint":
            args = dict(lambda1=0.05, gamma=0.0) | args
            run, names = lab.twopoint_lab, "delta = (1+gamma)^2 * lambda1"
        else:
            run, names = lab.orthcol_lab, "m <= n"
        with pytest.raises(ConfigError) as info:
            run(R=args.pop("radius"), **args)
        if "rounds" not in flags:
            assert names in str(info.value)
        # lbtest exits 1 and prints nothing on stdout.
        argv = ["lbtest", "--kind", kind, "--out", str(tmp_path)]
        for flag, value in (dict(rounds=5, trials=5) | flags).items():
            argv += [f"--{flag}", str(value)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == ""

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
        root = ET.parse(outdir / "speedup.svg").getroot()
        assert "linear" in [el.text for el in root.iter() if el.tag.endswith("text")]

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
                             {"method": "prox", "accelerated": True},
                             {"method": "pia"}, {"method": "pam"}])
        rows = execute_sweep(config_mod.config_from_dict(data), progress=quiet)
        assert {r.status for r in rows} == {"converged", "budget"}
        assert {r.method for r in rows if r.status == "converged"} >= {"pia", "pam"}
        for r in rows:
            assert cli.main(["run", "--config", json.dumps(data),
                             "--method", r.method, "--m", str(r.m),
                             "--alpha0", repr(r.alpha0),
                             "--accelerated", str(r.accelerated),
                             "--steps", str(data["sample_budget"] // r.m)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-2].split(",")[2] == f"{r.final_gap:.10e}"
            assert lines[-1].startswith(f"# status={r.status} ")

    def test_config_master_seed_holds_unless_seed_is_given(self, tmp_path, capsys):
        data = json.dumps(dict(TINY_CONFIG, master_seed=5))
        csv = {}
        for name, extra in (("config", []), ("flag", ["--seed", "5"]),
                            ("flag0", ["--seed", "0"])):
            out = tmp_path / name
            assert cli.main(["sweep", "--config", data, "--out", str(out), *extra]) == 0
            csv[name] = (out / "sweep.csv").read_bytes()
        assert csv["config"] == csv["flag"] != csv["flag0"]
        capsys.readouterr()
        runs = {}
        for name, extra in (("config", []), ("flag", ["--seed", "5"]),
                            ("flag0", ["--seed", "0"])):
            assert cli.main(["run", "--config", data, "--steps", "30", *extra]) == 0
            runs[name] = capsys.readouterr().out
        assert runs["config"] == runs["flag"] != runs["flag0"]

    @pytest.mark.parametrize("problem", [
        {"kind": "power", "N": 20, "n": 2, "sigma": 0.5},
        {"kind": "halfspace", "N": 20, "n": 2, "p": 0.1},
        {"kind": "logistic", "N": 20, "n": 2, "sigma": 0.5},
    ])
    def test_noise_parameter_of_another_kind_is_a_usage_error(self, problem, tmp_path, capsys):
        data = json.dumps({"problems": [problem]})
        assert cli.main(["sweep", "--config", data, "--out", str(tmp_path)]) == 1
        assert "problem takes no" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("problem", OUT_OF_RANGE_PROBLEMS, ids=_PROBE_IDS)
    def test_problem_parameter_out_of_range_is_a_usage_error(self, problem, tmp_path,
                                                               capsys):
        data = json.dumps({"problems": [problem]})
        assert cli.main(["sweep", "--config", data, "--out", str(tmp_path)]) == 1
        assert cli.main(["run", "--config", data, "--steps", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error: ") == 2
        assert not (tmp_path / "sweep.csv").exists()

    def test_exit_codes(self, tmp_path, capsys):
        assert cli.main(["sweep"]) == 1  # no config
        assert cli.main(["sweep", "--config", "{bad json"]) == 1
        assert cli.main(["profile", "--csv",
                         str(tmp_path / "missing.csv")]) == 1
        assert cli.main(["nope"]) == 1

    @pytest.mark.parametrize("change", [
        {"methods": [{"method": "pma", "accelerated": "false"}]},
        {"seeds": 2.7},
        {"m_grid": [2.5]},
        {"problems": [{"kind": "linreg", "N": "50", "n": 3}]},
        {"alpha0_grid": ["x"]},
    ])
    def test_config_of_another_json_type_is_a_usage_error(self, change, tmp_path, capsys):
        data = json.dumps(dict(TINY_CONFIG, **change))
        assert cli.main(["sweep", "--config", data, "--out", str(tmp_path)]) == 1
        assert cli.main(["run", "--config", data, "--steps", "5"]) == 1
        assert "must be a JSON" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "desk-linreg", "--m", "0"],
        ["run", "--preset", "desk-linreg", "--m", "-2"],
        ["run", "--preset", "desk-linreg", "--steps", "0"],
        ["run", "--preset", "desk-linreg", "--steps", "1.5"],
        ["growth", "--N", "0"],
        ["growth", "--n", "0"],
        ["growth", "--m", "0"],
        ["growth", "--draws", "0"],
    ])
    def test_nonpositive_counts_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == 1
        flag = argv[-2]
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_each_command_takes_the_flags_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(opt for action in sp._actions
                              for opt in action.option_strings if opt not in ("-h", "--help"))
                 for name, sp in sub.choices.items()}
        assert flags == {
            "run": ["--accelerated", "--alpha0", "--beta", "--config", "--m",
                    "--method", "--preset", "--seed", "--steps"],
            "sweep": ["--config", "--jobs", "--out", "--preset", "--seed"],
            "profile": ["--accelerated", "--csv", "--out"],
            "speedup": ["--csv", "--method", "--out", "--units"],
            "growth": ["--N", "--alpha", "--draws", "--gamma", "--kind", "--m", "--n",
                       "--seed"],
            "lbtest": ["--gamma", "--kind", "--lambda1", "--m", "--n", "--out",
                       "--radius", "--rounds", "--seed", "--trials"],
        }
        assert sum(map(len, flags.values())) == 39

    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        write_csv([CellResult("linreg", "none", 1.0, "pma", False, 1, 1.0, 0, 3, 3,
                              0.1, "converged")], csv_path)
        out = ["--out", str(tmp_path)]
        for argv, unread in (
                (["profile", "--csv", str(csv_path), *out], ["--seed", "1"]),
                (["speedup", "--csv", str(csv_path), *out], ["--seed", "1"]),
                (["run", "--preset", "desk-linreg", "--steps", "5"], ["--out", "."]),
                (["growth", "--N", "40", "--n", "3", "--draws", "20"], ["--out", "."])):
            assert cli.main(argv) == 0
            assert cli.main(argv + unread) == 1
        capsys.readouterr()
        assert cli.main(["run", "--config", "desk-linreg", "--steps", "5"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_growth_command(self, capsys):
        assert cli.main(["growth", "--kind", "power", "--N", "100", "--n",
                         "5", "--gamma", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "lambda1_hat" in out

    @pytest.mark.parametrize("kind", ["halfspace", "logistic"])
    def test_growth_rejects_kinds_without_a_point_optimum(self, kind, capsys):
        # Rejected at parsing, before any estimate is printed.
        assert cli.main(["growth", "--kind", kind]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --kind" in captured.err

    def test_lbtest_commands(self, tmp_path, capsys):
        assert cli.main(["lbtest", "--kind", "orthcol", "--n", "8", "--m",
                         "2", "--rounds", "5", "--trials", "50", "--out",
                         str(tmp_path)]) == 0
        assert (tmp_path / "orthcol.svg").exists()
        assert cli.main(["lbtest", "--kind", "twopoint", "--rounds", "10",
                         "--trials", "50", "--lambda1", "0.05", "--out",
                         str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "twopoint"
        assert cli.main(["lbtest", "--kind", "twopoint", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["twopoint.svg"]
        ET.parse(out / "twopoint.svg")  # well-formed
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
