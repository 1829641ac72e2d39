"""Sweep execution over (problem, method, alpha0, m, cond, seed) grids.

Every cell derives its RNG stream from a stable 64-bit hash of the master
seed and the cell coordinates, so results are independent of execution
order and parallelism degree.  Cells sharing a problem instance (same
problem/cond/seed) are grouped so the instance and its reference optimum
are computed once, and the alpha0 cells of each (method, m) run in
lockstep, which leaves every row as it would be run alone.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import astuple

import numpy as np

from .. import models, optimizers, problems
from .config import MethodSpec, ProblemSpec, SweepConfig
from .results import CellResult


def stable_seed(*parts) -> int:
    """64-bit seed from a canonical string of the parts (stable across
    processes and sessions, unlike hash())."""
    key = "|".join(
        format(p, ".17g") if isinstance(p, float) else str(p) for p in parts
    )
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _instance_seed(master: int, prob: ProblemSpec, cond: float, seed: int) -> int:
    return stable_seed("instance", master, *astuple(prob), cond, seed)


def _cell_seed(master: int, prob: ProblemSpec, cond: float, seed: int,
               ms: MethodSpec, m: int, alpha0: float) -> int:
    return stable_seed("cell", master, prob.kind, cond, seed, ms.method,
                       ms.accelerated, ms.schedule_kind, m, alpha0)


def _schedules(ms: MethodSpec, alpha0s, inst) -> list:
    """One law's schedules for a group's alpha0 cells (one stack, one L)."""
    if ms.schedule_kind == "poly":
        return [optimizers.poly_decay(a0, ms.beta) for a0 in alpha0s]
    L = optimizers.smoothness_constant(inst)
    # alpha0 rescales the eta ramp so the grid still sweeps aggressiveness.
    return [optimizers.smoothness_adaptive(L, eta0=1.0 / a0, power=ms.power)
            for a0 in alpha0s]


def run_cells(prob: ProblemSpec, ms: MethodSpec, inst, cond: float, m: int,
              seed: int, config: SweepConfig, alpha0s, n_steps: int) -> list:
    """The records of the sweep cells of one (instance, method spec, m)
    group at alpha0s, run in lockstep for n_steps: each cell with its own
    stream, schedule, target and record stride.  Solver failures end as
    per-cell innerfail statuses; any other exception propagates, noted with
    the group's coordinates."""
    try:
        rngs = [np.random.default_rng(
                    _cell_seed(config.master_seed, prob, cond, seed, ms, m, a0))
                for a0 in alpha0s]
        return optimizers._run_lockstep(
            inst, models.strategy_from_id(ms.method),
            _schedules(ms, alpha0s, inst), m=m, n_steps=n_steps,
            epsilon=config.epsilon * _initial_gap(inst), rngs=rngs,
            accelerated=ms.accelerated,
            record=optimizers.RecordOptions(stride=config.record_stride,
                                            record_average=False))
    except Exception as exc:
        exc.add_note(f"in sweep group problem={prob.label()} cond={cond:g} "
                     f"seed={seed} method={ms.method} "
                     f"accelerated={ms.accelerated} m={m}")
        raise


def run_group(prob: ProblemSpec, ms: MethodSpec, inst, cond: float, m: int,
              seed: int, config: SweepConfig) -> list:
    """The rows of one (instance, method spec, m) group, one per alpha0 of
    the grid, each run to the sample budget."""
    recs = run_cells(prob, ms, inst, cond, m, seed, config, config.alpha0_grid,
                     max(1, config.sample_budget // m))
    return [_row(prob, ms, cond, m, a0, seed, rec)
            for a0, rec in zip(config.alpha0_grid, recs)]


def _row(prob, ms, cond, m, alpha0, seed, rec) -> CellResult:
    k_conv = rec.k_converged
    return CellResult(
        problem=prob.label(), noise=prob.noise_label(), cond=float(cond),
        method=ms.method, accelerated=ms.accelerated, m=int(m),
        alpha0=float(alpha0), seed=int(seed),
        k_to_eps=(None if k_conv is None else max(k_conv, 1)),
        samples_to_eps=None if k_conv is None else optimizers.samples_used(k_conv, m),
        final_gap=float(rec.gaps[-1]), status=rec.status,
    )


def _initial_gap(inst) -> float:
    gap0 = (problems.objective_value(inst, np.zeros(inst.n))
            - problems.reference_optimum(inst).f_star)
    return max(gap0, 1e-300)


def _run_instance_group(args):
    config, prob, cond, seed = args
    inst = prob.instantiate(cond, _instance_seed(config.master_seed, prob,
                                                 cond, seed))
    return [row for ms in config.methods for m in config.m_grid
            for row in run_group(prob, ms, inst, cond, m, seed, config)]


def execute_sweep(config: SweepConfig, jobs: int = 1, progress=None):
    """Run every grid cell and return canonically sorted CellResult rows.
    Solver failures become innerfail rows; any other exception aborts the
    sweep, with a note naming its (method, m) group."""
    config.validate()
    groups = [
        (config, prob, cond, seed)
        for prob in config.problems
        for cond in config.cond_grid
        for seed in range(config.seeds)
    ]
    progress = progress if progress is not None else _stderr_progress
    rows = []
    if jobs <= 1:
        for i, group in enumerate(groups):
            rows.extend(_run_instance_group(group))
            progress(i + 1, len(groups))
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms; only pools need it
        from multiprocessing import get_context
        # Spawned workers load NumPy with one BLAS thread each: the jobs
        # already fill the cores, and the default threads would contend.
        saved = {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        os.environ.update(dict.fromkeys(saved, "1"))
        try:
            with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
                for i, chunk in enumerate(pool.map(_run_instance_group, groups)):
                    rows.extend(chunk)
                    progress(i + 1, len(groups))
        finally:  # the parent's own environment
            for var, value in saved.items():
                os.environ.pop(var)
                if value is not None:
                    os.environ[var] = value
    rows.sort(key=lambda r: r.sort_key())
    return rows


def _stderr_progress(done: int, total: int):
    print(f"\rsweep: {done}/{total} instance groups", end="", file=sys.stderr)
    if done == total:
        print(file=sys.stderr)
