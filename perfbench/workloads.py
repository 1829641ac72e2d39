"""Workload definitions: inputs, the timed work, step counts and the
correctness gate.

Each workload is a closed loop in one process: a run executes rounds back to
back, and round ``r`` of a run with workload seed ``s`` uses inputs derived
only from ``(workload, s, r)``.  The library receives only the generated
configs (sweeps) and instances (trajectories).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from batchprox import analysis, models, optimizers, problems
from batchprox.harness import config as config_mod
from batchprox.harness import lab, results, sweep

DEFAULT_SEED = 0
HELDOUT_SEED = 20210107  # reserved for checking claims; not used while tuning

STATUSES = (optimizers.STATUS_CONVERGED, optimizers.STATUS_BUDGET,
            optimizers.STATUS_DIVERGED, optimizers.STATUS_INNERFAIL)
BASE_METHODS = ["sgm", "pia", "pma", "pam", "prox"]
ACCEL_METHODS = ["sgm", "pma", "prox"]
ALPHA0_5 = [1e-2, 1e-1, 1.0, 1e1, 1e2]

# Slack on the two-point envelope comparison: TwoPointReport says the
# Monte-Carlo slack is the caller's to apply, and the library's own test of
# the README configuration uses this value.
TWOPOINT_MC_SLACK = 0.01


def derive_seed(*parts) -> int:
    """32-bit seed from the parts, independent of the library's hashing."""
    key = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "little")


@dataclass
class Workload:
    name: str
    kind: str                 # "sweep" or "trajectories"
    definition: str
    config: dict = field(default_factory=dict)      # sweeps
    profile_flags: tuple = (None,)                   # sweeps
    trajectory: dict = field(default_factory=dict)  # trajectories


def _sweep_config(preset: str, **overrides) -> dict:
    return dict(config_mod.PRESETS[preset], **overrides)


WORKLOADS = {
    "absreg-grid": Workload(
        name="absreg-grid", kind="sweep",
        definition=("desk-absreg preset (noiseless absreg N=200 n=20), seeds=1, "
                    "5 base methods x m in {1,4,16} x 10 alpha0 = 150 cells, "
                    "sample_budget 400; then profile and speedup summaries."),
        config=_sweep_config("desk-absreg", seeds=1, sample_budget=400),
    ),
    "linreg-accel": Workload(
        name="linreg-accel", kind="sweep",
        definition=("desk-linreg preset (sigma=0.5, N=200 n=20), seeds=1, 5 base "
                    "methods plus accelerated sgm, pma, prox x m in {1,4,16} x "
                    "10 alpha0 = 240 cells, sample_budget 500; then profile "
                    "(once per accelerated flag) and speedup summaries."),
        config=_sweep_config(
            "desk-linreg", seeds=1, sample_budget=500,
            methods=[{"method": m} for m in BASE_METHODS]
            + [{"method": m, "accelerated": True} for m in ACCEL_METHODS]),
        profile_flags=(False, True),
    ),
    "logistic-prox": Workload(
        name="logistic-prox", kind="sweep",
        definition=("desk-logistic instance (p=0.01 flips, N=200 n=20), seeds=1, "
                    "methods pma and prox x m in {1,16} x alpha0 in "
                    "{1e-2,...,1e2} = 20 cells, sample_budget 128; "
                    "then profile and speedup summaries."),
        config=_sweep_config(
            "desk-logistic", seeds=1, sample_budget=128,
            methods=[{"method": "pma"}, {"method": "prox"}],
            m_grid=[1, 16], alpha0_grid=ALPHA0_5),
    ),
    "trajectories": Workload(
        name="trajectories", kind="trajectories",
        definition=("a pair of noisy absreg instances N=1000 n=40 sigma=0.5, "
                    "cond 1 and 10, LP reference each (two pairs per run, "
                    "rounds alternate); per instance run_base of sgm, pma, pam, "
                    "prox, pia and run_accelerated of sgm, pma, prox at m=8, "
                    "alpha0=1, 200 steps, stride 1, record_average; then "
                    "twopoint_lab(0.05, 0, 30 rounds, 500 trials) and "
                    "orthcol_lab(n=32, m=4, 20 rounds, 500 trials)."),
        trajectory=dict(problem=dict(kind="absreg", N=1000, n=40, sigma=0.5),
                        conds=[1.0, 10.0], pairs=2, m=8, alpha0=1.0, steps=200,
                        epsilon=config_mod.DEFAULT_EPSILON,
                        twopoint=dict(lambda1=0.05, gamma=0.0, rounds=30,
                                      trials=500),
                        orthcol=dict(n=32, m=4, rounds=20, trials=500)),
    ),
}

# Tiny versions for the self-test: same code paths, seconds to run.
TINY = {
    "absreg-grid": dict(problems=[{"kind": "absreg", "N": 40, "n": 5}],
                        m_grid=[1, 4], alpha0_grid=[0.1, 1.0, 10.0],
                        sample_budget=200),
    "linreg-accel": dict(problems=[{"kind": "linreg", "N": 40, "n": 5,
                                    "sigma": 0.5}],
                         m_grid=[1, 4], alpha0_grid=[0.1, 1.0, 10.0],
                         sample_budget=200),
    "logistic-prox": dict(problems=[{"kind": "logistic", "N": 40, "n": 5,
                                     "p": 0.05}],
                          m_grid=[1, 4], alpha0_grid=[1.0, 10.0],
                          sample_budget=60),
    "trajectories": dict(problem=dict(kind="absreg", N=60, n=5, sigma=0.5),
                         steps=30,
                         twopoint=dict(lambda1=0.05, gamma=0.0, rounds=10,
                                       trials=40),
                         orthcol=dict(n=8, m=2, rounds=5, trials=40)),
}


def workload(name: str, tiny: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[name]
    if not tiny:
        return wl
    if wl.kind == "sweep":
        return Workload(wl.name, wl.kind, wl.definition,
                        config=dict(wl.config, **TINY[name]),
                        profile_flags=wl.profile_flags)
    return Workload(wl.name, wl.kind, wl.definition,
                    trajectory=dict(wl.trajectory, **TINY[name]))


# ---------------------------------------------------------------------------
# Inputs


def sweep_config(wl: Workload, seed: int, rnd: int):
    """Load and validate the round's config through the library's JSON path."""
    data = dict(wl.config, master_seed=derive_seed(wl.name, seed, rnd))
    return config_mod.load_config(json.dumps(data))


def initial_gap(inst) -> float:
    ref = problems.reference_optimum(inst)
    return max(problems.objective_value(inst, np.zeros(inst.n)) - ref.f_star, 1e-300)


def setup(wl: Workload, seed: int, clock, tick):
    """The set-up a user pays before the timed work: load and validate the
    config, generate every instance, compute reference optima and initial
    gaps.  Returns ({"generate_problem_s", "reference_optimum_s"}, instances).
    For sweeps these are the instances of round 0, built to time them only:
    ``execute_sweep`` builds each round's instances and references itself.
    For trajectories they are every pair the rounds cycle through, pair k
    derived from (seed, k).  ``tick`` is called between the steps (see
    speed.Speed.tick)."""
    if wl.kind == "sweep":
        cfg = sweep_config(wl, seed, 0)
        # The sweep's own instance derivation, so this is the work it repeats.
        make = [lambda p=p, c=c, s=s: p.instantiate(
                    c, sweep._instance_seed(cfg.master_seed, p, c, s))
                for p in cfg.problems for c in cfg.cond_grid
                for s in range(cfg.seeds)]
    else:
        spec = wl.trajectory
        make = [lambda k=k, c=c: problems.generate_problem(
                    **spec["problem"], cond=c,
                    seed=derive_seed(wl.name, seed, "instance", k, c))
                for k in range(spec["pairs"]) for c in spec["conds"]]
    gen = ref = 0.0
    instances = []
    for build in make:
        t0 = clock()
        inst = build()
        t1 = clock()
        gen += t1 - t0
        tick()
        t1 = clock()
        initial_gap(inst)
        ref += clock() - t1
        tick()
        instances.append(inst)
    return {"generate_problem_s": gen, "reference_optimum_s": ref}, instances


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class RoundResult:
    attempted: int
    failed: int
    converged: int
    steps: int
    digest: bytes          # byte-identity witness (sweep CSV or trajectory data)
    problems: list         # correctness failures, human-readable
    notes: list            # informational (e.g. undefined speedups)


def _quiet(done, total):
    pass


def sweep_round(wl: Workload, cfg, out_dir: str, tag: str, tick=lambda: None):
    """The timed work of one sweep round; returns (rows, csv_path, notes).

    The grid runs as one ``execute_sweep`` call per (method, m) group, the
    cells that share an instance and differ only in alpha0, with ``tick``
    (see speed.Speed.tick) called between groups.  Cell seeds are keyed by
    the cell, so the rows equal those of one call over the whole grid; the
    extra calls each rebuild the instance and its reference (about 1 ms for
    linreg, 5 ms for logistic at desk size)."""
    rows = []
    for ms in cfg.methods:
        for m in cfg.m_grid:
            group = dataclasses.replace(cfg, methods=[ms], m_grid=[m])
            rows += sweep.execute_sweep(group, jobs=1, progress=_quiet)
            tick()
    rows.sort(key=lambda r: r.sort_key())
    csv_path = os.path.join(out_dir, f"sweep.{tag}.csv")
    results.write_csv(rows, csv_path)
    notes = []
    for flag in wl.profile_flags:
        dicts = results.rows_as_dicts(rows, accelerated=flag)
        methods = sorted({r["method"] for r in dicts})
        try:
            curves = analysis.performance_profile(dicts, methods)
            results.write_profile_csv(
                curves, os.path.join(out_dir, f"profile.{tag}.{flag}.csv"))
        except ValueError as exc:
            notes.append(f"profile(accelerated={flag}): {exc}")
    dicts = results.rows_as_dicts(rows)
    for method in sorted({r["method"] for r in dicts}):
        try:
            table = analysis.speedup_table(dicts, method)
            results.write_speedup_csv(
                table, method, os.path.join(out_dir, f"speedup.{tag}.{method}.csv"))
        except ValueError as exc:
            notes.append(f"speedup({method}): {exc}")
    return rows, csv_path, notes


def sweep_steps(row, cfg) -> int:
    """Outer iterations of a cell: k_to_eps if converged, the budget's step
    count if it ran out; diverged and innerfail cells count 0 (a lower bound)."""
    if row.status == optimizers.STATUS_CONVERGED:
        return int(row.k_to_eps)
    if row.status == optimizers.STATUS_BUDGET:
        return max(1, cfg.sample_budget // row.m)
    return 0


def grid_cells(cfg) -> int:
    return (len(cfg.problems) * len(cfg.cond_grid) * cfg.seeds
            * len(cfg.methods) * len(cfg.m_grid) * len(cfg.alpha0_grid))


def check_sweep(wl: Workload, cfg, rows):
    """Correctness gate for one sweep.  Returns (failed_ops, problems,
    failures): problems are failed checks; failures are operations that
    failed without breaking a check (innerfail cells)."""
    probs, failures = [], []
    bad = set()
    expected = grid_cells(cfg)
    missing = max(0, expected - len(rows))
    if len(rows) != expected:
        probs.append(f"{len(rows)} rows for {expected} grid cells")
    seen = {}
    for i, r in enumerate(rows):
        key = tuple(getattr(r, c) for c in results.KEY_COLUMNS)
        if key in seen:
            bad.update((i, seen[key]))
            probs.append(f"duplicate key {key}")
        seen[key] = i
    gap0 = {}
    for prob in cfg.problems:
        for cond in cfg.cond_grid:
            for s in range(cfg.seeds):
                # The sweep's own instance derivation, so gap0 matches the run.
                inst = prob.instantiate(
                    cond, sweep._instance_seed(cfg.master_seed, prob, cond, s))
                gap0[(prob.label(), prob.noise_label(), float(cond), s)] = initial_gap(inst)
    for i, r in enumerate(rows):
        where = f"{r.method}{'+acc' if r.accelerated else ''} m={r.m} alpha0={r.alpha0:g}"
        if r.status not in STATUSES:
            bad.add(i)
            probs.append(f"{where}: unknown status {r.status!r}")
        elif r.status == optimizers.STATUS_INNERFAIL:
            bad.add(i)
            failures.append(f"{where}: innerfail")
        if r.status == optimizers.STATUS_CONVERGED:
            g0 = gap0[(r.problem, r.noise, r.cond, r.seed)]
            if r.samples_to_eps != max(r.k_to_eps * r.m, r.m):
                bad.add(i)
                probs.append(f"{where}: samples_to_eps {r.samples_to_eps} != "
                             f"max(k_to_eps*m, m)")
            if not r.final_gap <= cfg.epsilon * g0:
                bad.add(i)
                probs.append(f"{where}: final_gap {r.final_gap:.3e} > eps*gap0")
        if (wl.name == "absreg-grid" and r.method in ("pma", "pam", "prox")
                and r.status in (optimizers.STATUS_DIVERGED,
                                 optimizers.STATUS_INNERFAIL)):
            bad.add(i)
            probs.append(f"{where}: {r.status} in the interpolation regime")
    return len(bad) + missing, probs, failures


def run_sweep(wl: Workload, seed: int, rnd: int, out_dir: str, tag: str,
              timer, cfg=None):
    """One sweep round, timed by ``timer`` (a speed.Speed).  Returns
    (wall_s, scaled_s, RoundResult)."""
    cfg = cfg if cfg is not None else sweep_config(wl, seed, rnd)
    timer.start()
    rows, csv_path, notes = sweep_round(wl, cfg, out_dir, tag, timer.tick)
    wall, scaled = timer.stop()
    failed, probs, failures = check_sweep(wl, cfg, rows)
    with open(csv_path, "rb") as fh:
        digest = fh.read()
    converged = sum(r.status == optimizers.STATUS_CONVERGED for r in rows)
    return wall, scaled, RoundResult(
        attempted=max(grid_cells(cfg), len(rows)), failed=failed, converged=converged,
        steps=sum(sweep_steps(r, cfg) for r in rows), digest=digest,
        problems=probs, notes=notes + failures)


TRAJECTORY_PLAN = ([(m, False) for m in BASE_METHODS]
                   + [(m, True) for m in ACCEL_METHODS])


def run_trajectories(wl: Workload, seed: int, rnd: int, instances, timer):
    """One trajectories round on pair ``rnd % pairs`` of the set-up's
    instances, timed by ``timer`` (a speed.Speed, ticked between runs).
    Returns (wall_s, scaled_s, RoundResult)."""
    spec = wl.trajectory
    n = len(spec["conds"])
    first = (rnd % spec["pairs"]) * n
    plan = [(inst, cond, method, acc)
            for inst, cond in zip(instances[first:first + n], spec["conds"])
            for method, acc in TRAJECTORY_PLAN]
    record = optimizers.RecordOptions(stride=1, record_average=True)
    tp, oc = spec["twopoint"], spec["orthcol"]
    lab_seed = derive_seed(wl.name, seed, rnd, "lab")
    timer.start()
    recs = []
    for inst, cond, method, acc in plan:
        run = optimizers.run_accelerated if acc else optimizers.run_base
        rng = np.random.default_rng(derive_seed(wl.name, seed, rnd, cond, method, acc))
        recs.append(_attempt(run, inst, models.strategy_from_id(method),
                             optimizers.poly_decay(spec["alpha0"]), m=spec["m"],
                             n_steps=spec["steps"], epsilon=1e-300, rng=rng,
                             record=record))
        timer.tick()
    twopoint = _attempt(lab.twopoint_lab, tp["lambda1"], tp["gamma"],
                        tp["rounds"], tp["trials"], seed=lab_seed)
    timer.tick()
    orthcol = _attempt(lab.orthcol_lab, oc["n"], oc["m"], oc["rounds"],
                       oc["trials"], seed=lab_seed)
    wall, scaled = timer.stop()

    labels = [f"cond={cond:g} {method}{'+acc' if acc else ''}"
              for _, cond, method, acc in plan]
    failed, converged, probs, failures = check_trajectories(
        labels, recs, twopoint, orthcol, spec["epsilon"])
    digest = hashlib.blake2b()
    arrays = [a for rec in recs if not isinstance(rec, Exception)
              for a in (rec.ks, rec.gaps, rec.avg_gaps)]
    notes = failures
    if not isinstance(twopoint, Exception):
        arrays.append(twopoint.mean_sq_dist)
        notes.append(f"twopoint respects_lower_bound (no slack) = "
                     f"{twopoint.respects_lower_bound}")
    if not isinstance(orthcol, Exception):
        arrays.append(orthcol.empirical_risk)
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return wall, scaled, RoundResult(
        attempted=len(plan) + 2, failed=failed, converged=converged,
        steps=sum(int(rec.ks[-1]) for rec in recs if not isinstance(rec, Exception)),
        digest=digest.digest(), problems=probs, notes=notes)


def _attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised: a raised exception is a
    failed operation, not the end of the run."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- reported by the gate
        return exc


def check_trajectories(labels, recs, twopoint, orthcol, epsilon):
    """Correctness gate for a trajectories round; the two lab calls count as
    operations.  Returns (failed_ops, converged_ops, problems, failures) as
    check_sweep does."""
    probs, failures, failed, converged = [], [], 0, 0
    for where, value in zip(labels + ["twopoint_lab", "orthcol_lab"],
                            recs + [twopoint, orthcol]):
        if isinstance(value, Exception):
            failed += 1
            failures.append(f"{where}: raised {value!r}")
    for where, rec in zip(labels, recs):
        if isinstance(rec, Exception):
            continue
        finite = np.all(np.isfinite(rec.gaps)) and np.all(np.isfinite(rec.avg_gaps))
        if rec.status == optimizers.STATUS_INNERFAIL:
            failed += 1
            failures.append(f"{where}: innerfail")
        elif rec.status != optimizers.STATUS_DIVERGED and not finite:
            failed += 1
            probs.append(f"{where}: non-finite recorded gap")
        if rec.status != optimizers.STATUS_DIVERGED and np.any(
                rec.gaps <= epsilon * rec.initial_gap):
            converged += 1
    if not isinstance(twopoint, Exception) and not (
            twopoint.empirical_log_factor
            >= twopoint.envelope_log_factor - TWOPOINT_MC_SLACK):
        failed += 1
        probs.append(
            f"twopoint_lab: decay {twopoint.empirical_log_factor:.5f} beats the "
            f"envelope {twopoint.envelope_log_factor:.5f} by more than MC slack")
    if not isinstance(orthcol, Exception) and not np.all(
            np.isfinite(orthcol.empirical_risk)):
        failed += 1
        probs.append("orthcol_lab: non-finite risk")
    return failed, converged, probs, failures
