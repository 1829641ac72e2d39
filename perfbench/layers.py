"""Which batchprox functions the traced run wraps, and the per-layer metrics
computed from their spans and return values."""

from __future__ import annotations

import os

from batchprox import analysis, geometry, models, optimizers, problems, prox
from batchprox.harness import lab, results, sweep

from spans import Tracer

_PROX_ERRORS = (prox.InnerSolveError, prox.DegenerateSampleError)


def _prox_error(tracer, exc, parent):
    # Count an error once, where it leaves the prox layer (the optimizer
    # retries these up to twice before reporting innerfail).
    if isinstance(exc, _PROX_ERRORS) and not (tracer.label_of(parent) or "").startswith("prox."):
        tracer.counts["prox.errors"] += 1


def _box_qp(tracer, result, parent):
    _, info = result
    tracer.add_sample("prox.solve_box_qp.sweeps", info.sweeps)
    tracer.counts["prox.solve_box_qp.unconverged"] += not info.converged


def _newton(tracer, result, parent):
    tracer.add_sample("prox.prox_step_logistic.iters", result.inner_iterations)


def _run(tracer, record, parent):
    # run_base delegates pia to run_pia; count the outermost call only.
    if (tracer.label_of(parent) or "").startswith("optimizers."):
        return
    tracer.counts["optimizers.calls"] += 1
    tracer.counts["optimizers.steps"] += int(record.ks[-1])
    tracer.counts[f"optimizers.status.{record.status}"] += 1


# (module, attribute, span label, on_result)
WRAPS = [
    (problems, "sample_batch", "problems.sample_batch", None),
    (problems, "batch_losses", "problems.batch_losses", None),
    (problems, "objective_value", "problems.objective_value", None),
    (problems, "generate_problem", "problems.generate_problem", None),
    (problems, "reference_optimum", "problems.reference_optimum", None),
    (models, "build_batch_model", "models.build_batch_model", None),
    (geometry, "project_domain", "geometry.project_domain", None),
    (geometry, "mirror_linear_step", "geometry.mirror_linear_step", None),
    (prox, "solve_model_prox", "prox.solve_model_prox", None),
    (prox, "solve_box_qp", "prox.solve_box_qp", _box_qp),
    (prox, "pam_step", "prox.pam_step", None),
    (prox, "prox_step_linreg", "prox.prox_step_linreg", None),
    (prox, "prox_step_absreg", "prox.prox_step_absreg", None),
    (prox, "prox_step_logistic", "prox.prox_step_logistic", _newton),
    (prox, "single_sample_prox", "prox.single_sample_prox", None),
    (prox, "pia_step", "prox.pia_step", None),
    (optimizers, "run_base", "optimizers.run_base", _run),
    (optimizers, "run_pia", "optimizers.run_pia", _run),
    (optimizers, "run_accelerated", "optimizers.run_accelerated", _run),
    (analysis, "performance_profile", "analysis.performance_profile", None),
    (analysis, "speedup_table", "analysis.speedup_table", None),
    (results, "write_csv", "harness.write_csv", None),
    (sweep, "execute_sweep", "harness.execute_sweep", None),
    (lab, "twopoint_lab", "harness.lab.twopoint_lab", None),
    (lab, "orthcol_lab", "harness.lab.orthcol_lab", None),
]


def install(tracer: Tracer):
    """Wrap every listed function; raises TraceError naming a missing one."""
    for module, attr, label, on_result in WRAPS:
        on_error = _prox_error if module is prox else None
        tracer.wrap(module, attr, label, on_result=on_result, on_error=on_error)


# Per-call statistics reported for every workload (these functions run on
# all four, so their times are never structurally zero).
COMMON = ["problems.sample_batch", "problems.batch_losses",
          "models.build_batch_model", "problems.objective_value",
          "prox.solve_model_prox", "geometry.project_domain"]
# Call counts for functions that only some workloads reach.
COUNTED = ["prox.solve_box_qp", "prox.pam_step", "prox.prox_step_linreg",
           "prox.prox_step_absreg", "prox.prox_step_logistic",
           "prox.single_sample_prox", "prox.pia_step",
           "geometry.mirror_linear_step"]
# Self and inclusive time per call, reported in the detail table where
# calls > 0.
DETAIL_US = COUNTED + ["models.build_batch_model", "problems.objective_value"]
DETAIL_MS = ["analysis.performance_profile", "analysis.speedup_table",
             "harness.write_csv"]
DETAIL_S = ["harness.lab.twopoint_lab", "harness.lab.orthcol_lab"]


def _mean(xs):
    return float(sum(xs)) / len(xs) if xs else 0.0


def metrics(tracer: Tracer, rounds: int, scale: float):
    """(per_layer, detail): the per-layer metrics and the workload-specific
    times that are only defined where the function was called.  Counts are
    totals over the traced rounds; times are multiplied by ``scale`` (the
    run's factor to reference speed, see speed.py)."""
    us, ms = 1e6 * scale, 1e3 * scale
    table = tracer.per_name()
    get = lambda label: table.get(label, (0, 0.0, 0.0))  # noqa: E731
    c = tracer.counts
    steps = c["optimizers.steps"]
    out = {}
    for label in COMMON:
        calls, _, own = get(label)
        out[f"{label}.calls"] = calls
        out[f"{label}.us_per_call"] = us * own / calls if calls else 0.0
    calls, total, _ = get("prox.solve_model_prox")
    out["prox.solve_model_prox.incl_us_per_call"] = us * total / calls if calls else 0.0
    prox_self = sum(own for label, (_, _, own) in table.items() if label.startswith("prox."))
    opt_self = sum(own for label, (_, _, own) in table.items()
                   if label.startswith("optimizers."))
    out["prox.self_us_per_step"] = us * prox_self / steps if steps else 0.0
    out["optimizers.calls"] = c["optimizers.calls"]
    out["optimizers.steps"] = steps
    out["optimizers.self_us_per_step"] = us * opt_self / steps if steps else 0.0
    for status in ("converged", "budget", "diverged", "innerfail"):
        out[f"optimizers.status.{status}"] = c[f"optimizers.status.{status}"]
    out["prox.errors"] = c["prox.errors"]
    for label in COUNTED:
        out[f"{label}.calls"] = get(label)[0]
    sweeps = tracer.samples.get("prox.solve_box_qp.sweeps", [])
    out["prox.solve_box_qp.sweeps_mean"] = _mean(sweeps)
    out["prox.solve_box_qp.sweeps_max"] = max(sweeps, default=0)
    out["prox.solve_box_qp.unconverged"] = c["prox.solve_box_qp.unconverged"]
    out["prox.prox_step_logistic.iters_mean"] = _mean(
        tracer.samples.get("prox.prox_step_logistic.iters", []))
    fp = {"problems": 0, "prox": 0}
    for (category, filename), n in tracer.warnings.items():
        module = os.path.splitext(os.path.basename(filename))[0]
        if category == "RuntimeWarning" and module in fp:
            fp[module] += n
    out["problems.fp_warnings"] = fp["problems"]
    out["prox.fp_warnings"] = fp["prox"]

    detail = {}
    for label in DETAIL_US:
        calls, total, own = get(label)
        if calls:
            detail[f"{label}.us_per_call"] = us * own / calls
            detail[f"{label}.incl_us_per_call"] = us * total / calls
    for label in DETAIL_MS:
        calls, _, own = get(label)
        if calls:
            detail[f"{label}.ms"] = ms * own / rounds
    for label in DETAIL_S:
        calls, _, own = get(label)
        if calls:
            detail[f"{label}.s"] = scale * own / rounds
    calls, _, own = get("harness.execute_sweep")
    if calls:
        detail["harness.execute_sweep.self_s"] = scale * own / rounds
    detail["warnings"] = {f"{cat} {os.path.basename(fn)}": n
                          for (cat, fn), n in sorted(tracer.warnings.items())}
    return out, detail
