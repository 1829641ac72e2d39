"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic nested call, the
speed scaling on a synthetic clock, that every wrapped name exists (and that a
missing one is reported by name), that the correctness gate rejects corrupted
sweep rows and trajectories, and runs all four workloads at tiny size through
run.py, untraced and traced, with the traced sweep CSV byte-identical to the
untraced one and the traced counts independent of --seconds.  Finally it
checks that run.py fails without printing a result when the library sources
are absent.
Exits 0 when everything passes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import TraceError, Tracer  # noqa: E402

RUN = os.path.join(HERE, "run.py")
FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def test_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("synthetic")
    mod.leaf = lambda: None
    mod.inner = lambda: mod.leaf()
    mod.outer = lambda: (mod.inner(), mod.inner())
    for attr in ("leaf", "inner", "outer"):
        tracer.wrap(mod, attr, f"synthetic.{attr}")
    mod.outer()
    tracer.uninstall()
    # Clock reads: outer 0; inner 1, leaf 2-3, inner end 4; inner 5, leaf
    # 6-7, inner end 8; outer end 9.
    table = tracer.per_name()
    check(table["synthetic.outer"] == (1, 9.0, 3.0), "outer self = 9 - 3 - 3")
    check(table["synthetic.inner"] == (2, 6.0, 4.0), "inner self = (3 - 1) x 2")
    check(table["synthetic.leaf"] == (2, 2.0, 2.0), "leaf self = its duration")
    check(mod.outer.__name__ == "<lambda>" and not hasattr(mod.outer, "__wrapped__"),
          "uninstall restores the original")


def test_speed():
    # Clock reads: start's kernel 0-0.02, segment from 0.02; a tick at 0.12
    # (segment shorter than TICK_S = 0.15); a tick at 0.42 closes 0.40 s,
    # kernel 0.42-0.46; stop at 0.56 closes 0.10 s, kernel 0.56-0.58.
    reads = iter([0.0, 0.02, 0.02, 0.12, 0.42, 0.42, 0.46, 0.46,
                  0.56, 0.56, 0.58, 0.58])
    timer = speed.Speed(clock=lambda: next(reads))
    timer.start()
    timer.tick()
    timer.tick()
    wall, scaled = timer.stop()
    ref = speed.REFERENCE_S
    want = 0.40 * ref / 0.03 + 0.10 * ref / 0.03
    check(abs(wall - 0.5) < 1e-12 and abs(scaled - want) < 1e-12,
          "speed: segments scaled by the kernels at their two ends")
    check(len(timer.kernel) == 3, "speed: a short segment runs no kernel")


def test_wrapped_names():
    from batchprox import problems

    tracer = Tracer()
    originals = [getattr(m, a) for m, a, _, _ in layers.WRAPS]
    try:
        layers.install(tracer)
        check(all(getattr(m, a) is not o
                  for (m, a, _, _), o in zip(layers.WRAPS, originals)),
              f"all {len(layers.WRAPS)} wrapped names found in their modules")
    finally:
        tracer.uninstall()
    check(all(getattr(m, a) is o for (m, a, _, _), o in zip(layers.WRAPS, originals)),
          "all wrapped names restored")
    try:
        tracer.wrap(problems, "no_such_function", "problems.no_such_function")
        check(False, "missing name raises TraceError")
    except TraceError as exc:
        check("batchprox.problems.no_such_function" in str(exc),
              "missing name raises TraceError naming it")


def test_sweep_gate():
    from batchprox.harness import results, sweep

    wl = workloads.workload("absreg-grid", tiny=True)
    cfg = workloads.sweep_config(wl, 0, 0)
    out = os.path.join(HERE, "out", "selftest")
    os.makedirs(out, exist_ok=True)
    rows, csv_path, _ = workloads.sweep_round(wl, cfg, out, "gate")
    failed, probs, _ = workloads.check_sweep(wl, cfg, rows)
    check(failed == 0 and not probs, "gate passes the real tiny sweep")
    whole = os.path.join(out, "sweep.whole.csv")
    results.write_csv(sweep.execute_sweep(cfg, jobs=1, progress=lambda d, t: None),
                      whole)
    with open(csv_path, "rb") as a, open(whole, "rb") as b:
        check(a.read() == b.read(), "one execute_sweep per (method, m) group "
                                    "writes the CSV of one call over the grid")

    def broken(mutate):
        bad = copy.deepcopy(rows)
        mutate(bad)
        return workloads.check_sweep(wl, cfg, bad)[:2]

    conv = next(i for i, r in enumerate(rows) if r.status == "converged")
    pma = next(i for i, r in enumerate(rows) if r.method == "pma")

    def bump_samples(b):
        b[conv].samples_to_eps += 1

    def loose_gap(b):
        b[conv].final_gap = 1e6

    def diverge_pma(b):
        b[pma].status = "diverged"

    def unknown_status(b):
        b[0].status = "weird"

    cases = {
        "missing row": lambda b: b.pop(),
        "duplicate key": lambda b: b.append(b[0]),
        "samples_to_eps != max(k*m, m)": bump_samples,
        "final_gap above eps*gap0": loose_gap,
        "pma diverged in the interpolation regime": diverge_pma,
        "unknown status": unknown_status,
    }
    for what, mutate in cases.items():
        failed, probs = broken(mutate)
        check(failed >= 1 and probs, f"gate rejects: {what}")


def test_trajectory_gate():
    rec = types.SimpleNamespace(status="budget", gaps=np.array([1.0, np.nan]),
                                avg_gaps=np.array([1.0, 0.5]), initial_gap=1.0)
    ok_lab = types.SimpleNamespace(empirical_log_factor=-0.05,
                                   envelope_log_factor=-0.05,
                                   empirical_risk=np.ones(3))
    failed, _, probs, _ = workloads.check_trajectories(["r"], [rec], ok_lab, ok_lab, 1e-2)
    check(failed == 1 and "non-finite" in probs[0], "gate rejects a NaN gap")
    fast = types.SimpleNamespace(empirical_log_factor=-0.2, envelope_log_factor=-0.05)
    rec.gaps = np.array([1.0, 0.001])
    failed, converged, probs, _ = workloads.check_trajectories(["r"], [rec], fast, ok_lab, 1e-2)
    check(failed == 1 and converged == 1 and "twopoint" in probs[0],
          "gate rejects a decay faster than the two-point envelope")
    failed, converged, probs, failures = workloads.check_trajectories(
        ["r"], [ValueError("boom")], ok_lab, ok_lab, 1e-2)
    check(failed == 1 and converged == 0 and not probs and "raised" in failures[0],
          "a raised exception is a failed operation, not a failed check")


def _run(args, cwd=REPO):
    proc = subprocess.run([sys.executable, RUN] + args, capture_output=True,
                          text=True, timeout=600, cwd=cwd)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return proc, last[0]


def _result(last):
    try:
        return json.loads(last)
    except ValueError:
        return {}


def test_entry_point():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    for name in workloads.WORKLOADS:
        for trace, expected in ((0, e2e), (1, per_layer)):
            proc, last = _run(["--workload", name, "--seed", "0", "--seconds",
                               "0.5", "--trace", str(trace), "--size", "tiny"])
            result = _result(last)
            check(proc.returncode == 0 and result.get("correct") is True,
                  f"{name} trace={trace}: exit 0 and correct")
            check(set(result.get("metrics", {})) == expected,
                  f"{name} trace={trace}: metric names match BENCHMARK.json")
        wl = workloads.WORKLOADS[name]
        if wl.kind == "sweep":
            out = os.path.join(HERE, "out", name)
            with open(os.path.join(out, "sweep.untraced.csv"), "rb") as a, \
                    open(os.path.join(out, "sweep.traced.csv"), "rb") as b:
                check(a.read() == b.read(), f"{name}: traced CSV byte-identical")
        if name == "linreg-accel":
            _, longer = _run(["--workload", name, "--seed", "0", "--seconds",
                              "5", "--trace", "1", "--size", "tiny"])
            metrics = _result(longer).get("metrics", {})
            check(bool(metrics) and all(metrics[k] == result["metrics"][k]
                                        for k in counts),
                  f"{name}: traced counts do not depend on --seconds")


def test_without_library():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "absreg-grid", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=170, cwd=bare)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the library sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    test_self_time()
    test_speed()
    test_wrapped_names()
    test_sweep_gate()
    test_trajectory_gate()
    test_entry_point()
    test_without_library()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
