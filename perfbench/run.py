"""Sweep-throughput benchmark for batchprox.

    python3 perfbench/run.py --workload linreg-accel --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With ``--trace 0`` a run prints the end-to-end metrics (setup_s, run_s,
steps_per_s, peak_rss_mb; failed_frac and converged_frac in the table).  Times
are scaled to reference machine speed (see speed.py).  With ``--trace 1`` it
runs a fixed number of rounds twice each, untraced then traced, checks that the
outputs are byte-identical, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 1 when a correctness
check fails.  See perfbench/README.md.
"""

import time

_CLOCK = time.perf_counter

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

# One BLAS/OpenMP thread: the target machine has two shared cores, and a single
# thread keeps per-call overhead (the quantity under study) steady.
from stamp import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

WORKLOAD_NAMES = ["absreg-grid", "linreg-accel", "logistic-prox", "trajectories"]
SETUP_REPEATS = 3
# A traced run covers a fixed number of rounds, whatever --seconds says, so
# that its counts depend only on the code and the seed.
TRACE_ROUNDS = 3
# The metrics of the final JSON line; failed_frac and converged_frac are
# printed in the table only (see README: both can be 0 on some workloads).
END_TO_END = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default 0; held-out seed 20210107)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measurement window; rounds run back to back within it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: self-test sizes, same code paths")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--save-instances", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _require_library():
    if not os.path.isfile(os.path.join(SRC, "batchprox", "__init__.py")):
        raise SystemExit(f"perfbench: batchprox sources not found under {SRC}")
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Set-up: measured in fresh interpreters


def setup_probe(args) -> int:
    """Child process: import, load config, build instances with references.
    With --save-instances, pickle the instances for the run process.  The
    calibration kernel runs after the import and between instances, outside
    the timed segments."""
    t0 = _CLOCK()
    import batchprox  # noqa: F401
    t_import = _CLOCK() - t0
    import speed

    timer = speed.Speed(_CLOCK)
    timer.start()
    import workloads

    wl = workloads.workload(args.workload, tiny=args.size == "tiny")
    parts, instances = workloads.setup(wl, args.seed, _CLOCK, timer.tick)
    wall, scaled = timer.stop()
    if args.save_instances:
        with open(args.save_instances, "wb") as fh:
            pickle.dump(instances, fh)
    print(json.dumps(dict(parts, import_s=t_import, import_kernel=timer.kernel[0],
                          work_wall_s=wall, work_s=scaled)))
    return 0


def run_probes(args, n: int, save_to):
    """n set-up probes in fresh interpreters; the first saves its instances
    when ``save_to`` is given.  The import is scaled to reference speed with
    the kernels run here before the probe and in the probe right after it."""
    import speed

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    out = []
    for i in range(n):
        extra = ["--save-instances", save_to] if i == 0 and save_to else []
        kernel_before = speed.kernel_s(_CLOCK)
        proc = subprocess.run(cmd + extra, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        import_s = speed.to_reference(probe["import_s"], kernel_before,
                                      probe["import_kernel"])
        factor = probe["work_s"] / probe["work_wall_s"]
        probe.update(kernel_before=kernel_before, import_s=import_s,
                     import_wall_s=probe["import_s"],
                     setup_s=import_s + probe["work_s"],
                     setup_wall_s=probe["import_s"] + probe["work_wall_s"],
                     generate_problem_s=factor * probe["generate_problem_s"],
                     reference_optimum_s=factor * probe["reference_optimum_s"])
        out.append(probe)
    return out


# ---------------------------------------------------------------------------
# Rounds


class Runner:
    """Executes rounds of one workload; round r uses inputs from (seed, r)."""

    def __init__(self, wl, seed, out_dir, instances):
        import workloads

        self.w = workloads
        self.wl, self.seed, self.out_dir = wl, seed, out_dir
        self.instances = instances

    def round(self, rnd: int, tag: str, timer, cfg=None):
        """(wall_s, scaled_s, RoundResult) of round rnd."""
        if self.wl.kind == "sweep":
            return self.w.run_sweep(self.wl, self.seed, rnd, self.out_dir, tag,
                                    timer, cfg=cfg)
        return self.w.run_trajectories(self.wl, self.seed, rnd, self.instances, timer)

    def config(self, rnd: int):
        if self.wl.kind == "sweep":
            return self.w.sweep_config(self.wl, self.seed, rnd)
        return None


def _rounds(seconds: float, step):
    """Call step(r) back to back while the next round is expected to finish
    inside the window; at least one round."""
    t0, r = _CLOCK(), 0
    while True:
        t_round = _CLOCK()
        step(r)
        r += 1
        if _CLOCK() - t0 + (_CLOCK() - t_round) > seconds:
            return r


def measure(args, runner):
    """Rounds for the window.  Returns (scaled round times, wall round
    times, kernel times, round results)."""
    import speed

    times, walls, res = [], [], []
    timer = speed.Speed(_CLOCK)

    def step(r):
        wall, scaled, rr = runner.round(r, "untraced", timer)
        walls.append(wall)
        times.append(scaled)
        res.append(rr)

    _rounds(args.seconds, step)
    return times, walls, timer.kernel, res


def measure_traced(runner):
    """TRACE_ROUNDS rounds, each untraced then traced with the same inputs."""
    import layers
    import speed
    from spans import Tracer

    tracer = Tracer()
    ratios, res, problems = [], [], []
    timer = speed.Speed(_CLOCK)
    for r in range(TRACE_ROUNDS):
        cfg = runner.config(r)
        _, t_plain, plain = runner.round(r, "untraced", timer, cfg)
        with tracer:
            layers.install(tracer)
            _, t_traced, traced = runner.round(r, "traced", timer, cfg)
        ratios.append(t_traced / t_plain)
        if plain.digest != traced.digest:
            problems.append(f"round {r}: traced output differs from untraced")
            traced.failed = traced.attempted
        res.append(traced)

    factor = speed.REFERENCE_S / _median(timer.kernel)
    per_layer, detail = layers.metrics(tracer, TRACE_ROUNDS, factor)
    detail["kernel_s"] = timer.kernel
    tracer.save(os.path.join(runner.out_dir, "spans.npz"))
    return ratios, res, problems, per_layer, detail


# ---------------------------------------------------------------------------
# Reporting


def _median(xs):
    return float(statistics.median(xs))


def _table(rows):
    width = max(len(r[0]) for r in rows)
    lines = [f"{'metric':<{width}}  {'value':>14}  {'unit':<6}  n"]
    for name, value, unit, n in rows:
        v = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<{width}}  {v:>14}  {unit:<6}  {n}")
    return "\n".join(lines)


def bench(args) -> int:
    _require_library()
    import speed
    import stamp
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    args.seed = seed
    wl = workloads.workload(args.workload, tiny=args.size == "tiny")
    out_dir = os.path.join(HERE, "out", wl.name)
    os.makedirs(out_dir, exist_ok=True)
    info = stamp.collect(REPO, wl.name, seed)

    # The trajectories run takes the probe's instances (with their cached
    # reference optima), so it neither repeats the LPs nor counts the
    # reference solver's memory in peak_rss_mb.  A sweep round builds its own
    # instances and references inside execute_sweep, as a user's sweep does.
    saved = os.path.join(out_dir, "instances.pkl") if wl.kind == "trajectories" else None
    probes = run_probes(args, 1 if args.trace else SETUP_REPEATS, saved)
    instances = None
    if saved:
        with open(saved, "rb") as fh:
            instances = pickle.load(fh)
    runner = Runner(wl, seed, out_dir, instances)
    print(f"perfbench {wl.name} seed={seed} trace={args.trace} size={args.size}")
    print(f"  {wl.definition}")

    if args.trace:
        ratios, res, problems, metrics, detail = measure_traced(runner)
        metrics["import.s"] = probes[0]["import_s"]
        metrics["problems.generate_problem.s"] = probes[0]["generate_problem_s"]
        metrics["problems.reference_optimum.s"] = probes[0]["reference_optimum_s"]
        metrics["trace.overhead"] = _median(ratios)
        rows = [(k, v, _unit(k), len(res)) for k, v in metrics.items()]
        rows += [(k, v, _unit(k), len(res)) for k, v in detail.items()
                 if k not in ("warnings", "kernel_s")]
    else:
        times, walls, kernel, res = measure(args, runner)
        problems = []
        attempted = sum(r.attempted for r in res)
        # Means over the window, not medians: round times are heavy-tailed
        # (box-QP solves that run to max_sweeps on absreg-grid), and the
        # total over all rounds varies least from run to run.
        metrics = {
            "setup_s": _median([p["setup_s"] for p in probes]),
            "run_s": sum(times) / len(times),
            "steps_per_s": sum(r.steps for r in res) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = {"setup_s": len(probes), "run_s": len(times),
                  "steps_per_s": len(times), "peak_rss_mb": 1}
        rows = [(k, v, _unit(k), counts[k]) for k, v in metrics.items()]
        detail = {"failed_frac": sum(r.failed for r in res) / attempted,
                  "converged_frac": sum(r.converged for r in res) / attempted,
                  "setup_wall_s": _median([p["setup_wall_s"] for p in probes]),
                  "run_wall_s": sum(walls) / len(walls),
                  "round_s": times, "round_wall_s": walls,
                  "round_steps": [r.steps for r in res], "kernel_s": kernel}
        rows += [(k, detail[k], "ratio", attempted)
                 for k in ("failed_frac", "converged_frac")]
        rows += [("setup_wall_s", detail["setup_wall_s"], "s", len(probes)),
                 ("run_wall_s", detail["run_wall_s"], "s", len(walls)),
                 ("kernel_s", _median(kernel), "s", len(kernel))]

    attempted = sum(r.attempted for r in res)
    failed = sum(r.failed for r in res)
    for r in res:
        problems += r.problems
    notes = sorted({n for r in res for n in r.notes})
    correct = not problems

    print(_table(rows))
    if not args.trace:
        print(f"  times are scaled to reference speed (kernel {speed.REFERENCE_S} s); "
              "*_wall_s are unscaled")
    if wl.kind == "sweep" and not args.trace:
        print("  steps_per_s is a lower bound: diverged and innerfail cells add 0 steps")
    for n in notes:
        print(f"  note: {n}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    print("stamp: " + json.dumps(info))
    with open(os.path.join(out_dir, f"result.trace{args.trace}.json"), "w") as fh:
        json.dump({"stamp": info, "metrics": metrics, "detail": detail,
                   "setup_probes": probes, "problems": problems, "notes": notes},
                  fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("us_per_call", "us_per_step")):
        return "us"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name == "trace.overhead" or name.endswith("_frac"):
        return "ratio"
    if name.endswith(("sweeps_mean", "sweeps_max")):
        return "sweeps"
    if name.endswith("iters_mean"):
        return "iterations"
    return "count"


def bench_all(args) -> int:
    """Every workload in turn, one process each; one summary table."""
    summary, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"perfbench: {name} produced no result (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and proc.returncode == 0
        summary.append((name, result))
    print("\nsummary")
    for name, result in summary:
        frac = result["failed"] / result["attempted"]
        cells = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                          for k, m in result["metrics"].items())
        print(f"  {name}: correct={result['correct']} failed_frac={frac:.4g} "
              f"({result['failed']}/{result['attempted']}) {cells}")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for _, r in summary),
        "failed": sum(r["failed"] for _, r in summary),
        "metrics": {f"{name}.{k}": m for name, r in summary
                    for k, m in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _require_library()
        return setup_probe(args)
    if args.workload == "all":
        return bench_all(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
