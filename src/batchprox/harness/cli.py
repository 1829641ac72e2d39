"""Command-line entry point.

Subcommands:

    run       single trajectory, prints the gap trace
    sweep     full grid -> CSV
    profile   sweep CSV -> performance-profile CSV + SVG
    speedup   sweep CSV -> best-speedup table CSV + SVG
    growth    constant-estimation report for a problem
    lbtest    lower-bound laboratory (orthcol | twopoint)

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .. import analysis, problems
from . import config as config_mod
from . import lab, results, svg
from .sweep import _instance_seed, execute_sweep, run_cells


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="batchprox", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "--config": dict(help="JSON config path or inline JSON"),
        "--preset": dict(choices=sorted(config_mod.PRESETS),
                         help="built-in configuration"),
        "--seed": dict(type=int, default=None,
                       help="master seed, in place of the config's master_seed"),
        "--out": dict(default=".", help="output directory"),
    }

    def common(sp, *flags):  # the shared flags a command reads
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("run", help="run one trajectory and print the gap trace")
    common(sp, "--config", "--preset", "--seed")
    sp.add_argument("--method", default="pma",
                    choices=sorted(config_mod.DEFAULT_METHODS))
    sp.add_argument("--m", type=_positive_int, default=8)
    sp.add_argument("--alpha0", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--steps", type=_positive_int, default=1000)
    sp.add_argument("--accelerated", type=_parse_bool, default=False)

    sp = sub.add_parser("sweep", help="execute the full grid and write CSV")
    common(sp, "--config", "--preset", "--seed", "--out")
    sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("profile", help="performance profiles from a sweep CSV")
    common(sp, "--out")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--accelerated", type=_parse_bool, default=None,
                    help="restrict to (non-)accelerated rows")

    sp = sub.add_parser("speedup", help="best-speedup table from a sweep CSV")
    common(sp, "--out")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--method", default="pma")
    sp.add_argument("--units", choices=("samples", "iterations"),
                    default="samples")

    sp = sub.add_parser("growth", help="estimate problem constants")
    sp.add_argument("--seed", type=int, default=0, help="seed of the instance and probes")
    # Kinds with a point optimum (logistic, drawn at p = 0, is separable).
    sp.add_argument("--kind", default="power", choices=sorted(
        (problems.ABSREG, problems.LINREG, problems.POWER, problems.TWOPOINT)))
    sp.add_argument("--N", type=_positive_int, default=500)
    sp.add_argument("--n", type=_positive_int, default=10)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--alpha", type=float, default=0.02)
    sp.add_argument("--m", type=_positive_int, default=1)
    sp.add_argument("--draws", type=_positive_int, default=2000)

    sp = sub.add_parser("lbtest", help="lower-bound laboratory")
    common(sp, "--out")
    sp.add_argument("--seed", type=int, default=0, help="seed of the lab's draws")
    sp.add_argument("--kind", required=True, choices=("orthcol", "twopoint"))
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--rounds", type=int, default=20)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--lambda1", type=float, default=0.05)
    sp.add_argument("--gamma", type=float, default=0.0)
    return p


def _load_config(args) -> config_mod.SweepConfig:
    if getattr(args, "preset", None):
        cfg = config_mod.preset(args.preset)
    elif getattr(args, "config", None):
        cfg = config_mod.load_config(args.config)
    else:
        raise config_mod.ConfigError("provide --config or --preset")
    if args.seed is not None:
        cfg.master_seed = args.seed
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    prob = cfg.problems[0]
    cond = cfg.cond_grid[0]
    # The sweep's seed-0 cell of the first (problem, cond) with this method,
    # m and alpha0, run by the sweep's own cell runner, so at
    # sample_budget // m steps the run ends as that sweep row does.
    inst = prob.instantiate(cond, _instance_seed(cfg.master_seed, prob, cond, 0))
    spec = config_mod.MethodSpec(args.method, args.accelerated, "poly", args.beta)
    rec, = run_cells(prob, spec, inst, cond, args.m, 0, cfg, [args.alpha0], args.steps)
    print(f"# {prob.kind} N={prob.N} n={prob.n} method={args.method} "
          f"m={args.m} alpha0={args.alpha0:g} accelerated={args.accelerated}")
    print("k,samples,gap")
    for k, s, g in zip(rec.ks, rec.samples, rec.gaps):
        print(f"{k},{s},{g:.10e}")
    print(f"# status={rec.status} target_eps={rec.config['epsilon']:.4e}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = execute_sweep(cfg, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    results.write_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_profile(args) -> int:
    rows = results.read_csv(args.csv)
    dicts = results.rows_as_dicts(rows, accelerated=args.accelerated)
    methods = sorted({r["method"] for r in dicts})
    curves = analysis.performance_profile(dicts, methods)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "profile.csv")
    results.write_profile_csv(curves, csv_path)
    series = [svg.Series(c.method, list(c.r), list(c.fraction)) for c in curves]
    svg_path = os.path.join(args.out, "profile.svg")
    svg.emit_svg(svg.Plot(series, title="Performance profile",
                          xlabel="performance ratio r",
                          ylabel="fraction of experiments"), svg_path)
    written = [csv_path, svg_path]
    written += _emit_time_vs_stepsize(dicts, methods, args.out)
    print("wrote " + " ".join(written))
    return 0


def _emit_time_vs_stepsize(dicts, methods, out_dir):
    """Log-log time-to-epsilon against the initial stepsize, one chart per
    batch size (failures are omitted from the curves)."""
    medians = analysis.median_times(dicts)
    paths = []
    for m in sorted({key[1] for key in medians}):
        series = []
        for method in methods:
            alphas = sorted(a for (meth, mm, a) in medians if (meth, mm) == (method, m))
            series.append(svg.Series(method, alphas, [medians[method, m, a] for a in alphas]))
        if not any(math.isfinite(y) for s in series for y in s.y):
            continue  # nothing converged at this batch size
        path = os.path.join(out_dir, f"time_vs_stepsize_m{m}.svg")
        svg.emit_svg(svg.Plot(series, title=f"Samples to epsilon (m={m})",
                              xlabel="initial stepsize alpha0",
                              ylabel="samples to epsilon",
                              xlog=True, ylog=True), path)
        paths.append(path)
    return paths


def _cmd_speedup(args) -> int:
    rows = results.rows_as_dicts(results.read_csv(args.csv))
    table = analysis.speedup_table(rows, args.method, units=args.units)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "speedup.csv")
    results.write_speedup_csv(table, args.method, csv_path, units=args.units)
    ms = sorted(table)
    series = [svg.Series(args.method, ms, [table[m] for m in ms]),
              svg.Series("linear", ms, ms, dashed=True)]  # the ideal speedup m
    svg_path = os.path.join(args.out, "speedup.svg")
    svg.emit_svg(svg.Plot(series, title=f"Best speedup ({args.units})",
                          xlabel="minibatch size m", ylabel="speedup"), svg_path)
    for m in ms:
        print(f"m={m}: speedup {table[m]:.3f}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_growth(args) -> int:
    inst = problems.generate_problem(args.kind, N=args.N, n=args.n,
                                     gamma=args.gamma, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    ref = problems.reference_optimum(inst)
    probes = ref.x_star + rng.standard_normal((8, inst.n)) if ref.x_star is not None \
        else rng.standard_normal((8, inst.n))
    s0 = analysis.estimate_sigma0(inst, probes)
    print(f"sigma0^2 estimate: {s0.sigma0_sq:.6g}")
    try:
        rho, skipped = analysis.estimate_noise_to_signal(inst, probes)
        print(f"noise-to-signal rho: {rho:.6g} (skipped probes: {skipped})")
    except ValueError as exc:
        print(f"noise-to-signal rho: unavailable ({exc})")
    dirs = rng.standard_normal((4, inst.n))
    est = analysis.estimate_gamma_growth(
        inst, args.gamma, args.alpha, radii=[0.5, 1.0], directions=dirs,
        draws=(args.draws if args.m > 1 else None), m=args.m, rng=rng,
    )
    print(f"gamma={est.gamma:g} alpha={est.alpha:g} m={args.m}: "
          f"lambda1_hat={est.lambda1_hat:.6g} lambda0_hat={est.lambda0_hat:.6g}")
    print(f"growth bound re-verified: {analysis.growth_bound_holds(est)}")
    return 0


def _cmd_lbtest(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "orthcol":
        rep = lab.orthcol_lab(args.n, args.m, args.rounds, args.trials,
                              R=args.radius, seed=args.seed)
        print("k,empirical_risk,closed_form,mean_rank,predicted_rank")
        for i, k in enumerate(rep.rounds):
            print(f"{k},{rep.empirical_risk[i]:.6e},{rep.closed_form_risk[i]:.6e},"
                  f"{rep.mean_rank[i]:.3f},{rep.predicted_rank[i]:.3f}")
        print(f"# max relative risk error: {rep.max_relative_error():.4f}")
        # (title, y label, measured curve, dashed reference curve)
        chart = ("Posterior-mean risk", "risk", ("empirical", rep.empirical_risk),
                 ("closed form", rep.closed_form_risk))
    else:
        rep = lab.twopoint_lab(args.lambda1, args.gamma, args.rounds,
                               args.trials, R=args.radius, seed=args.seed)
        print("k,mean_sq_dist,envelope")
        for i, k in enumerate(rep.rounds):
            print(f"{k},{rep.mean_sq_dist[i]:.6e},{rep.envelope[i]:.6e}")
        print(f"# per-step log factors: empirical {rep.empirical_log_factor:.5f}"
              f" +- {rep.log_factor_se:.5f} envelope {rep.envelope_log_factor:.5f}"
              f" respects_lower_bound={rep.respects_lower_bound}")
        chart = ("Two-point lower bound", "mean squared distance",
                 ("mean squared distance", rep.mean_sq_dist), ("envelope", rep.envelope))
    title, ylabel, (name, y), (ref_name, ref) = chart
    series = [svg.Series(name, list(rep.rounds), list(y)),
              svg.Series(ref_name, list(rep.rounds), list(ref), dashed=True)]
    # A log axis unless the reference reaches 0 (orthcol at m = n).
    svg.emit_svg(svg.Plot(series, title=title, xlabel="round k", ylabel=ylabel,
                          ylog=bool(np.all(ref > 0))),
                 os.path.join(args.out, f"{args.kind}.svg"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "speedup": _cmd_speedup,
    "growth": _cmd_growth,
    "lbtest": _cmd_lbtest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (config_mod.ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
