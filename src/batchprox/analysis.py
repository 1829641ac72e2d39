"""Estimators for problem constants and sweep summarization tools.

The constant estimators (gradient variance, noise-to-signal ratio, growth
constants) enumerate the empirical distribution exactly when possible and
fall back to Monte Carlo for batch-averaged variants.  The summarizers
consume sweep rows shaped like the harness CSV (dicts with problem / method
/ m / alpha0 / seed / samples_to_eps / status keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import problems
from .prox import rowdot


@dataclass
class Sigma0Estimate:
    sigma0_sq: float
    worst_probe: np.ndarray
    per_probe: np.ndarray


def estimate_sigma0(inst, probes) -> Sigma0Estimate:
    """sup over probes of E||F'(x;S) - f'(x)||^2 (the gradient variance),
    each expectation computed exactly by enumerating the dataset."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    per_probe = np.array([_gradient_moments(inst, x)[1] for x in probes])
    j = int(np.argmax(per_probe))
    return Sigma0Estimate(float(per_probe[j]), probes[j].copy(), per_probe)


def _gradient_moments(inst, x):
    """The mean subgradient f'(x) = E F'(x;S) and the variance
    E||F'(x;S) - f'(x)||^2 under the sampling law, by enumerating the
    dataset (the two atoms of the two-point family)."""
    _, grads = problems.batch_losses(inst, x, np.arange(inst.N))
    w = inst.sample_probabilities  # None: uniform, the plain means
    gbar = np.average(grads, axis=0, weights=w)
    return gbar, float(np.average(((grads - gbar) ** 2).sum(axis=1), weights=w))


def estimate_noise_to_signal(inst, probes):
    """sup over probes of Var(F'(x;S)) / ||f'(x)||^2 by full enumeration.

    Probes with a vanishing mean gradient are skipped (and reported);
    raises if every probe is degenerate.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    best = -np.inf
    skipped = []
    for j, x in enumerate(probes):
        gbar, var = _gradient_moments(inst, x)
        signal = float(gbar @ gbar)
        if signal <= 1e-300:
            skipped.append(j)
            continue
        best = max(best, var / signal)
    if not np.isfinite(best):
        raise ValueError("all probes have vanishing mean gradient")
    return best, skipped


@dataclass
class GrowthEstimate:
    gamma: float
    lambda0_hat: float
    lambda1_hat: float
    alpha: float
    radii: np.ndarray
    mc_size: int
    per_probe_value: np.ndarray   # E[(F - F*) min{alpha, (F-F*)/||F'||^2}]
    per_probe_dist: np.ndarray
    half_widths: np.ndarray       # Monte Carlo standard errors (0 if exact)
    negative_probes: list = field(default_factory=list)


def estimate_gamma_growth(
    inst,
    gamma: float,
    alpha: float,
    radii,
    directions,
    draws: int | None = None,
    m: int = 1,
    rng: np.random.Generator | None = None,
) -> GrowthEstimate:
    """Fit the largest (lambda0, lambda1) certifying the growth inequality

        E[(F(x;S)-F(x*;S)) min{alpha, (F-F*)/||F'||^2}]
            >= min{lambda0 alpha, lambda1 dist^(1-gamma)} dist^(1+gamma)

    at every probe x = x* + r d.  The two-branch min makes the joint fit
    non-smooth: the probe constraint is the disjunction
    lambda0 <= E/(alpha dist^(1+gamma))  OR  lambda1 <= E/dist^2, and we
    take the largest lambda1 (clamped to [0,1]) admitting a feasible
    lambda0 >= lambda1, then maximize lambda0.  For m = 1 the expectation
    enumerates the dataset; for m > 1 it averages ``draws`` sampled batches.
    """
    info = problems.reference_optimum(inst)
    if info.x_star is None:
        raise ValueError("growth estimation needs a known optimum")
    x_star = info.x_star
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    dirs = directions / np.linalg.norm(directions, axis=1, keepdims=True)

    vals_star, _ = problems.batch_losses(inst, x_star, np.arange(inst.N))
    Es, Ds, sems, negative = [], [], [], []
    for r in radii:
        for d in dirs:
            x = x_star + r * d
            E, sem, neg = _growth_expectation(inst, x, vals_star, alpha, m,
                                              draws, rng)
            Es.append(E)
            Ds.append(r)
            sems.append(sem)
            if neg:
                negative.append((float(r), d.copy()))
    E = np.array(Es)
    D = np.array(Ds)

    # Feasibility per probe: lambda1 <= E/D^2 or lambda0 <= E/(alpha D^(1+g));
    # an uncovered probe forces lambda0 <= its cap, and lambda0 >= lambda1.
    lam1_caps = E / D**2
    lam0_caps = E / (alpha * D ** (1.0 + gamma))
    lam1_hat = min(1.0, float(np.min(np.maximum(lam1_caps, lam0_caps))))
    uncovered = lam1_caps < lam1_hat - 1e-15
    if np.any(uncovered):
        lam0_hat = float(np.min(lam0_caps[uncovered]))
    else:
        lam0_hat = max(float(np.min(lam0_caps)), lam1_hat)
    return GrowthEstimate(
        gamma=gamma, lambda0_hat=lam0_hat, lambda1_hat=lam1_hat, alpha=alpha,
        radii=radii, mc_size=(draws or inst.N), per_probe_value=E,
        per_probe_dist=D, half_widths=np.array(sems), negative_probes=negative,
    )


def growth_bound_holds(est: GrowthEstimate, tol_scale: float = 1e-12) -> bool:
    """Re-verify the fitted pair against every probe."""
    rhs = np.minimum(
        est.lambda0_hat * est.alpha,
        est.lambda1_hat * est.per_probe_dist ** (1.0 - est.gamma),
    ) * est.per_probe_dist ** (1.0 + est.gamma)
    scale = np.maximum(np.abs(est.per_probe_value), 1.0)
    return bool(np.all(est.per_probe_value >= rhs - tol_scale * scale))


def _growth_expectation(inst, x, vals_star, alpha, m, draws, rng):
    """E[(Fbar(x)-Fbar(x*)) min{alpha, ./||Fbar'||^2}] with batch size m."""
    if m == 1:
        vals, grads = problems.batch_losses(inst, x, np.arange(inst.N))
        diff = vals - vals_star
        terms = _growth_terms(diff, np.einsum("ij,ij->i", grads, grads), alpha)
        return (float(np.average(terms, weights=inst.sample_probabilities)), 0.0,
                bool(np.any(diff < -1e-12)))
    if draws is None or rng is None:
        raise ValueError("batch-averaged estimation needs draws and an rng")
    # One block of draws on the stream of `draws` sample_batch calls.
    idx = problems.sample_batches(inst, draws, m, rng)
    vals, grads = problems.stacked_losses(inst, np.broadcast_to(x, (draws, x.size)), idx)
    diff = vals.mean(axis=1) - vals_star[idx].mean(axis=1)
    g = grads.mean(axis=1)
    terms = _growth_terms(diff, rowdot(g, g), alpha)
    return (float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(draws)),
            bool(np.any(diff < -1e-12)))


def _growth_terms(diff, gsq, alpha):
    ratio = np.where(gsq > 0, np.maximum(diff, 0.0) / np.where(gsq > 0, gsq, 1.0),
                     np.inf)
    return diff * np.minimum(alpha, ratio)


# ---------------------------------------------------------------------------
# Sweep summarization


@dataclass
class ProfileCurve:
    method: str
    r: np.ndarray
    fraction: np.ndarray

    def at(self, r_query: float) -> float:
        """Curve value at r (right-continuous step function)."""
        i = np.searchsorted(self.r, r_query, side="right") - 1
        return float(self.fraction[i]) if i >= 0 else 0.0


def cell_time(row):
    """A sweep row's time to epsilon: samples_to_eps, or inf unless it converged."""
    if str(row.get("status", "")) != "converged":
        return math.inf
    t = row.get("samples_to_eps")
    if t is None or t == "":
        return math.inf
    return float(t)


def median_times(rows):
    """(method, m, alpha0) -> the median over the rows (the seeds, and any
    other cells that share the key) of the time to epsilon."""
    times: dict = {}
    for row in rows:
        times.setdefault((row["method"], row["m"], row["alpha0"]), []).append(cell_time(row))
    return {key: float(np.median(t)) for key, t in times.items()}


def _experiment_key(row):
    # Rows without the flag are base-loop rows.
    return (row["problem"], row["noise"], row["cond"], row["m"],
            row["alpha0"], row["seed"], bool(row.get("accelerated", False)))


def performance_profile(rows, methods, max_failures: int = 3):
    """Dolan-More profiles over experiments (one execution of every method
    at a fixed problem/noise/cond/m/alpha0/seed cell, base and accelerated
    loops apart).

    Experiments where more than ``max_failures`` methods fail, or where no
    method converges, are discarded; failures enter as infinite ratios.
    """
    methods = list(methods)
    cells: dict = {}
    for row in rows:
        if row["method"] not in methods:
            continue
        cells.setdefault(_experiment_key(row), {})[row["method"]] = cell_time(row)
    ratios = {a: [] for a in methods}
    kept = 0
    for times in cells.values():
        if len(times) != len(methods):
            continue  # incomplete experiment
        tvals = np.array([times[a] for a in methods])
        n_fail = int(np.sum(~np.isfinite(tvals)))
        if n_fail > max_failures:
            continue
        best = tvals.min()
        if not math.isfinite(best):
            continue
        kept += 1
        for a, t in zip(methods, tvals):
            ratios[a].append(t / best)
    if kept == 0:
        raise ValueError("no complete experiments to profile")

    curves = []
    for a in methods:
        rs = np.array(ratios[a])
        finite = np.sort(rs[np.isfinite(rs)])
        grid = np.unique(np.concatenate([[1.0], finite]))
        frac = np.array([(rs <= g).mean() for g in grid])
        curves.append(ProfileCurve(a, grid, frac))
    return curves


def speedup_table(rows, method: str, units: str = "samples"):
    """Best-tuned speedup of minibatching: m -> T*_1 / T*_m, where T*_m is
    the min over alpha0 of the median over seeds of the time to epsilon.

    ``units``: "samples" (total samples consumed, the sweep's T) or
    "iterations" (T/m, the parallel-time proxy).
    """
    if units not in ("samples", "iterations"):
        raise ValueError("units must be 'samples' or 'iterations'")
    medians = median_times(row for row in rows if row["method"] == method)
    if not medians:
        raise ValueError(f"no rows for method {method!r}")
    t_star: dict = {}
    for (_method, m, _alpha0), med in medians.items():
        if units == "iterations":
            med = med / m
        cur = t_star.get(m, math.inf)
        t_star[m] = min(cur, med)
    if 1 not in t_star or not math.isfinite(t_star[1]):
        raise ValueError("T* at m=1 is undefined (all failures)")
    return {m: t_star[1] / t_star[m] for m in sorted(t_star)}


def rate_slope(record, k_window):
    """Least-squares slope of log(gap) versus log(k) over the window.

    Raises on nonpositive gaps in the window (use ``loglinear_fit`` for the
    geometric regime instead).
    """
    k_lo, k_hi = k_window
    mask = (record.ks >= k_lo) & (record.ks <= k_hi)
    ks = record.ks[mask]
    gaps = record.gaps[mask]
    if ks.size < 2:
        raise ValueError("window contains fewer than two recorded points")
    if np.any(gaps <= 0):
        raise ValueError(
            "nonpositive gaps in window; fit the geometric rate instead"
        )
    return loglinear_fit(np.log(ks), gaps)[0]


def loglinear_fit(ks, values):
    """Fit log(values) = slope * k + intercept; returns (slope, intercept, r2)."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.size < 2 or np.any(values <= 0):
        raise ValueError("need >= 2 points with positive values")
    logv = np.log(values)
    slope, intercept = np.polyfit(ks, logv, 1)
    fitted = slope * ks + intercept
    ss_res = float(((logv - fitted) ** 2).sum())
    ss_tot = float(((logv - logv.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
