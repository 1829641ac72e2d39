"""Lower-bound laboratory: simulable versions of the hardness constructions.

``orthcol``: streaming noiseless regression that reveals, each round,
A = sqrt(n/m) [u_i1 ... u_im]' and b = A x* for m distinct columns of a fixed
orthogonal U, so that E[A'A] = I.  The Bayes-optimal estimator zeroes the
unobserved coordinates in that basis, and its risk admits the closed form
R^2 (1 - m/n)^k; the rank of the observed subspace follows
E[r_k | r_{k-1}] = (1-m/n) r_{k-1} + m.  Each round draws the m-subsets of
all trials at once with Floyd's algorithm, m vectorized draws, from one
(trials, n) block of coordinates.

``twopoint``: the one-dimensional two-atom family on which no method can
beat a (1 - delta)^k decay of squared distance; running the pure Polyak
step (truncated model, infinite stepsize) shows an algorithm tracking that
envelope.  The family is symmetric under v -> -v (the mirror x -> -x maps a
run on one sign's instance to the other's bit for bit), so all trials run on
one instance as one lockstep stack, each trial on its own stream.

Both labs reject bad arguments with a ``ConfigError`` (a ValueError) before
any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import analysis, models, optimizers, problems
from .config import ConfigError

__all__ = ["OrthColReport", "TwoPointReport", "orthcol_lab", "twopoint_lab"]


@dataclass
class OrthColReport:
    n: int
    m: int
    R: float
    trials: int
    rounds: np.ndarray
    empirical_risk: np.ndarray
    closed_form_risk: np.ndarray
    mean_rank: np.ndarray
    predicted_rank: np.ndarray

    def max_relative_error(self, k_max: int | None = None) -> float:
        sel = slice(None) if k_max is None else slice(0, k_max)
        ref = self.closed_form_risk[sel]
        err = np.abs(self.empirical_risk[sel] - ref)  # counted absolutely where ref = 0
        return float(np.max(np.divide(err, ref, out=err, where=ref > 0)))


def orthcol_lab(n: int, m: int, rounds: int, trials: int, R: float = 1.0,
                seed: int = 0) -> OrthColReport:
    """Simulate the posterior-mean risk of the orthogonal-column stream.

    The risk after k rounds is the prior mass on unobserved basis
    coordinates, so only the coordinate values and the observed index sets
    matter, and no data matrix is formed.  A round is one Floyd draw across
    all trials (Bentley & Floyd 1987): for j = n-m .. n-1 every trial takes
    i uniform in [0, j], or j if it holds i already: a uniform m-subset in
    m draws.
    """
    if not 1 <= m <= n:
        raise ConfigError("need 1 <= m <= n")
    if not R > 0:
        raise ConfigError("need R > 0")
    _check_run_args(rounds, trials)
    rng = np.random.default_rng(seed + 1)
    # Posterior mean reveals observed coordinates exactly: their mass leaves.
    unseen = (R**2 / n) * rng.standard_normal((trials, n)) ** 2
    observed = np.zeros((trials, n), dtype=bool)
    risks, ranks = np.zeros((rounds, trials)), np.zeros((rounds, trials))
    rows = np.arange(trials)
    for k in range(rounds):
        drawn = np.zeros((trials, n), dtype=bool)
        for j in range(n - m, n):  # Floyd's m-subset draw, every trial at once
            i = rng.integers(0, j + 1, size=trials)
            i[drawn[rows, i]] = j
            drawn[rows, i] = True
        observed |= drawn
        unseen[drawn] = 0.0
        risks[k], ranks[k] = unseen.sum(axis=1), observed.sum(axis=1)

    ks = np.arange(1, rounds + 1)
    closed = R**2 * (1.0 - m / n) ** ks
    pred_rank = n - n * (1.0 - m / n) ** ks
    return OrthColReport(
        n=n, m=m, R=R, trials=trials, rounds=ks,
        empirical_risk=risks.mean(axis=1),
        closed_form_risk=closed,
        mean_rank=ranks.mean(axis=1),
        predicted_rank=pred_rank,
    )


@dataclass
class TwoPointReport:
    delta: float
    gamma: float
    R: float
    trials: int
    rounds: np.ndarray
    mean_sq_dist: np.ndarray
    envelope: np.ndarray            # R^2 (1 - delta)^k lower-bound decay
    empirical_log_factor: float     # fitted per-step log decay of E[dist^2]
    envelope_log_factor: float      # log(1 - delta)
    log_factor_se: float            # Monte Carlo standard error of the fit

    @property
    def respects_lower_bound(self) -> bool:
        """An algorithm cannot decay faster than the envelope: the fitted
        decay is not below it by more than three standard errors."""
        return self.empirical_log_factor >= self.envelope_log_factor - 3.0 * self.log_factor_se


def twopoint_lab(lambda1: float, gamma: float, rounds: int, trials: int,
                 R: float = 1.0, seed: int = 0) -> TwoPointReport:
    """Run pure Polyak stepping on the two-point family with
    delta = (1+gamma)^2 lambda1 and compare the squared-distance decay with
    the unimprovable envelope.

    Trial t stands for the instance of seed + 7t, which depends only on its
    atom sign v, and draws its batches from its own generator.  The mirror
    x -> -x maps a run on one sign's instance to the run on the other's bit
    for bit (negation is exact, the step is odd in x - vR and the distance
    even, from x = 0), so all trials run on trial 0's instance as one
    lockstep stack; a cell's record does not depend on the stack.
    """
    delta = (1.0 + gamma) ** 2 * lambda1
    try:
        problems.check_parameters(problems.TWOPOINT, 1, 1, 0.0, 0.0, 1.0, gamma, delta, R)
    except ValueError as exc:
        raise ConfigError(f"{exc}, with delta = (1+gamma)^2 * lambda1 = {delta:g}") from exc
    _check_run_args(rounds, trials)
    inst = problems.generate_problem("twopoint", delta=delta, gamma=gamma, radius=R,
                                     seed=seed)
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, t, 12345)).generate_state(1)[0])
            for t in range(trials)]
    record = optimizers.RecordOptions(stride=1, record_average=False,
                                      record_distance=True)
    recs = optimizers._run_lockstep(inst, models.pma(), [optimizers.poly_decay(math.inf, beta=0.0)]
                                    * trials, 1, rounds, 1e-300, rngs, record=record)
    # A trial that converged early keeps its last distance for the remaining rounds.
    sq = np.array([np.concatenate([r.dists, np.full(rounds + 1 - r.dists.size, r.dists[-1])])
                   for r in recs]) ** 2

    mean_sq = sq.mean(axis=0)
    ks = np.arange(rounds + 1)
    envelope = R**2 * (1.0 - delta) ** ks
    positive = mean_sq > 0
    slope = se = 0.0
    if np.count_nonzero(positive) >= 2:
        kp, mp = ks[positive], mean_sq[positive]
        slope = analysis.loglinear_fit(kp, mp)[0]
        # Delta method: the slope is c . log(mean), c the OLS weights, so its
        # gradient in the means is g = c / mean and its variance g' Cov(sq) g
        # / trials, that of the trials' sq . g.  One trial has no spread.
        c = (kp - kp.mean()) / ((kp - kp.mean()) ** 2).sum()
        se = (float(np.std(sq[:, positive] @ (c / mp), ddof=1) / math.sqrt(trials))
              if trials > 1 else math.inf)
    return TwoPointReport(
        delta=delta, gamma=gamma, R=R, trials=trials, rounds=ks,
        mean_sq_dist=mean_sq, envelope=envelope,
        empirical_log_factor=slope,
        envelope_log_factor=math.log(1.0 - delta),
        log_factor_se=se,
    )


def _check_run_args(rounds: int, trials: int) -> None:
    if rounds < 1 or trials < 1:
        raise ConfigError("need rounds >= 1 and trials >= 1")
