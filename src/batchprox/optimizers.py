"""Outer iterations: base model-based loop, iterate averaging, and the
accelerated three-term loop, with stepsize schedules and run recording.

One lockstep engine runs all three loops.  It advances C cells that share an
instance, a strategy, a batch size and a starting point and differ in their
schedule and generator: a running set, a per-cell stepsize vector and the
stacked iterates X, Z and running averages X_avg, dense over the running
cells.  Converged, diverged and inner-failed cells stop while the others go
on; a stopped cell's rows are written out once and the stacks compacted, so
a step touches only the cells still running.  Each cell draws its batches
from its own generator in blocks of consecutive batches on the same stream a
lone run reads one batch at a time; an attempt takes the cell's next batch
and a redraw after a solver failure the one after it.  Every stacked product
is per cell, so a cell's record does not depend on C or on the other cells.
The step of a strategy is ``prox.stacked_step``, which
``prox.solve_model_prox`` also calls for one model; iterate averaging is the
m = 1 step of its per-sample model, averaged, inside it.  ``run_base``,
``run_pia`` and ``run_accelerated`` are one-cell calls; sweeps step the
alpha0 cells of a (method, m) group together, and the two-point lab steps the
trials that share an instance together.

Every run is a pure function of (instance, configuration, RNG state); two
runs with identical inputs produce bitwise-identical records.  Passing
``full_batch=True`` (or m equal to the dataset size) uses the whole dataset
deterministically each step, which is the noiseless sigma_0 = 0 regime; it
needs a uniform sampling law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, models, problems, prox

POLY_DECAY = "poly"
SMOOTHNESS_ADAPTIVE = "smooth"

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget"
STATUS_DIVERGED = "diverged"
STATUS_INNERFAIL = "innerfail"

_DIVERGENCE_FACTOR = 1e8
_INNER_RETRIES = 2
_INNER_TOL = 1e-9  # stopping tolerance of the iterative prox solvers
# Indices per cell in one block draw: a cell draws min(n_steps, B // m)
# batches at a time, so the blocks of C cells hold at most C * B indices.
_BLOCK_INDICES = 4096


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize schedule.

    ``poly``:   alpha_k = alpha0 * k^(-beta), beta in [0, 1]
    ``smooth``: alpha_k = 1 / (L + eta0 * k^power), power in {0, 1/2}
    """

    kind: str
    alpha0: float = 1.0
    beta: float = 0.5
    L: float = 0.0
    eta0: float = 0.0
    power: float = 0.5

    def __post_init__(self):
        if self.kind == POLY_DECAY:
            if not self.alpha0 > 0:
                raise ValueError("alpha0 must be positive")
            if not 0.0 <= self.beta <= 1.0:
                raise ValueError("beta must lie in [0, 1]")
        elif self.kind == SMOOTHNESS_ADAPTIVE:
            if self.L < 0 or self.eta0 < 0 or self.L + self.eta0 <= 0:
                raise ValueError("need L, eta0 >= 0 with L + eta0 > 0")
            if self.power not in (0.0, 0.5):
                raise ValueError("power must be 0 or 1/2")
        else:
            raise ValueError(f"unknown schedule kind: {self.kind!r}")

    def alpha(self, k: int) -> float:
        """alpha_k: the one-cell call of the engine's ``_stepsizes``."""
        return float(_stepsizes([self], False)(k, None)[0])


def poly_decay(alpha0: float, beta: float = 0.5) -> StepSchedule:
    return StepSchedule(POLY_DECAY, alpha0=alpha0, beta=beta)


def smoothness_adaptive(L: float, eta0: float, power: float = 0.5) -> StepSchedule:
    return StepSchedule(SMOOTHNESS_ADAPTIVE, L=L, eta0=eta0, power=power)


def theta(k: int) -> float:
    """Momentum theta_k = 2/(k+2): theta_0 = 1, decreasing, and
    (1-theta_k)/theta_k^2 <= 1/theta_{k-1}^2 for every k >= 1, since
    (1-theta_k)/theta_k^2 = k(k+2)/4 <= (k+1)^2/4 = 1/theta_{k-1}^2."""
    return 2.0 / (k + 2.0)


@dataclass
class RecordOptions:
    stride: int = 1
    record_average: bool = True
    record_distance: bool = False


@dataclass(eq=False)
class RunRecord:
    ks: np.ndarray
    gaps: np.ndarray
    avg_gaps: np.ndarray | None
    dists: np.ndarray | None
    samples: np.ndarray
    status: str
    k_converged: int | None
    x_final: np.ndarray
    x_avg_final: np.ndarray | None
    f_star: float
    initial_gap: float
    config: dict = field(default_factory=dict)


class _Recorder:
    """Recorded gaps of C lockstep cells in one (records, width) table that
    grows by doubling: columns [0, C) hold the gaps, [C, 2C) the averaged
    gaps (with ``record_average``) and the next C the distances (with
    ``record_distance``).  A record covers the cells still running and
    leaves NaN in the others' columns, so cell c's records are the first
    count[c] rows.  The engine keeps X and X_avg of the running cells as the
    two halves of one dense stack, so one ``objective_values`` call on it
    evaluates the gaps and the averaged gaps without a copy; they are
    written to the running cells' columns."""

    def __init__(self, inst, opts: RecordOptions, C: int, f_star: float):
        self.inst = inst
        self.opts = opts
        self.f_star = f_star
        self.stacked = (1 + opts.record_average) * C  # columns of the X stack
        self.ks = np.zeros(64, dtype=int)
        self.table = np.full((64, self.stacked + opts.record_distance * C), np.nan)
        self.rows = 0
        self.count = np.full(C, -1)  # records of a stopped cell; -1 while running
        self.cols, self.dcols = slice(0, self.stacked), slice(self.stacked, None)

    def record(self, k: int, XX) -> np.ndarray:
        """Record the running cells' gaps at step k, XX the dense (X; X_avg)
        stack (halves, running cells, n); returns the gaps."""
        i = self.rows
        if i == self.ks.size:
            self.ks = np.concatenate([self.ks, self.ks])
            self.table = np.concatenate([self.table, np.full_like(self.table, np.nan)])
        vals = problems.objective_values(self.inst, XX.reshape(-1, XX.shape[2])) - self.f_star
        self.table[i, self.cols] = vals
        if self.opts.record_distance:
            self.table[i, self.dcols] = problems.distances_to_optimum(self.inst, XX[0])
        self.ks[i] = k
        self.rows += 1
        return vals[:XX.shape[1]]

    def stop(self, gone, cells):
        """Close the records of the cells gone; cells are those still running."""
        self.count[gone] = self.rows
        C = self.count.size
        self.cols = np.concatenate([cells, cells + C]) if self.stacked > C else cells
        self.dcols = self.stacked + cells

    def finish(self, m_eff, status, k_conv, X, X_avg, gap0, configs) -> list:
        ks, C = self.ks[:self.rows], self.count.size
        out = []
        for c, n in enumerate(np.where(self.count < 0, self.rows, self.count).tolist()):
            col = self.table[:n]
            out.append(RunRecord(
                ks=ks[:n], gaps=col[:, c],
                avg_gaps=col[:, C + c] if self.opts.record_average else None,
                dists=col[:, self.stacked + c] if self.opts.record_distance else None,
                samples=ks[:n] * m_eff, status=status[c], k_converged=k_conv[c],
                x_final=X[c].copy(),
                x_avg_final=X_avg[c].copy() if X_avg is not None else None,
                f_star=self.f_star, initial_gap=float(gap0[c]),
                config=configs[c],
            ))
        return out


def run_base(
    inst: problems.ProblemInstance,
    strategy: models.BatchStrategy,
    schedule: StepSchedule,
    m: int,
    n_steps: int,
    epsilon: float,
    rng: np.random.Generator,
    record: RecordOptions | None = None,
    x0=None,
    full_batch: bool = False,
) -> RunRecord:
    """Base model-based loop: sample a batch, build the model at x_k, solve
    the prox subproblem with alpha_k, and record the objective gap.

    On a ball domain the unconstrained prox solve is followed by a
    projection onto the ball.  Iterate averaging (``models.pia``) solves the
    m single-sample subproblems from x_k and averages them.

    Batches are drawn from rng in blocks of consecutive batches on the same
    stream, so the run reads the batches that one draw per step would give;
    rng may be left advanced past the last batch used.
    """
    return _run_lockstep(inst, strategy, [schedule], m, n_steps, epsilon, [rng],
                         record=record, x0=x0, full_batch=full_batch)[0]


def run_pia(
    inst: problems.ProblemInstance,
    per_sample_model: str,
    schedule: StepSchedule,
    m: int,
    n_steps: int,
    epsilon: float,
    rng: np.random.Generator,
    record: RecordOptions | None = None,
    x0=None,
    full_batch: bool = False,
) -> RunRecord:
    """Iterate averaging: per step, solve the m single-sample prox
    subproblems from the same point and average the solutions."""
    return run_base(inst, models.pia(per_sample_model), schedule, m, n_steps,
                    epsilon, rng, record=record, x0=x0, full_batch=full_batch)


def run_accelerated(
    inst: problems.ProblemInstance,
    strategy: models.BatchStrategy,
    schedule: StepSchedule,
    m: int,
    n_steps: int,
    epsilon: float,
    rng: np.random.Generator,
    record: RecordOptions | None = None,
    x0=None,
    full_batch: bool = False,
) -> RunRecord:
    """Three-term accelerated iteration:

        y_k     = (1 - theta_k) x_k + theta_k z_k
        z_{k+1} = argmin model_at_y + ||. - z_k||^2 / (2 alpha_k)
        x_{k+1} = (1 - theta_k) x_k + theta_k z_{k+1}

    with theta_k = theta(k) = 2/(k+2).  With a smoothness-adaptive schedule
    the stepsize is alpha_k = 1/(L theta_k + eta(k+1)), eta(j) = eta0 j^power
    (the tightest admissible choice).

    Iterate averaging composes with this wrapper but does not enjoy the
    accelerated guarantee.  Batches are drawn from rng as in ``run_base``.
    """
    return _run_lockstep(inst, strategy, [schedule], m, n_steps, epsilon, [rng],
                         accelerated=True, record=record, x0=x0,
                         full_batch=full_batch)[0]


def _run_lockstep(inst, strategy, schedules, m, n_steps, epsilon, rngs, *,
                  accelerated=False, record=None, x0=None, full_batch=False) -> list:
    """Run C cells that share the instance, strategy, m and starting point
    and differ in their schedule and generator (cell c uses schedules[c]
    and rngs[c]); returns one RunRecord per cell.

    The cells advance together, one step of every running cell per
    iteration, and a cell stops on its own status.  X, Z and X_avg hold the
    running cells only, in the order of ``cells``; a cell that stops has its
    rows written to the (C, n) finals once, and the stacks are compacted, so
    no step gathers or scatters them by cell index.  Each cell draws its
    batches from its own generator in blocks on the same stream as a lone
    run, and every stacked product is per cell, so a cell's record does not
    depend on C or on the other cells.
    """
    if n_steps < 1 or epsilon <= 0:
        raise ValueError("need n_steps >= 1 and epsilon > 0")
    if m < 1:
        raise ValueError("batch size must be at least 1")
    uniform = inst.sample_probabilities is None
    if full_batch and not uniform:  # a full batch weighs the samples alike
        raise ValueError("full_batch needs a uniform sampling law")
    opts = record if record is not None else RecordOptions()
    full = full_batch or (uniform and m == inst.N)
    m_eff = inst.N if full else m
    x = np.zeros(inst.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    x = geometry.project_domain(inst.domain, x)
    f_star = problems.reference_optimum(inst).f_star
    for s in schedules:
        _check_infinite_alpha(strategy, s, accelerated)
    config = {"method": strategy.method_id, "accelerated": accelerated, "m": m_eff,
              "epsilon": epsilon, "full_batch": full}
    if strategy.scheme == models.ITERATE_AVERAGE:
        config["pia_kind"] = strategy.kind
    configs = [dict(config, schedule=s) for s in schedules]
    step = _stepper(inst, m, n_steps, full, rngs,
                    prox.stacked_step(inst, strategy, m_eff, _INNER_TOL))

    C = len(schedules)
    # The (X; X_avg) rows: finals[:, c] holds cell c's once it stops, and
    # XX those of the running cells, dense in the order of cells.
    finals = np.tile(x, (1 + opts.record_average, C, 1))
    XX = finals.copy()
    Z = XX[0].copy() if accelerated else None
    rec = _Recorder(inst, opts, C, f_star)
    cells = np.arange(C)  # the cells still running
    gap0 = rec.record(0, XX)
    limit = _DIVERGENCE_FACTOR * np.maximum(gap0, 1e-12)
    status = [STATUS_BUDGET] * C
    k_conv = [None] * C
    running = _settle(cells, 0, gap0, epsilon, limit, status, k_conv)
    if running.size != cells.size:
        cells, XX, Z = _drop(np.isin(cells, running), cells, XX, Z, finals, rec)

    stepsizes = _stepsizes(schedules, accelerated)
    stride = max(opts.stride, 1)
    for k in range(1, n_steps + 1):
        if cells.size == 0:
            break
        th = theta(k - 1) if accelerated else None
        alpha = stepsizes(k, th)
        if cells.size != C:
            alpha = alpha[cells]
        X = XX[0]
        if accelerated:
            anchors, centers = (1.0 - th) * X + th * Z, Z
        else:
            anchors = centers = X
        new, ok = step(cells, anchors, centers, alpha)
        if ok is not None and not ok.all():
            for c in cells[~ok].tolist():
                status[c] = STATUS_INNERFAIL
            cells, XX, Z = _drop(ok, cells, XX, Z, finals, rec)
            X, new = XX[0], new[ok]
        if accelerated:
            Z[:] = new
            X[:] = (1.0 - th) * X + th * new
        else:
            X[:] = new
        if opts.record_average:
            XX[1] += (X - XX[1]) / k  # mean of x_1 .. x_k
        if k % stride == 0 or k == n_steps:
            gaps = rec.record(k, XX)
            running = _settle(cells, k, gaps, epsilon, limit, status, k_conv)
            if running.size != cells.size:
                cells, XX, Z = _drop(np.isin(cells, running), cells, XX, Z, finals, rec)
    finals[:, cells] = XX
    return rec.finish(m_eff, status, k_conv, finals[0],
                      finals[1] if opts.record_average else None, gap0, configs)


def _drop(keep, cells, XX, Z, finals, rec):
    """Stop the running cells whose keep is False: write their (X; X_avg)
    rows to finals, close their records, and compact the dense stacks;
    returns the running (cells, XX, Z)."""
    gone = ~keep
    finals[:, cells[gone]] = XX[:, gone]
    rec.stop(cells[gone], cells[keep])
    return cells[keep], XX.compress(keep, axis=1), None if Z is None else Z[keep]


def _stepsizes(schedules, accelerated):
    """alphas(k, theta_k) -> the (C,) stepsizes of the cells at step k, each
    schedule's alpha(k), which is this call for one cell; the accelerated
    loop takes the smoothness-adaptive stepsize 1/(L theta_k + eta(k)).
    k^(-beta) is Python's float power, once per distinct beta, because
    NumPy's vectorized power may differ from it in the last bit."""
    C = len(schedules)

    def rows(keep):
        sel = [c for c, s in enumerate(schedules) if keep(s)]
        return slice(None) if len(sel) == C else np.array(sel, dtype=int)

    alpha0 = np.array([s.alpha0 for s in schedules])
    decays = [(beta, rows(lambda s, b=beta: s.kind == POLY_DECAY and s.beta == b))
              for beta in {s.beta for s in schedules if s.kind == POLY_DECAY} - {0.0}]
    smooth = [s for s in schedules if s.kind == SMOOTHNESS_ADAPTIVE]
    sm = rows(lambda s: s.kind == SMOOTHNESS_ADAPTIVE)
    L, eta0 = np.array([s.L for s in smooth]), np.array([s.eta0 for s in smooth])
    root = np.array([s.power == 0.5 for s in smooth])
    if not smooth and len(decays) == 1 and isinstance(decays[0][1], slice):
        beta = decays[0][0]  # every cell decays with one beta: one product, same bits
        return lambda k, theta_k: alpha0 * k ** (-beta)

    def alphas(k, theta_k):
        out = alpha0.copy()  # constant poly schedules (beta = 0) keep alpha0
        for beta, r in decays:
            out[r] = alpha0[r] * k ** (-beta)
        if smooth:
            eta = eta0 * np.where(root, math.sqrt(k), 1.0)
            out[sm] = 1.0 / ((L * theta_k if accelerated else L) + eta)
        return out
    return alphas


# Widest stack tested by the comparison chain: it takes ~1.2 us at C = 1 and
# ~0.12 us more a cell, the NumPy mask ~4.4 us at any width.
_CHAIN_CELLS = 30


def _settle(cells, k, gaps, epsilon, limit, status, k_conv):
    """Stop the cells whose recorded gap converged or diverged; returns the
    cells still running.  A cell runs on iff epsilon < gap < inf and the gap
    is not above its limit, so a NaN gap stops and a NaN limit stops nothing
    finite; up to _CHAIN_CELLS cells, that test runs first as a chain."""
    lim = limit[cells]
    if cells.size <= _CHAIN_CELLS and all(epsilon < g < math.inf and not g > l
                                          for g, l in zip(gaps.tolist(), lim.tolist())):
        return cells
    running = (gaps > epsilon) & (gaps < math.inf) & ~(gaps > lim)
    converged = gaps <= epsilon
    for c in cells[converged].tolist():
        status[c], k_conv[c] = STATUS_CONVERGED, k
    for c in cells[~(running | converged)].tolist():
        status[c] = STATUS_DIVERGED
    return cells[running]


_SOLVER_ERRORS = (prox.InnerSolveError, prox.DegenerateSampleError)


def _stepper(inst, m, n_steps, full, rngs, kernel):
    """step(cells, anchors, centers, alpha) -> (new points, ok) for the
    running cells: take each cell's next batch, apply the stacked kernel
    (a ``prox.stacked_step``), project the stack onto the domain in one
    call, and redraw up to ``_INNER_RETRIES`` times for the cells whose
    solve failed.  ok is None when the first stacked attempt succeeded, else
    a mask that is False for a cell whose every attempt failed (its row is
    then meaningless).

    A cell's batches come from a (rows, m) block drawn from its generator in
    one call and refilled when used up; the rows are the batches that one
    draw per attempt would give, so the block size does not change a run.
    The running cells read one shared block row, a single slice of the
    blocks, until a redraw puts a cell ahead; then each keeps its own."""
    project = inst.domain.kind != geometry.ALL_SPACE
    C = len(rngs)
    if full:
        everything = np.tile(np.arange(inst.N), (C, 1))
    else:
        rows = max(1, min(n_steps, _BLOCK_INDICES // m))
        blocks = np.empty((C, rows, m), dtype=np.int64)
        shared = rows  # every cell's next unread row; rows means spent
        pos = None  # each cell's own next row, once a redraw puts it ahead

    def batches(cells, redraw):
        nonlocal shared, pos
        if full:
            return everything[:cells.size]
        if pos is None and not redraw:
            if shared == rows:
                for c in cells.tolist():
                    blocks[c] = problems.sample_batches(inst, rows, m, rngs[c])
                shared = 0
            shared += 1
            return blocks[:, shared - 1] if cells.size == C else blocks[cells, shared - 1]
        if pos is None:
            pos = np.full(C, shared)
        at = pos[cells]
        spent = at == rows
        if spent.any():
            for c in cells[spent].tolist():
                blocks[c] = problems.sample_batches(inst, rows, m, rngs[c])
            at[spent] = 0
        pos[cells] = at + 1
        return blocks[cells, at]

    def attempt(cells, A, Zc, alpha, redraw=False):
        idx = batches(cells, redraw)
        out, good = _apply(kernel, A, Zc, alpha, idx)
        if project:
            out = geometry.project_domain(inst.domain, out)
        return out, good

    def step(cells, anchors, centers, alpha):
        new, ok = attempt(cells, anchors, centers, alpha)
        for _ in range(_INNER_RETRIES):
            if ok is None or ok.all():
                break
            bad = np.flatnonzero(~ok)
            A = anchors[bad]
            out, good = attempt(cells[bad], A, A if centers is anchors else centers[bad],
                                alpha[bad], redraw=True)
            good = slice(None) if good is None else good
            new[bad[good]] = out[good]
            ok[bad[good]] = True
        return new, ok
    return step


def _apply(kernel, A, Zc, alpha, idx):
    """(kernel output, None) when the stacked kernel succeeds.  If it raises
    a solver error, the cells are redone one by one, so only the cells that
    fail alone are charged with it, and the second item is the ok mask."""
    try:
        return kernel(A, Zc, alpha, idx), None
    except _SOLVER_ERRORS:
        if alpha.size == 1:
            return Zc.copy(), np.zeros(1, dtype=bool)
    out = Zc.copy()
    good = np.ones(alpha.size, dtype=bool)
    for i in range(alpha.size):
        a = A[i:i + 1]
        try:
            out[i] = kernel(a, a if Zc is A else Zc[i:i + 1], alpha[i:i + 1],
                            idx[i:i + 1])[0]
        except _SOLVER_ERRORS:
            good[i] = False
    return out, good


def _check_infinite_alpha(strategy, schedule, accelerated):
    if schedule.kind == POLY_DECAY and math.isinf(schedule.alpha0):
        if accelerated:
            raise ValueError("the accelerated loop requires finite stepsizes")
        truncated = (
            strategy.kind == models.TRUNCATED
            and strategy.scheme in (models.MODEL_OF_AVERAGE, models.ITERATE_AVERAGE)
        )
        if not truncated:
            raise ValueError(
                "infinite stepsize is only supported for truncated models"
            )
        if schedule.beta != 0.0:
            raise ValueError("infinite stepsize requires beta = 0")


def samples_used(k: int, m: int) -> int:
    """Samples consumed by k steps of batch size m, counting one batch for
    a run that starts converged (k = 0)."""
    return max(k, 1) * m


def smoothness_constant(inst: problems.ProblemInstance) -> float:
    """Gradient Lipschitz constant of the objective (smooth losses only):
    the loss's curvature bound times lambda_max(A'WA), W the diagonal of the
    sampling law (1/N per row for a dataset).  That is lambda_max(A'A)/N for
    linear regression and the power loss at gamma = 1, and lambda_max(A'A)/(8N)
    for the half-weighted logistic loss."""
    c = problems.LOSSES[inst.kind].curvature(inst.gamma)
    if not math.isfinite(c):
        raise ValueError(f"{inst.kind} objective is nonsmooth; no L available")
    w = inst.sample_probabilities
    A = inst.A if w is None else np.sqrt(w * inst.N)[:, np.newaxis] * inst.A
    s = np.linalg.svd(A, compute_uv=False)[0]
    return float(s * s) * c / inst.N


def suggested_eta0(sigma0: float, m: int, R: float, accelerated: bool = False) -> float:
    """Variance-adapted eta0 default: sigma0/(sqrt(m) R) for the base
    loop and sigma0*sqrt(m)/R for the accelerated one."""
    if accelerated:
        return sigma0 * math.sqrt(m) / R
    return sigma0 / (math.sqrt(m) * R)
