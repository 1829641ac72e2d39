"""Convex lower models of batch-averaged losses.

A batch model anchors at the current iterate and satisfies three
conditions: it is convex (C.i), it lower-bounds the batch-averaged loss
while matching it exactly at the anchor (C.ii), and the truncated/proximal
variants additionally stay above the loss floor (C.iii), which is 0 because
every per-sample infimum is 0.

Strategies:

* ``sgm``   linear model of the batch average (minibatch subgradient),
* ``pma``   truncated (Polyak) model of the batch average,
* ``pam``   average of per-sample truncated models,
* ``prox``  the batch-averaged loss itself,
* ``pia``   per-sample models solved independently then averaged: the m = 1
  step of its per-sample model from every sample of the batch, averaged,
  inside ``prox.stacked_step``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problems

LINEAR = "linear"
TRUNCATED = "truncated"
FULL_PROX = "full_prox"

MODEL_KINDS = (LINEAR, TRUNCATED, FULL_PROX)

MODEL_OF_AVERAGE = "model_of_average"
AVERAGE_OF_TRUNCATED = "average_of_truncated"
ITERATE_AVERAGE = "iterate_average"


@dataclass(frozen=True)
class BatchStrategy:
    scheme: str
    kind: str = TRUNCATED

    def __post_init__(self):
        if self.scheme not in (MODEL_OF_AVERAGE, AVERAGE_OF_TRUNCATED, ITERATE_AVERAGE):
            raise ValueError(f"unknown batching scheme: {self.scheme!r}")
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind: {self.kind!r}")
        if self.scheme == AVERAGE_OF_TRUNCATED and self.kind != TRUNCATED:
            raise ValueError("the average of truncated models (pam) takes only the truncated kind")

    @property
    def method_id(self) -> str:
        if self.scheme == AVERAGE_OF_TRUNCATED:
            return "pam"
        if self.scheme == ITERATE_AVERAGE:
            return "pia"
        return {LINEAR: "sgm", TRUNCATED: "pma", FULL_PROX: "prox"}[self.kind]


def sgm() -> BatchStrategy:
    return BatchStrategy(MODEL_OF_AVERAGE, LINEAR)


def pma() -> BatchStrategy:
    return BatchStrategy(MODEL_OF_AVERAGE, TRUNCATED)


def pam() -> BatchStrategy:
    return BatchStrategy(AVERAGE_OF_TRUNCATED)


def full_prox() -> BatchStrategy:
    return BatchStrategy(MODEL_OF_AVERAGE, FULL_PROX)


def pia(kind: str = TRUNCATED) -> BatchStrategy:
    return BatchStrategy(ITERATE_AVERAGE, kind)


def strategy_from_id(method_id: str, pia_kind: str = TRUNCATED) -> BatchStrategy:
    table = {"sgm": sgm(), "pma": pma(), "pam": pam(), "prox": full_prox()}
    if method_id == "pia":
        return pia(pia_kind)
    if method_id not in table:
        raise ValueError(f"unknown method id: {method_id!r}")
    return table[method_id]


@dataclass(eq=False)
class BatchModel:
    """Model of the batch-averaged loss anchored at ``anchor``.

    ``values``/``grads`` hold the per-sample data at the anchor;
    ``lower_bound`` is the floor of the truncated models, 0 because every
    per-sample infimum is 0.  The model keeps a reference to the instance
    and batch so the full-prox variant can evaluate the true averaged loss.
    """

    strategy: BatchStrategy
    anchor: np.ndarray
    anchor_value: float
    gbar: np.ndarray           # averaged subgradient at the anchor
    values: np.ndarray         # per-sample losses at the anchor (m,)
    grads: np.ndarray          # per-sample subgradients (m, n)
    inst: problems.ProblemInstance
    batch: np.ndarray
    lower_bound: float = 0.0

    @property
    def m(self) -> int:
        return int(self.batch.size)


def build_batch_model(
    inst: problems.ProblemInstance,
    x: np.ndarray,
    batch: np.ndarray,
    strategy: BatchStrategy,
) -> BatchModel:
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise ValueError("empty batch")
    x = np.asarray(x, dtype=float)
    values, grads = problems.batch_losses(inst, x, batch)
    inv_m = 1.0 / batch.size
    return BatchModel(
        strategy=strategy,
        anchor=x.copy(),
        anchor_value=float(np.add.reduce(values)) * inv_m,
        gbar=np.add.reduce(grads, axis=0) * inv_m,
        values=values,
        grads=grads,
        inst=inst,
        batch=batch,
    )


def evaluate_model(model: BatchModel, y: np.ndarray) -> float | np.ndarray:
    """Model value at y; y may carry leading batch dimensions (..., n)."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    Y = y[np.newaxis, :] if single else y.reshape(-1, y.shape[-1])
    if Y.shape[-1] != model.anchor.size:
        raise ValueError("dimension mismatch between model and query point")
    out = _evaluate_many(model, Y)
    if single:
        return float(out[0])
    return out.reshape(y.shape[:-1])


def _evaluate_many(model: BatchModel, Y: np.ndarray) -> np.ndarray:
    strat = model.strategy
    D = Y - model.anchor  # (P, n)
    if strat.scheme == AVERAGE_OF_TRUNCATED:
        # (P, m) affine pieces, truncated per sample
        aff = model.values + D @ model.grads.T
        return np.maximum(aff, model.lower_bound).mean(axis=1)
    if strat.kind == LINEAR:
        return model.anchor_value + D @ model.gbar
    if strat.kind == TRUNCATED:
        aff = model.anchor_value + D @ model.gbar
        return np.maximum(aff, model.lower_bound)
    # full prox: the model is the batch-averaged loss itself
    return _batch_averages(model.inst, Y, model.batch)


def _batch_averages(inst, Y, batch):
    """The batch-averaged loss at each row of Y (P, n), one stacked call."""
    vals, _ = problems.stacked_losses(inst, Y, np.broadcast_to(batch, (Y.shape[0], batch.size)))
    return vals.mean(axis=1)


@dataclass
class ConditionReport:
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    worst_violation: float
    convexity_violation: float
    lower_bound_violation: float   # max of model - batch loss over probes
    anchor_violation: float
    floor_violation: float         # max of lower_bound - model over probes


def check_model_conditions(
    inst: problems.ProblemInstance,
    model: BatchModel,
    n_probes: int,
    rng: np.random.Generator | None = None,
    convexity_tol: float = 1e-9,
    lower_tol: float = 1e-9,
    anchor_tol: float = 1e-12,
    floor_tol: float = 1e-9,
) -> ConditionReport:
    """Empirically verify the model conditions at Gaussian probes around the
    anchor (scaled by ||anchor|| + 1 to cover local and far behavior)."""
    if n_probes < 1:
        raise ValueError("need at least one probe")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = model.anchor.size
    scale = float(np.linalg.norm(model.anchor)) + 1.0
    probes = model.anchor + scale * rng.standard_normal((n_probes, n))

    mvals = np.asarray(evaluate_model(model, probes))
    fvals = _batch_averages(inst, probes, model.batch)

    lb_viol = float(np.max(mvals - fvals))
    floor_viol = 0.0
    if model.strategy.scheme == AVERAGE_OF_TRUNCATED or model.strategy.kind in (
        TRUNCATED, FULL_PROX,
    ):
        floor_viol = float(np.max(model.lower_bound - mvals))
    anchor_viol = abs(float(evaluate_model(model, model.anchor)) - model.anchor_value)

    # Convexity along random segments between probe pairs.
    half = n_probes // 2
    cvx_viol = 0.0
    if half >= 1:
        U, W = probes[:half], probes[half:2 * half]
        t = rng.random(half)[:, np.newaxis]
        mid = np.asarray(evaluate_model(model, t * U + (1.0 - t) * W))
        chord = t[:, 0] * mvals[:half] + (1.0 - t[:, 0]) * mvals[half:2 * half]
        cvx_viol = float(np.max(mid - chord))

    report = ConditionReport(
        c1_ok=cvx_viol <= convexity_tol,
        c2_ok=lb_viol <= lower_tol and anchor_viol <= anchor_tol,
        c3_ok=floor_viol <= floor_tol,
        worst_violation=max(cvx_viol, lb_viol, anchor_viol, floor_viol),
        convexity_violation=cvx_viol,
        lower_bound_violation=lb_viol,
        anchor_violation=anchor_viol,
        floor_violation=floor_viol,
    )
    return report
