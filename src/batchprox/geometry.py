"""Feasible domains and their Euclidean projection.

Every prox subproblem is Euclidean, with a ||x - center||^2 / (2 alpha)
term.  The feasible set is all of R^n or a Euclidean ball; on a ball the
unconstrained prox step is followed by a projection, which takes one point
or a whole stack of cells' points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALL_SPACE = "all_space"
BALL = "euclidean_ball"


@dataclass(frozen=True, eq=False)
class Domain:
    """Feasible set: all of R^n or a Euclidean ball."""

    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in (ALL_SPACE, BALL):
            raise ValueError(f"unknown domain kind: {self.kind!r}")
        if self.kind == BALL:
            if self.center is None or self.radius <= 0:
                raise ValueError("ball domain needs a center and radius > 0")


def all_space() -> Domain:
    return Domain(ALL_SPACE)


def ball(center, radius: float) -> Domain:
    return Domain(BALL, center=np.asarray(center, dtype=float), radius=float(radius))


def mirror_linear_step(dom: Domain, z: np.ndarray, g: np.ndarray,
                       alpha: float) -> np.ndarray:
    """argmin over the domain of <g, x> + ||x - z||^2 / (2 alpha): the
    projected gradient step.  Nothing in ``src/`` calls it; it goes when
    ROADMAP item 4 retires the benchmark's ``perfbench/layers.py`` WRAPS."""
    if not alpha > 0:
        raise ValueError("stepsize must be positive")
    return project_domain(dom, np.asarray(z, dtype=float) - alpha * np.asarray(g, dtype=float))


def project_domain(dom: Domain, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the domain of one point (n,) or of every
    row of a stack (C, n).  A row's distance to the ball's center is one
    BLAS dot per row, the value ``np.linalg.norm`` gives the row alone; a
    row inside the ball is returned untouched, and only the rows outside it
    are rescaled onto the sphere, so a zero distance divides nothing."""
    x = np.asarray(x, dtype=float)
    if dom.kind == ALL_SPACE:
        return x
    X = np.atleast_2d(x)
    D = X - dom.center
    nrm = np.sqrt(np.matmul(D[:, np.newaxis, :], D[:, :, np.newaxis])[:, 0, 0])
    out = ~(nrm <= dom.radius)  # a NaN distance rescales, as a lone row's does
    if not out.any():
        return x
    X = X.copy()
    X[out] = dom.center + (dom.radius / nrm[out])[:, np.newaxis] * D[out]
    return X.reshape(x.shape)
