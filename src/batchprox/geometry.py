"""Distance-generating functions, mirror steps and domain projections.

Two geometries are provided: the Euclidean half-squared-norm potential on
(subsets of) R^n, and the negative-entropy potential on the probability
simplex.  Both are 1-strongly convex with respect to their reference norm
(l2 and l1 respectively).  The linear model's prox step in either geometry
is the exact mirror step; every other step is Euclidean, followed by a
projection onto the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean_half_sq"
NEG_ENTROPY = "neg_entropy_simplex"

ALL_SPACE = "all_space"
BALL = "euclidean_ball"
SIMPLEX = "simplex"

# Iterates are clamped away from the simplex boundary before taking logs;
# the entropy gradient is unbounded there.
_ENTROPY_FLOOR = 1e-15


@dataclass(frozen=True)
class DistanceGenerator:
    """A strongly convex potential h defining the proximal geometry."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, NEG_ENTROPY):
            raise ValueError(f"unknown distance generator kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")


def euclidean(dim: int) -> DistanceGenerator:
    return DistanceGenerator(EUCLIDEAN, dim)


def entropy_simplex(dim: int) -> DistanceGenerator:
    return DistanceGenerator(NEG_ENTROPY, dim)


@dataclass(frozen=True, eq=False)
class Domain:
    """Feasible set: all of R^n, a Euclidean ball, or the simplex."""

    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in (ALL_SPACE, BALL, SIMPLEX):
            raise ValueError(f"unknown domain kind: {self.kind!r}")
        if self.kind == BALL:
            if self.center is None or self.radius <= 0:
                raise ValueError("ball domain needs a center and radius > 0")


def all_space() -> Domain:
    return Domain(ALL_SPACE)


def ball(center, radius: float) -> Domain:
    return Domain(BALL, center=np.asarray(center, dtype=float), radius=float(radius))


def simplex() -> Domain:
    return Domain(SIMPLEX)


def check_compatible(h: DistanceGenerator, dom: Domain) -> None:
    """The entropy potential only pairs with the simplex, and vice versa."""
    entropy = h.kind == NEG_ENTROPY
    simplex_dom = dom.kind == SIMPLEX
    if entropy != simplex_dom:
        raise ValueError(
            f"incompatible geometry: {h.kind} with domain {dom.kind}"
        )


def mirror_linear_step(
    h: DistanceGenerator,
    dom: Domain,
    z: np.ndarray,
    g: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """argmin over the domain of <g, x> + D_h(x, z) / alpha, D_h the Bregman
    divergence h(x) - h(z) - <grad h(z), x - z>.

    Euclidean geometry gives the projected gradient step; the entropy
    geometry gives the multiplicative-weights update.
    """
    if not alpha > 0:
        raise ValueError("stepsize must be positive")
    check_compatible(h, dom)
    z = _check_dim(z, h.dim)
    g = _check_dim(g, h.dim)
    if h.kind == EUCLIDEAN:
        return project_domain(dom, z - alpha * g)
    logw = np.log(np.maximum(z, _ENTROPY_FLOOR)) - alpha * g
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def project_domain(dom: Domain, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the domain."""
    x = np.asarray(x, dtype=float)
    if dom.kind == ALL_SPACE:
        return x
    if dom.kind == BALL:
        d = x - dom.center
        nrm = float(np.linalg.norm(d))
        if nrm <= dom.radius:
            return x
        return dom.center + (dom.radius / nrm) * d
    return project_simplex(x)


def project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-based, O(n log n))."""
    x = np.asarray(x, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, x.size + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def _check_dim(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected vector of dimension {dim}, got shape {x.shape}")
    return x
