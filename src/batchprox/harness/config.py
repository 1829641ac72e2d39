"""Sweep configuration: JSON schema, validation, and built-in presets.

A config is a JSON object with exactly these keys (all optional except
``problems``):

    problems       list of {kind, N, n, sigma, p, gamma, delta, radius}
    methods        list of {method, accelerated, schedule: {kind, beta|power}}
    alpha0_grid    positive floats
    m_grid         positive ints
    cond_grid      floats >= 1
    seeds          trial count (int >= 1)
    epsilon        relative accuracy target (gap / initial gap)
    sample_budget  per-run total-sample budget
    record_stride  gap-recording stride (iterations)
    master_seed    base seed for the per-cell stream derivation

Unknown keys are errors.  Grid defaults mirror the benchmark protocol:
alpha0 in {10^(i/2) : i = -4..5}, m in {1,4,8,16,32,64}, 30 seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .. import problems

DEFAULT_ALPHA0_GRID = [10.0 ** (i / 2.0) for i in range(-4, 6)]
DEFAULT_M_GRID = [1, 4, 8, 16, 32, 64]
DEFAULT_SEEDS = 30
DEFAULT_EPSILON = 1e-2
DEFAULT_METHODS = ("sgm", "pia", "pma", "pam", "prox")

class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    N: int = 1000
    n: int = 40
    sigma: float = 0.0
    p: float = 0.0
    gamma: float = 0.0
    delta: float = 0.1
    radius: float = 1.0

    def label(self) -> str:
        return self.kind

    def noise_label(self) -> str:
        if self.kind == problems.LOGISTIC:
            return f"flip{self.p:g}" if self.p > 0 else "none"
        return f"sigma{self.sigma:g}" if self.sigma > 0 else "none"

    def instantiate(self, cond: float, seed: int):
        return problems.generate_problem(
            self.kind, N=self.N, n=self.n, sigma=self.sigma, p=self.p,
            cond=cond, gamma=self.gamma, delta=self.delta, radius=self.radius,
            seed=seed,
        )


@dataclass(frozen=True)
class MethodSpec:
    method: str                      # sgm | pia | pma | pam | prox
    accelerated: bool = False
    schedule_kind: str = "poly"      # poly | smooth
    beta: float = 0.5
    power: float = 0.5

    def label(self) -> str:
        return self.method


@dataclass
class SweepConfig:
    problems: list
    methods: list = field(
        default_factory=lambda: [MethodSpec(m) for m in DEFAULT_METHODS]
    )
    alpha0_grid: list = field(default_factory=lambda: list(DEFAULT_ALPHA0_GRID))
    m_grid: list = field(default_factory=lambda: list(DEFAULT_M_GRID))
    cond_grid: list = field(default_factory=lambda: [1.0])
    seeds: int = DEFAULT_SEEDS
    epsilon: float = DEFAULT_EPSILON
    sample_budget: int = 100_000
    record_stride: int = 10
    master_seed: int = 0

    def validate(self):
        if not self.problems:
            raise ConfigError("problems list is empty")
        if not self.methods:
            raise ConfigError("methods list is empty")
        for grid, name in ((self.alpha0_grid, "alpha0_grid"),
                           (self.m_grid, "m_grid"), (self.cond_grid, "cond_grid")):
            if not grid:
                raise ConfigError(f"{name} is empty")
            _reject_duplicates(grid, f"{name} entry")
        # Specs with the same row keys would write colliding sweep rows and
        # share cell streams.
        _reject_duplicates([(ps.label(), ps.noise_label()) for ps in self.problems],
                           "problem spec (kind, noise)")
        _reject_duplicates([(ms.method, ms.accelerated) for ms in self.methods],
                           "method spec (method, accelerated)")
        if any(a <= 0 for a in self.alpha0_grid):
            raise ConfigError("alpha0_grid entries must be positive")
        if any(m < 1 for m in self.m_grid):
            raise ConfigError("m_grid entries must be >= 1")
        if any(c < 1 for c in self.cond_grid):
            raise ConfigError("condition numbers must be >= 1")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if not 0 < self.epsilon:
            raise ConfigError("epsilon must be positive")
        if self.sample_budget < 1 or self.record_stride < 1:
            raise ConfigError("sample_budget and record_stride must be >= 1")
        for ps in self.problems:
            if ps.kind not in problems.KINDS:
                raise ConfigError(f"unknown problem kind: {ps.kind!r}")
        for ms in self.methods:
            if ms.method not in DEFAULT_METHODS:
                raise ConfigError(f"unknown method: {ms.method!r}")
            if ms.schedule_kind not in ("poly", "smooth"):
                raise ConfigError(f"unknown schedule kind: {ms.schedule_kind!r}")
            if ms.schedule_kind == "smooth":
                for ps in self.problems:
                    if not math.isfinite(problems.LOSSES[ps.kind].curvature(ps.gamma)):
                        raise ConfigError(
                            "smoothness-adaptive schedule is invalid for the "
                            f"nonsmooth {ps.kind!r} objective"
                        )
        return self


def _reject_duplicates(keys: list, what: str):
    dup = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
    if dup is not None:
        raise ConfigError(f"duplicate {what}: {dup}")


_PROBLEM_KEYS = {"kind", "N", "n", "sigma", "p", "gamma", "delta", "radius"}
_METHOD_KEYS = {"method", "accelerated", "schedule"}
_SCHEDULE_KEYS = {"kind", "beta", "power"}
_TOP_KEYS = {"problems", "methods", "alpha0_grid", "m_grid", "cond_grid",
             "seeds", "epsilon", "sample_budget", "record_stride", "master_seed"}


def _problem_from_dict(d: dict) -> ProblemSpec:
    unknown = set(d) - _PROBLEM_KEYS
    if unknown:
        raise ConfigError(f"unknown problem keys: {sorted(unknown)}")
    if "kind" not in d:
        raise ConfigError("problem entry needs a 'kind'")
    return ProblemSpec(**d)


def _method_from_dict(d: dict) -> MethodSpec:
    unknown = set(d) - _METHOD_KEYS
    if unknown:
        raise ConfigError(f"unknown method keys: {sorted(unknown)}")
    if "method" not in d:
        raise ConfigError("method entry needs a 'method'")
    sched = d.get("schedule", {})
    unknown = set(sched) - _SCHEDULE_KEYS
    if unknown:
        raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
    return MethodSpec(
        method=d["method"],
        accelerated=bool(d.get("accelerated", False)),
        schedule_kind=sched.get("kind", "poly"),
        beta=float(sched.get("beta", 0.5)),
        power=float(sched.get("power", 0.5)),
    )


def config_from_dict(data: dict) -> SweepConfig:
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "problems" not in data:
        raise ConfigError("config needs a 'problems' list")
    kwargs = {
        "problems": [_problem_from_dict(p) for p in data["problems"]],
    }
    if "methods" in data:
        kwargs["methods"] = [_method_from_dict(m) for m in data["methods"]]
    for key in ("alpha0_grid", "m_grid", "cond_grid"):
        if key in data:
            kwargs[key] = list(data[key])
    for key in ("seeds", "sample_budget", "record_stride", "master_seed"):
        if key in data:
            kwargs[key] = int(data[key])
    if "epsilon" in data:
        kwargs["epsilon"] = float(data["epsilon"])
    return SweepConfig(**kwargs).validate()


def load_config(source: str) -> SweepConfig:
    """Parse a config from a file path, inline JSON text, or preset name."""
    if source in PRESETS:
        return preset(source)
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data)


def _desk(overrides: dict) -> dict:
    base = {
        "alpha0_grid": DEFAULT_ALPHA0_GRID,
        "m_grid": [1, 4, 16],
        "cond_grid": [1.0],
        "seeds": 5,
        "epsilon": DEFAULT_EPSILON,
        "sample_budget": 30_000,
        "record_stride": 10,
    }
    base.update(overrides)
    return base


# The desk presets run the full protocol at reduced scale; desk-absreg is
# noiseless (the interpolation regime, where truncated methods converge at
# every stepsize -- the setting behind the robustness comparison).
PRESETS = {
    "paper-linreg": {
        "problems": [{"kind": "linreg", "N": 1000, "n": 40, "sigma": 0.5}],
        "cond_grid": [1.0, 10.0],
        "sample_budget": 200_000,
    },
    "paper-absreg": {
        "problems": [{"kind": "absreg", "N": 1000, "n": 40, "sigma": 0.5}],
        "cond_grid": [1.0, 10.0],
        "sample_budget": 200_000,
    },
    "paper-absreg-noiseless": {
        "problems": [{"kind": "absreg", "N": 1000, "n": 40, "sigma": 0.0}],
        "cond_grid": [1.0, 10.0],
        "sample_budget": 200_000,
    },
    "paper-logistic": {
        "problems": [{"kind": "logistic", "N": 1000, "n": 40, "p": 0.01}],
        "cond_grid": [1.0, 10.0],
        "sample_budget": 200_000,
    },
    "desk-linreg": _desk(
        {"problems": [{"kind": "linreg", "N": 200, "n": 20, "sigma": 0.5}]}
    ),
    "desk-absreg": _desk(
        {"problems": [{"kind": "absreg", "N": 200, "n": 20, "sigma": 0.0}]}
    ),
    "desk-logistic": _desk(
        {"problems": [{"kind": "logistic", "N": 200, "n": 20, "p": 0.01}]}
    ),
}


def preset(name: str) -> SweepConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return config_from_dict(PRESETS[name])
