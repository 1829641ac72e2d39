"""Sweep configuration: JSON schema, validation, and built-in presets.

A config is a JSON object with exactly these keys (all optional except
``problems``), each of the JSON type shown:

    problems       list of {kind: string, N, n: integers,
                            sigma, p, gamma, delta, radius: numbers}
                   (sigma only for linreg and absreg, p only for logistic)
    methods        list of {method: string, accelerated: boolean,
                            schedule: {kind: string, beta, power: numbers}}
    alpha0_grid    list of positive numbers
    m_grid         list of integers >= 1
    cond_grid      list of numbers >= 1
    seeds          trial count, integer >= 1
    epsilon        relative accuracy target (gap / initial gap), positive number
    sample_budget  per-run total-sample budget, integer >= 1
    record_stride  gap-recording stride (iterations), integer >= 1
    master_seed    base seed for the per-cell stream derivation, integer

A problem needs its ``kind`` and a method its ``method``; a schedule's kind
is poly or smooth.  A number is a JSON integer or float, and a boolean is
neither.  Unknown keys and values of another type are errors.  Grid defaults
mirror the benchmark protocol: alpha0 in {10^(i/2) : i = -4..5}, m in
{1,4,8,16,32,64}, 30 seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

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
        # The spec's fields are generate_problem's parameters, by name.
        return problems.generate_problem(**vars(self), cond=cond, seed=seed)


@dataclass(frozen=True)
class MethodSpec:
    method: str                      # sgm | pia | pma | pam | prox
    accelerated: bool = False
    schedule_kind: str = "poly"      # poly | smooth
    beta: float = 0.5
    power: float = 0.5


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
        for name in ("problems", "methods", "alpha0_grid", "m_grid", "cond_grid"):
            if not getattr(self, name):
                raise ConfigError(f"{name} list is empty")
        for name in ("alpha0_grid", "m_grid", "cond_grid"):
            _reject_duplicates(getattr(self, name), f"{name} entry")
        # Specs with the same row keys would write colliding sweep rows and
        # share cell streams.
        _reject_duplicates([(ps.label(), ps.noise_label()) for ps in self.problems],
                           "problem spec (kind, noise)")
        _reject_duplicates([(ms.method, ms.accelerated) for ms in self.methods],
                           "method spec (method, accelerated)")
        if not all(a > 0 for a in self.alpha0_grid):  # NaN too
            raise ConfigError("alpha0_grid entries must be positive")
        if any(m < 1 for m in self.m_grid):
            raise ConfigError("m_grid entries must be >= 1")
        if not all(c >= 1 for c in self.cond_grid):
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
            # A kind ignores another's noise parameter, which would still
            # name noise in the row's noise label.
            for name in ("sigma", "p"):
                if getattr(ps, name) != 0 and problems.NOISE_PARAMETERS.get(ps.kind) != name:
                    raise ConfigError(f"a {ps.kind!r} problem takes no {name!r}")
            if not (ps.sigma >= 0 and 0 <= ps.p <= 1):  # NaN too
                raise ConfigError("sigma must be >= 0 and p must lie in [0, 1]")
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


# Each key's JSON type, at every level of a config.
_TYPES = {
    "problems": "list of objects", "methods": "list of objects",
    "alpha0_grid": "list of numbers", "m_grid": "list of integers",
    "cond_grid": "list of numbers", "seeds": "integer", "epsilon": "number",
    "sample_budget": "integer", "record_stride": "integer", "master_seed": "integer",
    "kind": "string", "N": "integer", "n": "integer", "sigma": "number", "p": "number",
    "gamma": "number", "delta": "number", "radius": "number",
    "method": "string", "accelerated": "boolean", "schedule": "object",
    "beta": "number", "power": "number",
}
_PYTHON_TYPES = {"object": dict, "number": (int, float), "integer": int,
                 "string": str, "boolean": bool}


def _has_type(value, json_type: str) -> bool:
    if json_type.startswith("list of "):
        entry = json_type[len("list of "):-1]
        return isinstance(value, list) and all(_has_type(v, entry) for v in value)
    kind = _PYTHON_TYPES[json_type]
    # JSON booleans load as Python bools, which are ints: no number is a bool.
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def _checked(data, keys, required, what: str) -> dict:
    """A copy of the JSON object ``data`` after checking that its keys are
    among ``keys``, that it has the ``required`` ones, and that each value has
    its key's JSON type.  Its lists are copied too, so a config shares no
    list with its source (a preset, say)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{what} needs a {key!r}")
    for key, value in data.items():
        if not _has_type(value, _TYPES[key]):
            raise ConfigError(f"{what} key {key!r} must be a JSON {_TYPES[key]}, "
                              f"not {value!r}")
    return {key: list(value) if isinstance(value, list) else value
            for key, value in data.items()}


def _method_from_dict(d) -> MethodSpec:
    """A method object as a MethodSpec: its schedule's keys become fields,
    the schedule's kind as schedule_kind, and keys it leaves out take the
    MethodSpec defaults."""
    d = _checked(d, ("method", "accelerated", "schedule"), ("method",), "method")
    sched = _checked(d.pop("schedule", {}), ("kind", "beta", "power"), (), "schedule")
    if "kind" in sched:
        sched["schedule_kind"] = sched.pop("kind")
    return MethodSpec(**d, **sched)


def config_from_dict(data: dict) -> SweepConfig:
    data = _checked(data, [f.name for f in fields(SweepConfig)], ("problems",),
                    "config")
    problem_keys = [f.name for f in fields(ProblemSpec)]
    data["problems"] = [ProblemSpec(**_checked(p, problem_keys, ("kind",), "problem"))
                        for p in data["problems"]]
    if "methods" in data:
        data["methods"] = [_method_from_dict(m) for m in data["methods"]]
    return SweepConfig(**data).validate()


def load_config(source: str) -> SweepConfig:
    """Parse a config from a file path or inline JSON text."""
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _paper(problem: dict) -> dict:
    return {"problems": [problem], "cond_grid": [1.0, 10.0], "sample_budget": 200_000}


def _desk(problem: dict) -> dict:
    return {
        "alpha0_grid": DEFAULT_ALPHA0_GRID,
        "m_grid": [1, 4, 16],
        "cond_grid": [1.0],
        "seeds": 5,
        "epsilon": DEFAULT_EPSILON,
        "sample_budget": 30_000,
        "record_stride": 10,
        "problems": [problem],
    }


# The desk presets run the full protocol at reduced scale; desk-absreg is
# noiseless (the interpolation regime, where truncated methods converge at
# every stepsize -- the setting behind the robustness comparison).
PRESETS = {
    "paper-linreg": _paper({"kind": "linreg", "N": 1000, "n": 40, "sigma": 0.5}),
    "paper-absreg": _paper({"kind": "absreg", "N": 1000, "n": 40, "sigma": 0.5}),
    "paper-absreg-noiseless": _paper({"kind": "absreg", "N": 1000, "n": 40, "sigma": 0.0}),
    "paper-logistic": _paper({"kind": "logistic", "N": 1000, "n": 40, "p": 0.01}),
    "desk-linreg": _desk({"kind": "linreg", "N": 200, "n": 20, "sigma": 0.5}),
    "desk-absreg": _desk({"kind": "absreg", "N": 200, "n": 20, "sigma": 0.0}),
    "desk-logistic": _desk({"kind": "logistic", "N": 200, "n": 20, "p": 0.01}),
}


def preset(name: str) -> SweepConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return config_from_dict(PRESETS[name])
