"""Sweep result rows and their CSV serialization.

The sweep CSV is the authoritative artifact.  Its columns are the fields of
``CellResult``, in order:

    problem,noise,cond,method,accelerated,m,alpha0,seed,k_to_eps,samples_to_eps,final_gap,status

Floats are written with 17 significant digits so a round-trip reproduces
the table exactly; a run that never reaches epsilon leaves k_to_eps and
samples_to_eps empty.  Rows are sorted by the first eight columns, the
cell's key, before writing, making the file a pure function of (config,
master seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from operator import attrgetter


@dataclass
class CellResult:
    problem: str
    noise: str
    cond: float
    method: str
    accelerated: bool
    m: int
    alpha0: float
    seed: int
    k_to_eps: int | None
    samples_to_eps: int | None
    final_gap: float
    status: str

    def sort_key(self):
        return _key(self)


CSV_HEADER = [f.name for f in fields(CellResult)]
KEY_COLUMNS = CSV_HEADER[:8]
_key = attrgetter(*KEY_COLUMNS)

# A CSV field's parser, by its column's annotation; _fmt is the inverse.
_PARSE = {"str": str, "float": float, "int": int, "bool": "true".__eq__,
          "int | None": lambda text: int(text) if text else None}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_csv(results, path):
    rows = sorted(results, key=_key)
    _write(path, CSV_HEADER, ([getattr(r, col) for col in CSV_HEADER] for r in rows))


def read_csv(path):
    """Round-trip reader; returns CellResult rows."""
    parsers = [(f.name, _PARSE[f.type]) for f in fields(CellResult)]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        return [CellResult(**{name: parse(rec[name]) for name, parse in parsers})
                for rec in reader]


def rows_as_dicts(results, accelerated: bool | None = None):
    """Plain-dict view for the analysis summarizers, optionally filtered by
    the accelerated flag."""
    return [dict(vars(r)) for r in results
            if accelerated is None or r.accelerated == accelerated]


def write_profile_csv(curves, path):
    _write(path, ["method", "r", "fraction"],
           ((curve.method, float(r), float(frac))
            for curve in curves for r, frac in zip(curve.r, curve.fraction)))


def write_speedup_csv(table, method, path, units="samples"):
    _write(path, ["method", "units", "m", "speedup"],
           ((method, units, m, float(table[m])) for m in sorted(table)))
