"""Grid sweeps over (measurement strength, detuning) for one branch.

A sweep fixes the branch, tunneling and temperature, then classifies every
cell of a rectangular grid: detuning epsilon on one axis, the branch's free
measurement strength (a on the engine branch, b on the refrigerator branches)
on the other. The output is the regime map plus per-cell figures of merit --
the raw material for the phase-diagram and performance figures.

The whole grid is evaluated in one array pass, and cells come out in
row-major order (epsilon outer, strength inner). The pass is bit-identical to
the scalar ``evaluate_cell`` because of one rule: the only transcendentals,
E = hypot(epsilon, tau) and tanh(E/T), depend on epsilon alone and are taken
from ``math`` once per row, exactly as the scalar route takes them; everything
broadcast over the strength axis is float64 + - * / and abs, which are
correctly rounded. numpy's own hypot and tanh may differ in the last bit, so
they are never used. ``evaluate_cell`` stays as the scalar oracle that tests
compare the grid against. ``run_sweep`` starts no thread; its ``workers``
argument is validated and otherwise ignored.

Serialization: ``run_sweep`` keeps the cells as flat row-major ``Columns``
(strength, epsilon, mode, performance, raw COP, Qh, Qc, W) behind
``SweepCells``, which builds a ``SweepCell`` only when one is read. Both
writers format straight from those columns; a plain list of cells is first
transposed into the same columns. ``write_csv`` emits the exact column set

    strength,epsilon,mode,performance,Qh,Qc,W

with floats in scientific notation at 13 significant digits and an empty
performance field for undefined cells. ``write_json`` emits a versioned
document with the grid spec, per-mode counts and area fractions, a note on
which figure-of-merit convention each mode uses, then the same rows.
``to_json_document`` builds that document as a dict, cell by cell; its
``json.dumps(..., indent=2)`` text is the reference ``write_json`` matches
byte for byte.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import IO, NamedTuple

import numpy as np

from .qdot import DotParams
from .regimes import Branch, Classification, Mode, branch_currents, branch_currents_grid
from .regimes import ZERO_TOL, _check_zero_tol, classify, classify_grid
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .regimes import engine_branch_quantities  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401

CSV_COLUMNS = ("strength", "epsilon", "mode", "performance", "Qh", "Qc", "W")

PERFORMANCE_CONVENTION = {
    "engine": "eta",
    "refrigerator": "kappa",
    "accelerator": "kappa",
    "heater": "kappa",
}


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive linear axis: ``steps`` points from ``start`` to ``stop``."""

    start: float
    stop: float
    steps: int

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class GridSpec:
    """Everything needed to reproduce one sweep."""

    branch: Branch
    strength_axis: AxisSpec
    epsilon_axis: AxisSpec
    tau: float
    temperature: float
    zero_tol: float = ZERO_TOL

    def __post_init__(self):
        for axis, name in ((self.strength_axis, "strength"), (self.epsilon_axis, "epsilon")):
            if axis.steps < 2:
                raise ValueError(f"{name} axis needs at least 2 steps")
            if not (math.isfinite(axis.start) and math.isfinite(axis.stop)):
                raise ValueError(f"{name} axis bounds must be finite")
            if not (axis.start < axis.stop):
                raise ValueError(f"{name} axis must have start < stop")
        if not (0.0 <= self.strength_axis.start and self.strength_axis.stop <= 1.0):
            raise ValueError("strength axis must lie within [0, 1]")
        if self.epsilon_axis.start <= 0.0:
            raise ValueError("epsilon axis must be positive")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be positive")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        _check_zero_tol(self.zero_tol)


@dataclass(frozen=True)
class SweepCell:
    strength: float
    epsilon: float
    result: Classification


class Columns(NamedTuple):
    """One list per cell field, row-major: the form both writers format from."""

    strength: list
    epsilon: list
    mode: list
    performance: list
    raw_cop: list
    Qh: list
    Qc: list
    W: list


class SweepCells(Sequence):
    """The cells of a grid sweep, stored as ``Columns``.

    Behaves as the list of ``SweepCell`` it stands for: ``len``, indexing,
    slicing, row-major iteration and ``==`` against a plain list (either side).
    Each ``SweepCell`` is built only when it is read.
    """

    def __init__(self, columns: Columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.mode)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return _cell(*(column[index] for column in self.columns))

    def __iter__(self):
        return map(_cell, *self.columns)

    def __eq__(self, other):
        if not isinstance(other, (list, SweepCells)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"SweepCells({list(self)!r})"


def _cell(strength, epsilon, mode, performance, raw_cop, qh, qc, w) -> SweepCell:
    return SweepCell(strength, epsilon, Classification(mode, qh, qc, w, performance, raw_cop))


def _columns(cells) -> Columns:
    """The columns of ``cells``: read from ``SweepCells``, transposed from any other list."""
    if isinstance(cells, SweepCells):
        return cells.columns
    rows = [(c.strength, c.epsilon, c.result.mode, c.result.performance, c.result.raw_cop,
             c.result.Qh, c.result.Qc, c.result.W) for c in cells]
    return Columns(*map(list, zip(*rows))) if rows else Columns(*([] for _ in Columns._fields))


@dataclass(frozen=True)
class SweepResult:
    spec: GridSpec
    cells: Sequence[SweepCell]
    counts: dict[Mode, int]


def evaluate_cell(spec: GridSpec, strength: float, epsilon: float) -> SweepCell:
    """One cell through the scalar route: the oracle for ``run_sweep``."""
    params = DotParams(epsilon=epsilon, tau=spec.tau)
    qh, qc, w = branch_currents(spec.branch, params, spec.temperature, strength)
    return SweepCell(strength, epsilon, classify(qh, qc, w, spec.zero_tol))


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepResult:
    """Evaluate the full grid in one array pass.

    ``workers`` is kept for compatibility: it must be >= 1 and is otherwise
    ignored, because no thread is started.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    strengths = spec.strength_axis.points().tolist()
    epsilons = spec.epsilon_axis.points().tolist()
    qh, qc, w = branch_currents_grid(spec.branch, epsilons, spec.tau, spec.temperature,
                                     strengths)
    modes, perf, raw = classify_grid(qh, qc, w, spec.zero_tol)
    mode_column = modes.ravel().tolist()
    cells = SweepCells(Columns(
        strengths * len(epsilons),
        [e for e in epsilons for _ in strengths],
        mode_column,
        perf.ravel().tolist(),
        raw.ravel().tolist(),
        qh.ravel().tolist(),
        qc.ravel().tolist(),
        w.ravel().tolist(),
    ))
    counts = Counter(mode_column)
    return SweepResult(spec, cells, {m: counts.get(m, 0) for m in Mode})


def mode_area_fractions(result: SweepResult) -> dict[Mode, float]:
    """Fraction of grid cells in each mode (equal cell weighting)."""
    total = len(result.cells)
    return {m: result.counts[m] / total for m in Mode}


def _fmt(x: float) -> str:
    return f"{x:.12e}"


_MODE_TEXT = {m: m.value for m in Mode}

# One CSV row. No field can hold a comma, quote or newline, so these lines are
# exactly what csv.writer would write: no field is ever quoted. "%.12e" % x is
# the same text as _fmt(x).
_CSV_ROW = "%.12e,%.12e,%s,%s,%.12e,%.12e,%.12e\n"

# One element of the "cells" array as json.dumps(..., indent=2) lays it out.
_JSON_CELL = ("    {\n"
              '      "strength": %s,\n'
              '      "epsilon": %s,\n'
              '      "mode": %s,\n'
              '      "performance": %s,\n'
              '      "Qh": %s,\n'
              '      "Qc": %s,\n'
              '      "W": %s\n'
              "    }")


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    c = _columns(result.cells)
    performance = ["" if p is None else "%.12e" % p for p in c.performance]
    fields = zip(c.strength, c.epsilon, map(_MODE_TEXT.__getitem__, c.mode), performance,
                 c.Qh, c.Qc, c.W)
    stream.write(",".join(CSV_COLUMNS) + "\n"
                 + (_CSV_ROW * len(performance)) % tuple(chain.from_iterable(fields)))


def write_json(result: SweepResult, stream: IO[str]) -> None:
    """Write exactly ``json.dumps(to_json_document(result), indent=2) + "\n"``.

    Each column is encoded by one call of the C encoder, which writes floats
    as ``repr`` does and non-finite floats as ``Infinity``, ``-Infinity`` and
    ``NaN``; no token it writes for a float or None contains ``", "``, so
    splitting on it gives one token per cell.
    """
    import json  # here, not at the top, so that importing the package loads no json

    def tokens(values: list) -> list[str]:
        return json.dumps(values)[1:-1].split(", ")

    head = json.dumps(_document(result, []), indent=2)
    c = _columns(result.cells)
    mode_tokens = {m: json.dumps(m.value) for m in Mode}
    fields = zip(tokens(c.strength), tokens(c.epsilon), map(mode_tokens.__getitem__, c.mode),
                 tokens(c.performance), tokens(c.Qh), tokens(c.Qc), tokens(c.W))
    body = ",\n".join([_JSON_CELL % row for row in fields])
    # head ends with '"cells": []\n}'; the rows go between the brackets.
    stream.write(head[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}\n")


def _document(result: SweepResult, cells: list) -> dict:
    spec = result.spec
    fractions = mode_area_fractions(result)
    return {
        "schema": 1,
        "grid": {
            "branch": spec.branch.value,
            "strength": {"start": spec.strength_axis.start,
                         "stop": spec.strength_axis.stop,
                         "steps": spec.strength_axis.steps},
            "epsilon": {"start": spec.epsilon_axis.start,
                        "stop": spec.epsilon_axis.stop,
                        "steps": spec.epsilon_axis.steps},
            "tau": spec.tau,
            "temperature": spec.temperature,
            "zero_tol": spec.zero_tol,
        },
        "performance_convention": dict(PERFORMANCE_CONVENTION),
        "summary": {
            "counts": {m.value: result.counts[m] for m in Mode},
            "area_fractions": {m.value: fractions[m] for m in Mode},
        },
        "cells": cells,
    }


def to_json_document(result: SweepResult) -> dict:
    """JSON-ready document: schema tag, grid spec, summary, then the rows.

    Built cell by cell; ``write_json`` must write exactly its
    ``json.dumps(..., indent=2)`` text.
    """
    return _document(result, [
        {
            "strength": cell.strength,
            "epsilon": cell.epsilon,
            "mode": cell.result.mode.value,
            "performance": cell.result.performance,
            "Qh": cell.result.Qh,
            "Qc": cell.result.Qc,
            "W": cell.result.W,
        }
        for cell in result.cells
    ])
