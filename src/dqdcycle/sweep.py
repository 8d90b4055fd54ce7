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

Serialization: ``write_csv`` emits the exact column set

    strength,epsilon,mode,performance,Qh,Qc,W

with floats in scientific notation at 13 significant digits and an empty
performance field for undefined cells; ``to_json_document`` wraps the same
rows in a versioned document with the grid spec, per-mode counts and area
fractions, and a note on which figure-of-merit convention each mode uses.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import IO

import numpy as np

from .qdot import DotParams
from .regimes import Branch, Classification, Mode, branch_currents, branch_currents_grid
from .regimes import classify, classify_grid
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
    zero_tol: float = 1e-12

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
        if not (0.0 <= self.zero_tol < math.inf):
            raise ValueError("zero_tol must be finite and nonnegative")


@dataclass(frozen=True)
class SweepCell:
    strength: float
    epsilon: float
    result: Classification


@dataclass(frozen=True)
class SweepResult:
    spec: GridSpec
    cells: list[SweepCell]
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
    rows = zip(epsilons, modes.tolist(), qh.tolist(), qc.tolist(), w.tolist(),
               perf.tolist(), raw.tolist())
    cells = [
        SweepCell(s, e, Classification(m, h, c, x, p, r))
        for e, *row in rows
        for s, m, h, c, x, p, r in zip(strengths, *row)
    ]
    counts = Counter(modes.ravel().tolist())
    return SweepResult(spec, cells, {m: counts.get(m, 0) for m in Mode})


def mode_area_fractions(result: SweepResult) -> dict[Mode, float]:
    """Fraction of grid cells in each mode (equal cell weighting)."""
    total = len(result.cells)
    return {m: result.counts[m] / total for m in Mode}


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    # No field can hold a comma, quote or newline, so these lines are exactly
    # what csv.writer would write: no field is ever quoted. "%.12e" % x is
    # the same text as _fmt(x).
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for cell in result.cells:
        c = cell.result
        perf = "" if c.performance is None else "%.12e" % c.performance
        lines.append("%.12e,%.12e,%s,%s,%.12e,%.12e,%.12e\n" % (
            cell.strength, cell.epsilon, c.mode.value, perf, c.Qh, c.Qc, c.W))
    stream.write("".join(lines))


def to_json_document(result: SweepResult) -> dict:
    """JSON-ready document: schema tag, grid spec, summary, then the rows."""
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
        "cells": [
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
        ],
    }
