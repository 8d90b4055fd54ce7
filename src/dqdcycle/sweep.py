"""Grid sweeps over (measurement strength, detuning) for one branch.

A sweep fixes the branch, tunneling and temperature, then classifies every
cell of a rectangular grid: detuning epsilon on one axis, the branch's free
measurement strength (a on the engine branch, b on the refrigerator branches)
on the other. The output is the regime map plus per-cell figures of merit --
the raw material for the phase-diagram and performance figures.

The whole grid is evaluated in one array pass, and cells come out in
row-major order (epsilon outer, strength inner). Each cell has the bits of
the scalar route, which ``tests/reference.py`` keeps as ``evaluate_cell`` for
the tests to compare the grid with, because of one rule: the only
transcendentals, E and tanh(E/T), depend on epsilon alone and come from
``qdot.thermal_factors`` once per row; everything broadcast over the
strength axis is float64 + - * / and abs, which are correctly rounded.
``run_sweep`` starts no thread; its ``workers`` argument is validated and
otherwise ignored.

Serialization: ``run_sweep`` keeps the cells as flat row-major ``Columns``
(strength, epsilon, mode, performance, raw COP, Qh, Qc, W) behind
``SweepCells``, which builds a ``SweepCell`` only when one is read. The mode
column holds ``classify_grid``'s codes, indices into ``regimes.MODES``;
``SweepCells`` turns a code back into a ``Mode`` when a cell is read, and the
writers look its text up by index. ``write_csv`` emits the exact column set

    strength,epsilon,mode,performance,Qh,Qc,W

with floats in scientific notation at 13 significant digits and an empty
performance field for undefined cells. ``write_json`` emits a versioned
document with the grid spec, per-mode counts and area fractions, a note on
which figure-of-merit convention each mode uses, then the same rows.
``to_json_document`` builds that document as a dict, cell by cell; its
``json.dumps(..., indent=2)`` text is the reference ``write_json`` matches
byte for byte.

Both writers work row by row, so that no value is formatted twice (a plain
list of cells is first transposed into the same columns). The strength axis
is formatted once per grid. Each epsilon row gets one ``%`` template that has
the row's epsilon text built in, and also the text of every current whose
float64 bit pattern is the same in all of the row's cells. Bit patterns, not
``==``, decide, so 0.0 and -0.0 stay apart and only NaNs with the same bits
merge. (On the refrigerator branches W depends on epsilon alone, so it is
one value per row.) The template then runs once over the row's remaining
fields: the mode text looked up by code, the performance and the currents
that vary. Row text is right only for cells that sit on the grid, so the
writers read its shape ``(ne, ns)`` from ``result.spec`` and, before anything
is written, raise ``ValueError`` naming the first cell whose strength or
epsilon is not bit for bit its row-major grid point, or that is missing.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import IO, NamedTuple

import numpy as np

from .qdot import check_dot, check_temperature
from .regimes import MODES, Branch, Classification, Mode, branch_currents_grid
from .regimes import ZERO_TOL, _check_zero_tol, classify_grid
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .regimes import classify  # noqa: F401
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
        check_temperature(self.temperature)
        check_dot(self.epsilon_axis.start, self.tau)  # the axis bounds are finite by now
        _check_zero_tol(self.zero_tol)


@dataclass(frozen=True)
class SweepCell:
    strength: float
    epsilon: float
    result: Classification


class Columns(NamedTuple):
    """One sequence per cell field, row-major: the form both writers format from.

    The coordinates and currents are float64 ``array("d")``s, which numpy
    reads without a copy; ``mode`` holds mode codes, indices into ``MODES``;
    performance and raw COP are lists of floats and None.
    """

    strength: array
    epsilon: array
    mode: list
    performance: list
    raw_cop: list
    Qh: array
    Qc: array
    W: array


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
    return SweepCell(strength, epsilon,
                     Classification(MODES[mode], qh, qc, w, performance, raw_cop))


def _columns(cells) -> Columns:
    """The columns of ``cells``: read from ``SweepCells``, transposed from any other list."""
    if isinstance(cells, SweepCells):
        return cells.columns
    rows = [(c.strength, c.epsilon, MODES.index(c.result.mode), c.result.performance,
             c.result.raw_cop, c.result.Qh, c.result.Qc, c.result.W) for c in cells]
    s, e, mode, performance, raw_cop, qh, qc, w = zip(*rows) if rows else [()] * 8
    return Columns(array("d", s), array("d", e), list(mode), list(performance), list(raw_cop),
                   array("d", qh), array("d", qc), array("d", w))


@dataclass(frozen=True)
class SweepResult:
    spec: GridSpec
    cells: Sequence[SweepCell]
    counts: dict[Mode, int]


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepResult:
    """Evaluate the full grid in one array pass.

    ``workers`` is kept for compatibility: it must be >= 1 and is otherwise
    ignored, because no thread is started.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    qh, qc, w = branch_currents_grid(spec.branch, spec.epsilon_axis.points(), spec.tau,
                                     spec.temperature, spec.strength_axis.points())
    codes, perf, raw = classify_grid(qh, qc, w, spec.zero_tol)
    cells = SweepCells(Columns(
        *map(_doubles, _grid_points(spec)),
        codes.ravel().tolist(),
        perf.ravel().tolist(),
        raw.ravel().tolist(),
        _doubles(qh),
        _doubles(qc),
        _doubles(w),
    ))
    counts = np.bincount(codes.ravel(), minlength=len(MODES)).tolist()
    return SweepResult(spec, cells, dict(zip(MODES, counts)))


def _grid_points(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The strength and the epsilon of every cell of ``spec``'s grid, row-major."""
    strengths, epsilons = spec.strength_axis.points(), spec.epsilon_axis.points()
    return np.tile(strengths, len(epsilons)), np.repeat(epsilons, len(strengths))


def _doubles(values: np.ndarray) -> array:
    """The float64 elements of ``values`` in row-major order, as an ``array("d")``."""
    return array("d", values.tobytes())


def mode_area_fractions(result: SweepResult) -> dict[Mode, float]:
    """Fraction of grid cells in each mode (equal cell weighting)."""
    total = len(result.cells)
    return {m: result.counts[m] / total for m in Mode}


def _fmt(x: float) -> str:
    return f"{x:.12e}"


# One CSV row and one element of the JSON "cells" array as
# json.dumps(..., indent=2) lays it out, with a %s slot per field of
# CSV_COLUMNS. No CSV field can hold a comma, quote or newline, so the rows
# are exactly what csv.writer would write: no field is ever quoted.
_CSV_CELL = "%s,%s,%s,%s,%s,%s,%s\n"
_JSON_CELL = ("    {\n"
              '      "strength": %s,\n'
              '      "epsilon": %s,\n'
              '      "mode": %s,\n'
              '      "performance": %s,\n'
              '      "Qh": %s,\n'
              '      "Qc": %s,\n'
              '      "W": %s\n'
              "    }")


def _bits(values) -> np.ndarray:
    """float64 bit patterns: equal only for the same float, so 0.0 != -0.0."""
    return np.asarray(values).view(np.int64)


def _grid_columns(result: SweepResult) -> tuple[int, Columns]:
    """(cells per row, columns) of ``result.cells``, checked against ``result.spec``.

    Raises ``ValueError`` naming the first cell that is not bit for bit at
    its row-major point of the spec's grid, or that is missing or extra.
    """
    ne, ns = result.spec.epsilon_axis.steps, result.spec.strength_axis.steps
    c = _columns(result.cells)
    n = min(len(c.mode), ne * ns)
    strengths, epsilons = _grid_points(result.spec)
    off = ((_bits(c.strength)[:n] != _bits(strengths)[:n])
           | (_bits(c.epsilon)[:n] != _bits(epsilons)[:n]))
    if off.any() or len(c.mode) != ne * ns:
        index = int(np.argmax(off)) if off.any() else n
        where = "missing from" if index == len(c.mode) else "off"
        raise ValueError(f"cell {index} is {where} the {ne} x {ns} (epsilon x strength) "
                         "grid of result.spec")
    return ns, c


def _format_cells(result: SweepResult, cell: str, sep: str, text, slot: str, feed,
                  mode_text: tuple, performance) -> list[str]:
    """The text of ``result``'s cells laid out by ``cell``, one string per grid row.

    Cells are joined by ``sep``, so every row after the first starts with it.
    The rows are left unjoined: writers write them one at a time rather
    than hold a second copy of the whole text. ``text`` formats one value. Every strength is formatted once, each row's
    epsilon once, and so is each current whose bits are the same across a
    row; those texts are built into one ``%`` template per row. The other
    currents take ``slot``, which formats the items of ``feed(row)``; the
    mode is its code's ``mode_text`` and the performance is
    ``performance(row)``.
    """
    ns, c = _grid_columns(result)
    pre, post = cell.split("%s", 1)  # pre leads up to the strength
    strengths = [text(s) for s in c.strength[:ns]]
    currents = (c.Qh, c.Qc, c.W)
    constant = [(b == b[:, :1]).all(axis=1).tolist()
                for b in (_bits(column).reshape(-1, ns) for column in currents)]
    rows = []
    for row, start in enumerate(range(0, len(c.mode), ns)):
        end = start + ns
        slots = []
        fields = [map(mode_text.__getitem__, c.mode[start:end]),
                  performance(c.performance[start:end])]
        for column, same in zip(currents, constant):
            if same[row]:
                slots.append(text(column[start]))
            else:
                slots.append(slot)
                fields.append(feed(column[start:end]))
        tail = post % (text(c.epsilon[start]), "%s", "%s", *slots)
        template = (sep if row else "") + pre + (tail + sep + pre).join(strengths) + tail
        rows.append(template % tuple(chain.from_iterable(zip(*fields))))
    return rows


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    """Write the header and one ``CSV_COLUMNS`` row per cell.

    Every row is formatted before the first is written. Raises
    ``ValueError``, writing nothing, if a cell is off the spec's grid.
    """
    rows = _format_cells(  # a current that varies is formatted by its slot as it is
        result, _CSV_CELL, "", _fmt, "%.12e", iter, tuple(m.value for m in MODES),
        lambda row: ["" if p is None else "%.12e" % p for p in row])
    _write(stream, [",".join(CSV_COLUMNS) + "\n", *rows])


def write_json(result: SweepResult, stream: IO[str]) -> None:
    """Write exactly ``json.dumps(to_json_document(result), indent=2) + "\n"``.

    Each row of a field is encoded by one call of the C encoder, which writes
    floats as ``repr`` does and non-finite floats as ``Infinity``,
    ``-Infinity`` and ``NaN``; no token it writes for a float or None
    contains ``", "``, so splitting on it gives one token per cell. Every
    row is formatted before the first is written. Raises ``ValueError``,
    writing nothing, if a cell is off the spec's grid.
    """
    import json  # here, not at the top, so that importing the package loads no json

    def tokens(values) -> list[str]:
        return json.dumps(list(values))[1:-1].split(", ")

    rows = _format_cells(result, _JSON_CELL, ",\n", json.dumps, "%s", tokens,
                         tuple(json.dumps(m.value) for m in MODES), tokens)
    head = json.dumps(_document(result, []), indent=2)
    # head ends with '"cells": []\n}'; the rows go between the brackets.
    _write(stream, [head[:-len("[]\n}")] + "[\n", *rows, "\n  ]\n}\n"])


def _write(stream: IO[str], texts: list[str]) -> None:
    """Write each text in turn; a stream only has to have ``write``."""
    for text in texts:
        stream.write(text)


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
