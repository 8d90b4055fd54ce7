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

``run_sweep`` keeps the cells as ``SweepCells``: the spec's two axis
vectors and six (ne, ns) arrays over them. The grid has a ``len``, iterates
its ``SweepCell`` in row-major order and takes an integer index; the tests
compare two grids with ``reference.same``, array by array. ``write_csv``
emits the exact column set

    strength,epsilon,mode,performance,Qh,Qc,W

with floats as ``FLOAT_FORMAT`` writes them and an empty performance field
for undefined cells. ``write_json`` emits a versioned document: the grid
spec, per-mode counts and area fractions from the mode codes, each mode's
figure of merit, then the same rows, as ``to_json_document`` builds them.

Both writers read the arrays row by row, never build a cell, and write each
grid row's text as soon as it is formatted, so a write holds one row of text
at a time: each strength is formatted once per grid, and each epsilon, and
each current whose float64 bits are the same all along a row (W on the
refrigerator branches), once per row. Before anything is written they raise
``ValueError`` unless ``result.cells`` is a ``SweepCells`` of the shape
(ne, ns) that ``result.spec`` gives. A stream only has to have ``write``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from typing import IO

import numpy as np

from .qdot import check_dot, check_temperature
from .regimes import MODES, PERFORMANCE_CONVENTION, Branch, Classification, Mode
from .regimes import ZERO_TOL, branch_points, check_zero_tol, classify_grid
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .regimes import classify  # noqa: F401
from .regimes import engine_branch_quantities  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401

CSV_COLUMNS = ("strength", "epsilon", "mode", "performance", "Qh", "Qc", "W")

# The text of every float in a sweep CSV and in a CSV report: 13 significant digits.
FLOAT_FORMAT = "%.12e"


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
    """Everything needed to reproduce one sweep; its checks pass tau and the epsilon axis
    stop, the largest |epsilon|, to ``qdot.check_dot``, so no cell's currents overflow."""

    branch: Branch
    strength_axis: AxisSpec
    epsilon_axis: AxisSpec
    tau: float
    temperature: float
    zero_tol: float = ZERO_TOL

    def __post_init__(self):
        if not isinstance(self.branch, Branch):
            raise ValueError(f"branch must be a Branch, got {self.branch!r}")
        for axis, name in ((self.strength_axis, "strength"), (self.epsilon_axis, "epsilon")):
            if axis.steps < 2:
                raise ValueError(f"{name} axis needs at least 2 steps")
            if not isinstance(axis.steps, (int, np.integer)):  # a bool is < 2, refused above
                raise ValueError(f"{name} axis steps must be an integer")
            if not (math.isfinite(axis.start) and math.isfinite(axis.stop)):
                raise ValueError(f"{name} axis bounds must be finite")
            if not (axis.start < axis.stop):
                raise ValueError(f"{name} axis must have start < stop")
        if not (0.0 <= self.strength_axis.start and self.strength_axis.stop <= 1.0):
            raise ValueError("strength axis must lie within [0, 1]")
        if self.epsilon_axis.start <= 0.0:
            raise ValueError("epsilon axis must be positive")
        check_temperature(self.temperature)
        check_dot(self.epsilon_axis.stop, self.tau)  # the axis bounds are finite by now
        check_zero_tol(self.zero_tol)


@dataclass(frozen=True)
class SweepCell:
    strength: float
    epsilon: float
    result: Classification


@dataclass(frozen=True, eq=False)
class SweepCells:
    """The cells of a grid sweep: the two axis vectors and six (ne, ns) arrays.

    Row ``i`` holds the cells at ``epsilons[i]``, column ``j`` those at
    ``strengths[j]``. ``mode`` holds ``classify_grid``'s codes, indices into
    ``MODES``; ``performance`` and ``raw_cop`` are its object arrays of floats
    and None; ``Qh``, ``Qc`` and ``W`` are float64 (a broadcast view will do).
    ``len`` is the cell count; iteration yields each ``SweepCell`` in row-major
    order and an integer index (negative ones too) reads one, each built only
    when it is read. ``==`` is identity: tests compare grids with
    ``reference.same``.
    """

    strengths: np.ndarray
    epsilons: np.ndarray
    mode: np.ndarray
    performance: np.ndarray
    raw_cop: np.ndarray
    Qh: np.ndarray
    Qc: np.ndarray
    W: np.ndarray

    def _fields(self) -> tuple[np.ndarray, ...]:
        return self.mode, self.performance, self.raw_cop, self.Qh, self.Qc, self.W

    def __len__(self) -> int:
        return self.mode.size

    def __getitem__(self, index: int) -> SweepCell:
        row, column = divmod(range(len(self))[index], len(self.strengths))
        return _cell(self.strengths.item(column), self.epsilons.item(row),
                     *(field.item(row, column) for field in self._fields()))

    def __iter__(self):
        strengths = self.strengths.tolist()
        for row, epsilon in enumerate(self.epsilons.tolist()):
            yield from map(_cell, strengths, repeat(epsilon),
                           *(field[row].tolist() for field in self._fields()))


def _cell(strength, epsilon, mode, performance, raw_cop, qh, qc, w) -> SweepCell:
    return SweepCell(strength, epsilon,
                     Classification(MODES[mode], qh, qc, w, performance, raw_cop))


@dataclass(frozen=True)
class SweepResult:
    spec: GridSpec
    cells: SweepCells

    @property
    def counts(self) -> dict[Mode, int]:
        """The number of cells in each mode, counted from the grid's mode codes."""
        return dict(zip(MODES, np.bincount(_grid(self).mode.flat, minlength=len(MODES)).tolist()))


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepResult:
    """Evaluate the full grid in one array pass.

    ``workers`` is kept for compatibility: it must be >= 1 and is otherwise
    ignored, because no thread is started.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    strengths, epsilons = spec.strength_axis.points(), spec.epsilon_axis.points()
    _, currents = branch_points(spec.branch, epsilons[:, None], spec.tau, spec.temperature,
                                strengths)
    qh, qc, w = (np.broadcast_to(x, (len(epsilons), len(strengths))) for x in currents)
    codes, perf, raw = classify_grid(qh, qc, w, spec.zero_tol)
    return SweepResult(spec, SweepCells(strengths, epsilons, codes, perf, raw, qh, qc, w))


def mode_area_fractions(result: SweepResult) -> dict[Mode, float]:
    """Fraction of grid cells in each mode (equal cell weighting)."""
    total = len(result.cells)
    return {m: n / total for m, n in result.counts.items()}


# One CSV row and one element of the JSON "cells" array as
# json.dumps(..., indent=2) lays it out, with a %s slot per field of
# CSV_COLUMNS. No CSV field can hold a comma, quote or newline, so the rows
# are exactly what csv.writer would write: no field is ever quoted.
_CSV_CELL = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"
_JSON_CELL = "    {\n" + ",\n".join(f'      "{c}": %s' for c in CSV_COLUMNS) + "\n    }"


def _grid(result: SweepResult) -> SweepCells:
    """``result.cells`` if they are ``SweepCells`` of ``result.spec``'s shape (ne, ns)."""
    shape = (result.spec.epsilon_axis.steps, result.spec.strength_axis.steps)
    cells = result.cells
    if not (isinstance(cells, SweepCells) and cells.mode.shape == shape):
        raise ValueError(f"result.cells must be the SweepCells of a {shape[0]} x {shape[1]} "
                         "(epsilon x strength) grid, as run_sweep makes them")
    return cells


def _format_cells(c: SweepCells, cell: str, sep: str, slot: str, feed, mode_text: tuple,
                  performance):
    """Yield the text of grid ``c``'s cells laid out by ``cell``, one string per grid row.

    Cells are joined by ``sep``, so every row after the first starts with it.
    ``feed`` turns a list of floats into the items that ``slot`` formats, one
    per float, so a float's text is ``slot % tuple(feed([x]))``. Every strength
    is formatted once, each row's epsilon once, and so is each current whose
    bits are the same across a row; those texts are built into one ``%``
    template per row. The other currents take ``slot`` and the items of
    ``feed(row)``; the mode is its code's ``mode_text`` and the performance is
    ``performance(row)``, each row a list of floats (and None).
    """
    def text(x: float) -> str:
        return slot % tuple(feed([x]))

    pre, post = cell.split("%s", 1)  # pre leads up to the strength
    strengths = [slot % (s,) for s in feed(c.strengths.tolist())]
    currents = (c.Qh, c.Qc, c.W)
    # Bit patterns, not ==, decide: 0.0 and -0.0 stay apart, and only NaNs with one bits merge.
    constant = [(b == b[:, :1]).all(axis=1).tolist()
                for b in (current.view(np.int64) for current in currents)]
    for row, epsilon in enumerate(c.epsilons.tolist()):
        slots = []
        fields = [map(mode_text.__getitem__, c.mode[row].tolist()),
                  performance(c.performance[row].tolist())]
        for current, same in zip(currents, constant):
            if same[row]:
                slots.append(text(current.item(row, 0)))
            else:
                slots.append(slot)
                fields.append(feed(current[row].tolist()))
        tail = post % (text(epsilon), "%s", "%s", *slots)
        template = (sep if row else "") + pre + (tail + sep + pre).join(strengths) + tail
        yield template % tuple(chain.from_iterable(zip(*fields)))


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    """Write the header and one ``CSV_COLUMNS`` row per cell, each grid row as soon as
    it is formatted; nothing is written if ``result.cells`` fails the shape check.
    """
    rows = _format_cells(
        _grid(result), _CSV_CELL, "", FLOAT_FORMAT, iter, tuple(m.value for m in MODES),
        lambda row: ["" if p is None else FLOAT_FORMAT % p for p in row])
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for text in rows:
        stream.write(text)


def write_json(result: SweepResult, stream: IO[str]) -> None:
    """Write exactly ``json.dumps(to_json_document(result), indent=2) + "\n"``.

    Each row of a field is encoded by one call of the C encoder, which writes
    floats as ``repr`` does and non-finite floats as ``Infinity``,
    ``-Infinity`` and ``NaN``; no token it writes for a float or None
    contains ``", "``, so splitting on it gives one token per cell. No finite
    check is needed: a ``GridSpec``'s axes are finite, ``qdot.check_dot`` bounds
    each current by 2E, engine eta <= 2 and kappa lies in [0, 1]. As in
    ``write_csv``, each grid row is written as soon as it is formatted.
    """
    import json  # here, not at the top, so that importing the package loads no json

    def tokens(values: list) -> list[str]:
        return json.dumps(values)[1:-1].split(", ")

    rows = _format_cells(_grid(result), _JSON_CELL, ",\n", "%s", tokens,
                         tuple(json.dumps(m.value) for m in MODES), tokens)
    head = json.dumps(_document(result, []), indent=2)
    # head ends with '"cells": []\n}'; the rows go between the brackets.
    stream.write(head[:-len("[]\n}")] + "[\n")
    for text in rows:
        stream.write(text)
    stream.write("\n  ]\n}\n")


def _document(result: SweepResult, cells: list) -> dict:
    spec = result.spec
    counts, fractions = result.counts, mode_area_fractions(result)
    return {
        "schema": 1,
        "grid": {
            "branch": spec.branch.value,
            "strength": asdict(spec.strength_axis),
            "epsilon": asdict(spec.epsilon_axis),
            "tau": spec.tau,
            "temperature": spec.temperature,
            "zero_tol": spec.zero_tol,
        },
        "performance_convention": dict(PERFORMANCE_CONVENTION),
        "summary": {
            "counts": {m.value: counts[m] for m in Mode},
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
