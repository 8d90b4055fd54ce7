import dataclasses
import io
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from dqdcycle import cli, sweep
from dqdcycle.qdot import DotParams
from dqdcycle.regimes import MODES, Branch, Mode, classify, engine_branch_quantities
from dqdcycle.sweep import (
    AxisSpec,
    CSV_COLUMNS,
    FLOAT_FORMAT,
    GridSpec,
    SCHEMA,
    SweepCells,
    mode_area_fractions,
    run_sweep,
    to_json_document,
    write_csv,
    write_json,
)
from reference import evaluate_cell, grid_cells, same

FLOAT_FIELD = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def csv_text(result):
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue()


def json_text(result):
    buf = io.StringIO()
    write_json(result, buf)
    return buf.getvalue()


def json_reference(result):
    """The bytes ``write_json`` must write: the document built from the spec and one cell at
    a time, through the stock encoder."""
    spec, cells = result.spec, list(result.cells)
    counts = {m.value: sum(c.result.mode is m for c in cells) for m in Mode}
    document = {
        "schema": SCHEMA,
        "grid": {"branch": spec.branch.value,
                 "strength": dataclasses.asdict(spec.strength_axis),
                 "epsilon": dataclasses.asdict(spec.epsilon_axis),
                 "tau": spec.tau, "temperature": spec.temperature, "zero_tol": spec.zero_tol},
        "performance_convention": {"engine": "eta", "refrigerator": "kappa",
                                   "accelerator": "kappa", "heater": "kappa"},
        "summary": {"counts": counts,
                    "area_fractions": {m: n / len(cells) for m, n in counts.items()}},
        "cells": [{"strength": c.strength, "epsilon": c.epsilon, "mode": c.result.mode.value,
                   "performance": c.result.performance,
                   "Qh": c.result.Qh, "Qc": c.result.Qc, "W": c.result.W} for c in cells],
    }
    return json.dumps(document, indent=2) + "\n"


def csv_reference(result):
    """The bytes ``write_csv`` must write, formatted one cell and one field at a time."""

    def text(x):
        return "%.12e" % x

    lines = [",".join(CSV_COLUMNS)]
    for cell in result.cells:
        r = cell.result
        performance = "" if r.performance is None else text(r.performance)
        lines.append(",".join([text(cell.strength), text(cell.epsilon), r.mode.value,
                               performance, text(r.Qh), text(r.Qc), text(r.W)]))
    return "\n".join(lines) + "\n"


def with_cells(result, cells):
    """``result`` with a list of ``cells`` on its grid, as ``reference.grid_cells`` arrays;
    its counts follow, as they are read from the new mode codes."""
    return dataclasses.replace(result, cells=grid_cells(result.spec, list(cells)))


def edited(cell, **changes):
    return dataclasses.replace(cell, result=dataclasses.replace(cell.result, **changes))


def small_spec(branch=Branch.ENGINE, tau=0.0, temperature=1.0, steps=5):
    return GridSpec(
        branch=branch,
        strength_axis=AxisSpec(0.0, 1.0, steps),
        epsilon_axis=AxisSpec(0.5, 2.0, steps),
        tau=tau,
        temperature=temperature,
    )


def test_axis_points_inclusive():
    pts = AxisSpec(0.0, 1.0, 5).points()
    np.testing.assert_allclose(pts, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert pts[0] == 0.0 and pts[-1] == 1.0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(strength_axis=AxisSpec(0.0, 1.0, 1)), "at least 2 steps"),
        (dict(strength_axis=AxisSpec(0.8, 0.2, 5)), "start < stop"),
        (dict(strength_axis=AxisSpec(-0.1, 1.0, 5)), r"within \[0, 1\]"),
        (dict(epsilon_axis=AxisSpec(0.0, 1.0, 5)), "positive"),
        (dict(epsilon_axis=AxisSpec(-1.0, 1.0, 5)), "positive"),
        (dict(temperature=0.0), "temperature"),
        (dict(zero_tol=-1e-3), "zero_tol"),
        (dict(zero_tol=math.nan), "zero_tol"),
        (dict(zero_tol=math.inf), "zero_tol"),
        (dict(tau=math.nan), "tau"),
        (dict(tau=math.inf), "tau"),
        (dict(epsilon_axis=AxisSpec(0.5, math.inf, 3)), "epsilon axis"),
        (dict(epsilon_axis=AxisSpec(math.nan, 2.0, 3)), "epsilon axis"),
        (dict(strength_axis=AxisSpec(math.nan, 1.0, 3)), "strength axis"),
        (dict(strength_axis=AxisSpec(0.0, 1.0, 5.0)), "strength axis steps must be an integer"),
        (dict(epsilon_axis=AxisSpec(0.5, 2.0, np.float64(3))),
         "epsilon axis steps must be an integer"),
        (dict(branch="engine"), "branch must be a Branch, got 'engine'"),
        (dict(branch=None), "branch must be a Branch, got None"),
    ],
)
def test_grid_spec_validation(kwargs, message):
    base = dict(
        branch=Branch.ENGINE,
        strength_axis=AxisSpec(0.0, 1.0, 5),
        epsilon_axis=AxisSpec(0.5, 2.0, 5),
        tau=0.0,
        temperature=1.0,
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=message):
        GridSpec(**base)


def test_minimal_grid_has_four_cells():
    spec = GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 2), AxisSpec(0.5, 2.0, 2), 0.0, 1.0)
    result = run_sweep(spec)
    assert result.cells.mode.size == 4
    assert sum(result.counts.values()) == 4


def test_row_major_order_epsilon_outer():
    result = run_sweep(small_spec(steps=3))
    strengths = [c.strength for c in result.cells]
    epsilons = [c.epsilon for c in result.cells]
    assert strengths == [0.0, 0.5, 1.0] * 3
    assert epsilons == [0.5] * 3 + [1.25] * 3 + [2.0] * 3


def test_cell_matches_direct_classification():
    spec = small_spec()
    cell = evaluate_cell(spec, strength=0.7, epsilon=1.0)
    qc, qh, w = engine_branch_quantities(DotParams(1.0, 0.0), 1.0, 0.7)
    direct = classify(qh, qc, w)
    assert cell.result.mode is direct.mode
    assert cell.result.performance == direct.performance


def test_fractions_sum_to_one():
    result = run_sweep(small_spec(steps=7))
    fractions = mode_area_fractions(result)
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(f >= 0.0 for f in fractions.values())


def test_workers_must_be_positive():
    with pytest.raises(ValueError, match="workers"):
        run_sweep(small_spec(), workers=0)


def test_counts_follow_an_edited_mode():
    """The counts are read from the mode codes, so flipping one cell's mode moves one
    count in ``result.counts`` and in the JSON summary alike."""
    result = run_sweep(small_spec(steps=4))
    cells = list(result.cells)
    old = cells[5].result.mode
    new = Mode.ACCELERATOR if old is Mode.HEATER else Mode.HEATER
    cells[5] = edited(cells[5], mode=new)
    changed = with_cells(result, cells)
    bincount = np.bincount(changed.cells.mode.ravel(), minlength=len(MODES)).tolist()
    assert changed.counts == dict(zip(MODES, bincount))
    assert changed.counts[new] == result.counts[new] + 1
    assert changed.counts[old] == result.counts[old] - 1
    tally = {m.value: sum(c.result.mode is m for c in cells) for m in Mode}
    summary = json.loads(json_text(changed))["summary"]
    assert summary["counts"] == tally
    assert summary["area_fractions"] == {m: n / 16 for m, n in tally.items()}
    assert mode_area_fractions(changed) == {m: n / 16 for m, n in changed.counts.items()}


@pytest.mark.parametrize("x", [-0.0, 5e-324, 1e308, math.inf])
def test_sweep_csv_and_cli_reports_write_a_float_alike(x):
    """``FLOAT_FORMAT`` is the one float text of sweep CSV columns and CSV reports: for a
    current constant along a row, one that varies, the performance and a report value."""
    result = run_sweep(small_spec(steps=2))
    values = [x, x, x, 2.0]  # row 0 is constant, row 1 is not
    cells = [edited(c, performance=v, Qh=v, Qc=v, W=v) for c, v in zip(result.cells, values)]
    rows = [row.split(",") for row in csv_text(with_cells(result, cells)).splitlines()[1:]]
    text = FLOAT_FORMAT % x
    assert text == f"{x:.12e}"
    assert [row[3:] for row in rows] == [[FLOAT_FORMAT % v] * 4 for v in values]
    assert [row[:2] for row in rows] == [[FLOAT_FORMAT % c.strength, FLOAT_FORMAT % c.epsilon]
                                         for c in cells]
    if math.isfinite(x):
        assert dict(cli._flatten({"x": x, "list": [x, 2.0]})) == {
            "x": text, "list": f"{text};{FLOAT_FORMAT % 2.0}"}
        assert cli._report({"x": x, "list": [x]}, "csv") == f"x,{text}\nlist,{text}\n"
    else:  # a report refuses inf as it formats it
        with pytest.raises(ValueError, match="^x is inf: a report holds finite numbers only$"):
            dict(cli._flatten({"x": x, "list": [x, 2.0]}))


def test_csv_shape_and_header():
    result = run_sweep(small_spec(steps=4))
    buf = io.StringIO()
    write_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "strength,epsilon,mode,performance,Qh,Qc,W"
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 16


def test_csv_numeric_fields_have_13_significant_digits():
    result = run_sweep(small_spec(steps=3))
    buf = io.StringIO()
    write_csv(result, buf)
    for line in buf.getvalue().splitlines()[1:]:
        fields = line.split(",")
        for field in (fields[0], fields[1], *fields[4:]):
            assert FLOAT_FIELD.match(field), field
        if fields[3]:
            assert FLOAT_FIELD.match(fields[3])


def test_csv_undefined_rows_have_empty_performance():
    # tau = 0 kills the minus branch: every cell is undefined
    spec = small_spec(branch=Branch.REFRIGERATOR_MINUS, tau=0.0, temperature=2.0)
    result = run_sweep(spec)
    assert all(c.result.mode is Mode.UNDEFINED for c in result.cells)
    buf = io.StringIO()
    write_csv(result, buf)
    for line in buf.getvalue().splitlines()[1:]:
        assert line.split(",")[3] == ""


def test_csv_round_trips_grid_coordinates():
    result = run_sweep(small_spec(steps=3))
    buf = io.StringIO()
    write_csv(result, buf)
    rows = buf.getvalue().splitlines()[1:]
    firsts = [float(r.split(",")[0]) for r in rows[:3]]
    assert firsts == [0.0, 0.5, 1.0]


def test_parallel_matches_serial(monkeypatch, oracle_sweep):
    """``workers`` is accepted and ignored: no thread starts and the bytes never change."""

    def no_thread(*args, **kwargs):
        raise AssertionError("run_sweep started a thread")

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    spec = small_spec(branch=Branch.REFRIGERATOR_PLUS, tau=0.2, temperature=2.0, steps=9)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=8)
    buf_s, buf_p = io.StringIO(), io.StringIO()
    write_csv(serial, buf_s)
    write_csv(parallel, buf_p)
    assert buf_s.getvalue() == buf_p.getvalue()
    assert buf_s.getvalue() == csv_text(oracle_sweep(spec))
    with pytest.raises(ValueError, match="workers"):
        run_sweep(spec, workers=0)


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e6])
@pytest.mark.parametrize("zero_tol", [0.0, 1e-12])
@pytest.mark.parametrize("temperature", [0.05, 1.0, 6.0])
@pytest.mark.parametrize("tau", [0.0, 0.2, -0.4])
@pytest.mark.parametrize("branch", list(Branch))
def test_grid_matches_scalar_oracle(branch, tau, temperature, zero_tol, scale, oracle_sweep):
    """The array pass equals ``reference.evaluate_cell`` cell by cell, with no numpy warning.

    Energies are scaled together, so each scale shows the same physics; the
    minus branch at tau = 0 is the all-undefined case.
    """
    spec = GridSpec(branch, AxisSpec(0.0, 1.0, 13), AxisSpec(0.05 * scale, 3.0 * scale, 11),
                    tau * scale, temperature * scale, zero_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(spec)
        oracle = oracle_sweep(spec)
    assert same(result.cells, oracle.cells)
    assert result.counts == oracle.counts
    assert csv_text(result) == csv_text(oracle)
    assert json_text(result) == json_reference(result) == json_text(oracle) == json_reference(oracle)


def test_current_equal_to_zero_tol_is_undefined(oracle_sweep):
    # tau = 0 engine branch: W = 2 eps (1 - 2a) is exactly +-0.5 at
    # (eps, a) = (0.5, 0.25), (0.5, 0.75), (1, 0.375) and (1, 0.625).
    spec = GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 9), AxisSpec(0.5, 2.0, 4), 0.0, 1.0,
                    zero_tol=0.5)
    result = run_sweep(spec)
    boundary = [c for c in result.cells if abs(c.result.W) == 0.5]
    assert len(boundary) == 4
    assert all(c.result.mode is Mode.UNDEFINED for c in boundary)
    assert same(result.cells, oracle_sweep(spec).cells)


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize(
    "epsilon_axis, tau",
    [
        (AxisSpec(1e-320, 2e-320, 3), 1.0),  # subnormal detuning: a COP overflows to inf
        (AxisSpec(1e307, 1.7e308, 4), 0.0),  # past the ledger scale bound: refused
        (AxisSpec(1e307, sys.float_info.max / 4.0, 4), 0.0),  # at the bound: E up to DBL_MAX/4
    ],
)
def test_grid_follows_oracle_at_float_range_edges(branch, epsilon_axis, tau, oracle_sweep):
    """Same output, warnings and errors as the scalar route, where float arithmetic overflows
    or nearly does. A grid whose currents could overflow is refused at construction."""
    make_spec = partial(GridSpec, branch, AxisSpec(0.0, 1.0, 5), epsilon_axis, tau, 1.0,
                        zero_tol=0.0)
    if epsilon_axis.stop > sys.float_info.max / 4.0:
        with pytest.raises(ValueError, match="^epsilon and tau too large: "):
            make_spec()
        return
    spec = make_spec()

    def outcome(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = run(spec)
            except ValueError as exc:
                texts = (repr(exc),)
            else:
                texts = (csv_text(result), json_text(result))
                assert texts[1] == json_reference(result)
        return texts, sorted({str(w.message) for w in caught})

    assert outcome(run_sweep) == outcome(oracle_sweep)


def test_json_document_layout():
    spec = small_spec(steps=4)
    result = run_sweep(spec)
    doc = to_json_document(result)
    assert doc["schema"] == SCHEMA == 1
    assert doc["grid"]["branch"] == "engine"
    assert doc["grid"]["strength"] == {"start": 0.0, "stop": 1.0, "steps": 4}
    assert doc["performance_convention"] == {
        "engine": "eta",
        "refrigerator": "kappa",
        "accelerator": "kappa",
        "heater": "kappa",
    }
    assert len(doc["cells"]) == 16
    assert sum(doc["summary"]["counts"].values()) == 16
    assert doc["summary"]["counts"].keys() == {m.value for m in Mode}
    undefined = [c for c in doc["cells"] if c["mode"] == "undefined"]
    assert all(c["performance"] is None for c in undefined)


def test_cells_behave_as_the_oracle_list(oracle_sweep):
    """The grid has the cell count, row-major iteration and integer indexing of the scalar
    route's plain list of cells, and so has the oracle's grid."""
    spec = small_spec(branch=Branch.REFRIGERATOR_PLUS, tau=0.2, temperature=2.0, steps=4)
    cells = run_sweep(spec).cells
    expected = [evaluate_cell(spec, s, e) for e in spec.epsilon_axis.points().tolist()
                for s in spec.strength_axis.points().tolist()]
    assert type(cells) is SweepCells and list(oracle_sweep(spec).cells) == expected
    assert cells.mode.size == len(expected) == 16
    assert [cells[i] for i in range(16)] == expected
    assert [cells[-i] for i in range(1, 17)] == expected[::-1]
    for index in (16, -17):
        with pytest.raises(IndexError):
            cells[index]
    assert list(cells) == expected
    assert [(c.epsilon, c.strength) for c in cells] == [
        (e, s) for e in spec.epsilon_axis.points().tolist()
        for s in spec.strength_axis.points().tolist()]


def test_replaced_cells_reach_both_writers():
    result = run_sweep(small_spec(steps=4))
    cells = list(result.cells)
    cell = cells[5]
    cells[5] = edited(cell, mode=Mode.HEATER, Qh=123.5, performance=None)
    changed = with_cells(result, cells)
    assert list(changed.cells) == cells and changed.cells[5].result.Qh == 123.5

    old_rows, new_rows = csv_text(result).splitlines(), csv_text(changed).splitlines()
    assert [i for i, (a, b) in enumerate(zip(old_rows, new_rows)) if a != b] == [6]
    assert new_rows[6].split(",")[2:5] == ["heater", "", "1.235000000000e+02"]

    text = json_text(changed)
    assert text == json_reference(changed) != json_text(result)
    assert json.loads(text)["cells"][5] == {
        "strength": cell.strength, "epsilon": cell.epsilon, "mode": "heater",
        "performance": None, "Qh": 123.5, "Qc": cell.result.Qc, "W": cell.result.W}


# 7 strengths x 5 epsilons: a writer that swaps (ne, ns) cannot pass on it.
def non_square_spec(branch, tau, temperature=2.0):
    return GridSpec(branch, AxisSpec(0.0, 1.0, 7), AxisSpec(0.5, 2.0, 5), tau, temperature)


def stress_results():
    """Results, edited as lists, whose rows defeat any merge of values that are not
    bit-identical."""
    plus = run_sweep(non_square_spec(Branch.REFRIGERATOR_PLUS, 0.1))
    cells = list(plus.cells)
    assert len({c.result.W for c in cells[7:14]}) == 1  # W is one value per row here
    for i in range(7, 14):  # row 1: W of 0.0 and -0.0, equal under == but not in bits
        cells[i] = edited(cells[i], W=0.0 if i % 2 else -0.0)
    for i in range(14, 21):  # row 2: non-finite currents, W one NaN all along
        cells[i] = edited(cells[i], Qh=(math.inf, -math.inf, math.nan)[i % 3],
                          Qc=math.nan, W=math.nan)
    cells[24] = edited(cells[24], W=cells[24].result.W * 2)  # row 3 is no longer constant
    cells[30] = edited(cells[30], W=-0.0)
    engine = run_sweep(non_square_spec(Branch.ENGINE, 0.2, 1.0))
    minus = run_sweep(non_square_spec(Branch.REFRIGERATOR_MINUS, 0.0))
    return {"edited plus": with_cells(plus, cells), "engine": with_cells(engine, engine.cells),
            "minus at tau 0": with_cells(minus, minus.cells)}


@pytest.mark.parametrize("name", ["edited plus", "engine", "minus at tau 0"])
def test_writers_equal_per_cell_references_under_stress(name):
    result = stress_results()[name]
    assert result.cells.mode.size == 35
    csv_out = csv_text(result)
    assert csv_out == csv_reference(result)
    assert json_text(result) == json_reference(result)
    assert same(to_json_document(result), json.loads(json_reference(result)))
    rows = csv_out.splitlines()[1:]
    if name == "edited plus":
        assert [r.split(",")[6] for r in rows[7:14]] == [
            "0.000000000000e+00", "-0.000000000000e+00"] * 3 + ["0.000000000000e+00"]
        assert {r.split(",")[4] for r in rows[14:21]} == {"inf", "-inf", "nan"}
    if name == "minus at tau 0":
        assert all(c.result.mode is Mode.UNDEFINED for c in result.cells)


# The SweepCells fields indexed by epsilon first.
ROW_FIELDS = ("epsilons", "mode", "performance", "raw_cop", "Qh", "Qc", "W")


def unwritable_cases():
    """Results whose cells are not ``SweepCells`` of the 5 x 7 shape of their spec."""
    spec = non_square_spec(Branch.ENGINE, 0.2, 1.0)
    result = run_sweep(spec)
    cells = result.cells

    def rows(edit):
        return dataclasses.replace(result, cells=dataclasses.replace(
            cells, **{name: edit(getattr(cells, name)) for name in ROW_FIELDS}))

    epsilon_inner = dataclasses.replace(
        cells, strengths=cells.epsilons, epsilons=cells.strengths,
        **{name: getattr(cells, name).T for name in ROW_FIELDS[1:]})
    transposed = GridSpec(spec.branch, AxisSpec(0.0, 1.0, 5), AxisSpec(0.5, 2.0, 7),
                          spec.tau, spec.temperature)
    return {
        "plain list": dataclasses.replace(result, cells=list(cells)),
        "empty": dataclasses.replace(result, cells=[]),
        "transposed spec": dataclasses.replace(result, spec=transposed),
        "missing": rows(lambda a: a[:-1]),  # one epsilon row short
        "extra": rows(lambda a: np.concatenate([a, a[:1]])),  # one epsilon row too many
        "epsilon inner": dataclasses.replace(result, cells=epsilon_inner),  # a 7 x 5 grid
    }


def read_counts(result, stream):
    return result.counts


def read_document(result, stream):
    return to_json_document(result)


@pytest.mark.parametrize("writer", [write_csv, write_json, read_counts, read_document])
@pytest.mark.parametrize("name", ["plain list", "empty", "transposed spec", "missing", "extra",
                                  "epsilon inner"])
def test_writers_refuse_cells_off_the_grid(writer, name):
    """Cells that are not ``SweepCells`` of ``result.spec``'s shape write nothing, and
    have no counts (those are read from the grid's mode codes) and no document."""
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"^result.cells must be the SweepCells of a \d+ x \d+ "):
        writer(unwritable_cases()[name], buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("branch", list(Branch))
def test_writers_never_read_a_cell(branch, monkeypatch):
    """Both writers and ``to_json_document`` format from the arrays alone, to the per-cell
    references' bytes and document."""
    result = run_sweep(non_square_spec(branch, 0.1))
    expected = (csv_reference(result), json_reference(result))
    document = json.loads(expected[1])

    def no_cell(*args):
        raise AssertionError("a writer read a cell")

    monkeypatch.setattr(SweepCells, "__iter__", no_cell)
    monkeypatch.setattr(SweepCells, "__getitem__", no_cell)
    assert (csv_text(result), json_text(result)) == expected
    assert same(to_json_document(result), document)


class CountingSink:
    """A stream that keeps no text, only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


# The engine map keeps the plain writer ids; the refrigerator map's ids name it.
@pytest.mark.parametrize("writer, branch, tau, temperature", [
    pytest.param(writer, *grid, id=writer.__name__ + suffix)
    for grid, suffix in [((Branch.ENGINE, 0.2, 1.0), ""),
                         ((Branch.REFRIGERATOR_PLUS, 0.1, 2.0), "-refrigerator-plus")]
    for writer in (write_csv, write_json)])
def test_writers_hold_a_row_not_the_file(writer, branch, tau, temperature):
    """Writing a 401 x 101 map takes less than a tenth of its text in traced memory:
    each grid row is written as soon as it is formatted. On the refrigerator map W is
    the same along every row, so it is formatted once per row."""
    result = run_sweep(GridSpec(branch, AxisSpec(0.0, 1.0, 101),
                                AxisSpec(0.05, 3.0, 401), tau, temperature))
    w = result.cells.W.view(np.int64)
    assert bool((w == w[:, :1]).all()) is (branch is Branch.REFRIGERATOR_PLUS)
    sink = CountingSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        writer(result, sink)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.size > 4_000_000  # every character is ASCII, so one byte
    assert peak < sink.size / 10, (peak, sink.size)


# 51 x 51 maps over epsilon in [0.1, 3], one per branch at one of its standard (tau, T).
SCALED_MAPS = [(Branch.ENGINE, 0.2, 1.0), (Branch.REFRIGERATOR_PLUS, 0.1, 2.0),
               (Branch.REFRIGERATOR_MINUS, 0.5, 4.0)]


def scaled_cells(branch, tau, temperature, k):
    """The cells of a 51 x 51 map with the epsilon axis, tau and T multiplied by 2^k."""
    factor = math.ldexp(1.0, k)
    return run_sweep(GridSpec(branch, AxisSpec(0.0, 1.0, 51),
                              AxisSpec(0.1 * factor, 3.0 * factor, 51),
                              tau * factor, temperature * factor)).cells


@pytest.mark.parametrize("k", [-60, -30, 20, 700])
@pytest.mark.parametrize("branch, tau, temperature", SCALED_MAPS)
def test_sweep_energies_scale_exactly(branch, tau, temperature, k):
    """Multiplying every energy by 2^k multiplies each epsilon point and current by 2^k,
    with no rounding: scaling by a power of two is exact, and so is every + - * / after
    it, while hypot scales and E/T does not change."""
    base = scaled_cells(branch, tau, temperature, 0)
    scaled = scaled_cells(branch, tau, temperature, k)
    factor = math.ldexp(1.0, k)
    assert np.array_equal(scaled.strengths, base.strengths)
    for name in ("epsilons", "Qh", "Qc", "W"):
        assert np.array_equal(getattr(scaled, name), factor * getattr(base, name)), name


@pytest.mark.parametrize("k", [-60, 0, 700])
@pytest.mark.parametrize("branch, tau, temperature", SCALED_MAPS)
def test_sweep_ignores_the_sign_of_tau(branch, tau, temperature, k):
    """tau enters only through E = hypot(epsilon, tau), so -tau gives every array's bits."""
    assert same(scaled_cells(branch, -tau, temperature, k),
                scaled_cells(branch, tau, temperature, k))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: ZERO_TOL is an absolute bound, so whether a current counts as zero "
    "depends on the energy unit. At k = -30, 3, 9 and 4 of the 2,601 cells of the engine, "
    "plus and minus maps change mode; on the minus branch at tau = 0, k = 20 names 274 "
    "cells (engine 121, refrigerator 46, accelerator 107) that are undefined at k = 0."))
@pytest.mark.parametrize("branch, tau, temperature, k", [
    *((branch, tau, temperature, -30) for branch, tau, temperature in SCALED_MAPS),
    (Branch.REFRIGERATOR_MINUS, 0.0, 2.0, 20),
])
def test_sweep_modes_are_scale_invariant(branch, tau, temperature, k):
    """Scaling every energy by 2^k leaves every cell's mode as it was."""
    base = scaled_cells(branch, tau, temperature, 0)
    scaled = scaled_cells(branch, tau, temperature, k)
    changed = int((scaled.mode != base.mode).sum())
    assert changed == 0, f"{changed} of {base.mode.size} cells change mode"
