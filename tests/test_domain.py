"""The domain checks on (epsilon, tau, T, a, b), run through every entry point.

One table of bad values goes through each constructor, kernel and CLI
subcommand that takes them. Each must refuse a value with the same
``ValueError`` text, and where an input is bad in two ways, the check that
comes first in that entry point's order wins. ``test_domain_lives_in_qdot``
scans the sources: the checks and the transcendentals E = hypot(epsilon,
tau), theta and tanh(E/T) are written once, in ``qdot``.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dqdcycle import cli
from dqdcycle.channels import MeasurementChannel, Orientation
from dqdcycle.qdot import DotParams, gibbs_state
from dqdcycle.regimes import Branch, branch_points
from dqdcycle.sweep import AxisSpec, GridSpec
from dqdcycle.thermo import CycleInputs, run_cycle_closed_form_batch, run_cycle_matrix_batch

SRC = Path(__file__).resolve().parents[1] / "src" / "dqdcycle"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

DOT = "epsilon and tau must be finite"
SCALE = ("epsilon and tau too large: the cycle ledgers need"
         " hypot(epsilon, tau) <= 4.49423e+307")
TEMPERATURE = "temperature must be positive"
BAD_DOT = [math.nan, math.inf, -math.inf]
BAD_TEMPERATURE = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]
BAD_UNIT = [-0.1, 1.5, math.nan, math.inf, -math.inf]
GOOD = {"epsilon": 1.0, "tau": 0.5, "temperature": 2.0, "a": 0.3, "b": 0.6}

# (column, bad value, message): every bad value of one input, alone.
SINGLE = [
    *[(name, v, DOT) for name in ("epsilon", "tau") for v in BAD_DOT],
    *[("temperature", v, TEMPERATURE) for v in BAD_TEMPERATURE],
    *[(name, v, f"{name} must be in [0, 1]") for name in ("a", "b") for v in BAD_UNIT],
]
# Two inputs bad at once; the message of the first check wins.
DOUBLE = [
    ({"epsilon": math.nan, "temperature": 0.0}, DOT),
    ({"tau": math.inf, "b": 1.5}, DOT),
    ({"temperature": -1.0, "a": math.nan}, TEMPERATURE),
    ({"temperature": math.inf, "b": -0.1}, TEMPERATURE),
    ({"a": 1.5, "b": math.nan}, "a must be in [0, 1]"),
]
# Finite values past the ledger scale bound, alone and with a temperature whose check
# comes later. They come after DOUBLE so that the cases above keep their places, and
# their test ids, in the tables built from CASES.
BEYOND = [({"epsilon": 1e308}, SCALE), ({"tau": -1e308}, SCALE),
          ({"epsilon": 1e308, "temperature": 0.0}, SCALE)]
CASES = [({name: value}, message) for name, value, message in SINGLE] + DOUBLE + BEYOND


def point(bad: dict) -> dict:
    return {**GOOD, **bad}


def raises(message: str):
    return pytest.raises(ValueError, match="^" + re.escape(message) + "$")


@pytest.mark.parametrize("bad, message", CASES)
def test_constructors(bad, message):
    p = point(bad)
    with raises(message):
        CycleInputs(DotParams(p["epsilon"], p["tau"]), p["temperature"], p["a"], p["b"])


@pytest.mark.parametrize("bad, message", CASES)
@pytest.mark.parametrize("batch_ledger", [run_cycle_closed_form_batch, run_cycle_matrix_batch])
def test_batches(batch_ledger, bad, message):
    rows = np.array([list(GOOD.values())] * 3)
    rows[1] = list(point(bad).values())
    with raises(message):
        batch_ledger(rows)


@pytest.mark.parametrize("bad, message", [(b, m) for b, m in CASES if "b" not in b])
@pytest.mark.parametrize("as_array", [False, True])
def test_branch_points(bad, message, as_array):
    """The engine branch's free strength is a; b = a is not an input there."""
    p = point(bad)
    args = [p[name] for name in ("epsilon", "tau", "temperature", "a")]
    if as_array:
        args = [np.array([GOOD[name], x]) for name, x in zip(GOOD, args)]
    with raises(message):
        branch_points(Branch.ENGINE, *args)


@pytest.mark.parametrize("temperature", BAD_TEMPERATURE)
def test_gibbs_state_and_grid_spec(temperature):
    with raises(TEMPERATURE):
        gibbs_state(DotParams(1.0, 0.5), temperature)
    with raises(TEMPERATURE):
        GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 3), AxisSpec(0.1, 3.0, 3), 0.5, temperature)


@pytest.mark.parametrize("tau", BAD_DOT)
def test_grid_spec_tau(tau):
    """A sweep's tau goes through ``qdot.check_dot``, as every other tau does."""
    with raises(DOT):
        GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 3), AxisSpec(0.1, 3.0, 3), tau, 2.0)


def test_grid_spec_epsilon_stop():
    """The epsilon axis stop, its largest |epsilon|, goes through ``qdot.check_dot`` with
    tau: a grid whose start is in the domain and whose stop is past the bound is refused."""
    with raises(SCALE):
        GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 3), AxisSpec(0.1, 1e308, 3), 0.5, 2.0)


@pytest.mark.parametrize("strength", BAD_UNIT)
def test_measurement_channel(strength):
    for s in (strength, np.array([0.5, strength])):
        with raises("strength must be in [0, 1]"):
            MeasurementChannel(s, Orientation.A)


# (subcommand, inputs it reads): spectrum reads no strength, classify on the engine
# branch reads a alone (b = a there).
COMMANDS = [("spectrum", list(GOOD)[:3]), ("cycle", list(GOOD)), ("classify", list(GOOD)[:4])]
# The BEYOND cases come last here too, after every command's other cases.
CLI_CASES = [(command, names, bad, message)
             for cases in (CASES[:-len(BEYOND)], BEYOND)
             for command, names in COMMANDS
             for bad, message in cases if next(iter(bad)) in names]


@pytest.mark.parametrize("command, names, bad, message", CLI_CASES)
def test_cli(command, names, bad, message, capsys):
    """Each subcommand prints the first failing check's message and exits 2."""
    branch = ["--branch", "engine"] if command == "classify" else []
    p = point(bad)
    argv = [command, *branch, *(f"--{name}={p[name]!r}" for name in names)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("bad, error", [(None, TypeError), (10**400, OverflowError)],
                         ids=["None", "10**400"])
def test_constructors_refuse_what_is_not_a_float(bad, error):
    """A value that is not a real number, or an int too large for a float, is refused at
    construction with the error that converting it to a float raises."""
    for make in (lambda: DotParams(bad, 0.5), lambda: DotParams(1.0, bad),
                 lambda: CycleInputs(DotParams(1.0, 0.5), bad, 0.3, 0.6),
                 lambda: CycleInputs(DotParams(1.0, 0.5), 2.0, bad, 0.6),
                 lambda: CycleInputs(DotParams(1.0, 0.5), 2.0, 0.3, bad),
                 lambda: GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 3), AxisSpec(0.1, 3.0, 3),
                                  0.5, bad),
                 lambda: MeasurementChannel(bad, Orientation.A)):
        with pytest.raises(error):
            make()


def test_domain_lives_in_qdot():
    """No module but ``qdot`` raises the dot's, the temperature's or a unit range's domain
    error, or takes E, theta or tanh(E/T) from ``math`` itself: ``qdot.check_dot``,
    ``check_temperature``, ``check_unit``, ``thermal_factors`` and ``eigenbases`` are
    the one place. The scan covers the package and the scripts. It also looks for the
    message of a tau check that ``GridSpec`` once had, and for the name of
    ``check_ledger_scale``, a scale check apart from ``check_dot`` that front ends once
    had to call."""
    messages = ("epsilon and tau must be finite", "temperature must be positive",
                "tau must be finite")
    names = {"hypot", "tanh", "atan2"}
    found = []
    for path in sorted([*SRC.glob("*.py"), *SCRIPTS.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, "check_ledger_scale") for node in ast.walk(tree)
                  for field in ("id", "attr", "name")
                  if getattr(node, field, None) == "check_ledger_scale"]
        if path.name == "qdot.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                found += [(path.name, c.value) for c in ast.walk(node)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)
                          and (c.value in messages or c.value.startswith(SCALE.split(":")[0])
                               or c.value.endswith("must be in [0, 1]"))]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and isinstance(node.value, ast.Name) and node.value.id == "math"):
                found.append((path.name, f"math.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(path.name, f"math.{a.name}") for a in node.names if a.name in names]
    assert found == []
