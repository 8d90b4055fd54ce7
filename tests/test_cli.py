import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqdcycle import channels, cli, verify
from dqdcycle.channels import kraus_operators
from dqdcycle.regimes import Branch
from dqdcycle.sweep import FLOAT_FORMAT, AxisSpec


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_report(capsys):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0", "--temperature", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == pytest.approx(1.0)
    assert doc["eigenvalues"] == [1.0, -1.0]
    assert doc["populations"]["ground"] == pytest.approx(0.8807970779778824, abs=1e-12)
    assert doc["populations"]["excited"] == pytest.approx(0.11920292202211756, abs=1e-12)
    assert doc["log_partition_function"] == pytest.approx(math.log(2 * math.cosh(1.0)))
    assert doc["degenerate"] is False


def test_spectrum_degenerate_point(capsys):
    assert run_cli("spectrum", "--epsilon", "0", "--tau", "0", "--temperature", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True
    assert doc["populations"] == {"ground": 0.5, "excited": 0.5}


def test_spectrum_with_tunneling(capsys):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0.5", "--temperature", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == pytest.approx(1.118033988749895, abs=1e-12)


def strict_json(text):
    """``json.loads`` that refuses the non-standard tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_spectrum_reports_a_finite_log_partition_function(capsys):
    """At T = 1e-300, Z = 2 cosh(E/T) overflows but ln Z = x + log1p(exp(-2x)) does not;
    at E = 0 it is ln 2."""
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0.5", "--temperature", "1e-300") == 0
    doc = strict_json(capsys.readouterr().out)
    assert "partition_function" not in doc
    assert doc["log_partition_function"] == doc["gap"] / 1e-300
    assert run_cli("spectrum", "--epsilon", "0", "--tau", "0", "--temperature", "1") == 0
    assert strict_json(capsys.readouterr().out)["log_partition_function"] == math.log(2.0)


INFINITE_LN_Z = ("spectrum", "--epsilon", "1", "--tau", "0", "--temperature", "1e-310")
NOT_FINITE = "error: log_partition_function is inf: a report holds finite numbers only\n"


def test_spectrum_refuses_json_it_cannot_write(capsys):
    """E/T overflows at T = 1e-310, so ln Z is inf: no valid JSON holds it, and the
    command exits 2, prints nothing and names the key."""
    assert run_cli(*INFINITE_LN_Z) == 2
    assert capsys.readouterr() == ("", NOT_FINITE)


def test_spectrum_refuses_csv_with_a_non_finite_number(tmp_path, capsys):
    """The CSV report of the same point is refused in the same words, on stdout and as a
    file, which is then not made."""
    assert run_cli(*INFINITE_LN_Z, "--format", "csv") == 2
    assert capsys.readouterr() == ("", NOT_FINITE)
    out = tmp_path / "spectrum.csv"
    assert run_cli(*INFINITE_LN_Z, "--format", "csv", "--output", str(out)) == 2
    assert capsys.readouterr() == ("", NOT_FINITE)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc, message", [
    ({"a": 1.0, "b": {"c": [0.5, -math.inf]}}, "b.c[1] is -inf"),
    ({"states": {"rho1": [[1.0, 0.0], [0.0, math.nan]]}}, "states.rho1[1][1] is nan"),
    ({"x": (1.0, 2.0), "y": {"z": math.inf}}, "y.z is inf"),
])
def test_report_names_the_first_non_finite_number(doc, message, fmt):
    """Dicts give dotted keys and list items [i], nested lists too, in both formats."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}: a report holds finite"):
        cli._report(doc, fmt)


def test_list_items_are_written_as_the_same_values_outside_a_list():
    """A CSV list item is formatted by the scalar rule: None empty, a bool in lower case,
    a float in ``FLOAT_FORMAT``, a nested list's items joined into the same row."""
    scalars = dict(cli._flatten({"n": None, "t": True, "f": 1.5, "g": 2.0, "h": 3.0, "s": "x"}))
    assert dict(cli._flatten({"l": [None, True, 1.5, [2.0, 3.0], "x"]})) == {
        "l": ";".join(scalars.values())}
    assert ";".join(scalars.values()) == (
        f";true;{FLOAT_FORMAT % 1.5};{FLOAT_FORMAT % 2.0};{FLOAT_FORMAT % 3.0};x")
    with pytest.raises(ValueError, match=r"^l\[3\]\[1\] is nan: a report holds finite"):
        dict(cli._flatten({"l": [None, True, 1.5, [2.0, math.nan], "x"]}))


def run_quietly(argv) -> tuple[int, str]:
    """(exit code, stdout) of ``cli.main(argv)``, with stdout and stderr captured, for
    property tests that cannot take the function-scoped ``capsys``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is a fault, to be mended at its source
        code = cli.main(list(argv))
    return code, out.getvalue()


GAP_BOUND = sys.float_info.max / 4.0  # qdot.check_dot admits E = hypot(epsilon, tau) up to it
energy = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                   st.floats(min_value=-GAP_BOUND, max_value=GAP_BOUND),
                   st.sampled_from([GAP_BOUND, -GAP_BOUND, GAP_BOUND / math.sqrt(2.0),
                                    5e-324, 0.0]))
temperature = st.one_of(st.floats(min_value=0.5, max_value=6.0),
                        st.floats(min_value=5e-324, max_value=sys.float_info.max),
                        st.sampled_from([5e-324, 1e-310, 1e-300, sys.float_info.max]))
unit_strength = st.floats(min_value=0.0, max_value=1.0)


@given(command=st.sampled_from(["spectrum", "cycle", "classify"]),
       branch=st.sampled_from([b.value for b in Branch]),
       epsilon=energy, tau=energy, temperature=temperature, a=unit_strength,
       b=unit_strength, zero_tol=st.sampled_from([None, 0.0]))
@example("spectrum", "engine", 1.0, 0.0, 1e-310, 0.5, 0.5, None)  # ln Z = inf: exit 2
@example("classify", "engine", 5e-324, 1.0, 1.0, 0.1, 0.5, 0.0)  # COP = inf: exit 2
@example("classify", "refrigerator-minus", 5e-324, 2.39, 1.0, 0.5, 0.5, 0.0)  # COP = 0
@example("cycle", "engine", GAP_BOUND, 0.0, 5e-324, 0.3, 0.6, None)
@settings(max_examples=120, deadline=None)
def test_reports_are_strict_json_or_refused(command, branch, epsilon, tau, temperature, a,
                                            b, zero_tol):
    """``spectrum``, ``cycle`` and ``classify`` at any admitted point (E up to the bound
    of ``qdot.check_dot``, T from the smallest subnormal to the largest float) exit 0
    with strict JSON, with no NaN or Infinity token, or exit 2 with nothing on stdout;
    the CSV report exits with the same code. ``sweep --format json`` has its own
    property below."""
    argv = [command, f"--epsilon={epsilon!r}", f"--tau={tau!r}",
            f"--temperature={temperature!r}"]
    if command == "cycle":
        argv += [f"--a={a!r}", f"--b={b!r}"]
    elif command == "classify":
        strength = "--a" if branch == "engine" else "--b"
        argv += [f"--branch={branch}", f"{strength}={a!r}"]
        if zero_tol is not None:
            argv.append(f"--zero-tol={zero_tol!r}")
    code, out = run_quietly(argv)
    assert code in (0, 2)
    if code == 0:
        strict_json(out)
    else:
        assert out == ""
    assert run_quietly([*argv, "--format=csv"])[0] == code


positive_energy = st.one_of(st.floats(min_value=5e-324, max_value=3.0),
                            st.floats(min_value=5e-324, max_value=GAP_BOUND),
                            st.sampled_from([5e-324, 1e-310, GAP_BOUND]))


@given(branch=st.sampled_from([b.value for b in Branch]),
       epsilons=st.lists(positive_energy, min_size=2, max_size=2, unique=True).map(sorted),
       tau=energy, temperature=temperature, zero_tol=st.sampled_from([None, 0.0]))
@example("refrigerator-minus", [5e-324, 2e-323], 2.39, 1.0, 0.0)  # COPs that underflow
@example("engine", [5e-324, 2e-323], 1.0, 1.0, 0.0)  # COPs that overflow
@example("engine", [1e307, GAP_BOUND], 0.0, 5e-324, None)
@settings(max_examples=120, deadline=None)
def test_sweeps_are_strict_json_or_refused(branch, epsilons, tau, temperature, zero_tol):
    """``sweep --format json`` on a 3x3 grid at any admitted point (epsilon from the
    smallest subnormal to the bound of ``qdot.check_dot``, extreme tau and T) exits 0
    with a file of strict JSON, with no NaN or Infinity token, or exits 2 and makes
    no file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "map.json"
        argv = ["sweep", f"--branch={branch}", "--grid-strength=0:1:3",
                f"--grid-epsilon={epsilons[0]!r}:{epsilons[1]!r}:3", f"--tau={tau!r}",
                f"--temperature={temperature!r}", "--format=json", f"--output={out}"]
        if zero_tol is not None:
            argv.append(f"--zero-tol={zero_tol!r}")
        code, _ = run_quietly(argv)
        assert code in (0, 2)
        if code == 0:
            assert len(strict_json(out.read_text())["cells"]) == 9
        else:
            assert list(Path(tmp).iterdir()) == []


def test_spectrum_csv_format(capsys):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0", "--temperature", "1",
                   "--format", "csv") == 0
    out = capsys.readouterr().out
    assert "gap,1.000000000000e+00" in out
    assert "populations.ground,8.807970779779e-01" in out
    assert "degenerate,false" in out
    assert "eigenvalues,1.000000000000e+00;-1.000000000000e+00\n" in out


def test_spectrum_missing_flag_is_input_error(capsys):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0") == 2
    assert "temperature" in capsys.readouterr().err


@pytest.mark.parametrize("temperature", ["0", "-1", "nan"])
def test_spectrum_bad_temperature(capsys, temperature):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0",
                   "--temperature", temperature) == 2


# ---------------------------------------------------------------------------
# cycle


def cycle_args(**overrides):
    base = {"epsilon": "1", "tau": "0", "temperature": "1", "a": "0.7", "b": "0.7"}
    base.update(overrides)
    argv = ["cycle"]
    for key, value in base.items():
        argv += [f"--{key}", value]
    return argv


def test_cycle_reports_both_paths(capsys):
    assert run_cli(*cycle_args()) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_discrepancy"] < 1e-12
    assert doc["closed_form"]["dU2"] == pytest.approx(doc["matrix"]["dU2"], abs=1e-12)
    assert abs(doc["energy_closure"]) < 1e-12
    assert doc["states"]["rho2"][0][0] == pytest.approx(0.3, abs=1e-14)


def test_cycle_balanced_strengths(capsys):
    assert run_cli(*cycle_args(a="0.5", b="0.5")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed_form"]["dU3"] == 0.0
    assert doc["closed_form"]["dS3"] == 0.0


def test_cycle_csv_to_file(tmp_path, capsys):
    out = tmp_path / "cycle.csv"
    assert run_cli(*cycle_args(), "--format", "csv", "--output", str(out)) == 0
    text = out.read_text()
    assert "closed_form.dU1," in text
    assert "max_discrepancy," in text
    assert capsys.readouterr().out == ""

# Captured before the 2x2 stack kernels changed. A changed bit of a ledger entry,
# a state or a signed zero (the closed-form dU1 is -0.0 at epsilon = tau = 0) shows here.
CYCLE_ARGS_GENERIC = ("--epsilon", "1", "--tau", "0.3", "--temperature", "1.5",
                      "--a", "0.2", "--b", "0.7")
CYCLE_ARGS_DEGENERATE = ("--epsilon", "0", "--tau", "0", "--temperature", "1",
                         "--a", "0.3", "--b", "0.2")

CYCLE_JSON_GENERIC = """\
{
  "inputs": {
    "epsilon": 1.0,
    "tau": 0.3,
    "temperature": 1.5,
    "a": 0.2,
    "b": 0.7
  },
  "closed_form": {
    "dU1": -0.2283349305708704,
    "dU2": 0.02833493057087033,
    "dU3": 0.20000000000000018,
    "dS1": -0.11173693312293903,
    "dS2": 0.0012750546062333945,
    "dS3": 0.11046187851670564
  },
  "matrix": {
    "dU1": -0.2283349305708703,
    "dU2": 0.02833493057087033,
    "dU3": 0.19999999999999996,
    "dS1": -0.11173693312293886,
    "dS2": 0.001275054606233339,
    "dS3": 0.11046187851670553
  },
  "energy_closure": 1.1102230246251565e-16,
  "entropy_closure": 0.0,
  "max_discrepancy": 2.220446049250313e-16,
  "states": {
    "rho1": [
      [
        0.7882270323719588,
        -0.0864681097115876
      ],
      [
        -0.0864681097115876,
        0.21177296762804113
      ]
    ],
    "rho2": [
      [
        0.7999999999999998,
        0.0
      ],
      [
        0.0,
        0.19999999999999996
      ]
    ],
    "rho3": [
      [
        0.7,
        0.0
      ],
      [
        0.0,
        0.30000000000000004
      ]
    ]
  }
}
"""

CYCLE_CSV_GENERIC = """\
inputs.epsilon,1.000000000000e+00
inputs.tau,3.000000000000e-01
inputs.temperature,1.500000000000e+00
inputs.a,2.000000000000e-01
inputs.b,7.000000000000e-01
closed_form.dU1,-2.283349305709e-01
closed_form.dU2,2.833493057087e-02
closed_form.dU3,2.000000000000e-01
closed_form.dS1,-1.117369331229e-01
closed_form.dS2,1.275054606233e-03
closed_form.dS3,1.104618785167e-01
matrix.dU1,-2.283349305709e-01
matrix.dU2,2.833493057087e-02
matrix.dU3,2.000000000000e-01
matrix.dS1,-1.117369331229e-01
matrix.dS2,1.275054606233e-03
matrix.dS3,1.104618785167e-01
energy_closure,1.110223024625e-16
entropy_closure,0.000000000000e+00
max_discrepancy,2.220446049250e-16
"""

CYCLE_JSON_DEGENERATE = """\
{
  "inputs": {
    "epsilon": 0.0,
    "tau": 0.0,
    "temperature": 1.0,
    "a": 0.3,
    "b": 0.2
  },
  "closed_form": {
    "dU1": -0.0,
    "dU2": 0.0,
    "dU3": 0.0,
    "dS1": 0.19274475702175742,
    "dS2": -0.08228287850505178,
    "dS3": -0.11046187851670564
  },
  "matrix": {
    "dU1": 0.0,
    "dU2": 0.0,
    "dU3": 0.0,
    "dS1": 0.19274475702175742,
    "dS2": -0.08228287850505189,
    "dS3": -0.11046187851670553
  },
  "energy_closure": 0.0,
  "entropy_closure": 0.0,
  "max_discrepancy": 1.1102230246251565e-16,
  "states": {
    "rho1": [
      [
        0.5,
        0.0
      ],
      [
        0.0,
        0.5
      ]
    ],
    "rho2": [
      [
        0.7000000000000001,
        0.0
      ],
      [
        0.0,
        0.29999999999999993
      ]
    ],
    "rho3": [
      [
        0.2,
        0.0
      ],
      [
        0.0,
        0.8
      ]
    ]
  }
}
"""

CYCLE_CSV_DEGENERATE = """\
inputs.epsilon,0.000000000000e+00
inputs.tau,0.000000000000e+00
inputs.temperature,1.000000000000e+00
inputs.a,3.000000000000e-01
inputs.b,2.000000000000e-01
closed_form.dU1,-0.000000000000e+00
closed_form.dU2,0.000000000000e+00
closed_form.dU3,0.000000000000e+00
closed_form.dS1,1.927447570218e-01
closed_form.dS2,-8.228287850505e-02
closed_form.dS3,-1.104618785167e-01
matrix.dU1,0.000000000000e+00
matrix.dU2,0.000000000000e+00
matrix.dU3,0.000000000000e+00
matrix.dS1,1.927447570218e-01
matrix.dS2,-8.228287850505e-02
matrix.dS3,-1.104618785167e-01
energy_closure,0.000000000000e+00
entropy_closure,0.000000000000e+00
max_discrepancy,1.110223024625e-16
"""


@pytest.mark.parametrize("args, fmt, expected", [
    (CYCLE_ARGS_GENERIC, "json", CYCLE_JSON_GENERIC),
    (CYCLE_ARGS_GENERIC, "csv", CYCLE_CSV_GENERIC),
    (CYCLE_ARGS_DEGENERATE, "json", CYCLE_JSON_DEGENERATE),
    (CYCLE_ARGS_DEGENERATE, "csv", CYCLE_CSV_DEGENERATE),
], ids=["generic-json", "generic-csv", "degenerate-json", "degenerate-csv"])
def test_cycle_stdout_is_pinned(capsys, args, fmt, expected):
    assert run_cli("cycle", *args, "--format", fmt) == 0
    assert capsys.readouterr().out == expected


# At E = hypot(epsilon, tau) above a quarter of the largest float, a ledger could overflow.
TOO_LARGE = ("error: epsilon and tau too large: the cycle ledgers need"
             " hypot(epsilon, tau) <= 4.49423e+307\n")
LARGEST_GAP = repr(sys.float_info.max / 4.0)


@pytest.mark.parametrize("argv", [
    ["cycle", "--epsilon=1.7e308", "--tau=1.7e308", "--temperature=1", "--a=0.3", "--b=0.6"],
    ["cycle", "--epsilon=1e308", "--tau=1e308", "--temperature=1", "--a=0.3", "--b=0.6"],
    ["cycle", "--epsilon=-4.5e307", "--tau=0", "--temperature=1", "--a=0.3", "--b=0.6"],
    ["classify", "--branch=refrigerator-plus", "--epsilon=1.7e308", "--tau=1.7e308",
     "--temperature=1", "--b=0.52"],
    ["classify", "--branch=refrigerator-minus", "--epsilon=1e308", "--tau=1e308",
     "--temperature=1", "--b=0.52"],
    ["classify", "--branch=engine", "--epsilon=1e308", "--tau=1e308", "--temperature=1",
     "--a=0.3"],
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ledger_overflow_is_refused_before_work(monkeypatch, capsys, argv, fmt):
    """Finite epsilon and tau whose ledgers would overflow exit 2 with a message naming
    them, before any ledger or current is computed and with no warning."""
    def forbidden(*args):
        raise AssertionError("work started")

    for name in ("run_cycle_closed_form", "run_cycle_matrix", "branch_currents"):
        monkeypatch.setattr(cli, name, forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--format", fmt) == 2
    assert capsys.readouterr() == ("", TOO_LARGE)


@pytest.mark.parametrize("epsilon, tau", [(LARGEST_GAP, "0"), ("1e-300", "-" + LARGEST_GAP),
                                          ("3.1e307", "3.1e307"), ("1e300", "1e300")])
def test_ledgers_just_inside_the_scale_bound_are_reported(capsys, epsilon, tau):
    """At E up to the bound itself, cycle and classify exit 0 with finite numbers and no
    warning."""
    point = [f"--epsilon={epsilon}", f"--tau={tau}", "--temperature=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("cycle", *point, "--a=0.3", "--b=0.6") == 0
        cycle = json.loads(capsys.readouterr().out)
        assert run_cli("classify", "--branch=engine", *point, "--a=0.3") == 0
        classify = json.loads(capsys.readouterr().out)
    numbers = [*cycle["closed_form"].values(), *cycle["matrix"].values(),
               cycle["energy_closure"], cycle["max_discrepancy"],
               classify["Qh"], classify["Qc"], classify["W"]]
    assert all(math.isfinite(x) for x in numbers)


def test_cycle_rejects_bad_strength():
    assert run_cli(*cycle_args(a="1.5")) == 2


def test_cycle_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"epsilon": 1.0, "tau": 0.0, "temperature": 1.0, "a": 0.2, "b": 0.9}
    ))
    assert run_cli("cycle", "--config", str(config)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"]["a"] == 0.2


def test_cycle_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"epsilon": 1.0, "tau": 0.0, "temperature": 1.0, "a": 0.2, "b": 0.9}
    ))
    assert run_cli("cycle", "--config", str(config), "--a", "0.6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"]["a"] == 0.6
    assert doc["inputs"]["b"] == 0.9


def test_malformed_config_leaves_no_partial_file(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    out = tmp_path / "cycle.json"
    assert run_cli("cycle", "--config", str(config), "--output", str(out)) == 2
    assert "config" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b"\xff\xfe{}")
    assert run_cli("verify", "--config", str(config)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: malformed config file {config}: 'utf-8' codec can't decode"
                            " byte 0xff in position 0: invalid start byte\n")


def test_config_that_is_not_an_object_names_the_file(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    assert run_cli("spectrum", "--config", str(config)) == 2
    assert capsys.readouterr() == (
        "", f"error: config file {config} must contain a JSON object\n")


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"epsilon": 1.0, "frequency": 2.0}))
    assert run_cli("cycle", "--config", str(config)) == 2
    assert "frequency" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify


def test_classify_engine_point(capsys):
    assert run_cli("classify", "--branch", "engine", "--epsilon", "1", "--tau", "0",
                   "--temperature", "1", "--a", "0.7") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "engine"
    assert doc["performance"] == pytest.approx(0.6887086990737796, abs=1e-9)
    assert doc["performance_convention"] == "eta"
    assert doc["thresholds"]["engine_min"] == 0.5
    assert "constrained_strength" not in doc


def test_classify_plus_point(capsys):
    assert run_cli("classify", "--branch", "refrigerator-plus", "--epsilon", "1",
                   "--tau", "0", "--temperature", "3", "--b", "0.9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "refrigerator"
    assert doc["performance"] == pytest.approx(0.4266445190105289, abs=1e-9)
    assert doc["performance_convention"] == "kappa"
    assert doc["constrained_strength"] == pytest.approx(0.6607563687658172, abs=1e-12)


def test_classify_minus_zero_tunneling(capsys):
    assert run_cli("classify", "--branch", "refrigerator-minus", "--epsilon", "1",
                   "--tau", "0", "--temperature", "2", "--b", "0.9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "undefined"
    assert doc["performance"] is None
    assert doc["reason"] == "W=0 at zero tunneling"


UNDERFLOW = ("--branch", "refrigerator-minus", "--tau", "2.39", "--temperature", "1",
             "--zero-tol", "0")


def test_classify_reports_a_cop_that_underflows_as_zero(capsys):
    """At epsilon = 5e-324, Qh is the smallest subnormal and |Qh/W| underflows to 0: an
    accelerator with performance and raw COP 0.0, not a refusal."""
    assert run_cli("classify", *UNDERFLOW, "--epsilon", "5e-324", "--b", "0.5") == 0
    doc = strict_json(capsys.readouterr().out)
    assert (doc["mode"], doc["Qh"]) == ("accelerator", 5e-324)
    assert doc["performance"] == 0.0 and doc["raw_cop"] == 0.0


def test_sweep_maps_a_cop_that_underflows_to_zero(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert run_cli("sweep", *UNDERFLOW, "--grid-strength", "0.1:0.9:3",
                   "--grid-epsilon", "5e-324:2e-323:3", "--output", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    underflowed = [row for row in rows if float(row[4]) == 5e-324]
    assert len(underflowed) == 3
    for row in underflowed:
        assert row[2:4] == ["accelerator", "0.000000000000e+00"]


def test_classify_refuses_an_infinite_cop_in_one_line():
    """W = 2 epsilon (1 - 2a) is subnormal, so |Qh/W| overflows: the report is refused,
    and stderr holds the refusal alone, with no warning."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dqdcycle.cli", "classify", "--branch", "engine",
         "--epsilon", "5e-324", "--tau", "1", "--temperature", "1", "--a", "0.1",
         "--zero-tol", "0"],
        capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: raw_cop is inf: a report holds finite numbers only\n"


def test_classify_rejects_nonpositive_detuning(capsys):
    assert run_cli("classify", "--branch", "engine", "--epsilon", "0", "--tau", "0.5",
                   "--temperature", "1", "--a", "0.7") == 2
    assert "epsilon" in capsys.readouterr().err


def test_classify_rejects_nan_zero_tol(capsys):
    assert run_cli("classify", "--branch", "engine", "--epsilon", "1", "--tau", "0",
                   "--temperature", "1", "--a", "0.7", "--zero-tol", "nan") == 2
    assert "zero_tol" in capsys.readouterr().err


def test_classify_rejects_wrong_strength_flag(capsys):
    assert run_cli("classify", "--branch", "engine", "--epsilon", "1", "--tau", "0",
                   "--temperature", "1", "--a", "0.7", "--b", "0.3") == 2
    assert capsys.readouterr() == ("", "error: the engine branch fixes b = a; give --a only\n")
    assert run_cli("classify", "--branch", "refrigerator-plus", "--epsilon", "1",
                   "--tau", "0", "--temperature", "1", "--a", "0.7") == 2
    capsys.readouterr()
    assert run_cli("classify", "--branch", "refrigerator-plus", "--epsilon", "1",
                   "--tau", "0", "--temperature", "1", "--a", "0.3", "--b", "0.5") == 2
    assert capsys.readouterr() == (
        "", "error: refrigerator branches fix a thermally; give --b only\n")


# ---------------------------------------------------------------------------
# sweep


def sweep_args(out, **overrides):
    base = {
        "branch": "engine",
        "grid-strength": "0:1:3",
        "grid-epsilon": "0.5:2:3",
        "tau": "0",
        "temperature": "1",
        "output": str(out),
    }
    base.update(overrides)
    argv = ["sweep"]
    for key, value in base.items():
        argv += [f"--{key}", value]
    return argv


@pytest.mark.parametrize("grid_epsilon, tau", [("1e307:1.7e308:3", "1e308"),
                                             ("1:4.5e307:3", "0")])  # only the stop is too large
@pytest.mark.parametrize("branch", ["engine", "refrigerator-plus"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_ledger_overflow_is_refused_before_work(monkeypatch, tmp_path, capsys,
                                                      grid_epsilon, tau, branch, fmt):
    """A grid whose largest epsilon, with tau, could overflow a ledger exits 2 with the
    cycle's message, before the sweep runs and with nothing written."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_sweep", forbidden)
    out = tmp_path / f"map.{fmt}"
    argv = sweep_args(out, branch=branch, **{"grid-epsilon": grid_epsilon, "tau": tau})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--format", fmt) == 2
    assert capsys.readouterr() == ("", TOO_LARGE)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("branch", ["engine", "refrigerator-plus", "refrigerator-minus"])
def test_sweep_just_inside_the_scale_bound_is_written(tmp_path, capsys, branch):
    """A grid whose largest epsilon is the bound itself is swept, with finite currents."""
    out = tmp_path / "map.json"
    argv = sweep_args(out, branch=branch, **{"grid-epsilon": f"1e307:{LARGEST_GAP}:3"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--format", "json") == 0
    text = out.read_text()
    assert json.loads(text)["grid"]["epsilon"]["stop"] == float(LARGEST_GAP)
    assert "Infinity" not in text and "NaN" not in text


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert run_cli(*sweep_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strength,epsilon,mode,performance,Qh,Qc,W"
    assert len(lines) == 1 + 9
    stdout = capsys.readouterr().out
    for mode in ("engine", "refrigerator", "accelerator", "heater", "undefined"):
        assert f"{mode}: " in stdout


def test_sweep_minimal_grid(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run_cli(*sweep_args(out, **{"grid-strength": "0:1:2", "grid-epsilon": "0.5:2:2"})) == 0
    assert len(out.read_text().splitlines()) == 1 + 4


def test_sweep_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*sweep_args(out1)) == 0
    assert run_cli(*sweep_args(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_parallel_flag(tmp_path):
    out1, out2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(*sweep_args(out1, **{"grid-strength": "0:1:6", "grid-epsilon": "0.5:2:6"})) == 0
    assert run_cli(*sweep_args(out2, **{"grid-strength": "0:1:6", "grid-epsilon": "0.5:2:6"}),
                   "--workers", "4") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_json_document(tmp_path):
    out = tmp_path / "map.json"
    assert run_cli(*sweep_args(out), "--format", "json") == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["cells"]) == 9


def test_sweep_requires_output(capsys):
    assert run_cli("sweep", "--branch", "engine", "--grid-strength", "0:1:3",
                   "--grid-epsilon", "0.5:2:3", "--tau", "0", "--temperature", "1") == 2
    assert "--output" in capsys.readouterr().err


def test_sweep_unwritable_path_is_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "map.csv"
    assert run_cli(*sweep_args(out)) == 3
    assert "I/O" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("zero-tol", "nan"), ("tau", "nan"),
                                         ("grid-epsilon", "0.5:inf:3")])
def test_sweep_non_finite_input_is_rejected_before_work(tmp_path, capsys, flag, value):
    out = tmp_path / "map.csv"
    assert run_cli(*sweep_args(out, **{flag: value})) == 2
    assert not out.exists()
    assert flag.split("-")[-1] in capsys.readouterr().err


def test_failed_write_keeps_old_output_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "map.csv"
    out.write_text("old contents\n")

    class FullDisk:
        """A file that takes the first half of the text, then runs out of space."""

        def __init__(self, path, *args, **kwargs):
            self.fh = open(path, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    assert run_cli(*sweep_args(out)) == 3
    assert "No space left" in capsys.readouterr().err
    assert out.read_text() == "old contents\n"
    assert list(tmp_path.iterdir()) == [out]


ALLOCATE = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("stage, error, message", [
    ("run_sweep", MemoryError(ALLOCATE), ALLOCATE),
    ("run_sweep", MemoryError(), "out of memory"),
    ("writer", MemoryError(), "out of memory"),
], ids=["sweep-numpy-message", "sweep-no-message", "writer-no-message"])
def test_grid_too_large_for_memory_exits_2_and_keeps_the_old_output(
        tmp_path, monkeypatch, capsys, fmt, stage, error, message):
    """A grid too large to hold is an input error, not a traceback, whether the sweep or
    the writer runs out; the old file stays and no temporary file is left. The grid
    is never allocated for real: run_sweep or the writer raises as numpy would."""
    out = tmp_path / "map.csv"
    out.write_text("old contents\n")

    def run_out(*args, **kwargs):
        if stage == "writer":
            args[1].write("strength,epsilon\n")
        raise error

    monkeypatch.setattr(cli, "run_sweep" if stage == "run_sweep" else f"write_{fmt}", run_out)
    assert run_cli(*sweep_args(out, format=fmt)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert out.read_text() == "old contents\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_missing_directory_exits_3_naming_the_destination(tmp_path, capsys, fmt):
    out = tmp_path / "no" / "such" / "dir" / f"map.{fmt}"
    assert run_cli(*sweep_args(out, format=fmt)) == 3
    err = capsys.readouterr().err
    assert err == f"I/O error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_directory_destination_exits_3_naming_the_destination(tmp_path, capsys, fmt):
    out = tmp_path / "maps"
    out.mkdir()
    assert run_cli(*sweep_args(out, format=fmt)) == 3
    err = capsys.readouterr().err
    assert err == f"I/O error: [Errno 21] Is a directory: {str(out)!r}\n"
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


@pytest.mark.parametrize("error", [RuntimeError("writer gave up"), OSError(5, "Input/output error"),
                                   KeyboardInterrupt()])
def test_writer_raising_midway_keeps_old_file_and_leaves_no_temp_file(tmp_path, error):
    out = tmp_path / "map.csv"
    out.write_text("old contents\n")

    def writer(stream):
        stream.write("strength,epsilon\n")
        stream.write("0.0,1.0\n")
        stream.flush()
        assert len(list(tmp_path.glob("*.tmp"))) == 1  # the rows really went to the file
        raise error

    with pytest.raises(type(error)):
        cli.emit(writer, str(out))
    assert out.read_text() == "old contents\n"
    assert list(tmp_path.iterdir()) == [out]


def test_emit_streams_a_writer_to_the_file_or_stdout(tmp_path, capsys):
    out = tmp_path / "doc.txt"

    def writer(stream):
        for row in ("a\n", "b\r\n", "\u00e9"):
            stream.write(row)

    cli.emit(writer, str(out))
    assert out.read_bytes() == "a\nb\r\n\u00e9".encode()
    cli.emit(writer, None)
    assert capsys.readouterr().out == "a\nb\r\n\u00e9"
    cli.emit("text", str(out))
    assert out.read_bytes() == b"text\n"
    cli.emit("text", None)
    assert capsys.readouterr().out == "text\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("spectrum", "--epsilon", "1", "--tau", "0.5", "--temperature", "2"),
    ("cycle", *CYCLE_ARGS_GENERIC),
    ("classify", "--branch", "refrigerator-plus", "--epsilon", "1", "--tau", "0.1",
     "--temperature", "2", "--b", "0.9"),
], ids=["spectrum", "cycle", "classify"])
def test_report_file_has_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    """A report written with --output ends with the newline that stdout ends with."""
    assert run_cli(*argv, "--format", fmt) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert run_cli(*argv, "--format", fmt, "--output", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert stdout.endswith("\n") and out.read_bytes() == stdout.encode()


def test_sweep_replaces_existing_output(tmp_path):
    out = tmp_path / "map.csv"
    out.write_text("old contents\n")
    assert run_cli(*sweep_args(out)) == 0
    assert out.read_text().startswith("strength,epsilon,")
    assert list(tmp_path.iterdir()) == [out]


SPECTRUM_ARGS = ("spectrum", "--epsilon", "1", "--tau", "0.5", "--temperature", "2")


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "dangling"])
def test_output_through_a_symlink_replaces_the_file_it_points_to(tmp_path, capsys, existing):
    assert run_cli(*SPECTRUM_ARGS) == 0
    stdout = capsys.readouterr().out
    real = tmp_path / "real"
    real.mkdir()
    if existing:
        (real / "map.csv").write_text("old contents\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real / "map.csv")
    assert run_cli(*SPECTRUM_ARGS, "--output", str(link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(real / "map.csv")
    assert (real / "map.csv").read_bytes() == stdout.encode()
    assert sorted(tmp_path.iterdir()) == [link, real]
    assert list(real.iterdir()) == [real / "map.csv"]


def test_replaced_output_keeps_its_mode_and_a_new_one_gets_the_default(tmp_path):
    probe = tmp_path / "probe"
    probe.write_text("")
    default = stat.S_IMODE(probe.stat().st_mode)  # what the umask gives a new file
    new, private = tmp_path / "new.csv", tmp_path / "private.csv"
    private.write_text("old contents\n")
    private.chmod(0o600)
    for out in (new, private):
        assert run_cli(*sweep_args(out)) == 0
        assert out.read_text().startswith("strength,epsilon,")
    assert stat.S_IMODE(new.stat().st_mode) == default
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    assert sorted(tmp_path.iterdir()) == [new, private, probe]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_fifo_destination_is_written_in_place(tmp_path, capsys, command):
    """A FIFO gets the bytes a regular file would, and stays a FIFO: no temporary, no rename."""
    def to(out):
        return sweep_args(out) if command == "sweep" else [*SPECTRUM_ARGS, "--output", str(out)]

    regular = tmp_path / "regular"
    assert run_cli(*to(regular)) == 0
    expected, stdout = regular.read_bytes(), capsys.readouterr().out
    regular.unlink()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader, received = read_on_a_thread(fifo)
    assert run_cli(*to(fifo)) == 0
    reader.join(timeout=60)
    assert received == [expected]
    assert capsys.readouterr().out == stdout
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def read_on_a_thread(fifo):
    """Start a daemon thread that reads the FIFO ``fifo`` to its end; it blocks for good if
    no one writes. Once the returned thread is joined, the returned list holds the bytes."""
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader, received


def make_destinations(root):
    """A regular file, a directory, a FIFO and four kinds of symlink under ``root``."""
    root.mkdir()
    (root / "file").write_text("old contents\n")
    (root / "dir").mkdir()
    os.mkfifo(root / "fifo")
    (root / "link").symlink_to("file")
    (root / "dangling").symlink_to("gone")
    (root / "dangling-slash").symlink_to("gone/")
    (root / "la").symlink_to("lb")
    (root / "lb").symlink_to("la")


def paths(root):
    """``root`` and every path under it, symlinks not followed, relative to ``root``."""
    found = ["."]
    for folder, dirs, files in os.walk(root):
        found += [os.path.relpath(os.path.join(folder, n), root) for n in dirs + files]
    return sorted(found)


def lstats(root):
    """What a write, a rename or a temporary file would change in each path's ``os.lstat``."""
    return {p: (s.st_mode, s.st_ino, s.st_nlink, s.st_size, s.st_mtime_ns, s.st_ctime_ns)
            for p, s in ((p, os.lstat(root / p)) for p in paths(root))}


def contents(root):
    """Each path's file type, permission bits, link target and, for a regular file, bytes."""
    def content(path):
        mode = os.lstat(path).st_mode
        return (stat.S_IFMT(mode), stat.S_IMODE(mode),
                os.readlink(path) if stat.S_ISLNK(mode) else None,
                path.read_bytes() if stat.S_ISREG(mode) else None)

    return {p: content(root / p) for p in paths(root)}


OPEN_TABLE = {  # row id: the --output, relative to a tree that make_destinations made
    "new-file": "new",
    "regular-file": "file",
    "directory": "dir",
    "dir-slash": "dir/",
    "file-slash": "file/",
    "new-slash": "new/",
    "new-slash-dot": "new/.",
    "empty": "",
    "missing-dotdot": "missing/..",
    "missing-parent": "missing/new",
    "symlink-to-file": "link",
    "dangling-symlink": "dangling",
    "dangling-symlink-slash": "dangling-slash",
    "symlink-loop": "la",
    "fifo": "fifo",
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("command", ["spectrum", "sweep"])
@pytest.mark.parametrize("output", OPEN_TABLE.values(), ids=OPEN_TABLE.keys())
def test_output_fails_exactly_where_open_fails(tmp_path, monkeypatch, capsys, command, output):
    """``--output`` leaves the tree as ``open(output, "w")`` and a write leave it. Where that
    open fails, the run exits 3 with open's own error, which names the path as given, and
    no path's lstat changes: nothing is created, replaced or left behind."""
    def to(out):
        return sweep_args(out) if command == "sweep" else [*SPECTRUM_ARGS, "--output", str(out)]

    assert run_cli(*to(tmp_path / "expected")) == 0
    text, stdout = (tmp_path / "expected").read_text(), capsys.readouterr().out
    probe, run = tmp_path / "probe", tmp_path / "run"
    make_destinations(probe)
    make_destinations(run)

    def attempt(root, action):
        monkeypatch.chdir(root)
        reader, received = read_on_a_thread(output) if output == "fifo" else (None, [])
        result = action()
        if reader is not None:
            reader.join(timeout=60)
        return result, received

    def open_and_write():
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return exc

    error, opened = attempt(probe, open_and_write)
    before = lstats(run)
    code, received = attempt(run, lambda: run_cli(*to(output)))
    if error is None:
        assert (code, capsys.readouterr(), received) == (0, (stdout, ""), opened)
    else:
        assert (code, capsys.readouterr()) == (3, ("", f"I/O error: {error}\n"))
        assert error.filename == output
        assert lstats(run) == before
    assert contents(run) == contents(probe)
    assert not [p for p in paths(run) if p.endswith(".tmp")]


def test_sweep_bad_axis_syntax():
    assert run_cli("sweep", "--branch", "engine", "--grid-strength", "0:1",
                   "--grid-epsilon", "0.5:2:3", "--tau", "0", "--temperature", "1",
                   "--output", "x.csv") == 2


def test_sweep_config_with_list_axes(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "branch": "refrigerator-plus",
        "grid-strength": [0.0, 1.0, 4],
        "grid-epsilon": "0.5:2:4",
        "tau": 0.1,
        "temperature": 2.0,
    }))
    out = tmp_path / "map.csv"
    assert run_cli("sweep", "--config", str(config), "--output", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1 + 16


# ---------------------------------------------------------------------------
# config files and flags agree

# A flag value and the equivalent config value for each option dest.
OPTION_VALUES = {
    "epsilon": ("1.5", 1.5),
    "tau": ("-0.4", -0.4),
    "temperature": ("2.5", 2.5),
    "a": ("0.25", 0.25),
    "b": ("0.75", 0.75),
    "branch": ("refrigerator-minus", "refrigerator-minus"),
    "zero_tol": ("1e-09", 1e-9),
    "grid_strength": ("0:1:5", [0, 1, 5]),
    "grid_epsilon": ("0.5:2:3", "0.5:2:3"),
    "workers": ("3", 3),
    "format": ("csv", "csv"),
    "output": ("report.out", "report.out"),
    "seed": ("7", 7),
    "trials": ("50", 50),
}


def subcommand_options():
    """(subcommand, dest) for every option a subcommand declares, --config aside."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                yield command, action.dest


def write_config(tmp_path, entries) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries))
    return str(path)


def parsed(monkeypatch, *argv):
    """The options a subcommand receives for ``argv``, --config and the handler left out."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 0)
    assert run_cli(*argv) == 0
    (args,) = seen
    return {k: v for k, v in vars(args).items() if k not in ("config", "func")}


@pytest.mark.parametrize("command, dest", list(subcommand_options()))
@pytest.mark.parametrize("dashes", [True, False])
def test_config_entry_matches_flag(tmp_path, monkeypatch, command, dest, dashes):
    text, value = OPTION_VALUES[dest]
    flag = dest.replace("_", "-")
    config = write_config(tmp_path, {flag if dashes else dest: value})
    assert (parsed(monkeypatch, command, "--config", config)
            == parsed(monkeypatch, command, f"--{flag}", text))


def test_flags_override_config(tmp_path, monkeypatch):
    config = write_config(tmp_path, {
        "branch": "engine", "grid-strength": [0, 1, 3], "grid-epsilon": "0.5:2:3",
        "tau": 0.1, "temperature": 2.0, "workers": 3,
    })
    args = parsed(monkeypatch, "sweep", "--tau", "0.2", "--config", config,
                  "--branch", "refrigerator-plus", "--grid-strength", "0:1:4",
                  "--grid-epsilon", "0.5:2:5", "--workers", "2")
    assert args["tau"] == 0.2
    assert args["branch"] == "refrigerator-plus"
    assert args["grid_strength"] == AxisSpec(0.0, 1.0, 4)
    assert args["grid_epsilon"] == AxisSpec(0.5, 2.0, 5)
    assert args["workers"] == 2
    assert args["temperature"] == 2.0


def test_negative_config_value_gives_flag_output(tmp_path, capsys):
    config = write_config(tmp_path, {"epsilon": 1.0, "tau": -0.4, "temperature": 2.0})
    assert run_cli("spectrum", "--config", config) == 0
    from_config = capsys.readouterr().out
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "-0.4", "--temperature", "2") == 0
    assert capsys.readouterr().out == from_config
    assert json.loads(from_config)["tau"] == -0.4


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.5"])
@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--epsilon", "1", "--temperature", "1"], "--tau"),
    (["spectrum", "--tau", "0.1", "--temperature", "1"], "--epsilon"),
    (["classify", "--branch", "engine", "--epsilon", "1", "--tau", "0.1", "--temperature", "1",
      "--a", "0.3"], "--zero-tol"),
])
def test_flags_take_negative_values_in_every_float_form(capsys, argv, flag, value):
    """A value that argparse alone would read as a flag acts as it does after ``=``."""
    code = run_cli(*argv, flag, value)
    separate = capsys.readouterr()
    assert code == (2 if flag == "--zero-tol" else 0)
    assert "expected one argument" not in separate.err
    assert (run_cli(*argv, f"{flag}={value}"), capsys.readouterr()) == (code, separate)


def test_negative_infinite_flag_value_is_a_domain_error(capsys):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "-inf", "--temperature", "1") == 2
    assert capsys.readouterr() == ("", "error: epsilon and tau must be finite\n")


@pytest.mark.parametrize("entry", [
    {"epsilon": None}, {"output": None}, {"epsilon": True}, {"output": False}, {"a": {}},
    {"b": [0, 1, 2]}, {"a": [0.5]}, {"epsilon": "one"},
    {"frequency": 2.0}, {"temp": 1.0}, {"config": "other.json"}, {"func": "cmd_verify"},
])
def test_bad_config_entry_is_input_error(tmp_path, monkeypatch, capsys, entry):
    """A bad entry is refused, naming its key, also when a flag overrides its option."""
    monkeypatch.chdir(tmp_path)
    base = {"epsilon": 1.0, "tau": 0.0, "temperature": 1.0, "a": 0.2, "b": 0.9,
            "output": "cycle.json"}
    write_config(tmp_path, {**base, **entry})
    (key,) = entry
    overrides = [[], [f"--{key}", "flag.json" if key == "output" else "0.5"]]
    for override in overrides if key in base else overrides[:1]:
        assert run_cli("cycle", "--config", "run.json", *override) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        out, err = capsys.readouterr()
        assert out == ""
        assert f"key {key!r} in config file run.json" in err


@pytest.mark.parametrize("command, text, first, second", [
    ("sweep", '{"branch": "engine", "grid-strength": [0, 1, 3], "grid_strength": "0:1:5",'
              ' "grid-epsilon": "0.5:2:3", "tau": 0, "temperature": 1, "output": "map.csv"}',
     "grid-strength", "grid_strength"),
    ("spectrum", '{"epsilon": 1, "tau": 0, "tau": 0.5, "temperature": 1, "output": "s.json"}',
     "tau", "tau"),
    ("classify", '{"branch": "engine", "epsilon": 1, "tau": 0, "temperature": 1, "a": 0.7,'
                 ' "zero-tol": 1e-12, "zero_tol": 5, "output": "c.json"}',
     "zero-tol", "zero_tol"),
], ids=["sweep-two-spellings", "spectrum-repeated-key", "classify-two-spellings"])
def test_config_that_sets_an_option_twice_is_input_error(tmp_path, monkeypatch, capsys,
                                                         command, text, first, second):
    """Two keys for one option, two spellings or one key repeated, exit 2 before any
    work, naming the file and both keys, instead of the later one winning."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(text)
    assert run_cli(command, "--config", "run.json") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    assert capsys.readouterr() == ("", f"error: keys {first!r} and {second!r} in config file"
                                       " run.json set the same option\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--epsilon", "1", "--tau", "0", "--temp", "1"],
    ["cycle", "--eps", "1", "--tau", "0", "--temperature", "1", "--a", "0.2", "--b", "0.9"],
    ["verify", "--tri", "5"],
    ["--he"],
])
def test_flag_abbreviations_are_refused(tmp_path, monkeypatch, capsys, argv):
    """A flag must be spelled out, as a config key must."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--output", "report.out") == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", [4.5, 4.0])
def test_config_axis_rejects_fractional_steps(tmp_path, steps):
    config = write_config(tmp_path, {"branch": "engine", "grid-strength": [0, 1, steps],
                                     "grid-epsilon": "0.5:2:3", "tau": 0, "temperature": 1})
    out = tmp_path / "map.csv"
    assert run_cli("sweep", "--config", config, "--output", str(out)) == 2
    assert not out.exists()
    assert run_cli(*sweep_args(out, **{"grid-strength": f"0:1:{steps}"})) == 2
    assert not out.exists()


def test_verify_reads_seed_and_trials_from_config(tmp_path, capsys):
    config = write_config(tmp_path, {"seed": 5, "trials": 40})
    assert run_cli("verify", "--config", config) == 0
    out = capsys.readouterr().out
    assert "trials 40)" in out
    assert "(seed 5, stream 3)" in out


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(capsys):
    assert run_cli("verify", "--seed", "5", "--trials", "120") == 0
    out = capsys.readouterr().out
    assert "[PASS] kraus_completeness" in out
    assert "[PASS] threshold_consistency" in out
    assert "all 6 checks passed" in out


# Draw stream 3 (see the verify module docstring). A changed draw, pass/fail or
# printed digit shows here; test_verify.py compares every bit.
VERIFY_STDOUT_42 = """\
[PASS] kraus_completeness: max residual 2.220e-16 (tolerance 1.0e-14, trials 1000)
[PASS] channel_cptp: max residual 4.448e-16 (tolerance 1.0e-12, trials 1000)
[PASS] channel_reset: max residual 3.337e-16 (tolerance 1.0e-12, trials 1000)
[PASS] path_agreement: max residual 1.776e-15 (tolerance 1.0e-10, trials 1000)
[PASS] cycle_closure: max residual 8.882e-16 (tolerance 1.0e-12, trials 1000)
[PASS] threshold_consistency: max residual 0.000e+00 (tolerance 0.0e+00, trials 1000)
all 6 checks passed (seed 42, stream 3)
"""

VERIFY_STDOUT_32 = """\
[PASS] kraus_completeness: max residual 2.220e-16 (tolerance 1.0e-14, trials 1000)
[PASS] channel_cptp: max residual 4.444e-16 (tolerance 1.0e-12, trials 1000)
[PASS] channel_reset: max residual 3.335e-16 (tolerance 1.0e-12, trials 1000)
[PASS] path_agreement: max residual 1.776e-15 (tolerance 1.0e-10, trials 1000)
[PASS] cycle_closure: max residual 8.882e-16 (tolerance 1.0e-12, trials 1000)
[PASS] threshold_consistency: max residual 0.000e+00 (tolerance 0.0e+00, trials 1000)
all 6 checks passed (seed 32, stream 3)
"""

VERIFY_STDOUT_7 = """\
[PASS] kraus_completeness: max residual 2.220e-16 (tolerance 1.0e-14, trials 1000)
[PASS] channel_cptp: max residual 4.444e-16 (tolerance 1.0e-12, trials 1000)
[PASS] channel_reset: max residual 3.332e-16 (tolerance 1.0e-12, trials 1000)
[PASS] path_agreement: max residual 1.776e-15 (tolerance 1.0e-10, trials 1000)
[PASS] cycle_closure: max residual 8.882e-16 (tolerance 1.0e-12, trials 1000)
[PASS] threshold_consistency: max residual 0.000e+00 (tolerance 0.0e+00, trials 1000)
all 6 checks passed (seed 7, stream 3)
"""

# The first seed that fails on stream 3: at this refrigerator-minus point W = 3.7e-13 is
# below the absolute zero tolerance of 1e-12, so the signs say undefined where the
# thresholds say refrigerator.
VERIFY_STDOUT_44 = """\
[PASS] kraus_completeness: max residual 2.220e-16 (tolerance 1.0e-14, trials 1000)
[PASS] channel_cptp: max residual 4.442e-16 (tolerance 1.0e-12, trials 1000)
[PASS] channel_reset: max residual 3.339e-16 (tolerance 1.0e-12, trials 1000)
[PASS] path_agreement: max residual 1.776e-15 (tolerance 1.0e-10, trials 1000)
[PASS] cycle_closure: max residual 8.882e-16 (tolerance 1.0e-12, trials 1000)
[FAIL] threshold_consistency: max residual 1.000e+00 (tolerance 0.0e+00, trials 1000)
       failing case: {"branch": "refrigerator-minus", "epsilon": 1.0298895125201675, "tau": 2.0569713581330973e-06, "temperature": 5.6417193187257775, "strength": 0.7339798435772984, "expected": "refrigerator", "got": "undefined"}
1 of 6 checks failed (seed 44, stream 3)
"""


@pytest.mark.parametrize("seed, code, expected", [
    (42, 0, VERIFY_STDOUT_42),
    (32, 0, VERIFY_STDOUT_32),
    (7, 0, VERIFY_STDOUT_7),
    (44, 1, VERIFY_STDOUT_44),
])
def test_verify_stdout_is_pinned(capsys, seed, code, expected):
    assert run_cli("verify", "--seed", str(seed), "--trials", "1000") == code
    assert capsys.readouterr().out == expected


def test_verify_zero_trials_is_usage_error(capsys):
    assert run_cli("verify", "--trials", "0") == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_negative_seed_is_usage_error(tmp_path, capsys, source):
    if source == "flag":
        argv = ("verify", "--seed", "-1", "--trials", "5")
    else:
        argv = ("verify", "--config", write_config(tmp_path, {"seed": -1, "trials": 5}))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer\n"


# On draw stream 3: the channel checks print strength and orientation, the cycle
# checks the five inputs.
VERIFY_STDOUT_CORRUPTED = """\
[FAIL] kraus_completeness: max residual 9.416e-01 (tolerance 1.0e-14, trials 40)
       failing case: {"strength": 0.9416344024782601, "orientation": "A"}
[FAIL] channel_cptp: max residual 1.000e+00 (tolerance 1.0e-12, trials 40)
       failing case: {"strength": 0.7535917814748023, "orientation": "A"}
[FAIL] channel_reset: max residual 8.106e-01 (tolerance 1.0e-12, trials 40)
       failing case: {"strength": 0.9416344024782601, "orientation": "A"}
[FAIL] path_agreement: max residual 3.071e+00 (tolerance 1.0e-10, trials 40)
       failing case: {"epsilon": 1.9574549656523752, "tau": 0.23451020166982395, "temperature": 2.892211537238281, "a": 0.9741861932592554, "b": 0.8976776081085488}
[PASS] cycle_closure: max residual 5.204e-16 (tolerance 1.0e-12, trials 40)
[PASS] threshold_consistency: max residual 0.000e+00 (tolerance 0.0e+00, trials 40)
4 of 6 checks failed (seed 5, stream 3)
"""

VERIFY_STDOUT_ZERO_LEDGER_TOLERANCES = """\
[PASS] kraus_completeness: max residual 2.220e-16 (tolerance 1.0e-14, trials 40)
[PASS] channel_cptp: max residual 2.229e-16 (tolerance 1.0e-12, trials 40)
[PASS] channel_reset: max residual 2.221e-16 (tolerance 1.0e-12, trials 40)
[FAIL] path_agreement: max residual 8.882e-16 (tolerance 0.0e+00, trials 40)
       failing case: {"epsilon": 2.415203768312395, "tau": 0.8079407897364937, "temperature": 3.334290585731781, "a": 0.2858013800881416, "b": 0.053930702381656426}
[FAIL] cycle_closure: max residual 5.204e-16 (tolerance 0.0e+00, trials 40)
       failing case: {"epsilon": 2.076974601659845, "tau": 0.6353867998907108, "temperature": 2.570818890732307, "a": 0.7985233458061055, "b": 0.19402547600704456}
[PASS] threshold_consistency: max residual 0.000e+00 (tolerance 0.0e+00, trials 40)
2 of 6 checks failed (seed 5, stream 3)
"""


def test_verify_detects_corruption(monkeypatch, capsys):
    monkeypatch.setattr(channels, "kraus_operators", lambda ch: kraus_operators(ch)[:3])
    assert run_cli("verify", "--seed", "5", "--trials", "40") == 1
    assert capsys.readouterr().out == VERIFY_STDOUT_CORRUPTED


def test_verify_prints_the_cycle_inputs_of_a_failing_ledger_check(monkeypatch, capsys):
    monkeypatch.setattr(verify, "PATH_TOL", 0.0)
    monkeypatch.setattr(verify, "CLOSURE_TOL", 0.0)
    assert run_cli("verify", "--seed", "5", "--trials", "40") == 1
    assert capsys.readouterr().out == VERIFY_STDOUT_ZERO_LEDGER_TOLERANCES


# ---------------------------------------------------------------------------
# plumbing


def test_help_exits_zero():
    assert run_cli("--help") == 0


@pytest.mark.parametrize("command", ["spectrum", "cycle", "classify", "sweep", "verify"])
def test_subcommand_help_exits_zero(capsys, command):
    assert run_cli(command, "--help") == 0
    assert "--config" in capsys.readouterr().out


def test_sweep_help_says_output_is_required(capsys):
    """A sweep writes its map only to --output and prints the mode shares; the other
    subcommands print their report unless --output is given."""
    assert run_cli("sweep", "--help") == 0
    sweep_help = " ".join(capsys.readouterr().out.split())
    assert run_cli("spectrum", "--help") == 0
    spectrum_help = " ".join(capsys.readouterr().out.split())
    assert "instead of stdout" not in sweep_help
    assert "write the map here (required); the mode shares go to stdout" in sweep_help
    assert "write the report here instead of stdout" in spectrum_help


def test_missing_subcommand_is_usage_error():
    assert run_cli() == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("explode") == 2


def test_module_run_exits_with_the_code_main_returns():
    """``python -m dqdcycle.cli`` exits with ``main``'s return value, as the console
    script does."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dqdcycle.cli", "spectrum", "--epsilon", "1", "--tau", "0",
         "--temperature", "1"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gap"] == 1.0


def test_console_script_names_main():
    """The installed ``dqdcycle`` command calls ``cli.main`` and exits with its return value,
    which ``test_installed_entry_point`` can run only where the package is installed."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"dqdcycle": "dqdcycle.cli:main"}


@pytest.mark.skipif(shutil.which("dqdcycle") is None, reason="entry point not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["dqdcycle", "spectrum", "--epsilon", "1", "--tau", "0", "--temperature", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gap"] == pytest.approx(1.0)
