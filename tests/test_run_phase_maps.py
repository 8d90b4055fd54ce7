"""``scripts/run_phase_maps.py`` run in-process: every map and the summary."""

import importlib.util
import io
import json
import math
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dqdcycle import cli
from dqdcycle.regimes import MODES, Mode, branch_points, classify_grid
from dqdcycle.sweep import AxisSpec, GridSpec, mode_area_fractions, run_sweep, write_csv
from reference import classify, same

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_phase_maps.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_phase_maps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_bytes(result):
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue().encode()


def test_maps_and_summary_equal_the_oracle(tmp_path, oracle_sweep, capsys):
    script = load_script()
    assert script.main(["--steps", "7", "--outdir", str(tmp_path)]) == 0
    assert "14 maps" in capsys.readouterr().out

    maps = json.loads((tmp_path / "summary.json").read_text())["maps"]
    expected = [(branch, tau, t) for branch, tau, temps in script.FAMILIES for t in temps]
    assert len(expected) == 14
    assert [(m["branch"], m["tau"], m["temperature"]) for m in maps] == [
        (branch.value, tau, t) for branch, tau, t in expected]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(m["file"] for m in maps)
    for entry, (branch, tau, temperature) in zip(maps, expected):
        oracle = oracle_sweep(GridSpec(branch, AxisSpec(0.0, 1.0, 7), AxisSpec(0.1, 3.0, 7),
                                       tau, temperature))
        assert (tmp_path / entry["file"]).read_bytes() == csv_bytes(oracle)
        assert entry["area_fractions"] == {
            m.value: f for m, f in mode_area_fractions(oracle).items()}


@pytest.mark.parametrize("target", ["engine_tau0_T1.csv", "summary.json"])
def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys,
                                                             target):
    """The first map and the summary are each written whole or not at all, and the
    failed write exits 3 with the error on stderr."""
    old = tmp_path / target
    old.write_text("old contents\n")

    class FullDisk:
        """Takes the first half of the target's text, then runs out of space."""

        def __init__(self, path, *args, **kwargs):
            self.fh = open(path, *args, **kwargs)
            self.full = Path(path).name.startswith(target + ".")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if not self.full:
                return self.fh.write(text)
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    assert load_script().main(["--steps", "3", "--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
    assert old.read_text() == "old contents\n"
    assert not list(tmp_path.glob("*.tmp"))


TOO_LARGE = "epsilon and tau too large: the cycle ledgers need hypot(epsilon, tau) <= 4.49423e+307"


@pytest.mark.parametrize("flags, message", [
    (["--steps", "1"], "strength axis needs at least 2 steps"),
    (["--steps", "0"], "strength axis needs at least 2 steps"),
    (["--epsilon-max", "0.1"], "epsilon axis must have start < stop"),
    (["--epsilon-max", "0.05"], "epsilon axis must have start < stop"),
    (["--epsilon-max", "nan"], "epsilon axis bounds must be finite"),
    (["--epsilon-max", "1.7e308"], TOO_LARGE),
    (["--epsilon-max", "4.5e307"], TOO_LARGE),
])
def test_bad_grid_flags_exit_2_before_making_anything(tmp_path, capsys, flags, message):
    outdir = tmp_path / "maps"
    assert load_script().main([*flags, "--outdir", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message} (") and err.count("\n") == 1
    assert not outdir.exists()


def test_epsilon_max_is_bounded_by_the_ledger_scale(tmp_path, capsys):
    """Past the ledger bound the script exits 2 and leaves an existing --outdir empty; at
    the bound itself it writes every map with no warning."""
    outdir = tmp_path / "maps"
    outdir.mkdir()
    limit = sys.float_info.max / 4.0
    assert load_script().main(["--steps", "3", "--outdir", str(outdir),
                               "--epsilon-max", repr(math.nextafter(limit, math.inf))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {TOO_LARGE} (")
    assert list(outdir.iterdir()) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_script().main(["--steps", "3", "--outdir", str(outdir),
                                   "--epsilon-max", repr(limit)]) == 0
    assert len(list(outdir.glob("*.csv"))) == 14


def test_bad_steps_exit_2_as_a_process(tmp_path):
    outdir = tmp_path / "maps"
    run = subprocess.run([sys.executable, str(SCRIPT), "--steps", "1", "--outdir", str(outdir)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: strength axis needs at least 2 steps")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert not outdir.exists()


@pytest.mark.parametrize("outdir", ["file", "file/sub"])
def test_unwritable_outdir_exits_3_as_a_process(tmp_path, outdir):
    """An --outdir that is a file, or lies under one, is an I/O error, not a traceback."""
    (tmp_path / "file").write_text("not a directory\n")
    target = tmp_path / outdir
    run = subprocess.run([sys.executable, str(SCRIPT), "--steps", "3", "--outdir", str(target)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 3
    assert run.stdout == ""
    error = "[Errno 17] File exists" if outdir == "file" else "[Errno 20] Not a directory"
    assert run.stderr == f"I/O error: {error}: '{target}'\n"
    assert (tmp_path / "file").read_text() == "not a directory\n"


STANDARD_MAPS = [(branch, tau, temperature)
                 for branch, tau, temperatures in load_script().FAMILIES
                 for temperature in temperatures]


@pytest.mark.parametrize("branch, tau, temperature", STANDARD_MAPS)
def test_mode_codes_index_the_scalar_modes(branch, tau, temperature, oracle_sweep):
    """``MODES[code]`` is ``reference.classify``'s mode, also for currents exactly at
    +-zero_tol."""
    epsilons, strengths = np.linspace(0.1, 3.0, 9), np.linspace(0.0, 1.0, 11)
    _, grid = branch_points(branch, epsilons[:, None], tau, temperature, strengths)
    qh, qc, w = (np.broadcast_to(x, (9, 11)) for x in grid)
    zero_tol = abs(float(qc[4, 5]))  # that cell's Qc sits exactly on the tolerance
    above = np.nextafter(zero_tol, np.inf)
    cases = [(qh, qc, w)]
    for k in range(3):
        for value in (zero_tol, -zero_tol, above, -above):
            currents = [qh, qc, w]
            currents[k] = np.full(qh.shape, value)
            cases.append(tuple(currents))
    for case in cases:
        codes = classify_grid(*case, zero_tol)[0]
        assert codes.shape == qh.shape
        assert [MODES[code] for code in codes.ravel().tolist()] == [
            classify(h, c, x, zero_tol).mode
            for h, c, x in zip(*(a.ravel().tolist() for a in case))]

    spec = GridSpec(branch, AxisSpec(0.0, 1.0, 11), AxisSpec(0.1, 3.0, 9), tau, temperature,
                    zero_tol)
    result, oracle = run_sweep(spec), oracle_sweep(spec)
    assert list(result.counts) == list(Mode)
    oracle_counts = Counter(c.result.mode for c in oracle.cells)
    assert result.counts == {m: oracle_counts[m] for m in Mode} == oracle.counts
    assert same(result.cells, oracle.cells)
