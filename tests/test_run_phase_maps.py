"""``scripts/run_phase_maps.py`` run in-process: every map and the summary."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from dqdcycle import cli
from dqdcycle.sweep import AxisSpec, GridSpec, mode_area_fractions, write_csv

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
def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, target):
    """The first map and the summary are each written whole or not at all."""
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
    with pytest.raises(OSError, match="No space left"):
        load_script().main(["--steps", "3", "--outdir", str(tmp_path)])
    assert old.read_text() == "old contents\n"
    assert not list(tmp_path.glob("*.tmp"))
