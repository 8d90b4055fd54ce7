import json
import math
import shutil
import subprocess

import pytest

from dqdcycle import channels, cli
from dqdcycle.channels import kraus_operators


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
    assert doc["partition_function"] == pytest.approx(2 * math.cosh(1.0))
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


def test_spectrum_csv_format(capsys):
    assert run_cli("spectrum", "--epsilon", "1", "--tau", "0", "--temperature", "1",
                   "--format", "csv") == 0
    out = capsys.readouterr().out
    assert "gap,1.000000000000e+00" in out
    assert "populations.ground,8.807970779779e-01" in out
    assert "degenerate,false" in out


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
    assert run_cli("classify", "--branch", "refrigerator-plus", "--epsilon", "1",
                   "--tau", "0", "--temperature", "1", "--a", "0.7") == 2


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


def test_sweep_replaces_existing_output(tmp_path):
    out = tmp_path / "map.csv"
    out.write_text("old contents\n")
    assert run_cli(*sweep_args(out)) == 0
    assert out.read_text().startswith("strength,epsilon,")
    assert list(tmp_path.iterdir()) == [out]


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
# verify


def test_verify_passes(capsys):
    assert run_cli("verify", "--seed", "5", "--trials", "120") == 0
    out = capsys.readouterr().out
    assert "[PASS] kraus_completeness" in out
    assert "[PASS] threshold_consistency" in out
    assert "all 6 checks passed" in out


def test_verify_zero_trials_is_usage_error(capsys):
    assert run_cli("verify", "--trials", "0") == 2
    assert "trials" in capsys.readouterr().err


def test_verify_detects_corruption(monkeypatch, capsys):
    monkeypatch.setattr(channels, "kraus_operators", lambda ch: kraus_operators(ch)[:3])
    assert run_cli("verify", "--seed", "5", "--trials", "40") == 1
    out = capsys.readouterr().out
    assert "[FAIL] kraus_completeness" in out
    assert "failing case" in out


# ---------------------------------------------------------------------------
# plumbing


def test_help_exits_zero():
    assert run_cli("--help") == 0


def test_missing_subcommand_is_usage_error():
    assert run_cli() == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("explode") == 2


def test_app_wraps_exit_code(monkeypatch):
    monkeypatch.setattr("sys.argv", ["dqdcycle", "spectrum", "--epsilon", "1",
                                     "--tau", "0", "--temperature", "1"])
    with pytest.raises(SystemExit) as excinfo:
        cli.app()
    assert excinfo.value.code == 0


@pytest.mark.skipif(shutil.which("dqdcycle") is None, reason="entry point not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["dqdcycle", "spectrum", "--epsilon", "1", "--tau", "0", "--temperature", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gap"] == pytest.approx(1.0)
