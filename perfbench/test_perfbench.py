"""Self-tests of the benchmark: tiny smoke runs and negative controls.

    python3 -m pytest -q perfbench

The negative controls feed the oracle a deliberately corrupted result and
require the run's error rate to become nonzero, the same way the package's
own tests corrupt ``kraus_fn`` to show that ``verify`` can fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import run
import spans
from dqdcycle import channels, regimes, sweep, thermo
from dqdcycle.regimes import Mode

BENCHMARK = harness.ROOT / "BENCHMARK.json"


def error_rate(unit: harness.UnitResult) -> float:
    return unit.failed / unit.attempted


def test_smoke_phase_maps(tmp_path):
    w = harness.PhaseMaps(seed=7, steps=5, samples=25)
    unit = w.run_unit(tmp_path)
    assert (unit.attempted, unit.failed, unit.problems) == (14, 0, [])
    assert unit.cells == unit.items == 14 * 25
    assert unit.output_bytes > 0


def test_smoke_sweep_json(tmp_path):
    w = harness.SweepJson(seed=7, steps=5, samples=25)
    unit = w.run_unit(tmp_path)
    assert (unit.attempted, unit.failed, unit.problems) == (1, 0, [])
    assert unit.cells == 25
    assert w.workers <= harness.nproc()


def test_smoke_verify_suite(tmp_path):
    unit = harness.VerifySuite(seed=7, trials=5).run_unit(tmp_path)
    assert (unit.attempted, unit.failed, unit.problems) == (6, 0, [])
    assert unit.items == 30


def _corrupt(result, index, **changes):
    cells = list(result.cells)
    cell = cells[index]
    cells[index] = dataclasses.replace(cell, result=dataclasses.replace(cell.result, **changes))
    return dataclasses.replace(result, cells=cells)


def _honest_counts(steps):
    counts = {}
    for name, spec in harness.PhaseMaps(seed=7, steps=steps).maps:
        result = sweep.run_sweep(spec)
        counts[name] = {m.value: n for m, n in result.counts.items()}
    return {"steps": steps, "maps": counts}


def test_negative_control_flipped_mode(tmp_path, monkeypatch):
    """One flipped mode, no cell sampled: the reference counts catch it."""
    w = harness.PhaseMaps(seed=7, steps=5, reference=_honest_counts(5), samples=0)
    honest_op = w.op

    def corrupted(spec, path):
        result = honest_op(spec, path)
        i = next(i for i, c in enumerate(result.cells) if c.result.mode is Mode.HEATER)
        return _corrupt(result, i, mode=Mode.ACCELERATOR)

    monkeypatch.setattr(w, "op", corrupted)
    unit = w.run_unit(tmp_path)
    assert unit.failed > 0 and error_rate(unit) > 0
    assert any("mode counts" in p for p in unit.problems)


def test_negative_control_perturbed_current(tmp_path, monkeypatch):
    """One current off by 1e-6 (signs kept): the matrix route catches it."""
    w = harness.PhaseMaps(seed=7, steps=5, reference=_honest_counts(5), samples=25)
    honest_op = w.op

    def corrupted(spec, path):
        result = honest_op(spec, path)
        qh = result.cells[12].result.Qh
        return _corrupt(result, 12, Qh=qh + 1e-6 * (1 if qh >= 0 else -1))

    monkeypatch.setattr(w, "op", corrupted)
    unit = w.run_unit(tmp_path)
    assert unit.failed == 14 and error_rate(unit) == 1.0
    assert all("matrix route" in p for p in unit.problems)


def test_negative_control_sweep_json(tmp_path, monkeypatch):
    """A flipped mode in the JSON document fails the sampled check and the summary check."""
    w = harness.SweepJson(seed=7, steps=5, samples=25)
    honest_op = w.op

    def corrupted(argv):
        code = honest_op(argv)
        path = Path(argv[argv.index("--output") + 1])
        doc = json.loads(path.read_text())
        doc["cells"][3]["mode"] = "refrigerator"
        path.write_text(json.dumps(doc))
        return code

    monkeypatch.setattr(w, "op", corrupted)
    unit = w.run_unit(tmp_path)
    assert unit.failed == 1 and error_rate(unit) == 1.0


def test_negative_control_verify(tmp_path, monkeypatch):
    """A Kraus set that no longer resolves the identity fails verify's own checks."""
    honest = channels.kraus_operators

    def corrupted(channel):
        ops = honest(channel)
        return [1.01 * ops[0]] + ops[1:]

    monkeypatch.setattr(channels, "kraus_operators", corrupted)
    unit = harness.VerifySuite(seed=7, trials=5).run_unit(tmp_path)
    assert unit.failed > 0 and error_rate(unit) > 0


def test_tracer_restores_modules_and_reports_every_layer(tmp_path):
    originals = {(m.__name__, a): getattr(m, a) for m, a, _ in spans._PATCHES}
    declared = {d["name"] for d in json.loads(BENCHMARK.read_text())["per_layer"]}
    for w in (harness.PhaseMaps(seed=1, steps=5, samples=4),
              harness.SweepJson(seed=1, steps=5, samples=4),
              harness.VerifySuite(seed=1, trials=5)):
        tracer = spans.Tracer()
        plain = w.run_unit(tmp_path)
        traced = w.run_unit(tmp_path, tracer)
        assert traced.failed == 0
        metrics = run.per_layer(tracer, [traced], [plain.timed_s], 0.25)
        assert set(metrics) == declared
        assert all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_frac")
        assert {(m.__name__, a): getattr(m, a) for m, a, _ in spans._PATCHES} == originals
    assert regimes.run_cycle_closed_form is thermo.run_cycle_closed_form


def test_span_nesting_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.totals()
    assert totals["inner"][0] == 3 and totals["outer"][0] == 1
    assert abs(totals["outer"][1] - totals["outer"][2] - totals["inner"][1]) < 1e-9
    assert tracer.main_root_s() == totals["outer"][1]


def test_run_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, no result is printed."""
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
