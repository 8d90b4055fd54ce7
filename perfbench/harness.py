"""Workloads and output oracle of the dqdcycle benchmark.

Each workload turns a seed into fixed inputs, runs them through the public
API in units, and checks every operation's output outside the timed region:

* ``phase-maps``: the 14 standard maps, each ``run_sweep(spec, workers=1)``
  then ``write_csv`` to a file. One unit is one pass over all 14 maps; one
  operation is one map.
* ``sweep-json``: the 201 x 201 engine map through ``cli.main(["sweep", ...,
  "--format", "json"])`` with ``min(2, nproc)`` workers. One unit, and one
  operation, is one CLI invocation.
* ``verify-suite``: ``verify.run_all(seed, 1000)`` with the run's seed. One
  unit is one call; each of its six checks is one operation.

The oracle recomputes a seeded sample of cells through the independent
density-matrix route (``thermo.run_cycle_matrix``) and compares the mode and
the three currents, and compares per-map mode counts with ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from dqdcycle import cli, sweep, verify  # noqa: E402
from dqdcycle.qdot import DotParams  # noqa: E402
from dqdcycle.regimes import Branch  # noqa: E402
from dqdcycle.sweep import AxisSpec, GridSpec  # noqa: E402
from dqdcycle.thermo import CycleInputs, run_cycle_matrix  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"

# The map families of scripts/run_phase_maps.py, copied so that the
# benchmark's inputs stay fixed when that script changes.
FAMILIES = [
    (Branch.ENGINE, 0.0, (1.0, 2.0)),
    (Branch.ENGINE, 0.2, (1.0, 2.0)),
    (Branch.REFRIGERATOR_PLUS, 0.0, (1.0, 3.0)),
    (Branch.REFRIGERATOR_PLUS, 0.1, (1.0, 2.0, 4.0, 6.0)),
    (Branch.REFRIGERATOR_MINUS, 0.2, (2.0, 4.0)),
    (Branch.REFRIGERATOR_MINUS, 0.5, (2.0, 4.0)),
]
PHASE_MAP_STEPS = 51          # 14 maps x 51^2 = 36,414 cells per pass
SWEEP_JSON_STEPS = 201        # the README's engine map: 40,401 cells
VERIFY_TRIALS = 1000          # the CLI default
ORACLE_SAMPLES = 16           # matrix-route cells checked per map
ZERO_TOL = 1e-12              # GridSpec's default
VERIFY_CHECKS = (
    "kraus_completeness",
    "channel_cptp",
    "channel_reset",
    "path_agreement",
    "cycle_closure",
    "threshold_consistency",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sweep_json_workers() -> int:
    # Capped at the core count: the README's --workers 4 would put more
    # threads than cores on a 2-core machine and measure the scheduler.
    return min(2, nproc())


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output oracle


def signs_mode(qh: float, qc: float, w: float) -> str:
    """Mode from the sign pattern of (Qh, Qc, W), written out independently."""
    if min(abs(qh), abs(qc), abs(w)) <= ZERO_TOL:
        return "undefined"
    table = {
        (True, False, False): "engine",
        (False, True, True): "refrigerator",
        (True, False, True): "accelerator",
        (False, False, True): "heater",
    }
    return table.get((qh > 0, qc > 0, w > 0), "undefined")


def matrix_currents(branch: Branch, tau: float, temperature: float,
                    strength: float, epsilon: float) -> tuple[float, float, float]:
    """(Qh, Qc, W) of one cell from the density-matrix ledger and the branch's stroke roles."""
    if branch is Branch.ENGINE:
        a = b = strength
    else:
        t = math.tanh(math.hypot(epsilon, tau) / temperature)
        a = 0.5 * (1.0 + t) if branch is Branch.REFRIGERATOR_PLUS else 0.5 * (1.0 - t)
        b = strength
    ledger = run_cycle_matrix(CycleInputs(DotParams(epsilon, tau), temperature, a, b))
    if branch is Branch.ENGINE:
        return ledger.dU2, ledger.dU1, ledger.dU3   # hot 2, cold 1, work 3
    return ledger.dU3, ledger.dU1, ledger.dU2       # hot 3, cold 1, work 2


def check_cells(branch: Branch, tau: float, temperature: float, rows: list,
                expected_counts: dict | None, rng: random.Random, samples: int) -> list[str]:
    """Problems found in one map; ``rows`` holds (strength, epsilon, mode, Qh, Qc, W).

    ``expected_counts`` of None skips the count comparison (grid sizes that
    have no reference); the sampled matrix-route comparison always runs.
    """
    problems = []
    if expected_counts is not None:
        got = Counter(row[2] for row in rows)
        want = Counter(expected_counts)
        if got != want:
            problems.append(f"mode counts {dict(got)} != reference {dict(want)}")
    for i in rng.sample(range(len(rows)), min(samples, len(rows))):
        strength, epsilon, mode, qh, qc, w = rows[i]
        ref = matrix_currents(branch, tau, temperature, strength, epsilon)
        gap = max(abs(x - y) for x, y in zip((qh, qc, w), ref))
        ref_mode = signs_mode(*ref)
        if ref_mode != mode:
            problems.append(f"cell {i}: mode {mode} but matrix route gives {ref_mode}")
        if not gap <= verify.PATH_TOL:
            problems.append(f"cell {i}: currents differ from matrix route by {gap:.3e}")
    return problems


# ---------------------------------------------------------------------------
# workloads


@dataclass
class UnitResult:
    """Tally of one unit; ``timed_s`` covers the timed calls only, not the oracle."""

    timed_s: float = 0.0
    items: int = 0            # cells, or trials x checks for verify-suite
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    defined_cells: int = 0

    def fail(self, label: str, problems: list[str], operations: int = 1) -> None:
        self.failed += operations
        self.problems.extend(f"{label}: {p}" for p in problems)


def _timed(out: UnitResult, call, tracer=None):
    """Run ``call`` inside the timed region, traced if a tracer is given.

    Returns (output, exception); the oracle runs later, outside both.
    """
    t0 = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            return call(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, exc
    finally:
        out.timed_s += time.perf_counter() - t0


def _rows(result) -> list[tuple]:
    return [(c.strength, c.epsilon, c.result.mode.value, c.result.Qh, c.result.Qc, c.result.W)
            for c in result.cells]


def _map_name(branch: Branch, tau: float, temperature: float) -> str:
    return f"{branch.value}_tau{tau:g}_T{temperature:g}"


class PhaseMaps:
    """The 14 standard maps; one unit is one pass over all of them."""

    name = "phase-maps"

    def __init__(self, seed: int, steps: int = PHASE_MAP_STEPS,
                 reference: dict | None = None, samples: int = ORACLE_SAMPLES):
        self.rng = random.Random(seed)
        self.steps = steps
        self.samples = samples
        if reference is not None and reference["steps"] != steps:
            raise ValueError(f"reference is for {reference['steps']} steps, not {steps}")
        self.reference = reference
        maps = [(_map_name(branch, tau, t), self._spec(branch, tau, t, steps))
                for branch, tau, temps in FAMILIES for t in temps]
        shift = seed % len(maps)  # the seed picks the map each pass starts with
        self.maps = maps[shift:] + maps[:shift]

    @staticmethod
    def _spec(branch: Branch, tau: float, temperature: float, steps: int) -> GridSpec:
        return GridSpec(branch, AxisSpec(0.0, 1.0, steps), AxisSpec(0.1, 3.0, steps),
                        tau, temperature)

    def sizes(self) -> dict:
        return {"maps": len(self.maps), "steps": self.steps,
                "cells_per_unit": len(self.maps) * self.steps ** 2, "workers": 1,
                "oracle_samples_per_map": self.samples}

    def op(self, spec: GridSpec, path: Path):
        result = sweep.run_sweep(spec, workers=1)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            sweep.write_csv(result, fh)
        return result

    def _run(self, maps, workdir: Path, reference: dict | None, samples: int,
             tracer=None) -> UnitResult:
        out = UnitResult()
        for name, spec in maps:
            path = workdir / f"{name}.csv"
            out.attempted += 1
            result, exc = _timed(out, lambda: self.op(spec, path), tracer)
            if exc is not None:
                out.fail(name, [repr(exc)])
                continue
            rows = _rows(result)
            out.items += len(rows)
            out.cells += len(rows)
            out.output_bytes += path.stat().st_size
            out.defined_cells += sum(r[2] != "undefined" for r in rows)
            expected = None if reference is None else reference["maps"][name]
            if len(rows) != spec.strength_axis.steps * spec.epsilon_axis.steps:
                problems = [f"{len(rows)} cells for a {spec.strength_axis.steps}^2 grid"]
            else:
                problems = check_cells(spec.branch, spec.tau, spec.temperature, rows,
                                       expected, self.rng, samples)
            if problems:
                out.fail(name, problems)
        return out

    def warm_up(self, workdir: Path) -> UnitResult:
        """One 5 x 5 map through the same path, every cell checked."""
        branch, tau, temps = FAMILIES[0]
        small = self._spec(branch, tau, temps[0], 5)
        return self._run([("warm-up", small)], workdir, None, 25)

    def run_unit(self, workdir: Path, tracer=None) -> UnitResult:
        return self._run(self.maps, workdir, self.reference, self.samples, tracer)


class SweepJson:
    """The README's 201 x 201 engine map through the CLI as JSON; one unit is one call."""

    name = "sweep-json"

    def __init__(self, seed: int, steps: int = SWEEP_JSON_STEPS,
                 reference: dict | None = None, samples: int = 14 * ORACLE_SAMPLES):
        self.rng = random.Random(seed)
        self.steps = steps
        self.samples = samples
        if reference is not None and reference["steps"] != steps:
            raise ValueError(f"reference is for {reference['steps']} steps, not {steps}")
        self.reference = reference
        self.workers = sweep_json_workers()

    def sizes(self) -> dict:
        return {"maps": 1, "steps": self.steps, "cells_per_unit": self.steps ** 2,
                "workers": self.workers, "oracle_samples_per_map": self.samples}

    def argv(self, steps: int, path: Path) -> list[str]:
        return ["sweep", "--branch", "engine",
                "--grid-strength", f"0:1:{steps}", "--grid-epsilon", f"0.1:3:{steps}",
                "--tau", "0", "--temperature", "1", "--format", "json",
                "--workers", str(self.workers), "--output", str(path)]

    def op(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):  # the area-fraction printout
            return cli.main(argv)

    def _run(self, steps: int, workdir: Path, reference: dict | None, samples: int,
             tracer=None) -> UnitResult:
        out = UnitResult(attempted=1)
        path = workdir / "sweep.json"
        code, exc = _timed(out, lambda: self.op(self.argv(steps, path)), tracer)
        if exc is not None or code != 0:
            out.fail("sweep", [repr(exc) if exc is not None else f"exit code {code}"])
            return out
        out.output_bytes = path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = []
        if doc.get("schema") != 1:
            problems.append(f"schema {doc.get('schema')!r}, expected 1")
        rows = [(c["strength"], c["epsilon"], c["mode"], c["Qh"], c["Qc"], c["W"])
                for c in doc.get("cells", [])]
        if len(rows) != steps ** 2:
            problems.append(f"{len(rows)} cells, expected {steps ** 2}")
        out.items = out.cells = len(rows)
        out.defined_cells = sum(r[2] != "undefined" for r in rows)
        problems += check_cells(Branch.ENGINE, 0.0, 1.0, rows,
                                None if reference is None else reference["counts"],
                                self.rng, samples)
        summary = Counter(doc.get("summary", {}).get("counts", {}))
        counted = Counter(r[2] for r in rows)
        if summary != counted:
            problems.append(f"summary counts {dict(summary)} disagree with the cells "
                            f"{dict(counted)}")
        if problems:
            out.fail("sweep", problems)
        return out

    def warm_up(self, workdir: Path) -> UnitResult:
        return self._run(5, workdir, None, 25)

    def run_unit(self, workdir: Path, tracer=None) -> UnitResult:
        return self._run(self.steps, workdir, self.reference, self.samples, tracer)


class VerifySuite:
    """``verify.run_all(seed, trials)`` with the run's seed; each check is one operation.

    Every unit repeats the same seeded call, so every unit does the same work.
    """

    name = "verify-suite"

    def __init__(self, seed: int, trials: int = VERIFY_TRIALS):
        self.seed = seed
        self.trials = trials

    def sizes(self) -> dict:
        return {"trials": self.trials, "checks": len(VERIFY_CHECKS),
                "trial_checks_per_unit": self.trials * len(VERIFY_CHECKS)}

    def op(self, seed: int, trials: int):
        return verify.run_all(seed, trials)

    def _run(self, trials: int, tracer=None) -> UnitResult:
        seed = self.seed
        out = UnitResult(attempted=len(VERIFY_CHECKS))
        results, exc = _timed(out, lambda: self.op(seed, trials), tracer)
        if exc is not None:
            out.fail(f"seed {seed}", [repr(exc)], len(VERIFY_CHECKS))
            return out
        names = tuple(r.name for r in results)
        if names != VERIFY_CHECKS:
            out.fail(f"seed {seed}", [f"checks {names}, expected {VERIFY_CHECKS}"],
                     len(VERIFY_CHECKS))
            return out
        out.items = trials * len(results)
        for r in results:
            if not (r.passed and r.trials == trials):
                out.fail(f"seed {seed} {r.name}",
                         [f"residual {r.max_residual:.3e} > {r.tolerance:.1e}"])
        return out

    def warm_up(self, workdir: Path) -> UnitResult:
        return self._run(5)

    def run_unit(self, workdir: Path, tracer=None) -> UnitResult:
        return self._run(self.trials, tracer)


WORKLOADS = {w.name: w for w in (PhaseMaps, SweepJson, VerifySuite)}


def build(name: str, seed: int, reference: dict | None):
    """The workload's inputs, as the benchmark runs it."""
    cls = WORKLOADS[name]
    if cls is VerifySuite:
        return cls(seed)
    return cls(seed, reference=None if reference is None else reference[name])
