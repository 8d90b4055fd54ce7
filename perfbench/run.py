#!/usr/bin/env python3
"""dqdcycle benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload phase-maps --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/dqdcycle`` must be there). The
workloads (``phase-maps``, ``sweep-json``, ``verify-suite``) are described in
``harness.py`` and ``README.md``. Each run:

1. runs one small warm-up operation;
2. with ``--trace 0``, repeats whole units until ``--seconds`` have passed
   and reports the work done per second of timed calls; with ``--trace 1``,
   alternates an untraced and a traced unit for ``--seconds`` and reports the
   per-layer metrics of the traced units;
3. between units, starts ``probe.py`` in fresh interpreters to time set-up
   (import ``dqdcycle.cli`` and build the workload's inputs), 7 times spread
   over the run, and reports the median;
4. checks every operation's output (outside the timed region).

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The names
and units of the metrics are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["phase-maps", "sweep-json", "verify-suite"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, import seconds) of one fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["ready"] - t0, data["import_s"]


def machine_info() -> dict:
    import numpy

    from harness import nproc

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    uname = os.uname()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dqdcycle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "os": f"{uname.sysname} {uname.release} {uname.machine}",
            "git_commit": git_commit(), "source_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    """HEAD's commit if the checkout is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def per_layer(tracer, units: list, untraced_s: list[float], import_s: float) -> dict:
    """Per-layer metrics of the traced units; see README.md for each definition."""
    n = len(units)
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per_call_us(name, index):
        c = calls(name)
        return totals[name][index] / c * 1e6 if c else 0.0

    def per_unit_s(name, index):
        return totals.get(name, (0, 0.0, 0.0))[index] / n

    m = {}
    for name in ("qdot.spectrum", "qdot.gibbs_state", "channels.kraus_operators",
                 "channels.apply_kraus", "thermo.run_cycle_closed_form",
                 "thermo.run_cycle_matrix", "regimes.branch_quantities", "regimes.classify"):
        m[f"{name}.calls"] = calls(name) / n
    for name in ("qdot.spectrum", "qdot.gibbs_state", "qdot.von_neumann_entropy",
                 "qdot.is_density_matrix", "channels.kraus_operators", "channels.apply_kraus",
                 "thermo.run_cycle_closed_form", "thermo.run_cycle_matrix",
                 "regimes.branch_quantities", "regimes.classify", "regimes.thresholds"):
        m[f"{name}.self_us"] = per_call_us(name, 2)
    for name in ("thermo.run_cycle_closed_form", "thermo.run_cycle_matrix"):
        m[f"{name}.incl_us"] = per_call_us(name, 1)
    cells = sum(u.cells for u in units)
    m["regimes.defined_frac"] = sum(u.defined_cells for u in units) / cells if cells else 0.0
    m["sweep.cells"] = cells / n
    m["sweep.run_sweep.self_s"] = per_unit_s("sweep.run_sweep", 2)
    m["sweep.write_csv_s"] = per_unit_s("sweep.write_csv", 1)
    m["sweep.output_bytes"] = sum(u.output_bytes for u in units) / n
    m["sweep.to_json_document_s"] = per_unit_s("sweep.to_json_document", 1)
    m["sweep.json_dumps_s"] = per_unit_s("sweep.json_dumps", 1)
    busy, capacity = tracer.worker_busy()
    m["sweep.worker_busy_frac"] = busy / capacity if capacity else 0.0
    from harness import VERIFY_CHECKS

    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = per_unit_s(f"verify.{check}", 1)
    m["cli.main.self_s"] = per_unit_s("cli.main", 2)
    m["cli.import_s"] = import_s
    traced_s = [u.timed_s for u in units]
    m["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    m["trace.unattributed_frac"] = 1.0 - tracer.main_root_s() / sum(traced_s)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dqdcycle" / "__init__.py").is_file():
        print(f"error: no dqdcycle sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    import harness
    import spans

    workload = harness.build(args.workload, args.seed, harness.load_reference())
    tracer = spans.Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    units, plain_units, probes = [], [], []
    try:
        warm = workload.warm_up(workdir)
        start = time.perf_counter()
        while True:
            if tracer is not None:
                plain_units.append(workload.run_unit(workdir))
            units.append(workload.run_unit(workdir, tracer))
            elapsed = time.perf_counter() - start
            # Set-up probes are spread over the run, between units, so that
            # they sample the same stretch of machine time as the units.
            owed = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds))
            while len(probes) < owed:
                probes.append(probe_setup(args.workload, args.seed))
            if elapsed >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(p[0] for p in probes)
    import_s = statistics.median(p[1] for p in probes)
    rates = [u.items / u.timed_s for u in units if u.items and u.timed_s > 0]
    everything = [warm] + plain_units + units

    attempted = sum(u.attempted for u in everything)
    failed = sum(u.failed for u in everything)
    for u in everything:
        for problem in u.problems:
            print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(tracer, units, [u.timed_s for u in plain_units], import_s)
        kind = "per_layer"
    else:
        metrics = {"setup_s": setup_s,
                   "items_per_s": (sum(u.items for u in units)
                                   / sum(u.timed_s for u in units)),
                   "peak_rss_mb": peak_rss_mb}
        kind = "end_to_end"
    units_of = {d["name"]: d["unit"] for d in declared[kind]}
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units_of))} differ "
                           f"from the {kind} list in BENCHMARK.json")

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "units": len(units), "sizes": workload.sizes(),
            "setup_probes": [round(p[0], 6) for p in probes],
            "unit_rates": [round(r, 3) for r in rates],
            "untraced_unit_s": [round(u.timed_s, 6) for u in plain_units],
            "traced_unit_s": [round(u.timed_s, 6) for u in units] if args.trace else [],
            "machine": machine_info()}
    print("info " + json.dumps(info))
    if not args.trace:
        throughput = "trials_per_s" if args.workload == "verify-suite" else "cells_per_s"
        print(f"{args.workload}: setup_s={setup_s:.4f} s  "
              f"{throughput}={metrics['items_per_s']:.1f} 1/s (items_per_s over "
              f"{len(units)} units; median unit {statistics.median(rates or [0]):.1f})  "
              f"peak_rss_mb={peak_rss_mb:.1f} MB  "
              f"error_rate={failed / attempted:.4g} ({failed}/{attempted})")
    else:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
