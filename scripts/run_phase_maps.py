#!/usr/bin/env python3
"""Regenerate the standard operating-regime map families.

Sweeps the three branches over (strength, epsilon) grids at the usual
tunneling/temperature combinations and writes one CSV per map plus a JSON
summary of per-mode area fractions:

    engine branch     tau = 0     T = 1, 2      localized-limit engine maps
    engine branch     tau = 0.2   T = 1, 2      finite-tunneling engine maps
    plus branch       tau = 0     T = 1, 3      refrigerator maps
    plus branch       tau = 0.1   T = 1,2,4,6   temperature trend of cooling
    minus branch      tau = 0.2, 0.5  T = 2, 4  weak-work refrigerator maps

CSVs are plot-ready (columns strength,epsilon,mode,performance,Qh,Qc,W);
rendering is left to whatever plotting stack sits downstream.
"""

import argparse
import json
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dqdcycle.cli import EXIT_INPUT_ERROR, EXIT_IO_ERROR, EXIT_OK, emit
from dqdcycle.regimes import Branch
from dqdcycle.sweep import AxisSpec, GridSpec, mode_area_fractions, run_sweep, write_csv

FAMILIES = [
    (Branch.ENGINE, 0.0, (1.0, 2.0)),
    (Branch.ENGINE, 0.2, (1.0, 2.0)),
    (Branch.REFRIGERATOR_PLUS, 0.0, (1.0, 3.0)),
    (Branch.REFRIGERATOR_PLUS, 0.1, (1.0, 2.0, 4.0, 6.0)),
    (Branch.REFRIGERATOR_MINUS, 0.2, (2.0, 4.0)),
    (Branch.REFRIGERATOR_MINUS, 0.5, (2.0, 4.0)),
]
EPSILON_MIN = 0.1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("maps"))
    parser.add_argument("--steps", type=int, default=201, help="grid points per axis")
    parser.add_argument("--epsilon-max", type=float, default=3.0)
    args = parser.parse_args(argv)

    try:  # every grid is checked before anything is made on disk
        specs = [GridSpec(branch=branch, strength_axis=AxisSpec(0.0, 1.0, args.steps),
                          epsilon_axis=AxisSpec(EPSILON_MIN, args.epsilon_max, args.steps),
                          tau=tau, temperature=temperature)
                 for branch, tau, temperatures in FAMILIES for temperature in temperatures]
    except ValueError as exc:
        print(f"error: {exc} (--steps {args.steps}; epsilon runs from {EPSILON_MIN} to "
              f"--epsilon-max {args.epsilon_max})", file=sys.stderr)
        return EXIT_INPUT_ERROR

    summary = []
    try:  # an --outdir that cannot be made or written to
        args.outdir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            result = run_sweep(spec)
            name = f"{spec.branch.value}_tau{spec.tau:g}_T{spec.temperature:g}.csv"
            emit(partial(write_csv, result), str(args.outdir / name))
            fractions = {m.value: f for m, f in mode_area_fractions(result).items()}
            summary.append({"file": name, "branch": spec.branch.value, "tau": spec.tau,
                            "temperature": spec.temperature, "area_fractions": fractions})
            shares = "  ".join(f"{k}={v:.3f}" for k, v in fractions.items() if v > 0)
            print(f"{name:<40s} {shares}")

        emit(json.dumps({"schema": 1, "maps": summary}, indent=2),
             str(args.outdir / "summary.json"))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(f"\n{len(summary)} maps -> {args.outdir}/ (+ summary.json)")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
