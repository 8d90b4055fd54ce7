"""Command-line front end.

Subcommands::

    spectrum   eigenstructure and thermal populations of the dot
    cycle      one full cycle: both ledgers (closed-form and matrix) + discrepancy
    classify   regime of a single branch point, with the analytic thresholds
    sweep      (strength, epsilon) grid -> CSV/JSON regime + performance map
    verify     randomized self-check suites

Every number printed here is produced by a library call that the test suite
exercises directly; the CLI only parses, dispatches and serializes. Options
may come from flags or from a JSON config file (``--config``); flags win.
Outputs are composed fully in memory, written to a temporary sibling of the
destination and renamed onto it, so a failed run leaves the old file or none.

Exit codes: 0 success, 1 verification failure, 2 input/domain error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .qdot import DotParams, spectrum
from .regimes import BRANCHES, Branch, branch_currents, branch_thresholds, classify
from .regimes import constrained_strength
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from .regimes import engine_branch_quantities, engine_branch_thresholds  # noqa: F401
from .regimes import refrigerator_branch_thresholds  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401
from .sweep import to_json_document  # noqa: F401
from .sweep import PERFORMANCE_CONVENTION, AxisSpec, GridSpec, _fmt, mode_area_fractions
from .sweep import run_sweep, write_csv, write_json
from .thermo import CycleInputs, ledger_discrepancy, run_cycle_closed_form, run_cycle_matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_IO_ERROR = 3

_LEDGER_FIELDS = ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3")


def _axis(text: str) -> AxisSpec:
    """Parse an axis flag of the form min:max:steps."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:steps, got {text!r}")
    try:
        return AxisSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqdcycle",
        description="Three-stroke measurement-driven thermal machine on a double-dot qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config=True):
        if config:
            p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("spectrum", help="eigenstructure and thermal populations")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    common(p)

    p = sub.add_parser("cycle", help="stroke energetics of one cycle, both computation paths")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--a", type=float, default=None, help="channel-A strength")
    p.add_argument("--b", type=float, default=None, help="channel-B strength")
    common(p)

    p = sub.add_parser("classify", help="operating regime of one branch point")
    p.add_argument("--branch", choices=[b.value for b in Branch], default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--a", type=float, default=None, help="strength on the engine branch")
    p.add_argument("--b", type=float, default=None, help="strength on the refrigerator branches")
    p.add_argument("--zero-tol", type=float, default=None)
    common(p)

    p = sub.add_parser("sweep", help="regime/performance map over a (strength, epsilon) grid")
    p.add_argument("--branch", choices=[b.value for b in Branch], default=None)
    p.add_argument("--grid-strength", type=_axis, default=None, metavar="MIN:MAX:STEPS")
    p.add_argument("--grid-epsilon", type=_axis, default=None, metavar="MIN:MAX:STEPS")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--zero-tol", type=float, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility and ignored (must be >= 1)")
    common(p)

    p = sub.add_parser("verify", help="run the randomized self-check suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


# ---------------------------------------------------------------------------
# config-file merge


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset (None) options from the JSON file given by --config."""
    path = getattr(args, "config", None)
    if path is None:
        return
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config file: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    known = set(vars(args)) - {"command", "config"}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ValueError(f"unknown config key: {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, _coerce(dest, value))


def _coerce(dest: str, value):
    if dest in ("grid_strength", "grid_epsilon"):
        if isinstance(value, str):
            return _axis(value)
        if isinstance(value, (list, tuple)) and len(value) == 3:
            return AxisSpec(float(value[0]), float(value[1]), int(value[2]))
        raise ValueError(f"config key {dest!r} must be 'min:max:steps' or [min, max, steps]")
    if dest in ("branch", "format", "output"):
        if not isinstance(value, str):
            raise ValueError(f"config key {dest!r} must be a string")
        if dest == "branch" and value not in {b.value for b in Branch}:
            raise ValueError(f"unknown branch: {value!r}")
        if dest == "format" and value not in ("csv", "json"):
            raise ValueError(f"unknown format: {value!r}")
        return value
    if dest in ("seed", "trials", "workers"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config key {dest!r} must be an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {dest!r} must be a number")
    return float(value)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        tmp = f"{output}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, output)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise


def _report(doc: dict, fmt: str) -> str:
    """Render a flat-ish report dict as JSON or as quantity,value CSV rows."""
    if fmt == "json":
        return json.dumps(doc, indent=2)
    buf = io.StringIO()
    for key, value in _flatten(doc):
        buf.write(f"{key},{value}\n")
    return buf.getvalue()


def _flatten(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, name + ".")
        elif isinstance(value, (list, tuple)):
            yield name, ";".join(str(v) for v in value)
        elif value is None:
            yield name, ""
        elif isinstance(value, bool):
            yield name, "true" if value else "false"
        elif isinstance(value, float):
            yield name, _fmt(value)
        else:
            yield name, value
    return


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    _require(args, "epsilon", "tau", "temperature")
    params = DotParams(args.epsilon, args.tau)
    if args.temperature <= 0.0 or not math.isfinite(args.temperature):
        raise ValueError("temperature must be positive")
    spec = spectrum(params)
    beta_e = spec.gap / args.temperature
    try:
        z = 2.0 * math.cosh(beta_e)
    except OverflowError:
        z = math.inf
    t = math.tanh(beta_e)
    doc = {
        "epsilon": args.epsilon,
        "tau": args.tau,
        "temperature": args.temperature,
        "gap": spec.gap,
        "theta": spec.theta,
        "eigenvalues": list(spec.eigenvalues),
        "partition_function": z,
        "populations": {"ground": 0.5 * (1.0 + t), "excited": 0.5 * (1.0 - t)},
        "degenerate": spec.degenerate,
    }
    _emit(_report(doc, args.format or "json"), args.output)
    return EXIT_OK


def cmd_cycle(args) -> int:
    _require(args, "epsilon", "tau", "temperature", "a", "b")
    inputs = CycleInputs(DotParams(args.epsilon, args.tau), args.temperature, args.a, args.b)
    closed = run_cycle_closed_form(inputs)
    matrix = run_cycle_matrix(inputs)
    doc = {
        "inputs": {"epsilon": args.epsilon, "tau": args.tau,
                   "temperature": args.temperature, "a": args.a, "b": args.b},
        "closed_form": {f: getattr(closed, f) for f in _LEDGER_FIELDS},
        "matrix": {f: getattr(matrix, f) for f in _LEDGER_FIELDS},
        "energy_closure": closed.energy_closure,
        "entropy_closure": closed.entropy_closure,
        "max_discrepancy": ledger_discrepancy(closed, matrix),
    }
    if (args.format or "json") == "json":
        doc["states"] = {
            name: np.real(getattr(matrix, name)).tolist()
            for name in ("rho1", "rho2", "rho3")
        }
    _emit(_report(doc, args.format or "json"), args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    _require(args, "branch", "epsilon", "tau", "temperature")
    branch = Branch(args.branch)
    params = DotParams(args.epsilon, args.tau)
    zero_tol = 1e-12 if args.zero_tol is None else args.zero_tol

    rule = BRANCHES[branch]
    _require(args, rule.free)
    if rule.pinned_a is None and args.b is not None:
        raise ValueError("the engine branch fixes b = a; give --a only")
    if rule.pinned_a is not None and args.a is not None:
        raise ValueError("refrigerator branches fix a thermally; give --b only")
    strength = getattr(args, rule.free)
    qh, qc, w = branch_currents(branch, params, args.temperature, strength)
    thresholds = branch_thresholds(branch, params, args.temperature)._asdict()

    result = classify(qh, qc, w, zero_tol)
    doc = {
        "branch": branch.value,
        "strength": strength,
        "epsilon": args.epsilon,
        "tau": args.tau,
        "temperature": args.temperature,
        "mode": result.mode.value,
        "Qh": result.Qh,
        "Qc": result.Qc,
        "W": result.W,
        "performance": result.performance,
        "performance_convention": PERFORMANCE_CONVENTION.get(result.mode.value),
        "raw_cop": result.raw_cop,
        "thresholds": thresholds,
    }
    if rule.pinned_a is not None:
        doc["constrained_strength"] = constrained_strength(params, args.temperature, branch)
    if branch is Branch.REFRIGERATOR_MINUS and args.tau == 0.0:
        doc["reason"] = "W=0 at zero tunneling"
    _emit(_report(doc, args.format or "json"), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require(args, "branch", "grid_strength", "grid_epsilon", "tau", "temperature", "output")
    spec = GridSpec(
        branch=Branch(args.branch),
        strength_axis=args.grid_strength,
        epsilon_axis=args.grid_epsilon,
        tau=args.tau,
        temperature=args.temperature,
        zero_tol=1e-12 if args.zero_tol is None else args.zero_tol,
    )
    workers = 1 if args.workers is None else args.workers
    result = run_sweep(spec, workers=workers)

    write = {"csv": write_csv, "json": write_json}[args.format or "csv"]
    buf = io.StringIO()
    write(result, buf)
    _emit(buf.getvalue(), args.output)

    for mode, fraction in mode_area_fractions(result).items():
        sys.stdout.write(f"{mode.value}: {fraction:.6f}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = 42 if args.seed is None else args.seed
    trials = 1000 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError("trials must be >= 1")
    results = verify_mod.run_all(seed, trials)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"[{status}] {r.name}: max residual {r.max_residual:.3e}"
            f" (tolerance {r.tolerance:.1e}, trials {r.trials})\n"
        )
        if not r.passed and r.worst_case is not None:
            sys.stdout.write(f"       failing case: {json.dumps(r.worst_case)}\n")
    if failed:
        sys.stdout.write(f"{len(failed)} of {len(results)} checks failed (seed {seed})\n")
        return EXIT_VERIFY_FAILED
    sys.stdout.write(f"all {len(results)} checks passed (seed {seed})\n")
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "cycle": cmd_cycle,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
