"""Command-line front end.

Subcommands::

    spectrum   eigenstructure and thermal populations of the dot
    cycle      one full cycle: both ledgers (closed-form and matrix) + discrepancy
    classify   regime of a single branch point, with the analytic thresholds
    sweep      (strength, epsilon) grid -> CSV/JSON regime + performance map
    verify     randomized self-check suites

Every number printed here comes from a library call that the test suite
exercises directly, save ``spectrum``'s ln Z and populations, formed here from
E/T and tanh(E/T); the CLI otherwise parses, dispatches and serializes.
Options may come from flags or from a JSON config file (``--config``); flags win.
Flags are not abbreviated. Config keys are the subcommand's flag names, with
dashes or underscores, one key per option; each value is read by that flag's
own type and choices, and an axis may also be given as ``[min, max, steps]``.
A config error names the file, and the key when one entry is at fault.
Outputs go to a temporary sibling of the ``--output`` file, sweep rows as they
are formatted, and are renamed onto it once complete, so a failed run leaves
the old file or none; ``emit`` says how symlinks, modes and FIFOs are handled.

Exit codes: 0 success, 1 verification failure, 2 input/domain error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from collections.abc import Callable
from functools import partial
from typing import IO

import numpy as np

from . import verify as verify_mod
from .qdot import DotParams, check_temperature, spectrum, thermal_factors
from .regimes import BRANCHES, Branch, branch_currents, branch_thresholds, classify
from .regimes import PERFORMANCE_CONVENTION, ZERO_TOL, constrained_strength
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from .regimes import engine_branch_quantities, engine_branch_thresholds  # noqa: F401
from .regimes import refrigerator_branch_thresholds  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401
from .sweep import to_json_document  # noqa: F401
from .sweep import FLOAT_FORMAT, AxisSpec, GridSpec, mode_area_fractions
from .sweep import run_sweep, write_csv, write_json
from .thermo import LEDGER_FIELDS, CycleInputs, ledger_discrepancy, run_cycle_closed_form
from .thermo import run_cycle_matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_IO_ERROR = 3


def _axis(text: str) -> AxisSpec:
    """Parse an axis flag of the form min:max:steps."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:steps, got {text!r}")
    try:
        return AxisSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The CLI's parser. Flags must be spelled out in full: no parser takes abbreviations.

    With ``exit_on_error=False`` a value that a flag's type or choices reject
    raises ``argparse.ArgumentError`` instead of exiting, so that ``main`` can
    report a config-file entry against the file.
    """
    parser = argparse.ArgumentParser(
        prog="dqdcycle",
        description="Three-stroke measurement-driven thermal machine on a double-dot qubit.",
        allow_abbrev=False, exit_on_error=exit_on_error,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, exit_on_error=exit_on_error, **kwargs)
        p.set_defaults(func=handler)
        return p

    point = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    point.add_argument("--epsilon", type=float)
    point.add_argument("--tau", type=float)
    point.add_argument("--temperature", type=float)

    def common(p, fmt="json", output="write the report here instead of stdout"):
        p.add_argument("--format", choices=["csv", "json"], default=fmt)
        p.add_argument("--output", help=output)

    p = add("spectrum", cmd_spectrum, parents=[point],
            help="eigenstructure and thermal populations")
    common(p)

    p = add("cycle", cmd_cycle, parents=[point],
            help="stroke energetics of one cycle, both computation paths")
    p.add_argument("--a", type=float, help="channel-A strength")
    p.add_argument("--b", type=float, help="channel-B strength")
    common(p)

    p = add("classify", cmd_classify, parents=[point], help="operating regime of one branch point")
    p.add_argument("--branch", choices=[b.value for b in Branch])
    p.add_argument("--a", type=float, help="strength on the engine branch")
    p.add_argument("--b", type=float, help="strength on the refrigerator branches")
    p.add_argument("--zero-tol", type=float, default=ZERO_TOL)
    common(p)

    p = add("sweep", cmd_sweep, help="regime/performance map over a (strength, epsilon) grid")
    p.add_argument("--branch", choices=[b.value for b in Branch])
    p.add_argument("--grid-strength", type=_axis, metavar="MIN:MAX:STEPS")
    p.add_argument("--grid-epsilon", type=_axis, metavar="MIN:MAX:STEPS")
    p.add_argument("--tau", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--zero-tol", type=float, default=ZERO_TOL)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored (must be >= 1)")
    common(p, fmt="csv", output="write the map here (required); the mode shares go to stdout")

    p = add("verify", cmd_verify, help="run the randomized self-check suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1000)
    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


# ---------------------------------------------------------------------------
# config file


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The entries of the JSON file named by --config, as ``--flag=value`` arguments.

    Each entry is parsed here by its flag, so that every error names the file,
    and a value the flag rejects also names its key; two keys for one option name both.
    """
    objects = []  # the (key, value) pairs of each JSON object as read, the outermost last
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=lambda p: objects.append(p) or dict(p))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed config file {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {args.config} must contain a JSON object")
    known = set(vars(args)) - {"command", "config", "func"}
    keys = {}  # flag -> the key it came from
    flags = []
    for key, value in objects[-1]:  # data's entries, a repeated key included
        dest = key.replace("-", "_")
        if dest not in known:
            raise ValueError(f"unknown key {key!r} in config file {args.config}")
        flag = "--" + dest.replace("_", "-")
        if flag in keys:
            raise ValueError(f"keys {keys[flag]!r} and {key!r} in config file {args.config}"
                             " set the same option")
        keys[flag] = key
        if isinstance(value, list) and len(value) == 3:
            value = ":".join(map(str, value))
        elif value is None or isinstance(value, (bool, dict, list)):
            raise ValueError(f"key {key!r} in config file {args.config} must be a number,"
                             " a string or [min, max, steps]")
        # The = form keeps a value such as -0.4 from reading as a flag.
        flags.append(f"{flag}={value}")
    try:
        build_parser(exit_on_error=False).parse_args([args.command, *flags])
    except argparse.ArgumentError as exc:
        raise ValueError(f"key {keys[exc.argument_name]!r} in config file {args.config}:"
                         f" {exc.message}") from None
    return flags


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags}")


def emit(content: str | Callable[[IO[str]], object], output: str | None) -> None:
    """Print ``content``, or write it to ``output`` whole or not at all.

    ``content`` is a text, or a writer that writes to the stream it is given,
    so that a large document goes straight into the file with no second copy
    in memory. A text that does not end in a newline gets one, in a file as on
    stdout. A file is written to a temporary sibling of the file that ``output``
    names, symlinks followed, and renamed onto it once complete, keeping its
    permission bits; if anything fails, the temporary file is removed, the file
    keeps its old contents, and an ``OSError`` about the temporary file names
    ``output`` instead. A FIFO or a device is written in place, as stdout is,
    so "whole or not at all" cannot hold there.
    """
    write = content
    if isinstance(content, str):
        text = content if content.endswith("\n") else content + "\n"

        def write(stream):
            stream.write(text)

    if output is None:
        write(sys.stdout)
        return
    target = os.path.realpath(output)
    mode = os.stat(target).st_mode if os.path.exists(target) else None
    if mode is not None and not stat.S_ISREG(mode):  # a directory fails to open here
        with open(output, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            write(fh)
        os.replace(tmp, target)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = output
            del exc.filename2  # a stored None would print as "-> None"
        raise


def _report(doc: dict, fmt: str) -> str:
    """Render a flat-ish report dict as JSON or as quantity,value CSV rows.

    A NaN or infinite number anywhere in ``doc`` raises ``ValueError`` naming its key,
    in either format, so that no report holds a value that strict JSON cannot.
    """
    _check_finite(doc)
    if fmt == "json":
        return json.dumps(doc, indent=2)
    return "".join(f"{key},{value}\n" for key, value in _flatten(doc))


def _check_finite(value, name: str = "") -> None:
    """Refuse a NaN or infinite float in ``value``, a report or any dict or list in it;
    the message names its dotted key, with [i] for a list item."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{name}.{key}" if name else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{name}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} is {value}: a report holds finite numbers only")


def _flatten(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, name + ".")
        elif isinstance(value, (list, tuple)):
            yield name, ";".join(FLOAT_FORMAT % v if isinstance(v, float) else str(v)
                                 for v in value)
        elif value is None:
            yield name, ""
        elif isinstance(value, bool):
            yield name, "true" if value else "false"
        elif isinstance(value, float):
            yield name, FLOAT_FORMAT % value
        else:
            yield name, value


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    _require(args, "epsilon", "tau", "temperature")
    params = DotParams(args.epsilon, args.tau)
    check_temperature(args.temperature)
    spec = spectrum(params)
    t = thermal_factors(args.epsilon, args.tau, args.temperature)[1].item()
    x = spec.gap / args.temperature
    doc = {
        "epsilon": args.epsilon,
        "tau": args.tau,
        "temperature": args.temperature,
        "gap": spec.gap,
        "theta": spec.theta,
        "eigenvalues": list(spec.eigenvalues),
        "log_partition_function": x + math.log1p(math.exp(-2.0 * x)),  # ln(2 cosh x)
        "populations": {"ground": 0.5 * (1.0 + t), "excited": 0.5 * (1.0 - t)},
        "degenerate": spec.degenerate,
    }
    emit(_report(doc, args.format), args.output)
    return EXIT_OK


def cmd_cycle(args) -> int:
    _require(args, "epsilon", "tau", "temperature", "a", "b")
    inputs = CycleInputs(DotParams(args.epsilon, args.tau), args.temperature, args.a, args.b)
    closed = run_cycle_closed_form(inputs)
    matrix = run_cycle_matrix(inputs)
    doc = {
        "inputs": {"epsilon": args.epsilon, "tau": args.tau,
                   "temperature": args.temperature, "a": args.a, "b": args.b},
        "closed_form": {f: getattr(closed, f) for f in LEDGER_FIELDS},
        "matrix": {f: getattr(matrix, f) for f in LEDGER_FIELDS},
        "energy_closure": closed.energy_closure,
        "entropy_closure": closed.entropy_closure,
        "max_discrepancy": ledger_discrepancy(closed, matrix),
    }
    if args.format == "json":
        doc["states"] = {
            name: np.real(getattr(matrix, name)).tolist()
            for name in ("rho1", "rho2", "rho3")
        }
    emit(_report(doc, args.format), args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    _require(args, "branch", "epsilon", "tau", "temperature")
    branch = Branch(args.branch)
    params = DotParams(args.epsilon, args.tau)

    rule = BRANCHES[branch]
    _require(args, rule.free)
    if rule.pinned_a is None and args.b is not None:
        raise ValueError("the engine branch fixes b = a; give --a only")
    if rule.pinned_a is not None and args.a is not None:
        raise ValueError("refrigerator branches fix a thermally; give --b only")
    strength = getattr(args, rule.free)
    qh, qc, w = branch_currents(branch, params, args.temperature, strength)
    thresholds = branch_thresholds(branch, params, args.temperature)._asdict()

    result = classify(qh, qc, w, args.zero_tol)
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
    emit(_report(doc, args.format), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require(args, "branch", "grid_strength", "grid_epsilon", "tau", "temperature", "output")
    spec = GridSpec(
        branch=Branch(args.branch),
        strength_axis=args.grid_strength,
        epsilon_axis=args.grid_epsilon,
        tau=args.tau,
        temperature=args.temperature,
        zero_tol=args.zero_tol,
    )
    result = run_sweep(spec, workers=args.workers)

    write = {"csv": write_csv, "json": write_json}[args.format]
    emit(partial(write, result), args.output)

    for mode, fraction in mode_area_fractions(result).items():
        sys.stdout.write(f"{mode.value}: {fraction:.6f}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run_all(args.seed, args.trials)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"[{status}] {r.name}: max residual {r.max_residual:.3e}"
            f" (tolerance {r.tolerance:.1e}, trials {r.trials})\n"
        )
        if not r.passed and r.worst_case is not None:
            sys.stdout.write(f"       failing case: {json.dumps(r.worst_case)}\n")
    run = f"(seed {args.seed}, stream {verify_mod.STREAM})"
    if failed:
        sys.stdout.write(f"{len(failed)} of {len(results)} checks failed {run}\n")
        return EXIT_VERIFY_FAILED
    sys.stdout.write(f"all {len(results)} checks passed {run}\n")
    return EXIT_OK


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each flag followed by a value such as -1e-3, which argparse would
    read as a flag, joined into ``--flag=-1e-3``."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and out[-1] not in ("--", "--help")
                and "=" not in out[-1] and token.startswith("-") and _is_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # file entries first, so that flags win
            args = parser.parse_args([*argv[:1], *_config_flags(args), *argv[1:]])
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
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
