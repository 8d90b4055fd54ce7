"""Randomized self-checks tying the package's independent routes together.

Each check draws random operating points and measures a residual that must
stay below a fixed tolerance:

* ``kraus_completeness`` -- every Kraus family resolves the identity.
* ``channel_cptp``       -- channel outputs are valid density matrices and
                            traces are preserved.
* ``channel_reset``      -- channels erase their input: the output is the
                            strength-determined diagonal state for *any* input.
* ``path_agreement``     -- closed-form and density-matrix cycle ledgers match.
* ``cycle_closure``      -- dU and dS sum to zero around the cycle.
* ``threshold_consistency`` -- the analytic regime boundaries agree with
                            sign-based classification at random branch points.

Every check runs its trials at most ``BLOCK`` at a time, so memory stays
bounded whatever the trial count, and draws each block as whole columns with
public ``Generator`` calls, one row per trial:

* ``kraus_completeness``: ``random((n, 2))``, a channel (r, p) per row.
* ``channel_cptp`` and ``channel_reset``: each splits ``params, states =
  rng.spawn(2)`` off the run's generator, then draws ``params.random((n, 2))``
  for the channels and ``states.standard_normal((n, 2, 2, 2))`` for the
  random states, the real and imaginary parts of A in A A^dag.
* ``path_agreement`` and ``cycle_closure``: ``uniform(low, high, (n, 5))``,
  the rows epsilon, tau, T, a, b.
* ``threshold_consistency``: ``random((n, 5))``, with epsilon, tau and T
  scaled from the first three columns, the branch ``tuple(Branch)[int(3 u)]``
  from the fourth and the strength the fifth.

Each generator gives one kind of draw, so n rows in one call read the stream
as n one-row calls do, and the results for a seed do not depend on
``BLOCK``. This is version ``STREAM`` of the stream; any change to these draws
changes every seed's results and takes a new version.

A channel's draw (r, p) has strength p and orientation A if r < 0.5, else B.
Each block's residuals come from one numpy pass over (n, 2, 2) stacks: the
cycle checks pass the (n, 5) rows straight to
``thermo.run_cycle_closed_form_batch`` and ``thermo.run_cycle_matrix_batch``
(``qdot.hamiltonian`` and ``qdot.gibbs_state``, then ``apply_channel`` for
channel A and for channel B, all on stacks), and no per-trial inputs or
channel object is built. A worst case is its
trial's draw in Python floats, ``{"strength": p, "orientation": "A" or "B"}``
for a channel check and the row's epsilon, tau, temperature, a and b for a
cycle check. The worst case is the first trial with the largest residual. A
NaN residual fails its check, and the first one is reported as the worst
case. ``BLOCK`` is the knee of the measured per-trial cost: the smallest
power of two past which a larger block saves less than 5% per trial (the
numbers are at its definition).

``threshold_consistency`` classifies each block on the array forms of the
branch table: ``regimes.branch_points`` for each branch present in a block,
then ``regimes.expected_mode_codes`` and ``regimes.mode_codes``.

The Kraus operators are looked up through ``channels.kraus_operators`` at call
time, once per orientation per block (each call takes an array of strengths),
so a deliberately corrupted implementation swapped in there is picked up and
flagged -- the test suite uses that as a negative control on the checks
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Orientation, apply_kraus, completeness_residual, kraus_stack
from .qdot import dagger, is_density_matrix, max_abs, trace2, trace_deviation
from .regimes import MODES, Branch, branch_points, expected_mode_codes, mode_codes
from .thermo import StrokeLedger, ledger_discrepancy, run_cycle_closed_form_batch
from .thermo import run_cycle_matrix_batch
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from .thermo import run_cycle_closed_form  # noqa: F401
from .regimes import engine_branch_quantities, engine_branch_thresholds  # noqa: F401
from .regimes import refrigerator_branch_thresholds  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401
from .thermo import run_cycle_matrix  # noqa: F401

COMPLETENESS_TOL = 1e-14
MATRIX_TOL = 1e-12
PATH_TOL = 1e-10
CLOSURE_TOL = 1e-12
THRESHOLD_MARGIN = 1e-9

# Trials per array pass, so that a check's stacks stay small whatever the trial count.
# The size is the knee of the per-trial cost of run_all(seed, 8192), measured at powers
# of two: the smallest block past which doubling it saves less than 5% per trial. Below
# the knee every block pays each numpy call's fixed cost again; above it the cost is
# flat, while peak memory and the oracle test that spans two blocks keep growing. On a
# 2-core VM (Python 3.11, numpy 2.4) the median cost was 36, 28, 24.5, 25 and 25 us per
# trial at 256, 512, 1024, 2048 and 4096, and peak RSS 38.3, 38.1, 38.9, 39.9, 42.3 MB.
BLOCK = 1024

# The version of the draw stream described in the module docstring. Version 1 drew
# trial by trial, interleaving each trial's kinds of draw in one generator.
STREAM = 2

# The bounds of the cycle checks' five draws per trial: epsilon, tau, T, a, b.
_CYCLE_LOW = (1e-3, 0.0, 0.5, 0.0, 0.0)
_CYCLE_HIGH = (3.0, 1.0, 6.0, 1.0, 1.0)

# threshold_consistency's epsilon, tau and T are low + (high - low) u, as Generator.uniform
# computes them.
_THRESHOLD_LOW = np.array((0.05, 0.0, 0.5))
_THRESHOLD_SPAN = np.array((3.0, 1.0, 6.0)) - _THRESHOLD_LOW
_BRANCHES = tuple(Branch)


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    worst_case: dict | None = None


def _result(name, trials, residual, tol, worst) -> CheckResult:
    return CheckResult(name, trials, residual, tol, residual <= tol, worst)


def _scan(name, trials, tol, block, describe) -> CheckResult:
    """Run ``block(n) -> (residuals, draws)`` over the trials, at most BLOCK at a time.

    The worst case is the first trial with the largest residual, and only a
    residual above 0 counts, as in a trial-by-trial loop with ``r > worst``.
    A NaN residual beats every number, and the first one stays the worst
    case, so a NaN fails the check.
    """
    worst, worst_case = 0.0, None
    for start in range(0, trials, BLOCK):
        r, draws = block(min(BLOCK, trials - start))
        i = int(np.argmax(r))  # the first maximum, or the first NaN
        if r[i] > worst or (math.isnan(r[i]) and not math.isnan(worst)):
            worst, worst_case = float(r[i]), describe(draws[i])
    return _result(name, trials, worst, tol, worst_case)


def _random_cycle_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random cycle inputs as the rows of an (n, 5) array of epsilon, tau, T, a, b;
    one (n, 5) draw reads the stream in the same order as n one-row draws."""
    return rng.uniform(_CYCLE_LOW, _CYCLE_HIGH, size=(n, 5))


def _row_dict(row: np.ndarray) -> dict:
    return dict(zip(("epsilon", "tau", "temperature", "a", "b"), row.tolist()))


def _kraus_of(draws: np.ndarray) -> np.ndarray:
    """The ``kraus_stack`` of the channels of an (n, 2) array of draws."""
    return kraus_stack(draws[:, 1], draws[:, 0] < 0.5)


def _draw_dict(draw: np.ndarray) -> dict:
    r, p = draw.tolist()
    return {"strength": p, "orientation": (Orientation.A if r < 0.5 else Orientation.B).value}


def _both_ledgers(rows: np.ndarray) -> tuple[StrokeLedger, StrokeLedger]:
    """The closed-form and the matrix ledger of every row, each as one ledger of (n,) arrays."""
    return run_cycle_closed_form_batch(rows), run_cycle_matrix_batch(rows)


def check_kraus_completeness(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        draws = rng.random((n, 2))
        return completeness_residual(_kraus_of(draws)), draws

    return _scan("kraus_completeness", trials, COMPLETENESS_TOL, block, _draw_dict)


def _channel_scan(name, rng, trials, residuals) -> CheckResult:
    """Scan ``residuals(draws, out)`` over random channels applied to random states, with
    the channels and the states drawn from two generators spawned off ``rng``."""
    params, states = rng.spawn(2)

    def block(n):
        draws = params.random((n, 2))
        z = states.standard_normal((n, 2, 2, 2))
        a = z[:, 0] + 1j * z[:, 1]  # each state is A A^dag over its trace
        rho = a @ dagger(a)
        out = apply_kraus(_kraus_of(draws), rho / trace2(rho).real[:, None, None])
        return residuals(draws, out), draws

    return _scan(name, trials, MATRIX_TOL, block, _draw_dict)


def check_channel_cptp(rng: np.random.Generator, trials: int) -> CheckResult:
    def residuals(draws, out):
        r = trace_deviation(out)
        # a structural failure counts as at least 1, not as a small residual
        return np.where(is_density_matrix(out, MATRIX_TOL), r, np.maximum(r, 1.0))

    return _channel_scan("channel_cptp", rng, trials, residuals)


def check_channel_reset(rng: np.random.Generator, trials: int) -> CheckResult:
    """Output must equal diag(1-a, a) (A) or diag(b, 1-b) (B) for any input."""
    def residuals(draws, out):
        p, is_a = draws[:, 1], draws[:, 0] < 0.5
        target = np.zeros_like(out)
        target[:, 0, 0] = np.where(is_a, 1.0 - p, p)
        target[:, 1, 1] = np.where(is_a, p, 1.0 - p)
        return max_abs(out - target)

    return _channel_scan("channel_reset", rng, trials, residuals)


def check_path_agreement(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        rows = _random_cycle_rows(rng, n)
        return ledger_discrepancy(*_both_ledgers(rows)), rows

    return _scan("path_agreement", trials, PATH_TOL, block, _row_dict)


def check_cycle_closure(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        rows = _random_cycle_rows(rng, n)
        sums = [s for x in _both_ledgers(rows) for s in (x.energy_closure, x.entropy_closure)]
        return np.max(np.abs(sums), axis=0), rows

    return _scan("cycle_closure", trials, CLOSURE_TOL, block, _row_dict)


def check_threshold_consistency(rng: np.random.Generator, trials: int) -> CheckResult:
    """Interval prediction from the analytic thresholds vs. sign classification.

    Points within ``THRESHOLD_MARGIN`` of a boundary are skipped: there the
    currents legitimately straddle zero. A disagreement counts as residual 1,
    and the first one is the worst case.
    """
    mismatches = 0
    worst_case = None
    for start in range(0, trials, BLOCK):
        u = rng.random((min(BLOCK, trials - start), 5))
        epsilon, tau, temperature = (_THRESHOLD_LOW + _THRESHOLD_SPAN * u[:, :3]).T
        branches, strength = (3.0 * u[:, 3]).astype(np.int64), u[:, 4]
        currents = np.empty((3, len(strength)))
        expected = np.empty(len(strength), np.int64)  # a MODES index, or -1: skipped
        for k, branch in enumerate(_BRANCHES):
            at = np.flatnonzero(branches == k)
            if len(at) == 0:
                continue
            s = strength[at]
            th, currents[:, at] = branch_points(branch, epsilon[at], tau[at], temperature[at], s)
            near = np.minimum.reduce([np.abs(s - x) for x in th]) < THRESHOLD_MARGIN
            expected[at] = np.where(near, -1, expected_mode_codes(branch, s, th))
        live = np.flatnonzero(expected >= 0)
        got = mode_codes(*currents[:, live])
        wrong = got != expected[live]
        mismatches += int(np.count_nonzero(wrong))
        if worst_case is None and wrong.any():
            j = int(np.argmax(wrong))
            i = live[j]
            worst_case = {
                "branch": _BRANCHES[branches[i]].value, "epsilon": float(epsilon[i]),
                "tau": float(tau[i]), "temperature": float(temperature[i]),
                "strength": float(strength[i]), "expected": MODES[expected[i]].value,
                "got": MODES[got[j]].value,
            }
    return _result("threshold_consistency", trials, float(mismatches), 0.0, worst_case)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Run every suite on a fresh seeded generator; deterministic per seed.

    A trial count that is not an integer >= 1, or a seed that is not a
    non-negative integer, raises ValueError before anything is drawn. A bool
    is not taken as an integer for either.
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError("trials must be an integer >= 1")
    if not _is_int(seed) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    return [
        check_kraus_completeness(rng, trials),
        check_channel_cptp(rng, trials),
        check_channel_reset(rng, trials),
        check_path_agreement(rng, trials),
        check_cycle_closure(rng, trials),
        check_threshold_consistency(rng, trials),
    ]
