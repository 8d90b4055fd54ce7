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

The checks run as three passes over the trials, at most ``BLOCK`` at a time,
so memory stays bounded whatever the trial count. The checks of a pass share
its draws and every intermediate, so they see the same sample: with
``trials`` = N, the three channel checks examine the same N channel/state
pairs and the two ledger checks the same N cycle rows. Each check still makes
N random trials with its own residual and tolerance. Each pass draws a block
as whole columns with public ``Generator`` calls, one row per trial:

* The channel pass (``kraus_completeness``, ``channel_cptp``,
  ``channel_reset``) splits ``params, states = rng.spawn(2)`` off the run's
  generator, then draws ``params.random((n, 2))`` for the channels and
  ``states.standard_normal((n, 2, 2, 2))`` for the random states, the real
  and imaginary parts of A in A A^dag. Each orientation present in a block
  takes one ``kraus_operators``, ``completeness_residual`` and ``apply_kraus``
  call on its trials; the outputs give the ``channel_cptp`` and
  ``channel_reset`` residuals.
* The cycle pass (``path_agreement``, ``cycle_closure``) draws
  ``uniform(low, high, (n, 5))`` from the run's generator, the rows epsilon,
  tau, T, a, b, and passes them straight to
  ``thermo.run_cycle_closed_form_batch`` and ``thermo.run_cycle_matrix_batch``
  (``qdot.hamiltonian`` and ``qdot.gibbs_state``, then ``apply_channel`` for
  channel A and for channel B, all on stacks). Both checks read that one pair
  of ledgers.
* ``threshold_consistency`` then draws ``uniform(low, high, (n, 5))`` from the
  run's generator, the rows epsilon, tau, T, the branch ``tuple(Branch)[int(u)]``
  for u in [0, 3), and the strength.

Each generator gives one kind of draw, so n rows in one call read the stream
as n one-row calls do, and the results for a seed do not depend on
``BLOCK``. This is version ``STREAM`` of the stream; any change to these draws
changes every seed's results and takes a new version.

A channel's draw (r, p) has strength p and orientation A if r < 0.5, else B.
No per-trial inputs or channel object is built. A worst case is its trial's
draw in Python floats, ``{"strength": p, "orientation": "A" or "B"}`` for a
channel check and the row's epsilon, tau, temperature, a and b for a cycle
check. Each check's worst case is the first trial with its largest residual.
A NaN residual fails its check, and the first one is reported as the worst
case. ``BLOCK`` is the knee of the measured per-trial cost: the smallest
power of two past which a larger block saves less than 5% per trial (the
numbers are at its definition).

``threshold_consistency`` classifies each block on the array forms of the
branch table: ``regimes.branch_points`` for each branch present in a block,
then ``regimes.expected_mode_codes`` and ``regimes.mode_codes``.

The Kraus operators are looked up through ``channels.kraus_operators`` at call
time, once per orientation per block of each of the channel and cycle passes
(each call takes an array of strengths),
so a deliberately corrupted implementation swapped in there is picked up and
flagged -- the test suite uses that as a negative control on the checks
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import MeasurementChannel, Orientation, apply_kraus, completeness_residual
from .qdot import dagger, is_density_matrix, max_abs, trace2, trace_deviation
from .regimes import MODES, Branch, branch_points, expected_mode_codes, mode_codes
from .thermo import ledger_discrepancy, run_cycle_closed_form_batch, run_cycle_matrix_batch
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

# Trials per array pass, so that a pass's stacks stay small whatever the trial count.
# The size is the knee of the per-trial cost of run_all(seed, 8192), measured at powers
# of two: the smallest block past which doubling it saves less than 5% per trial. Below
# the knee every block pays each numpy call's fixed cost again; above it the cost is
# flat, while peak memory and the oracle test that spans two blocks keep growing. On a
# 2-core VM (Python 3.11, numpy 2.4), in three runs of 12 round-robin calls per size,
# the median cost was 11.7-17.7, 9.2-14.0, 8.8-11.8, 7.4-10.5 and 7.6-10.8 us per trial
# at 256, 512, 1024, 2048 and 4096, and peak RSS 38.0, 38.1, 38.9, 39.6 and 42.0 MB.
BLOCK = 2048

# The version of the draw stream described in the module docstring. Version 1 drew
# trial by trial, interleaving each trial's kinds of draw in one generator; version 2
# drew each check's own sample.
STREAM = 3

# The bounds of the cycle pass's five draws per trial: epsilon, tau, T, a, b.
_CYCLE_LOW = (1e-3, 0.0, 0.5, 0.0, 0.0)
_CYCLE_HIGH = (3.0, 1.0, 6.0, 1.0, 1.0)

# The bounds of the threshold check's five draws: epsilon, tau, T, branch index, strength.
_THRESHOLD_LOW = (0.05, 0.0, 0.5, 0.0, 0.0)
_THRESHOLD_HIGH = (3.0, 1.0, 6.0, 3.0, 1.0)
_BRANCHES = tuple(Branch)


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    worst_case: dict | None = None

    @property
    def passed(self) -> bool:
        """Whether the residual is within the tolerance; a NaN residual fails."""
        return self.max_residual <= self.tolerance


def _scan(trials, block, describe, *checks) -> list[CheckResult]:
    """Run ``block(n) -> (residuals, draws)`` over the trials, at most BLOCK at a time,
    with one residual array in ``residuals`` per ``(name, tolerance)`` of ``checks``.

    Each check's worst case is the first trial with its largest residual, and
    only a residual above 0 counts, as in a trial-by-trial loop with
    ``r > worst``. A NaN residual beats every number, and the first one stays
    the worst case, so a NaN fails the check.
    """
    worst, worst_case = [0.0] * len(checks), [None] * len(checks)
    for start in range(0, trials, BLOCK):
        residuals, draws = block(min(BLOCK, trials - start))
        for c, r in enumerate(residuals):
            i = int(np.argmax(r))  # the first maximum, or the first NaN
            if r[i] > worst[c] or (math.isnan(r[i]) and not math.isnan(worst[c])):
                worst[c], worst_case[c] = float(r[i]), describe(draws[i])
    return [CheckResult(name, trials, w, tol, case)
            for (name, tol), w, case in zip(checks, worst, worst_case)]


def _row_dict(row: np.ndarray) -> dict:
    return dict(zip(("epsilon", "tau", "temperature", "a", "b"), row.tolist()))


def _draw_dict(draw: np.ndarray) -> dict:
    r, p = draw.tolist()
    return {"strength": p, "orientation": (Orientation.A if r < 0.5 else Orientation.B).value}


def _channel_pass(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    """The three channel checks on one sample: random channels applied to random states,
    with the channels and the states drawn from two generators spawned off ``rng``."""
    params, states = rng.spawn(2)

    def block(n):
        draws = params.random((n, 2))
        z = states.standard_normal((n, 2, 2, 2))
        a = z[:, 0] + 1j * z[:, 1]  # each state is A A^dag over its trace
        rho = a @ dagger(a)
        rho /= trace2(rho).real[:, None, None]
        p, is_a = draws[:, 1], draws[:, 0] < 0.5
        out, completeness = np.empty_like(rho), np.empty(n)
        for orientation, at in ((Orientation.A, is_a), (Orientation.B, ~is_a)):
            if at.any():
                kraus = channels.kraus_operators(MeasurementChannel(p[at], orientation))
                out[at] = apply_kraus(kraus, rho[at])
                completeness[at] = completeness_residual(kraus)
        r = trace_deviation(out)
        # a structural failure counts as at least 1, not as a small residual
        cptp = np.where(is_density_matrix(out, MATRIX_TOL), r, np.maximum(r, 1.0))
        # reset: the output is diag(1-p, p) (A) or diag(p, 1-p) (B) for any input
        target = np.zeros_like(out)
        target[:, 0, 0] = np.where(is_a, 1.0 - p, p)
        target[:, 1, 1] = np.where(is_a, p, 1.0 - p)
        return (completeness, cptp, max_abs(out - target)), draws

    return _scan(trials, block, _draw_dict, ("kraus_completeness", COMPLETENESS_TOL),
                 ("channel_cptp", MATRIX_TOL), ("channel_reset", MATRIX_TOL))


def _cycle_pass(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    """The two ledger checks on one sample: both ledgers of each row of epsilon, tau, T,
    a, b, computed once for both checks."""
    def block(n):
        rows = rng.uniform(_CYCLE_LOW, _CYCLE_HIGH, size=(n, 5))
        closed, matrix = run_cycle_closed_form_batch(rows), run_cycle_matrix_batch(rows)
        sums = [s for x in (closed, matrix) for s in (x.energy_closure, x.entropy_closure)]
        return (ledger_discrepancy(closed, matrix), np.max(np.abs(sums), axis=0)), rows

    return _scan(trials, block, _row_dict, ("path_agreement", PATH_TOL),
                 ("cycle_closure", CLOSURE_TOL))


# Each check on its own: its pass runs whole, and the check's result is picked from it.
def check_kraus_completeness(rng: np.random.Generator, trials: int) -> CheckResult:
    return _channel_pass(rng, trials)[0]


def check_channel_cptp(rng: np.random.Generator, trials: int) -> CheckResult:
    return _channel_pass(rng, trials)[1]


def check_channel_reset(rng: np.random.Generator, trials: int) -> CheckResult:
    return _channel_pass(rng, trials)[2]


def check_path_agreement(rng: np.random.Generator, trials: int) -> CheckResult:
    return _cycle_pass(rng, trials)[0]


def check_cycle_closure(rng: np.random.Generator, trials: int) -> CheckResult:
    return _cycle_pass(rng, trials)[1]


def check_threshold_consistency(rng: np.random.Generator, trials: int) -> CheckResult:
    """Interval prediction from the analytic thresholds vs. sign classification.

    Points within ``THRESHOLD_MARGIN`` of a boundary are skipped: there the
    currents legitimately straddle zero. The residual counts the disagreements,
    so any one fails the check, and the first one is the worst case.
    """
    mismatches = 0
    worst_case = None
    for start in range(0, trials, BLOCK):
        u = rng.uniform(_THRESHOLD_LOW, _THRESHOLD_HIGH, (min(BLOCK, trials - start), 5))
        (epsilon, tau, temperature, _, strength), branches = u.T, u[:, 3].astype(np.int64)
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
    return CheckResult("threshold_consistency", trials, float(mismatches), 0.0, worst_case)


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
    return [*_channel_pass(rng, trials), *_cycle_pass(rng, trials),
            check_threshold_consistency(rng, trials)]
