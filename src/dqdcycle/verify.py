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

The first five checks run as array passes. Each draws its trials one after
another from the generator, reading the stream exactly as a trial-by-trial
loop would, then computes every residual in one numpy pass over (n, 2, 2)
stacks. ``path_agreement`` and ``cycle_closure`` pass each block's single
(n, 5) draw of epsilon, tau, T, a, b straight to
``thermo.run_cycle_closed_form_batch`` and ``thermo.run_cycle_matrix_batch``;
no ``CycleInputs`` is built per trial, only one for a reported worst case, and
no channel object is built per trial either. The Kraus products are the
elementwise ``qdot.matmul2``, which gives the bits of ``@`` on the
one-matrix-unit operators of an honest family. The draws and the results for
a seed are the same as with the loop: the worst case is still the first trial
with the largest residual. A NaN residual fails its check, and the first one
is reported as the worst case. Trials go through at most ``BLOCK`` at a time,
so memory stays bounded whatever the trial count. ``threshold_consistency``
stays a loop over scalar ``branch_thresholds`` and ``branch_currents`` calls,
because those are what it checks.

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

from .channels import MeasurementChannel, Orientation, apply_kraus, completeness_residual
from .channels import kraus_stack
from .qdot import DotParams, dagger, is_density_matrix, max_abs, trace_deviation
from .regimes import Branch, branch_currents, branch_thresholds, classify_from_signs, expected_mode
from .thermo import CycleInputs, StrokeLedger, ledger_discrepancy, run_cycle_closed_form_batch
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
BLOCK = 256

# The bounds of random_cycle_inputs' five draws: epsilon, tau, T, a, b.
_CYCLE_LOW = (1e-3, 0.0, 0.5, 0.0, 0.0)
_CYCLE_HIGH = (3.0, 1.0, 6.0, 1.0, 1.0)

# threshold_consistency's draws: epsilon, tau and T are low + (high - low) * u, as
# Generator.uniform computes them, and the branch is BRANCHES[integers(3)], as
# Generator.choice picks it.
_THRESHOLD_LOW = (0.05, 0.0, 0.5)
_THRESHOLD_HIGH = (3.0, 1.0, 6.0)
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


def _gram_state(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A A^dag normalized to unit trace, with A = x + iy; one matrix or an (n, 2, 2) stack."""
    a = x + 1j * y
    rho = a @ dagger(a)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random mixed state: A A^dag normalized to unit trace."""
    x = rng.normal(size=(2, 2))
    return _gram_state(x, rng.normal(size=(2, 2)))


def _random_cycle_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of random_cycle_inputs as the rows of an (n, 5) array of epsilon, tau, T,
    a, b; one (n, 5) draw reads the stream in the same order as n single draws."""
    return rng.uniform(_CYCLE_LOW, _CYCLE_HIGH, size=(n, 5))


def _inputs_of(row: np.ndarray) -> CycleInputs:
    e, tau, temperature, a, b = row.tolist()
    return CycleInputs(DotParams(e, tau), temperature, a, b)


def random_cycle_inputs(rng: np.random.Generator) -> CycleInputs:
    return _inputs_of(_random_cycle_rows(rng, 1)[0])


def _channel_of(draw) -> MeasurementChannel:
    """The channel of one trial's ``random(2)`` draw (r, p): orientation A if r < 0.5, strength p."""
    r, p = draw
    return MeasurementChannel(float(p), Orientation.A if r < 0.5 else Orientation.B)


def _random_channel(rng: np.random.Generator) -> MeasurementChannel:
    return _channel_of(rng.random(2))


def _kraus_of(draws: np.ndarray) -> np.ndarray:
    """The ``kraus_stack`` of the channels of an (n, 2) array of draws."""
    return kraus_stack(draws[:, 1], draws[:, 0] < 0.5)


def _random_channels_and_states(rng: np.random.Generator, n: int):
    """n trials of a random channel's (r, p) draw followed by a random state, drawn in that order."""
    draws, z = np.empty((n, 2)), np.empty((n, 2, 2, 2))
    for i in range(n):
        rng.random(out=draws[i])
        z[i] = rng.normal(size=(2, 2, 2))
    return draws, _gram_state(z[:, 0], z[:, 1])


def _channel_dict(ch: MeasurementChannel) -> dict:
    return {"strength": ch.strength, "orientation": ch.orientation.value}


def _draw_dict(draw) -> dict:
    return _channel_dict(_channel_of(draw))


def _both_ledgers(rows: np.ndarray) -> tuple[StrokeLedger, StrokeLedger]:
    """The closed-form and the matrix ledger of every row, each as one ledger of (n,) arrays."""
    return run_cycle_closed_form_batch(rows), run_cycle_matrix_batch(rows)


def check_kraus_completeness(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        draws = rng.random((n, 2))  # no normals between trials, so one call reads n of them
        return completeness_residual(_kraus_of(draws)), draws

    return _scan("kraus_completeness", trials, COMPLETENESS_TOL, block, _draw_dict)


def check_channel_cptp(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        draws, rho = _random_channels_and_states(rng, n)
        out = apply_kraus(_kraus_of(draws), rho)
        r = trace_deviation(out)
        # a structural failure counts as at least 1, not as a small residual
        return np.where(is_density_matrix(out, MATRIX_TOL), r, np.maximum(r, 1.0)), draws

    return _scan("channel_cptp", trials, MATRIX_TOL, block, _draw_dict)


def check_channel_reset(rng: np.random.Generator, trials: int) -> CheckResult:
    """Output must equal diag(1-a, a) (A) or diag(b, 1-b) (B) for any input."""
    def block(n):
        draws, rho = _random_channels_and_states(rng, n)
        out = apply_kraus(_kraus_of(draws), rho)
        p, is_a = draws[:, 1], draws[:, 0] < 0.5
        target = np.zeros_like(out)
        target[:, 0, 0] = np.where(is_a, 1.0 - p, p)
        target[:, 1, 1] = np.where(is_a, p, 1.0 - p)
        return max_abs(out - target), draws

    return _scan("channel_reset", trials, MATRIX_TOL, block, _draw_dict)


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
    currents legitimately straddle zero. A disagreement counts as residual 1.
    """
    mismatches = 0
    worst_case = None
    for _ in range(trials):
        epsilon, tau, temperature = (
            low + (high - low) * u
            for low, high, u in zip(_THRESHOLD_LOW, _THRESHOLD_HIGH, rng.random(3).tolist()))
        params = DotParams(epsilon, tau)
        branch = _BRANCHES[rng.integers(3)]
        strength = rng.random()

        th = branch_thresholds(branch, params, temperature)
        if min(abs(strength - x) for x in th) < THRESHOLD_MARGIN:
            continue
        expected = expected_mode(branch, strength, th)
        if expected is None:
            continue  # outside the cataloged windows
        qh, qc, w = branch_currents(branch, params, temperature, strength)
        got = classify_from_signs(qh, qc, w)
        if got is not expected:
            mismatches += 1
            if worst_case is None:
                worst_case = {
                    "branch": branch.value, "epsilon": epsilon, "tau": tau,
                    "temperature": temperature, "strength": strength,
                    "expected": expected.value, "got": got.value,
                }
    return _result("threshold_consistency", trials, float(mismatches), 0.0, worst_case)


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Run every suite on a fresh seeded generator; deterministic per seed.

    A trial count below 1, or a seed that is not a non-negative integer, raises
    ValueError before anything is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
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


def _inputs_dict(inputs: CycleInputs) -> dict:
    return {
        "epsilon": inputs.params.epsilon,
        "tau": inputs.params.tau,
        "temperature": inputs.temperature,
        "a": inputs.a,
        "b": inputs.b,
    }


def _row_dict(row: np.ndarray) -> dict:
    return _inputs_dict(_inputs_of(row))
