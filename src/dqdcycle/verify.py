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

The channel checks look up ``channels.kraus_operators`` at call time, so a
deliberately corrupted implementation swapped in there is picked up and
flagged -- the test suite uses that as a negative control on the checks
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import MeasurementChannel, Orientation, apply_kraus, completeness_residual
from .qdot import DotParams, is_density_matrix, max_abs
from .regimes import Branch, branch_currents, branch_thresholds, classify_from_signs, expected_mode
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from .regimes import engine_branch_quantities, engine_branch_thresholds  # noqa: F401
from .regimes import refrigerator_branch_thresholds  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401
from .thermo import CycleInputs, ledger_discrepancy, run_cycle_closed_form, run_cycle_matrix

COMPLETENESS_TOL = 1e-14
MATRIX_TOL = 1e-12
PATH_TOL = 1e-10
CLOSURE_TOL = 1e-12
THRESHOLD_MARGIN = 1e-9


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


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random mixed state: A A^dag normalized to unit trace."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_cycle_inputs(rng: np.random.Generator) -> CycleInputs:
    params = DotParams(
        epsilon=float(rng.uniform(1e-3, 3.0)),
        tau=float(rng.uniform(0.0, 1.0)),
    )
    return CycleInputs(
        params=params,
        temperature=float(rng.uniform(0.5, 6.0)),
        a=float(rng.uniform(0.0, 1.0)),
        b=float(rng.uniform(0.0, 1.0)),
    )


def _random_channel(rng: np.random.Generator) -> MeasurementChannel:
    orientation = Orientation.A if rng.random() < 0.5 else Orientation.B
    return MeasurementChannel(float(rng.uniform(0.0, 1.0)), orientation)


def check_kraus_completeness(rng: np.random.Generator, trials: int) -> CheckResult:
    worst, worst_case = 0.0, None
    for _ in range(trials):
        ch = _random_channel(rng)
        r = completeness_residual(channels.kraus_operators(ch))
        if r > worst:
            worst, worst_case = r, {"strength": ch.strength, "orientation": ch.orientation.value}
    return _result("kraus_completeness", trials, worst, COMPLETENESS_TOL, worst_case)


def check_channel_cptp(rng: np.random.Generator, trials: int) -> CheckResult:
    worst, worst_case = 0.0, None
    for _ in range(trials):
        ch = _random_channel(rng)
        rho = random_density_matrix(rng)
        out = apply_kraus(channels.kraus_operators(ch), rho)
        r = abs(complex(np.trace(out)) - 1.0)
        if not is_density_matrix(out, MATRIX_TOL):
            r = max(r, 1.0)  # structural failure, not a small residual
        if r > worst:
            worst, worst_case = r, {"strength": ch.strength, "orientation": ch.orientation.value}
    return _result("channel_cptp", trials, worst, MATRIX_TOL, worst_case)


def check_channel_reset(rng: np.random.Generator, trials: int) -> CheckResult:
    """Output must equal diag(1-a, a) (A) or diag(b, 1-b) (B) for any input."""
    worst, worst_case = 0.0, None
    for _ in range(trials):
        ch = _random_channel(rng)
        rho = random_density_matrix(rng)
        out = apply_kraus(channels.kraus_operators(ch), rho)
        p = ch.strength
        if ch.orientation is Orientation.A:
            target = np.diag([1.0 - p, p]).astype(np.complex128)
        else:
            target = np.diag([p, 1.0 - p]).astype(np.complex128)
        r = max_abs(out - target)
        if r > worst:
            worst, worst_case = r, {"strength": p, "orientation": ch.orientation.value}
    return _result("channel_reset", trials, worst, MATRIX_TOL, worst_case)


def check_path_agreement(rng: np.random.Generator, trials: int) -> CheckResult:
    worst, worst_case = 0.0, None
    for _ in range(trials):
        inputs = random_cycle_inputs(rng)
        r = ledger_discrepancy(run_cycle_closed_form(inputs), run_cycle_matrix(inputs))
        if r > worst:
            worst, worst_case = r, _inputs_dict(inputs)
    return _result("path_agreement", trials, worst, PATH_TOL, worst_case)


def check_cycle_closure(rng: np.random.Generator, trials: int) -> CheckResult:
    worst, worst_case = 0.0, None
    for _ in range(trials):
        inputs = random_cycle_inputs(rng)
        for ledger in (run_cycle_closed_form(inputs), run_cycle_matrix(inputs)):
            r = max(abs(ledger.energy_closure), abs(ledger.entropy_closure))
            if r > worst:
                worst, worst_case = r, _inputs_dict(inputs)
    return _result("cycle_closure", trials, worst, CLOSURE_TOL, worst_case)


def check_threshold_consistency(rng: np.random.Generator, trials: int) -> CheckResult:
    """Interval prediction from the analytic thresholds vs. sign classification.

    Points within ``THRESHOLD_MARGIN`` of a boundary are skipped: there the
    currents legitimately straddle zero. A disagreement counts as residual 1.
    """
    mismatches = 0
    worst_case = None
    for _ in range(trials):
        epsilon = float(rng.uniform(0.05, 3.0))
        tau = float(rng.uniform(0.0, 1.0))
        temperature = float(rng.uniform(0.5, 6.0))
        params = DotParams(epsilon, tau)
        branch = rng.choice(list(Branch))
        strength = float(rng.uniform(0.0, 1.0))

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
    """Run every suite on a fresh seeded generator; deterministic per seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
