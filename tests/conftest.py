"""Shared fixtures plus the acceptance-criteria summary block.

Every test named ``test_criterion_NN`` in test_acceptance.py gets one
PASS/FAIL line in the terminal summary, so a full run ends with a compact
checklist of the package's headline guarantees.
"""

import re
from collections import Counter

import numpy as np
import pytest

import reference
from dqdcycle import channels, verify
from dqdcycle.channels import MeasurementChannel, Orientation, apply_kraus, completeness_residual
from dqdcycle.qdot import DotParams, is_density_matrix, max_abs
from dqdcycle.regimes import Branch, Mode
from dqdcycle.sweep import SweepResult
from reference import branch_currents, branch_thresholds, evaluate_cell, expected_mode
from reference import random_cycle_inputs, random_density_matrix, run_cycle_closed_form
from reference import run_cycle_matrix

CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

TITLES = {
    1: "closed-form and matrix cycle paths agree to 1e-10 on 1000 fuzzed inputs",
    2: "Kraus completeness < 1e-14; channel outputs are unit-trace PSD",
    3: "channels erase their input; channel-A output is diag(1-a, a)",
    4: "energy and entropy close to 1e-12 around the cycle on both paths",
    5: "engine-branch thresholds and spot efficiency vs brute-force scan",
    6: "third stroke isentropic (dS3 = 0) whenever b = a",
    7: "refrigerator-plus spot values and thresholds vs brute-force scan",
    8: "refrigerator-minus: tau=0 sweep all undefined; finite-tau spot kappa",
    9: "kappa(1) = 0.5 exactly and kappa strictly increasing in COP",
    10: "engine-branch map reproduces the analytic regime geometry",
    11: "refrigerator region grows and heater region shrinks with temperature",
    12: "sweeps emit the scalar oracle's CSV bytes whatever workers is",
    13: "pixel-level figure matching out of scope; analytic checks substitute",
}


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def oracle_sweep():
    """The scalar reference for ``run_sweep``: ``reference.evaluate_cell`` on every cell,
    row-major."""

    def sweep(spec):
        cells = [evaluate_cell(spec, s, e)
                 for e in spec.epsilon_axis.points().tolist()
                 for s in spec.strength_axis.points().tolist()]
        counts = Counter(cell.result.mode for cell in cells)
        return SweepResult(spec, cells, {m: counts.get(m, 0) for m in Mode})

    return sweep


@pytest.fixture(scope="session")
def oracle_runs():
    """``oracle_verify``'s ``run_all`` results, kept for the whole session."""
    return {}


@pytest.fixture
def oracle_verify(oracle_runs):
    """The scalar reference for ``verify.run_all``: each check's trial-by-trial loop.

    Each trial reads one row of the stream that ``verify`` draws as columns:
    ``random(2)`` for a channel, ``standard_normal((2, 2, 2))`` for a state
    (the channel checks draw the two from ``rng.spawn(2)``), ``uniform`` for a
    cycle input and ``random(5)`` for a threshold point. The Kraus lookup at
    call time and the strict ``r > worst`` update are those of the loops that
    ``verify`` ran before its checks became array passes. The threshold loop is
    also reachable as ``.threshold_consistency``. The ledgers and branch
    functions are the scalar ones of ``tests/reference.py``.

    ``run_all`` results are memoised per ``(seed, trials)`` and per object
    that the loops look up at call time: the Kraus source, the sign
    classifier and the five tolerances. So a test that patches any of them
    runs the loops afresh; each call returns a new list.
    """

    def random_channel(rng):
        r, p = rng.random(2).tolist()
        return MeasurementChannel(p, Orientation.A if r < 0.5 else Orientation.B)

    def ledger_discrepancy(x, y):
        return max(abs(getattr(x, f) - getattr(y, f))
                   for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3"))

    def inputs_dict(inputs):
        return {"epsilon": inputs.params.epsilon, "tau": inputs.params.tau,
                "temperature": inputs.temperature, "a": inputs.a, "b": inputs.b}

    def result(name, trials, residual, tol, worst):
        return verify.CheckResult(name, trials, residual, tol, residual <= tol, worst)

    def kraus_completeness(rng, trials):
        worst, worst_case = 0.0, None
        for _ in range(trials):
            ch = random_channel(rng)
            r = completeness_residual(channels.kraus_operators(ch))
            if r > worst:
                worst, worst_case = r, {"strength": ch.strength, "orientation": ch.orientation.value}
        return result("kraus_completeness", trials, worst, verify.COMPLETENESS_TOL, worst_case)

    def channel_cptp(rng, trials):
        params, states = rng.spawn(2)
        worst, worst_case = 0.0, None
        for _ in range(trials):
            ch = random_channel(params)
            rho = random_density_matrix(states)
            out = apply_kraus(channels.kraus_operators(ch), rho)
            r = abs(complex(np.trace(out)) - 1.0)
            if not is_density_matrix(out, verify.MATRIX_TOL):
                r = max(r, 1.0)  # structural failure, not a small residual
            if r > worst:
                worst, worst_case = r, {"strength": ch.strength, "orientation": ch.orientation.value}
        return result("channel_cptp", trials, worst, verify.MATRIX_TOL, worst_case)

    def channel_reset(rng, trials):
        params, states = rng.spawn(2)
        worst, worst_case = 0.0, None
        for _ in range(trials):
            ch = random_channel(params)
            rho = random_density_matrix(states)
            out = apply_kraus(channels.kraus_operators(ch), rho)
            p = ch.strength
            if ch.orientation is Orientation.A:
                target = np.diag([1.0 - p, p]).astype(np.complex128)
            else:
                target = np.diag([p, 1.0 - p]).astype(np.complex128)
            r = max_abs(out - target)
            if r > worst:
                worst, worst_case = r, {"strength": p, "orientation": ch.orientation.value}
        return result("channel_reset", trials, worst, verify.MATRIX_TOL, worst_case)

    def path_agreement(rng, trials):
        worst, worst_case = 0.0, None
        for _ in range(trials):
            inputs = random_cycle_inputs(rng)
            r = ledger_discrepancy(run_cycle_closed_form(inputs), run_cycle_matrix(inputs))
            if r > worst:
                worst, worst_case = r, inputs_dict(inputs)
        return result("path_agreement", trials, worst, verify.PATH_TOL, worst_case)

    def cycle_closure(rng, trials):
        worst, worst_case = 0.0, None
        for _ in range(trials):
            inputs = random_cycle_inputs(rng)
            for ledger in (run_cycle_closed_form(inputs), run_cycle_matrix(inputs)):
                r = max(abs(ledger.energy_closure), abs(ledger.entropy_closure))
                if r > worst:
                    worst, worst_case = r, inputs_dict(inputs)
        return result("cycle_closure", trials, worst, verify.CLOSURE_TOL, worst_case)

    def threshold_consistency(rng, trials):
        mismatches = 0
        worst_case = None
        for _ in range(trials):
            u = rng.random(5).tolist()
            epsilon = 0.05 + (3.0 - 0.05) * u[0]
            tau = u[1]
            temperature = 0.5 + (6.0 - 0.5) * u[2]
            params = DotParams(epsilon, tau)
            branch = list(Branch)[int(3 * u[3])]
            strength = u[4]

            th = branch_thresholds(branch, params, temperature)
            if min(abs(strength - x) for x in th) < verify.THRESHOLD_MARGIN:
                continue
            expected = expected_mode(branch, strength, th)
            if expected is None:
                continue
            qh, qc, w = branch_currents(branch, params, temperature, strength)
            got = reference.classify_from_signs(qh, qc, w)  # at call time, so a test can watch it
            if got is not expected:
                mismatches += 1
                if worst_case is None:
                    worst_case = {
                        "branch": branch.value, "epsilon": epsilon, "tau": tau,
                        "temperature": temperature, "strength": strength,
                        "expected": expected.value, "got": got.value,
                    }
        return result("threshold_consistency", trials, float(mismatches), 0.0, worst_case)

    def run_all(seed, trials):
        key = (seed, trials, channels.kraus_operators, reference.classify_from_signs,
               verify.COMPLETENESS_TOL, verify.MATRIX_TOL, verify.PATH_TOL,
               verify.CLOSURE_TOL, verify.THRESHOLD_MARGIN)
        if key not in oracle_runs:
            rng = np.random.default_rng(seed)
            checks = (kraus_completeness, channel_cptp, channel_reset, path_agreement,
                      cycle_closure, threshold_consistency)
            oracle_runs[key] = [check(rng, trials) for check in checks]
        return list(oracle_runs[key])

    run_all.threshold_consistency = threshold_consistency
    return run_all


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            match = CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            n = int(match.group(1))
            if label == "FAIL" or n not in outcomes:
                outcomes[n] = label
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(outcomes):
        title = TITLES.get(n, "")
        terminalreporter.write_line(f"criterion {n:02d}: {outcomes[n]} - {title}")
