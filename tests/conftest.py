"""Shared fixtures plus the acceptance-criteria summary block.

Every test named ``test_criterion_NN`` in test_acceptance.py gets one
PASS/FAIL line in the terminal summary, so a full run ends with a compact
checklist of the package's headline guarantees.
"""

import re
from collections import Counter

import numpy as np
import pytest

from dqdcycle.regimes import Mode
from dqdcycle.sweep import SweepResult, evaluate_cell

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
    """The scalar reference for ``run_sweep``: ``evaluate_cell`` on every cell, row-major."""

    def sweep(spec):
        cells = [evaluate_cell(spec, s, e)
                 for e in spec.epsilon_axis.points().tolist()
                 for s in spec.strength_axis.points().tolist()]
        counts = Counter(cell.result.mode for cell in cells)
        return SweepResult(spec, cells, {m: counts.get(m, 0) for m in Mode})

    return sweep


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
