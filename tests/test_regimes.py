import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdcycle.qdot import DotParams
from dqdcycle.thermo import CycleInputs, run_cycle_closed_form
from dqdcycle.regimes import (
    BRANCHES,
    Branch,
    EngineThresholds,
    Mode,
    RefrigeratorThresholds,
    branch_currents,
    branch_thresholds,
    classify,
    classify_from_signs,
    constrained_strength,
    engine_branch_quantities,
    engine_branch_thresholds,
    expected_mode,
    kappa,
    refrigerator_branch_thresholds,
    refrigerator_minus_quantities,
    refrigerator_plus_quantities,
)

TANH1 = math.tanh(1.0)


# ---------------------------------------------------------------------------
# sign table and figures of merit


@pytest.mark.parametrize(
    "signs, mode",
    [
        ((+1, -1, -1), Mode.ENGINE),
        ((-1, +1, +1), Mode.REFRIGERATOR),
        ((+1, -1, +1), Mode.ACCELERATOR),
        ((-1, -1, +1), Mode.HEATER),
        ((+1, +1, -1), Mode.UNDEFINED),
        ((+1, +1, +1), Mode.UNDEFINED),
        ((-1, +1, -1), Mode.UNDEFINED),
        ((-1, -1, -1), Mode.UNDEFINED),
    ],
)
def test_sign_table(signs, mode):
    qh, qc, w = (0.3 * s for s in signs)
    assert classify_from_signs(qh, qc, w) is mode


def test_near_zero_current_is_undefined():
    assert classify_from_signs(1.0, -1.0, 5e-13) is Mode.UNDEFINED
    assert classify_from_signs(1.0, -1.0, -2e-3, zero_tol=1e-2) is Mode.UNDEFINED
    with pytest.raises(ValueError, match="zero_tol"):
        classify_from_signs(1.0, -1.0, -1.0, zero_tol=-1e-3)


def test_kappa_normalization():
    assert kappa(1.0) == 0.5
    assert kappa(3.0) == pytest.approx(0.75)
    for bad in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError, match="cop"):
            kappa(bad)
    with pytest.warns(RuntimeWarning):
        assert kappa(math.inf) == 1.0


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
def test_kappa_monotone(x, y):
    # non-strict: nearby COPs can collapse to the same float kappa
    lo, hi = sorted((x, y))
    assert kappa(lo) <= kappa(hi)


def test_performance_conventions():
    assert classify(Qh=2.0, Qc=-1.2, W=-0.8).performance == pytest.approx(0.4)
    assert classify(Qh=-3.0, Qc=1.0, W=2.0).performance == pytest.approx(kappa(0.5))
    assert classify(Qh=3.0, Qc=-4.0, W=1.0).performance == pytest.approx(kappa(3.0))
    assert classify(Qh=-1.0, Qc=-1.0, W=2.0).performance == pytest.approx(kappa(0.5))
    assert classify(Qh=5e-13, Qc=-1.0, W=-1.0).performance is None
    assert classify(Qh=-1.0, Qc=1.0, W=5e-13).performance is None


def test_classify_bundles_performance():
    c = classify(Qh=1.1615941559557648, Qc=-0.3615941559557649, W=-0.8)
    assert c.mode is Mode.ENGINE
    assert c.performance == pytest.approx(0.6887086990737796, abs=1e-12)
    assert c.raw_cop is None  # efficiency, not a COP
    u = classify(Qh=1.0, Qc=1.0, W=-1.0)
    assert u.mode is Mode.UNDEFINED and u.performance is None


# ---------------------------------------------------------------------------
# engine branch (b = a)


def test_engine_branch_spot():
    p = DotParams(1.0, 0.0)
    qc, qh, w = engine_branch_quantities(p, 1.0, a=0.7)
    assert qc == pytest.approx(-TANH1 + 0.4, abs=1e-14)
    assert qh == pytest.approx(TANH1 + 0.4, abs=1e-14)
    assert w == pytest.approx(-0.8, abs=1e-14)
    c = classify(qh, qc, w)
    assert c.mode is Mode.ENGINE
    assert c.performance == pytest.approx(0.6887086990737796, abs=1e-9)


def test_engine_branch_other_regimes():
    p = DotParams(1.0, 0.0)
    qc, qh, w = engine_branch_quantities(p, 1.0, a=0.3)
    assert classify(qh, qc, w).mode is Mode.ACCELERATOR
    assert w == pytest.approx(0.8, abs=1e-14)
    qc, qh, w = engine_branch_quantities(p, 1.0, a=0.05)
    assert classify(qh, qc, w).mode is Mode.HEATER
    qc, qh, w = engine_branch_quantities(p, 1.0, a=0.5)
    assert w == 0.0
    assert classify(qh, qc, w).mode is Mode.UNDEFINED


def test_engine_thresholds_spot():
    th = engine_branch_thresholds(DotParams(1.0, 0.0), 1.0)
    assert th.heater_max == pytest.approx(0.11920292202211757, abs=1e-15)
    assert th.engine_min == 0.5
    assert th.engine_max == pytest.approx(0.8807970779778824, abs=1e-15)
    th2 = engine_branch_thresholds(DotParams(0.5, 0.0), 1.0)
    assert th2.engine_max == pytest.approx(0.7310585786300049, abs=1e-15)


def test_engine_thresholds_clamp():
    """Strong tunneling at low temperature pushes the windows to the borders."""
    th = engine_branch_thresholds(DotParams(0.1, 1.0), 0.1)
    assert th.heater_max == 0.0
    assert th.engine_max == 1.0


def test_engine_scan_matches_thresholds():
    """Interval prediction and sign classification agree on a dense a-grid."""
    p, temperature = DotParams(1.0, 0.3), 2.0
    th = engine_branch_thresholds(p, temperature)
    for a in np.linspace(0.0, 1.0, 2001):
        a = float(a)
        if min(abs(a - x) for x in th) < 1e-9:
            continue
        qc, qh, w = engine_branch_quantities(p, temperature, a)
        mode = classify_from_signs(qh, qc, w)
        if a < th.heater_max:
            assert mode is Mode.HEATER
        elif a < th.engine_min:
            assert mode is Mode.ACCELERATOR
        elif a < th.engine_max:
            assert mode is Mode.ENGINE
        else:
            assert mode is Mode.UNDEFINED


# ---------------------------------------------------------------------------
# refrigerator branches (a thermally pinned)


def test_constrained_strengths():
    p = DotParams(1.0, 0.0)
    t = math.tanh(1.0 / 3.0)
    assert constrained_strength(p, 3.0, Branch.REFRIGERATOR_PLUS) == pytest.approx(
        0.5 * (1 + t), abs=1e-15
    )
    assert constrained_strength(p, 3.0, Branch.REFRIGERATOR_MINUS) == pytest.approx(
        0.5 * (1 - t), abs=1e-15
    )
    with pytest.raises(ValueError, match="refrigerator"):
        constrained_strength(p, 3.0, Branch.ENGINE)


def test_plus_branch_spot():
    qc, w, qh = refrigerator_plus_quantities(DotParams(1.0, 0.0), 3.0, b=0.9)
    assert w == pytest.approx(2.0 * math.tanh(1.0 / 3.0), abs=1e-12)
    c = classify(qh, qc, w)
    assert c.mode is Mode.REFRIGERATOR
    assert c.raw_cop == pytest.approx(0.7441186718477776, abs=1e-9)
    assert c.performance == pytest.approx(0.4266445190105289, abs=1e-9)


@given(
    epsilon=st.floats(min_value=0.05, max_value=3.0),
    tau=st.floats(min_value=0.0, max_value=1.0),
    temperature=st.floats(min_value=0.5, max_value=6.0),
    b=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80)
def test_plus_branch_work_is_fixed(epsilon, tau, temperature, b):
    """On the plus branch the work stroke pays (E + eps) tanh(E/T), independent of b."""
    p = DotParams(epsilon, tau)
    gap = math.hypot(epsilon, tau)
    _, w, _ = refrigerator_plus_quantities(p, temperature, b)
    assert w == pytest.approx((gap + epsilon) * math.tanh(gap / temperature), abs=1e-13)


def test_plus_thresholds_spot():
    th = refrigerator_branch_thresholds(DotParams(1.0, 0.0), 3.0, Branch.REFRIGERATOR_PLUS)
    assert th.accelerator_max == pytest.approx(0.33924363123418283, abs=1e-12)
    assert th.refrigerator_min == pytest.approx(0.6607563687658171, abs=1e-12)


def test_minus_branch_spot():
    qc, w, qh = refrigerator_minus_quantities(DotParams(1.0, 0.5), 2.0, b=0.9)
    gap = math.hypot(1.0, 0.5)
    assert w == pytest.approx((gap - 1.0) * math.tanh(gap / 2.0), abs=1e-13)
    c = classify(qh, qc, w)
    assert c.mode is Mode.REFRIGERATOR
    assert c.performance == pytest.approx(0.7954841843119638, abs=1e-9)


def test_minus_branch_dies_without_tunneling():
    """At tau = 0 the minus branch exchanges no work, so nothing operates."""
    for b in np.linspace(0.0, 1.0, 101):
        qc, w, qh = refrigerator_minus_quantities(DotParams(1.0, 0.0), 2.0, float(b))
        assert abs(w) <= 1e-15  # (E - eps) tanh cancels, bar one rounding ulp
        assert classify(qh, qc, w).mode is Mode.UNDEFINED


def test_minus_thresholds_spot():
    th = refrigerator_branch_thresholds(DotParams(1.0, 0.5), 2.0, Branch.REFRIGERATOR_MINUS)
    assert th.accelerator_max == pytest.approx(0.7536238594773559, abs=1e-12)
    assert th.refrigerator_min == pytest.approx(0.783560095253611, abs=1e-12)


def test_refrigerator_scan_matches_thresholds():
    p, temperature = DotParams(1.0, 0.4), 1.5
    for branch, quantities in (
        (Branch.REFRIGERATOR_PLUS, refrigerator_plus_quantities),
        (Branch.REFRIGERATOR_MINUS, refrigerator_minus_quantities),
    ):
        th = refrigerator_branch_thresholds(p, temperature, branch)
        for b in np.linspace(0.0, 1.0, 2001):
            b = float(b)
            if min(abs(b - x) for x in th) < 1e-9:
                continue
            qc, w, qh = quantities(p, temperature, b)
            mode = classify_from_signs(qh, qc, w)
            if b < th.accelerator_max:
                assert mode is Mode.ACCELERATOR
            elif b > th.refrigerator_min:
                assert mode is Mode.REFRIGERATOR
            else:
                assert mode is Mode.HEATER  # the band between the thresholds


def test_branch_thresholds_reject_engine():
    with pytest.raises(ValueError, match="refrigerator"):
        refrigerator_branch_thresholds(DotParams(1.0, 0.0), 1.0, Branch.ENGINE)


# ---------------------------------------------------------------------------
# the branch table

STRENGTH_GRID = [0.0, 0.05, 0.3, 0.5, 0.5216361462600286, 0.73, 0.999, 1.0]


def test_table_covers_every_branch():
    assert set(BRANCHES) == set(Branch)


@pytest.mark.parametrize("strength", STRENGTH_GRID)
@pytest.mark.parametrize("tau, temperature", [(0.0, 1.0), (0.3, 2.0), (1.0, 0.5)])
def test_branch_currents_match_wrappers_and_stroke_roles(strength, tau, temperature):
    p = DotParams(1.3, tau)
    t = math.tanh(math.hypot(1.3, tau) / temperature)

    qh, qc, w = branch_currents(Branch.ENGINE, p, temperature, strength)
    assert (qc, qh, w) == engine_branch_quantities(p, temperature, strength)
    ledger = run_cycle_closed_form(CycleInputs(p, temperature, strength, strength))
    assert (qh, qc, w) == (ledger.dU2, ledger.dU1, ledger.dU3)

    for branch, wrapper, a in (
        (Branch.REFRIGERATOR_PLUS, refrigerator_plus_quantities, 0.5 * (1.0 + t)),
        (Branch.REFRIGERATOR_MINUS, refrigerator_minus_quantities, 0.5 * (1.0 - t)),
    ):
        qh, qc, w = branch_currents(branch, p, temperature, strength)
        assert (qc, w, qh) == wrapper(p, temperature, strength)
        ledger = run_cycle_closed_form(CycleInputs(p, temperature, a, strength))
        assert (qh, qc, w) == (ledger.dU3, ledger.dU1, ledger.dU2)


def test_branch_thresholds_match_wrappers():
    p = DotParams(0.8, 0.4)
    assert branch_thresholds(Branch.ENGINE, p, 1.5) == engine_branch_thresholds(p, 1.5)
    for branch in (Branch.REFRIGERATOR_PLUS, Branch.REFRIGERATOR_MINUS):
        th = branch_thresholds(branch, p, 1.5)
        assert th == refrigerator_branch_thresholds(p, 1.5, branch)
        assert isinstance(th, RefrigeratorThresholds)


@pytest.mark.parametrize(
    "strength, mode",
    [
        (0.1, Mode.HEATER),
        (0.2, Mode.ACCELERATOR),  # strict < heater_max
        (0.4, Mode.ACCELERATOR),
        (0.5, Mode.ENGINE),  # strict < engine_min
        (0.7, Mode.ENGINE),
        (0.8, None),  # strict < engine_max
        (0.9, None),
    ],
)
def test_expected_mode_engine_boundaries(strength, mode):
    th = EngineThresholds(heater_max=0.2, engine_min=0.5, engine_max=0.8)
    assert expected_mode(Branch.ENGINE, strength, th) is mode


@pytest.mark.parametrize("branch", [Branch.REFRIGERATOR_PLUS, Branch.REFRIGERATOR_MINUS])
@pytest.mark.parametrize(
    "strength, mode",
    [
        (0.1, Mode.ACCELERATOR),
        (0.3, None),  # strict < accelerator_max
        (0.5, None),  # the heater band is not predicted
        (0.7, None),  # strict > refrigerator_min
        (0.9, Mode.REFRIGERATOR),
    ],
)
def test_expected_mode_refrigerator_boundaries(branch, strength, mode):
    th = RefrigeratorThresholds(accelerator_max=0.3, refrigerator_min=0.7)
    assert expected_mode(branch, strength, th) is mode


# The seed-32 failure of verify's threshold_consistency: just above tau = 0
# the minus branch's W sits below the absolute zero_tol, so the signs read
# undefined where the thresholds predict an accelerator (ROADMAP item 4).
SEED32_POINT = (
    DotParams(1.626048089325509, 2.1093739255295674e-06),
    1.9347005760920484,
    0.5216361462600286,
)


def test_seed32_point_is_predicted_accelerator():
    params, temperature, strength = SEED32_POINT
    th = branch_thresholds(Branch.REFRIGERATOR_MINUS, params, temperature)
    assert expected_mode(Branch.REFRIGERATOR_MINUS, strength, th) is Mode.ACCELERATOR


@pytest.mark.xfail(strict=True, reason="absolute zero_tol; ROADMAP item 4")
def test_seed32_point_signs_agree_with_thresholds():
    params, temperature, strength = SEED32_POINT
    branch = Branch.REFRIGERATOR_MINUS
    th = branch_thresholds(branch, params, temperature)
    qh, qc, w = branch_currents(branch, params, temperature, strength)
    assert classify_from_signs(qh, qc, w) is expected_mode(branch, strength, th)


@pytest.mark.parametrize("zero_tol", [math.nan, math.inf])
def test_classify_rejects_non_finite_zero_tol(zero_tol):
    with pytest.raises(ValueError, match="zero_tol"):
        classify_from_signs(1.0, -1.0, -1.0, zero_tol=zero_tol)


# ---------------------------------------------------------------------------
# domain guards


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
def test_branches_require_positive_detuning(epsilon):
    p = DotParams(epsilon, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        engine_branch_quantities(p, 1.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        engine_branch_thresholds(p, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        refrigerator_plus_quantities(p, 1.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        refrigerator_minus_quantities(p, 1.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        constrained_strength(p, 1.0, Branch.REFRIGERATOR_PLUS)
    with pytest.raises(ValueError, match="epsilon"):
        refrigerator_branch_thresholds(p, 1.0, Branch.REFRIGERATOR_PLUS)


@pytest.mark.parametrize("temperature", [0.0, -2.0, math.nan])
def test_branches_require_positive_temperature(temperature):
    p = DotParams(1.0, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        engine_branch_thresholds(p, temperature)
    with pytest.raises(ValueError, match="temperature"):
        refrigerator_plus_quantities(p, temperature, 0.5)
