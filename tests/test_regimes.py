import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from dqdcycle import regimes, verify
from dqdcycle.qdot import DotParams
from dqdcycle.thermo import CycleInputs, run_cycle_closed_form
from dqdcycle.regimes import (
    BRANCHES,
    Branch,
    EngineThresholds,
    MODES,
    Mode,
    RefrigeratorThresholds,
    branch_currents,
    branch_points,
    branch_thresholds,
    classify,
    constrained_strength,
    engine_branch_quantities,
    engine_branch_thresholds,
    expected_mode_codes,
    kappa,
    mode_codes,
    refrigerator_branch_thresholds,
    refrigerator_minus_quantities,
    refrigerator_plus_quantities,
)
from reference import bits, outcome, same

TANH1 = math.tanh(1.0)


def code_of(mode):
    """A mode's index in ``MODES``, and -1 for None: the codes of the mode kernels."""
    return -1 if mode is None else MODES.index(mode)


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
    assert classify(qh, qc, w).mode is mode
    assert mode_codes(np.array([qh]), np.array([qc]), np.array([w])).tolist() == [code_of(mode)]


def test_near_zero_current_is_undefined():
    assert classify(1.0, -1.0, 5e-13).mode is Mode.UNDEFINED
    assert classify(1.0, -1.0, -2e-3, zero_tol=1e-2).mode is Mode.UNDEFINED
    qh, qc, w = np.array([1.0, 1.0]), np.array([-1.0, -1.0]), np.array([5e-13, -2e-3])
    assert mode_codes(qh, qc, w).tolist() == [code_of(Mode.UNDEFINED), code_of(Mode.ENGINE)]
    assert mode_codes(qh, qc, w, zero_tol=1e-2).tolist() == [code_of(Mode.UNDEFINED)] * 2
    with pytest.raises(ValueError, match="zero_tol"):
        classify(1.0, -1.0, -1.0, zero_tol=-1e-3)


def test_kappa_normalization():
    assert kappa(1.0) == 0.5
    assert kappa(3.0) == pytest.approx(0.75)
    for bad in (-2.0, math.nan):
        with pytest.raises(ValueError, match="^cop must be nonnegative$"):
            kappa(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kappa(0.0) == 0.0  # a COP that underflows to 0
        assert kappa(math.inf) == 1.0  # and one that overflows: both limits, exact and silent


# around 2^53, where 1 + COP stops being exact
NEAR_2_53 = [math.nextafter(2.0**53, 0.0), 2.0**53, math.nextafter(2.0**53, math.inf)]
COPS = np.concatenate([np.logspace(-6.0, 20.0, 261), [5e-324, 1e-320, 2.2250738585072009e-308],
                       NEAR_2_53, [sys.float_info.max, 0.0, math.inf]])


def test_kappa_of_an_array_is_kappa_of_each_element():
    """Bit for bit, and each finite COP keeps the bits of Python's cop / (1.0 + cop)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kappa(COPS)
        each = [kappa(float(c)) for c in COPS]
    assert got.dtype == np.float64 and got.shape == COPS.shape
    assert all(type(k) is float for k in each)
    assert np.array_equal(bits(got), bits(each))
    finite = [c / (1.0 + c) for c in COPS[:-1].tolist()]
    assert np.array_equal(bits(got[:-1]), bits(finite))


@pytest.mark.parametrize("bad", [-1.0, -5e-324, -math.inf, math.nan])
def test_kappa_refuses_an_array_with_one_bad_cop(bad):
    cops = COPS.copy()
    cops[7] = bad
    with pytest.raises(ValueError, match="^cop must be nonnegative$"):
        kappa(cops)


@pytest.mark.parametrize("bad", ["1.0", None, [1.0]])
def test_kappa_refuses_a_non_number(bad):
    with pytest.raises(TypeError):
        kappa(bad)


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
def test_kappa_monotone(x, y):
    # non-strict: nearby COPs can collapse to the same float kappa
    lo, hi = sorted((x, y))
    assert kappa(lo) <= kappa(hi)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md FOUND line on kappa, ROADMAP item 11: 1.0 + cop rounds half to even on "
    "[2^53, 2^54), so kappa(2^53) is 1.0, kappa(2^53 + 2) is 1 - 2^-52, and kappa "
    "alternates between the two up to 2^54; fixing it changes JSON bits"))
def test_kappa_monotone_past_2_53():
    got = [kappa(2.0**53 + 2 * k) for k in range(16)]
    assert got == sorted(got)


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
        mode = classify(qh, qc, w).mode
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
            mode = classify(qh, qc, w).mode
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
    assert expected_mode_codes(Branch.ENGINE, np.array([strength]), th).tolist() == [code_of(mode)]


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
    assert expected_mode_codes(branch, np.array([strength]), th).tolist() == [code_of(mode)]


@pytest.mark.parametrize("branch", list(Branch))
def test_array_forms_equal_scalar_route(branch):
    """At every point, ``branch_points``, ``expected_mode_codes`` and ``mode_codes`` give
    the bits and modes of the scalar references, thresholds and clamped edges included."""
    rng = np.random.default_rng(5)
    n = 400
    epsilon = np.concatenate((rng.uniform(0.05, 3.0, n), [1e-9, 1.3, 2e6, 1.626048089325509]))
    tau = np.concatenate((rng.uniform(0.0, 1.0, n), [1.0, 0.0, 0.5, 2.1093739255295674e-06]))
    temperature = np.concatenate((rng.uniform(0.5, 6.0, n), [0.05, 1.0, 1e-3, 1.9347005760920484]))
    strength = np.concatenate((rng.random(n), [0.0, 0.5, 1.0, 0.5216361462600286]))
    th, currents = branch_points(branch, epsilon, tau, temperature, strength)
    expected = expected_mode_codes(branch, strength, th)
    got = mode_codes(*currents)
    for i, point in enumerate(zip(epsilon.tolist(), tau.tolist(), temperature.tolist(),
                                  strength.tolist())):
        e, t, temp, s = point
        scalar_th = reference.branch_thresholds(branch, DotParams(e, t), temp)
        assert tuple(np.broadcast_to(x, epsilon.shape)[i] for x in th) == scalar_th, point
        assert all(isinstance(x, float) for x in scalar_th)
        scalar_currents = reference.branch_currents(branch, DotParams(e, t), temp, s)
        assert np.array_equal(np.array([x[i] for x in currents]).view(np.int64),
                              np.array(scalar_currents).view(np.int64)), point
        assert expected[i] == code_of(reference.expected_mode(branch, s, scalar_th)), point
        assert got[i] == MODES.index(reference.classify_from_signs(*scalar_currents)), point


def test_mid_float_path_equals_array_path():
    """``_mid`` of a Python float, as the scalar references call it, is a float with the
    bits of the array path, at the clamps, the signed zeros and the infinities; NaN
    stays NaN."""
    xs = [0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0, 1 - 1e-16, -1 + 1e-16, 5e-324,
          -5e-324, 1e308, -1e308, math.inf, -math.inf]
    array = regimes._mid(np.array(xs))
    for x, want in zip(xs, array.tolist()):
        got = regimes._mid(x)
        assert type(got) is float
        assert np.array([got]).view(np.int64) == np.array([want]).view(np.int64), x
    assert math.isnan(regimes._mid(np.float64(math.nan)))
    assert np.isnan(regimes._mid(np.array([math.nan]))).all()


# The seed-32 failure of verify's threshold_consistency: just above tau = 0
# the minus branch's W sits below the absolute zero_tol, so the signs read
# undefined where the thresholds predict an accelerator (ROADMAP item 3).
SEED32_POINT = (
    DotParams(1.626048089325509, 2.1093739255295674e-06),
    1.9347005760920484,
    0.5216361462600286,
)


def test_seed32_point_is_predicted_accelerator():
    params, temperature, strength = SEED32_POINT
    th = branch_thresholds(Branch.REFRIGERATOR_MINUS, params, temperature)
    assert expected_mode_codes(Branch.REFRIGERATOR_MINUS, np.array([strength]), th).tolist() == [
        code_of(Mode.ACCELERATOR)]


@pytest.mark.xfail(strict=True, reason="absolute zero_tol; ROADMAP item 3")
def test_seed32_point_signs_agree_with_thresholds():
    params, temperature, strength = SEED32_POINT
    branch = Branch.REFRIGERATOR_MINUS
    th = branch_thresholds(branch, params, temperature)
    qh, qc, w = branch_currents(branch, params, temperature, strength)
    assert code_of(classify(qh, qc, w).mode) == expected_mode_codes(
        branch, np.array([strength]), th)[0]


@pytest.mark.parametrize("zero_tol", [math.nan, math.inf])
def test_classify_rejects_non_finite_zero_tol(zero_tol):
    with pytest.raises(ValueError, match="zero_tol"):
        classify(1.0, -1.0, -1.0, zero_tol=zero_tol)
    with pytest.raises(ValueError, match="zero_tol"):
        mode_codes(np.array([1.0]), np.array([-1.0]), np.array([-1.0]), zero_tol=zero_tol)


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
    with pytest.raises(ValueError, match="epsilon"):
        branch_points(Branch.ENGINE, np.array([1.0, epsilon]), 0.5, 1.0, 0.5)


@pytest.mark.parametrize("temperature", [0.0, -2.0, math.nan])
def test_branches_require_positive_temperature(temperature):
    p = DotParams(1.0, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        engine_branch_thresholds(p, temperature)
    with pytest.raises(ValueError, match="temperature"):
        refrigerator_plus_quantities(p, temperature, 0.5)
    with pytest.raises(ValueError, match="temperature"):
        branch_points(Branch.REFRIGERATOR_PLUS, 1.0, 0.0, np.array([1.0, temperature]), 0.5)


def test_branch_points_require_finite_epsilon_and_tau():
    """A NaN or infinite epsilon or tau is refused before any other check, with the
    message of ``DotParams``, not passed on as NaN or infinite currents."""
    with pytest.raises(ValueError, match="^epsilon and tau must be finite$"):
        branch_points(Branch.ENGINE, np.array([math.nan, 1.0]), np.array([0.5, math.inf]),
                      1.0, 0.5)
    for epsilon, tau in ((math.inf, 0.5), (1.0, -math.inf), (math.nan, 0.0), (1.0, math.nan)):
        for branch in Branch:
            with pytest.raises(ValueError, match="^epsilon and tau must be finite$"):
                branch_points(branch, epsilon, tau, 1.0, 0.5)
        with pytest.raises(ValueError, match="^epsilon and tau must be finite$"):
            branch_points(Branch.ENGINE, np.array([1.0, epsilon]), tau, -1.0, 2.0)


# ---------------------------------------------------------------------------
# the scalar names are one-row calls that return what the references return, and the
# mode kernels at one point raise what the references raise

P = DotParams(1.0, 0.5)
# (the name of a reference, bad arguments); ``PACKAGE`` holds the call it is the oracle for
BAD_CALLS = [
    # branch_currents checks epsilon, then temperature, then the strength
    *[("branch_currents", (branch, DotParams(epsilon, 0.5), temperature, strength))
      for branch in Branch
      for epsilon, temperature, strength in [
          (0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (-1e-300, 1.0, 0.5),
          (1.0, 0.0, 0.5), (1.0, -2.0, 0.5), (1.0, math.nan, 0.5), (1.0, math.inf, 0.5),
          (1.0, 1.0, -0.1), (1.0, 1.0, 1.1), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
          (0.0, 0.0, 0.5), (-1.0, 1.0, math.nan), (1.0, math.nan, 2.0), (-1.0, -1.0, -1.0)]],
    ("branch_currents", ("engine", P, 1.0, 0.5)),
    *[("branch_thresholds", (branch, DotParams(epsilon, 0.5), temperature))
      for branch in Branch
      for epsilon, temperature in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, math.nan),
                                   (1.0, -math.inf), (-1.0, math.nan)]],
    ("branch_thresholds", ("engine", P, 1.0)),
    ("expected_mode", (Branch.ENGINE, 0.5, RefrigeratorThresholds(0.3, 0.7))),
    ("expected_mode", ("engine", 0.5, EngineThresholds(0.2, 0.5, 0.8))),
    *[(name, (1.0, -1.0, -1.0, zero_tol)) for name in ("classify_from_signs", "classify")
      for zero_tol in (-1e-3, math.nan, math.inf, -math.inf)],
    *[(name, (math.nan, 1.0, math.nan, math.nan)) for name in ("classify_from_signs", "classify")],
    ("classify", (math.inf, -1.0, math.inf, 0.0)),  # accelerator with a NaN COP
    ("classify", (-math.inf, -1.0, math.inf, 0.0)),  # heater with a NaN COP
    ("classify", (-1.0, math.inf, math.inf, 0.0)),  # refrigerator with a NaN COP
]


PACKAGE = {
    "branch_currents": branch_currents,
    "branch_thresholds": branch_thresholds,
    "classify": classify,
    "expected_mode": lambda branch, strength, thresholds: expected_mode_codes(
        branch, np.array([strength]), thresholds),
    "classify_from_signs": lambda qh, qc, w, zero_tol: mode_codes(
        np.array([qh]), np.array([qc]), np.array([w]), zero_tol),
}


@pytest.mark.parametrize("name, args", BAD_CALLS)
def test_scalar_names_raise_as_the_reference(name, args):
    """Every bad input raises the reference's exception with its message, also when two
    or three inputs are bad at once (the first check that fails wins)."""
    got = outcome(PACKAGE[name], *args)
    assert got[0] == "raises", got
    assert same(got, outcome(getattr(reference, name), *args))


positive = st.one_of(st.floats(min_value=0.05, max_value=3.0),
                     st.floats(min_value=5e-324, max_value=1e300))


@given(
    branch=st.sampled_from(Branch),
    epsilon=st.one_of(positive, st.floats(min_value=-1.0, max_value=0.0)),
    tau=st.one_of(st.floats(min_value=-1.0, max_value=1.0),
                  st.floats(min_value=-1e300, max_value=1e300)),
    temperature=st.one_of(positive, st.floats()),
    strength=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats()),
    zero_tol=st.one_of(st.just(regimes.ZERO_TOL), st.floats(min_value=0.0, max_value=1.0)),
)
@example(Branch.ENGINE, 1.0, 0.0, 1.0, 0.5, regimes.ZERO_TOL)  # a = b = 1/2: W = 0
@example(Branch.ENGINE, 1.3, 0.3, 2.0, 0.5, regimes.ZERO_TOL)
@example(Branch.REFRIGERATOR_MINUS, 1.0, 0.0, 2.0, 0.9, regimes.ZERO_TOL)  # tau = 0: W = 0
@example(Branch.REFRIGERATOR_MINUS, 1.0, 0.0, 2.0, 0.2, 0.0)
@example(Branch.REFRIGERATOR_PLUS, 1e-320, 1.0, 1.0, 0.9, regimes.ZERO_TOL)
@example(Branch.ENGINE, 1e307, 0.0, 1.0, 0.9, regimes.ZERO_TOL)  # currents overflow
@example(Branch.REFRIGERATOR_MINUS, SEED32_POINT[0].epsilon, SEED32_POINT[0].tau,
         SEED32_POINT[1], SEED32_POINT[2], regimes.ZERO_TOL)
@settings(max_examples=100, deadline=None)
def test_one_row_branch_calls_equal_the_reference(branch, epsilon, tau, temperature, strength,
                                                  zero_tol):
    """``branch_currents``, ``branch_thresholds`` and ``classify`` return the reference's
    values (Python floats with its bits and signed zeros, the same named tuple or
    ``Classification``) and warnings, or raise its exception; ``expected_mode_codes``
    gives the code of the reference's ``expected_mode``."""
    params = DotParams(epsilon, tau)
    currents = outcome(regimes.branch_currents, branch, params, temperature, strength)
    assert same(currents, outcome(reference.branch_currents, branch, params, temperature,
                                  strength))
    thresholds = outcome(regimes.branch_thresholds, branch, params, temperature)
    assert same(thresholds, outcome(reference.branch_thresholds, branch, params, temperature))
    if thresholds[0] == "returns":
        codes = expected_mode_codes(branch, np.array([strength]), thresholds[1])
        assert codes.tolist() == [code_of(reference.expected_mode(branch, strength,
                                                                 thresholds[1]))]
    if currents[0] == "returns":
        assert all(type(x) is float for x in currents[1])
        args = (*currents[1], zero_tol)
        assert same(outcome(classify, *args), outcome(reference.classify, *args))


@given(qh=st.floats(), qc=st.floats(), w=st.floats(),
       zero_tol=st.one_of(st.just(regimes.ZERO_TOL), st.floats()))
@example(1e300, -1.0, 1e-300, 0.0)  # accelerator with an infinite COP: kappa = 1.0
@example(-1e300, 1e300, 1e-300, 0.0)  # refrigerator with an infinite COP
@example(2.0, -1.2, -0.8, regimes.ZERO_TOL)  # engine
@example(-1.0, -1.0, 2.0, regimes.ZERO_TOL)  # heater
@example(0.0, -0.0, 1.0, 0.0)  # zero currents are undefined at zero_tol = 0
@settings(max_examples=100, deadline=None)
def test_one_row_classification_equals_the_reference(qh, qc, w, zero_tol):
    got = outcome(classify, qh, qc, w, zero_tol)
    assert same(got, outcome(reference.classify, qh, qc, w, zero_tol))


def test_infinite_cop_gives_no_warning_as_the_reference():
    got = outcome(classify, 1e300, -1.0, 1e-300, 0.0)
    assert got[1].performance == 1.0 and got[1].raw_cop == math.inf
    assert got[2:] == ()
    assert same(got, outcome(reference.classify, 1e300, -1.0, 1e-300, 0.0))


def test_cop_that_underflows_gives_zero_as_the_reference():
    got = outcome(classify, 1e-300, -1.0, 1e300, 0.0)
    assert got[1].mode is Mode.ACCELERATOR
    assert got[1].performance == 0.0 and got[1].raw_cop == 0.0
    assert got[2:] == ()
    assert same(got, outcome(reference.classify, 1e-300, -1.0, 1e300, 0.0))


def threshold_points(k: int, n: int = 3000) -> tuple[np.ndarray, ...]:
    """epsilon, tau, T and strength of ``n`` points drawn as verify's threshold check
    draws them, with epsilon, tau and T multiplied by 2^k."""
    u = np.random.default_rng(9).random((n, 5))
    energies = np.ldexp(verify._THRESHOLD_LOW + verify._THRESHOLD_SPAN * u[:, :3], k)
    return (*energies.T, u[:, 4])


@pytest.mark.parametrize("k", [-60, -30, 20, 700, 900])
@pytest.mark.parametrize("branch", list(Branch))
def test_branch_points_scale_exactly(branch, k):
    """Multiplying epsilon, tau and T by 2^k multiplies every current by 2^k and leaves
    every threshold as it is, bit for bit."""
    (thresholds, currents), (scaled_thresholds, scaled_currents) = (
        branch_points(branch, *threshold_points(j)) for j in (0, k))
    for x, y in zip(scaled_currents, currents):
        assert np.array_equal(bits(x), bits(np.ldexp(y, k)))
    for x, y in zip(scaled_thresholds, thresholds):
        assert np.array_equal(bits(x), bits(y))


@pytest.mark.parametrize("branch", list(Branch))
def test_branch_points_ignore_the_sign_of_tau(branch):
    """tau enters only through E = hypot(epsilon, tau), so -tau gives every threshold's
    and current's bits."""
    epsilon, tau, temperature, strength = threshold_points(0)
    ours, mirrored = ((*thresholds, *currents) for thresholds, currents in (
        branch_points(branch, epsilon, t, temperature, strength) for t in (tau, -tau)))
    for x, y in zip(ours, mirrored):
        assert np.array_equal(bits(x), bits(y))
