"""The float kernels' forward errors, measured against the 60-digit values of ``exact``."""

import functools
from decimal import Decimal

import numpy as np
import pytest

import exact
from dqdcycle.regimes import Branch, branch_points, kappa
from dqdcycle.thermo import LEDGER_FIELDS, run_cycle_closed_form_batch, run_cycle_matrix_batch

# A current's largest admitted forward error, in units of u times the sum of its terms;
# a ledger's, in units of u E for dU and of u for dS.
BOUND = 16
# A threshold's largest admitted forward error, in units of u: a threshold is a strength
# in [0, 1], so its error is absolute.
THRESHOLD_BOUND = 8
SCALES = range(-60, 61)  # epsilon, tau and T are multiplied by 2^k
# kappa's largest admitted forward error in ulps: COP/(1 + COP) rounds twice, so its
# relative error is at most about 2u, which is 2 ulps of the result.
KAPPA_BOUND = 2.0


def points(n: int = 120, seed: int = 12) -> tuple[np.ndarray, ...]:
    """(epsilon, tau, T, strength) arrays: O(1) draws, a quarter of them with tau tiny next
    to epsilon and a tenth with tau = 0, and the strengths 0, 1/2 and 1 among them."""
    rng = np.random.default_rng(seed)
    epsilon = 10.0 ** rng.uniform(-3.0, 0.5, n)
    tau = rng.uniform(0.0, 1.0, n)
    tau[: n // 4] = 10.0 ** rng.uniform(-9.0, -3.0, n // 4)
    tau[::10] = 0.0
    temperature = rng.uniform(0.5, 6.0, n)
    strength = rng.uniform(0.0, 1.0, n)
    strength[:3] = 0.0, 0.5, 1.0
    return epsilon, tau, temperature, strength


@functools.cache
def scaled(k: int) -> tuple[list[np.ndarray], list[tuple[Decimal, Decimal]]]:
    """([epsilon, tau, T] of ``points()`` times 2^k, and the exact (E, t) of each point)."""
    epsilon, tau, temperature, _ = points()
    xs = [x * 2.0**k for x in (epsilon, tau, temperature)]
    return xs, [exact.gap_and_tanh(*p) for p in zip(*(x.tolist() for x in xs))]


def test_branch_currents_are_within_16_u_of_their_terms_at_every_scale():
    """On every branch and at every scale 2^k, k in [-60, 60], each current that
    ``branch_points`` gives is within 16 u sum|terms| of its 60-digit value."""
    strength = points()[3]
    worst = {}  # (branch, k) -> the largest error / (u sum|terms|)
    for k in SCALES:
        scaled_points, factors = scaled(k)
        eps = scaled_points[0]
        for branch in Branch:
            _, currents = branch_points(branch, *scaled_points, strength)
            ratios = []
            for i, (gap, t) in enumerate(factors):
                values = exact.branch_currents(branch, eps[i].item(), gap, t, strength[i].item())
                ratios += [abs(Decimal(c[i].item()) - value) / (exact.U * terms)
                           for c, (value, terms) in zip(currents, values)]
            worst[branch, k] = max(ratios)
    assert {key: float(r) for key, r in worst.items() if r > BOUND} == {}


def test_branch_thresholds_are_within_8_u_at_every_scale():
    """On every branch and at every scale 2^k, k in [-60, 60], each threshold that
    ``branch_points`` gives is within 8 u of its 60-digit value."""
    worst = {}  # (branch, threshold, k) -> the largest error / u
    for k in SCALES:
        scaled_points, factors = scaled(k)
        eps = scaled_points[0].tolist()
        for branch in Branch:
            thresholds, _ = branch_points(branch, *scaled_points, 0.0)
            columns = [np.broadcast_to(x, len(eps)).tolist() for x in thresholds]
            for i, (gap, t) in enumerate(factors):
                values = exact.branch_thresholds(branch, eps[i], gap, t)
                for name, column, value in zip(thresholds._fields, columns, values):
                    ratio = abs(Decimal(column[i]) - value) / exact.U
                    worst[branch, name, k] = max(worst.get((branch, name, k), 0), ratio)
    assert {key: float(r) for key, r in worst.items() if r > THRESHOLD_BOUND} == {}


@pytest.mark.parametrize("batch_ledger", [run_cycle_closed_form_batch, run_cycle_matrix_batch])
def test_ledgers_are_within_16_u_at_every_scale(batch_ledger):
    """At every scale 2^k, k in [-60, 60], each dU of both ledger routes is within 16 u E
    of its 60-digit value, and each dS within 16 u: E sets the scale of every energy, and
    an entropy has none. a is ``points()``' strength and b is drawn apart, both with the
    strengths 0, 1/2 and 1 among them."""
    a = points()[3]
    b = np.random.default_rng(13).uniform(0.0, 1.0, len(a))
    b[:3] = 1.0, 0.0, 0.5
    worst = {}  # (field, k) -> the largest error / (u E) for dU, / u for dS
    for k in SCALES:
        scaled_points, factors = scaled(k)
        ledger = batch_ledger(np.column_stack([*scaled_points, a, b]))
        values = np.array([getattr(ledger, f) for f in LEDGER_FIELDS]).T.tolist()
        for row, (gap, t), eps, a_i, b_i in zip(values, factors, scaled_points[0].tolist(),
                                                a.tolist(), b.tolist()):
            expected = exact.ledger(eps, gap, t, a_i, b_i)
            for field, got, value in zip(LEDGER_FIELDS, row, expected):
                unit = exact.U * (gap if field.startswith("dU") else 1)
                ratio = abs(Decimal(got) - value) / unit
                worst[field, k] = max(worst.get((field, k), 0), ratio)
    assert {key: float(r) for key, r in worst.items() if r > BOUND} == {}


def test_kappa_is_within_2_ulps_across_the_float_range():
    """kappa of COPs log-uniform over every binade, subnormal to the largest float, and
    of COPs in [2^53, 2^54), where 1 + COP rounds half to even, is within ``KAPPA_BOUND`` ulps
    of COP/(1 + COP)."""
    rng = np.random.default_rng(14)
    exponents = rng.integers(-1074, 1024, 20_000)
    cops = np.ldexp(rng.uniform(1.0, 2.0, len(exponents)), exponents)
    cops = np.concatenate([cops, 2.0**53 * rng.uniform(1.0, 2.0, 1000), [2.0**53, 2.0**-1074]])
    ratios = [abs(Decimal(got) - value) / Decimal(exact.ulp(value))
              for got, value in zip(kappa(cops).tolist(), map(exact.kappa, cops.tolist()))]
    assert np.all(np.isfinite(cops)) and float(max(ratios)) <= KAPPA_BOUND
