"""The ledger and the branch thresholds, derived symbolically from the model.

``sympy`` builds the thermal state rho1 from the Hamiltonian, applies the two
Kraus families as the ``channels`` docstring writes them, and traces each
state against H. The energy changes found that way must be what
``thermo.stroke_energies`` gives on the same symbols, and every threshold in
``regimes.BRANCHES`` must be the zero, in the free strength, of one of its
branch's currents. Thresholds are compared before the clamp to [0, 1].
"""

import numpy as np
import sympy as sp

from dqdcycle import regimes, thermo
from dqdcycle.regimes import BRANCHES

EPS, TAU, T = sp.symbols("epsilon tau T", positive=True)
A, B, S = sp.symbols("a b s", positive=True)  # the two strengths, and a branch's free one
H = sp.Matrix([[-EPS, TAU], [TAU, EPS]])
GAP = sp.sqrt(EPS**2 + TAU**2)
TANH = sp.tanh(GAP / T)


def ket(i):
    return sp.Matrix([1 - i, i])


def unit(i, j):
    """The matrix unit |i><j|."""
    return ket(i) * ket(j).T


# The Kraus families of channels A and B, as the channels docstring writes them.
def channel_a(a):
    return [sp.sqrt(1 - a) * unit(0, 0), sp.sqrt(1 - a) * unit(0, 1),
            sp.sqrt(a) * unit(1, 1), sp.sqrt(a) * unit(1, 0)]


def channel_b(b):
    return [sp.sqrt(1 - b) * unit(1, 1), sp.sqrt(1 - b) * unit(1, 0),
            sp.sqrt(b) * unit(0, 0), sp.sqrt(b) * unit(0, 1)]


def apply(kraus, rho):
    """The nonselective action sum_k K rho K^dag; every operator here is real."""
    return sp.expand(sum((k * rho * k.T for k in kraus), sp.zeros(2)))


def thermal_state():
    """exp(-H/T)/Z. Since H^2 = E^2 1, exp(-H/T) = cosh(E/T) 1 - sinh(E/T) H/E and
    Z = 2 cosh(E/T), so rho1 = (1 - tanh(E/T) H/E)/2."""
    assert sp.expand(H * H) == GAP**2 * sp.eye(2)
    return (sp.eye(2) - TANH * H / GAP) / 2


def ledger(a, b):
    """(dU1, dU2, dU3) of the cycle rho3 -> rho1 -> rho2 -> rho3, from the states."""
    rho1 = thermal_state()
    rho2 = apply(channel_a(a), rho1)
    rho3 = apply(channel_b(b), rho2)
    u1, u2, u3 = ((H * rho).trace() for rho in (rho1, rho2, rho3))
    return u1 - u3, u2 - u1, u3 - u2


def vanishes(expr) -> bool:
    """Whether ``expr`` is 0, once expanded and put over one denominator."""
    return sp.cancel(sp.expand(expr)) == 0


def binary_entropy(p):
    return -p * sp.log(p) - (1 - p) * sp.log(1 - p)


def test_kraus_families_are_complete_and_reset_the_state():
    for kraus in (channel_a(A), channel_b(B)):
        assert sp.expand(sum((k.T * k for k in kraus), sp.zeros(2))) == sp.eye(2)
    rho1 = thermal_state()
    assert sp.expand(rho1.trace()) == 1
    assert apply(channel_a(A), rho1) == sp.diag(1 - A, A)
    assert apply(channel_b(B), sp.diag(1 - A, A)) == sp.diag(B, 1 - B)


def test_ledger_from_the_kraus_operators_is_the_closed_form():
    closed = thermo.stroke_energies(EPS, GAP, TANH, A, B)
    for derived, formula in zip(ledger(A, B), closed):
        assert vanishes(derived - formula)


def pinned_strength(rule):
    """The refrigerator branch's pinned a, as the expression in t = tanh(E/T) that the
    table's function gives: one of the two strengths g = (1 - t)/2 and 1 - g that make
    the channel-A stroke isentropic, dS2 = h(a) - h(g) = 0."""
    t = sp.Symbol("t", positive=True)
    g = (1 - t) / 2
    samples = np.array([0.0, 0.1, 0.3, 0.9, 0.999])  # t < 1: the clamp does nothing
    isentropic = (g, 1 - g)
    assert all(vanishes(binary_entropy(a) - binary_entropy(g)) for a in isentropic)
    found = [a for a in isentropic
             if np.array_equal(rule.pinned_a(samples), sp.lambdify(t, a)(samples))]
    assert len(found) == 1
    return found[0].subs(t, TANH)


def test_every_threshold_is_the_zero_of_a_current_of_its_branch(monkeypatch):
    """Each threshold is where one current changes sign as the free strength moves, and
    each current that depends on that strength gives one threshold; on the refrigerator
    branches W does not depend on it."""
    monkeypatch.setattr(regimes, "_mid", lambda x: (1 + x) / 2)  # the thresholds unclamped
    for branch, rule in BRANCHES.items():
        a = S if rule.pinned_a is None else pinned_strength(rule)
        du = ledger(a, S)
        currents = [du[i] for i in rule.strokes]  # (Qh, Qc, W)
        zeros = []
        for current in currents:
            if current.has(S):
                assert sp.diff(current, S, 2) == 0  # linear in the free strength
                zeros.append(-current.subs(S, 0) / sp.diff(current, S))
        thresholds = rule.thresholds(TANH, GAP / EPS * TANH)
        # which zeros each threshold is: one each, and each zero once
        hits = [[i for i, z in enumerate(zeros) if vanishes(value - z)] for value in thresholds]
        assert sorted(hits) == [[i] for i in range(len(zeros))], (branch, hits)
        if rule.pinned_a is not None:
            assert not currents[2].has(S)
