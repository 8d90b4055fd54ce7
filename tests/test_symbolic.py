"""The ledger and the branch table, derived symbolically from the model.

``sympy`` builds the thermal state rho1 from the Hamiltonian, applies the two
Kraus families as the ``channels`` docstring writes them, and traces each
state against H. The energy changes found that way must be what
``thermo.stroke_energies`` gives on the same symbols. Each branch of
``regimes.BRANCHES`` must follow from them: its pinned a and its W stroke
make a measurement stroke isentropic, Qc is the bath stroke, every threshold
is the zero, in the free strength, of one of its branch's currents, and each
piece of the line between thresholds is held by an interval with its mode's
sign pattern. Thresholds are compared before the clamp to [0, 1]; their tau-
and T-derivatives have signs that hold at every point, shown on factored
forms. A lambdified check ties the derived forms to ``regimes.branch_points``
in floats.
"""

import functools

import numpy as np
import sympy as sp

from dqdcycle import regimes, thermo
from dqdcycle.regimes import BRANCHES, SIGN_PATTERNS, Branch, Mode, branch_points

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


def pinned_strength(rule, tanh=TANH):
    """The refrigerator branch's pinned a, as the expression in t = tanh(E/T) that the
    table's function gives: one of the two strengths g = (1 - t)/2 and 1 - g that make
    the channel-A stroke isentropic, dS2 = h(a) - h(g) = 0. ``tanh`` stands for t."""
    t = sp.Symbol("t", positive=True)
    g = (1 - t) / 2
    samples = np.array([0.0, 0.1, 0.3, 0.9, 0.999])  # t < 1: the clamp does nothing
    isentropic = (g, 1 - g)
    assert all(vanishes(binary_entropy(a) - binary_entropy(g)) for a in isentropic)
    found = [a for a in isentropic
             if np.array_equal(rule.pinned_a(samples), sp.lambdify(t, a)(samples))]
    assert len(found) == 1
    return found[0].subs(t, tanh)


def free_and_pinned(rule, tanh=TANH):
    """(a, b) on the branch: b is the free strength S, and a is S too or pinned."""
    return (S if rule.pinned_a is None else pinned_strength(rule, tanh)), S


def test_stroke_roles_are_the_bath_and_the_isentropic_stroke():
    """Qc is stroke 1, rho3 -> rho1, the only one that touches the bath. W is the one
    measurement stroke that the branch makes isentropic, and Qh is the stroke left."""
    g = (1 - TANH) / 2
    # rho1 has trace 1 and determinant g(1 - g), so its eigenvalues are g and 1 - g;
    # rho2 = diag(1 - a, a) and rho3 = diag(b, 1 - b) (see the test of the Kraus families)
    assert vanishes(thermal_state().det() - g * (1 - g))
    for branch, rule in BRANCHES.items():
        a, b = free_and_pinned(rule)
        s1, s2, s3 = (binary_entropy(p) for p in (g, a, b))
        ds = (s1 - s3, s2 - s1, s3 - s2)
        (work,) = [i for i in (1, 2) if vanishes(ds[i])]
        bath = 0  # stroke 1 makes the Gibbs state rho1
        (hot,) = {0, 1, 2} - {bath, work}
        assert rule.strokes == (hot, bath, work), branch


# The sign chart: E = epsilon + d and t = 1/(1 + v) with epsilon, d and v positive cover
# every point with epsilon > 0, tau > 0 and T > 0, as T takes t to any value in (0, 1).
D, V = sp.symbols("d v", positive=True)
CHART_GAP, CHART_TANH = EPS + D, 1 / (1 + V)


def sign(expr) -> int:
    """The sign of ``expr`` at every positive epsilon, d, v (and tau, T): sympy must
    prove it from the factored form, or the test fails."""
    factored = sp.factor(sp.cancel(expr))
    if factored == 0:
        return 0
    if factored.is_positive:
        return 1
    if factored.is_negative:
        return -1
    raise AssertionError(f"no fixed sign: {factored}")


def sign_chart(rule):
    """The branch's thresholds in increasing order, and the signs of (Qh, Qc, W) on each
    open interval between consecutive ones (None ends the line), as (lo, hi, signs).
    The currents are ``thermo.stroke_energies``, which the Kraus route gives (above)."""
    a, b = free_and_pinned(rule, CHART_TANH)
    du = thermo.stroke_energies(EPS, CHART_GAP, CHART_TANH, a, b)
    currents = [du[i] for i in rule.strokes]
    thresholds = rule.thresholds(CHART_TANH, CHART_GAP / EPS * CHART_TANH)._asdict()
    order = sorted(thresholds, key=functools.cmp_to_key(
        lambda x, y: sign(thresholds[x] - thresholds[y])))
    assert all(sign(thresholds[y] - thresholds[x]) == 1 for x, y in zip(order, order[1:]))
    edges = [None, *order, None]
    chart = []
    for lo, hi in zip(edges, edges[1:]):
        signs = []
        for current in currents:  # linear in S: its signs at the two ends fix its sign between
            slope = sp.diff(current, S)
            ends = ([sign(current)] * 2 if slope == 0 else
                    [sign(current.subs(S, thresholds[end])) if end else side * sign(slope)
                     for end, side in ((lo, -1), (hi, 1))])
            assert min(ends) >= 0 or max(ends) <= 0, (lo, hi, current)
            signs.append(max(ends) or min(ends))
        chart.append((lo, hi, tuple(signs)))
    return order, chart


def test_each_interval_holds_its_modes_sign_pattern(monkeypatch):
    """Every piece of the line between a branch's thresholds is held by an interval of
    ``BRANCHES``, so the table is total; on each piece the signs of (Qh, Qc, W) are the
    ``SIGN_PATTERNS`` entry of the mode of the first interval that holds there, and no
    entry for ``Mode.UNDEFINED``. This is the oracle that lets the other tests read the
    table: on the refrigerator branches, between accelerator_max and refrigerator_min,
    the signs are (-, -, +), a heater's; on the engine branch, above engine_max, they
    are (+, +, -), which no mode has."""
    monkeypatch.setattr(regimes, "_mid", lambda x: (1 + x) / 2)  # the thresholds unclamped
    for branch, rule in BRANCHES.items():
        order, chart = sign_chart(rule)
        for lo, hi, signs in chart:
            held = [mode for name, side, mode in rule.intervals
                    if (side == "<" and hi is not None and order.index(hi) <= order.index(name))
                    or (side == ">" and lo is not None and order.index(lo) >= order.index(name))]
            assert held, (branch, lo, hi)
            if held[0] is Mode.UNDEFINED:
                assert signs not in SIGN_PATTERNS.values(), (branch, lo, hi)
            else:
                assert signs == SIGN_PATTERNS[held[0]], (branch, lo, hi)


# d/d(tau) and d/dT of t = tanh(x), x = E/T, and of (E/epsilon) t, each a sign times
# factors that are positive for 0 < t < 1; 1 - t^2 = sech^2(x).
X = GAP / T
SECH2 = 1 - TANH**2
RATIO = GAP / EPS * TANH
FACTORED = {
    (TAU, TANH): SECH2 * TAU / (GAP * T),
    (TAU, RATIO): TAU / (EPS * GAP) * (TANH + X * SECH2),
    (T, TANH): -SECH2 * X / T,
    (T, RATIO): -GAP / EPS * SECH2 * X / T,
}


def test_threshold_derivatives_have_fixed_signs(monkeypatch):
    """Each unclamped threshold is (1 + sigma q)/2 with q = t or (E/epsilon) t and sigma in
    {-1, 0, 1}, so its derivative is sigma/2 times a ``FACTORED`` form, whose sign sympy
    proves: tunneling moves every boundary one way at every point, and T the other."""
    monkeypatch.setattr(regimes, "_mid", lambda x: (1 + x) / 2)
    signs = {}
    for branch, rule in BRANCHES.items():
        for name, value in rule.thresholds(TANH, RATIO)._asdict().items():
            (sigma, q), = [(sigma, q) for sigma in (-1, 0, 1) for q in (TANH, RATIO)
                           if vanishes(value - (1 + sigma * q) / 2) and (sigma or q is TANH)]
            for var in (TAU, T):
                form = FACTORED[var, q]
                assert vanishes(sp.diff(value, var) - sigma * form / 2), (branch, name, var)
                signs[branch, name, var.name] = sigma * sign(form.subs(TANH, CHART_TANH))
    assert signs == {
        (Branch.ENGINE, "heater_max", "tau"): -1, (Branch.ENGINE, "heater_max", "T"): 1,
        (Branch.ENGINE, "engine_min", "tau"): 0, (Branch.ENGINE, "engine_min", "T"): 0,
        (Branch.ENGINE, "engine_max", "tau"): 1, (Branch.ENGINE, "engine_max", "T"): -1,
        (Branch.REFRIGERATOR_PLUS, "accelerator_max", "tau"): -1,
        (Branch.REFRIGERATOR_PLUS, "accelerator_max", "T"): 1,
        (Branch.REFRIGERATOR_PLUS, "refrigerator_min", "tau"): 1,
        (Branch.REFRIGERATOR_PLUS, "refrigerator_min", "T"): -1,
        (Branch.REFRIGERATOR_MINUS, "accelerator_max", "tau"): 1,
        (Branch.REFRIGERATOR_MINUS, "accelerator_max", "T"): -1,
        (Branch.REFRIGERATOR_MINUS, "refrigerator_min", "tau"): 1,
        (Branch.REFRIGERATOR_MINUS, "refrigerator_min", "T"): -1,
    }


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


# The largest admitted |derived - branch_points|: for a current in units of u E, for a
# threshold in units of u (u = 2^-53; thresholds lie in [0, 1]).
CURRENT_BOUND, THRESHOLD_BOUND = 16, 8


def test_derived_forms_equal_branch_points_in_floats(monkeypatch):
    """The currents traced from the Kraus route, with the derived pinned a and stroke
    roles, and each threshold as its current's zero clamped to [0, 1], lambdified and
    run in float64, agree with ``branch_points`` within the bounds above at random
    points (a quarter with tau tiny next to epsilon, a tenth with tau = 0)."""
    rng = np.random.default_rng(15)
    n = 2000
    epsilon, tau = 10.0 ** rng.uniform(-3.0, 0.5, n), rng.uniform(0.0, 1.0, n)
    tau[: n // 4] = 10.0 ** rng.uniform(-9.0, -3.0, n // 4)
    tau[::10] = 0.0
    temperature, strength = rng.uniform(0.5, 6.0, n), rng.uniform(0.0, 1.0, n)
    gap = np.hypot(epsilon, tau)
    points = {branch: branch_points(branch, epsilon, tau, temperature, strength)
              for branch in BRANCHES}
    monkeypatch.setattr(regimes, "_mid", lambda x: (1 + x) / 2)  # to name each zero
    worst = {}
    for branch, rule in BRANCHES.items():
        du = ledger(*free_and_pinned(rule))
        currents = [du[i] for i in rule.strokes]
        zeros = [-c.subs(S, 0) / sp.diff(c, S) for c in currents if c.has(S)]
        names = {name: z for name, value in rule.thresholds(TANH, RATIO)._asdict().items()
                 for z in zeros if vanishes(value - z)}
        assert len(names) == len(zeros)
        thresholds, expected = points[branch]
        derived = sp.lambdify((EPS, TAU, T, S), currents, "numpy")(
            epsilon, tau, temperature, strength)
        worst[branch, "currents"] = max(np.max(np.abs(d - e) / gap)
                                        for d, e in zip(derived, expected)) / 2.0**-53
        derived = sp.lambdify((EPS, TAU, T), list(names.values()), "numpy")(
            epsilon, tau, temperature)
        worst[branch, "thresholds"] = max(
            np.max(np.abs(np.clip(d, 0.0, 1.0) - getattr(thresholds, name)))
            for name, d in zip(names, derived)) / 2.0**-53
    assert {key: r for key, r in worst.items()
            if r > (CURRENT_BOUND if key[1] == "currents" else THRESHOLD_BOUND)} == {}
