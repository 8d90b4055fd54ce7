"""60-digit values of the ledger, the branch currents and thresholds, and kappa, for
measuring the float kernels' rounding error.

``Decimal(x)`` reads a float's exact binary value, and ``decimal`` rounds
each step here to 60 significant digits, so a value below is the true value
of its formula at the float inputs, give or take about 1e-58 times the
magnitudes that the formula adds: far below float64's unit roundoff
u = 2^-53, about 1.1e-16, against which a kernel's error is measured. E and
tanh(E/T) are exact here, where the package rounds them in ``math.hypot`` and
``math.tanh``; that rounding counts towards the kernel's error.

The branches are written out from the ``regimes`` docstring rather than read
from ``regimes.BRANCHES``, so that the table is not checked against itself.
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal, localcontext

from dqdcycle.regimes import Branch

CONTEXT = Context(prec=60)
U = Decimal(2) ** -53  # float64's unit roundoff, exactly

# Per branch: the pinned a as a function of t = tanh(E/T) (None: b = a, the free strength),
# and the indices of Qh, Qc and W in (dU1, dU2, dU3).
RULES = {
    Branch.ENGINE: (None, (1, 0, 2)),
    Branch.REFRIGERATOR_PLUS: (lambda t: (1 + t) / 2, (2, 0, 1)),
    Branch.REFRIGERATOR_MINUS: (lambda t: (1 - t) / 2, (2, 0, 1)),
}


# Per branch: each threshold is (1 + x)/2 clamped to [0, 1]; x as a function of t = tanh(E/T)
# and r = (E/epsilon) t, in the order of the branch's thresholds tuple.
THRESHOLDS = {
    Branch.ENGINE: lambda t, r: (-r, Decimal(0), r),  # heater_max, engine_min, engine_max
    Branch.REFRIGERATOR_PLUS: lambda t, r: (-t, r),  # accelerator_max, refrigerator_min
    Branch.REFRIGERATOR_MINUS: lambda t, r: (t, r),  # accelerator_max, refrigerator_min
}


def gap_and_tanh(epsilon: float, tau: float, temperature: float) -> tuple[Decimal, Decimal]:
    """(E, tanh(E/T)), E = sqrt(epsilon^2 + tau^2), at float inputs with T > 0."""
    with localcontext(CONTEXT):
        eps, tau, temperature = Decimal(epsilon), Decimal(tau), Decimal(temperature)
        gap = (eps * eps + tau * tau).sqrt()
        x = (-2 * gap / temperature).exp()  # in (0, 1]: E/T >= 0
        return gap, (1 - x) / (1 + x)


def stroke_energies(eps: Decimal, gap: Decimal, t: Decimal, a: Decimal,
                    b: Decimal) -> tuple[tuple[Decimal, Decimal], ...]:
    """((dU1, its terms), (dU2, its terms), (dU3, its terms)).

    A change's terms are the sum of the magnitudes of what its float formula adds:
    |E t| + 2|epsilon| for dU1 and dU2, and 2|epsilon|(1 + a + b) for dU3.
    """
    with localcontext(CONTEXT):
        energy, scale = abs(gap * t), 2 * abs(eps)
        return ((-gap * t + eps * (2 * b - 1), energy + scale),
                (gap * t + eps * (2 * a - 1), energy + scale),
                (2 * eps * (1 - a - b), scale * (1 + a + b)))


def branch_currents(branch: Branch, epsilon: float, gap: Decimal, t: Decimal,
                    strength: float) -> tuple[tuple[Decimal, Decimal], ...]:
    """((Qh, its terms), (Qc, its terms), (W, its terms)) of ``branch`` at a float epsilon
    and free strength, from ``gap_and_tanh``'s E and t."""
    pinned_a, strokes = RULES[branch]
    with localcontext(CONTEXT):
        s = Decimal(strength)
        a = s if pinned_a is None else pinned_a(t)
        du = stroke_energies(Decimal(epsilon), gap, t, a, s)
        return tuple(du[i] for i in strokes)


def branch_thresholds(branch: Branch, epsilon: float, gap: Decimal,
                      t: Decimal) -> tuple[Decimal, ...]:
    """The critical strengths of ``branch`` at a float epsilon, from ``gap_and_tanh``'s E and
    t, in the order of ``regimes``' thresholds tuples."""
    with localcontext(CONTEXT):
        r = gap / Decimal(epsilon) * t
        return tuple(min(Decimal(1), max(Decimal(0), (1 + x) / 2))
                     for x in THRESHOLDS[branch](t, r))


@functools.cache
def binary_entropy(p: Decimal) -> Decimal:
    """h(p) = -p ln p - (1 - p) ln(1 - p), with 0 ln 0 = 0; cached, as ``ledger`` asks
    for the same strengths at every scale."""
    with localcontext(CONTEXT):
        return -sum((x * x.ln() for x in (p, 1 - p) if x > 0), Decimal(0))


def ledger(epsilon: float, gap: Decimal, t: Decimal, a: float,
           b: float) -> tuple[Decimal, ...]:
    """(dU1, dU2, dU3, dS1, dS2, dS3) of the cycle at float epsilon, a and b, from
    ``gap_and_tanh``'s E and t, with g = (1 - t)/2: dS1 = h(g) - h(b), dS2 = h(a) - h(g)
    and dS3 = h(b) - h(a)."""
    with localcontext(CONTEXT):
        a, b = Decimal(a), Decimal(b)
        du = stroke_energies(Decimal(epsilon), gap, t, a, b)
        h_g, h_a, h_b = (binary_entropy(p) for p in ((1 - t) / 2, a, b))
        return (*(value for value, _ in du), h_g - h_b, h_a - h_g, h_b - h_a)


def kappa(cop: float) -> Decimal:
    """COP/(1 + COP) at a finite float COP >= 0."""
    with localcontext(CONTEXT):
        c = Decimal(cop)
        return c / (1 + c)


def ulp(x: Decimal) -> float:
    """The spacing of the floats at x > 0: 2^(e - 52) for 2^e <= x < 2^(e + 1), and
    2^-1074 below 2^-1022."""
    _, e = math.frexp(float(x))  # float(x) = m 2^e, m in [0.5, 1)
    if Decimal(math.ldexp(1.0, e - 1)) > x:  # x rounded up to the power of two
        e -= 1
    return math.ldexp(1.0, max(e - 53, -1074))
