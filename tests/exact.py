"""60-digit values of the branch currents, for measuring the float kernels' rounding error.

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


def gap_and_tanh(epsilon: float, tau: float, temperature: float) -> tuple[Decimal, Decimal]:
    """(E, tanh(E/T)), E = sqrt(epsilon^2 + tau^2), at float inputs with T > 0."""
    with localcontext(CONTEXT):
        eps, tau, temperature = Decimal(epsilon), Decimal(tau), Decimal(temperature)
        gap = (eps * eps + tau * tau).sqrt()
        x = (-2 * gap / temperature).exp()  # in (0, 1]: E/T >= 0
        return gap, (1 - x) / (1 + x)


def branch_currents(branch: Branch, epsilon: float, gap: Decimal, t: Decimal,
                    strength: float) -> tuple[tuple[Decimal, Decimal], ...]:
    """((Qh, its terms), (Qc, its terms), (W, its terms)) of ``branch`` at a float epsilon
    and free strength, from ``gap_and_tanh``'s E and t.

    A current's terms are the sum of the magnitudes of what its float formula adds:
    |E t| + 2|epsilon| for dU1 and dU2, and 2|epsilon|(1 + a + b) for dU3.
    """
    pinned_a, strokes = RULES[branch]
    with localcontext(CONTEXT):
        eps, s = Decimal(epsilon), Decimal(strength)
        a, b = (s, s) if pinned_a is None else (pinned_a(t), s)
        energy, scale = abs(gap * t), 2 * abs(eps)
        du = ((-gap * t + eps * (2 * b - 1), energy + scale),
              (gap * t + eps * (2 * a - 1), energy + scale),
              (2 * eps * (1 - a - b), scale * (1 + a + b)))
        return tuple(du[i] for i in strokes)
