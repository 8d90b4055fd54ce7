"""The float kernels' forward errors, measured against the 60-digit values of ``exact``."""

from decimal import Decimal

import numpy as np

import exact
from dqdcycle.regimes import Branch, branch_points

# A current's largest admitted forward error, in units of u times the sum of its terms.
BOUND = 16
SCALES = range(-60, 61)  # epsilon, tau and T are multiplied by 2^k


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


def test_branch_currents_are_within_16_u_of_their_terms_at_every_scale():
    """On every branch and at every scale 2^k, k in [-60, 60], each current that
    ``branch_points`` gives is within 16 u sum|terms| of its 60-digit value."""
    epsilon, tau, temperature, strength = points()
    worst = {}  # (branch, k) -> the largest error / (u sum|terms|)
    for k in SCALES:
        scaled = [x * 2.0**k for x in (epsilon, tau, temperature)]
        eps = scaled[0]
        factors = [exact.gap_and_tanh(*p) for p in zip(*(x.tolist() for x in scaled))]
        for branch in Branch:
            _, currents = branch_points(branch, *scaled, strength)
            ratios = []
            for i, (gap, t) in enumerate(factors):
                values = exact.branch_currents(branch, eps[i].item(), gap, t, strength[i].item())
                ratios += [abs(Decimal(c[i].item()) - value) / (exact.U * terms)
                           for c, (value, terms) in zip(currents, values)]
            worst[branch, k] = max(ratios)
    assert {key: float(r) for key, r in worst.items() if r > BOUND} == {}
