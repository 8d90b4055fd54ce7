"""Stroke-by-stroke energetics and entropy bookkeeping of the three-stroke cycle.

One cycle, at fixed Hamiltonian, visits three states:

    rho1 = Gibbs state at temperature T        (thermalization stroke)
    rho2 = Phi_A(rho1) = diag(1-a, a)          (measurement channel A)
    rho3 = Phi_B(rho2) = diag(b, 1-b)          (measurement channel B)

Strokes are indexed cyclically by the state they *produce*, so stroke 1 is
rho3 -> rho1, stroke 2 is rho1 -> rho2 and stroke 3 is rho2 -> rho3. The
internal-energy changes dU_i = U(rho_i) - U(rho_{i-1}) have closed forms

    dU1 = -E tanh(E/T) + epsilon (2b - 1)
    dU2 = +E tanh(E/T) + epsilon (2a - 1)
    dU3 = 2 epsilon (1 - a - b)

with E = sqrt(epsilon^2 + tau^2), and the entropy changes reduce to binary
entropies h(p) = -p ln p - (1-p) ln(1-p):

    dS1 = h(g) - h(b)    dS2 = h(a) - h(g)    dS3 = h(b) - h(a)

where g = (1 - tanh(E/T))/2 is the excited-level thermal population. Both the
closed forms and a literal density-matrix pipeline (build the states, trace
against H, diagonalize for entropies) are exposed; they must agree, and the
ledger discrepancy between them is the package's standing self-check. The
closed forms are pure scalar arithmetic: only the matrix ledger carries the
states rho1..rho3, and a closed-form ledger leaves them as None.

Sign convention: dU_i > 0 means energy flows *into* the dot during stroke i.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import MeasurementChannel, Orientation, apply_channel, apply_kraus, kraus_stack
from .qdot import DotParams, gibbs_state, hamiltonian, internal_energy, spectrum, thermal_state
from .qdot import von_neumann_entropy


@dataclass(frozen=True)
class CycleInputs:
    """Full parameter set of one cycle: dot, bath temperature, both strengths."""

    params: DotParams
    temperature: float
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be positive")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class StrokeLedger:
    """Per-stroke energy and entropy changes; the matrix route adds the three states.

    A ledger from ``run_cycle_matrix_batch`` holds (n,) arrays and state stacks.
    """

    dU1: float
    dU2: float
    dU3: float
    dS1: float
    dS2: float
    dS3: float
    rho1: np.ndarray | None = None
    rho2: np.ndarray | None = None
    rho3: np.ndarray | None = None

    @property
    def energy_closure(self) -> float:
        return self.dU1 + self.dU2 + self.dU3

    @property
    def entropy_closure(self) -> float:
        return self.dS1 + self.dS2 + self.dS3


def binary_entropy(p: float) -> float:
    """h(p) = -p ln p - (1-p) ln(1-p), with h(0) = h(1) = 0."""
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log(1.0 - p)
    return out


def run_cycle_matrix(inputs: CycleInputs) -> StrokeLedger:
    """Ledger from the explicit density-matrix pipeline (no closed forms)."""
    h = hamiltonian(inputs.params)
    rho1 = gibbs_state(inputs.params, inputs.temperature)
    rho2 = apply_channel(MeasurementChannel(inputs.a, Orientation.A), rho1)
    rho3 = apply_channel(MeasurementChannel(inputs.b, Orientation.B), rho2)
    u1, u2, u3 = (internal_energy(h, r) for r in (rho1, rho2, rho3))
    s1, s2, s3 = (von_neumann_entropy(r) for r in (rho1, rho2, rho3))
    return StrokeLedger(
        dU1=u1 - u3, dU2=u2 - u1, dU3=u3 - u2,
        dS1=s1 - s3, dS2=s2 - s1, dS3=s3 - s2,
        rho1=rho1, rho2=rho2, rho3=rho3,
    )


def run_cycle_matrix_batch(batch: Sequence[CycleInputs]) -> StrokeLedger:
    """``run_cycle_matrix`` over many inputs in one pass over (n, 2, 2) stacks.

    Every ledger field is an (n,) array and rho1..rho3 are (n, 2, 2) stacks.
    The per-input scalars (spectrum, tanh(E/T), each channel's Kraus set) come
    from the same calls as in ``run_cycle_matrix``, and every other step is
    the same numpy operation applied to each matrix of a stack, so entry i
    equals ``run_cycle_matrix(batch[i])`` with ==.
    """
    h = np.array([hamiltonian(x.params) for x in batch])
    specs = [spectrum(x.params) for x in batch]
    phi = np.array([s.eigenvectors for s in specs])  # (n, 2, 2): phi1, phi2 per input
    t = np.array([math.tanh(s.gap / x.temperature) for s, x in zip(specs, batch)])
    rho1 = thermal_state(phi[:, 0], phi[:, 1], t)
    rho2 = apply_kraus(kraus_stack([MeasurementChannel(x.a, Orientation.A) for x in batch]), rho1)
    rho3 = apply_kraus(kraus_stack([MeasurementChannel(x.b, Orientation.B) for x in batch]), rho2)
    u1, u2, u3 = (internal_energy(h, r) for r in (rho1, rho2, rho3))
    s1, s2, s3 = (von_neumann_entropy(r) for r in (rho1, rho2, rho3))
    return StrokeLedger(
        dU1=u1 - u3, dU2=u2 - u1, dU3=u3 - u2,
        dS1=s1 - s3, dS2=s2 - s1, dS3=s3 - s2,
        rho1=rho1, rho2=rho2, rho3=rho3,
    )


def stroke_energies(epsilon, gap, t, a, b):
    """(dU1, dU2, dU3) from epsilon, E, t = tanh(E/T) and the two strengths.

    Takes floats or broadcastable float64 arrays. Only + - * are used, and
    each is correctly rounded, so an array element equals the float result
    for the same inputs bit for bit.
    """
    return (
        -gap * t + epsilon * (2.0 * b - 1.0),
        gap * t + epsilon * (2.0 * a - 1.0),
        2.0 * epsilon * (1.0 - a - b),
    )


def run_cycle_closed_form(inputs: CycleInputs) -> StrokeLedger:
    """Ledger from the analytic stroke formulas; builds no matrix and carries no states."""
    gap = math.hypot(inputs.params.epsilon, inputs.params.tau)
    t = math.tanh(gap / inputs.temperature)
    g = 0.5 * (1.0 - t)
    a, b = inputs.a, inputs.b
    du1, du2, du3 = stroke_energies(inputs.params.epsilon, gap, t, a, b)
    return StrokeLedger(
        dU1=du1, dU2=du2, dU3=du3,
        dS1=binary_entropy(g) - binary_entropy(b),
        dS2=binary_entropy(a) - binary_entropy(g),
        dS3=binary_entropy(b) - binary_entropy(a),
    )


def ledger_discrepancy(x: StrokeLedger, y: StrokeLedger):
    """Largest absolute difference over the six dU/dS entries of two ledgers.

    NaN if any difference is NaN; an (n,) array for two ledgers of (n,) arrays.
    """
    d = np.max([np.abs(np.subtract(getattr(x, f), getattr(y, f)))
                for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3")], axis=0)
    return d.item() if d.ndim == 0 else d
