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
ledger discrepancy between them is the package's standing self-check. Only the
matrix ledger carries the states rho1..rho3, float64 matrices as H and every Kraus
operator are real; a closed-form ledger leaves them as None. Each route has one
kernel over an (n, 5) array of epsilon, tau, T, a, b (``run_cycle_matrix_batch``,
``run_cycle_closed_form_batch``), and ``run_cycle_matrix`` and
``run_cycle_closed_form`` are one-row calls of them.
The matrix kernel is the one-point pipeline run on stacks:
``qdot.hamiltonian`` and ``qdot.gibbs_state``, then ``apply_channel`` for
channel A and for channel B. ``tests/reference.py`` holds the scalar forms
that the tests compare them with, bit for bit.

Sign convention: dU_i > 0 means energy flows *into* the dot during stroke i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import MeasurementChannel, Orientation, apply_channel
from .qdot import DotParams, check_temperature, check_unit, gibbs_state, hamiltonian
from .qdot import internal_energy, map_math, thermal_factors, von_neumann_entropy
# Not called here; imported so that perfbench/spans.py can rebind it in this module.
from .qdot import spectrum  # noqa: F401

# The six fields of a ledger that the two routes both fill, in report order.
LEDGER_FIELDS = ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3")


@dataclass(frozen=True)
class CycleInputs:
    """Full parameter set of one cycle: dot, bath temperature, both strengths."""

    params: DotParams
    temperature: float
    a: float
    b: float

    def __post_init__(self):
        check_temperature(self.temperature)
        check_unit("a", self.a)
        check_unit("b", self.b)


@dataclass(frozen=True)
class StrokeLedger:
    """Per-stroke energy and entropy changes; the matrix route adds the three states.

    A ledger from ``run_cycle_matrix_batch`` holds (n,) arrays and float64 state stacks.
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


def _one_row(batch_ledger, inputs: CycleInputs) -> StrokeLedger:
    """``batch_ledger`` of ``inputs`` as a one-row batch: Python floats, 2x2 states or None."""
    p = inputs.params
    ledger = batch_ledger(np.array([[p.epsilon, p.tau, inputs.temperature, inputs.a, inputs.b]],
                                   dtype=float))
    states = (None if rho is None else rho[0] for rho in (ledger.rho1, ledger.rho2, ledger.rho3))
    return StrokeLedger(*(getattr(ledger, f).item() for f in LEDGER_FIELDS), *states)


def run_cycle_matrix(inputs: CycleInputs) -> StrokeLedger:
    """Ledger from the explicit density-matrix pipeline (no closed forms)."""
    return _one_row(run_cycle_matrix_batch, inputs)


def _columns(batch: np.ndarray) -> CycleInputs:
    """One ``CycleInputs`` whose fields are the (n,) columns epsilon, tau, T, a, b of an
    (n, 5) batch, so that its checks run on whole columns."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != 5:
        raise ValueError("a batch is an (n, 5) array of epsilon, tau, T, a, b")
    eps, tau, temperature, a, b = batch.T
    return CycleInputs(DotParams(eps, tau), temperature, a, b)


def run_cycle_matrix_batch(batch: np.ndarray) -> StrokeLedger:
    """The density-matrix ledger of each row of an (n, 5) array of epsilon, tau, T, a, b.

    Every ledger field is an (n,) array and rho1..rho3 are (n, 2, 2) stacks;
    a (0, 5) batch gives (0,) arrays. The steps are those of one point, on
    stacks: ``hamiltonian`` and ``gibbs_state`` of the columns, then
    ``apply_channel`` with channel A of every a and channel B of every b, so
    the Kraus source is called twice per batch. ``internal_energy`` and
    ``von_neumann_entropy`` run the same numpy operations on each matrix of
    a stack, so entry i equals the one-point ledger of row i with ==.
    """
    x = _columns(batch)
    h = hamiltonian(x.params)
    rho1 = gibbs_state(x.params, x.temperature)
    rho2 = apply_channel(MeasurementChannel(x.a, Orientation.A), rho1)
    rho3 = apply_channel(MeasurementChannel(x.b, Orientation.B), rho2)
    u1, u2, u3 = (internal_energy(h, r) for r in (rho1, rho2, rho3))
    s1, s2, s3 = (von_neumann_entropy(r) for r in (rho1, rho2, rho3))
    return StrokeLedger(
        dU1=u1 - u3, dU2=u2 - u1, dU3=u3 - u2,
        dS1=s1 - s3, dS2=s2 - s1, dS3=s3 - s2,
        rho1=rho1, rho2=rho2, rho3=rho3,
    )


def stroke_energies(epsilon, gap, t, a, b):
    """(dU1, dU2, dU3) from epsilon, E, t = tanh(E/T) and the two strengths.

    On broadcastable float64 arrays. Only + - * are used, and each is
    correctly rounded, so every element has the bits that the same steps
    give on Python floats.
    """
    return (
        -gap * t + epsilon * (2.0 * b - 1.0),
        gap * t + epsilon * (2.0 * a - 1.0),
        2.0 * epsilon * (1.0 - a - b),
    )


def run_cycle_closed_form(inputs: CycleInputs) -> StrokeLedger:
    """Ledger from the analytic stroke formulas; builds no matrix and carries no states."""
    return _one_row(run_cycle_closed_form_batch, inputs)


def _binary_entropy_columns(p: np.ndarray) -> np.ndarray:
    """h(p) of every element of p in [0, 1], in the steps of the scalar definition,
    signed zeros included: out = 0.0, then out -= p ln p where p > 0 and
    out -= q ln q (q = 1 - p) where p < 1."""
    q = 1.0 - p
    ln_p = map_math(math.log, np.where(p > 0.0, p, 1.0))
    ln_q = map_math(math.log, np.where(p < 1.0, q, 1.0))
    out = np.where(p > 0.0, 0.0 - p * ln_p, 0.0)
    return np.where(p < 1.0, out - q * ln_q, out)


def run_cycle_closed_form_batch(batch: np.ndarray) -> StrokeLedger:
    """The closed-form ledger of each row of an (n, 5) array of epsilon, tau, T, a, b,
    as one ledger of (n,) arrays.

    E and tanh(E/T) come from ``qdot.thermal_factors`` and the logs from
    ``math`` through ``qdot.map_math``; the rest is + - * on arrays in the
    order of the scalar formulas, so entry i has the bits of those formulas
    on Python floats for row i, signed zeros included. ``qdot.check_dot`` bounds E, so no
    step overflows. A (0, 5) batch gives (0,) arrays.
    """
    x = _columns(batch)
    eps, a, b = x.params.epsilon, x.a, x.b
    gap, t = thermal_factors(eps, x.params.tau, x.temperature)
    h_g, h_a, h_b = (_binary_entropy_columns(p) for p in (0.5 * (1.0 - t), a, b))
    return StrokeLedger(*stroke_energies(eps, gap, t, a, b),
                        dS1=h_g - h_b, dS2=h_a - h_g, dS3=h_b - h_a)


def ledger_discrepancy(x: StrokeLedger, y: StrokeLedger):
    """Largest absolute difference over the ``LEDGER_FIELDS`` of two ledgers.

    NaN if any difference is NaN; an (n,) array for two ledgers of (n,) arrays.
    """
    d = np.max([np.abs(np.subtract(getattr(x, f), getattr(y, f))) for f in LEDGER_FIELDS],
               axis=0)
    return d.item() if d.ndim == 0 else d
