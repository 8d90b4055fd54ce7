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
from dataclasses import dataclass

import numpy as np

from .channels import MeasurementChannel, Orientation, apply_channel
from .qdot import DotParams, gibbs_state, hamiltonian, internal_energy, map_math
from .qdot import spectral_scalars, thermal_state, von_neumann_entropy
# Not called here; imported so that perfbench/spans.py can rebind it in this module.
from .qdot import spectrum  # noqa: F401


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


def _columns(batch: np.ndarray) -> tuple[np.ndarray, ...]:
    """The five (n,) columns epsilon, tau, T, a, b of an (n, 5) batch, validated at once
    with the messages of ``DotParams`` and ``CycleInputs``."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != 5:
        raise ValueError("a batch is an (n, 5) array of epsilon, tau, T, a, b")
    eps, tau, temperature, a, b = batch.T
    if not np.isfinite(batch[:, :2]).all():
        raise ValueError("epsilon and tau must be finite")
    if not (np.isfinite(temperature) & (temperature > 0.0)).all():
        raise ValueError("temperature must be positive")
    for name, v in (("a", a), ("b", b)):
        if not ((0.0 <= v) & (v <= 1.0)).all():  # NaN fails both, +-inf one
            raise ValueError(f"{name} must be in [0, 1]")
    return eps, tau, temperature, a, b


def run_cycle_matrix_batch(batch: np.ndarray) -> StrokeLedger:
    """``run_cycle_matrix`` over the n rows of an (n, 5) array of epsilon, tau, T, a, b.

    Every ledger field is an (n,) array and rho1..rho3 are (n, 2, 2) stacks;
    a (0, 5) batch gives (0,) arrays. The per-row scalars (E, cos and sin of
    theta from ``spectral_scalars``, and tanh(E/T)) come from ``math``,
    mapped over the columns, as in ``run_cycle_matrix``. Each channel family
    is one array channel, so the Kraus source is called twice per batch.
    Every other step is the same numpy operation applied to each matrix of a
    stack, so entry i equals ``run_cycle_matrix`` of row i with ==.
    """
    eps, tau, temperature, a, b = _columns(batch)
    scalars = np.array(list(map(spectral_scalars, eps.tolist(), tau.tolist())),
                       dtype=float).reshape(-1, 4)
    gap, c, s = scalars[:, 0], scalars[:, 2], scalars[:, 3]
    t = map_math(math.tanh, gap / temperature)
    h = np.stack((-eps, tau, tau, eps), axis=1).reshape(-1, 2, 2).astype(np.complex128)
    phi1 = np.stack((c, s), axis=1).astype(np.complex128)
    phi2 = np.stack((s, -c), axis=1).astype(np.complex128)
    rho1 = thermal_state(phi1, phi2, t)
    rho2 = apply_channel(MeasurementChannel(a, Orientation.A), rho1)
    rho3 = apply_channel(MeasurementChannel(b, Orientation.B), rho2)
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


def _closed_form_terms(inputs: CycleInputs) -> tuple[float, ...]:
    """(epsilon, E, t, a, b, h(g), h(a), h(b)): every transcendental of the closed form."""
    gap = math.hypot(inputs.params.epsilon, inputs.params.tau)
    t = math.tanh(gap / inputs.temperature)
    a, b = inputs.a, inputs.b
    return (inputs.params.epsilon, gap, t, a, b,
            binary_entropy(0.5 * (1.0 - t)), binary_entropy(a), binary_entropy(b))


def _closed_form_ledger(epsilon, gap, t, a, b, h_g, h_a, h_b) -> StrokeLedger:
    """The closed-form ledger from its terms; + - * only, on floats or (n,) arrays alike."""
    du1, du2, du3 = stroke_energies(epsilon, gap, t, a, b)
    return StrokeLedger(dU1=du1, dU2=du2, dU3=du3,
                        dS1=h_g - h_b, dS2=h_a - h_g, dS3=h_b - h_a)


def run_cycle_closed_form(inputs: CycleInputs) -> StrokeLedger:
    """Ledger from the analytic stroke formulas; builds no matrix and carries no states."""
    return _closed_form_ledger(*_closed_form_terms(inputs))


def _binary_entropy_columns(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of every element of p in [0, 1], step for step, signed zeros
    included: out = 0.0, then out -= p ln p where p > 0 and out -= q ln q (q = 1 - p)
    where p < 1."""
    q = 1.0 - p
    ln_p = map_math(math.log, np.where(p > 0.0, p, 1.0))
    ln_q = map_math(math.log, np.where(p < 1.0, q, 1.0))
    out = np.where(p > 0.0, 0.0 - p * ln_p, 0.0)
    return np.where(p < 1.0, out - q * ln_q, out)


def run_cycle_closed_form_batch(batch: np.ndarray) -> StrokeLedger:
    """``run_cycle_closed_form`` over the n rows of an (n, 5) array of epsilon, tau, T,
    a, b, as one ledger of (n,) arrays.

    The transcendentals (hypot, tanh, log) come from ``math``, mapped over the
    columns, and the rest is + - * on arrays in the scalar order, so entry i
    equals ``run_cycle_closed_form`` of row i with ==, signed zeros included.
    A (0, 5) batch gives (0,) arrays.
    """
    eps, tau, temperature, a, b = _columns(batch)
    gap = map_math(math.hypot, eps, tau)
    t = map_math(math.tanh, gap / temperature)
    h_g, h_a, h_b = (_binary_entropy_columns(p) for p in (0.5 * (1.0 - t), a, b))
    return _closed_form_ledger(eps, gap, t, a, b, h_g, h_a, h_b)


def ledger_discrepancy(x: StrokeLedger, y: StrokeLedger):
    """Largest absolute difference over the six dU/dS entries of two ledgers.

    NaN if any difference is NaN; an (n,) array for two ledgers of (n,) arrays.
    """
    d = np.max([np.abs(np.subtract(getattr(x, f), getattr(y, f)))
                for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3")], axis=0)
    return d.item() if d.ndim == 0 else d
