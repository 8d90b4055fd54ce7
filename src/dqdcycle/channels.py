"""Nonselective measurement channels acting on the dot qubit.

Two four-operator Kraus families implement the measurement strokes. Channel A
with strength ``a`` ("how much charge ends up on the right dot"):

    M1 = sqrt(1-a)|0><0|   M2 = sqrt(1-a)|0><1|
    M3 = sqrt(a)  |1><1|   M4 = sqrt(a)  |1><0|

and channel B with strength ``b`` is its mirror image (|0> and |1> swapped):

    N1 = sqrt(1-b)|1><1|   N2 = sqrt(1-b)|1><0|
    N3 = sqrt(b)  |0><0|   N4 = sqrt(b)  |0><1|

Each family resolves the identity, sum_k M_k^dag M_k = 1, so the nonselective
action rho -> sum_k M_k rho M_k^dag is trace preserving. Both channels erase
their input completely: for any state,

    Phi_A(rho) = diag(1-a, a)        Phi_B(rho) = diag(b, 1-b)

i.e. the output populations are set by the measurement strength alone and all
coherences are destroyed. That reset property is what lets the measurement
strokes inject or extract energy regardless of the incoming state.

A channel's strength may also be a 1-D array: it then stands for one channel
per element, all of the same orientation, and its Kraus operators are (n, 2, 2)
stacks. Batch code reaches ``kraus_operators`` once per orientation that way,
not once per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qdot import check_unit, dagger, matmul2, max_abs

KrausSet = list[np.ndarray]

# The matrix units |i><j|; every Kraus operator is sqrt(1-p) or sqrt(p) times one of them.
_E00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
_E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_E10 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
_E11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


class Orientation(Enum):
    """Which dot the channel steers charge toward."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class MeasurementChannel:
    """One channel, or with a 1-D array ``strength`` one channel per element."""

    strength: float | np.ndarray
    orientation: Orientation

    def __post_init__(self):
        check_unit("strength", self.strength)


def kraus_operators(channel: MeasurementChannel) -> KrausSet:
    """The four Kraus operators of the channel, in a fixed order.

    2x2 matrices for a float strength, (n, 2, 2) stacks for a 1-D one. The
    weights come from ``np.sqrt``, which rounds as ``math.sqrt`` does, so
    element i of a stack equals the operator of strength[i] bit for bit.
    """
    p = np.asarray(channel.strength, dtype=float)[..., None, None]
    keep, flip = np.sqrt(1.0 - p), np.sqrt(p)
    if channel.orientation is Orientation.A:
        return [keep * _E00, keep * _E01, flip * _E11, flip * _E10]
    return [keep * _E11, keep * _E10, flip * _E00, flip * _E01]


def apply_kraus(kraus: KrausSet | np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Nonselective action sum_k M_k rho M_k^dag of an arbitrary Kraus set.

    With stacked operators (the set of an array channel, or any (k, n, 2, 2)
    array) and an (n, 2, 2) stack of states, applies channel i to state i.

    The products are ``qdot.matmul2``, not ``@``. Every operator of an honest
    family is a real weight times one matrix unit, so each entry of M rho and
    of (M rho) M^dag has at most one nonzero term, and the sum equals
    ``m @ rho @ dagger(m)`` accumulated in the same order bit for bit. The
    states themselves are dense; products between dense operands (the energy
    trace, the random states of ``verify``) keep ``@``.
    """
    out = np.zeros_like(rho, dtype=np.complex128)
    for m in kraus:
        out += matmul2(matmul2(m, rho), dagger(m))
    return out


def apply_channel(channel: MeasurementChannel, rho: np.ndarray) -> np.ndarray:
    return apply_kraus(kraus_operators(channel), rho)


def completeness_residual(kraus: KrausSet | np.ndarray):
    """Max-norm deviation of sum_k M_k^dag M_k from the identity; one per channel of
    stacked operators. The products are ``qdot.matmul2``, as in ``apply_kraus``."""
    acc = np.zeros(np.shape(kraus)[1:], dtype=np.complex128)
    for m in kraus:
        acc += matmul2(dagger(m), m)
    return max_abs(acc - np.eye(2))
