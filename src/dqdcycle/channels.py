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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qdot import dagger, max_abs

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
    strength: float
    orientation: Orientation

    def __post_init__(self):
        if not (math.isfinite(self.strength) and 0.0 <= self.strength <= 1.0):
            raise ValueError("strength must be in [0, 1]")


def kraus_operators(channel: MeasurementChannel) -> KrausSet:
    """The four Kraus operators of the channel, in a fixed order."""
    p = channel.strength
    keep, flip = math.sqrt(1.0 - p), math.sqrt(p)
    if channel.orientation is Orientation.A:
        return [keep * _E00, keep * _E01, flip * _E11, flip * _E10]
    return [keep * _E11, keep * _E10, flip * _E00, flip * _E01]


def kraus_stack(chans: Sequence[MeasurementChannel]) -> np.ndarray:
    """The Kraus sets of n channels as one (k, n, 2, 2) array, operator k of every set
    in row k.

    Each set comes from one ``kraus_operators`` call. A set shorter than the
    longest is padded with zero operators, which add exactly nothing to the
    sums of ``apply_kraus`` and ``completeness_residual``.
    """
    sets = [kraus_operators(ch) for ch in chans]
    k = max(map(len, sets), default=0)
    zero = np.zeros((2, 2), dtype=np.complex128)
    padded = [[*ops, *[zero] * (k - len(ops))] for ops in sets]
    return np.array(padded, dtype=np.complex128).reshape(len(sets), k, 2, 2).swapaxes(0, 1)


def apply_kraus(kraus: KrausSet | np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Nonselective action sum_k M_k rho M_k^dag of an arbitrary Kraus set.

    With a ``kraus_stack`` and an (n, 2, 2) stack of states, applies channel i
    to state i.
    """
    out = np.zeros_like(rho, dtype=np.complex128)
    for m in kraus:
        out += m @ rho @ dagger(m)
    return out


def apply_channel(channel: MeasurementChannel, rho: np.ndarray) -> np.ndarray:
    return apply_kraus(kraus_operators(channel), rho)


def completeness_residual(kraus: KrausSet | np.ndarray):
    """Max-norm deviation of sum_k M_k^dag M_k from the identity; one per set of a
    ``kraus_stack``."""
    acc = np.zeros(np.shape(kraus)[1:], dtype=np.complex128)
    for m in kraus:
        acc += dagger(m) @ m
    return max_abs(acc - np.eye(2))
