"""Spectral and thermal description of the double-quantum-dot qubit.

A single electron on two charge sites is a two-level system in the localized
basis {|0>, |1>} (left dot, right dot). With detuning ``epsilon`` and interdot
tunneling ``tau`` the Hamiltonian is

    H = -epsilon * sigma_z + tau * sigma_x = [[-epsilon, tau], [tau, epsilon]]

using the convention sigma_z|0> = +|0>, so the left dot sits at energy
-epsilon. Natural units k_B = hbar = 1 throughout. The eigenvalues are
+-E with E = sqrt(epsilon^2 + tau^2) and the eigenvectors are

    |phi_1> = cos(theta)|0> + sin(theta)|1>      (energy +E)
    |phi_2> = sin(theta)|0> - cos(theta)|1>      (energy -E)

where theta is half the Bloch angle of the field (-epsilon, tau). The
half-angle form theta = atan2(tau, -epsilon)/2 is used instead of the
quotient arctan(tau / (E - epsilon)), which is 0/0 at tau = 0; the two agree
wherever the quotient is defined.

This module also carries the minimal dense 2x2 matrix helpers (Hermiticity
and density-matrix checks, max-norm) shared by the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class DotParams:
    """Working-substance parameters: detuning and tunneling amplitude."""

    epsilon: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.tau)):
            raise ValueError("epsilon and tau must be finite")


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of the dot Hamiltonian.

    ``gap`` is E = sqrt(epsilon^2 + tau^2) >= 0, ``eigenvalues`` is (+E, -E)
    and ``eigenvectors`` holds the matching orthonormal pair (|phi_1>,
    |phi_2>). ``degenerate`` marks the epsilon = tau = 0 point, where the
    spectrum collapses to {0} and theta = 0 is adopted by convention.
    """

    gap: float
    theta: float
    eigenvalues: tuple[float, float]
    eigenvectors: tuple[np.ndarray, np.ndarray]
    degenerate: bool = False


def hamiltonian(params: DotParams) -> np.ndarray:
    """Dot Hamiltonian [[-epsilon, tau], [tau, epsilon]] in the localized basis."""
    return np.array(
        [[-params.epsilon, params.tau], [params.tau, params.epsilon]],
        dtype=np.complex128,
    )


def spectrum(params: DotParams) -> Spectrum:
    """Exact eigenvalues and eigenvectors via the half-angle construction."""
    gap = math.hypot(params.epsilon, params.tau)
    if gap == 0.0:
        theta = 0.0
    else:
        theta = 0.5 * math.atan2(params.tau, -params.epsilon)
    c, s = math.cos(theta), math.sin(theta)
    phi1 = np.array([c, s], dtype=np.complex128)
    phi2 = np.array([s, -c], dtype=np.complex128)
    return Spectrum(
        gap=gap,
        theta=theta,
        eigenvalues=(gap, -gap),
        eigenvectors=(phi1, phi2),
        degenerate=(gap == 0.0),
    )


def gibbs_state(params: DotParams, temperature: float) -> np.ndarray:
    """Thermal state exp(-H/T)/Z assembled from the spectral decomposition.

    The level populations are written as (1 -+ tanh(E/T))/2 rather than
    exp(-+E/T)/Z, which is the same number but cannot overflow. At the
    degenerate point E = 0 this is the maximally mixed state.
    """
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError("temperature must be positive")
    spec = spectrum(params)
    t = math.tanh(spec.gap / temperature)
    p_plus, p_minus = 0.5 * (1.0 - t), 0.5 * (1.0 + t)
    phi1, phi2 = spec.eigenvectors
    return p_plus * np.outer(phi1, phi1.conj()) + p_minus * np.outer(phi2, phi2.conj())


def internal_energy(h: np.ndarray, rho: np.ndarray) -> float:
    """Tr[H rho]; the (roundoff-level) imaginary part is discarded."""
    return float(np.trace(h @ rho).real)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum_i lam_i ln lam_i over the eigenvalues of rho, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] first so that roundoff-negative values
    from nearly pure states do not feed the log.
    """
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    return float(-sum(x * math.log(x) for x in lam if x > 0.0))


# ---------------------------------------------------------------------------
# dense 2x2 helpers


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    """Max-norm (largest entrywise modulus); the default matrix metric here."""
    return float(np.max(np.abs(m)))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return max_abs(m - dagger(m)) <= tol


def is_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian, unit trace, and positive semidefinite up to ``tol``."""
    if not is_hermitian(rho, tol):
        return False
    if abs(complex(np.trace(rho)) - 1.0) > tol:
        return False
    return float(np.min(np.linalg.eigvalsh(rho))) >= -tol
