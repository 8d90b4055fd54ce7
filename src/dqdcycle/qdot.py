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
    return thermal_state(*spec.eigenvectors, math.tanh(spec.gap / temperature))


def thermal_state(phi1, phi2, t):
    """p_plus |phi1><phi1| + p_minus |phi2><phi2| with p_-+ = (1 -+ t)/2.

    Takes one eigenbasis (vectors of shape (2,), float ``t``) or n of them
    (shape (n, 2), ``t`` of shape (n,)) and returns a 2x2 state or an
    (n, 2, 2) stack.
    """
    t = np.asarray(t)[..., None, None]
    p_plus, p_minus = 0.5 * (1.0 - t), 0.5 * (1.0 + t)
    return p_plus * _outer(phi1) + p_minus * _outer(phi2)


def _outer(phi: np.ndarray) -> np.ndarray:
    """|phi><phi|, as np.outer(phi, phi.conj()) computes it, per vector of a stack."""
    return phi[..., :, None] * phi.conj()[..., None, :]


def internal_energy(h: np.ndarray, rho: np.ndarray):
    """Tr[H rho]; the (roundoff-level) imaginary part is discarded. Per matrix of a stack."""
    return _per_matrix(np.trace(h @ rho, axis1=-2, axis2=-1).real)


def von_neumann_entropy(rho: np.ndarray):
    """-sum_i lam_i ln lam_i over the eigenvalues of rho, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] first so that roundoff-negative values
    from nearly pure states do not feed the log. An (n, 2, 2) stack gives an
    (n,) array; the logs come from ``math`` either way.
    """
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    s = [-sum(x * math.log(x) for x in row if x > 0.0) for row in lam.reshape(-1, 2).tolist()]
    return _per_matrix(np.array(s, dtype=float).reshape(lam.shape[:-1]))


# ---------------------------------------------------------------------------
# dense 2x2 helpers
#
# Each takes one 2x2 matrix or an (n, 2, 2) stack, and gives a Python float or
# bool for one matrix and an (n,) array for a stack. A stack runs the same
# numpy operations on every matrix, so entry i equals the one-matrix result.


def _per_matrix(x):
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def max_abs(m: np.ndarray):
    """Max-norm (largest entrywise modulus); the default matrix metric here.

    A vector or a single matrix gives one float; a stack gives one per matrix.
    """
    return _per_matrix(np.max(np.abs(m), axis=(-2, -1) if m.ndim > 2 else None))


def trace_deviation(rho: np.ndarray):
    """|Tr rho - 1|, from Python's complex abs (numpy's can differ in the last bit)."""
    tr = np.trace(rho, axis1=-2, axis2=-1)
    return _per_matrix(np.array([abs(t - 1.0) for t in tr.reshape(-1).tolist()]).reshape(tr.shape))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL):
    return max_abs(m - dagger(m)) <= tol


def is_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL):
    """Hermitian, unit trace, and positive semidefinite up to ``tol``."""
    psd = np.min(np.linalg.eigvalsh(rho), axis=-1) >= -tol
    return _per_matrix(is_hermitian(rho, tol) & (trace_deviation(rho) <= tol) & psd)
