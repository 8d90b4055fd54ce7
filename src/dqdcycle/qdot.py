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
and density-matrix checks, max-norm, an elementwise 2x2 product and trace)
shared by the rest of the package.
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


def spectral_scalars(epsilon: float, tau: float) -> tuple[float, float, float, float]:
    """(E, theta, cos(theta), sin(theta)) of the half-angle construction, from ``math``.

    theta = 0 at the degenerate point E = 0. ``thermo.run_cycle_matrix_batch``
    maps the same ``math`` calls over its columns, so its eigenbases equal
    ``spectrum``'s bit for bit.
    """
    gap = math.hypot(epsilon, tau)
    theta = 0.0 if gap == 0.0 else 0.5 * math.atan2(tau, -epsilon)
    return gap, theta, math.cos(theta), math.sin(theta)


def spectrum(params: DotParams) -> Spectrum:
    """Exact eigenvalues and eigenvectors via the half-angle construction."""
    gap, theta, c, s = spectral_scalars(params.epsilon, params.tau)
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
    return _per_matrix(trace2(h @ rho).real)


def von_neumann_entropy(rho: np.ndarray):
    """-(lam_0 ln lam_0 + lam_1 ln lam_1) over the eigenvalues of rho, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] first so that roundoff-negative values
    from nearly pure states do not feed the log. An (n, 2, 2) stack gives an
    (n,) array. The logs come from ``math.log``, mapped over the eigenvalues;
    the products and the sum run on arrays. A zero eigenvalue adds a term of
    -0.0, the exact identity of +, so the result equals a sum over the
    positive eigenvalues alone, signed zeros included.
    """
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    pos = lam > 0.0
    terms = np.where(pos, lam * map_math(math.log, np.where(pos, lam, 1.0)), -0.0)
    return _per_matrix(-(terms[..., 0] + terms[..., 1]))


# ---------------------------------------------------------------------------
# dense 2x2 helpers
#
# Each takes one 2x2 matrix or an (n, 2, 2) stack, and gives a Python float or
# bool for one matrix and an (n,) array for a stack. A stack runs the same
# numpy operations on every matrix, so entry i equals the one-matrix result.


def map_math(f, *arrays: np.ndarray) -> np.ndarray:
    """f, a function of floats from ``math``, applied element by element to equal-shape
    float arrays, as a float array of that shape.

    Array code takes its transcendentals from here, so that each element is
    the bits the scalar code gets from ``math`` for the same inputs; whether
    numpy's ufuncs round the same way never comes up.
    """
    flat = map(f, *(np.ravel(x).tolist() for x in arrays))
    return np.fromiter(flat, float, np.size(arrays[0])).reshape(np.shape(arrays[0]))


def _per_matrix(x):
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 product a b as elementwise products and sums, per matrix of a stack.

    Entry (i, k) is a[i, 0] b[0, k] + a[i, 1] b[1, k], each product and the
    sum rounded on its own. Two 2-D operands take it as one broadcast
    (2, 1) x (1, 2) product per term; when either operand is a stack, each
    entry is written on its own, so every ufunc loops over the stack once
    rather than over 1 or 2 elements per matrix. The two forms compute the
    same products and the same sum per entry, with no reduction, so they give
    the same bits; the rank decides only which is cheaper per call (the
    broadcast on one matrix, the entry-wise form on a stack).

    Where at most one of the two terms is nonzero, as for a Kraus operator
    that is a real weight times one matrix unit |i><j|, this equals ``a @ b``
    bit for bit: BLAS may fuse a multiply and an add into one rounding, but
    adding an exact zero rounds nothing. For dense operands the two differ by
    up to ~1e-15 (9.9e-16 on random (256, 2, 2) stacks), so
    ``internal_energy`` and the random states of ``verify`` keep ``@``.
    """
    if a.ndim == 2 and b.ndim == 2:
        return a[:, :1] * b[:1, :] + a[:, 1:] * b[1:, :]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for i in (0, 1):
        for k in (0, 1):
            np.add(a[..., i, 0] * b[..., 0, k], a[..., i, 1] * b[..., 1, k], out=out[..., i, k])
    return out


def trace2(m: np.ndarray):
    """0 + m[0, 0] + m[1, 1], per matrix of a stack; a single matrix gives a numpy scalar.

    These are the sums ``np.trace(m, axis1=-2, axis2=-1)`` forms, whose
    reduction starts from the identity +0 (so a trace is never -0.0), but as
    additions over the whole stack instead of a length-2 reduction per
    matrix, so the bits are the same.
    """
    return 0.0 + m[..., 0, 0] + m[..., 1, 1]


def max_abs(m: np.ndarray):
    """Max-norm (largest entrywise modulus); the default matrix metric here.

    A vector or a single matrix gives one float; a stack gives one per matrix.
    """
    return _per_matrix(np.max(np.abs(m), axis=(-2, -1) if m.ndim > 2 else None))


def trace_deviation(rho: np.ndarray):
    """|Tr rho - 1|, from Python's complex abs (numpy's can differ in the last bit)."""
    tr = trace2(rho)
    return _per_matrix(np.array([abs(t - 1.0) for t in tr.reshape(-1).tolist()]).reshape(tr.shape))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL):
    return max_abs(m - dagger(m)) <= tol


def is_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL):
    """Hermitian, unit trace, and positive semidefinite up to ``tol``."""
    psd = np.min(np.linalg.eigvalsh(rho), axis=-1) >= -tol
    return _per_matrix(is_hermitian(rho, tol) & (trace_deviation(rho) <= tol) & psd)
