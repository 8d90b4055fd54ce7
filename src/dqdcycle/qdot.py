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
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12
_GAP_LIMIT = sys.float_info.max / 4.0  # the largest E = hypot(epsilon, tau) check_dot admits


@dataclass(frozen=True)
class DotParams:
    """Working-substance parameters: detuning and tunneling amplitude."""

    epsilon: float
    tau: float

    def __post_init__(self):
        check_dot(self.epsilon, self.tau)


# The domain checks take floats or arrays and raise ValueError. Each first adds 0.0 to its
# input, so that a value that is not a real number raises TypeError, and an int too large
# for a float OverflowError, as float() would.


def _holds(ok) -> bool:
    """Whether a comparison's result, a bool or a bool array, is true everywhere."""
    return ok if ok.__class__ is bool else bool(ok.all())


def check_dot(epsilon, tau) -> None:
    """Refuse epsilon and tau that are not finite, or at which a cycle ledger would overflow.

    Every energy of both ledgers is bounded by E = hypot(epsilon, tau). As
    |epsilon|, |tau| <= E and |rho_ij| <= 1, each partial sum of Tr[H rho] is
    at most |epsilon| + |tau| <= 2E, and Tr[H rho] lies in [-E, E], so
    |dU_i| <= 2E on the matrix route. On the closed form, |E tanh(E/T)| and
    |epsilon (2x - 1)| are at most E, so again |dU_i| <= 2E. The closures
    and the discrepancy between the routes add or subtract two of those:
    at most 4E. So E <= DBL_MAX / 4 keeps every intermediate finite. (E/T
    may still overflow to inf; its tanh is 1.)
    """
    e, t = abs(epsilon + 0.0), abs(tau + 0.0)
    small = (e <= _GAP_LIMIT / 2.0) & (t <= _GAP_LIMIT / 2.0)  # so E <= 0.71 DBL_MAX / 4
    if _holds(small):  # the common case, finite and in bounds at the cost of one test
        return
    if not _holds((e < math.inf) & (t < math.inf)):
        raise ValueError("epsilon and tau must be finite")
    if not _holds(map_math(math.hypot, *np.broadcast_arrays(e, t)) <= _GAP_LIMIT):
        raise ValueError("epsilon and tau too large: the cycle ledgers need"
                         f" hypot(epsilon, tau) <= {_GAP_LIMIT:.6g}")


def check_temperature(temperature) -> None:
    if not _holds((0.0 < temperature + 0.0) & (temperature < math.inf)):
        raise ValueError("temperature must be positive")


def check_unit(name: str, p) -> None:
    if not _holds((0.0 <= p + 0.0) & (p <= 1.0)):
        raise ValueError(f"{name} must be in [0, 1]")


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
    """Dot Hamiltonian [[-epsilon, tau], [tau, epsilon]] in the localized basis.

    Float parameters give one 2x2 matrix; (n,) arrays give an (n, 2, 2) stack.
    """
    e, t = np.asarray(params.epsilon, dtype=float), np.asarray(params.tau, dtype=float)
    return np.stack((-e, t, t, e), axis=-1).reshape(e.shape + (2, 2)).astype(np.complex128)


def thermal_factors(epsilon, tau, temperature) -> tuple[np.ndarray, np.ndarray]:
    """(E, tanh(E/T)) at each element of equal-shape float arrays, or of floats: the package
    takes E = hypot(epsilon, tau) and tanh from ``math``, through ``map_math``, here and in
    ``spectrum`` only. E/T overflows to inf silently, as float division does."""
    gap = map_math(math.hypot, epsilon, tau)
    with np.errstate(over="ignore"):
        return gap, map_math(math.tanh, gap / temperature)


def eigenbases(epsilon, tau, gap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, |phi_1>, |phi_2>) at each element of equal-shape float arrays, or of floats:
    theta = atan2(tau, -epsilon)/2 from ``math`` (0 where E == 0), and the eigenvectors
    as complex arrays with a last axis of length 2. The package takes theta only here."""
    theta = np.where(gap == 0.0, 0.0, 0.5 * map_math(math.atan2, tau, -epsilon))
    c, s = map_math(math.cos, theta), map_math(math.sin, theta)
    phi1, phi2 = (np.stack(v, axis=-1).astype(np.complex128) for v in ((c, s), (s, -c)))
    return theta, phi1, phi2


def spectrum(params: DotParams) -> Spectrum:
    """Exact eigenvalues and eigenvectors: ``eigenbases`` at one point."""
    gap = map_math(math.hypot, params.epsilon, params.tau).item()
    theta, phi1, phi2 = eigenbases(params.epsilon, params.tau, gap)
    return Spectrum(gap, theta.item(), (gap, -gap), (phi1, phi2), gap == 0.0)


def gibbs_state(params: DotParams, temperature) -> np.ndarray:
    """Thermal state exp(-H/T)/Z assembled from the spectral decomposition:
    p_+ |phi_1><phi_1| + p_- |phi_2><phi_2| with p_-+ = (1 -+ tanh(E/T))/2.

    The populations are written with tanh rather than as exp(-+E/T)/Z, which
    is the same number but cannot overflow. At the degenerate point E = 0
    this is the maximally mixed state. Float parameters give one 2x2 state;
    (n,) arrays of epsilon, tau and T give an (n, 2, 2) stack whose entry i
    is the state of element i, bit for bit.
    """
    check_temperature(temperature)
    gap, t = thermal_factors(params.epsilon, params.tau, temperature)
    _, phi1, phi2 = eigenbases(params.epsilon, params.tau, gap)
    t = t[..., None, None]
    return 0.5 * (1.0 - t) * _outer(phi1) + 0.5 * (1.0 + t) * _outer(phi2)


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
    first = np.asarray(arrays[0])
    flat = map(f, first.ravel().tolist(), *(np.ravel(x).tolist() for x in arrays[1:]))
    return np.fromiter(flat, float, first.size).reshape(first.shape)


def _per_matrix(x):
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 product a b as elementwise products and sums, per matrix of a stack.

    Entry (i, k) is a[i, 0] b[0, k] + a[i, 1] b[1, k], each product and the
    sum rounded on its own, written entry by entry, so that every ufunc
    loops over the whole stack once. With no reduction, entry i of a stack
    has the bits of the product of its matrices alone.

    Where at most one of the two terms is nonzero, as for a Kraus operator
    that is a real weight times one matrix unit |i><j|, this equals ``a @ b``
    bit for bit: BLAS may fuse a multiply and an add into one rounding, but
    adding an exact zero rounds nothing. For dense operands the two differ by
    up to ~1e-15 (9.9e-16 on random (256, 2, 2) stacks), so
    ``internal_energy`` and the random states of ``verify`` keep ``@``.
    """
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
    """|Tr rho - 1| with the bits of Python's complex abs: ``np.hypot`` is libm's ``hypot``,
    which that abs calls. ``np.abs`` of a complex is not (on 3M random, tiny and huge
    values it differed 396,723 times, ``np.hypot`` 0). A deviation that overflows is inf."""
    d = trace2(rho) - 1.0
    with np.errstate(over="ignore"):  # an overflow gives inf, which fails every tolerance
        return _per_matrix(np.hypot(d.real, d.imag))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL):
    return max_abs(m - dagger(m)) <= tol


def is_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL):
    """Hermitian, unit trace, and positive semidefinite up to ``tol``."""
    psd = np.min(np.linalg.eigvalsh(rho), axis=-1) >= -tol
    return _per_matrix(is_hermitian(rho, tol) & (trace_deviation(rho) <= tol) & psd)
