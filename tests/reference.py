"""Scalar references for the array kernels of ``dqdcycle``.

Each function here is the step-by-step scalar form of one computation: plain
``math`` and Python float arithmetic on one point, with no batch and no
array of inputs. ``dqdcycle`` itself has one implementation of each
computation, an array kernel, and its scalar names (``spectrum``,
``gibbs_state``, ``run_cycle_matrix``, ``run_cycle_closed_form``,
``branch_currents``, ``branch_thresholds`` and ``classify``) are one-row
calls of those kernels; ``hamiltonian`` and ``gibbs_state`` also take
parameters of (n,) arrays, and ``matmul2`` a stack. ``binary_entropy``,
``expected_mode`` and ``classify_from_signs`` have no one-row name in the
package: they are the oracles of the closed form's entropy columns, of
``expected_mode_codes`` and of ``mode_codes``. The tests hold the kernels and
the one-row calls to these references with ``==``, signed zeros, types,
warnings and error messages included, and the ``oracle_sweep`` and
``oracle_verify`` fixtures run on them. ``grid_cells`` turns a list of cells,
such as the oracle's, into the arrays that the sweep writers read.

The references share only the package's data and formulas: the branch table
``regimes.BRANCHES`` (with its clamp ``regimes._mid``), ``thermo.stroke_energies``
(+ - * only, so a float gives the bits of an array element), ``kappa``, and the
one-matrix channels and traces of ``qdot`` and ``channels``. ``expected_mode``
reads the branch table's intervals with its own scalar loop.
``random_density_matrix`` and ``random_cycle_inputs`` draw one trial's state
or cycle input, for the acceptance criteria and the ``oracle_verify`` loops.

``outcome`` and ``same`` at the end are how the tests compare a call with its
reference: the value, its type, every warning and any exception. ``same``
compares an object array element by element, so that None and the bits of
each float count; ``same(result.cells, oracle.cells)`` is how the tests
compare two sweep grids, both axes and all six arrays.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from dqdcycle.channels import MeasurementChannel, Orientation, apply_channel
from dqdcycle.qdot import DotParams, internal_energy, von_neumann_entropy
from dqdcycle.regimes import BRANCHES, MODES, SIGN_PATTERNS, ZERO_TOL, Branch, Classification
from dqdcycle.regimes import Currents, EngineThresholds, Mode, RefrigeratorThresholds
from dqdcycle.regimes import check_zero_tol, kappa
from dqdcycle.sweep import GridSpec, SweepCell, SweepCells
from dqdcycle.thermo import CycleInputs, StrokeLedger, stroke_energies

# ---------------------------------------------------------------------------
# qdot


def eigenbasis(epsilon: float, tau: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(E, theta, |phi_1>, |phi_2>) of the half-angle construction, theta = 0 at E = 0."""
    gap = math.hypot(epsilon, tau)
    theta = 0.0 if gap == 0.0 else 0.5 * math.atan2(tau, -epsilon)
    c, s = math.cos(theta), math.sin(theta)
    return (gap, theta, np.array([c, s], dtype=np.float64),
            np.array([s, -c], dtype=np.float64))


def hamiltonian(params: DotParams) -> np.ndarray:
    """[[-epsilon, tau], [tau, epsilon]] at one point."""
    return np.array([[-params.epsilon, params.tau], [params.tau, params.epsilon]],
                    dtype=np.float64)


def gibbs_state(params: DotParams, temperature: float) -> np.ndarray:
    """The thermal state with populations (1 -+ tanh(E/T))/2 in the eigenbasis."""
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError("temperature must be positive")
    gap, _, phi1, phi2 = eigenbasis(params.epsilon, params.tau)
    t = math.tanh(gap / temperature)
    return (0.5 * (1.0 - t) * np.outer(phi1, phi1.conj())
            + 0.5 * (1.0 + t) * np.outer(phi2, phi2.conj()))


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two 2x2 matrices as two broadcast (2, 1) x (1, 2) products and their
    sum: entry (i, k) is a[i, 0] b[0, k] + a[i, 1] b[1, k], each step rounded on its own."""
    return a[:, :1] * b[:1, :] + a[:, 1:] * b[1:, :]


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A A^dag normalized to unit trace, from one ``standard_normal((2, 2, 2))`` draw."""
    z = rng.standard_normal((2, 2, 2))
    a = z[0] + 1j * z[1]
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# thermo


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


def random_cycle_inputs(rng: np.random.Generator) -> CycleInputs:
    """One cycle input from five ``uniform`` draws: epsilon, tau, T, a, b."""
    params = DotParams(epsilon=float(rng.uniform(1e-3, 3.0)), tau=float(rng.uniform(0.0, 1.0)))
    return CycleInputs(params=params, temperature=float(rng.uniform(0.5, 6.0)),
                       a=float(rng.uniform(0.0, 1.0)), b=float(rng.uniform(0.0, 1.0)))


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


def run_cycle_closed_form(inputs: CycleInputs) -> StrokeLedger:
    """Ledger from the analytic stroke formulas; builds no matrix and carries no states."""
    gap = math.hypot(inputs.params.epsilon, inputs.params.tau)
    t = math.tanh(gap / inputs.temperature)
    a, b = inputs.a, inputs.b
    h_g, h_a, h_b = binary_entropy(0.5 * (1.0 - t)), binary_entropy(a), binary_entropy(b)
    return StrokeLedger(*stroke_energies(inputs.params.epsilon, gap, t, a, b),
                        dS1=h_g - h_b, dS2=h_a - h_g, dS3=h_b - h_a)


# ---------------------------------------------------------------------------
# regimes


def classify_from_signs(Qh: float, Qc: float, W: float, zero_tol: float = ZERO_TOL) -> Mode:
    """Sign-pattern lookup; currents within ``zero_tol`` of zero are ambiguous."""
    check_zero_tol(zero_tol)
    if min(abs(Qh), abs(Qc), abs(W)) <= zero_tol:
        return Mode.UNDEFINED
    for mode, (sh, sc, sw) in SIGN_PATTERNS.items():
        if sh * Qh > 0 and sc * Qc > 0 and sw * W > 0:
            return mode
    return Mode.UNDEFINED


def _merit(mode: Mode, Qh: float, Qc: float, W: float) -> tuple[float, float | None]:
    """(figure of merit, raw COP) of a defined mode; raw COP is None for engines.

    ``classify`` calls this only once every current is beyond ``zero_tol``,
    so no denominator is zero.
    """
    if mode is Mode.ENGINE:
        return abs(W / Qh), None
    raw = abs((Qc if mode is Mode.REFRIGERATOR else Qh) / W)
    return kappa(raw), raw


def classify(Qh: float, Qc: float, W: float, zero_tol: float = ZERO_TOL) -> Classification:
    """Bundle sign classification with the matching figure of merit."""
    mode = classify_from_signs(Qh, Qc, W, zero_tol)
    if mode is Mode.UNDEFINED:
        return Classification(mode, Qh, Qc, W, None, None)
    return Classification(mode, Qh, Qc, W, *_merit(mode, Qh, Qc, W))


def _tanh_gap(epsilon: float, tau: float, temperature: float) -> tuple[float, float]:
    """E = hypot(epsilon, tau), as in ``eigenbasis``, and tanh(E/T)."""
    if epsilon <= 0.0:
        raise ValueError("branch operations require epsilon > 0")
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError("temperature must be positive")
    gap = math.hypot(epsilon, tau)
    return gap, math.tanh(gap / temperature)


def branch_currents(
    branch: Branch, params: DotParams, temperature: float, strength: float
) -> Currents:
    """(Qh, Qc, W) at the point of ``branch`` whose free strength is ``strength``."""
    rule = BRANCHES[branch]
    gap, t = _tanh_gap(params.epsilon, params.tau, temperature)
    if not (math.isfinite(strength) and 0.0 <= strength <= 1.0):
        raise ValueError(f"{rule.free} must be in [0, 1]")
    a = strength if rule.pinned_a is None else rule.pinned_a(t)
    du = stroke_energies(params.epsilon, gap, t, a, strength)
    return tuple(du[i] for i in rule.strokes)


def branch_thresholds(
    branch: Branch, params: DotParams, temperature: float
) -> EngineThresholds | RefrigeratorThresholds:
    """The branch's critical strengths, clamped to [0, 1]."""
    gap, t = _tanh_gap(params.epsilon, params.tau, temperature)
    return BRANCHES[branch].thresholds(t, gap / params.epsilon * t)


def expected_mode(branch: Branch, strength: float, thresholds) -> Mode | None:
    """Mode the thresholds predict at ``strength``: that of the first interval that holds.
    None only at a strength equal to the branch's last threshold, or NaN."""
    for name, side, mode in BRANCHES[branch].intervals:
        bound = getattr(thresholds, name)
        if (strength < bound) if side == "<" else (strength > bound):
            return mode
    return None


# ---------------------------------------------------------------------------
# sweep


def evaluate_cell(spec: GridSpec, strength: float, epsilon: float) -> SweepCell:
    """One cell through the scalar route: the oracle for ``run_sweep``."""
    params = DotParams(epsilon=epsilon, tau=spec.tau)
    qh, qc, w = branch_currents(spec.branch, params, spec.temperature, strength)
    return SweepCell(strength, epsilon, classify(qh, qc, w, spec.zero_tol))


def grid_cells(spec: GridSpec, cells: list) -> SweepCells:
    """A row-major list of ``SweepCell`` on ``spec``'s grid as the ``SweepCells`` arrays
    that ``run_sweep`` keeps; ``ValueError`` if a cell is not bit for bit at its point."""
    strengths, epsilons = spec.strength_axis.points(), spec.epsilon_axis.points()
    points = [(s, e) for e in epsilons.tolist() for s in strengths.tolist()]
    if len(cells) != len(points) or not all(
            same(c.strength, s) and same(c.epsilon, e) for c, (s, e) in zip(cells, points)):
        raise ValueError("the cells are not the row-major points of the spec's grid")

    def grid(values, dtype=float) -> np.ndarray:
        return np.array(values, dtype=dtype).reshape(len(epsilons), len(strengths))

    results = [c.result for c in cells]
    return SweepCells(strengths, epsilons, grid([MODES.index(r.mode) for r in results], int),
                      grid([r.performance for r in results], object),
                      grid([r.raw_cop for r in results], object),
                      grid([r.Qh for r in results]), grid([r.Qc for r in results]),
                      grid([r.W for r in results]))


# ---------------------------------------------------------------------------
# comparing a call with its reference


def outcome(f, *args) -> tuple:
    """What ``f(*args)`` does: ("returns", value) or ("raises", exception type, message),
    followed by the (category, message) of every warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returns", f(*args))
        except Exception as exc:
            result = ("raises", type(exc), str(exc))
    return result + tuple((w.category, str(w.message)) for w in caught)


def bits(x) -> np.ndarray:
    """The float64 elements of x as int64, so that ``np.array_equal`` compares bits:
    signed zeros apart, and NaN equal to the same NaN."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def same(x, y) -> bool:
    """Whether x and y are the same value: of the same type, floats equal with == and
    with the same sign bit (or both NaN), arrays of the same dtype, shape and bytes
    (object arrays element by element), tuples, lists and dataclasses field by field, and
    dicts key by key."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
                or math.isnan(x) and math.isnan(y))
    if isinstance(x, np.ndarray):
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if x.dtype == object:
            return all(map(same, x.ravel().tolist(), y.ravel().tolist()))
        return x.tobytes() == y.tobytes()
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(same, x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if dataclasses.is_dataclass(x):
        return all(same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    return x == y
