"""Operating-regime classification and constrained one-parameter branches.

The machine exchanges three energy currents per cycle. Identifying the
thermalization stroke with the cold flow, one measurement stroke with the hot
flow and the remaining stroke with work, the sign pattern (Qh, Qc, W) sorts
every operating point into one of four useful regimes. Letting a measurement
stroke play a heat or work reservoir next to a single thermal bath, and
reading the regime from the signs of the three currents, follows the
single-bath measurement machines of Buffoni et al., "Quantum measurement
cooling", Phys. Rev. Lett. 122, 070603 (2019):

    ============  ====  ====  ====  ==============================
    mode          Qh    Qc    W     figure of merit
    ============  ====  ====  ====  ==============================
    engine         +     -     -    efficiency  eta = |W / Qh|
    refrigerator   -     +     +    COP = |Qc / W|
    accelerator    +     -     +    COP = |Qh / W|
    heater         -     -     +    COP = |Qh / W|
    ============  ====  ====  ====  ==============================

W < 0 means net work is extracted. Any other sign pattern, or any current
indistinguishable from zero at ``zero_tol``, is Undefined. COP-type figures
are mapped onto the compact scale kappa = COP / (1 + COP) in [0, 1] so the
three COP regimes can share one color bar; efficiency stays as eta. kappa is
exact at its limits: 0 for a COP that underflows to 0, 1 for an infinite COP.

Three one-parameter branches slice the (a, b) square. ``BRANCHES`` holds
one ``BranchRule`` per ``Branch``: the free strength, the pinned a (or
b = a), the stroke of each of Qh, Qc and W, the analytic thresholds and their
ordered intervals. Each computation has one kernel, on arrays:
``branch_points`` (thresholds and ``(Qh, Qc, W)`` at broadcast points, with E
and tanh(E/T) from ``qdot.thermal_factors``; a sweep passes it an epsilon
column and a strength row); ``expected_mode_codes`` and ``mode_codes``, which
give a mode as its index in ``MODES`` (-1 where no interval holds, which is
only at a strength equal to the branch's last threshold, or NaN); and
``classify_grid``, which adds the figures of merit.
``branch_currents``, ``branch_thresholds`` and ``classify`` are one-row
calls of them, and the per-branch functions below are thin wrappers that
keep their historical return orders. ``tests/reference.py`` holds the
scalar forms that the tests compare them with, bit for bit.

* ``engine`` branch, b = a: work stroke W = dU3 = 2 epsilon (1 - 2a), hot
  stroke Qh = dU2, cold stroke Qc = dU1. Interval structure over a in [0, 1]:
  heater for a < (1 - (E/eps) tanh(E/T))/2, engine for
  1/2 <= a < (1 + (E/eps) tanh(E/T))/2, accelerator between those windows.
  (The b = 1 - a family also closes the cycle but exchanges no work at all,
  so it is not exposed here.)
* ``refrigerator-plus`` branch, a pinned to (1 + tanh(E/T))/2 so that the
  A-stroke is pure work input: Qc = dU1, W = dU2, Qh = dU3. Cooling requires
  b > (1 + (E/eps) tanh(E/T))/2; small b < (1 - tanh(E/T))/2 accelerates.
* ``refrigerator-minus`` branch, a pinned to (1 - tanh(E/T))/2: same stroke
  roles with W = (E - eps) tanh(E/T), which vanishes at tau = 0 -- the whole
  branch is then Undefined. Accelerator below b = (1 + tanh(E/T))/2,
  refrigerator above b = (1 + (E/eps) tanh(E/T))/2.

All branch operations require epsilon > 0: the thresholds carry E/epsilon and
the regime geometry is stated for positive detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .qdot import DotParams, check_dot, check_temperature, check_unit, thermal_factors
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from .qdot import spectrum  # noqa: F401
from .thermo import run_cycle_closed_form  # noqa: F401
from .thermo import stroke_energies


class Mode(Enum):
    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    ACCELERATOR = "accelerator"
    HEATER = "heater"
    UNDEFINED = "undefined"


# The modes in a fixed order; ``classify_grid``'s mode codes index this tuple.
MODES = tuple(Mode)


class Branch(Enum):
    ENGINE = "engine"
    REFRIGERATOR_PLUS = "refrigerator-plus"
    REFRIGERATOR_MINUS = "refrigerator-minus"


class EngineThresholds(NamedTuple):
    """Critical strengths a splitting the engine branch, clamped to [0, 1]."""

    heater_max: float
    engine_min: float
    engine_max: float


class RefrigeratorThresholds(NamedTuple):
    """Critical strengths b splitting a refrigerator branch, clamped to [0, 1]."""

    accelerator_max: float
    refrigerator_min: float


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one operating point."""

    mode: Mode
    Qh: float
    Qc: float
    W: float
    performance: float | None
    raw_cop: float | None


# The signs of (Qh, Qc, W) in each defined mode; any other pattern is undefined.
SIGN_PATTERNS = {
    Mode.ENGINE: (1, -1, -1),
    Mode.REFRIGERATOR: (-1, 1, 1),
    Mode.ACCELERATOR: (1, -1, 1),
    Mode.HEATER: (-1, -1, 1),
}


# Currents at most this far from zero have no sign; absolute, in energy units.
ZERO_TOL = 1e-12


def check_zero_tol(zero_tol: float) -> None:
    """Refuse a zero tolerance that is negative, NaN or infinite."""
    if not (0.0 <= zero_tol < math.inf):
        raise ValueError("zero_tol must be finite and nonnegative")


def _row(*values) -> tuple[np.ndarray, ...]:
    """Each value as a one-element float64 array: the input of a one-row kernel call."""
    return tuple(np.array([v], dtype=float) for v in values)


def kappa(cop):
    """Compress a coefficient of performance onto [0, 1]: kappa = COP/(1+COP) in float64,
    a float for a float and an array for an array. The limits are exact and silent: a COP
    of 0.0 gives 0.0 and inf gives 1.0. A negative or NaN COP raises ``ValueError``."""
    if not np.all(cop >= 0.0):  # NaN fails the comparison too
        raise ValueError("cop must be nonnegative")
    c = np.asarray(cop, dtype=float)
    k = np.divide(c, 1.0 + c, out=np.ones_like(c), where=c < math.inf)
    # on [2^53, 2^54) 1 + c rounds half to even; the exact kappa rounds to 1 - 2^-53
    k[(c >= 2.0**53) & (c < 2.0**54)] = 1.0 - 2.0**-53
    return k if isinstance(cop, np.ndarray) else float(k)


def classify(Qh: float, Qc: float, W: float, zero_tol: float = ZERO_TOL) -> Classification:
    """Bundle sign classification with the matching figure of merit."""
    codes, performance, raw_cop = classify_grid(*_row(Qh, Qc, W), zero_tol)
    return Classification(MODES[codes[0]], Qh, Qc, W, performance[0], raw_cop[0])


def mode_codes(Qh: np.ndarray, Qc: np.ndarray, W: np.ndarray,
               zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Each point's mode as its index in ``MODES``, from the signs of its currents;
    a current within ``zero_tol`` of zero makes the point undefined."""
    check_zero_tol(zero_tol)
    defined = (np.abs(Qh) > zero_tol) & (np.abs(Qc) > zero_tol) & (np.abs(W) > zero_tol)
    codes = np.full(np.shape(Qh), MODES.index(Mode.UNDEFINED))
    for mode, (sh, sc, sw) in SIGN_PATTERNS.items():
        codes[defined & (sh * Qh > 0) & (sc * Qc > 0) & (sw * W > 0)] = MODES.index(mode)
    return codes


# The figure of merit that ``classify_grid`` gives each defined mode, by the mode's value.
PERFORMANCE_CONVENTION = {m.value: "eta" if m is Mode.ENGINE else "kappa" for m in SIGN_PATTERNS}


def classify_grid(
    Qh: np.ndarray, Qc: np.ndarray, W: np.ndarray, zero_tol: float = ZERO_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mode code, performance, raw COP) arrays: ``mode_codes`` plus the figures of merit.

    The mode codes are small ints that index ``MODES``, so sweeps count modes
    with ``np.bincount`` and look up their text by index instead of hashing a
    ``Mode`` per cell. Performance and raw COP are object arrays of Python
    floats, with None where a point is undefined (and raw COP None for an
    engine). A COP cell's performance is ``kappa`` of its raw COP, with no warning.
    """
    codes = mode_codes(Qh, Qc, W, zero_tol)
    engine = codes == MODES.index(Mode.ENGINE)
    cop = ~engine & (codes != MODES.index(Mode.UNDEFINED))
    numerator = np.where(engine, W, np.where(codes == MODES.index(Mode.REFRIGERATOR), Qc, Qh))
    denominator = np.where(engine, Qh, W)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float division is
        ratio = np.abs(np.divide(numerator, denominator, out=np.zeros(Qh.shape),
                                 where=engine | cop))
    compressed = kappa(np.where(cop, ratio, 1.0))  # 1.0: a cell with no COP
    performance = np.where(engine, ratio, np.where(cop, compressed, None))
    return codes, performance, np.where(cop, ratio, None)


def _gap_and_tanh(epsilon, tau, temperature) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(epsilon, E, tanh(E/T)) broadcast together, from ``qdot.thermal_factors``, after
    every branch operation's checks on its inputs."""
    epsilon, tau, temperature = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (epsilon, tau, temperature)))
    check_dot(epsilon, tau)
    if np.any(epsilon <= 0.0):
        raise ValueError("branch operations require epsilon > 0")
    check_temperature(temperature)
    return (epsilon, *thermal_factors(epsilon, tau, temperature))


def _mid(x):
    """(1 + x)/2 clamped to [0, 1]: every pinned strength and threshold has this form.

    An array gives an array, and anything else a Python float. NaN stays NaN.
    """
    m = np.minimum(1.0, np.maximum(0.0, 0.5 * (1.0 + x)))
    return m if isinstance(x, np.ndarray) else float(m)


# ---------------------------------------------------------------------------
# the branch table

Currents = tuple[float, float, float]


class BranchRule(NamedTuple):
    """What distinguishes one branch; ``BRANCHES`` holds one rule per ``Branch``."""

    free: str  # the swept strength, "a" or "b"
    pinned_a: Callable[[float], float] | None  # a from t = tanh(E/T); None means b = a
    strokes: tuple[int, int, int]  # indices of Qh, Qc and W in (dU1, dU2, dU3)
    thresholds: Callable[[float, float], tuple]  # (t, (E/eps) t) -> critical strengths
    intervals: tuple[tuple[str, str, Mode], ...]  # (threshold, "<" or ">", mode), first wins


_REFRIGERATOR_INTERVALS = (("accelerator_max", "<", Mode.ACCELERATOR),
                           ("refrigerator_min", ">", Mode.REFRIGERATOR),
                           ("refrigerator_min", "<", Mode.HEATER))

BRANCHES = {
    Branch.ENGINE: BranchRule(
        free="a", pinned_a=None, strokes=(1, 0, 2),
        thresholds=lambda t, ratio: EngineThresholds(_mid(-ratio), 0.5, _mid(ratio)),
        intervals=(("heater_max", "<", Mode.HEATER), ("engine_min", "<", Mode.ACCELERATOR),
                   ("engine_max", "<", Mode.ENGINE), ("engine_max", ">", Mode.UNDEFINED)),
    ),
    Branch.REFRIGERATOR_PLUS: BranchRule(
        free="b", pinned_a=_mid, strokes=(2, 0, 1),
        thresholds=lambda t, ratio: RefrigeratorThresholds(_mid(-t), _mid(ratio)),
        intervals=_REFRIGERATOR_INTERVALS,
    ),
    Branch.REFRIGERATOR_MINUS: BranchRule(
        free="b", pinned_a=lambda t: _mid(-t), strokes=(2, 0, 1),
        thresholds=lambda t, ratio: RefrigeratorThresholds(_mid(t), _mid(ratio)),
        intervals=_REFRIGERATOR_INTERVALS,
    ),
}


def branch_points(branch: Branch, epsilon, tau, temperature, strength):
    """(thresholds, (Qh, Qc, W)) of ``branch`` at each point of broadcastable arrays.

    E and tanh(E/T) come from ``qdot.thermal_factors``, once per element of
    the broadcast (epsilon, tau, temperature), and only correctly
    rounded + - * /, min and max run on arrays, so each element has the bits
    that the same steps give on Python floats. The thresholds are the
    branch's named tuple of arrays (``engine_min`` stays the float 0.5).

    The checks run in this order, each raising ``ValueError``: epsilon and
    tau in the dot's domain (``qdot.check_dot``), epsilon > 0, temperature
    finite and > 0, then the strength in [0, 1].
    """
    epsilon, gap, t = _gap_and_tanh(epsilon, tau, temperature)
    rule = BRANCHES[branch]
    s = np.asarray(strength, dtype=float)
    check_unit(rule.free, s)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        a = s if rule.pinned_a is None else rule.pinned_a(t)
        du = stroke_energies(epsilon, gap, t, a, s)
        return rule.thresholds(t, gap / epsilon * t), tuple(du[i] for i in rule.strokes)


def branch_currents(
    branch: Branch, params: DotParams, temperature: float, strength: float
) -> Currents:
    """(Qh, Qc, W) at the point of ``branch`` whose free strength is ``strength``."""
    _, currents = branch_points(branch, *_row(params.epsilon, params.tau, temperature, strength))
    return tuple(x.item() for x in currents)


def branch_thresholds(
    branch: Branch, params: DotParams, temperature: float
) -> EngineThresholds | RefrigeratorThresholds:
    """The branch's critical strengths, clamped to [0, 1]."""
    thresholds, _ = branch_points(branch, *_row(params.epsilon, params.tau, temperature), 0.0)
    return type(thresholds)(*(np.ravel(x)[0].item() for x in thresholds))


def expected_mode_codes(branch: Branch, strength: np.ndarray, thresholds) -> np.ndarray:
    """The index in ``MODES`` of the first of the branch's intervals that holds at each
    strength. The intervals cover [0, 1] but for a tie with the last threshold
    (``engine_max``, ``refrigerator_min``), which gives -1, as NaN does."""
    intervals = BRANCHES[branch].intervals
    held = [strength < getattr(thresholds, name) if side == "<"
            else strength > getattr(thresholds, name) for name, side, _ in intervals]
    return np.select(held, [MODES.index(mode) for _, _, mode in intervals], -1)


# ---------------------------------------------------------------------------
# per-branch wrappers, in their historical return orders


def engine_branch_quantities(params: DotParams, temperature: float, a: float) -> Currents:
    """(Qc, Qh, W) on the b = a branch: cold = stroke 1, hot = stroke 2, work = stroke 3."""
    qh, qc, w = branch_currents(Branch.ENGINE, params, temperature, a)
    return qc, qh, w


def engine_branch_thresholds(params: DotParams, temperature: float) -> EngineThresholds:
    """Regime boundaries in a: heater / accelerator / engine / accelerator."""
    return branch_thresholds(Branch.ENGINE, params, temperature)


def constrained_strength(params: DotParams, temperature: float, branch: Branch) -> float:
    """The pinned channel-A strength a = (1 +- tanh(E/T))/2 of a refrigerator branch."""
    _, _, t = _gap_and_tanh(*_row(params.epsilon, params.tau, temperature))
    pinned_a = BRANCHES[branch].pinned_a
    if pinned_a is None:
        raise ValueError("constrained strength only exists for refrigerator branches")
    return pinned_a(t).item()


def refrigerator_plus_quantities(params: DotParams, temperature: float, b: float) -> Currents:
    """(Qc, W, Qh) with a = (1 + tanh(E/T))/2: work input W = (E + eps) tanh(E/T)."""
    qh, qc, w = branch_currents(Branch.REFRIGERATOR_PLUS, params, temperature, b)
    return qc, w, qh


def refrigerator_minus_quantities(params: DotParams, temperature: float, b: float) -> Currents:
    """(Qc, W, Qh) with a = (1 - tanh(E/T))/2: work input W = (E - eps) tanh(E/T)."""
    qh, qc, w = branch_currents(Branch.REFRIGERATOR_MINUS, params, temperature, b)
    return qc, w, qh


def refrigerator_branch_thresholds(
    params: DotParams, temperature: float, branch: Branch
) -> RefrigeratorThresholds:
    """Regime boundaries in b for a refrigerator branch.

    Below ``accelerator_max`` the point accelerates, above ``refrigerator_min``
    it refrigerates; the band between is heater territory.
    """
    if branch is Branch.ENGINE:
        raise ValueError("thresholds only exist for refrigerator branches")
    return branch_thresholds(branch, params, temperature)
