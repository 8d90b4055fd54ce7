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
are mapped onto the compact scale kappa = COP / (1 + COP) in (0, 1] so the
three COP regimes can share one color bar; efficiency stays as eta.

Three one-parameter branches slice the (a, b) square. ``BRANCHES`` holds
one ``BranchRule`` per ``Branch``: the free strength, the pinned a (or
b = a), the stroke of each of Qh, Qc and W, the analytic thresholds and their
ordered intervals. ``branch_currents``, ``branch_thresholds`` and
``expected_mode`` read that table; the per-branch functions below are thin
wrappers over it that keep their historical return orders.
``branch_currents_grid`` and ``classify_grid`` are the array twins of
``branch_currents`` and ``classify`` that sweeps use; they read the same
table and sign patterns and give the same floats bit for bit, and
``classify_grid`` gives each mode as its index in ``MODES``.

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
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .qdot import DotParams
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


def _check_zero_tol(zero_tol: float) -> None:
    if not (0.0 <= zero_tol < math.inf):
        raise ValueError("zero_tol must be finite and nonnegative")


def classify_from_signs(Qh: float, Qc: float, W: float, zero_tol: float = ZERO_TOL) -> Mode:
    """Sign-pattern lookup; currents within ``zero_tol`` of zero are ambiguous."""
    _check_zero_tol(zero_tol)
    if min(abs(Qh), abs(Qc), abs(W)) <= zero_tol:
        return Mode.UNDEFINED
    for mode, (sh, sc, sw) in SIGN_PATTERNS.items():
        if sh * Qh > 0 and sc * Qc > 0 and sw * W > 0:
            return mode
    return Mode.UNDEFINED


def kappa(cop: float) -> float:
    """Compress a coefficient of performance onto (0, 1]: kappa = COP/(1+COP)."""
    if math.isnan(cop) or cop <= 0.0:
        raise ValueError("cop must be positive")
    if math.isinf(cop):
        warnings.warn("infinite COP mapped to kappa = 1.0", RuntimeWarning, stacklevel=2)
        return 1.0
    return cop / (1.0 + cop)


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


def classify_grid(
    Qh: np.ndarray, Qc: np.ndarray, W: np.ndarray, zero_tol: float = ZERO_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array twin of ``classify``: (mode code, performance, raw COP) arrays.

    A mode code is a small int that indexes ``MODES``, so sweeps count modes
    with ``np.bincount`` and look up their text by index instead of hashing
    a ``Mode`` per cell. ``MODES[code]`` is the ``classify`` mode for the
    same three floats; performance and raw COP are object arrays whose
    elements equal the matching ``classify`` fields, None included. The same
    warning or error is raised.
    """
    _check_zero_tol(zero_tol)
    defined = (np.abs(Qh) > zero_tol) & (np.abs(Qc) > zero_tol) & (np.abs(W) > zero_tol)
    codes = np.full(Qh.shape, MODES.index(Mode.UNDEFINED))
    hits = {}
    for mode, (sh, sc, sw) in SIGN_PATTERNS.items():
        hits[mode] = defined & (sh * Qh > 0) & (sc * Qc > 0) & (sw * W > 0)
        codes[hits[mode]] = MODES.index(mode)
    engine = hits[Mode.ENGINE]
    cop = hits[Mode.REFRIGERATOR] | hits[Mode.ACCELERATOR] | hits[Mode.HEATER]
    numerator = np.where(engine, W, np.where(hits[Mode.REFRIGERATOR], Qc, Qh))
    denominator = np.where(engine, Qh, W)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float division is
        ratio = np.abs(np.divide(numerator, denominator, out=np.zeros(Qh.shape),
                                 where=engine | cop))
        compressed = ratio / (1.0 + ratio)
    odd = cop & ~(np.isfinite(ratio) & (ratio > 0.0))
    if odd.any():  # kappa's own warning (infinite COP) or error (NaN or zero COP)
        compressed[odd] = [kappa(r) for r in ratio[odd].tolist()]
    performance = np.where(engine, ratio, np.where(cop, compressed, None))
    return codes, performance, np.where(cop, ratio, None)


def _tanh_gap(epsilon: float, tau: float, temperature: float) -> tuple[float, float]:
    """E = hypot(epsilon, tau), as in ``qdot.spectrum``, and tanh(E/T)."""
    if epsilon <= 0.0:
        raise ValueError("branch operations require epsilon > 0")
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError("temperature must be positive")
    gap = math.hypot(epsilon, tau)
    return gap, math.tanh(gap / temperature)


def _mid(x: float) -> float:
    """(1 + x)/2 clamped to [0, 1]: every pinned strength and threshold has this form."""
    return min(1.0, max(0.0, 0.5 * (1.0 + x)))


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
                           ("refrigerator_min", ">", Mode.REFRIGERATOR))

BRANCHES = {
    Branch.ENGINE: BranchRule(
        free="a", pinned_a=None, strokes=(1, 0, 2),
        thresholds=lambda t, ratio: EngineThresholds(_mid(-ratio), 0.5, _mid(ratio)),
        intervals=(("heater_max", "<", Mode.HEATER), ("engine_min", "<", Mode.ACCELERATOR),
                   ("engine_max", "<", Mode.ENGINE)),
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


def _column(values) -> np.ndarray:
    """One value per epsilon-row, shaped to broadcast over the strength axis."""
    return np.array(values, dtype=float)[:, None]


def branch_currents_grid(
    branch: Branch, epsilons: list[float], tau: float, temperature: float,
    strengths: list[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Qh, Qc, W) arrays of shape (len(epsilons), len(strengths)).

    E and tanh(E/T) come from ``math`` once per epsilon, as in
    ``branch_currents``; numpy's hypot and tanh can differ in the last bit.
    Only ``stroke_energies``' correctly rounded + - * run on arrays, so each
    element equals ``branch_currents`` at that point bit for bit.
    """
    rule = BRANCHES[branch]
    s = np.array(strengths, dtype=float)
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError(f"{rule.free} must be in [0, 1]")
    gaps, tanhs = zip(*(_tanh_gap(e, tau, temperature) for e in epsilons))
    a = s if rule.pinned_a is None else _column([rule.pinned_a(t) for t in tanhs])
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        du = stroke_energies(_column(epsilons), _column(gaps), _column(tanhs), a, s)
    return tuple(np.broadcast_to(du[i], (len(epsilons), len(s))) for i in rule.strokes)


def branch_thresholds(
    branch: Branch, params: DotParams, temperature: float
) -> EngineThresholds | RefrigeratorThresholds:
    """The branch's critical strengths, clamped to [0, 1]."""
    gap, t = _tanh_gap(params.epsilon, params.tau, temperature)
    return BRANCHES[branch].thresholds(t, gap / params.epsilon * t)


def expected_mode(branch: Branch, strength: float, thresholds) -> Mode | None:
    """Mode the thresholds predict at ``strength``; None outside the cataloged windows."""
    for name, side, mode in BRANCHES[branch].intervals:
        bound = getattr(thresholds, name)
        if (strength < bound) if side == "<" else (strength > bound):
            return mode
    return None


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
    _, t = _tanh_gap(params.epsilon, params.tau, temperature)
    pinned_a = BRANCHES[branch].pinned_a
    if pinned_a is None:
        raise ValueError("constrained strength only exists for refrigerator branches")
    return pinned_a(t)


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
