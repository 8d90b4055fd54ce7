"""Randomized self-checks tying the package's independent routes together.

Each check draws random operating points and measures a residual that must
stay below a fixed tolerance:

* ``kraus_completeness`` -- every Kraus family resolves the identity.
* ``channel_cptp``       -- channel outputs are valid density matrices and
                            traces are preserved.
* ``channel_reset``      -- channels erase their input: the output is the
                            strength-determined diagonal state for *any* input.
* ``path_agreement``     -- closed-form and density-matrix cycle ledgers match.
* ``cycle_closure``      -- dU and dS sum to zero around the cycle.
* ``threshold_consistency`` -- the analytic regime boundaries agree with
                            sign-based classification at random branch points.

The first five checks run as array passes. Each draws its trials one after
another from the generator, reading the stream exactly as a trial-by-trial
loop would, then computes every residual in one numpy pass over (n, 2, 2)
stacks. ``path_agreement`` and ``cycle_closure`` pass each block's single
(n, 5) draw of epsilon, tau, T, a, b straight to
``thermo.run_cycle_closed_form_batch`` and ``thermo.run_cycle_matrix_batch``;
no ``CycleInputs`` is built per trial, only one for a reported worst case, and
no channel object is built per trial either. The Kraus products are the
elementwise ``qdot.matmul2``, which gives the bits of ``@`` on the
one-matrix-unit operators of an honest family. The draws and the results for
a seed are the same as with the loop: the worst case is still the first trial
with the largest residual. A NaN residual fails its check, and the first one
is reported as the worst case. Trials go through at most ``BLOCK`` at a time,
so memory stays bounded whatever the trial count. ``BLOCK`` is the knee of
the measured per-trial cost: the smallest power of two past which a larger
block saves less than 5% per trial (the numbers are at its definition).

``threshold_consistency`` also runs in blocks, on the array forms of the
branch table: ``regimes.branch_points`` for each branch present in a block,
then ``regimes.expected_mode_codes`` and ``regimes.mode_codes``. Its trials
interleave ``random(3)``, ``integers(3)`` and ``random()``. On the default
PCG64 bit generator a block's draws are read from one ``random_raw`` call and
the generator's 32-bit buffer is written back afterwards, so the results and
the generator's final state are those of the per-trial calls. On any other
bit generator, or in a block where ``integers(3)`` would reject a draw, the
block is drawn with the per-trial calls instead.

The Kraus operators are looked up through ``channels.kraus_operators`` at call
time, once per orientation per block (each call takes an array of strengths),
so a deliberately corrupted implementation swapped in there is picked up and
flagged -- the test suite uses that as a negative control on the checks
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import MeasurementChannel, Orientation, apply_kraus, completeness_residual
from .channels import kraus_stack
from .qdot import DotParams, dagger, is_density_matrix, max_abs, trace2, trace_deviation
from .regimes import MODES, Branch, branch_points, expected_mode_codes, mode_codes
from .thermo import CycleInputs, StrokeLedger, ledger_discrepancy, run_cycle_closed_form_batch
from .thermo import run_cycle_matrix_batch
# Not called here; imported so that perfbench/spans.py can rebind them in this module.
from .thermo import run_cycle_closed_form  # noqa: F401
from .regimes import engine_branch_quantities, engine_branch_thresholds  # noqa: F401
from .regimes import refrigerator_branch_thresholds  # noqa: F401
from .regimes import refrigerator_minus_quantities, refrigerator_plus_quantities  # noqa: F401
from .thermo import run_cycle_matrix  # noqa: F401

COMPLETENESS_TOL = 1e-14
MATRIX_TOL = 1e-12
PATH_TOL = 1e-10
CLOSURE_TOL = 1e-12
THRESHOLD_MARGIN = 1e-9

# Trials per array pass, so that a check's stacks stay small whatever the trial count.
# The size is the knee of the per-trial cost of run_all(seed, 8192), measured at powers
# of two: the smallest block past which doubling it saves less than 5% per trial. Below
# the knee every block pays each numpy call's fixed cost again; above it the cost is
# flat, while peak memory and the oracle test that spans two blocks keep growing. On a
# 2-core VM (Python 3.11, numpy 2.4) the median cost was 36, 28, 24.5, 25 and 25 us per
# trial at 256, 512, 1024, 2048 and 4096, and peak RSS 38.3, 38.1, 38.9, 39.9, 42.3 MB.
BLOCK = 1024

# The bounds of random_cycle_inputs' five draws: epsilon, tau, T, a, b.
_CYCLE_LOW = (1e-3, 0.0, 0.5, 0.0, 0.0)
_CYCLE_HIGH = (3.0, 1.0, 6.0, 1.0, 1.0)

# threshold_consistency's draws: epsilon, tau and T are low + (high - low) * u, as
# Generator.uniform computes them, and the branch is BRANCHES[integers(3)], as
# Generator.choice picks it.
_THRESHOLD_LOW = np.array((0.05, 0.0, 0.5))
_THRESHOLD_SPAN = np.array((3.0, 1.0, 6.0)) - _THRESHOLD_LOW
_BRANCHES = tuple(Branch)


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    worst_case: dict | None = None


def _result(name, trials, residual, tol, worst) -> CheckResult:
    return CheckResult(name, trials, residual, tol, residual <= tol, worst)


def _scan(name, trials, tol, block, describe) -> CheckResult:
    """Run ``block(n) -> (residuals, draws)`` over the trials, at most BLOCK at a time.

    The worst case is the first trial with the largest residual, and only a
    residual above 0 counts, as in a trial-by-trial loop with ``r > worst``.
    A NaN residual beats every number, and the first one stays the worst
    case, so a NaN fails the check.
    """
    worst, worst_case = 0.0, None
    for start in range(0, trials, BLOCK):
        r, draws = block(min(BLOCK, trials - start))
        i = int(np.argmax(r))  # the first maximum, or the first NaN
        if r[i] > worst or (math.isnan(r[i]) and not math.isnan(worst)):
            worst, worst_case = float(r[i]), describe(draws[i])
    return _result(name, trials, worst, tol, worst_case)


def _gram_state(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A A^dag normalized to unit trace, with A = x + iy; one matrix or an (n, 2, 2) stack."""
    a = x + 1j * y
    rho = a @ dagger(a)
    return rho / trace2(rho).real[..., None, None]


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random mixed state: A A^dag normalized to unit trace."""
    x = rng.normal(size=(2, 2))
    return _gram_state(x, rng.normal(size=(2, 2)))


def _random_cycle_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of random_cycle_inputs as the rows of an (n, 5) array of epsilon, tau, T,
    a, b; one (n, 5) draw reads the stream in the same order as n single draws."""
    return rng.uniform(_CYCLE_LOW, _CYCLE_HIGH, size=(n, 5))


def _inputs_of(row: np.ndarray) -> CycleInputs:
    e, tau, temperature, a, b = row.tolist()
    return CycleInputs(DotParams(e, tau), temperature, a, b)


def random_cycle_inputs(rng: np.random.Generator) -> CycleInputs:
    return _inputs_of(_random_cycle_rows(rng, 1)[0])


def _channel_of(draw) -> MeasurementChannel:
    """The channel of one trial's ``random(2)`` draw (r, p): orientation A if r < 0.5, strength p."""
    r, p = draw
    return MeasurementChannel(float(p), Orientation.A if r < 0.5 else Orientation.B)


def _random_channel(rng: np.random.Generator) -> MeasurementChannel:
    return _channel_of(rng.random(2))


def _kraus_of(draws: np.ndarray) -> np.ndarray:
    """The ``kraus_stack`` of the channels of an (n, 2) array of draws."""
    return kraus_stack(draws[:, 1], draws[:, 0] < 0.5)


def _random_channels_and_states(rng: np.random.Generator, n: int):
    """n trials of a random channel's (r, p) draw followed by a random state, drawn in that order."""
    draws, z = np.empty((n, 2)), np.empty((n, 2, 2, 2))
    random, normal = rng.random, rng.standard_normal
    for draw, zi in zip(draws, z):
        random(out=draw)
        normal(out=zi)  # normal(0, 1) gives 0 + 1 z: these bits, but for a zero's sign
    return draws, _gram_state(z[:, 0], z[:, 1])


def _channel_dict(ch: MeasurementChannel) -> dict:
    return {"strength": ch.strength, "orientation": ch.orientation.value}


def _draw_dict(draw) -> dict:
    return _channel_dict(_channel_of(draw))


def _both_ledgers(rows: np.ndarray) -> tuple[StrokeLedger, StrokeLedger]:
    """The closed-form and the matrix ledger of every row, each as one ledger of (n,) arrays."""
    return run_cycle_closed_form_batch(rows), run_cycle_matrix_batch(rows)


def check_kraus_completeness(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        draws = rng.random((n, 2))  # no normals between trials, so one call reads n of them
        return completeness_residual(_kraus_of(draws)), draws

    return _scan("kraus_completeness", trials, COMPLETENESS_TOL, block, _draw_dict)


def check_channel_cptp(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        draws, rho = _random_channels_and_states(rng, n)
        out = apply_kraus(_kraus_of(draws), rho)
        r = trace_deviation(out)
        # a structural failure counts as at least 1, not as a small residual
        return np.where(is_density_matrix(out, MATRIX_TOL), r, np.maximum(r, 1.0)), draws

    return _scan("channel_cptp", trials, MATRIX_TOL, block, _draw_dict)


def check_channel_reset(rng: np.random.Generator, trials: int) -> CheckResult:
    """Output must equal diag(1-a, a) (A) or diag(b, 1-b) (B) for any input."""
    def block(n):
        draws, rho = _random_channels_and_states(rng, n)
        out = apply_kraus(_kraus_of(draws), rho)
        p, is_a = draws[:, 1], draws[:, 0] < 0.5
        target = np.zeros_like(out)
        target[:, 0, 0] = np.where(is_a, 1.0 - p, p)
        target[:, 1, 1] = np.where(is_a, p, 1.0 - p)
        return max_abs(out - target), draws

    return _scan("channel_reset", trials, MATRIX_TOL, block, _draw_dict)


def check_path_agreement(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        rows = _random_cycle_rows(rng, n)
        return ledger_discrepancy(*_both_ledgers(rows)), rows

    return _scan("path_agreement", trials, PATH_TOL, block, _row_dict)


def check_cycle_closure(rng: np.random.Generator, trials: int) -> CheckResult:
    def block(n):
        rows = _random_cycle_rows(rng, n)
        sums = [s for x in _both_ledgers(rows) for s in (x.energy_closure, x.entropy_closure)]
        return np.max(np.abs(sums), axis=0), rows

    return _scan("cycle_closure", trials, CLOSURE_TOL, block, _row_dict)


def _pcg64_threshold_draws(bitgen: np.random.PCG64, state: dict, n: int):
    """The draws of ``_threshold_draws`` read from one ``random_raw`` call, or None if
    ``integers(3)`` would reject one of its 32-bit draws. ``state`` is the bit
    generator's state before the read.

    ``random()`` is (w >> 11) 2^-53 of one raw 64-bit word w. ``integers(3)``
    is (u 3) >> 32 of a 32-bit u (Lemire's method, which rejects only u = 0
    for a range of 3). u is the buffered ``uinteger`` if the state's
    ``has_uint32`` flag is set, which clears it; otherwise it is the low half
    of a fresh word whose high half is buffered. So a trial takes 4 words when
    it starts with the buffer full and 5 when it starts with it empty, and the
    two alternate. The buffer is written back to the state after the read.
    """
    full = state["has_uint32"]
    i = np.arange(n)
    fresh = (i + 1 - full) % 2 == 1  # trial i starts with an empty buffer
    first = 4 * i + (i + 1 - full) // 2  # trial i's first word
    words = bitgen.random_raw(4 * n + (n + 1 - full) // 2)
    branch_word = words[first + 3]
    high = branch_word >> np.uint64(32)
    buffered = np.concatenate((np.array([state["uinteger"]], np.uint64), high[:-1]))
    u = np.where(fresh, branch_word & np.uint64(0xFFFFFFFF), buffered)
    if not u.all():
        return None
    doubles = (words >> np.uint64(11)) * 2.0**-53
    state = bitgen.state
    state["has_uint32"] = int(fresh[-1])
    state["uinteger"] = int(high[-1] if fresh[-1] else u[-1])
    bitgen.state = state
    return (doubles[first[:, None] + np.arange(3)], (u * np.uint64(3)) >> np.uint64(32),
            doubles[first + 3 + fresh])


def _threshold_draws(rng: np.random.Generator, n: int):
    """n trials of ``rng.random(3)``, ``rng.integers(3)`` and ``rng.random()``, drawn in
    that order: (uniforms (n, 3), branch indices (n,), strengths (n,)).

    On a PCG64 bit generator the n trials are one raw read. Otherwise, or if
    that read meets a 32-bit draw that ``integers(3)`` rejects (probability
    2^-32 per trial), the generator goes back to its state before the read and
    the trials are drawn one by one with the calls themselves.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is np.random.PCG64:
        start = bitgen.state
        drawn = _pcg64_threshold_draws(bitgen, start, n)
        if drawn is not None:
            return drawn
        bitgen.state = start
    uniforms, branches, strengths = np.empty((n, 3)), np.empty(n, np.int64), np.empty(n)
    random, integers = rng.random, rng.integers
    for i in range(n):
        random(out=uniforms[i])
        branches[i] = integers(3)
        strengths[i] = random()
    return uniforms, branches, strengths


def check_threshold_consistency(rng: np.random.Generator, trials: int) -> CheckResult:
    """Interval prediction from the analytic thresholds vs. sign classification.

    Points within ``THRESHOLD_MARGIN`` of a boundary are skipped: there the
    currents legitimately straddle zero. A disagreement counts as residual 1,
    and the first one is the worst case.
    """
    mismatches = 0
    worst_case = None
    for start in range(0, trials, BLOCK):
        uniforms, branches, strength = _threshold_draws(rng, min(BLOCK, trials - start))
        epsilon, tau, temperature = (_THRESHOLD_LOW + _THRESHOLD_SPAN * uniforms).T
        currents = np.empty((3, len(strength)))
        expected = np.empty(len(strength), np.int64)  # a MODES index, or -1: skipped
        for k, branch in enumerate(_BRANCHES):
            at = np.flatnonzero(branches == k)
            if len(at) == 0:
                continue
            s = strength[at]
            th, currents[:, at] = branch_points(branch, epsilon[at], tau[at], temperature[at], s)
            near = np.minimum.reduce([np.abs(s - x) for x in th]) < THRESHOLD_MARGIN
            expected[at] = np.where(near, -1, expected_mode_codes(branch, s, th))
        live = np.flatnonzero(expected >= 0)
        got = mode_codes(*currents[:, live])
        wrong = got != expected[live]
        mismatches += int(np.count_nonzero(wrong))
        if worst_case is None and wrong.any():
            j = int(np.argmax(wrong))
            i = live[j]
            worst_case = {
                "branch": _BRANCHES[branches[i]].value, "epsilon": float(epsilon[i]),
                "tau": float(tau[i]), "temperature": float(temperature[i]),
                "strength": float(strength[i]), "expected": MODES[expected[i]].value,
                "got": MODES[got[j]].value,
            }
    return _result("threshold_consistency", trials, float(mismatches), 0.0, worst_case)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Run every suite on a fresh seeded generator; deterministic per seed.

    A trial count that is not an integer >= 1, or a seed that is not a
    non-negative integer, raises ValueError before anything is drawn. A bool
    is not taken as an integer for either.
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError("trials must be an integer >= 1")
    if not _is_int(seed) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    return [
        check_kraus_completeness(rng, trials),
        check_channel_cptp(rng, trials),
        check_channel_reset(rng, trials),
        check_path_agreement(rng, trials),
        check_cycle_closure(rng, trials),
        check_threshold_consistency(rng, trials),
    ]


def _inputs_dict(inputs: CycleInputs) -> dict:
    return {
        "epsilon": inputs.params.epsilon,
        "tau": inputs.params.tau,
        "temperature": inputs.temperature,
        "a": inputs.a,
        "b": inputs.b,
    }


def _row_dict(row: np.ndarray) -> dict:
    return _inputs_dict(_inputs_of(row))
