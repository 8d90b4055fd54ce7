import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from dqdcycle import channels, qdot, thermo, verify
from dqdcycle.qdot import DotParams, check_dot, hamiltonian, internal_energy
from dqdcycle.thermo import (
    LEDGER_FIELDS,
    CycleInputs,
    ledger_discrepancy,
    run_cycle_closed_form,
    run_cycle_closed_form_batch,
    run_cycle_matrix,
    run_cycle_matrix_batch,
)
from reference import bits, outcome, same

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
cycle_inputs = st.builds(
    CycleInputs,
    params=st.builds(
        DotParams,
        epsilon=st.floats(min_value=1e-3, max_value=3.0),
        tau=st.floats(min_value=0.0, max_value=1.0),
    ),
    temperature=st.floats(min_value=0.5, max_value=6.0),
    a=unit,
    b=unit,
)


def as_columns(batch):
    """The (n, 5) array of epsilon, tau, T, a, b that the batch ledgers take."""
    return np.array([(x.params.epsilon, x.params.tau, x.temperature, x.a, x.b) for x in batch],
                    dtype=float).reshape(-1, 5)


def entropy_gap(a, b) -> np.ndarray:
    """dS3 = h(b) - h(a) of the closed-form batch, one row per element of a and b (at
    epsilon = 1, tau = 0, T = 1)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    ones, zeros = np.ones(a.shape), np.zeros(a.shape)
    return run_cycle_closed_form_batch(np.column_stack((ones, zeros, ones, a, b))).dS3


def entropy(p: float) -> float:
    """h(p) as the closed-form batch computes it: dS3 at a = 0, where h(0) is 0.0, so
    that h(b) - h(a) is h(b) bit for bit."""
    return entropy_gap(0.0, p).item()


def test_binary_entropy_values():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    g = 0.5 * (1.0 - math.tanh(1.0))
    assert entropy(g) == pytest.approx(0.36533385508720767, abs=1e-15)


@given(p=unit)
def test_binary_entropy_symmetric(p):
    """h(p) = h(1 - p), so dS3 vanishes at b = p, a = 1 - p."""
    assert entropy_gap(1.0 - p, p).item() == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf, -math.inf, -5e-324, None])
def test_binary_entropy_domain(bad):
    """A p that the reference h refuses never reaches the batch's entropy columns: the
    batch refuses it as a or as b, with ``CycleInputs``' message (None is a NaN entry of
    a float batch)."""
    for column, name in ((3, "a"), (4, "b")):
        row = [1.0, 0.0, 1.0, 0.5, 0.5]
        row[column] = bad
        got = outcome(run_cycle_closed_form_batch, np.array([row], dtype=float))
        assert got == ("raises", ValueError, f"{name} must be in [0, 1]")
    assert outcome(reference.binary_entropy, bad)[:2] == (
        "raises", TypeError if bad is None else ValueError)


@given(p=unit)
@example(p=0.0)
@example(p=-0.0)
@example(p=1.0)
@example(p=0.5)
@example(p=5e-324)
@example(p=1.0 - 2.0 ** -53)
def test_binary_entropy_equals_the_reference(p):
    """The batch's h(p) is the reference's float, bit for bit, signed zeros included."""
    got = entropy(p)
    assert type(got) is float and same(got, reference.binary_entropy(p))


def test_cycle_inputs_validation():
    p = DotParams(1.0, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        CycleInputs(p, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="a must"):
        CycleInputs(p, 1.0, 1.5, 0.5)
    with pytest.raises(ValueError, match="b must"):
        CycleInputs(p, 1.0, 0.5, -0.5)


def test_closed_form_stroke_energies(rng):
    """At tau=0, T=1, eps=1 the stroke energies reduce to tanh(1) and strengths."""
    t = math.tanh(1.0)
    for _ in range(25):
        a, b = rng.uniform(0, 1, size=2)
        ledger = run_cycle_closed_form(CycleInputs(DotParams(1.0, 0.0), 1.0, a, b))
        assert ledger.dU1 == pytest.approx(-t + (2 * b - 1), abs=1e-14)
        assert ledger.dU2 == pytest.approx(t + (2 * a - 1), abs=1e-14)
        assert ledger.dU3 == pytest.approx(2 * (1 - a - b), abs=1e-14)


@given(inputs=cycle_inputs)
@settings(max_examples=150, deadline=None)
def test_paths_agree(inputs):
    assert ledger_discrepancy(run_cycle_matrix(inputs), run_cycle_closed_form(inputs)) < 1e-10


@given(inputs=cycle_inputs)
@settings(max_examples=100, deadline=None)
def test_cycle_closes(inputs):
    for ledger in (run_cycle_matrix(inputs), run_cycle_closed_form(inputs)):
        assert abs(ledger.energy_closure) < 1e-12
        assert abs(ledger.entropy_closure) < 1e-12


def test_stroke_one_wraps_around():
    """dU1 belongs to the rho3 -> rho1 stroke of the *previous* cycle's end state."""
    inputs = CycleInputs(DotParams(1.2, 0.3), 2.0, 0.4, 0.8)
    ledger = run_cycle_matrix(inputs)
    h = hamiltonian(inputs.params)
    assert ledger.dU1 == pytest.approx(
        internal_energy(h, ledger.rho1) - internal_energy(h, ledger.rho3), abs=1e-15
    )


def test_intermediate_states_are_strength_diagonals():
    inputs = CycleInputs(DotParams(0.8, 0.5), 1.5, a=0.35, b=0.9)
    ledger = run_cycle_matrix(inputs)
    np.testing.assert_allclose(ledger.rho2, np.diag([0.65, 0.35]), atol=1e-15)
    np.testing.assert_allclose(ledger.rho3, np.diag([0.9, 0.1]), atol=1e-15)


@pytest.mark.parametrize("a", [0.0, 0.12, 0.5, 0.77, 1.0])
def test_equal_strengths_make_third_stroke_isentropic(a):
    inputs = CycleInputs(DotParams(1.0, 0.4), 2.0, a, a)
    assert run_cycle_closed_form(inputs).dS3 == 0.0
    assert abs(run_cycle_matrix(inputs).dS3) <= 1e-15


def test_balanced_strengths_idle_third_stroke():
    """a = b = 1/2 leaves stroke 3 with no energy or entropy exchange."""
    ledger = run_cycle_closed_form(CycleInputs(DotParams(2.0, 0.1), 1.0, 0.5, 0.5))
    assert ledger.dU3 == 0.0
    assert ledger.dS3 == 0.0


def test_ledger_discrepancy_metric():
    inputs = CycleInputs(DotParams(1.0, 0.0), 1.0, 0.3, 0.6)
    ledger = run_cycle_closed_form(inputs)
    assert ledger_discrepancy(ledger, ledger) == 0.0
    bumped = dataclasses.replace(ledger, dS2=ledger.dS2 + 1e-3)
    assert ledger_discrepancy(ledger, bumped) == pytest.approx(1e-3)


def test_only_matrix_ledger_carries_states():
    """The closed form builds no states; the matrix route's match its populations."""
    inputs = CycleInputs(DotParams(1.4, 0.7), 3.0, 0.25, 0.65)
    closed = run_cycle_closed_form(inputs)
    assert (closed.rho1, closed.rho2, closed.rho3) == (None, None, None)
    matrix = run_cycle_matrix(inputs)
    g = 0.5 * (1.0 - math.tanh(math.hypot(1.4, 0.7) / 3.0))
    np.testing.assert_allclose(np.linalg.eigvalsh(matrix.rho1), [g, 1.0 - g], atol=1e-15)
    np.testing.assert_allclose(matrix.rho2, np.diag([0.75, 0.25]), atol=1e-15)
    np.testing.assert_allclose(matrix.rho3, np.diag([0.65, 0.35]), atol=1e-15)


def test_matrix_route_is_real():
    """H, the eigenvectors, the Gibbs state, the Kraus operators and the three states of
    the matrix route are all float64: the dot's H and every Kraus operator are real."""
    params = DotParams(np.array([1.4, -0.3]), np.array([0.7, 0.0]))
    batch = np.array([[1.4, 0.7, 3.0, 0.25, 0.65], [-0.3, 0.0, 0.5, 1.0, 0.0]])
    ledger = run_cycle_matrix_batch(batch)
    arrays = [hamiltonian(params), qdot.gibbs_state(params, 2.0),
              *qdot.spectrum(DotParams(1.4, 0.7)).eigenvectors,
              *channels.kraus_operators(channels.MeasurementChannel(0.25, channels.Orientation.B)),
              ledger.rho1, ledger.rho2, ledger.rho3]
    assert [x.dtype for x in arrays] == [np.float64] * len(arrays)


def test_closed_form_builds_no_spectrum(monkeypatch):
    """E comes from math.hypot, so no eigenvectors are built for the closed form."""
    points = [CycleInputs(DotParams(eps, tau), temperature, 0.3, 0.8)
              for eps, tau, temperature in [(1.0, 0.5, 2.0), (0.0, 0.0, 1.0), (-2.0, 0.3, 0.7),
                                            (1e6, 3e5, 4e5), (1e-9, 0.0, 2e-9)]]
    expected = [run_cycle_closed_form(inputs) for inputs in points]

    def forbidden(params):
        raise AssertionError("spectrum called")

    monkeypatch.setattr(thermo, "spectrum", forbidden)
    assert [run_cycle_closed_form(inputs) for inputs in points] == expected


def test_matrix_batch_equals_scalar_ledger(rng):
    """Every field and state of the batch ledger equals reference.run_cycle_matrix's with ==,
    including epsilon = tau = 0 (the theta = 0 convention), negative detuning,
    strengths at 0 and 1, and temperatures far from the energy scale."""
    grid = itertools.product((0.0, -1.3, 0.7, 2e6), (0.0, 0.4, 1e-9), (1e-3, 1.0, 1e3),
                             (0.0, 1.0, 0.35), (0.0, 1.0, 0.8))
    batch = [CycleInputs(DotParams(eps, tau), temperature, a, b)
             for eps, tau, temperature, a, b in grid]
    batch += [CycleInputs(DotParams(float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1))),
                          float(rng.uniform(0.05, 6)), float(rng.uniform()), float(rng.uniform()))
              for _ in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger = run_cycle_matrix_batch(as_columns(batch))
        expected = [reference.run_cycle_matrix(inputs) for inputs in batch]
    for i, ref in enumerate(expected):
        for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3"):
            assert getattr(ledger, f)[i] == getattr(ref, f), (i, f)
        for f in ("rho1", "rho2", "rho3"):
            np.testing.assert_array_equal(getattr(ledger, f)[i], getattr(ref, f))


def test_closed_form_batch_equals_scalar_ledger(rng):
    """Every field of the closed-form batch ledger equals reference.run_cycle_closed_form's
    with ==, on the same edge grid as the matrix batch, plus near-pure and huge-E/T points."""
    grid = itertools.product((0.0, -1.3, 0.7, 2e6), (0.0, 0.4, 1e-9), (1e-3, 1.0, 1e3),
                             (0.0, 1.0, 0.35, 1e-300), (0.0, 1.0, 0.8, 1.0 - 2.0 ** -53))
    batch = [CycleInputs(DotParams(eps, tau), temperature, a, b)
             for eps, tau, temperature, a, b in grid]
    batch += [CycleInputs(DotParams(float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1))),
                          float(rng.uniform(0.05, 6)), float(rng.uniform()), float(rng.uniform()))
              for _ in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger = run_cycle_closed_form_batch(as_columns(batch))
    expected = [reference.run_cycle_closed_form(inputs) for inputs in batch]
    for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3"):
        got = getattr(ledger, f)
        assert got.shape == (len(batch),) and got.dtype == np.float64
        assert got.tolist() == [getattr(ref, f) for ref in expected], f
        assert np.signbit(got).tolist() == [math.copysign(1.0, getattr(ref, f)) < 0
                                            for ref in expected], f
    assert ledger.rho1 is ledger.rho2 is ledger.rho3 is None


energy = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                   st.floats(min_value=-1e300, max_value=1e300))
wide_cycle_inputs = st.builds(
    CycleInputs,
    params=st.builds(DotParams, epsilon=energy, tau=energy),
    temperature=st.one_of(st.floats(min_value=0.05, max_value=6.0),
                          st.floats(min_value=5e-324, max_value=1e300)),
    a=unit,
    b=unit,
)


@given(inputs=wide_cycle_inputs)
@example(inputs=CycleInputs(DotParams(1.0, 0.4), 2.0, 0.5, 0.5))
@example(inputs=CycleInputs(DotParams(0.0, 0.0), 1.0, 0.3, 0.8))
@example(inputs=CycleInputs(DotParams(-1.3, 0.4), 1e-3, 0.0, 1.0))
@example(inputs=CycleInputs(DotParams(2e6, 1e-9), 1e3, 1.0, 0.0))
@example(inputs=CycleInputs(DotParams(0.7, 0.0), 1.0, 1e-300, 1.0 - 2.0 ** -53))
@example(inputs=CycleInputs(DotParams(1e300, 1e300), 1e-300, 0.3, 0.6))
@settings(max_examples=100, deadline=None)
def test_one_row_ledgers_equal_the_reference(inputs):
    """``run_cycle_closed_form`` and ``run_cycle_matrix``, one-row calls of the batch
    kernels, return the reference's ledger: Python floats with its bits and signed
    zeros, its 2x2 states (None for the closed form), and its warnings."""
    for name in ("run_cycle_closed_form", "run_cycle_matrix"):
        got = outcome(getattr(thermo, name), inputs)
        assert got[0] == "returns", (name, got)
        assert all(type(getattr(got[1], f)) is float
                   for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3")), name
        assert same(got, outcome(getattr(reference, name), inputs)), name


def test_ledgers_are_finite_up_to_the_scale_bound():
    """At every E = hypot(epsilon, tau) that ``check_dot`` lets through, up to the
    bound itself, both ledgers, their closures and their discrepancy are finite, and no
    step warns: the bound of its docstring holds."""
    limit = sys.float_info.max / 4.0
    angles = np.linspace(0.0, 2.0 * math.pi, 97)
    points = [(r * math.cos(phi), r * math.sin(phi)) for phi in angles.tolist()
              for r in (limit, limit * (1.0 - 2.0 ** -40), 1e307)]
    rows = np.array([(eps, tau, temperature, a, b) for eps, tau in points
                     for temperature in (1.0, 1e300) for a, b in ((0.3, 0.6), (1.0, 0.0),
                                                                 (0.0, 0.0), (0.5, 1.0))])
    check_dot(rows[:, 0], rows[:, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed, matrix = run_cycle_closed_form_batch(rows), run_cycle_matrix_batch(rows)
        values = [ledger_discrepancy(closed, matrix)]
        for ledger in (closed, matrix):
            values += [getattr(ledger, f) for f in LEDGER_FIELDS]
            values += [ledger.energy_closure, ledger.entropy_closure]
    assert np.isfinite(values).all()


@pytest.mark.parametrize("batch_ledger", [run_cycle_closed_form_batch, run_cycle_matrix_batch])
def test_empty_batch_gives_empty_ledger(batch_ledger):
    ledger = batch_ledger(np.empty((0, 5)))
    for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3"):
        assert getattr(ledger, f).shape == (0,)
    assert ledger.energy_closure.shape == ledger.entropy_closure.shape == (0,)
    if batch_ledger is run_cycle_matrix_batch:
        assert [getattr(ledger, f).shape for f in ("rho1", "rho2", "rho3")] == [(0, 2, 2)] * 3
    assert ledger_discrepancy(ledger, ledger).shape == (0,)


def test_batches_call_the_kraus_source_once_per_channel_family(monkeypatch):
    """The matrix batch reaches channels.kraus_operators at call time, once for channel
    A (with every a) and once for channel B (with every b)."""
    batch = [CycleInputs(DotParams(1.0, 0.2), 1.5, a, b) for a, b in ((0.1, 0.6), (0.5, 0.2))]
    calls = []

    def counted(ch):
        calls.append((ch.orientation.value, np.asarray(ch.strength).tolist()))
        return honest(ch)

    honest = channels.kraus_operators
    monkeypatch.setattr(channels, "kraus_operators", counted)
    run_cycle_matrix_batch(as_columns(batch))
    run_cycle_closed_form_batch(as_columns(batch))
    assert calls == [("A", [0.1, 0.5]), ("B", [0.6, 0.2])]


def test_ledger_discrepancy_of_batches_is_per_entry():
    batch = [CycleInputs(DotParams(1.0, 0.2), 1.5, a, 0.4) for a in (0.1, 0.5, 0.9)]
    matrix = run_cycle_matrix_batch(as_columns(batch))
    closed = [reference.run_cycle_closed_form(inputs) for inputs in batch]
    per_entry = [ledger_discrepancy(c, reference.run_cycle_matrix(x))
                 for c, x in zip(closed, batch)]
    stacked = dataclasses.replace(
        matrix, **{f: np.array([getattr(c, f) for c in closed])
                   for f in ("dU1", "dU2", "dU3", "dS1", "dS2", "dS3")})
    assert ledger_discrepancy(stacked, matrix).tolist() == per_entry
    nan = dataclasses.replace(closed[0], dS2=math.nan)
    assert math.isnan(ledger_discrepancy(nan, closed[0]))
    assert math.isnan(ledger_discrepancy(closed[0], nan))


@pytest.mark.parametrize("column, value, message", [
    (0, math.inf, "epsilon and tau must be finite"),
    (1, math.nan, "epsilon and tau must be finite"),
    (2, 0.0, "temperature must be positive"),
    (2, math.inf, "temperature must be positive"),
    (3, -0.1, "a must be in"),
    (3, math.nan, "a must be in"),
    (4, 1.5, "b must be in"),
])
@pytest.mark.parametrize("batch_ledger", [run_cycle_closed_form_batch, run_cycle_matrix_batch])
def test_batches_validate_columns_like_cycle_inputs(batch_ledger, column, value, message):
    """A bad entry in any row is refused with the scalar constructors' message."""
    rows = as_columns([CycleInputs(DotParams(1.0, 0.2), 1.5, 0.3, 0.6)] * 3)
    rows[1, column] = value
    with pytest.raises(ValueError, match=message):
        CycleInputs(DotParams(rows[1, 0], rows[1, 1]), *rows[1, 2:].tolist())
    with pytest.raises(ValueError, match=message):
        batch_ledger(rows)


@pytest.mark.parametrize("batch_ledger", [run_cycle_closed_form_batch, run_cycle_matrix_batch])
@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 5, 1)])
def test_batches_take_n_by_5_arrays_only(batch_ledger, shape):
    with pytest.raises(ValueError, match=r"\(n, 5\)"):
        batch_ledger(np.full(shape, 0.5))


def cycle_rows(k: int, n: int = 2000) -> np.ndarray:
    """``n`` rows drawn as verify's cycle pass draws them, with epsilon, tau and T
    multiplied by 2^k."""
    rows = np.random.default_rng(9).uniform(verify._CYCLE_LOW, verify._CYCLE_HIGH, (n, 5))
    rows[:, :3] = np.ldexp(rows[:, :3], k)
    return rows


@pytest.mark.parametrize("batch_ledger, k", [
    *((run_cycle_closed_form_batch, k) for k in (-60, -30, 20, 700, 900)),
    *((run_cycle_matrix_batch, k) for k in (-60, -40, 40, 700)),
])
def test_ledger_energies_scale_exactly(batch_ledger, k):
    """Multiplying epsilon, tau and T by 2^k multiplies every dU by 2^k and leaves every
    dS as it is, bit for bit: scaling by a power of two is exact, and so is every + - * /
    after it, while hypot scales and E/T does not change."""
    base, scaled = batch_ledger(cycle_rows(0)), batch_ledger(cycle_rows(k))
    for f in LEDGER_FIELDS:
        want = getattr(base, f)
        if f.startswith("dU"):
            want = np.ldexp(want, k)
        assert np.array_equal(bits(getattr(scaled, f)), bits(want)), f


@pytest.mark.parametrize("batch_ledger", [run_cycle_closed_form_batch, run_cycle_matrix_batch])
def test_ledgers_ignore_the_sign_of_tau(batch_ledger):
    """tau enters only through E = hypot(epsilon, tau), so -tau gives every ledger field's
    bits."""
    rows = cycle_rows(0)
    flipped = rows.copy()
    flipped[:, 1] = -rows[:, 1]
    ledger, mirrored = batch_ledger(rows), batch_ledger(flipped)
    for f in LEDGER_FIELDS:
        assert np.array_equal(bits(getattr(mirrored, f)), bits(getattr(ledger, f))), f
