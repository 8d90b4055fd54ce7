import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqdcycle import channels
from dqdcycle.channels import (
    MeasurementChannel,
    Orientation,
    apply_channel,
    apply_kraus,
    completeness_residual,
    kraus_operators,
    kraus_stack,
)
from dqdcycle.qdot import DotParams, dagger, gibbs_state, is_density_matrix, max_abs

strengths = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def random_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("orientation", list(Orientation))
def test_four_kraus_operators(orientation):
    ops = kraus_operators(MeasurementChannel(0.3, orientation))
    assert len(ops) == 4
    assert all(op.shape == (2, 2) and op.dtype == np.complex128 for op in ops)


# The module docstring's definitions: (keep or flip, row, column) of each
# operator, in list order. keep = sqrt(1 - strength), flip = sqrt(strength).
DEFINITIONS = {
    Orientation.A: [("keep", 0, 0), ("keep", 0, 1), ("flip", 1, 1), ("flip", 1, 0)],  # M1..M4
    Orientation.B: [("keep", 1, 1), ("keep", 1, 0), ("flip", 0, 0), ("flip", 0, 1)],  # N1..N4
}


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("strength", [0.0, 0.3, 1.0])
def test_kraus_operators_match_docstring_definitions(orientation, strength):
    factor = {"keep": math.sqrt(1.0 - strength), "flip": math.sqrt(strength)}
    expected = []
    for which, row, col in DEFINITIONS[orientation]:
        m = np.zeros((2, 2), dtype=np.complex128)
        m[row, col] = factor[which]
        expected.append(m)
    ops = kraus_operators(MeasurementChannel(strength, orientation))
    assert len(ops) == 4
    for op, m in zip(ops, expected):
        assert op.dtype == np.complex128
        assert (op == m).all()


def test_kraus_operators_call_no_numpy(monkeypatch):
    """The operators are scalar multiples of constant matrix units: no ket, no np.outer."""
    chans = [MeasurementChannel(p, o) for o in Orientation for p in (0.3, np.array([0.3, 0.7]))]

    def forbidden(*args, **kwargs):
        raise AssertionError("a ket, an outer product or a matrix built from a list")

    for name in ("outer", "array"):
        monkeypatch.setattr(np, name, forbidden)
    for ch in chans:
        assert len(kraus_operators(ch)) == 4
    assert not [name for name in vars(channels) if "KET" in name.upper()]


@given(strength=strengths, orientation=st.sampled_from(list(Orientation)))
def test_kraus_completeness(strength, orientation):
    ops = kraus_operators(MeasurementChannel(strength, orientation))
    assert completeness_residual(ops) < 1e-14


@given(strength=strengths)
def test_channel_a_output_is_strength_diagonal(strength):
    rho = gibbs_state(DotParams(1.0, 0.6), 2.0)
    out = apply_channel(MeasurementChannel(strength, Orientation.A), rho)
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0  # coherences destroyed exactly
    assert out[0, 0].real == pytest.approx(1.0 - strength, abs=1e-15)
    assert out[1, 1].real == pytest.approx(strength, abs=1e-15)


@given(strength=strengths)
def test_channel_b_output_is_strength_diagonal(strength):
    rho = gibbs_state(DotParams(0.4, 0.2), 1.0)
    out = apply_channel(MeasurementChannel(strength, Orientation.B), rho)
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0
    assert out[0, 0].real == pytest.approx(strength, abs=1e-15)
    assert out[1, 1].real == pytest.approx(1.0 - strength, abs=1e-15)


def test_channel_erases_input(rng):
    """Any two inputs give the same output: the channel is a reset map."""
    for orientation in Orientation:
        ch = MeasurementChannel(float(rng.uniform(0, 1)), orientation)
        for _ in range(50):
            out1 = apply_channel(ch, random_state(rng))
            out2 = apply_channel(ch, random_state(rng))
            assert max_abs(out1 - out2) < 1e-14


def test_composition_forgets_first_channel(rng):
    """Phi_B after Phi_A depends only on b."""
    rho = random_state(rng)
    for a in (0.0, 0.3, 1.0):
        mid = apply_channel(MeasurementChannel(a, Orientation.A), rho)
        out = apply_channel(MeasurementChannel(0.75, Orientation.B), mid)
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-15)


def test_outputs_are_states(rng):
    for _ in range(100):
        ch = MeasurementChannel(float(rng.uniform(0, 1)),
                                Orientation.A if rng.random() < 0.5 else Orientation.B)
        out = apply_channel(ch, random_state(rng))
        assert is_density_matrix(out, 1e-13)
        assert abs(complex(np.trace(out)) - 1.0) < 1e-14


def test_extreme_strengths_are_projective_resets():
    rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
    out0 = apply_channel(MeasurementChannel(0.0, Orientation.A), rho)
    np.testing.assert_allclose(out0, np.diag([1.0, 0.0]), atol=1e-15)
    out1 = apply_channel(MeasurementChannel(1.0, Orientation.A), rho)
    np.testing.assert_allclose(out1, np.diag([0.0, 1.0]), atol=1e-15)


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_strength_domain_checked(bad):
    with pytest.raises(ValueError, match="strength"):
        MeasurementChannel(bad, Orientation.A)


def test_apply_kraus_with_partial_set_loses_trace():
    ops = kraus_operators(MeasurementChannel(0.4, Orientation.A))[:3]
    out = apply_kraus(ops, 0.5 * np.eye(2, dtype=complex))
    assert np.trace(out).real < 1.0 - 0.1


def test_kraus_stack_applies_each_channel_to_its_state(rng, monkeypatch):
    """Stacked Kraus sets act like the sets one at a time; shorter sets are zero-padded."""
    strength = rng.uniform(size=12)
    is_a = np.array([True, True, False] * 4)
    chans = [MeasurementChannel(float(p), Orientation.A if a else Orientation.B)
             for p, a in zip(strength, is_a)]
    states = np.array([random_state(rng) for _ in chans])
    honest = kraus_operators

    def uneven(ch):
        """A set's size may depend on the orientation, never on one element's strength."""
        ops = honest(ch)
        return ops[:2] if ch.orientation is Orientation.A else ops + [0.0 * ops[0]] * 2

    for source in (honest, uneven):
        monkeypatch.setattr(channels, "kraus_operators", source)
        stack = kraus_stack(strength, is_a)
        assert stack.shape == (max(len(source(ch)) for ch in chans), len(chans), 2, 2)
        out = apply_kraus(stack, states)
        residuals = completeness_residual(stack)
        for i, ch in enumerate(chans):
            np.testing.assert_array_equal(out[i], apply_kraus(source(ch), states[i]))
            assert residuals[i] == completeness_residual(source(ch))
    monkeypatch.setattr(channels, "kraus_operators", lambda ch: [])
    assert completeness_residual(kraus_stack(strength[:3], is_a[:3])).tolist() == [1.0] * 3


@pytest.mark.parametrize("is_a", [[True, False, True, False], [True] * 4, [False] * 4, []])
def test_kraus_stack_calls_the_source_once_per_orientation(monkeypatch, is_a):
    is_a = np.array(is_a, dtype=bool)
    strength = np.linspace(0.1, 0.9, len(is_a))
    calls = []

    def counted(ch):
        calls.append((ch.orientation, ch.strength.tolist()))
        return kraus_operators(ch)

    monkeypatch.setattr(channels, "kraus_operators", counted)
    stack = kraus_stack(strength, is_a)
    assert calls == [(o, strength[mask].tolist())
                     for o, mask in ((Orientation.A, is_a), (Orientation.B, ~is_a)) if mask.any()]
    assert stack.shape == ((4 if len(is_a) else 0), len(is_a), 2, 2)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_array_strengths_give_the_scalar_operators(orientation):
    """0-d and 1-d strengths give, element by element, the operators of scalar calls with ==."""
    strengths = [0.0, 1.0, 0.3, 0.5, 1e-300, 5e-324, 1.0 - 2.0 ** -53, 0.7071067811865476]
    strengths += np.random.default_rng(9).uniform(size=50).tolist()
    stacked = kraus_operators(MeasurementChannel(np.array(strengths), orientation))
    assert len(stacked) == 4
    for i, p in enumerate(strengths):
        scalar = kraus_operators(MeasurementChannel(p, orientation))
        zero_d = kraus_operators(MeasurementChannel(np.float64(p), orientation))
        zero_d_array = kraus_operators(MeasurementChannel(np.array(p), orientation))
        for k, op in enumerate(scalar):
            assert op.shape == (2, 2) and op.dtype == np.complex128
            assert stacked[k].shape == (len(strengths), 2, 2)
            assert stacked[k].dtype == np.complex128
            for other in (stacked[k][i], zero_d[k], zero_d_array[k]):
                assert other.shape == (2, 2)
                assert (other == op).all() and (np.signbit(other.real) == np.signbit(op.real)).all()
    empty = kraus_operators(MeasurementChannel(np.array([]), orientation))
    assert [op.shape for op in empty] == [(0, 2, 2)] * 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.1, -5e-324])
def test_array_strength_domain_checked(bad):
    for strength in (np.array([0.2, bad, 0.5]), np.array([bad]), np.array(bad)):
        with pytest.raises(ValueError, match=r"^strength must be in \[0, 1\]$"):
            MeasurementChannel(strength, Orientation.B)
    MeasurementChannel(np.array([0.0, 0.5, 1.0]), Orientation.A)
    MeasurementChannel(np.array([]), Orientation.A)


def test_scalar_channel_equality_and_hash():
    a = MeasurementChannel(0.3, Orientation.A)
    assert a == MeasurementChannel(0.3, Orientation.A)
    assert hash(a) == hash(MeasurementChannel(0.3, Orientation.A)) == hash((0.3, Orientation.A))
    assert a != MeasurementChannel(0.3, Orientation.B)
    assert a != MeasurementChannel(0.30000000000000004, Orientation.A)
    assert len({a, MeasurementChannel(0.3, Orientation.A), MeasurementChannel(0.3, Orientation.B)}) == 2
    assert MeasurementChannel(0, Orientation.A) == MeasurementChannel(0.0, Orientation.A)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.strength = 0.5


KERNEL_STRENGTHS = np.array([0.0, 1.0, 0.35, 1e-300, 1.0 - 2.0 ** -53])


def bits(x):
    """The raw IEEE bits of a float or an array, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float).view(np.int64)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_kernel_equals_matmul_bit_for_bit(rng, orientation):
    """apply_kraus and completeness_residual skip @; on honest Kraus sets they still give
    the bits of m @ rho @ dagger(m) and dagger(m) @ m, summed in the same order, on one
    matrix and on stacks of dense random states."""
    states = np.array([random_state(rng) for _ in range(64)])
    for p in KERNEL_STRENGTHS.tolist():
        ops = kraus_operators(MeasurementChannel(p, orientation))
        for rho in states:
            ref = np.zeros_like(rho)
            for m in ops:
                ref += m @ rho @ dagger(m)
            np.testing.assert_array_equal(bits(apply_kraus(ops, rho)), bits(ref))
        acc = np.zeros((2, 2), dtype=complex)
        for m in ops:
            acc += dagger(m) @ m
        assert bits(completeness_residual(ops)) == bits(max_abs(acc - np.eye(2)))

    strength = np.resize(KERNEL_STRENGTHS, len(states))
    ops = kraus_operators(MeasurementChannel(strength, orientation))
    ref, acc = np.zeros_like(states), np.zeros_like(states)
    for m in ops:
        ref += m @ states @ dagger(m)
        acc += dagger(m) @ m
    np.testing.assert_array_equal(bits(apply_kraus(ops, states)), bits(ref))
    np.testing.assert_array_equal(bits(completeness_residual(ops)),
                                  bits(max_abs(acc - np.eye(2))))
