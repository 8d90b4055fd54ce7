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
from dqdcycle.qdot import DotParams, gibbs_state, is_density_matrix, max_abs

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

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used")

    monkeypatch.setattr(channels, "np", NoNumpy())
    for orientation in Orientation:
        assert len(kraus_operators(MeasurementChannel(0.3, orientation))) == 4


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
    chans = [MeasurementChannel(float(rng.uniform()), o) for o in list(Orientation) * 6]
    states = np.array([random_state(rng) for _ in chans])
    honest = kraus_operators

    def uneven(ch):
        ops = honest(ch)
        return ops[: 2 + int(4 * ch.strength)]

    for source in (honest, uneven):
        monkeypatch.setattr(channels, "kraus_operators", source)
        stack = kraus_stack(chans)
        assert stack.shape == (max(len(source(ch)) for ch in chans), len(chans), 2, 2)
        out = apply_kraus(stack, states)
        residuals = completeness_residual(stack)
        for i, ch in enumerate(chans):
            np.testing.assert_array_equal(out[i], apply_kraus(source(ch), states[i]))
            assert residuals[i] == completeness_residual(source(ch))
    monkeypatch.setattr(channels, "kraus_operators", lambda ch: [])
    assert completeness_residual(kraus_stack(chans[:3])).tolist() == [1.0] * 3
