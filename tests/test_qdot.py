import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import reference
from dqdcycle.qdot import (
    DotParams,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    eigenbases,
    gibbs_state,
    hamiltonian,
    internal_energy,
    is_density_matrix,
    is_hermitian,
    matmul2,
    max_abs,
    spectrum,
    thermal_factors,
    trace2,
    trace_deviation,
    von_neumann_entropy,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def test_hamiltonian_matrix():
    h = hamiltonian(DotParams(epsilon=1.5, tau=0.25))
    np.testing.assert_allclose(h, np.array([[-1.5, 0.25], [0.25, 1.5]]))
    assert is_hermitian(h)
    assert abs(np.trace(h)) == 0.0


def test_hamiltonian_pauli_decomposition():
    p = DotParams(0.7, 0.3)
    np.testing.assert_array_equal(hamiltonian(p), -p.epsilon * SIGMA_Z + p.tau * SIGMA_X)


@given(epsilon=finite, tau=finite)
def test_spectrum_solves_eigenproblem(epsilon, tau):
    p = DotParams(epsilon, tau)
    h = hamiltonian(p)
    spec = spectrum(p)
    assert spec.gap == pytest.approx(math.hypot(epsilon, tau), abs=0.0)
    for value, vec in zip(spec.eigenvalues, spec.eigenvectors):
        assert max_abs(h @ vec - value * vec) < 1e-12


@given(epsilon=finite, tau=finite)
def test_spectrum_eigenvectors_orthonormal(epsilon, tau):
    spec = spectrum(DotParams(epsilon, tau))
    phi1, phi2 = spec.eigenvectors
    assert np.vdot(phi1, phi1).real == pytest.approx(1.0, abs=1e-15)
    assert np.vdot(phi2, phi2).real == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(phi1, phi2)) < 1e-15


def test_spectrum_zero_tunneling_localizes():
    """At tau = 0 the eigenstates are the charge states themselves."""
    spec = spectrum(DotParams(1.0, 0.0))
    assert spec.theta == pytest.approx(math.pi / 2)
    phi1, phi2 = spec.eigenvectors
    np.testing.assert_allclose(phi1, [0.0, 1.0], atol=1e-15)  # +E is |1>
    np.testing.assert_allclose(phi2, [1.0, 0.0], atol=1e-15)  # -E is |0>
    assert not spec.degenerate


def test_spectrum_degenerate_point():
    spec = spectrum(DotParams(0.0, 0.0))
    assert spec.degenerate
    assert spec.gap == 0.0
    assert spec.theta == 0.0


def test_spectrum_symmetric_point():
    spec = spectrum(DotParams(0.0, 1.0))
    assert spec.theta == pytest.approx(math.pi / 4)
    assert spec.gap == 1.0


def test_dot_params_rejects_nonfinite():
    with pytest.raises(ValueError):
        DotParams(math.nan, 0.0)
    with pytest.raises(ValueError):
        DotParams(0.0, math.inf)


any_float = st.floats(allow_nan=False, allow_infinity=False)
LIMIT = sys.float_info.max / 4.0  # the largest E = hypot(epsilon, tau) a DotParams takes
TOO_LARGE = ("^epsilon and tau too large: the cycle ledgers need"
             r" hypot\(epsilon, tau\) <= 4\.49423e\+307$")


@given(epsilon=st.one_of(finite, any_float), tau=st.one_of(finite, any_float),
       temperature=st.one_of(st.floats(min_value=0.2, max_value=8.0),
                             st.floats(min_value=5e-324, max_value=1e308)))
@example(0.0, 0.0, 1.0)
@example(-0.0, -0.0, 1.0)
@example(-1.0, 0.0, 1.0)
@example(1.7e308, 1.7e308, 1.0)  # E past the bound: refused
@example(LIMIT, 0.0, 1.0)  # E at the bound
@example(1.0, 0.5, 5e-324)  # E/T overflows to inf
@settings(max_examples=200)
def test_spectrum_and_gibbs_state_equal_the_reference(epsilon, tau, temperature):
    """``spectrum`` and ``gibbs_state``, kernel calls at one point, give the bits of the
    scalar half-angle construction, signed zeros included, and Python floats. A point
    whose E is past the ledger scale bound is refused by ``DotParams``."""
    if math.hypot(epsilon, tau) > LIMIT:
        with pytest.raises(ValueError, match=TOO_LARGE):
            DotParams(epsilon, tau)
        return
    p = DotParams(epsilon, tau)
    gap, theta, phi1, phi2 = reference.eigenbasis(epsilon, tau)
    spec = spectrum(p)
    assert reference.same((spec.gap, spec.theta, spec.eigenvalues), (gap, theta, (gap, -gap)))
    assert all(map(reference.same, spec.eigenvectors, (phi1, phi2)))
    assert spec.degenerate is (gap == 0.0)
    assert reference.same(reference.outcome(gibbs_state, p, temperature),
                          reference.outcome(reference.gibbs_state, p, temperature))


def test_hamiltonian_and_gibbs_state_of_arrays_stack_the_one_point_results():
    """A ``DotParams`` of (n,) arrays gives the (n, 2, 2) stack of the one-point
    ``hamiltonian`` and ``gibbs_state``, and those equal the scalar references, bit for
    bit: tau = 0, signed zeros, E at the ledger scale bound and E/T overflowing to inf
    included, and with no warning. Every pair whose E is past the bound is refused, alone
    and in an array."""
    values = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 5e-324, 1e300, LIMIT, -LIMIT, 1.7e308, -1.7e308]
    pairs = list(itertools.product(values, values))
    beyond = [(e, t) for e, t in pairs if math.hypot(e, t) > LIMIT]
    for e, t in beyond:
        with pytest.raises(ValueError, match=TOO_LARGE):
            DotParams(e, t)
    with pytest.raises(ValueError, match=TOO_LARGE):
        DotParams(*(np.array(x) for x in zip(*beyond)))
    inside = [(e, t) for e, t in pairs if math.hypot(e, t) <= LIMIT]
    epsilon, tau = (np.array(x) for x in zip(*inside))
    temperature = np.resize([1.0, 5e-324, 1e300, 0.7], epsilon.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hamiltonian(DotParams(epsilon, tau))
        rho = gibbs_state(DotParams(epsilon, tau), temperature)
        assert h.shape == rho.shape == (len(epsilon), 2, 2)
        for i, (e, t, temp) in enumerate(zip(*(x.tolist() for x in (epsilon, tau, temperature)))):
            p = DotParams(e, t)
            assert reference.same(hamiltonian(p), reference.hamiltonian(p)), (e, t)
            assert reference.same(h[i], hamiltonian(p)), (e, t)
            assert reference.same(gibbs_state(p, temp), reference.gibbs_state(p, temp)), (e, t)
            assert reference.same(rho[i], gibbs_state(p, temp)), (e, t, temp)
    empty = DotParams(np.empty(0), np.empty(0))
    assert hamiltonian(empty).shape == gibbs_state(empty, np.empty(0)).shape == (0, 2, 2)


def test_dot_params_bound_the_gap():
    """E = hypot(epsilon, tau) up to a quarter of the largest float passes, and any E
    above it, inf included, is refused: for floats and, anywhere in them, for arrays."""
    DotParams(LIMIT, 0.0)
    DotParams(-0.0, -LIMIT)
    DotParams(np.array([1.0, 0.0, LIMIT]), np.array([0.5, -LIMIT, 0.0]))
    DotParams(np.empty(0), np.empty(0))
    for epsilon, tau in [(np.nextafter(LIMIT, math.inf), 0.0), (LIMIT, 1e307), (1e308, 1e308),
                         (1.7e308, 1.7e308), (0.0, -1.7e308)]:
        with pytest.raises(ValueError, match=TOO_LARGE):
            DotParams(epsilon, tau)
        with pytest.raises(ValueError, match=TOO_LARGE):
            DotParams(np.array([1.0, epsilon]), np.array([0.0, tau]))


def test_kernels_equal_the_reference_element_by_element():
    """``thermal_factors`` and ``eigenbases`` on arrays give, element by element, the
    bits of the scalar construction, and warn on no overflow."""
    values = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308]
    epsilon, tau = (np.array(x) for x in zip(*[(e, t) for e in values for t in values]))
    temperature = np.resize([1.0, 5e-324, 1e300, 0.7], epsilon.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap, t = thermal_factors(epsilon, tau, temperature)
        theta, phi1, phi2 = eigenbases(epsilon, tau, gap)
    assert phi1.shape == phi2.shape == (len(epsilon), 2)
    for i, (e, tu, temp) in enumerate(zip(epsilon.tolist(), tau.tolist(), temperature.tolist())):
        ref = reference.eigenbasis(e, tu)
        got = (gap[i].item(), theta[i].item(), phi1[i].copy(), phi2[i].copy())
        assert reference.same(got, ref), (e, tu)
        assert reference.same(t[i].item(), math.tanh(ref[0] / temp))


def test_gibbs_matches_matrix_exponential(rng):
    """Cross-check the spectral construction against expm(-H/T)/Z."""
    for _ in range(200):
        p = DotParams(float(rng.uniform(-3, 3)), float(rng.uniform(-2, 2)))
        temperature = float(rng.uniform(0.3, 8.0))
        direct = expm(-hamiltonian(p) / temperature)
        direct /= np.trace(direct)
        assert max_abs(gibbs_state(p, temperature) - direct) < 1e-12


def test_gibbs_localized_populations():
    rho = gibbs_state(DotParams(1.0, 0.0), 1.0)
    assert rho[0, 0].real == pytest.approx(0.8807970779778824, abs=1e-15)
    assert rho[1, 1].real == pytest.approx(0.11920292202211756, abs=1e-15)
    assert abs(rho[0, 1]) < 1e-16


def test_gibbs_is_state(rng):
    for _ in range(100):
        p = DotParams(float(rng.uniform(-3, 3)), float(rng.uniform(0, 2)))
        assert is_density_matrix(gibbs_state(p, float(rng.uniform(0.2, 9.0))), 1e-13)


def test_gibbs_degenerate_is_maximally_mixed():
    np.testing.assert_array_equal(gibbs_state(DotParams(0.0, 0.0), 1.0), 0.5 * np.eye(2))


def test_gibbs_extreme_temperatures():
    cold = gibbs_state(DotParams(1.0, 0.0), 1e-6)  # effectively the ground state
    assert cold[0, 0].real == pytest.approx(1.0, abs=1e-300)
    hot = gibbs_state(DotParams(1.0, 0.0), 1e6)
    assert hot[0, 0].real == pytest.approx(0.5, abs=1e-5)


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
def test_gibbs_rejects_bad_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        gibbs_state(DotParams(1.0, 0.0), temperature)


@given(epsilon=finite, tau=finite, temperature=st.floats(min_value=0.2, max_value=8.0))
@settings(max_examples=60)
def test_thermal_energy_closed_form(epsilon, tau, temperature):
    """U of the Gibbs state is -E tanh(E/T)."""
    p = DotParams(epsilon, tau)
    u = internal_energy(hamiltonian(p), gibbs_state(p, temperature))
    gap = math.hypot(epsilon, tau)
    assert u == pytest.approx(-gap * math.tanh(gap / temperature), abs=1e-13)


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert von_neumann_entropy(0.5 * np.eye(2)) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_clips_roundoff_negatives():
    # 1e-18 below zero after diagonalization must not reach the log
    rho = np.array([[1.0 + 1e-18, 0.0], [0.0, -1e-18]], dtype=complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-15)


def test_entropy_of_thermal_state():
    rho = gibbs_state(DotParams(1.0, 0.0), 1.0)
    g = 0.5 * (1.0 - math.tanh(1.0))
    expected = -g * math.log(g) - (1 - g) * math.log(1 - g)
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-14)


def test_matrix_predicates():
    assert is_hermitian(SIGMA_X)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_density_matrix(np.diag([0.25, 0.75]).astype(complex))
    assert not is_density_matrix(np.diag([0.5, 0.75]).astype(complex))  # trace 1.25
    assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    d = dagger(np.array([[1j, 0], [2, 0]]))
    assert d[0, 1] == 2 and d[0, 0] == -1j


def test_helpers_take_stacks_matrix_by_matrix(rng):
    """On an (n, 2, 2) stack each helper gives, entry by entry, its one-matrix result."""
    a = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    states = a @ dagger(a)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    stack = np.concatenate([
        states,
        1.25 * states[:5],                                  # trace 1.25
        states[5:10] + 0.3 * np.array([[0, 1], [0, 0]]),    # not Hermitian
        np.array([np.diag([1.5, -0.5]), np.diag([1.0 + 1e-18, -1e-18])], dtype=complex),
    ])
    h = hamiltonian(DotParams(0.7, 0.3))
    helpers = [dagger, max_abs, trace_deviation, is_hermitian, is_density_matrix,
               von_neumann_entropy, lambda m: internal_energy(h, m)]
    for helper in helpers:
        got = helper(stack)
        for i, m in enumerate(stack):
            one = helper(m)
            assert type(one) in (np.ndarray, float, bool)
            np.testing.assert_array_equal(got[i], one)
    assert is_density_matrix(stack).tolist() == [True] * 40 + [False] * 11 + [True]


def entropy_by_generator(rho):
    """-sum over the positive clamped eigenvalues of x ln x, as a Python sum."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0).tolist()
    return float(-sum(x * math.log(x) for x in lam if x > 0.0))


def test_entropy_equals_generator_sum_bit_for_bit(rng):
    """Array products and sum give the Python sum's bits, signed zeros included: a pure
    state, a near-pure one, the zero matrix (no positive eigenvalue) and NaN."""
    a = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    states = list(a @ a.conj().swapaxes(-1, -2) / 3.0)
    states += [np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.diag([1e-300, 1.0 - 1e-300]),
               np.diag([0.5, 0.5]), np.zeros((2, 2)), np.full((2, 2), math.nan)]
    stack = np.array(states, dtype=complex)
    expected = np.array([entropy_by_generator(rho) for rho in stack])
    np.testing.assert_array_equal(von_neumann_entropy(stack).view(np.int64),
                                  expected.view(np.int64))
    for rho, want in zip(stack, expected.tolist()):
        got = von_neumann_entropy(rho)
        assert isinstance(got, float)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_matmul2_is_the_matrix_product(rng):
    a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    b = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    stacked = matmul2(a, b)
    assert stacked.shape == (50, 2, 2)
    np.testing.assert_allclose(stacked, a @ b, rtol=0, atol=1e-14)
    for i in range(50):
        np.testing.assert_array_equal(matmul2(a[i], b[i]), stacked[i])


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]


def planted_stack(rng, shape):
    """Random complex matrices of ``shape`` with signed zeros, +-inf and NaN planted in
    their real and imaginary parts: each one once, then in about a fifth of the rest."""
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    parts = m.reshape(-1).view(np.float64)
    at = rng.permutation(parts.size)
    parts[at[:len(SPECIALS)]] = SPECIALS
    rest = at[len(SPECIALS):][rng.random(parts.size - len(SPECIALS)) < 0.2]
    parts[rest] = rng.choice(SPECIALS, size=len(rest))
    return m


def assert_same_bits(x, y):
    """NaN in the same real and imaginary parts, and equal bits in every other one."""
    x, y = (np.ascontiguousarray(v).reshape(-1).view(np.float64) for v in (x, y))
    nan = np.isnan(x)
    np.testing.assert_array_equal(nan, np.isnan(y))
    np.testing.assert_array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64))


def complex_abs_or_inf(z: complex) -> float:
    """Python's ``abs(z)``, with inf where it raises ``OverflowError``."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_trace_deviation_has_the_bits_of_complex_abs(rng):
    """|Tr rho - 1| has the bits of ``abs(complex(t) - 1.0)`` on every matrix, with +-0
    imaginary parts, subnormal and huge entries, and traces near 1; a deviation that
    overflows is inf, where complex abs raises."""
    n = 6000
    scales = [0.0, 5e-324, 1e-310, 1e-300, 1e-16, 0.5, 1.0, 1e300, 1.7e308]
    rho = np.empty((n, 2, 2), dtype=np.complex128)
    rho.real, rho.imag = (rng.uniform(-1.0, 1.0, (n, 2, 2)) * rng.choice(scales, (n, 2, 2))
                          for _ in range(2))
    rho[: n // 3, 0, 0] += 1.0  # traces near 1, whose deviation is tiny
    got = trace_deviation(rho)
    expected = np.array([complex_abs_or_inf(complex(np.trace(m)) - 1.0) for m in rho])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.isinf(expected).any() and ((expected > 0) & (expected < 2.3e-308)).any()
    assert {math.copysign(1.0, x) for x in rho.imag.ravel().tolist() if x == 0.0} == {1.0, -1.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = np.diag([1.5e308 + 1.5e308j, 0.0])
        assert trace_deviation(huge) == math.inf
        assert [trace_deviation(m) for m in rho[:50]] == expected[:50].tolist()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0, inf - inf
@pytest.mark.parametrize("n", [1, 3, 257])
def test_stack_kernels_equal_one_matrix_kernels_bit_for_bit(rng, n):
    """``matmul2`` on a stack gives, on every matrix, the bits of ``matmul2`` on that
    matrix alone and of the broadcast product of ``reference.matmul2``, special values
    included, and ``trace2`` gives ``np.trace``'s."""
    a, b = planted_stack(rng, (n, 2, 2)), planted_stack(rng, (n, 2, 2))
    kraus = planted_stack(rng, (4, n, 2, 2))  # as ``apply_kraus`` takes stacked operators
    for x, y in ((a, b), (a, dagger(b)), (kraus, b), (kraus, dagger(kraus))):
        stacked = matmul2(x, y)
        assert stacked.shape == np.broadcast_shapes(x.shape, y.shape)
        assert stacked.flags.c_contiguous
        for index in np.ndindex(stacked.shape[:-2]):
            one = x[index], y[index[x.ndim - y.ndim:]]
            assert_same_bits(stacked[index], matmul2(*one))
            assert_same_bits(stacked[index], reference.matmul2(*one))
    for m in (a, kraus):
        assert_same_bits(trace2(m), np.trace(m, axis1=-2, axis2=-1))
    for m in a:
        one = trace2(m)
        assert np.ndim(one) == 0
        assert_same_bits(one, np.trace(m))
