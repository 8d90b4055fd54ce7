import math
import warnings

import numpy as np
import pytest

import reference
from dqdcycle import channels, regimes, verify
from dqdcycle.channels import MeasurementChannel, Orientation, kraus_operators
from dqdcycle.qdot import is_density_matrix
from dqdcycle.regimes import mode_codes
from reference import classify_from_signs

NUMERICAL_CHECKS = [
    verify.check_kraus_completeness,
    verify.check_channel_cptp,
    verify.check_channel_reset,
    verify.check_path_agreement,
    verify.check_cycle_closure,
]


def corrupted_kraus(channel: MeasurementChannel):
    """Drop one operator: the set no longer resolves the identity."""
    return kraus_operators(channel)[:3]


def scaled_kraus(channel: MeasurementChannel):
    """Scale one operator by 1.01, as the benchmark's negative control does."""
    ops = kraus_operators(channel)
    return [1.01 * ops[0]] + ops[1:]


def uneven_kraus(channel: MeasurementChannel):
    """Three operators for channel A, five (one of them zero) for channel B, so a
    block holding both orientations must pad."""
    ops = kraus_operators(channel)
    if channel.orientation is Orientation.A:
        return ops[:3]
    return ops + [0.0 * ops[0]]


def nan_kraus(channel: MeasurementChannel):
    return [math.nan * m for m in kraus_operators(channel)]


def first_draw_case(check, seed):
    """The worst_case a check reports for the first trial drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if check in (verify.check_path_agreement, verify.check_cycle_closure):
        return verify._inputs_dict(verify.random_cycle_inputs(rng))
    return verify._channel_dict(verify._random_channel(rng))


@pytest.mark.parametrize("trials", [1, 2, 37, 1000])
def test_run_all_equals_trial_loops(oracle_verify, trials):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(60):
            assert verify.run_all(seed, trials) == oracle_verify(seed, trials), seed


def test_threshold_consistency_reads_the_trial_loop_draws(oracle_verify, monkeypatch):
    """Every point that reaches classification has the loop's currents bit for bit, and
    the generator ends in the loop's state, so the draw stream is pinned even for seeds
    where no point fails."""
    seen = []

    def recording_codes(qh, qc, w, *args):
        seen.extend(zip(qh.tolist(), qc.tolist(), w.tolist()))
        return mode_codes(qh, qc, w, *args)

    def recording(*currents):
        seen.append(currents)
        return classify_from_signs(*currents)

    monkeypatch.setattr(verify, "mode_codes", recording_codes)
    monkeypatch.setattr(reference, "classify_from_signs", recording)
    for seed in range(40):
        runs = []
        for check in (verify.check_threshold_consistency, oracle_verify.threshold_consistency):
            seen.clear()
            rng = np.random.default_rng(seed)
            result = check(rng, 300)
            runs.append((result, np.array(seen).view(np.int64).tolist(), rng.bit_generator.state))
        assert runs[0] == runs[1], seed
        assert len(runs[0][1]) > 200


def threshold_runs(oracle_verify, make_rng, trials):
    """(result, final bit-generator state) of the check and of its trial loop, each on
    a fresh ``make_rng()``."""
    runs = []
    for check in (verify.check_threshold_consistency, oracle_verify.threshold_consistency):
        rng = make_rng()
        runs.append((check(rng, trials), rng.bit_generator.state))
    return runs


def pcg64_with_buffer(seed, has_uint32, uinteger):
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("buffer_full", [False, True])
@pytest.mark.parametrize("trials", [1, 2, 300])
def test_raw_read_equals_trial_loop_from_either_buffer_state(oracle_verify, buffer_full, trials):
    """A start with the 32-bit buffer full (one ``integers(3)`` drawn first) or empty gives
    the loop's results and final state."""
    def make_rng(seed):
        rng = np.random.default_rng(seed)
        if buffer_full:
            rng.integers(3)
        assert rng.bit_generator.state["has_uint32"] == buffer_full
        return rng

    for seed in range(20):
        first, second = threshold_runs(oracle_verify, lambda: make_rng(seed), trials)
        assert first == second, seed


@pytest.mark.parametrize("uinteger", [0, 1, 2**32 - 1])
def test_buffered_draws_and_a_rejected_draw_give_the_trial_loop(oracle_verify, uinteger):
    """A buffered u = 0 is the one draw that ``integers(3)`` rejects, so the raw read gives
    up and the block falls back to the per-trial calls; other buffered values are read."""
    rng = pcg64_with_buffer(3, 1, uinteger)
    bitgen = rng.bit_generator
    assert (verify._pcg64_threshold_draws(bitgen, bitgen.state, 5) is None) == (uinteger == 0)
    first, second = threshold_runs(oracle_verify, lambda: pcg64_with_buffer(3, 1, uinteger), 50)
    assert first == second


@pytest.mark.parametrize("block", [1, 7, 16])
def test_raw_read_spans_patched_blocks(oracle_verify, monkeypatch, block):
    monkeypatch.setattr(verify, "BLOCK", block)
    for seed in range(10):
        for make_rng in (lambda: np.random.default_rng(seed),
                         lambda: pcg64_with_buffer(seed, 1, 12345)):
            first, second = threshold_runs(oracle_verify, make_rng, 37)
            assert first == second, seed


def test_other_bit_generators_draw_trial_by_trial(oracle_verify, monkeypatch):
    def no_raw_read(bitgen, state, n):
        raise AssertionError("raw read")

    monkeypatch.setattr(verify, "_pcg64_threshold_draws", no_raw_read)
    for seed in range(5):
        runs = threshold_runs(oracle_verify, lambda: np.random.Generator(np.random.MT19937(seed)),
                              300)
        (first, first_state), (second, second_state) = runs
        assert first == second, seed
        assert first_state["state"]["pos"] == second_state["state"]["pos"]
        assert np.array_equal(first_state["state"]["key"], second_state["state"]["key"])


class CountingGenerator:
    """Forwards to a Generator and counts the calls made to its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


def test_threshold_check_runs_no_scalar_route_and_no_per_trial_draw(oracle_verify, monkeypatch):
    """On the default generator the check calls none of the scalar branch functions and
    no ``Generator`` method; it still gives the trial loop's results."""
    expected = [oracle_verify.threshold_consistency(np.random.default_rng(s), 1000)
                for s in range(3)]

    def scalar_route(*args, **kwargs):
        raise AssertionError("scalar route called")

    with monkeypatch.context() as patch:
        for name in ("branch_currents", "branch_thresholds", "expected_mode",
                     "classify_from_signs"):
            patch.setattr(regimes, name, scalar_route)
        for s in range(3):
            rng = CountingGenerator(np.random.default_rng(s))
            assert verify.check_threshold_consistency(rng, 1000) == expected[s]
            assert rng.calls == []


@pytest.mark.parametrize("block", [1, 7, 16])
def test_worst_case_carries_across_blocks(oracle_verify, monkeypatch, block):
    monkeypatch.setattr(verify, "BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(60):
            assert verify.run_all(seed, 37) == oracle_verify(seed, 37), seed


def test_default_block_size_spans_blocks(oracle_verify):
    trials = 2 * verify.BLOCK + 5
    for seed in (0, 1):
        assert verify.run_all(seed, trials) == oracle_verify(seed, trials), seed


@pytest.mark.parametrize("source", [corrupted_kraus, scaled_kraus, uneven_kraus])
def test_corrupted_sources_give_trial_loop_results(oracle_verify, monkeypatch, source):
    """A broken Kraus source fails the same checks, with the same residuals and
    worst cases, as in the trial-by-trial loops; uneven set sizes do not raise."""
    monkeypatch.setattr(channels, "kraus_operators", source)
    for seed in range(4):
        got = verify.run_all(seed, 60)
        assert got == oracle_verify(seed, 60), seed
        failed = {r.name for r in got if not r.passed}
        assert {"kraus_completeness", "channel_cptp", "channel_reset"} <= failed


def test_run_all_passes():
    results = verify.run_all(seed=7, trials=150)
    assert len(results) == 6
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert names == [
        "kraus_completeness",
        "channel_cptp",
        "channel_reset",
        "path_agreement",
        "cycle_closure",
        "threshold_consistency",
    ]


def test_run_all_is_deterministic():
    first = verify.run_all(seed=11, trials=60)
    second = verify.run_all(seed=11, trials=60)
    assert [r.max_residual for r in first] == [r.max_residual for r in second]


def test_run_all_rejects_bad_trials(monkeypatch):
    """Zero, negatives, non-integers and bools all raise before anything is drawn."""
    def no_generator(*args):
        raise AssertionError("generator built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for trials in (0, -2, 10.5, 5.0, "5", None, True, np.True_):
        with pytest.raises(ValueError, match="^trials must be an integer >= 1$"):
            verify.run_all(seed=1, trials=trials)


def test_run_all_takes_numpy_integers():
    assert verify.run_all(np.int64(3), np.int32(5)) == verify.run_all(3, 5)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
def test_run_all_rejects_bad_seed_before_drawing(monkeypatch, seed):
    def no_generator(*args):
        raise AssertionError("generator built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        verify.run_all(seed=seed, trials=10)


def test_residual_tolerances():
    results = {r.name: r for r in verify.run_all(seed=3, trials=100)}
    assert results["kraus_completeness"].max_residual < 1e-14
    assert results["path_agreement"].max_residual < 1e-10
    assert results["cycle_closure"].max_residual < 1e-12
    assert results["threshold_consistency"].max_residual == 0.0


def test_corrupted_kraus_detected_via_monkeypatch(monkeypatch):
    """The checks resolve the Kraus source at call time, so a swapped-in
    broken implementation must be flagged."""
    monkeypatch.setattr(channels, "kraus_operators", corrupted_kraus)
    rng = np.random.default_rng(0)
    bad = verify.check_kraus_completeness(rng, trials=20)
    assert not bad.passed
    assert bad.max_residual > 1e-3
    assert bad.worst_case is not None and "strength" in bad.worst_case
    assert not verify.check_channel_reset(rng, trials=20).passed


@pytest.mark.parametrize("check", NUMERICAL_CHECKS)
def test_nan_kraus_fails_closed(monkeypatch, check):
    """A NaN residual fails the check and names the first trial that gave it."""
    monkeypatch.setattr(channels, "kraus_operators", nan_kraus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check(np.random.default_rng(0), trials=20)
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_case == first_draw_case(check, 0)


def test_first_nan_beats_earlier_blocks(monkeypatch):
    """NaN in a later block outranks every finite residual of earlier blocks."""
    def late_nan(ch):
        strong = np.asarray(ch.strength)[..., None, None] > 0.9
        return [np.where(strong, nan, ok) for nan, ok in zip(nan_kraus(ch), scaled_kraus(ch))]

    monkeypatch.setattr(channels, "kraus_operators", late_nan)
    monkeypatch.setattr(verify, "BLOCK", 8)
    rng = np.random.default_rng(4)
    drawn = [verify._random_channel(rng) for _ in range(100)]
    first_nan = next(i for i, ch in enumerate(drawn) if ch.strength > 0.9)
    assert first_nan >= verify.BLOCK
    result = verify.check_kraus_completeness(np.random.default_rng(4), trials=100)
    assert math.isnan(result.max_residual) and not result.passed
    assert result.worst_case == verify._channel_dict(drawn[first_nan])


def test_corruption_hits_cptp_check(monkeypatch):
    monkeypatch.setattr(channels, "kraus_operators", corrupted_kraus)
    rng = np.random.default_rng(5)
    assert not verify.check_channel_cptp(rng, trials=30).passed


def test_random_density_matrix_is_a_state(rng):
    for _ in range(50):
        assert is_density_matrix(verify.random_density_matrix(rng), 1e-12)


def test_random_cycle_inputs_in_domain(rng):
    for _ in range(100):
        inputs = verify.random_cycle_inputs(rng)
        assert 0.0 < inputs.params.epsilon <= 3.0
        assert 0.0 <= inputs.params.tau <= 1.0
        assert 0.5 <= inputs.temperature <= 6.0
        assert 0.0 <= inputs.a <= 1.0
        assert 0.0 <= inputs.b <= 1.0


def test_check_result_records_worst_case():
    rng = np.random.default_rng(2)
    result = verify.check_path_agreement(rng, trials=50)
    assert result.passed
    assert set(result.worst_case) == {"epsilon", "tau", "temperature", "a", "b"}
    assert result.trials == 50
