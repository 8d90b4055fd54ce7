import itertools
import math
import warnings

import numpy as np
import pytest

import reference
from dqdcycle import channels, regimes, verify
from dqdcycle.channels import MeasurementChannel, Orientation, kraus_operators
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


def channel_draws(check, seed, trials):
    """A channel check's (r, p) draws from ``seed``: the run's generator for
    ``kraus_completeness``, the first spawned child for the checks that also draw states."""
    rng = np.random.default_rng(seed)
    if check is not verify.check_kraus_completeness:
        rng = rng.spawn(2)[0]
    return rng.random((trials, 2))


def first_draw_case(check, seed):
    """The worst_case a check reports for the first trial drawn from ``seed``."""
    if check in (verify.check_path_agreement, verify.check_cycle_closure):
        return verify._row_dict(verify._random_cycle_rows(np.random.default_rng(seed), 1)[0])
    return verify._draw_dict(channel_draws(check, seed, 1)[0])


@pytest.mark.parametrize("trials", [1, 2, 37, 1000])
def test_run_all_equals_trial_loops(oracle_verify, trials):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(60):
            assert verify.run_all(seed, trials) == oracle_verify(seed, trials), seed


def test_oracle_memo_misses_under_patched_sources(oracle_verify, monkeypatch):
    """The oracle's memo is keyed on what its loops look up at call time, so a patched
    source or tolerance runs them again; every call returns a new list."""
    first = oracle_verify(0, 20)
    again = oracle_verify(0, 20)
    assert again == first and again is not first
    calls = []

    def counting(*currents):
        calls.append(currents)
        return classify_from_signs(*currents)

    monkeypatch.setattr(reference, "classify_from_signs", counting)
    assert oracle_verify(0, 20) == first and calls
    monkeypatch.setattr(channels, "kraus_operators", corrupted_kraus)
    assert oracle_verify(0, 20) != first
    monkeypatch.undo()
    monkeypatch.setattr(verify, "PATH_TOL", 0.0)
    assert oracle_verify(0, 20)[3].tolerance == 0.0


def test_threshold_consistency_reads_the_trial_loop_draws(oracle_verify, monkeypatch):
    """Every point that reaches classification has the loop's currents bit for bit, and
    the generator ends in the loop's state, in one block or in many, so the draw stream
    is pinned even for seeds where no point fails."""
    seen = []

    def recording_codes(qh, qc, w, *args):
        seen.extend(zip(qh.tolist(), qc.tolist(), w.tolist()))
        return mode_codes(qh, qc, w, *args)

    def recording(*currents):
        seen.append(currents)
        return classify_from_signs(*currents)

    monkeypatch.setattr(verify, "mode_codes", recording_codes)
    monkeypatch.setattr(reference, "classify_from_signs", recording)
    trials = 400
    for seed, block in itertools.product(range(40), (verify.BLOCK, 7)):
        monkeypatch.setattr(verify, "BLOCK", block)
        runs = []
        for check in (verify.check_threshold_consistency, oracle_verify.threshold_consistency):
            seen.clear()
            rng = np.random.default_rng(seed)
            result = check(rng, trials)
            runs.append((result, np.array(seen).view(np.int64).tolist(), rng.bit_generator.state))
        assert runs[0] == runs[1], (seed, block)
        assert 3 * len(runs[0][1]) > 2 * trials  # most points are classified, not skipped


CHECKS = [*NUMERICAL_CHECKS, verify.check_threshold_consistency]


def run_checks(rng, trials):
    """Every check's result on ``rng``, then one more draw, which pins its final state."""
    return [check(rng, trials) for check in CHECKS], rng.random()


@pytest.mark.parametrize("trials, seeds, mt19937", [
    (37, range(8), True),
    (2 * verify.BLOCK + 5, [0], False),  # a run of 2053 one-trial blocks takes ~5 s
], ids=["37", "2-blocks-and-5"])
def test_results_do_not_depend_on_the_block_size(monkeypatch, trials, seeds, mt19937):
    """``run_all`` gives the same results whatever the block size, and so do the checks
    on an MT19937 generator, which they leave in the same state."""
    def runs(seed):
        if not mt19937:
            return verify.run_all(seed, trials)
        mt = np.random.Generator(np.random.MT19937(seed))
        return verify.run_all(seed, trials), run_checks(mt, trials)

    expected = {seed: runs(seed) for seed in seeds}
    for block in (1, 7, 16):
        monkeypatch.setattr(verify, "BLOCK", block)
        for seed in seeds:
            assert runs(seed) == expected[seed], (block, seed)


class CountingGenerator:
    """Forwards to a Generator and counts the calls made to its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


def test_threshold_check_runs_no_scalar_route_and_no_per_trial_draw(oracle_verify, monkeypatch):
    """The check calls none of the scalar branch functions and makes one ``random`` call
    per block; it still gives the trial loop's results."""
    expected = [oracle_verify.threshold_consistency(np.random.default_rng(s), 1000)
                for s in range(3)]

    def scalar_route(*args, **kwargs):
        raise AssertionError("scalar route called")

    with monkeypatch.context() as patch:
        for name in ("branch_currents", "branch_thresholds", "expected_mode",
                     "classify_from_signs"):
            patch.setattr(regimes, name, scalar_route)
        patch.setattr(verify, "BLOCK", 256)
        for s in range(3):
            rng = CountingGenerator(np.random.default_rng(s))
            assert verify.check_threshold_consistency(rng, 1000) == expected[s]
            assert rng.calls == ["random"] * 4


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
    for check in NUMERICAL_CHECKS[:3]:
        drawn = channel_draws(check, 4, 100)
        first_nan = int(np.argmax(drawn[:, 1] > 0.9))
        assert drawn[first_nan, 1] > 0.9 and first_nan >= verify.BLOCK, check
        result = check(np.random.default_rng(4), trials=100)
        assert math.isnan(result.max_residual) and not result.passed
        assert result.worst_case == verify._draw_dict(drawn[first_nan])


def test_corruption_hits_cptp_check(monkeypatch):
    monkeypatch.setattr(channels, "kraus_operators", corrupted_kraus)
    rng = np.random.default_rng(5)
    assert not verify.check_channel_cptp(rng, trials=30).passed


def test_check_result_records_worst_case():
    rng = np.random.default_rng(2)
    result = verify.check_path_agreement(rng, trials=50)
    assert result.passed
    assert set(result.worst_case) == {"epsilon", "tau", "temperature", "a", "b"}
    assert result.trials == 50
