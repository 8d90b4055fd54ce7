import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

import reference
from dqdcycle import channels, regimes, thermo, verify
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
    """Three operators for channel A, five (one of them zero) for channel B: a set's
    size depends on the orientation, so a block holding both has sets of two sizes."""
    ops = kraus_operators(channel)
    if channel.orientation is Orientation.A:
        return ops[:3]
    return ops + [0.0 * ops[0]]


def empty_kraus(channel: MeasurementChannel):
    """No operators at all: every output is 0 and every completeness residual 1."""
    return []


def nan_kraus(channel: MeasurementChannel):
    return [math.nan * m for m in kraus_operators(channel)]


def channel_draws(seed, trials):
    """The (r, p) draws that every channel check reads from ``seed``: the first of the two
    generators that the channel pass spawns."""
    return np.random.default_rng(seed).spawn(2)[0].random((trials, 2))


def first_draw_case(check, seed):
    """The worst_case a check reports for the first trial drawn from ``seed``."""
    if check in (verify.check_path_agreement, verify.check_cycle_closure):
        row = np.random.default_rng(seed).uniform(verify._CYCLE_LOW, verify._CYCLE_HIGH, (1, 5))
        return verify._row_dict(row[0])
    return verify._draw_dict(channel_draws(seed, 1)[0])


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
    (2 * verify.BLOCK + 5, [0], False),  # a run of 4101 one-trial blocks takes ~7 s
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


def test_run_all_makes_one_pass_per_shared_intermediate(monkeypatch):
    """In one block, the channel checks share one draw and, per orientation, one Kraus
    set, one completeness residual and one channel application, and the ledger checks
    one ``uniform`` draw and one run of each ledger batch. So the Kraus source is called
    4 times: once per orientation in the channel pass, and for channels A and B in the
    matrix ledger."""
    expected = verify.run_all(0, 100)
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(channels, "kraus_operators"), (channels, "apply_kraus"),
                         (verify, "completeness_residual"),
                         (verify, "apply_kraus"), (verify, "run_cycle_closed_form_batch"),
                         (verify, "run_cycle_matrix_batch"), (thermo, "gibbs_state")]:
        count(module, name)
    generators = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        generators.append(CountingGenerator(default_rng(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    assert verify.run_all(0, 100) == expected
    assert [g.calls for g in generators] == [["spawn", "uniform", "random"]]
    assert calls == {
        "dqdcycle.channels.kraus_operators": 4, "dqdcycle.channels.apply_kraus": 2,
        "dqdcycle.verify.completeness_residual": 2,
        "dqdcycle.verify.apply_kraus": 2, "dqdcycle.verify.run_cycle_closed_form_batch": 1,
        "dqdcycle.verify.run_cycle_matrix_batch": 1, "dqdcycle.thermo.gibbs_state": 1,
    }


class PlantedChannels:
    """Stands in for the generator of the channel pass: its channel draws (r, p) are
    ``draws``, and its random states come from a real generator."""

    def __init__(self, draws):
        self.draws, self.states = np.asarray(draws, dtype=float), np.random.default_rng(0)

    def spawn(self, n):
        return [self, self.states]

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws


@pytest.mark.parametrize("is_a", [[True, False, True, False], [True] * 4, [False] * 4,
                                  [False, True, True, False, True]])
def test_channel_pass_calls_the_source_once_per_orientation_present(monkeypatch, is_a):
    """A block calls the Kraus source once per orientation that has a trial in it, A
    before B, with that orientation's strengths in trial order: blocks that hold only A,
    only B, and both."""
    strength = np.linspace(0.1, 0.9, len(is_a))
    draws = np.column_stack([np.where(is_a, 0.25, 0.75), strength])
    calls = []

    def counted(ch):
        calls.append((ch.orientation, ch.strength.tolist()))
        return kraus_operators(ch)

    monkeypatch.setattr(channels, "kraus_operators", counted)
    results = verify._channel_pass(PlantedChannels(draws), len(is_a))
    is_a = np.array(is_a)
    assert calls == [(o, strength[mask].tolist())
                     for o, mask in ((Orientation.A, is_a), (Orientation.B, ~is_a)) if mask.any()]
    assert all(r.passed for r in results)


def test_uneven_kraus_sets_give_trial_loop_results(oracle_verify, monkeypatch):
    """Sets whose size depends on the orientation, or that are empty, give the trial
    loops' results, in one block or in many."""
    for source in (uneven_kraus, empty_kraus):
        monkeypatch.setattr(channels, "kraus_operators", source)
        for trials, block in ((1, verify.BLOCK), (2, verify.BLOCK), (37, verify.BLOCK), (37, 7)):
            monkeypatch.setattr(verify, "BLOCK", block)
            for seed in range(20):
                got = verify.run_all(seed, trials)
                assert got == oracle_verify(seed, trials), (source, trials, block, seed)
        assert not got[0].passed  # kraus_completeness


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
    drawn = channel_draws(4, 100)
    first_nan = int(np.argmax(drawn[:, 1] > 0.9))
    assert drawn[first_nan, 1] > 0.9 and first_nan >= verify.BLOCK
    for check in NUMERICAL_CHECKS[:3]:
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
