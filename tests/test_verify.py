import numpy as np
import pytest

from dqdcycle import channels, verify
from dqdcycle.channels import MeasurementChannel, kraus_operators
from dqdcycle.qdot import is_density_matrix


def corrupted_kraus(channel: MeasurementChannel):
    """Drop one operator: the set no longer resolves the identity."""
    return kraus_operators(channel)[:3]


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


def test_run_all_rejects_bad_trials():
    with pytest.raises(ValueError, match="trials"):
        verify.run_all(seed=1, trials=0)


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
