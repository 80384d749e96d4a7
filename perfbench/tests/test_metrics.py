import json

import pytest

from metrics import MIN_TAIL, Metric, Tally, min_samples, percentile, rank, result_line, samples_beyond


def test_rank_is_nearest_rank():
    assert rank(1, 50) == 1
    assert rank(10, 50) == 5
    assert rank(11, 50) == 6
    assert rank(200, 95) == 190  # integer arithmetic: 0.95 * 200 must not round up to 191
    assert rank(201, 95) == 191
    assert rank(7, 100) == 7


def test_samples_beyond_p95():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert samples_beyond(20, 50) == 10


def test_min_samples_is_smallest_count_with_enough_tail():
    n = min_samples(95)
    assert n == 200
    assert samples_beyond(n, 95) >= MIN_TAIL
    assert samples_beyond(n - 1, 95) < MIN_TAIL
    assert min_samples(50) == 20
    with pytest.raises(ValueError):
        min_samples(100)


def test_percentile_selects_sorted_sample_at_rank():
    samples = list(range(200, 0, -1))  # 1..200, reversed
    assert percentile(samples, 95) == 190
    assert percentile(samples, 50) == 100


def test_percentile_refuses_thin_tail():
    with pytest.raises(ValueError, match="need 10"):
        percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(19)), 50, min_tail=0) == 9


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tally_counts_failures_against_attempts():
    t = Tally()
    assert t.record(True)
    assert not t.record(False, "bad frame")
    t.record(True)
    t.record(True)
    assert (t.attempted, t.failed) == (4, 1)
    assert t.failed_frac == 0.25
    assert t.reasons == ["bad frame"]


def test_empty_tally_counts_as_all_failed():
    assert Tally().failed_frac == 1.0


def test_result_line_has_exactly_the_contract_keys():
    t = Tally()
    t.record(True)
    line = result_line(True, t, {"setup_s": Metric(1.25, "s"), "model_bytes": Metric(10, "B")})
    obj = json.loads(line)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert obj["attempted"] == 1 and obj["failed"] == 0
    assert obj["metrics"]["setup_s"] == {"value": 1.25, "unit": "s"}
