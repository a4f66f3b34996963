"""The percentile rule: report a percentile only with ten samples beyond it."""

from rfbench.stats import MIN_TAIL, percentile


def test_fewest_samples_leave_ten_beyond():
    assert MIN_TAIL == 10
    assert percentile(range(20), 50) is not None
    assert percentile(range(100), 90) is not None
    assert percentile(range(99), 90) is None
    assert percentile(range(1000), 99) is not None


def test_percentile_is_nearest_rank_when_supported():
    samples = list(range(1, 1001))
    assert percentile(samples, 99) == 990.0
    assert percentile(samples, 50) == 500.0
    assert percentile(list(range(20, 0, -1)), 50) == 10.0


def test_percentile_refuses_a_thin_tail():
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None
    # One sample is every percentile's maximum: never reportable.
    assert percentile([3.0], 99) is None


def test_info_tails_show_unsupported_percentiles_as_none():
    from rfbench.common import tail_percentiles

    assert tail_percentiles(list(range(19))) == {"p90": None, "p99": None}
    tails = tail_percentiles(list(range(1, 1001)), scale=1e3)
    assert tails == {"p90": 900e3, "p99": 990e3}
