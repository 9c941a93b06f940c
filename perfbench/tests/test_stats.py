import pytest

from servebench.stats import MIN_BEYOND, covered, percentile, self_time, tail_percentile


def test_percentile_interpolates_like_numpy():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5.0], 90) == 5.0
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, supported", [(100, True), (92, True), (91, False), (50, False)])
def test_p90_needs_ten_samples_beyond(n, supported):
    tail = tail_percentile([float(i) for i in range(n)], 90.0)
    assert tail.n == n
    assert tail.beyond == sum(1 for i in range(n) if i > tail.value)
    assert tail.supported is supported
    assert (tail.beyond >= MIN_BEYOND) is supported
    assert ("WARNING" in tail.describe()) is not supported


def test_ties_at_the_percentile_do_not_count_as_beyond():
    tail = tail_percentile([1.0] * 95 + [2.0] * 5, 90.0)
    assert tail.value == 1.0
    assert tail.beyond == 5
    assert not tail.supported


def test_self_time_subtracts_the_union_of_nested_children():
    # parent [0, 10]; children overlap each other and one pokes out of it
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]
    assert covered(children, 0.0, 10.0) == pytest.approx(3.0 + 1.0 + 1.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(5.0)
    # a grandchild lies inside its parent's interval, so it never counts twice
    assert self_time(0.0, 10.0, children + [(1.5, 2.5)]) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 1.0, [(2.0, 3.0)]) == 1.0
