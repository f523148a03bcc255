import time

import pytest

from gupsim.pool import chunked_map


def scaled(factor, x):
    # the first items finish last, so later chunks come back before them
    if x < 4:
        time.sleep(0.05)
    if x in (3, 7):
        raise ValueError(f"item {x}")
    return factor * x


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_results_and_first_error_in_item_order(use_cpus, n_cpus):
    use_cpus(n_cpus)
    items = [x for x in range(50) if x not in (3, 7)]
    assert chunked_map(scaled, (2,), items) == [2 * x for x in items]
    assert chunked_map(scaled, (2,), []) == []
    with pytest.raises(ValueError, match="item 3"):
        chunked_map(scaled, (2,), range(50))
