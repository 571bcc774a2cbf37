"""The rule by which :func:`optoflux.fanout.cut` splits work into ranges."""

import itertools
import os

import pytest

from optoflux import fanout

from helpers import force_ranges


def test_cut_gives_one_range_per_cpu_within_items_and_cost(monkeypatch):
    for cpus, items, (cost, minimum) in itertools.product(
            [1, 2, 3, 8], [0, 1, 2, 5, 7, 100],
            [(0, 1), (1, 1), (99, 100), (250, 100), (10**6, 7)]):
        force_ranges(monkeypatch, cpus)
        bounds = fanout.cut(items, cost, minimum)
        n = len(bounds) - 1
        # contiguous ranges that cover the items, within one item of each other
        assert bounds[0] == 0 and bounds[-1] == items
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1
        # at least one range; more only while each has an item and `minimum`
        # of the cost, and no more than one per CPU
        assert 1 <= n <= cpus
        assert n == 1 or (n <= items and n * minimum <= cost)
        # and as many as those limits allow
        assert n in (cpus, items) or (n + 1) * minimum > cost or items == 0


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_cut_gives_one_range_where_it_cannot_fork_or_count_cpus(monkeypatch, missing):
    force_ranges(monkeypatch, 4)
    monkeypatch.delattr(os, missing)
    assert fanout.cut(100, 10**6, 1) == [0, 100]

