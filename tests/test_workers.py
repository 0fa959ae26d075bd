"""The level split: which levels go to the process pool, how many
processes it gets, and that the class list never depends on either."""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from satgraph import search
from satgraph import constructions as cons
from satgraph.patterns import clique, cycle, path, star, tree_pattern
from satgraph.search import SearchConstraints, enumerate_classes


def _cpus(monkeypatch, count):
    """Make this process look as if it may use count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


class InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its max_workers
    and the chunks of every map, and grows them in this process."""

    created = []

    def __init__(self, max_workers=None):
        self.max_workers = max_workers
        self.chunk_counts = []
        InProcessPool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks, *rest):
        chunks = list(chunks)
        self.chunk_counts.append(len(chunks))
        return map(fn, chunks, *rest)


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was constructed")


class CountingPool(ProcessPoolExecutor):
    maps = 0

    def map(self, *args, **kwargs):
        CountingPool.maps += 1
        return super().map(*args, **kwargs)


def test_identical_classes_for_workers_1_2_3(monkeypatch):
    """ROADMAP item 2's gate: the sweep holds levels on both sides of
    CHUNKS * workers, and every list equals the one-process list."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
    CountingPool.maps = 0
    patterns = [clique(3), clique(4), clique(5), star(3), star(4), star(5),
                path(4), cycle(4), tree_pattern(cons.t_star())]
    pooled = []
    for f in patterns:
        for n in range(1, 9):
            sweep = [SearchConstraints(forbidden=(f,)),
                     SearchConstraints(forbidden=(f,), connected_only=True)]
            if n > 3:
                sweep.append(SearchConstraints(max_degree=3, forbidden=(f,)))
            for constraints in sweep:
                serial = enumerate_classes(n, constraints, workers=1)
                for workers in (2, 3):
                    before = CountingPool.maps
                    split = enumerate_classes(n, constraints, workers)
                    assert split == serial, (str(f), n, constraints, workers)
                    pooled.append(CountingPool.maps > before)
    assert any(pooled) and not all(pooled)


def test_pool_capped_at_usable_cpus(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    InProcessPool.created = []
    k4_free = SearchConstraints(forbidden=(clique(4),))
    assert (enumerate_classes(8, k4_free, workers=500)
            == enumerate_classes(8, k4_free, workers=1))
    [pool] = InProcessPool.created  # one pool for the whole call
    assert pool.max_workers == 2
    assert pool.chunk_counts and max(pool.chunk_counts) <= search.CHUNKS * 2


def test_pool_cap_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    InProcessPool.created = []
    assert len(enumerate_classes(7, workers=64)) == 1044
    assert [pool.max_workers for pool in InProcessPool.created] == [3]


def test_report_echoes_workers_asked_for(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    search.clear_cache()
    rep = search.satnum_exact(7, clique(3), star(1), workers=40)
    search.clear_cache()
    assert rep.workers == 40


def test_narrow_or_one_worker_searches_build_no_pool(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(search, "ProcessPoolExecutor", NoPool)
    # every level of the 5-vertex search holds at most 11 parents
    assert len(enumerate_classes(5, workers=2)) == 34
    assert len(enumerate_classes(8, workers=1)) == 12346
    search.clear_cache()
    search.satnum_exact(8, clique(4), star(1), workers=1)
    search.tstar_scan(8, workers=1)
    search.clear_cache()
    _cpus(monkeypatch, 1)  # two workers asked for, one CPU to run them
    assert len(enumerate_classes(7, workers=2)) == 1044


def test_wide_level_builds_a_pool(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(search, "ProcessPoolExecutor", NoPool)
    with pytest.raises(AssertionError, match="process pool"):
        enumerate_classes(6, workers=2)  # the 5-vertex level holds 34


def test_chunks_joined_in_order_rebuild_the_level():
    """_grow_level keeps no state across parents, so each level grown
    from contiguous chunks and joined in order is the level grown whole,
    and the final level, sorted after the join, is too."""
    for n, constraints in ((8, SearchConstraints(forbidden=(clique(4),))),
                           (8, SearchConstraints(max_degree=3)),
                           (7, SearchConstraints())):
        cap, clq, forb = search._effective(n, constraints)
        level = search._base_level(False)
        for k in range(1, n):
            final = k + 1 == n
            whole = search._grow_level(level, k, cap, clq, forb, final)
            for step in (1, 3, max(1, len(level) // 5)):
                joined = [item for i in range(0, len(level), step)
                          for item in search._grow_level(
                              level[i:i + step], k, cap, clq, forb, final)]
                if final:
                    joined.sort(key=lambda item: item[0])
                assert joined == whole, (n, k, step)
            level = whole
