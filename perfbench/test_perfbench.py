"""Tests of the benchmark's own arithmetic: spans, percentiles, answers.

Run with  python3 -m pytest perfbench/test_perfbench.py
"""

import signal
import time
import types
from collections import Counter

import pytest

from checks import differences, tail_percentile
from probe import SpeedProbe
from tracing import MissingBoundary, Tracer, installed, layer_metrics
from workloads import GRIDS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("cli")                  # t=0
    clock.now = 1.0
    tr.enter("search")               # t=1
    clock.now = 2.0
    tr.enter("canon")                # t=2
    clock.now = 5.0
    tr.exit()                        # canon 3
    clock.now = 6.0
    tr.enter("search")               # nested span of the same layer
    clock.now = 6.5
    tr.enter("saturation")
    clock.now = 7.0
    tr.exit()                        # saturation 0.5
    clock.now = 8.0
    tr.exit()                        # inner search 2, self 1.5
    clock.now = 10.0
    tr.exit()                        # outer search 9, covers 5: self 4
    clock.now = 12.0
    tr.exit()                        # cli 12, covers 9: self 3
    assert tr.self_s == {"canon": 3.0, "saturation": 0.5, "search": 5.5,
                         "cli": 3.0}
    assert sum(tr.self_s.values()) == 12.0  # self times tile the root span
    assert tr.calls == {"cli": 1, "search": 2, "canon": 1, "saturation": 1}


def test_wrapped_calls_count_memo_hits_and_classes():
    clock = FakeClock()
    tr = Tracer(clock)
    search = types.ModuleType("fake_search")
    memo = {}

    def enumerate_classes(n):
        clock.now += 1.0
        return list(range(n))

    def saturated_classes(n):
        if n not in memo:
            classes = search.enumerate_classes(n)
            memo[n] = (classes[:1], len(classes))
        return memo[n]

    search.enumerate_classes = enumerate_classes
    search.saturated_classes = saturated_classes
    boundaries = (("search", "saturated_classes", "search"),
                  ("search", "enumerate_classes", "search"))
    with installed(tr, {"search": search}, boundaries):
        for n in (4, 4, 6, 4):
            search.saturated_classes(n)
    assert search.enumerate_classes is enumerate_classes  # restored
    m = layer_metrics(tr)
    assert m["search.enumerations"] == 2
    assert m["search.classes"] == 10
    assert m["search.saturated"] == 2
    assert m["search.memo_hit_ratio"] == 0.5
    assert m["search.self_s"] == 2.0


def test_missing_boundary_fails_before_wrapping():
    mod = types.ModuleType("fake")
    mod.present = lambda: None
    original = mod.present
    with pytest.raises(MissingBoundary, match=r"satgraph\.m\.gone"):
        with installed(Tracer(), {"m": mod},
                       (("m", "present", "x"), ("m", "gone", "fake_layer"))):
            pass
    assert mod.present is original


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000)), 99) == 989   # 10 beyond
    assert tail_percentile(list(range(999)), 99) is None   # 9 beyond
    assert tail_percentile(list(range(20)), 50) == 9
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile([], 99) is None


def test_comparator_ignores_wall_time_and_new_keys():
    ref = {"exit": 0, "result": {"minimum": 15, "witnesses": ["HzXbB?@"],
                                 "wall_time_s": 1.0}}
    got = {"exit": 0, "result": {"minimum": 15, "witnesses": ["HzXbB?@"],
                                 "wall_time_s": 9.5,
                                 "stats": {"canonical_calls": 7}}}
    assert differences(ref, got) == []


def test_comparator_catches_changed_answers():
    ref = {"exit": 0, "result": {"minimum": 15, "witnesses": ["HzXbB?@"],
                                 "saturated": True}}
    assert differences(ref, {"exit": 0, "result": {
        "minimum": 14, "witnesses": ["HzXbB?@"], "saturated": True}})
    assert differences(ref, {"exit": 0, "result": {
        "minimum": 15, "witnesses": ["HzXbB?A"], "saturated": True}})
    assert differences(ref, {"exit": 0, "result": {
        "minimum": 15, "witnesses": ["HzXbB?@", "HzXbB?A"],
        "saturated": True}})
    assert differences(ref, {"exit": 0, "result": {
        "minimum": 15, "witnesses": ["HzXbB?@"], "saturated": 1}})
    assert differences(ref, {"exit": 3, "result": ref["result"]})
    assert differences(ref, {"exit": 0, "result": {"minimum": 15}})


def test_speed_probe_samples_and_restores_signal_state():
    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        end = time.process_time() + 0.05
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert probe.count >= 2  # the entry sample plus timer samples
    assert probe.loop_s == probe.spent / probe.count > 0


def test_certify_grids_share_every_search():
    # Each (n, forbid) pair recurs, so the saturated-class memo answers
    # every line after the first of its pair.
    for name in ("shared", "mix"):
        lines = [line.split() for line in
                 (GRIDS / f"{name}.txt").read_text().splitlines()
                 if line and not line.startswith("#")]
        pairs = Counter((n, forbid) for n, forbid, _ in lines)
        assert len(lines) >= 6 and min(pairs.values()) >= 2, name
