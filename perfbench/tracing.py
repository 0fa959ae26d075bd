"""Layer spans recorded from outside the package.

Each satgraph layer is reached through module-level names: ``cli`` calls
``satnum_exact`` through ``satgraph.cli.satnum_exact``, the search calls
the canonical form through ``satgraph.search.canonical_raw``, and so on.
A traced run replaces those names with wrappers that open a span around
the call, and restores them afterwards.  Spans are aggregated as they
close: a layer's self time is the sum of its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_CONSTRUCTIONS = ("split_graph", "near_regular", "kr_graph",
                  "regular_multipartite", "partite_saturated", "g49", "g4n",
                  "gtn", "w_t", "fig1", "fig2", "t_star", "cycle_pendants")
_BOUNDS = ("ehm_value", "cl_value", "partite_threshold",
           "partite_threshold_smooth", "best_c", "partite_necessary",
           "krfree_bound", "krfree_bound_at_r", "kt_threshold",
           "path_sat_threshold", "split_path_leading")

# (module of satgraph, attribute, layer): every name through which a
# caller in another layer reaches the layer.  The cli, constructions,
# staropt and bounds modules are called through the module object
# (``cons.kr_graph``), so those names are wrapped where they are defined.
BOUNDARIES = (
    ("cli", "run", "cli"),
    ("cli", "satnum_exact", "search"),
    ("cli", "tstar_scan", "search"),
    ("search", "saturated_classes", "search"),
    ("search", "enumerate_classes", "search"),
    ("search", "canonical_raw", "canon"),
    ("saturation", "canonical_form", "canon"),
    ("cli", "is_saturated", "saturation"),
    ("cli", "is_family_saturated", "saturation"),
    ("search", "creates_copy", "saturation"),
    ("search", "contains_copy", "saturation"),
    ("cli", "count_pattern", "counting"),
    ("search", "count_pattern", "counting"),
    ("saturation", "count_embeddings", "counting"),
    ("bounds", "independence_number", "counting"),
    ("bounds", "maximum_independent_sets", "counting"),
    *(("constructions", name, "constructions") for name in _CONSTRUCTIONS),
    ("staropt", "star_star_instance", "staropt"),
    ("staropt", "tie_ts", "staropt"),
    ("staropt", "satnum_star_star", "staropt"),
    *(("bounds", name, "bounds") for name in _BOUNDS),
    ("cli", "encode_graph6", "graph"),
    ("cli", "decode_graph6", "graph"),
    ("search", "encode_graph6", "graph"),
    ("saturation", "encode_graph6", "graph"),
    ("patterns", "decode_graph6", "graph"),
)


class MissingBoundary(RuntimeError):
    """A wrapped name no longer exists; the trace would read zero."""


class Tracer:
    """Per-layer call counts and self time, plus the search's own counts.

    ``clock`` is injectable so that tests can drive the span arithmetic.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [layer, start, time covered by children]
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.classes = 0
        self.saturated = 0
        self.enumerations = 0
        self.sat_calls = 0
        self.memo_hits = 0

    def enter(self, layer: str) -> None:
        self.calls[layer] += 1
        self._stack.append([layer, self._clock(), 0.0])

    def exit(self) -> None:
        layer, start, covered = self._stack.pop()
        duration = self._clock() - start
        self.self_s[layer] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, layer: str, fn, observe=None):
        def traced(*args, **kwargs):
            before = self.enumerations
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, result, before)
            return result
        return traced


def _observe_enumeration(tracer: Tracer, classes, _before) -> None:
    tracer.enumerations += 1
    tracer.classes += len(classes)


def _observe_saturated(tracer: Tracer, result, before: int) -> None:
    # A call that finished without enumerating was answered by the memo.
    tracer.sat_calls += 1
    if tracer.enumerations == before:
        tracer.memo_hits += 1
    else:
        tracer.saturated += len(result[0])


_OBSERVERS = {("search", "enumerate_classes"): _observe_enumeration,
              ("search", "saturated_classes"): _observe_saturated}


@contextmanager
def installed(tracer: Tracer, modules: dict, boundaries=BOUNDARIES):
    """Wrap every boundary name for the duration of the block.

    ``modules`` maps the short module names used in ``boundaries`` to
    module objects.  Raises MissingBoundary, before wrapping anything,
    when a name is gone, so a renamed function cannot read as an idle
    layer.
    """
    originals = []
    for mod_name, attr, layer in boundaries:
        fn = getattr(modules[mod_name], attr, None)
        if not callable(fn):
            raise MissingBoundary(
                f"satgraph.{mod_name}.{attr} ({layer} layer) no longer "
                f"exists; update the boundary table in perfbench/tracing.py")
        originals.append((mod_name, attr, layer, fn))
    try:
        for mod_name, attr, layer, fn in originals:
            observe = _OBSERVERS.get((mod_name, attr))
            setattr(modules[mod_name], attr, tracer.wrap(layer, fn, observe))
        yield tracer
    finally:
        for mod_name, attr, _, fn in originals:
            setattr(modules[mod_name], attr, fn)


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "search.self_s": "s",
    "search.classes": "count",
    "search.saturated": "count",
    "search.sat_ratio": "ratio",
    "search.classes_per_s": "1/s",
    "search.enumerations": "count",
    "search.memo_hit_ratio": "ratio",
    "canon.calls": "count",
    "canon.self_s": "s",
    "canon.calls_per_class": "ratio",
    "saturation.calls": "count",
    "saturation.self_s": "s",
    "counting.calls": "count",
    "counting.self_s": "s",
    "constructions.self_s": "s",
    "staropt.self_s": "s",
    "bounds.self_s": "s",
    "graph.codec_calls": "count",
    "graph.codec_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced repetition, except the class
    rate, which the caller takes from an untraced repetition so that
    tracing cost does not depress it.  Codec spans call no other layer,
    so their self time is their whole time."""
    s, c = tracer.self_s, tracer.calls
    return {
        "cli.self_s": s["cli"],
        "search.self_s": s["search"],
        "search.classes": tracer.classes,
        "search.saturated": tracer.saturated,
        "search.sat_ratio": _ratio(tracer.saturated, tracer.classes),
        "search.enumerations": tracer.enumerations,
        "search.memo_hit_ratio": _ratio(tracer.memo_hits, tracer.sat_calls),
        "canon.calls": c["canon"],
        "canon.self_s": s["canon"],
        "canon.calls_per_class": _ratio(c["canon"], tracer.classes),
        "saturation.calls": c["saturation"],
        "saturation.self_s": s["saturation"],
        "counting.calls": c["counting"],
        "counting.self_s": s["counting"],
        "constructions.self_s": s["constructions"],
        "staropt.self_s": s["staropt"],
        "bounds.self_s": s["bounds"],
        "graph.codec_calls": c["graph"],
        "graph.codec_s": s["graph"],
    }
