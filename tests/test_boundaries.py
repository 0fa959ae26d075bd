"""The names perfbench uses exist on the package.

perfbench/tracing.py opens a span around each (module, attribute) of its
BOUNDARIES.  Some of those names are imported only for it (search's
contains_copy and creates_copy) and look unused from inside the package;
this test keeps a cleanup from deleting them.  perfbench/workloads.py
builds its queries with package functions (constructions' g4n,
split_graph, t_star and cycle_pendants, graph's encode_graph6), so every
workload is built here too.  Both files are loaded read-only, and each
stays in sys.modules only during its test (dataclasses look their
module up there).
"""

import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

import satgraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    assert len(tracing.BOUNDARIES) > 40
    for module, attr, _ in tracing.BOUNDARIES:
        target = importlib.import_module(f"satgraph.{module}")
        assert callable(getattr(target, attr, None)), (module, attr)


def test_every_workload_builds(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    sat = types.SimpleNamespace(**{
        m.name: importlib.import_module(f"satgraph.{m.name}")
        for m in pkgutil.iter_modules(satgraph.__path__)})
    for workload in workloads.WORKLOADS.values():
        queries = workload.build(sat, 1, workload.workers)
        ids = [q.id for q in queries]
        assert queries and len(set(ids)) == len(ids), workload.name
        assert all(isinstance(a, str) for q in queries for a in q.argv)
