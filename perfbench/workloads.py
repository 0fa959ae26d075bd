"""The benchmark's workloads: lists of CLI argument lists.

Each workload is a fixed set of queries for ``satgraph.cli.run``.  The
seed only permutes the order of the ``oracle_mix`` queries; answers are
checked per query, so the order never changes what is correct.  The
``certify`` grids are files in ``grids/``.  README.md in this directory
says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GRIDS = Path(__file__).resolve().parent / "grids"


@dataclass(frozen=True)
class Query:
    id: str                  # stable across seeds; keys the reference
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int             # --workers passed on untraced runs
    # build(sat, seed, workers) -> list[Query]; ``sat`` is the
    # namespace of imported satgraph modules.
    build: Callable


def _exact_clique(sat, seed, workers):
    return [Query("satnum exact 8 K4 S1",
                  ("satnum", "exact", "--n", "8", "--forbid", "K4",
                   "--count", "S1", "--workers", str(workers)))]


def _scan_tree(sat, seed, workers):
    return [Query("scan tstar 9",
                  ("scan", "tstar", "--max-n", "9",
                   "--workers", str(workers)))]


def _certify(grid: str, workers):
    return Query(f"certify {grid} grid",
                 ("certify", "--grid", str(GRIDS / f"{grid}.txt"),
                  "--workers", str(workers)))


def _certify_shared(sat, seed, workers):
    return [_certify("shared", workers)]


# Nine small exhaustive searches.  The memo is cleared before every query,
# as a fresh CLI process starts without it; only the certify grid, one
# query, gets memo hits.
ORACLE_EXACT = ("6 K3 S1", "5 K3 S2", "6 K4 K3", "5 K4 S1", "6 S5 S3",
                "6 S4 S2", "5 S3 S1", "6 S3 S2", "6 P4 S1")


def _oracle_mix(sat, seed, workers):
    cons, g6 = sat.constructions, sat.graph.encode_graph6
    q: list[Query] = []

    def add(*argv):
        q.append(Query(" ".join(argv), tuple(argv)))

    def add_graph(label, graph, *argv):
        # The graph6 text is an input; the id names the graph instead.
        q.append(Query(f"{argv[0]} {label} {' '.join(argv[1:])}",
                       (argv[0], "--graph", g6(graph)) + argv[1:]))

    # constructions with their saturation check: the acceptance grid
    for t in range(2, 8):
        for n in range(t, 2 * t + 5):
            for m in range(t):
                if n - m < t or (m == 0 and (t - 1) * n % 2):
                    continue
                add("construct", "kr", "--t", str(t), "--n", str(n),
                    "--m", str(m))
    for t in range(2, 7):
        for n in range(t, 15):
            add("construct", "split", "--n", str(n), "--t", str(t))
    for n in range(9, 61):
        add("construct", "g4n", "--n", str(n))
    # counting on large graphs
    for n in range(24, 61):
        add_graph(f"g4n({n})", cons.g4n(n), "count", "--pattern", "S3")
        add_graph(f"split({n},4)", cons.split_graph(n, 4),
                  "count", "--pattern", "S3")
    for t in (4, 5):
        for n in range(2 * t - 2, 15, 2):
            for pattern in ("P4", "P6", "C5", "K3"):
                add_graph(f"split({n},{t})", cons.split_graph(n, t),
                          "count", "--pattern", pattern)
    # saturation certificates against the spider tree
    spider = "T:" + g6(cons.t_star())
    for k in range(3, 11):
        add_graph(f"cycle_pendants({k})", cons.cycle_pendants(k),
                  "check-sat", "--forbid", spider)
    # closed forms
    for t in range(3, 14, 2):
        for r in range(2, t):
            add("m0", "--n", str(2 * t - 1), "--r", str(r), "--t", str(t))
    add("tie-ts", "--max", "12")
    for n in range(6, 15, 2):
        add("bounds", "ehm", "--n", str(n), "--t", "4")
        add("bounds", "cl", "--n", str(n), "--r", "3", "--t", "5")
    # small exhaustive searches
    for line in ORACLE_EXACT:
        n, forbid, count = line.split()
        add("satnum", "exact", "--n", n, "--forbid", forbid,
            "--count", count, "--workers", "1")
    q.append(_certify("mix", 1))
    random.Random(seed).shuffle(q)
    return q


WORKLOADS = {w.name: w for w in (
    Workload("exact_clique", 1, _exact_clique),
    Workload("scan_tree", 2, _scan_tree),
    Workload("certify_shared", 1, _certify_shared),
    Workload("oracle_mix", 1, _oracle_mix),
)}

