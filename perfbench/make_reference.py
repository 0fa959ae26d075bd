"""Write perfbench/reference.json: the expected answer of every query.

    python3 perfbench/make_reference.py

Runs each workload's queries once with the code in ``src/`` and stores
each exit code and JSON result (keyed by query id).  Before writing, the
answers are checked against values that do not come from the search:
the closed forms ``ehm_value``, ``cl_value`` and ``satnum_star_star``,
published constants, and OEIS A006785 (triangle-free graph classes).
Those checks also run three larger searches (about a minute in all).
Only regenerate the file when an answer is meant to change.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from run import REFERENCE, answer, clear_memo, import_satgraph
from tracing import Tracer, installed, layer_metrics
from workloads import WORKLOADS


def run_query(sat, query):
    out = io.StringIO()
    with redirect_stdout(out):
        code = sat.cli.run(list(query.argv))
    return answer(code, out.getvalue())


def closed_form(sat, n: int, forbid: str, count: str):
    """The formula value the exhaustive minimum must equal, if one applies."""
    f = sat.patterns.parse_pattern(forbid)
    h = sat.patterns.parse_pattern(count)
    if f.kind == "clique" and h.kind == "star" and h.size == 1 and n >= f.size:
        return sat.bounds.ehm_value(n, f.size)
    if f.kind == "clique" and h.kind == "clique" and 2 <= h.size < f.size:
        return sat.bounds.cl_value(n, h.size, f.size)
    if f.kind == "star" and h.kind == "star" and n >= 2 * f.size - 1:
        return sat.staropt.satnum_star_star(n, h.size, f.size)
    return None


def cross_check(sat, refs) -> list[str]:
    notes = []
    for name, answers in refs.items():
        for qid, ans in answers.items():
            assert ans["exit"] == 0, (name, qid, ans)
            res = ans["result"]
            if qid.startswith("satnum exact"):
                want = closed_form(sat, res["n"], res["forbid"], res["count"])
                if want is not None:
                    assert res["minimum"] == want, (qid, res["minimum"], want)
                    notes.append(f"{qid}: minimum {want} = closed form")
            if qid.startswith("construct"):
                assert res["properties"].get("saturated", True), qid
    for name, grid in (("certify_shared", "shared"), ("oracle_mix", "mix")):
        cert = refs[name][f"certify {grid} grid"]["result"]
        assert not cert["mismatches"]
        checked = [e for e in cert["entries"] if e["formula"] is not None]
        assert all(e["oracle"] == e["formula"] for e in checked)
        notes.append(f"certify {grid}: {len(checked)} of "
                     f"{len(cert['entries'])} lines have a formula and "
                     f"match it")
    mix = refs["oracle_mix"]
    # Fig. 2: 18 three-stars; blow-up beats split on S3 for 24 <= n <= 60.
    assert mix["satnum exact --n 6 --forbid S5 --count S3 --workers 1"][
        "result"]["minimum"] == 18
    s3 = {qid: a["result"]["count"] for qid, a in mix.items()
          if qid.startswith("count") and qid.endswith("--pattern S3")}
    assert s3["count g4n(30) --pattern S3"] == 5910
    assert s3["count split(30,4) --pattern S3"] == 7308
    assert all(s3[f"count g4n({n}) --pattern S3"]
               < s3[f"count split({n},4) --pattern S3"] for n in range(24, 61))
    assert mix["tie-ts --max 12"]["result"]["ts"][:5] == [2, 4, 11, 37, 134]
    notes.append("oracle_mix: S3 counts, Fig. 2 minimum and tie values match")
    return notes


def larger_searches(sat, mods) -> list[str]:
    """Searches too slow for a benchmark run, against published values."""
    notes = []
    for n, classes in ((9, 1897), (10, 12172)):  # OEIS A006785
        clear_memo(sat)
        rep = sat.search.satnum_exact(n, sat.patterns.clique(3),
                                      sat.patterns.star(1))
        assert rep.graphs_examined == classes, (n, rep.graphs_examined)
        notes.append(f"K3-free classes at n={n}: {classes} (OEIS A006785)")
    clear_memo(sat)
    tracer = Tracer()
    with installed(tracer, mods):
        rep = sat.search.satnum_exact(9, sat.patterns.clique(4),
                                      sat.patterns.star(1))
    assert (rep.minimum, rep.graphs_examined, rep.saturated_found) == \
        (sat.bounds.ehm_value(9, 4), 103164, 35) == (15, 103164, 35)
    layers = layer_metrics(tracer)
    assert layers["search.classes"] == 103164
    assert layers["search.saturated"] == 35
    notes.append(f"K4/S1 at n=9: minimum 15, 103164 classes, 35 saturated; "
                 f"traced canon.calls {layers['canon.calls']}")
    return notes


def dumps(refs) -> str:
    """JSON with one line per query, so that a changed answer shows as a
    one-line diff."""
    blocks = []
    for name, answers in sorted(refs.items()):
        lines = [f"  {json.dumps(qid)}: {json.dumps(ans, sort_keys=True)}"
                 for qid, ans in sorted(answers.items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sat, mods = import_satgraph()
    refs = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for query in workload.build(sat, 0, workload.workers):
            clear_memo(sat)
            refs[name][query.id] = run_query(sat, query)
    for note in cross_check(sat, refs) + larger_searches(sat, mods):
        print(note, file=sys.stderr)
    REFERENCE.write_text(dumps(refs))
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
