"""Command-line entry point.

JSON goes to stdout, human prose to stderr.  Exit codes: 0 ok, 2 usage,
3 domain error, 4 certification mismatch.  Graphs are passed as graph6
strings, inline or as ``@file``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import bounds as bnd
from . import constructions as cons
from . import staropt
from .errors import DomainError, FormatError, SplitPathFreeError
from .graph import Graph, decode_graph6, encode_graph6, to_adjacency_json
from .patterns import parse_pattern
from .saturation import is_family_saturated, is_saturated
from .search import (SearchConstraints, satnum_exact, tstar_scan)
from .counting import count_pattern

SCHEMA = {
    "schema_version": 1,
    "optional": "a type that starts with 'optional' marks a key that only "
                "some reports hold",
    "report": {
        "command": "string", "parameters": "object", "result": "object",
        "wall_time_s": "number (excluded from byte-stability guarantees)",
        "version": "string",
    },
    "error_report": {"error": {"code": "string", "message": "string"}},
    "results": {
        "construct": {"graph6": "string", "n": "int", "edges": "int",
                      "adjacency": {"n": "int", "edges": "[[int, int]]"},
                      "properties": {
                          "degree_sequence": "[int]",
                          "parts": "optional [[int]]: families built from "
                                   "parts",
                          "target": "optional string: families with a "
                                    "target pattern",
                          "saturated": "optional bool: with target"}},
        "count": {"count": "int"},
        "check-sat": {"graph": "graph6", "pattern": "string|[string]",
                      "free": "bool", "saturated": "bool",
                      "witness": "object|null", "checked_nonedges": "int"},
        "satnum star-star / m0": {"satnum": "int", "m0": "int|null",
                                  "tie": "bool|null", "xbar": "number|null",
                                  "note": "optional string: when r >= t"},
        "satnum exact": {"n": "int", "forbid": "string", "count": "string",
                         "minimum": "int", "witnesses": "[graph6]",
                         "witness_total": "int", "graphs_examined": "int",
                         "saturated_found": "int", "workers": "int"},
        "bounds": {"name": "string", "parameters": "object",
                   "value": "number|object|null", "satisfied": "bool|null",
                   "note": "optional string: when the split graph is "
                           "path-free"},
        "tie-ts": {"ts": "[int]"},
        "scan tstar": {"n_max": "int", "pattern": "string",
                       "per_n": "object", "any_found": "bool"},
        "certify": {"entries": "[object]", "mismatches": "[object]"},
        "certify --out": {"out": "string", "entries": "int",
                          "mismatches": "int"},
    },
    "exit_codes": {"0": "ok", "2": "usage", "3": "domain error",
                   "4": "certification mismatch"},
}


# family -> (constructions function, the flags it takes in order, the
# pattern the result is checked to be saturated for)
_FAMILIES = {
    "split": ("split_graph", "n t", "K{t}"),
    "near-regular": ("near_regular", "a b", None),
    "kr": ("kr_graph", "t n m", "S{t}"),
    "regular-multipartite": ("regular_multipartite", "a r k", None),
    "partite": ("partite_saturated", "n r t c", "S{t}"),
    "g49": ("g49", "", "K4"),
    "g4n": ("g4n", "n", "K4"),
    "gtn": ("gtn", "t n", "K{t}"),
    "wt": ("w_t", "t sizes", "K{t}"),
    "fig1": ("fig1", "", "S5"),
    "fig2": ("fig2", "", "S5"),
    "tstar": ("t_star", "", None),
    "cycle-pendants": ("cycle_pendants", "k", None),
}

# bounds name -> (bounds function, the flags it takes in order)
_BOUNDS = {
    "ehm": ("ehm_value", "n t"),
    "cl": ("cl_value", "n r t"),
    "partite-threshold": ("partite_threshold", "r t c"),
    "partite-smooth": ("partite_threshold_smooth", "r t c"),
    "best-c": ("best_c", "r t"),
    "partite-necessary": ("partite_necessary", "r t"),
    "krfree": ("krfree_bound", "r t m"),
    "krfree-at-r": ("krfree_bound_at_r", "r t"),
    "kt-threshold": ("kt_threshold", "pattern"),
    "path-sat-threshold": ("path_sat_threshold", "t"),
    "split-path-leading": ("split_path_leading", "n t r"),
}


def _missing_flag(args) -> str | None:
    """Name the first flag the chosen construct family or bounds name lacks."""
    if args.command == "construct":
        choice, flags = args.family, _FAMILIES[args.family][1]
    elif args.command == "bounds":
        choice, flags = args.name, _BOUNDS[args.name][1]
    else:
        return None
    for flag in flags.split():
        if getattr(args, flag) is None:
            return f"{args.command} {choice} needs --{flag}"
    return None


# an ArgumentTypeError raised by a type becomes a usage error (exit 2)
def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer, got {text!r}")
    return value


def _sizes(text: str) -> str:
    try:
        [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes must be comma-separated integers, got {text!r}")
    return text


def _read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are a format error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}")


def _read_graph(text: str) -> Graph:
    if text.startswith("@"):
        text = _read_text(text[1:]).strip()
    return decode_graph6(text)


def _fraction(x) -> dict:
    """The encoder's hook: a Fraction as numerator, denominator and value;
    reports hold no other type the encoder lacks."""
    if isinstance(x, Fraction):
        return {"numerator": x.numerator, "denominator": x.denominator,
                "value": float(x)}
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit(command: str, parameters: dict, result, started: float) -> None:
    report = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    try:
        text = json.dumps(report, sort_keys=True, default=_fraction)
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise DomainError(f"report not serializable: {exc}", code="capacity")
    print(text)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser,
                       dict[str, argparse.ArgumentParser],
                       list[argparse.Action]]:
    """The argument parser, built once per process, its subparsers by
    command, and its --workers actions, whose default `run` sets from the
    environment on each call.

    `run` parses a command's arguments with that command's own subparser,
    so argparse reads them once and not again under the top parser.
    Leftover arguments go to the top parser's `error`, which reports them
    under its own usage line, as a parse by the top parser would."""
    p = argparse.ArgumentParser(prog="satgraph",
                                description="graph saturation toolkit")
    workers = []
    p.add_argument("--schema", action="store_true",
                   help="print the JSON schema and exit")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("construct", help="emit a named construction")
    c.add_argument("family", choices=list(_FAMILIES))
    for flag in ("--n", "--t", "--r", "--m", "--a", "--b", "--k", "--c"):
        c.add_argument(flag, type=int)
    c.add_argument("--sizes", type=_sizes,
                   help="comma-separated class sizes (wt: m1..m5)")

    q = sub.add_parser("count", help="count pattern copies in a graph")
    q.add_argument("--graph", required=True)
    q.add_argument("--pattern", required=True)

    s = sub.add_parser("check-sat", help="saturation certificate")
    s.add_argument("--graph", required=True)
    s.add_argument("--forbid", required=True, nargs="+")

    sn = sub.add_parser("satnum", help="generalized saturation numbers")
    snsub = sn.add_subparsers(dest="mode", required=True)
    ss = snsub.add_parser("star-star")
    for flag in ("--n", "--r", "--t"):
        ss.add_argument(flag, type=int, required=True)
    se = snsub.add_parser("exact")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--forbid", required=True)
    se.add_argument("--count", required=True)
    se.add_argument("--max-degree", type=int)
    workers.append(se.add_argument("--workers", type=_workers))
    se.add_argument("--connected-only", action="store_true")

    m = sub.add_parser("m0", help="optimal clique size for the KR family")
    for flag in ("--n", "--r", "--t"):
        m.add_argument(flag, type=int, required=True)

    tt = sub.add_parser("tie-ts", help="t values with two optimal m (r=2)")
    tt.add_argument("--max", type=int, required=True)

    b = sub.add_parser("bounds", help="closed-form bounds and thresholds")
    b.add_argument("name", choices=list(_BOUNDS))
    for flag in ("--n", "--t", "--r", "--c", "--m"):
        b.add_argument(flag, type=int)
    b.add_argument("--pattern")

    sc = sub.add_parser("scan", help="exhaustive scans")
    scsub = sc.add_subparsers(dest="what", required=True)
    st = scsub.add_parser("tstar")
    st.add_argument("--max-n", type=int, default=10)
    workers.append(st.add_argument("--workers", type=_workers))

    ce = sub.add_parser("certify", help="oracle/formula comparison archive")
    ce.add_argument("--grid", required=True,
                    help="file of lines: <n> <forbid> <count>")
    ce.add_argument("--out", help="write the archive here instead of stdout")
    workers.append(ce.add_argument("--workers", type=_workers))
    return p, sub.choices, workers


def _construct(args) -> dict:
    func, flags, target = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags.split()]
    if args.family == "wt":
        values[1:] = [int(x) for x in args.sizes.split(",")]
        if len(values) != 6:
            raise DomainError("wt needs five sizes m1,m2,m3,m4,m5")
    g = getattr(cons, func)(*values)
    g, parts = g if isinstance(g, tuple) else (g, None)
    props: dict = {"degree_sequence": sorted(g.degrees())}
    if parts is not None:
        props["parts"] = parts
    if target is not None:
        target = parse_pattern(target.format(t=args.t))
        cert = is_saturated(g, target)
        props["target"] = str(target)
        props["saturated"] = cert.is_saturated
    return {"graph6": encode_graph6(g), "n": g.n, "edges": g.num_edges(),
            "adjacency": to_adjacency_json(g), "properties": props}


def _bounds(args) -> dict:
    name = args.name
    func, flags = _BOUNDS[name]
    values = [getattr(args, flag) for flag in flags.split()]
    if name == "kt-threshold":
        values = [parse_pattern(args.pattern)]
    report = {"name": name, "parameters": _params(args), "satisfied": None}
    try:
        value = report["value"] = getattr(bnd, func)(*values)
    except SplitPathFreeError as exc:
        return {**report, "value": None, "note": str(exc)}
    if name == "best-c":  # report keys are strings
        report["value"] = {**value, "all": {str(c): n1 for c, n1
                                            in value["all"].items()}}
    elif args.n is not None and name == "partite-threshold":
        report["satisfied"] = args.n >= max(args.t + 1, value)
    elif args.n is not None and name == "partite-necessary":
        report["satisfied"] = Fraction(args.n) >= value
    elif args.n is not None and name == "path-sat-threshold":
        report["satisfied"] = args.n >= value
    return report


def _params(args) -> dict:
    skip = {"command", "mode", "what", "schema"}
    return {k: v for k, v in vars(args).items()
            if v is not None and k not in skip}


def _certify(args) -> tuple[dict, bool]:
    entries = []
    mismatches = []
    for lineno, raw in enumerate(_read_text(args.grid).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise DomainError(f"malformed grid line {lineno}: {raw.strip()!r} "
                              f"(expected: <n> <forbid> <count>)",
                              code="grid")
        try:
            n = int(fields[0])
            forbid = parse_pattern(fields[1])
            count = parse_pattern(fields[2])
        except (ValueError, DomainError) as exc:
            raise DomainError(f"malformed grid line {lineno}: {exc}",
                              code="grid")
        report = satnum_exact(n, forbid, count, workers=args.workers)
        formula = None
        source = None
        if forbid.kind == "star" and count.kind == "star":
            if n >= 2 * forbid.size - 1:
                formula = staropt.satnum_star_star(n, count.size, forbid.size)
                source = "kr-minimum"
        elif forbid.kind == "clique" and count.kind == "star" and count.size == 1:
            formula = bnd.ehm_value(n, forbid.size)
            source = "edge-minimum"
        elif forbid.kind == "clique" and count.kind == "clique":
            formula = bnd.cl_value(n, count.size, forbid.size)
            source = "clique-minimum"
        entry = {"n": n, "forbid": str(forbid), "count": str(count),
                 "oracle": report.minimum, "formula": formula,
                 "formula_source": source,
                 "witnesses": report.witnesses,
                 "graphs_examined": report.graphs_examined}
        entries.append(entry)
        if formula is not None and formula != report.minimum:
            mismatches.append(entry)
    archive = {"entries": entries, "mismatches": mismatches}
    return archive, not mismatches


def run(argv) -> int:
    parser, commands, workers = _parser()
    # a string default goes through the type check like a typed value
    for action in workers:
        action.default = os.environ.get("SATGRAPH_WORKERS", "1")
    started = time.perf_counter()
    try:
        if argv and argv[0] in commands:
            args, extra = commands[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(schema=False, command=argv[0]))
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.schema:
        print(json.dumps(SCHEMA, sort_keys=True))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    missing = _missing_flag(args)
    if missing:
        print(f"satgraph: error: {missing}", file=sys.stderr)
        return 2
    try:
        if args.command == "construct":
            _emit("construct", _params(args), _construct(args), started)
        elif args.command == "count":
            g = _read_graph(args.graph)
            pat = parse_pattern(args.pattern)
            _emit("count", {"graph": args.graph, "pattern": args.pattern},
                  {"count": count_pattern(g, pat)}, started)
        elif args.command == "check-sat":
            g = _read_graph(args.graph)
            pats = [parse_pattern(s) for s in args.forbid]
            cert = is_family_saturated(g, pats)
            _emit("check-sat", {"graph": args.graph,
                                "forbid": [str(p) for p in pats]},
                  cert.to_json(), started)
        elif args.command == "m0" or getattr(args, "mode", None) == "star-star":
            if args.r >= args.t:  # the library checks t >= 2 and r >= 1
                result = {"satnum": staropt.satnum_star_star(
                    args.n, args.r, args.t), "m0": None, "tie": None,
                    "xbar": None, "note": "trivially zero: r >= t"}
            else:
                inst = staropt.star_star_instance(args.n, args.r, args.t)
                result = {"satnum": inst.satnum, "m0": inst.m0,
                          "tie": inst.tie, "xbar": inst.xbar}
            _emit("m0" if args.command == "m0" else "satnum star-star",
                  _params(args), result, started)
        elif args.command == "satnum":
            cons_ = SearchConstraints(max_degree=args.max_degree,
                                      connected_only=args.connected_only)
            rep = satnum_exact(args.n, parse_pattern(args.forbid),
                               parse_pattern(args.count), cons_,
                               workers=args.workers)
            _emit("satnum exact", _params(args), rep.to_json(), started)
        elif args.command == "tie-ts":
            _emit("tie-ts", {"max": args.max},
                  {"ts": staropt.tie_ts(args.max)}, started)
        elif args.command == "bounds":
            _emit("bounds", _params(args), _bounds(args), started)
        elif args.command == "scan":
            scan = tstar_scan(args.max_n, workers=args.workers)
            # report keys are strings, sorted "1", "10", "2"
            scan["per_n"] = {str(n): v for n, v in scan["per_n"].items()}
            _emit("scan tstar", _params(args), scan, started)
        elif args.command == "certify":
            archive, ok = _certify(args)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(archive, fh, sort_keys=True, indent=1)
                _emit("certify", _params(args),
                      {"out": args.out,
                       "entries": len(archive["entries"]),
                       "mismatches": len(archive["mismatches"])}, started)
            else:
                _emit("certify", _params(args), archive, started)
            if not ok:
                bad = archive["mismatches"][0]
                print(f"certification mismatch at (n={bad['n']}, "
                      f"forbid={bad['forbid']}, count={bad['count']})",
                      file=sys.stderr)
                return 4
    except (DomainError, OSError) as exc:
        code = exc.code if isinstance(exc, DomainError) else "io"
        print(json.dumps({"error": {"code": code, "message": str(exc)}},
                         sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: nothing more to say
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
