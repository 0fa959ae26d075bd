"""CLI behavior: JSON output, exit codes, schema, certify."""

import json
import os
import subprocess
import sys
import time
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest

import satgraph
from satgraph.cli import _fraction, run
from satgraph.graph import decode_graph6, encode_graph6
from satgraph import constructions as cons


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_satnum_star_star(capsys):
    code, out, _ = invoke(capsys, "satnum", "star-star",
                          "--n", "9", "--r", "2", "--t", "5")
    assert code == 0
    res = payload(out)["result"]
    assert res["satnum"] == 39 and res["m0"] == 3 and res["tie"] is False


def test_check_sat_fig1(capsys):
    g6 = encode_graph6(cons.fig1())
    code, out, _ = invoke(capsys, "check-sat", "--graph", g6, "--forbid", "S5")
    assert code == 0
    assert payload(out)["result"]["saturated"] is True


def test_count_split_paths(capsys):
    g6 = encode_graph6(cons.split_graph(6, 4))
    code, out, _ = invoke(capsys, "count", "--graph", g6, "--pattern", "P4")
    assert code == 0
    assert payload(out)["result"]["count"] == 36


def test_construct_kr(capsys):
    code, out, _ = invoke(capsys, "construct", "kr",
                          "--t", "5", "--n", "9", "--m", "3")
    assert code == 0
    res = payload(out)["result"]
    assert res["n"] == 9 and res["properties"]["saturated"] is True
    assert decode_graph6(res["graph6"]).n == 9


def test_construct_partite_reports_parts(capsys):
    code, out, _ = invoke(capsys, "construct", "partite",
                          "--n", "9", "--r", "4", "--t", "5", "--c", "1")
    assert code == 0
    res = payload(out)["result"]
    assert len(res["properties"]["parts"]) == 3
    assert res["properties"]["saturated"] is True


def test_m0_command(capsys):
    code, out, _ = invoke(capsys, "m0", "--n", "21", "--r", "2", "--t", "11")
    assert code == 0
    res = payload(out)["result"]
    assert res["m0"] == 6 and res["tie"] is True and res["xbar"] == 6.0


def test_tie_ts(capsys):
    code, out, _ = invoke(capsys, "tie-ts", "--max", "4")
    assert code == 0
    assert payload(out)["result"]["ts"] == [2, 4, 11, 37, 134]


def test_bounds_ehm(capsys):
    code, out, _ = invoke(capsys, "bounds", "ehm", "--n", "9", "--t", "4")
    assert code == 0
    assert payload(out)["result"]["value"] == 15


def test_bounds_split_path_free_note(capsys):
    code, out, _ = invoke(capsys, "bounds", "split-path-leading",
                          "--n", "12", "--t", "4", "--r", "6")
    assert code == 0
    res = payload(out)["result"]
    assert res["value"] is None and "P_7-free" in res["note"]


def test_satnum_exact_command(capsys):
    code, out, _ = invoke(capsys, "satnum", "exact", "--n", "5",
                          "--forbid", "K3", "--count", "S1")
    assert code == 0
    res = payload(out)["result"]
    assert res["minimum"] == 4


def test_graph_at_file(tmp_path, capsys):
    path = tmp_path / "graph.g6"
    path.write_text(encode_graph6(cons.fig2()) + "\n")
    code, out, _ = invoke(capsys, "count", "--graph", f"@{path}",
                          "--pattern", "S3")
    assert code == 0
    assert payload(out)["result"]["count"] == 18


def test_usage_error_exit_2(capsys):
    code, _, _ = invoke(capsys, "satnum", "star-star", "--n", "9")
    assert code == 2
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2


def test_domain_error_exit_3(capsys):
    code, out, _ = invoke(capsys, "construct", "split", "--n", "3", "--t", "5")
    assert code == 3
    blob = json.loads(out.strip().splitlines()[-1])
    assert "error" in blob and blob["error"]["code"]


def test_trivial_star_star_checks_t_and_r(capsys):
    """The r >= t shortcut of m0 and satnum star-star validates t and n as
    the library does (r >= t >= 2 then gives r >= 1), and still gives its
    note on valid input."""
    for argv, message in (
            (["satnum", "star-star", "--n", "-4", "--r", "0", "--t", "0"],
             "need t >= 2"),
            (["m0", "--n", "5", "--r", "3", "--t", "1"], "need t >= 2"),
            (["m0", "--n", "5", "--r", "0", "--t", "-1"], "need t >= 2"),
            (["satnum", "star-star", "--n", "-4", "--r", "5", "--t", "3"],
             "need n >= 1, got n=-4"),
            (["m0", "--n", "0", "--r", "4", "--t", "4"],
             "need n >= 1, got n=0")):
        code, out, _ = invoke(capsys, *argv)
        assert code == 3, argv
        assert payload(out)["error"] == {"code": "domain", "message": message}
    code, out, _ = invoke(capsys, "m0", "--n", "9", "--r", "5", "--t", "3")
    assert code == 0
    assert payload(out)["result"] == {"satnum": 0, "m0": None, "tie": None,
                                      "xbar": None,
                                      "note": "trivially zero: r >= t"}


def test_schema_flag(capsys):
    code, out, _ = invoke(capsys, "--schema")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema_version"] == 1


def test_repeat_runs_byte_identical_modulo_walltime(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = invoke(capsys, "satnum", "star-star",
                              "--n", "9", "--r", "2", "--t", "5")
        assert code == 0
        blob = payload(out)
        blob.pop("wall_time_s")
        outs.append(json.dumps(blob, sort_keys=True))
    assert outs[0] == outs[1]


def test_certify_grid(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "# n forbid count\n"
        "7 S3 S2\n"
        "5 K3 S1\n"
        "6 K4 S1\n")
    out_path = tmp_path / "archive.json"
    code, out, _ = invoke(capsys, "certify", "--grid", str(grid),
                          "--out", str(out_path))
    assert code == 0
    archive = json.loads(out_path.read_text())
    assert len(archive["entries"]) == 3
    assert archive["mismatches"] == []
    assert all(e["formula"] == e["oracle"] for e in archive["entries"])


README_COMMANDS = [
    ["satnum", "star-star", "--n", "9", "--r", "2", "--t", "5"],
    ["m0", "--n", "21", "--r", "2", "--t", "11"],
    ["tie-ts", "--max", "4"],
    ["construct", "kr", "--t", "5", "--n", "9", "--m", "3"],
    ["construct", "partite", "--n", "9", "--r", "4", "--t", "5", "--c", "1"],
    ["count", "--graph", "E}r?", "--pattern", "P4"],
    ["check-sat", "--graph", "EznW", "--forbid", "S5"],
    ["bounds", "ehm", "--n", "9", "--t", "4"],
    ["bounds", "split-path-leading", "--n", "6", "--t", "4", "--r", "3"],
    ["satnum", "exact", "--n", "5", "--forbid", "K3", "--count", "S1"],
    ["scan", "tstar", "--max-n", "8"],
    ["--schema"],
]


def test_readme_commands_stable(capsys):
    """Each documented command exits 0 with byte-identical JSON across
    runs (wall time aside)."""
    for argv in README_COMMANDS:
        outs = []
        for _ in range(2):
            code, out, _ = invoke(capsys, *argv)
            assert code == 0, argv
            blob = json.loads(out.strip().splitlines()[-1])
            blob.pop("wall_time_s", None)
            outs.append(json.dumps(blob, sort_keys=True))
        assert outs[0] == outs[1], argv


def test_certify_malformed_line(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("7 S3 S2\nbogus line here extra\n")
    code, out, _ = invoke(capsys, "certify", "--grid", str(grid))
    assert code == 3
    blob = json.loads(out.strip().splitlines()[-1])
    assert "line 2" in blob["error"]["message"]


def test_workers_env_not_an_integer_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SATGRAPH_WORKERS", "x")
    code, out, err = invoke(capsys, "scan", "tstar", "--max-n", "3")
    assert code == 2 and out == "" and "workers" in err


def test_workers_below_one_is_usage_error(capsys):
    for value in ("0", "-3"):
        for argv in (["satnum", "exact", "--n", "5", "--forbid", "K3",
                      "--count", "S1"], ["scan", "tstar", "--max-n", "3"],
                     ["certify", "--grid", "grid.txt"]):
            code, out, err = invoke(capsys, *argv, "--workers", value)
            assert code == 2 and out == "" and "workers" in err, argv


def test_missing_graph_file_is_io_error(tmp_path, capsys):
    code, out, _ = invoke(capsys, "count", "--graph", f"@{tmp_path}/none.g6",
                          "--pattern", "K3")
    assert code == 3 and payload(out)["error"]["code"] == "io"
    code, out, _ = invoke(capsys, "certify", "--grid", str(tmp_path / "none"))
    assert code == 3 and payload(out)["error"]["code"] == "io"


def test_directory_as_graph_file_is_io_error(tmp_path, capsys):
    code, out, _ = invoke(capsys, "count", "--graph", f"@{tmp_path}",
                          "--pattern", "K3")
    assert code == 3 and payload(out)["error"]["code"] == "io"


@pytest.mark.parametrize("argv, flag", [
    (["construct", "split", "--t", "4"], "--n"),
    (["construct", "wt", "--t", "4"], "--sizes"),
    (["construct", "wt", "--t", "4", "--sizes", "1,x,1,1,1"], "--sizes"),
    (["bounds", "ehm", "--n", "5"], "--t"),
    (["bounds", "kt-threshold"], "--pattern"),
    (["bounds", "partite-smooth", "--r", "4", "--t", "5"], "--c"),
])
def test_missing_family_flag_is_usage_error(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == "" and flag in err


_TOP_USAGE = (
    "usage: satgraph [-h] [--schema]\n"
    "                {construct,count,check-sat,satnum,m0,tie-ts,bounds,scan,"
    "certify}\n"
    "                ...\n")
_CONSTRUCT_USAGE = (
    "usage: satgraph construct [-h] [--n N] [--t T] [--r R] [--m M] [--a A] "
    "[--b B]\n"
    "                          [--k K] [--c C] [--sizes SIZES]\n"
    "                          {split,near-regular,kr,regular-multipartite,"
    "partite,g49,g4n,gtn,wt,fig1,fig2,tstar,cycle-pendants}\n")
_KR = ["construct", "kr", "--t", "3", "--n", "5", "--m", "1"]


@pytest.mark.parametrize("argv, err", [
    ([], _TOP_USAGE),
    (["no-such-command"], _TOP_USAGE +
     "satgraph: error: argument command: invalid choice: 'no-such-command' "
     "(choose from 'construct', 'count', 'check-sat', 'satnum', 'm0', "
     "'tie-ts', 'bounds', 'scan', 'certify')\n"),
    (["construct"], _CONSTRUCT_USAGE +
     "satgraph construct: error: the following arguments are required: "
     "family\n"),
    (["construct", "nope"], _CONSTRUCT_USAGE +
     "satgraph construct: error: argument family: invalid choice: 'nope' "
     "(choose from 'split', 'near-regular', 'kr', 'regular-multipartite', "
     "'partite', 'g49', 'g4n', 'gtn', 'wt', 'fig1', 'fig2', 'tstar', "
     "'cycle-pendants')\n"),
    (_KR + ["--schema"], _TOP_USAGE +
     "satgraph: error: unrecognized arguments: --schema\n"),
    (_KR + ["junk", "--x"], _TOP_USAGE +
     "satgraph: error: unrecognized arguments: junk --x\n"),
    (["satnum"],
     "usage: satgraph satnum [-h] {star-star,exact} ...\n"
     "satgraph satnum: error: the following arguments are required: mode\n"),
    (["satnum", "exact", "--n", "x", "--forbid", "K3", "--count", "S1"],
     "usage: satgraph satnum exact [-h] --n N --forbid FORBID --count COUNT\n"
     "                             [--max-degree MAX_DEGREE] "
     "[--workers WORKERS]\n"
     "                             [--connected-only]\n"
     "satgraph satnum exact: error: argument --n: invalid int value: 'x'\n"),
    (["scan", "tstar", "--workers", "0"],
     "usage: satgraph scan tstar [-h] [--max-n MAX_N] [--workers WORKERS]\n"
     "satgraph scan tstar: error: argument --workers: workers must be a "
     "positive integer, got '0'\n"),
    (["count", "--graph"],
     "usage: satgraph count [-h] --graph GRAPH --pattern PATTERN\n"
     "satgraph count: error: argument --graph: expected one argument\n"),
])
def test_usage_error_golden_bytes(capsys, monkeypatch, argv, err):
    """Exit code, stdout and stderr of usage errors, byte for byte.
    Leftover arguments are reported under the top parser's usage line,
    whichever parser read the command's arguments."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    monkeypatch.delenv("SATGRAPH_WORKERS", raising=False)
    assert invoke(capsys, *argv) == (2, "", err)


def test_non_utf8_graph_file_is_format_error(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_bytes(b"D\xff\xfe~w")
    code, out, _ = invoke(capsys, "count", "--graph", f"@{path}",
                          "--pattern", "K3")
    assert code == 3 and payload(out)["error"]["code"] == "format"


def test_non_utf8_grid_file_is_format_error(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_bytes(b"5 K3 S1\n\xff\xfe 6 K3 S1\n")
    code, out, _ = invoke(capsys, "certify", "--grid", str(grid))
    assert code == 3 and payload(out)["error"]["code"] == "format"


def test_negative_max_degree_is_domain_error(capsys):
    code, out, _ = invoke(capsys, "satnum", "exact", "--n", "6", "--forbid",
                          "K3", "--count", "S1", "--max-degree", "-1")
    assert code == 3 and payload(out)["error"]["code"] == "domain"


def test_workers_env_read_on_every_run(capsys, monkeypatch):
    argv = ["satnum", "exact", "--n", "3", "--forbid", "K3", "--count", "S1"]
    monkeypatch.delenv("SATGRAPH_WORKERS", raising=False)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and payload(out)["parameters"]["workers"] == 1
    monkeypatch.setenv("SATGRAPH_WORKERS", "x")
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == "" and "workers" in err
    monkeypatch.setenv("SATGRAPH_WORKERS", "2")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and payload(out)["parameters"]["workers"] == 2
    assert payload(out)["result"]["workers"] == 2


@pytest.mark.parametrize("argv", [
    ["satnum", "exact", "--n", "-3", "--forbid", "K3", "--count", "S1"],
    ["satnum", "exact", "--n", "0", "--forbid", "S2", "--count", "S1"],
    ["scan", "tstar", "--max-n", "-2"],
    ["scan", "tstar", "--max-n", "0"],
])
def test_order_below_one_is_domain_error(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 3 and payload(out)["error"]["code"] == "domain"


@pytest.fixture
def address_space_cap():
    """Cap this process's address space 1 GB above its present size, so a
    build that allocates before its capacity check fails with MemoryError
    instead of taking gigabytes."""
    resource = pytest.importorskip("resource")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        size = None
    if size is not None and limits[0] == resource.RLIM_INFINITY:
        resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 30), limits[1]))
    yield
    resource.setrlimit(resource.RLIMIT_AS, limits)


@pytest.mark.parametrize("argv", [
    ["construct", "near-regular", "--a", "2", "--b", "1000000000"],
    ["construct", "split", "--n", "1000000000", "--t", "4"],
    ["check-sat", "--graph", "D~{", "--forbid", "P1000000000"],
    ["check-sat", "--graph", "D~{", "--forbid", "C1000000000"],
    ["bounds", "kt-threshold", "--pattern", "S1000000000"],
])
def test_huge_order_is_rejected_before_building(capsys, address_space_cap,
                                                argv):
    started = time.perf_counter()
    code, out, _ = invoke(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3 and payload(out)["error"]["code"] == "capacity"


_Pair = namedtuple("_Pair", "u v")

# Every kind of value a report holds: Fractions, number keys written as
# strings ("1", "10", "2", like `scan tstar`'s per_n), tuples, bool, None,
# floats, an adjacency list, and dict/tuple subclasses.
_REPORT_SAMPLE = {
    "ratio": Fraction(7, 3),
    "per_n": {"1": {"found": True}, "10": None,
              "2": [Fraction(-1, 2), 0.5]},
    "pairs": ((0, 1), (2, 3)),
    "flags": [True, False, None],
    "floats": (0.1, 1e-07, -0.0, 2.0),
    "adjacency": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "nested": [[Fraction(1, 2), {"x": (Fraction(-3, 4), "s")}], [], {}],
    "subclasses": OrderedDict([("3", _Pair(4, Fraction(5)))]),
}

# the bytes every report serializer so far gave for _REPORT_SAMPLE
_REPORT_GOLDEN = (
    '{"adjacency": {"edges": [[0, 1], [1, 2]], "n": 3}, '
    '"flags": [true, false, null], "floats": [0.1, 1e-07, -0.0, 2.0], '
    '"nested": [[{"denominator": 2, "numerator": 1, "value": 0.5}, '
    '{"x": [{"denominator": 4, "numerator": -3, "value": -0.75}, "s"]}], '
    '[], {}], "pairs": [[0, 1], [2, 3]], '
    '"per_n": {"1": {"found": true}, "10": null, '
    '"2": [{"denominator": 2, "numerator": -1, "value": -0.5}, 0.5]}, '
    '"ratio": {"denominator": 3, "numerator": 7, '
    '"value": 2.3333333333333335}, '
    '"subclasses": {"3": [4, {"denominator": 1, "numerator": 5, '
    '"value": 5.0}]}}')


def test_report_serializer_golden_bytes():
    assert json.dumps(_REPORT_SAMPLE, sort_keys=True, default=_fraction) == \
        _REPORT_GOLDEN
    with pytest.raises(TypeError):
        json.dumps({"set": {1}}, default=_fraction)


@pytest.mark.parametrize("argv, path, keys", [
    (["scan", "tstar", "--max-n", "10"], ("per_n",),
     ["1", "10", "2", "3", "4", "5", "6", "7", "8", "9"]),
    (["bounds", "best-c", "--r", "12", "--t", "5"], ("value", "all"),
     ["0", "1", "10", "2", "3", "4", "5", "6", "7", "8", "9"]),
])
def test_number_keyed_reports_sort_keys_as_strings(capsys, argv, path, keys):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    result = payload(out)["result"]
    for key in path:
        result = result[key]
    assert list(result) == keys


def test_tie_ts_within_digit_limit(capsys):
    code, out, _ = invoke(capsys, "tie-ts", "--max", "7518")
    assert code == 0
    ts = payload(out)["result"]["ts"]
    assert len(ts) == 7519 and len(str(ts[-1])) == 4300


@pytest.mark.parametrize("i_max", ["7519", "1000000"])
def test_tie_ts_past_digit_limit_is_capacity_error(capsys, address_space_cap,
                                                  i_max):
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "tie-ts", "--max", i_max)
    assert time.perf_counter() - started < 1.0
    assert code == 3 and payload(out)["error"]["code"] == "capacity"


def test_tie_ts_past_a_lowered_digit_limit_is_capacity_error(capsys):
    # t(1200) has 687 digits, past the least limit Python accepts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = invoke(capsys, "tie-ts", "--max", "1200")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 3 and payload(out)["error"]["code"] == "capacity"
    code, out, _ = invoke(capsys, "tie-ts", "--max", "1200")
    assert code == 0 and len(str(payload(out)["result"]["ts"][-1])) == 687


def _keys_match_schema(result: dict, schema: dict, where: str) -> None:
    """result holds every key schema requires, and no key schema lacks;
    a key whose type starts with "optional" may be missing."""
    required = {k for k, v in schema.items()
                if not (isinstance(v, str) and v.startswith("optional"))}
    assert required <= result.keys() <= schema.keys(), where
    for key, sub in schema.items():
        if isinstance(sub, dict) and key in result:
            _keys_match_schema(result[key], sub, f"{where}.{key}")


def test_schema_names_every_result_key(capsys, tmp_path):
    code, out, _ = invoke(capsys, "--schema")
    schema = json.loads(out)
    assert code == 0 and schema["schema_version"] == 1
    grid = tmp_path / "grid.txt"
    grid.write_text("5 K3 S1\n6 S3 S2\n")
    queries = {
        "construct": [["construct", "partite", "--n", "9", "--r", "4",
                       "--t", "5", "--c", "1"],
                      ["construct", "near-regular", "--a", "3", "--b", "4"]],
        "count": [["count", "--graph", "E}r?", "--pattern", "P4"]],
        "check-sat": [["check-sat", "--graph", "EznW", "--forbid", "S5"]],
        "satnum star-star / m0": [
            ["satnum", "star-star", "--n", "9", "--r", "2", "--t", "5"],
            ["m0", "--n", "9", "--r", "5", "--t", "3"]],
        "satnum exact": [["satnum", "exact", "--n", "5", "--forbid", "K3",
                          "--count", "S1"]],
        "bounds": [["bounds", "ehm", "--n", "9", "--t", "4"],
                   ["bounds", "split-path-leading", "--n", "6", "--t", "4",
                    "--r", "7"]],
        "tie-ts": [["tie-ts", "--max", "4"]],
        "scan tstar": [["scan", "tstar", "--max-n", "7"]],
        "certify": [["certify", "--grid", str(grid)]],
        "certify --out": [["certify", "--grid", str(grid), "--out",
                           str(tmp_path / "archive.json")]],
    }
    assert queries.keys() == schema["results"].keys()
    notes = 0
    for name, runs in queries.items():
        for argv in runs:
            code, out, _ = invoke(capsys, *argv)
            report = payload(out)
            assert code == 0, argv
            _keys_match_schema(report, schema["report"], name)
            _keys_match_schema(report["result"], schema["results"][name],
                               name)
            notes += "note" in report["result"]
    assert notes == 2  # the optional notes of m0 and bounds were checked
    code, out, _ = invoke(capsys, "satnum", "exact", "--n", "11",
                          "--forbid", "K3", "--count", "S1")
    assert code == 3
    _keys_match_schema(payload(out), schema["error_report"], "error")


def test_closed_stdout_exits_io_without_traceback():
    """A reader that closes stdout before the report is written (as
    ``| head -c 10`` does) ends the command with exit 3, the io class,
    and no traceback on stderr."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(satgraph.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "satgraph.cli", "construct", "kr", "--t", "5",
         "--n", "40", "--m", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the child can write: every write fails
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err
