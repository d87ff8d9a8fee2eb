"""Command-line behavior: outputs, round trips, determinism, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fatscreens import cli
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import screens as scn
from fatscreens import serialize as ser
from fatscreens.errors import FormatError

import oracles
from conftest import CENSUS12, DATA

THETA = str(DATA / "theta.fg")


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run(capsys, "info", THETA)
    assert code == 0
    assert out.splitlines()[0] == "genus=1 punctures=1 boundary_cycles=1"


def test_screens_boundary(capsys):
    code, out = run(capsys, "screens", THETA, "--boundary")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "screens=4"
    assert sum(1 for l in lines if l.startswith("  boundary : ") and "(empty)" not in l) == 3
    assert sum(1 for l in lines if "(empty)" in l) == 1


def test_enumeration_bound_is_shared():
    default = scn.enumerate_screens.__defaults__[0]
    assert default == scn.MAX_ENUMERATION_EDGES
    assert cli.make_parser().parse_args(["screens", THETA]).max_edges == default


def test_recurrent(capsys):
    code, out = run(capsys, "recurrent", THETA, "--subset", "e0,e1")
    assert (code, out.strip()) == (0, "recurrent")
    code, out = run(capsys, "recurrent", THETA, "--enumerate")
    assert code == 0
    assert out.splitlines() == ["{e0,e1}", "{e0,e2}", "{e1,e2}", "{e0,e1,e2}"]


def test_boundary(capsys):
    code, out = run(capsys, "boundary", THETA, "--subset", "e0,e1")
    assert code == 0 and out.strip() == "e0+ e1-"


def test_sweep_csv(tmp_path, capsys):
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,1\ne1,1\ne2,0\n")
    summary = tmp_path / "summary.json"
    code, out = run(capsys, "sweep", THETA, "--exponents", str(p),
                    "--t", "10,100,1000", "--summary", str(summary))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,curve,abs_trace,abs_trace_minus_2,hyp_length"
    gaps = [float(l.split(",")[3]) for l in lines[1:4]]
    for gap, want in zip(gaps, (1e-2, 1e-4, 1e-6)):
        assert gap == pytest.approx(want, rel=1e-9)
    verdicts = json.loads(summary.read_text())
    assert verdicts == {"e0+ e1-": "shrinking"}
    # the gap t**(-2/3) is still 0.0022 at t = 1e4, yet it tends to 0
    p.write_text("edge,exponent\ne0,1/3\ne1,1/3\ne2,0\n")
    code, _ = run(capsys, "sweep", THETA, "--exponents", str(p), "--summary", str(summary))
    assert code == 0
    assert json.loads(summary.read_text()) == {"e0+ e1-": "shrinking"}


def test_sweep_prints_exact_gaps(tmp_path, capsys):
    # the gap of a+ p- is exactly t**-2; float traces printed 1.00000000013978e-06
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\na,1\nb,0\nc,1\nd,1\np,1\nq,0\nr,0\ns,1\nt,1\n")
    code, out = run(capsys, "sweep", str(DATA / "genus2.fg"), "--exponents", str(p))
    assert code == 0
    assert "1000,a+.p-,2.000001,1e-06,0.00199999991666668" in out.splitlines()


def test_detect_and_trace(tmp_path, capsys):
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,1\ne1,1\ne2,0\n")
    code, out = run(capsys, "detect", THETA, "--exponents", str(p))
    assert code == 0 and out.strip() == "e0+ e1-"
    lam = tmp_path / "l.csv"
    lam.write_text("edge,value\ne0,1\ne1,1\ne2,1\n")
    code, out = run(capsys, "trace", THETA, "--lambda", str(lam), "--path", "e0+,e1-")
    assert code == 0
    assert out.splitlines()[0] == "abs_trace=3"


@pytest.mark.parametrize("command, flag, rows", [
    ("check-cell", "--lambda", ("edge,1", "e1,2", "e2,5")),
    ("invert", "--coords", ("edge,1", "e1,2", "e2,5")),
    ("detect", "--exponents", ("edge,1", "e1,1", "e2,0")),
])
def test_headerless_csv_may_start_with_the_edge_labelled_edge(tmp_path, capsys, command, flag,
                                                              rows):
    # a first row whose label is 'edge' used to be skipped as a header when its value parsed
    graph = tmp_path / "theta.fg"
    graph.write_text(Path(THETA).read_text().replace("e e0 :", "e edge :"))
    outputs = []
    for lines in (rows, (rows[1], rows[0], rows[2]), ("edge,weight", *rows)):
        csv = tmp_path / "rows.csv"
        csv.write_text("\n".join(lines) + "\n")
        outputs.append(run(capsys, command, str(graph), flag, str(csv)))
    assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]


def test_inputs_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet programs save CSV with one; it used to make the header 'unknown edge label'
    for name, text in (("l.csv", "edge,value\ne0,1\ne1,1\ne2,1\n"),
                       ("g.fg", Path(THETA).read_text())):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out = run(capsys, "trace", str(tmp_path / "g.fg"), "--lambda", str(tmp_path / "l.csv"),
                    "--path", "e0+ e1-")
    assert code == 0 and out.splitlines()[0] == "abs_trace=3"


def test_trace_near_parabolic(tmp_path, capsys):
    # the trace rounds to 2.0 in double precision; gap and length do not
    lam = tmp_path / "l.csv"
    lam.write_text("edge,value\ne0,1e9\ne1,1e9\ne2,1\n")
    code, out = run(capsys, "trace", THETA, "--lambda", str(lam), "--path", "e0+,e1-")
    assert code == 0
    lines = dict(line.split("=") for line in out.splitlines())
    assert lines["abs_trace"] == "2"
    assert float(lines["abs_trace_minus_2"]) == pytest.approx(1e-18, rel=1e-9)
    assert float(lines["hyp_length"]) == pytest.approx(2e-9, rel=1e-9)


# lambda 1000 on a, c, d, p, s, t and 1 on b, q, r; the float product printed the
# gap of a+ p- (exactly 1e-6) as 1.00000000013978e-06, and the parabolic boundary
# cycle as -3.11150763893057e-61 with "hyp_length=undefined (elliptic)"
GENUS2_CERTIFIED = {
    "a+,p-": "abs_trace=2.000001\nabs_trace_minus_2=1e-06\nhyp_length=0.00199999991666668\n",
    "a+ q+ b- p+ a- b+ r+ c+ d- t+ c- s+ d+ t- s- r- q- p-":
        "abs_trace=2\nabs_trace_minus_2=0\nhyp_length=0\n",
}


@pytest.mark.parametrize("path", GENUS2_CERTIFIED)
def test_trace_prints_certified_gaps(tmp_path, capsys, path):
    lam = tmp_path / "l.csv"
    lam.write_text("edge,value\na,1000\nb,1\nc,1000\nd,1000\np,1000\nq,1\nr,1\ns,1000\nt,1000\n")
    code, out = run(capsys, "trace", str(DATA / "genus2.fg"), "--lambda", str(lam), "--path", path)
    assert code == 0 and out == GENUS2_CERTIFIED[path]


def test_trace_extreme_weights(tmp_path, capsys):
    # the double-precision cross ratio would underflow to 0; the trace runs in mpf
    lam = tmp_path / "l.csv"
    lam.write_text("edge,value\ne0,1e200\ne1,1\ne2,1\n")
    code, out = run(capsys, "trace", THETA, "--lambda", str(lam), "--path", "e0+,e1-")
    assert code == 0
    lines = dict(line.split("=") for line in out.splitlines())
    assert float(lines["abs_trace"]) == pytest.approx(1e200, rel=1e-12)
    assert float(lines["hyp_length"]) == pytest.approx(2 * math.log(1e200), rel=1e-12)


def test_invert_and_check_cell(tmp_path, capsys):
    coords = tmp_path / "x.csv"
    coords.write_text("edge,value\ne0,2\ne1,2\ne2,2\n")
    code, out = run(capsys, "invert", THETA, "--coords", str(coords), "--tol", "1e-12")
    assert code == 0
    parsed = ser.read_lambda_csv(fgr.parse_fatgraph(Path(THETA).read_text()), out)
    assert all(v == pytest.approx(1.0, abs=1e-10) for v in parsed.values)
    lam = tmp_path / "l.csv"
    lam.write_text(out)
    code, out = run(capsys, "check-cell", THETA, "--lambda", str(lam))
    assert code == 0 and out.splitlines()[0] == "in cell"


def test_invert_without_numpy_is_refused_in_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geo, "np", geo._lazy_import("fatscreens_no_numpy"))
    coords = tmp_path / "x.csv"
    coords.write_text("edge,value\ne0,1\ne1,2\ne2,5\n")
    assert cli.main(["invert", THETA, "--coords", str(coords)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: No module named 'fatscreens_no_numpy'\n")


def test_commands_run_without_mpmath_and_numpy(tmp_path, capsys):
    # a finder claims mpmath and numpy and fails on their first use, as where they are not
    # installed: reruns of a trace and of a sweep row, sweep and detect print the same bytes,
    # and inversion is refused in one line
    files = {"lambda2": "edge,value\n" + "".join(f"{x},{1000 if x in 'acdpst' else 1}\n"
                                                   for x in "abcdpqrst"),
             "rung": "edge,exponent\ne0,0\ne1,1/3\ne2,5/6\n",
             "mixed": "edge,exponent\n" + "".join(f"{x},{p}\n" for x, p in zip(
                 "abcdpqrst", ["5/6", "1/3", "1/3", "5/6", "5/6", "1/3", 0, "1/3", "5/6"])),
             "coords": "edge,value\ne0,1\ne1,2\ne2,5\n"}
    csv = {name: str(tmp_path / f"{name}.csv") for name in files}
    for name, text in files.items():
        Path(csv[name]).write_text(text)
    genus2 = str(DATA / "genus2.fg")
    commands = [["trace", genus2, "--lambda", csv["lambda2"], "--path", "a+,p-"],
                ["trace", genus2, "--lambda", csv["lambda2"], "--path", ",".join(["a+,p-"] * 38)],
                ["sweep", THETA, "--exponents", csv["rung"], "--t", "10"],
                ["sweep", genus2, "--exponents", csv["mixed"]],
                ["detect", genus2, "--exponents", csv["mixed"]]]
    script = tmp_path / "missing.py"
    script.write_text(
        "import contextlib, io, json, sys\n"
        "from importlib.machinery import ModuleSpec\n"
        "class Missing:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] in ('mpmath', 'numpy'):\n"
        "            return ModuleSpec(name, self)\n"
        "    def create_module(self, spec):\n"
        "        return None\n"
        "    def exec_module(self, module):\n"
        "        raise ModuleNotFoundError(f'No module named {module.__name__!r}')\n"
        "sys.meta_path.insert(0, Missing())\n"
        "from fatscreens import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        status = cli.main(argv)\n"
        "    print(json.dumps([status, out.getvalue(), err.getvalue()]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    argvs = [*commands, ["invert", THETA, "--coords", csv["coords"]]]
    proc = subprocess.run([sys.executable, str(script), json.dumps(argvs)], capture_output=True,
                          text=True, timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    *bare, refused = map(json.loads, proc.stdout.splitlines())
    assert refused == [1, "", "error: No module named 'numpy'\n"]
    want = []
    for argv in commands:
        status = cli.main(argv)
        want.append([status, *capsys.readouterr()])
    assert bare == want
    assert want[0][1] == "abs_trace=2.000001\nabs_trace_minus_2=1e-06\nhyp_length=0.00199999991666668\n"
    assert want[2][1] == ("t,curve,abs_trace,abs_trace_minus_2,hyp_length\n"
                          "10,e1+.e2-,3.54663463309101,1.54663463309101,2.34977652688449\n"
                          "# warning: weights leave the cell at t=10\n")


def test_ij_check_cli(tmp_path, capsys):
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,1\ne1,1\ne2,0\n")
    code, out = run(capsys, "ij-check", THETA, "--exponents", str(p))
    assert code == 0
    lines = out.splitlines()
    assert "I = {e0,e1}" in lines and "J = {e0,e1}" in lines
    assert "I subset of J : yes" in lines
    assert "R(G_J) = G_I : yes" in lines


def test_screen_json_input(tmp_path, capsys):
    screen_file = tmp_path / "s.json"
    screen_file.write_text('{"family": [["e0", "e1"]]}')
    code, out = run(capsys, "detect", THETA, "--screen", str(screen_file))
    assert code == 0 and out.strip() == "e0+ e1-"
    for bad in ('{"family": 5}', '{"family": null}'):
        screen_file.write_text(bad)
        code = cli.main(["detect", THETA, "--screen", str(screen_file)])
        assert code == 1
        assert capsys.readouterr().err.strip() == 'error: "family" must be an array of members'


@pytest.mark.parametrize("argv, data, code, last_line", [
    (["recurrent", THETA, "--subset", "e0"], None, 0, "maximal recurrent subset : {}"),
    (["boundary", THETA, "--subset", "e0,e1,e2"], None, 0, "(empty)"),
    (["detect", THETA, "--exponents"], "edge,exponent\ne0,0\ne1,0\ne2,0\n", 0,
     "(no short curves)"),
    (["detect", THETA, "--screen"], '{"family": [["e0"]]}', 1,
     "error: invalid screen, condition (ii): member [0] is not recurrent"),
    (["ij-check", THETA, "--exponents"], "edge,exponent\ne0,1\ne1,-1\ne2,0\n", 0,
     "# edge e0: leading coefficient -2 < 0, the family leaves the cell for large t"),
])
def test_rare_output_branches(tmp_path, capsys, argv, data, code, last_line):
    if data is not None:
        (tmp_path / "input").write_text(data)
        argv = [*argv, str(tmp_path / "input")]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out or captured.err).splitlines()[-1] == last_line


@pytest.mark.parametrize("argv, data, at", [
    # an executable's header, a CSV with a UTF-16 byte order mark, Latin-1 JSON
    (["info"], b"\x7fELF\x02\x01\x01\x00" + bytes(8) + b"\x03\x00>\x00\x01\x00\x00\x00\xa0", 24),
    (["trace", THETA, "--path", "e0+ e1-", "--lambda"], b"\xff\xfeedge,value\n", 0),
    (["detect", THETA, "--screen"], b'{"family": [["e0", "\xe9"]]}', 20),
    # after a UTF-8 byte order mark the count still starts at the file's first byte
    (["trace", THETA, "--path", "e0+ e1-", "--lambda"], b"\xef\xbb\xbfedge,v\xe0lue\n", 9),
], ids=["graph", "csv", "json", "csv_after_bom"])
def test_input_that_is_not_utf8_is_refused_in_one_line(tmp_path, capsys, argv, data, at):
    bad = tmp_path / "input"
    bad.write_bytes(data)
    assert cli.main([*argv, str(bad)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {bad}: not UTF-8 text (byte {at})\n")


GRAPH_HEAD = "fatgraph v1\nv 0 : 0 1 2\nv 1 : 3 4 5\n"
LAMBDA = ["trace", THETA, "--path", "e0+,e1-", "--lambda"]
SCREEN = ["detect", THETA, "--screen"]


def bouquet_text(n: int) -> str:
    """One vertex with n loops as a fatgraph file: every nonempty edge subset is recurrent."""
    return ("fatgraph v1\nv 0 : " + " ".join(map(str, range(2 * n))) + "\n"
            + "".join(f"e e{i} : {2 * i} {2 * i + 1}\n" for i in range(n)))


LOOPS_25 = bouquet_text(25)     # past the recurrent-subset scan's bound


# (argv, input file appended to argv or None, the one stderr line after "error: ")
@pytest.mark.parametrize("argv, data, message", [
    (["info"], "graph v1\n", "line 1: expected 'fatgraph v1' header"),
    (["info"], "# only a comment\n\n", "line 1: missing 'fatgraph v1' header"),
    (["info"], "fatgraph v1\nv x : 0 1 2\n", "line 2: vertex line needs integer ids"),
    (["info"], GRAPH_HEAD + "e e0 : 0 x\n", "line 4: edge line needs integer half-edge ids"),
    (["info"], "fatgraph v1\nv 0 :\n", "line 2: vertex with no half-edges"),
    (["info"], "fatgraph v1\nv 0 : 0 1 2\nv 0 : 3 4 5\n", "line 3: duplicate vertex id 0"),
    (["info"], GRAPH_HEAD + "e e0 : 0 3 1\n", "line 4: edge line needs exactly two half-edge ids"),
    (["info"], GRAPH_HEAD + "f e0 : 0 3\n", "line 4: unknown line kind 'f'"),
    (["info"], GRAPH_HEAD, "line 1: no edges"),
    (["info"], "fatgraph v1\nv 0 : 0 1 2\nv 1 : 3 4\ne e0 : 0 3\ne e1 : 1 4\ne e2 : 2 5\n",
     "line 1: half-edges [5] missing from vertex lines"),
    (LAMBDA, "edge,value\ne0,1,2\n", "line 2: expected 'edge,value'"),
    (LAMBDA, "edge,value\n# no rows\n", "line 1: no data rows"),
    (LAMBDA, "edge,value\ne0,1\ne1,1\ne0,2\ne2,1\n", "line 4: duplicate entry for edge 'e0'"),
    (LAMBDA, "edge,value\ne0,1\ne1,1\n", "line 1: missing entries for edges ['e2']"),
    (LAMBDA, "edge,value\ne0,1\ne1,x\ne2,1\n",
     "line 3: bad numeric value: could not convert string to float: 'x'"),
    (LAMBDA, "edge,value\ne0,1\ne1,nan\ne2,1\n", "lambda lengths must be positive finite reals"),
    (["invert", THETA, "--coords"], "edge,value\ne0,1\ne1,2\ne2,y\n",
     "line 4: bad numeric value: could not convert string to float: 'y'"),
    (["invert", THETA, "--coords"], "edge,value\ne0,1\ne1,inf\ne2,5\n",
     "simplicial coordinates must be finite"),
    (["sweep", THETA, "--exponents"], "edge,exponent\ne0,1\ne1,1/0\ne2,0\n",
     "line 3: bad exponent: Fraction(1, 0)"),
    (["sweep", THETA, "--exponents"], "edge,exponent\ne0,1\nzz,1\ne2,0\n",
     "line 3: unknown edge label 'zz'"),
    (SCREEN, "not json", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
    (SCREEN, '{"members": []}', 'expected an object with a "family" key'),
    (SCREEN, '{"family": ["e0"]}', "family members must be arrays of edge labels"),
    (["trace", THETA, "--path", ",", "--lambda"], "edge,value\ne0,1\ne1,1\ne2,1\n",
     "empty path"),
    (["recurrent", THETA, "--subset", ","], None, "empty edge subset"),
    (["boundary", THETA, "--subset", ","], None, "empty edge subset"),
    (["trace", THETA, "--path", "zz+", "--lambda"], "edge,value\ne0,1\ne1,1\ne2,1\n",
     "unknown edge label 'zz'"),
    (["recurrent", THETA, "--subset", "zz"], None, "unknown edge label 'zz'"),
    (LAMBDA, "edge,value\ne0,1\nzz,1\ne1,1\ne2,1\n", "line 3: unknown edge label 'zz'"),
    (SCREEN, '{"family": [["zz"]]}', "unknown edge label 'zz'"),
    (["recurrent", "--enumerate"], LOOPS_25, "edge count 25 exceeds recurrent-subset scan bound 24"),
], ids=["header_expected", "header_missing", "vertex_ids", "edge_ids", "empty_vertex",
        "duplicate_vertex", "edge_id_count", "line_kind", "no_edges", "unplaced_halves",
        "csv_fields", "csv_no_rows", "csv_duplicate", "csv_missing", "csv_value", "csv_nan",
        "coords_value", "coords_inf", "exponent_zero_denominator", "exponent_label",
        "json_syntax", "json_no_family", "json_member", "empty_path", "empty_subset",
        "empty_boundary_subset", "path_label", "subset_label", "csv_label", "json_label",
        "scan_bound"])
def test_input_refusals_are_one_line(tmp_path, capsys, argv, data, message):
    if data is not None:
        (tmp_path / "input").write_text(data)
        argv = [*argv, str(tmp_path / "input")]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_accepted_input_forms(tmp_path, capsys):
    """A bare label reads as ``<label>+``; CSV comment and blank lines are skipped."""
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    plain.write_text("edge,value\ne0,1\ne1,2\ne2,5\n")
    commented.write_text("# weights\n\nedge,value\ne0,1  # first\n\ne1,2\ne2,5\n")
    want = run(capsys, "trace", THETA, "--lambda", str(plain), "--path", "e0+,e1-")
    assert want[0] == 0 and want[1].startswith("abs_trace=")
    assert run(capsys, "trace", THETA, "--lambda", str(plain), "--path", "e0,e1-") == want
    assert run(capsys, "trace", THETA, "--lambda", str(commented), "--path", "e0+,e1-") == want


def test_domain_error_exit_code(tmp_path, capsys):
    code = cli.main(["boundary", THETA, "--subset", "e0"])
    err = capsys.readouterr().err
    assert code == 1 and "error:" in err


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,1\ne1,1\ne2,0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", THETA, "--exponents", str(p), "--t", "abc"])
    assert exc.value.code == 2
    assert "argument --t: expected comma separated numbers" in capsys.readouterr().err


def cli_process(*argv: str, **kwargs) -> subprocess.Popen:
    """``python -m fatscreens.cli`` in a child process, on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "fatscreens.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src}, **kwargs)


def prism_text(k: int) -> str:
    """The prism over a k-gon as a fatgraph file: 2k trivalent vertices, 3k edges."""
    lines = ["fatgraph v1"] + [f"v {v} : {3 * v} {3 * v + 1} {3 * v + 2}" for v in range(2 * k)]
    for i, j in ((i, (i + 1) % k) for i in range(k)):
        lines += [f"e t{i} : {3 * i} {3 * j + 1}", f"e b{i} : {3 * (k + i)} {3 * (k + j) + 1}",
                  f"e r{i} : {3 * i + 2} {3 * (k + i) + 2}"]
    return "\n".join(lines) + "\n"


def test_closed_output_pipe_ends_quietly():
    # the reader leaves after one line of about 870 kB: no stderr line and no "Exception
    # ignored" from the last flush, and the shell sees 141 as for a process killed by SIGPIPE
    with cli_process("screens", str(CENSUS12), stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"screens=6656\n"
        proc.stdout.close()
        assert proc.communicate(timeout=60)[1] == b""
    assert proc.returncode in (141, -signal.SIGPIPE)


def test_interrupt_is_one_line(tmp_path):
    # Ctrl-C one second into the 2**24-mask scan of a 24-edge prism (several seconds)
    graph = tmp_path / "prism24.fg"
    graph.write_text(prism_text(8))
    with cli_process("recurrent", str(graph), "--enumerate",
                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        time.sleep(1)
        proc.send_signal(signal.SIGINT)
        assert proc.communicate(timeout=60)[1] == b"error: interrupted\n"
    assert proc.returncode == 130


def test_interrupt_while_importing_is_one_line(tmp_path):
    # a Ctrl-C that lands while cli.py imports the library, as a finder raises it there
    script = tmp_path / "interrupt.py"
    script.write_text(
        "import runpy, sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'fatscreens.asymptotics':\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n"
        f"sys.argv = ['fatscreens', 'info', {THETA!r}]\n"
        "runpy.run_module('fatscreens.cli', run_name='__main__')\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(script)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"", b"error: interrupted\n")


def test_enumerate_lists_in_member_key_order(capsys, trivalent_corpus, census12,
                                             generated_fatgraphs):
    graphs = [*trivalent_corpus.values(), census12, *generated_fatgraphs,
              fgr.parse_fatgraph(bouquet_text(16))]
    for g in graphs:
        assert cli.cmd_recurrent(g, argparse.Namespace(enumerate=True)) == 0
        want = [ser.subset_text(g, a) for a in sorted(fgr.recurrent_subsets(g),
                                                        key=scn._member_key)]
        assert capsys.readouterr().out.splitlines() == want


def limit_address_space():
    """64 MB of address space, which the interpreter itself fits in."""
    resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))


def test_enumerate_out_of_memory_is_one_line(tmp_path):
    # a 14-loop bouquet's 16,383 candidate members, each with a bitmask of the candidates
    # compatible with it, take more than 64 MB before the first screen is printed
    graph = tmp_path / "bouquet14.fg"
    graph.write_text(bouquet_text(14))
    with cli_process("screens", str(graph), "--max-edges", "14", stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, preexec_fn=limit_address_space) as proc:
        assert proc.communicate(timeout=60) == (b"", b"error: out of memory\n")
    assert proc.returncode == 1


# a command that closes a suspended generator whose cleanup fails, then raises ``{exc}``
FINALIZER_SCRIPT = """\
import sys
from fatscreens import cli
from fatscreens.errors import DomainError

def suspended():
    try:
        yield
    finally:
        raise ValueError("cleanup failed")

def info(g, args):
    gen = suspended()
    next(gen)
    del gen     # the interpreter reports the ValueError, which nothing can catch
    raise {exc}

cli.cmd_info = info
sys.exit(cli.main(["info", sys.argv[1]]))
"""


@pytest.mark.parametrize("exc, first, rest", [
    # out of memory such a report is dropped: where memory is short, no hook could filter it
    ("MemoryError", b"error: out of memory\n", b""),
    ("DomainError('bad')", b"error: bad\n", b"ValueError: cleanup failed\n"),
], ids=["out_of_memory", "domain_error"])
def test_finalizer_reports_are_held_until_the_command_ends(exc, first, rest):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FINALIZER_SCRIPT.format(exc=exc), THETA],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(first) and proc.stderr.endswith(rest)
    assert (b"Exception ignored in" in proc.stderr) == bool(rest)


def test_enumerate_streams_in_member_key_order(tmp_path):
    # all 2**19 - 1 subsets of a 19-loop bouquet are recurrent: each is printed as the
    # scan yields it, so the listing fits in 64 MB of address space
    graph = tmp_path / "bouquet19.fg"
    graph.write_text(bouquet_text(19))
    with cli_process("recurrent", str(graph), "--enumerate", stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, preexec_fn=limit_address_space) as proc:
        out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    want = ("{" + ",".join(sorted(f"e{e}" for e in a)) + "}"
            for k in range(1, 20) for a in itertools.combinations(range(19), k))
    assert out.decode().splitlines() == list(want)


def test_sweep_overflow_is_domain_error(tmp_path, capsys):
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,400\ne1,400\ne2,0\n")
    code = cli.main(["sweep", THETA, "--exponents", str(p)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip() == "error: weight t**400 of edge 0 overflows at t=10"
    # detection evaluates no weight, so nothing overflows
    code, out = run(capsys, "detect", THETA, "--exponents", str(p))
    assert code == 0 and out.strip() == "e0+ e1-"
    # exponents beyond double range, and no boundary curve to trace first
    p.write_text("edge,exponent\ne0,1e400\ne1,1e400\ne2,1e400\n")
    code = cli.main(["sweep", THETA, "--exponents", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: weight of edge 0 overflows at t=10: its exponent is beyond "
                            "double range\n")
    # at t = 1 every weight is exactly 1, whatever its exponent
    assert run(capsys, "sweep", THETA, "--exponents", str(p), "--t", "1") == (
        0, "t,curve,abs_trace,abs_trace_minus_2,hyp_length\n")


def write_exponents(path, labels, exponents):
    path.write_text("edge,exponent\n" + "".join(f"{a},{p}\n" for a, p in zip(labels, exponents)))
    return str(path)


def test_sweep_warns_only_when_the_weights_leave_the_cell(tmp_path, capsys):
    genus2 = str(DATA / "genus2.fg")
    # a depth family: coordinates of b, c, q and s vanish like 2/t, but stay positive
    p = write_exponents(tmp_path / "p.csv", "abcdpqrst", [2, 1, 1, 2, 2, 1, 0, 1, 2])
    code, out = run(capsys, "sweep", genus2, "--exponents", p)
    assert code == 0 and "leave the cell" not in out
    # weights 10**-225 meet in one float product here, which used to divide by 0
    p = write_exponents(tmp_path / "p.csv", "abcdpqrst", [-75, 75, 0, 0, 75, -75, 0, 0, 0])
    code, out = run(capsys, "sweep", genus2, "--exponents", p, "--t", "1000")
    assert code == 0
    assert "1000,c+.d-.t+.c-.s+.d+.t-.s-,9,7,4.36928758321022" in out.splitlines()
    assert out.splitlines()[-1] == "# warning: weights leave the cell at t=1000"


def test_sweep_refusals_are_one_line(tmp_path, capsys):
    # the coordinate of e2 is 2 t**(-1/2) - t**(1/2): exactly 0 at t = 2, negative at 3
    p = write_exponents(tmp_path / "p.csv", ["e0", "e1", "e2"], [0, 0, "1/2"])
    code = cli.main(["sweep", THETA, "--exponents", p, "--t", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: a sum of 2 powers of t=2 cancels past 1000 digits\n"
    code, out = run(capsys, "sweep", THETA, "--exponents", p, "--t", "3")
    assert code == 0 and out.splitlines()[-1] == "# warning: weights leave the cell at t=3"
    # finite weights 10**170, but the gap 10**-340 of e0+ e1- is below double range
    for exponent in (170, 200):
        p = write_exponents(tmp_path / "p.csv", ["e0", "e1", "e2"], [exponent, exponent, 0])
        code = cli.main(["sweep", THETA, "--exponents", p])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: a nonzero trace gap rounds to 0 at t=10\n"


def test_sweep_refuses_subnormal_gaps(tmp_path, capsys):
    # the gap of e0+ e1- is exactly 1e-310 at t = 1e155: a subnormal keeps too few digits
    p = write_exponents(tmp_path / "p.csv", ["e0", "e1", "e2"], [1, 1, 0])
    code = cli.main(["sweep", THETA, "--exponents", p, "--t", "1e155,3e155"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: a nonzero trace gap rounds to 1e-310 at t=1e+155\n"


def test_check_cell_underflow_is_domain_error(tmp_path, capsys):
    lam = tmp_path / "lam.csv"
    lam.write_text("edge,value\ne0,1e-110\ne1,1e-110\ne2,1e-110\n")
    code = cli.main(["check-cell", THETA, "--lambda", str(lam)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: weight products at edge e0 underflow to 0\n"


def test_check_cell_past_an_overflowing_square(tmp_path, capsys):
    # refused as "simplicial coordinates must be finite" while a * a overflowed
    lam = tmp_path / "lam.csv"
    lam.write_text("edge,value\ne0,1e200\ne1,1\ne2,1\n")
    code, out = run(capsys, "check-cell", THETA, "--lambda", str(lam))
    assert (code, out) == (0, "not in cell\nmin_coordinate=-2e+200 at edge e0\n")


def test_nan_tolerance_and_schedule_are_domain_errors(tmp_path, capsys):
    # weights 1, 1, 3 lie outside the cell, which a NaN tolerance used to hide
    lam = tmp_path / "lam.csv"
    lam.write_text("edge,value\ne0,1\ne1,1\ne2,3\n")
    code = cli.main(["check-cell", THETA, "--lambda", str(lam), "--tol", "nan"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: tolerance must be nonnegative\n"
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,1\ne1,1\ne2,0\n")
    for t in ("10,nan", "10,inf"):
        code = cli.main(["sweep", THETA, "--exponents", str(p), "--t", t])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: schedule values must be finite and >= 1\n"


def test_infinite_invert_tolerance_is_domain_error(tmp_path, capsys):
    # inf used to pass the check and print the initial weights 1, 1, 1
    coords = tmp_path / "x.csv"
    coords.write_text("edge,value\ne0,1\ne1,2\ne2,5\n")
    code = cli.main(["invert", THETA, "--coords", str(coords), "--tol", "inf"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: tolerance must be positive and finite, got inf\n"


def test_reused_parser_keeps_defaults(tmp_path, capsys):
    # an option given in one call of main must not stick to the next
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\ne0,1\ne1,1\ne2,0\n")
    _, fresh = run(capsys, "sweep", THETA, "--exponents", str(p))
    _, chosen = run(capsys, "sweep", THETA, "--exponents", str(p), "--t", "10")
    _, again = run(capsys, "sweep", THETA, "--exponents", str(p))
    assert again == fresh != chosen


GRAPH = ((), "graph", None, True, None, None, None, None)
FAMILY = ((("--exponents",), "exponents", None, False, None, "CSV", None, (0, True)),
          (("--screen",), "screen", None, False, None, "JSON", None, (0, True)))
# each subcommand's help, handler and actions after -h, as ``actions`` reads them
SUBCOMMANDS = {
    "info": ("genus, punctures and boundary cycles", cli.cmd_info, (GRAPH,)),
    "recurrent": ("test a subset or list all recurrent subsets", cli.cmd_recurrent, (
        GRAPH,
        (("--subset",), "subset", None, False, "comma separated edge labels", None, None,
         (0, True)),
        (("--enumerate",), "enumerate", False, False, None, None, None, (0, True)))),
    "screens": ("enumerate screens", cli.cmd_screens, (
        GRAPH,
        (("--boundary",), "boundary", False, False, "also print boundaries", None, None, None),
        (("--max-edges",), "max_edges", scn.MAX_ENUMERATION_EDGES, False, None, None, "int",
         None))),
    "boundary": ("boundary curves of an edge subset", cli.cmd_boundary, (
        GRAPH,
        (("--subset",), "subset", None, True, None, None, None, None))),
    "trace": ("holonomy trace of a closed path", cli.cmd_trace, (
        GRAPH,
        (("--lambda",), "lam", None, True, None, "CSV", None, None),
        (("--path",), "path", None, True, "step tokens, e.g. 'e0+,e1-'", None, None, None))),
    "sweep": ("trace table along a monomial family", cli.cmd_sweep, (
        GRAPH, *FAMILY,
        (("--t",), "t", None, False, "comma separated t values (default 10,100,1000,10000)",
         None, "_t_values", None),
        (("--summary",), "summary", None, False, "write curve verdicts here", "JSON", None,
         None))),
    "detect": ("curves that get short along a family", cli.cmd_detect, (GRAPH, *FAMILY)),
    "invert": ("weights realizing target coordinates", cli.cmd_invert, (
        GRAPH,
        (("--coords",), "coords", None, True, None, "CSV", None, None),
        (("--tol",), "tol", 1e-10, False, None, None, "float", None))),
    "check-cell": ("cell membership of weights", cli.cmd_check_cell, (
        GRAPH,
        (("--lambda",), "lam", None, True, None, "CSV", None, None),
        (("--tol",), "tol", None, False, None, None, "float", None))),
    "ij-check": ("divergent weights vs vanishing coordinates", cli.cmd_ij_check,
                 (GRAPH, *FAMILY)),
}


def actions(parser: argparse.ArgumentParser) -> tuple:
    """Option strings, dest, default, required, help, metavar, type name and
    (index, required) of the mutually exclusive group of each action but -h."""
    groups = parser._mutually_exclusive_groups
    return tuple((tuple(a.option_strings), a.dest, a.default, a.required, a.help, a.metavar,
                  getattr(a.type, "__name__", None),
                  next(((i, grp.required) for i, grp in enumerate(groups)
                        if a in grp._group_actions), None))
                 for a in parser._actions if not isinstance(a, argparse._HelpAction))


def test_parser_structure():
    # independent of the Python version and of COLUMNS, unlike the --help text
    parser = cli.make_parser()
    assert actions(parser) == (((), "command", None, True, None, None, None, None),)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help) for name, (help, _, _) in SUBCOMMANDS.items()]
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, (_, func, rows) in SUBCOMMANDS.items():
        p = sub.choices[name]
        assert (p.get_default("func"), actions(p)) == (func, rows), name


MISSING_GRAPH_ARGS = {
    "info": [], "recurrent": ["--enumerate"], "screens": [], "boundary": ["--subset", "e0"],
    "trace": ["--lambda", "{input}", "--path", "e0+ e1-"], "sweep": ["--exponents", "{input}"],
    "detect": ["--exponents", "{input}"], "invert": ["--coords", "{input}"],
    "check-cell": ["--lambda", "{input}"], "ij-check": ["--screen", "{input}"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_missing_graph_is_refused_in_one_line(tmp_path, capsys, command):
    # the other input is missing too: main reads the graph first
    missing = tmp_path / "missing.fg"
    rest = [a.format(input=tmp_path / "input") for a in MISSING_GRAPH_ARGS[command]]
    assert cli.main([command, str(missing), *rest]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: [Errno 2] No such file or directory: '{missing}'\n")


def test_oversized_exact_trace_is_domain_error(tmp_path, capsys):
    # a genus-2 screen with levels 1/(d+2) and 2/d at d = 10**9: the packed
    # exact trace would need 3 * 10**9 bits; the coordinates' leading terms do not
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\na,2/1000000000\nb,1/1000000002\nc,1/1000000002\n"
                 "d,2/1000000000\np,2/1000000000\nq,1/1000000002\nr,0\n"
                 "s,1/1000000002\nt,2/1000000000\n")
    genus2 = str(DATA / "genus2.fg")
    for command in ("detect", "sweep"):
        code = cli.main([command, genus2, "--exponents", str(p)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: exact trace gap needs 3000000015 bits, over 16777216\n"
    code, out = run(capsys, "ij-check", genus2, "--exponents", str(p))
    assert code == 0 and out.splitlines()[2] == "I subset of J : yes"


def test_detect_large_exponent_denominators(tmp_path, capsys):
    # the depth family of genus2's screen 5 scaled by 10001/10000: packed exact traces of
    # millions of bits whose gaps have a few nonzero digits
    p = write_exponents(tmp_path / "p.csv", "abcdpqrst",
                        ["10001/5000", 0, "10001/5000", "30003/10000", "10001/5000",
                         "10001/10000", "10001/10000", "10001/5000", "30003/10000"])
    code, out = run(capsys, "detect", str(DATA / "genus2.fg"), "--exponents", p)
    assert code == 0
    assert out.splitlines() == ["a+ p-", "d+ t-", "c+ d- t+ c- s+ d+ t- s-",
                                "a+ q+ r+ c+ d- t+ c- s+ d+ t- s- r- q- p-"]


def test_determinism(capsys):
    _, first = run(capsys, "screens", str(DATA / "mercedes.fg"), "--boundary")
    _, second = run(capsys, "screens", str(DATA / "mercedes.fg"), "--boundary")
    assert first == second


def test_serialization_round_trips(theta, tmp_path):
    lam = geo.lambda_assignment([0.7, 1.9, 1.0])
    text = ser.write_lambda_csv(theta, lam)
    assert ser.read_lambda_csv(theta, text).values == lam.values

    fam = ser.read_exponents_csv(theta, "edge,exponent\ne0,3/2\ne1,2\ne2,0\n")
    assert fam.exponents == oracles.monomial_family(["3/2", 2, 0]).exponents
    with pytest.raises(FormatError, match="bad exponent"):
        ser.read_exponents_csv(theta, "edge,exponent\ne0,1/0\ne1,2\ne2,0\n")

    s = scn.screen(theta, [{0, 1}])
    assert ser.read_screen_json(theta, json.dumps({"family": [["e0", "e1"]]})).family == s.family
    for bad in ('{"family": 5}', '{"family": null}'):
        with pytest.raises(FormatError, match='"family" must be an array'):
            ser.read_screen_json(theta, bad)

    g_text = fgr.fatgraph_to_text(theta)
    assert fgr.parse_fatgraph(g_text) == theta


# sha256 of the stdout of `screens <g> --boundary` and `recurrent <g> --enumerate`;
# a change in enumeration order, members or boundaries changes these
GOLDEN = {
    "theta": ("9563600ea3f811eb472831549888d431c1a1f42ae5c01a4cac11d5aec8355bdf",
              "20afc38abbcb4f591c73786b18a59e5599ebad4c18b050af22db803c88b07e12"),
    "mercedes": ("b259e344bb204a93ad45283c678725816fa1ec5862b6859c0911291e9a66f46e",
                 "5e3eb865b989008c4e43eb557b1af5a3d603fdb9c1a75e6bddb10cf22a01a948"),
    "genus2": ("f7f4cb78cc34a6318318723bd5f876764b61b8c1ee1fab5ad5ebf52b53abed36",
               "a0eceafb82f9ba650b876c43f1aef8be6d006129760eb4c3fe7432376f2c9ac0"),
    "barbell": ("3b4a99cc61a2b88ed31f1a0a537e07ba7cda19f39021ccd567b7dcad6967cbd4",
                "e0ff09d7c9b57cd2a445c01fa5cebc3db1e1a007bbea8d016a32aed296ee45fa"),
    "theta_planar": ("f35965709e5c65f813c4fdd3a1c41b81e5210eda7eda90196e2bd291c806291a",
                     "20afc38abbcb4f591c73786b18a59e5599ebad4c18b050af22db803c88b07e12"),
    "census12": ("a41426fcd4544e41dd9242d11a546e5d0607fe33ebae10b0e9ea2242c732c80d",
                 "43b7e298e51b70920e01503fe9cee922a7ae985b364a2069ca2afccde66e2f94"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_screens_and_recurrent_output(name, capsys):
    graph = str(CENSUS12 if name == "census12" else DATA / f"{name}.fg")
    screens_digest, recurrent_digest = GOLDEN[name]
    code, out = run(capsys, "screens", graph, "--boundary")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == screens_digest
    code, out = run(capsys, "recurrent", graph, "--enumerate")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == recurrent_digest


# sha256 of the stdout of `ij-check <g> --screen S` over every enumerated screen S, and
# of `check-cell <g> --lambda L` over eight seeded weight files; both read quad slots
GOLDEN_IJ_CHECK = {
    "theta": "1ad791bffda0dd8f58b6b70ab1008be7d0a27b75032406a939a9d544b6e2114e",
    "mercedes": "ec71f5a9eb1da361f717f5b2e3e2d0169e11bcbd48b8e1bbafa687535f5d62f2",
    "genus2": "5f062b54599f2da73764398962e478213eae0e884845996614b06a12e346752e",
}
GOLDEN_CHECK_CELL = {
    "theta": "e54f9a96e27e7b46897e1db6eb1f228a64b5c4e252e9c48735074ed8d96e3a5c",
    "theta_planar": "e54f9a96e27e7b46897e1db6eb1f228a64b5c4e252e9c48735074ed8d96e3a5c",
    "mercedes": "f6eb3e1a28445a8f13728cb963ed4ba0ae112e396e204e61d2ccacb40fae688f",
    "genus2": "12adac42b9a65d1800440f3bb10c5280f04a88a1d1acb5469011cba149705b1b",
    "barbell": "86c9136c77bb0ea3a9f311281f11048cb17dae1c6716df401c18325a49243379",
}


def ij_check_output(name, tmp_path, capsys):
    graph = str(DATA / f"{name}.fg")
    screen_file = tmp_path / "screen.json"
    digest = hashlib.sha256()
    for s in scn.enumerate_screens(fgr.parse_fatgraph(Path(graph).read_text())):
        top = s.graph.all_edges()
        family = [sorted(s.graph.label(e) for e in a) for a in s.family if a != top]
        screen_file.write_text(json.dumps({"family": family}) + "\n")
        code, out = run(capsys, "ij-check", graph, "--screen", str(screen_file))
        assert code == 0
        digest.update(out.encode())
    return digest.hexdigest()


def check_cell_output(name, tmp_path, capsys):
    graph = str(DATA / f"{name}.fg")
    g = fgr.parse_fatgraph(Path(graph).read_text())
    rng = random.Random(71)
    lam_file = tmp_path / "lambda.csv"
    digest = hashlib.sha256()
    for k in range(8):          # weights spread over 0 to 7/8 decades: in and out of the cell
        lam = geo.lambda_assignment([10 ** rng.uniform(-k / 8, k / 8) for _ in range(g.n_edges)])
        lam_file.write_text(ser.write_lambda_csv(g, lam))
        code, out = run(capsys, "check-cell", graph, "--lambda", str(lam_file))
        assert code == 0
        digest.update(out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_IJ_CHECK))
def test_golden_ij_check_output(name, tmp_path, capsys):
    assert ij_check_output(name, tmp_path, capsys) == GOLDEN_IJ_CHECK[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECK_CELL))
def test_golden_check_cell_output(name, tmp_path, capsys):
    assert check_cell_output(name, tmp_path, capsys) == GOLDEN_CHECK_CELL[name]
