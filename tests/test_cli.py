"""Command-line behavior: outputs, round trips, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from fatscreens import cli
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import screens as scn
from fatscreens import serialize as ser
from fatscreens.errors import FormatError

from conftest import DATA

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


def test_trace_extreme_weights(tmp_path, capsys):
    # the double-precision cross ratio underflows to 0; the trace is refined
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


def test_oversized_exact_trace_is_domain_error(tmp_path, capsys):
    # a genus-2 screen with levels 1/(d+2) and 2/d at d = 10**9: the packed
    # exact trace would need 10**10 bits; the coordinates' leading terms do not
    p = tmp_path / "p.csv"
    p.write_text("edge,exponent\na,2/1000000000\nb,1/1000000002\nc,1/1000000002\n"
                 "d,2/1000000000\np,2/1000000000\nq,1/1000000002\nr,0\n"
                 "s,1/1000000002\nt,2/1000000000\n")
    genus2 = str(DATA / "genus2.fg")
    for command in ("detect", "sweep"):
        code = cli.main([command, genus2, "--exponents", str(p)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: exact trace gap needs 10000000045 bits, over 16777216\n"
    code, out = run(capsys, "ij-check", genus2, "--exponents", str(p))
    assert code == 0 and out.splitlines()[2] == "I subset of J : yes"


def test_determinism(capsys):
    _, first = run(capsys, "screens", str(DATA / "mercedes.fg"), "--boundary")
    _, second = run(capsys, "screens", str(DATA / "mercedes.fg"), "--boundary")
    assert first == second


def test_serialization_round_trips(theta, tmp_path):
    lam = geo.lambda_assignment([0.7, 1.9, 1.0])
    text = ser.write_lambda_csv(theta, lam)
    assert ser.read_lambda_csv(theta, text).values == lam.values

    fam = scn.monomial_family(["3/2", 2, 0])
    text = ser.write_exponents_csv(theta, fam)
    assert ser.read_exponents_csv(theta, text).exponents == fam.exponents

    s = scn.screen(theta, [{0, 1}])
    text = ser.write_screen_json(s)
    assert ser.read_screen_json(theta, text).family == s.family

    curves = fgr.subset_boundary(theta, {0, 1})
    text = ser.write_curves_json(theta, curves)
    assert ser.read_curves_json(theta, text).curves == curves.curves
    for bad in ('{"family": 5}', '{"family": null}'):
        with pytest.raises(FormatError, match='"family" must be an array'):
            ser.read_screen_json(theta, bad)
    for bad in ("5", '{"curves": []}', "[5]", "[[5]]"):
        with pytest.raises(FormatError):
            ser.read_curves_json(theta, bad)

    subset = frozenset({0, 2})
    text = ser.write_subset_json(theta, subset)
    assert ser.read_subset_json(theta, text) == subset

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_screens_and_recurrent_output(name, capsys):
    graph = str(DATA / f"{name}.fg")
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
        screen_file.write_text(ser.write_screen_json(s))
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
