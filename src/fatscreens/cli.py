"""Command-line front end.

Subcommands map one to one onto library operations; all output is
deterministic for fixed inputs.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import asymptotics as asy
from . import fatgraph as fgr
from . import geometry as geo
from . import holonomy as hol
from . import screens as scn
from . import serialize as ser
from .errors import DomainError

FATGRAPH_GRAMMAR = """\
fatgraph v1 file format ('#' starts a comment):
  fatgraph v1
  v <vertex-id> : <half-edge-id> <half-edge-id> ...
  e <edge-label> : <half-edge-id> <half-edge-id>
Vertex lines list half-edges in counter-clockwise cyclic order.  Half-edge
ids are the integers 0..2E-1, each appearing in exactly one 'v' line and
exactly one 'e' line.  Paths are comma or space separated step tokens
'<label>+' or '<label>-'; '+' departs through the first half-edge on the
edge's definition line.
"""


def _load_graph(path: str) -> fgr.Fatgraph:
    return fgr.parse_fatgraph(Path(path).read_text())


def _read(path: str) -> str:
    return Path(path).read_text()


def _print_screen(g: fgr.Fatgraph, s: scn.Screen, index: int, show_boundary: bool) -> None:
    members = " ".join(ser.subset_text(g, a) for a in s.family)
    print(f"screen {index} : {members}")
    if show_boundary:
        boundary = scn.screen_boundary(s)
        if len(boundary) == 0:
            print("  boundary : (empty)")
        for c in boundary:
            print(f"  boundary : {ser.curve_tokens(g, c)}")


def cmd_info(args) -> int:
    g = _load_graph(args.graph)
    genus, punctures = fgr.topology(g)
    cycles = fgr.boundary_cycles(g)
    print(f"genus={genus} punctures={punctures} boundary_cycles={len(cycles)}")
    print(f"vertices={g.n_vertices} edges={g.n_edges} trivalent={str(g.is_trivalent()).lower()}")
    for i, c in enumerate(cycles):
        print(f"cycle {i} : {ser.curve_tokens(g, c)}")
    return 0


def cmd_recurrent(args) -> int:
    g = _load_graph(args.graph)
    if args.enumerate:
        found = []
        for mask in range(1, 1 << g.n_edges):
            sub = frozenset(e for e in range(g.n_edges) if mask >> e & 1)
            if fgr.is_recurrent(g, sub):
                found.append(sub)
        found.sort(key=lambda a: (len(a), tuple(sorted(a))))
        for sub in found:
            print(ser.subset_text(g, sub))
        return 0
    subset = ser.parse_subset(g, args.subset)
    ok = fgr.is_recurrent(g, subset)
    print("recurrent" if ok else "not recurrent")
    if not ok:
        core = fgr.maximal_recurrent_subset(g, subset)
        print(f"maximal recurrent subset : {ser.subset_text(g, core)}")
    return 0


def cmd_screens(args) -> int:
    g = _load_graph(args.graph)
    all_screens = scn.enumerate_screens(g, max_edges=args.max_edges)
    print(f"screens={len(all_screens)}")
    for i, s in enumerate(all_screens):
        _print_screen(g, s, i, args.boundary)
    return 0


def cmd_boundary(args) -> int:
    g = _load_graph(args.graph)
    subset = ser.parse_subset(g, args.subset)
    curves = fgr.subset_boundary(g, subset)
    if len(curves) == 0:
        print("(empty)")
    for c in curves:
        print(ser.curve_tokens(g, c))
    return 0


def cmd_trace(args) -> int:
    g = _load_graph(args.graph)
    lam = ser.read_lambda_csv(g, _read(args.lam))
    path = ser.parse_curve(g, args.path)
    tr = hol.abs_trace_of_path(g, lam, path)
    # the gap is taken at extended precision near 2, where tr - 2.0 is 0
    gap = hol.trace_gap_of_path(g, lam, path)
    print(f"abs_trace={ser.fmt(tr)}")
    print(f"abs_trace_minus_2={ser.fmt(gap)}")
    if gap >= 0.0:
        print(f"hyp_length={ser.fmt(hol.hyp_length_from_gap(gap))}")
    else:
        print("hyp_length=undefined (elliptic)")
    return 0


def _family_from_args(g: fgr.Fatgraph, args) -> scn.MonomialFamily:
    if getattr(args, "exponents", None):
        return ser.read_exponents_csv(g, _read(args.exponents))
    s = ser.read_screen_json(g, _read(args.screen))
    check = scn.validate_screen(s)
    if not check.ok:
        raise DomainError(f"invalid screen, condition ({check.condition}): {check.message}")
    return scn.depth_family(s)


def cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    fam = _family_from_args(g, args)
    sched = asy.SweepSchedule(args.t) if args.t else asy.SweepSchedule()
    candidate = scn.screen_of_exponents(g, fam)
    curves = scn.screen_boundary(candidate)
    report = asy.sweep(g, fam, curves, sched)
    print("t,curve,abs_trace,abs_trace_minus_2,hyp_length")
    for row in report.rows:
        print(f"{ser.fmt(row.t)},{ser.curve_tokens(g, row.curve).replace(' ', '.')},"
              f"{ser.fmt(row.abs_trace)},{ser.fmt(row.gap)},{ser.fmt(row.hyp_length)}")
    for t, ok in report.in_cell_at:
        if not ok:
            print(f"# warning: weights leave the cell at t={ser.fmt(t)}")
    if args.summary:
        import json
        summary = {ser.curve_tokens(g, c): v for c, v in report.verdicts}
        Path(args.summary).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_detect(args) -> int:
    g = _load_graph(args.graph)
    fam = _family_from_args(g, args)
    curves = asy.detect_short_curves(g, fam)
    if len(curves) == 0:
        print("(no short curves)")
    for c in curves:
        print(ser.curve_tokens(g, c))
    return 0


def cmd_invert(args) -> int:
    g = _load_graph(args.graph)
    coords = ser.read_coords_csv(g, _read(args.coords))
    lam = geo.invert_coords(g, coords, tol=args.tol)
    sys.stdout.write(ser.write_lambda_csv(g, lam))
    return 0


def cmd_check_cell(args) -> int:
    g = _load_graph(args.graph)
    lam = ser.read_lambda_csv(g, _read(args.lam))
    coords = geo.simplicial_coords(g, lam)
    tol = args.tol if args.tol is not None else geo.default_zero_tol(coords)
    ok = geo.no_vanishing_cycle(g, coords, tol)
    print("in cell" if ok else "not in cell")
    lo = min(range(g.n_edges), key=lambda e: coords[e])
    print(f"min_coordinate={ser.fmt(coords[lo])} at edge {g.label(lo)}")
    return 0


def cmd_ij_check(args) -> int:
    g = _load_graph(args.graph)
    fam = _family_from_args(g, args)
    report = asy.ij_check(g, fam)
    print(f"I = {ser.subset_text(g, report.divergent)}")
    print(f"J = {ser.subset_text(g, report.vanishing)}")
    print(f"I subset of J : {'yes' if report.i_subset_j else 'no'}")
    print(f"R(G_J) = G_I : {'yes' if report.recurrent_core_equals_i else 'no'}")
    for e, lead in report.leading:
        if lead.exponent is None:
            desc = "identically 0"
        else:
            desc = f"leading {lead.coefficient} * t^({lead.exponent})"
        print(f"X[{g.label(e)}] : {desc}")
    for note in report.notes:
        print(f"# {note}")
    return 0


def _t_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated numbers, got {text!r}") from None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatscreens",
        description="Fatgraph screens, lambda-length geometry and holonomy traces.",
        epilog=FATGRAPH_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="genus, punctures and boundary cycles")
    p.add_argument("graph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("recurrent", help="test a subset or list all recurrent subsets")
    p.add_argument("graph")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--subset", help="comma separated edge labels")
    grp.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=cmd_recurrent)

    p = sub.add_parser("screens", help="enumerate screens")
    p.add_argument("graph")
    p.add_argument("--boundary", action="store_true", help="also print boundaries")
    p.add_argument("--max-edges", type=int, default=12)
    p.set_defaults(func=cmd_screens)

    p = sub.add_parser("boundary", help="boundary curves of an edge subset")
    p.add_argument("graph")
    p.add_argument("--subset", required=True)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("trace", help="holonomy trace of a closed path")
    p.add_argument("graph")
    p.add_argument("--lambda", dest="lam", required=True, metavar="CSV")
    p.add_argument("--path", required=True, help="step tokens, e.g. 'e0+,e1-'")
    p.set_defaults(func=cmd_trace)

    def add_family_args(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--exponents", metavar="CSV")
        grp.add_argument("--screen", metavar="JSON")

    p = sub.add_parser("sweep", help="trace table along a monomial family")
    p.add_argument("graph")
    add_family_args(p)
    p.add_argument("--t", type=_t_values,
                   help="comma separated t values (default 10,100,1000,10000)")
    p.add_argument("--summary", metavar="JSON", help="write curve verdicts here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("detect", help="curves that get short along a family")
    p.add_argument("graph")
    add_family_args(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("invert", help="weights realizing target coordinates")
    p.add_argument("graph")
    p.add_argument("--coords", required=True, metavar="CSV")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("check-cell", help="cell membership of weights")
    p.add_argument("graph")
    p.add_argument("--lambda", dest="lam", required=True, metavar="CSV")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_check_cell)

    p = sub.add_parser("ij-check", help="divergent weights vs vanishing coordinates")
    p.add_argument("graph")
    add_family_args(p)
    p.set_defaults(func=cmd_ij_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
