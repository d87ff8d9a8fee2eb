"""Command-line front end.

Subcommands map one to one onto library operations; all output is
deterministic for fixed inputs.  Exit codes: 0 success, 1 domain error
or out of memory, 2 usage error, 130 interrupted (Ctrl-C), 141 output pipe
closed by its reader (the status of a process killed by SIGPIPE).
"""

from __future__ import annotations

import sys

try:    # a Ctrl-C while the modules load ends as one in a command does
    import argparse
    import io
    import os
    from pathlib import Path

    from . import asymptotics as asy
    from . import fatgraph as fgr
    from . import geometry as geo
    from . import holonomy as hol
    from . import screens as scn
    from . import serialize as ser
    from .errors import DomainError, FormatError
except KeyboardInterrupt:
    print("error: interrupted", file=sys.stderr)
    sys.exit(130)

FATGRAPH_GRAMMAR = """\
fatgraph v1 file format ('#' starts a comment):
  fatgraph v1
  v <vertex-id> : <half-edge-id> <half-edge-id> ...
  e <edge-label> : <half-edge-id> <half-edge-id>
Vertex lines list half-edges in counter-clockwise cyclic order.  Half-edge
ids are the integers 0..2E-1, each appearing in exactly one 'v' line and
exactly one 'e' line.  Edge labels hold no whitespace, ',' or '.' and do
not end in '+' or '-'.  Paths are comma or space separated step tokens
'<label>+' or '<label>-'; '+' departs through the first half-edge on the
edge's definition line.
"""


def _read(path: str) -> str:
    """The UTF-8 text of an input file, as ``utf-8-sig`` reads it: without the byte
    order mark that spreadsheet programs write.  Other bytes are refused as a
    ``FormatError`` that counts them from the start of the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _print_curves(g: fgr.Fatgraph, curves, empty: str, prefix: str = "") -> None:
    """One line per curve, its step tokens after ``prefix``; ``empty`` if there are none."""
    for c in curves:
        print(prefix + ser.curve_tokens(g, c))
    if len(curves) == 0:
        print(prefix + empty)


def cmd_info(g: fgr.Fatgraph, args) -> int:
    genus, punctures = fgr.topology(g)
    cycles = fgr.boundary_cycles(g)
    print(f"genus={genus} punctures={punctures} boundary_cycles={len(cycles)}")
    print(f"vertices={g.n_vertices} edges={g.n_edges} trivalent={str(g.is_trivalent()).lower()}")
    for i, c in enumerate(cycles):
        print(f"cycle {i} : {ser.curve_tokens(g, c)}")
    return 0


def cmd_recurrent(g: fgr.Fatgraph, args) -> int:
    if args.enumerate:      # as the scan yields them: in member-key order
        for a in fgr.recurrent_subsets(g):
            print(ser.subset_text(g, a))
        return 0
    subset = ser.parse_subset(g, args.subset)
    ok = fgr.is_recurrent(g, subset)
    print("recurrent" if ok else "not recurrent")
    if not ok:
        core = fgr.maximal_recurrent_subset(g, subset)
        print(f"maximal recurrent subset : {ser.subset_text(g, core)}")
    return 0


def cmd_screens(g: fgr.Fatgraph, args) -> int:
    all_screens = scn.enumerate_screens(g, max_edges=args.max_edges)
    print(f"screens={len(all_screens)}")
    for i, s in enumerate(all_screens):
        print(f"screen {i} : {' '.join(ser.subset_text(g, a) for a in s.family)}")
        if args.boundary:
            _print_curves(g, scn.screen_boundary(s), "(empty)", "  boundary : ")
    return 0


def cmd_boundary(g: fgr.Fatgraph, args) -> int:
    subset = ser.parse_subset(g, args.subset)
    _print_curves(g, fgr.subset_boundary(g, subset), "(empty)")
    return 0


def cmd_trace(g: fgr.Fatgraph, args) -> int:
    lam = ser.read_lambda_csv(g, _read(args.lam))
    path = ser.parse_curve(g, args.path)
    gap = hol.trace_gap_of_path(g, lam, path)     # one certified value for all three lines
    print(f"abs_trace={ser.fmt(2.0 + gap)}")
    print(f"abs_trace_minus_2={ser.fmt(gap)}")
    print(f"hyp_length={ser.fmt(hol.hyp_length_from_gap(gap))}")
    return 0


def _family_from_args(g: fgr.Fatgraph, args) -> scn.MonomialFamily:
    if getattr(args, "exponents", None):
        return ser.read_exponents_csv(g, _read(args.exponents))
    s = ser.read_screen_json(g, _read(args.screen))
    check = scn.validate_screen(s)
    if not check.ok:
        raise DomainError(f"invalid screen, condition ({check.condition}): {check.message}")
    return scn.depth_family(s)


def cmd_sweep(g: fgr.Fatgraph, args) -> int:
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


def cmd_detect(g: fgr.Fatgraph, args) -> int:
    _print_curves(g, asy.detect_short_curves(g, _family_from_args(g, args)), "(no short curves)")
    return 0


def cmd_invert(g: fgr.Fatgraph, args) -> int:
    coords = ser.read_coords_csv(g, _read(args.coords))
    lam = geo.invert_coords(g, coords, tol=args.tol)
    sys.stdout.write(ser.write_lambda_csv(g, lam))
    return 0


def cmd_check_cell(g: fgr.Fatgraph, args) -> int:
    lam = ser.read_lambda_csv(g, _read(args.lam))
    coords = geo.simplicial_coords(g, lam)
    tol = args.tol if args.tol is not None else geo.default_zero_tol(coords)
    ok = geo.no_vanishing_cycle(g, coords, tol)
    print("in cell" if ok else "not in cell")
    lo = min(range(g.n_edges), key=lambda e: coords[e])
    print(f"min_coordinate={ser.fmt(coords[lo])} at edge {g.label(lo)}")
    return 0


def cmd_ij_check(g: fgr.Fatgraph, args) -> int:
    fam = _family_from_args(g, args)
    report = asy.ij_check(g, fam)
    print(f"I = {ser.subset_text(g, report.divergent)}")
    print(f"J = {ser.subset_text(g, report.vanishing)}")
    print(f"I subset of J : {'yes' if report.i_subset_j else 'no'}")
    print(f"R(G_J) = G_I : {'yes' if report.recurrent_core_equals_i else 'no'}")
    for e, lead in report.leading:
        print(f"X[{g.label(e)}] : leading {lead.coefficient} * t^({lead.exponent})")
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

    def command(name, func, help):
        """A subcommand whose ``func(g, args)`` gets the graph ``main`` reads from ``graph``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("graph")
        p.set_defaults(func=func)
        return p

    def add_family_args(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--exponents", metavar="CSV")
        grp.add_argument("--screen", metavar="JSON")

    command("info", cmd_info, "genus, punctures and boundary cycles")

    p = command("recurrent", cmd_recurrent, "test a subset or list all recurrent subsets")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--subset", help="comma separated edge labels")
    grp.add_argument("--enumerate", action="store_true")

    p = command("screens", cmd_screens, "enumerate screens")
    p.add_argument("--boundary", action="store_true", help="also print boundaries")
    p.add_argument("--max-edges", type=int, default=scn.MAX_ENUMERATION_EDGES)

    p = command("boundary", cmd_boundary, "boundary curves of an edge subset")
    p.add_argument("--subset", required=True)

    p = command("trace", cmd_trace, "holonomy trace of a closed path")
    p.add_argument("--lambda", dest="lam", required=True, metavar="CSV")
    p.add_argument("--path", required=True, help="step tokens, e.g. 'e0+,e1-'")

    p = command("sweep", cmd_sweep, "trace table along a monomial family")
    add_family_args(p)
    p.add_argument("--t", type=_t_values,
                   help="comma separated t values (default 10,100,1000,10000)")
    p.add_argument("--summary", metavar="JSON", help="write curve verdicts here")

    add_family_args(command("detect", cmd_detect, "curves that get short along a family"))

    p = command("invert", cmd_invert, "weights realizing target coordinates")
    p.add_argument("--coords", required=True, metavar="CSV")
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("check-cell", cmd_check_cell, "cell membership of weights")
    p.add_argument("--lambda", dest="lam", required=True, metavar="CSV")
    p.add_argument("--tol", type=float, default=None)

    add_family_args(command("ij-check", cmd_ij_check, "divergent weights vs vanishing coordinates"))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    # finalizers' reports are held here: the interpreter writes them also where memory is too
    # short for a hook to run, and those are dropped
    stderr, sys.stderr = sys.stderr, io.StringIO()
    reserve = bytes(2 << 20)    # freed by the out-of-memory exit, so that it has room to print
    try:
        status = args.func(fgr.parse_fatgraph(_read(args.graph)), args)
        sys.stdout.flush()      # a closed pipe shows here, not in the interpreter's last flush
        return status
    except BrokenPipeError:     # the reader is gone: what is left goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("error: interrupted", file=stderr)
        return 130
    except MemoryError as exc:
        del reserve
        exc.__traceback__ = None    # frees the command's frames, and all they hold
        sys.stderr.truncate(0)
        print("error: out of memory", file=stderr)
        return 1
    except (DomainError, OSError, ImportError) as exc:     # ImportError: numpy missing
        print(f"error: {exc}", file=stderr)
        return 1
    finally:
        stderr.write(sys.stderr.getvalue())
        sys.stderr = stderr


if __name__ == "__main__":
    sys.exit(main())
