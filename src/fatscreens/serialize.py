"""File formats: weight/exponent CSV, screen JSON, curve tokens.

All numbers print with 15 significant digits and a ``.`` decimal
separator.  A curve serializes as step tokens ``<label>+`` / ``<label>-``
where ``+`` departs through the first half-edge listed on the edge's
definition line.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, FormatError
from .fatgraph import CurveSystem, EdgePath, Fatgraph, check_closed_path, \
    curve_system
from .geometry import LambdaAssignment, SimplicialCoords
from .screens import MonomialFamily, Screen, screen

NUM_FMT = "%.15g"


def fmt(x: float) -> str:
    return NUM_FMT % x


# -- edge-value CSV ---------------------------------------------------------

def _parse_rows(text: str, value_name: str) -> list[tuple[int, str, str]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"expected 'edge,{value_name}'", lineno)
        if parts[0] == "edge" and lineno == 1 or parts == ["edge", value_name]:
            continue
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise FormatError("no data rows", 1)
    return rows


def _values_by_edge(g: Fatgraph, rows: list[tuple[int, str, str]]) -> list[str]:
    vals: list[str | None] = [None] * g.n_edges
    for lineno, label, raw in rows:
        e = g.edge_by_label(label)
        if vals[e] is not None:
            raise FormatError(f"duplicate entry for edge {label!r}", lineno)
        vals[e] = raw
    missing = [g.label(e) for e, v in enumerate(vals) if v is None]
    if missing:
        raise FormatError(f"missing entries for edges {missing}", 1)
    return vals  # type: ignore[return-value]


def _read_values_csv(g: Fatgraph, text: str, cls):
    raw = _values_by_edge(g, _parse_rows(text, "value"))
    try:
        return cls(tuple(float(v) for v in raw))
    except ValueError as exc:
        raise FormatError(f"bad numeric value: {exc}") from None


def read_lambda_csv(g: Fatgraph, text: str) -> LambdaAssignment:
    return _read_values_csv(g, text, LambdaAssignment)


def write_lambda_csv(g: Fatgraph, lam: LambdaAssignment) -> str:
    lines = ["edge,value"]
    lines += [f"{g.label(e)},{fmt(lam[e])}" for e in range(g.n_edges)]
    return "\n".join(lines) + "\n"


def read_coords_csv(g: Fatgraph, text: str) -> SimplicialCoords:
    return _read_values_csv(g, text, SimplicialCoords)


def read_exponents_csv(g: Fatgraph, text: str) -> MonomialFamily:
    raw = _values_by_edge(g, _parse_rows(text, "exponent"))
    try:
        return MonomialFamily(tuple(Fraction(v) for v in raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad exponent: {exc}") from None


def write_exponents_csv(g: Fatgraph, fam: MonomialFamily) -> str:
    lines = ["edge,exponent"]
    for e in range(g.n_edges):
        p = fam[e]
        text = str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
        lines.append(f"{g.label(e)},{text}")
    return "\n".join(lines) + "\n"


# -- screens ----------------------------------------------------------------

def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None


def read_screen_json(g: Fatgraph, text: str) -> Screen:
    data = _load_json(text)
    if not isinstance(data, dict) or "family" not in data:
        raise FormatError('expected an object with a "family" key')
    if not isinstance(data["family"], list):
        raise FormatError('"family" must be an array of members')
    family = []
    for member in data["family"]:
        if not isinstance(member, list):
            raise FormatError("family members must be arrays of edge labels")
        family.append({g.edge_by_label(str(lab)) for lab in member})
    return screen(g, family)


def write_screen_json(s: Screen) -> str:
    g = s.graph
    top = g.all_edges()
    fam = [sorted(g.label(e) for e in a) for a in s.family if a != top]
    return json.dumps({"family": fam}) + "\n"


# -- curves -----------------------------------------------------------------

def step_token(g: Fatgraph, step: int) -> str:
    e = g.edge_of(step)
    sign = "+" if g.halves(e)[0] == step else "-"
    return f"{g.label(e)}{sign}"


def curve_tokens(g: Fatgraph, path: EdgePath) -> str:
    return " ".join(step_token(g, s) for s in path.steps)


def parse_step_token(g: Fatgraph, token: str) -> int:
    token = token.strip()
    if token.endswith("+") or token.endswith("-"):
        label, sign = token[:-1], token[-1]
    else:
        label, sign = token, "+"
    e = g.edge_by_label(label)
    return g.halves(e)[0] if sign == "+" else g.halves(e)[1]


def parse_curve(g: Fatgraph, text: str) -> EdgePath:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise DomainError("empty path")
    path = EdgePath(tuple(parse_step_token(g, tok) for tok in tokens))
    check_closed_path(g, path)
    return path


def write_curves_json(g: Fatgraph, curves: CurveSystem) -> str:
    data = [[step_token(g, s) for s in c.steps] for c in curves]
    return json.dumps(data) + "\n"


def read_curves_json(g: Fatgraph, text: str) -> CurveSystem:
    data = _load_json(text)
    if not isinstance(data, list):
        raise FormatError("expected an array of curves")
    paths = []
    for item in data:
        if not isinstance(item, list) or not all(isinstance(tok, str) for tok in item):
            raise FormatError("curves must be arrays of step tokens")
        path = EdgePath(tuple(parse_step_token(g, tok) for tok in item))
        check_closed_path(g, path)
        paths.append(path)
    return curve_system(g, paths, check=False)


def parse_subset(g: Fatgraph, text: str) -> frozenset:
    labels = [p for p in text.replace(",", " ").split() if p]
    if not labels:
        raise DomainError("empty edge subset")
    return frozenset(g.edge_by_label(lab) for lab in labels)


def write_subset_json(g: Fatgraph, subset: Iterable[int]) -> str:
    return json.dumps(sorted(g.label(e) for e in subset)) + "\n"


def read_subset_json(g: Fatgraph, text: str) -> frozenset:
    data = _load_json(text)
    if not isinstance(data, list):
        raise FormatError("expected an array of edge labels")
    return frozenset(g.edge_by_label(str(lab)) for lab in data)


def subset_text(g: Fatgraph, subset: Iterable[int]) -> str:
    return "{" + ",".join(sorted(g.label(e) for e in subset)) + "}"
