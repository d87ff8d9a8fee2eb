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
from .fatgraph import EdgePath, Fatgraph, check_closed_path
from .geometry import LambdaAssignment, SimplicialCoords
from .screens import MonomialFamily, Screen, screen

NUM_FMT = "%.15g"


def fmt(x: float) -> str:
    return NUM_FMT % x


# -- edge-value CSV ---------------------------------------------------------

def _parse_rows(text: str, value_name: str, convert) -> list[tuple[int, str, str]]:
    """(line number, label, value) per data row.  A header is ``edge,<value_name>`` on any
    line, or an ``edge`` row on line 1 whose second field is no value: a first row for an
    edge labelled ``edge`` is data."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"expected 'edge,{value_name}'", lineno)
        if parts == ["edge", value_name]:
            continue
        if lineno == 1 and parts[0] == "edge":
            try:
                convert(parts[1])
            except (ValueError, ZeroDivisionError):
                continue
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise FormatError("no data rows", 1)
    return rows


def _values_by_edge(g: Fatgraph, text: str, value_name: str, convert, bad: str) -> list:
    """Each edge's value by ``convert``; a row's unknown label, repeat or bad value names its line."""
    vals: list = [None] * g.n_edges
    for lineno, label, raw in _parse_rows(text, value_name, convert):
        try:
            e = g.edge_by_label(label)
        except DomainError as exc:
            raise FormatError(str(exc), lineno) from None
        if vals[e] is not None:
            raise FormatError(f"duplicate entry for edge {label!r}", lineno)
        try:
            vals[e] = convert(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{bad}: {exc}", lineno) from None
    missing = [g.label(e) for e, v in enumerate(vals) if v is None]
    if missing:
        raise FormatError(f"missing entries for edges {missing}", 1)
    return vals


def _read_values_csv(g: Fatgraph, text: str, cls):
    return cls(tuple(_values_by_edge(g, text, "value", float, "bad numeric value")))


def read_lambda_csv(g: Fatgraph, text: str) -> LambdaAssignment:
    return _read_values_csv(g, text, LambdaAssignment)


def write_lambda_csv(g: Fatgraph, lam: LambdaAssignment) -> str:
    lines = ["edge,value"]
    lines += [f"{g.label(e)},{fmt(lam[e])}" for e in range(g.n_edges)]
    return "\n".join(lines) + "\n"


def read_coords_csv(g: Fatgraph, text: str) -> SimplicialCoords:
    return _read_values_csv(g, text, SimplicialCoords)


def read_exponents_csv(g: Fatgraph, text: str) -> MonomialFamily:
    return MonomialFamily(tuple(_values_by_edge(g, text, "exponent", Fraction, "bad exponent")))


# -- screens ----------------------------------------------------------------

def read_screen_json(g: Fatgraph, text: str) -> Screen:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
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
    path = EdgePath(tuple(parse_step_token(g, tok) for tok in tokens))
    check_closed_path(g, path)
    return path


def parse_subset(g: Fatgraph, text: str) -> frozenset:
    labels = [p for p in text.replace(",", " ").split() if p]
    return frozenset(g.edge_by_label(lab) for lab in labels)


def subset_text(g: Fatgraph, subset: Iterable[int]) -> str:
    return "{" + ",".join(sorted(g.label(e) for e in subset)) + "}"
