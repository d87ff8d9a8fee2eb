"""Degeneration sweeps: which curves get short as monomial weights diverge.

A monomial family t -> (t**p_e) traces a ray of weights.  Its screen is
read off the exponents; the screen's boundary curves are exactly the
curves whose holonomy traces tend to 2 along the ray, and every other
essential curve keeps its trace gap away from 0.  Along the ray every
cross ratio is a monomial in t, so each trace and each simplicial
coordinate is an exact Laurent polynomial in a root of t with integer
coefficients.  This module tabulates each curve's gap |trace| - 2, that
polynomial from the packed-int loop of :mod:`fatscreens.holonomy`, on a
schedule of t; curves shrink by its leading term, which detection reads off the
packed trace's top digits alone.  Coordinates, kept as sorted
monomials, vanish by their leading term and decide cell membership exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .fatgraph import CurveSystem, EdgePath, EdgeSubset, Fatgraph, _one_per_edge, \
    maximal_recurrent_subset
# in_cell, simplicial_coords and trace_gap_of_path stay bound here for perfbench's tracer
from .geometry import LambdaAssignment, in_cell, simplicial_coords
from .holonomy import _exact_gap_poly, _exact_gap_top, hyp_length_from_gap, terms_at, \
    trace_gap_of_path
from .screens import MonomialFamily, Screen, screen_boundary, \
    screen_of_exponents, validate_screen

DEFAULT_T = (10.0, 100.0, 1000.0, 10000.0)

VERDICT_SHRINKING = "shrinking"
VERDICT_PARABOLIC = "parabolic (excluded)"
VERDICT_NOT_SHRINKING = "not shrinking"


@dataclass(frozen=True)
class SweepSchedule:
    """Strictly increasing t values, all finite and >= 1."""

    t_values: tuple[float, ...] = DEFAULT_T

    def __post_init__(self):
        ts = self.t_values
        if not ts or not all(1.0 <= t < math.inf for t in ts):
            raise DomainError("schedule values must be finite and >= 1")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("schedule must be strictly increasing")


def evaluate_family(fam: MonomialFamily, t: float) -> LambdaAssignment:
    """Weights t**p_e at one parameter value, each exactly 1 at t = 1 whatever its exponent."""
    if not 1.0 <= t < math.inf:
        raise DomainError(f"schedule value t must be finite and >= 1, got {t}")
    weights = []
    for e, p in enumerate(fam.exponents):
        try:
            weights.append(1.0 if t == 1 else float(t) ** float(p))
        except OverflowError:
            if abs(p) > sys.float_info.max:
                raise DomainError(f"weight of edge {e} overflows at t={t:g}: its exponent is "
                                  "beyond double range") from None
            raise DomainError(f"weight t**{float(p):g} of edge {e} overflows at t={t:g}") from None
    return LambdaAssignment(tuple(weights))


@dataclass(frozen=True)
class LeadingTerm:
    """Leading monomial coefficient * t**exponent of a Laurent polynomial in t."""

    exponent: Fraction | None    # None when the polynomial is identically 0
    coefficient: int


def _tau_exponents(fam: MonomialFamily) -> tuple[int, list[int]]:
    """Exponents q_e of the weights t**p_e in tau = t**(1/unit), with ``unit`` twice the
    lcm of the denominators, so that each cross-ratio square root halves an even q."""
    unit, levels = fam._levels
    return 2 * unit, [2 * k for k in levels]


def _leading(top: tuple[int, int] | None, unit: int) -> LeadingTerm:
    """Leading term in t of a top monomial (k, c) of c * t**(k / unit), None for the 0 polynomial."""
    return LeadingTerm(Fraction(top[0], unit), top[1]) if top else LeadingTerm(None, 0)


def _coordinate_poly(x: int, a: int, b: int, c: int, d: int) -> list[tuple[int, int]]:
    """An edge's ``simplicial_coords`` at weights tau**q, from the exponents of the edge
    and of its quad slots, as sorted monomials (k, c)."""
    terms: dict[int, int] = {}
    for k, n in ((a - b - x, 1), (b - a - x, 1), (c - d - x, 1), (d - c - x, 1),
                 (x - a - b, -1), (x - c - d, -1)):
        terms[k] = terms.get(k, 0) + n
    return sorted((k, n) for k, n in terms.items() if n)


def _abel_positive(x: int, a: int, b: int, c: int, d: int) -> bool:
    """Whether ``_coordinate_poly(x, a, b, c, d)`` has every coefficient sum from the top
    down > 0, read off its six exponents: at each negative one, n, that the positive ones
    do not cancel, more positive than negative exponents are >= n."""
    p1, p2, p3, p4, n1, n2 = a - b - x, b - a - x, c - d - x, d - c - x, x - a - b, x - c - d
    if ((p1 >= n1) + (p2 >= n1) + (p3 >= n1) + (p4 >= n1) <= 1 + (n2 >= n1)
            and (p1 == n1) + (p2 == n1) + (p3 == n1) + (p4 == n1) < 1 + (n2 == n1)):
        return False
    return ((p1 >= n2) + (p2 >= n2) + (p3 >= n2) + (p4 >= n2) > 1 + (n1 >= n2)
            or (p1 == n2) + (p2 == n2) + (p3 == n2) + (p4 == n2) >= 1 + (n1 == n2))


def _verdict(top: tuple[int, int] | None) -> str:
    """Verdict on a trace gap from its top monomial (k, c) of c * tau**k, None for a gap of 0."""
    if top is None:
        return VERDICT_PARABOLIC
    return VERDICT_SHRINKING if top[0] < 0 else VERDICT_NOT_SHRINKING


@dataclass(frozen=True)
class SweepRow:
    t: float
    curve: EdgePath
    abs_trace: float
    gap: float
    hyp_length: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    in_cell_at: tuple[tuple[float, bool], ...]
    verdicts: tuple[tuple[EdgePath, str], ...] = ()
    leading: tuple[tuple[EdgePath, LeadingTerm], ...] = ()    # of each curve's trace gap


def sweep(g: Fatgraph, fam: MonomialFamily, curves: CurveSystem | Iterable[EdgePath],
          sched: SweepSchedule = SweepSchedule()) -> SweepReport:
    """Trace every curve at every scheduled t and classify the decay.

    Rows evaluate each curve's exact gap |trace| - 2 to 15 digits, or refuse a nonzero gap
    outside the normal double range; its leading term c * t**k gives the verdict:
    ``shrinking`` if k < 0, parabolic if the gap is 0.
    ``in_cell_at`` holds when every coordinate is > 0 at t; none is identically 0 (each is
    2 at t = 1), so the cell's forest test on 0 coordinates is empty; one 0 at t is refused.
    """
    if not g.is_trivalent():
        raise DomainError("sweep needs a trivalent graph")
    _one_per_edge(g, fam.exponents, "exponent")
    unit, q = _tau_exponents(fam)
    polys = [(c, _exact_gap_poly(g, q, c)) for c in curves]
    # Abel summation: coefficient sums > 0 from the top down keep a coordinate > 0 for t >= 1
    unsure = [_coordinate_poly(x, q[a], q[b], q[c], q[d])
              for x, (a, b, c, d) in zip(q, g._edge_quads)
              if not _abel_positive(x, q[a], q[b], q[c], q[d])]
    q_lo, q_hi = min(q, default=0), max(q, default=0)
    rows, flags = [], []
    for t in sched.t_values:
        try:    # t >= 1: the least and largest exponents give the least and largest weights
            in_range = float(t) ** (q_lo / unit) > 0 and float(t) ** (q_hi / unit) < math.inf
        except OverflowError:   # or an exponent is beyond double range
            in_range = False
        if not in_range:
            evaluate_family(fam, t)     # names the first weight beyond double range
        flags.append((t, all(terms_at(m, unit, t) > 0 for m in unsure)))
        for c, poly in polys:
            gap = terms_at(poly, unit, t)
            if poly and not sys.float_info.min <= abs(gap) <= sys.float_info.max:
                raise DomainError(f"a nonzero trace gap rounds to {gap:g} at t={t:g}")
            rows.append(SweepRow(t, c, 2.0 + gap, gap, hyp_length_from_gap(gap)))
    tops = [(c, poly[-1] if poly else None) for c, poly in polys]
    verdicts = tuple((c, _verdict(top)) for c, top in tops)
    leading = tuple((c, _leading(top, unit)) for c, top in tops)
    return SweepReport(tuple(rows), tuple(flags), verdicts, leading)


def detect_short_curves(g: Fatgraph, fam: MonomialFamily) -> CurveSystem:
    """Curves that get short along the family: the boundary of its screen.

    The candidate screen comes from the exponent filtration and must pass
    validation; its boundary is returned after the exact trace gap of every
    boundary curve is confirmed to decay.
    """
    if not g.is_trivalent():
        raise DomainError("detection needs a trivalent graph")
    candidate: Screen = screen_of_exponents(g, fam)
    check = validate_screen(candidate)
    if not check.ok:
        raise DomainError(
            f"candidate screen invalid, condition ({check.condition}): {check.message}")
    curves = screen_boundary(candidate)
    _, q = _tau_exponents(fam)
    bad = [c for c in curves if _verdict(_exact_gap_top(g, q, c)) != VERDICT_SHRINKING]
    if bad:
        raise DomainError(f"exact trace gap of {len(bad)} boundary curve(s) does not decay")
    return curves


# ---------------------------------------------------------------------------
# Divergent weights versus vanishing coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IJReport:
    divergent: EdgeSubset                 # I: edges whose weight blows up
    vanishing: EdgeSubset                 # J: edges whose coordinate goes to 0
    i_subset_j: bool
    recurrent_core_equals_i: bool         # R(G_J) == G_I as edge sets
    leading: tuple[tuple[int, LeadingTerm], ...]
    notes: tuple[str, ...] = ()


def ij_check(g: Fatgraph, fam: MonomialFamily) -> IJReport:
    """Divergence/vanishing bookkeeping along a monomial family.

    I collects the edges with positive exponent (weight diverges); J the
    edges whose simplicial coordinate tends to zero, decided by the exact
    leading exponent of the coordinate as a Laurent polynomial in t.
    Reports whether I is contained in J and whether the maximal recurrent
    subset of J equals I.
    """
    if not g.is_trivalent():
        raise DomainError("coordinate analysis needs a trivalent graph")
    _one_per_edge(g, fam.exponents, "exponent")
    divergent = frozenset(e for e in range(g.n_edges) if fam.exponents[e] > 0)
    unit, q = _tau_exponents(fam)
    leading = [(e, _leading(_coordinate_poly(x, *[q[s] for s in quad])[-1], unit))
               for e, (x, quad) in enumerate(zip(q, g._edge_quads))]
    vanishing = frozenset(e for e, lead in leading if lead.exponent < 0)   # none is identically 0
    notes = [f"edge {g.label(e)}: leading coefficient {lead.coefficient} < 0, "
             f"the family leaves the cell for large t"
             for e, lead in leading if lead.coefficient < 0]
    return IJReport(divergent, vanishing, divergent <= vanishing,
                    maximal_recurrent_subset(g, vanishing) == divergent,
                    tuple(leading), tuple(notes))
