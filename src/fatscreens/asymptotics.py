"""Degeneration sweeps: which curves get short as monomial weights diverge.

A monomial family t -> (t**p_e) traces a ray of weights.  Its screen is
read off the exponents; the screen's boundary curves are exactly the
curves whose holonomy traces tend to 2 along the ray, and every other
essential curve keeps its trace gap away from 0.  Along the ray every
cross ratio is a monomial in t, so each trace and each simplicial
coordinate is an exact Laurent polynomial in a root of t with integer
coefficients.  This module tabulates traces on a schedule of t values,
decides which curves shrink from the exact leading term of the trace gap
|trace| - 2, and checks the divergence/vanishing bookkeeping between weights
and simplicial coordinates from the coordinates' exact leading terms.  The
exact trace comes from the packed-int loop in :mod:`fatscreens.holonomy`; a
coordinate is a sum of six monomials, collected in a dict of exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .fatgraph import CurveSystem, EdgePath, EdgeSubset, Fatgraph, \
    maximal_recurrent_subset
# simplicial_coords stays bound here for perfbench's tracer, which wraps it at this site
from .geometry import LambdaAssignment, in_cell, simplicial_coords
from .holonomy import _exact_gap_leading, hyp_length_from_gap, trace_gap_of_path
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
    """Weights t**p_e at one parameter value."""
    if not 1.0 <= t < math.inf:
        raise DomainError(f"schedule value t must be finite and >= 1, got {t}")
    weights = []
    for e, p in enumerate(fam.exponents):
        try:
            weights.append(float(t) ** float(p))
        except OverflowError:
            raise DomainError(f"weight t**{p} of edge {e} overflows at t={t:g}") from None
    return LambdaAssignment(tuple(weights))


@dataclass(frozen=True)
class LeadingTerm:
    """Leading monomial coefficient * t**exponent of a Laurent polynomial in t."""

    exponent: Fraction | None    # None when the polynomial is identically 0
    coefficient: int


def _tau_exponents(fam: MonomialFamily) -> tuple[int, list[int]]:
    """Exponents q_e of the weights t**p_e in tau = t**(1/unit), with ``unit`` twice the
    lcm of the denominators, so that each cross-ratio square root halves an even q."""
    unit = 2 * math.lcm(*(p.denominator for p in fam.exponents))
    return unit, [p.numerator * (unit // p.denominator) for p in fam.exponents]


def _gap_leading(g: Fatgraph, fam: MonomialFamily, path: EdgePath) -> LeadingTerm:
    """Leading term of |trace| - 2 along the family, from the exact trace."""
    unit, q = _tau_exponents(fam)
    k, c = _exact_gap_leading(g, q, path)
    return LeadingTerm(None if k is None else Fraction(k, unit), c)


def _verdict(k: int | None) -> str:
    """Verdict on a gap with leading exponent k in tau (None: the gap is 0)."""
    if k is None:
        return VERDICT_PARABOLIC
    return VERDICT_SHRINKING if k < 0 else VERDICT_NOT_SHRINKING


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


def sweep(g: Fatgraph, fam: MonomialFamily, curves: CurveSystem | Iterable[EdgePath],
          sched: SweepSchedule | None = None) -> SweepReport:
    """Trace every curve at every scheduled t and classify the decay.

    The verdict reads the exact leading term c * t**k of |trace| - 2: a
    curve is ``shrinking`` when k < 0, and puncture-parallel (parabolic)
    when the gap is identically 0.
    """
    if not g.is_trivalent():
        raise DomainError("sweep needs a trivalent graph")
    if len(fam) != g.n_edges:
        raise DomainError("one exponent per edge required")
    sched = sched or SweepSchedule()
    _, q = _tau_exponents(fam)
    curve_list = list(curves)
    rows = []
    flags = []
    for t in sched.t_values:
        lam = evaluate_family(fam, t)
        flags.append((t, in_cell(g, lam)))
        for c in curve_list:
            gap = trace_gap_of_path(g, lam, c)
            length = hyp_length_from_gap(gap) if gap >= 0.0 else 0.0
            rows.append(SweepRow(t, c, 2.0 + gap, gap, length))
    verdicts = tuple((c, _verdict(_exact_gap_leading(g, q, c)[0])) for c in curve_list)
    return SweepReport(tuple(rows), tuple(flags), verdicts)


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
    bad = [c for c in curves if _verdict(_exact_gap_leading(g, q, c)[0]) != VERDICT_SHRINKING]
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
    if len(fam) != g.n_edges:
        raise DomainError("one exponent per edge required")
    divergent = frozenset(e for e in range(g.n_edges) if fam[e] > 0)
    unit, q = _tau_exponents(fam)
    leading = []
    for e in range(g.n_edges):
        terms: dict[int, int] = {}      # an end term (a*a + b*b - x*x) / (a*b*x) is 3 monomials
        x = q[e]
        slots = [q[s] for s in g._quad(g.halves(e)[0])]
        for a, b in (slots[:2], slots[2:]):      # the first half's end, then the second's
            for k, c in ((a - b - x, 1), (b - a - x, 1), (x - a - b, -1)):
                terms[k] = terms.get(k, 0) + c
        top = max((k for k, c in terms.items() if c), default=None)
        leading.append((e, LeadingTerm(None if top is None else Fraction(top, unit),
                                       terms.get(top, 0))))
    vanishing = frozenset(e for e, lead in leading
                          if lead.exponent is None or lead.exponent < 0)
    notes = [f"edge {g.label(e)}: leading coefficient {lead.coefficient} < 0, "
             f"the family leaves the cell for large t"
             for e, lead in leading if lead.coefficient < 0]
    return IJReport(divergent, vanishing, divergent <= vanishing,
                    maximal_recurrent_subset(g, vanishing) == divergent,
                    tuple(leading), tuple(notes))
