"""Degeneration sweeps: which curves get short as monomial weights diverge.

A monomial family t -> (t**p_e) traces a ray of weights.  Its screen is
read off the exponents; the screen's boundary curves are exactly the
curves whose holonomy traces tend to 2 along the ray, and every other
essential curve keeps its trace gap away from 0.  This module evaluates
families on a schedule of t values, measures traces, classifies curves,
and checks the divergence/vanishing bookkeeping between weights and
simplicial coordinates symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .fatgraph import CurveSystem, EdgePath, EdgeSubset, Fatgraph, \
    maximal_recurrent_subset
from .geometry import LambdaAssignment, in_cell, simplicial_coords
from .holonomy import hyp_length_from_gap, trace_gap_of_path
from .screens import MonomialFamily, Screen, screen_boundary, \
    screen_of_exponents, validate_screen

DEFAULT_T = (10.0, 100.0, 1000.0, 10000.0)
# the detection cross-check sweeps further out: boundary curves of deep
# screens can decay as slowly as 1/t with constants around 10, which sits
# on the default threshold at t = 1e4
DETECT_T = (10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0)
SHRINK_THRESHOLD = 1e-3
PARABOLIC_TOL = 1e-9

VERDICT_SHRINKING = "shrinking"
VERDICT_PARABOLIC = "parabolic (excluded)"
VERDICT_NOT_SHRINKING = "not shrinking"


@dataclass(frozen=True)
class SweepSchedule:
    """Strictly increasing t values, all >= 1."""

    t_values: tuple[float, ...] = DEFAULT_T

    def __post_init__(self):
        ts = self.t_values
        if not ts or any(t < 1.0 for t in ts):
            raise DomainError("schedule values must be >= 1")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("schedule must be strictly increasing")


def evaluate_family(fam: MonomialFamily, t: float) -> LambdaAssignment:
    """Weights t**p_e at one parameter value."""
    if t < 1.0:
        raise DomainError("parameter must be >= 1")
    weights = []
    for e, p in enumerate(fam.exponents):
        try:
            weights.append(float(t) ** float(p))
        except OverflowError:
            raise DomainError(f"weight t**{p} of edge {e} overflows at t={t:g}") from None
    return LambdaAssignment(tuple(weights))


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
    verdicts: tuple[tuple[EdgePath, str], ...] = field(default=())

    def verdict_of(self, curve: EdgePath) -> str:
        for c, v in self.verdicts:
            if c == curve:
                return v
        raise KeyError(curve)


def sweep(g: Fatgraph, fam: MonomialFamily, curves: CurveSystem | Iterable[EdgePath],
          sched: SweepSchedule | None = None,
          shrink_threshold: float = SHRINK_THRESHOLD,
          parabolic_tol: float = PARABOLIC_TOL) -> SweepReport:
    """Trace every curve at every scheduled t and classify the decay.

    A curve is ``shrinking`` when its trace gaps strictly decrease along
    the schedule and the final gap falls below the threshold; gaps within
    the parabolic tolerance at every t mark a puncture-parallel curve.
    """
    if not g.is_trivalent():
        raise DomainError("sweep needs a trivalent graph")
    sched = sched or SweepSchedule()
    curve_list = list(curves)
    rows = []
    flags = []
    gaps: dict[EdgePath, list[float]] = {c: [] for c in curve_list}
    for t in sched.t_values:
        lam = evaluate_family(fam, t)
        flags.append((t, in_cell(g, lam)))
        for c in curve_list:
            gap = trace_gap_of_path(g, lam, c)
            length = hyp_length_from_gap(gap) if gap >= 0.0 else 0.0
            rows.append(SweepRow(t, c, 2.0 + gap, gap, length))
            gaps[c].append(gap)
    verdicts = []
    for c in curve_list:
        gs = gaps[c]
        if all(abs(x) < parabolic_tol for x in gs):
            verdicts.append((c, VERDICT_PARABOLIC))
        elif all(b < a for a, b in zip(gs, gs[1:])) and gs[-1] < shrink_threshold:
            verdicts.append((c, VERDICT_SHRINKING))
        else:
            verdicts.append((c, VERDICT_NOT_SHRINKING))
    return SweepReport(tuple(rows), tuple(flags), tuple(verdicts))


def detect_short_curves(g: Fatgraph, fam: MonomialFamily,
                        sched: SweepSchedule | None = None,
                        cross_check: bool = True) -> CurveSystem:
    """Curves that get short along the family: the boundary of its screen.

    The candidate screen comes from the exponent filtration and must pass
    validation; its boundary is returned after a sweep confirms that every
    boundary curve is in fact shrinking.
    """
    if not g.is_trivalent():
        raise DomainError("detection needs a trivalent graph")
    candidate: Screen = screen_of_exponents(g, fam)
    check = validate_screen(candidate)
    if not check.ok:
        raise DomainError(
            f"candidate screen invalid, condition ({check.condition}): {check.message}")
    curves = screen_boundary(candidate)
    if cross_check and len(curves):
        report = sweep(g, fam, curves, sched or SweepSchedule(DETECT_T))
        bad = [c for c, v in report.verdicts if v != VERDICT_SHRINKING]
        if bad:
            raise DomainError(
                f"sweep cross-check failed for {len(bad)} boundary curve(s)")
    return curves


# ---------------------------------------------------------------------------
# Divergent weights versus vanishing coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeadingTerm:
    """Leading monomial of a coordinate as a function of t."""

    exponent: Fraction | None    # None when the coordinate is identically 0
    coefficient: int


@dataclass(frozen=True)
class IJReport:
    divergent: EdgeSubset                 # I: edges whose weight blows up
    vanishing: EdgeSubset                 # J: edges whose coordinate goes to 0
    i_subset_j: bool
    recurrent_core_equals_i: bool         # R(G_J) == G_I as edge sets
    leading: tuple[tuple[int, LeadingTerm], ...]
    notes: tuple[str, ...] = ()


def _coordinate_monomials(g: Fatgraph, fam: MonomialFamily, e: int
                          ) -> dict[Fraction, int]:
    """Signed integer monomials of X_e(t) in exact exponent arithmetic."""
    terms: dict[Fraction, int] = {}

    def add(exp: Fraction, coef: int) -> None:
        new = terms.get(exp, 0) + coef
        if new:
            terms[exp] = new
        else:
            terms.pop(exp, None)

    pe = fam[e]
    for h in g.halves(e):
        pa = fam[g.edge_of(g.sigma(h))]
        pb = fam[g.edge_of(g.sigma(g.sigma(h)))]
        add(pa - pb - pe, 1)
        add(pb - pa - pe, 1)
        add(pe - pa - pb, -1)
    return terms


def ij_check(g: Fatgraph, fam: MonomialFamily,
             sched: SweepSchedule | None = None,
             numeric_tol: float = 1e-6) -> IJReport:
    """Divergence/vanishing bookkeeping along a monomial family.

    I collects the edges with positive exponent (weight diverges); J the
    edges whose simplicial coordinate tends to zero, decided by the exact
    leading exponent of the coordinate as a signed sum of monomials in t.
    Reports whether I is contained in J and whether the maximal recurrent
    subset of J equals I.  A numeric evaluation at the largest scheduled t
    cross-checks the symbolic verdicts.
    """
    if not g.is_trivalent():
        raise DomainError("coordinate analysis needs a trivalent graph")
    if len(fam) != g.n_edges:
        raise DomainError("one exponent per edge required")
    sched = sched or SweepSchedule()
    divergent = frozenset(e for e in range(g.n_edges) if fam[e] > 0)
    vanishing = set()
    leading = []
    notes = []
    for e in range(g.n_edges):
        terms = _coordinate_monomials(g, fam, e)
        if not terms:
            lead = LeadingTerm(None, 0)
            vanishing.add(e)
        else:
            exp = max(terms)
            coef = terms[exp]
            lead = LeadingTerm(exp, coef)
            if exp < 0:
                vanishing.add(e)
            if coef < 0:
                notes.append(
                    f"edge {g.label(e)}: leading coefficient {coef} < 0, "
                    f"the family leaves the cell for large t")
        leading.append((e, lead))
    t_max = sched.t_values[-1]
    coords = simplicial_coords(g, evaluate_family(fam, t_max))
    for e, lead in leading:
        numeric_small = abs(coords[e]) < numeric_tol * (1.0 + abs(coords[e]))
        symbolic_small = e in vanishing
        if symbolic_small != numeric_small:
            val = coords[e]
            if symbolic_small and abs(val) > numeric_tol:
                notes.append(f"edge {g.label(e)}: symbolic limit 0 but value "
                             f"{val:.3e} at t={t_max:g} (slow decay)")
    vanishing_f = frozenset(vanishing)
    core = maximal_recurrent_subset(g, vanishing_f)
    return IJReport(divergent, vanishing_f,
                    divergent <= vanishing_f,
                    core == divergent,
                    tuple(leading), tuple(notes))
