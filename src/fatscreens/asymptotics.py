"""Degeneration sweeps: which curves get short as monomial weights diverge.

A monomial family t -> (t**p_e) traces a ray of weights.  Its screen is
read off the exponents; the screen's boundary curves are exactly the
curves whose holonomy traces tend to 2 along the ray, and every other
essential curve keeps its trace gap away from 0.  Along the ray every
cross ratio is a monomial in t, so each trace and each simplicial
coordinate is an exact Laurent polynomial in t with integer coefficients.
This module tabulates traces on a schedule of t values, decides which
curves shrink from the exact leading term of the trace gap |trace| - 2,
and checks the divergence/vanishing bookkeeping between weights and
simplicial coordinates from the coordinates' exact leading terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .fatgraph import CurveSystem, EdgePath, EdgeSubset, Fatgraph, \
    maximal_recurrent_subset
from .geometry import LambdaAssignment, _end_term, in_cell, simplicial_coords
from .holonomy import _product, hyp_length_from_gap, trace_gap_of_path
from .screens import MonomialFamily, Screen, screen_boundary, \
    screen_of_exponents, validate_screen

DEFAULT_T = (10.0, 100.0, 1000.0, 10000.0)

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


class _Laurent(dict):
    """Exact Laurent polynomial in t: exponent -> nonzero coefficient, all ints.

    Only what ``holonomy._product`` and ``geometry._end_term`` compute: sums, and
    products, quotients and square roots with a monomial or int operand."""

    def __add__(self, other, sign: int = 1) -> "_Laurent":
        out = _Laurent(self)
        for k, c in other.items() if isinstance(other, dict) else [(0, other)]:
            out[k] = out.get(k, 0) + sign * c
            if not out[k]:
                del out[k]
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "_Laurent":
        return self.__add__(other, -1)

    def __mul__(self, other) -> "_Laurent":
        ((k, c),) = other.items() if isinstance(other, dict) else [(0, other)]
        return _Laurent({j + k: c * d for j, d in self.items()} if c else {})

    __rmul__ = __mul__

    def _exponent(self) -> int:
        ((k, c),) = self.items()
        if c != 1:
            raise ValueError("not a monomial with coefficient 1")
        return k

    def __truediv__(self, other) -> "_Laurent":
        k = other._exponent()
        return _Laurent({j - k: c for j, c in self.items()})

    def __rtruediv__(self, other) -> "_Laurent":
        return _Laurent({0: other}) / self

    def sqrt(self) -> "_Laurent":
        half, odd = divmod(self._exponent(), 2)
        if odd:
            raise ValueError("odd exponent has no exact square root")
        return _Laurent({half: 1})


@dataclass(frozen=True)
class LeadingTerm:
    """Leading monomial coefficient * t**exponent of a Laurent polynomial in t."""

    exponent: Fraction | None    # None when the polynomial is identically 0
    coefficient: int


def _monomial_weights(fam: MonomialFamily) -> tuple[int, list[_Laurent]]:
    """Weights t**p_e as monomials in t**(1/unit), with ``unit`` twice the lcm of the
    denominators, so that every cross-ratio square root halves an even exponent."""
    unit = 2 * math.lcm(*(p.denominator for p in fam.exponents))
    return unit, [_Laurent({int(p * unit): 1}) for p in fam.exponents]


def _leading(x: _Laurent, unit: int) -> LeadingTerm:
    k = max(x, default=None)
    return LeadingTerm(None, 0) if k is None else LeadingTerm(Fraction(k, unit), x[k])


def _gap_leading(g: Fatgraph, fam: MonomialFamily, path: EdgePath) -> LeadingTerm:
    """Leading term of |trace| - 2 along the family, from the exact trace."""
    unit, w = _monomial_weights(fam)
    a11, _, _, a22 = _product(g, path, w, _Laurent.sqrt)
    trace = a11 + a22
    sign = -1 if _leading(trace, unit).coefficient < 0 else 1
    return _leading(sign * trace - 2, unit)


def _verdict(gap: LeadingTerm) -> str:
    if gap.exponent is None:
        return VERDICT_PARABOLIC
    return VERDICT_SHRINKING if gap.exponent < 0 else VERDICT_NOT_SHRINKING


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
    verdicts = tuple((c, _verdict(_gap_leading(g, fam, c))) for c in curve_list)
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
    bad = [c for c in curves if _verdict(_gap_leading(g, fam, c)) != VERDICT_SHRINKING]
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
    subset of J equals I.  A numeric evaluation at the last default t
    cross-checks the symbolic verdicts.
    """
    if not g.is_trivalent():
        raise DomainError("coordinate analysis needs a trivalent graph")
    if len(fam) != g.n_edges:
        raise DomainError("one exponent per edge required")
    divergent = frozenset(e for e in range(g.n_edges) if fam[e] > 0)
    unit, w = _monomial_weights(fam)
    leading = tuple((e, _leading(sum(_end_term(w, g, h) for h in g.halves(e)), unit))
                    for e in range(g.n_edges))
    vanishing = frozenset(e for e, lead in leading
                          if lead.exponent is None or lead.exponent < 0)
    notes = [f"edge {g.label(e)}: leading coefficient {lead.coefficient} < 0, "
             f"the family leaves the cell for large t"
             for e, lead in leading if lead.coefficient < 0]
    t_max = DEFAULT_T[-1]
    coords = simplicial_coords(g, evaluate_family(fam, t_max))
    notes += [f"edge {g.label(e)}: symbolic limit 0 but value "
              f"{coords[e]:.3e} at t={t_max:g} (slow decay)"
              for e in sorted(vanishing) if abs(coords[e]) >= 1e-6 * (1.0 + abs(coords[e]))]
    return IJReport(divergent, vanishing, divergent <= vanishing,
                    maximal_recurrent_subset(g, vanishing) == divergent,
                    leading, tuple(notes))
