"""Sweeps, short-curve detection, and the weight/coordinate bookkeeping."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import mpmath
import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens import screens as scn
from fatscreens import serialize as ser
from fatscreens.errors import DomainError

import oracles
from conftest import essential_curve_pool, load, random_trivalent


def test_schedule_validation():
    asy.SweepSchedule((10.0, 100.0))
    with pytest.raises(DomainError):
        asy.SweepSchedule((0.5, 2.0))
    with pytest.raises(DomainError):
        asy.SweepSchedule((10.0, 10.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="schedule values must be finite and >= 1"):
            asy.SweepSchedule((10.0, bad))
        with pytest.raises(DomainError, match="schedule value t must be finite and >= 1"):
            asy.evaluate_family(oracles.monomial_family([1, 1, 0]), bad)


def test_evaluate_family(theta):
    fam = oracles.monomial_family([1, 1, 0])
    assert asy.evaluate_family(fam, 1.0).values == (1.0, 1.0, 1.0)
    assert asy.evaluate_family(fam, 10.0).values == (10.0, 10.0, 1.0)
    half = oracles.monomial_family([Fraction(3, 2)])
    assert asy.evaluate_family(half, 4.0).values == (8.0,)
    with pytest.raises(DomainError, match="edge 1 overflows at t=10"):
        asy.evaluate_family(oracles.monomial_family([0, 400, 0]), 10.0)
    # every weight is exactly 1 at t = 1, so no exponent is converted to a float
    assert asy.evaluate_family(oracles.monomial_family(["1e400"] * 3), 1.0).values == (1.0, 1.0, 1.0)


def test_sweep_evaluates_weights_only_to_refuse_them(theta, monkeypatch):
    """In range, sweep builds no weights; out of range, ``evaluate_family`` names the first
    edge at the first t, on both sides of the double range (10**308 is finite, 10**-323
    subnormal but > 0)."""
    calls = []
    evaluate = asy.evaluate_family
    monkeypatch.setattr(asy, "evaluate_family", lambda fam, t: calls.append(t) or evaluate(fam, t))
    for exponents in ([1, 1, 0], [0, 308, 0], [0, -323, 0], [Fraction(616, 2), 0, -300]):
        asy.sweep(theta, oracles.monomial_family(exponents), [], asy.SweepSchedule((1.0, 10.0)))
    assert calls == []
    for exponents, message in (([0, 309, 400], "weight t\\*\\*309 of edge 1 overflows at t=10"),
                               ([0, -324, 0], "lambda lengths must be positive finite reals")):
        with pytest.raises(DomainError, match=f"^{message}$"):
            asy.sweep(theta, oracles.monomial_family(exponents), [], asy.SweepSchedule((1.0, 10.0)))
        assert calls.pop() == 10.0 and not calls


def test_sweep_gap_sequence(theta, genus2):
    fam = oracles.monomial_family([1, 1, 0])
    curves = fgr.subset_boundary(theta, {0, 1})
    report = asy.sweep(theta, fam, curves)
    gaps = [r.gap for r in report.rows]
    for gap, want in zip(gaps, (1e-2, 1e-4, 1e-6, 1e-8)):
        assert gap == pytest.approx(want, rel=1e-9)
    assert all(ok for _, ok in report.in_cell_at)
    ((curve, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_SHRINKING
    lead = oracles.gap_leading(theta, fam, curve)
    assert (lead.exponent, lead.coefficient) == (-2, 1)
    assert report.leading == ((curve, lead),)
    # a screen boundary curve whose gap 11/t is still 1.1e-3 at t = 1e4
    fam = oracles.monomial_family([1] * 8 + [0])
    curve = ser.parse_curve(genus2, "a+ p- b+ q- a- p+ q+ r+ s+ d+ c- r- b-")
    assert curve.steps in {c.steps for c in asy.detect_short_curves(genus2, fam)}
    ((_, verdict),) = asy.sweep(genus2, fam, [curve]).verdicts
    assert verdict == asy.VERDICT_SHRINKING
    lead = oracles.gap_leading(genus2, fam, curve)
    assert (lead.exponent, lead.coefficient) == (-1, 11)


def test_sweep_constant_family_not_shrinking(theta):
    fam = oracles.monomial_family([0, 0, 0])
    curves = fgr.subset_boundary(theta, {0, 1})
    report = asy.sweep(theta, fam, curves)
    assert all(r.abs_trace == pytest.approx(3.0) for r in report.rows)
    ((_, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_NOT_SHRINKING


def test_sweep_rejects_wrong_exponent_count(theta):
    curve = ser.parse_curve(theta, "e0+ e1-")
    for exponents in ([1, 1], [1, 1, 0, 2]):
        fam = oracles.monomial_family(exponents)
        for call in (lambda: asy.sweep(theta, fam, [curve]), lambda: asy.ij_check(theta, fam),
                     lambda: scn.screen_of_exponents(theta, fam)):
            with pytest.raises(DomainError, match="^one exponent per edge required$"):
                call()


def test_exact_analysis_rejects_non_trivalent_graphs():
    wedge, fam = load("wedge.fg"), oracles.monomial_family([1, 0])
    with pytest.raises(DomainError, match="detection needs a trivalent graph"):
        asy.detect_short_curves(wedge, fam)
    with pytest.raises(DomainError, match="coordinate analysis needs a trivalent graph"):
        asy.ij_check(wedge, fam)


def test_sweep_flags_boundary_cycles(theta):
    fam = oracles.monomial_family([1, 1, 0])
    report = asy.sweep(theta, fam, fgr.boundary_cycles(theta))
    ((cycle, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_PARABOLIC
    assert oracles.gap_leading(theta, fam, cycle) == asy.LeadingTerm(None, 0)
    assert report.leading == ((cycle, asy.LeadingTerm(None, 0)),)
    assert all((r.gap, r.abs_trace, r.hyp_length) == (0.0, 2.0, 0.0) for r in report.rows)


def reference_gap(g, fam, path, t):
    """|trace| - 2 at t from the mpf product at 80 digits on weights tau**q_e."""
    unit, q = asy._tau_exponents(fam)
    with mpmath.workdps(80):
        tau = mpmath.mpf(t) ** (mpmath.mpf(1) / unit)
        rows = hol._edge_rows(g, [tau ** k for k in q], mpmath.sqrt, map(g.edge_of, path.steps))
        a11, _, _, a22 = hol._product(g, path, rows)
        return abs(a11 + a22) - 2


def assert_rows_match_reference(g, fam, report):
    for row in report.rows:
        want = reference_gap(g, fam, row.curve, row.t)
        with mpmath.workdps(80):
            length = 2 * mpmath.acosh(1 + want / 2)
        for got, exact in ((row.gap, want), (row.abs_trace, 2 + want), (row.hyp_length, length)):
            assert abs(got - exact) <= 1e-15 * exact, (row, exact)


def test_sweep_rows_match_reference(genus2, mercedes):
    for g in (genus2, mercedes):
        pool = essential_curve_pool(g)
        for s in scn.enumerate_screens(g):
            boundary = scn.screen_boundary(s)
            steps = {c.steps for c in boundary}
            outside = [p for p in pool if p.steps not in steps][:1]
            fam = scn.depth_family(s)
            assert_rows_match_reference(g, fam, asy.sweep(g, fam, [*boundary, *outside]))


def test_sweep_row_is_exact_where_float_traces_were_not(genus2):
    # weight t on a, c, d, p, s, t and 1 on b, q, r: the gap of a+ p- is exactly t**-2,
    # which a float trace refined only below a gap of 1e-6 gave as 1.00000000013978e-06
    fam = oracles.monomial_family([int(genus2.label(e) in "acdpst") for e in range(genus2.n_edges)])
    curve = ser.parse_curve(genus2, "a+ p-")
    report = asy.sweep(genus2, fam, [curve])
    assert [ser.fmt(r.gap) for r in report.rows] == ["0.01", "0.0001", "1e-06", "1e-08"]
    assert_rows_match_reference(genus2, fam, report)


def sweep_counting_mpf(g, exponents, curve, monkeypatch):
    """The sweep of one curve and the digits of each ladder rung it climbs."""
    entries = []
    rung = hol._sum_rung
    monkeypatch.setattr(hol, "_sum_rung",
                        lambda digits, *args: entries.append(digits) or rung(digits, *args))
    report = asy.sweep(g, scn.MonomialFamily(exponents), [ser.parse_curve(g, curve)])
    monkeypatch.undo()
    return report, entries


@pytest.mark.parametrize("exponents, curve, gap", [
    # tau = t**(1/12), so k / 12 rounds in binary, and the gap cancels 3.2-fold at t = 10
    ((Fraction(5, 6), Fraction(1, 3), Fraction(1, 3)), "e0+ e1-",
     lambda t: math.sqrt(t) - 2 + 2 / math.sqrt(t)),
])
def test_sweep_refines_rational_exponents_in_mpf(theta, monkeypatch, exponents, curve, gap):
    report, entries = sweep_counting_mpf(theta, exponents, curve, monkeypatch)
    assert entries == [20]      # one rung at t = 10, the first: 20 + log10(3.2) digits
    assert_rows_match_reference(theta, scn.MonomialFamily(exponents), report)
    for row in report.rows:
        assert row.gap == pytest.approx(gap(row.t), rel=1e-14)


def test_sweep_corrects_a_rounded_exponent_in_float(theta, monkeypatch):
    # one term, yet the float power t**fl(-28 / 12) is off by 1.3e-15 at t = 1e4: its
    # first-order correction keeps the row in floats
    exponents = (Fraction(3, 2), Fraction(1, 3), Fraction(3, 2))
    report, entries = sweep_counting_mpf(theta, exponents, "e0+ e2-", monkeypatch)
    assert entries == []
    assert_rows_match_reference(theta, scn.MonomialFamily(exponents), report)
    for row in report.rows:
        assert row.gap == pytest.approx(row.t ** (-7 / 3), rel=1e-14)


def test_sweep_runs_the_exact_kernel_once_per_curve(genus2, monkeypatch):
    calls = []
    exact = asy._exact_gap_poly

    def counted(g, q, path):
        calls.append(path)
        return exact(g, q, path)

    monkeypatch.setattr(asy, "_exact_gap_poly", counted)
    fam = oracles.monomial_family([1] * 8 + [0])
    curves = list(asy.detect_short_curves(genus2, fam))
    calls.clear()
    report = asy.sweep(genus2, fam, curves)
    assert calls == curves
    assert report.leading == tuple((c, oracles.gap_leading(genus2, fam, c)) for c in curves)
    assert report.verdicts == tuple((c, asy.VERDICT_SHRINKING) for c in curves)


def test_detect_theta(theta):
    fam = oracles.monomial_family([1, 1, 0])
    curves = asy.detect_short_curves(theta, fam)
    assert [c.steps for c in curves] == [
        fgr.canonical_path(theta, fgr.EdgePath((0, 4))).steps]
    assert len(asy.detect_short_curves(theta, oracles.monomial_family([0, 0, 0]))) == 0


def test_detect_rejects_invalid_candidate(theta):
    with pytest.raises(DomainError, match="condition \\(ii\\)"):
        asy.detect_short_curves(theta, oracles.monomial_family([1, 0, 0]))


def test_detect_equals_screen_boundary_everywhere(screen_corpus):
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            got = asy.detect_short_curves(g, fam)
            want = scn.screen_boundary(s)
            assert got.curves == want.curves
            assert all(oracles.gap_leading(g, fam, c).exponent < 0 for c in want)


def test_negative_controls(screen_corpus):
    from conftest import essential_curve_pool
    for g in screen_corpus.values():
        pool = essential_curve_pool(g)
        for s in scn.enumerate_screens(g):
            boundary = {c.steps for c in scn.screen_boundary(s)}
            outside = next((p for p in pool if p.steps not in boundary), None)
            if outside is None:
                continue
            fam = scn.depth_family(s)
            report = asy.sweep(g, fam, [outside])
            final = report.rows[-1]
            assert final.gap > 0.1
            assert oracles.gap_leading(g, fam, outside).exponent >= 0


def test_ij_check_theta(theta):
    fam = oracles.monomial_family([1, 1, 0])
    report = asy.ij_check(theta, fam)
    assert report.divergent == {0, 1}
    assert report.vanishing == {0, 1}
    assert report.i_subset_j and report.recurrent_core_equals_i
    by_edge = dict(report.leading)
    assert (by_edge[0].exponent, by_edge[0].coefficient) == (Fraction(-2), 2)
    assert (by_edge[2].exponent, by_edge[2].coefficient) == (Fraction(0), 4)


def test_ij_check_trivial(theta):
    report = asy.ij_check(theta, oracles.monomial_family([0, 0, 0]))
    assert report.divergent == frozenset() and report.vanishing == frozenset()
    assert report.i_subset_j and report.recurrent_core_equals_i


def test_ij_check_all_depth_families(screen_corpus):
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            report = asy.ij_check(g, scn.depth_family(s))
            assert report.i_subset_j, s.family
            assert report.recurrent_core_equals_i, s.family


def reference_coordinate_leading(g, fam):
    """Leading term of each coordinate, its six monomials summed end by end in Fractions."""
    leading = []
    for e, halves in enumerate(g.edge_halves):
        terms = {}
        for h in halves:
            x, a, b = (fam.exponents[g.edge_of(s)] for s in (h, g.sigma(h), g.sigma(g.sigma(h))))
            for k, c in ((a - b - x, 1), (b - a - x, 1), (x - a - b, -1)):
                terms[k] = terms.get(k, 0) + c
        top = max((k for k, c in terms.items() if c), default=None)
        leading.append((e, asy.LeadingTerm(top, terms.get(top, 0))))
    return tuple(leading)


def test_ij_check_leading_matches_reference(generated_trivalent):
    rng = random.Random(59)
    for g in generated_trivalent:
        for _ in range(4):
            fam = scn.MonomialFamily(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                           for _ in range(g.n_edges)))
            assert asy.ij_check(g, fam).leading == reference_coordinate_leading(g, fam)


def test_ij_check_notes_on_cell_exit(theta):
    report = asy.ij_check(theta, oracles.monomial_family([1, 0, 0]))
    assert any("leaves the cell" in n for n in report.notes)


def test_ij_check_notes_only_exact_verdicts(genus2):
    # the first enumerated genus2 screen: b, c, q and s vanish like 2/t, which no
    # float threshold at a fixed t may report as anything else
    fam = oracles.monomial_family([2, 1, 1, 2, 2, 1, 0, 1, 2])
    report = asy.ij_check(genus2, fam)
    assert report.notes == ()
    by_label = {genus2.label(e): lead for e, lead in report.leading}
    for name in "bcqs":
        assert (by_label[name].exponent, by_label[name].coefficient) == (Fraction(-1), 2)


def test_depth_families_stay_in_the_cell(genus2, mercedes):
    # a float check at each t under a tolerance warned on 295 genus2 and 18 mercedes families
    for g in (genus2, mercedes):
        for s in scn.enumerate_screens(g):
            report = asy.sweep(g, scn.depth_family(s), [])
            assert all(ok for _, ok in report.in_cell_at), s.family


def reference_coordinate_signs(g, fam, t):
    """Signs of the coordinates at weights t**p_e, from mpf weights at 60 digits; 0 where
    a coordinate cancels below 1e-54 of its terms, which exponents in [-1, 3] never reach
    at t <= 1e4 unless it is identically 0."""
    signs = []
    with mpmath.workdps(60):
        w = [mpmath.mpf(t) ** (mpmath.mpf(p.numerator) / p.denominator) for p in fam.exponents]
        for e, (h, _) in enumerate(g.edge_halves):
            x, (a, b, c, d) = w[e], [w[s] for s in oracles.quad_slots(g, h)]
            terms = [a / (b * x), b / (a * x), -x / (a * b), c / (d * x), d / (c * x), -x / (c * d)]
            value, scale = mpmath.fsum(terms), mpmath.fsum(terms, absolute=True)
            signs.append(0 if abs(value) <= 1e-54 * scale else 1 if value > 0 else -1)
    return signs


def test_cell_flags_match_mpmath_signs(theta, mercedes, genus2, monkeypatch):
    rng = random.Random(67)
    choices = [0, 0, 1, 2, 3, -1, Fraction(1, 2), Fraction(5, 3), Fraction(1, 3)]
    evaluations = []
    terms_at = hol.terms_at
    monkeypatch.setattr(asy, "terms_at", lambda *a: evaluations.append(a) or terms_at(*a))
    families = evaluated = checks = 0
    for g in (theta, mercedes, genus2):
        for _ in range(50):
            fam = scn.MonomialFamily(tuple(Fraction(rng.choice(choices))
                                           for _ in range(g.n_edges)))
            unit, q = asy._tau_exponents(fam)
            coords = [asy._coordinate_poly(x, *[q[s] for s in quad])
                      for x, quad in zip(q, g._edge_quads)]
            # each coordinate is 2 at t = 1, so none is identically 0 and the cell's
            # forest condition on the 0 coordinates never has an edge to test
            assert all(sum(c for _, c in m) == 2 for m in coords)
            evaluations.clear()
            report = asy.sweep(g, fam, [])
            families += 1
            evaluated += bool(evaluations)
            for t, flag in report.in_cell_at:
                signs = reference_coordinate_signs(g, fam, t)
                for m, sign in zip(coords, signs):
                    got = terms_at(m, unit, t)
                    assert (got > 0) - (got < 0) == sign, (fam, t, m)
                    checks += 1
                want = min(signs) >= 0 and geo.no_vanishing_cycle(g, geo.simplicial(signs))
                assert flag == want, (fam, t)
    assert checks == 4 * 50 * (3 + 6 + 9)
    # most families have a coordinate that Abel summation leaves to the evaluation at t
    assert evaluated > families // 2


def test_abel_positive_from_six_exponents():
    # every edge on a grid of exponents: the count decides as Abel summation of the sorted
    # monomials does.  Without skipping the negative exponents that positive ones cancel,
    # it would send more edges to the evaluation at t, and never fewer.
    seen = Counter()
    for xs in product(range(-4, 5), repeat=5):
        x, a, b, c, d = xs
        pos, neg = (a - b - x, b - a - x, c - d - x, d - c - x), (x - a - b, x - c - d)
        uncancelled = all(sum(p >= n for p in pos) > sum(m >= n for m in neg) for n in neg)
        abel = all(s > 0 for s in accumulate(n for _, n in reversed(asy._coordinate_poly(*xs))))
        assert asy._abel_positive(*xs) == abel, xs
        seen[uncancelled, abel] += 1
    assert seen[True, False] == 0 and seen[False, True] > 0


def test_sweep_builds_no_coordinate_monomials_on_depth_families(genus2, monkeypatch):
    built = []
    coordinate_poly = asy._coordinate_poly
    monkeypatch.setattr(asy, "_coordinate_poly", lambda *xs: built.append(xs) or coordinate_poly(*xs))
    for s in scn.enumerate_screens(genus2):
        report = asy.sweep(genus2, scn.depth_family(s), [], asy.SweepSchedule((10.0,)))
        assert report.in_cell_at == ((10.0, True),)
    assert built == []
    # a family that leaves the cell builds the monomials of the edges Abel summation leaves open
    fam = oracles.monomial_family([-75, 75, 0, 0, 75, -75, 0, 0, 0])
    assert asy.sweep(genus2, fam, [], asy.SweepSchedule((1000.0,))).in_cell_at == ((1000.0, False),)
    assert built


def test_sweep_refuses_a_coordinate_that_is_0_at_t(theta):
    # the coordinate of e2 is 2 t**(-1/2) - t**(1/2): exactly 0 at t = 2, negative after
    fam = scn.MonomialFamily((Fraction(0), Fraction(0), Fraction(1, 2)))
    with pytest.raises(DomainError, match="^a sum of 2 powers of t=2 cancels past 1000 digits$"):
        asy.sweep(theta, fam, [], asy.SweepSchedule((2.0,)))
    assert asy.sweep(theta, fam, [], asy.SweepSchedule((3.0,))).in_cell_at == ((3.0, False),)


@pytest.mark.parametrize("exponent", [170, 200])
def test_sweep_refuses_gaps_below_double_range(theta, exponent):
    # weights 10**170 are finite, but the gap 10**-340 of e0+ e1- rounds to 0
    fam = oracles.monomial_family([exponent, exponent, 0])
    curve = ser.parse_curve(theta, "e0+ e1-")
    with pytest.raises(DomainError, match="^a nonzero trace gap rounds to 0 at t=10$"):
        asy.sweep(theta, fam, [curve], asy.SweepSchedule((10.0,)))


def test_tau_exponents_once_per_family(genus2, monkeypatch):
    calls = []
    tau_exponents = asy._tau_exponents

    def counted(fam):
        calls.append(fam)
        return tau_exponents(fam)

    monkeypatch.setattr(asy, "_tau_exponents", counted)
    s = next(s for s in scn.enumerate_screens(genus2) if len(scn.screen_boundary(s)) >= 2)
    fam = scn.depth_family(s)
    curves = asy.detect_short_curves(genus2, fam)
    assert len(curves) >= 2 and calls == [fam]
    report = asy.sweep(genus2, fam, curves, asy.SweepSchedule((10.0,)))
    assert calls == [fam, fam]
    assert [v for _, v in report.verdicts] == [asy.VERDICT_SHRINKING] * len(curves)


# -- exact trace gaps against Laurent polynomials through the float kernel --------

class Laurent(dict):
    """Exact Laurent polynomial in tau: exponent -> nonzero coefficient, all ints.

    Only what ``holonomy._edge_rows`` and ``_product`` compute: sums, and products, quotients and
    square roots with a monomial or int operand."""

    def __add__(self, other, sign: int = 1) -> "Laurent":
        out = Laurent(self)
        for k, c in other.items() if isinstance(other, dict) else [(0, other)]:
            out[k] = out.get(k, 0) + sign * c
            if not out[k]:
                del out[k]
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Laurent":
        return self.__add__(other, -1)

    def __mul__(self, other) -> "Laurent":
        ((k, c),) = other.items() if isinstance(other, dict) else [(0, other)]
        return Laurent({j + k: c * d for j, d in self.items()} if c else {})

    __rmul__ = __mul__

    def _exponent(self) -> int:
        ((k, c),) = self.items()
        if c != 1:
            raise ValueError("not a monomial with coefficient 1")
        return k

    def __truediv__(self, other) -> "Laurent":
        k = other._exponent()
        return Laurent({j - k: c for j, c in self.items()})

    def __rtruediv__(self, other) -> "Laurent":
        return Laurent({0: other}) / self

    def sqrt(self) -> "Laurent":
        half, odd = divmod(self._exponent(), 2)
        if odd:
            raise ValueError("odd exponent has no exact square root")
        return Laurent({half: 1})


def reference_gap_poly(g, fam, path):
    """|trace| - 2 as its sorted monomials (k, c) of c * tau**k, from the float kernel run
    over Laurent polynomials."""
    unit = 2 * math.lcm(*(p.denominator for p in fam.exponents))
    w = [Laurent({int(p * unit): 1}) for p in fam.exponents]
    rows = hol._edge_rows(g, w, Laurent.sqrt, map(g.edge_of, path.steps))
    a11, _, _, a22 = hol._product(g, path, rows)
    trace = a11 + a22
    sign = -1 if trace and trace[max(trace)] < 0 else 1
    return sorted((sign * trace - 2).items())


def reference_gap_leading(fam, gap):
    """Leading term in t of a ``reference_gap_poly``: its top monomial."""
    if not gap:
        return asy.LeadingTerm(None, 0)
    unit = 2 * math.lcm(*(p.denominator for p in fam.exponents))
    return asy.LeadingTerm(Fraction(gap[-1][0], unit), gap[-1][1])


def assert_gap_matches_reference(g, fam, path):
    """The whole exact gap, whose lower terms ``sweep`` rows read, and the leading term of
    the verdicts both match the reference."""
    gap = reference_gap_poly(g, fam, path)
    assert hol._exact_gap_poly(g, asy._tau_exponents(fam)[1], path) == gap
    assert oracles.gap_leading(g, fam, path) == reference_gap_leading(fam, gap)


def test_gap_leading_matches_reference(screen_corpus):
    count = 0
    for g in screen_corpus.values():
        pool = essential_curve_pool(g)
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            for c in [*scn.screen_boundary(s), *pool]:
                assert_gap_matches_reference(g, fam, c)
                count += 1
    assert count > 5000


@pytest.mark.parametrize("scale, every", [(Fraction(1001, 1000), 1), (Fraction(10001, 10000), 8)])
def test_gap_poly_matches_reference_on_scaled_families(screen_corpus, scale, every):
    # denominators near 10**3 and 10**4 pack the traces into up to millions of bits with a few
    # nonzero digits; products that long keep the run short only on every 8th screen at 10**4,
    # and the pool curves join on every 32nd screen taken
    for g in screen_corpus.values():
        pool = essential_curve_pool(g)
        for i, s in enumerate(scn.enumerate_screens(g)[::every]):
            fam = scn.MonomialFamily(tuple(p * scale for p in scn.depth_family(s).exponents))
            for c in [*scn.screen_boundary(s), *(pool if i % 32 == 0 else ())]:
                assert_gap_matches_reference(g, fam, c)


def long_closed_walk(g, rng, length):
    """A closed efficient path of at least ``length`` steps and at most 60: a walk
    that turns right or left at random, closed when a turn leads back to its first
    step; None when that takes more than 60 steps."""
    steps = [rng.randrange(g.n_half_edges)]
    while len(steps) <= 60:
        arrival = g.pairing(steps[-1])
        h = g.sigma(arrival) if rng.random() < 0.5 else g.sigma(g.sigma(arrival))
        if h == steps[0] and len(steps) >= length:
            return fgr.EdgePath(tuple(steps))
        steps.append(h)
    return None


def test_gap_leading_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(st.sampled_from((3, 6, 9, 12)), st.integers(0, 2 ** 32),
                      st.integers(1, 60), st.data())
    def check(n_edges, seed, length, data):
        rng = random.Random(seed)
        g = random_trivalent(n_edges, rng)
        fam = scn.MonomialFamily(tuple(data.draw(exponents) for _ in range(n_edges)))
        path = None
        while path is None:
            path = long_closed_walk(g, rng, length)
        assert_gap_matches_reference(g, fam, path)

    check()


def assert_top_reads_the_decode(g, fam, curves):
    """``_exact_gap_top`` equals the top monomial of the whole decoded gap on every curve."""
    q = asy._tau_exponents(fam)[1]
    for c in curves:
        poly = hol._exact_gap_poly(g, q, c)
        assert hol._exact_gap_top(g, q, c) == (poly[-1] if poly else None), (fam, c)


def test_gap_top_reads_the_decode_on_depth_families(genus2, census12):
    # every screen of genus2, and a seeded sample of census12's 6656, which take about 14 s
    census_sample = random.Random(12).sample(scn.enumerate_screens(census12), 400)
    for g, screens in ((genus2, scn.enumerate_screens(genus2)), (census12, census_sample)):
        pool = essential_curve_pool(g)
        for s in screens:
            assert_top_reads_the_decode(g, scn.depth_family(s), [*scn.screen_boundary(s), *pool])


def test_gap_top_reads_the_decode_on_rational_families(genus2):
    pool = essential_curve_pool(genus2)
    for i, s in enumerate(scn.enumerate_screens(genus2)):
        depths = scn.depth_family(s).exponents
        curves = [*scn.screen_boundary(s), *pool]
        for scale in (Fraction(1, 3), Fraction(5, 6)):     # tau = t**(1/6) and t**(1/12)
            assert_top_reads_the_decode(genus2, scn.MonomialFamily(tuple(p * scale for p in depths)),
                                        curves)
        if i % 64 == 0:     # packed traces of millions of bits
            fam = scn.MonomialFamily(tuple(p * Fraction(10001, 10000) for p in depths))
            assert_top_reads_the_decode(genus2, fam, scn.screen_boundary(s))


def test_gap_top_edge_cases(theta):
    curve = ser.parse_curve(theta, "e0+ e1-")
    # the boundary cycle is parabolic: the top digit is 2 at k = 0, and nothing is below it
    (cycle,) = fgr.boundary_cycles(theta)
    assert hol._exact_gap_top(theta, (2, 2, 0), cycle) is None
    # at constant weights |trace| = 3: the top digit 3 at k = 0 is no 2 to clear
    assert hol._exact_gap_top(theta, (0, 0, 0), curve) == (0, 1)
    # |trace| = 2 + tau**-12: the 2 at k = 0 is cleared, then five zero digits skipped
    trace, bits, degree = hol._packed_trace(theta, (6, 6, 0), curve)
    assert (trace, bits, degree) == (2 << 6 * bits | 1, 3, 12)
    assert hol._exact_gap_top(theta, (6, 6, 0), curve) == (-12, 1)


def test_detect_refuses_boundary_curves_that_do_not_decay(genus2, monkeypatch):
    # a screen boundary that gains a pool curve outside it, or a boundary-parallel cycle
    s = next(s for s in scn.enumerate_screens(genus2) if len(scn.screen_boundary(s)) >= 2)
    fam, boundary = scn.depth_family(s), scn.screen_boundary(s)
    outside = next(p for p in essential_curve_pool(genus2) if p not in boundary.curves)
    (cycle,) = fgr.boundary_cycles(genus2)
    for extra, verdict in ((outside, asy.VERDICT_NOT_SHRINKING), (cycle, asy.VERDICT_PARABOLIC)):
        assert asy.sweep(genus2, fam, [extra], asy.SweepSchedule((10.0,))).verdicts[0][1] == verdict
        curves = fgr.CurveSystem((*boundary.curves, extra))
        monkeypatch.setattr(asy, "screen_boundary", lambda screen: curves)
        with pytest.raises(DomainError,
                           match="^exact trace gap of 1 boundary curve\\(s\\) does not decay$"):
            asy.detect_short_curves(genus2, fam)


def test_exact_gap_refuses_before_it_shifts(theta):
    # exponents (10**8, 0, 0) on e0+ e1- would pack rows of 3e8 bits (40 MB): the size is
    # refused first
    path = ser.parse_curve(theta, "e0+ e1-")
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^exact trace gap needs 300000003 bits, over "):
            hol._exact_gap_poly(theta, (10 ** 8, 0, 0), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_exact_gap_refuses_oversized_packing(genus2):
    # levels 1/(d+2) and 2/d give the screen of the integer depths, but the
    # packed trace grows with the exponent denominators
    s = scn.enumerate_screens(genus2)[0]
    depths = scn.depth_family(s).exponents
    assert set(depths) == {0, 1, 2}

    def family(d):
        level = {0: Fraction(0), 1: Fraction(1, d + 2), 2: Fraction(2, d)}
        return scn.MonomialFamily(tuple(level[p] for p in depths))

    for d in (10 ** 3, 3 * 10 ** 5):
        assert asy.detect_short_curves(genus2, family(d)) == scn.screen_boundary(s)
    message = f"exact trace gap needs 3000000015 bits, over {hol.EXACT_BITS_MAX}"
    with pytest.raises(DomainError, match=message):
        asy.detect_short_curves(genus2, family(10 ** 9))
