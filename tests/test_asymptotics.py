"""Sweeps, short-curve detection, and the weight/coordinate bookkeeping."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import holonomy as hol
from fatscreens import screens as scn
from fatscreens import serialize as ser
from fatscreens.errors import DomainError

from conftest import essential_curve_pool, random_trivalent


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
            asy.evaluate_family(scn.monomial_family([1, 1, 0]), bad)


def test_evaluate_family(theta):
    fam = scn.monomial_family([1, 1, 0])
    assert asy.evaluate_family(fam, 1.0).values == (1.0, 1.0, 1.0)
    assert asy.evaluate_family(fam, 10.0).values == (10.0, 10.0, 1.0)
    half = scn.monomial_family([Fraction(3, 2)])
    assert asy.evaluate_family(half, 4.0).values == (8.0,)
    with pytest.raises(DomainError, match="edge 1 overflows at t=10"):
        asy.evaluate_family(scn.monomial_family([0, 400, 0]), 10.0)


def test_sweep_gap_sequence(theta, genus2):
    fam = scn.monomial_family([1, 1, 0])
    curves = fgr.subset_boundary(theta, {0, 1})
    report = asy.sweep(theta, fam, curves)
    gaps = [r.gap for r in report.rows]
    for gap, want in zip(gaps, (1e-2, 1e-4, 1e-6, 1e-8)):
        assert gap == pytest.approx(want, rel=1e-9)
    assert all(ok for _, ok in report.in_cell_at)
    ((curve, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_SHRINKING
    lead = asy._gap_leading(theta, fam, curve)
    assert (lead.exponent, lead.coefficient) == (-2, 1)
    # a screen boundary curve whose gap 11/t is still 1.1e-3 at t = 1e4
    fam = scn.monomial_family([1] * 8 + [0])
    curve = ser.parse_curve(genus2, "a+ p- b+ q- a- p+ q+ r+ s+ d+ c- r- b-")
    assert curve.steps in {c.steps for c in asy.detect_short_curves(genus2, fam)}
    ((_, verdict),) = asy.sweep(genus2, fam, [curve]).verdicts
    assert verdict == asy.VERDICT_SHRINKING
    lead = asy._gap_leading(genus2, fam, curve)
    assert (lead.exponent, lead.coefficient) == (-1, 11)


def test_sweep_constant_family_not_shrinking(theta):
    fam = scn.monomial_family([0, 0, 0])
    curves = fgr.subset_boundary(theta, {0, 1})
    report = asy.sweep(theta, fam, curves)
    assert all(r.abs_trace == pytest.approx(3.0) for r in report.rows)
    ((_, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_NOT_SHRINKING


def test_sweep_rejects_wrong_exponent_count(theta):
    curve = ser.parse_curve(theta, "e0+ e1-")
    for exponents in ([1, 1], [1, 1, 0, 2]):
        with pytest.raises(DomainError, match="one exponent per edge required"):
            asy.sweep(theta, scn.monomial_family(exponents), [curve])


def test_sweep_flags_boundary_cycles(theta):
    fam = scn.monomial_family([1, 1, 0])
    report = asy.sweep(theta, fam, fgr.boundary_cycles(theta))
    ((cycle, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_PARABOLIC
    assert asy._gap_leading(theta, fam, cycle) == asy.LeadingTerm(None, 0)


def test_detect_theta(theta):
    fam = scn.monomial_family([1, 1, 0])
    curves = asy.detect_short_curves(theta, fam)
    assert [c.steps for c in curves] == [
        fgr.canonical_path(theta, fgr.EdgePath((0, 4))).steps]
    assert len(asy.detect_short_curves(theta, scn.monomial_family([0, 0, 0]))) == 0


def test_detect_rejects_invalid_candidate(theta):
    with pytest.raises(DomainError, match="condition \\(ii\\)"):
        asy.detect_short_curves(theta, scn.monomial_family([1, 0, 0]))


def test_detect_equals_screen_boundary_everywhere(screen_corpus):
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            got = asy.detect_short_curves(g, fam)
            want = scn.screen_boundary(s)
            assert got.curves == want.curves
            assert all(asy._gap_leading(g, fam, c).exponent < 0 for c in want)


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
            assert asy._gap_leading(g, fam, outside).exponent >= 0


def test_ij_check_theta(theta):
    fam = scn.monomial_family([1, 1, 0])
    report = asy.ij_check(theta, fam)
    assert report.divergent == {0, 1}
    assert report.vanishing == {0, 1}
    assert report.i_subset_j and report.recurrent_core_equals_i
    by_edge = dict(report.leading)
    assert (by_edge[0].exponent, by_edge[0].coefficient) == (Fraction(-2), 2)
    assert (by_edge[2].exponent, by_edge[2].coefficient) == (Fraction(0), 4)


def test_ij_check_trivial(theta):
    report = asy.ij_check(theta, scn.monomial_family([0, 0, 0]))
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
            x, a, b = (fam[g.edge_of(s)] for s in (h, g.sigma(h), g.sigma(g.sigma(h))))
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
    report = asy.ij_check(theta, scn.monomial_family([1, 0, 0]))
    assert any("leaves the cell" in n for n in report.notes)


def test_ij_check_notes_only_exact_verdicts(genus2):
    # the first enumerated genus2 screen: b, c, q and s vanish like 2/t, which no
    # float threshold at a fixed t may report as anything else
    fam = scn.monomial_family([2, 1, 1, 2, 2, 1, 0, 1, 2])
    report = asy.ij_check(genus2, fam)
    assert report.notes == ()
    by_label = {genus2.label(e): lead for e, lead in report.leading}
    for name in "bcqs":
        assert (by_label[name].exponent, by_label[name].coefficient) == (Fraction(-1), 2)


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

    Only what ``holonomy._product`` computes: sums, and products, quotients and
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


def reference_gap_leading(g, fam, path):
    """Leading term of |trace| - 2 from the float kernel run over Laurent polynomials."""
    unit = 2 * math.lcm(*(p.denominator for p in fam.exponents))
    w = [Laurent({int(p * unit): 1}) for p in fam.exponents]
    a11, _, _, a22 = hol._product(g, path, w, Laurent.sqrt)
    trace = a11 + a22
    sign = -1 if trace and trace[max(trace)] < 0 else 1
    gap = sign * trace - 2
    if not gap:
        return asy.LeadingTerm(None, 0)
    k = max(gap)
    return asy.LeadingTerm(Fraction(k, unit), gap[k])


def test_gap_leading_matches_reference(screen_corpus):
    count = 0
    for g in screen_corpus.values():
        pool = essential_curve_pool(g)
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            for c in [*scn.screen_boundary(s), *pool]:
                assert asy._gap_leading(g, fam, c) == reference_gap_leading(g, fam, c)
                count += 1
    assert count > 5000


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
        assert asy._gap_leading(g, fam, path) == reference_gap_leading(g, fam, path)

    check()


def test_exact_gap_refuses_oversized_packing(genus2):
    # levels 1/(d+2) and 2/d give the screen of the integer depths, but the
    # packed trace grows with the exponent denominators
    s = scn.enumerate_screens(genus2)[0]
    depths = scn.depth_family(s).exponents
    assert set(depths) == {0, 1, 2}

    def family(d):
        level = {0: Fraction(0), 1: Fraction(1, d + 2), 2: Fraction(2, d)}
        return scn.MonomialFamily(tuple(level[p] for p in depths))

    assert asy.detect_short_curves(genus2, family(10 ** 3)) == scn.screen_boundary(s)
    message = f"exact trace gap needs 10000000045 bits, over {hol.EXACT_BITS_MAX}"
    with pytest.raises(DomainError, match=message):
        asy.detect_short_curves(genus2, family(10 ** 9))
