"""Sweeps, short-curve detection, and the weight/coordinate bookkeeping."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import screens as scn
from fatscreens.errors import DomainError


def test_schedule_validation():
    asy.SweepSchedule((10.0, 100.0))
    with pytest.raises(DomainError):
        asy.SweepSchedule((0.5, 2.0))
    with pytest.raises(DomainError):
        asy.SweepSchedule((10.0, 10.0))


def test_evaluate_family(theta):
    fam = scn.monomial_family([1, 1, 0])
    assert asy.evaluate_family(fam, 1.0).values == (1.0, 1.0, 1.0)
    assert asy.evaluate_family(fam, 10.0).values == (10.0, 10.0, 1.0)
    half = scn.monomial_family([Fraction(3, 2)])
    assert asy.evaluate_family(half, 4.0).values == (8.0,)
    with pytest.raises(DomainError, match="edge 1 overflows at t=10"):
        asy.evaluate_family(scn.monomial_family([0, 400, 0]), 10.0)


def test_sweep_gap_sequence(theta):
    fam = scn.monomial_family([1, 1, 0])
    curves = fgr.subset_boundary(theta, {0, 1})
    report = asy.sweep(theta, fam, curves)
    gaps = [r.gap for r in report.rows]
    for gap, want in zip(gaps, (1e-2, 1e-4, 1e-6, 1e-8)):
        assert gap == pytest.approx(want, rel=1e-9)
    assert all(ok for _, ok in report.in_cell_at)
    ((_, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_SHRINKING


def test_sweep_constant_family_not_shrinking(theta):
    fam = scn.monomial_family([0, 0, 0])
    curves = fgr.subset_boundary(theta, {0, 1})
    report = asy.sweep(theta, fam, curves)
    assert all(r.abs_trace == pytest.approx(3.0) for r in report.rows)
    ((_, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_NOT_SHRINKING


def test_sweep_flags_boundary_cycles(theta):
    fam = scn.monomial_family([1, 1, 0])
    report = asy.sweep(theta, fam, fgr.boundary_cycles(theta))
    ((_, verdict),) = report.verdicts
    assert verdict == asy.VERDICT_PARABOLIC


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


def test_ij_check_notes_on_cell_exit(theta):
    report = asy.ij_check(theta, scn.monomial_family([1, 0, 0]))
    assert any("leaves the cell" in n for n in report.notes)
