"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict

import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens import screens as scn

import oracles
from conftest import (L_MAT, R_MAT, all_rotations, essential_curve_pool, load, mat_mul,
                      per_step_product, random_fatgraph, random_in_cell_lambda,
                      reference_telescoping_sides)


def report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_theta_census(theta):
    assert fgr.topology(theta) == (1, 1)
    proper = [frozenset(e for e in range(3) if mask >> e & 1)
              for mask in range(1, 7)]
    recurrent = [a for a in proper if fgr.is_recurrent(theta, a)]
    assert len(recurrent) == 3
    for a in recurrent:
        assert len(a) == 2
        sub = fgr.subgraph(theta, a)
        assert all(sub.graph.valence(v) == 2 for v in range(sub.graph.n_vertices))
    report(1, "theta census (torus spine, three recurrent two-edge cycles)")


def test_criterion_02_recurrence_oracle_equivalence():
    # exhaustive up to four edges (one representative per isomorphism class),
    # plus one hundred random graphs with up to six edges
    mismatches = 0
    checked = 0
    for n_edges in (1, 2, 3, 4):
        seen = set()
        for g in all_rotations(n_edges):
            key = fgr.canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
            for mask in range(1, 1 << g.n_edges):
                sub = frozenset(e for e in range(g.n_edges) if mask >> e & 1)
                prune = fgr.is_recurrent(g, sub)
                witness = fgr.recurrent_witness_cycles(g, sub) is not None
                doubled = oracles.weights_admissible(g, {e: 2 for e in sub})
                checked += 1
                if prune != witness or prune != doubled:
                    mismatches += 1
    rng = random.Random(2024)
    for _ in range(100):
        g = random_fatgraph(rng.randint(1, 6), rng)
        for mask in range(1, 1 << g.n_edges):
            sub = frozenset(e for e in range(g.n_edges) if mask >> e & 1)
            prune = fgr.is_recurrent(g, sub)
            witness = fgr.recurrent_witness_cycles(g, sub) is not None
            doubled = oracles.weights_admissible(g, {e: 2 for e in sub})
            checked += 1
            if prune != witness or prune != doubled:
                mismatches += 1
    assert mismatches == 0 and checked > 1000
    report(2, f"recurrence oracle equivalence ({checked} subsets, 0 mismatches)")


def test_criterion_03_parabolicity_calibration(trivalent_corpus):
    rng = random.Random(31337)
    failures = 0
    samples = 0
    for g in trivalent_corpus.values():
        cycles = fgr.boundary_cycles(g)
        for _ in range(100):
            lam = random_in_cell_lambda(g, rng)
            samples += 1
            for cyc in cycles:
                if abs(hol.trace_gap_of_path(g, lam, cyc)) >= 1e-9:
                    failures += 1
    assert failures == 0
    report(3, f"boundary-cycle parabolicity ({samples} weight samples, 0 failures)")


def test_criterion_04_ptolemy_whitehead_invariance(trivalent_corpus):
    rng = random.Random(4242)
    checked = 0
    for g in trivalent_corpus.values():
        flippable = [e for e in range(g.n_edges)
                     if g.vertex_of(g.halves(e)[0]) != g.vertex_of(g.halves(e)[1])]
        pool = essential_curve_pool(g)
        if not flippable or not pool:
            continue
        curve = pool[0]
        for i in range(100):
            e = flippable[i % len(flippable)]
            lam = random_in_cell_lambda(g, rng)
            g1, lam1, mv = geo.whitehead_transport(g, lam, e)
            moved = fgr.transport_path(g, mv, curve)
            before = hol.abs_trace_of_path(g, lam, curve)
            after = hol.abs_trace_of_path(g1, lam1, moved)
            assert after == pytest.approx(before, rel=1e-9)
            _, lam2, _ = geo.whitehead_transport(g1, lam1, e)
            for x in range(g.n_edges):
                assert lam2[x] == pytest.approx(lam[x], rel=1e-12)
            checked += 1
    # the two genus-zero three-puncture graphs carry no essential curves
    assert checked >= 300
    report(4, f"Ptolemy/Whitehead trace invariance ({checked} flips)")


def test_criterion_05_worked_asymptotic(theta):
    curve = fgr.EdgePath((0, 4))
    lam1 = geo.lambda_assignment([1.0, 1.0, 1.0])
    assert hol.abs_trace_of_path(theta, lam1, curve) == pytest.approx(3.0, rel=1e-12)
    for t in (10.0, 100.0, 1000.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        tr = hol.abs_trace_of_path(theta, lam, curve)
        assert tr == pytest.approx(2.0 + t ** -2, rel=1e-9)
    report(5, "worked asymptotic |tr| = 2 + 1/t^2 on the theta two-cycle")


def test_criterion_06_detection_round_trip(screen_corpus):
    total = 0
    for name, g in screen_corpus.items():
        pool = essential_curve_pool(g)
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            detected = asy.detect_short_curves(g, fam)
            want = scn.screen_boundary(s)
            assert detected.curves == want.curves, (name, s.family)
            boundary = {c.steps for c in want}
            outside = next((p for p in pool if p.steps not in boundary), None)
            if outside is not None:
                rep = asy.sweep(g, fam, [outside])
                assert rep.rows[-1].gap > 0.1, (name, s.family)
            total += 1
    assert total >= 40
    report(6, f"detection equals screen boundary on {total} screens, negative controls hold")


def test_criterion_07_two_screens_same_boundary(mercedes):
    by_boundary = defaultdict(list)
    for s in scn.enumerate_screens(mercedes):
        curves = scn.screen_boundary(s)
        if len(curves) == 0:
            continue
        key = tuple(c.steps for c in curves)
        by_boundary[key].append(s)
    shared = [v for v in by_boundary.values() if len(v) >= 2]
    assert shared
    families = {s.family for v in shared for s in v}
    assert len(families) >= 2
    report(7, f"four-puncture graph: {len(shared)} boundaries shared by >= 2 screens")


def test_criterion_08_inversion(trivalent_corpus):
    rng = random.Random(88)
    for g in trivalent_corpus.values():
        for _ in range(100):
            lam = random_in_cell_lambda(g, rng)
            coords = geo.simplicial_coords(g, lam)
            back = geo.invert_coords(g, coords, tol=1e-12)
            err = max(abs(back[e] - lam[e]) for e in range(g.n_edges))
            assert err <= 1e-8
        # uniqueness probe on one target per graph
        lam = random_in_cell_lambda(g, rng)
        target = geo.simplicial_coords(g, lam)
        results = []
        for _ in range(10):
            init = geo.lambda_assignment(
                [math.exp(rng.uniform(-2, 2)) for _ in range(g.n_edges)])
            results.append(geo.invert_coords(g, target, tol=1e-12, initial=init))
        for other in results[1:]:
            for e in range(g.n_edges):
                assert other[e] == pytest.approx(results[0][e], abs=1e-6)
    report(8, "coordinate inversion: 100 round trips per graph, restarts agree")


def test_criterion_09_telescoping(trivalent_corpus):
    rng = random.Random(9)
    checked = 0
    for g in trivalent_corpus.values():
        paths = list(fgr.boundary_cycles(g))
        for s in scn.enumerate_screens(g, max_edges=12):
            paths.extend(scn.screen_boundary(s).curves)
        unique = {p.steps: p for p in paths}
        for p in unique.values():
            for _ in range(20):
                lam = random_in_cell_lambda(g, rng)
                a, b = reference_telescoping_sides(g, lam, p)
                assert a == pytest.approx(b, rel=1e-10)
                checked += 1
    assert checked >= 400
    report(9, f"telescoping identity on {checked} path/weight pairs")


def test_criterion_10_divergence_vs_vanishing(screen_corpus):
    total = 0
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            rep = asy.ij_check(g, scn.depth_family(s))
            assert rep.i_subset_j and rep.recurrent_core_equals_i, s.family
            total += 1
    assert total >= 40
    report(10, f"divergent weights inside vanishing coordinates on {total} families")


def test_criterion_11_geometry_kernels():
    assert geo.cyclic_polygon((3, 4, 5)).circumradius == pytest.approx(2.5, abs=1e-12)
    assert geo.cyclic_polygon((1, 1, 1, 1)).circumradius == pytest.approx(
        math.sqrt(2) / 2, abs=1e-12)
    rng = random.Random(111)
    mismatches = 0
    for _ in range(1000):
        a, b, c = (rng.uniform(0.1, 3) for _ in range(3))
        if rng.random() < 0.25:
            c = (a + b) * (1 + rng.choice([-1, 1]) * rng.uniform(1e-6, 1e-4))
        strict = a < b + c and b < c + a and c < a + b
        if oracles.is_elliptic_section((a, b, c)) != strict:
            mismatches += 1
        u1, u2, u3 = oracles.minkowski_lift((a, b, c))
        for u, lam in ((u2, a), (u3, b)):
            assert math.sqrt(-oracles.pair(u1, u)) == pytest.approx(lam, rel=1e-12)
        assert math.sqrt(-oracles.pair(u2, u3)) == pytest.approx(c, rel=1e-12)
    assert mismatches == 0
    report(11, "geometry kernels: circumradii, ellipticity sweep, lift pairings")


def test_criterion_12_psl2_relations(trivalent_corpus):
    rng = random.Random(12)

    def pm_identity(m, tol):
        m11, m12, m21, m22 = m
        return (abs(abs(m11) - 1) <= tol and abs(abs(m22) - 1) <= tol
                and m11 * m22 > 0 and abs(m12) <= tol and abs(m21) <= tol)

    assert pm_identity(mat_mul(R_MAT, L_MAT), 0.0)
    assert pm_identity(mat_mul(mat_mul(R_MAT, R_MAT), R_MAT), 0.0)
    assert pm_identity(mat_mul(mat_mul(L_MAT, L_MAT), L_MAT), 0.0)
    samples = 0
    for g in trivalent_corpus.values():
        pool = essential_curve_pool(g)[:2]
        for _ in range(100):
            lam = random_in_cell_lambda(g, rng)
            for s, inv in hol._float_rows(g, lam):     # X = [[0, s], [-1/s, 0]] per edge
                x = (0.0, s, inv, 0.0)
                assert pm_identity(mat_mul(x, x), 1e-12)
            for p in pool:
                base = hol.abs_trace_of_path(g, lam, p)
                k = rng.randrange(len(p.steps))
                v = g.vertex_of(g.pairing(p.steps[k]))
                ins = rng.choice(g.vertex_cycles[v])
                noisy = fgr.EdgePath(
                    p.steps[:k + 1] + (ins, g.pairing(ins)) + p.steps[k + 1:])
                # the library refuses the backtrack: the reference product turns by the
                # identity there, and the library traces the reduced path
                a11, _, _, a22 = per_step_product(g, noisy, lam.values, math.sqrt, True)
                assert abs(a11 + a22) == pytest.approx(base, rel=1e-9, abs=1e-9)
                assert hol.abs_trace_of_path(g, lam, fgr.reduce_path(g, noisy)) == base
            samples += 1
    assert samples >= 500
    report(12, f"PSL2 relations and backtrack invariance ({samples} weight samples)")
