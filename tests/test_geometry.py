"""Weight geometry: Ptolemy, coordinates, inversion, lifts, polygons."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens.errors import DomainError, NonConvergenceError

import oracles
from conftest import (DATA, load, random_in_cell_lambda, random_trivalent,
                      reference_telescoping_sides)


# -- whitehead transport ---------------------------------------------------------

def test_ptolemy_all_ones(theta):
    _, lam, _ = geo.whitehead_transport(theta, geo.lambda_assignment([1, 1, 1]), 2)
    assert lam[2] == 2.0


def test_ptolemy_known_values():
    g = load("pendant.fg")   # edges: e, a, b, c, d
    lam = geo.lambda_assignment([11, 2, 3, 5, 7])
    _, lam2, _ = geo.whitehead_transport(g, lam, 0)
    assert lam2[0] == pytest.approx(31 / 11, rel=1e-15)


def test_ptolemy_involution(trivalent_corpus):
    rng = random.Random(41)
    for g in trivalent_corpus.values():
        lam = geo.lambda_assignment([rng.uniform(0.5, 2) for _ in range(g.n_edges)])
        for e in range(g.n_edges):
            a, b = g.halves(e)
            if g.vertex_of(a) == g.vertex_of(b):
                continue
            g1, lam1, _ = geo.whitehead_transport(g, lam, e)
            g2, lam2, _ = geo.whitehead_transport(g1, lam1, e)
            assert fgr.is_isomorphic(g2, g)
            for x in range(g.n_edges):
                assert lam2[x] == pytest.approx(lam[x], rel=1e-12)


# -- pointwise formulas ------------------------------------------------------------

def test_cross_ratio(theta):
    lam = geo.lambda_assignment([4.0, 4.0, 1.0])
    assert oracles.cross_ratio(theta, lam, 0) == pytest.approx(1 / 16)
    assert oracles.cross_ratio(theta, lam, 1) == pytest.approx(16.0)
    ones = geo.lambda_assignment([1, 1, 1])
    for h in range(6):
        assert oracles.cross_ratio(theta, ones, h) == pytest.approx(1.0)


def test_cross_ratio_fourth_point_against_lift():
    # the map sending the first three corner directions to 0, 1, infinity
    # places the fourth at -(l23*l14)/(l12*l34); cone radii drop out of the
    # cross ratio, so only the boundary angles and the pairings enter
    rng = random.Random(63)
    for _ in range(50):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))[::-1]
        radii = [rng.uniform(0.4, 2.5) for _ in range(4)]
        us = [np.array([r * math.cos(t), r * math.sin(t), r])
              for t, r in zip(angles, radii)]
        lam = {(i, j): math.sqrt(-oracles.pair(us[i], us[j]))
               for i in range(4) for j in range(i + 1, 4)}
        z1, z2, z3, z4 = (math.tan(t / 2) for t in angles)
        image = ((z4 - z1) * (z2 - z3)) / ((z4 - z3) * (z2 - z1))
        expected = -(lam[(1, 2)] * lam[(0, 3)]) / (lam[(0, 1)] * lam[(2, 3)])
        assert image == pytest.approx(expected, rel=1e-6)
        # all-ones sides with the symmetric diagonal pair land at exactly -1
    sym = -(1.0 * 1.0) / (1.0 * 1.0)
    assert sym == -1.0


def test_h_length(theta, barbell):
    ones = geo.lambda_assignment([1, 1, 1])
    for v, cyc in enumerate(theta.vertex_cycles):
        for i in range(3):
            sec = cyc[i]
            assert oracles.h_length(theta, ones, sec) == 1.0
    lam = geo.lambda_assignment([3.0, 4.0, 5.0])
    sec = 0   # sector from 0 to sigma(0) = 1: adjacent weights 3, 4; opposite 5
    assert oracles.h_length(theta, lam, sec) == pytest.approx(5 / 12)
    lam_b = geo.lambda_assignment([2.0, 3.0, 2.0])
    loop_sec = 0  # both slots on the loop, opposite the bridge
    assert oracles.h_length(barbell, lam_b, loop_sec) == pytest.approx(3 / 4)


def test_simplicial_coords_theta(theta):
    ones = geo.lambda_assignment([1, 1, 1])
    assert geo.simplicial_coords(theta, ones).values == (2.0, 2.0, 2.0)
    for t in (2.0, 5.0, 11.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        coords = geo.simplicial_coords(theta, lam)
        assert coords[0] == pytest.approx(2 / t ** 2, rel=1e-14)
        assert coords[1] == pytest.approx(2 / t ** 2, rel=1e-14)
        assert coords[2] == pytest.approx(2 * (2 * t ** 2 - 1) / t ** 2, rel=1e-14)


def test_simplicial_homogeneity(trivalent_corpus):
    rng = random.Random(9)
    for g in trivalent_corpus.values():
        lam = geo.lambda_assignment([rng.uniform(0.5, 2) for _ in range(g.n_edges)])
        base = geo.simplicial_coords(g, lam)
        for c in (2.0, 0.25, 7.5):
            scaled = geo.lambda_assignment([c * v for v in lam.values])
            got = geo.simplicial_coords(g, scaled)
            for e in range(g.n_edges):
                assert got[e] == pytest.approx(base[e] / c, rel=1e-12)


def test_triangle_inequalities(theta):
    assert geo.triangle_inequalities_hold(theta, geo.lambda_assignment([1, 1, 1]))[0]
    ok, vertex = geo.triangle_inequalities_hold(theta, geo.lambda_assignment([1, 1, 3]))
    assert not ok and vertex == 0


def test_triangle_inequalities_are_exact(theta):
    # 1e16 < 1e16 + 1 holds although the float sum rounds to 1e16
    lam = geo.lambda_assignment([1, 1e16, 1e16])
    assert geo.triangle_inequalities_hold(theta, lam) == (True, None)
    assert geo.refine_to_trivalent(theta, lam).new_edges == ()
    assert geo.triangle_inequalities_hold(theta, geo.lambda_assignment([1, 1e16, 1e16 + 2])) \
        == (False, 0)
    # a sum beyond double range, and one in the subnormal range, compare exactly too
    assert geo.triangle_inequalities_hold(theta, geo.lambda_assignment([1.7e308] * 3))[0]
    assert not geo.triangle_inequalities_hold(theta, geo.lambda_assignment([1e-320, 1e-320,
                                                                            2e-320]))[0]
    g = fgr.build([(0, 1, 2, 3), (4, 5, 6, 7)], [(0, 4), (1, 5), (2, 6), (3, 7)])
    with pytest.raises(DomainError, match="triangle inequalities fail at vertex 0"):
        geo.refine_to_trivalent(g, geo.lambda_assignment([1, 1, 1e16, 1e16 + 2]))


def test_in_cell_implies_triangle_inequalities(trivalent_corpus):
    rng = random.Random(13)
    for g in trivalent_corpus.values():
        for _ in range(25):
            lam = random_in_cell_lambda(g, rng)
            assert geo.triangle_inequalities_hold(g, lam)[0]


def test_no_vanishing_cycle(theta):
    assert geo.no_vanishing_cycle(theta, geo.simplicial([2, 2, 2]))
    assert not geo.no_vanishing_cycle(theta, geo.simplicial([0, 0, 0]))
    assert geo.no_vanishing_cycle(theta, geo.simplicial([0, 2, 2]))
    assert not geo.no_vanishing_cycle(theta, geo.simplicial([-1, 2, 2]))
    # two zero parallel edges already close a cycle
    assert not geo.no_vanishing_cycle(theta, geo.simplicial([0, 0, 2]))
    barb = load("barbell.fg")
    # a zero loop closes a cycle on its own
    assert not geo.no_vanishing_cycle(barb, geo.simplicial([0, 2, 2]))
    for values in ([2, 2], [2, 2, 2, 0]):
        with pytest.raises(DomainError, match="^one coordinate per edge required$"):
            geo.no_vanishing_cycle(theta, geo.simplicial(values))


def test_no_vanishing_cycle_refuses_nan_tolerance(theta):
    # weights 1, 1, 3 lie outside the cell: the third coordinate is -14/3
    coords = geo.simplicial_coords(theta, geo.lambda_assignment([1, 1, 3]))
    assert not geo.no_vanishing_cycle(theta, coords)
    for tol in (math.nan, -1e-9):
        with pytest.raises(DomainError, match="tolerance must be nonnegative"):
            geo.no_vanishing_cycle(theta, coords, tol)


def reference_no_vanishing_cycle(g, coords, tol=0.0):
    """The forest test read edge by edge through the graph's methods."""
    if min(coords.values) < -tol:
        return False
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in range(g.n_edges):
        if abs(coords[e]) <= tol:
            a, b = (find(g.vertex_of(h)) for h in g.halves(e))
            if a == b:
                return False
            parent[a] = b
    return True


def test_no_vanishing_cycle_matches_reference(trivalent_corpus, generated_trivalent):
    # random zero sets, with near-zero values of both signs for a positive tolerance;
    # barbell's loops and theta's parallel edges close cycles on their own
    rng = random.Random(73)
    verdicts = set()
    for g in [*trivalent_corpus.values(), *generated_trivalent]:
        for _ in range(40):
            share = rng.choice((0.2, 0.5, 0.8))
            coords = geo.simplicial([rng.choice((0.0, 1e-12, -1e-12)) if rng.random() < share
                                     else rng.uniform(0.1, 3.0) for _ in range(g.n_edges)])
            for tol in (0.0, 1e-9):
                want = reference_no_vanishing_cycle(g, coords, tol)
                assert geo.no_vanishing_cycle(g, coords, tol) == want
                verdicts.add(want)
    assert verdicts == {True, False}


# -- the quad-slot reader against the sigma definition ------------------------------

def reference_end_term(g, lam, h):
    e = lam[g.edge_of(h)]
    a = lam[g.edge_of(g.sigma(h))]
    b = lam[g.edge_of(g.sigma(g.sigma(h)))]
    return (a * a + b * b - e * e) / (a * b * e)


def test_quad_slots_follow_sigma(generated_trivalent):
    for g in generated_trivalent:
        assert g._edge_quads == tuple(oracles.quad_slots(g, h) for h, _ in g.edge_halves)
        for (a, b, c, d), (_, h2) in zip(g._edge_quads, g.edge_halves):
            assert oracles.quad_slots(g, h2) == (c, d, a, b)


def test_simplicial_coords_match_end_term_reference(generated_trivalent):
    rng = random.Random(57)
    for g in generated_trivalent:
        for _ in range(5):
            lam = geo.lambda_assignment([10 ** rng.uniform(-4, 4) for _ in range(g.n_edges)])
            want = tuple(reference_end_term(g, lam, h1) + reference_end_term(g, lam, h2)
                         for h1, h2 in g.edge_halves)
            assert geo.simplicial_coords(g, lam).values == want


def test_simplicial_coords_past_an_overflowing_square(theta, genus2):
    # a * a overflows at a = 1e200, where the exact coordinates -2e200, 2e200, 2e200 do not
    lam = geo.lambda_assignment([1e200, 1, 1])
    assert geo.simplicial_coords(theta, lam).values == (-2e200, 2e200, 2e200)
    # only the edges whose square overflows are summed by end terms; the rest keep their bits
    rng = random.Random(71)
    for e in range(genus2.n_edges):
        w = [rng.uniform(1, 2) for _ in range(genus2.n_edges)]
        w[e] = 1e200
        lam = geo.lambda_assignment(w)
        got = geo.simplicial_coords(genus2, lam).values
        overflowed = 0
        for f, (h1, h2) in enumerate(genus2.edge_halves):
            square = reference_end_term(genus2, lam, h1) + reference_end_term(genus2, lam, h2)
            if math.isfinite(square):
                assert got[f] == square
                continue
            overflowed += 1
            exact = sum(reference_end_term(genus2, [mpmath.mpf(v) for v in w], h) for h in (h1, h2))
            assert got[f] == pytest.approx(float(exact), rel=1e-15)
        assert overflowed
    # an end term that overflows too is still refused
    with pytest.raises(DomainError, match="^simplicial coordinates must be finite$"):
        geo.simplicial_coords(theta, geo.lambda_assignment([1e300, 1e-10, 1]))


def loop_coords(g, w):
    """The coordinates edge by edge, each end's products checked for underflow first."""
    vals = []
    for e, (h1, h2) in enumerate(g.edge_halves):
        x = w[e]
        a, b = (w[f] for f in oracles.quad_slots(g, h1)[:2])
        c, d = (w[f] for f in oracles.quad_slots(g, h2)[:2])
        abx, cdx = a * b * x, c * d * x
        if not (abx and cdx):
            raise DomainError(f"weight products at edge {g.label(e)} underflow to 0")
        vals.append((a * a + b * b - x * x) / abx + (c * c + d * d - x * x) / cdx)
    return tuple(vals)


def test_simplicial_coords_equal_the_edge_loop(trivalent_corpus, census12):
    rng = random.Random(61)
    graphs = [*trivalent_corpus.values(), census12,
              random_trivalent(150, rng), random_trivalent(600, rng)]
    for g in graphs:
        for spread in (0.5, 4.0, 60.0):
            w = [10 ** rng.uniform(-spread, spread) for _ in range(g.n_edges)]
            assert geo.simplicial_coords(g, geo.lambda_assignment(w)).values == loop_coords(g, w)


def test_simplicial_coords_name_the_first_edge_that_underflows(theta, genus2, barbell):
    rng = random.Random(67)
    named = set()
    for g in (theta, genus2, barbell, random_trivalent(150, rng)):
        for _ in range(10):
            w = [rng.uniform(0.5, 2.0) for _ in range(g.n_edges)]
            e = rng.randrange(g.n_edges)
            for f in (e, g._edge_quads[e][rng.randrange(4)]):
                w[f] = 1e-170       # a * b * x is 0 where two of these meet
            with pytest.raises(DomainError) as want:
                loop_coords(g, w)
            with pytest.raises(DomainError) as got:
                geo.simplicial_coords(g, geo.lambda_assignment(w))
            assert str(got.value) == str(want.value)
            named.add(str(want.value))
    assert len(named) > 10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_lambda_assignment_refuses_a_bad_weight_anywhere(bad):
    for at in (0, 2, 4):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        values[at] = bad
        with pytest.raises(DomainError, match="^lambda lengths must be positive finite reals$"):
            geo.LambdaAssignment(tuple(values))
        with pytest.raises(DomainError, match="^lambda lengths must be positive finite reals$"):
            geo.lambda_assignment(values)


# -- inversion ----------------------------------------------------------------------

def test_invert_symmetric_target(theta):
    lam = geo.invert_coords(theta, geo.simplicial([2, 2, 2]), tol=1e-12)
    for v in lam.values:
        assert v == pytest.approx(1.0, abs=1e-12)


def test_invert_round_trip(trivalent_corpus):
    rng = random.Random(29)
    for g in trivalent_corpus.values():
        for _ in range(10):
            lam = random_in_cell_lambda(g, rng)
            coords = geo.simplicial_coords(g, lam)
            back = geo.invert_coords(g, coords, tol=1e-12)
            for e in range(g.n_edges):
                assert back[e] == pytest.approx(lam[e], abs=1e-8)


def test_invert_rejects_bad_targets(theta):
    for initial in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(DomainError, match="^one initial weight per edge required$"):
            geo.invert_coords(theta, geo.simplicial([2, 2, 2]),
                              initial=geo.lambda_assignment(initial))
    with pytest.raises(DomainError, match="negative"):
        geo.invert_coords(theta, geo.simplicial([-1, 2, 2]))
    with pytest.raises(DomainError, match="vanishing"):
        geo.invert_coords(theta, geo.simplicial([0, 0, 2]))
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            geo.invert_coords(theta, geo.simplicial([2, 2, 2]), tol=tol)
    # an infinite tolerance used to return the initial weights 1, 1, 1 unchanged
    with pytest.raises(DomainError, match="tolerance must be positive and finite"):
        geo.invert_coords(theta, geo.simplicial([1, 2, 5]), tol=math.inf)


def weights(*values):
    return geo.lambda_assignment(values)


# library refusals that no parser or CLI check reaches first: (call, message); wedge.fg has one
# 4-valent vertex, loop.fg a 2-valent one, and barbell's two loops induce a disconnected subgraph
LIBRARY_REFUSALS = {
    "topology_disconnected": (lambda: fgr.topology(fgr.subgraph(load("barbell.fg"), [0, 2]).graph),
                              "inconsistent map: V-E=0, boundary cycles=4"),
    "transport_flipped_edge_only": (
        lambda: fgr.transport_path(load("theta.fg"), fgr.whitehead_move(load("theta.fg"), 0),
                                   fgr.EdgePath((0, 3))),
        "path supported on the flipped edge only"),
    "one_left_turn_one_factor": (lambda: hol.one_left_turn_trace([1.0]),
                                 "need at least two factors (one right turn)"),
    "one_left_turn_nonpositive": (lambda: hol.one_left_turn_trace([1.0, 0.0]),
                                  "factors must be positive"),
    # NaN fails the comparison that admits a length
    "hyp_length_nan": (lambda: hol.hyp_length(math.nan), "|trace| = nan < 2: no geodesic length"),
    "hyp_length_from_gap_nan": (lambda: hol.hyp_length_from_gap(math.nan),
                                "trace gap nan < 0: no geodesic length"),
    "coords_not_trivalent": (lambda: geo.simplicial_coords(load("wedge.fg"), weights(1, 1)),
                             "operation requires a trivalent graph"),
    "invert_target_count": (lambda: geo.invert_coords(load("theta.fg"), geo.simplicial([1, 2])),
                            "one target coordinate per edge required"),
    "refine_low_valence": (lambda: geo.refine_to_trivalent(load("loop.fg"), weights(1)),
                           "refinement needs all valences >= 3"),
    "polygon_two_sides": (lambda: geo.cyclic_polygon([1.0, 1.0]),
                          "need at least three positive finite lengths"),
}


@pytest.mark.parametrize("case", LIBRARY_REFUSALS)
def test_library_refusals(case):
    call, message = LIBRARY_REFUSALS[case]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_invert_start_outside_double_range(theta):
    target = geo.simplicial([1, 2, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # used to emit six RuntimeWarnings, then "inversion stalled at residual nan"
        with pytest.raises(DomainError, match="initial weights give non-finite coordinates"):
            geo.invert_coords(theta, target, initial=geo.lambda_assignment([1e-200] * 3))
        # from here some trial points overflow; the line search rejects them silently
        lam = geo.invert_coords(theta, target, tol=1e-12,
                                initial=geo.lambda_assignment([1e-8, 1, 1]))
    got = geo.simplicial_coords(theta, lam)
    assert got.values == pytest.approx(target.values, abs=1e-11)


def test_invert_where_jacobian_is_singular_to_working_precision(theta):
    # at these starts J is singular to working precision (its eigenvalues span 30
    # and more orders of magnitude), so p.Jp can fall to rounding noise
    target = geo.simplicial([1, 2, 5])
    for initial in ([1e-20, 1e20, 1], [1e-30, 1, 1e30]):
        lam = geo.invert_coords(theta, target, tol=1e-12,
                                initial=geo.lambda_assignment(initial))
        got = geo.simplicial_coords(theta, lam)
        assert got.values == pytest.approx(target.values, abs=1e-11)


def test_invert_from_a_far_start(theta):
    # with the diagonal scaling applied in every CG iteration this start stalled at
    # residual 2.2; (1e80, 1, 1) still ends after 200 iterations at residual 2.9
    target = geo.simplicial([1, 2, 5])
    lam = geo.invert_coords(theta, target, tol=1e-12, initial=geo.lambda_assignment([1e60, 1, 1]))
    got = geo.simplicial_coords(theta, lam)
    assert got.values == pytest.approx(target.values, abs=1e-11)


def test_invert_boundary_target(theta):
    # a single zero coordinate sits on the cell boundary and still inverts
    target = geo.simplicial([0.0, 2.0, 2.0])
    lam = geo.invert_coords(theta, target, tol=1e-10)
    got = geo.simplicial_coords(theta, lam)
    for e in range(3):
        assert got[e] == pytest.approx(target[e], abs=1e-9)


def test_invert_unique_from_restarts(theta):
    rng = random.Random(31)
    lam0 = random_in_cell_lambda(theta, rng)
    target = geo.simplicial_coords(theta, lam0)
    results = []
    for _ in range(10):
        init = geo.lambda_assignment([math.exp(rng.uniform(-2, 2)) for _ in range(3)])
        results.append(geo.invert_coords(theta, target, tol=1e-12, initial=init))
    for lam in results[1:]:
        for e in range(3):
            assert lam[e] == pytest.approx(results[0][e], abs=1e-6)


# -- Newton system ----------------------------------------------------------------

def reference_coords_and_jacobian(g, lam_vals):
    """The Newton system assembled end by end with graph method calls."""
    n = g.n_edges
    coords = np.zeros(n)
    jac = np.zeros((n, n))
    for e in range(n):
        for h in g.halves(e):
            ea = g.edge_of(g.sigma(h))
            eb = g.edge_of(g.sigma(g.sigma(h)))
            a, b, ev = lam_vals[ea], lam_vals[eb], lam_vals[e]
            t1 = a / (b * ev)
            t2 = b / (a * ev)
            t3 = ev / (a * b)
            coords[e] += t1 + t2 - t3
            jac[e, ea] += t1 - t2 + t3
            jac[e, eb] += -t1 + t2 + t3
            jac[e, e] += -t1 - t2 - t3
    return coords, jac


@pytest.fixture(scope="module")
def newton_graphs(trivalent_corpus):
    rng = random.Random(37)
    graphs = dict(trivalent_corpus)
    for n in (30, 90):
        graphs[f"random{n}"] = random_trivalent(n, rng)
    return graphs


def dense_jacobian(tables, vals):
    """The n x n matrix of the Jacobian's cell values: each end's cells in the columns of
    its first slot, its second slot and its edge, repeated cells summed in end order."""
    first, second = tables[:2]
    rows = np.arange(len(first)) // 2
    n = len(first) // 2
    cols = np.stack((first, second, rows), axis=1).ravel()
    return np.bincount(rows.repeat(3) * n + cols, np.stack(vals, axis=1).ravel(),
                       minlength=n * n).reshape(n, n)


def test_newton_system_matches_loop_reference(newton_graphs):
    # many draws on the small graphs: only at barbell's loops does the order of
    # the sums show, and there only for some weights
    rng = random.Random(41)
    for g in newton_graphs.values():
        tables = geo._end_tables(g)
        for _ in range(100 if g.n_edges < 30 else 3):
            lam = np.exp([rng.uniform(-3.0, 3.0) for _ in range(g.n_edges)])
            coords, vals = geo._coords_and_jacobian(tables, lam)
            jac = dense_jacobian(tables, vals)
            want_coords, want_jac = reference_coords_and_jacobian(g, lam)
            assert (coords == want_coords).all()
            assert (jac == want_jac).all()
            # the coordinates are those of the scalar formula
            scalar = geo.simplicial_coords(g, geo.lambda_assignment(lam)).values
            assert coords == pytest.approx(scalar, rel=1e-12, abs=1e-12)


def test_jacobian_symmetric_negative_definite(newton_graphs):
    # X = -grad F in log weights, F the sum of the sector h-lengths (exps of
    # linear forms), so the Jacobian is minus a positive definite Hessian
    rng = random.Random(43)
    for g in newton_graphs.values():
        tables = geo._end_tables(g)
        for _ in range(3):
            lam = np.exp([rng.uniform(-2.0, 2.0) for _ in range(g.n_edges)])
            jac = dense_jacobian(tables, geo._coords_and_jacobian(tables, lam)[1])
            assert np.max(np.abs(jac - jac.T)) <= 1e-12 * np.max(np.abs(jac))
            assert np.linalg.eigvalsh(jac).max() < 0


def test_newton_step_falls_back_to_preconditioned_residual(theta):
    # J = -ones(3, 3) is singular along z = D^-1 r = (-1, 1, 0), so p.(-DJD)p = 0 on
    # the first CG iteration and the Jacobi step z is returned, with no division by 0
    tables = geo._end_tables(theta)
    vals = (np.full(2 * theta.n_edges, -0.5),) * 3
    assert (dense_jacobian(tables, vals) == -1.0).all()
    step = geo._newton_step(tables, vals, np.array([1.0, -1.0, 0.0]), 0.1)
    assert list(step) == [-1.0, 1.0, 0.0]


def unit_system(jac):
    """d = |diag J|**-1/2 and -DJD of a dense Jacobian."""
    d = np.abs(np.diag(jac)) ** -0.5
    return d, -d[:, None] * jac * d


def test_cell_product_matches_dense_product(newton_graphs):
    # small random graphs add many loops (a cell moved onto the diagonal) and parallel
    # edges (two cells in one column of a row) to the corpus
    small_rng = random.Random(61)
    small = [random_trivalent(n, small_rng) for n in (3, 6, 9, 12) * 10]
    rng = random.Random(59)
    loops = parallels = 0
    for g in [*newton_graphs.values(), *small]:
        ends = [tuple(sorted(g.vertex_of(h) for h in g.halves(e))) for e in range(g.n_edges)]
        loops += sum(u == v for u, v in ends)
        parallels += len(ends) - len(set(ends))
        tables = geo._end_tables(g)
        assert tables[2].shape == (4, g.n_edges) and tables[2].flags.c_contiguous
        for _ in range(3):
            lam = np.exp([rng.uniform(-3.0, 3.0) for _ in range(g.n_edges)])
            p = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n_edges)])
            vals = geo._coords_and_jacobian(tables, lam)[1]
            want = unit_system(dense_jacobian(tables, vals))[1] @ p
            got = geo._unit_times(geo._unit_system(tables, vals)[2], p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * np.abs(want).max())
    assert loops > 10 and parallels > 10


def test_newton_step_meets_its_unscaled_aim(newton_graphs, monkeypatch):
    # with forcing 0 the step's CG stops where |D(J s - r)| <= aim min(d), so |J s - r|_inf
    # <= aim, unless it runs out of its n iterations (here only random30 at aim 1e-9)
    products = []
    unit_times = geo._unit_times
    monkeypatch.setattr(geo, "_unit_times", lambda *args: products.append(1) or unit_times(*args))
    rng = random.Random(73)
    met = 0
    for g in newton_graphs.values():
        tables = geo._end_tables(g)
        for aim in (1e-6, 1e-9):
            lam = np.exp([rng.uniform(-2.0, 2.0) for _ in range(g.n_edges)])
            resid = np.array([rng.uniform(-1e-3, 1e-3) for _ in range(g.n_edges)])
            vals = geo._coords_and_jacobian(tables, lam)[1]
            products.clear()
            step = geo._newton_step(tables, vals, resid, 0.0, aim)
            if np.max(np.abs(dense_jacobian(tables, vals) @ step - resid)) <= aim:
                met += 1
            else:
                assert len(products) == g.n_edges
    assert met >= 2 * len(newton_graphs) - 1


def test_newton_step_meets_its_scaled_bound(newton_graphs, monkeypatch):
    # the step's CG stops on the residual of the unit-diagonal system, |D(J s - r)| <=
    # f |D r|, unless it runs out of its n iterations (here only at f = 1e-6)
    products = []
    unit_times = geo._unit_times
    monkeypatch.setattr(geo, "_unit_times", lambda *args: products.append(1) or unit_times(*args))
    rng = random.Random(71)
    met = 0
    for g in newton_graphs.values():
        tables = geo._end_tables(g)
        for forcing in (0.1, 1e-3, 1e-6):
            lam = np.exp([rng.uniform(-2.0, 2.0) for _ in range(g.n_edges)])
            resid = np.array([rng.uniform(-1.0, 1.0) for _ in range(g.n_edges)])
            vals = geo._coords_and_jacobian(tables, lam)[1]
            jac = dense_jacobian(tables, vals)
            d = unit_system(jac)[0]
            products.clear()
            step = geo._newton_step(tables, vals, resid, forcing)
            got = np.linalg.norm(d * (jac @ step - resid))
            if got <= 1.001 * forcing * np.linalg.norm(d * resid):
                met += 1
            else:
                assert forcing == 1e-6 and len(products) == g.n_edges
    assert met >= 3 * len(newton_graphs) - 2


def sector_sum(g, lam):
    return sum(oracles.h_length(g, lam, cyc[i])
               for cyc in g.vertex_cycles for i in range(3))


def test_coords_are_minus_log_gradient_of_sector_sum(barbell, genus2, mercedes):
    rng = random.Random(47)
    step = 1e-5
    for g in (barbell, genus2, mercedes):
        u = [rng.uniform(-1.0, 1.0) for _ in range(g.n_edges)]
        coords = geo.simplicial_coords(g, geo.lambda_assignment(np.exp(u)))
        for e in range(g.n_edges):
            up, down = list(u), list(u)
            up[e] += step
            down[e] -= step
            grad = (sector_sum(g, geo.lambda_assignment(np.exp(up)))
                    - sector_sum(g, geo.lambda_assignment(np.exp(down)))) / (2 * step)
            assert coords[e] == pytest.approx(-grad, rel=1e-7, abs=1e-7)


def random_forest_target(g, rng):
    """Coordinates that vanish on a random forest and are positive elsewhere."""
    root = list(range(g.n_vertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    values = []
    for e in range(g.n_edges):
        a, b = (find(g.vertex_of(h)) for h in g.halves(e))
        if a != b and rng.random() < 0.5:
            root[a] = b
            values.append(0.0)
        else:
            values.append(math.exp(rng.uniform(-3.0, 1.0)))
    return geo.simplicial(values)


def test_invert_forest_zero_targets(newton_graphs):
    rng = random.Random(53)
    tol = 1e-10
    zeros = 0
    for g in newton_graphs.values():
        for _ in range(3):
            target = random_forest_target(g, rng)
            zeros += target.values.count(0.0)
            lam = geo.invert_coords(g, target, tol=tol)
            got = geo.simplicial_coords(g, lam)
            assert max(abs(x - y) for x, y in zip(got.values, target.values)) <= 10 * tol
    assert zeros > 0


def test_invert_forest_zero_targets_at_scale():
    rng = random.Random(61)
    tol = 1e-10
    for n in (300, 600):
        g = random_trivalent(n, rng)
        target = random_forest_target(g, rng)
        lam = geo.invert_coords(g, target, tol=tol)
        got = geo.simplicial_coords(g, lam)
        assert max(abs(x - y) for x, y in zip(got.values, target.values)) <= 10 * tol


def test_invert_aims_its_last_step_at_tol(monkeypatch):
    # where err**2 < tol the step's linear residual is aimed at tol / 2, unscaled, so few
    # inversions start one more step at a residual of at most 10 tol.  On these 40 targets
    # the code that stopped the last step on the scaled residual and started at u = 0 had 12
    # such inversions and 10.6 steps on average; from the uniform start 2 / (median target)
    # it had 8, 9.0 steps, 139 CG products and 11.0 coordinate evaluations per inversion.
    # From the per-edge start 4 / (x_e + median) this code measures 5, 7.5, 130.8 and 8.5.
    # The aim also stops CG: 267 products per inversion if the last steps ran CG to the end.
    rng = random.Random(83)
    tol = 1e-10
    newton_step, unit_times = geo._newton_step, geo._unit_times
    coords_and_jacobian = geo._coords_and_jacobian
    starts, products, evaluations = [], [], []

    def recorded(tables, vals, resid, forcing, aim):
        step = newton_step(tables, vals, resid, forcing, aim)
        err = np.max(np.abs(resid))
        starts[-1].append(err)
        if err * err < tol:
            assert forcing == 0.0 and aim == 0.5 * tol
            assert np.max(np.abs(dense_jacobian(tables, vals) @ step - resid)) <= 0.5 * tol
        return step

    monkeypatch.setattr(geo, "_newton_step", recorded)
    monkeypatch.setattr(geo, "_unit_times", lambda *args: products.append(1) or unit_times(*args))
    monkeypatch.setattr(geo, "_coords_and_jacobian",
                        lambda *args: evaluations.append(1) or coords_and_jacobian(*args))
    for _ in range(40):
        g = random_trivalent(150, rng)
        target = random_forest_target(g, rng)
        starts.append([])
        geo.invert_coords(g, target, tol=tol)
    late = sum(any(err <= 10 * tol for err in errs) for errs in starts)
    assert late <= 5
    assert sum(map(len, starts)) / len(starts) <= 7.5
    assert len(products) <= 131 * len(starts)
    assert len(evaluations) <= 8.5 * len(starts)


def test_invert_starts_at_per_edge_weights(theta, monkeypatch):
    # uniform weights c give every coordinate 2 / c: edge e starts at the c = 4 / (x_e + m)
    # whose coordinate is the mean of its own target x_e and m, the median positive one
    seen = []
    coords_and_jacobian = geo._coords_and_jacobian
    monkeypatch.setattr(geo, "_coords_and_jacobian",
                        lambda tables, lam: seen.append(lam) or coords_and_jacobian(tables, lam))
    geo.invert_coords(theta, geo.simplicial([0.0, 1.0, 3.0]))
    assert list(seen[0]) == [2.0, 4 / 3, 0.8]
    seen.clear()
    lam = geo.invert_coords(theta, geo.simplicial([4.0, 4.0, 4.0]))
    assert len(seen) == 1 and lam.values == (0.5,) * 3


def test_invert_names_a_tolerance_below_one_ulp(theta):
    # one ulp of 1e6 is 1.164e-10: no residual at that coordinate lies strictly between 0
    # and it, so tol 1e-10 is met only by an exact hit
    with pytest.raises(NonConvergenceError) as err:
        geo.invert_coords(theta, geo.simplicial([1e-6, 1, 1e6]), tol=1e-10)
    assert str(err.value) == ("inversion stalled at residual 1.164e-10 (tol 1.0e-10 is below one "
                              "ulp, 1.164e-10, of the largest target coordinate)")
    # from this far start the iterations run out first
    with pytest.raises(NonConvergenceError) as err:
        geo.invert_coords(theta, geo.simplicial([1, 2, 5]), tol=1e-16,
                          initial=geo.lambda_assignment([1e80, 1, 1]))
    assert str(err.value).startswith("inversion did not reach tolerance 1.0e-16 in 200 iterations")
    assert str(err.value).endswith("; tol is below one ulp, 8.882e-16, of the largest target "
                                   "coordinate)")
    # a tolerance of one ulp and more is named alone
    with pytest.raises(NonConvergenceError) as err:
        geo.invert_coords(theta, geo.simplicial([1, 2, 5]), initial=geo.lambda_assignment([1e80, 1, 1]))
    assert str(err.value).startswith("inversion did not reach tolerance 1.0e-10 in 200 iterations")
    assert "ulp" not in str(err.value)


def test_invert_starts_at_weights_1_where_the_median_scale_leaves_double_range(theta):
    ones = geo.lambda_assignment([1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 2 / 1e-310 overflows: from weights 1 the coordinates fall within tol of the target
        tiny = geo.simplicial([1e-310] * 3)
        assert geo.invert_coords(theta, tiny) == geo.invert_coords(theta, tiny, initial=ones)
        # weights 2e-300 give non-finite coordinates; the target is out of reach from 1 too
        with pytest.raises(NonConvergenceError, match="^inversion stalled at residual 1.000e[+]300"):
            geo.invert_coords(theta, geo.simplicial([1e300] * 3))


def test_invert_allocates_no_dense_matrix():
    rng = random.Random(67)
    g = random_trivalent(600, rng)
    target = random_forest_target(g, rng)
    geo.invert_coords(g, target)        # numpy's first use allocates its own tables
    tracemalloc.start()
    try:
        geo.invert_coords(g, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n_edges ** 2 * 8


# -- telescoping ----------------------------------------------------------------------

def test_telescoping_theta_values(theta):
    ones = geo.lambda_assignment([1, 1, 1])
    (bc,) = fgr.boundary_cycles(theta)
    assert reference_telescoping_sides(theta, ones, bc) == (12.0, 12.0)
    assert reference_telescoping_sides(theta, ones, fgr.EdgePath((0, 4))) == (4.0, 4.0)
    for t in (2.0, 10.0, 100.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        a, b = reference_telescoping_sides(theta, lam, fgr.EdgePath((0, 4)))
        assert a == pytest.approx(b, rel=1e-12)


# -- Minkowski lifts ---------------------------------------------------------------------

def test_minkowski_lift_pairings():
    u1, u2, u3 = oracles.minkowski_lift((3, 4, 5))
    assert oracles.pair(u1, u2) == pytest.approx(-9, rel=1e-12)
    assert oracles.pair(u1, u3) == pytest.approx(-16, rel=1e-12)
    assert oracles.pair(u2, u3) == pytest.approx(-25, rel=1e-12)
    for u in (u1, u2, u3):
        assert abs(oracles.pair(u, u)) < 1e-12
        assert u[2] > 0


def test_minkowski_lift_random():
    rng = random.Random(101)
    for _ in range(200):
        lam = [rng.uniform(0.1, 4) for _ in range(3)]
        u1, u2, u3 = oracles.minkowski_lift(lam)
        got = [math.sqrt(-oracles.pair(u1, u2)), math.sqrt(-oracles.pair(u1, u3)), math.sqrt(-oracles.pair(u2, u3))]
        for a, b in zip(got, lam):
            assert a == pytest.approx(b, rel=1e-12)


def test_ellipticity_matches_triangle_inequalities():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        a, b, c = (rng.uniform(0.1, 3) for _ in range(3))
        if rng.random() < 0.3:
            # near-degenerate: c close to a + b from either side
            c = (a + b) * (1 + rng.choice([-1, 1]) * rng.uniform(1e-6, 1e-3))
        strict = a < b + c and b < c + a and c < a + b
        assert oracles.is_elliptic_section((a, b, c)) == strict
        checked += 1


# -- tetrahedron volume ---------------------------------------------------------------

def quad_expression(q: oracles.QuadLambdas) -> float:
    e = q.diag_13
    return ((q.s12 ** 2 + q.s23 ** 2 - e ** 2) / (q.s12 * q.s23 * e)
            + (q.s41 ** 2 + q.s34 ** 2 - e ** 2) / (q.s41 * q.s34 * e))


def test_tetra_volume_all_ones_quad():
    q = oracles.QuadLambdas(1, 1, 1, 1, 1, 2)    # Ptolemy: 1*2 = 1 + 1
    vol = oracles.tetra_volume_sign(q)
    prod = q.s12 * q.s23 * q.s34 * q.s41
    assert vol / (2 * math.sqrt(2) * prod) == pytest.approx(2.0, rel=1e-12)
    assert quad_expression(q) == 2.0


def test_tetra_volume_random_quads():
    rng = random.Random(55)
    for _ in range(100):
        # generate consistent weights from four clockwise points on the cone
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))[::-1]
        radii = [rng.uniform(0.4, 2.5) for _ in range(4)]
        us = [np.array([r * math.cos(t), r * math.sin(t), r])
              for t, r in zip(angles, radii)]
        lam = {}
        for i in range(4):
            for j in range(i + 1, 4):
                lam[(i, j)] = math.sqrt(-oracles.pair(us[i], us[j]))
        q = oracles.QuadLambdas(lam[(0, 1)], lam[(1, 2)], lam[(2, 3)], lam[(0, 3)],
                            lam[(0, 2)], lam[(1, 3)])
        vol = oracles.tetra_volume_sign(q)
        prod = q.s12 * q.s23 * q.s34 * q.s41
        # the identity is exact; the comparison loses digits to cancellation
        # in the two-term expression, so the tolerance scales with prod
        assert vol == pytest.approx(2 * math.sqrt(2) * prod * quad_expression(q),
                                    rel=1e-6, abs=1e-8 * (1 + prod))
        flipped = oracles.tetra_volume_sign(q.swapped_diagonals())
        if abs(vol) > 1e-9:
            assert flipped * vol < 0


def test_tetra_volume_coplanar_is_zero():
    # unit square inscribed in a circle: all four lift points are coplanar
    s = 1.0
    d = math.sqrt(2.0)
    q = oracles.QuadLambdas(s, s, s, s, d, d)
    assert abs(oracles.tetra_volume_sign(q)) < 1e-10


# -- cyclic polygons ----------------------------------------------------------------------

def test_cyclic_polygon_right_triangle():
    poly = geo.cyclic_polygon((3, 4, 5))
    assert poly.circumradius == pytest.approx(2.5, abs=1e-12)


def test_cyclic_polygon_unit_square():
    poly = geo.cyclic_polygon((1, 1, 1, 1))
    assert poly.circumradius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_cyclic_polygon_random_reconstruction():
    rng = random.Random(77)
    for _ in range(120):
        k = rng.randint(3, 8)
        ls = [rng.uniform(0.2, 3) for _ in range(k)]
        if max(ls) >= sum(ls) - max(ls):
            continue
        poly = geo.cyclic_polygon(ls)
        assert sum(poly.central_angles) == pytest.approx(2 * math.pi, abs=1e-10)
        # place the corners and re-measure every side
        cum = 0.0
        pts = []
        for ang in poly.central_angles:
            pts.append((poly.circumradius * math.cos(cum),
                        poly.circumradius * math.sin(cum)))
            cum += ang
        for i in range(k):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % k]
            side = math.hypot(x2 - x1, y2 - y1)
            assert side == pytest.approx(ls[i], rel=1e-10)


def test_cyclic_polygon_rotation_invariance():
    ls = [1.0, 2.0, 2.5, 1.5, 0.7]
    base = geo.cyclic_polygon(ls)
    rolled = geo.cyclic_polygon(ls[2:] + ls[:2])
    assert rolled.circumradius == pytest.approx(base.circumradius, rel=1e-12)
    assert rolled.central_angles[0] == pytest.approx(base.central_angles[2], rel=1e-10)


@pytest.mark.parametrize("sides, radius", [
    ((1e-320,) * 3, 1e-320 / math.sqrt(3)),
    ((3e307, 4e307, 5e307), 2.5e307),
    ((1.0, 1.0, 1e16, 1e16), 5e15),     # 1 + 1 + 1e16 > 1e16 holds exactly
])
def test_cyclic_polygon_extreme_sides(sides, radius):
    poly = geo.cyclic_polygon(sides)
    assert poly.circumradius == pytest.approx(radius, rel=1e-15)
    assert sum(poly.central_angles) == pytest.approx(2 * math.pi, abs=1e-12)


@pytest.mark.parametrize("t", [1e2, 1e4, 1e8])
def test_cyclic_polygon_near_diameter_angles(t):
    # both sides t**2 are within about 1/t of a diameter: taken from their sine, their angles
    # were off by up to sqrt(2 eps), and all four summed to 2 pi + 2e-8 at t = 1e8
    sides = (t * t, t * t, t, 1.0)
    poly = geo.cyclic_polygon(sides)
    with mpmath.workdps(60):
        # the half-angles asin(y l / lmax) sum to pi: bisect y = lmax / (2R) over (0, 1]
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(210):
            mid = (lo + hi) / 2
            if sum(mpmath.asin(mid * l / sides[0]) for l in sides) < mpmath.pi:
                lo = mid
            else:
                hi = mid
        want = [2 * mpmath.asin(lo * l / sides[0]) for l in sides]
        assert all(abs(got - w) <= 2 * math.ulp(math.pi)
                   for got, w in zip(poly.central_angles, want))
    assert abs(sum(poly.central_angles) - 2 * math.pi) <= 8 * math.ulp(2 * math.pi)


def test_cyclic_polygon_rejects_degenerate():
    with pytest.raises(DomainError):
        geo.cyclic_polygon((1, 1, 3))
    with pytest.raises(DomainError):
        geo.cyclic_polygon((1, 1, 2))


# -- refinement ----------------------------------------------------------------------------

def test_refine_square_vertex():
    wedge = load("wedge.fg")
    ref = geo.refine_to_trivalent(wedge, geo.lambda_assignment([1, 1]))
    assert ref.graph.is_trivalent()
    assert len(ref.new_edges) == 1
    assert ref.lam[ref.new_edges[0]] == pytest.approx(math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("t", [1e2, 1e4, 1e6, 1e8, 1e12])
def test_refine_fan_diagonal_is_the_cyclic_chord(t):
    # sides a, b, c, d of a cyclic quadrilateral: the diagonal parting a, b from c, d
    # is sqrt((ac + bd)(ad + bc)/(ab + cd)); as t grows both sides t**2 near a diameter
    g = fgr.build([(0, 1, 2, 3), (4, 5, 6, 7)], [(0, 4), (1, 5), (2, 6), (3, 7)])
    sides = (t * t, t * t, t, 1.0)
    ref = geo.refine_to_trivalent(g, geo.lambda_assignment(sides))
    with mpmath.workdps(50):
        a, b, c, d = map(mpmath.mpf, sides)
        exact = mpmath.sqrt((a * c + b * d) * (a * d + b * c) / (a * b + c * d))
        assert all(abs(ref.lam[e] - exact) <= 1e-15 * exact for e in ref.new_edges)


def test_refine_identity_on_trivalent(theta):
    lam = geo.lambda_assignment([1, 1, 1])
    ref = geo.refine_to_trivalent(theta, lam)
    assert ref.graph == theta and ref.new_edges == ()


def test_refine_collapse_recovers_input():
    # the one-vertex genus-2 spine
    spine = ([(0, 1, 2, 3, 4, 5, 6, 7)], [(0, 2), (1, 3), (4, 6), (5, 7)])
    genus2 = load("genus2.fg")
    cases = [
        (fgr.build(*spine), [1.0, 1.2, 0.8, 1.1]),
        # trivalent vertices beside a 4-valent one
        (fgr.collapse_edge(genus2, genus2.edge_by_label("r")), [1.0] * 8),
        # the first fan edge would be d4, so it becomes _d4
        (fgr.build(*spine, ["e0", "e1", "e2", "d4"]), [1.0, 1.2, 0.8, 1.1]),
    ]
    for g, weights in cases:
        assert fgr.topology(g) == (2, 1)
        lam = geo.lambda_assignment(weights)
        ref = geo.refine_to_trivalent(g, lam)
        assert ref.graph.is_trivalent()
        assert fgr.topology(ref.graph) == (2, 1)
        coords = geo.simplicial_coords(ref.graph, ref.lam)
        for e in ref.new_edges:
            assert abs(coords[e]) < 1e-10
        for e in range(ref.graph.n_edges):
            assert coords[e] > -1e-10
        back = ref.graph
        for label in [ref.graph.label(e) for e in ref.new_edges]:
            back = fgr.collapse_edge(back, back.edge_by_label(label))
        assert fgr.is_isomorphic(back, g)
        assert sorted(back.edge_labels) == sorted(g.edge_labels)


def test_refine_rejects_triangle_violation():
    # two 4-valent vertices joined by four parallel edges
    g = fgr.build([(0, 1, 2, 3), (4, 5, 6, 7)],
                  [(0, 4), (1, 5), (2, 6), (3, 7)])
    with pytest.raises(DomainError, match="[Tt]riangle"):
        geo.refine_to_trivalent(g, geo.lambda_assignment([5.0, 1.0, 1.0, 1.0]))
    ref = geo.refine_to_trivalent(g, geo.lambda_assignment([1.0, 1.0, 1.0, 1.0]))
    assert ref.graph.is_trivalent()
    assert fgr.topology(ref.graph) == fgr.topology(g)


def test_numpy_runs_only_when_needed():
    # the library calls behind screens, detect, ij-check, sweep, check-cell and trace never
    # execute numpy, also where a trace or a sweep row reruns in mpf; inversion does
    code = (
        "import sys\n"
        "from fatscreens import asymptotics as asy, fatgraph as fgr, geometry as geo\n"
        "from fatscreens import holonomy as hol, screens as scn\n"
        "g = fgr.parse_fatgraph(open(sys.argv[1]).read())\n"
        "for s in scn.enumerate_screens(g):\n"
        "    fam = scn.depth_family(s)\n"
        "    asy.detect_short_curves(g, fam)\n"
        "    asy.ij_check(g, fam)\n"
        "    asy.sweep(g, fam, scn.screen_boundary(scn.screen_of_exponents(g, fam)))\n"
        "lam = geo.lambda_assignment([1000.0, 1000.0, 1.0])\n"
        "coords = geo.simplicial_coords(g, lam)\n"
        "geo.no_vanishing_cycle(g, coords, geo.default_zero_tol(coords))\n"
        "for steps in ((0, 4), (0, 4, 0, 5), (0, 5, 1, 5)):\n"
        "    hol.hyp_length_from_gap(hol.trace_gap_of_path(g, lam, fgr.EdgePath(steps)))\n"
        "print('numpy.linalg' in sys.modules)\n"
        "geo.invert_coords(g, geo.simplicial([1.0] * g.n_edges))\n"
        "print('numpy.linalg' in sys.modules)\n")
    src = str(Path(geo.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(DATA / "theta.fg")],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["False", "True"]


def test_lazy_import_of_a_missing_module():
    # a module that is not installed imports as a stand-in; its first use names the module
    name = "fatscreens_no_such_module"
    module = geo._lazy_import(name)
    assert name not in sys.modules
    with pytest.raises(ModuleNotFoundError, match=f"No module named '{name}'") as exc:
        module.linalg
    assert exc.value.name == name
