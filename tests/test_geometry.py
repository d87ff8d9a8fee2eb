"""Weight geometry: Ptolemy, coordinates, inversion, lifts, polygons."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens.errors import DomainError

from conftest import DATA, load, random_in_cell_lambda, random_trivalent


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
    assert geo.cross_ratio(theta, lam, 0) == pytest.approx(1 / 16)
    assert geo.cross_ratio(theta, lam, 1) == pytest.approx(16.0)
    ones = geo.lambda_assignment([1, 1, 1])
    for h in range(6):
        assert geo.cross_ratio(theta, ones, h) == pytest.approx(1.0)


def test_cross_ratio_fourth_point_against_lift():
    # the map sending the first three corner directions to 0, 1, infinity
    # places the fourth at -(l23*l14)/(l12*l34); cone radii drop out of the
    # cross ratio, so only the boundary angles and the pairings enter
    rng = random.Random(63)
    for _ in range(50):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))[::-1]
        radii = [rng.uniform(0.4, 2.5) for _ in range(4)]
        us = [geo.MinkowskiVector(r * math.cos(t), r * math.sin(t), r)
              for t, r in zip(angles, radii)]
        lam = {(i, j): math.sqrt(-us[i].pair(us[j]))
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
            sec = geo.Sector(cyc[i], cyc[(i + 1) % 3])
            assert geo.h_length(theta, ones, sec) == 1.0
    lam = geo.lambda_assignment([3.0, 4.0, 5.0])
    sec = geo.Sector(0, 1)   # adjacent weights 3, 4; opposite 5
    assert geo.h_length(theta, lam, sec) == pytest.approx(5 / 12)
    lam_b = geo.lambda_assignment([2.0, 3.0, 2.0])
    loop_sec = geo.Sector(0, 1)  # both slots on the loop, opposite the bridge
    assert geo.h_length(barbell, lam_b, loop_sec) == pytest.approx(3 / 4)


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


def test_no_vanishing_cycle_refuses_nan_tolerance(theta):
    # weights 1, 1, 3 lie outside the cell: the third coordinate is -14/3
    coords = geo.simplicial_coords(theta, geo.lambda_assignment([1, 1, 3]))
    assert not geo.no_vanishing_cycle(theta, coords)
    for tol in (math.nan, -1e-9):
        with pytest.raises(DomainError, match="tolerance must be nonnegative"):
            geo.no_vanishing_cycle(theta, coords, tol)


# -- the quad-slot reader against the sigma definition ------------------------------

def sigma_slots(g, h):
    """Edges (a, b, c, d) at sigma(h), sigma^2(h), sigma(h'), sigma^2(h'), h' = iota(h)."""
    h2 = g.pairing(h)
    return tuple(g.edge_of(s) for s in (g.sigma(h), g.sigma(g.sigma(h)),
                                        g.sigma(h2), g.sigma(g.sigma(h2))))


def reference_end_term(g, lam, h):
    e = lam[g.edge_of(h)]
    a = lam[g.edge_of(g.sigma(h))]
    b = lam[g.edge_of(g.sigma(g.sigma(h)))]
    return (a * a + b * b - e * e) / (a * b * e)


def test_quad_slots_follow_sigma(generated_trivalent):
    for g in generated_trivalent:
        for h in range(g.n_half_edges):
            assert geo.quad_slots(g, h) == sigma_slots(g, h)
            assert g._step_table[h][3:] == sigma_slots(g, h)


def test_simplicial_coords_match_end_term_reference(generated_trivalent):
    rng = random.Random(57)
    for g in generated_trivalent:
        for _ in range(5):
            lam = geo.lambda_assignment([10 ** rng.uniform(-4, 4) for _ in range(g.n_edges)])
            want = tuple(reference_end_term(g, lam, h1) + reference_end_term(g, lam, h2)
                         for h1, h2 in g.edge_halves)
            assert geo.simplicial_coords(g, lam).values == want


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
        with pytest.raises(DomainError, match="one initial weight per edge"):
            geo.invert_coords(theta, geo.simplicial([2, 2, 2]),
                              initial=geo.lambda_assignment(initial))
    with pytest.raises(DomainError, match="negative"):
        geo.invert_coords(theta, geo.simplicial([-1, 2, 2]))
    with pytest.raises(DomainError, match="vanishing"):
        geo.invert_coords(theta, geo.simplicial([0, 0, 2]))
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            geo.invert_coords(theta, geo.simplicial([2, 2, 2]), tol=tol)


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


def test_newton_system_matches_loop_reference(newton_graphs):
    # many draws on the small graphs: only at barbell's loops does the order of
    # the sums show, and there only for some weights
    rng = random.Random(41)
    for g in newton_graphs.values():
        ends = geo._end_tables(g)
        for _ in range(100 if g.n_edges < 30 else 3):
            lam = np.exp([rng.uniform(-3.0, 3.0) for _ in range(g.n_edges)])
            coords, jac = geo._coords_and_jacobian(ends, lam)
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
        ends = geo._end_tables(g)
        for _ in range(3):
            lam = np.exp([rng.uniform(-2.0, 2.0) for _ in range(g.n_edges)])
            _, jac = geo._coords_and_jacobian(ends, lam)
            assert np.max(np.abs(jac - jac.T)) <= 1e-12 * np.max(np.abs(jac))
            assert np.linalg.eigvalsh(jac).max() < 0


def sector_sum(g, lam):
    return sum(geo.h_length(g, lam, geo.Sector(cyc[i], cyc[(i + 1) % 3]))
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


# -- telescoping ----------------------------------------------------------------------

def test_telescoping_theta_values(theta):
    ones = geo.lambda_assignment([1, 1, 1])
    (bc,) = fgr.boundary_cycles(theta)
    assert geo.telescoping_sides(theta, ones, bc) == (12.0, 12.0)
    assert geo.telescoping_sides(theta, ones, fgr.EdgePath((0, 4))) == (4.0, 4.0)
    for t in (2.0, 10.0, 100.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        a, b = geo.telescoping_sides(theta, lam, fgr.EdgePath((0, 4)))
        assert a == pytest.approx(b, rel=1e-12)


def test_telescoping_rejects_backtracks(theta):
    with pytest.raises(DomainError, match="efficient"):
        geo.telescoping_sides(theta, geo.lambda_assignment([1, 1, 1]),
                              fgr.EdgePath((0, 5, 2, 4)))


# -- Minkowski lifts ---------------------------------------------------------------------

def test_minkowski_lift_pairings():
    u1, u2, u3 = geo.minkowski_lift((3, 4, 5))
    assert u1.pair(u2) == pytest.approx(-9, rel=1e-12)
    assert u1.pair(u3) == pytest.approx(-16, rel=1e-12)
    assert u2.pair(u3) == pytest.approx(-25, rel=1e-12)
    for u in (u1, u2, u3):
        assert abs(u.pair(u)) < 1e-12
        assert u.z > 0


def test_minkowski_lift_random():
    rng = random.Random(101)
    for _ in range(200):
        lam = [rng.uniform(0.1, 4) for _ in range(3)]
        u1, u2, u3 = geo.minkowski_lift(lam)
        got = [math.sqrt(-u1.pair(u2)), math.sqrt(-u1.pair(u3)), math.sqrt(-u2.pair(u3))]
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
        assert geo.is_elliptic_section((a, b, c)) == strict
        checked += 1


# -- tetrahedron volume ---------------------------------------------------------------

def quad_expression(q: geo.QuadLambdas) -> float:
    e = q.diag_13
    return ((q.s12 ** 2 + q.s23 ** 2 - e ** 2) / (q.s12 * q.s23 * e)
            + (q.s41 ** 2 + q.s34 ** 2 - e ** 2) / (q.s41 * q.s34 * e))


def test_tetra_volume_all_ones_quad():
    q = geo.QuadLambdas(1, 1, 1, 1, 1, 2)    # Ptolemy: 1*2 = 1 + 1
    vol = geo.tetra_volume_sign(q)
    prod = q.s12 * q.s23 * q.s34 * q.s41
    assert vol / (2 * math.sqrt(2) * prod) == pytest.approx(2.0, rel=1e-12)
    assert quad_expression(q) == 2.0


def test_tetra_volume_random_quads():
    rng = random.Random(55)
    for _ in range(100):
        # generate consistent weights from four clockwise points on the cone
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))[::-1]
        radii = [rng.uniform(0.4, 2.5) for _ in range(4)]
        us = [geo.MinkowskiVector(r * math.cos(t), r * math.sin(t), r)
              for t, r in zip(angles, radii)]
        lam = {}
        for i in range(4):
            for j in range(i + 1, 4):
                lam[(i, j)] = math.sqrt(-us[i].pair(us[j]))
        q = geo.QuadLambdas(lam[(0, 1)], lam[(1, 2)], lam[(2, 3)], lam[(0, 3)],
                            lam[(0, 2)], lam[(1, 3)])
        vol = geo.tetra_volume_sign(q)
        prod = q.s12 * q.s23 * q.s34 * q.s41
        # the identity is exact; the comparison loses digits to cancellation
        # in the two-term expression, so the tolerance scales with prod
        assert vol == pytest.approx(2 * math.sqrt(2) * prod * quad_expression(q),
                                    rel=1e-6, abs=1e-8 * (1 + prod))
        flipped = geo.tetra_volume_sign(q.swapped_diagonals())
        if abs(vol) > 1e-9:
            assert flipped * vol < 0


def test_tetra_volume_coplanar_is_zero():
    # unit square inscribed in a circle: all four lift points are coplanar
    s = 1.0
    d = math.sqrt(2.0)
    q = geo.QuadLambdas(s, s, s, s, d, d)
    assert abs(geo.tetra_volume_sign(q)) < 1e-10


def test_tetra_volume_rejects_inconsistent():
    with pytest.raises(DomainError, match="Ptolemy"):
        geo.tetra_volume_sign(geo.QuadLambdas(1, 1, 1, 1, 1, 1))


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


def test_refine_identity_on_trivalent(theta):
    lam = geo.lambda_assignment([1, 1, 1])
    ref = geo.refine_to_trivalent(theta, lam)
    assert ref.graph == theta and ref.new_edges == ()


def test_refine_collapse_recovers_input():
    g = fgr.build([(0, 1, 2, 3, 4, 5, 6, 7)],
                  [(0, 2), (1, 3), (4, 6), (5, 7)])   # one-vertex genus-2 spine
    assert fgr.topology(g) == (2, 1)
    lam = geo.lambda_assignment([1.0, 1.2, 0.8, 1.1])
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
    # screens, traces and detection never execute numpy; inversion does
    code = (
        "import sys\n"
        "from fatscreens import asymptotics as asy, fatgraph as fgr, geometry as geo\n"
        "from fatscreens import screens as scn\n"
        "g = fgr.parse_fatgraph(open(sys.argv[1]).read())\n"
        "for s in scn.enumerate_screens(g):\n"
        "    asy.detect_short_curves(g, scn.depth_family(s))\n"
        "print('numpy.linalg' in sys.modules)\n"
        "geo.invert_coords(g, geo.simplicial([1.0] * g.n_edges))\n"
        "print('numpy.linalg' in sys.modules)\n")
    src = str(Path(geo.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(DATA / "theta.fg")],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["False", "True"]
