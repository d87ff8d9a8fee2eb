"""Combinatorial layer: parsing, faces, recurrence, weights, moves."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from fatscreens import fatgraph as fgr
from fatscreens import serialize as ser
from fatscreens.errors import DomainError, FormatError

from conftest import (DATA, all_rotations, essential_curve_pool, load,
                      random_fatgraph)

THETA_TEXT = """\
fatgraph v1
v 0 : 0 1 2
v 1 : 3 4 5
e e0 : 0 3
e e1 : 1 4
e e2 : 2 5
"""


# -- parsing ------------------------------------------------------------------

def test_parse_theta_roundtrip():
    g = fgr.parse_fatgraph(THETA_TEXT)
    assert g.n_vertices == 2 and g.n_edges == 3
    assert g.edge_labels == ("e0", "e1", "e2")
    assert fgr.parse_fatgraph(fgr.fatgraph_to_text(g)) == g


def test_parse_fixed_point_rejected():
    bad = "fatgraph v1\nv 0 : 0 1\ne e0 : 0 0\n"
    with pytest.raises(FormatError, match="[Ff]ixed point"):
        fgr.parse_fatgraph(bad)


def test_parse_disconnected_rejected():
    bad = ("fatgraph v1\n"
           "v 0 : 0 1\nv 1 : 2 3\n"
           "e e0 : 0 1\ne e1 : 2 3\n")
    with pytest.raises(FormatError, match="disconnected"):
        fgr.parse_fatgraph(bad)


def test_parse_duplicate_half_edge_rejected():
    bad = "fatgraph v1\nv 0 : 0 1 2 3\ne e0 : 0 1\ne e1 : 0 3\n"
    with pytest.raises(FormatError, match="duplicate half-edge"):
        fgr.parse_fatgraph(bad)


def test_parse_error_carries_line_number():
    bad = "fatgraph v1\nv 0 : 0 1\nnonsense here\ne e0 : 0 1\n"
    with pytest.raises(FormatError, match="line 3"):
        fgr.parse_fatgraph(bad)


# -- boundary cycles and topology ----------------------------------------------

@pytest.mark.parametrize("name,cycles,genus,punctures", [
    ("theta.fg", 1, 1, 1),
    ("theta_planar.fg", 3, 0, 3),
    ("mercedes.fg", 4, 0, 4),
    ("genus2.fg", 1, 2, 1),
    ("barbell.fg", 3, 0, 3),
    ("loop.fg", 2, 0, 2),
    ("wedge.fg", 1, 1, 1),
    ("path.fg", 1, 0, 1),
])
def test_census(name, cycles, genus, punctures):
    g = load(name)
    assert len(fgr.boundary_cycles(g)) == cycles
    assert fgr.topology(g) == (genus, punctures)


def test_theta_boundary_cycle_has_six_steps(theta):
    (cycle,) = fgr.boundary_cycles(theta)
    assert len(cycle) == 6


def test_face_trace_completeness(trivalent_corpus):
    for g in trivalent_corpus.values():
        steps = [s for c in fgr.boundary_cycles(g) for s in c.steps]
        assert sorted(steps) == list(range(g.n_half_edges))


def test_euler_consistency_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_fatgraph(rng.randint(1, 6), rng)
        genus, punctures = fgr.topology(g)
        assert g.n_vertices - g.n_edges == 2 - 2 * genus - punctures


# -- subgraphs -----------------------------------------------------------------

def test_subgraph_restriction(theta):
    sub = fgr.subgraph(theta, {0, 1})
    assert sub.graph.n_vertices == 2
    assert all(sub.graph.valence(v) == 2 for v in range(2))
    single = fgr.subgraph(theta, {0})
    assert all(single.graph.valence(v) == 1 for v in range(2))
    full = fgr.subgraph(theta, {0, 1, 2})
    assert fgr.is_isomorphic(full.graph, theta)
    with pytest.raises(DomainError):
        fgr.subgraph(theta, set())


def test_subgraph_may_disconnect(genus2):
    # a recurrent subset can induce two components
    comps = None
    for mask in range(1, 1 << genus2.n_edges):
        sub = frozenset(e for e in range(genus2.n_edges) if mask >> e & 1)
        if not fgr.is_recurrent(genus2, sub):
            continue
        s = fgr.subgraph(genus2, sub)
        halves = set(range(s.graph.n_half_edges))
        reach = {0}
        stack = [0]
        while stack:
            h = stack.pop()
            for nb in (s.graph.sigma(h), s.graph.pairing(h)):
                if nb not in reach:
                    reach.add(nb)
                    stack.append(nb)
        if reach != halves:
            comps = sub
            break
    assert comps is not None


# -- recurrence ------------------------------------------------------------------

def test_recurrence_basics(theta, barbell):
    assert fgr.is_recurrent(theta, {0, 1})
    assert not fgr.is_recurrent(theta, {0})
    assert fgr.is_recurrent(barbell, {0})          # a loop alone is recurrent
    assert fgr.is_recurrent(barbell, {0, 1, 2})
    assert not fgr.is_recurrent(barbell, {0, 1})   # loop plus dangling bridge
    # a negative id must not index the edge table from the end
    for bad in ({-1, 0}, {0, 3}):
        with pytest.raises(DomainError, match=r"unknown edge ids \[(-1|3)\]"):
            fgr.is_recurrent(theta, bad)


def test_maximal_recurrent_subset(theta, barbell):
    assert fgr.maximal_recurrent_subset(theta, {0, 1, 2}) == {0, 1, 2}
    tree = load("path.fg")
    assert fgr.maximal_recurrent_subset(tree, {0, 1}) == frozenset()
    assert fgr.maximal_recurrent_subset(barbell, {0, 1, 2}) == {0, 1, 2}
    assert fgr.maximal_recurrent_subset(barbell, {0, 1}) == {0}
    assert fgr.maximal_recurrent_subset(theta, set()) == frozenset()
    for bad in ({-1, 0}, {0, 3}):
        with pytest.raises(DomainError, match="unknown edge ids"):
            fgr.maximal_recurrent_subset(theta, bad)


def test_closure_operator_properties():
    rng = random.Random(23)
    for _ in range(40):
        g = random_fatgraph(rng.randint(2, 6), rng)
        edges = list(range(g.n_edges))
        a = frozenset(e for e in edges if rng.random() < 0.6)
        b = a | frozenset(e for e in edges if rng.random() < 0.3)
        ra = fgr.maximal_recurrent_subset(g, a)
        assert ra <= a
        assert fgr.maximal_recurrent_subset(g, ra) == ra
        assert ra <= fgr.maximal_recurrent_subset(g, b)


def test_witness_cycles(theta, barbell):
    w = fgr.recurrent_witness_cycles(theta, {0, 1})
    assert set(w) == {0, 1}
    for e, path in w.items():
        assert fgr.is_efficient(theta, path)
        fgr.check_closed_path(theta, path)
        assert e in fgr.path_edges(theta, path)
        assert fgr.path_edges(theta, path) <= {0, 1}
    assert fgr.recurrent_witness_cycles(theta, {0}) is None
    wb = fgr.recurrent_witness_cycles(barbell, {0, 1, 2})
    bridge = wb[1]
    assert Counter(barbell.edge_of(s) for s in bridge.steps)[1] == 2
    for bad in ({-1, 0}, {0, 3}):
        with pytest.raises(DomainError, match="unknown edge ids"):
            fgr.recurrent_witness_cycles(theta, bad)
    with pytest.raises(DomainError, match="empty edge subset"):
        fgr.recurrent_witness_cycles(theta, set())


def test_recurrence_oracle_equivalence_small():
    # pruning test == exhaustive path search, over distinct 3-edge shapes
    seen = set()
    for g in all_rotations(3):
        key = fgr.canonical_form(g)
        if key in seen:
            continue
        seen.add(key)
        for mask in range(1, 1 << g.n_edges):
            sub = frozenset(e for e in range(g.n_edges) if mask >> e & 1)
            assert fgr.is_recurrent(g, sub) == (
                fgr.recurrent_witness_cycles(g, sub) is not None)


# -- weights ----------------------------------------------------------------------

def test_weights_admissible(theta):
    assert fgr.weights_admissible(theta, {0: 2, 1: 2, 2: 2})
    assert not fgr.weights_admissible(theta, {0: 1, 1: 1, 2: 1})
    assert fgr.weights_admissible(theta, {})


def test_weights_to_multicurve_counts(theta):
    for mu in ({0: 2, 1: 2, 2: 2}, {0: 2, 1: 2, 2: 0}, {0: 4, 1: 2, 2: 2}):
        curves = fgr.weights_to_multicurve(theta, mu)
        counts = Counter(theta.edge_of(s) for p in curves for s in p.steps)
        assert {e: counts.get(e, 0) for e in range(3)} == mu
        for p in curves:
            assert fgr.is_efficient(theta, p)
    assert fgr.weights_to_multicurve(theta, {}) == []
    with pytest.raises(DomainError):
        fgr.weights_to_multicurve(theta, {0: 1, 1: 1, 2: 1})


def test_weights_to_multicurve_random():
    rng = random.Random(5)
    done = 0
    while done < 60:
        g = random_fatgraph(rng.randint(1, 5), rng)
        mu = {e: rng.randint(0, 3) for e in range(g.n_edges)}
        if not fgr.weights_admissible(g, mu):
            continue
        done += 1
        curves = fgr.weights_to_multicurve(g, mu)
        counts = Counter(g.edge_of(s) for p in curves for s in p.steps)
        assert {e: counts.get(e, 0) for e in range(g.n_edges)} == mu
        for p in curves:
            assert fgr.is_efficient(g, p)
            fgr.check_closed_path(g, p)


def test_recurrent_iff_doubled_indicator_admissible():
    rng = random.Random(17)
    for _ in range(60):
        g = random_fatgraph(rng.randint(1, 6), rng)
        sub = frozenset(e for e in range(g.n_edges) if rng.random() < 0.6)
        if not sub:
            continue
        mu = {e: 2 for e in sub}
        assert fgr.is_recurrent(g, sub) == fgr.weights_admissible(g, mu)


# -- path reduction and parallelism ------------------------------------------------

def test_reduce_path(theta, barbell):
    assert fgr.reduce_path(theta, fgr.EdgePath((0, 3))) is None
    cyc = fgr.EdgePath((0, 4))
    assert fgr.reduce_path(theta, cyc) == cyc
    # insert a backtrack through e2 and reduce it away
    noisy = fgr.EdgePath((0, 5, 2, 4))
    assert not fgr.is_efficient(theta, noisy)
    red = fgr.reduce_path(theta, noisy)
    assert fgr.canonical_path(theta, red) == fgr.canonical_path(theta, cyc)
    # backtracks across the cyclic seam, between the last step and the first
    assert fgr.reduce_path(theta, fgr.EdgePath((5, 0, 4, 2))) == cyc
    assert (fgr.reduce_path(barbell, ser.parse_curve(barbell, "br+ l2+ br-"))
            == ser.parse_curve(barbell, "l2+"))


def test_reduce_idempotent_random(trivalent_corpus):
    rng = random.Random(3)
    for g in trivalent_corpus.values():
        for p in essential_curve_pool(g):
            red = fgr.reduce_path(g, p)
            assert fgr.reduce_path(g, red) == red
            canon = fgr.canonical_path(g, red)
            assert fgr.canonical_path(g, canon) == canon


def test_boundary_parallel(theta):
    (bc,) = fgr.boundary_cycles(theta)
    assert fgr.is_boundary_parallel(theta, bc)
    assert fgr.is_boundary_parallel(theta, fgr.EdgePath(bc.steps * 2))
    assert not fgr.is_boundary_parallel(theta, fgr.EdgePath((0, 4)))
    # invariance under rotation and reversal
    rot = fgr.EdgePath(bc.steps[2:] + bc.steps[:2])
    rev = fgr.EdgePath(tuple(theta.pairing(s) for s in reversed(bc.steps)))
    assert fgr.is_boundary_parallel(theta, rot)
    assert fgr.is_boundary_parallel(theta, rev)


# -- subset boundary -----------------------------------------------------------------

def test_subset_boundary_theta(theta):
    curves = fgr.subset_boundary(theta, {0, 1})
    assert len(curves) == 1
    assert curves.curves[0] == fgr.canonical_path(theta, fgr.EdgePath((0, 4)))
    assert len(fgr.subset_boundary(theta, {0, 1, 2})) == 0
    with pytest.raises(DomainError):
        fgr.subset_boundary(theta, {0})
    for bad in ({-1, 0, 1}, {0, 1, 3}):
        with pytest.raises(DomainError, match="unknown edge ids"):
            fgr.subset_boundary(theta, bad)


def test_subset_boundary_puncture_parallel_circle(theta_planar):
    # every 2-edge circle in the planar theta is parallel to a puncture
    for sub in ({0, 1}, {0, 2}, {1, 2}):
        assert len(fgr.subset_boundary(theta_planar, sub)) == 0


def test_subset_faces_match_subgraph():
    # the ambient face walk equals the faces of the built sub-fatgraph
    for path in sorted(DATA.glob("*.fg")):
        g = fgr.parse_fatgraph(path.read_text())
        for a in fgr.recurrent_subsets(g):
            sub = fgr.subgraph(g, a)
            want = {fgr.canonical_path(g, fgr.EdgePath(tuple(sub.to_parent_half[h]
                                                             for h in cyc.steps)))
                    for cyc in fgr.boundary_cycles(sub.graph)}
            assert fgr._subset_faces(g, a) == want, (path.name, sorted(a))


# -- whitehead moves and collapses ----------------------------------------------------

def test_whitehead_preserves_shape(theta):
    for e in range(3):
        mv = fgr.whitehead_move(theta, e)
        assert mv.graph.n_edges == 3 and mv.graph.n_vertices == 2
        assert fgr.topology(mv.graph) == (1, 1)
        twice = fgr.whitehead_move(mv.graph, e)
        assert fgr.is_isomorphic(twice.graph, theta)


def test_whitehead_rejects_loops_and_high_valence(barbell):
    with pytest.raises(DomainError, match="loop"):
        fgr.whitehead_move(barbell, 0)
    tree = load("path.fg")
    with pytest.raises(DomainError, match="trivalent"):
        fgr.whitehead_move(tree, 0)


def test_whitehead_recurrence_transport(trivalent_corpus):
    # a recurrent subset stays recurrent after absorbing the flipped edge
    for g in trivalent_corpus.values():
        for e in range(g.n_edges):
            hu, hw = g.halves(e)
            if g.vertex_of(hu) == g.vertex_of(hw):
                continue
            mv = fgr.whitehead_move(g, e)
            for mask in range(1, 1 << g.n_edges):
                sub = frozenset(x for x in range(g.n_edges) if mask >> x & 1)
                if not fgr.is_recurrent(g, sub):
                    continue
                dropped = sub - {e}
                ok = (dropped and fgr.is_recurrent(mv.graph, dropped)) or \
                    fgr.is_recurrent(mv.graph, dropped | {e})
                assert ok, (sorted(sub), e)


def test_collapse_edge(theta):
    wedge = fgr.collapse_edge(theta, 2)
    assert wedge.n_vertices == 1 and wedge.n_edges == 2
    assert fgr.topology(wedge) == (1, 1)
    assert fgr.is_isomorphic(wedge, load("wedge.fg"))
    with pytest.raises(DomainError, match="loop"):
        fgr.collapse_edge(load("barbell.fg"), 0)


def test_collapse_recurrence_transport(trivalent_corpus):
    for g in trivalent_corpus.values():
        for e in range(g.n_edges):
            hu, hw = g.halves(e)
            if g.vertex_of(hu) == g.vertex_of(hw):
                continue
            collapsed = fgr.collapse_edge(g, e)
            relabel = {}
            for e2 in range(g.n_edges):
                if e2 != e:
                    relabel[e2] = collapsed.edge_by_label(g.label(e2))
            for mask in range(1, 1 << g.n_edges):
                sub = frozenset(x for x in range(g.n_edges) if mask >> x & 1)
                if not fgr.is_recurrent(g, sub):
                    continue
                dropped = frozenset(relabel[x] for x in sub if x != e)
                if dropped:
                    assert fgr.is_recurrent(collapsed, dropped)


def test_collapse_spanning_tree(genus2):
    g = genus2
    # collapse non-loop edges until none remain: one vertex survives
    while True:
        for e in range(g.n_edges):
            a, b = g.halves(e)
            if g.vertex_of(a) != g.vertex_of(b):
                g = fgr.collapse_edge(g, e)
                break
        else:
            break
    assert g.n_vertices == 1
    assert fgr.topology(g) == (2, 1)


def test_transport_path_keeps_curve_class(theta):
    mv = fgr.whitehead_move(theta, 2)
    curve = fgr.EdgePath((0, 4))
    moved = fgr.transport_path(theta, mv, curve)
    fgr.check_closed_path(mv.graph, moved)
    assert fgr.is_efficient(mv.graph, moved)
    back = fgr.transport_path(mv.graph, fgr.whitehead_move(mv.graph, 2), moved)
    assert fgr.canonical_path(theta, back) == fgr.canonical_path(theta, curve)
