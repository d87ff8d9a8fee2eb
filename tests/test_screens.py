"""Screens: validation, enumeration, depth, boundaries, exponent bridges."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import screens as scn
from fatscreens.errors import DomainError

from conftest import _cycles_of_permutation, random_fatgraph, random_trivalent


def family_sets(s: scn.Screen) -> set[frozenset]:
    return set(s.family)


# -- validation ---------------------------------------------------------------

def test_validate_ok(theta):
    s = scn.screen(theta, [{0, 1}])
    assert scn.validate_screen(s).ok


def test_validate_condition_ii(theta):
    s = scn.Screen(theta, scn._sorted_family({frozenset({0}), theta.all_edges()}))
    check = scn.validate_screen(s)
    assert (check.ok, check.condition) == (False, "ii")
    assert frozenset({0}) in check.witness


def test_validate_condition_iii(theta):
    s = scn.screen(theta, [{0, 1}, {1, 2}])
    check = scn.validate_screen(s)
    assert (check.ok, check.condition) == (False, "iii")


def test_validate_condition_iv(genus2):
    # two disjoint recurrent circles whose union is a third member
    circles = [sub for sub in fgr.recurrent_subsets(genus2)
               if len(scn._connected_edge_components(genus2, sub)) == 1]
    pair = None
    for a in circles:
        for b in circles:
            if not (a & b) and fgr.is_recurrent(genus2, a | b):
                pair = (a, b)
                break
        if pair:
            break
    assert pair is not None
    a, b = pair
    s = scn.screen(genus2, [a, b, a | b])
    check = scn.validate_screen(s)
    assert check == scn.ScreenCheck(
        False, "iv", (a | b,), f"member {sorted(a | b)} is the union of its proper sub-members")
    # the top itself: two loops at one vertex
    eight = fgr.build([(0, 2, 1, 3)], [(0, 1), (2, 3)])
    check = scn.validate_screen(scn.screen(eight, [{0}, {1}]))
    assert check == scn.ScreenCheck(
        False, "iv", (frozenset({0, 1}),), "member [0, 1] is the union of its proper sub-members")


def test_validate_condition_i(theta):
    s = scn.Screen(theta, scn._sorted_family({frozenset({0, 1})}))
    check = scn.validate_screen(s)
    assert (check.ok, check.condition) == (False, "i")


def test_screen_rejects_unknown_edge_ids(theta):
    # an id past the last edge, and a negative one that would index from the end
    for bad in ({0, 3}, {-1, 0}):
        with pytest.raises(DomainError, match="unknown edge ids"):
            scn.Screen(theta, (frozenset(bad), theta.all_edges()))
        with pytest.raises(DomainError, match="unknown edge ids"):
            scn.screen(theta, [bad])


# -- enumeration ---------------------------------------------------------------

def test_enumerate_theta(theta):
    screens = scn.enumerate_screens(theta)
    families = [family_sets(s) for s in screens]
    top = theta.all_edges()
    assert {frozenset({0, 1}), top} in families
    assert {frozenset({0, 2}), top} in families
    assert {frozenset({1, 2}), top} in families
    assert {top} in families
    assert len(screens) == 4
    for s in screens:
        assert scn.validate_screen(s).ok


def test_enumerate_single_loop():
    loop = fgr.build([(0, 1)], [(0, 1)])
    screens = scn.enumerate_screens(loop)
    assert len(screens) == 1
    assert family_sets(screens[0]) == {frozenset({0})}


def test_enumerate_all_validate(screen_corpus):
    for g in screen_corpus.values():
        screens = scn.enumerate_screens(g)
        assert screens, "every recurrent graph carries the trivial screen"
        for s in screens:
            assert scn.validate_screen(s).ok


def test_enumerate_deterministic(mercedes):
    a = scn.enumerate_screens(mercedes)
    b = scn.enumerate_screens(mercedes)
    assert [s.family for s in a] == [s.family for s in b]


def reference_union_member(members):
    """The first member that is the union of the members strictly inside it."""
    for a in members:
        union: set = set()
        for b in members:
            if b < a:
                union |= b
        if union == a:
            return a
    return None


def reference_enumeration(g):
    """Screens grown candidate by candidate, each checked against every chosen one."""
    top = g.all_edges()
    candidates = sorted((a for a in fgr.recurrent_subsets(g)
                         if a != top and len(scn._connected_edge_components(g, a)) == 1),
                        key=scn._member_key)
    families = []

    def extend(start, chosen):
        if reference_union_member(chosen + [top]) is None:
            families.append(scn._sorted_family(set(chosen) | {top}))
        for i in range(start, len(candidates)):
            if all(scn._nested_or_disjoint(candidates[i], b) for b in chosen):
                extend(i + 1, chosen + [candidates[i]])

    extend(0, [])
    return sorted(families, key=lambda fam: tuple(sorted(scn._member_key(a) for a in fam)))


def generated_graphs():
    """Seeded graphs of up to 6 edges and trivalent ones of 9 edges."""
    rng = random.Random(11)
    yield from (random_fatgraph(n, rng) for n in (1, 2, 3, 4, 4, 5, 5, 6, 6, 6))
    yield from (random_trivalent(9, rng) for _ in range(3))


def test_enumerate_matches_reference(screen_corpus):
    for g in [*screen_corpus.values(), *generated_graphs()]:
        assert [s.family for s in scn.enumerate_screens(g)] == reference_enumeration(g)


def test_enumerate_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def fatgraphs(draw):
        # a random rotation on the standard pairing of up to 6 edges; the
        # reference needs seconds for a one-vertex graph of 6 edges
        n = draw(st.integers(1, 6))
        cycles = _cycles_of_permutation(draw(st.permutations(range(2 * n))))
        hypothesis.assume(n < 6 or len(cycles) > 1)
        try:
            return fgr.build(cycles, [(2 * i, 2 * i + 1) for i in range(n)])
        except DomainError:
            hypothesis.reject()

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(fatgraphs())
    def check(g):
        assert [s.family for s in scn.enumerate_screens(g)] == reference_enumeration(g)

    check()


def test_enumerate_bound():
    big = fgr.build([tuple(range(26))],
                    [(2 * i, 2 * i + 1) for i in range(13)])
    with pytest.raises(DomainError, match="bound"):
        scn.enumerate_screens(big)


def test_simple_cycles_are_atomic(screen_corpus):
    # members inducing a circle have no proper nonempty sub-members
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            for a in s.family:
                sub = fgr.subgraph(g, a)
                if all(sub.graph.valence(v) == 2 for v in range(sub.graph.n_vertices)):
                    assert not any(b < a for b in s.family)


# -- depth ----------------------------------------------------------------------

def test_depth_and_predecessor(theta):
    s = scn.screen(theta, [{0, 1}])
    member = frozenset({0, 1})
    assert scn.immediate_predecessor(s, member) == theta.all_edges()
    assert scn.depth_of_member(s, theta.all_edges()) == 0
    assert scn.depth_of_member(s, member) == 1
    assert scn.depth_of_edge(s, 0) == 1
    assert scn.depth_of_edge(s, 2) == 0
    with pytest.raises(DomainError):
        scn.immediate_predecessor(s, theta.all_edges())
    with pytest.raises(DomainError):
        scn.depth_of_member(s, frozenset({1, 2}))


def test_three_level_nest(mercedes):
    deep = [s for s in scn.enumerate_screens(mercedes)
            if max(scn.depth_of_member(s, a) for a in s.family) >= 2]
    assert deep
    s = deep[0]
    chain = [a for a in s.family if scn.depth_of_member(s, a) == 2]
    assert scn.depth_of_member(s, chain[0]) == 2
    mid = scn.immediate_predecessor(s, chain[0])
    assert scn.depth_of_member(s, mid) == 1


# -- boundaries -------------------------------------------------------------------

def test_relative_boundary_theta(theta):
    s = scn.screen(theta, [{0, 1}])
    curves = scn.relative_boundary(s, frozenset({0, 1}))
    assert [c.steps for c in curves] == [fgr.canonical_path(theta, fgr.EdgePath((0, 4))).steps]


def test_relative_boundary_drops_parallel_in_predecessor(theta_planar):
    s = scn.screen(theta_planar, [{0, 1}])
    assert scn.validate_screen(s).ok
    assert len(scn.relative_boundary(s, frozenset({0, 1}))) == 0


def test_screen_boundary_union(theta):
    assert len(scn.screen_boundary(scn.screen(theta, []))) == 0
    s = scn.screen(theta, [{0, 1}])
    assert len(scn.screen_boundary(s)) == 1


def test_screen_boundary_members_essential(screen_corpus):
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            curves = scn.screen_boundary(s)
            assert len(set(c.steps for c in curves)) == len(curves)
            for c in curves:
                assert not fgr.is_boundary_parallel(g, c)


def test_two_screens_share_boundary(mercedes):
    by_boundary: dict[tuple, list] = {}
    for s in scn.enumerate_screens(mercedes):
        curves = scn.screen_boundary(s)
        if len(curves) == 0:
            continue
        key = tuple(c.steps for c in curves)
        by_boundary.setdefault(key, []).append(s)
    assert any(len(v) >= 2 for v in by_boundary.values())


# -- monomial families ---------------------------------------------------------------

def test_depth_family_values(theta):
    s = scn.screen(theta, [{0, 1}])
    fam = scn.depth_family(s)
    assert fam.exponents == (Fraction(1), Fraction(1), Fraction(0))
    trivial = scn.screen(theta, [])
    assert scn.depth_family(trivial).exponents == (Fraction(0),) * 3


def test_screen_of_exponents(theta):
    fam = scn.monomial_family([1, 1, 0])
    s = scn.screen_of_exponents(theta, fam)
    assert family_sets(s) == {frozenset({0, 1}), theta.all_edges()}
    const = scn.screen_of_exponents(theta, scn.monomial_family([2, 2, 2]))
    assert family_sets(const) == {theta.all_edges()}
    # rational exponents compare exactly
    fam2 = scn.monomial_family([Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)])
    s2 = scn.screen_of_exponents(theta, fam2)
    assert family_sets(s2) == {frozenset({0, 1}), theta.all_edges()}


def test_screen_of_exponents_invalid_candidate(theta):
    s = scn.screen_of_exponents(theta, scn.monomial_family([1, 0, 0]))
    check = scn.validate_screen(s)
    assert not check.ok and check.condition == "ii"


def test_round_trip_all_screens(screen_corpus):
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            again = scn.screen_of_exponents(g, fam)
            assert again.family == s.family


def test_depth_families_stay_in_cell(screen_corpus):
    for g in screen_corpus.values():
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            for t in (2.0, 10.0, 100.0):
                lam = geo.lambda_assignment([t ** float(p) for p in fam.exponents])
                coords = geo.simplicial_coords(g, lam)
                assert min(coords.values) > 0.0


# -- equivalence with the direct definitions -------------------------------------------

def reference_predecessor(s, member):
    return min((a for a in s.family if member < a), key=len)


def reference_depth(s, member):
    depth, top = 0, s.graph.all_edges()
    while member != top:
        member = reference_predecessor(s, member)
        depth += 1
    return depth


def reference_relative_boundary(s, member):
    """Member boundary cycles minus powers of the predecessor's, one by one."""
    g = s.graph

    def parent_paths(edges):
        sub = fgr.subgraph(g, edges)
        return [fgr.EdgePath(tuple(sub.to_parent_half[x] for x in cyc.steps))
                for cyc in fgr.boundary_cycles(sub.graph)]

    pred_cycles = parent_paths(reference_predecessor(s, member))
    keep = []
    for path in parent_paths(member):
        red = fgr.reduce_path(g, path)
        if red is None:
            continue
        target = fgr.canonical_path(g, red)
        n = len(target)
        if any(n % len(cyc) == 0 and fgr.canonical_path(
                g, fgr.EdgePath(cyc.steps * (n // len(cyc)))) == target
               for cyc in pred_cycles):
            continue
        keep.append(red)
    return fgr.curve_system(g, keep, check=False)


def test_laminar_pass_matches_definitions(screen_corpus):
    for g in screen_corpus.values():
        top = g.all_edges()
        masks = [frozenset(e for e in range(g.n_edges) if mask >> e & 1)
                 for mask in range(1, 1 << g.n_edges)]
        assert list(fgr.recurrent_subsets(g)) == [a for a in masks if fgr.is_recurrent(g, a)]
        for s in scn.enumerate_screens(g):
            depth = {a: reference_depth(s, a) for a in s.family}
            for a in s.family:
                assert scn.depth_of_member(s, a) == depth[a]
                if a == top:
                    continue
                assert scn.immediate_predecessor(s, a) == reference_predecessor(s, a)
                assert scn.relative_boundary(s, a) == reference_relative_boundary(s, a)
            want = [max(depth[a] for a in s.family if e in a) for e in range(g.n_edges)]
            assert scn.depth_family(s).exponents == tuple(Fraction(d) for d in want)
            assert [scn.depth_of_edge(s, e) for e in range(g.n_edges)] == want
