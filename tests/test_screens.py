"""Screens: validation, enumeration, depth, boundaries, exponent bridges."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import screens as scn
from fatscreens.errors import DomainError

from conftest import CENSUS12, DATA, _cycles_of_permutation, load, random_fatgraph, random_trivalent


def family_sets(s: scn.Screen) -> set[frozenset]:
    return set(s.family)


# -- validation ---------------------------------------------------------------

def test_validate_ok(theta):
    s = scn.screen(theta, [{0, 1}])
    assert scn.validate_screen(s).ok


def test_validate_condition_ii(theta):
    s = scn.Screen(theta, scn._sorted_family(theta, {frozenset({0}), theta.all_edges()}))
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
               if len(scn._member(genus2, sub).components) == 1]
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
    s = scn.Screen(theta, scn._sorted_family(theta, {frozenset({0, 1})}))
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
                         if a != top and len(scn._member(g, a).components) == 1),
                        key=scn._member_key)
    families = []

    def extend(start, chosen):
        if reference_union_member(chosen + [top]) is None:
            families.append(tuple(sorted(set(chosen) | {top}, key=scn._member_key)))
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
    assert s._depths[member] == (theta.all_edges(), 1)
    assert s._depths[theta.all_edges()] == (None, 0)
    assert scn.depth_family(s).exponents == (1, 1, 0)
    with pytest.raises(DomainError) as err:
        scn.relative_boundary(s, theta.all_edges())
    assert str(err.value) == "the full edge set has no predecessor"
    with pytest.raises(DomainError) as err:
        scn.relative_boundary(s, frozenset({2, 1}))
    assert str(err.value) == "[1, 2] is not a member of the screen"


def test_three_level_nest(mercedes):
    deep = [s for s in scn.enumerate_screens(mercedes)
            if max(d for _, d in s._depths.values()) >= 2]
    assert deep
    s = deep[0]
    chain = [a for a, (_, d) in s._depths.items() if d == 2]
    mid = s._depths[chain[0]][0]
    assert mid == reference_predecessor(s, chain[0])
    assert s._depths[mid][1] == 1


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
    return fgr.curve_system(g, keep)


def reference_recurrent(g, edges):
    """Every vertex that the subset meets, it meets in at least two half-edges."""
    met = [g.vertex_of(h) for e in edges for h in g.halves(e)]
    return all(met.count(v) >= 2 for v in met)


def check_laminar_pass(s):
    """The table the enumeration seeded equals the references, and holds what a fresh
    screen's scan fills, in the same insertion order."""
    g, top = s.graph, s.graph.all_edges()
    depth = {a: reference_depth(s, a) for a in s.family}
    for a in s.family:
        assert s._depths[a] == (None if a == top else reference_predecessor(s, a), depth[a])
    assert list(s._depths.items()) == list(scn.Screen(g, s.family)._depths.items())
    want = [max(depth[a] for a in s.family if e in a) for e in range(g.n_edges)]
    assert scn.depth_family(s).exponents == tuple(Fraction(d) for d in want)


def test_laminar_pass_matches_definitions(screen_corpus, census12):
    graphs = list(generated_graphs())
    ends = [[{g.vertex_of(h) for h in g.halves(e)} for e in range(g.n_edges)] for g in graphs]
    assert any(len(v) == 1 for row in ends for v in row)                                # a loop
    assert any(len(v) == 2 and row.count(v) > 1 for row in ends for v in row)           # parallel edges
    assert {1, 2, 3, 4} <= {g.valence(v) for g in graphs for v in range(g.n_vertices)}
    for g in [*screen_corpus.values(), *graphs]:
        masks = [frozenset(e for e in range(g.n_edges) if mask >> e & 1)
                 for mask in range(1, 1 << g.n_edges)]
        assert [fgr.is_recurrent(g, a) for a in masks] == [reference_recurrent(g, a) for a in masks]
        assert list(fgr.recurrent_subsets(g)) == sorted(
            (a for a in masks if reference_recurrent(g, a)), key=scn._member_key)
        for s in scn.enumerate_screens(g):
            check_laminar_pass(s)
            for a in s.family:
                if a != g.all_edges():
                    assert scn.relative_boundary(s, a) == reference_relative_boundary(s, a)
    # census12's trees, on a seeded sample of its 6656 screens
    for s in random.Random(73).sample(scn.enumerate_screens(census12), 300):
        check_laminar_pass(s)


# -- the member table against fresh walks ------------------------------------------------

def reference_components(g, edges):
    """Connected components of the induced subgraph, by a local union-find."""
    root = list(range(g.n_vertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for e in edges:
        u, v = (find(g.vertex_of(h)) for h in g.halves(e))
        root[u] = v
    comps = {}
    for e in edges:
        comps.setdefault(find(g.vertex_of(g.halves(e)[0])), set()).add(e)
    return {frozenset(c) for c in comps.values()}


def test_union_find_matches_references(census12, generated_fatgraphs):
    # fatgraph's one union-find gives a member's components and the forest test of the zero
    # coordinates: against the local union-find above and the rank rule, by which an edge
    # set F holds a cycle exactly when |F| + c(F) > |V(F)|, for V(F) the vertices F touches
    # and c(F) its components.  Every subset up to 10 edges, 200 seeded ones past that
    rng = random.Random(41)
    corpus = [load(p.name) for p in sorted(DATA.glob("*.fg"))]
    kinds = set()
    for g in [*corpus, census12, *generated_fatgraphs]:
        n = g.n_edges
        masks = range(1, 1 << n) if n <= 10 else (rng.getrandbits(n) or 1 for _ in range(200))
        for mask in masks:
            edges = frozenset(e for e in range(n) if mask >> e & 1)
            components = reference_components(g, edges)
            assert sorted(scn._member(g, edges).components, key=min) == sorted(components, key=min)
            touched = {g.vertex_of(h) for e in edges for h in g.halves(e)}
            cycle = len(edges) + len(components) > len(touched)
            zeros = geo.simplicial([0.0 if e in edges else 1.0 for e in range(n)])
            assert geo.no_vanishing_cycle(g, zeros) is not cycle, (g.edge_labels, sorted(edges))
            ends = {frozenset(map(g.vertex_of, g.halves(e))) for e in edges}
            if cycle and len(edges) == len(touched) == 1:
                kinds.add("loop")
            if cycle and len(edges) == len(touched) == 2 and len(ends) == 1:
                kinds.add("parallel pair")
    assert kinds == {"loop", "parallel pair"}


def reference_screen_of_exponents(g, fam):
    family = {g.all_edges()}
    for p in set(fam.exponents):
        stage = frozenset(e for e in range(g.n_edges) if fam.exponents[e] > p)
        family |= reference_components(g, stage)
    return tuple(sorted(family, key=scn._member_key))


def reference_check_ok(s):
    g = s.graph
    family = list(s.family)
    return (g.all_edges() in family
            and all(a and fgr.is_recurrent(g, a) for a in family)
            and all(scn._nested_or_disjoint(a, b) for a in family for b in family)
            and reference_union_member(family) is None)


def test_member_table_matches_fresh_walk(screen_corpus):
    rng = random.Random(5)
    for g in screen_corpus.values():
        top = g.all_edges()
        for s in scn.enumerate_screens(g):
            depth = {a: reference_depth(s, a) for a in s.family}
            relative = {}
            for a in s.family:
                if a != top:
                    faces = fgr._subset_faces(g, a) - fgr._subset_faces(g, reference_predecessor(s, a))
                    relative[a] = fgr._curve_set(faces)
                    assert scn.relative_boundary(s, a) == relative[a]
            assert scn.screen_boundary(s) == fgr._curve_set(
                set().union(*(set(c.curves) for c in relative.values())))
            assert scn.validate_screen(s).ok and reference_check_ok(s)
            want = [max(depth[a] for a in s.family if e in a) for e in range(g.n_edges)]
            fam = scn.depth_family(s)
            assert fam.exponents == tuple(Fraction(d) for d in want)
            assert scn.screen_of_exponents(g, fam).family == reference_screen_of_exponents(g, fam)
            assert reference_screen_of_exponents(g, fam) == s.family
        # candidates off the screens: condition (ii) fails for many of them
        for _ in range(100):
            fam = scn.monomial_family([Fraction(rng.randint(0, 3), rng.randint(1, 2))
                                       for _ in range(g.n_edges)])
            cand = scn.screen_of_exponents(g, fam)
            assert cand.family == reference_screen_of_exponents(g, fam)
            assert scn.validate_screen(cand).ok == reference_check_ok(cand)


def test_member_table_holds_recurrent_subsets_only(theta, theta_planar):
    g = fgr.parse_fatgraph((DATA / "genus2.fg").read_text())
    rng = random.Random(8)
    for _ in range(500):
        fam = scn.monomial_family([Fraction(rng.randint(-2, 3), rng.randint(1, 3))
                                   for _ in range(g.n_edges)])
        cand = scn.screen_of_exponents(g, fam)
        scn.validate_screen(cand)
        scn.screen_boundary(cand)
    assert g._members
    assert set(g._members) <= set(fgr.recurrent_subsets(g))
    # the same edge ids under other rotations: each graph has its own entries
    pair, top = frozenset({0, 1}), theta.all_edges()
    assert top == theta_planar.all_edges()
    found = [len(scn.relative_boundary(scn.screen(h, [pair]), pair)) for h in (theta, theta_planar)]
    assert found == [1, 0]
    for h in (theta, theta_planar):
        assert h._members[top].faces == fgr._subset_faces(h, top)
    assert theta._members[top].faces != theta_planar._members[top].faces


def test_enumerated_screens_skip_the_id_check(theta, monkeypatch):
    calls = []

    def counted(g, edges):
        calls.append(edges)
        return fgr._edge_subset(g, edges)

    monkeypatch.setattr(scn, "_edge_subset", counted)
    screens = scn.enumerate_screens(theta)
    assert len(screens) == 4 and not calls
    assert scn.Screen(theta, screens[0].family) == screens[0] and not calls
    # a member the table does not hold is checked as before
    for bad in ({0, 3}, {-1, 0}):
        with pytest.raises(DomainError, match="unknown edge ids"):
            scn.Screen(theta, (frozenset({0, 1}), frozenset(bad), theta.all_edges()))
    assert len(calls) == 2


# -- integer exponent levels against Fractions -------------------------------------------

def reference_depths(s):
    """Each member's smallest proper superset in the family (the first in family order
    among equal sizes; None for a maximal member) and the length of its parent chain."""
    parent = {a: min((b for b in s.family if a < b), key=len, default=None) for a in s.family}

    def depth(a):
        return 0 if parent[a] is None else depth(parent[a]) + 1

    return {a: (parent[a], depth(a)) for a in s.family}


def fraction_depth_family(s):
    """Depths as new Fractions, each edge's the max over the members holding it."""
    depth = [0] * s.graph.n_edges
    for a, (_, d) in reference_depths(s).items():
        for e in a:
            depth[e] = max(depth[e], d)
    return scn.MonomialFamily(tuple(Fraction(d) for d in depth))


def fraction_screen_of_exponents(g, fam):
    """The filtration with levels keyed by (numerator, denominator), ordered through their lcm."""
    level = {}
    for e, p in enumerate(fam.exponents):
        level.setdefault((p.numerator, p.denominator), []).append(e)
    unit = math.lcm(*(d for _, d in level))
    family, stage = {g.all_edges()}, set()
    for n, d in sorted(level, key=lambda nd: nd[0] * (unit // nd[1]), reverse=True)[:-1]:
        stage.update(level[n, d])
        family |= reference_components(g, frozenset(stage))
    return tuple(sorted(family, key=scn._member_key))


def fraction_tau_exponents(fam):
    unit = 2 * math.lcm(*(p.denominator for p in fam.exponents))
    return unit, [p.numerator * (unit // p.denominator) for p in fam.exponents]


def assert_levels_match_fractions(g, fam):
    unit, levels = fam._levels
    assert all(type(k) is int and Fraction(k, unit) == p for k, p in zip(levels, fam.exponents))
    assert fam._levels == scn.MonomialFamily(fam.exponents)._levels    # seeded or computed
    assert scn.screen_of_exponents(g, fam).family == fraction_screen_of_exponents(g, fam)
    assert asy._tau_exponents(fam) == fraction_tau_exponents(fam)


def test_depth_family_levels_on_every_screen(screen_corpus, census12):
    for g in (*screen_corpus.values(), census12):
        for s in scn.enumerate_screens(g):
            fam = scn.depth_family(s)
            assert fam == fraction_depth_family(s)
            assert all(type(p) is Fraction for p in fam.exponents)
            assert fam._levels == (1, tuple(map(int, fam.exponents)))
            assert_levels_match_fractions(g, fam)
            assert scn.screen_of_exponents(g, fam).family == s.family


def test_levels_of_mixed_negative_and_zero_exponents(screen_corpus):
    rng = random.Random(73)
    for g in screen_corpus.values():
        n = g.n_edges
        families = [scn.monomial_family([0] * n), scn.MonomialFamily(tuple(range(-1, n - 1))),
                    scn.monomial_family(["5/6", "-1/3", "0"] * (n // 3))]
        for _ in range(200):
            families.append(scn.monomial_family(
                [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(n)]))
        for fam in families:
            assert_levels_match_fractions(g, fam)
            cand = scn.screen_of_exponents(g, fam)
            assert scn.validate_screen(cand) == reference_validate_screen(cand)


def random_direct_screens(g, rng, count):
    """Screens built directly from families in random order: recurrent subsets that may
    overlap, now and then two disjoint ones with their union, a subset that is not
    recurrent or the empty set, and the top now and then left out."""
    recurrent = list(fgr.recurrent_subsets(g))
    masks = [frozenset(e for e in range(g.n_edges) if m >> e & 1) for m in range(1 << g.n_edges)]
    for _ in range(count):
        fam = set(rng.sample(recurrent, rng.randint(1, min(4, len(recurrent)))))
        a = rng.choice(recurrent)
        apart = [b for b in recurrent if not a & b]
        if apart and rng.random() < 0.3:
            b = rng.choice(apart)
            fam = {a, b, a | b} | set(rng.sample(sorted(fam, key=scn._member_key), 1))
        if rng.random() < 0.3:
            fam.add(rng.choice(masks))
        if rng.random() < 0.8:
            fam.add(g.all_edges())
        fam = list(fam)
        rng.shuffle(fam)
        yield scn.Screen(g, tuple(fam))


def reference_validate_screen(s):
    """The four conditions in order, with fresh recurrence tests and no member table."""
    g = s.graph
    top = g.all_edges()
    if top not in s.family:
        return scn.ScreenCheck(False, "i", (top,), "full edge set missing from family")
    for a in s.family:
        if not a or not fgr.is_recurrent(g, a):
            return scn.ScreenCheck(False, "ii", (a,), f"member {sorted(a)} is not recurrent")
    for i, a in enumerate(s.family):
        for b in s.family[i + 1:]:
            if not scn._nested_or_disjoint(a, b):
                return scn.ScreenCheck(False, "iii", (a, b),
                                       f"members {sorted(a)} and {sorted(b)} overlap without nesting")
    filled = dict.fromkeys(s.family, 0)
    for a, (parent, _) in reference_depths(s).items():
        if parent is not None:
            filled[parent] += len(a)
    for a in s.family:
        if filled[a] == len(a):
            return scn.ScreenCheck(False, "iv", (a,),
                                   f"member {sorted(a)} is the union of its proper sub-members")
    return scn.ScreenCheck(True)


def reference_screen_boundary(s):
    """Each member's faces off its parent's, from fresh face walks and recurrence tests."""
    g, faces = s.graph, set()
    for a, (parent, _) in reference_depths(s).items():
        if parent is None:
            continue
        mine, theirs = fgr._subset_faces(g, a), fgr._subset_faces(g, parent)
        if fgr.is_recurrent(g, a):
            faces |= mine - theirs
        else:
            faces |= set(fgr.curve_system(g, [p for p in mine
                                              if not fgr.is_boundary_parallel(g, p, theirs)]))
    return fgr._curve_set(faces)


def test_unsorted_and_non_laminar_screens(screen_corpus):
    rng = random.Random(79)
    conditions = set()
    for g in screen_corpus.values():
        for s in random_direct_screens(g, rng, 300):
            assert s._depths == reference_depths(s)
            fam = scn.depth_family(s)
            assert fam == fraction_depth_family(s)
            assert_levels_match_fractions(g, fam)
            check = scn.validate_screen(s)
            assert check == reference_validate_screen(s)
            conditions.add(check.condition)
            if all(s.family):
                assert scn.screen_boundary(s) == reference_screen_boundary(s)
        # the relative-face memo keys recurrent parents only, as the member table does
        assert all(p in g._members for m in g._members.values() for p in m.relative)
    assert conditions == {None, "i", "ii", "iii", "iv"}


# -- the member table's keys and relative faces -------------------------------------------

def test_member_table_keys_sort_like_member_key(genus2):
    scn.enumerate_screens(genus2)
    members = genus2._members
    assert all(m.key == scn._member_key(a) for a, m in members.items())
    # a family with a member the table does not store: a subset that is not recurrent
    loose = next(a for a in (frozenset({e}) for e in range(genus2.n_edges)) if a not in members)
    fam = {loose, *sorted(members, key=scn._member_key)[::7]}
    assert scn._sorted_family(genus2, fam) == tuple(sorted(fam, key=scn._member_key))
    s = scn.screen(genus2, fam)
    assert s.family == tuple(sorted(fam | {genus2.all_edges()}, key=scn._member_key))
    assert scn.validate_screen(s) == reference_validate_screen(s)
    assert loose not in members


def test_relative_face_memo_on_census12(census12):
    g = census12
    pairs = set()
    for s in scn.enumerate_screens(g):
        scn.screen_boundary(s)
        pairs |= {(a, p) for a, (p, _) in s._depths.items() if p is not None}
    for a, p in pairs:
        m = g._members[a]
        assert m.relative[p] == m.faces - g._members[p].faces
        assert m.relative[p] == fgr._subset_faces(g, a) - fgr._subset_faces(g, p)
        assert scn._relative_faces(g, a, p) is m.relative[p]


def test_enumeration_makes_member_entries_for_connected_subsets_only():
    # 113 of census12's 174 recurrent subsets are disconnected: their components are
    # counted without the face walk of a member entry
    g = fgr.parse_fatgraph(CENSUS12.read_text())
    assert len(scn.enumerate_screens(g)) == 6656
    assert g.all_edges() in g._members
    assert len(g._members) == 61
    assert all(len(m.components) == 1 for m in g._members.values())
    disconnected = [a for a in fgr.recurrent_subsets(g) if a not in g._members]
    assert len(disconnected) == 113
    assert all(len(scn._member(g, a).components) > 1 for a in disconnected)


def test_validate_screen_reports_the_first_violation_as_before(theta, genus2):
    circles = [a for a in fgr.recurrent_subsets(genus2) if len(scn._member(genus2, a).components) == 1]
    a, b = next((a, b) for a in circles for b in circles
                if not (a & b) and fgr.is_recurrent(genus2, a | b))
    cases = [scn.Screen(theta, (frozenset({0, 1}),)),                           # (i)
             scn.Screen(theta, (theta.all_edges(), frozenset({0}))),            # (ii)
             scn.Screen(theta, (frozenset(), theta.all_edges())),               # (ii), empty
             scn.screen(theta, [{0, 1}, {1, 2}]),                               # (iii)
             scn.screen(genus2, [a, b, a | b])]                                 # (iv)
    conditions = []
    for s in cases:
        check = scn.validate_screen(s)
        assert check == reference_validate_screen(s)
        conditions.append(check.condition)
    assert conditions == ["i", "ii", "ii", "iii", "iv"]
