"""Screens: laminar families of recurrent edge subsets.

A screen on a fatgraph with edge set E is a family of subsets containing E
in which every member is recurrent, any two members are nested or disjoint,
and no member is the union of its proper sub-members.  Screens index the
ways a one-parameter family of edge weights can degenerate; the bridge in
both directions is monomial: a screen yields exponents equal to member
depths, and exponents yield a screen through the filtration by strictly
faster growth.

Each graph keeps one member table, filled on first use, from a recurrent
edge subset to its canonical faces, components, sort key and relative
boundaries (faces minus the parent's) per recurrent parent.  It stores no
other subset (valid screens' members and depth-filtration stages are all
recurrent), so it never outgrows the graph's recurrent subsets.  A monomial
family keeps its exponents as int levels in steps of 1/lcm of their
denominators.  A screen from any producer but ``enumerate_screens`` finds
its parents (immediate predecessors) and depths once, in one pass over the
size-sorted family; a member is the union of its sub-members exactly when
its disjoint children's sizes sum to its own.

Enumeration runs on int edge masks (bit e for edge e): the recurrent-subset
scan yields them in member-key order, and the candidates keep it.  A clique
search runs over the candidates' masks and bitmasks of the later candidates
nested in or disjoint from each one, carrying the maximal picked members
(roots).  A new pick's children are the roots inside it, so the search knows
each screen's parents; it records each screen after its extensions
(post-order), already sorted, with its parent and depth table filled in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import DomainError
# subgraph, boundary_cycles, reduce_path, canonical_path and is_recurrent stay
# bound here for perfbench's tracer, which wraps them at this site
from .fatgraph import (CurveSystem, EdgePath, EdgeSubset, Fatgraph, _curve_set, _edge_subset,
                       _mask_edges, _one_per_edge, _recurrent_masks, _subset_faces, _union_find,
                       boundary_cycles, canonical_path, curve_system, is_boundary_parallel,
                       is_recurrent, reduce_path, subgraph)

MAX_ENUMERATION_EDGES = 12      # default of enumerate_screens and ``screens --max-edges``
_DEPTHS = tuple(map(Fraction, range(MAX_ENUMERATION_EDGES)))     # depth_family's exponents


def _member_key(a: frozenset) -> tuple:
    return len(a), tuple(sorted(a))


def _sorted_family(g: Fatgraph, fam: Iterable[frozenset]) -> tuple[frozenset, ...]:
    members = g._members
    return tuple(sorted(fam, key=lambda a: members[a].key if a in members else _member_key(a)))


@dataclass(frozen=True)
class Screen:
    """A family of edge subsets on an ambient graph, stored canonically sorted."""

    graph: Fatgraph = field(compare=False)
    family: tuple[EdgeSubset, ...] = ()

    def __post_init__(self):
        # the member table holds only subsets whose edge ids were checked
        if not all(map(self.graph._members.__contains__, self.family)):
            _edge_subset(self.graph, frozenset().union(*self.family))

    @cached_property
    def _depths(self) -> dict[EdgeSubset, tuple[EdgeSubset | None, int]]:
        """Each member's parent (its first later superset in size order; None for
        the top) and depth, filled from the largest member down.  ``enumerate_screens``
        seeds the same table from its search."""
        fam = sorted(self.family, key=len)
        table: dict[EdgeSubset, tuple[EdgeSubset | None, int]] = {}
        for i in reversed(range(len(fam))):
            a = fam[i]
            parent = next(filter(a.__lt__, fam[i + 1:]), None)     # the first b with a < b
            table[a] = (parent, 0 if parent is None else table[parent][1] + 1)
        return table


def screen(g: Fatgraph, family: Iterable[Iterable[int]]) -> Screen:
    """Normalize a family into a Screen, adding the full edge set."""
    fam = {frozenset(a) for a in family}
    fam.add(g.all_edges())
    return Screen(g, _sorted_family(g, fam))


@dataclass(frozen=True)
class ScreenCheck:
    ok: bool
    condition: str | None = None
    witness: tuple = ()
    message: str = "ok"


def _nested_or_disjoint(a: EdgeSubset, b: EdgeSubset) -> bool:
    return not (a & b) or a <= b or b <= a


def validate_screen(s: Screen) -> ScreenCheck:
    """Check the four screen conditions; report the first violation."""
    g = s.graph
    top = g.all_edges()
    if top not in s.family:
        return ScreenCheck(False, "i", (top,), "full edge set missing from family")
    for a in s.family:      # the member table holds recurrent subsets only
        if a not in g._members and (not a or not is_recurrent(g, a)):
            return ScreenCheck(False, "ii", (a,),
                               f"member {sorted(a)} is not recurrent")
    for i, a in enumerate(s.family):
        for b in s.family[i + 1:]:
            if not _nested_or_disjoint(a, b):
                return ScreenCheck(False, "iii", (a, b),
                                   f"members {sorted(a)} and {sorted(b)} overlap without nesting")
    # laminar now: a member is the union of its disjoint children or of nothing
    filled = dict.fromkeys(s.family, 0)
    for a, (parent, _) in s._depths.items():
        if parent is not None:
            filled[parent] += len(a)
    for a in s.family:
        if filled[a] == len(a):
            return ScreenCheck(False, "iv", (a,),
                               f"member {sorted(a)} is the union of its proper sub-members")
    return ScreenCheck(True)


class _Member(NamedTuple):
    faces: frozenset[EdgePath]
    components: tuple[EdgeSubset, ...]
    key: tuple                                          # _member_key
    relative: dict[EdgeSubset, frozenset[EdgePath]]     # faces - parent's, per recurrent parent


def _components(g: Fatgraph, edges: EdgeSubset) -> tuple[EdgeSubset, ...]:
    """The edge sets of the subgraph's connected components."""
    find, components = _union_find(g, edges)[0], {}
    for e in edges:     # grouped by the root of the edge's first end
        components.setdefault(find(g._vertex_of[g.edge_halves[e][0]]), []).append(e)
    return tuple(map(frozenset, components.values()))


def _member(g: Fatgraph, edges: EdgeSubset) -> _Member:
    """A nonempty edge subset's entry in ``g``'s member table, made on first use;
    a subset that is not recurrent gets a fresh entry, not stored."""
    entry = g._members.get(edges)
    if entry is None:
        recurrent = is_recurrent(g, edges)      # refuses unknown ids and the empty set
        entry = _Member(frozenset(_subset_faces(g, edges)), _components(g, edges),
                        _member_key(edges), {})
        if recurrent:
            g._members[edges] = entry
    return entry


def enumerate_screens(g: Fatgraph, max_edges: int = MAX_ENUMERATION_EDGES) -> list[Screen]:
    """All screens whose members induce connected subgraphs, in a fixed order.

    Members are required connected so that the depth-exponent round trip is
    exact: the filtration recovered from growth exponents always splits
    members into connected components.  A family with a disconnected member
    still passes ``validate_screen``; it describes the same degeneration as
    its componentwise refinement, which this enumeration does produce.

    The search runs on the int edge masks of the recurrent-subset scan.  A
    subset's components are counted before it gets a member entry, so only the
    connected ones, the top included, get entries here.  Each screen comes
    with its parent and depth table filled in, entry for entry and in the
    order that ``Screen``'s own scan fills it: a pick's children are the
    roots inside it, and the top's are the roots left.
    """
    n = g.n_edges
    if n > max_edges:
        raise DomainError(f"edge count {n} exceeds enumeration bound {max_edges}")
    top, full = g.all_edges(), (1 << n) - 1
    masks, candidates = [], []
    for mask in _recurrent_masks(g):
        edges = _mask_edges(mask)
        entry = g._members.get(edges)
        # only a connected subset, the top too, gets an entry here: no face walk for the others
        if entry is None and len(_components(g, edges)) == 1:
            entry = _member(g, edges)
        if entry is not None and len(entry.components) == 1 and mask != full:
            masks.append(mask)
            candidates.append(edges)
    # bit j of compatible[i]: a later candidate j nests with or is disjoint from i.  No
    # later candidate lies inside an earlier one, so nesting means containing it.
    compatible = [sum(1 << j for j in range(i + 1, len(masks)) if masks[j] & a in (0, a))
                  for i, a in enumerate(masks)]
    found: list[Screen] = []

    # roots are the maximal picks, pairwise disjoint, as (mask, position in picked);
    # parents[k] is pick k's parent, the top while pick k is a root.  Candidates come in
    # member-key order, so a new pick contains every pick it meets and no later one lies
    # inside it: its children are the roots it meets, and (iv) for it is fixed.
    def extend(allowed: int, covered: int, picked: tuple[EdgeSubset, ...],
               parents: list[EdgeSubset], roots: list[tuple[int, int]]) -> None:
        if covered == full:
            return    # the top is the union of the roots in every extension
        while allowed:
            i = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            a, mask = candidates[i], masks[i]
            if covered & mask == mask:
                continue    # a is the union of its children in every extension
            new_parents, new_roots = [*parents, top], [(mask, len(picked))]
            for root in roots:
                if root[0] & mask:
                    new_parents[root[1]] = a
                else:
                    new_roots.append(root)
            extend(allowed & compatible[i], covered | mask, (*picked, a), new_parents, new_roots)
        depths = {top: (None, 0)}       # from the top down, as Screen._depths fills it
        for a, parent in zip(reversed(picked), reversed(parents)):
            depths[a] = (parent, depths[parent][1] + 1)
        s = Screen(g, (*picked, top))   # after its extensions: sorted order
        s.__dict__["_depths"] = depths  # seeds the cached property
        found.append(s)

    extend((1 << len(masks)) - 1, 0, (), [], [])
    del extend      # it refers to itself: the cycle would keep g alive until a collection
    return found


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------

def _relative_faces(g: Fatgraph, member: EdgeSubset, parent: EdgeSubset) -> frozenset:
    """The member's canonical faces not parallel to a parent face: not equal to one,
    as a recurrent member's faces are efficient simple cycles.  Off a valid screen
    faces may backtrack; those are reduced and compared with powers."""
    m = g._members.get(member) or _member(g, member)
    faces = m.relative.get(parent)
    if faces is None:
        parent_faces = _member(g, parent).faces
        if member not in g._members:    # not recurrent: _member stored no entry
            return frozenset(curve_system(g, [p for p in m.faces
                                              if not is_boundary_parallel(g, p, parent_faces)]))
        faces = m.faces - parent_faces
        if parent in g._members:    # the memo keys recurrent parents only, as the table does
            m.relative[parent] = faces
    return faces


def relative_boundary(s: Screen, member: EdgeSubset) -> CurveSystem:
    """Faces of a member's subsurface not parallel to its immediate predecessor's."""
    member = frozenset(member)
    if member not in s._depths:
        raise DomainError(f"{sorted(member)} is not a member of the screen")
    if (parent := s._depths[member][0]) is None:
        raise DomainError("the full edge set has no predecessor")
    return _curve_set(_relative_faces(s.graph, member, parent))


def screen_boundary(s: Screen) -> CurveSystem:
    """Union of the relative boundaries of all non-top members."""
    g = s.graph
    return _curve_set(frozenset().union(*(_relative_faces(g, a, parent)
                                          for a, (parent, _) in s._depths.items()
                                          if parent is not None)))


# ---------------------------------------------------------------------------
# Monomial families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialFamily:
    """One-parameter weights t**p_e with exact rational exponents per edge."""

    exponents: tuple[Fraction, ...]

    @cached_property
    def _levels(self) -> tuple[int, tuple[int, ...]]:
        """(unit, the exponents as ints in steps of 1/unit), unit the lcm of the denominators."""
        unit = math.lcm(*(p.denominator for p in self.exponents))
        return unit, tuple(p.numerator * (unit // p.denominator) for p in self.exponents)


def depth_family(s: Screen) -> MonomialFamily:
    """Exponent of each edge equal to the depth of the deepest member holding it."""
    depth = [0] * s.graph.n_edges
    for a, (_, d) in s._depths.items():
        for e in a:
            if d > depth[e]:
                depth[e] = d
    exponent = (*_DEPTHS, *map(Fraction, range(len(_DEPTHS), max(depth, default=0) + 1)))
    fam = MonomialFamily(tuple(map(exponent.__getitem__, depth)))
    fam.__dict__["_levels"] = (1, tuple(depth))     # seeds the cached property
    return fam


def screen_of_exponents(g: Fatgraph, fam: MonomialFamily) -> Screen:
    """Screen candidate read off from growth exponents.

    Stage p of the filtration holds the edges with exponent above p, for each
    distinct exponent p read from the top down; the family collects the
    connected components of every stage.  Recurrence of the members is not
    checked here, so the result may fail ``validate_screen`` when the
    exponents do not come from a valid degeneration.
    """
    _one_per_edge(g, fam.exponents, "exponent")
    levels = fam._levels[1]
    family: set[EdgeSubset] = {g.all_edges()}
    for p in sorted(set(levels), reverse=True)[1:]:
        stage = frozenset([e for e, k in enumerate(levels) if k > p])
        family.update(_member(g, stage).components)
    return Screen(g, _sorted_family(g, family))
