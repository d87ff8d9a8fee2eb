"""Screens: laminar families of recurrent edge subsets.

A screen on a fatgraph with edge set E is a family of subsets containing E
in which every member is recurrent, any two members are nested or disjoint,
and no member is the union of its proper sub-members.  Screens index the
ways a one-parameter family of edge weights can degenerate; the bridge in
both directions is monomial: a screen yields exponents equal to member
depths, and exponents yield a screen through the filtration by strictly
faster growth.

Parents (immediate predecessors) and depths come from one pass over the
size-sorted family; a member is the union of its sub-members exactly when
its disjoint children's sizes sum to its own.  A member's relative boundary
is the set difference of its canonical faces and its parent's.  Enumeration
is a clique search over bitmasks of the later candidates nested in or
disjoint from each candidate, carrying the maximal picked members (roots);
it records each screen after its extensions (post-order), already sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError
# subgraph, boundary_cycles, reduce_path, canonical_path and is_recurrent stay
# bound here for perfbench's tracer, which wraps them at this site
from .fatgraph import (CurveSystem, EdgeSubset, Fatgraph, _curve_set, _edge_subset,
                       _subset_faces, boundary_cycles, canonical_path, curve_system,
                       is_boundary_parallel, is_recurrent, recurrent_subsets, reduce_path,
                       subgraph)


def _member_key(a: frozenset) -> tuple:
    return len(a), tuple(sorted(a))


def _sorted_family(fam: Iterable[frozenset]) -> tuple[frozenset, ...]:
    return tuple(sorted(fam, key=_member_key))


@dataclass(frozen=True)
class Screen:
    """A family of edge subsets on an ambient graph, stored canonically sorted."""

    graph: Fatgraph = field(compare=False)
    family: tuple[EdgeSubset, ...] = ()

    def __post_init__(self):
        _edge_subset(self.graph, frozenset().union(*self.family))

    def __iter__(self) -> Iterator[EdgeSubset]:
        return iter(self.family)

    def __len__(self) -> int:
        return len(self.family)


def screen(g: Fatgraph, family: Iterable[Iterable[int]]) -> Screen:
    """Normalize a family into a Screen, adding the full edge set."""
    fam = {frozenset(a) for a in family}
    fam.add(g.all_edges())
    return Screen(g, _sorted_family(fam))


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
    for a in s.family:
        if not a or not is_recurrent(g, a):
            return ScreenCheck(False, "ii", (a,),
                               f"member {sorted(a)} is not recurrent")
    for i, a in enumerate(s.family):
        for b in s.family[i + 1:]:
            if not _nested_or_disjoint(a, b):
                return ScreenCheck(False, "iii", (a, b),
                                   f"members {sorted(a)} and {sorted(b)} overlap without nesting")
    # laminar now: a member is the union of its disjoint children or of nothing
    filled = dict.fromkeys(s.family, 0)
    for a, (parent, _) in _depths(s).items():
        if parent is not None:
            filled[parent] += len(a)
    for a in s.family:
        if filled[a] == len(a):
            return ScreenCheck(False, "iv", (a,),
                               f"member {sorted(a)} is the union of its proper sub-members")
    return ScreenCheck(True)


def _connected_edge_components(g: Fatgraph, edges: EdgeSubset) -> list[EdgeSubset]:
    """Edge sets of the connected components of the induced subgraph."""
    root = list(range(g.n_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    ends = {e: [g._vertex_of[h] for h in g.edge_halves[e]] for e in edges}
    for u, v in ends.values():
        root[find(u)] = find(v)
    comps: dict[int, set[int]] = {}
    for e, (u, _) in ends.items():
        comps.setdefault(find(u), set()).add(e)
    return [frozenset(c) for c in comps.values()]


def enumerate_screens(g: Fatgraph, max_edges: int = 12) -> list[Screen]:
    """All screens whose members induce connected subgraphs, in a fixed order.

    Members are required connected so that the depth-exponent round trip is
    exact: the filtration recovered from growth exponents always splits
    members into connected components.  A family with a disconnected member
    still passes ``validate_screen``; it describes the same degeneration as
    its componentwise refinement, which this enumeration does produce.
    """
    n = g.n_edges
    if n > max_edges:
        raise DomainError(f"edge count {n} exceeds enumeration bound {max_edges}")
    top = g.all_edges()
    candidates = sorted((a for a in recurrent_subsets(g)
                         if a != top and len(_connected_edge_components(g, a)) == 1),
                        key=_member_key)
    # bit j of compatible[i]: a later candidate j nests with or is disjoint from i
    compatible = [sum(1 << j for j in range(i + 1, len(candidates))
                      if _nested_or_disjoint(a, candidates[j]))
                  for i, a in enumerate(candidates)]
    found: list[Screen] = []

    # roots are the maximal picked members, pairwise disjoint.  Candidates come
    # in member-key order, so a new one contains every picked member it meets
    # and no later one lies inside it: its children, and (iv) for it, are fixed.
    def extend(allowed: int, picked: tuple[EdgeSubset, ...], roots: list[EdgeSubset]) -> None:
        if sum(map(len, roots)) == n:
            return    # the top is the union of the roots in every extension
        while allowed:
            i = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            a = candidates[i]
            if sum(len(r) for r in roots if r <= a) == len(a):
                continue    # a is the union of its children in every extension
            extend(allowed & compatible[i], (*picked, a), [r for r in roots if not r <= a] + [a])
        found.append(Screen(g, (*picked, top)))    # after its extensions: sorted order

    extend((1 << len(candidates)) - 1, (), [])
    return found


# ---------------------------------------------------------------------------
# Depth structure
# ---------------------------------------------------------------------------

def _depths(s: Screen) -> dict[EdgeSubset, tuple[EdgeSubset | None, int]]:
    """Each member's parent (None for the top) and depth, in one pass.

    Sorted by size, a member's first later superset is its smallest one, the
    immediate predecessor.  Walking from the largest member down, every
    parent's depth is known before its children's.
    """
    fam = sorted(s.family, key=len)
    table: dict[EdgeSubset, tuple[EdgeSubset | None, int]] = {}
    for i in reversed(range(len(fam))):
        a = fam[i]
        parent = next((b for b in fam[i + 1:] if a < b), None)
        table[a] = (parent, 0 if parent is None else table[parent][1] + 1)
    return table


def _parent_and_depth(s: Screen, member: EdgeSubset) -> tuple[EdgeSubset | None, int]:
    member = frozenset(member)
    table = _depths(s)
    if member not in table:
        raise DomainError(f"{sorted(member)} is not a member of the screen")
    return table[member]


def immediate_predecessor(s: Screen, member: EdgeSubset) -> EdgeSubset:
    """The unique minimal member strictly containing the given one."""
    parent, _ = _parent_and_depth(s, member)
    if parent is None:
        raise DomainError("the full edge set has no predecessor")
    return parent


def depth_of_member(s: Screen, member: EdgeSubset) -> int:
    return _parent_and_depth(s, member)[1]


def depth_of_edge(s: Screen, e: int) -> int:
    if not (0 <= e < s.graph.n_edges):
        raise DomainError(f"unknown edge id {e}")
    return max(d for a, (_, d) in _depths(s).items() if e in a)


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------

def _relative_faces(g: Fatgraph, member: EdgeSubset, faces: set, parent_faces: set) -> set:
    """The member's canonical faces not parallel to a parent face: not equal to one,
    as a recurrent member's faces are efficient simple cycles.  Off a valid screen
    faces may backtrack; those are reduced and compared with powers."""
    if is_recurrent(g, member):
        return faces - parent_faces
    return set(curve_system(g, [p for p in faces if not is_boundary_parallel(g, p, parent_faces)],
                            check=False))


def relative_boundary(s: Screen, member: EdgeSubset) -> CurveSystem:
    """Faces of a member's subsurface not parallel to its immediate predecessor's."""
    g = s.graph
    parent = immediate_predecessor(s, member)
    return _curve_set(g, _relative_faces(g, member, _subset_faces(g, member),
                                         _subset_faces(g, parent)))


def screen_boundary(s: Screen) -> CurveSystem:
    """Union of the relative boundaries of all non-top members, each face walked once."""
    g = s.graph
    faces = {a: _subset_faces(g, a) for a in s.family}
    return _curve_set(g, set().union(*(_relative_faces(g, a, faces[a], faces[parent])
                                       for a, (parent, _) in _depths(s).items()
                                       if parent is not None)))


# ---------------------------------------------------------------------------
# Monomial families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialFamily:
    """One-parameter weights t**p_e with exact rational exponents per edge."""

    exponents: tuple[Fraction, ...]

    def __getitem__(self, e: int) -> Fraction:
        return self.exponents[e]

    def __len__(self) -> int:
        return len(self.exponents)


def monomial_family(exponents: Iterable[Fraction | int | str]) -> MonomialFamily:
    return MonomialFamily(tuple(Fraction(p) for p in exponents))


def depth_family(s: Screen) -> MonomialFamily:
    """Exponent of each edge equal to the depth of the deepest member holding it."""
    depth = [0] * s.graph.n_edges
    for a, (_, d) in _depths(s).items():
        for e in a:
            depth[e] = max(depth[e], d)
    return MonomialFamily(tuple(Fraction(d) for d in depth))


def screen_of_exponents(g: Fatgraph, fam: MonomialFamily) -> Screen:
    """Screen candidate read off from growth exponents.

    Stage p of the filtration holds the edges with exponent above p, for each
    distinct exponent p read from the top down; the family collects the
    connected components of every stage.  Recurrence of the members is not
    checked here, so the result may fail ``validate_screen`` when the
    exponents do not come from a valid degeneration.
    """
    if len(fam) != g.n_edges:
        raise DomainError("one exponent per edge required")
    level: dict[Fraction, list[int]] = {}
    for e, p in enumerate(fam.exponents):
        level.setdefault(p, []).append(e)
    family: set[EdgeSubset] = {g.all_edges()}
    stage: set[int] = set()
    for p in sorted(level, reverse=True):
        family.update(_connected_edge_components(g, frozenset(stage)))
        stage.update(level[p])
    return Screen(g, _sorted_family(family))
