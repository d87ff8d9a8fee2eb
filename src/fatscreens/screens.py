"""Screens: laminar families of recurrent edge subsets.

A screen on a fatgraph with edge set E is a family of subsets containing E
in which every member is recurrent, any two members are nested or disjoint,
and no member is the union of its proper sub-members.  Screens index the
ways a one-parameter family of edge weights can degenerate; the bridge in
both directions is monomial: a screen yields exponents equal to member
depths, and exponents yield a screen through the filtration by strictly
faster growth.

Parents (immediate predecessors) and depths come from one pass over the
size-sorted family; a member's relative boundary is its subsurface boundary
minus the curves parallel to its parent's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DomainError
# reduce_path and canonical_path stay bound here for perfbench's tracer, which wraps them
from .fatgraph import (CurveSystem, EdgePath, EdgeSubset, Fatgraph, boundary_cycles,
                       canonical_path, curve_system, is_boundary_parallel,
                       is_recurrent, recurrent_subsets, reduce_path, subgraph)


def _member_key(a: frozenset) -> tuple:
    return len(a), tuple(sorted(a))


def _family_key(fam: Iterable[frozenset]) -> tuple:
    return tuple(sorted(_member_key(a) for a in fam))


def _sorted_family(fam: Iterable[frozenset]) -> tuple[frozenset, ...]:
    return tuple(sorted(fam, key=_member_key))


@dataclass(frozen=True)
class Screen:
    """A family of edge subsets on an ambient graph, stored canonically sorted."""

    graph: Fatgraph = field(compare=False)
    family: tuple[EdgeSubset, ...] = ()

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


def _union_member(members: Sequence[EdgeSubset]) -> EdgeSubset | None:
    """The first member that is the union of the members strictly inside it."""
    for a in members:
        union: set = set()
        for b in members:
            if b < a:
                union |= b
        if union == a:
            return a
    return None


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
    a = _union_member(s.family)
    if a is not None:
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

    ends = {e: [g.vertex_of(h) for h in g.halves(e)] for e in edges}
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
    screens: list[Screen] = []

    def extend(start: int, chosen: list[EdgeSubset]) -> None:
        if _union_member(chosen + [top]) is None:
            screens.append(Screen(g, _sorted_family(set(chosen) | {top})))
        for i in range(start, len(candidates)):
            cand = candidates[i]
            if all(_nested_or_disjoint(cand, b) for b in chosen):
                chosen.append(cand)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    screens.sort(key=lambda s: _family_key(s.family))
    return screens


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

def _boundary_paths(g: Fatgraph, edges: EdgeSubset) -> list[EdgePath]:
    """Boundary cycles of the induced subsurface, read as paths in ``g``."""
    sub = subgraph(g, edges)
    return [EdgePath(tuple(sub.to_parent_half[h] for h in cyc.steps))
            for cyc in boundary_cycles(sub.graph)]


def relative_boundary(s: Screen, member: EdgeSubset) -> CurveSystem:
    """Boundary curves of a member inside its immediate predecessor.

    Boundary cycles of the member's subsurface are read as paths in the
    ambient graph; those that are boundary-parallel inside the predecessor's
    subsurface (equal to one of its boundary cycles or a power, up to
    rotation and reversal) are discarded.
    """
    g = s.graph
    pred_paths = _boundary_paths(g, immediate_predecessor(s, member))
    return curve_system(g, [p for p in _boundary_paths(g, member)
                            if not is_boundary_parallel(g, p, pred_paths)], check=False)


def screen_boundary(s: Screen) -> CurveSystem:
    """Union of the relative boundaries of all non-top members."""
    top = s.graph.all_edges()
    paths = [c for a in s.family if a != top for c in relative_boundary(s, a)]
    return curve_system(s.graph, paths, check=False)


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

    The filtration keeps, at each stage, the edges whose exponent strictly
    exceeds the stage minimum; the family collects the connected components
    of every stage.  Recurrence of the members is not checked here, so the
    result may fail ``validate_screen`` when the exponents do not come from
    a valid degeneration.
    """
    if len(fam) != g.n_edges:
        raise DomainError("one exponent per edge required")
    family: set[EdgeSubset] = {g.all_edges()}
    stage = set(range(g.n_edges))
    while stage:
        lo = min(fam[e] for e in stage)
        stage = {e for e in stage if fam[e] > lo}
        for comp in _connected_edge_components(g, frozenset(stage)):
            family.add(comp)
    return Screen(g, _sorted_family(family))
