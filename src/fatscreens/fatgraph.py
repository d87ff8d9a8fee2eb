"""Fatgraphs (ribbon graphs) as combinatorial maps on half-edges.

A fatgraph on E edges is encoded by two permutations of the half-edge ids
0..2E-1:

* the pairing involution ``iota`` exchanging the two halves of each edge,
  fixed-point free;
* the vertex rotation ``sigma`` sending a half-edge to the next half-edge
  counter-clockwise around the same vertex.

A directed traversal of an edge is represented by its departing half-edge
(the half at the tail vertex), which is unambiguous for loops and parallel
edges.  Boundary cycles of the fattened surface are the orbits of
``sigma o iota`` read as step sequences; every directed step lies on
exactly one boundary cycle.  The number of boundary cycles together with
the Euler count ``V - E = 2 - 2g - s`` determines the genus.

Recurrent edge subsets (induced subgraph of minimum valence two), subset
boundaries, Whitehead flips and edge collapses live here as well; they are
the combinatorial layer under the lambda-length geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import DomainError, FormatError

# an edge subset is a frozenset of edge ids
EdgeSubset = frozenset

# the recurrent-subset scan tests all 2**n edge masks, about 0.37 us each on a 2.1 GHz
# Xeon (Python 3.11): 6.4 s at 24 edges
MAX_SCAN_EDGES = 24


@dataclass(frozen=True)
class EdgePath:
    """A closed edge-path as a cyclic tuple of departing half-edges."""

    steps: tuple[int, ...]
    _plan = (None, None)    # (slot table, trace plan) of the last graph traced: no field

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Fatgraph:
    """Immutable fatgraph; see the module docstring for the encoding.

    ``vertex_cycles`` lists the half-edges around each vertex in
    counter-clockwise order; ``edge_halves`` pairs the two half-edges of
    each edge, indexed by edge id; ``edge_labels`` are user-facing names.
    """

    vertex_cycles: tuple[tuple[int, ...], ...]
    edge_halves: tuple[tuple[int, int], ...]
    edge_labels: tuple[str, ...]
    allow_disconnected: bool = field(default=False, compare=False)

    def __post_init__(self):
        n = 2 * len(self.edge_halves)
        seen: dict[int, int] = {}
        iota = [-1] * n
        for e, (a, b) in enumerate(self.edge_halves):
            if a == b:
                raise DomainError(f"edge {e} pairs half-edge {a} with itself (fixed point)")
            for h in (a, b):
                if not (0 <= h < n):
                    raise DomainError(f"half-edge id {h} out of range 0..{n - 1}")
                if h in seen:
                    raise DomainError(f"half-edge {h} used by two edges")
                seen[h] = e
            iota[a], iota[b] = b, a
        sigma = [-1] * n
        vert = [-1] * n
        for v, cyc in enumerate(self.vertex_cycles):
            if not cyc:
                raise DomainError(f"vertex {v} has no half-edges")
            for i, h in enumerate(cyc):
                if not (0 <= h < n) or sigma[h] != -1:
                    raise DomainError(f"half-edge {h} missing from edges or repeated in vertices")
                sigma[h] = cyc[(i + 1) % len(cyc)]
                vert[h] = v
        if any(s < 0 for s in sigma):
            raise DomainError("vertex cycles and edges must cover the same half-edge ids")
        _one_per_edge(self, self.edge_labels, "label")
        if len(set(self.edge_labels)) != len(self.edge_labels):
            raise DomainError("duplicate edge labels")
        edge_of = [seen[h] for h in range(n)]
        object.__setattr__(self, "_iota", tuple(iota))
        object.__setattr__(self, "_sigma", tuple(sigma))
        object.__setattr__(self, "_vertex_of", tuple(vert))
        object.__setattr__(self, "_edge_of", tuple(edge_of))
        object.__setattr__(self, "_trivalent", all(len(c) == 3 for c in self.vertex_cycles))
        if not self.allow_disconnected:
            find = _union_find(self, range(n // 2))[0]
            if len(set(map(find, range(len(self.vertex_cycles))))) > 1:
                raise DomainError("graph is disconnected")

    # -- elementary accessors ------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edge_halves)

    @property
    def n_half_edges(self) -> int:
        return 2 * len(self.edge_halves)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_cycles)

    def pairing(self, h: int) -> int:
        return self._iota[h]

    def sigma(self, h: int) -> int:
        return self._sigma[h]

    def vertex_of(self, h: int) -> int:
        return self._vertex_of[h]

    def edge_of(self, h: int) -> int:
        return self._edge_of[h]

    def halves(self, e: int) -> tuple[int, int]:
        return self.edge_halves[e]

    def label(self, e: int) -> str:
        return self.edge_labels[e]

    def edge_by_label(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise DomainError(f"unknown edge label {label!r}") from None

    def valence(self, v: int) -> int:
        return len(self.vertex_cycles[v])

    def is_trivalent(self) -> bool:
        return self._trivalent

    def all_edges(self) -> EdgeSubset:
        return self._all_edges

    @cached_property
    def _edge_quads(self) -> tuple[tuple[int, int, int, int], ...]:
        """Row e: the edge ids in the quad slots of edge e's first half h, counter-clockwise
        from each end, a = sigma(h), b = sigma^2(h), c = sigma(h'), d = sigma^2(h') for its
        second half h' (whose quad is (c, d, a, b)).  Every slot formula reads its slots here;
        the table's identity keys the trace plans and rows kept on paths and weights."""
        sigma, edge_of = self._sigma, self._edge_of
        return tuple((edge_of[sigma[h]], edge_of[sigma[sigma[h]]],
                      edge_of[sigma[h2]], edge_of[sigma[sigma[h2]]]) for h, h2 in self.edge_halves)

    @cached_property
    def _vertex_masks(self) -> tuple[tuple[int, int], ...]:
        """Row v: (the edges at vertex v, the loops among them) as int edge masks,
        bit e for edge e; the recurrence rule reads them."""
        incident, loops = [0] * len(self.vertex_cycles), [0] * len(self.vertex_cycles)
        for e, (a, b) in enumerate(self.edge_halves):
            u, v = self._vertex_of[a], self._vertex_of[b]
            incident[u] |= 1 << e
            incident[v] |= 1 << e
            if u == v:
                loops[u] |= 1 << e
        return tuple(zip(incident, loops))

    _members = cached_property(lambda self: {})     # screens' member table, filled on use
    # built on first use: inverting coordinates, for one, never asks for them
    _label_index = cached_property(lambda self: {lab: e for e, lab in enumerate(self.edge_labels)})
    _all_edges = cached_property(lambda self: frozenset(range(len(self.edge_halves))))


def _one_per_edge(g: Fatgraph, values: Sequence, what: str) -> None:
    if len(values) != g.n_edges:
        raise DomainError(f"one {what} per edge required")


def _union_find(g: Fatgraph, edges: Iterable[int]) -> tuple[Callable[[int], int], bool]:
    """The vertices joined along ``edges``: (a vertex's root, whether some edge joined
    two vertices already joined, as a loop or a second parallel edge does)."""
    root, vertex_of, cycle = list(range(len(g.vertex_cycles))), g._vertex_of, False

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in edges:
        h1, h2 = g.edge_halves[e]
        u, v = find(vertex_of[h1]), find(vertex_of[h2])
        cycle |= u == v
        root[u] = v
    return find, cycle


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

FORMAT_HEADER = "fatgraph v1"


def parse_fatgraph(text: str) -> Fatgraph:
    """Parse the line-oriented ``fatgraph v1`` format.

    Grammar (``#`` starts a comment, blank lines ignored)::

        fatgraph v1
        v <vertex-id> : <half-edge-id> ...   counter-clockwise order
        e <edge-label> : <half-edge-id> <half-edge-id>

    Half-edge ids must be exactly 0..2E-1, each in one ``v`` line and one
    ``e`` line.  Labels are nonempty, hold no whitespace, ',' or '.' and end in no
    '+' or '-', so that paths, CSV rows and the sweep's dotted curves can name them.
    """
    vlines: dict[int, tuple[int, tuple[int, ...]]] = {}
    elines: list[tuple[int, tuple[int, int]]] = []
    labels: list[str] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise FormatError(f"expected {FORMAT_HEADER!r} header", lineno)
            header_seen = True
            continue
        kind = line.split(None, 1)[0]
        rest = line[len(kind):].strip()
        if ":" not in rest:
            raise FormatError("missing ':' separator", lineno)
        head, _, tail = rest.partition(":")
        head = head.strip()
        items = tail.split()
        if kind == "v":
            try:
                vid = int(head)
                halves = tuple(int(x) for x in items)
            except ValueError:
                raise FormatError("vertex line needs integer ids", lineno) from None
            if not halves:
                raise FormatError("vertex with no half-edges", lineno)
            if vid in vlines:
                raise FormatError(f"duplicate vertex id {vid}", lineno)
            vlines[vid] = (lineno, halves)
        elif kind == "e":
            if len(items) != 2:
                raise FormatError("edge line needs exactly two half-edge ids", lineno)
            try:
                a, b = int(items[0]), int(items[1])
            except ValueError:
                raise FormatError("edge line needs integer half-edge ids", lineno) from None
            if a == b:
                raise FormatError(f"fixed point: edge {head!r} pairs {a} with itself", lineno)
            if head.split() != [head] or "," in head or "." in head or head[-1] in "+-":
                raise FormatError(f"edge label {head!r} must be nonempty, hold no whitespace, "
                                  "',' or '.' and end in no '+' or '-'", lineno)
            elines.append((lineno, (a, b)))
            labels.append(head)
        else:
            raise FormatError(f"unknown line kind {kind!r}", lineno)
    if not header_seen:
        raise FormatError(f"missing {FORMAT_HEADER!r} header", 1)
    if not elines:
        raise FormatError("no edges", 1)
    n = 2 * len(elines)
    # the edge lines hold 2E distinct ids in 0..n-1, so an id in range is on an edge line
    for what, lines in (("edge", elines), ("vertex", vlines.values())):
        used: set[int] = set()
        for lineno, halves in lines:
            for h in halves:
                if h in used:
                    raise FormatError(f"duplicate half-edge id {h} in {what} lines", lineno)
                if not 0 <= h < n:
                    raise FormatError(f"half-edge id {h} outside 0..{n - 1}", lineno)
                used.add(h)
    if len(used) != n:
        raise FormatError(f"half-edges {sorted(set(range(n)) - used)} missing from vertex lines", 1)
    cycles = tuple(vlines[vid][1] for vid in sorted(vlines))
    try:
        return Fatgraph(cycles, tuple(ab for _, ab in elines), tuple(labels))
    except DomainError as exc:
        raise FormatError(str(exc), 1) from exc


def fatgraph_to_text(g: Fatgraph) -> str:
    lines = [FORMAT_HEADER]
    for v, cyc in enumerate(g.vertex_cycles):
        lines.append(f"v {v} : " + " ".join(str(h) for h in cyc))
    for e, (a, b) in enumerate(g.edge_halves):
        lines.append(f"e {g.label(e)} : {a} {b}")
    return "\n".join(lines) + "\n"


def build(vertex_cycles: Iterable[Iterable[int]],
          edge_halves: Iterable[tuple[int, int]],
          labels: Iterable[str] | None = None) -> Fatgraph:
    """Construct a fatgraph from plain sequences, defaulting labels to e0, e1, ..."""
    halves = tuple((a, b) for a, b in edge_halves)
    if labels is None:
        labels = tuple(f"e{i}" for i in range(len(halves)))
    return Fatgraph(tuple(tuple(c) for c in vertex_cycles), halves, tuple(labels))


# ---------------------------------------------------------------------------
# Boundary cycles and topology
# ---------------------------------------------------------------------------

def _faces(g: Fatgraph, inside: Collection[int]) -> Iterator[tuple[int, ...]]:
    """Each face of the subgraph on the half-edges ``inside``, from its first step in
    the order of ``inside``: a step arrives through its pair, then turns by ``sigma``
    past the half-edges outside ``inside``."""
    iota, sigma = g._iota, g._sigma
    seen: set[int] = set()
    for start in inside:
        face, h = [], start
        while h not in seen:
            seen.add(h)
            face.append(h)
            h = sigma[iota[h]]
            while h not in inside:
                h = sigma[h]
        if face:
            yield tuple(face)


def boundary_cycles(g: Fatgraph) -> tuple[EdgePath, ...]:
    """All boundary cycles, as step sequences; orbits of sigma o iota, each from its least step.

    Every directed step appears in exactly one cycle.  On a trivalent graph
    each cycle makes the same turn at every vertex.
    """
    return tuple(map(EdgePath, _faces(g, range(g.n_half_edges))))


def topology(g: Fatgraph) -> tuple[int, int]:
    """(genus, punctures) of the surface the fatgraph is a spine of."""
    s = len(boundary_cycles(g))
    chi = g.n_vertices - g.n_edges
    twice_genus = 2 - s - chi
    if twice_genus < 0 or twice_genus % 2:
        raise DomainError(f"inconsistent map: V-E={chi}, boundary cycles={s}")
    return twice_genus // 2, s


# ---------------------------------------------------------------------------
# Paths: validation, reduction, canonical form
# ---------------------------------------------------------------------------

def check_closed_path(g: Fatgraph, path: EdgePath) -> None:
    """Refuse an empty path, else its first step that is no half-edge id, else the first
    step, in path order, whose successor (cyclically) starts elsewhere."""
    steps, n = path.steps, g.n_half_edges
    if not steps:
        raise DomainError("empty path")
    if min(steps) < 0 or max(steps) >= n:
        bad = next(h for h in steps if not 0 <= h < n)
        raise DomainError(f"invalid half-edge id {bad} in path")
    vertex_of, iota = g._vertex_of, g._iota
    for k, step in enumerate(steps):
        if vertex_of[iota[step]] != vertex_of[steps[(k + 1) % len(steps)]]:
            raise DomainError(f"path breaks between steps {k} and {k + 1}")


def reduce_path(g: Fatgraph, path: EdgePath) -> EdgePath | None:
    """Cyclically cancel backtracks; None when the path cancels completely."""
    check_closed_path(g, path)
    iota = g._iota
    # one linear pass with a stack, then trim backtracks across the cyclic seam
    stack: list[int] = []
    for s in path.steps:
        if stack and s == iota[stack[-1]]:
            stack.pop()
        else:
            stack.append(s)
    i, j = 0, len(stack)
    while j - i >= 2 and stack[i] == iota[stack[j - 1]]:
        i, j = i + 1, j - 1
    return EdgePath(tuple(stack[i:j])) if i < j else None


def canonical_path(g: Fatgraph, path: EdgePath) -> EdgePath:
    """Lexicographically least rotation over both orientations; it starts at a least step.

    Curves are unoriented: a cycle and its reversal canonicalize equally.
    """
    fwd = path.steps
    rev = tuple(g.pairing(s) for s in reversed(fwd))
    least = min(fwd + rev)
    return EdgePath(min(seq[r:] + seq[:r] for seq in (fwd, rev)
                        for r, s in enumerate(seq) if s == least))


def is_boundary_parallel(g: Fatgraph, path: EdgePath,
                         cycles: Iterable[EdgePath] | None = None) -> bool:
    """True for contractible paths and, up to rotation and reversal, powers of the faces
    ``cycles`` (by default the boundary cycles of ``g``).  A face visits each step once, so
    it is primitive: the path is parallel when its primitive root, the prefix of its least
    period, canonicalizes to one of them."""
    reduced = reduce_path(g, path)
    if reduced is None:
        return True
    steps, n = reduced.steps, len(reduced)
    m = next(p for p in range(1, n + 1) if n % p == 0 and steps[p:] + steps[:p] == steps)
    faces = (_subset_faces(g, g.all_edges()) if cycles is None
             else {canonical_path(g, c) for c in cycles})
    return canonical_path(g, EdgePath(steps[:m])) in faces


# ---------------------------------------------------------------------------
# Curve systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveSystem:
    """A set of canonicalized essential closed curves on a fixed graph."""

    curves: tuple[EdgePath, ...] = ()

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self) -> Iterator[EdgePath]:
        return iter(self.curves)


def curve_system(g: Fatgraph, paths: Iterable[EdgePath]) -> CurveSystem:
    """The canonical forms of ``paths``, each reduced first; contractible paths are dropped."""
    reduced = (reduce_path(g, p) for p in paths)
    return _curve_set({canonical_path(g, r) for r in reduced if r is not None})


def _curve_set(canon: Iterable[EdgePath]) -> CurveSystem:
    return CurveSystem(tuple(sorted(canon, key=lambda p: (len(p.steps), p.steps))))


# ---------------------------------------------------------------------------
# Subgraphs and recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubFatgraph:
    """Induced sub-fatgraph on an edge subset, with the parent correspondence.

    The induced graph may be disconnected; its half-edges are renumbered
    densely and mapped back to the parent through ``to_parent_half``.
    """

    graph: Fatgraph
    to_parent_half: tuple[int, ...]


def _edge_subset(g: Fatgraph, edges: Iterable[int]) -> EdgeSubset:
    """The edge ids as a frozenset, refusing ids that are not edges of ``g``."""
    subset = frozenset(edges)
    if not subset <= g.all_edges():
        raise DomainError(f"unknown edge ids {sorted(subset - g.all_edges())}")
    return subset


def subgraph(g: Fatgraph, edges: Iterable[int]) -> SubFatgraph:
    """Sub-fatgraph induced by an edge subset, cyclic orders restricted."""
    subset = _edge_subset(g, edges)
    if not subset:
        raise DomainError("empty edge subset")
    kept_halves = [h for h in range(g.n_half_edges) if g.edge_of(h) in subset]
    new_id = {h: i for i, h in enumerate(kept_halves)}
    cycles = []
    for cyc in g.vertex_cycles:
        kept = tuple(new_id[h] for h in cyc if h in new_id)
        if kept:
            cycles.append(kept)
    sub_edges = sorted(subset)
    halves = tuple((new_id[g.halves(e)[0]], new_id[g.halves(e)[1]]) for e in sub_edges)
    labels = tuple(g.label(e) for e in sub_edges)
    sub = Fatgraph(tuple(cycles), halves, labels, allow_disconnected=True)
    return SubFatgraph(sub, tuple(kept_halves))


def _recurrent_filter(g: Fatgraph, masks: Iterable[int]) -> Iterator[int]:
    """The int edge masks that no vertex meets in exactly one non-loop edge: those
    whose induced subgraph has minimum valence two (a loop meets its vertex twice)."""
    vertex_masks = g._vertex_masks
    for mask in masks:
        for incident, loops in vertex_masks:
            m = mask & incident
            if m and not m & (m - 1 | loops):     # one edge, and not a loop
                break
        else:
            yield mask


def _mask_edges(mask: int) -> EdgeSubset:
    """The edge subset of an int mask."""
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


def is_recurrent(g: Fatgraph, edges: Iterable[int]) -> bool:
    """Every vertex of the induced subgraph has valence at least two."""
    subset = _edge_subset(g, edges)
    if not subset:
        raise DomainError("empty edge subset")
    return any(_recurrent_filter(g, (sum(1 << e for e in subset),)))


def _recurrent_masks(g: Fatgraph) -> Iterator[int]:
    """Every nonempty recurrent edge subset as an int mask, the full set included,
    in member-key order (by size, then by sorted edge ids): a scan of all 2**n
    masks, refused on the call above ``MAX_SCAN_EDGES`` edges."""
    n = g.n_edges
    if n > MAX_SCAN_EDGES:
        raise DomainError(f"edge count {n} exceeds recurrent-subset scan bound {MAX_SCAN_EDGES}")
    bits = [1 << e for e in range(n)]
    return _recurrent_filter(g, map(sum, chain(*(combinations(bits, k) for k in range(1, n + 1)))))


def recurrent_subsets(g: Fatgraph) -> Iterator[EdgeSubset]:
    """Every nonempty recurrent edge subset, the full set included, in member-key
    order; refused on the call above ``MAX_SCAN_EDGES`` edges."""
    return map(_mask_edges, _recurrent_masks(g))


def maximal_recurrent_subset(g: Fatgraph, edges: Iterable[int]) -> EdgeSubset:
    """Largest recurrent subset, by pruning the edges that meet a vertex alone, not as a loop."""
    mask, lone = sum(1 << e for e in _edge_subset(g, edges)), -1
    while lone:
        lone = 0
        for incident, loops in g._vertex_masks:
            m = mask & incident
            if m and not m & (m - 1 | loops):
                lone |= m
        mask &= ~lone
    return _mask_edges(mask)


def recurrent_witness_cycles(g: Fatgraph, edges: Iterable[int]) -> dict[int, EdgePath] | None:
    """For each edge an efficient closed path through it inside the subset.

    Searches the directed graph of non-backtracking steps restricted to the
    subset; returns None when some edge lies on no such cycle, which happens
    exactly when the subset is not recurrent.
    """
    subset = _edge_subset(g, edges)
    if not subset:
        raise DomainError("empty edge subset")
    if 4 * len(subset) > 1_000_000:
        raise DomainError("state bound exceeded in witness search")

    def successors(step: int) -> list[int]:
        """Steps in the subset out of step's arrival vertex, backtrack excluded."""
        arrive = g.pairing(step)
        out, h = [], g.sigma(arrive)
        while h != arrive:
            if g.edge_of(h) in subset:
                out.append(h)
            h = g.sigma(h)
        return out

    witnesses: dict[int, EdgePath] = {}
    for e in sorted(subset):
        for start in g.halves(e):
            # breadth first from the successors of start until start is reached
            prev = dict.fromkeys(successors(start), -1)
            queue = list(prev)
            for cur in queue:
                if start in prev:
                    break
                for nxt in successors(cur):
                    if nxt not in prev:
                        prev[nxt] = cur
                        queue.append(nxt)
            if start in prev:
                chain = [prev[start]]
                while chain[-1] != -1:
                    chain.append(prev[chain[-1]])
                witnesses[e] = EdgePath((start, *reversed(chain[:-1])))
                break
        else:
            return None
    return witnesses


# ---------------------------------------------------------------------------
# Subset boundary
# ---------------------------------------------------------------------------

def _subset_faces(g: Fatgraph, edges: Iterable[int]) -> set[EdgePath]:
    """Canonical faces of ``subgraph(g, edges)``, walked in ``g`` without building it."""
    inside = {h for e in edges for h in g.edge_halves[e]}
    return {canonical_path(g, EdgePath(face)) for face in _faces(g, inside)}


def subset_boundary(g: Fatgraph, edges: Iterable[int]) -> CurveSystem:
    """Boundary curves of the induced subsurface, minus puncture-parallel ones."""
    subset = _edge_subset(g, edges)
    if not is_recurrent(g, subset):
        raise DomainError("subset is not recurrent")
    return _curve_set(_subset_faces(g, subset) - _subset_faces(g, g.all_edges()))


# ---------------------------------------------------------------------------
# Whitehead moves and collapses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhiteheadMove:
    """Result of a flip: the new graph plus the edge correspondence.

    Edge ids are stable (the flipped edge keeps its id and label); the four
    neighbor slots a, b, c, d are reported in the counter-clockwise reading
    around the old edge, which is the order the Ptolemy exchange uses.
    """

    graph: Fatgraph
    flipped_edge: int
    neighbor_slots: tuple[int, int, int, int]  # half-edges a, b, c, d in the old graph


def whitehead_move(g: Fatgraph, e: int) -> WhiteheadMove:
    hu, hw = g.halves(e)
    u, w = g.vertex_of(hu), g.vertex_of(hw)
    if u == w:
        raise DomainError("cannot flip a loop edge")
    if g.valence(u) != 3 or g.valence(w) != 3:
        raise DomainError("flip needs trivalent endpoints")
    a, b = g.sigma(hu), g.sigma(g.sigma(hu))
    c, d = g.sigma(hw), g.sigma(g.sigma(hw))
    new_cycles = []
    for v, cyc in enumerate(g.vertex_cycles):
        if v == u:
            new_cycles.append((hu, b, c))
        elif v == w:
            new_cycles.append((hw, d, a))
        else:
            new_cycles.append(cyc)
    flipped = Fatgraph(tuple(new_cycles), g.edge_halves, g.edge_labels)
    return WhiteheadMove(flipped, e, (a, b, c, d))


def transport_path(g: Fatgraph, move: WhiteheadMove, path: EdgePath) -> EdgePath:
    """Rewrite a closed path of ``g`` through a flip, reducing afterwards.

    Steps over the flipped edge are removed and the new edge is inserted
    wherever the rewritten path jumps between the two new vertices.
    """
    e = move.flipped_edge
    g2 = move.graph
    kept = [s for s in path.steps if g.edge_of(s) != e]
    if not kept:
        raise DomainError("path supported on the flipped edge only")
    hu, hw = g2.halves(e)
    steps: list[int] = []
    n = len(kept)
    for i, s in enumerate(kept):
        steps.append(s)
        nxt = kept[(i + 1) % n]
        v_here = g2.vertex_of(g2.pairing(s))
        v_next = g2.vertex_of(nxt)
        if v_here != v_next:
            if v_here == g2.vertex_of(hu) and v_next == g2.vertex_of(hw):
                steps.append(hu)
            elif v_here == g2.vertex_of(hw) and v_next == g2.vertex_of(hu):
                steps.append(hw)
            else:
                raise DomainError("path does not transport across this flip")
    red = reduce_path(g2, EdgePath(tuple(steps)))
    if red is None:
        raise DomainError("transported path became contractible")
    return red


def collapse_edge(g: Fatgraph, e: int) -> Fatgraph:
    """Collapse a non-loop edge, splicing the two cyclic orders."""
    hu, hw = g.halves(e)
    u, w = g.vertex_of(hu), g.vertex_of(hw)
    if u == w:
        raise DomainError("cannot collapse a loop edge")
    cu = _rotate_to(g.vertex_cycles[u], hu)[1:]
    cw = _rotate_to(g.vertex_cycles[w], hw)[1:]
    merged = tuple(cu) + tuple(cw)
    old_halves = [h for h in range(g.n_half_edges) if h not in (hu, hw)]
    renum = {h: i for i, h in enumerate(old_halves)}
    cycles = []
    placed = False
    for v, cyc in enumerate(g.vertex_cycles):
        if v in (u, w):
            if not placed:
                if merged:
                    cycles.append(tuple(renum[h] for h in merged))
                placed = True
            continue
        cycles.append(tuple(renum[h] for h in cyc))
    halves = []
    labels = []
    for e2 in range(g.n_edges):
        if e2 == e:
            continue
        a, b = g.halves(e2)
        halves.append((renum[a], renum[b]))
        labels.append(g.label(e2))
    return Fatgraph(tuple(cycles), tuple(halves), tuple(labels),
                    allow_disconnected=g.allow_disconnected)


def _rotate_to(cycle: Sequence[int], h: int) -> list[int]:
    i = cycle.index(h)
    return list(cycle[i:]) + list(cycle[:i])


# ---------------------------------------------------------------------------
# Isomorphism via canonical rooted relabeling
# ---------------------------------------------------------------------------

def canonical_form(g: Fatgraph) -> tuple:
    """Canonical encoding, equal for isomorphic connected fatgraphs."""
    n = g.n_half_edges
    best = None
    for root in range(n):
        label = {root: 0}
        order = [root]
        qi = 0
        while qi < len(order):
            h = order[qi]
            qi += 1
            for nb in (g.sigma(h), g.pairing(h)):
                if nb not in label:
                    label[nb] = len(order)
                    order.append(nb)
        enc = tuple((label[g.sigma(h)], label[g.pairing(h)]) for h in order)
        if best is None or enc < best:
            best = enc
    return best


def is_isomorphic(a: Fatgraph, b: Fatgraph) -> bool:
    if a.n_half_edges != b.n_half_edges:
        return False
    return canonical_form(a) == canonical_form(b)
