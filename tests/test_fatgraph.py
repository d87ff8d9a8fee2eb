"""Combinatorial layer: parsing, faces, recurrence, weights, moves."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from fatscreens import fatgraph as fgr
from fatscreens import serialize as ser
from fatscreens.errors import DomainError, FormatError

import oracles
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


def test_parse_roundtrip_generated(generated_trivalent, generated_fatgraphs):
    for g in generated_trivalent + generated_fatgraphs:
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


def test_parse_duplicate_labels_rejected():
    bad = "fatgraph v1\nv 0 : 0 1 2 3\ne e0 : 0 1\ne e0 : 2 3\n"
    with pytest.raises(FormatError, match="^line 1: duplicate edge labels$"):
        fgr.parse_fatgraph(bad)


@pytest.mark.parametrize("label", ["x-", "x+", "a,b", "a b", "a\tb", "", "a.b"])
def test_parse_refuses_labels_that_paths_and_csv_cannot_name(label):
    # beside an edge x, the path 'x- y+' would read x- as x backwards; no CSV row names 'a,b'
    bad = f"fatgraph v1\nv 0 : 0 1 2\nv 1 : 3 4 5\ne x : 0 3\ne {label} : 1 4\ne y : 2 5\n"
    with pytest.raises(FormatError, match="^line 5: edge label .* must be nonempty, "):
        fgr.parse_fatgraph(bad)


def test_parse_refuses_dotted_labels():
    # sweep joins a curve's steps with '.': 'a.b+.e1-' could not be split back into steps
    bad = "fatgraph v1\nv 0 : 0 1 2\nv 1 : 3 4 5\ne a.b : 0 3\ne e1 : 1 4\ne e2 : 2 5\n"
    with pytest.raises(FormatError, match="^line 4: edge label 'a.b' must be nonempty, hold no "
                                          "whitespace, ',' or '.' and end in no '\\+' or '-'$"):
        fgr.parse_fatgraph(bad)


def test_parse_vertex_id_outside_the_edge_ids():
    bad = "fatgraph v1\nv 0 : 0 1 6\nv 1 : 3 4 5\ne e0 : 0 3\ne e1 : 1 4\ne e2 : 2 5\n"
    with pytest.raises(FormatError, match="^line 2: half-edge id 6 outside 0..5$"):
        fgr.parse_fatgraph(bad)


def test_parse_error_carries_line_number():
    bad = "fatgraph v1\nv 0 : 0 1\nnonsense here\ne e0 : 0 1\n"
    with pytest.raises(FormatError, match="line 3"):
        fgr.parse_fatgraph(bad)


# (vertex cycles, edge halves, labels or None for e0, e1, ..., message): each refusal of
# Fatgraph, which library callers reach with no parser in front
FATGRAPH_REFUSALS = {
    "edge_id_range": ([(0, 1)], [(0, 2)], None, "half-edge id 2 out of range 0..1"),
    "edge_id_twice": ([(0, 1, 2, 3)], [(0, 1), (1, 2)], None, "half-edge 1 used by two edges"),
    "fixed_point": ([(0, 1)], [(0, 0)], None,
                    "edge 0 pairs half-edge 0 with itself (fixed point)"),
    "empty_vertex": ([(0, 1), ()], [(0, 1)], None, "vertex 1 has no half-edges"),
    "vertex_id_range": ([(0, 2)], [(0, 1)], None,
                        "half-edge 2 missing from edges or repeated in vertices"),
    "vertex_id_twice": ([(0, 1, 0)], [(0, 1)], None,
                        "half-edge 0 missing from edges or repeated in vertices"),
    "uncovered": ([(0,)], [(0, 1)], None,
                  "vertex cycles and edges must cover the same half-edge ids"),
    "label_count": ([(0, 1)], [(0, 1)], ("a", "b"), "one label per edge required"),
    "label_twice": ([(0, 1, 2, 3)], [(0, 1), (2, 3)], ("a", "a"), "duplicate edge labels"),
    "disconnected": ([(0, 1), (2, 3)], [(0, 1), (2, 3)], None, "graph is disconnected"),
}


@pytest.mark.parametrize("case", FATGRAPH_REFUSALS)
def test_fatgraph_refusals(case):
    cycles, halves, labels, message = FATGRAPH_REFUSALS[case]
    with pytest.raises(DomainError) as err:
        fgr.build(cycles, halves, labels)
    assert str(err.value) == message
    labels = labels or tuple(f"e{e}" for e in range(len(halves)))
    with pytest.raises(DomainError) as err:
        fgr.Fatgraph(tuple(map(tuple, cycles)), tuple(halves), labels)
    assert str(err.value) == message


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
    assert not fgr.is_isomorphic(sub.graph, theta)     # 4 half-edges against 6
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
    # past MAX_SCAN_EDGES the 2**n scan is refused on the call, not run for hours
    n = fgr.MAX_SCAN_EDGES + 1
    loops = fgr.build([range(2 * n)], [(2 * e, 2 * e + 1) for e in range(n)])
    with pytest.raises(DomainError, match=f"edge count {n} exceeds recurrent-subset scan bound 24"):
        fgr.recurrent_subsets(loops)


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


def _maximal_recurrent_reference(g: fgr.Fatgraph, edges) -> frozenset:
    """Prune every edge at a vertex of valence <= 1, counted per half-edge in a dict
    (a loop counts twice), until none is left to prune."""
    current = set(edges)
    while current:
        valence: dict[int, int] = {}
        for e in current:
            for h in g.halves(e):
                v = g.vertex_of(h)
                valence[v] = valence.get(v, 0) + 1
        drop = {e for e in current
                if any(valence[g.vertex_of(h)] <= 1 for h in g.halves(e))}
        if not drop:
            break
        current -= drop
    return frozenset(current)


def test_maximal_recurrent_subset_matches_reference(census12, generated_fatgraphs,
                                                    generated_trivalent):
    # every subset up to 10 edges, 300 seeded ones of each larger graph; the pruned
    # subsets and the kept ones both show up
    rng = random.Random(37)
    graphs = [fgr.parse_fatgraph(p.read_text()) for p in sorted(DATA.glob("*.fg"))]
    seen = Counter()
    for g in graphs + [census12] + generated_fatgraphs + generated_trivalent:
        n = g.n_edges
        masks = range(1 << n) if n <= 10 else (rng.getrandbits(n) for _ in range(300))
        for mask in masks:
            subset = fgr._mask_edges(mask)
            got = fgr.maximal_recurrent_subset(g, subset)
            assert got == _maximal_recurrent_reference(g, subset), (g, sorted(subset))
            seen[n > 10, got == subset] += 1
    assert min(seen.values()) > 100 and len(seen) == 4, seen


def test_witness_cycles(theta, barbell):
    w = fgr.recurrent_witness_cycles(theta, {0, 1})
    assert set(w) == {0, 1}
    for e, path in w.items():
        assert oracles.is_efficient(theta, path)
        fgr.check_closed_path(theta, path)
        edges = {theta.edge_of(s) for s in path.steps}
        assert e in edges and edges <= {0, 1}
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
    assert oracles.weights_admissible(theta, {0: 2, 1: 2, 2: 2})
    assert not oracles.weights_admissible(theta, {0: 1, 1: 1, 2: 1})
    assert oracles.weights_admissible(theta, {})


def test_weights_to_multicurve_counts(theta):
    for mu in ({0: 2, 1: 2, 2: 2}, {0: 2, 1: 2, 2: 0}, {0: 4, 1: 2, 2: 2}):
        curves = oracles.weights_to_multicurve(theta, mu)
        counts = Counter(theta.edge_of(s) for p in curves for s in p.steps)
        assert {e: counts.get(e, 0) for e in range(3)} == mu
        for p in curves:
            assert oracles.is_efficient(theta, p)
    assert oracles.weights_to_multicurve(theta, {}) == []


def test_weights_to_multicurve_random():
    rng = random.Random(5)
    done = 0
    while done < 60:
        g = random_fatgraph(rng.randint(1, 5), rng)
        mu = {e: rng.randint(0, 3) for e in range(g.n_edges)}
        if not oracles.weights_admissible(g, mu):
            continue
        done += 1
        curves = oracles.weights_to_multicurve(g, mu)
        counts = Counter(g.edge_of(s) for p in curves for s in p.steps)
        assert {e: counts.get(e, 0) for e in range(g.n_edges)} == mu
        for p in curves:
            assert oracles.is_efficient(g, p)
            fgr.check_closed_path(g, p)


def test_recurrent_iff_doubled_indicator_admissible():
    rng = random.Random(17)
    for _ in range(60):
        g = random_fatgraph(rng.randint(1, 6), rng)
        sub = frozenset(e for e in range(g.n_edges) if rng.random() < 0.6)
        if not sub:
            continue
        mu = {e: 2 for e in sub}
        assert fgr.is_recurrent(g, sub) == oracles.weights_admissible(g, mu)


def _admissible_weights(g: fgr.Fatgraph, rng: random.Random) -> dict[int, int]:
    """Traversal counts of witness cycles in random recurrent subsets.

    An efficient closed path enters and leaves a vertex through two
    different slots, so its counts are admissible, and so are their sums.
    """
    mu = dict.fromkeys(range(g.n_edges), 0)
    for _ in range(3):
        core = fgr.maximal_recurrent_subset(
            g, [e for e in range(g.n_edges) if rng.random() < 0.8])
        if not core:
            continue
        for path in fgr.recurrent_witness_cycles(g, core).values():
            times = rng.choice((0, 0, 1, 2))
            for h in path.steps:
                mu[g.edge_of(h)] += times
    return mu


def test_multicurve_realizes_weights_generated(generated_trivalent, generated_fatgraphs):
    rng = random.Random(11)
    for g in generated_trivalent + generated_fatgraphs:
        for _ in range(6):
            mu = _admissible_weights(g, rng)
            assert oracles.weights_admissible(g, mu)
            curves = oracles.weights_to_multicurve(g, mu)
            counts = Counter(g.edge_of(s) for p in curves for s in p.steps)
            assert {e: counts.get(e, 0) for e in range(g.n_edges)} == mu
            for p in curves:
                fgr.check_closed_path(g, p)
                assert oracles.is_efficient(g, p)


def test_multicurve_digest_trivalent(generated_trivalent):
    # a trivalent vertex has one non-crossing matching without same-side arcs,
    # so the curves are fixed by the weights; this digest was taken from the
    # earlier polygon-splitting construction
    rng = random.Random(13)
    digest = hashlib.sha256()
    for g in generated_trivalent:
        for _ in range(8):
            curves = oracles.weights_to_multicurve(g, _admissible_weights(g, rng))
            digest.update(repr(sorted(fgr.canonical_path(g, p).steps for p in curves)).encode())
    assert digest.hexdigest() == (
        "1b378965ebc76249ac33006eb818e72f69f779e69ddd5c0d282456e147703dbf")


# -- path reduction and parallelism ------------------------------------------------

def test_reduce_path(theta, barbell):
    assert fgr.reduce_path(theta, fgr.EdgePath((0, 3))) is None
    cyc = fgr.EdgePath((0, 4))
    assert fgr.reduce_path(theta, cyc) == cyc
    # insert a backtrack through e2 and reduce it away
    noisy = fgr.EdgePath((0, 5, 2, 4))
    assert not oracles.is_efficient(theta, noisy)
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


def _random_closed_path(g: fgr.Fatgraph, rng: random.Random) -> fgr.EdgePath:
    """A random closed walk, backtracks allowed, conjugated up to three times
    and rotated so that backtracks also meet across the cyclic seam."""
    while True:
        v0 = v = rng.randrange(g.n_vertices)
        steps: list[int] = []
        while len(steps) < 30 and (not steps or v != v0 or rng.random() < 0.5):
            steps.append(rng.choice(g.vertex_cycles[v]))
            v = g.vertex_of(g.pairing(steps[-1]))
        if v == v0:
            break
    for _ in range(rng.randint(0, 3)):
        out = rng.choice(g.vertex_cycles[v0])
        steps = [g.pairing(out), *steps, out]
        v0 = g.vertex_of(g.pairing(out))
    r = rng.randrange(len(steps))
    return fgr.EdgePath(tuple(steps[r:] + steps[:r]))


def _reduce_reference(g: fgr.Fatgraph, path: fgr.EdgePath) -> fgr.EdgePath | None:
    """The earlier reduce_path loop: stack passes and seam trims until nothing changes."""
    steps = list(path.steps)
    changed = True
    while changed and steps:
        changed = False
        stack: list[int] = []
        for s in steps:
            if stack and s == g.pairing(stack[-1]):
                stack.pop()
                changed = True
            else:
                stack.append(s)
        while len(stack) >= 2 and stack[0] == g.pairing(stack[-1]):
            stack.pop()
            stack.pop(0)
            changed = True
        steps = stack
    return fgr.EdgePath(tuple(steps)) if steps else None


def test_reduce_and_canonical_generated(generated_trivalent, generated_fatgraphs):
    rng = random.Random(23)
    cancelled = 0
    for g in generated_trivalent + generated_fatgraphs:
        for _ in range(60):
            path = _random_closed_path(g, rng)
            red = fgr.reduce_path(g, path)
            assert red == _reduce_reference(g, path)
            if red is None:
                cancelled += 1
                continue
            assert oracles.is_efficient(g, red)
            assert fgr.reduce_path(g, red) == red
            canon = fgr.canonical_path(g, red)
            assert fgr.canonical_path(g, canon) == canon
            r = rng.randrange(len(red))
            assert fgr.canonical_path(g, fgr.EdgePath(red.steps[r:] + red.steps[:r])) == canon
            rev = fgr.EdgePath(tuple(g.pairing(s) for s in reversed(red.steps)))
            assert fgr.canonical_path(g, rev) == canon
    assert cancelled      # some walks cancel completely


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


def _canonical_reference(g: fgr.Fatgraph, path: fgr.EdgePath) -> fgr.EdgePath:
    """The least of all rotations of both orientations."""
    rev = tuple(g.pairing(s) for s in reversed(path.steps))
    return fgr.EdgePath(min(seq[r:] + seq[:r] for seq in (path.steps, rev)
                            for r in range(len(seq))))


def _parallel_reference(g: fgr.Fatgraph, path: fgr.EdgePath, cycles=None) -> bool:
    """The earlier is_boundary_parallel loop: canonicalize the fitting power of each cycle."""
    reduced = fgr.reduce_path(g, path)
    if reduced is None:
        return True
    target = _canonical_reference(g, reduced)
    n = len(target)
    for cyc in fgr.boundary_cycles(g) if cycles is None else cycles:
        m = len(cyc)
        if n % m == 0 and _canonical_reference(g, fgr.EdgePath(cyc.steps * (n // m))) == target:
            return True
    return False


def test_canonical_and_parallel_match_references():
    # random closed walks with backtracks, and faces of the graph and of a recurrent
    # subset with a backtrack inserted, each as itself and as its 2nd and 3rd power
    rng = random.Random(71)
    verdicts = Counter()
    for path in sorted(DATA.glob("*.fg")):
        g = fgr.parse_fatgraph(path.read_text())
        subsets = list(fgr.recurrent_subsets(g)) or [g.all_edges()]   # none on path, pendant
        for _ in range(40):
            faces = [fgr.EdgePath(f) for f in fgr._faces(
                g, {h for e in rng.choice(subsets) for h in g.edge_halves[e]})]
            face = rng.choice(faces + list(fgr.boundary_cycles(g))).steps
            k = rng.randrange(len(face))
            h = rng.choice(g.vertex_cycles[g.vertex_of(face[k])])
            walks = (_random_closed_path(g, rng),
                     fgr.EdgePath(face[:k] + (h, g.pairing(h)) + face[k:]))
            for walk in walks:
                for p in (fgr.EdgePath(walk.steps * power) for power in (1, 2, 3)):
                    assert fgr.canonical_path(g, p) == _canonical_reference(g, p)
                    for cycles in (None, faces):
                        got = fgr.is_boundary_parallel(g, p, cycles)
                        assert got == _parallel_reference(g, p, cycles), (path.name, p.steps)
                        verdicts[got] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


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
    assert oracles.is_efficient(mv.graph, moved)
    back = fgr.transport_path(mv.graph, fgr.whitehead_move(mv.graph, 2), moved)
    assert fgr.canonical_path(theta, back) == fgr.canonical_path(theta, curve)
