"""The four benchmark workloads, each a closed loop of independent items.

A workload loads its inputs in ``setup`` (parsing, seeded generation,
reference data), starts each pass over its item set with ``start_pass``
(enumeration, where the workload has one, is part of the timed job) and
runs one item with ``run``.  ``run`` returns ``None`` when the item's
outputs check out and a one-line reason otherwise; library ``DomainError``
and ``NonConvergenceError`` propagate and are counted by the caller.

Every call into the library goes through a module attribute
(``scn.depth_family``, ...), so the traced run can wrap the same bindings.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens import screens as scn

DATA = Path(__file__).resolve().parent / "data"

INVERT_TOL = 1e-10
# simplicial_coords recomputes the coordinates in another summation order
# than the Newton loop, so the check allows ten times the solver tolerance
INVERT_RESIDUAL_LIMIT = 10 * INVERT_TOL
LENGTH_RTOL = 1e-9
NEGATIVE_CONTROL_GAP = 0.1


class BenchError(Exception):
    """An input or a whole pass is wrong; the run cannot continue."""


def digest(obj) -> str:
    """Short exact digest of a nested tuple of ints, strings and Fractions."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=4).hexdigest()


def family_key(s: scn.Screen) -> tuple:
    """Library-independent order of screens: sorted tuples of sorted members."""
    return tuple(sorted(tuple(sorted(a)) for a in s.family))


def screen_digest(s: scn.Screen, fam: scn.MonomialFamily,
                  boundary: fgr.CurveSystem) -> str:
    """Digest of a screen's family, depth exponents and canonical boundary."""
    return digest((family_key(s), tuple(str(p) for p in fam.exponents),
                   tuple(c.steps for c in boundary.curves)))


def trivalent_graph(n_edges: int, rng: random.Random) -> fgr.Fatgraph:
    """Random connected trivalent fatgraph.

    Vertex v has rotation (3v, 3v+1, 3v+2); the half-edges are paired after
    ``rng.shuffle``, reshuffling until the graph is connected.
    """
    n_vertices, rem = divmod(2 * n_edges, 3)
    if rem:
        raise ValueError("a trivalent graph needs 2 * n_edges divisible by 3")
    cycles = [(3 * v, 3 * v + 1, 3 * v + 2) for v in range(n_vertices)]
    while True:
        halves = list(range(2 * n_edges))
        rng.shuffle(halves)
        pairs = [(halves[2 * i], halves[2 * i + 1]) for i in range(n_edges)]
        try:
            return fgr.build(cycles, pairs)
        except fgr.DomainError:
            continue


def load_graph(name: str) -> fgr.Fatgraph:
    return fgr.parse_fatgraph((DATA / name).read_text())


def load_json(name: str):
    return json.loads((DATA / name).read_text())


class _ScreenPasses:
    """Each pass enumerates the graph's screens and visits them in seeded order.

    Items are (index, screen) with the index into the benchmark's own sorted
    order of the screens, which keys the checked-in per-screen digests.
    """

    graph: fgr.Fatgraph
    ref: dict

    def start_pass(self, rng: random.Random) -> list:
        screens = sorted(scn.enumerate_screens(self.graph), key=family_key)
        if len(screens) != self.ref["screen_count"]:
            raise BenchError(f"enumeration gave {len(screens)} screens, "
                             f"expected {self.ref['screen_count']}")
        if digest(tuple(family_key(s) for s in screens)) != self.ref["families_digest"]:
            raise BenchError("enumerated screen families differ from the reference")
        items = list(enumerate(screens))
        rng.shuffle(items)
        return items

    def check_digest(self, i: int, s, fam, boundary) -> str | None:
        if screen_digest(s, fam, boundary) != self.ref["screen_digests"][i]:
            return f"screen {i}: digest of family, depths and boundary differs"
        return None


class DetectGenus2(_ScreenPasses):
    """Headline check: detection equals the screen boundary on all 384 screens."""

    name = "detect_genus2"
    trace_passes = 1

    def setup(self, seed: int) -> None:
        self.graph = load_graph("genus2.fg")
        self.ref = load_json("genus2_ref.json")
        self.pool = [fgr.EdgePath(tuple(c)) for c in self.ref["pool"]]

    def run(self, item) -> str | None:
        i, s = item
        g = self.graph
        fam = scn.depth_family(s)
        detected = asy.detect_short_curves(g, fam)
        want = scn.screen_boundary(s)
        if detected.curves != want.curves:
            return f"screen {i}: detected curves differ from the screen boundary"
        bad = self.check_digest(i, s, fam, want)
        if bad:
            return bad
        boundary = {c.steps for c in want}
        outside = next((p for p in self.pool if p.steps not in boundary), None)
        if outside is not None:
            gap = asy.sweep(g, fam, [outside]).rows[-1].gap
            if not gap > NEGATIVE_CONTROL_GAP:
                return f"screen {i}: non-boundary curve has final gap {gap:.3g}"
        return None


class Census12(_ScreenPasses):
    """Screen combinatorics on every screen of a 12-edge graph; no traces."""

    name = "census_12"
    trace_passes = 1

    def setup(self, seed: int) -> None:
        self.graph = load_graph("census12.fg")
        if fgr.topology(self.graph) != (1, 4):
            raise BenchError(f"census12.fg has topology {fgr.topology(self.graph)}, "
                             "expected (1, 4)")
        self.ref = load_json("census12_ref.json")

    def run(self, item) -> str | None:
        i, s = item
        fam = scn.depth_family(s)
        boundary = scn.screen_boundary(s)
        back = scn.screen_of_exponents(self.graph, fam)
        check = scn.validate_screen(s)
        if back.family != s.family:
            return f"screen {i}: screen_of_exponents(depth_family) is another screen"
        if not check.ok:
            return f"screen {i}: validate_screen rejects it ({check.message})"
        return self.check_digest(i, s, fam, boundary)


def random_target(g: fgr.Fatgraph, rng: random.Random,
                  zero_share: float = 0.3) -> geo.SimplicialCoords:
    """Zeros on a random forest, other coordinates spread over exp(U(-4, 2))."""
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    values = []
    for e in range(g.n_edges):
        a, b = (find(g.vertex_of(h)) for h in g.halves(e))
        if a != b and rng.random() < zero_share:
            parent[a] = b
            values.append(0.0)
        else:
            values.append(math.exp(rng.uniform(-4.0, 2.0)))
    return geo.simplicial(values)


class InvertMixed:
    """Coordinate inversion on seeded 150- and 600-edge trivalent graphs.

    At 150 edges the Python Jacobian assembly dominates, at 600 edges
    ``np.linalg.solve``; the counts give each size about half the time.
    Every target has its own graph, so that one seed's graphs do not set the
    Newton step counts of the whole run.
    """

    name = "invert_mixed"
    trace_passes = 1
    sizes = ((150, 128), (600, 12))

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.items = []
        for n_edges, count in self.sizes:
            for _ in range(count):
                g = trivalent_graph(n_edges, rng)
                self.items.append((g, random_target(g, rng)))

    def start_pass(self, rng: random.Random) -> list:
        items = list(self.items)
        rng.shuffle(items)
        return items

    def run(self, item) -> str | None:
        g, target = item
        lam = geo.invert_coords(g, target, tol=INVERT_TOL)
        coords = geo.simplicial_coords(g, lam)
        resid = max(abs(a - b) for a, b in zip(coords.values, target.values))
        if not resid <= INVERT_RESIDUAL_LIMIT:
            return f"{g.n_edges} edges: coordinate residual {resid:.3e}"
        return None


class Lengths12:
    """Hyperbolic lengths of the 46 pool curves for in-cell weights."""

    name = "lengths_12"
    trace_passes = 8

    def setup(self, seed: int) -> None:
        self.graph = load_graph("census12.fg")
        ref = load_json("lengths12_ref.json")
        self.curves = [fgr.EdgePath(tuple(c)) for c in ref["curves"]]
        if len(self.curves) != 46:
            raise BenchError(f"curve pool has {len(self.curves)} curves, expected 46")
        self.weights = [geo.lambda_assignment(w) for w in ref["weights"]]
        self.lengths = ref["lengths"]

    def start_pass(self, rng: random.Random) -> list:
        order = list(range(len(self.weights)))
        rng.shuffle(order)
        return order

    def run(self, i: int) -> str | None:
        g, lam = self.graph, self.weights[i]
        for c, want in zip(self.curves, self.lengths[i]):
            got = hol.hyp_length(hol.abs_trace_of_path(g, lam, c))
            if not abs(got - want) <= LENGTH_RTOL * abs(want):
                return f"weights {i}: length {got!r} differs from reference {want!r}"
        return None


WORKLOADS = {w.name: w for w in (DetectGenus2, Census12, InvertMixed, Lengths12)}
