"""Shared corpus graphs and sampling helpers."""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import NamedTuple

import pytest

from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo

import oracles

DATA = Path(__file__).parent / "data"
CENSUS12 = DATA.parents[1] / "perfbench" / "data" / "census12.fg"


def load(name: str) -> fgr.Fatgraph:
    return fgr.parse_fatgraph((DATA / name).read_text())


@pytest.fixture(scope="session")
def theta() -> fgr.Fatgraph:
    return load("theta.fg")


@pytest.fixture(scope="session")
def theta_planar() -> fgr.Fatgraph:
    return load("theta_planar.fg")


@pytest.fixture(scope="session")
def mercedes() -> fgr.Fatgraph:
    return load("mercedes.fg")


@pytest.fixture(scope="session")
def genus2() -> fgr.Fatgraph:
    return load("genus2.fg")


@pytest.fixture(scope="session")
def barbell() -> fgr.Fatgraph:
    return load("barbell.fg")


@pytest.fixture(scope="session")
def census12() -> fgr.Fatgraph:
    """The benchmark's 12-edge genus-1 graph with four punctures: 6656 screens."""
    return fgr.parse_fatgraph(CENSUS12.read_text())


@pytest.fixture(scope="session")
def trivalent_corpus(theta, theta_planar, mercedes, genus2, barbell):
    return {"theta": theta, "theta_planar": theta_planar, "mercedes": mercedes,
            "genus2": genus2, "barbell": barbell}


@pytest.fixture(scope="session")
def generated_trivalent(barbell):
    """Seeded random trivalent graphs of 3 to 30 edges, and barbell for its loops."""
    rng = random.Random(53)
    return [barbell] + [random_trivalent(n, rng) for n in range(3, 31, 3)]


@pytest.fixture(scope="session")
def generated_fatgraphs():
    """Seeded random fatgraphs of 1 to 12 edges, twice each: any valence,
    with loops and parallel edges."""
    rng = random.Random(59)
    return [random_fatgraph(n, rng) for n in range(1, 13) for _ in range(2)]


@pytest.fixture(scope="session")
def screen_corpus(theta, mercedes, genus2):
    """The graphs whose screens are enumerated exhaustively."""
    return {"theta": theta, "mercedes": mercedes, "genus2": genus2}


def random_in_cell_lambda(g: fgr.Fatgraph, rng: random.Random,
                          lo: float = 0.5, hi: float = 2.0,
                          max_tries: int = 10000) -> geo.LambdaAssignment:
    """Rejection-sample weights in [lo, hi]^E satisfying the cell condition."""
    for _ in range(max_tries):
        lam = geo.lambda_assignment([rng.uniform(lo, hi) for _ in range(g.n_edges)])
        if geo.in_cell(g, lam):
            return lam
    raise RuntimeError("no in-cell sample found")


def random_fatgraph(n_edges: int, rng: random.Random,
                    max_tries: int = 2000) -> fgr.Fatgraph:
    """Random connected fatgraph: random rotation with the standard pairing."""
    n = 2 * n_edges
    halves = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    for _ in range(max_tries):
        perm = list(range(n))
        rng.shuffle(perm)
        cycles = _cycles_of_permutation(perm)
        try:
            return fgr.build(cycles, halves)
        except fgr.DomainError:
            continue
    raise RuntimeError("no connected sample found")


def random_trivalent(n_edges: int, rng: random.Random,
                     max_tries: int = 2000) -> fgr.Fatgraph:
    """Random connected trivalent fatgraph: vertex v rotates (3v, 3v+1, 3v+2),
    and the half-edges are paired at random."""
    n_vertices, rem = divmod(2 * n_edges, 3)
    if rem:
        raise ValueError("a trivalent graph needs 2 * n_edges divisible by 3")
    cycles = [(3 * v, 3 * v + 1, 3 * v + 2) for v in range(n_vertices)]
    for _ in range(max_tries):
        halves = list(range(2 * n_edges))
        rng.shuffle(halves)
        try:
            return fgr.build(cycles, list(zip(halves[::2], halves[1::2])))
        except fgr.DomainError:
            continue
    raise RuntimeError("no connected sample found")


def _cycles_of_permutation(perm: list[int]) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    return cycles


def all_rotations(n_edges: int):
    """Every fatgraph structure on the standard pairing, one per rotation.

    Yields connected graphs only; isomorphic duplicates are not removed.
    """
    from itertools import permutations
    n = 2 * n_edges
    halves = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    for perm in permutations(range(n)):
        cycles = _cycles_of_permutation(list(perm))
        try:
            yield fgr.build(cycles, halves)
        except fgr.DomainError:
            continue


def essential_curve_pool(g: fgr.Fatgraph) -> list[fgr.EdgePath]:
    """Essential curves found as boundaries of recurrent proper subsets."""
    pool: dict[tuple, fgr.EdgePath] = {}
    top = g.all_edges()
    for sub in fgr.recurrent_subsets(g):
        if sub != top:
            for c in fgr.subset_boundary(g, sub):
                pool[c.steps] = c
    return [pool[k] for k in sorted(pool)]


# The full-matrix reference: a 2x2 matrix as the tuple (m11, m12, m21, m22), the turn
# matrices R and L as in the holonomy module's docstring.
IDENTITY = (1.0, 0.0, 0.0, 1.0)
R_MAT = (1.0, 1.0, -1.0, 0.0)
L_MAT = (0.0, -1.0, 1.0, 1.0)


def mat_mul(m: tuple, n: tuple) -> tuple:
    """The product m n, each entry the sum of its two products in row-column order."""
    m11, m12, m21, m22 = m
    n11, n12, n21, n22 = n
    return (m11 * n11 + m12 * n21, m11 * n12 + m12 * n22,
            m21 * n11 + m22 * n21, m21 * n12 + m22 * n22)


def det(m: tuple) -> float:
    m11, m12, m21, m22 = m
    return m11 * m22 - m12 * m21


def _two_updates(g: fgr.Fatgraph, path: fgr.EdgePath, row, allow_backtrack: bool) -> tuple:
    """The trace kernel as two updates per step: the turn's column update, then X's, with the
    turns out of each arrival iota(h) read off the rotation, right = sigma(iota(h)) and left =
    sigma(right), and (s, -1/s) of step h from ``row(h)``.  With ``allow_backtrack`` a step that
    is neither turn, on a closed path the backtrack, turns by the identity, which keeps
    |trace|."""
    right = g.sigma(g.pairing(path.steps[-1]))
    a11, a12, a21, a22 = 1, 0, 0, 1
    for h in path.steps:
        if h == right:
            a11, a12, a21, a22 = a11 - a12, a11, a21 - a22, a21
        elif h == g.sigma(right):
            a11, a12, a21, a22 = a12, a12 - a11, a22, a22 - a21
        else:
            assert allow_backtrack
        right = g.sigma(g.pairing(h))
        s, inv = row(h)
        a11, a12, a21, a22 = a12 * inv, a11 * s, a22 * inv, a21 * s
    return a11, a12, a21, a22


def two_update_product(g: fgr.Fatgraph, path: fgr.EdgePath, rows) -> tuple:
    """The two-update kernel on ``rows`` by edge id, the rows ``holonomy._product`` reads."""
    return _two_updates(g, path, lambda h: rows[g.edge_of(h)], False)


def per_step_product(g: fgr.Fatgraph, path: fgr.EdgePath, w, sqrt,
                     allow_backtrack: bool = False) -> tuple:
    """The two-update kernel with s and -1/s computed at every step from its own quad slots,
    in its own direction."""
    def row(h):
        a, b, c, d = oracles.quad_slots(g, h)
        s = sqrt((w[a] * w[c]) / (w[b] * w[d]))
        return s, -1 / s

    return _two_updates(g, path, row, allow_backtrack)


# The tests' own turn rule and references for identities along a closed efficient path: out of
# the arrival iota(h) of a step h the path turns right onto sigma(iota(h)), else left.
RIGHT, LEFT = "R", "L"


def turn_codes(g: fgr.Fatgraph, path: fgr.EdgePath) -> list:
    """Turn into each step off the rotation, None at a backtrack: out of the arrival
    iota(h) of the previous step h, right onto sigma(iota(h)), else left."""
    turns = []
    for k, h in enumerate(path.steps):
        incoming = g.pairing(path.steps[k - 1])
        turns.append(None if h == incoming else RIGHT if h == g.sigma(incoming) else LEFT)
    return turns


def third_slot(g: fgr.Fatgraph, arrive: int, depart: int) -> int:
    """The half-edge at a turn's vertex that the path neither arrives by nor departs by."""
    return next(h for h in g.vertex_cycles[g.vertex_of(arrive)] if h not in (arrive, depart))


def reference_telescoping_sides(g, lam, path) -> tuple[float, float]:
    """(sum of coordinates over the traversed edges, twice the sum of the h-lengths of the
    sectors the path passes by): the two agree on every closed efficient path, as each vertex
    visit adds the same to both."""
    coords = geo.simplicial_coords(g, lam)
    sum_x = sum(coords[g.edge_of(s)] for s in path.steps)
    sum_h = 0.0
    n = len(path.steps)
    for k in range(n):
        arrive = g.pairing(path.steps[k])
        depart = path.steps[(k + 1) % n]
        third = third_slot(g, arrive, depart)
        sum_h += lam[g.edge_of(third)] / (lam[g.edge_of(arrive)] * lam[g.edge_of(depart)])
    return sum_x, 2.0 * sum_h


class OneLeftTurn(NamedTuple):
    """Cross-ratio factors of a path with one left turn, read from its start at that turn."""

    zetas: tuple[float, ...]
    zeta_product: float             # telescopes to lambda(y_{n+1}) / lambda(y_1)
    traversed_edges: tuple[int, ...]


def reference_one_left_turn_data(g, lam, path) -> OneLeftTurn:
    """The zeta factors of a closed path with exactly one left turn, started at it.  With
    traversed edges y_1..y_{n+1}, off-path slot x_0 at the left turn and x_1..x_n at the right
    turns: zeta_1^2 = y_2 y_{n+1} / (x_1 x_0), zeta_k^2 = y_{k+1} x_{k-1} / (x_k y_{k-1}) for
    k = 2..n and zeta_{n+1}^2 = x_0 x_n / (y_1 y_n); zeta_k^-2 is the cross ratio of y_k."""
    start = turn_codes(g, path).index(LEFT)
    steps = path.steps[start:] + path.steps[:start]
    n = len(steps) - 1
    y = [lam[g.edge_of(s)] for s in steps]
    x = [lam[g.edge_of(third_slot(g, g.pairing(s), t))]
         for s, t in zip(steps, steps[1:] + steps[:1])]
    zetas = [math.sqrt((y[1] * y[n]) / (x[0] * x[-1]))]
    zetas += [math.sqrt((y[k] * x[k - 2]) / (x[k - 1] * y[k - 2])) for k in range(2, n + 1)]
    zetas.append(math.sqrt((x[-1] * x[n - 1]) / (y[0] * y[n - 1])))
    return OneLeftTurn(tuple(zetas), math.prod(zetas), tuple(g.edge_of(s) for s in steps))
