"""Shared corpus graphs and sampling helpers."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo

DATA = Path(__file__).parent / "data"


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
    return fgr.parse_fatgraph((DATA.parents[1] / "perfbench" / "data" / "census12.fg").read_text())


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


def two_update_product(g: fgr.Fatgraph, path: fgr.EdgePath, rows,
                       allow_backtrack: bool = False) -> tuple:
    """The trace kernel as two updates per step: the turn's column update, then X's, with the
    turns read from ``g._step_table`` and (s, -1/s) from ``rows``.  With ``allow_backtrack`` a
    step that is neither turn, on a closed path the backtrack, turns by the identity, which
    keeps |trace|."""
    right, left = g._step_table[path.steps[-1]][:2]
    a11, a12, a21, a22 = 1, 0, 0, 1
    for h in path.steps:
        if h == right:
            a11, a12, a21, a22 = a11 - a12, a11, a21 - a22, a21
        elif h == left:
            a11, a12, a21, a22 = a12, a12 - a11, a22, a22 - a21
        else:
            assert allow_backtrack
        right, left = g._step_table[h][:2]
        s, inv = rows[h]
        a11, a12, a21, a22 = a12 * inv, a11 * s, a22 * inv, a21 * s
    return a11, a12, a21, a22


def per_step_product(g: fgr.Fatgraph, path: fgr.EdgePath, w, sqrt,
                     allow_backtrack: bool = False) -> tuple:
    """The two-update kernel with s and -1/s computed at every step from the quad slots."""
    rows = {}
    for h in path.steps:
        _, _, a, b, c, d = g._step_table[h]
        s = sqrt((w[a] * w[c]) / (w[b] * w[d]))
        rows[h] = s, -1 / s
    return two_update_product(g, path, rows, allow_backtrack)
