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
def trivalent_corpus(theta, theta_planar, mercedes, genus2, barbell):
    return {"theta": theta, "theta_planar": theta_planar, "mercedes": mercedes,
            "genus2": genus2, "barbell": barbell}


@pytest.fixture(scope="session")
def generated_trivalent(barbell):
    """Seeded random trivalent graphs of 3 to 30 edges, and barbell for its loops."""
    rng = random.Random(53)
    return [barbell] + [random_trivalent(n, rng) for n in range(3, 31, 3)]


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
