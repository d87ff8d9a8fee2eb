"""Path-ordered products: turns, matrices, traces, the closed form."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import weakref
from fractions import Fraction

import mpmath
import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens import screens as scn
from fatscreens import serialize as ser
from fatscreens.errors import DomainError

from conftest import (DATA, IDENTITY, L_MAT, LEFT, R_MAT, RIGHT, det, essential_curve_pool, load,
                      mat_mul, per_step_product, random_in_cell_lambda, random_trivalent,
                      reference_one_left_turn_data, turn_codes, two_update_product)

ONES3 = geo.lambda_assignment([1, 1, 1])


# -- turns --------------------------------------------------------------------

def plan_turns(g, path):
    """Whether the trace plan turns right into each step."""
    return [right for _, right in hol._plan(g, path)]


def test_turn_direction_basics(theta):
    # arriving by 3 (step 0), the next slot 4 is a right turn, the previous slot 5 a left one
    assert plan_turns(theta, fgr.EdgePath((0, 4)))[1] is True
    assert plan_turns(theta, fgr.EdgePath((0, 5)))[1] is False


def test_boundary_cycles_constant_turns(trivalent_corpus):
    for g in trivalent_corpus.values():
        for cyc in fgr.boundary_cycles(g):
            turns = set(plan_turns(g, cyc))
            assert len(turns) == 1
            rev = fgr.EdgePath(tuple(g.pairing(s) for s in reversed(cyc.steps)))
            assert len(set(plan_turns(g, rev))) == 1
            assert set(plan_turns(g, rev)) != turns


def test_mixed_turns_on_essential_cycle(theta):
    assert sorted(plan_turns(theta, fgr.EdgePath((0, 4)))) == [False, True]


# -- matrices -----------------------------------------------------------------

def test_psl_relations_constant():
    def is_pm_identity(m):
        return m in (IDENTITY, (-1.0, 0.0, 0.0, -1.0))

    assert is_pm_identity(mat_mul(R_MAT, L_MAT))
    assert is_pm_identity(mat_mul(mat_mul(R_MAT, R_MAT), R_MAT))
    assert is_pm_identity(mat_mul(mat_mul(L_MAT, L_MAT), L_MAT))
    assert mat_mul(IDENTITY, R_MAT) == R_MAT


def test_edge_matrix_squares_to_identity(trivalent_corpus):
    # X = [[0, s], [-1/s, 0]] from the kernel's row (s, -1/s) of each edge
    rng = random.Random(2)
    for g in trivalent_corpus.values():
        lam = random_in_cell_lambda(g, rng)
        rows = hol._float_rows(g, lam)
        assert len(rows) == g.n_edges
        for s, inv in rows:
            x = (0.0, s, inv, 0.0)
            m11, m12, m21, m22 = mat_mul(x, x)
            assert m11 == pytest.approx(-1, rel=1e-12)
            assert m22 == pytest.approx(-1, rel=1e-12)
            assert abs(m12) < 1e-12 and abs(m21) < 1e-12
            assert det(x) == pytest.approx(1.0, rel=1e-12)


def test_edge_matrix_all_ones(theta):
    assert hol._float_rows(theta, ONES3)[0] == (1.0, -1.0)


def test_reciprocal_cross_ratios_along_cycle(theta):
    lam = geo.lambda_assignment([7.0, 7.0, 1.0])
    cr0 = geo.cross_ratio(theta, lam, 0)
    cr1 = geo.cross_ratio(theta, lam, 4)
    assert cr0 == pytest.approx(1 / 49)
    assert cr1 == pytest.approx(49)
    assert cr0 * cr1 == pytest.approx(1.0, rel=1e-12)


# -- holonomy -----------------------------------------------------------------

def test_theta_trace_all_ones(theta):
    m = hol.holonomy(theta, ONES3, fgr.EdgePath((0, 4)))
    assert abs(m[0] + m[3]) == pytest.approx(3.0, abs=1e-14)
    assert det(m) == pytest.approx(1.0, rel=1e-12)


def test_theta_trace_worked_family(theta):
    for t in (1.0, 10.0, 100.0, 1000.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        tr = hol.abs_trace_of_path(theta, lam, fgr.EdgePath((0, 4)))
        assert tr == pytest.approx(2 + t ** -2, rel=1e-9)


# closed forms on theta, the once-punctured torus (Penner 1987): e_i+ e_j- leaves vertex 0
# by edge i and comes back by edge j, and for weights w with S = w0**2 + w1**2 + w2**2
# its |trace| is S / (wi wj), its gap ((wi - wj)**2 + wk**2) / (wi wj).  They share no factor
# with the full-matrix reference, so they check the kernel and its extended-precision rerun.

def theta_curve(i: int, j: int) -> fgr.EdgePath:
    return fgr.EdgePath((i, 3 + j))


def assert_theta_closed_forms(theta, values):
    lam = geo.lambda_assignment(values)
    w = [Fraction(v) for v in lam.values]
    for i, j in itertools.permutations(range(3), 2):
        k = 3 - i - j
        path = theta_curve(i, j)
        for got, want in ((hol.abs_trace_of_path(theta, lam, path),
                           (w[0] ** 2 + w[1] ** 2 + w[2] ** 2) / (w[i] * w[j])),
                          (hol.trace_gap_of_path(theta, lam, path),
                           ((w[i] - w[j]) ** 2 + w[k] ** 2) / (w[i] * w[j]))):
            assert abs(Fraction(got) - want) <= hol.TRACE_RTOL * want, (values, i, j)


def test_theta_closed_forms_property(theta):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(st.lists(st.floats(1e-8, 1e8), min_size=3, max_size=3))
    def check(values):
        assert_theta_closed_forms(theta, values)

    check()


def test_theta_closed_forms_near_parabolic(theta, monkeypatch):
    # the gaps of e0+ e1- and e1+ e0- round away next to a trace of 2: only the mpf rerun
    # keeps them
    entries = []
    workdps = mpmath.workdps
    monkeypatch.setattr(hol.mpmath, "workdps", lambda dps: entries.append(dps) or workdps(dps))
    for values in ([1, 1, 2 ** -40], [1e10, 1e10, 1], [3, 3 * (1 + 2 ** -30), 2 ** -35]):
        assert_theta_closed_forms(theta, values)
    assert len(entries) >= 6


def packed_poly(g, q, path) -> dict[int, int]:
    """|trace| in tau for weights tau**q_e, q_e even, as {k: c} from ``_packed_trace``'s digits."""
    trace, bits, degree = hol._packed_trace(g, q, path)
    poly, k = {}, -degree
    while trace:
        if c := trace & (1 << bits) - 1:
            poly[k] = c
        trace, k = trace >> bits, k + 2
    return poly


def poly_mul(*polys: dict[int, int]) -> dict[int, int]:
    product = {0: 1}
    for p in polys:
        out: dict[int, int] = {}
        for (j, a), (k, b) in itertools.product(product.items(), p.items()):
            out[j + k] = out.get(j + k, 0) + a * b
        product = out
    return {k: c for k, c in product.items() if c}


def test_theta_markov_equation(theta):
    # X = e0+ e2- and Y = e1+ e2- generate the punctured torus's group, with a parabolic
    # commutator: x**2 + y**2 + z**2 = x y z for x, y, z the |trace| of X, Y and XY (Bowditch
    # 1996), in floats and exactly in the digits of the packed trace: for even exponents,
    # and for exponents n / d, d in {3, 5, 7} prime to n, in tau = t**(1 / 2d)
    paths = theta_curve(0, 2), theta_curve(1, 2), fgr.EdgePath((0, 5, 1, 5))
    rng, odd_rng = random.Random(37), random.Random(41)
    units = set()
    for _ in range(100):
        lam = geo.lambda_assignment([10 ** rng.uniform(-4, 4) for _ in range(3)])
        x, y, z = (hol.abs_trace_of_path(theta, lam, p) for p in paths)
        assert abs(x * x + y * y + z * z - x * y * z) <= 1e-13 * x * y * z
        d = odd_rng.choice((3, 5, 7))
        odd = scn.monomial_family([Fraction(odd_rng.choice([n for n in range(-6 * d, 6 * d + 1)
                                                            if n % d]), d) for _ in range(3)])
        unit, odd_q = asy._tau_exponents(odd)
        units.add(unit)
        for q in ([2 * rng.randint(-6, 6) for _ in range(3)], odd_q):
            x, y, z = (packed_poly(theta, q, p) for p in paths)
            squares: dict[int, int] = {}
            for k, c in itertools.chain(*(poly_mul(p, p).items() for p in (x, y, z))):
                squares[k] = squares.get(k, 0) + c
            assert squares == poly_mul(x, y, z), q
    assert units == {6, 10, 14}


def inverse(g, steps):
    return tuple(map(g.pairing, reversed(steps)))


def farey_walk(g, lam, p, q, limit):
    """The products met walking the Farey tree of the free pair (P, Q) down to
    |trace| <= limit, as (unreduced product, |trace|).  Each step checks Vieta's rule
    tr(PQ) = tr P tr Q - tr(PQ^-1), every trace taken of the reduced path, to the sum of
    the certified errors: tr P tr Q = tr(PQ) + tr(PQ^-1) < 2 tr(PQ) down the tree."""
    def trace(p):
        return hol.abs_trace_of_path(g, lam, fgr.reduce_path(g, fgr.EdgePath(p)))

    found = []
    todo = [(p, q, trace(p), trace(q), trace(p + inverse(g, q)))]
    while todo:
        p, q, tp, tq, t_quotient = todo.pop()
        pq = p + q
        t = trace(pq)
        assert abs(t - (tp * tq - t_quotient)) <= 6 * hol.TRACE_RTOL * t, (len(pq), t)
        found.append((pq, t))
        if t <= limit:      # the children (P, PQ) and (PQ, Q) have quotients Q^-1 and P
            todo += [(p, pq, tp, t, tq), (pq, q, t, tq, tp)]
    return found


@pytest.mark.parametrize("values", [(1, 1.3, 0.7), (1, 1, 1), (3, 0.2, 1.1)])
def test_theta_vieta_and_mcshane(theta, values):
    # X = e0+ e2- and Y = e1+ e2- generate the punctured torus's group; the Farey trees
    # of (X, Y) and (X, Y^-1) list every other simple closed curve once (Bowditch 1996).
    # McShane's identity: 1 / (1 + e^length) sums to 1/2 over the simple closed geodesics
    lam = geo.lambda_assignment(values)
    x, y = theta_curve(0, 2).steps, theta_curve(1, 2).steps
    limit = 1e7
    walk = farey_walk(theta, lam, x, y, limit) + farey_walk(theta, lam, x, inverse(theta, y), limit)
    curves = [(fgr.EdgePath(p), hol.abs_trace_of_path(theta, lam, fgr.EdgePath(p))) for p in (x, y)]
    curves += [(fgr.reduce_path(theta, fgr.EdgePath(p)), t) for p, t in walk]
    assert len({fgr.canonical_path(theta, c) for c, _ in curves}) == len(curves) > 500
    total = math.fsum(1 / (1 + math.exp(hol.hyp_length(t))) for _, t in curves if t <= limit)
    assert abs(total - 0.5) <= 1e-12, total


def test_boundary_cycles_parabolic(trivalent_corpus):
    rng = random.Random(19)
    for g in trivalent_corpus.values():
        for _ in range(10):
            lam = random_in_cell_lambda(g, rng)
            for cyc in fgr.boundary_cycles(g):
                tr = hol.abs_trace_of_path(g, lam, cyc)
                assert abs(tr - 2.0) < 1e-9


def test_trace_invariance_rotation_reversal(trivalent_corpus):
    rng = random.Random(4)
    for g in trivalent_corpus.values():
        pool = essential_curve_pool(g)[:4]
        lam = random_in_cell_lambda(g, rng)
        for p in pool:
            base = hol.abs_trace_of_path(g, lam, p)
            rot = fgr.EdgePath(p.steps[1:] + p.steps[:1])
            rev = fgr.EdgePath(tuple(g.pairing(s) for s in reversed(p.steps)))
            assert hol.abs_trace_of_path(g, lam, rot) == pytest.approx(base, rel=1e-12)
            assert hol.abs_trace_of_path(g, lam, rev) == pytest.approx(base, rel=1e-12)


def test_backtrack_insertion_invariance(trivalent_corpus):
    # the library refuses backtracks: the reference product with identity turns at the
    # inserted backtrack keeps the trace of the path, which is the trace of the reduction
    rng = random.Random(8)
    for g in trivalent_corpus.values():
        pool = essential_curve_pool(g)[:3]
        lam = random_in_cell_lambda(g, rng)
        for p in pool:
            base = hol.abs_trace_of_path(g, lam, p)
            for k in range(len(p.steps)):
                v = g.vertex_of(g.pairing(p.steps[k]))
                for ins in g.vertex_cycles[v]:
                    noisy = p.steps[:k + 1] + (ins, g.pairing(ins)) + p.steps[k + 1:]
                    path = fgr.EdgePath(noisy)
                    fgr.check_closed_path(g, path)
                    a11, _, _, a22 = per_step_product(g, path, lam.values, math.sqrt, True)
                    assert abs(a11 + a22) == pytest.approx(base, rel=1e-9, abs=1e-9)
                    assert hol.abs_trace_of_path(g, lam, fgr.reduce_path(g, path)) == base


# One fault per path on theta (v0: 0 1 2, v1: 3 4 5), or on a valid closed
# path of a graph that is not trivalent.  (0, 4, 5) breaks after its second
# step: 5 leaves v1 but step 4 arrives at v0; the seam turn 5 -> 0 is right.
KERNEL_FAULTS = {
    "not_trivalent": ("wedge.fg", None, "holonomy needs a trivalent graph"),
    "empty": ("theta.fg", (), "empty path"),
    "invalid_first": ("theta.fg", (6, 4), "invalid half-edge id 6 in path"),
    "invalid_last": ("theta.fg", (0, 99), "invalid half-edge id 99 in path"),
    "negative_last": ("theta.fg", (0, 4, -1), "invalid half-edge id -1 in path"),
    "break_mid_path": ("theta.fg", (0, 4, 5), "path breaks between steps 1 and 2"),
    "break_at_seam": ("theta.fg", (5, 0, 4), "path breaks between steps 2 and 3"),
    "backtrack": ("theta.fg", (0, 5, 2, 4), "path is not efficient"),
}

# every route into the kernel: float (rerun in mpf where its bound fails), mpf alone for
# weights beyond the float pass's range, and exact Laurent
KERNEL_ENTRIES = {
    "holonomy": lambda g, p: hol.holonomy(g, ones(g), p),
    "abs_trace_of_path": lambda g, p: hol.abs_trace_of_path(g, ones(g), p),
    "trace_gap_of_path": lambda g, p: hol.trace_gap_of_path(g, ones(g), p),
    "trace_gap_of_path_mpf": lambda g, p: hol.trace_gap_of_path(g, beyond_float(g), p),
    "sweep": lambda g, p: asy.sweep(g, asy_family(g), [p]),
    "gap_leading": lambda g, p: asy._gap_leading(g, asy_family(g), p),
}


def ones(g):
    return geo.lambda_assignment([1.0] * g.n_edges)


def beyond_float(g):
    lam = geo.lambda_assignment([1e-200] + [1.0] * (g.n_edges - 1))
    assert lam.log2_spread == math.inf      # (1e-200)**2 is below the normal range
    return lam


def asy_family(g):
    return scn.monomial_family([e % 2 for e in range(g.n_edges)])


def public_message(g, path):
    """What check_closed_path, then is_efficient, say about the path."""
    try:
        fgr.check_closed_path(g, path)
    except DomainError as err:
        return str(err)
    return None if fgr.is_efficient(g, path) else "path is not efficient"


@pytest.mark.parametrize("entry", KERNEL_ENTRIES)
@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_kernel_error_parity(fault, entry):
    """Each single fault gets one message from every route into the kernel,
    the one the public path checks give."""
    name, steps, message = KERNEL_FAULTS[fault]
    g = load(name)
    if steps is None:
        path = fgr.boundary_cycles(g)[0]
        assert public_message(g, path) is None
        if entry == "sweep":
            message = "sweep needs a trivalent graph"
    else:
        path = fgr.EdgePath(steps)
        assert public_message(g, path) == message
    with pytest.raises(DomainError) as err:
        KERNEL_ENTRIES[entry](g, path)
    assert str(err.value) == message


def test_weight_count_is_checked(theta):
    # two weights used to raise IndexError; a fourth used to be ignored, and
    # whitehead_transport and refine_to_trivalent returned it
    path = fgr.EdgePath((0, 4))     # one left turn, then one right turn
    sector = theta.vertex_cycles[0][0]
    for values in ([1, 1], [1, 1, 1, 1]):
        lam = geo.lambda_assignment(values)
        for entry in (geo.simplicial_coords, geo.in_cell, geo.triangle_inequalities_hold,
                      geo.refine_to_trivalent):
            with pytest.raises(DomainError, match="^one weight per edge required$"):
                entry(theta, lam)
        for entry, arg in ((hol.holonomy, path), (hol.abs_trace_of_path, path),
                           (hol.trace_gap_of_path, path), (geo.cross_ratio, 0),
                           (geo.whitehead_transport, 0), (geo.h_length, sector)):
            with pytest.raises(DomainError, match="^one weight per edge required$"):
                entry(theta, lam, arg)
    # a stray weight used to become the first new diagonal's on a 4-valent vertex
    with pytest.raises(DomainError, match="^one weight per edge required$"):
        geo.refine_to_trivalent(load("wedge.fg"), geo.lambda_assignment([1, 1, 7]))


def test_determinant_one(trivalent_corpus):
    rng = random.Random(12)
    for g in trivalent_corpus.values():
        lam = random_in_cell_lambda(g, rng)
        for p in essential_curve_pool(g)[:4]:
            assert det(hol.holonomy(g, lam, p)) == pytest.approx(1.0, rel=1e-9)


def test_whitehead_trace_invariance(trivalent_corpus):
    rng = random.Random(21)
    for g in trivalent_corpus.values():
        pool = essential_curve_pool(g)[:3]
        for e in range(g.n_edges):
            a, b = g.halves(e)
            if g.vertex_of(a) == g.vertex_of(b):
                continue
            for _ in range(3):
                lam = random_in_cell_lambda(g, rng)
                g2, lam2, mv = geo.whitehead_transport(g, lam, e)
                for p in pool:
                    moved = fgr.transport_path(g, mv, p)
                    before = hol.abs_trace_of_path(g, lam, p)
                    after = hol.abs_trace_of_path(g2, lam2, moved)
                    assert after == pytest.approx(before, rel=1e-9)
            break   # one non-loop edge per graph keeps this quick


# -- kernel regression against full matrix products ----------------------------

def edge_x(g, lam, h):
    """The cross-ratio matrix X = [[0, s], [-1/s, 0]] of step h, s = sqrt(ac/bd) from its own
    quad slots."""
    a, b, c, d = geo.quad_slots(g, h)
    s = math.sqrt((lam[a] * lam[c]) / (lam[b] * lam[d]))
    return 0.0, s, -1.0 / s, 0.0


def reference_traces(g, lam, path):
    """(float product, |trace|, |trace| - 2): the float product chains full 2x2 products,
    T then X per step, the reference values multiply mpmath matrices at 100 digits."""
    acc = IDENTITY
    for turn, h in zip(turn_codes(g, path), path.steps):
        t_mat = {None: IDENTITY, RIGHT: R_MAT, LEFT: L_MAT}[turn]
        acc = mat_mul(mat_mul(acc, t_mat), edge_x(g, lam, h))
    with mpmath.workdps(100):
        tr = mp_abs_trace(g, lam, path)
        return acc, tr, tr - 2


def check_certified(g, lam, path):
    """Both trace functions within TRACE_RTOL of the 100-digit reference, and
    the bit-exact float product; a path with backtracks, refused by the library,
    is traced as its reduction.  True for a boundary-parallel path, whose gap
    must be exactly 0."""
    m, tr, gap = reference_traces(g, lam, path)
    if fgr.is_efficient(g, path):
        assert bits(hol.holonomy(g, lam, path)) == bits(m)
    else:
        path = fgr.reduce_path(g, path)
    got_tr = hol.abs_trace_of_path(g, lam, path)
    got_gap = hol.trace_gap_of_path(g, lam, path)
    assert abs(got_tr - tr) <= hol.TRACE_RTOL * tr
    if fgr.is_boundary_parallel(g, path):
        assert got_gap == 0.0 and abs(gap) < 1e-80 * tr
        return True
    assert abs(got_gap - gap) <= hol.TRACE_RTOL * abs(gap)
    return False


def mp_abs_trace(g, lam, path):
    """|trace| from mpmath matrix products at the caller's working precision."""
    mp_turns = {None: mpmath.matrix([[1, 0], [0, 1]]),
                RIGHT: mpmath.matrix([[1, 1], [-1, 0]]),
                LEFT: mpmath.matrix([[0, -1], [1, 1]])}
    mm = mp_turns[None]
    for turn, h in zip(turn_codes(g, path), path.steps):
        a, b, c, d = geo.quad_slots(g, h)
        s = mpmath.sqrt(mpmath.mpf(lam[a]) * mpmath.mpf(lam[c])
                        / (mpmath.mpf(lam[b]) * mpmath.mpf(lam[d])))
        mm = mm * mp_turns[turn] * mpmath.matrix([[0, s], [-1 / s, 0]])
    return abs(mm[0, 0] + mm[1, 1])


def kernel_cases(trivalent_corpus, genus2):
    rng = random.Random(41)
    for g in trivalent_corpus.values():
        paths = essential_curve_pool(g)[:6] + list(fgr.boundary_cycles(g))
        for k in range(4):
            if k < 2:
                lam = random_in_cell_lambda(g, rng)
            else:
                lam = geo.lambda_assignment([10 ** rng.uniform(-6, 6)
                                             for _ in range(g.n_edges)])
            for p in paths:
                yield g, lam, p
                ins = g.vertex_cycles[g.vertex_of(g.pairing(p.steps[0]))][k % 3]
                yield g, lam, fgr.EdgePath(p.steps[:1] + (ins, g.pairing(ins)) + p.steps[1:])
    for s in scn.enumerate_screens(genus2)[::4]:
        fam = scn.depth_family(s)
        curves = scn.screen_boundary(s)
        for t in (10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0):
            lam = asy.evaluate_family(fam, t)
            for c in curves:
                yield genus2, lam, c


def test_kernel_matches_full_matrix_products(trivalent_corpus, genus2):
    parabolic = total = 0
    for g, lam, p in kernel_cases(trivalent_corpus, genus2):
        parabolic += check_certified(g, lam, p)
        total += 1
    assert total > 2000 and parabolic > 90


def closed_walk(g, rng):
    """A closed efficient path: a walk that turns right or left at random,
    cut at its first repeated step, so it returns to its start by a turn."""
    h = rng.randrange(g.n_half_edges)
    first = {h: 0}
    steps = [h]
    while True:
        arrival = g.pairing(h)
        h = g.sigma(arrival) if rng.random() < 0.5 else g.sigma(g.sigma(arrival))
        if h in first:
            return fgr.EdgePath(tuple(steps[first[h]:]))
        first[h] = len(steps)
        steps.append(h)


def test_kernel_matches_full_matrix_products_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @hypothesis.given(st.sampled_from((3, 6, 9, 12)), st.integers(0, 2 ** 32),
                      st.booleans(), st.integers(0, 3))
    def check(n_edges, seed, wide, n_backtracks):
        rng = random.Random(seed)
        g = random_trivalent(n_edges, rng)
        lam = geo.lambda_assignment([10 ** rng.uniform(-6, 6) if wide else rng.uniform(0.5, 2.0)
                                     for _ in range(n_edges)])
        path = closed_walk(g, rng)
        assert fgr.is_efficient(g, path)
        cases = [path]
        steps = path.steps
        for _ in range(n_backtracks):
            k = rng.randrange(len(steps))
            ins = rng.choice(g.vertex_cycles[g.vertex_of(g.pairing(steps[k]))])
            steps = steps[:k + 1] + (ins, g.pairing(ins)) + steps[k + 1:]
            cases.append(fgr.EdgePath(steps))
        for p in cases:
            check_certified(g, lam, p)

    check()


class Signed(float):
    """A float whose differences must add magnitudes (or involve a 0)."""

    def __sub__(self, other):
        assert not (self > 0 < other or self < 0 > other), (float(self), float(other))
        return Signed(float(self) - other)

    def __mul__(self, other):
        return Signed(float(self) * other)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return Signed(other / float(self))


def test_kernel_adds_magnitudes_property():
    """On an efficient path every column update of the kernel combines entries
    of opposite sign, and a11 and a22 end with the same sign: the no-cancellation
    property that certifies float traces."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @hypothesis.given(st.sampled_from((3, 6, 9, 12)), st.integers(0, 2 ** 32))
    def check(n_edges, seed):
        rng = random.Random(seed)
        g = random_trivalent(n_edges, rng)
        w = [10 ** rng.uniform(-6, 6) for _ in range(n_edges)]
        path = closed_walk(g, rng)
        rows = hol._edge_rows(g, w, lambda x: Signed(math.sqrt(x)), map(g.edge_of, path.steps))
        a11, a12, a21, a22 = hol._product(g, path, rows)
        assert all(type(x) is Signed for x in (a11, a12, a21, a22))
        assert a11 != 0 != a22 and (a11 > 0) == (a22 > 0)

    check()


def test_in_cell_traces_stay_in_float(trivalent_corpus, monkeypatch):
    # in-cell weights certify every pool curve's |trace| from the float product,
    # as the lengths benchmark requires: no extended-precision rerun
    entries = []
    workdps = mpmath.workdps
    monkeypatch.setattr(hol.mpmath, "workdps", lambda dps: entries.append(dps) or workdps(dps))
    rng = random.Random(29)
    for g in trivalent_corpus.values():
        for _ in range(5):
            lam = random_in_cell_lambda(g, rng)
            for p in essential_curve_pool(g):
                assert hol.abs_trace_of_path(g, lam, p) > 2.0
    monkeypatch.undo()
    assert entries == []


# -- per-weights edge rows -----------------------------------------------------

def packed_rows(g, q, path):
    """``_packed_trace``'s int rows of the path's edges for even exponents q, by edge id, each
    from the quad slots of a step over it, in that step's own direction."""
    bits, rows = len(path.steps) + 1, {}
    for h in path.steps:
        a, b, c, d = geo.quad_slots(g, h)
        k = (q[a] + q[c] - q[b] - q[d]) // 2
        rows[g.edge_of(h)] = (1 << k * bits, -1) if k >= 0 else (1, -1 << -k * bits)
    return rows


def bits(entries):
    return tuple(float(x).hex() for x in entries)


def test_step_rows_match_per_step_formula(trivalent_corpus, generated_trivalent, census12):
    """The row-table product, one update per step, equals the per-step formula of two updates
    bit for bit: in float on the corpus and on generated graphs, in mpf and over packed ints;
    with a backtrack inserted, the per-step formula keeps the trace of the reduced path.  So
    does it on the lengths benchmark's graph, curves and weights, in float and in mpf at 20
    digits, where each rounding is coarse enough to show an operation out of order."""
    ref = json.loads((DATA.parents[1] / "perfbench" / "data" / "lengths12_ref.json").read_text())
    curves = [fgr.EdgePath(tuple(c)) for c in ref["curves"]]
    for values in ref["weights"][::16]:
        rows = hol._float_rows(census12, geo.lambda_assignment(values))
        with mpmath.workdps(20):
            w = [mpmath.mpf(v) for v in values]
            mp_rows = hol._edge_rows(census12, w, mpmath.sqrt, range(census12.n_edges))
            for p in curves:
                assert bits(hol._product(census12, p, rows)) == bits(
                    two_update_product(census12, p, rows))
                assert hol._product(census12, p, mp_rows) == two_update_product(
                    census12, p, mp_rows)
    rng, exponents = random.Random(71), random.Random(72)
    count = 0
    graphs = [(g, essential_curve_pool(g)[:12]) for g in trivalent_corpus.values()]
    graphs += [(g, []) for g in generated_trivalent]
    for g, pool in graphs:
        for wide in (False, True):
            lam = (geo.lambda_assignment([10 ** rng.uniform(-6, 6) for _ in range(g.n_edges)])
                   if wide else random_in_cell_lambda(g, rng))
            q = [2 * exponents.randint(-3, 3) for _ in range(g.n_edges)]
            for p in pool + [closed_walk(g, rng) for _ in range(8)]:
                rows = packed_rows(g, q, p)
                assert hol._product(g, p, rows) == two_update_product(g, p, rows)
                want = per_step_product(g, p, lam.values, math.sqrt)
                assert bits(hol._product(g, p, hol._float_rows(g, lam))) == bits(want)
                assert bits(hol.holonomy(g, lam, p)) == bits(want)
                if not wide:    # certified in float: the trace is the float product's
                    assert hol.abs_trace_of_path(g, lam, p) == abs(want[0] + want[3])
                ins = rng.choice(g.vertex_cycles[g.vertex_of(g.pairing(p.steps[0]))])
                noisy = fgr.EdgePath(p.steps[:1] + (ins, g.pairing(ins)) + p.steps[1:])
                tr = hol.abs_trace_of_path(g, lam, fgr.reduce_path(g, noisy))
                with mpmath.workdps(40):    # a backtrack's identity turn may cancel
                    w = [mpmath.mpf(v) for v in lam.values]
                    a11, _, _, a22 = per_step_product(g, noisy, w, mpmath.sqrt, True)
                    assert abs(abs(a11 + a22) - tr) <= hol.TRACE_RTOL * tr
                count += 1
            with mpmath.workdps(40):
                w = [mpmath.mpf(v) for v in lam.values]
                rows = hol._edge_rows(g, w, mpmath.sqrt, map(g.edge_of, p.steps))
                assert hol._product(g, p, rows) == per_step_product(g, p, w, mpmath.sqrt)
    assert count > 250


def test_edge_rows_serve_both_halves(trivalent_corpus, census12, generated_trivalent):
    """Each edge's row equals the per-direction formula, s = sqrt(ac/bd) from a step's own quad
    slots, bit for bit on both halves of the edge: in float, as kept on the weights, and in mpf,
    for in-cell weights and for weights spread over 10**+-6."""
    rng = random.Random(76)
    for g in [*trivalent_corpus.values(), census12, *generated_trivalent]:
        for lam in (random_in_cell_lambda(g, rng),
                    geo.lambda_assignment([10 ** rng.uniform(-6, 6) for _ in range(g.n_edges)])):
            rows = hol._float_rows(g, lam)
            with mpmath.workdps(30):
                w = [mpmath.mpf(v) for v in lam.values]
                mp_rows = hol._edge_rows(g, w, mpmath.sqrt, range(g.n_edges))
                for e, halves in enumerate(g.edge_halves):
                    for h in halves:
                        a, b, c, d = geo.quad_slots(g, h)
                        s = math.sqrt((lam[a] * lam[c]) / (lam[b] * lam[d]))
                        assert bits(rows[e]) == bits((s, -1 / s))
                        s = mpmath.sqrt((w[a] * w[c]) / (w[b] * w[d]))
                        assert mp_rows[e] == (s, -1 / s)
        assert len(rows) == g.n_edges


def test_trace_rows_follow_the_graph(genus2, monkeypatch):
    """One weight object traced alternately on genus2 and on a flip of it, with the same
    edge count but other quads, gives the traces of fresh weights; the rows are built
    once per switch of graph."""
    flipped = fgr.whitehead_move(genus2, genus2.edge_by_label("a")).graph
    assert flipped.n_edges == genus2.n_edges and flipped._edge_quads != genus2._edge_quads
    pools = [(g, essential_curve_pool(g)[:10]) for g in (genus2, flipped)]
    lam = random_in_cell_lambda(genus2, random.Random(73))
    built = []
    edge_rows = hol._edge_rows
    monkeypatch.setattr(hol, "_edge_rows", lambda g, *a: built.append(g) or edge_rows(g, *a))
    for _ in range(3):
        for g, pool in pools:
            for p in pool:
                got = (hol.abs_trace_of_path(g, lam, p), hol.trace_gap_of_path(g, lam, p),
                       hol.holonomy(g, lam, p))
                fresh = geo.lambda_assignment(lam.values)
                assert got == (hol.abs_trace_of_path(g, fresh, p),
                               hol.trace_gap_of_path(g, fresh, p), hol.holonomy(g, fresh, p))
            assert lam._trace_rows[0] is g._edge_quads
    assert built.count(genus2) == 3 * (1 + 10) and built.count(flipped) == 3 * (1 + 10)


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_kernel_faults_are_refused_after_a_trace(fault, theta):
    """Weights whose rows are kept from a successful trace still refuse every fault with
    its message (wedge.fg has two edges, so no trivalent graph traces its weights first)."""
    name, steps, message = KERNEL_FAULTS[fault]
    g = load(name)
    lam = ones(g)
    if g.is_trivalent():
        assert hol.abs_trace_of_path(g, lam, fgr.EdgePath((0, 4))) == 3.0
        assert lam._trace_rows[0] is g._edge_quads
    path = fgr.boundary_cycles(g)[0] if steps is None else fgr.EdgePath(steps)
    for entry in (hol.holonomy, hol.abs_trace_of_path, hol.trace_gap_of_path):
        with pytest.raises(DomainError) as err:
            entry(g, lam, path)
        assert str(err.value) == message


def test_plan_follows_the_graph(genus2, monkeypatch):
    """The pool curves of genus2 and of a flip of it, traced alternately on both graphs, give
    the traces and the refusals of fresh paths with the same steps; a path's plan is made once
    per switch of graph, and a refused path keeps the plan it had."""
    flipped = fgr.whitehead_move(genus2, genus2.edge_by_label("a")).graph
    pool = {p.steps: p for g in (genus2, flipped) for p in essential_curve_pool(g)}
    pool = [pool[k] for k in sorted(pool)]
    lam = random_in_cell_lambda(genus2, random.Random(74))
    made = []
    plan = hol._plan
    monkeypatch.setattr(hol, "_plan", lambda g, p: (plan(g, p), made.append(g))[0])

    def traces(g, p):
        try:
            return (hol.abs_trace_of_path(g, lam, p), hol.trace_gap_of_path(g, lam, p),
                    hol.holonomy(g, lam, p))
        except DomainError as err:
            return str(err)

    refused = set()
    for _ in range(3):
        for g in (genus2, flipped):
            made.clear()
            stale = sum(p._plan[0] is not g._edge_quads for p in pool)
            for p in pool:
                kept = p._plan
                got = traces(g, p)
                assert got == traces(g, fgr.EdgePath(p.steps))
                if isinstance(got, str):
                    refused.add((g, p.steps))
                    assert p._plan == kept and kept[0] is not g._edge_quads
                else:
                    assert p._plan[0] is g._edge_quads
            n_refused = sum(h is g for h, _ in refused)
            assert made == [g] * (stale - n_refused + len(pool) - n_refused)
    assert 0 < len(refused) < len(pool)


def efficient_loop(g, k):
    """An efficient closed path of k distinct steps on g, or None."""
    for h in range(g.n_half_edges):
        for turns in itertools.product((0, 1), repeat=k - 1):
            steps = [h]
            for t in turns:
                right = g.sigma(g.pairing(steps[-1]))
                steps.append(g.sigma(right) if t else right)
            path = fgr.EdgePath(tuple(steps))
            if len(set(steps)) == k and public_message(g, path) is None:
                return path
    return None


def relabelled(g, path, steps):
    """g with its half-edges renamed so that ``path``, of distinct steps, reads ``steps``."""
    name = dict(zip(path.steps, steps))
    rest = iter(sorted(set(range(g.n_half_edges)) - set(steps)))
    name.update((h, next(rest)) for h in range(g.n_half_edges) if h not in name)
    return fgr.Fatgraph(tuple(tuple(name[h] for h in cyc) for cyc in g.vertex_cycles),
                        tuple((name[a], name[b]) for a, b in g.edge_halves), g.edge_labels)


@pytest.mark.parametrize("entry", KERNEL_ENTRIES)
@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_refused_paths_keep_no_plan(fault, entry, mercedes, genus2):
    """A refused path keeps no plan: every route refuses it twice with the same message, also
    after its steps traced on a graph where they are an efficient loop, and keeps the plan of
    that graph.  A path with a plan is equal, hash-equal and repr-equal to a fresh one."""
    name, steps, message = KERNEL_FAULTS[fault]
    g = load(name)
    path = fgr.boundary_cycles(g)[0] if steps is None else fgr.EdgePath(steps)
    if steps is None and entry == "sweep":
        message = "sweep needs a trivalent graph"
    k = len(path)
    others = [relabelled(h, loop, path.steps) for h in (mercedes, genus2)
              if k and 0 <= min(path.steps) and max(path.steps) < h.n_half_edges
              and len(set(path.steps)) == k and (loop := efficient_loop(h, k))]
    runs = [(path, None)] + [(fgr.EdgePath(path.steps), other) for other in others[:1]]
    assert len(runs) == 2 or fault in ("empty", "invalid_last", "negative_last")
    for p, kept in runs:
        if kept:
            assert hol.abs_trace_of_path(kept, ones(kept), p) >= 2
            assert p._plan[0] is getattr(kept, "_edge_quads", None)
        for _ in range(2):
            with pytest.raises(DomainError) as err:
                KERNEL_ENTRIES[entry](g, p)
            assert str(err.value) == message
            assert p._plan[0] is getattr(kept, "_edge_quads", None)
        fresh = fgr.EdgePath(p.steps)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


def test_traced_graph_is_freed_without_the_collector():
    """With the collector off throughout, a graph is freed by reference counting alone once
    its last reference goes: after its screens are enumerated, and after plans kept on the
    faces of its member table are traced by detection, a sweep and the float routes, with
    weights that outlive it and keep their rows."""
    lam = geo.lambda_assignment([1.0] * 9)
    gc.collect()
    gc.disable()
    try:
        g = fgr.parse_fatgraph((DATA / "genus2.fg").read_text())
        assert len(scn.enumerate_screens(g)) == 384
        freed = weakref.ref(g)
        del g
        assert freed() is None
        g = fgr.parse_fatgraph((DATA / "genus2.fg").read_text())
        for s in scn.enumerate_screens(g)[:12]:
            fam = scn.depth_family(s)
            faces = scn.screen_boundary(s)
            assert asy.detect_short_curves(g, fam).curves == faces.curves
            asy.sweep(g, fam, faces)
            for face in faces:
                assert hol.abs_trace_of_path(g, lam, face) >= 2
                assert face._plan[0] is g._edge_quads is lam._trace_rows[0]
        freed = weakref.ref(g)
        del g, s, fam, faces, face
        assert freed() is None
        assert len(lam._trace_rows[1]) == 9
    finally:
        gc.enable()


@pytest.mark.parametrize("fault", [f for f, (name, _, _) in KERNEL_FAULTS.items()
                                   if name == "theta.fg"])
def test_exact_routes_name_the_fault_before_the_size(fault, theta):
    """On theta with q = (10**8, 0, 0) an efficient path needs more than ``EXACT_BITS_MAX``
    bits, but a faulty one is refused for its fault on every exact route, as on the float
    routes."""
    _, steps, message = KERNEL_FAULTS[fault]
    fam = scn.monomial_family([5 * 10 ** 7, 0, 0])
    unit, q = asy._tau_exponents(fam)
    assert q == [10 ** 8, 0, 0]
    routes = (lambda p: hol._packed_trace(theta, q, p), lambda p: asy.sweep(theta, fam, [p]),
              lambda p: asy._gap_leading(theta, fam, p))
    for path, want in ((fgr.EdgePath((0, 4)), "exact trace gap needs 300000003 bits, over "
                        f"{hol.EXACT_BITS_MAX}"), (fgr.EdgePath(steps), message)):
        for route in routes:
            with pytest.raises(DomainError) as err:
                route(path)
            assert str(err.value) == want
    with pytest.raises(DomainError) as err:
        hol.trace_gap_of_path(theta, ones(theta), fgr.EdgePath(steps))
    assert str(err.value) == message


def test_parabolic_traces_are_exact(genus2):
    lam = geo.lambda_assignment([10.0 ** k for k in range(-8, 10, 2)])
    for cyc in fgr.boundary_cycles(genus2):
        twice = fgr.EdgePath(cyc.steps * 2)
        assert hol.trace_gap_of_path(genus2, lam, twice) == 0.0


def test_trace_refuses_gaps_beyond_double_range(genus2):
    # the gap of a+ p- is exactly r**-4 for weights r on a, c, d, p, s, t and 1 / r on b, q, r
    path = ser.parse_curve(genus2, "a+,p-")

    def gap(r):
        lam = geo.lambda_assignment([r if x in "acdpst" else 1 / r for x in "abcdpqrst"])
        return hol.trace_gap_of_path(genus2, lam, path)

    assert abs(gap(1e10) - 1e-40) <= hol.TRACE_RTOL * 1e-40
    with pytest.raises(DomainError, match=r"^\|trace\| - 2 = 1\.0e-400 is beyond double range$"):
        gap(1e100)
    with pytest.raises(DomainError, match="of a 2-step path cancels past 1000 digits$"):
        gap(1e300)


def test_trace_refines_when_float_leaves_range(theta):
    # in double precision the cross ratio underflows to 0 (1e200, 1e-200),
    # the product overflows to inf (1e-160), the roundoff bound overflows
    # (1e160 everywhere) or weight products go subnormal and lose digits
    # (1e-160, 1e-160, 1e-150); the extended-precision product does none of these
    path = fgr.EdgePath((0, 4))
    for values in ([1e200, 1, 1], [1e160, 1, 1], [1e-160, 1, 1], [1e160] * 3, [1e-200] * 3,
                   [1e-160, 1e-160, 1e-150]):
        lam = geo.lambda_assignment(values)
        with mpmath.workdps(60):
            tr = mp_abs_trace(theta, lam, path)
            want, want_gap = float(tr), float(tr - 2)
        assert hol.abs_trace_of_path(theta, lam, path) == want
        assert hol.trace_gap_of_path(theta, lam, path) == want_gap
    lam = geo.lambda_assignment([1e200, 1, 1])
    assert hol.abs_trace_of_path(theta, lam, path) == pytest.approx(1e200, rel=1e-12)


def test_holonomy_refuses_cross_ratios_that_underflow(theta):
    # the float rows of these weights divide by a weight product or a cross ratio that
    # underflows to 0, or take a cross ratio of products that overflow to inf (inf / inf is
    # nan); the certified traces never build them (see the test above)
    for values in ([1e-170, 1e170, 1], [1e200, 1, 1], [1e-160, 1, 1], [1e160] * 3, [1e200] * 3):
        with pytest.raises(DomainError) as err:
            hol.holonomy(theta, geo.lambda_assignment(values), fgr.EdgePath((0, 4)))
        assert str(err.value) == "a cross ratio of these weights is beyond double range"
    # or the cross ratios are in range and the product leaves it: (0, 4) four times
    # multiplies entries by about 1e100 per turn, and the trace functions refuse it too
    lam, path = geo.lambda_assignment([1e100, 1, 1]), fgr.EdgePath((0, 4) * 4)
    with pytest.raises(DomainError) as err:
        hol.holonomy(theta, lam, path)
    assert str(err.value) == "the holonomy of this path is beyond double range"
    with pytest.raises(DomainError, match="beyond double range$"):
        hol.abs_trace_of_path(theta, lam, path)


# -- lengths --------------------------------------------------------------------

def test_hyp_length_values():
    assert hol.hyp_length(2.0) == 0.0
    assert hol.hyp_length(3.0) == pytest.approx(1.9248473002384139, rel=1e-12)
    t = 10.0
    assert hol.hyp_length(2 + t ** -2) == pytest.approx(2 * math.acosh(1.005), rel=1e-12)
    with pytest.raises(DomainError):
        hol.hyp_length(1.5)


def test_hyp_length_from_gap_matches_and_stays_stable():
    for gap in (1e-2, 1e-6, 0.5, 3.0):
        assert hol.hyp_length_from_gap(gap) == pytest.approx(
            hol.hyp_length(2.0 + gap), rel=1e-12)
    # below double epsilon of 2.0 the trace form saturates, the gap form not
    tiny = 1e-20
    assert hol.hyp_length_from_gap(tiny) == pytest.approx(2 * math.sqrt(tiny), rel=1e-6)
    assert hol.hyp_length_from_gap(0.0) == 0.0
    # far above 1e300 the gap form must not overflow on the way to acosh
    for huge in (2e200, 1e300):
        assert hol.hyp_length_from_gap(huge) == pytest.approx(
            2 * math.acosh(1 + huge / 2), rel=1e-12)
    with pytest.raises(DomainError):
        hol.hyp_length_from_gap(-1e-3)


def test_trace_gap_below_double_epsilon(theta):
    t = 1e9
    lam = geo.lambda_assignment([t, t, 1.0])
    gap = hol.trace_gap_of_path(theta, lam, fgr.EdgePath((0, 4)))
    assert gap == pytest.approx(t ** -2, rel=1e-9)
    assert 2.0 + gap == 2.0   # the trace itself is unrepresentable


def test_terms_at_outside_double_range():
    assert hol.terms_at([], 2, 1e4) == 0.0
    # t**80 overflows a double and t**-80.5 is subnormal: both are summed over mpf,
    # where the float product 3 * t**-80.5 would give 2.96e-322
    assert hol.terms_at([(160, 1)], 2, 1e4) == math.inf
    assert hol.terms_at([(-161, 3)], 2, 1e4) == 3e-322
    # (t - 1)**2 / t at t = 1 + 2**-30 cancels 2**61-fold
    t = 1 + 2 ** -30
    with mpmath.workdps(40):
        want = float((mpmath.mpf(t) - 1) ** 2 / t)
    assert hol.terms_at([(-2, 1), (0, -2), (2, 1)], 2, t) == pytest.approx(want, rel=1e-15)
    # every float term underflows: the mpf sum 1e-400 rounds to 0.0, as overflow gives inf
    assert hol.terms_at([(-400, 1)], 1, 10.0) == 0.0


def test_terms_at_refuses_a_sum_that_is_0_at_t():
    # 2 - t**0.5 is exactly 0 at t = 4: no number of digits certifies its sign
    with pytest.raises(DomainError, match="^a sum of 2 powers of t=4 cancels past 1000 digits$"):
        hol.terms_at([(0, 2), (1, -1)], 2, 4.0)


def test_terms_at_bounds_each_exponent_by_its_own_rounding(monkeypatch):
    # -11 / 12 rounds by 3.7e-17, so t**(-11 / 12) is good to 15 digits in floats at t = 1e4;
    # its worst case |k / unit| ln t * 2**-53 gave 1.5e-15 and a rerun over mpf
    entries = []
    workdps = mpmath.workdps
    monkeypatch.setattr(hol.mpmath, "workdps", lambda dps: entries.append(dps) or workdps(dps))
    got = hol.terms_at([(-11, 1)], 12, 1e4)
    monkeypatch.undo()
    assert entries == []
    with mpmath.workdps(40):
        want = mpmath.mpf(10) ** (mpmath.mpf(-44) / 12)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("k", [5, 6])
def test_terms_at_coefficient_beyond_double_range(k):
    # 10**200 * t**(k / 12) overflows as a float product, not in the power: the sum is inf as
    # in mpf, whether or not k / 12 rounds and its correction is taken
    assert hol.terms_at([(k, 10 ** 200)], 12, 1e300) == math.inf


def terms_and_reruns(monkeypatch, evaluations):
    """``terms_at`` of each (monomials, unit, t), and whether it opened ``workdps``."""
    entries, results = [], []
    workdps = mpmath.workdps
    monkeypatch.setattr(hol.mpmath, "workdps", lambda dps: entries.append(dps) or workdps(dps))
    for poly, unit, t in evaluations:
        opened = len(entries)
        results.append((hol.terms_at(poly, unit, t), len(entries) > opened))
    monkeypatch.undo()
    return results


def gap_evaluations(g, families, curves):
    """(gap monomials, unit, t) of each curve along each family at the default schedule."""
    for fam in families:
        unit, q = asy._tau_exponents(fam)
        for c in curves:
            poly = hol._exact_gap_poly(g, q, c)
            yield from ((poly, unit, t) for t in asy.SweepSchedule().t_values)


@pytest.mark.parametrize("seed", [5, 6])
def test_terms_at_keeps_rational_exponents_in_floats(genus2, monkeypatch, seed):
    # exponents from {1/3, 5/6, 3/2}: unit 12, where most k / unit round in binary; few of
    # these sums cancel, so all but a few are certified in floats
    rng = random.Random(seed)
    families = [scn.MonomialFamily(tuple(rng.choice([Fraction(1, 3), Fraction(5, 6),
                                                     Fraction(3, 2)]) for _ in genus2.edge_labels))
                for _ in range(40)]
    evaluations = list(gap_evaluations(genus2, families, essential_curve_pool(genus2)[:10]))
    results = terms_and_reruns(monkeypatch, evaluations)
    assert len(results) == 1600 and sum(reran for _, reran in results) <= 20
    with mpmath.workdps(60):
        for (got, _), (poly, unit, t) in zip(results, evaluations):
            want = mpmath.fsum(c * mpmath.mpf(t) ** (mpmath.mpf(k) / unit) for k, c in poly)
            assert abs(got - want) <= 1e-15 * abs(want), (poly, unit, t)


def test_terms_at_is_the_plain_fsum_where_unit_is_a_power_of_2(genus2, monkeypatch):
    # k / unit is exact, so no term is corrected: a value certified in floats is the fsum of
    # the float powers, bit for bit, for integer, half-integer and quarter exponents
    rng = random.Random(24)
    families = [scn.depth_family(s) for s in scn.enumerate_screens(genus2)[::8]]
    families += [scn.MonomialFamily(tuple(Fraction(rng.randrange(-4, 9), d)
                                          for _ in genus2.edge_labels))
                 for d in (2, 4) for _ in range(10)]
    evaluations = list(gap_evaluations(genus2, families, essential_curve_pool(genus2)[:10]))
    results = terms_and_reruns(monkeypatch, evaluations)
    for (got, reran), (poly, unit, t) in zip(results, evaluations):
        assert not unit & unit - 1
        assert reran or got == math.fsum(c * t ** (k / unit) for k, c in poly), (poly, unit, t)
    assert sum(not reran for _, reran in results) > len(results) // 2


# -- one-left-turn closed form -----------------------------------------------------

def test_one_left_turn_trace_simple():
    assert hol.one_left_turn_trace([1.0, 1.0]) == pytest.approx(3.0)
    # direct product check for three factors, all ones:
    # L X R X R X with X = [[0,1],[-1,0]]
    x = (0.0, 1.0, -1.0, 0.0)
    m = L_MAT
    for t_mat in (x, R_MAT, x, R_MAT, x):
        m = mat_mul(m, t_mat)
    assert hol.one_left_turn_trace([1.0, 1.0, 1.0]) == pytest.approx(abs(m[0] + m[3]))


def one_left_turn_paths(g, max_len=8):
    """Closed efficient paths with exactly one left turn, up to rotation."""
    found = {}
    for start in range(g.n_half_edges):
        stack = [(start, (start,))]
        while stack:
            step, path = stack.pop()
            arrive = g.pairing(step)
            for nxt in g.vertex_cycles[g.vertex_of(arrive)]:
                if nxt == arrive:
                    continue
                if nxt == start and len(path) >= 2:
                    cand = fgr.EdgePath(path)
                    if turn_codes(g, cand).count(LEFT) == 1:
                        found[fgr.canonical_path(g, cand).steps] = cand
                if len(path) < max_len:
                    stack.append((nxt, path + (nxt,)))
    return list(found.values())


def test_closed_form_matches_matrix_product(trivalent_corpus):
    rng = random.Random(33)
    total = 0
    for g in trivalent_corpus.values():
        paths = one_left_turn_paths(g, max_len=6)
        for p in paths[:6]:
            for _ in range(3):
                lam = random_in_cell_lambda(g, rng)
                data = reference_one_left_turn_data(g, lam, p)
                closed = hol.one_left_turn_trace(data.zetas)
                matrix = hol.abs_trace_of_path(g, lam, p)
                assert abs(closed) == pytest.approx(matrix, rel=1e-9)
                total += 1
    assert total >= 20


def test_zeta_factors_are_cross_ratios(theta):
    for t in (3.0, 11.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        p = fgr.EdgePath((0, 4))
        data = reference_one_left_turn_data(theta, lam, p)
        start = turn_codes(theta, p).index(LEFT)
        steps = p.steps[start:] + p.steps[:start]
        for z, s in zip(data.zetas, steps):
            assert z ** -2 == pytest.approx(geo.cross_ratio(theta, lam, s), rel=1e-12)
        assert data.zeta_product == pytest.approx(1.0, rel=1e-12)


def test_zeta_product_telescopes(trivalent_corpus):
    rng = random.Random(35)
    for g in trivalent_corpus.values():
        for p in one_left_turn_paths(g, max_len=6)[:4]:
            lam = random_in_cell_lambda(g, rng)
            data = reference_one_left_turn_data(g, lam, p)
            y = [lam[e] for e in data.traversed_edges]
            assert data.zeta_product == pytest.approx(y[-1] / y[0], rel=1e-12)


# -- Whitehead invariance on generated graphs -----------------------------------

def test_whitehead_trace_invariance_generated(generated_trivalent):
    rng = random.Random(67)
    for g in generated_trivalent:
        flips = [e for e in range(g.n_edges)
                 if g.vertex_of(g.halves(e)[0]) != g.vertex_of(g.halves(e)[1])][:3]
        for e in flips:
            lam = geo.lambda_assignment([rng.uniform(0.5, 2.0) for _ in range(g.n_edges)])
            g2, lam2, mv = geo.whitehead_transport(g, lam, e)
            for p in [closed_walk(g, rng) for _ in range(3)]:
                moved = fgr.transport_path(g, mv, p)
                before = hol.abs_trace_of_path(g, lam, p)
                assert hol.abs_trace_of_path(g2, lam2, moved) == pytest.approx(before, rel=1e-9)
