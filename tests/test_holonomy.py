"""Path-ordered products: turns, matrices, traces, the closed form."""

from __future__ import annotations

import math
import random

import mpmath
import pytest

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import geometry as geo
from fatscreens import holonomy as hol
from fatscreens import screens as scn
from fatscreens.errors import DomainError

from conftest import essential_curve_pool, load, random_in_cell_lambda, random_trivalent

ONES3 = geo.lambda_assignment([1, 1, 1])


# -- turns --------------------------------------------------------------------

def test_turn_direction_basics(theta):
    assert hol.turn_direction(theta, 3, 4) == hol.RIGHT   # next slot
    assert hol.turn_direction(theta, 3, 5) == hol.LEFT    # previous slot
    with pytest.raises(DomainError, match="[Bb]acktrack"):
        hol.turn_direction(theta, 3, 3)
    with pytest.raises(DomainError, match="share a vertex"):
        hol.turn_direction(theta, 3, 0)


def test_boundary_cycles_constant_turns(trivalent_corpus):
    for g in trivalent_corpus.values():
        for cyc in fgr.boundary_cycles(g):
            turns = set(hol.path_turns(g, cyc))
            assert len(turns) == 1
            rev = fgr.EdgePath(tuple(g.pairing(s) for s in reversed(cyc.steps)))
            assert len(set(hol.path_turns(g, rev))) == 1
            assert set(hol.path_turns(g, rev)) != turns


def test_mixed_turns_on_essential_cycle(theta):
    assert sorted(hol.path_turns(theta, fgr.EdgePath((0, 4)))) == ["L", "R"]


# -- matrices -----------------------------------------------------------------

def test_psl_relations_constant():
    r_mat, l_mat = hol.turn_matrices()
    ident = hol.IDENTITY

    def is_pm_identity(m, tol=0.0):
        for sign in (1.0, -1.0):
            if (abs(m.m11 - sign) <= tol and abs(m.m22 - sign) <= tol
                    and abs(m.m12) <= tol and abs(m.m21) <= tol):
                return True
        return False

    assert is_pm_identity(r_mat @ l_mat)
    assert is_pm_identity(r_mat @ r_mat @ r_mat)
    assert is_pm_identity(l_mat @ l_mat @ l_mat)
    assert ident @ r_mat == r_mat


def test_edge_matrix_squares_to_identity(trivalent_corpus):
    rng = random.Random(2)
    for g in trivalent_corpus.values():
        lam = random_in_cell_lambda(g, rng)
        for h in range(g.n_half_edges):
            x = hol.edge_matrix(g, lam, h)
            sq = x @ x
            assert sq.m11 == pytest.approx(-1, rel=1e-12)
            assert sq.m22 == pytest.approx(-1, rel=1e-12)
            assert abs(sq.m12) < 1e-12 and abs(sq.m21) < 1e-12
            assert x.det() == pytest.approx(1.0, rel=1e-12)


def test_edge_matrix_all_ones(theta):
    x = hol.edge_matrix(theta, ONES3, 0)
    assert (x.m11, x.m12, x.m21, x.m22) == (0.0, 1.0, -1.0, 0.0)


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
    assert hol.abs_trace(m) == pytest.approx(3.0, abs=1e-14)
    assert m.det() == pytest.approx(1.0, rel=1e-12)


def test_theta_trace_worked_family(theta):
    for t in (1.0, 10.0, 100.0, 1000.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        tr = hol.abs_trace_of_path(theta, lam, fgr.EdgePath((0, 4)))
        assert tr == pytest.approx(2 + t ** -2, rel=1e-9)


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
    rng = random.Random(8)
    for g in trivalent_corpus.values():
        pool = essential_curve_pool(g)[:3]
        lam = random_in_cell_lambda(g, rng)
        for p in pool:
            base = hol.abs_trace_of_path(g, lam, p)
            for k in range(len(p.steps)):
                v = g.step_head(p.steps[k])
                for ins in g.vertex_cycles[v]:
                    noisy = p.steps[:k + 1] + (ins, g.pairing(ins)) + p.steps[k + 1:]
                    path = fgr.EdgePath(noisy)
                    fgr.check_closed_path(g, path)
                    tr = hol.abs_trace_of_path(g, lam, path, allow_backtrack=True)
                    assert tr == pytest.approx(base, rel=1e-9, abs=1e-9)


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

# every route into the kernel: float (refined in mpf near 2) and exact Laurent
KERNEL_ENTRIES = {
    "holonomy": lambda g, p, bt: hol.holonomy(g, ones(g), p, allow_backtrack=bt),
    "abs_trace_of_path": lambda g, p, bt: hol.abs_trace_of_path(g, ones(g), p, allow_backtrack=bt),
    "trace_gap_of_path": lambda g, p, bt: hol.trace_gap_of_path(g, ones(g), p, allow_backtrack=bt),
    "sweep": lambda g, p, bt: asy.sweep(g, asy_family(g), [p]),
    "gap_leading": lambda g, p, bt: asy._gap_leading(g, asy_family(g), p),
}


def ones(g):
    return geo.lambda_assignment([1.0] * g.n_edges)


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
    the one the public path checks give; a break or a bad id is refused even
    where backtracks are allowed."""
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
    run = KERNEL_ENTRIES[entry]
    allow = (False, True) if entry not in ("sweep", "gap_leading") else (False,)
    for backtrack in allow:
        if backtrack and fault == "backtrack":
            run(g, path, backtrack)     # allowed: the turn is the identity
            continue
        with pytest.raises(DomainError) as err:
            run(g, path, backtrack)
        assert str(err.value) == message


def test_determinant_one(trivalent_corpus):
    rng = random.Random(12)
    for g in trivalent_corpus.values():
        lam = random_in_cell_lambda(g, rng)
        for p in essential_curve_pool(g)[:4]:
            m = hol.holonomy(g, lam, p)
            assert m.det() == pytest.approx(1.0, rel=1e-9)


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

def reference_traces(g, lam, path):
    """(float product, |trace|, |trace| - 2, refined) from full 2x2 products.

    The float product chains Mat2 matrices; refined evaluations multiply
    mpmath matrices at the library's working precision.
    """
    r_mat, l_mat = hol.turn_matrices()
    acc = hol.IDENTITY
    for turn, h in zip(turn_codes(g, path), path.steps):
        t_mat = {None: hol.IDENTITY, hol.RIGHT: r_mat, hol.LEFT: l_mat}[turn]
        acc = acc @ t_mat @ hol.edge_matrix(g, lam, h)
    if not hol._needs_refinement(acc, hol.abs_trace(acc), lam, len(path.steps)):
        return acc, hol.abs_trace(acc), hol.abs_trace(acc) - 2.0, False
    with mpmath.workdps(hol._MP_DPS):
        tr = mp_abs_trace(g, lam, path)
        return acc, float(tr), float(tr - 2), True


def turn_codes(g, path):
    """Turn into each step, None at a backtrack."""
    turns = []
    for k, h in enumerate(path.steps):
        incoming = g.pairing(path.steps[k - 1])
        turns.append(None if h == incoming else hol.turn_direction(g, incoming, h))
    return turns


def mp_abs_trace(g, lam, path):
    """|trace| from mpmath matrix products at the caller's working precision."""
    mp_turns = {None: mpmath.matrix([[1, 0], [0, 1]]),
                hol.RIGHT: mpmath.matrix([[1, 1], [-1, 0]]),
                hol.LEFT: mpmath.matrix([[0, -1], [1, 1]])}
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
                yield g, lam, p, False
                ins = g.vertex_cycles[g.step_head(p.steps[0])][k % 3]
                noisy = p.steps[:1] + (ins, g.pairing(ins)) + p.steps[1:]
                yield g, lam, fgr.EdgePath(noisy), True
    for s in scn.enumerate_screens(genus2)[::4]:
        fam = scn.depth_family(s)
        curves = scn.screen_boundary(s)
        for t in (10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0):
            lam = asy.evaluate_family(fam, t)
            for c in curves:
                yield genus2, lam, c, False


def test_kernel_matches_full_matrix_products(trivalent_corpus, genus2):
    refined_tiny = total = 0
    for g, lam, p, backtrack in kernel_cases(trivalent_corpus, genus2):
        m, tr, gap, refined = reference_traces(g, lam, p)
        assert hol.holonomy(g, lam, p, allow_backtrack=backtrack) == m
        assert hol.abs_trace_of_path(g, lam, p, allow_backtrack=backtrack) == tr
        assert hol.trace_gap_of_path(g, lam, p, allow_backtrack=backtrack) == gap
        if refined and 0 <= gap < 1e-16:
            refined_tiny += 1
        total += 1
    assert total > 1000 and refined_tiny > 0


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
        cases = [(path, False)]
        steps = path.steps
        for _ in range(n_backtracks):
            k = rng.randrange(len(steps))
            ins = rng.choice(g.vertex_cycles[g.step_head(steps[k])])
            steps = steps[:k + 1] + (ins, g.pairing(ins)) + steps[k + 1:]
            cases.append((fgr.EdgePath(steps), True))
        for p, backtrack in cases:
            m, tr, gap, _ = reference_traces(g, lam, p)
            assert hol.holonomy(g, lam, p, allow_backtrack=backtrack) == m
            assert hol.abs_trace_of_path(g, lam, p, allow_backtrack=backtrack) == tr
            assert hol.trace_gap_of_path(g, lam, p, allow_backtrack=backtrack) == gap

    check()


def test_trace_refines_when_float_leaves_range(theta):
    # in double precision the cross ratio underflows to 0 (1e200, 1e-200),
    # the product overflows to inf (1e-160), the roundoff bound overflows
    # (1e160 everywhere) or weight products go subnormal and lose digits
    # (1e-160, 1e-160, 1e-150); the extended-precision product does none of these
    path = fgr.EdgePath((0, 4))
    for values in ([1e200, 1, 1], [1e160, 1, 1], [1e-160, 1, 1], [1e160] * 3, [1e-200] * 3,
                   [1e-160, 1e-160, 1e-150]):
        lam = geo.lambda_assignment(values)
        with mpmath.workdps(hol._MP_DPS):
            tr = mp_abs_trace(theta, lam, path)
            want, want_gap = float(tr), float(tr - 2)
        assert hol.abs_trace_of_path(theta, lam, path) == want
        assert hol.trace_gap_of_path(theta, lam, path) == want_gap
    lam = geo.lambda_assignment([1e200, 1, 1])
    assert hol.abs_trace_of_path(theta, lam, path) == pytest.approx(1e200, rel=1e-12)


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


# -- one-left-turn closed form -----------------------------------------------------

def test_one_left_turn_trace_simple():
    assert hol.one_left_turn_trace([1.0, 1.0]) == pytest.approx(3.0)
    # direct product check for three factors, all ones:
    # L X R X R X with X = [[0,1],[-1,0]]
    r_mat, l_mat = hol.turn_matrices()
    x = hol.Mat2(0.0, 1.0, -1.0, 0.0)
    m = l_mat @ x @ r_mat @ x @ r_mat @ x
    assert hol.one_left_turn_trace([1.0, 1.0, 1.0]) == pytest.approx(abs(m.trace()))


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
                    turns = hol.path_turns(g, cand)
                    if turns.count(hol.LEFT) == 1:
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
                data = hol.one_left_turn_data(g, lam, p)
                closed = hol.one_left_turn_trace(data.zetas)
                matrix = hol.abs_trace_of_path(g, lam, p)
                assert abs(closed) == pytest.approx(matrix, rel=1e-9)
                total += 1
    assert total >= 20


def test_zeta_factors_are_cross_ratios(theta):
    for t in (3.0, 11.0):
        lam = geo.lambda_assignment([t, t, 1.0])
        p = fgr.EdgePath((0, 4))
        data = hol.one_left_turn_data(theta, lam, p)
        turns = hol.path_turns(theta, p)
        start = turns.index(hol.LEFT)
        steps = p.steps[start:] + p.steps[:start]
        for z, s in zip(data.zetas, steps):
            assert z ** -2 == pytest.approx(geo.cross_ratio(theta, lam, s), rel=1e-12)
        assert data.zeta_product == pytest.approx(1.0, rel=1e-12)


def test_zeta_product_telescopes(trivalent_corpus):
    rng = random.Random(35)
    for g in trivalent_corpus.values():
        for p in one_left_turn_paths(g, max_len=6)[:4]:
            lam = random_in_cell_lambda(g, rng)
            data = hol.one_left_turn_data(g, lam, p)
            y = [lam[e] for e in data.traversed_edges]
            assert data.zeta_product == pytest.approx(y[-1] / y[0], rel=1e-12)


# -- the off-path slot and Whitehead invariance on generated graphs -------------------

def third_slot(g, arrive, depart):
    """The half-edge at a turn's vertex that the path neither arrives by nor departs by."""
    return next(h for h in g.vertex_cycles[g.vertex_of(arrive)] if h not in (arrive, depart))


def reference_telescoping_sides(g, lam, path):
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


def reference_one_left_turn_data(g, lam, path):
    start = hol.path_turns(g, path).index(hol.LEFT)
    steps = path.steps[start:] + path.steps[:start]
    n = len(steps) - 1
    y = [lam[g.edge_of(s)] for s in steps]
    x = [lam[g.edge_of(third_slot(g, g.pairing(s), t))]
         for s, t in zip(steps, steps[1:] + steps[:1])]
    zetas = [math.sqrt((y[1] * y[n]) / (x[0] * x[-1]))]
    zetas += [math.sqrt((y[k] * x[k - 2]) / (x[k - 1] * y[k - 2])) for k in range(2, n + 1)]
    zetas.append(math.sqrt((x[-1] * x[n - 1]) / (y[0] * y[n - 1])))
    return hol.OneLeftTurnData(tuple(zetas), math.prod(zetas), tuple(g.edge_of(s) for s in steps))


def test_off_path_slot_matches_third_slot_search(generated_trivalent):
    rng = random.Random(61)
    for g in generated_trivalent:
        walks = [closed_walk(g, rng) for _ in range(6)] + list(fgr.boundary_cycles(g))
        one_left = one_left_turn_paths(g, max_len=6)[:6]
        for _ in range(3):
            lam = geo.lambda_assignment([10 ** rng.uniform(-2, 2) for _ in range(g.n_edges)])
            for p in walks + one_left:
                assert geo.telescoping_sides(g, lam, p) == reference_telescoping_sides(g, lam, p)
            for p in one_left:
                assert hol.one_left_turn_data(g, lam, p) == reference_one_left_turn_data(g, lam, p)


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
