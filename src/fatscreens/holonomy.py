"""Holonomy of closed edge-paths as path-ordered 2x2 matrix products.

A closed efficient path on a trivalent graph alternates turns and edge
traversals.  With the counter-clockwise vertex order, turning onto the
next slot after the arrival half-edge is a right turn, onto the previous
slot a left turn; boundary cycles as produced by face tracing make right
turns only.  The product multiplies a constant turn matrix R or L with a
cross-ratio matrix per traversed edge:

    R = [[1, 1], [-1, 0]]     L = [[0, -1], [1, 1]]
    X = [[0, s], [-1/s, 0]]   with  s = sqrt(ac/bd)

in the neighbor-slot notation of :mod:`fatscreens.geometry`.  Matrices are
kept unnormalized; only |trace| is geometric (PSL sign ambiguity), and
|trace| = 2 cosh(length/2) for the hyperbolic length of the geodesic
representative.

The product is one loop over four scalars, run over ``float``, ``Decimal``
and packed ints.  Each step applies its turn and X in one closed-form update
(R then X sends (a11, a12, a21, a22) to (-a11/s, (a11 - a12) s, -a21/s,
(a21 - a22) s)); the other entries being 0 and +-1, these round exactly like
full 2x2 products.  The update assigns the four entries in place, each after
the last read of its old value, so every operation rounds once, on the same
operands as in the full products.  The loop runs over the path's plan, its
steps as (edge, turn) pairs, made once per graph: a step that is neither turn
out of the previous arrival breaks the path or backtracks, and the path is
refused with its fault named, a backtrack as not efficient.  Both directions
of an edge have one s (its second half reads the quad as (c, d, a, b); Penner
1987), so s and -1/s come from per-weights rows by edge id, the float ones a
list.  Plans and float rows are kept on the path and the weights, keyed by the
slot table ``_edge_quads`` of the last graph they traced.

On an efficient path the product never cancels: with J = diag(1, -1),
J R X J = -[[1/s, s], [0, s]] and J L X J = [[1/s, 0], [1/s, s]], so each
``a11 - a12`` adds two magnitudes, a11 and a22 share a sign and |trace| >= 2.
While all values are normal, a step rounds each monomial of an entry at most
6 times (2 for the weight quotient under the root, 1 each for the root, -1/s,
the entry product and the turn's sum; Higham 2002, ch. 3), so the float
|trace| - 2 of n steps is within (6n + 2) eps |trace| of the exact gap (eps is
twice the unit roundoff, which covers a11 + a22, the subtraction and higher
orders).  The trace functions keep it when that is within ``TRACE_RTOL``, give
a boundary-parallel path (parabolic for all weights, Penner 1987) the gap 0,
and else climb the ladder that ``terms_at`` shares: ``decimal`` reruns, the
first at 20 + log10 of the measured cancellation digits, each later one 15 or
more digits above, refused past 1000 digits.  A rung of d digits runs at
p = d + 2 with no exponent bound, where +, -, *, / and sqrt round once within
the unit roundoff r = 10**(1 - p) / 2: the bound holds with eps = 2r.  A sum
rung adds the e digits of n = ``unit`` to p, so n r < 10**-d / 20, and takes
tau = t**(1/n) by Newton's method at doubling precision, from 1 + expm1(ln t / n)
(exp below -1), within 1e-12 / n, to within 4r.  An integral power rounds within
2r, so each c tau**k is within (4 |k| + 3) r, and m terms of mass M sum to within
M (4 max |k| + m + 3) r.  Along a monomial family the loop runs over ints packed
at u = tau**2: by the lemma, |trace| is a Laurent polynomial with coefficients
>= 0 (positivity, Fock and Goncharov 2006), its digits.
``_exact_gap_poly`` decodes them all for the rows of a sweep; ``_exact_gap_top``
reads only the top ones, all that a verdict needs.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .fatgraph import EdgePath, Fatgraph, _one_per_edge, check_closed_path, is_boundary_parallel
from .geometry import LambdaAssignment, _lazy_import

mpmath = _lazy_import("mpmath")     # read by nothing here: the binding perfbench's tracer wraps

_EPS = sys.float_info.epsilon   # twice the unit roundoff of a double
TRACE_RTOL = 1e-13           # relative error certified for every returned |trace| and gap
EXACT_BITS_MAX = 2 ** 24     # packed exact traces grow with the exponent denominators


def _check_kernel(g: Fatgraph, w: Sequence) -> None:
    if not g.is_trivalent():
        raise DomainError("holonomy needs a trivalent graph")
    _one_per_edge(g, w, "weight")


def _edge_rows(g: Fatgraph, w: Sequence, sqrt, edges: Iterable[int]) -> dict[int, tuple]:
    """Row e for each edge e in ``edges``: (s, -1/s), s = sqrt(ac/bd) in the type of w, for both
    halves of e, as the second reads its quad slots as (c, d, a, b) and products commute."""
    quads, rows = g._edge_quads, {}
    for e in edges:
        a, b, c, d = quads[e]
        s = sqrt((w[a] * w[c]) / (w[b] * w[d]))
        rows[e] = s, -1 / s
    return rows


def _float_rows(g: Fatgraph, lam: LambdaAssignment) -> list[tuple]:
    """Float rows of all edges, a list by id, kept on ``lam`` with g's slot table for the last
    graph it traced: the weights keep no graph alive."""
    quads, rows = lam._trace_rows
    if quads is not g._edge_quads:
        _check_kernel(g, lam.values)
        try:
            rows = [*_edge_rows(g, lam.values, math.sqrt, range(g.n_edges)).values()]
        except ZeroDivisionError:   # a weight product or a cross ratio underflows to 0
            rows = None
        # or one overflows: s = inf, or inf / inf = nan
        if rows is None or not all(row[0] < math.inf for row in rows):
            raise DomainError("a cross ratio of these weights is beyond double range")
        object.__setattr__(lam, "_trace_rows", (g._edge_quads, rows))
    return rows


def _plan(g: Fatgraph, path: EdgePath) -> tuple[tuple[int, bool], ...]:
    """The path's steps on g as (edge id, whether it turns right), kept on the path with g's
    slot table, not g.  Out of a step h the right turn is sigma(iota(h)), the left sigma of
    that; a step that is neither breaks the path or backtracks: such a path is refused, with
    nothing kept, by its first bad id, else its first break, else as not efficient."""
    steps, sigma, iota, edge_of, plan = path.steps, g._sigma, g._iota, g._edge_of, []
    try:
        right = sigma[iota[steps[-1]]]      # a negative last step fails at its turn
        for h in steps:
            if h == right:
                plan.append((edge_of[h], True))
            elif h == sigma[right]:
                plan.append((edge_of[h], False))
            else:
                raise KeyError(h)
            right = sigma[iota[h]]
    except (IndexError, KeyError):          # or the path has no steps, or its last is no id
        check_closed_path(g, path)
        raise DomainError("path is not efficient") from None
    object.__setattr__(path, "_plan", (g._edge_quads, plan := tuple(plan)))
    return plan


def _product(g: Fatgraph, path: EdgePath, rows) -> tuple:
    """Entries of T_1 X_1 T_2 X_2 ... from the path's ``_plan`` on g and its edges' rows (s, -1/s).

    Each step applies its turn and X in one update, the same operations in the same order
    as the turn's column update followed by X's, so it rounds like that pair in every scalar
    type.  It writes the entries in place, with no tuple per step, each after the last read of
    its old value: a right turn sets a12 before it scales a11 and a22 before a21, a left turn
    a11 before it scales a12 and a21 before a22.
    """
    quads, plan = path._plan
    a11, a12, a21, a22 = 1, 0, 0, 1     # ints: exact in every scalar type
    for e, right in plan if quads is g._edge_quads else _plan(g, path):
        s, inv = rows[e]
        if right:
            a12 = (a11 - a12) * s
            a11 *= inv
            a22 = (a21 - a22) * s
            a21 *= inv
        else:
            a11 = (a12 - a11) * inv
            a12 *= s
            a21 = (a22 - a21) * inv
            a22 *= s
    return a11, a12, a21, a22


def _packed_trace(g: Fatgraph, q: Sequence[int], path: EdgePath) -> tuple[int, int, int]:
    """(tau**D |trace| packed at u = 2**bits, bits, D) for weights tau**q_e, q_e even: digit j
    is the coefficient of tau**(2j - D) in |trace|.  With s = tau**k, X scaled by tau**|k| is
    [[0, u**k], [-1, 0]] or [[0, 1], [-u**-k, 0]] in u = tau**2, so ``_product`` over ints packed
    at u = 2**bits, bits = n + 1, gives tau**D |trace|, D the sum of the steps' |k|: coefficients
    >= 0 that sum to the trace at tau = 1 of n factors [[1, 1], [0, 1]] or [[1, 0], [1, 1]].  Of
    column sums 1 and 2, each takes the entry sum S of the product after it to at most 2S - 1,
    from 2: the sum stays below 2**bits.  The path, then the size, is checked before any shift."""
    _check_kernel(g, q)
    quads, plan = path._plan
    if quads is not g._edge_quads:
        plan = _plan(g, path)       # the path's check, before its size
    bits, rows, degree, quads = len(plan) + 1, {}, 0, g._edge_quads
    for e, _ in plan:
        a, b, c, d = quads[e]
        degree += abs(k := (q[a] + q[c] - q[b] - q[d]) // 2)
        rows[e] = k
    if (size := bits * (degree + 1)) > EXACT_BITS_MAX:
        raise DomainError(f"exact trace gap needs {size} bits, over {EXACT_BITS_MAX}")
    for e, k in rows.items():   # shifted once the size is allowed
        rows[e] = (1 << k * bits, -1) if k >= 0 else (1, -1 << -k * bits)
    a11, _, _, a22 = _product(g, path, rows)
    return abs(a11 + a22), bits, degree


def _exact_gap_poly(g: Fatgraph, q: Sequence[int], path: EdgePath) -> list[tuple[int, int]]:
    """|trace| - 2 in tau for weights tau**q_e, q_e even, as its monomials (k, c) of c * tau**k,
    c != 0, sorted by k >= -D: the digits of ``_packed_trace``, less 2 at k = 0."""
    trace, bits, degree = _packed_trace(g, q, path)
    k, poly = -degree, {0: -2}
    while trace:    # skip each run of zero digits at the lowest set bit
        zeros = ((trace & -trace).bit_length() - 1) // bits
        k, trace = k + 2 * zeros, trace >> zeros * bits
        poly[k] = poly.get(k, 0) + (trace & (1 << bits) - 1)
        k, trace = k + 2, trace >> bits
    return sorted((k, c) for k, c in poly.items() if c)


def _exact_gap_top(g: Fatgraph, q: Sequence[int], path: EdgePath) -> tuple[int, int] | None:
    """``_exact_gap_poly(g, q, path)[-1]``, or None where the gap is 0, read off the top digits
    of ``_packed_trace`` with no decode.  The top digit c at k = 2j - D, k >= 0 as |trace| >= 2
    for every tau, is the gap's top less 2 at k = 0; where it is 2 at k = 0, the gap's top is
    the top digit below it, and a trace of exactly 2 is parabolic."""
    trace, bits, degree = _packed_trace(g, q, path)
    j = (trace.bit_length() - 1) // bits
    k, c = 2 * j - degree, trace >> j * bits
    if k or c != 2:
        return k, c - 2 * (not k)
    trace -= 2 << j * bits      # clear the 2
    if not trace:
        return None
    j = (trace.bit_length() - 1) // bits
    return 2 * j - degree, trace >> j * bits


def _ladder(rung, args: tuple, value, mass, err, rtol: float, what: str):
    """The module docstring's ladder: ``value`` within ``rtol`` from ``rung(digits, *args)``."""
    with localcontext(Context(Emax=MAX_EMAX, Emin=MIN_EMIN)) as ctx:
        value, mass, err, rtol, digits = *map(Decimal, (value, mass, err, rtol)), 0
        while not err <= rtol * abs(value):
            digits = max(digits + 15, 20 + max(mass / max(abs(value), err), Decimal(1)).adjusted())
            if digits > 1000:
                raise DomainError(f"{what} cancels past 1000 digits")
            ctx.prec = digits + 2     # two guard digits
            value, mass, err = rung(digits, *args)   # args: a closure would slow each float pass
    return value


def _sum_rung(digits: int, ks: Sequence[tuple[int, int]], unit: int, t: float):
    ctx, e, good, y = getcontext(), len(str(unit)), 12, math.log(t) / unit
    top, ctx.prec, t = ctx.prec + e, e + 14, Decimal(t)
    tau = Decimal(math.exp(y)) if y < -1 else 1 + Decimal(math.expm1(y))
    while ctx.prec < top:   # Newton's method for tau**unit = t at doubling precision
        ctx.prec, good = min(e + 2 * good, top), 2 * good - 1
        tau += tau * (t / tau ** unit - 1) / unit
    mass = sum(map(abs, terms := [c * tau ** k for k, c in ks]))
    err = mass * (4 * max(abs(k) for k, _ in ks) + len(ks) + 3)
    return sum(terms), mass, err * Decimal(5).scaleb(-top)     # r = 10**(1 - top) / 2


def terms_at(ks: Sequence[tuple[int, int]], unit: int, t: float) -> float:
    """Sum of c * t**(k / unit) over (k, c) in ``ks`` to 15 digits: a fsum of float terms under
    an a-priori bound, else ``_ladder``.  A term is x = c * t**fl(k / unit) plus f = x * y,
    y = d ln t, the first-order correction for the rounding d = k / unit - fl(k / unit) (Higham
    2002, ch. 3), skipped where d = 0, as for every power-of-2 ``unit``.  The terms and the fsum
    round by 5 * 2**-53 of the terms' mass; each f adds 2 |f| |y| for the dropped e**y - 1 - y <=
    y**2 (|y| < 1e-13, as a nonzero double t**fl(k / unit) has |fl(k / unit) ln t| < 745) and
    2**-49 |f| for its roundings (x, d, ln t and two products: about 5 ulp).  Below the normal
    range each term adds 2**-1074 and each f, with its bound, 2 * 2**-1074."""
    ln_t = math.log(t)
    try:
        terms, fixes, err = [c * t ** (k / unit) for k, c in ks], [], len(ks) * 2 ** -1074
        for (k, _), x in zip(ks, terms) if unit & unit - 1 else ():
            if y := float(Fraction(k, unit) - Fraction(k / unit)) * ln_t:  # inf * 0 is nan
                fixes.append(f := x * y)
                err += abs(f) * (2 * abs(y) + 2 ** -49) + 2 * 2 ** -1074
        total, mass = math.fsum(terms + fixes), math.fsum(map(abs, terms))
        err += mass * 5 * 2 ** -53
    except (OverflowError, ValueError):     # a term beyond double range: no float sum
        total, mass, err = 0.0, 1.0, 1.0
    if err <= 1e-15 * abs(total):
        return total
    return float(_ladder(_sum_rung, (ks, unit, t), total, mass, err, 1e-15,
                         f"a sum of {len(ks)} powers of t={t:g}"))


def holonomy(g: Fatgraph, lam: LambdaAssignment, path: EdgePath) -> tuple[float, ...]:
    """Float (a11, a12, a21, a22) of the path-ordered product T_1 X_1 T_2 X_2 ... over the closed
    efficient path, each T a right or left turn; refused where an entry leaves double range."""
    m = _product(g, path, _float_rows(g, lam))
    if not all(map(math.isfinite, m)):
        raise DomainError("the holonomy of this path is beyond double range")
    return m


def hyp_length(abs_tr: float) -> float:
    """Hyperbolic length from |trace| = 2 cosh(length / 2)."""
    if not abs_tr >= 2.0 - 1e-12:     # NaN fails this too
        raise DomainError(f"|trace| = {abs_tr} < 2: no geodesic length")
    return 2.0 * math.acosh(max(1.0, abs_tr / 2.0))


def hyp_length_from_gap(gap: float) -> float:
    """Length from |trace| - 2 as 2 acosh(1 + u) = 2 log1p(u + sqrt(u * (2 + u))), u = gap / 2,
    stable for gaps far below double epsilon."""
    if not gap >= -1e-12:     # NaN fails this too
        raise DomainError(f"trace gap {gap} < 0: no geodesic length")
    u = max(0.0, gap) / 2.0
    square = u * (2.0 + u)
    if square == math.inf:
        # acosh(1 + u) = log(2u) to double precision long before u * u overflows
        return 2.0 * math.log(2.0 * u)
    return 2.0 * math.log1p(u + math.sqrt(square))


def _trace_rung(digits: int, g: Fatgraph, lam: LambdaAssignment, path: EdgePath, offset: int):
    rows = _edge_rows(g, [*map(Decimal, lam.values)], Decimal.sqrt, {*map(g.edge_of, path.steps)})
    a11, _, _, a22 = _product(g, path, rows)
    tr = abs(a11 + a22)
    return tr - offset, tr, (6 * len(path.steps) + 2) * Decimal(10).scaleb(-getcontext().prec) * tr


def _abs_trace_minus(g: Fatgraph, lam: LambdaAssignment, path: EdgePath, offset: int) -> float:
    """|trace| - offset within ``TRACE_RTOL`` as the module docstring derives, or refused."""
    quads, rows = lam._trace_rows
    if not (kept := quads is g._edge_quads):   # else the kernel was checked with the rows
        _check_kernel(g, lam.values)
    n = len(path.steps)
    tr, gap, err = 1.0, 0.0, 1.0
    # weight products lie in [lo**2, hi**2], their quotients and nonzero entries within
    # (2 hi / lo)**+-(n + 1): the float pass runs only where all of these are normal
    if (n + 1) * lam.log2_spread < 1000:
        a11, _, _, a22 = _product(g, path, rows if kept else _float_rows(g, lam))
        tr = abs(a11 + a22)
        gap, err = tr - offset, (6 * n + 2) * _EPS * tr
        if err <= TRACE_RTOL * abs(gap):
            return gap
    if is_boundary_parallel(g, path):
        return 2.0 - offset
    gap = _ladder(_trace_rung, (g, lam, path, offset), gap, tr, err, TRACE_RTOL,
                  f"|trace| - {offset} of a {n}-step path")
    if not sys.float_info.min <= abs(gap) <= sys.float_info.max:
        gap = f"{gap:.2e}".replace("0e", "e", 1)      # 3 digits, and 1.0e-400 for 1.00e-400
        raise DomainError(f"|trace| - {offset} = {gap} is beyond double range")
    return float(gap)


def abs_trace_of_path(g: Fatgraph, lam: LambdaAssignment, path: EdgePath) -> float:
    """|trace| of the path holonomy within ``TRACE_RTOL``."""
    return _abs_trace_minus(g, lam, path, 0)


def trace_gap_of_path(g: Fatgraph, lam: LambdaAssignment, path: EdgePath) -> float:
    """|trace| - 2 within ``TRACE_RTOL``, also far below 2**-52 where the trace rounds to 2.0."""
    return _abs_trace_minus(g, lam, path, 2)


# ---------------------------------------------------------------------------
# Closed form for paths with a single left turn
# ---------------------------------------------------------------------------

def one_left_turn_trace(zetas: Sequence[float]) -> float:
    """Trace of L X(z_1) R X(z_2) ... R X(z_{n+1}) up to sign.

    X(z) = [[0, z], [-1/z, 0]]; the value is

        P + 1/P + z_1^{-2} * P * sum_{k=1..n} prod_{j=2..k} z_j^{-2}

    with P the product of all the z's.  Multiplying the factors directly
    confirms the plus sign on the correction term (n = 1, all z = 1 gives
    trace 3, matching the matrix product).
    """
    zs = [float(z) for z in zetas]
    if len(zs) < 2:
        raise DomainError("need at least two factors (one right turn)")
    if min(zs) <= 0:
        raise DomainError("factors must be positive")
    n = len(zs) - 1
    prod_all = math.prod(zs)
    acc, term = 0.0, 1.0
    for k in range(1, n + 1):
        if k >= 2:
            term /= zs[k - 1] ** 2
        acc += term
    return prod_all + 1.0 / prod_all + (prod_all * acc) / (zs[0] ** 2)
