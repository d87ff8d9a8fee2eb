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

The product is one loop over four scalars, run over ``float``, ``mpmath.mpf``
and packed ints.  Each step applies its turn and X in one closed-form update
(R then X sends (a11, a12, a21, a22) to (-a11/s, (a11 - a12) s, -a21/s,
(a21 - a22) s)); the other entries being 0 and +-1, these round exactly like
full 2x2 products.  The update assigns the four entries in place, each after
the last read of its old value, so every operation rounds once, on the same
operands as in the full products.  The loop runs over the path's plan, its
steps each with its turn, made once per graph and kept on the path for the last
graph it traced.  Making the plan is the path check: a step that is neither
turn out of the previous arrival breaks the path or backtracks, and the path
is refused with its fault named, a backtrack as not efficient.  Each step's s
and -1/s come from a per-weights row table, computed once per table, not once
per visit; the float table is a list by half-edge id, kept on the weights for
the last graph they traced, the ``mpf`` one holds the path's steps.

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
and else rerun over ``mpf`` with digits raised by the measured cancellation,
as ``terms_at`` does.  Along a monomial family the loop runs over ints packed
at u = tau**2: by the lemma, |trace| is a Laurent polynomial with coefficients
>= 0 (positivity, Fock and Goncharov 2006), its digits.  ``_exact_gap_poly`` decodes
them all for the rows of a sweep; ``_exact_gap_top`` reads only the top ones, all that a
verdict needs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError
from .fatgraph import EdgePath, Fatgraph, _check_joins, _check_steps, is_boundary_parallel
from .geometry import (LambdaAssignment, _lazy_import, _off_path_edge, _one_weight_per_edge,
                       quad_slots)

mpmath = _lazy_import("mpmath")     # only the sums and traces that leave float need it

LEFT = "L"
RIGHT = "R"

_EPS = sys.float_info.epsilon   # twice the unit roundoff of a double
TRACE_RTOL = 1e-13           # relative error certified for every returned |trace| and gap
EXACT_BITS_MAX = 2 ** 24     # packed exact traces grow with the exponent denominators


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix, interpreted up to global sign."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 * other.m11 + self.m12 * other.m21,
                    self.m11 * other.m12 + self.m12 * other.m22,
                    self.m21 * other.m11 + self.m22 * other.m21,
                    self.m21 * other.m12 + self.m22 * other.m22)

    def trace(self) -> float:
        return self.m11 + self.m22

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def turn_matrices() -> tuple[Mat2, Mat2]:
    """(R, L); they satisfy R*L = 1 and R^3 = L^3 = -1."""
    return Mat2(1.0, 1.0, -1.0, 0.0), Mat2(0.0, -1.0, 1.0, 1.0)


def turn_direction(g: Fatgraph, incoming: int, outgoing: int) -> str:
    """LEFT or RIGHT for a turn at a trivalent vertex.

    ``incoming`` is the arrival half-edge of the previous step, ``outgoing``
    the departing half-edge of the next.
    """
    v = g.vertex_of(incoming)
    if v != g.vertex_of(outgoing):
        raise DomainError("turn half-edges must share a vertex")
    if g.valence(v) != 3:
        raise DomainError("turns are defined at trivalent vertices")
    if outgoing == incoming:
        raise DomainError("backtrack is not a turn")
    if outgoing == g.sigma(incoming):
        return RIGHT
    return LEFT


def edge_matrix(g: Fatgraph, lam: LambdaAssignment, step: int) -> Mat2:
    """Cross-ratio matrix of the traversed edge; squares to -1."""
    _one_weight_per_edge(g, lam)
    a, b, c, d = quad_slots(g, step)
    s = math.sqrt((lam[a] * lam[c]) / (lam[b] * lam[d]))
    return Mat2(0.0, s, -1.0 / s, 0.0)


def path_turns(g: Fatgraph, path: EdgePath) -> tuple[str, ...]:
    """Turn before each step (from the previous step's arrival), cyclically."""
    steps = path.steps
    return tuple(turn_direction(g, g.pairing(steps[k - 1]), steps[k]) for k in range(len(steps)))


def _check_kernel(g: Fatgraph, w: Sequence) -> None:
    if not g.is_trivalent():
        raise DomainError("holonomy needs a trivalent graph")
    _one_weight_per_edge(g, w)


def _step_rows(g: Fatgraph, w: Sequence, sqrt, halves: Iterable[int]) -> dict[int, tuple]:
    """Row h for each half-edge h in ``halves``: (s, -1/s), s = sqrt(ac/bd) in the type of w."""
    _check_kernel(g, w)
    table, rows = g._step_table, {}
    for h in halves:
        _, _, a, b, c, d = table[h]
        s = sqrt((w[a] * w[c]) / (w[b] * w[d]))
        rows[h] = s, -1 / s
    return rows


def _float_rows(g: Fatgraph, lam: LambdaAssignment) -> list[tuple]:
    """Float rows of all half-edges, a list by id, kept on ``lam`` for the last graph it traced."""
    graph, rows = lam._trace_rows
    if graph is not g:
        try:
            rows = [*_step_rows(g, lam.values, math.sqrt, range(g.n_half_edges)).values()]
        except ZeroDivisionError:   # a weight product or a cross ratio underflows to 0
            rows = None
        # or one overflows: s = inf, or inf / inf = nan
        if rows is None or not all(row[0] < math.inf for row in rows):
            raise DomainError("a cross ratio of these weights is beyond double range")
        object.__setattr__(lam, "_trace_rows", (g, rows))
    return rows


def _plan(g: Fatgraph, path: EdgePath) -> tuple[tuple[int, bool], ...]:
    """The path's steps h on g, each with whether it turns right out of the previous arrival,
    kept on the path with g's step table, all it depends on: the path keeps no graph alive.  A
    step that is neither turn breaks the path or backtracks: such a path is refused, with
    nothing kept, by its first bad id, else its first break, else as not efficient."""
    steps, table, plan = path.steps, g._step_table, []
    try:
        right, left, _, _, _, _ = table[steps[-1]]  # a negative last step fails at its turn
        for h in steps:
            if h == right:
                plan.append((h, True))
            elif h == left:
                plan.append((h, False))
            else:
                raise KeyError(h)
            right, left, _, _, _, _ = table[h]
    except (IndexError, KeyError):          # or the path has no steps, or its last is no id
        _check_steps(g, steps)
        _check_joins(g, steps)
        raise DomainError("path is not efficient") from None
    object.__setattr__(path, "_plan", (table, plan := tuple(plan)))
    return plan


def _product(g: Fatgraph, path: EdgePath, rows) -> tuple:
    """Entries of T_1 X_1 T_2 X_2 ... from the path's ``_plan`` on g and its steps' rows (s, -1/s).

    Each step applies its turn and X in one update, the same operations in the same order
    as the turn's column update followed by X's, so it rounds like that pair in every scalar
    type.  It writes the entries in place, with no tuple per step, each after the last read of
    its old value: a right turn sets a12 before it scales a11 and a22 before a21, a left turn
    a11 before it scales a12 and a21 before a22.
    """
    table, plan = path._plan
    a11, a12, a21, a22 = 1, 0, 0, 1     # ints: exact in every scalar type
    for h, right in plan if table is g._step_table else _plan(g, path):
        s, inv = rows[h]
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
    at u = 2**bits, bits = n + 1, gives tau**D |trace|, D the sum of the |k|: coefficients >= 0
    that sum to the trace at tau = 1 of n factors [[1, 1], [0, 1]] or [[1, 0], [1, 1]].  Of
    column sums 1 and 2, each takes the entry sum S of the product after it to at most 2S - 1,
    from 2: the sum stays below 2**bits.  The path, then the size, is checked before any shift."""
    _check_kernel(g, q)
    if path._plan[0] is not g._step_table:
        _plan(g, path)      # the path's check, before its size
    bits, rows, degree, table = len(steps := path.steps) + 1, {}, 0, g._step_table
    for h in steps:
        _, _, a, b, c, d = table[h]
        degree += abs(k := (q[a] + q[c] - q[b] - q[d]) // 2)
        rows[h] = k
    if (size := bits * (degree + 1)) > EXACT_BITS_MAX:
        raise DomainError(f"exact trace gap needs {size} bits, over {EXACT_BITS_MAX}")
    for h, k in rows.items():   # shifted once the size is allowed
        rows[h] = (1 << k * bits, -1) if k >= 0 else (1, -1 << -k * bits)
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


def terms_at(ks: Sequence[tuple[int, int]], unit: int, t: float) -> float:
    """Sum of c * t**(k / unit) over (k, c) in ``ks`` to 15 digits: a fsum of float terms under
    an a-priori bound, else ``mpf`` with digits raised by the cancellation until it holds;
    refused past 1000 digits.  A term is x = c * t**fl(k / unit) plus f = x * y, y = d ln t, the
    first-order correction for the rounding d = k / unit - fl(k / unit) (Higham 2002, ch. 3),
    skipped where d = 0, as for every power-of-2 ``unit``.  The terms and the fsum round by
    5 * 2**-53 of the terms' mass; each f adds 2 |f| |y| for the dropped e**y - 1 - y <= y**2
    (|y| < 1e-13, as a nonzero double t**fl(k / unit) has |fl(k / unit) ln t| < 745) and
    2**-49 |f| for its roundings (x, d, ln t and two products: about 5 ulp).  Below the normal
    range each term adds 2**-1074 and each f, with its bound, 2 * 2**-1074."""
    ln_t = math.log(t)
    try:
        terms, fixes, err = [c * t ** (k / unit) for k, c in ks], [], len(ks) * 2 ** -1074
        for (k, _), x in zip(ks, terms) if unit & unit - 1 else ():
            if y := _quotient_error(k, unit) * ln_t:    # x * 0 is nan where x overflows
                fixes.append(f := x * y)
                err += abs(f) * (2 * abs(y) + 2 ** -49) + 2 * 2 ** -1074
        total, mass = math.fsum(terms + fixes), math.fsum(map(abs, terms))
        err += mass * 5 * 2 ** -53
    except (OverflowError, ValueError):     # a term beyond double range: no float sum
        total, mass, err = 0.0, 1.0, 1.0
    digits = 0
    while not err <= 1e-15 * abs(total):
        digits = max(digits + 15, 20 + int(mpmath.log10(max(mass / max(abs(total), err), 1))))
        if digits > 1000:
            raise DomainError(f"a sum of {len(ks)} powers of t={t:g} cancels past 1000 digits")
        with mpmath.workdps(digits):
            terms = [c * mpmath.mpf(t) ** (mpmath.mpf(k) / unit) for k, c in ks]
            total, mass = mpmath.fsum(terms), mpmath.fsum(terms, absolute=True)
            err = mass * (2 + max(abs(k) for k, _ in ks) / unit * abs(ln_t))
            err *= mpmath.mpf(10) ** -digits
    return float(total)


def _quotient_error(k: int, unit: int) -> float:
    """k / unit - fl(k / unit), from the float's exact ratio p / q."""
    p, q = (k / unit).as_integer_ratio()
    return (k * q - p * unit) / (q * unit)


def holonomy(g: Fatgraph, lam: LambdaAssignment, path: EdgePath) -> Mat2:
    """Float path-ordered product T_1 X_1 T_2 X_2 ... over the closed efficient path, each T a
    right or left turn; refused where an entry leaves double range."""
    m = _product(g, path, _float_rows(g, lam))
    if not all(map(math.isfinite, m)):
        raise DomainError("the holonomy of this path is beyond double range")
    return Mat2(*m)


def hyp_length(abs_tr: float) -> float:
    """Hyperbolic length from |trace| = 2 cosh(length / 2)."""
    if abs_tr < 2.0 - 1e-12:
        raise DomainError(f"|trace| = {abs_tr} < 2: no geodesic length")
    return 2.0 * math.acosh(max(1.0, abs_tr / 2.0))


def hyp_length_from_gap(gap: float) -> float:
    """Length from |trace| - 2 as 2 acosh(1 + u) = 2 log1p(u + sqrt(u * (2 + u))), u = gap / 2,
    stable for gaps far below double epsilon."""
    if gap < -1e-12:
        raise DomainError(f"trace gap {gap} < 0: no geodesic length")
    u = max(0.0, gap) / 2.0
    square = u * (2.0 + u)
    if square == math.inf:
        # acosh(1 + u) = log(2u) to double precision long before u * u overflows
        return 2.0 * math.log(2.0 * u)
    return 2.0 * math.log1p(u + math.sqrt(square))


def _abs_trace_minus(g: Fatgraph, lam: LambdaAssignment, path: EdgePath, offset: int) -> float:
    """|trace| - offset within ``TRACE_RTOL`` as the module docstring derives, or refused."""
    graph, rows = lam._trace_rows
    if graph is not g:     # else the kernel was checked when the rows were built
        _check_kernel(g, lam.values)
    n = len(path.steps)
    tr, gap, err, digits = 1.0, 0.0, 1.0, 0
    # weight products lie in [lo**2, hi**2], their quotients and nonzero entries within
    # (2 hi / lo)**+-(n + 1): the float pass runs only where all of these are normal
    if (n + 1) * lam.log2_spread < 1000:
        a11, _, _, a22 = _product(g, path, rows if graph is g else _float_rows(g, lam))
        tr = abs(a11 + a22)
        gap, err = tr - offset, (6 * n + 2) * _EPS * tr
        if err <= TRACE_RTOL * abs(gap):
            return gap
    if is_boundary_parallel(g, path):
        return 2.0 - offset
    while not err <= TRACE_RTOL * abs(gap):
        digits = max(digits + 15, 20 + int(mpmath.log10(max(tr / max(abs(gap), err), 1))))
        if digits > 1000:
            raise DomainError(f"|trace| - {offset} of a {n}-step path cancels past 1000 digits")
        with mpmath.workdps(digits):
            w = [mpmath.mpf(v) for v in lam.values]
            a11, _, _, a22 = _product(g, path, _step_rows(g, w, mpmath.sqrt, set(path.steps)))
            tr = abs(a11 + a22)
            gap, err = tr - offset, (6 * n + 2) * mpmath.eps * tr
    if not sys.float_info.min <= abs(gap) <= sys.float_info.max:
        raise DomainError(f"|trace| - {offset} = {mpmath.nstr(gap, 3)} is beyond double range")
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


@dataclass(frozen=True)
class OneLeftTurnData:
    """Cross-ratio factors of a one-left-turn path and diagnostics."""

    zetas: tuple[float, ...]
    zeta_product: float          # telescopes to lambda(y_{n+1}) / lambda(y_1)
    traversed_edges: tuple[int, ...]


def one_left_turn_data(g: Fatgraph, lam: LambdaAssignment, path: EdgePath
                       ) -> OneLeftTurnData:
    """Read off the zeta factors from a closed path with exactly one left turn.

    The path is rotated to start at the left turn.  With traversed edges
    y_1..y_{n+1}, off-path slot x_0 at the left turn and x_1..x_n at the
    right turns:

        zeta_1^2 = y_2 y_{n+1} / (x_1 x_0)
        zeta_k^2 = y_{k+1} x_{k-1} / (x_k y_{k-1})   for k = 2..n
        zeta_{n+1}^2 = x_0 x_n / (y_1 y_n)

    and zeta_k^{-2} is the cross ratio of y_k.
    """
    _one_weight_per_edge(g, lam)
    turns = path_turns(g, path)
    lefts = [i for i, t in enumerate(turns) if t == LEFT]
    if len(lefts) != 1:
        raise DomainError("path must have exactly one left turn")
    start = lefts[0]
    steps = path.steps[start:] + path.steps[:start]
    n1 = len(steps)            # n + 1 edges
    n = n1 - 1
    if n < 1:
        raise DomainError("need at least one right turn")
    y = [lam[g.edge_of(s)] for s in steps]
    # x_k sits at the turn between step k and step k+1 (x_0 at the wrap)
    x = [lam[_off_path_edge(g, s, depart)] for s, depart in zip(steps, steps[1:] + steps[:1])]
    x0 = x[-1]
    zetas = [math.sqrt((y[1] * y[n1 - 1]) / (x[0] * x0))]
    zetas += [math.sqrt((y[k] * x[k - 2]) / (x[k - 1] * y[k - 2])) for k in range(2, n + 1)]
    zetas.append(math.sqrt((x0 * x[n - 1]) / (y[0] * y[n - 1])))
    return OneLeftTurnData(tuple(zetas), math.prod(zetas),
                           tuple(g.edge_of(s) for s in steps))
