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

The product is one loop over four scalars, run over ``float`` and
``mpmath.mpf``: R, L and X act as closed-form column updates (R sends (a11,
a12, a21, a22) to (a11 - a12, a11, a21 - a22, a21)); the other entries being
0 and +-1, these round exactly like full 2x2 products.  The loop is one
table-driven pass that also checks the path: each step's row in the graph's
step table holds its backtrack, the two turns out of its arrival and its
quad-slot edges, so the next step is classified as R, L or backtrack, or else
the path breaks, by two or three comparisons.  Both trace functions refine by
one rule: when |trace| is within 1e-6 of 2, rounding may swamp the gap or
weights go subnormal, the loop reruns over ``mpf`` at 60 digits.  The exact
trace along a monomial family has its own loop, on Kronecker-packed ints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import mpmath

from .errors import DomainError
from .fatgraph import EdgePath, Fatgraph, _check_joins, _check_steps
from .geometry import LambdaAssignment, _off_path_edge, quad_slots

LEFT = "L"
RIGHT = "R"

REFINE_GAP = 1e-6
_MP_DPS = 60
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
    a, b, c, d = quad_slots(g, step)
    s = math.sqrt((lam[a] * lam[c]) / (lam[b] * lam[d]))
    return Mat2(0.0, s, -1.0 / s, 0.0)


def path_turns(g: Fatgraph, path: EdgePath) -> tuple[str, ...]:
    """Turn before each step (from the previous step's arrival), cyclically."""
    n = len(path.steps)
    turns = []
    for k in range(n):
        incoming = g.pairing(path.steps[k - 1])
        turns.append(turn_direction(g, incoming, path.steps[k]))
    return tuple(turns)


def _product(g: Fatgraph, path: EdgePath, w: Sequence, sqrt,
             allow_backtrack: bool = False) -> tuple:
    """Entries of T_1 X_1 T_2 X_2 ... with edge weights ``w`` and ``sqrt`` of their type.

    One pass over ``g._step_table`` checks and multiplies: a step that is
    neither turn nor the backtrack out of the previous arrival breaks the path.
    """
    if not g.is_trivalent():
        raise DomainError("holonomy needs a trivalent graph")
    steps = path.steps
    _check_steps(g, steps)
    rows = g._step_table
    back, right, left = rows[steps[-1]][:3]
    a11, a12, a21, a22 = 1, 0, 0, 1     # ints: exact in every scalar type
    for h in steps:
        if h == right:
            a11, a12, a21, a22 = a11 - a12, a11, a21 - a22, a21
        elif h == left:
            a11, a12, a21, a22 = a12, a12 - a11, a22, a22 - a21
        elif h != back or not allow_backtrack:
            _check_joins(g, steps)      # names the first break, if there is one
            raise DomainError("path is not efficient")
        back, right, left, a, b, c, d = rows[h]
        s = sqrt((w[a] * w[c]) / (w[b] * w[d]))
        inv = -1 / s
        a11, a12, a21, a22 = a12 * inv, a11 * s, a22 * inv, a21 * s
    return a11, a12, a21, a22


def _exact_gap_leading(g: Fatgraph, q: Sequence[int], path: EdgePath) -> tuple[int | None, int]:
    """Leading (exponent, coefficient) of |trace| - 2 in tau for weights tau**q_e, q_e
    even; (None, 0) if it is 0.  Edge matrices are scaled by tau**|k|, tau**k the cross
    ratio, and entries packed at tau = 2**bits: after n turns their coefficients sum to
    at most 2**n in absolute value, so bits = n + 3 keeps them apart as balanced digits."""
    if not g.is_trivalent():
        raise DomainError("holonomy needs a trivalent graph")
    steps = path.steps
    _check_steps(g, steps)
    rows = g._step_table
    bits = len(steps) + 3
    shifts = [(q[a] + q[c] - q[b] - q[d]) * bits         # 2 * k * bits
              for *_, a, b, c, d in map(rows.__getitem__, steps)]
    total = sum(map(abs, shifts))       # 2 * bits * (the degree D the trace gains)
    if total + bits > EXACT_BITS_MAX:
        raise DomainError(f"exact trace gap needs {total + bits} bits, over {EXACT_BITS_MAX}")
    _, right, left = rows[steps[-1]][:3]
    a11, a12, a21, a22 = 1, 0, 0, 1
    for h, (up, down) in zip(steps, [(k, 0) if k >= 0 else (0, -k) for k in shifts]):
        if h == right:
            a11, a12, a21, a22 = a11 - a12, a11, a21 - a22, a21
        elif h == left:
            a11, a12, a21, a22 = a12, a12 - a11, a22, a22 - a21
        else:
            _check_joins(g, steps)      # names the first break, if there is one
            raise DomainError("path is not efficient")
        _, right, left = rows[h][:3]
        a11, a12, a21, a22 = -a12 << down, a11 << up, -a22 << down, a21 << up
    gap = abs(a11 + a22) - (2 << total // 2)
    if not gap:
        return None, 0
    low = abs(gap).bit_length() // bits * bits     # the top digit's place
    return (low - total // 2) // bits, (gap + (1 << low >> 1)) >> low


def holonomy(g: Fatgraph, lam: LambdaAssignment, path: EdgePath,
             allow_backtrack: bool = False) -> Mat2:
    """Path-ordered product T_1 X_1 T_2 X_2 ... over the closed path.

    Backtracking paths are rejected unless ``allow_backtrack`` is set, in
    which case the turn at a backtrack contributes the identity; the group
    relations make the |trace| agree with the reduced path's.
    """
    return Mat2(*_product(g, path, lam.values, math.sqrt, allow_backtrack))


def abs_trace(m: Mat2) -> float:
    return abs(m.trace())


def hyp_length(abs_tr: float) -> float:
    """Hyperbolic length from |trace| = 2 cosh(length / 2)."""
    if abs_tr < 2.0 - 1e-12:
        raise DomainError(f"|trace| = {abs_tr} < 2: no geodesic length")
    return 2.0 * math.acosh(max(1.0, abs_tr / 2.0))


def hyp_length_from_gap(gap: float) -> float:
    """Length from |trace| - 2, stable for gaps far below double epsilon.

    Uses acosh(1 + u) = log1p(u + sqrt(u * (2 + u))) with u = gap / 2.
    """
    if gap < -1e-12:
        raise DomainError(f"trace gap {gap} < 0: no geodesic length")
    u = max(0.0, gap) / 2.0
    square = u * (2.0 + u)
    if square == math.inf:
        # acosh(1 + u) = log(2u) to double precision long before u * u overflows
        return 2.0 * math.log(2.0 * u)
    return 2.0 * math.log1p(u + math.sqrt(square))


def _needs_refinement(m: Mat2, abs_tr: float, lam: LambdaAssignment, n_steps: int) -> bool:
    # the double product loses roughly eps times the largest entry per
    # factor, which swamps a small trace gap when weights span many orders
    # of magnitude; below sqrt of the least normal double a weight product
    # goes subnormal and loses digits before any sum
    peak = max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22), lam.extremes[1] ** 2)
    roundoff = 2e-16 * peak * n_steps
    gap = abs(abs_tr - 2.0)
    return (gap < REFINE_GAP or not math.isfinite(gap)
            or roundoff > 1e-3 * max(gap, 1e-300)
            or lam.extremes[0] ** 2 < sys.float_info.min)


def _abs_trace_minus(g: Fatgraph, lam: LambdaAssignment, path: EdgePath,
                     allow_backtrack: bool, offset: int) -> float:
    """|trace| - offset, with the subtraction at extended precision when refined."""
    try:
        m = holonomy(g, lam, path, allow_backtrack=allow_backtrack)
        abs_tr = abs_trace(m)
        if not _needs_refinement(m, abs_tr, lam, len(path.steps)):
            return abs_tr - offset
    except (ZeroDivisionError, OverflowError):
        pass    # weights beyond double range: a cross ratio underflowed, or the bound overflowed
    with mpmath.workdps(_MP_DPS):
        w = [mpmath.mpf(v) for v in lam.values]
        a11, _, _, a22 = _product(g, path, w, mpmath.sqrt, allow_backtrack)
        return float(abs(a11 + a22) - offset)


def abs_trace_of_path(g: Fatgraph, lam: LambdaAssignment, path: EdgePath,
                      allow_backtrack: bool = False) -> float:
    """|trace| of the path holonomy, re-evaluated at high precision near 2."""
    return _abs_trace_minus(g, lam, path, allow_backtrack, 0)


def trace_gap_of_path(g: Fatgraph, lam: LambdaAssignment, path: EdgePath,
                      allow_backtrack: bool = False) -> float:
    """|trace| - 2 with the subtraction done at extended precision.

    Gaps far below 2**-52 are representable this way even though the trace
    itself rounds to 2.0 in double precision.
    """
    return _abs_trace_minus(g, lam, path, allow_backtrack, 2)


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
    acc = 0.0
    term = 1.0
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
    zetas = []
    z1_sq = (y[1] * y[n1 - 1]) / (x[0] * x0)
    zetas.append(math.sqrt(z1_sq))
    for k in range(2, n + 1):
        zk_sq = (y[k] * x[k - 2]) / (x[k - 1] * y[k - 2])
        zetas.append(math.sqrt(zk_sq))
    zlast_sq = (x0 * x[n - 1]) / (y[0] * y[n - 1])
    zetas.append(math.sqrt(zlast_sq))
    return OneLeftTurnData(tuple(zetas), math.prod(zetas),
                           tuple(g.edge_of(s) for s in steps))
