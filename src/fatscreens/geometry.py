"""Lambda-length geometry on trivalent fatgraphs.

Edge weights ("lambda lengths") coordinatize a decorated hyperbolic
structure.  Around an edge e with half-edges h, h' the four neighbor slots
are read counter-clockwise as

    a = sigma(h), b = sigma(sigma(h)), c = sigma(h'), d = sigma(sigma(h')),

with slot values taken from the underlying edges, so loops and parallel
edges repeat values instead of breaking the formulas.  Every formula below
reads its slots from ``Fatgraph._quad``, their one reader, or from the
tables it fills.  In this notation:

* Ptolemy exchange under a flip:  f = (ac + bd) / e
* cross ratio magnitude of e:     bd / (ac)
* simplicial coordinate:          (a^2+b^2-e^2)/(abe) + (c^2+d^2-e^2)/(cde)
* h-length of a sector (x, y):    opposite / (x*y)

Nonnegative simplicial coordinates whose zero set contains no cycle cut
out the cell of weights compatible with the graph; inverting the
coordinate map is done by damped inexact Newton iteration in log weights.

In log weights u the coordinates are X = -grad F, where F is the sum of
the h-lengths of all sectors: the term of an edge end is minus the
derivative of its vertex's three sectors in that end's slot (a central
difference agrees to 4e-10 on barbell, genus2 and mercedes).  Each sector
term is the exp of a linear form in u, and at each vertex these forms span
its slots, so the Jacobian of X is symmetric negative definite and the
Newton system is nonsingular in exact arithmetic.  It is kept as the
Jacobian's 6n cell values on per-end index tables, so no n x n array is
formed.  Each system J s = resid is scaled once to unit diagonal, D = |diag
J|**-1/2, and solved by conjugate gradients on -DJD, whose matrix-vector
product is p plus the four off-diagonal cells of each row, kept as 4 x n
contiguous rows (slots a, b, c, d).  This is Jacobi-preconditioned CG on
-J, stopped on |D(J s - resid)|, or on a last step (err**2 < tol) where
|J s - resid|_inf <= tol / 2 is certain.  Uniform weights c give every
coordinate 2 / c, so edge e starts at the c = 4 / (x_e + m) whose
coordinate is the mean of its own target x_e and the median positive one m.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import types
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DomainError, NonConvergenceError
from .fatgraph import Fatgraph, WhiteheadMove, _one_per_edge, _union_find, whitehead_move


def _lazy_import(name: str):
    """Module ``name``, run on its first attribute use unless it was imported already; if it is
    not installed, a stand-in whose first attribute use raises ``ModuleNotFoundError``."""
    module = sys.modules.get(name)
    if module is None:
        if (spec := importlib.util.find_spec(name)) is None:
            def missing(attr: str):
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
            module = types.ModuleType(name)
            module.__getattr__ = missing    # a module's own __getattr__ (PEP 562)
            return module
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")      # only inversion and the Minkowski lifts need it


class _PerEdge:
    def __getitem__(self, e: int) -> float:
        return self.values[e]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LambdaAssignment(_PerEdge):
    """Strictly positive weight per edge, indexed by edge id."""

    values: tuple[float, ...]
    # log2(2 hi / lo) of the least and largest weights lo, hi where lo**2 and hi**2 are normal,
    # else inf: the trace's range test for its float pass reads it once per path
    log2_spread: float = field(init=False, repr=False, compare=False)
    _trace_rows = (None, None)  # (slot table, float rows) of the last graph traced: no field

    def __post_init__(self):
        lo, hi = min(self.values, default=1.0), max(self.values, default=1.0)
        if not (all(map(math.isfinite, self.values)) and lo > 0):
            raise DomainError("lambda lengths must be positive finite reals")
        object.__setattr__(self, "log2_spread", math.log2(2 * hi / lo) if (
            lo * lo >= sys.float_info.min and hi * hi < math.inf) else math.inf)


@dataclass(frozen=True)
class SimplicialCoords(_PerEdge):
    """Per-edge simplicial coordinate values, indexed by edge id."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(not math.isfinite(v) for v in self.values):
            raise DomainError("simplicial coordinates must be finite")


def lambda_assignment(values: Iterable[float]) -> LambdaAssignment:
    return LambdaAssignment(tuple(float(v) for v in values))


def simplicial(values: Iterable[float]) -> SimplicialCoords:
    return SimplicialCoords(tuple(float(v) for v in values))


def _require_trivalent(g: Fatgraph) -> None:
    if not g.is_trivalent():
        raise DomainError("operation requires a trivalent graph")


def quad_slots(g: Fatgraph, step: int) -> tuple[int, int, int, int]:
    """Edge ids (a, b, c, d) around the traversed edge, tail end first."""
    if not 0 <= step < g.n_half_edges:     # a negative id would index from the end
        raise DomainError(f"invalid half-edge id {step}")
    for x in (step, g.pairing(step)):
        if g.valence(g.vertex_of(x)) != 3:
            raise DomainError("edge endpoints must be trivalent")
    return g._quad(step)


# ---------------------------------------------------------------------------
# Pointwise formulas
# ---------------------------------------------------------------------------

def whitehead_transport(g: Fatgraph, lam: LambdaAssignment, e: int
                        ) -> tuple[Fatgraph, LambdaAssignment, WhiteheadMove]:
    """Flip an edge and exchange its weight by the Ptolemy rule."""
    _one_per_edge(g, lam, "weight")
    move = whitehead_move(g, e)
    a, b, c, d = (g.edge_of(h) for h in move.neighbor_slots)
    new = list(lam.values)
    new[e] = (lam[a] * lam[c] + lam[b] * lam[d]) / lam[e]
    return move.graph, LambdaAssignment(tuple(new)), move


def cross_ratio(g: Fatgraph, lam: LambdaAssignment, step: int) -> float:
    """Positive magnitude bd/(ac) of the cross ratio across the edge.

    The value is the same for the two traversal directions; the reciprocal
    pattern seen along a curve comes from the two ends of consecutive
    edges exchanging roles.
    """
    _one_per_edge(g, lam, "weight")
    a, b, c, d = quad_slots(g, step)
    return (lam[b] * lam[d]) / (lam[a] * lam[c])


def h_length(g: Fatgraph, lam: LambdaAssignment, h: int) -> float:
    """Horocyclic length across the sector from half-edge ``h`` to ``sigma(h)``:
    opposite over product of adjacent."""
    _one_per_edge(g, lam, "weight")
    if not 0 <= h < g.n_half_edges:
        raise DomainError(f"invalid half-edge id {h}")
    if g.valence(g.vertex_of(h)) != 3:
        raise DomainError("h-length needs a trivalent vertex")
    y = g.sigma(h)
    return lam[g.edge_of(g.sigma(y))] / (lam[g.edge_of(h)] * lam[g.edge_of(y)])


def simplicial_coords(g: Fatgraph, lam: LambdaAssignment) -> SimplicialCoords:
    """Per-edge coordinates: the term of the first half's end plus the second's."""
    _require_trivalent(g)
    _one_per_edge(g, lam, "weight")
    w = lam.values
    slots = iter(itemgetter(*chain.from_iterable(g._edge_quads))(w))
    try:
        vals = [(a * a + b * b - x * x) / (a * b * x) + (c * c + d * d - x * x) / (c * d * x)
                for x, a, b, c, d in zip(w, slots, slots, slots, slots)]
    except ZeroDivisionError:   # weights are positive: a product of 0 is an underflow
        e = next(e for e, (a, b, c, d) in enumerate(g._edge_quads)
                 if not (w[a] * w[b] * w[e] and w[c] * w[d] * w[e]))
        raise DomainError(f"weight products at edge {g.label(e)} underflow to 0") from None
    try:
        return SimplicialCoords(tuple(vals))
    except DomainError:     # a square may overflow where the end terms do not
        for e in [e for e, v in enumerate(vals) if not math.isfinite(v)]:
            x, (a, b, c, d) = w[e], map(w.__getitem__, g._edge_quads[e])
            vals[e] = ((a / (b * x) + b / (a * x) - x / (a * b))
                       + (c / (d * x) + d / (c * x) - x / (c * d)))
        return SimplicialCoords(tuple(vals))


def triangle_inequalities_hold(g: Fatgraph, lam: LambdaAssignment
                               ) -> tuple[bool, int | None]:
    """Strict triangle inequalities for the three slot values at each vertex."""
    _require_trivalent(g)
    _one_per_edge(g, lam, "weight")
    for v, cyc in enumerate(g.vertex_cycles):
        *rest, top = sorted(lam[g.edge_of(h)] for h in cyc)
        if sum(map(Fraction, rest)) <= top:     # exact: 1 + 1e16 > 1e16 although it rounds
            return False, v
    return True, None


def no_vanishing_cycle(g: Fatgraph, coords: SimplicialCoords,
                       tol: float = 0.0) -> bool:
    """Nonnegative coordinates and no cycle among the (near-)zero edges."""
    if not tol >= 0:        # NaN fails this too
        raise DomainError("tolerance must be nonnegative")
    _one_per_edge(g, coords, "coordinate")
    if min(coords.values) < -tol:
        return False
    return not _union_find(g, [e for e, x in enumerate(coords.values) if abs(x) <= tol])[1]


def default_zero_tol(coords: SimplicialCoords) -> float:
    peak = max((abs(v) for v in coords.values), default=0.0)
    return 1e-9 * (1.0 + peak)


def in_cell(g: Fatgraph, lam: LambdaAssignment) -> bool:
    """Whether the weights satisfy the cell condition for this graph."""
    coords = simplicial_coords(g, lam)
    return no_vanishing_cycle(g, coords, default_zero_tol(coords))


# ---------------------------------------------------------------------------
# Coordinate inversion
# ---------------------------------------------------------------------------

def _end_tables(g: Fatgraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the Newton system.  End 2e of edge e is its first half in
    ``g.halves`` order, with quad slots a, b; end 2e + 1 is its second, with c, d.
    Returns each end's first and second slot edge (a or c, b or d), the rows'
    off-diagonal columns as 4 x n rows of slots a, b, c, d, and 1.0 for each of
    those cells but 0.0 where a loop puts it on the diagonal."""
    quads = np.fromiter(chain.from_iterable(g._edge_quads), np.intp, 4 * g.n_edges).reshape(-1, 4)
    (first, second), quads = quads.reshape(-1, 2).T.copy(), quads.T.copy()
    return first, second, quads, (quads != np.arange(g.n_edges)).astype(float)


def _coords_and_jacobian(tables: tuple, lam_vals: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Simplicial coordinates and the Jacobian's cells in log-lambda variables: per
    end its cells in the columns of its first slot, its second slot and its edge.
    Each coordinate sums its two end terms, first end first, for any graph."""
    first, second = tables[:2]
    la, lb, le = lam_vals[first], lam_vals[second], lam_vals.repeat(2)
    t1 = la / (lb * le)
    t2 = lb / (la * le)
    t3 = le / (la * lb)
    ends = t1 + t2 - t3
    return ends[0::2] + ends[1::2], (t1 - t2 + t3, -t1 + t2 + t3, -t1 - t2 - t3)


def _unit_system(tables: tuple, vals: tuple) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(diag J, d = |diag J|**-1/2, the system of -DJD for ``_unit_times``): the
    cells of -DJD off its diagonal, on the 4 x n quad columns, with each loop's
    cell moved into diag J; -DJD has 1 on its diagonal."""
    _, _, quads, off_diagonal = tables
    ja, jb, je = vals
    cells = np.empty(quads.shape)       # J on the quad columns: rows a, b, c, d
    cells[0::2], cells[1::2] = ja.reshape(-1, 2).T, jb.reshape(-1, 2).T
    off = cells * off_diagonal
    ones = np.ones(4)
    diag = je[0::2] + je[1::2] + ones.dot(cells - off)
    d = np.abs(diag) ** -0.5
    off *= d[quads]
    off *= -d
    return diag, d, (quads, off, ones)


def _unit_times(system: tuple, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-DJD p: p plus each row's off-diagonal cells times p in their columns."""
    quads, cells, ones = system
    x = p[quads]
    x *= cells
    return np.add(ones.dot(x), p, out=out)


def _newton_step(tables: tuple, vals: tuple, resid: np.ndarray, forcing: float,
                 aim: float = 0.0) -> np.ndarray:
    """Step s with |D(J s - resid)| <= max(forcing |D resid|, aim min(d)), D =
    diag(d) = |diag J|**-1/2, or the step after n iterations; the second bound
    gives |J s - resid|_inf <= aim.

    Conjugate gradients on -DJD y = -D resid from y = 0, and s = D y: this is CG
    on -J preconditioned by its diagonal (Saad 2003, sec. 9.2) with the scaling
    paid once per step, and its residual r = D(J s - resid) is the one it stops
    on.  alpha is at most 1 / lambda_min of -DJD; where p.(-DJD)p is not
    positive and finite, or alpha passes 1 / epsilon (J singular to working
    precision along p), the iteration stops at its current iterate, or at the
    Jacobi step resid / diag J if it has none."""
    diag, d, system = _unit_system(tables, vals)
    # y beside -r = D(J s - resid), p beside q = -DJD p: one update moves both
    y_nr, p_q = np.zeros((2, len(resid))), np.empty((2, len(resid)))
    (y, nr), (p, q) = y_nr, p_q
    np.multiply(d, resid, out=nr)
    np.negative(nr, out=p)
    rr = float(nr.dot(nr))
    stop = max(forcing * forcing * rr, (aim * d.min()) ** 2)
    for _ in range(len(resid)):
        _unit_times(system, p, q)
        pq = float(p.dot(q))
        alpha = rr / pq if pq > 0 else 0.0
        if not 0 < alpha < 1 / sys.float_info.epsilon:
            break
        y_nr += alpha * p_q                 # y += alpha p, r -= alpha q
        rr, rr_old = float(nr.dot(nr)), rr
        if rr <= stop:
            break
        p *= rr / rr_old
        p -= nr                             # p = r + beta p
    return d * y if y.any() else resid / diag


def invert_coords(g: Fatgraph, target: SimplicialCoords, tol: float = 1e-10,
                  initial: LambdaAssignment | None = None) -> LambdaAssignment:
    """Positive weights whose simplicial coordinates match the target.

    Damped inexact Newton iteration on log weights, where positivity is
    automatic.  ``_newton_step`` solves each Newton system from the
    Jacobian's 6n cell values, scaled to unit diagonal by D = |diag J|**-1/2,
    to the relative residual |D(J s - resid)| / |D resid| = min(0.1,
    sqrt(err)), err the largest coordinate residual (Eisenstat and Walker
    1996; Kelley 1995, ch. 6).  Where err**2 < tol the quadratic remainder is
    predicted under tol, and the step is solved to |J s - resid|_inf <= tol /
    2 instead, all it needs.  Without ``initial`` it starts each edge e at
    4 / (x_e + m), x_e its target and m the target's median positive
    coordinate: a zero target starts at 4 / m, and no start is infinite.  It
    starts at weights 1 where those weights give non-finite coordinates.  The
    target must be nonnegative with no vanishing cycle; ``initial`` weights,
    if given, need one per edge and finite coordinates.  A failure names a
    tol below one ulp of the largest target coordinate, which no residual
    there can meet but 0.
    """
    _require_trivalent(g)
    if not 0 < tol < math.inf:       # NaN fails this too
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    _one_per_edge(g, target, "target coordinate")
    if min(target.values) < 0:
        raise DomainError("infeasible target: negative coordinate")
    if not no_vanishing_cycle(g, target, 0.0):
        raise DomainError("infeasible target: vanishing cycle")
    if initial is not None:
        _one_per_edge(g, initial, "initial weight")
    x = np.asarray(target.values, dtype=float)
    tables = _end_tables(g)
    m = np.sort(x[x > 0])       # for their median; np.median would load numpy.ma (1.6 MB)
    # a trial point may overflow; the line search rejects it without a warning
    with np.errstate(all="ignore"):
        u = (np.log(4 / (x + 0.5 * (m[(len(m) - 1) // 2] + m[len(m) // 2])))
             if initial is None else np.log(initial.values))
        coords, vals = _coords_and_jacobian(tables, np.exp(u))
        if initial is None and not np.isfinite(coords).all():    # a target beyond double range
            u = np.zeros(g.n_edges)
            coords, vals = _coords_and_jacobian(tables, np.exp(u))
        if not np.isfinite(coords).all():
            raise DomainError("initial weights give non-finite coordinates")
        resid = coords - x
        err, stalled = np.abs(resid).max(), False
        for _ in range(200):
            if err <= tol:
                break
            # the last step aims its linear residual at tol / 2, and no lower
            forcing = min(0.1, math.sqrt(err)) if err * err >= tol else 0.0
            step = _newton_step(tables, vals, resid, forcing, 0.5 * tol)
            for halvings in range(60):
                u_try = u - 0.5 ** halvings * step
                coords_try, vals_try = _coords_and_jacobian(tables, np.exp(u_try))
                resid_try = coords_try - x
                err_try = np.abs(resid_try).max()
                if err_try < err:
                    u, vals, resid, err = u_try, vals_try, resid_try, err_try
                    break
            else:
                stalled = True
                break
    if err > tol:
        ulp = math.ulp(x.max())
        below = f" is below one ulp, {ulp:.3e}, of the largest target coordinate" if tol < ulp else ""
        raise NonConvergenceError(
            f"inversion stalled at residual {err:.3e} (tol {tol:.1e}{below})" if stalled else
            f"inversion did not reach tolerance {tol:.1e} in 200 iterations "
            f"(residual {err:.3e}{below and f'; tol{below}'})")
    return LambdaAssignment(tuple(np.exp(u).tolist()))


# ---------------------------------------------------------------------------
# Minkowski lifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinkowskiVector:
    x: float
    y: float
    z: float

    def pair(self, other: "MinkowskiVector") -> float:
        return self.x * other.x + self.y * other.y - self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def minkowski_lift(triple: Sequence[float]) -> tuple[MinkowskiVector, ...]:
    """Isotropic vectors u1, u2, u3 with pairings -l12^2, -l13^2, -l23^2.

    Input order is (l12, l13, l23).  The gauge puts u1 at azimuth 0 with
    unit height, u2 in the x-z half-plane opposite u1, and u3 above the
    x-z plane.
    """
    l12, l13, l23 = (float(v) for v in triple)
    if min(l12, l13, l23) <= 0:
        raise DomainError("lambda lengths must be positive")
    r1 = 1.0
    r2 = l12 * l12 / (2.0 * r1)
    tan_half = math.sqrt(r2 * l13 * l13 / (l23 * l23))
    t = 2.0 * math.atan(tan_half)
    sin_half_sq = tan_half * tan_half / (1.0 + tan_half * tan_half)
    r3 = l13 * l13 / (2.0 * r1 * sin_half_sq)
    u1 = MinkowskiVector(r1, 0.0, r1)
    u2 = MinkowskiVector(-r2, 0.0, r2)
    u3 = MinkowskiVector(r3 * math.cos(t), r3 * math.sin(t), r3)
    return u1, u2, u3


def is_elliptic_section(triple: Sequence[float]) -> bool:
    """Whether the affine plane through the lifted triple cuts an ellipse.

    Equivalent to the three strict triangle inequalities; decided by the
    sign of the Minkowski square of the plane normal.
    """
    u1, u2, u3 = (u.as_array() for u in minkowski_lift(triple))
    n = np.cross(u2 - u1, u3 - u1)
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise DomainError("degenerate lift: collinear points")
    return n[0] * n[0] + n[1] * n[1] - n[2] * n[2] < 0.0


@dataclass(frozen=True)
class QuadLambdas:
    """Six weights of a quadrilateral: sides in cyclic order, two diagonals.

    ``diag_13`` spans corners 1-3 (between sides s12/s23 and s34/s41);
    ``diag_24`` the other pair.  Consistency means Ptolemy holds:
    d13 * d24 = s12 * s34 + s23 * s41.
    """

    s12: float
    s23: float
    s34: float
    s41: float
    diag_13: float
    diag_24: float

    def swapped_diagonals(self) -> "QuadLambdas":
        """Relabel corners cyclically so the other diagonal takes the e-role."""
        return QuadLambdas(self.s23, self.s34, self.s41, self.s12,
                           self.diag_24, self.diag_13)


def lift_quad(q: QuadLambdas) -> tuple[MinkowskiVector, ...]:
    """Lift all four corners; fails when the six weights are inconsistent."""
    u1, u2, u3 = (u.as_array() for u in minkowski_lift((q.s12, q.diag_13, q.s23)))
    # u4 solves three linear pairing equations; isotropy is the consistency check
    mat = np.array([[u[0], u[1], -u[2]] for u in (u1, u2, u3)])
    rhs = np.array([-q.s41 ** 2, -q.diag_24 ** 2, -q.s34 ** 2])
    try:
        u4 = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise DomainError("degenerate configuration: collinear lift") from None
    iso = u4[0] ** 2 + u4[1] ** 2 - u4[2] ** 2
    scale = float(np.dot(u4, u4))
    if abs(iso) > 1e-8 * (1.0 + scale):
        raise DomainError("inconsistent quadrilateral weights (Ptolemy fails)")
    return (MinkowskiVector(*u1), MinkowskiVector(*u2),
            MinkowskiVector(*u3), MinkowskiVector(*u4))


def tetra_volume_sign(q: QuadLambdas) -> float:
    """Signed volume of the lifted tetrahedron, oriented-quadrilateral gauge.

    Normalized so that the value equals
    ``2*sqrt(2) * s12*s23*s34*s41 * X`` where X is the two-term simplicial
    expression of the 1-3 diagonal; the sign is positive exactly when the
    1-3 edge of the tetrahedron passes below the 2-4 edge.
    """
    u1, u2, u3, u4 = (u.as_array() for u in lift_quad(q))
    det = float(np.linalg.det(np.array([u2 - u1, u3 - u1, u4 - u1])))
    return -2.0 * det


# ---------------------------------------------------------------------------
# Cyclic polygons and vertex refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicPolygon:
    circumradius: float
    central_angles: tuple[float, ...]


def cyclic_polygon(lengths: Sequence[float]) -> CyclicPolygon:
    """Inscribe a polygon with the given side lengths in a circle.

    Bisection on the longest side's half-angle deficit phi in [0, pi/2], with
    lmax/(2R) = cos(phi): side l = r lmax has the half-angle whose sine is r
    cos(phi) and whose cosine comes from 1 - r cos(phi) = (1 - r) + 2 r
    sin(phi/2)**2, so an angle near pi is measured by its deficit from pi.
    The centre is inside when the other sides' half-angles reach pi/2 at phi
    = 0, and then all half-angles sum to pi; otherwise the others sum to the
    longest side's half-angle, and its central angle is pi + 2 phi.  The
    polygon exists and is unique (Robbins 1994), so each equation has one
    sign change.  Half-angles are 1-Lipschitz in phi, so the bisection stops
    at a bracket of 2**-64 (at most 65 steps) or at adjacent doubles.
    """
    ls = [float(v) for v in lengths]
    if len(ls) < 3 or not all(0.0 < l < math.inf for l in ls):
        raise DomainError("need at least three positive finite lengths")
    *rest, lmax = sorted(ls)
    if sum(map(Fraction, rest)) <= lmax:
        raise DomainError("generalized strict triangle inequality fails")
    imax = ls.index(lmax)
    ratios = [l / lmax for l in ls]

    def half_angles(phi: float) -> list[float]:
        c, h = math.cos(phi), 2.0 * math.sin(0.5 * phi) ** 2
        return [math.atan2(r * c, math.sqrt(((1.0 - r) + r * h) * (1.0 + r * c))) for r in ratios]

    def others(phi: float) -> tuple[float, float]:
        theta = half_angles(phi)
        return sum(t for i, t in enumerate(theta) if i != imax), theta[imax]

    inside = others(0.0)[0] >= math.pi / 2
    lo, hi = 0.0, math.pi / 2
    while hi - lo > 2.0 ** -64 and lo < (mid := 0.5 * (lo + hi)) < hi:
        rest_sum, big = others(mid)
        if (rest_sum + big > math.pi) if inside else (rest_sum < big):
            lo = mid
        else:
            hi = mid
    angles = [2.0 * t for t in half_angles(lo)]
    if not inside:
        angles[imax] = math.pi + 2.0 * lo
    return CyclicPolygon(lmax / (2.0 * math.cos(lo)), tuple(angles))


@dataclass(frozen=True)
class Refinement:
    """Trivalent refinement of a graph with vertices of valence >= 3."""

    graph: Fatgraph
    lam: LambdaAssignment
    new_edges: tuple[int, ...]          # ids of the added edges; old edges keep theirs


def refine_to_trivalent(g: Fatgraph, lam: LambdaAssignment) -> Refinement:
    """Split every high-valence vertex into a fan of trivalent vertices.

    The weights at each vertex are realized as the side lengths of a cyclic
    polygon and the new fan edges receive the Euclidean diagonal lengths
    from its first corner.  Collapsing the new edges recovers the input.
    """
    _one_per_edge(g, lam, "weight")
    if any(g.valence(v) < 3 for v in range(g.n_vertices)):
        raise DomainError("refinement needs all valences >= 3")
    for v, cyc in enumerate(g.vertex_cycles):
        *rest, top = sorted(lam[g.edge_of(h)] for h in cyc)
        if sum(map(Fraction, rest)) <= top:
            raise DomainError(f"triangle inequalities fail at vertex {v}")
    if g.is_trivalent():
        return Refinement(g, lam, ())
    next_half = g.n_half_edges
    cycles: list[tuple[int, ...]] = []
    halves = list(g.edge_halves)
    labels = list(g.edge_labels)
    values = list(lam.values)
    new_ids = []
    for v, cyc in enumerate(g.vertex_cycles):
        k = len(cyc)
        if k == 3:
            cycles.append(cyc)
            continue
        vals = [lam[g.edge_of(h)] for h in cyc]
        poly = cyclic_polygon(vals)
        angles = poly.central_angles
        diag_ids = {}
        for j in range(2, k - 1):
            ha, hb = next_half, next_half + 1
            next_half += 2
            eid = len(halves)
            halves.append((ha, hb))
            lab = f"d{eid}"
            while lab in labels:
                lab = "_" + lab
            labels.append(lab)
            # corner j sits between sides j-1 and j; the chord from corner 0
            # subtends the shorter arc, so its half-angle is at most pi/2
            arc = min(sum(angles[:j]), sum(angles[j:]))
            values.append(2.0 * poly.circumradius * math.sin(0.5 * arc))
            diag_ids[j] = (eid, ha, hb)
            new_ids.append(eid)
        first = diag_ids[2]
        cycles.append((cyc[0], cyc[1], first[1]))
        for j in range(2, k - 2):
            cycles.append((diag_ids[j][2], cyc[j], diag_ids[j + 1][1]))
        cycles.append((diag_ids[k - 2][2], cyc[k - 2], cyc[k - 1]))
    refined = Fatgraph(tuple(cycles), tuple(halves), tuple(labels))
    return Refinement(refined, LambdaAssignment(tuple(values)), tuple(new_ids))
