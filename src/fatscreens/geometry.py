"""Lambda-length geometry on trivalent fatgraphs.

Edge weights ("lambda lengths") coordinatize a decorated hyperbolic
structure.  Around an edge e with half-edges h, h' the four neighbor slots
are read counter-clockwise as

    a = sigma(h), b = sigma(sigma(h)), c = sigma(h'), d = sigma(sigma(h')),

with slot values taken from the underlying edges, so loops and parallel
edges repeat values instead of breaking the formulas.  Every formula below
reads its slots from ``Fatgraph._quad``, their one reader.  In this notation:

* Ptolemy exchange under a flip:  f = (ac + bd) / e
* cross ratio magnitude of e:     bd / (ac)
* simplicial coordinate:          (a^2+b^2-e^2)/(abe) + (c^2+d^2-e^2)/(cde)
* h-length of a sector (x, y):    opposite / (x*y)

Nonnegative simplicial coordinates whose zero set contains no cycle cut
out the cell of weights compatible with the graph; inverting the
coordinate map is done by damped Newton iteration in log weights.

In log weights u the coordinates are X = -grad F, where F is the sum of
the h-lengths of all sectors: the term of an edge end is minus the
derivative of its vertex's three sectors in that end's slot (a central
difference agrees to 4e-10 on barbell, genus2 and mercedes).  Each sector
term is the exp of a linear form in u, and at each vertex these forms span
its slots, so the Jacobian of X is symmetric negative definite and the
Newton system is nonsingular in exact arithmetic.  The system is assembled
from per-end index tables, one ``bincount`` for the coordinates and one
for the matrix.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DomainError, NonConvergenceError
from .fatgraph import (EdgePath, Fatgraph, WhiteheadMove, check_closed_path,
                       is_efficient, whitehead_move)

# numpy runs on first use, as only inversion and the Minkowski lifts need it
np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)


@dataclass(frozen=True)
class LambdaAssignment:
    """Strictly positive weight per edge, indexed by edge id."""

    values: tuple[float, ...]
    # (least, largest) weight, read by the refinement test of every traced curve
    extremes: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(not (v > 0) or not math.isfinite(v) for v in self.values):
            raise DomainError("lambda lengths must be positive finite reals")
        object.__setattr__(self, "extremes", (min(self.values, default=1.0),
                                              max(self.values, default=1.0)))

    def __getitem__(self, e: int) -> float:
        return self.values[e]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SimplicialCoords:
    """Per-edge simplicial coordinate values, indexed by edge id."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(not math.isfinite(v) for v in self.values):
            raise DomainError("simplicial coordinates must be finite")

    def __getitem__(self, e: int) -> float:
        return self.values[e]

    def __len__(self) -> int:
        return len(self.values)


def lambda_assignment(values: Iterable[float]) -> LambdaAssignment:
    return LambdaAssignment(tuple(float(v) for v in values))


def simplicial(values: Iterable[float]) -> SimplicialCoords:
    return SimplicialCoords(tuple(float(v) for v in values))


@dataclass(frozen=True)
class Sector:
    """Two cyclically consecutive half-edges at one vertex."""

    first: int
    second: int


def _require_trivalent(g: Fatgraph) -> None:
    if not g.is_trivalent():
        raise DomainError("operation requires a trivalent graph")


def quad_slots(g: Fatgraph, step: int) -> tuple[int, int, int, int]:
    """Edge ids (a, b, c, d) around the traversed edge, tail end first."""
    for x in (step, g.pairing(step)):
        if g.valence(g.vertex_of(x)) != 3:
            raise DomainError("edge endpoints must be trivalent")
    return g._quad(step)


def _off_path_edge(g: Fatgraph, step: int, depart: int) -> int:
    """Edge in the slot a path passes by when it turns (never backtracks) from
    ``step`` into ``depart``: d when it departs right, c when it departs left."""
    _, _, c, d = g._quad(step)
    return d if depart == g.sigma(g.pairing(step)) else c


# ---------------------------------------------------------------------------
# Pointwise formulas
# ---------------------------------------------------------------------------

def whitehead_transport(g: Fatgraph, lam: LambdaAssignment, e: int
                        ) -> tuple[Fatgraph, LambdaAssignment, WhiteheadMove]:
    """Flip an edge and exchange its weight by the Ptolemy rule."""
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
    a, b, c, d = quad_slots(g, step)
    return (lam[b] * lam[d]) / (lam[a] * lam[c])


def h_length(g: Fatgraph, lam: LambdaAssignment, sector: Sector) -> float:
    """Horocyclic length across a sector: opposite over product of adjacent."""
    x, y = sector.first, sector.second
    if g.vertex_of(x) != g.vertex_of(y) or g.sigma(x) != y:
        raise DomainError("sector must be two consecutive half-edges")
    if g.valence(g.vertex_of(x)) != 3:
        raise DomainError("h-length needs a trivalent vertex")
    opp = g.sigma(y)
    return lam[g.edge_of(opp)] / (lam[g.edge_of(x)] * lam[g.edge_of(y)])


def simplicial_coords(g: Fatgraph, lam: LambdaAssignment) -> SimplicialCoords:
    """Per-edge coordinates: the term of the first half's end plus the second's."""
    _require_trivalent(g)
    w = lam.values
    vals = []
    for e, (h, _) in enumerate(g.edge_halves):
        x = w[e]
        a, b, c, d = map(w.__getitem__, g._quad(h))
        vals.append((a * a + b * b - x * x) / (a * b * x) + (c * c + d * d - x * x) / (c * d * x))
    return SimplicialCoords(tuple(vals))


def triangle_inequalities_hold(g: Fatgraph, lam: LambdaAssignment
                               ) -> tuple[bool, int | None]:
    """Strict triangle inequalities for the three slot values at each vertex."""
    _require_trivalent(g)
    for v, cyc in enumerate(g.vertex_cycles):
        x, y, z = (lam[g.edge_of(h)] for h in cyc)
        if x >= y + z or y >= z + x or z >= x + y:
            return False, v
    return True, None


def no_vanishing_cycle(g: Fatgraph, coords: SimplicialCoords,
                       tol: float = 0.0) -> bool:
    """Nonnegative coordinates and no cycle among the (near-)zero edges."""
    if not tol >= 0:        # NaN fails this too
        raise DomainError("tolerance must be nonnegative")
    if min(coords.values) < -tol:
        return False
    zero = [e for e in range(g.n_edges) if abs(coords[e]) <= tol]
    # forest test by union-find; loops and parallel edges close cycles
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in zero:
        a, b = (g.vertex_of(h) for h in g.halves(e))
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


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

def _end_tables(g: Fatgraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge ids (e, a, b) per edge end in ``g.halves`` order: the end's own edge
    and the next two slots counter-clockwise at its vertex, so quad slots (a, b)
    of the first half, then (c, d)."""
    quads = [g._quad(h) for h, _ in g.edge_halves]
    return (np.arange(2 * g.n_edges) // 2,
            np.array([quad[i] for quad in quads for i in (0, 2)]),
            np.array([quad[i] for quad in quads for i in (1, 3)]))


def _coords_and_jacobian(ends: tuple[np.ndarray, np.ndarray, np.ndarray],
                         lam_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplicial coordinates and their Jacobian in log-lambda variables.

    Each end adds its term to its edge's coordinate and three cells (e, a),
    (e, b), (e, e) to its edge's row; ``bincount`` sums them in end order, so
    every entry is summed in the same order for any graph.
    """
    e, a, b = ends
    n = len(lam_vals)
    le, la, lb = lam_vals[e], lam_vals[a], lam_vals[b]
    t1 = la / (lb * le)
    t2 = lb / (la * le)
    t3 = le / (la * lb)
    coords = np.bincount(e, t1 + t2 - t3, minlength=n)
    row = e * n
    cells = np.column_stack((row + a, row + b, row + e)).ravel()
    terms = np.column_stack((t1 - t2 + t3, -t1 + t2 + t3, -t1 - t2 - t3)).ravel()
    return coords, np.bincount(cells, terms, minlength=n * n).reshape(n, n)


def invert_coords(g: Fatgraph, target: SimplicialCoords, tol: float = 1e-10,
                  initial: LambdaAssignment | None = None) -> LambdaAssignment:
    """Positive weights whose simplicial coordinates match the target.

    Damped Newton iteration on log weights with the analytic Jacobian;
    positivity is automatic in the log parametrization.  The Jacobian is
    minus the Hessian of the sector h-length sum, so it is symmetric
    negative definite and ``solve`` falls back to least squares only where
    rounding makes it singular.  The target must be nonnegative with no
    vanishing cycle; ``initial`` weights, if given, need one per edge.
    """
    _require_trivalent(g)
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if len(target) != g.n_edges:
        raise DomainError("one target coordinate per edge required")
    if min(target.values) < 0:
        raise DomainError("infeasible target: negative coordinate")
    if not no_vanishing_cycle(g, target, 0.0):
        raise DomainError("infeasible target: vanishing cycle")
    if initial is not None and len(initial) != g.n_edges:
        raise DomainError("one initial weight per edge required")
    x = np.asarray(target.values, dtype=float)
    ends = _end_tables(g)
    if initial is None:
        u = np.zeros(g.n_edges)
    else:
        u = np.log(np.asarray(initial.values, dtype=float))
    coords, jac = _coords_and_jacobian(ends, np.exp(u))
    resid = coords - x
    err = np.max(np.abs(resid))
    for _ in range(200):
        if err <= tol:
            return LambdaAssignment(tuple(float(v) for v in np.exp(u)))
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        scale = 1.0
        for _ in range(60):
            u_try = u - scale * step
            coords_try, jac_try = _coords_and_jacobian(ends, np.exp(u_try))
            err_try = np.max(np.abs(coords_try - x))
            if err_try < err:
                u, coords, jac, resid = u_try, coords_try, jac_try, coords_try - x
                err = err_try
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"inversion stalled at residual {err:.3e} (tol {tol:.1e})")
    if err <= tol:
        return LambdaAssignment(tuple(float(v) for v in np.exp(u)))
    raise NonConvergenceError(
        f"inversion did not reach tolerance {tol:.1e} in 200 iterations "
        f"(residual {err:.3e})")


# ---------------------------------------------------------------------------
# Telescoping sums along a path
# ---------------------------------------------------------------------------

def telescoping_sides(g: Fatgraph, lam: LambdaAssignment, path: EdgePath
                      ) -> tuple[float, float]:
    """(sum of coordinates over traversed edges, twice the sum of sector h-lengths).

    The two values agree for every efficient closed path; each vertex visit
    contributes the same quantity to both sides.
    """
    _require_trivalent(g)
    check_closed_path(g, path)
    if not is_efficient(g, path):
        raise DomainError("telescoping sums need an efficient path")
    coords = simplicial_coords(g, lam)
    sum_x = sum(coords[g.edge_of(s)] for s in path.steps)
    sum_h = 0.0
    steps = path.steps
    for step, depart in zip(steps, steps[1:] + steps[:1]):
        third = _off_path_edge(g, step, depart)
        sum_h += lam[third] / (lam[g.edge_of(step)] * lam[g.edge_of(depart)])
    return sum_x, 2.0 * sum_h


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
    side_lengths: tuple[float, ...]
    circumradius: float
    central_angles: tuple[float, ...]


def cyclic_polygon(lengths: Sequence[float]) -> CyclicPolygon:
    """Inscribe a polygon with the given side lengths in a circle.

    Bisection on the central-angle equation.  When the longest side must
    subtend a reflex-centered chord its angle switches branch to
    ``2*pi - 2*asin(l/2R)``; ties at the branch point resolve to the
    non-reflex branch.
    """
    ls = [float(v) for v in lengths]
    if len(ls) < 3 or min(ls) <= 0:
        raise DomainError("need at least three positive lengths")
    total = sum(ls)
    if max(ls) >= total - max(ls):
        raise DomainError("generalized strict triangle inequality fails")
    imax = ls.index(max(ls))
    lmax = ls[imax]
    rmin = lmax / 2.0

    def others(r: float) -> float:
        return sum(2.0 * math.asin(min(1.0, l / (2.0 * r)))
                   for i, l in enumerate(ls) if i != imax)

    reflex = others(rmin) < math.pi

    def gap(r: float) -> float:
        # angle sum minus 2*pi on the active branch
        big = 2.0 * math.asin(min(1.0, lmax / (2.0 * r)))
        if reflex:
            big = 2.0 * math.pi - big
        return others(r) + big - 2.0 * math.pi

    # On the non-reflex branch the gap decreases in R from gap(rmin) >= 0;
    # on the reflex branch it increases from gap(rmin) < 0 towards 0+.
    sign = -1.0 if reflex else 1.0
    lo = rmin
    f_lo = sign * gap(lo)
    if abs(f_lo) <= 1e-15:
        radius = lo
    else:
        if f_lo < 0.0:
            raise DomainError("no inscribing circle brackets these lengths")
        hi = rmin * 2.0
        for _ in range(200):
            if sign * gap(hi) < 0.0:
                break
            hi *= 2.0
        else:
            raise NonConvergenceError("no upper bracket for circumradius")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sign * gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * hi:
                break
        else:
            raise NonConvergenceError("circumradius bisection did not converge")
        radius = 0.5 * (lo + hi)
    angles = []
    for i, l in enumerate(ls):
        ang = 2.0 * math.asin(min(1.0, l / (2.0 * radius)))
        if reflex and i == imax:
            ang = 2.0 * math.pi - ang
        angles.append(ang)
    return CyclicPolygon(tuple(ls), radius, tuple(angles))


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
    if any(g.valence(v) < 3 for v in range(g.n_vertices)):
        raise DomainError("refinement needs all valences >= 3")
    for v, cyc in enumerate(g.vertex_cycles):
        vals = [lam[g.edge_of(h)] for h in cyc]
        if max(vals) >= sum(vals) - max(vals):
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
        # corner j sits between sides j-1 and j; cumulative angle from corner 0
        cum = [0.0]
        for ang in poly.central_angles[:-1]:
            cum.append(cum[-1] + ang)

        def diag(j: int) -> float:
            return 2.0 * poly.circumradius * math.sin(0.5 * cum[j])

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
            values.append(diag(j))
            diag_ids[j] = (eid, ha, hb)
            new_ids.append(eid)
        first = diag_ids[2]
        cycles.append((cyc[0], cyc[1], first[1]))
        for j in range(2, k - 2):
            cycles.append((diag_ids[j][2], cyc[j], diag_ids[j + 1][1]))
        cycles.append((diag_ids[k - 2][2], cyc[k - 2], cyc[k - 1]))
    refined = Fatgraph(tuple(cycles), tuple(halves), tuple(labels))
    return Refinement(refined, LambdaAssignment(tuple(values)), tuple(new_ids))
