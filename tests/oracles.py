"""Reference code that only the tests call: quad slots read off the rotation, cross ratios,
h-lengths, Minkowski lifts and tetrahedron volumes, the weight criterion and its multicurves,
and the leading term of a trace gap.  Each takes only inputs the tests build, so none of them
refuses anything."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fatscreens import asymptotics as asy
from fatscreens import fatgraph as fgr
from fatscreens import holonomy as hol
from fatscreens import screens as scn


# -- slots, cross ratios and h-lengths -------------------------------------------------

def quad_slots(g, h):
    """Edges (a, b, c, d) at sigma(h), sigma^2(h), sigma(h'), sigma^2(h'), h' = iota(h)."""
    h2 = g.pairing(h)
    return tuple(g.edge_of(s) for s in (g.sigma(h), g.sigma(g.sigma(h)),
                                        g.sigma(h2), g.sigma(g.sigma(h2))))


def cross_ratio(g, lam, h):
    """Magnitude bd/(ac) of the cross ratio across step h's edge, the same both ways."""
    a, b, c, d = quad_slots(g, h)
    return (lam[b] * lam[d]) / (lam[a] * lam[c])


def h_length(g, lam, h):
    """Horocyclic length across the sector from half-edge ``h`` to ``sigma(h)``: opposite
    over product of adjacent."""
    y = g.sigma(h)
    return lam[g.edge_of(g.sigma(y))] / (lam[g.edge_of(h)] * lam[g.edge_of(y)])


# -- Minkowski lifts ---------------------------------------------------------------------

def pair(u, v):
    """Minkowski pairing x x' + y y' - z z' of two triples."""
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


def minkowski_lift(triple):
    """Isotropic vectors u1, u2, u3 with pairings -l12^2, -l13^2, -l23^2, for the input
    (l12, l13, l23): u1 at azimuth 0 with unit height, u2 in the x-z half-plane opposite
    u1, and u3 above the x-z plane."""
    l12, l13, l23 = (float(v) for v in triple)
    r2 = l12 * l12 / 2.0
    tan_half = math.sqrt(r2 * l13 * l13 / (l23 * l23))
    t = 2.0 * math.atan(tan_half)
    sin_half_sq = tan_half * tan_half / (1.0 + tan_half * tan_half)
    r3 = l13 * l13 / (2.0 * sin_half_sq)
    return (np.array([1.0, 0.0, 1.0]), np.array([-r2, 0.0, r2]),
            np.array([r3 * math.cos(t), r3 * math.sin(t), r3]))


def is_elliptic_section(triple):
    """Whether the affine plane through the lifted triple cuts an ellipse: the Minkowski
    square of its normal is negative, which the strict triangle inequalities decide."""
    u1, u2, u3 = minkowski_lift(triple)
    n = np.cross(u2 - u1, u3 - u1)
    return pair(n, n) < 0.0


@dataclass(frozen=True)
class QuadLambdas:
    """Six weights of a quadrilateral: sides in cyclic order, two diagonals.  ``diag_13``
    spans corners 1-3 (between sides s12/s23 and s34/s41), ``diag_24`` the other pair;
    Ptolemy holds: d13 * d24 = s12 * s34 + s23 * s41."""

    s12: float
    s23: float
    s34: float
    s41: float
    diag_13: float
    diag_24: float

    def swapped_diagonals(self) -> QuadLambdas:
        """Corners relabelled cyclically, so that the other diagonal takes the e-role."""
        return QuadLambdas(self.s23, self.s34, self.s41, self.s12, self.diag_24, self.diag_13)


def tetra_volume_sign(q):
    """Signed volume of the lifted tetrahedron, ``2 sqrt(2) s12 s23 s34 s41 X`` with X the
    two-term simplicial expression of the 1-3 diagonal: positive exactly when the 1-3 edge
    of the tetrahedron passes below the 2-4 edge.  u4 solves three linear pairing equations."""
    u1, u2, u3 = minkowski_lift((q.s12, q.diag_13, q.s23))
    mat = np.array([[u[0], u[1], -u[2]] for u in (u1, u2, u3)])
    u4 = np.linalg.solve(mat, [-q.s41 ** 2, -q.diag_24 ** 2, -q.s34 ** 2])
    return -2.0 * float(np.linalg.det(np.array([u2 - u1, u3 - u1, u4 - u1])))


# -- the weight criterion and its multicurves --------------------------------------------

def is_efficient(g, path):
    return all(b != g.pairing(a) for a, b in zip(path.steps, path.steps[1:] + path.steps[:1]))


def weights_admissible(g, mu):
    """Even sums and weak triangle inequalities at every vertex, for ``mu`` mapping edge ids
    to nonnegative ints; a loop counts twice at its vertex, through its two slots."""
    for cyc in g.vertex_cycles:
        slot = [mu.get(g.edge_of(h), 0) for h in cyc]
        if sum(slot) % 2 or any(2 * x > sum(slot) for x in slot):
            return False
    return True


def weights_to_multicurve(g, mu):
    """Closed efficient paths whose per-edge traversal counts realize admissible ``mu``.
    Slot (h, j) is strand j of half-edge h.  At each vertex, the last free slot of a side
    with the most free slots joins the first free slot of the next nonempty side: adjacent
    among the free ones, so no arcs cross, and on different sides, so no path backtracks;
    each join keeps the free counts admissible.  Across an edge, slot (h, r) continues as
    (iota(h), mu_e - 1 - r)."""
    vals = [mu.get(e, 0) for e in range(g.n_edges)]
    joined = {}
    for cyc in g.vertex_cycles:
        # [h, lo, hi]: the free slots (h, lo) .. (h, hi - 1), sides counter-clockwise
        free = [[h, 0, vals[g.edge_of(h)]] for h in cyc if vals[g.edge_of(h)]]
        while free:
            i = max(range(len(free)), key=lambda k: free[k][2] - free[k][1])
            x, y = free[i], free[(i + 1) % len(free)]
            x[2] -= 1
            joined[x[0], x[2]], joined[y[0], y[1]] = (y[0], y[1]), (x[0], x[2])
            y[1] += 1
            free = [side for side in free if side[1] < side[2]]
    seen, curves = set(), []
    for start in sorted(joined):
        if start in seen:
            continue
        steps, (h, j) = [], start
        while (h, j) not in seen:
            # depart through slot (h, j), arrive in the paired slot, follow its join
            steps.append(h)
            arrival = (g.pairing(h), vals[g.edge_of(h)] - 1 - j)
            seen.update(((h, j), arrival))
            h, j = joined[arrival]
        curves.append(fgr.EdgePath(tuple(steps)))
    return curves


# -- monomial families -------------------------------------------------------------------

def monomial_family(exponents):
    return scn.MonomialFamily(tuple(Fraction(p) for p in exponents))


def gap_leading(g, fam, path):
    """Leading term of |trace| - 2 along the family, from the top digits of the exact trace."""
    unit, q = asy._tau_exponents(fam)
    return asy._leading(hol._exact_gap_top(g, q, path), unit)
