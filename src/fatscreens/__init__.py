"""Fatgraph combinatorics, screens, lambda-length geometry and holonomy."""

from .errors import DomainError, FormatError, NonConvergenceError
from .fatgraph import (CurveSystem, EdgePath, Fatgraph, SubFatgraph,
                       boundary_cycles, build, canonical_path, collapse_edge,
                       curve_system, is_boundary_parallel, is_isomorphic,
                       is_recurrent, maximal_recurrent_subset, parse_fatgraph,
                       recurrent_subsets, recurrent_witness_cycles,
                       reduce_path, subgraph,
                       subset_boundary, topology, transport_path,
                       weights_admissible, weights_to_multicurve,
                       whitehead_move)
from .geometry import (CyclicPolygon, LambdaAssignment, MinkowskiVector,
                       QuadLambdas, Sector, SimplicialCoords, cross_ratio,
                       cyclic_polygon, h_length, in_cell, invert_coords,
                       is_elliptic_section, lambda_assignment, minkowski_lift,
                       no_vanishing_cycle, refine_to_trivalent, simplicial,
                       simplicial_coords, telescoping_sides,
                       tetra_volume_sign, triangle_inequalities_hold,
                       whitehead_transport)
# the path-ordered product itself stays at fatscreens.holonomy.holonomy so
# the submodule attribute is not shadowed by the function
from .holonomy import (Mat2, abs_trace_of_path, edge_matrix, hyp_length,
                       hyp_length_from_gap, one_left_turn_data,
                       one_left_turn_trace, path_turns, trace_gap_of_path,
                       turn_direction, turn_matrices)
from .screens import (MonomialFamily, Screen, depth_family, depth_of_edge,
                      depth_of_member, enumerate_screens,
                      immediate_predecessor, monomial_family,
                      relative_boundary, screen, screen_boundary,
                      screen_of_exponents, validate_screen)
from .asymptotics import (IJReport, SweepReport, SweepSchedule,
                          detect_short_curves, evaluate_family, ij_check,
                          sweep)

__version__ = "0.1.0"
