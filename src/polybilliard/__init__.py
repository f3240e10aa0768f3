"""Billiards inside convex polyhedra: dynamics, coding, and complexity tools."""

from .geometry import (DegenerateFace, LabelNotReachable, NonConvex, OpenSurface,
                       Polyhedron, PreconditionFailed, Tolerances, box,
                       dump_polyhedron, load_polyhedron, reflect_direction,
                       regular_tetrahedron, unit_cube, validate)
from .billiard import (OrbitRecord, PhasePoint, SingularInput, SingularityEvent,
                       SingularityKind, billiard_step, classify_phase_point,
                       orbit, phase_point, random_phase_points, run_word_batch)
from .unfolding import (GroupClosure, UnfoldingTrack, cumulative_isometries,
                        generate_group, unfold_orbit)
from .transversal import (ON_SURFACE, CoplanarConstraint, EdgeLine,
                          IdenticalLines, NotPairwiseSkew, RationalConstraint,
                          TransversalConstraint, TripleSurface,
                          count_line_surface_intersections, eval_constraint,
                          independence_check, pair_constraint,
                          sample_transversals, triple_surface)
from .symbolic import (Beam, CellClass, ComplexityTable, classify_cell,
                       detect_periodicity, estimate_complexity, make_beam,
                       propagate_beam)

__version__ = "0.1.0"
