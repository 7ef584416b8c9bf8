"""Thurston norm unit balls of closed triangulated 3-manifolds via
transversely oriented normal surfaces, in exact rational arithmetic."""

from .coords import (NormalVector, build_matching_system, forget_orientation,
                     is_admissible, is_compatible, reverse_orientation,
                     vertex_linking_vector)
from .chi import chi_star
from .homology import betti_numbers, homology_map_matrix
from .linalg import (ConeDescription, Ray, enumerate_extreme_rays,
                     remove_redundant_points, solve_lp)
from .normball import NormBall, Pipeline, ProjectiveVertex, evaluate_norm
from .surfaces import (NormalSurface, add_compatible,
                       assign_transverse_orientation, reconstruct_surface)
from .triangulation import (Triangulation, InvalidTriangulation,
                            TriangulationError, compute_skeleton,
                            parse_triangulation, triangulation_from_json,
                            validate_and_orient)

__version__ = "0.1.0"
