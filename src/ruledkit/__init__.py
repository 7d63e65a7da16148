"""Numerical toolkit for parametrized ruled submanifolds of Euclidean space.

Core objects: vector fields with exact derivatives (`fields`), framed
curves and builtin patch families (`parametric`), the degree of the
ruling distribution (`distribution`), patch geometry and developability
tests (`ruledgeom`), the striction sheet and singular locus
(`striction`), and region classification (`classify`). Scenes come in as
JSON (`scene`), results go out through `analysis` and the `ruledkit` CLI.
"""

#: the package version; it must match `version` in pyproject.toml
__version__ = "0.1.0"

from .classify import (ClassificationReport, ConverseResult, Region,
                       RegionEvidence, classify_patch, converse_check)
from .distribution import (DegreeProfile, RhoSample, constant_degree_segments,
                           degree_profile, pivot_frame, rho_at)
from .errors import (ConfigError, DegeneracyError, DomainError, FrameError,
                     NumericError, PivotError, RegularityError, RuledKitError,
                     ValidationError)
from .fields import (AffineCombinationField, ComposedField, ConstantField,
                     DerivativeField, EmbeddedField, FourierField, HelixCurve,
                     ParameterMap, PolynomialField, VectorField,
                     arclength_reparametrize, make_builtin_curve)
from .multilinear import (TolerancePolicy, gram_matrix, numerical_rank,
                          project_orthogonal, wedge_norm)
from .parametric import (BUILTIN_PATCHES, FramedCurve, SampleGrid,
                         builtin_families, circular_cone, cylinder_over,
                         gram_schmidt_frame, helicoid_frame,
                         make_builtin_patch, parallel_transport_frame,
                         product_with_constant_directions,
                         tangent_developable)
from .ruledgeom import (FlatnessResult, PointwiseSecondForm, RankOneResult,
                        RuledPatch, eval_sigma, first_normal_bounds_check,
                        flatness_check, jacobian_sigma, planar_points,
                        rank_one_check, second_form_along_directrix,
                        sectional_curvature, tangent_space_stability)
from .scene import IngestResult, ingest, load_scene
from .striction import (SingularLocus, StrictionSheet, StrictionSystem,
                        assemble_system, directrix_invariance,
                        equivalent_condition_check, singular_locus,
                        solve_striction, striction_jacobian_rank,
                        write_striction_csv)
from .analysis import analyze

__all__ = [
    "AffineCombinationField", "BUILTIN_PATCHES", "ClassificationReport",
    "ComposedField", "ConfigError", "ConstantField", "ConverseResult",
    "DegeneracyError", "DegreeProfile", "DerivativeField", "DomainError",
    "EmbeddedField", "FlatnessResult", "FourierField", "FrameError",
    "FramedCurve", "HelixCurve", "IngestResult", "NumericError",
    "ParameterMap", "PivotError", "PointwiseSecondForm", "PolynomialField",
    "RankOneResult", "Region", "RegionEvidence", "RegularityError",
    "RhoSample", "RuledKitError", "RuledPatch", "SampleGrid", "SingularLocus",
    "StrictionSheet", "StrictionSystem", "TolerancePolicy", "ValidationError",
    "VectorField", "analyze", "arclength_reparametrize", "assemble_system",
    "builtin_families", "circular_cone", "classify_patch",
    "constant_degree_segments", "converse_check", "cylinder_over",
    "degree_profile", "directrix_invariance", "equivalent_condition_check",
    "eval_sigma", "first_normal_bounds_check", "flatness_check",
    "gram_matrix", "gram_schmidt_frame", "helicoid_frame", "ingest",
    "jacobian_sigma", "load_scene", "make_builtin_curve", "make_builtin_patch",
    "numerical_rank", "parallel_transport_frame", "pivot_frame",
    "planar_points", "product_with_constant_directions", "project_orthogonal",
    "rank_one_check", "rho_at", "second_form_along_directrix",
    "sectional_curvature", "singular_locus", "solve_striction",
    "striction_jacobian_rank", "tangent_developable",
    "tangent_space_stability", "wedge_norm", "write_striction_csv",
]
