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

from .classify import classify_patch
from .distribution import pivot_frame, rho_at
from .errors import (ConfigError, DegeneracyError, DomainError, FrameError,
                     NumericError, PivotError, RegularityError, RuledKitError,
                     ValidationError)
from .fields import HelixCurve, VectorField
from .multilinear import TolerancePolicy
from .parametric import SampleGrid, make_builtin_patch
from .ruledgeom import RuledPatch
from .scene import ingest
from .striction import offsheet_certificate, singular_locus, solve_striction
from .analysis import analyze

#: the names README lists under "Public names"; every other name is
#: imported from its submodule
__all__ = [
    "ConfigError", "DegeneracyError", "DomainError", "FrameError", "HelixCurve",
    "NumericError", "PivotError", "RegularityError", "RuledKitError", "RuledPatch",
    "SampleGrid", "TolerancePolicy", "ValidationError", "VectorField", "analyze",
    "classify_patch", "ingest", "make_builtin_patch", "offsheet_certificate",
    "pivot_frame", "rho_at", "singular_locus", "solve_striction",
]
