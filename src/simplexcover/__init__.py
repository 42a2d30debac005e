"""Maximum-volume simplices and sharp simplex covering factors.

For a finite set X in R^d with a maximum-volume inscribed simplex T
(centroid c), the point-reflected copy c - d (T - c) translates to cover
X with factor at most d, and the centered dilation c + (d+2)(T - c)
covers X outright.  Both factors are computed exactly or in floating
point, certified by LP duality, and the planar five-point family shows
factor 2 cannot always be achieved by any triangle on the points.
"""

from .counterexample import (
    CounterexampleConfig,
    CounterexampleReport,
    analytic_case_bounds,
    build_points,
    case6_geometry,
    enumerate_triangles,
    min_dilation_all,
    sweep,
    verify_counterexample,
)
from .covering import (
    CoverReport,
    DilationResult,
    DilationSign,
    SandwichReport,
    john_positive_cover,
    min_dilation,
    min_dilations,
)
from .errors import (
    DegeneratePointSetError,
    DegenerateSimplexError,
    DimensionMismatchError,
    EnumerationCapError,
    InputFormatError,
    LPInternalError,
    NumericalBreakdownError,
    SimplexCoverError,
    SingularMatrixError,
    TheoremViolationError,
)
from .geometry import (
    PointSet,
    Simplex,
    centroid,
    dilate_about_center,
    make_simplex,
    simplex_volume,
)
from .mvs import (
    DEFAULT_ENUM_CAP,
    LocalMaximalityReport,
    MvsResult,
    mvs_exact,
    mvs_local_search,
    verify_local_maximality,
)
from .render import SimplexStyle, render_scene_2d
from .sampling import sample_body
from .scalars import DEFAULT_FLOAT_TOL, Scalar, ScalarMode
from .serialization import (
    parse_points_csv,
    parse_points_file,
    parse_points_json,
)

__version__ = "0.1.0"

__all__ = [
    "CounterexampleConfig",
    "CounterexampleReport",
    "CoverReport",
    "DEFAULT_ENUM_CAP",
    "DEFAULT_FLOAT_TOL",
    "DegeneratePointSetError",
    "DegenerateSimplexError",
    "DilationResult",
    "DilationSign",
    "DimensionMismatchError",
    "EnumerationCapError",
    "InputFormatError",
    "LPInternalError",
    "LocalMaximalityReport",
    "MvsResult",
    "NumericalBreakdownError",
    "PointSet",
    "SandwichReport",
    "Scalar",
    "ScalarMode",
    "Simplex",
    "SimplexCoverError",
    "SimplexStyle",
    "SingularMatrixError",
    "TheoremViolationError",
    "analytic_case_bounds",
    "build_points",
    "case6_geometry",
    "centroid",
    "dilate_about_center",
    "enumerate_triangles",
    "john_positive_cover",
    "make_simplex",
    "min_dilation",
    "min_dilation_all",
    "min_dilations",
    "mvs_exact",
    "mvs_local_search",
    "parse_points_csv",
    "parse_points_file",
    "parse_points_json",
    "render_scene_2d",
    "sample_body",
    "simplex_volume",
    "sweep",
    "verify_counterexample",
    "verify_local_maximality",
]
