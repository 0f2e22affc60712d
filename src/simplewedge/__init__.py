"""Exact-arithmetic analysis of planar point configurations: simple
(ordinary) lines, simple wedges, orbit decompositions above simple lines,
reference constructions, and a conjecture-search harness."""

from .geometry import (
    LineKey,
    Point,
    Rational,
    collinear,
    format_rational,
    intersect,
    line_through,
    on_line,
    parse_rational,
)
from .incidence import (
    Configuration,
    ConfigurationError,
    IncidenceStructure,
    InternalInvariantError,
    NotThreeBoundedError,
    SimpleLine,
    build_configuration,
    is_ell_bounded,
    simple_lines,
    spanned_lines,
    third_point,
)
from .orbits import (
    BaseLine,
    Orbit,
    OrbitAnomalyError,
    OrbitDecomposition,
    OrbitKind,
    base_line,
    decompose,
    maximal_orbit,
    orbit_length,
    orbit_trace,
    orbits_disjoint,
    verify_orbit,
)
from .wedges import (
    CoverageEntry,
    CoverageReport,
    WedgeCertificate,
    brute_force_wedges,
    find_wedge_from_line,
    validate_certificate,
    wedge_coverage,
    wedge_from_open_orbit,
)
from .constructions import (
    ConstructionError,
    closed_orbit_config,
    g_extended,
    nine_point,
    six_point,
)
from .pointio import PointParseError, parse_points, write_points
from .report import (
    AnalysisReport,
    analyze,
    render_text,
    report_from_json,
    report_to_json,
)
from .search import (
    ConjectureTrialResult,
    SearchStats,
    SplitMix64,
    conjecture_search,
    exhaustive_subset_count,
    sample_configuration,
    search_with_stats,
    trial_rng,
    write_counterexample,
)
from .svgout import render_svg

__version__ = "0.1.0"
