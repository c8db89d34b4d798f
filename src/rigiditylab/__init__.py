"""Rigidity of closed triangulated surfaces via rational length algebra.

The package decides rigidity of oriented closed polyhedral surfaces from
the rational (in)dependence of their edge lengths, predicts which dihedral
angles and which integer angle combinations stay constant under any flex,
and verifies those predictions numerically by tracing flexes of flexible
models (line-symmetric Bricard octahedra) while monitoring every conserved
quantity.
"""

from .surfaces import SimplicialSurface, validate_complex
from .geometry import (
    DegenerateFaceError,
    Polyhedron,
    all_dihedrals,
    check_nondegenerate,
    edge_length_vector,
    monte_carlo_dihedral,
    oriented_volume,
    principal_dihedral,
    weighted_angle_sum,
)
from .lengths import (
    DEPENDENT,
    INDEPENDENT_EXACT,
    ExactLength,
    find_integer_relation,
    is_q_independent,
    normalize_sqrt,
    q_basis,
)
from .flex import (
    CorrectorDivergenceError,
    DegenerateConfigurationError,
    FaceDegenerationError,
    FlexPath,
    LiftAmbiguityError,
    SingularPointError,
    infinitesimal_flex_dim,
    is_trivial_flex,
    lift_angles,
    polyhedron_from_config,
    rigidity_matrix,
    trace_flex,
    trivial_motion_basis,
)
from .invariants import (
    INCONCLUSIVE,
    RIGID,
    RIGID_PRESUMED,
    InvariantCombination,
    constant_angle_edges,
    initial_principal_angles,
    invariant_combinations,
    monitor_flex,
    rigidity_certificate,
)
from .models import (
    BRICARD_FACES,
    BUILTIN_MODELS,
    DEFAULT_BRICARD_SPEC,
    BricardSpec,
    DegenerateSpecError,
    NonTriangularFaceError,
    OCTAHEDRON_FACES,
    ParseError,
    half_turn_edge_pairs,
    load_off,
    make_bricard_type1,
    make_distinct_length_octahedron,
    make_model,
    make_regular_octahedron,
    make_regular_tetrahedron,
    make_triangulated_cube,
    save_off,
    save_report_json,
    save_series_csv,
)

__version__ = "0.1.0"
