"""Rigidity of closed triangulated surfaces via rational length algebra.

The package decides rigidity of oriented closed polyhedral surfaces from
the rational (in)dependence of their edge lengths, predicts which dihedral
angles and which integer angle combinations stay constant under any flex,
and verifies those predictions numerically by tracing flexes of flexible
models (line-symmetric Bricard octahedra) while monitoring every conserved
quantity.

Importing the package loads none of its modules: each name below, and each
of the modules that define them, is imported on first access (PEP 562), so
a process pays only for the modules it uses.
"""

import sys

# Each re-exported name and the module that defines it.
_HOME = {
    name: module
    for module, names in {
        "surfaces": ("Polyhedron", "SimplicialSurface", "validate_complex"),
        "geometry": (
            "DegenerateFaceError",
            "all_dihedrals",
            "check_nondegenerate",
            "edge_length_vector",
            "monte_carlo_dihedral",
            "oriented_volume",
            "principal_dihedral",
            "weighted_angle_sum",
        ),
        "lengths": (
            "DEPENDENT",
            "INDEPENDENT_EXACT",
            "ExactLength",
            "find_integer_relation",
            "is_q_independent",
            "normalize_sqrt",
            "q_basis",
        ),
        "flex": (
            "CorrectorDivergenceError",
            "DegenerateConfigurationError",
            "FaceDegenerationError",
            "FlexPath",
            "LiftAmbiguityError",
            "SingularPointError",
            "infinitesimal_flex_dim",
            "is_trivial_flex",
            "lift_angles",
            "polyhedron_from_config",
            "rigidity_matrix",
            "trace_flex",
            "trivial_motion_basis",
        ),
        "invariants": (
            "INCONCLUSIVE",
            "RIGID",
            "RIGID_PRESUMED",
            "InvariantCombination",
            "constant_angle_edges",
            "initial_principal_angles",
            "invariant_combinations",
            "monitor_flex",
            "rigidity_certificate",
        ),
        "models": (
            "BRICARD_FACES",
            "BUILTIN_MODELS",
            "DEFAULT_BRICARD_SPEC",
            "BricardSpec",
            "DegenerateSpecError",
            "NonTriangularFaceError",
            "OCTAHEDRON_FACES",
            "ParseError",
            "half_turn_edge_pairs",
            "load_off",
            "make_bricard_type1",
            "make_distinct_length_octahedron",
            "make_model",
            "make_regular_octahedron",
            "make_regular_tetrahedron",
            "make_triangulated_cube",
            "save_off",
            "save_report_json",
            "save_series_csv",
        ),
    }.items()
    for name in names
}
_MODULES = frozenset(_HOME.values())

__all__ = list(_HOME)
__version__ = "0.1.0"


def _module(name):
    # The import statement's own machinery, which -X importtime reports;
    # importlib.import_module's is not.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _MODULES:
        return _module(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_module(_HOME[name]), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_MODULES})
