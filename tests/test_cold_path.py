"""The work each CLI call does is cut to what its answer needs; these tests
require that every result equals that of the code it replaced, kept in
``oracles`` (one Monte-Carlo draw per edge), or, for the trial-division
square split, what sympy's factorization gives.  A CLI process imports only
the modules its subcommand runs (``validate`` no numpy), and the package's
names resolve on first access to the objects its modules define.  A
polyhedron's array, built on first read from its float() rows, equals
numpy's conversion of its points."""

import ast
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import rigiditylab
from rigiditylab import SimplicialSurface, cli, geometry, lengths, models
from rigiditylab.geometry import monte_carlo_dihedral, monte_carlo_dihedrals, principal_angles
from perfbench import inputs

from oracles import per_edge_monte_carlo_dihedral


def _prime_near(n: int, up: bool) -> int:
    step = 1 if up else -1
    while not sympy.isprime(n):
        n += step
    return n


PRIMES_NEAR_POWERS = st.builds(
    _prime_near, st.integers(1, 40).map(lambda k: 2**k), st.booleans()
).filter(lambda p: p > 1)
PRIMES_NEAR_1E6 = st.builds(_prime_near, st.integers(10**6 - 2000, 10**6 + 2000), st.booleans())
SQUARE_SPLIT_INPUTS = st.one_of(
    PRIMES_NEAR_POWERS,
    st.builds(lambda p, m: p * m, PRIMES_NEAR_POWERS, st.integers(1, 50)),
    st.builds(lambda p, q: p * q, PRIMES_NEAR_POWERS, PRIMES_NEAR_POWERS),
    st.builds(lambda p: p * p, PRIMES_NEAR_POWERS),
    st.builds(lambda p, q: p * q, PRIMES_NEAR_1E6, PRIMES_NEAR_1E6),
    st.builds(lambda p, q, m: p * q * m, PRIMES_NEAR_1E6, PRIMES_NEAR_1E6, st.integers(1, 30)),
    st.builds(lambda p, m: p * p * m, PRIMES_NEAR_1E6, st.integers(1, 30)),
    st.integers(-5, 2**20),
    st.integers(2**63 - 10**4, 2**63 + 10**4),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(SQUARE_SPLIT_INPUTS)
def test_square_split_matches_sympy_factorint(n):
    if n <= 0:
        with pytest.raises(ValueError):
            lengths._square_split(n)
        return
    s, d = lengths._square_split(n)
    assert s > 0 and s * s * d == n
    factors = sympy.factorint(n)
    core = math.prod(p ** (e % 2) for p, e in factors.items())
    if n < 1009**3:
        # A cofactor free of the primes below 1000 has at most two prime
        # factors here, so one square test settles it.
        assert d == core
    else:
        # d may keep the squares of primes above 1000, and nothing else.
        assert d % core == 0
        assert all(p > 1000 and e % 2 == 0 for p, e in sympy.factorint(d // core).items())


# Two edges of this octahedron, (0, 1) and (1, 2), have their midpoints on
# another simplex.
TOUCHING_OCTAHEDRON_OFF = """OFF
6 8 0
-3.0 -6.0 2.6666666666666665
-1.0 -5.0 4.0
-3.0 -4.5 0.6666666666666666
-1.0 -3.5 0.3333333333333333
4.5 -4.0 10.0
2.0 -8.0 -3.5
3 0 1 2
3 0 2 4
3 0 3 1
3 0 4 3
3 1 3 5
3 1 5 2
3 2 5 4
3 3 4 5
"""


@pytest.fixture(scope="module")
def mc_models(tmp_path_factory):
    off = tmp_path_factory.mktemp("mc") / "seeded-octahedron.off"
    off.write_text(models.save_off(inputs.rational_octahedron(random.Random(7))))
    return {
        ("--model", "octahedron"): models.make_regular_octahedron(),
        ("--model", "cube"): models.make_triangulated_cube(),
        ("--input", str(off)): models.load_off(off.read_text()),
    }


# Two seeds, so two streams, each equal to the per-edge oracle's.
@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("n_samples", [1, 2, 2000, 2001])
def test_monte_carlo_matches_per_edge_draws(mc_models, capsys, seed, n_samples):
    for source, P in mc_models.items():
        edges = P.surface.edges
        expected = [per_edge_monte_carlo_dihedral(P, e, n_samples, seed) for e in edges]
        assert monte_carlo_dihedrals(P, edges, n_samples, seed) == expected
        assert [monte_carlo_dihedral(P, e, n_samples, seed) for e in edges] == expected
        code = cli.main(["oracle", *source, "--samples", str(n_samples),
                         "--seed", str(seed)])
        assert code == cli.EXIT_OK
        rows = json.loads(capsys.readouterr().out)["edges"]
        assert [row["monte_carlo"] for row in rows] == expected


B = geometry._MC_BLOCK


# Draws just below, at and above one block, and several blocks long, equal
# the per-edge oracle, which draws each whole.
@pytest.mark.parametrize("n_samples, seed", [
    (B - 1, 1), (B, 1), (B + 1, 1), (2 * B + 3, 1), (3 * B + 2, 3), (6 * B + 1, 3),
])
def test_monte_carlo_blocks_match_whole_draws(mc_models, n_samples, seed):
    for P in mc_models.values():
        edges = P.surface.edges
        expected = [per_edge_monte_carlo_dihedral(P, e, n_samples, seed) for e in edges]
        assert monte_carlo_dihedrals(P, edges, n_samples, seed) == expected


def test_monte_carlo_takes_every_frame_in_one_pass(spy, octahedron):
    """One frame pass serves every requested edge; a folded edge reads 0.0."""
    calls = spy("_edge_frames")
    monte_carlo_dihedrals(octahedron, octahedron.surface.edges, n_samples=1000)
    assert len(calls) == 1
    # Vertex 3 lies in the plane of face (0, 1, 2) on vertex 2's side of
    # edge (0, 1), so that edge's faces fold onto each other.
    S = SimplicialSurface([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    x = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.7, 0.5, 0.0]]
    folded = geometry.Polyhedron(S, dict(enumerate(x)))
    values = monte_carlo_dihedrals(folded, S.edges, n_samples=1000)
    assert len(calls) == 2
    assert values[S.edge_index((0, 1))] == 0.0
    assert principal_angles(S, folded.vertex_array())[1].tolist() == [
        v == 0.0 for v in values]
    # Only folded edges: 0.0 each, and no generator is made.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", None)
        assert monte_carlo_dihedrals(folded, [(0, 1)], n_samples=1000) == [0.0]


def test_monte_carlo_looks_up_every_edge_before_any_frame(octahedron):
    """An edge outside the surface raises before an earlier edge whose face
    is flat."""
    x = octahedron.vertex_array()
    x[2] = 0.5 * (x[0] + x[1])  # face (0, 1, 2) flat
    P = geometry.Polyhedron(octahedron.surface, dict(enumerate(x)))
    with pytest.raises(ValueError, match=r"^need at least one sample, got n_samples=0$"):
        monte_carlo_dihedrals(P, [(0, 5)], n_samples=0)  # the count is checked first
    with pytest.raises(geometry.DegenerateFaceError):
        monte_carlo_dihedrals(P, [(0, 1)], n_samples=10)
    with pytest.raises(ValueError, match=r"edge \(0, 5\) is not shared"):
        monte_carlo_dihedrals(P, [(0, 1), (0, 5)], n_samples=10)


def test_monte_carlo_memory_does_not_grow_with_samples(octahedron):
    tracemalloc.start()
    try:
        monte_carlo_dihedrals(octahedron, octahedron.surface.edges, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


# The regular octahedron with vertex 5 moved onto the midpoint of edge (0, 1).
MIDPOINT_VERTEX_OCTAHEDRON_OFF = """OFF
6 8 0
1 0 0
0 1 0
0 0 1
0 0 -1
0 -1 0
0.5 0.5 0
3 0 1 2
3 0 2 4
3 0 3 1
3 0 4 3
3 1 3 5
3 1 5 2
3 2 5 4
3 3 4 5
"""


def _oracle_disagreements(det, mc, n_samples):
    """Edges where the sampled angle lies beyond 6 sigma of the binomial
    share det / 2pi, as the benchmark's command-line check counts them."""
    bad = []
    for i, (d, m) in enumerate(zip(det, mc)):
        p = d / (2 * math.pi)
        sigma = 2 * math.pi * math.sqrt(max(p * (1 - p), 0.0) / n_samples)
        if abs(d - m) > 6 * sigma + 1e-9:
            bad.append(i)
    return bad


# A self-touching polyhedron is a valid input: the sampled wedge at an edge
# is a cone, so what else passes through the edge midpoint does not matter.
@pytest.mark.parametrize("off", [TOUCHING_OCTAHEDRON_OFF, MIDPOINT_VERTEX_OCTAHEDRON_OFF],
                         ids=["touching", "midpoint-vertex"])
def test_monte_carlo_self_touching_octahedron(off, tmp_path, capsys):
    P = models.load_off(off)
    edges, n = P.surface.edges, 20000
    expected = [per_edge_monte_carlo_dihedral(P, e, n, seed=0) for e in edges]
    assert monte_carlo_dihedrals(P, edges, n, 0) == expected
    det, _ = principal_angles(P.surface, P.vertex_array())
    assert _oracle_disagreements(det, expected, n) == []
    path = tmp_path / "touching.off"
    path.write_text(off)
    code = cli.main(["oracle", "--input", str(path), "--samples", str(n)])
    assert code == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)["edges"]
    assert [row["monte_carlo"] for row in rows] == expected


def _benchmark_octahedron(seed: int, round_: int):
    """The octahedron that the benchmark's command-line workload writes for
    ``round_``: each round draws a Bricard spec, an octahedron and a cube
    from one ``random.Random(seed)``, in that order."""
    rng = random.Random(seed)
    for _ in range(round_ + 1):
        inputs.bricard_spec(rng)
        P = inputs.rational_octahedron(rng)
        inputs.rational_cube(rng)
    return P


# Benchmark inputs with an edge midpoint on another simplex.
@pytest.mark.parametrize("seed, round_", [(4, 0), (5, 1), (19, 12)])
def test_oracle_on_benchmark_self_touching_octahedra(seed, round_, tmp_path, capsys):
    n = 100_000
    path = tmp_path / "octa.off"
    path.write_text(models.save_off(_benchmark_octahedron(seed, round_)))
    assert cli.main(["oracle", "--input", str(path), "--samples", str(n)]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)["edges"]
    det = [row["deterministic"] for row in rows]
    assert _oracle_disagreements(det, [row["monte_carlo"] for row in rows], n) == []


@pytest.mark.parametrize("argv", [["analyze"], ["flex", "--steps", "5"]], ids=["analyze", "flex"])
def test_exact_cli_run_partitions_the_lengths_once(argv, monkeypatch, capsys):
    """The exact certificate hands on the basis it built, and the conserved
    combinations are read from it, not from a second partition."""
    partition, calls = lengths._classes, []

    def counted(values):
        calls.append(len(values))
        return partition(values)

    monkeypatch.setattr(lengths, "_classes", counted)
    assert cli.main([*argv, "--model", "bricard-default"]) == cli.EXIT_OK
    assert calls == [12]
    assert len(json.loads(capsys.readouterr().out)["combinations"]) == 6


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, RIGIDITYLAB_LOG="error"))


# Runs the command line on its arguments and writes, at exit, the package's
# and numpy's modules that the process loaded to stderr.
MODULES_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(
    " ".join(m for m in sys.modules if m.startswith(("rigiditylab", "numpy")))))
sys.argv = ["rigiditylab", *sys.argv[1:]]
runpy.run_module("rigiditylab.cli", run_name="__main__")
"""
GEOMETRY = "rigiditylab.geometry"
TRACER_MODULES = {"rigiditylab.flex", "rigiditylab.invariants", "rigiditylab.lengths"}


@pytest.mark.parametrize("argv, loaded", [
    (["validate", "--model", "cube"], set()),
    (["oracle", "--model", "octahedron", "--samples", "1000"], {GEOMETRY}),
    (["analyze", "--model", "bricard-default"],
     {GEOMETRY, "rigiditylab.invariants", "rigiditylab.lengths"}),
    (["flex", "--model", "bricard-default", "--steps", "5"], {GEOMETRY, *TRACER_MODULES}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_subcommand_imports_only_what_it_runs(argv, loaded):
    """Only the geometry kernel imports numpy, and validate needs neither."""
    proc = _python("-c", MODULES_PROBE, *argv)
    assert proc.returncode == 0 and proc.stdout
    imported = set(proc.stderr.decode().split())
    assert "rigiditylab.models" in imported
    assert imported & {GEOMETRY, *TRACER_MODULES} == loaded
    assert any(m.startswith("numpy") for m in imported) == (GEOMETRY in loaded)


@pytest.mark.parametrize("source", ["model", "input"])
def test_validate_loads_no_numpy(source, tmp_path):
    """validate builds the polyhedron and checks its surface in plain Python,
    from a built-in model or an OFF file, and prints what it always did."""
    if source == "model":
        argv = ["validate", "--model", "cube"]
    else:
        off = tmp_path / "cube.off"
        off.write_text(models.save_off(models.make_triangulated_cube()))
        argv = ["validate", "--input", str(off)]
    proc = _python("-c", MODULES_PROBE, *argv)
    assert proc.returncode == 0
    imported = proc.stderr.decode().split()
    assert GEOMETRY not in imported and not [m for m in imported if m.startswith("numpy")]
    golden = os.path.join(os.path.dirname(__file__), "golden", "validate-cube.stdout")
    with open(golden, "rb") as fh:
        assert proc.stdout == fh.read()


PARITY_ROWS = {
    "int": [(0, 0, 0), (1, -2, 3), (2**60 + 1, 7, -(2**70) - 3), (0, 1, 1)],
    "fraction": [(Fraction(1, 3), Fraction(-2, 7), Fraction(10**20 + 1, 3)),
                 (Fraction(0), Fraction(1, 10), Fraction(2, 3)),
                 (Fraction(5, 6), Fraction(-1, 10**30), Fraction(22, 7)),
                 (Fraction(1), Fraction(1), Fraction(1))],
    "decimal": [("0.1", "-2.5e-300", "1e308"), ("1.7976931348623157e308", "0.3", " 4.4 "),
                ("-0.0", "5e-324", "123456789.123456789123"), ("1_000", "+2", "3.0")],
    "float": [(0.1, -0.0, 1e-310), (1e308, -2.5, 3.3), (4.4, 5e-324, -7.0), (0.0, 1.0, 2.0)],
    "float64": [tuple(np.float64(c) for c in r) for r in
                [(0.1, -0.0, 1e-310), (1e308, -2.5, 3.3), (4.4, 5e-324, -7.0), (0.0, 1.0, 2.0)]],
}
TETRAHEDRON = SimplicialSurface([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("kind", sorted(PARITY_ROWS))
def test_vertex_array_equals_numpy_conversion(kind):
    """The array built from the float() rows is numpy's own conversion of
    the points, bit for bit."""
    rows = PARITY_ROWS[kind]
    P = geometry.Polyhedron(TETRAHEDRON, dict(enumerate(rows)))
    assert _bits(P._vertex_array) == _bits(np.array(rows, dtype=float))


@pytest.mark.parametrize("name", sorted(models.BUILTIN_MODELS))
def test_builtin_vertex_array_equals_numpy_conversion(name):
    P = models.make_model(name)
    rows = [P.exact_coords[v] for v in P.surface.vertices]
    assert _bits(P._vertex_array) == _bits(np.array(rows, dtype=float))


def test_importing_the_package_loads_nothing():
    proc = _python("-c", "import sys, rigiditylab; print(sorted(m for m in sys.modules "
                   "if m.startswith(('rigiditylab', 'numpy'))))")
    assert proc.returncode == 0 and proc.stdout.decode().split() == ["['rigiditylab']"]


# What the package re-exported when it imported every module up front.
EXPORTS = {
    "surfaces": ["SimplicialSurface", "validate_complex"],
    "geometry": ["DegenerateFaceError", "Polyhedron", "all_dihedrals", "check_nondegenerate",
                 "edge_length_vector", "monte_carlo_dihedral", "oriented_volume",
                 "principal_dihedral", "weighted_angle_sum"],
    "lengths": ["DEPENDENT", "INDEPENDENT_EXACT", "ExactLength", "find_integer_relation",
                "is_q_independent", "normalize_sqrt", "q_basis"],
    "flex": ["CorrectorDivergenceError", "DegenerateConfigurationError", "FaceDegenerationError",
             "FlexPath", "LiftAmbiguityError", "SingularPointError", "infinitesimal_flex_dim",
             "is_trivial_flex", "lift_angles", "polyhedron_from_config", "rigidity_matrix",
             "trace_flex", "trivial_motion_basis"],
    "invariants": ["INCONCLUSIVE", "RIGID", "RIGID_PRESUMED", "InvariantCombination",
                   "constant_angle_edges", "initial_principal_angles", "invariant_combinations",
                   "monitor_flex", "rigidity_certificate"],
    "models": ["BRICARD_FACES", "BUILTIN_MODELS", "DEFAULT_BRICARD_SPEC", "BricardSpec",
               "DegenerateSpecError", "NonTriangularFaceError", "OCTAHEDRON_FACES", "ParseError",
               "half_turn_edge_pairs", "load_off", "make_bricard_type1",
               "make_distinct_length_octahedron", "make_model", "make_regular_octahedron",
               "make_regular_tetrahedron", "make_triangulated_cube", "save_off",
               "save_report_json", "save_series_csv"],
}

# In a fresh process, so each name goes through the package's lazy lookup:
# the names whose package attribute is not the defining module's object.
EXPORTS_PROBE = """
import importlib, json, sys
import rigiditylab
exports = json.loads(sys.argv[1])
wrong = [name for module, names in exports.items() for name in names
         if getattr(rigiditylab, name) is not getattr(
             importlib.import_module("rigiditylab." + module), name)]
wrong += [module for module in exports
          if getattr(rigiditylab, module) is not sys.modules["rigiditylab." + module]]
print(json.dumps(wrong))
"""


def test_every_name_resolves_to_its_module_object():
    proc = _python("-c", EXPORTS_PROBE, json.dumps(EXPORTS))
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == []
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 59 and sorted(rigiditylab.__all__) == sorted(names)
    assert set(rigiditylab.__all__) | set(EXPORTS) <= set(dir(rigiditylab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rigiditylab.no_such_name
    with pytest.raises(ImportError):
        from rigiditylab import no_such_name  # noqa: F401


def test_oracle_wrap_matches_remainder_bit_for_bit():
    """The oracle's wrap equals np.remainder(t, 2*pi) on arctan2's outputs
    bit for bit, signed zeros and NaN included, and so counts the same
    samples at every angle, 0 included."""
    rng = np.random.default_rng(5)
    y, x = rng.normal(size=(2, 10**6))
    tiny = 5e-324
    special = [(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0), (tiny, 1.0), (-tiny, 1.0),
               (tiny, -1.0), (-tiny, -1.0), (1.0, 0.0), (-1.0, 0.0), (np.nan, 1.0)]
    sy, sx = np.array(special).T
    t = np.arctan2(np.r_[sy, y], np.r_[sx, x])
    assert {np.pi, -np.pi, 0.0, tiny, -tiny} <= set(t[:10].tolist())
    assert np.isnan(t[10]) and np.signbit(t[1])
    want = np.remainder(t, 2 * np.pi)
    got = geometry._wrap_2pi(t.copy())
    assert not np.signbit(got[1]) and np.array_equal(got.view(np.int64), want.view(np.int64))
    for a2 in [0.0, tiny, 1.0, np.pi, 2 * np.pi - 1e-12, *rng.uniform(0, 2 * np.pi, 5)]:
        assert np.array_equal(got <= a2, want <= a2)


# The tracer reads one private numpy name, for its per-step inverse: the
# gufunc numpy.linalg._umath_linalg.inv.  Taking its module off numpy.linalg
# and out of the import system breaks that import as a numpy release that
# moved the module would.
BROKEN_NUMPY_PROBE = """
import runpy, sys
import numpy.linalg
del numpy.linalg._umath_linalg
sys.modules["numpy.linalg._umath_linalg"] = None
sys.argv = ["rigiditylab", *sys.argv[1:]]
runpy.run_module("rigiditylab.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "cube"],
    ["analyze", "--model", "octahedron-distinct", "--mode", "numeric"],
    ["oracle", "--model", "octahedron", "--samples", "1000"],
], ids=lambda argv: argv[0])
def test_subcommands_without_the_tracer_survive_a_moved_numpy_name(argv):
    """Only ``flex`` imports the tracer, and with it numpy's private names."""
    broken = _python("-c", BROKEN_NUMPY_PROBE, *argv)
    assert (broken.returncode, broken.stderr) == (0, b"")
    assert broken.stdout == _python("-m", "rigiditylab.cli", *argv).stdout


def test_the_moved_numpy_name_breaks_the_tracer():
    """The probe breaks ``flex``, the one subcommand that imports the
    tracer, so the others survive it by not reading the name."""
    broken = _python("-c", BROKEN_NUMPY_PROBE, "flex", "--model", "bricard-default",
                     "--steps", "5")
    assert broken.returncode == 1 and not broken.stdout
    assert b"import of numpy.linalg._umath_linalg halted" in broken.stderr


TRACER_PRIVATE_NUMPY = {"numpy.linalg._umath_linalg.inv"}


def private_numpy_reads(source: str) -> set[str]:
    """Dotted names of numpy's private API that ``source`` reads: each name
    bound by an import from numpy, followed through the attributes read off
    it (or fetched by ``getattr`` with a literal name), that has a component
    starting with one underscore."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":  # "import numpy.x" binds numpy
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
            return f"{base}.{node.attr}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and (base := dotted(node.args[0]))):
            return f"{base}.{node.args[1].value}"
        return None

    reads = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if (name := dotted(node)) and not isinstance(getattr(node, "ctx", None), ast.Store):
            reads.add(name)  # the longest chain; its prefixes are not reads of their own
            continue
        stack.extend(ast.iter_child_nodes(node))
    return {name for name in reads
            if any(part.startswith("_") and not part.startswith("__")
                   for part in name.split("."))}


def test_tracer_reads_only_the_private_numpy_names_its_inverse_needs():
    """The rank test's SVD, the error state and every other numpy call go
    through the public API; a private name read for anything else fails
    here."""
    source = (Path(rigiditylab.__file__).parent / "flex.py").read_text(encoding="utf-8")
    assert private_numpy_reads(source) == TRACER_PRIVATE_NUMPY
    seen = private_numpy_reads(
        "import numpy as np\nfrom numpy.linalg import _linalg, _umath_linalg as u\n"
        "u.svd_f(a)\nnp.linalg.inv(a)\nh = _linalg._raise_linalgerror_svd_nonconvergence\n"
        "getattr(np.linalg, '_umath_linalg').inv(a)\n")
    assert seen == {"numpy.linalg._umath_linalg.svd_f", "numpy.linalg._umath_linalg.inv",
                    "numpy.linalg._linalg._raise_linalgerror_svd_nonconvergence"}
