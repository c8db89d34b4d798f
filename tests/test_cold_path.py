"""The work each CLI call does is cut to what its answer needs; these tests
require that every result equals that of the code it replaced, kept in
``oracles`` (one Monte-Carlo draw per edge), or, for the trial-division
square split, what sympy's factorization gives."""

import json
import math
import random
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_monte_carlo_looks_up_every_edge_before_any_frame(octahedron):
    """An edge outside the surface raises before an earlier edge whose face
    is flat."""
    x = octahedron.vertex_array()
    x[2] = 0.5 * (x[0] + x[1])  # face (0, 1, 2) flat
    P = geometry.Polyhedron(octahedron.surface, dict(enumerate(x)))
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
