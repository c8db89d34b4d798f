import numpy as np
import pytest

from rigiditylab import SimplicialSurface, validate_complex
from rigiditylab.models import BRICARD_FACES, BUILTIN_MODELS, OCTAHEDRON_FACES

from oracles import (
    GRID_TORUS_FACES,
    PROJECTIVE_PLANE_FACES,
    relabeled_faces,
    subdivided_faces,
)

CLOSED_SURFACES = {
    **{name: make().surface.faces for name, make in BUILTIN_MODELS.items()},
    "grid-torus": tuple(GRID_TORUS_FACES),
}


def test_octahedron_passes(octahedron):
    report = validate_complex(OCTAHEDRON_FACES)
    assert report.passed
    assert report.violations == []


def test_single_triangle_fails_edge_condition():
    report = validate_complex([(0, 1, 2)])
    assert not report.passed
    assert report.conditions_failed() == {"iv"}
    (_, offending), = report.violations
    assert len(offending) == 3  # all three edges have one incident face


def test_disjoint_octahedra_fail_connectivity():
    shifted = [tuple(v + 100 for v in f) for f in OCTAHEDRON_FACES]
    report = validate_complex(list(OCTAHEDRON_FACES) + shifted)
    assert not report.passed
    assert report.conditions_failed() == {"v"}


def test_repeated_vertex_fails():
    faces = list(OCTAHEDRON_FACES) + [(0, 0, 1)]
    report = validate_complex(faces)
    assert "i" in report.conditions_failed()


def test_duplicate_face_fails():
    faces = list(OCTAHEDRON_FACES) + [(2, 1, 0)]
    report = validate_complex(faces)
    assert "ii" in report.conditions_failed()


def test_flipped_face_fails_orientation():
    faces = list(OCTAHEDRON_FACES)
    faces[3] = (faces[3][0], faces[3][2], faces[3][1])
    report = validate_complex(faces)
    assert not report.passed
    assert report.conditions_failed() == {"orientation"}


def test_projective_plane_valid_but_not_orientable():
    report = validate_complex(PROJECTIVE_PLANE_FACES)
    assert report.conditions_failed() == {"orientation"}


def test_euler_characteristic_of_models():
    for faces in (OCTAHEDRON_FACES, BRICARD_FACES):
        assert SimplicialSurface(faces).euler_characteristic == 2


@pytest.mark.parametrize("name", sorted(CLOSED_SURFACES))
def test_closed_surfaces_pass(name):
    assert validate_complex(CLOSED_SURFACES[name]).violations == []


def test_grid_torus_has_euler_characteristic_zero():
    S = SimplicialSurface(GRID_TORUS_FACES)
    assert (S.n_vertices, S.n_edges, S.n_faces) == (9, 27, 18)
    assert S.euler_characteristic == 0


@pytest.mark.parametrize(
    "relabel, pinched",
    [({5: 0}, [0]), ({5: 0, 4: 1}, [0, 1]), ({5: 0, 4: 1, 3: 2}, [0, 1, 2])],
)
def test_pinched_vertices_fail_link_condition(relabel, pinched):
    faces = subdivided_faces(OCTAHEDRON_FACES)
    assert len(faces) == 32 and len({v for f in faces for v in f}) == 18
    assert validate_complex(faces).passed
    report = validate_complex(relabeled_faces(faces, relabel))
    assert not report.passed
    assert report.violations == [("vi", pinched)]


@pytest.mark.parametrize("name", sorted(CLOSED_SURFACES))
def test_flipping_some_faces_fails_only_orientation(name):
    faces = CLOSED_SURFACES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(10):
        size = rng.integers(1, len(faces))  # nonempty and proper
        flip = set(rng.choice(len(faces), size, replace=False).tolist())
        flipped = [(f[0], f[2], f[1]) if i in flip else f for i, f in enumerate(faces)]
        assert validate_complex(flipped).conditions_failed() == {"orientation"}
    reversed_faces = [(f[0], f[2], f[1]) for f in faces]
    assert validate_complex(reversed_faces).passed
