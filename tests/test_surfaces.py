import numpy as np
import pytest

from rigiditylab import (
    NonOrientableError,
    SimplicialSurface,
    orient,
    validate_complex,
)
from rigiditylab.models import BRICARD_FACES, OCTAHEDRON_FACES

from oracles import PROJECTIVE_PLANE_FACES


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
    with pytest.raises(NonOrientableError):
        orient(SimplicialSurface(PROJECTIVE_PLANE_FACES))


def test_orient_keeps_consistent_surface():
    S = SimplicialSurface(OCTAHEDRON_FACES)
    assert orient(S).faces == S.faces


def test_orient_restores_single_flip():
    faces = list(OCTAHEDRON_FACES)
    faces[3] = (faces[3][0], faces[3][2], faces[3][1])
    fixed = orient(SimplicialSurface(faces))
    assert fixed.faces == OCTAHEDRON_FACES


def test_orient_idempotent_and_validates():
    rng = np.random.default_rng(7)
    faces = [
        (f[0], f[2], f[1]) if rng.random() < 0.5 else f for f in OCTAHEDRON_FACES
    ]
    once = orient(SimplicialSurface(faces))
    assert validate_complex(once.faces).passed
    assert orient(once).faces == once.faces


def test_euler_characteristic_of_models():
    for faces in (OCTAHEDRON_FACES, BRICARD_FACES):
        assert SimplicialSurface(faces).euler_characteristic == 2
