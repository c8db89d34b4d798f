import os
import sys
from pathlib import Path

import pytest

from rigiditylab import (
    geometry,
    make_bricard_type1,
    make_distinct_length_octahedron,
    make_regular_octahedron,
    make_regular_tetrahedron,
    make_triangulated_cube,
    trace_flex,
)

# Every Python child that a test starts imports the package from this
# checkout, whatever its working directory.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def octahedron():
    return make_regular_octahedron()


@pytest.fixture
def cube():
    return make_triangulated_cube()


@pytest.fixture
def tetrahedron():
    return make_regular_tetrahedron()


@pytest.fixture
def bricard():
    return make_bricard_type1()


@pytest.fixture(scope="session")
def distinct_octahedron():
    return make_distinct_length_octahedron()


@pytest.fixture(scope="session")
def bricard_path():
    """A medium-length traced flex of the default Bricard octahedron,
    shared by the tests that only need some nontrivial path."""
    P = make_bricard_type1()
    return trace_flex(P.vertex_array(), P.surface, n_steps=60, step=0.01)


@pytest.fixture
def spy(monkeypatch):
    """``spy(name)`` wraps the geometry kernel ``name`` wherever the package
    binds it and returns the list of coordinate arrays it is called on."""

    def install(name):
        original, calls = getattr(geometry, name), []

        def wrapper(surface, x, *args, **kwargs):
            calls.append(x)
            return original(surface, x, *args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("rigiditylab") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
