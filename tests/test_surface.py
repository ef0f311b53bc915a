"""The public surface: every exported name resolves, and deleted names stay gone."""

import importlib
import pkgutil

import pytest

import crossingsim

# The package itself binds nothing and has no __all__.
SUBMODULES = [
    f"crossingsim.{info.name}" for info in pkgutil.iter_modules(crossingsim.__path__)
]
MODULES = ["crossingsim"] + SUBMODULES
# The trajectory ingest had no caller; `simulate` writes the only trajectory file.
# The observation transform lost its last caller with the ingest.
DELETED = [
    "TrajectoryLog", "read_trajectories", "write_trajectories", "extract_observations",
    "ObservationVector", "to_observation", "Kinematics",
    # A second copy of the version in pyproject.toml.
    "__version__",
]


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_not_importable(name):
    for module in MODULES:
        namespace = importlib.import_module(module)
        assert not hasattr(namespace, name), f"{module}.{name}"
