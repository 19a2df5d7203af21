"""Every package name the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` wraps the functions in its ``TARGETS`` table by
looking each attribute up in ``vars()`` of its owner; a refactor that drops or
moves one would otherwise only show when a traced run fails.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _traced_targets()


@pytest.mark.parametrize(
    "module, path", [t[1:] for t in TARGETS], ids=[t[0] for t in TARGETS]
)
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"octavib.{module}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"octavib.{module}.{path}"
