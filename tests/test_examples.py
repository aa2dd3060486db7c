"""Every example script imports cleanly against the current public API.

The examples are the primary end-user surface, but running them takes
minutes (library characterization, reference solves).  Importing one
resolves every name it pulls from ``repro`` without calling ``main()``, so
a renamed or removed public name fails here instead of in a user's shell.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
