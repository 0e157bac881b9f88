"""The docstring examples of every torsion13 module, run as tests."""

import doctest
import importlib
import pkgutil

import torsion13


def test_every_module_doctest_passes():
    attempted = 0
    for info in pkgutil.iter_modules(torsion13.__path__):
        module = importlib.import_module(f"torsion13.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{info.name}: {result.failed} doctest failures"
        attempted += result.attempted
    assert attempted > 0
