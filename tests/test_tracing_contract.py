"""The names the benchmark's tracer looks up must exist in pilip.

``perfbench/tracing.py`` rebinds pilip functions by (module, attribute) name
and wraps the entries of ``verify.PROPERTIES`` by property name.  Renaming
one of them breaks every traced benchmark run, so the lookups are checked
here, in the fast suite.  The tracer is loaded from its file and never
edited; it imports the standard library only.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in TRACER.TRACED])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module("pilip." + module), attr, None))


def test_traced_property_names_are_verify_properties():
    from pilip.verify import PROPERTIES

    assert TRACER.PROPERTY_NAMES == [name for name, _, _ in PROPERTIES]
