"""The names the benchmark's span tracer wraps still exist in the package.

``benchmarks/spans.py`` rebinds each ``(module, attribute)`` of its
``FUNCTIONS`` table and wraps two methods on their classes; a name that is
gone makes ``Tracer.install`` raise ``AttributeError`` and ends the
per-layer run.  The table is read from the file, not copied.
"""

import importlib.util
from pathlib import Path

import pytest

import sprayjets

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _functions():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FUNCTIONS


@pytest.mark.parametrize("module, attr", [*_functions(), ("spray.Spray", "acceleration"),
                                          ("geodesic.Trajectory", "state_at")])
def test_traced_name_resolves(module, attr):
    owner = sprayjets
    for part in module.split("."):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
