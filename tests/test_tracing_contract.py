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


def test_simplex_observer_reads_the_pietsch_lp_call(monkeypatch):
    # a renamed keyword of solve_lp would read as zero cells, not as an error
    import numpy as np

    from pilip import summing

    seen = []
    real_solve = summing.solve_lp

    def solve(*args, **kwargs):
        seen.append((args, kwargs, real_solve(*args, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr(summing, "solve_lp", solve)
    S = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3]])
    assert summing._pietsch_lp(S, np.array([1.0, 0.5]))[4] is None
    assert len(seen) == 1
    obs = TRACER._simplex_obs(*seen[0])
    assert obs["status"] == "optimal" and obs["cells"] > 0


def test_installed_tracer_records_the_ascent_spans():
    # a refactor that calls the line-search driver around a traced name would leave
    # the name resolvable but its span count and self time at 0
    from pilip import formnorm, summing
    from pilip.rng import stream
    from pilip.verify import random_operator, random_pairs

    real = (formnorm.config_denominator, summing._violation_search)
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        formnorm.config_denominator(random_pairs((2, 2), 3, stream(0, 90)), 2.0, "op",
                                    seed=0, restarts=4)
        calls = tracer.drain()[0]
        assert calls.get("formnorm.rank_one_ascent") == 1
        budget = summing.Budget(restarts=8, max_pairs=10, max_dictionary=24, rounds=2)
        rep = summing.estimate_pi_lip(random_operator((2, 2), 2, stream(0, 91)), 3.0, budget,
                                      seed=0)
        assert rep.detail["rounds"] == 2  # the first round was not tight
        assert tracer.drain()[0].get("summing.violation_search", 0) >= 1
    finally:
        tracer.uninstall()
    assert (formnorm.config_denominator, summing._violation_search) == real
