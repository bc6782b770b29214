import math

import pytest

from pilip.bounds import BoundReport


def test_heuristic_lower_is_an_alias_of_the_certified_lower():
    rep = BoundReport(1.0, 2.0)
    assert rep.heuristic_lower == rep.certified_lower == 1.0
    with pytest.raises(AttributeError):
        rep.heuristic_lower = 1.5  # read-only: the bracket has two numbers


def test_clamps_lower_to_upper():
    rep = BoundReport(3.0, 2.0)
    assert rep.certified_lower == 2.0
    assert rep.certified_upper == 2.0


def test_negative_values_clamped_to_zero():
    rep = BoundReport(-1.0, 4.0)
    assert rep.certified_lower == 0.0
    rep = BoundReport(-1.0, -0.5)
    assert rep.certified_lower == rep.certified_upper == 0.0


def test_infinite_upper_allowed():
    rep = BoundReport(1.0, math.inf)
    assert math.isinf(rep.certified_upper)
    assert rep.certified_lower == 1.0


def test_nan_rejected():
    with pytest.raises(ValueError):
        BoundReport(math.nan, 1.0)
    with pytest.raises(ValueError):
        BoundReport(0.0, math.nan)


def test_width_and_contains():
    rep = BoundReport(1.0, 2.0)
    assert rep.width == 1.0
    assert rep.contains(1.5)
    assert not rep.contains(2.5)
    assert rep.contains(2.02, slack=0.02)


def test_to_dict_keys():
    # the report layout keeps heuristic_lower, written as the certified lower
    d = BoundReport(0.5, 1.0, method="x", detail={"k": 1}).to_dict()
    assert list(d) == ["certified_lower", "heuristic_lower", "certified_upper",
                       "method", "detail"]
    assert d["heuristic_lower"] == d["certified_lower"] == 0.5
    assert (d["certified_upper"], d["method"], d["detail"]) == (1.0, "x", {"k": 1})
