import itertools
import math

import numpy as np
import pytest

from pilip.formnorm import operator_norm
from pilip.hilbert_schmidt import (
    BASIS_PRODUCT_CAP,
    basis_config_lower,
    basis_configuration,
    hs_norm,
    khintchine_constant,
    verify_sandwich,
)
from pilip.rng import stream
from pilip.summing import Budget
from pilip.tensors import MultilinearOperator, NormSpec
from pilip.verify import lambda_n, random_operator

FAST = Budget(restarts=16, max_pairs=12, max_dictionary=24, rounds=2)


def test_hs_identity_form_sqrt2():
    eye = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    np.testing.assert_allclose(hs_norm(eye), math.sqrt(2.0), rtol=1e-15)


def test_hs_zero():
    assert hs_norm(MultilinearOperator.from_array(np.zeros((2, 2, 2)))) == 0.0


def test_hs_lambda2_one():
    assert hs_norm(lambda_n(2)) == 1.0


def test_hs_rejects_non_l2():
    op = MultilinearOperator.from_array(
        np.ones((2, 2, 1)), NormSpec((math.inf, 2.0), 2.0)
    )
    with pytest.raises(ValueError):
        hs_norm(op)


def _rademacher_fourth_moment(a: np.ndarray) -> float:
    """Exact E|sum eps_i a_i|^4 by sign enumeration."""
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=len(a)):
        total += float(np.dot(signs, a)) ** 4
    return total / 2 ** len(a)


def test_khintchine_p4_matches_rademacher_oracle():
    # closed form: E|sum eps a|^4 = 3 (sum a^2)^2 - 2 sum a^4, so the best
    # constant is sup (3 - 2 sum a^4 / (sum a^2)^2)^(1/4) = 3^(1/4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal(6)
        exact = _rademacher_fourth_moment(a)
        closed = 3 * np.sum(a**2) ** 2 - 2 * np.sum(a**4)
        np.testing.assert_allclose(exact, closed, rtol=1e-12)
        ratio = exact ** 0.25 / math.sqrt(np.sum(a**2))
        assert ratio <= 3 ** 0.25 + 1e-12
    # equal weights approach the constant from below
    k = 14
    a = np.ones(k) / math.sqrt(k)
    ratio = (3 - 2 / k) ** 0.25
    assert 3 ** 0.25 - ratio < 0.02
    np.testing.assert_allclose(khintchine_constant(4.0).value, 3 ** 0.25, rtol=1e-12)


def test_khintchine_edges():
    assert khintchine_constant(2.0).value == 1.0
    assert khintchine_constant(1.0).value == 1.0
    values = [khintchine_constant(p).value for p in (2.0, 2.5, 3.0, 4.0, 6.0)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        khintchine_constant(0.5)
    with pytest.raises(ValueError):
        khintchine_constant(math.inf)


def test_khintchine_rejects_a_nan_exponent():
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        khintchine_constant(math.nan)


def test_basis_lower_identity_form():
    eye = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    np.testing.assert_allclose(basis_config_lower(eye), math.sqrt(2.0), rtol=1e-12)


def test_basis_lower_lambda2():
    np.testing.assert_allclose(basis_config_lower(lambda_n(2)), 1.0, rtol=1e-12)


def test_basis_lower_zero():
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 1)))
    assert basis_config_lower(zero) == 0.0


def test_basis_lower_equals_hs_random():
    for i in range(20):
        rng = stream(i)
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
        op = random_operator(dims, int(rng.integers(1, 4)), rng)
        hs = hs_norm(op)
        np.testing.assert_allclose(basis_config_lower(op), hs, rtol=1e-9)


def test_basis_configuration_cap():
    with pytest.raises(ValueError):
        basis_configuration((17, 16, 16))
    assert math.prod((16, 16, 16)) <= BASIS_PRODUCT_CAP
    assert len(basis_configuration((2, 2)).pairs) == 4


def test_sandwich_random_cube():
    op = random_operator((2, 2, 2), 2, stream(21))
    report = verify_sandwich(op, 2.0, FAST, seed=1)
    assert report["lower_side_ok"]
    assert report["lp_consistent"]
    assert report["passed"]


def test_sandwich_lambda2_ratio_one():
    report = verify_sandwich(lambda_n(2), 2.0, FAST, seed=2)
    np.testing.assert_allclose(report["ratio"], 1.0, atol=1e-6)
    assert report["passed"]


def test_sandwich_zero_operator():
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 1)))
    report = verify_sandwich(zero, 2.0, FAST, seed=3)
    assert report["hs_norm"] == 0.0 and report["passed"]


def test_sandwich_records_bp_diagnostics_for_large_p():
    op = random_operator((2, 2), 2, stream(22))
    report = verify_sandwich(op, 4.0, FAST, seed=4)
    assert report["passed"]
    assert "lp_constant_p" in report and "bp_power_n_bound" in report


@pytest.mark.parametrize("factor,key", [(0.5, "lp_consistent"), (4.0, "within_bp_bound")])
def test_sandwich_margins_are_relative_to_hs(monkeypatch, factor, key):
    # an LP constant off by a factor 2 or 4 fails the sandwich however small T is
    import dataclasses

    from pilip import hilbert_schmidt

    real = hilbert_schmidt.pietsch_upper_lp

    def scaled(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, constant=factor * cert.constant)

    monkeypatch.setattr(hilbert_schmidt, "pietsch_upper_lp", scaled)
    op = random_operator((3, 3), 2, stream(0, 5))
    for scale in (1.0, 1e-12):
        small = MultilinearOperator.from_array(op.kernel.array * scale, op.norms)
        report = verify_sandwich(small, 3.0, FAST)
        assert report[key] is False
        assert report["passed"] is (key != "lp_consistent")


def test_operator_norm_below_hs():
    for i in range(10):
        op = random_operator((2, 2, 2), 2, stream(100 + i))
        rep = operator_norm(op, seed=i, restarts=12)
        assert rep.certified_lower <= hs_norm(op) + 1e-9


def test_hs_rotation_invariance():
    rng = stream(23)
    op = random_operator((2, 3, 2), 2, rng)
    base = hs_norm(op)
    kernel = op.kernel.array
    for k in range(op.n):
        q, _ = np.linalg.qr(rng.standard_normal((op.dims[k], op.dims[k])))
        rotated = np.moveaxis(np.tensordot(q, np.moveaxis(kernel, k, 0), axes=(1, 0)), 0, k)
        np.testing.assert_allclose(
            hs_norm(MultilinearOperator.from_array(rotated, op.norms)), base, rtol=1e-10
        )
