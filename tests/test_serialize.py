import json
import math

import numpy as np
import pytest

from pilip.rng import stream
from pilip.serialize import (
    SchemaError,
    certificate_from_json,
    certificate_to_json,
    dumps_canonical,
    mixed_from_json,
    mixed_to_json,
    operator_from_json,
    operator_to_json,
    pairset_from_json,
    pairset_to_json,
    tensor_from_json,
    tensor_to_json,
    to_jsonable,
)
from pilip.summing import pietsch_upper_lp
from pilip.tensor_norm import DualWitness, MixedTensor
from pilip.tensors import DenseTensor, MultilinearOperator, NormSpec
from pilip.verify import lambda_n, random_mixed, random_operator, random_pairs


def test_tensor_roundtrip_lambda3_bitexact():
    kernel = lambda_n(3).kernel
    back = tensor_from_json(json.loads(dumps_canonical(tensor_to_json(kernel))))
    assert back.shape == kernel.shape
    np.testing.assert_array_equal(back.data, kernel.data)


def test_operator_roundtrip_bitexact_random():
    rng = stream(0)
    op = random_operator((2, 3), 2, rng, NormSpec((1.0, math.inf), 2.0))
    back = operator_from_json(json.loads(dumps_canonical(operator_to_json(op))))
    np.testing.assert_array_equal(back.kernel.data, op.kernel.data)
    assert back.norms == op.norms


def test_mixed_roundtrip():
    z = random_mixed((2, 2), 3, stream(1))
    obj = mixed_to_json(z)
    assert obj["role"] == "mixed"
    back = mixed_from_json(json.loads(dumps_canonical(obj)))
    np.testing.assert_array_equal(back.kernel.data, z.kernel.data)


def test_mixed_json_is_the_operator_json_plus_its_role():
    z = random_mixed((2, 3), 2, stream(3), NormSpec((1.0, math.inf), 1.0))
    op = MultilinearOperator(z.kernel, z.norms)
    assert mixed_to_json(z) == {**operator_to_json(op), "role": "mixed"}
    assert to_jsonable(z) == mixed_to_json(z) and to_jsonable(op) == operator_to_json(op)
    back = mixed_from_json(mixed_to_json(z))
    assert type(back) is MixedTensor and back.norms == z.norms
    assert np.array_equal(back.kernel.array, z.kernel.array)
    with pytest.raises(SchemaError):
        mixed_from_json({"shape": [2], "data": [1.0, 2.0]})


def test_pairset_roundtrip_with_weights():
    cfg = random_pairs((2, 2), 3, stream(2)).reweighted((0.5, 2.0, 1.0))
    back = pairset_from_json(json.loads(dumps_canonical(pairset_to_json(cfg))))
    assert back.weights == cfg.weights
    for (u, v), (bu, bv) in zip(cfg.pairs, back.pairs):
        for f, bf in zip(u.factors + v.factors, bu.factors + bv.factors):
            np.testing.assert_array_equal(f, bf)


def test_certificate_roundtrip():
    op = random_operator((2, 2), 1, stream(3))
    cfg = random_pairs((2, 2), 3, stream(4))
    cert = pietsch_upper_lp(op, cfg, [op], 2.0)
    back = certificate_from_json(json.loads(dumps_canonical(certificate_to_json(cert))))
    np.testing.assert_allclose(back.constant, cert.constant, rtol=1e-16)
    assert back.weights == cert.weights
    assert back.p == cert.p


def test_shape_data_mismatch_is_schema_error():
    with pytest.raises(SchemaError):
        tensor_from_json({"shape": [2, 2], "data": [1.0, 2.0, 3.0]})


def test_missing_fields_schema_error():
    with pytest.raises(SchemaError):
        tensor_from_json({"data": [1.0]})
    with pytest.raises(SchemaError):
        operator_from_json({"shape": [2], "data": [1.0, 2.0]})  # 1-mode kernel


def test_bad_exponent_schema_error():
    with pytest.raises(SchemaError):
        operator_from_json(
            {"shape": [2, 1], "data": [1, 2], "factor_norms": [3], "codomain_norm": 2}
        )


def test_inf_exponent_roundtrip():
    op = random_operator((2,), 1, stream(5), NormSpec((math.inf,), 1.0))
    obj = operator_to_json(op)
    assert obj["factor_norms"] == ["inf"]
    assert operator_from_json(obj).norms.factors == (math.inf,)


def test_canonical_floats_17_digits():
    text = dumps_canonical({"x": 0.1, "y": 1.0, "z": float("inf")})
    assert "0.10000000000000001" in text
    assert '"inf"' in text
    # round-trip through text preserves the float64 exactly
    assert json.loads(text)["x"] == 0.1


def test_dumps_canonical_is_deterministic():
    obj = to_jsonable({"b": [1.5, 2.5], "a": {"nested": 0.3}})
    assert dumps_canonical(obj) == dumps_canonical(obj)


def test_dense_tensor_to_jsonable():
    t = DenseTensor.from_array(np.arange(4.0).reshape(2, 2))
    assert to_jsonable(t) == {"shape": [2, 2], "data": [0.0, 1.0, 2.0, 3.0]}


def test_dual_witness_keeps_its_report_layout():
    # DualWitness has no certified flag (every pi_upper is certified), and its JSON still
    # carries "certified": true so that dnorm reports keep their bytes
    op = random_operator((2, 2), 2, stream(3))
    out = to_jsonable(DualWitness(op, 0.5))
    assert list(out) == ["operator", "pi_upper", "certified"]
    assert out == {"operator": operator_to_json(op), "pi_upper": 0.5, "certified": True}
