"""JSON persistence with canonical float formatting.

All floating-point output is rendered with 17 significant digits, which
round-trips float64 exactly and makes reports byte-reproducible.  Norm
exponents serialize as 1, 2, or the string "inf".

Schemas (documented in docs/formats.md):

    tensor    {"shape": [...], "data": [...]}                    row-major
    operator  tensor + {"factor_norms": [...], "codomain_norm": r}
    mixed     operator schema + {"role": "mixed"}
    certificate {"forms": [tensor...], "weights": [...], "constant": c,
                 "p": p, "pairset": [...]}
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .bounds import BoundReport
from .summing import FactorizationBundle, PietschCertificate
from .tensor_norm import DualWitness, MixedTensor, Representation
from .tensors import (
    DenseTensor,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
)

__all__ = [
    "SchemaError",
    "dumps_canonical",
    "to_jsonable",
    "exponent_to_json",
    "exponent_from_json",
    "tensor_to_json",
    "tensor_from_json",
    "operator_to_json",
    "operator_from_json",
    "mixed_to_json",
    "mixed_from_json",
    "pairset_to_json",
    "pairset_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "save_json",
]


class SchemaError(ValueError):
    """Input JSON does not match the documented schema."""


# ---------------------------------------------------------------------------
# canonical emitter
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_canonical(obj: Any, indent: int = 0) -> str:
    """Serialize to JSON text with 17-significant-digit floats.

    Dict insertion order is preserved, so identical construction order
    yields byte-identical output.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{" " * (indent + 2)}{json.dumps(str(k))}: {dumps_canonical(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        inner = [dumps_canonical(v, indent) for v in obj]
        return "[" + ", ".join(inner) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# schema mappers
# ---------------------------------------------------------------------------


def exponent_to_json(r: float) -> Any:
    return "inf" if math.isinf(r) else int(r)


def exponent_from_json(value: Any) -> float:
    if value in ("inf", "Infinity"):
        return math.inf
    try:
        r = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"invalid norm exponent {value!r}") from None
    if r in (1.0, 2.0):
        return r
    if math.isinf(r):
        return math.inf
    raise SchemaError(f"norm exponent must be 1, 2 or inf, got {value!r}")


def tensor_to_json(t: DenseTensor) -> dict:
    return {"shape": list(t.shape), "data": [float(x) for x in t.data]}


def tensor_from_json(obj: Any) -> DenseTensor:
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise SchemaError('tensor JSON needs "shape" and "data"')
    try:
        return DenseTensor(tuple(obj["shape"]), np.asarray(obj["data"], dtype=float))
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from None


def _norms_from_json(obj: dict, n_factors: int) -> NormSpec:
    factors = obj.get("factor_norms")
    if factors is None:
        factors = [2] * n_factors
    if len(factors) != n_factors:
        raise SchemaError(
            f"{len(factors)} factor norms for {n_factors} factor modes"
        )
    return NormSpec(
        tuple(exponent_from_json(r) for r in factors),
        exponent_from_json(obj.get("codomain_norm", 2)),
    )


def operator_to_json(op: MultilinearOperator) -> dict:
    out = tensor_to_json(op.kernel)
    out["factor_norms"] = [exponent_to_json(r) for r in op.norms.factors]
    out["codomain_norm"] = exponent_to_json(op.norms.codomain)
    return out


def operator_from_json(obj: Any) -> MultilinearOperator:
    kernel = tensor_from_json(obj)
    if kernel.ndim < 2:
        raise SchemaError("operator kernel needs at least 2 modes (factors + codomain)")
    try:
        return MultilinearOperator(kernel, _norms_from_json(obj, kernel.ndim - 1))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def mixed_to_json(z: MixedTensor) -> dict:
    return {**operator_to_json(z), "role": "mixed"}


def mixed_from_json(obj: Any) -> MixedTensor:
    op = operator_from_json(obj)
    return MixedTensor(op.kernel, op.norms)


def _segre_to_json(x: SegrePoint) -> list:
    return [[float(v) for v in f] for f in x.factors]


def _segre_from_json(obj: Any) -> SegrePoint:
    try:
        return SegrePoint(tuple(np.asarray(f, dtype=float) for f in obj))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid Segre point: {exc}") from None


def pairset_to_json(cfg: PairConfiguration) -> list:
    return [
        {"u": _segre_to_json(u), "v": _segre_to_json(v), "weight": float(w)}
        for (u, v), w in zip(cfg.pairs, cfg.weights)
    ]


def pairset_from_json(obj: Any) -> PairConfiguration:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("pairset must be a nonempty list")
    pairs, weights = [], []
    for entry in obj:
        pairs.append((_segre_from_json(entry["u"]), _segre_from_json(entry["v"])))
        weights.append(float(entry.get("weight", 1.0)))
    return PairConfiguration(tuple(pairs), tuple(weights))


def certificate_to_json(cert: PietschCertificate) -> dict:
    return {
        "forms": [operator_to_json(f) for f in cert.dictionary],
        "weights": [float(w) for w in cert.weights],
        "constant": float(cert.constant),
        "p": float(cert.p),
        "ball": cert.ball,
        "pairset": pairset_to_json(cert.pairset),
    }


def certificate_from_json(obj: Any) -> PietschCertificate:
    try:
        forms = tuple(operator_from_json(f) for f in obj["forms"])
        constant = obj["constant"]
        constant = math.inf if constant == "inf" else float(constant)
        return PietschCertificate(
            forms,
            tuple(float(w) for w in obj["weights"]),
            constant,
            pairset_from_json(obj["pairset"]),
            float(obj["p"]),
            obj.get("ball", "op"),
        )
    except KeyError as exc:
        raise SchemaError(f"certificate JSON missing {exc}") from None


# ---------------------------------------------------------------------------
# generic report conversion
# ---------------------------------------------------------------------------


def to_jsonable(obj: Any) -> Any:
    """Convert package objects and numpy values into JSON-ready structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, BoundReport):
        out = obj.to_dict()
        out["detail"] = to_jsonable(out["detail"])
        return out
    if isinstance(obj, DenseTensor):
        return tensor_to_json(obj)
    if isinstance(obj, MixedTensor):  # before its base class, MultilinearOperator
        return mixed_to_json(obj)
    if isinstance(obj, MultilinearOperator):
        return operator_to_json(obj)
    if isinstance(obj, SegrePoint):
        return {"factors": _segre_to_json(obj)}
    if isinstance(obj, PairConfiguration):
        return pairset_to_json(obj)
    if isinstance(obj, PietschCertificate):
        return certificate_to_json(obj)
    if isinstance(obj, DualWitness):  # "certified" stays in the layout (docs/formats.md)
        return {**{k: to_jsonable(v) for k, v in vars(obj).items()}, "certified": True}
    if isinstance(obj, Representation):
        return [
            {"p": _segre_to_json(p), "q": _segre_to_json(q), "y": to_jsonable(y)}
            for p, q, y in obj.terms
        ]
    if isinstance(obj, FactorizationBundle):
        return {
            "certificate": certificate_to_json(obj.certificate),
            "lipschitz_constant": float(obj.lipschitz_constant),
            "quotient_violations": [list(v) for v in obj.quotient_violations],
            "samples": [to_jsonable(s) for s in obj.samples],
            "images": [to_jsonable(i) for i in obj.images],
            "values": [to_jsonable(v) for v in obj.values],
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "__dict__") and hasattr(obj, "__dataclass_fields__"):
        return {k: to_jsonable(v) for k, v in vars(obj).items()}
    return repr(obj)


def save_json(obj: Any, path: str) -> None:
    text = dumps_canonical(to_jsonable(obj)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
