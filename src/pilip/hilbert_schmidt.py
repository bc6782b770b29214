"""Hilbert-Schmidt norm, Khintchine constants, and the coincidence check.

On all-l2 specs the Hilbert-Schmidt norm of an operator is the Frobenius
norm of its kernel, and the summing machinery run over the HS ball at
p = 2 recovers it exactly from the full basis configuration: the
denominator of {(e_j1, ..., e_jn) vs 0} is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Any

import numpy as np

from .rng import child_seed, stream
from .summing import Budget, initial_dictionary, lower_bound_config, pietsch_upper_lp
from .tensors import MultilinearOperator, PairConfiguration, SegrePoint, unit_vector

__all__ = [
    "KhintchineConstant",
    "hs_norm",
    "khintchine_constant",
    "basis_configuration",
    "basis_config_lower",
    "verify_sandwich",
    "BASIS_PRODUCT_CAP",
]

BASIS_PRODUCT_CAP = 4096


@dataclass(frozen=True)
class KhintchineConstant:
    """The best constant B_p with ||sum eps_i a_i||_p <= B_p ||a||_2."""

    p: float
    value: float


def _require_l2(op: MultilinearOperator) -> None:
    if not op.norms.is_all_l2():
        raise ValueError("Hilbert-Schmidt machinery needs l2 factor and codomain norms")


def hs_norm(op: MultilinearOperator) -> float:
    """Frobenius norm of the kernel: (sum ||T(e_j1,...,e_jn)||^2)^(1/2).

    Basis independent; requires an all-l2 norm spec.
    """
    _require_l2(op)
    return op.kernel.frobenius()


def khintchine_constant(p: float) -> KhintchineConstant:
    """B_p = 1 for p <= 2; the sharp Gaussian-moment value for p > 2:
    sqrt(2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p)."""
    if not p >= 1 or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    if p <= 2:
        return KhintchineConstant(p, 1.0)
    value = math.sqrt(2.0) * (math.gamma((p + 1) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)
    return KhintchineConstant(p, value)


def basis_configuration(dims: tuple[int, ...]) -> PairConfiguration:
    """All pairs ((e_j1, ..., e_jn), 0); the deltas are the full tensor basis."""
    if math.prod(dims) > BASIS_PRODUCT_CAP:
        raise ValueError(
            f"dimension product {math.prod(dims)} exceeds the basis cap {BASIS_PRODUCT_CAP}"
        )
    eyes = [np.eye(d) for d in dims]
    zero = SegrePoint.zero(dims)
    pairs = tuple(
        (SegrePoint(tuple(eyes[k][j] for k, j in enumerate(idx))), zero)
        for idx in product(*(range(d) for d in dims))
    )
    return PairConfiguration(pairs)


def basis_config_lower(op: MultilinearOperator, *, seed: int = 0) -> float:
    """Certified summing lower bound from the full basis configuration
    (HS ball, p = 2); equals hs_norm(T) because the basis denominator is 1."""
    _require_l2(op)
    cfg = basis_configuration(op.dims)
    rep = lower_bound_config(op, cfg, 2.0, "hs", seed=seed)
    return rep.certified_lower


def verify_sandwich(
    op: MultilinearOperator,
    p: float,
    budget: Budget | None = None,
    *,
    seed: int = 0,
) -> dict[str, Any]:
    """Check the coincidence sandwich at desk scale.

    Asserted, each within 1e-9 relative: basis_config_lower == hs_norm, and at
    p = 2 the HS-ball LP constant on a pairset containing the basis is >= hs_norm
    (the exponent-2 norm is the exact side of the sandwich).  For p != 2
    the LP constant and its comparison against B_p^n * hs_norm are recorded
    as diagnostics only.
    """
    _require_l2(op)
    budget = budget or Budget()
    hs = hs_norm(op)
    basis_lower = basis_config_lower(op, seed=seed)
    lower_ok = abs(basis_lower - hs) <= 1e-9 * max(hs, 1e-300)

    report: dict[str, Any] = {
        "hs_norm": hs,
        "basis_config_lower": basis_lower,
        "lower_side_ok": bool(lower_ok),
        "p": p,
    }
    if hs == 0.0:
        report.update({"lp_constant": 0.0, "lp_consistent": True, "ratio": math.nan,
                       "passed": bool(lower_ok)})
        return report

    cfg = basis_configuration(op.dims)
    pairs = list(cfg.pairs)
    rng = stream(seed, 12)
    for _ in range(4):
        u = SegrePoint(tuple(unit_vector(rng.standard_normal(d)) for d in op.dims))
        v = SegrePoint(tuple(unit_vector(rng.standard_normal(d)) for d in op.dims))
        pairs.append((u, v))
    pairset = PairConfiguration(tuple(pairs))
    dictionary = initial_dictionary(
        op, pairs[: budget.max_pairs], child_seed(seed, 13), budget.max_dictionary, "hs"
    )

    cert2 = pietsch_upper_lp(op, pairset, dictionary, 2.0, ball="hs")
    lp_consistent = cert2.constant >= hs - 1e-9 * hs
    report["lp_constant_p2"] = cert2.constant
    report["lp_consistent"] = bool(lp_consistent)
    report["ratio"] = cert2.constant / hs

    if p != 2.0:
        cert_p = pietsch_upper_lp(op, pairset, dictionary, p, ball="hs")
        bp = khintchine_constant(p).value
        report["lp_constant_p"] = cert_p.constant
        report["ratio_p"] = cert_p.constant / hs
        report["bp_power_n_bound"] = bp ** op.n * hs
        report["within_bp_bound"] = bool(cert_p.constant <= bp ** op.n * hs + 1e-9 * hs)

    report["passed"] = bool(lower_ok and lp_consistent)
    return report
