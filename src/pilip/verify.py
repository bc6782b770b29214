"""Randomized verification of every module-level invariant.

``run_all`` drives one seeded pass over the full property list; the CLI
`verify` subcommand wraps it.  Every check is deterministic given the
seed, and the emitted report is canonical JSON, so identical runs are
byte-identical.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from . import __version__
from .formnorm import config_denominator, denominator_upper, operator_norm
from .hilbert_schmidt import (
    basis_config_lower,
    hs_norm,
    khintchine_constant,
)
from .rng import child_seed, stream
from .summing import (
    Budget,
    estimate_pi_lip,
    initial_dictionary,
    lower_bound_config,
    pietsch_upper_lp,
)
from .tensor_norm import (
    MixedTensor,
    check_delta_epsilon_bound,
    dp_lower_dual,
    dp_upper,
)
from .tensors import (
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    elementary_tensor,
    eval_operator,
    flatten,
    unit_vector,
)

__all__ = ["run_all", "random_operator", "random_mixed", "random_pairs", "lambda_n"]

SMALL_BUDGET = Budget(restarts=16, max_pairs=10, max_dictionary=24, rounds=2,
                      adversarial_starts=6, ascent_iters=400)


def lambda_n(n: int) -> MultilinearOperator:
    """Scalar multiplication (z_1, ..., z_n) -> z_1 ... z_n."""
    return MultilinearOperator.from_array(np.ones((1,) * (n + 1)), NormSpec.all_l2(n))


def random_operator(
    dims: tuple[int, ...],
    m: int,
    rng: np.random.Generator,
    norms: NormSpec | None = None,
) -> MultilinearOperator:
    kernel = rng.standard_normal(tuple(dims) + (m,))
    return MultilinearOperator.from_array(kernel, norms or NormSpec.all_l2(len(dims)))


def random_mixed(
    dims: tuple[int, ...], m: int, rng: np.random.Generator, norms: NormSpec | None = None
) -> MixedTensor:
    return MixedTensor.from_array(
        rng.standard_normal(tuple(dims) + (m,)), norms or NormSpec.all_l2(len(dims))
    )


def random_pairs(
    dims: tuple[int, ...], count: int, rng: np.random.Generator, zero_fraction: float = 0.4
) -> PairConfiguration:
    pairs = []
    for _ in range(count):
        u = SegrePoint(tuple(unit_vector(rng.standard_normal(d)) for d in dims))
        if rng.random() < zero_fraction:
            v = SegrePoint.zero(dims)
        else:
            v = SegrePoint(tuple(unit_vector(rng.standard_normal(d)) for d in dims))
        pairs.append((u, v))
    return PairConfiguration(tuple(pairs))


def _orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


# ---------------------------------------------------------------------------
# property checks; each returns (passed, detail)
# ---------------------------------------------------------------------------


def _check_slot_linearity(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 3), 2, rng)
        x = [rng.standard_normal(d) for d in op.dims]
        for k in range(op.n):
            y = rng.standard_normal(op.dims[k])
            a, b = rng.standard_normal(2)
            mixed = list(x)
            mixed[k] = a * x[k] + b * y
            lhs = eval_operator(op, SegrePoint(tuple(mixed)))
            alt = list(x)
            alt[k] = y
            rhs = a * eval_operator(op, SegrePoint(tuple(x))) + b * eval_operator(
                op, SegrePoint(tuple(alt))
            )
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst <= 1e-10, {"worst_relative_error": worst}


def _check_elementary_rank_one(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    dims = (2, 3, 2)
    for i in range(trials):
        rng = stream(seed, i)
        x = SegrePoint(tuple(rng.standard_normal(d) for d in dims))
        t = elementary_tensor(x)
        for mask in range(1, 2 ** len(dims) - 1):
            rows = [j for j in range(len(dims)) if mask >> j & 1]
            cols = [j for j in range(len(dims)) if not mask >> j & 1]
            s = np.linalg.svd(flatten(t, (rows, cols)), compute_uv=False)
            if s[0] > 0 and len(s) > 1:
                worst = max(worst, float(s[1] / s[0]))
    return worst <= 1e-10, {"worst_sigma2_ratio": worst}


def _check_eval_matches_contraction(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2, 3), 2, rng)
        x = SegrePoint(tuple(rng.standard_normal(d) for d in op.dims))
        direct = eval_operator(op, x)
        et = elementary_tensor(x).array
        via_tensor = np.tensordot(et, op.kernel.array, axes=(tuple(range(op.n)),) * 2)
        scale = max(float(np.max(np.abs(direct))), 1.0)
        worst = max(worst, float(np.max(np.abs(direct - via_tensor))) / scale)
    return worst <= 1e-12, {"worst_relative_error": worst}


def _check_config_monotonicity(seed: int, trials: int) -> tuple[bool, dict]:
    """Brackets may only grow when a pair is added.  The extended run is
    seeded with the sub-configuration's maximizers, which makes the lower
    endpoints monotone by construction (a fixed form's objective is a sum
    over pairs)."""
    failures = 0
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        cfg = random_pairs((2, 2), 3, rng)
        extra = random_pairs((2, 2), 1, rng)
        ext = cfg.with_pairs(extra.pairs)
        for ball, p in (("hs", 2.0), ("op", 2.0)):
            a = config_denominator(cfg, p, ball, seed=child_seed(seed, 30, i), restarts=12)
            warm_lams = a.detail.get("rank_one_maximizer")
            warm_kernel = a.detail.get("full_kernel_candidate")
            b = config_denominator(
                ext, p, ball, seed=child_seed(seed, 30, i), restarts=12,
                extra_rank_one_starts=[warm_lams] if warm_lams is not None else None,
                extra_kernels=[warm_kernel] if warm_kernel is not None else None,
            )
            drop_up = a.certified_upper - b.certified_upper
            drop_lo = a.certified_lower - b.certified_lower
            worst = max(worst, drop_up, drop_lo)
            if drop_up > 1e-9 * max(a.certified_upper, 1.0) or drop_lo > 1e-9 * max(
                a.certified_lower, 1.0
            ):
                failures += 1
    return failures == 0, {"failures": failures, "worst_drop": worst}


def _check_ball_inclusion(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    for i in range(trials):
        rng = stream(seed, i)
        cfg = random_pairs((2, 2), 4, rng)
        hs = config_denominator(cfg, 2.0, "hs", seed=child_seed(seed, 31, i))
        op = config_denominator(cfg, 2.0, "op", seed=child_seed(seed, 31, i), restarts=12)
        # the search-free upper that prices estimate_pi_lip's lower end lies above the ascent's
        search_free = denominator_upper(cfg, 2.0, NormSpec.all_l2(2))[0]
        if (hs.certified_upper > op.certified_upper + 1e-9
                or op.certified_lower > search_free * (1 + 1e-12)):
            failures += 1
    return failures == 0, {"failures": failures}


def _check_lambda_norm(seed: int, trials: int) -> tuple[bool, dict]:
    values = {}
    ok = True
    for n in (2, 3, 4):
        rep = operator_norm(lambda_n(n), seed=seed)
        values[n] = (rep.certified_lower, rep.certified_upper)
        ok = ok and rep.certified_lower == 1.0 and rep.certified_upper == 1.0
    return ok, {"brackets": {str(k): v for k, v in values.items()}}


def _check_enumeration_vs_grid(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    spec = NormSpec((math.inf, math.inf), 2.0)
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 1, rng, spec)
        rep = operator_norm(op, seed=child_seed(seed, 32, i))
        grid = 0.0
        for su in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            for sv in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
                val = abs(
                    float(eval_operator(op, SegrePoint.of(su, sv))[0])
                )
                grid = max(grid, val)
        worst = max(worst, abs(rep.certified_upper - grid))
    return worst <= 1e-12, {"worst_gap": worst}


def _check_lp_soundness(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst_gap = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 1, rng)
        est = estimate_pi_lip(op, 2.0, SMALL_BUDGET, seed=child_seed(seed, 33, i))
        cert = est.detail["certificate"]
        if cert is None or not cert.feasible:
            failures += 1
            continue
        dual = cert.detail.get("dual_constant", math.nan)
        gap = abs(cert.constant - dual) / max(cert.constant, 1.0)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-7 or est.certified_lower > cert.constant + 1e-7:
            failures += 1
    return failures == 0, {"failures": failures, "worst_duality_gap": worst_gap}


def _check_inclusion(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = -math.inf
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 2, rng)
        cfg = random_pairs(op.dims, 5, rng)
        dictionary = initial_dictionary(op, list(cfg.pairs), child_seed(seed, 34, i), 24, "op")
        for p, q in ((1.0, 2.0), (2.0, 4.0)):
            cert = pietsch_upper_lp(op, cfg, dictionary, p)
            low_q = lower_bound_config(op, cfg, q, seed=child_seed(seed, 35, i), restarts=8)
            margin = low_q.certified_lower - cert.constant
            worst = max(worst, margin)
            if margin > 1e-7:
                failures += 1
    return failures == 0, {"failures": failures, "worst_margin": worst}


def _check_norm_domination(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = -math.inf
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 2, rng)
        est = estimate_pi_lip(op, 2.0, SMALL_BUDGET, seed=child_seed(seed, 36, i))
        norm_lower = est.detail["operator_norm"]["certified_lower"]
        margin = norm_lower - est.certified_upper
        worst = max(worst, margin)
        if margin > 1e-7:
            failures += 1
    return failures == 0, {"failures": failures, "worst_margin": worst}


def _check_composition(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = -math.inf
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 2, rng)
        mats = []
        for d in op.dims:
            s = rng.standard_normal((d, d))
            mats.append(s / np.linalg.svd(s, compute_uv=False)[0])
        r = rng.standard_normal((op.m, op.m))
        r /= np.linalg.svd(r, compute_uv=False)[0]
        composite_kernel = np.einsum(
            "cdk,ca,db,jk->abj", op.kernel.array, mats[0], mats[1], r
        )
        comp = MultilinearOperator.from_array(composite_kernel, op.norms)

        comp_cfg = random_pairs(comp.dims, 4, rng)
        mapped_pairs = tuple(
            (
                SegrePoint(tuple(m @ f for m, f in zip(mats, u.factors))),
                SegrePoint(tuple(m @ f for m, f in zip(mats, v.factors))),
            )
            for u, v in comp_cfg.pairs
        )
        mapped = PairConfiguration(mapped_pairs)
        dictionary = initial_dictionary(
            op, list(mapped.pairs), child_seed(seed, 37, i), 24, "op"
        )
        cert = pietsch_upper_lp(op, mapped, dictionary, 2.0)
        low = lower_bound_config(op=comp, cfg=comp_cfg, p=2.0,
                                 seed=child_seed(seed, 38, i), restarts=8)
        margin = low.certified_lower - cert.constant
        worst = max(worst, margin)
        if margin > 1e-6:
            failures += 1
    return failures == 0, {"failures": failures, "worst_margin": worst}


def _check_scalar_forms(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    for i in range(trials):
        rng = stream(seed, i)
        d = int(rng.integers(2, 4))
        op = random_operator((d, d), 1, rng)
        est = estimate_pi_lip(op, 2.0, SMALL_BUDGET, seed=child_seed(seed, 39, i))
        nrm = operator_norm(op, seed=child_seed(seed, 40, i))
        if est.certified_lower > nrm.certified_upper + 1e-9:
            failures += 1
        if est.certified_upper < nrm.certified_lower - 1e-9:
            failures += 1
    return failures == 0, {"failures": failures}


def _check_hs_rotation(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 3, 2), 2, rng)
        base = hs_norm(op)
        kernel = op.kernel.array
        for k in range(op.n):
            q = _orthogonal(op.dims[k], rng)
            rotated = np.moveaxis(
                np.tensordot(q, np.moveaxis(kernel, k, 0), axes=(1, 0)), 0, k
            )
            rot = MultilinearOperator.from_array(rotated, op.norms)
            worst = max(worst, abs(hs_norm(rot) - base) / base)
    return worst <= 1e-10, {"worst_relative_change": worst}


def _check_basis_equals_hs(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
        op = random_operator(dims, int(rng.integers(1, 4)), rng)
        hs = hs_norm(op)
        if hs == 0:
            continue
        worst = max(worst, abs(basis_config_lower(op, seed=child_seed(seed, 41, i)) - hs) / hs)
    return worst <= 1e-9, {"worst_relative_error": worst}


def _check_norm_below_hs(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2, 2), 2, rng)
        nrm = operator_norm(op, seed=child_seed(seed, 42, i), restarts=16)
        if nrm.certified_lower > hs_norm(op) + 1e-9:
            failures += 1
    return failures == 0, {"failures": failures}


def _check_khintchine(seed: int, trials: int) -> tuple[bool, dict]:
    ps = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]
    values = [khintchine_constant(p).value for p in ps]
    monotone = all(values[i] <= values[i + 1] + 1e-15 for i in range(len(values) - 1))
    at_two = khintchine_constant(2.0).value == 1.0
    at_least_one = all(v >= 1.0 for v in values)
    return monotone and at_two and at_least_one, {"values": dict(zip(map(str, ps), values))}


def _check_weak_duality(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = -math.inf
    for i in range(trials):
        rng = stream(seed, i)
        z = random_mixed((2, 2), 2, rng)
        up = dp_upper(z, 2.0, seed=child_seed(seed, 43, i))
        low = dp_lower_dual(z, 2.0, seed=child_seed(seed, 44, i))
        margin = low.certified_lower - up.certified_upper
        worst = max(worst, margin)
        # dp_upper's skip rule: the floor of the representation it returns lies below its value
        floor = up.detail["representation"].value_floor(z.norms) * z.kernel.frobenius()
        if margin > 1e-7 or floor > up.certified_upper * (1 + 1e-12):
            failures += 1
    return failures == 0, {"failures": failures, "worst_margin": worst}


def _check_dp_triangle(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = -math.inf
    for i in range(trials):
        rng = stream(seed, i)
        z1 = random_mixed((2, 2), 2, rng)
        z2 = random_mixed((2, 2), 2, rng)
        zs = MixedTensor.from_array(z1.kernel.array + z2.kernel.array, z1.norms)
        u1 = dp_upper(z1, 2.0, seed=child_seed(seed, 45, i)).certified_upper
        u2 = dp_upper(z2, 2.0, seed=child_seed(seed, 45, i)).certified_upper
        us = dp_upper(zs, 2.0, seed=child_seed(seed, 45, i)).certified_upper
        margin = us - (u1 + u2)
        worst = max(worst, margin)
        if margin > 1e-6:
            failures += 1
    return failures == 0, {"failures": failures, "worst_margin": worst}


def _check_dp_crossnorm(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        y = rng.standard_normal(2)
        z = MixedTensor.from_array(
            np.multiply.outer(np.outer(a, b), y), NormSpec.all_l2(2)
        )
        up = dp_upper(z, 2.0, seed=child_seed(seed, 46, i)).certified_upper
        low = dp_lower_dual(z, 2.0, seed=child_seed(seed, 47, i)).certified_lower
        target = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(y)
        width = (up - low) / target
        worst = max(worst, width)
        if up < low - 1e-9 or width > 0.05:
            failures += 1
    return failures == 0, {"failures": failures, "worst_relative_width": worst}


def _check_dp_homogeneity(seed: int, trials: int) -> tuple[bool, dict]:
    worst = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        z = random_mixed((2, 2), 2, rng)
        t = float(rng.uniform(0.1, 10.0))
        zt = MixedTensor.from_array(t * z.kernel.array, z.norms)
        u1 = dp_upper(z, 2.0, seed=child_seed(seed, 48, i)).certified_upper
        u2 = dp_upper(zt, 2.0, seed=child_seed(seed, 48, i)).certified_upper
        worst = max(worst, abs(u2 - t * u1) / max(t * u1, 1e-30))
    return worst <= 1e-6, {"worst_relative_error": worst}


def _check_delta_epsilon(seed: int, trials: int) -> tuple[bool, dict]:
    failures = 0
    worst = math.inf
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 2, rng)
        cfg = random_pairs(op.dims, 4, rng)
        report = check_delta_epsilon_bound(op, cfg, 2.0, SMALL_BUDGET, seed=child_seed(seed, 49, i))
        worst = min(worst, report["margin"])
        if not report["passed"]:
            failures += 1
    return failures == 0, {"failures": failures, "worst_margin": worst}


def _fj_weight_diagnostic(seed: int, trials: int) -> tuple[bool, dict]:
    """Open-question diagnostic: weighted vs unweighted configuration lower
    bounds; records the observed gap, asserts nothing."""
    gap = 0.0
    for i in range(trials):
        rng = stream(seed, i)
        op = random_operator((2, 2), 1, rng)
        cfg = random_pairs(op.dims, 4, rng)
        weighted = cfg.reweighted(tuple(float(w) for w in rng.uniform(0.2, 5.0, len(cfg))))
        lo_u = lower_bound_config(op, cfg, 2.0, seed=child_seed(seed, 50, i), restarts=8)
        lo_w = lower_bound_config(op, weighted, 2.0, seed=child_seed(seed, 50, i), restarts=8)
        gap = max(gap, lo_w.certified_lower - lo_u.certified_lower)
    return True, {"max_weighted_minus_unweighted": gap, "asserted": False}


PROPERTIES: list[tuple[str, Callable[[int, int], tuple[bool, dict]], int]] = [
    ("tensor_core/slot_linearity", _check_slot_linearity, 10),
    ("tensor_core/elementary_rank_one", _check_elementary_rank_one, 10),
    ("tensor_core/eval_matches_contraction", _check_eval_matches_contraction, 10),
    ("form_norm/config_monotonicity", _check_config_monotonicity, 6),
    ("form_norm/ball_inclusion", _check_ball_inclusion, 8),
    ("form_norm/lambda_n_unit_norm", _check_lambda_norm, 1),
    ("form_norm/enumeration_equals_sign_grid", _check_enumeration_vs_grid, 8),
    ("summing/lp_soundness_and_duality_gap", _check_lp_soundness, 5),
    ("summing/inclusion_theorem", _check_inclusion, 6),
    ("summing/norm_domination", _check_norm_domination, 5),
    ("summing/composition_bound", _check_composition, 5),
    ("summing/scalar_form_bracket", _check_scalar_forms, 5),
    ("hilbert_schmidt/rotation_invariance", _check_hs_rotation, 6),
    ("hilbert_schmidt/basis_equals_hs", _check_basis_equals_hs, 10),
    ("hilbert_schmidt/operator_norm_below_hs", _check_norm_below_hs, 8),
    ("hilbert_schmidt/khintchine_monotone", _check_khintchine, 1),
    ("tensor_norm/weak_duality", _check_weak_duality, 6),
    ("tensor_norm/triangle_inequality", _check_dp_triangle, 5),
    ("tensor_norm/elementary_crossnorm_bracket", _check_dp_crossnorm, 6),
    ("tensor_norm/homogeneity", _check_dp_homogeneity, 4),
    ("tensor_norm/delta_epsilon_finitary", _check_delta_epsilon, 5),
    ("open_question/farmer_johnson_weight_gap", _fj_weight_diagnostic, 4),
]


def run_all(seed: int = 0, trials: int = 50) -> dict[str, Any]:
    """Run every property check; the report is deterministic given (seed, trials)."""
    results = []
    all_passed = True
    for idx, (name, func, cap) in enumerate(PROPERTIES):
        n = max(1, min(cap, trials))
        passed, detail = func(child_seed(seed, 60, idx), n)
        all_passed = all_passed and passed
        results.append({"property": name, "trials": n, "passed": bool(passed),
                        "detail": detail})
    return {
        "version": __version__,
        "seed": seed,
        "trials": trials,
        "passed": bool(all_passed),
        "properties": results,
    }
