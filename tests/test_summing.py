import math

import numpy as np
import pytest

from pilip.formnorm import operator_norm
from pilip.rng import stream
from pilip.summing import (
    Budget,
    build_factorization,
    estimate_pi_lip,
    estimate_pi_lip_poly,
    initial_dictionary,
    lower_bound_config,
    pietsch_upper_lp,
    restrict_operator,
)
from pilip.tensors import (
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    eval_operator,
)
from pilip.verify import lambda_n, random_operator, random_pairs

FAST = Budget(restarts=16, max_pairs=10, max_dictionary=24, rounds=2,
              adversarial_starts=6, ascent_iters=400)


# --------------------------------------------------------------------------
# lower_bound_config
# --------------------------------------------------------------------------


def test_lower_lambda2_unit():
    cfg = PairConfiguration(
        ((SegrePoint.of([1.0], [1.0]), SegrePoint.of([0.0], [0.0])),)
    )
    rep = lower_bound_config(lambda_n(2), cfg, 2.0)
    np.testing.assert_allclose(rep.certified_lower, 1.0, rtol=1e-12)


def test_lower_zero_operator():
    cfg = random_pairs((2, 2), 3, stream(0))
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 1)))
    assert lower_bound_config(zero, cfg, 2.0).certified_upper == 0.0


def test_lower_identity_form_basis_cfg_sqrt2():
    # N = sqrt(2) by direct evaluation over the four basis pairs, D = 1 (SVD)
    eye = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    e = np.eye(2)
    zero = SegrePoint.zero((2, 2))
    cfg = PairConfiguration(
        tuple((SegrePoint((e[i], e[j])), zero) for i in range(2) for j in range(2))
    )
    rep = lower_bound_config(eye, cfg, 2.0, "hs")
    np.testing.assert_allclose(rep.certified_lower, math.sqrt(2.0), rtol=1e-12)


def test_lower_requires_matching_dims():
    cfg = random_pairs((2, 3), 2, stream(1))
    eye = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    with pytest.raises(Exception):
        lower_bound_config(eye, cfg, 2.0)


# --------------------------------------------------------------------------
# pietsch_upper_lp
# --------------------------------------------------------------------------


def test_lp_single_form_dictionary_gives_norm():
    rng = stream(2)
    A = rng.standard_normal((2, 2))
    phi = MultilinearOperator.from_array(A[:, :, None])
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    pairs = random_pairs((2, 2), 5, rng)
    cert = pietsch_upper_lp(phi, pairs, [phi], 2.0)
    # oracle: with the normalized form alone, every ratio is sigma^p
    t = [abs(float(eval_operator(phi, u)[0] - eval_operator(phi, v)[0])) for u, v in pairs.pairs]
    s = [abs(float(eval_operator(phi, u)[0] - eval_operator(phi, v)[0])) / sigma for u, v in pairs.pairs]
    oracle = max(ti / si for ti, si in zip(t, s) if si > 0)
    np.testing.assert_allclose(cert.constant, oracle, rtol=1e-9)
    np.testing.assert_allclose(cert.constant, sigma, rtol=1e-9)


def test_lp_zero_operator():
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 1)))
    cfg = random_pairs((2, 2), 3, stream(3))
    eye_form = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    cert = pietsch_upper_lp(zero, cfg, [eye_form], 2.0)
    assert cert.constant == 0.0


def test_lp_lambda2_p1():
    lam = lambda_n(2)
    cfg = PairConfiguration(
        ((SegrePoint.of([1.0], [1.0]), SegrePoint.of([0.0], [0.0])),)
    )
    cert = pietsch_upper_lp(lam, cfg, [lam], 1.0)
    np.testing.assert_allclose(cert.constant, 1.0, rtol=1e-9)


def test_lp_certificate_invariants():
    rng = stream(4)
    op = random_operator((2, 2), 2, rng)
    cfg = random_pairs((2, 2), 5, rng)
    dictionary = initial_dictionary(op, list(cfg.pairs), 11, 16, "op")
    cert = pietsch_upper_lp(op, cfg, dictionary, 2.0)
    assert cert.feasible
    assert abs(sum(cert.weights) - 1.0) <= 1e-12
    # domination holds on every pair by construction
    scale = max(
        float(np.linalg.norm(eval_operator(op, u) - eval_operator(op, v)))
        for u, v in cfg.pairs
    )
    assert cert.domination_margin(op) <= 1e-9 * max(scale, 1.0)
    # strong duality: the weighted-configuration value matches
    dual = cert.detail["dual_constant"]
    assert abs(cert.constant - dual) <= 1e-7 * max(1.0, cert.constant)


def test_lp_infeasible_when_dictionary_cannot_cover():
    # a form vanishing on the pair's delta cannot dominate it
    op = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    u = SegrePoint.of([1.0, 0.0], [1.0, 0.0])
    cfg = PairConfiguration(((u, SegrePoint.zero((2, 2))),))
    blind = MultilinearOperator.from_array(np.array([[0.0, 0.0], [0.0, 1.0]])[:, :, None])
    cert = pietsch_upper_lp(op, cfg, [blind], 2.0)
    assert not cert.feasible
    assert math.isinf(cert.constant)


def test_lp_rejects_vector_valued_dictionary():
    op = random_operator((2, 2), 1, stream(5))
    cfg = random_pairs((2, 2), 2, stream(6))
    with pytest.raises(ValueError):
        pietsch_upper_lp(op, cfg, [random_operator((2, 2), 2, stream(7))], 2.0)


# --------------------------------------------------------------------------
# estimate_pi_lip
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_estimate_lambda_bracket(n, p):
    rep = estimate_pi_lip(lambda_n(n), p, FAST, seed=1)
    assert rep.certified_lower <= 1.0 + 1e-9 <= rep.certified_upper + 2e-9
    assert rep.certified_upper - rep.certified_lower <= 0.05


def test_estimate_scalar_form_contains_norm():
    rng = stream(8)
    A = rng.standard_normal((2, 2))
    phi = MultilinearOperator.from_array(A[:, :, None])
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    rep = estimate_pi_lip(phi, 2.0, FAST, seed=2)
    assert rep.certified_lower <= sigma * (1 + 1e-9)
    assert rep.certified_upper >= sigma * (1 - 1e-9)


def test_estimate_zero_operator():
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 2)))
    rep = estimate_pi_lip(zero, 2.0, FAST, seed=3)
    assert rep.certified_lower == rep.certified_upper == 0.0


def test_estimate_hs_ball_variant_runs():
    op = random_operator((2, 2), 2, stream(9))
    rep = estimate_pi_lip(op, 2.0, FAST, seed=4, ball="hs")
    assert rep.certified_lower <= rep.certified_upper + 1e-9
    assert rep.detail["certificate"].ball == "hs"


def test_estimate_hs_ball_p2_upper_is_frobenius():
    # over the HS ball at p = 2 the norm coincides with the Frobenius norm,
    # so the upper end of the bracket is certified and exact
    from pilip.hilbert_schmidt import basis_configuration, hs_norm

    op = random_operator((2, 2), 2, stream(19))
    basis = basis_configuration(op.dims)
    rep = estimate_pi_lip(op, 2.0, FAST, seed=14, ball="hs",
                          initial_pairs=list(basis.pairs))
    np.testing.assert_allclose(rep.certified_upper, hs_norm(op), rtol=1e-15)
    np.testing.assert_allclose(rep.certified_lower, hs_norm(op), rtol=1e-9)
    assert "certified-upper" in rep.method


def test_estimate_weighted_initial_pairs_supported():
    op = random_operator((2, 2), 1, stream(10))
    pairs = random_pairs((2, 2), 3, stream(11))
    rep = estimate_pi_lip(op, 2.0, FAST, seed=5, initial_pairs=list(pairs.pairs))
    assert rep.certified_upper >= rep.certified_lower >= 0


def test_estimate_linear_map_recovers_hilbert_schmidt():
    # classical cross-check: for a linear map between l2 spaces the summing
    # norm at p = 2 is the Hilbert-Schmidt norm; the bracket should collapse
    # onto it once the basis pairs are supplied
    from pilip.hilbert_schmidt import basis_configuration, hs_norm

    budget = Budget(restarts=16, max_pairs=16, max_dictionary=32, rounds=4)
    for i in range(4):
        A = stream(300 + i).standard_normal((2, 2))
        op = MultilinearOperator.from_array(A)
        hs = hs_norm(op)
        basis = basis_configuration(op.dims)
        est = estimate_pi_lip(op, 2.0, budget, seed=i, initial_pairs=list(basis.pairs))
        np.testing.assert_allclose(est.certified_lower, hs, rtol=1e-9)
        np.testing.assert_allclose(est.certified_upper, hs, rtol=1e-6)


# --------------------------------------------------------------------------
# factorization
# --------------------------------------------------------------------------


def test_factorization_lambda2_constant_one():
    lam = lambda_n(2)
    est = estimate_pi_lip(lam, 2.0, FAST, seed=6)
    cert = est.detail["certificate"]
    samples = [SegrePoint.of([0.3], [1.7]), SegrePoint.of([1.0], [1.0])]
    bundle = build_factorization(cert, samples, lam)
    np.testing.assert_allclose(bundle.lipschitz_constant, 1.0, rtol=1e-9)
    # h(j_p(x)) reproduces T(x) on every sample by construction
    for x, value in zip(bundle.samples, bundle.values):
        np.testing.assert_allclose(value, eval_operator(lam, x))


def test_factorization_zero_operator():
    zero = MultilinearOperator.from_array(np.zeros((1, 1, 1)))
    cfg = PairConfiguration(
        ((SegrePoint.of([1.0], [1.0]), SegrePoint.of([0.0], [0.0])),)
    )
    lam = lambda_n(2)
    cert = pietsch_upper_lp(zero, cfg, [lam], 2.0)
    bundle = build_factorization(cert, [SegrePoint.of([1.0], [2.0])], zero)
    assert bundle.lipschitz_constant == 0.0


def test_factorization_scalar_self_dictionary():
    rng = stream(12)
    A = rng.standard_normal((2, 2))
    phi = MultilinearOperator.from_array(A[:, :, None])
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    pairs = random_pairs((2, 2), 4, rng)
    cert = pietsch_upper_lp(phi, pairs, [phi], 2.0)
    bundle = build_factorization(cert, [u for u, _ in pairs.pairs], phi)
    assert all(img.shape == (1,) for img in bundle.images)  # one-dimensional j_p
    np.testing.assert_allclose(bundle.lipschitz_constant, sigma, rtol=1e-9)


def test_factorization_rejects_infeasible():
    op = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    u = SegrePoint.of([1.0, 0.0], [1.0, 0.0])
    cfg = PairConfiguration(((u, SegrePoint.zero((2, 2))),))
    blind = MultilinearOperator.from_array(np.array([[0.0, 0.0], [0.0, 1.0]])[:, :, None])
    cert = pietsch_upper_lp(op, cfg, [blind], 2.0)
    with pytest.raises(ValueError):
        build_factorization(cert, [u], op)


def test_factorization_lipschitz_bounded_by_constant():
    # the domination inequality is exactly the Lipschitz bound for h on j_p
    for i in range(6):
        rng = stream(40 + i)
        op = random_operator((2, 2), 2, rng)
        cfg = random_pairs((2, 2), 5, rng)
        dictionary = initial_dictionary(op, list(cfg.pairs), 17 + i, 16, "op")
        cert = pietsch_upper_lp(op, cfg, dictionary, 2.0)
        bundle = build_factorization(cert, [u for u, _ in cfg.pairs[:3]], op)
        assert bundle.lipschitz_constant <= cert.constant + 1e-9


def test_quotient_violation_detected():
    # certificate solved for pairs the blind form can handle; samples that
    # it collapses while T separates get flagged
    op = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    e2 = SegrePoint.of([0.0, 1.0], [0.0, 1.0])
    cfg = PairConfiguration(((e2, SegrePoint.zero((2, 2))),))
    blind = MultilinearOperator.from_array(np.array([[0.0, 0.0], [0.0, 1.0]])[:, :, None])
    cert = pietsch_upper_lp(op, cfg, [blind], 2.0)
    assert cert.feasible
    e1 = SegrePoint.of([1.0, 0.0], [1.0, 0.0])
    bundle = build_factorization(cert, [e1, SegrePoint.zero((2, 2))], op)
    assert bundle.quotient_violations == ((0, 1),)


# --------------------------------------------------------------------------
# restriction
# --------------------------------------------------------------------------


def test_restrict_lambda2_gives_identity():
    restricted = restrict_operator(lambda_n(2), {1: np.array([1.0])})
    assert restricted.n == 1
    rep = operator_norm(restricted)
    assert rep.certified_lower == rep.certified_upper == 1.0


def test_restrict_zero_vector_gives_zero_operator():
    op = random_operator((2, 3, 2), 2, stream(13))
    restricted = restrict_operator(op, {1: np.zeros(3)})
    assert not np.any(restricted.kernel.data)


def test_restrict_hand_contraction():
    B = MultilinearOperator.from_array(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
    restricted = restrict_operator(B, {0: np.array([1.0, 0.0])})
    np.testing.assert_array_equal(restricted.kernel.array.ravel(), [1.0, 2.0])


def test_restrict_rejects_fixing_everything():
    with pytest.raises(ValueError):
        restrict_operator(lambda_n(2), {0: np.array([1.0]), 1: np.array([1.0])})
    with pytest.raises(ValueError):
        restrict_operator(lambda_n(2), {})


def test_restriction_norm_bound_property():
    # certified lower of the restriction <= ||x0|| * parent LP constant
    rng = stream(14)
    op = random_operator((2, 2, 2), 2, rng)
    x0 = rng.standard_normal(2)
    x0 /= np.linalg.norm(x0)
    restricted = restrict_operator(op, {0: x0})
    r_cfg = random_pairs((2, 2), 4, rng)
    lifted = PairConfiguration(
        tuple(
            (SegrePoint((x0,) + u.factors), SegrePoint((x0,) + v.factors))
            for u, v in r_cfg.pairs
        )
    )
    dictionary = initial_dictionary(op, list(lifted.pairs), 15, 16, "op")
    cert = pietsch_upper_lp(op, lifted, dictionary, 2.0)
    low = lower_bound_config(restricted, r_cfg, 2.0, seed=16, restarts=8)
    assert low.certified_lower <= cert.constant + 1e-6


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_poly_power_bracket_contains_one(n):
    # P(z) = z^n on R; grid-search oracle confirms the constant is 1
    lam = lambda_n(n)
    grid = np.linspace(-1, 1, 201)
    best = 0.0
    for u in grid:
        for v in grid:
            num = abs(u**n - v**n)
            den = abs(u**n - v**n)  # sup over |alpha| <= 1 of |alpha||u^n - v^n|
            if den > 1e-12:
                best = max(best, num / den)
    assert best == 1.0
    rep = estimate_pi_lip_poly(lam, 2.0, FAST, seed=7)
    assert rep.certified_lower <= 1.0 + 1e-9
    assert rep.certified_upper >= 1.0 - 1e-9
    assert rep.certified_upper - rep.certified_lower <= 0.05


def test_poly_zero():
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 1)))
    rep = estimate_pi_lip_poly(zero, 2.0, FAST, seed=8)
    assert rep.certified_upper == 0.0


def test_poly_diagonal_e1_bracket_contains_one():
    # P(a) = (a_1^n, 0, 0) from linf^3 into l2^3: single-coordinate reduction
    d, n = 3, 2
    kern = np.zeros((d, d, d))
    kern[0, 0, 0] = 1.0
    P = MultilinearOperator.from_array(kern, NormSpec((math.inf,) * n, 2.0))
    rep = estimate_pi_lip_poly(P, 2.0, FAST, seed=9)
    assert rep.certified_lower <= 1.0 + 1e-9
    assert rep.certified_upper >= 1.0 - 1e-9
    assert rep.certified_upper - rep.certified_lower <= 0.05


def test_poly_rejects_asymmetric_kernel():
    kern = np.zeros((2, 2, 1))
    kern[0, 1, 0] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        estimate_pi_lip_poly(MultilinearOperator.from_array(kern), 2.0, FAST)


# --------------------------------------------------------------------------
# budget validation
# --------------------------------------------------------------------------


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        Budget(restarts=0)
