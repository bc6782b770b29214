import math

import numpy as np
import pytest

from conftest import assert_covers_four_trial_rounds

from pilip.bounds import BoundReport
from pilip.formnorm import operator_norm, slot_gradient
from pilip import formnorm, summing
from pilip.rng import stream
from pilip.simplex import SimplexResult, solve_lp
from pilip.summing import (
    Budget,
    PietschCertificate,
    _violation_search,
    build_factorization,
    estimate_pi_lip,
    estimate_pi_lip_poly,
    initial_dictionary,
    lower_bound_config,
    pietsch_upper_lp,
    restrict_operator,
    symmetrize_kernel,
)
from pilip.tensors import (
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    dual_exponent,
    dual_norming_vector,
    elementary_tensor,
    eval_operator,
    project_to_ball,
    vector_norm,
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


def test_lower_of_a_huge_operator_is_finite():
    # T2 times 1e90 at p = 4: ||T(u) - T(v)||^4 is about 1e360, above the doubles
    t2 = random_operator((3, 3), 2, stream(0, 1))
    cfg = random_pairs((3, 3), 4, stream(0, 2))
    huge = MultilinearOperator.from_array(t2.kernel.array * 1e90, t2.norms)
    rep = lower_bound_config(huge, cfg, 4.0)
    assert math.isfinite(rep.certified_lower)
    # N is 1-homogeneous in T and D does not depend on T
    ref = lower_bound_config(t2, cfg, 4.0)
    assert rep.certified_lower == pytest.approx(1e90 * ref.certified_lower, rel=1e-12)
    assert rep.certified_upper == pytest.approx(1e90 * ref.certified_upper, rel=1e-12)


def test_lower_raises_on_a_zero_denominator_upper(monkeypatch):
    monkeypatch.setattr(summing, "config_denominator",
                        lambda *args, **kwargs: BoundReport(0.0, 0.0, method="broken"))
    cfg = random_pairs((2, 2), 3, stream(0))
    with pytest.raises(RuntimeError, match="numerical failure"):
        lower_bound_config(random_operator((2, 2), 2, stream(1)), cfg, 2.0)


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


def test_rank_one_form_enters_the_lp_as_made():
    # a generic (l-inf, l2) rank-one form has exact norm 1 after _unit_rank_one; operator_norm's
    # search-free upper is larger, and the LP must not shrink the form by it
    norms = NormSpec((math.inf, 2.0), 2.0)
    rng = stream(0, 45)
    form = summing._unit_rank_one([rng.standard_normal(2), rng.standard_normal(3)], norms, "op")
    assert operator_norm(form, restarts=0).certified_upper > 1.0 + 1e-12
    op = random_operator((2, 3), 2, rng, norms)
    cert = pietsch_upper_lp(op, random_pairs((2, 3), 4, rng), [form], 2.0)
    assert cert.dictionary[0] is form


def test_raw_form_is_divided_by_its_certified_scale():
    # a form of certified norm 0.5 is scaled up to its unit multiple, not left as it is
    unit = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    half = MultilinearOperator.from_array(0.5 * np.eye(2)[:, :, None])
    op = random_operator((2, 2), 2, stream(0, 46))
    cfg = random_pairs((2, 2), 5, stream(0, 47))
    cert, ref = (pietsch_upper_lp(op, cfg, [f], 2.0) for f in (half, unit))
    assert np.array_equal(cert.dictionary[0].kernel.data, unit.kernel.data)
    assert cert.constant == ref.constant


def test_estimate_prices_each_form_once(monkeypatch):
    # operator_norm(., restarts=0) runs once per form made without a given scale (rank-one
    # forms bring their exact one), and never inside the Pietsch LP
    priced, made, in_lp = [], [], []
    real_norm, real_unit, real_lp = summing.operator_norm, summing._unit_form, pietsch_upper_lp

    def norm_spy(op, **kwargs):
        if kwargs.get("restarts") == 0:
            priced.append(op)
        return real_norm(op, **kwargs)

    def unit_spy(form, ball, scale=None):
        out = real_unit(form, ball, scale)
        if out is not form and scale is None:
            made.append(out)
        return out

    def lp_spy(*args, **kwargs):
        before = len(priced)
        cert = real_lp(*args, **kwargs)
        in_lp.append(len(priced) - before)
        return cert

    monkeypatch.setattr(summing, "operator_norm", norm_spy)
    monkeypatch.setattr(summing, "_unit_form", unit_spy)
    monkeypatch.setattr(summing, "pietsch_upper_lp", lp_spy)
    op = random_operator((2, 3), 2, stream(0, 44), NormSpec((math.inf, 2.0), 2.0))
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2)
    rep = estimate_pi_lip(op, 2.0, budget, seed=0)
    assert rep.detail["rounds"] == 2 and in_lp == [0, 0]
    assert len(priced) == len(made) > 0
    assert not any(isinstance(f, summing._UnitForm) for f in priced)


@pytest.mark.parametrize(
    "solve",
    [
        lambda *args, **kwargs: SimplexResult("iteration_limit", None, math.nan),
        lambda *args, **kwargs: SimplexResult("unbounded", None, math.nan),
        lambda *args, **kwargs: solve_lp(*args, **kwargs, maxiter=1),
    ],
    ids=["iteration_limit", "unbounded", "maxiter=1"],
)
def test_solver_failure_is_never_infeasibility(monkeypatch, solve):
    monkeypatch.setattr(summing, "solve_lp", solve)
    rng = stream(4)
    op = random_operator((2, 2), 2, rng)
    cfg = random_pairs((2, 2), 5, rng)
    dictionary = initial_dictionary(op, list(cfg.pairs), 11, 16, "op")
    with pytest.raises(RuntimeError, match="Pietsch LP"):
        pietsch_upper_lp(op, cfg, dictionary, 2.0)
    with pytest.raises(RuntimeError, match="Pietsch LP"):
        estimate_pi_lip_poly(lambda_n(2), 2.0, FAST, seed=7)


class _LPSpy:
    """Counts solve_lp calls and keeps every (S, t) table with its solution."""

    def __init__(self, monkeypatch):
        self.solves, self.tables = 0, []

        def solve(*args, **kwargs):
            self.solves += 1
            return solve_lp(*args, **kwargs)

        def pietsch_lp(S, t):
            out = real_pietsch_lp(S, t)
            self.tables.append((S, t, out))
            return out

        real_pietsch_lp = summing._pietsch_lp
        monkeypatch.setattr(summing, "solve_lp", solve)
        monkeypatch.setattr(summing, "_pietsch_lp", pietsch_lp)


def _highs_c_p(S, t):
    """min sum v  s.t.  S v >= t, v >= 0 on the active pairs: c^p, by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    active = t > 1e-15 * np.max(t)
    Sa, ta = S[active], t[active]
    res = linprog(np.ones(S.shape[1]), A_ub=-Sa / ta[:, None], b_ub=-np.ones(len(ta)),
                  method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("norms,m,stream_id", [(None, 2, 40), (NormSpec((1.0, math.inf), 1.0), 3, 43)])
def test_pietsch_lp_matches_highs_with_one_solve(monkeypatch, norms, m, stream_id):
    # the instances of test_estimate_pi_lip_pinned_values: two rounds, two LPs
    pytest.importorskip("scipy")
    spy = _LPSpy(monkeypatch)
    certs = []
    real_upper = summing.pietsch_upper_lp

    def upper(*args, **kwargs):
        certs.append(real_upper(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(summing, "pietsch_upper_lp", upper)
    op = random_operator((2, 2), m, stream(0, stream_id), norms)
    estimate_pi_lip(op, 2.0, Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2), seed=0)
    assert len(certs) == 2 and spy.solves == len(certs) == len(spy.tables)
    for (S, t, (c_p, dual, w, lam, reason)), cert in zip(spy.tables, certs):
        assert reason is None and cert.feasible
        assert abs(c_p - _highs_c_p(S, t)) <= 1e-9 * c_p
        assert abs(cert.constant - cert.detail["dual_constant"]) <= 1e-9 * cert.constant
        assert cert.domination_margin(op) <= 1e-12 * cert.constant


@pytest.mark.parametrize("norms,m,stream_id", [(None, 2, 40), (NormSpec((1.0, math.inf), 1.0), 3, 43)])
def test_pinned_pietsch_constants_match_highs_to_1e_12(monkeypatch, norms, m, stream_id):
    # every LP of the pinned instances: the constant recomputed from the
    # multipliers is the LP optimum, not a tolerance above it
    pytest.importorskip("scipy")
    spy = _LPSpy(monkeypatch)
    op = random_operator((2, 2), m, stream(0, stream_id), norms)
    estimate_pi_lip(op, 2.0, Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2), seed=0)
    assert len(spy.tables) == 2
    for S, t, (c_p, dual, w, lam, reason) in spy.tables:
        highs = _highs_c_p(S, t) ** 0.5
        assert abs(c_p ** 0.5 - highs) <= 1e-12 * highs


@pytest.mark.parametrize("seed", [0, 1])
def test_poly_lp_matches_highs_with_one_solve(monkeypatch, seed):
    pytest.importorskip("scipy")
    spy = _LPSpy(monkeypatch)
    kernel = symmetrize_kernel(stream(seed, 6).standard_normal((3, 3, 1)))
    rep = estimate_pi_lip_poly(MultilinearOperator.from_array(kernel), 2.0, FAST, seed=seed)
    assert spy.solves == len(spy.tables) == 1
    S, t, (c_p, dual, w, lam, reason) = spy.tables[0]
    assert reason is None and rep.certified_upper == c_p ** 0.5
    assert abs(c_p - _highs_c_p(S, t)) <= 1e-9 * c_p
    assert abs(c_p - dual) <= 1e-9 * c_p


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


@pytest.mark.parametrize(
    "norms,dims,m,expected",
    [
        (None, (2, 2), 2, [2.645348304368268, 2.7581849530849714]),
        (NormSpec((1.0, math.inf), 1.0), (2, 2), 3, [6.700912154033279, 7.205296846901654]),
        # its rank-one forms enter the LP at their exact scale, which the relaxed operator norm
        # of an l-inf slot would shrink by up to sqrt(2)
        (NormSpec((math.inf, 2.0), 2.0), (2, 3), 2, [3.9880584233210747, 4.544205847335004]),
    ],
)
def test_estimate_pi_lip_pinned_values(norms, dims, m, expected):
    # each runs a violation search (two rounds): its result feeds the second LP
    stream_id = 40 if norms is None else 43 if norms.codomain == 1.0 else 44
    op = random_operator(dims, m, stream(0, stream_id), norms)
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2)
    rep = estimate_pi_lip(op, 2.0, budget, seed=0)
    assert rep.detail["rounds"] == 2
    assert repr([rep.certified_lower, rep.certified_upper]) == repr(expected)


@pytest.mark.parametrize("ball", ["op", "hs"])
def test_estimate_prices_its_lower_end_without_a_denominator_search(monkeypatch, ball):
    # every lower candidate is priced N / denominator_upper, and no config_denominator runs;
    # rank_one_maximizer grows the op-ball dictionary once after every round but the last,
    # and never runs on the HS ball, which has no rank-one maximizer to add
    def forbidden(*args, **kwargs):
        raise AssertionError("lower candidates are priced without a search")

    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    real = summing.rank_one_maximizer
    monkeypatch.setattr(summing, "lower_bound_config", forbidden)
    monkeypatch.setattr(summing, "config_denominator", forbidden)
    monkeypatch.setattr(summing, "rank_one_maximizer", spy)
    op = random_operator((2, 2), 2, stream(0, 40))
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=3)
    rep = estimate_pi_lip(op, 2.0, budget, seed=0, ball=ball)
    assert rep.detail["rounds"] >= 2
    assert len(calls) == (rep.detail["rounds"] - 1 if ball == "op" else 0)
    assert rep.certified_lower > 0


def test_estimate_on_scalar_dims_grows_no_rank_one_maximizer(monkeypatch):
    # every form on scalar factor spaces is a multiple of z_1...z_n: no maximizer to add
    def forbidden(*args, **kwargs):
        raise AssertionError("no rank-one ascent on scalar factor spaces")

    def loose(*args, **kwargs):  # a doubled upper keeps the bracket from closing in round 1
        value, method = real(*args, **kwargs)
        return 2.0 * value, method

    real = summing.denominator_upper
    monkeypatch.setattr(summing, "rank_one_maximizer", forbidden)
    monkeypatch.setattr(summing, "denominator_upper", loose)
    op = random_operator((1, 1), 2, stream(0, 41))
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=3)
    rep = estimate_pi_lip(op, 3.0, budget, seed=0)
    assert rep.detail["rounds"] == 3 and rep.certified_lower > 0


def test_estimate_hs_ball_at_p3_pinned_values():
    # the HS ball at p != 2: the lower end reads denominator_upper's "hs" upper
    op = random_operator((2, 2, 2), 2, stream(7, 2))
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2)
    rep = estimate_pi_lip(op, 3.0, budget, seed=2, ball="hs")
    assert repr([rep.certified_lower, rep.certified_upper]) == repr(
        [2.7938330482634113, 2.922097897537928])


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("scale", [1e-4, 1e-6])
def test_estimate_of_a_small_operator_is_the_scaled_bracket(p, scale):
    # the Pietsch LP's objective is of the order of ||T||^p; below the simplex's absolute
    # tolerance no column would enter and the duals would be 0
    t2 = random_operator((3, 3), 2, stream(0, 1))
    small = MultilinearOperator.from_array(t2.kernel.array * scale, t2.norms)
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2)
    ref, rep = estimate_pi_lip(t2, p, budget, seed=0), estimate_pi_lip(small, p, budget, seed=0)
    assert rep.certified_lower == pytest.approx(scale * ref.certified_lower, rel=3e-15)
    assert rep.certified_upper == pytest.approx(scale * ref.certified_upper, rel=3e-15)
    cert = rep.detail["certificate"]
    assert cert.detail["dual_constant"] == pytest.approx(cert.constant, rel=1e-15)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_estimate_is_scale_equivariant_over_powers_of_two(p):
    # no threshold of the search is absolute: T 2^-e runs the rounds of T, and its bracket is
    # T's times 2^-e, bit for bit at p = 2 (at p = 3 the LP's t = ||.||^3 rounds differently)
    t2 = random_operator((3, 3), 2, stream(0, 1))
    budget = Budget(restarts=8, max_pairs=10, max_dictionary=48, rounds=2)
    ref = estimate_pi_lip(t2, p, budget, seed=0)
    assert ref.detail["rounds"] == 2
    for e in (20, 60, 100):
        small = MultilinearOperator.from_array(np.ldexp(t2.kernel.array, -e), t2.norms)
        rep = estimate_pi_lip(small, p, budget, seed=0)
        assert rep.detail["rounds"] == 2
        ends = [math.ldexp(rep.certified_lower, e), math.ldexp(rep.certified_upper, e)]
        if p == 2.0:
            assert ends == [ref.certified_lower, ref.certified_upper]
        else:
            assert ends == pytest.approx([ref.certified_lower, ref.certified_upper], rel=4e-15)


def test_violation_search_flags_an_undominated_pair_at_every_scale():
    # a dictionary that vanishes on every Delta leaves each start's ratio infinite, however
    # small T is: the search compares ||T(u) - T(v)|| with 1e-14 max |kernel|
    dims = (2, 3)
    norms = NormSpec((2.0, math.inf), 1.0)
    op = MultilinearOperator.from_array(stream(85).standard_normal(dims + (2,)), norms)
    zero = MultilinearOperator.from_array(np.zeros(dims + (1,)), norms)
    cert = _certificate([zero], [1.0], 2.0, dims)
    ref = _violation_search(op, cert, 2.0, 3, 7)
    for e in (60, 1000):
        tiny = MultilinearOperator.from_array(np.ldexp(op.kernel.array, -e), norms)
        found = _violation_search(tiny, cert, 2.0, 3, 7)
        assert [r[2] for r in found] == [r[2] for r in ref] == [math.inf] * 7
        for (u, v, _), (ru, rv, _) in zip(found, ref):
            assert all(np.array_equal(a, b) for a, b in zip(u.factors + v.factors,
                                                             ru.factors + rv.factors))


def test_sandwich_of_a_tiny_operator_passes():
    from pilip.hilbert_schmidt import verify_sandwich

    op = random_operator((3, 3), 2, stream(0, 5))
    tiny = MultilinearOperator.from_array(op.kernel.array * 1e-12, op.norms)
    report = verify_sandwich(tiny, 3.0)
    assert report["passed"]
    assert report["ratio_p"] == pytest.approx(verify_sandwich(op, 3.0)["ratio_p"], rel=1e-12)


def test_pietsch_lp_raises_on_zero_duals(monkeypatch):
    def solve(c, A_ub, b_ub):  # an "optimum" that no column entered
        return SimplexResult("optimal", np.zeros(len(c)), 0.0, np.zeros(len(b_ub)))

    monkeypatch.setattr(summing, "solve_lp", solve)
    rng = stream(4)
    op = random_operator((2, 2), 2, rng)
    cfg = random_pairs((2, 2), 5, rng)
    dictionary = initial_dictionary(op, list(cfg.pairs), 11, 16, "op")
    with pytest.raises(RuntimeError, match="zero duals"):
        pietsch_upper_lp(op, cfg, dictionary, 2.0)


# --------------------------------------------------------------------------
# lockstep violation search against the one-start loop, bit for bit
# --------------------------------------------------------------------------


class _ViolationObjective:
    """The one-start objective that the lockstep search replaced: the oracle's ratio and
    gradients."""

    def __init__(self, op, cert, p):
        self.op = op
        self.p = p
        keep = [j for j, w in enumerate(cert.weights) if w > 1e-15]
        self.F = cert.form_matrix()[keep]
        self.w = np.asarray(cert.weights)[keep]

    def form_sum(self, u, v):
        vals = self.F @ (elementary_tensor(u).data - elementary_tensor(v).data)
        return float(np.sum(self.w * np.abs(vals) ** self.p))

    def ratio(self, u, v):
        lhs = vector_norm(
            eval_operator(self.op, u) - eval_operator(self.op, v), self.op.norms.codomain
        )
        rhs = self.form_sum(u, v) ** (1.0 / self.p)
        if rhs <= 1e-300:
            return math.inf if lhs > 1e-14 * float(np.max(np.abs(self.op.kernel.array))) else 0.0
        return lhs / rhs

    def gradients(self, u, v):
        op, p = self.op, self.p
        kernel = op.kernel.array
        diff = eval_operator(op, u) - eval_operator(op, v)
        lhs = max(vector_norm(diff, op.norms.codomain), 1e-300)
        ystar = dual_norming_vector(diff, dual_exponent(op.norms.codomain))
        vals = self.F @ (elementary_tensor(u).data - elementary_tensor(v).data)
        rhs_p = max(float(np.sum(self.w * np.abs(vals) ** p)), 1e-300)
        coef = self.w * np.abs(vals) ** (p - 1.0) * np.sign(vals)
        combined = (coef @ self.F).reshape(op.dims)[..., np.newaxis]
        grads_u, grads_v = [], []
        one = np.ones(1)
        for k in range(op.n):
            gu = slot_gradient(kernel, list(u.factors), ystar, k) / lhs
            gv = -slot_gradient(kernel, list(v.factors), ystar, k) / lhs
            du = slot_gradient(combined, list(u.factors), one, k)
            dv = -slot_gradient(combined, list(v.factors), one, k)
            grads_u.append(gu - du / rhs_p)
            grads_v.append(gv - dv / rhs_p)
        return grads_u, grads_v


def _random_point(dims, norms, rng):
    return SegrePoint(tuple(project_to_ball(rng.standard_normal(d), r)
                            for d, r in zip(dims, norms.factors)))


def _reference_violation_search(op, cert, p, seed, starts, iters=60, halvings=None):
    """The search one start at a time and one line-search trial at a time, as it was before
    the lockstep batch: the oracle.  Each line search appends to `halvings` ("gain" or
    "floor", its losses)."""
    if not cert.feasible or not cert.dictionary:
        return []
    norms = op.norms
    objective = _ViolationObjective(op, cert, p)
    results = []
    for s_idx in range(starts):
        rng = stream(seed, 5, s_idx)
        u = _random_point(op.dims, norms, rng)
        v = SegrePoint.zero(op.dims) if s_idx % 3 == 0 else _random_point(op.dims, norms, rng)
        value = objective.ratio(u, v)
        step = 0.25
        for _ in range(iters):
            if math.isinf(value):
                break
            if objective.form_sum(u, v) == 0:  # u (x) ... = v (x) ...: the ratio stays 0/0
                break
            grads_u, grads_v = objective.gradients(u, v)
            gn = math.sqrt(
                sum(float(np.dot(g, g)) for g in grads_u)
                + sum(float(np.dot(g, g)) for g in grads_v)
            )
            if gn < 1e-14:
                break
            improved, losses = False, 0
            while step > 1e-10:
                cu = SegrePoint(tuple(
                    project_to_ball(f + step * g / gn, r)
                    for f, g, r in zip(u.factors, grads_u, norms.factors)
                ))
                cv = SegrePoint(tuple(
                    project_to_ball(f + step * g / gn, r)
                    for f, g, r in zip(v.factors, grads_v, norms.factors)
                ))
                cand = objective.ratio(cu, cv)
                if cand > value:
                    converged = math.isfinite(value) and cand <= value * (1 + 1e-10)
                    u, v, value = cu, cv, cand
                    improved = not converged
                    step *= 1.5
                    if halvings is not None:
                        halvings.append(("gain", losses))
                    break
                step *= 0.5
                losses += 1
            else:
                if halvings is not None:
                    halvings.append(("floor", losses))
            if not improved:
                break
        if value > 0:
            results.append((u, v, value))
    results.sort(key=lambda r: -min(r[2], 1e300))
    return results


def _assert_search_matches_reference(op, cert, p, seed, starts, iters, halvings=None):
    got = _violation_search(op, cert, p, seed, starts, iters)
    want = _reference_violation_search(op, cert, p, seed, starts, iters, halvings)
    assert len(got) == len(want)
    for (gu, gv, g_val), (wu, wv, w_val) in zip(got, want):
        assert g_val == w_val, (g_val, w_val)
        for a, b in zip(gu.factors + gv.factors, wu.factors + wv.factors):
            assert np.array_equal(a, b)
    return got


def _certificate(forms, weights, p, dims):
    pair = (SegrePoint(tuple(np.ones(d) for d in dims)), SegrePoint.zero(dims))
    return PietschCertificate(tuple(forms), tuple(float(w) for w in weights), 1.0,
                              PairConfiguration((pair,)), p)


_EXPONENTS = (1.0, 2.0, math.inf)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_lockstep_violation_search_is_bitwise_the_one_start_loop(p, n):
    rng = stream(81, n, int(2 * p))
    case = 0
    halvings = []
    for mix in ("l1", "l2", "linf", "mixed"):
        for codomain in _EXPONENTS:
            factors = (tuple(rng.choice(_EXPONENTS, size=n)) if mix == "mixed"
                       else {"l1": (1.0,), "l2": (2.0,), "linf": (math.inf,)}[mix] * n)
            dims = tuple(int(d) for d in rng.integers(1, 4, size=n))  # unit slots included
            m = 1 + case % 3
            norms = NormSpec(factors, codomain)
            op = MultilinearOperator.from_array(rng.standard_normal(dims + (m,)), norms)
            # 12 forms reach numpy's pairwise summation; a weight below 1e-15 drops its form
            count = (1, 3, 12)[case % 3]
            forms = [MultilinearOperator.from_array(rng.standard_normal(dims + (1,)), norms)
                     for _ in range(count)]
            weights = rng.uniform(0.1, 1.0, size=count)
            weights[0] = 1e-16 if count > 1 else weights[0]
            weights /= np.sum(weights)
            cert = _certificate(forms, weights, p, dims)
            for iters in (1, 2, 60):
                _assert_search_matches_reference(op, cert, p, case, 4, iters, halvings)
            case += 1
    assert_covers_four_trial_rounds(halvings)


def test_lockstep_violation_search_edge_cases():
    dims = (2, 3)
    rng = stream(82)
    norms = NormSpec((2.0, math.inf), 1.0)
    op = MultilinearOperator.from_array(rng.standard_normal(dims + (2,)), norms)
    # a form set that vanishes on every Delta: every start has an infinite ratio, all tied
    zero = MultilinearOperator.from_array(np.zeros(dims + (1,)), norms)
    found = _assert_search_matches_reference(op, _certificate([zero], [1.0], 2.0, dims), 2.0,
                                             3, 7, 60)
    assert [r[2] for r in found] == [math.inf] * 7
    # no starts, and an infeasible certificate
    phi = MultilinearOperator.from_array(rng.standard_normal(dims + (1,)), norms)
    assert _assert_search_matches_reference(op, _certificate([phi], [1.0], 2.0, dims), 2.0,
                                            3, 0, 60) == []
    infeasible = PietschCertificate((phi,), (), math.inf, _certificate([phi], [1.0], 2.0, dims)
                                    .pairset, 2.0)
    assert _violation_search(op, infeasible, 2.0, 3, 7) == []
    # stationary starts: a form that is its own dictionary at p = 1 has a constant ratio
    # with a zero gradient (to rounding), so every start stops where it was drawn
    cert = _certificate([phi], [1.0], 1.0, dims)
    found = _assert_search_matches_reference(phi, cert, 1.0, 3, 7, 60)
    drawn = []
    for s_idx in range(7):
        draw = stream(3, 5, s_idx)
        drawn.append(_random_point(dims, norms, draw).factors)
    assert len(found) == 7
    assert all(any(all(np.array_equal(a, b) for a, b in zip(u.factors, x)) for x in drawn)
               for u, _, _ in found)


@pytest.mark.parametrize("factors", [(2.0, 2.0), (math.inf, 2.0), (math.inf, math.inf)])
def test_violation_search_non_finite_candidate_raises(factors):
    # forms of size 1e200 overflow |phi(Delta)|^2 and make every gradient NaN
    dims = (2, 3)
    norms = NormSpec(factors, 2.0)
    op = MultilinearOperator.from_array(stream(83).standard_normal(dims + (2,)), norms)
    huge = MultilinearOperator.from_array(1e200 * stream(84).standard_normal(dims + (1,)), norms)
    cert = _certificate([huge], [1.0], 2.0, dims)
    with np.errstate(all="ignore"):
        for search in (_reference_violation_search, _violation_search):
            with pytest.raises(ValueError, match="entries must be finite"):
                search(op, cert, 2.0, 0, 4)


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


@pytest.mark.parametrize("i,r,n,d,expected", [
    (0, 2.0, 2, 3, ("2.661445645974273", "3.6297105218402668")),
    (1, 1.0, 2, 3, ("1.552818325642759", "1.8672647906369575")),
    (2, math.inf, 3, 2, ("6.417158362379967", "6.417158362379967")),
    (3, 2.0, 3, 1, ("1.3486128457587618", "1.3486128457587618")),  # scalar factor spaces
])
def test_poly_pinned_values(i, r, n, d, expected):
    kernel = symmetrize_kernel(stream(0, 60, i).standard_normal((d,) * n + (2,)))
    op = MultilinearOperator.from_array(kernel, NormSpec((r,) * n, 2.0))
    rep = estimate_pi_lip_poly(op, 2.0, FAST, seed=3)
    assert (repr(rep.certified_lower), repr(rep.certified_upper)) == expected


def test_poly_runs_no_denominator_search(monkeypatch):
    # the certified lower reads only the search-free denominator upper
    def forbidden(*args, **kwargs):
        raise AssertionError("no denominator search expected")

    monkeypatch.setattr(summing, "config_denominator", forbidden)
    monkeypatch.setattr(formnorm, "config_denominator", forbidden)
    monkeypatch.setattr(formnorm, "_rank_one_ascent", forbidden)
    kernel = symmetrize_kernel(stream(0, 60, 0).standard_normal((3, 3, 2)))
    rep = estimate_pi_lip_poly(MultilinearOperator.from_array(kernel), 2.0, FAST, seed=3)
    assert repr(rep.certified_lower) == "2.661445645974273"


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
    for field in ("restarts", "rounds", "ascent_iters"):
        for value in (1.5, 2.0, "3", None):
            with pytest.raises(ValueError, match=f"budget field {field} must be a positive integer"):
                Budget(**{field: value})
    assert Budget(rounds=np.int64(2)).rounds == 2
