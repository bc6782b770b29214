import collections
import itertools
import math

import numpy as np
import pytest

from conftest import assert_covers_four_trial_rounds

from pilip import formnorm
from pilip.formnorm import (
    ASCENT_MAX_ITERS,
    ASCENT_TOL,
    ENUMERATION_CAP,
    SEARCH_FREE_UPPERS,
    config_denominator,
    denominator_upper,
    hs_to_op_scale,
    hs_uppers,
    operator_norm,
    pair_triangle,
    rank_one_form,
    rank_one_norm,
    search_free_uppers,
    weighted_power_sum,
)
from pilip.tensors import (
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    dual_exponent,
    dual_norming_vector,
    eval_operator,
    pair_factors,
    vector_norm,
)
from pilip.verify import lambda_n, random_pairs
from pilip.rng import stream


# --------------------------------------------------------------------------
# operator_norm
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_norm_lambda_n_is_exactly_one(n):
    rep = operator_norm(lambda_n(n))
    assert rep.certified_lower == 1.0
    assert rep.certified_upper == 1.0


def test_norm_zero_operator():
    rep = operator_norm(MultilinearOperator.from_array(np.zeros((2, 2, 2))))
    assert rep.certified_upper == 0.0


def test_norm_identity_form_matches_svd_oracle():
    eye = MultilinearOperator.from_array(np.eye(2)[:, :, None])
    sigma = np.linalg.svd(np.eye(2), compute_uv=False)[0]
    rep = operator_norm(eye)
    np.testing.assert_allclose(rep.certified_lower, sigma, rtol=1e-12)
    np.testing.assert_allclose(rep.certified_upper, sigma, rtol=1e-12)


def test_norm_random_bilinear_form_matches_svd():
    rng = stream(3)
    A = rng.standard_normal((3, 4))
    rep = operator_norm(MultilinearOperator.from_array(A[:, :, None]))
    np.testing.assert_allclose(rep.certified_upper, np.linalg.svd(A, compute_uv=False)[0],
                               rtol=1e-12)
    assert rep.method == "svd"


def test_norm_linf_enumeration_is_exact_grid():
    rng = stream(4)
    spec = NormSpec((math.inf, math.inf), 2.0)
    op = MultilinearOperator.from_array(rng.standard_normal((2, 2, 1)), spec)
    rep = operator_norm(op)
    assert rep.method == "enumeration"
    grid = max(
        abs(float(eval_operator(op, SegrePoint.of([a, b], [c, d]))[0]))
        for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)
    )
    np.testing.assert_allclose(rep.certified_upper, grid, rtol=1e-14)
    np.testing.assert_allclose(rep.certified_lower, grid, rtol=1e-14)


def test_norm_l1_factor_enumeration():
    # on l1 balls the sup sits on basis vectors: max |kernel| entry for a form
    rng = stream(5)
    spec = NormSpec((1.0, 1.0), 2.0)
    A = rng.standard_normal((3, 3))
    op = MultilinearOperator.from_array(A[:, :, None], spec)
    rep = operator_norm(op)
    np.testing.assert_allclose(rep.certified_upper, np.max(np.abs(A)), rtol=1e-14)


def test_norm_relaxed_path_brackets_alternating_value():
    rng = stream(6)
    op = MultilinearOperator.from_array(rng.standard_normal((2, 2, 2, 2)))
    rep = operator_norm(op, restarts=24)
    assert rep.method == "relaxed"
    assert 0 < rep.certified_lower <= rep.certified_upper
    # the relaxation majorizes by the flattening spectral norm
    sigma = np.linalg.svd(op.kernel.array.reshape(-1, 2), compute_uv=False)[0]
    assert rep.certified_upper <= sigma + 1e-12


def test_rank_one_norm_is_exact():
    rng = stream(7)
    spec = NormSpec((2.0, 1.0, math.inf), 2.0)
    vecs = [rng.standard_normal(d) for d in (2, 3, 2)]
    form = rank_one_form(vecs, spec)
    rep = operator_norm(form)
    # dual-norm product oracle
    expected = rank_one_norm(vecs, spec)
    assert rep.certified_lower <= expected + 1e-9
    np.testing.assert_allclose(rep.certified_lower, expected, rtol=1e-7)


# --------------------------------------------------------------------------
# config_denominator
# --------------------------------------------------------------------------


def test_denominator_single_pair_hs_is_product_of_norms():
    rng = stream(8)
    u = SegrePoint(tuple(rng.standard_normal(d) for d in (2, 3)))
    cfg = PairConfiguration(((u, SegrePoint.zero((2, 3))),))
    rep = config_denominator(cfg, 2.0, "hs")
    expected = math.prod(np.linalg.norm(f) for f in u.factors)
    np.testing.assert_allclose(rep.certified_lower, expected, rtol=1e-12)
    np.testing.assert_allclose(rep.certified_upper, expected, rtol=1e-12)


def test_denominator_basis_configuration_is_one():
    # the d^2 basis pairs on l2 x l2 at p = 2
    d = 2
    eyes = np.eye(d)
    zero = SegrePoint.zero((d, d))
    pairs = tuple(
        (SegrePoint((eyes[i], eyes[j])), zero) for i in range(d) for j in range(d)
    )
    rep = config_denominator(PairConfiguration(pairs), 2.0, "hs")
    np.testing.assert_allclose(rep.certified_upper, 1.0, rtol=1e-12)
    np.testing.assert_allclose(rep.certified_lower, 1.0, rtol=1e-12)


def _grid_denominator_1d(cfg, p, n_grid=7200):
    """Brute-force sup over the unit l2 ball of forms in R^2 (n = 1)."""
    thetas = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    phis = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    deltas = cfg.rows
    vals = np.abs(phis @ deltas.T) ** p @ np.asarray(cfg.weights)
    return float(np.max(vals) ** (1.0 / p))


def test_denominator_homogeneity_against_grid_oracle():
    rng = stream(9)
    pairs = tuple(
        (SegrePoint((rng.standard_normal(2),)), SegrePoint((rng.standard_normal(2),)))
        for _ in range(3)
    )
    cfg = PairConfiguration(pairs)
    t = 2.75
    for p in (1.0, 2.0, 3.0):
        base = _grid_denominator_1d(cfg, p)
        scaled = _grid_denominator_1d(cfg.scaled(t), p)
        np.testing.assert_allclose(scaled, t * base, rtol=1e-9)
        rep = config_denominator(cfg, p, "op", seed=1, restarts=16)
        rep_t = config_denominator(cfg.scaled(t), p, "op", seed=1, restarts=16)
        # bracket must contain the grid oracle, and scale linearly
        assert rep.certified_lower <= base * (1 + 1e-6)
        assert rep.certified_upper >= base * (1 - 1e-6)
        np.testing.assert_allclose(rep_t.certified_lower, t * rep.certified_lower, rtol=1e-9)


def test_denominator_scalar_spaces_closed_form():
    cfg = PairConfiguration(
        ((SegrePoint.of([1.0], [1.0]), SegrePoint.zero((1, 1))),
         (SegrePoint.of([2.0], [0.5]), SegrePoint.of([1.0], [0.5]))),
    )
    rep = config_denominator(cfg, 2.0, "op")
    # forms on scalars are alpha*z1*z2 with |alpha| <= 1
    expected = math.sqrt(abs(1.0) ** 2 + abs(2.0 * 0.5 - 1.0 * 0.5) ** 2)
    np.testing.assert_allclose(rep.certified_lower, expected, rtol=1e-12)
    np.testing.assert_allclose(rep.certified_upper, expected, rtol=1e-12)
    assert rep.method == "scalar-exact"


def test_denominator_nuclear_single_pair_is_exact_l2():
    rng = stream(10)
    u = SegrePoint(tuple(rng.standard_normal(2) for _ in range(2)))
    v = SegrePoint(tuple(rng.standard_normal(2) for _ in range(2)))
    cfg = PairConfiguration(((u, v),))
    rep = config_denominator(cfg, 2.0, "op", seed=2)
    delta = cfg.rows[0].reshape(cfg.dims)
    nuclear = float(np.sum(np.linalg.svd(delta, compute_uv=False)))
    assert rep.certified_upper <= nuclear + 1e-12
    # the spectral-ball sup of <G, delta> is achieved; ascent should get close
    assert rep.certified_lower >= nuclear * (1 - 1e-6)


@pytest.mark.parametrize("factors", [(1.0, 1.0), (2.0, 2.0), (math.inf, math.inf), (1.0, math.inf),
                                     (1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (math.inf, 1.0, 2.0)])
def test_denominator_upper_is_the_search_free_end_of_config_denominator(factors):
    # config_denominator's upper is denominator_upper's unless its ascent lower lies above it
    dims, norms = (2, 3, 2)[:len(factors)], NormSpec(factors, 2.0)
    rng, unclamped = stream(15, len(factors), int(1.0 in factors)), 0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for count, zero in itertools.product((1, 4), (0.0, 1.0)):
            cfg = random_pairs(dims, count, rng, zero_fraction=zero)
            cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
            value, method = denominator_upper(cfg, p, norms)
            rep = config_denominator(cfg, p, "op", norms, seed=1, restarts=4)
            assert rep.method == f"rank-one-ascent/{method}"
            if rep.certified_lower <= value:
                unclamped += 1
                assert rep.certified_upper == value
            else:
                assert rep.certified_upper == rep.certified_lower <= value * (1 + 1e-14)
    assert unclamped >= 10  # of 20: on one l2 pair the ascent can end ulps above the nuclear upper


def _searched_op_ball_ends(cfg, p, norms, seed, restarts):
    """The op-ball ends of config_denominator when each full-kernel candidate was divided by
    the certified upper of an operator_norm search (seed ^ 0x5F, max(8, restarts // 4)
    restarts), and whether one of those searches ended above `_relaxed_upper`."""
    weights, deltas = np.asarray(cfg.weights), cfg.rows
    upper = denominator_upper(cfg, p, norms)[0]
    starts = []
    for u, v in cfg.pairs[: max(1, restarts // 4)]:
        starts.append([dual_norming_vector(f, r) for f, r in zip(u.factors, norms.factors)])
        starts.append([dual_norming_vector(f, r) for f, r in zip(v.factors, norms.factors)])
    for i in range(len(starts), max(restarts, len(starts))):
        rng = stream(seed, 2, i)
        starts.append([rng.standard_normal(d) for d in cfg.dims])
    values, _ = formnorm._rank_one_ascent(cfg, norms, p, starts, ASCENT_MAX_ITERS, ASCENT_TOL)
    certified, beaten = max(0.0, float(np.max(values))), False
    w2 = weights ** (1.0 / p) if not math.isinf(p) else np.ones_like(weights)
    kernels = [np.linalg.svd(deltas * w2[:, None], full_matrices=False)[2][0]]
    if len(cfg.dims) == 2 and norms.factors == (2.0, 2.0):
        for row in deltas[:4]:
            du, _, dvt = np.linalg.svd(row.reshape(cfg.dims), full_matrices=False)
            kernels.append((du @ dvt).reshape(-1))
    kernels = np.array(kernels)
    for G, raw in zip(kernels, formnorm._hs_values(kernels, deltas, weights, p).tolist()):
        if raw <= 0:
            continue
        G = (G / np.linalg.norm(G)).reshape(cfg.dims)[..., None]
        g_form = MultilinearOperator.from_array(G, NormSpec(norms.factors, 2.0))
        g = operator_norm(g_form, seed=seed ^ 0x5F, restarts=max(8, restarts // 4))
        beaten |= g.method == "relaxed" and g.certified_lower > formnorm._relaxed_upper(g_form)
        if g.certified_upper > 0:
            certified = max(certified, raw / g.certified_upper)
    return certified, max(upper, certified), beaten


def test_full_kernel_candidates_need_no_operator_norm_search():
    # dividing each full-kernel candidate by operator_norm's search-free upper gives the ends
    # that an operator_norm search per candidate gave, bit for bit
    mixes = {2: [(2.0, 2.0), (math.inf, 2.0), (1.0, math.inf), (1.0, 2.0), (math.inf, math.inf)],
             3: [(2.0, 2.0, 2.0), (math.inf, 1.0, 2.0), (1.0, 1.0, 2.0), (math.inf, math.inf, 2.0),
                 (1.0, math.inf, 1.0)]}
    cases, beaten = 0, []
    for n, factors_list in mixes.items():
        dims = (3, 3) if n == 2 else (2, 2, 2)
        for i, factors in enumerate(factors_list):
            norms = NormSpec(factors, 2.0)
            rng = stream(16, n, i)
            for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                for count, zero in ((1, 1.0), (1, 0.0), (6, 0.0)):
                    cfg = random_pairs(dims, count, rng, zero_fraction=zero)
                    lower, upper, beat = _searched_op_ball_ends(cfg, p, norms, seed=7, restarts=8)
                    rep = config_denominator(cfg, p, "op", norms, seed=7, restarts=8)
                    assert (rep.certified_lower, rep.certified_upper) == (lower, upper)
                    cases += 1
                    if beat:
                        beaten.append((factors, p, count, zero))
    assert cases == 150
    # On a single pair against 0 the l2 kernel is rank one and its relaxed upper is its exact
    # norm; in these three cases the search ended an ulp above that upper, which it then
    # replaced.  The rank-one ascent reached at least the same lower in each, so no end moved;
    # that ulp is a question for outward rounding of the certified ends.
    assert beaten == [((2.0, 2.0, 2.0), p, 1, 1.0) for p in (1.5, 2.0, 3.0)]


def test_denominator_upper_on_the_hs_ball_is_config_denominators_upper():
    # the HS ball: hs_uppers, exact at p = 2 and p = inf; "scalar-exact" first on either ball
    rng = stream(15, 9)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        cfg = random_pairs((2, 3), 4, rng)
        value, method = denominator_upper(cfg, p, NormSpec.all_l2(2), "hs")
        rep = config_denominator(cfg, p, "hs", restarts=4)
        assert method == ("hs-exact" if p in (2.0, math.inf) else "hs")
        assert rep.method == ("hs-exact" if method == "hs-exact" else "hs-ascent")
        assert rep.certified_upper == value and rep.certified_lower <= value
    scalar = random_pairs((1, 1), 2, rng)
    assert denominator_upper(scalar, 3.0, NormSpec.all_l2(2), "hs")[1] == "scalar-exact"
    with pytest.raises(ValueError, match="ball"):
        denominator_upper(cfg, 2.0, NormSpec.all_l2(2), "frobenius")


def test_ball_inclusion_property_checks_the_search_free_upper(monkeypatch):
    from pilip import verify

    check = {name: func for name, func, _ in verify.PROPERTIES}["form_norm/ball_inclusion"]
    assert check(0, 8) == (True, {"failures": 0})
    real = verify.denominator_upper
    monkeypatch.setattr(verify, "denominator_upper",
                        lambda cfg, p, norms: (0.9 * real(cfg, p, norms)[0], "too low"))
    assert check(0, 8)[0] is False  # one of the 8 ascents ends above 0.9 of the upper


def test_denominator_upper_of_scalar_spaces_is_exact():
    cfg = PairConfiguration(((SegrePoint.of([2.0], [0.5]), SegrePoint.of([1.0], [0.5])),
                             (SegrePoint.of([-1.0], [3.0]), SegrePoint.zero((1, 1)))), (2.0, 1.0))
    for p in (1.0, 3.0, math.inf):
        rep = config_denominator(cfg, p, "op", NormSpec((1.0, math.inf), 2.0))
        assert denominator_upper(cfg, p, NormSpec((1.0, math.inf), 2.0)) == (
            rep.certified_upper, "scalar-exact")


def _search_free_reference(cfg, p, norms):
    """The least search-free op-ball upper of cfg as (value, method): each upper computed on
    its own and the first least one in the order of SEARCH_FREE_UPPERS, as a min over a dict."""
    weights, deltas = np.asarray(cfg.weights), cfg.rows
    if math.prod(cfg.dims) == 1:
        return weighted_power_sum(deltas[:, 0], weights, p), "scalar-exact"
    uppers = {"kappa-hs": hs_to_op_scale(cfg.dims, norms) * float(hs_uppers(deltas[None], weights,
                                                                            p)[0]),
              "triangle": weighted_power_sum(pair_triangle(pair_factors(cfg.pairs), norms),
                                             weights, p)}
    if len(cfg) == 1 and len(cfg.dims) == 2 and norms.factors == (2.0, 2.0):
        nuc = float(np.sum(np.linalg.svd(deltas[0].reshape(cfg.dims), compute_uv=False)))
        uppers["nuclear"] = (1.0 if math.isinf(p) else float(weights[0] ** (1.0 / p))) * nuc
    method = min(uppers, key=uppers.get)
    return uppers[method], method


def test_search_free_uppers_of_a_stack_are_the_one_configuration_min():
    # every configuration of a stack gets the bits and the method of the one-configuration
    # min over the uppers, computed on its own; denominator_upper is the one-row call
    rng = stream(17)
    methods = collections.Counter()
    for dims, factors in (((1, 1), (1.0, 2.0)), ((1, 1, 1), (math.inf, 2.0, 1.0)),
                          ((3, 2), (2.0, 2.0)), ((2, 2), (2.0, 2.0)), ((3, 2), (1.0, math.inf)),
                          ((2, 3), (math.inf, 2.0)), ((2, 2, 2), (math.inf, 1.0, 2.0)),
                          ((4,), (2.0,))):
        norms = NormSpec(factors, 2.0)
        for p, count in itertools.product((1.0, 1.5, 2.0, 3.0, math.inf), (1, 3)):
            weights = tuple(rng.uniform(0.5, 2.0, count))

            def point():
                return SegrePoint(tuple(math.exp(rng.standard_normal()) * rng.standard_normal(d)
                                        for d in dims))

            cfgs = [PairConfiguration(tuple(
                (point(), SegrePoint.zero(dims) if rng.random() < 0.5 else point())
                for _ in range(count)), weights) for _ in range(6)]
            w2 = np.ones(count) if math.isinf(p) else np.asarray(weights) ** (1.0 / p)
            values, won = search_free_uppers(
                np.array([c.rows for c in cfgs]),
                np.array([pair_triangle(pair_factors(c.pairs), norms) for c in cfgs]),
                np.array([[np.linalg.norm(r) for r in c.rows * w2[:, None]] for c in cfgs]),
                np.asarray(weights), dims, norms, p)
            for cfg, value, w in zip(cfgs, values.tolist(), won):
                want = _search_free_reference(cfg, p, norms)
                assert (value, SEARCH_FREE_UPPERS[w]) == want
                assert denominator_upper(cfg, p, norms) == want
                methods[want[1]] += 1
    assert set(methods) == set(SEARCH_FREE_UPPERS), methods


def test_denominator_hs_below_op_upper():
    rng = stream(11)
    cfg = random_pairs((2, 2), 4, rng)
    hs = config_denominator(cfg, 2.0, "hs")
    op = config_denominator(cfg, 2.0, "op", restarts=12)
    assert hs.certified_upper <= op.certified_upper + 1e-9


def test_denominator_p_inf_uses_max():
    rng = stream(12)
    cfg = random_pairs((2, 2), 3, rng)
    rep = config_denominator(cfg, math.inf, "hs")
    expected = max(np.linalg.norm(d) for d in cfg.rows)
    np.testing.assert_allclose(rep.certified_upper, expected, rtol=1e-12)


def test_denominator_rejects_bad_arguments():
    rng = stream(13)
    cfg = random_pairs((2, 2), 2, rng)
    with pytest.raises(ValueError):
        config_denominator(cfg, 0.5, "op")
    with pytest.raises(ValueError):
        config_denominator(cfg, 2.0, "spectral")


def test_weighted_power_sum_rescales_past_underflow_and_overflow():
    weights = np.array([0.5, 2.0])
    tiny, huge = np.array([1e-100, -2e-100]), np.array([3e100, 1e100])
    assert formnorm.weighted_power_sum(tiny, weights, 4.0) == pytest.approx(
        1e-100 * (0.5 + 2.0 * 16.0) ** 0.25, rel=1e-14)
    assert formnorm.weighted_power_sum(huge, weights, 4.0) == pytest.approx(
        1e100 * (0.5 * 81.0 + 2.0) ** 0.25, rel=1e-14)
    # any other input keeps the bits of the plain formula
    plain = np.array([0.3, -1.7])
    assert formnorm.weighted_power_sum(plain, weights, 3.0) == float(
        np.sum(weights * np.abs(plain) ** 3.0) ** (1.0 / 3.0))
    assert formnorm.weighted_power_sum(np.zeros(2), weights, 4.0) == 0.0
    assert formnorm.weighted_power_sum(tiny, np.zeros(2), 4.0) == 0.0


def _one_vector_power_sum(values, weights, p):
    """The weighted p-sum of one vector as written before it became a one-row call of
    formnorm.power_sums: the bitwise oracle for both."""
    t = np.abs(np.asarray(values, dtype=float))
    if t.size == 0:
        return 0.0
    if math.isinf(p):
        return float(t.max())
    weights = np.asarray(weights)
    with np.errstate(over="ignore", under="ignore"):
        out = float((weights * t**p).sum() ** (1.0 / p))
    if out == 0.0 or math.isinf(out):
        top = float(t.max())
        if 0.0 < top < math.inf:
            return top * float((weights * (t / top) ** p).sum() ** (1.0 / p))
    return out


def test_power_sums_match_the_one_vector_version():
    rng = np.random.default_rng(31)
    cases = []
    for K in (1, 2, 3, 7, 33, 100, 1000):
        for scale in (1e-3, 1.0, 1e3):
            cases.append(scale * rng.standard_normal((6, K)))
    for K in (1, 2, 5):  # plain sums that underflow to 0 or overflow to inf
        for scale in (1e-200, 1e-120, 1e-80, 1e80, 1e120, 1e200, 1e300):
            cases.append(scale * rng.standard_normal((6, K)))
    rescaled = 0
    for S in cases:
        S[0] = 0.0
        weights = rng.uniform(0.1, 2.0, S.shape[1])
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, 7.3, math.inf):
            rows, scale = formnorm.power_sums(S, weights, p)
            for i, s in enumerate(S):
                want = _one_vector_power_sum(s, weights, p)
                assert rows[i] == want and formnorm.weighted_power_sum(s, weights, p) == want
            if scale is not None:
                rescaled += int(np.sum(scale != 1.0))
    assert rescaled > 100
    for p in (1.0, 2.0, math.inf):
        assert formnorm.weighted_power_sum([], [], p) == 0.0


def test_denominator_of_a_tiny_pair_does_not_underflow():
    # p = 4 on factors of size 1e-60: |phi(Delta)|^4 is about 1e-480, below the doubles
    u = SegrePoint((1e-60 * np.array([1.0, 2.0, 0.5]), 1e-60 * np.array([1.0, -1.0, 3.0])))
    cfg = PairConfiguration(((u, SegrePoint.zero((3, 3))),))
    rep = config_denominator(cfg, 4.0)
    # one pair (u, 0) on l2 factors: D = sup |phi(u)| = ||u_1|| ||u_2||, about 7.6e-120
    exact = float(np.linalg.norm(u.factors[0]) * np.linalg.norm(u.factors[1]))
    assert 0.0 < rep.certified_lower <= exact * (1 + 1e-12)
    assert exact * (1 - 1e-12) <= rep.certified_upper <= exact * (1 + 1e-12)


def test_hs_upper_at_p_inf_of_a_tiny_pair_does_not_underflow():
    # factors of size 1e-85: the plain l2 norm of Delta underflows to 0
    u = SegrePoint((1e-85 * np.array([1.0, 2.0]), 1e-85 * np.array([0.5, 1.0])))
    cfg = PairConfiguration(((u, SegrePoint.zero((2, 2))),))
    assert denominator_upper(cfg, math.inf, NormSpec.all_l2(2), "hs") == (2.5e-170, "hs-exact")
    rep = config_denominator(cfg, math.inf, "hs")
    assert rep.certified_lower == rep.certified_upper == 2.5e-170
    # on the op ball, one pair of l2 bilinear points: D = the nuclear norm of Delta
    v = SegrePoint((1e-85 * np.array([1.0, 2.0]), 1e-85 * np.array([0.5, 1.1])))
    cfg = PairConfiguration(((u, v),))
    exact = math.sqrt(5.0) * 1e-171  # Delta = 1e-171 (1, 2) (x) (0, -1)
    assert float(hs_uppers(cfg.rows[None], np.ones(1), math.inf)[0]) == pytest.approx(exact,
                                                                                        rel=1e-15)
    value, method = denominator_upper(cfg, math.inf, NormSpec.all_l2(2))
    assert value == pytest.approx(exact, rel=1e-15) and method in ("kappa-hs", "nuclear")


def test_hs_upper_at_p_inf_keeps_the_plain_norm_elsewhere():
    deltas = stream(0, 48).standard_normal((5, 4, 6))
    deltas[1, 2] = 0.0  # a zero row keeps its plain norm 0
    assert np.array_equal(hs_uppers(deltas, np.ones(4), math.inf),
                          np.linalg.norm(deltas, axis=2).max(axis=1))


def test_rank_one_ascent_of_a_tiny_pair_does_not_underflow():
    # p = 4 on factors of size 1e-60: the plain power sum of every rank-one value underflows
    u = SegrePoint((1e-60 * np.array([1.0, 2.0, 0.5]), 1e-60 * np.array([1.0, -1.0, 3.0])))
    cfg = PairConfiguration(((u, SegrePoint.zero((3, 3))),))
    rng = stream(15)
    starts = [[dual_norming_vector(f, 2.0) for f in u.factors]]
    starts += [[rng.standard_normal(3), rng.standard_normal(3)] for _ in range(4)]
    values, _ = formnorm._rank_one_ascent(cfg, NormSpec.all_l2(2), 4.0, starts,
                                          ASCENT_MAX_ITERS, ASCENT_TOL)
    # D of (u, 0) on l2 factors is ||u_1|| ||u_2||
    exact = float(np.linalg.norm(u.factors[0]) * np.linalg.norm(u.factors[1]))
    assert 0.0 < values.max() and abs(values.max() - exact) <= 1e-12 * exact


def test_rank_one_ascent_stop_does_not_depend_on_the_scale_of_the_pairs():
    # the ratio and its gradient are 1-homogeneous in the pairs: at scale 1e-60 per factor
    # every start ascends as it does at scale 1, so a gradient stop at an absolute 1e-14
    # would halt each start at its first gradient, with 0.003-0.25 of the optimum
    rng = stream(16)
    starts = [[rng.standard_normal(3), rng.standard_normal(3)] for _ in range(8)]
    ends = []
    for scale in (1.0, 1e-60):
        u = SegrePoint((scale * np.array([1.0, 2.0, 0.5]), scale * np.array([1.0, -1.0, 3.0])))
        cfg = PairConfiguration(((u, SegrePoint.zero((3, 3))),))
        values, _ = formnorm._rank_one_ascent(cfg, NormSpec.all_l2(2), 4.0, starts,
                                              ASCENT_MAX_ITERS, ASCENT_TOL)
        ends.append(values)
    exact = math.sqrt(5.25) * math.sqrt(11.0)  # ||u_1|| ||u_2|| at scale 1
    np.testing.assert_allclose(ends[0], exact, rtol=1e-6)  # up to the ascent's gain stop
    np.testing.assert_allclose(ends[1], ends[0] * 1e-120, rtol=1e-12)


def test_halving_trials_takes_the_first_gain():
    floor = 1e-12
    step = np.array([1.0, 0.5, 3e-12, 2.0, 1e-12])
    rows, steps, pick = formnorm.halving_trials(step, floor)
    # row 2 crosses the floor after its second trial; row 4 starts at the floor
    assert rows.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    assert steps.tolist() == [1.0, 0.5, 0.25, 0.125, 0.5, 0.25, 0.125, 0.0625,
                              3e-12, 3e-12 * 0.5, 2.0, 1.0, 0.5, 0.25]
    gain = np.array([False, False, False, False,  # no gain
                     False, True, True, False,    # two gains: the first one wins
                     False, True,                 # a gain just above the floor
                     True, False, True, True])
    took, chosen, next_step = pick(gain)
    assert took.tolist() == [False, True, True, True, False]
    assert chosen.tolist() == [5, 9, 10]
    assert next_step.tolist() == [1.0 / 16, 0.25 * 1.5, 3e-12 * 0.5 * 1.5, 2.0 * 1.5,
                                  1e-12 / 16]
    # the steps of a loop that halves after each loss, one trial at a time
    for i, s in enumerate(step):
        j = 0
        while s > floor and j < 4 and not gain[rows == i][j]:
            s, j = s * 0.5, j + 1
        assert next_step[i] == (s * 1.5 if took[i] else step[i] / 16)


def test_halving_trials_single_row_and_all_under_the_floor():
    rows, steps, pick = formnorm.halving_trials(np.array([0.25]), 1e-10)
    assert rows.tolist() == [0] * 4 and steps.tolist() == [0.25, 0.125, 0.0625, 0.03125]
    took, chosen, next_step = pick(np.array([False, False, False, True]))
    assert took.tolist() == [True] and chosen.tolist() == [3]
    assert next_step.tolist() == [0.03125 * 1.5]
    rows, steps, pick = formnorm.halving_trials(np.array([1e-10, 5e-11]), 1e-10)
    assert rows.size == 0 and steps.size == 0
    took, chosen, next_step = pick(np.zeros(0, dtype=bool))
    assert took.tolist() == [False, False] and chosen.size == 0
    assert next_step.tolist() == [1e-10 / 16, 5e-11 / 16]


def test_hs_to_op_scale_l1_counterexample_guard():
    # on an l1 factor the plain sqrt(prod/max) factor would be unsound:
    # phi = (1,1) has HS norm sqrt(2) but l1-operator norm 1
    spec1 = NormSpec((1.0,), 2.0)
    assert hs_to_op_scale((2,), spec1) >= math.sqrt(2.0) - 1e-12
    form = MultilinearOperator.from_array(np.ones((2, 1)), spec1)
    up = operator_norm(form, restarts=0).certified_upper
    hs = form.kernel.frobenius()
    assert hs <= hs_to_op_scale((2,), spec1) * up + 1e-12


def _grid_ball_2d(r_dual: float, n_grid: int = 100_000) -> np.ndarray:
    th = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    if r_dual == 2.0:
        return pts
    if math.isinf(r_dual):
        return pts / np.max(np.abs(pts), axis=1, keepdims=True)
    return pts / np.sum(np.abs(pts), axis=1, keepdims=True)


@pytest.mark.parametrize("ball,r,p", [
    ("hs", 2.0, 1.0), ("hs", 2.0, 1.5), ("hs", 2.0, 3.0), ("hs", 2.0, math.inf),
    ("op", 1.0, 1.0), ("op", 1.0, 2.0), ("op", 1.0, 3.0),
    ("op", math.inf, 1.0), ("op", math.inf, 2.0), ("op", math.inf, 3.0),
    ("op", 2.0, 1.0), ("op", 2.0, 3.0),
])
def test_denominator_brackets_grid_oracle_all_exponents(ball, r, p):
    # n = 1, d = 2: forms of unit r-operator norm are the dual-ball boundary,
    # which a dense grid enumerates exactly enough for 1e-6 comparisons
    rng = stream(5)
    pairs = tuple(
        (SegrePoint((rng.standard_normal(2),)), SegrePoint((rng.standard_normal(2),)))
        for _ in range(3)
    )
    cfg = PairConfiguration(pairs)
    deltas = cfg.rows
    r_dual = 2.0 if ball == "hs" else {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}[r]
    vals = np.abs(_grid_ball_2d(r_dual) @ deltas.T)
    if math.isinf(p):
        oracle = float(np.max(vals))
    else:
        oracle = float(np.max(np.sum(vals**p, axis=1)) ** (1.0 / p))
    rep = config_denominator(cfg, p, ball, NormSpec((r,), 2.0), restarts=12)
    assert rep.certified_lower <= oracle * (1 + 1e-6)
    assert rep.certified_upper >= oracle * (1 - 1e-6)


def test_weighted_denominator_matches_grid():
    rng = stream(14)
    pairs = tuple(
        (SegrePoint((rng.standard_normal(2),)), SegrePoint.zero((2,)))
        for _ in range(3)
    )
    cfg = PairConfiguration(pairs, (0.5, 2.0, 1.25))
    oracle = _grid_denominator_1d(cfg, 2.0)
    rep = config_denominator(cfg, 2.0, "op", seed=3, restarts=16)
    assert rep.certified_lower <= oracle * (1 + 1e-6)
    assert rep.certified_upper >= oracle * (1 - 1e-6)


# --------------------------------------------------------------------------
# lockstep rank-one ascent against the one-start loop, bit for bit
# --------------------------------------------------------------------------


def _reference_value(lams, PU, PV, weights, p, duals):
    su = np.ones(len(weights))
    sv = np.ones(len(weights))
    for k, lam in enumerate(lams):
        su *= PU[k] @ lam
        sv *= PV[k] @ lam
    scale = math.prod(vector_norm(lam, duals[k]) for k, lam in enumerate(lams))
    if scale == 0:
        return 0.0
    return formnorm.weighted_power_sum(su - sv, weights, p) / scale


def _reference_ascent(cfg, norms, p, start, iters, tol, halvings=None):
    """The ascent from one start, run on its own, one line-search trial at a time: the oracle
    for the batch.  Each line search appends to `halvings` ("gain" or "floor", its losses)."""
    k_pairs = len(cfg)
    weights = np.asarray(cfg.weights)
    duals = [dual_exponent(r) for r in norms.factors]
    PU = [np.stack([u.factors[k] for u, _ in cfg.pairs]) for k in range(len(cfg.dims))]
    PV = [np.stack([v.factors[k] for _, v in cfg.pairs]) for k in range(len(cfg.dims))]
    lams = [np.asarray(s, dtype=float) for s in start]
    lams = [lam / max(vector_norm(lam, duals[k]), 1e-300) for k, lam in enumerate(lams)]

    value = _reference_value(lams, PU, PV, weights, p, duals)
    step = 0.5
    for _ in range(iters):
        pu = np.stack([PU[k] @ lam for k, lam in enumerate(lams)])
        pv = np.stack([PV[k] @ lam for k, lam in enumerate(lams)])
        s = np.prod(pu, axis=0) - np.prod(pv, axis=0)
        if math.isinf(p):
            coef = np.zeros(k_pairs)
            i = int(np.argmax(np.abs(s)))
            coef[i] = np.sign(s[i])
        else:
            num = formnorm.weighted_power_sum(s, weights, p)
            if num == 0:
                break
            coef = weights * np.abs(s) ** (p - 1.0) * np.sign(s) * num ** (1.0 - p)
        grads = []
        for k in range(len(lams)):
            others_u = np.prod(np.delete(pu, k, axis=0), axis=0) if len(lams) > 1 else np.ones(k_pairs)
            others_v = np.prod(np.delete(pv, k, axis=0), axis=0) if len(lams) > 1 else np.ones(k_pairs)
            g_num = (coef * others_u) @ PU[k] - (coef * others_v) @ PV[k]
            g = g_num - value * dual_norming_vector(lams[k], dual_exponent(duals[k]))
            grads.append(g)
        gn = math.sqrt(sum(float(np.dot(g, g)) for g in grads))
        if gn < 1e-14:
            break
        improved, losses = False, 0
        while step > 1e-12:
            cand = [lam + step * g / gn for lam, g in zip(lams, grads)]
            cand = [c / max(vector_norm(c, duals[k]), 1e-300) for k, c in enumerate(cand)]
            cand_val = _reference_value(cand, PU, PV, weights, p, duals)
            if cand_val > value:
                lams, improved = cand, True
                if halvings is not None:
                    halvings.append(("gain", losses))
                if cand_val <= value * (1.0 + tol):
                    return cand_val, lams
                value = cand_val
                step *= 1.5
                break
            step *= 0.5
            losses += 1
        if not improved:
            if halvings is not None:
                halvings.append(("floor", losses))
            break
    return value, lams


def _assert_batch_matches_reference(cfg, norms, p, starts, iters, tol=ASCENT_TOL, halvings=None):
    values, lams = formnorm._rank_one_ascent(cfg, norms, p, starts, iters, tol)
    assert len(values) == len(starts)
    for i, start in enumerate(starts):
        ref_value, ref_lams = _reference_ascent(cfg, norms, p, start, iters, tol, halvings)
        assert values[i] == ref_value, (i, values[i], ref_value)
        for k, ref in enumerate(ref_lams):
            assert np.array_equal(lams[k][i], ref), (i, k)


_NORM_MIXES = [(1.0,), (2.0,), (math.inf,), "mixed"]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_lockstep_ascent_is_bitwise_the_one_start_loop(p):
    rng = stream(77, int(p) if math.isfinite(p) else 99)
    halvings = []
    for n in (1, 2, 3):
        for mix in _NORM_MIXES:
            factors = (tuple(rng.choice([1.0, 2.0, math.inf], size=n)) if mix == "mixed"
                       else mix * n)
            dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
            # 12 pairs reach numpy's pairwise summation (8 or more terms after the first)
            count = int(rng.choice([1, 3, 12]))
            pairs = []
            for _ in range(count):
                u = SegrePoint(tuple(rng.standard_normal(d) for d in dims))
                v = (SegrePoint.zero(dims) if rng.random() < 0.3
                     else SegrePoint(tuple(rng.standard_normal(d) for d in dims)))
                pairs.append((u, v))
            cfg = PairConfiguration(tuple(pairs), tuple(rng.uniform(0.2, 2.0, size=count)))
            norms = NormSpec(factors, 2.0)
            starts = [[rng.standard_normal(d) for d in dims] for _ in range(5)]
            starts.append([np.zeros(d) for d in dims])
            starts.append([dual_norming_vector(f, r) for f, r in zip(pairs[0][0].factors, factors)])
            for iters in (1, 2, ASCENT_MAX_ITERS):
                _assert_batch_matches_reference(cfg, norms, p, starts, iters, halvings=halvings)
            # without the stop on a small gain, every start ends where no step above the floor gains
            _assert_batch_matches_reference(cfg, norms, p, starts, 300, 0.0, halvings)
    assert_covers_four_trial_rounds(halvings)
    # slots of unequal dimension, down to 1 and past 3: l1 and linf slots shorter than the
    # longest one, several slots of one dimension with different norms, and starts with one
    # all-zero slot
    inf = math.inf
    for dims, factors in [((1, 3), (2.0, 1.0)), ((3, 1, 2), (inf, 2.0, 1.0)),
                          ((3, 2), (2.0, 1.0)), ((2, 3, 3), (inf, 1.0, 2.0)),
                          ((5, 2), (2.0, inf)), ((2, 5, 2), (1.0, inf, 2.0)),
                          ((4, 9, 1), (1.0, 2.0, inf))]:
        count = int(rng.choice([1, 3]))
        pairs = tuple((SegrePoint(tuple(rng.standard_normal(d) for d in dims)),
                       SegrePoint(tuple(rng.standard_normal(d) for d in dims)))
                      for _ in range(count))
        cfg = PairConfiguration(pairs, tuple(rng.uniform(0.2, 2.0, size=count)))
        norms = NormSpec(factors, 2.0)
        starts = [[rng.standard_normal(d) for d in dims] for _ in range(3)]
        starts += [[np.zeros(d) if j == k else rng.standard_normal(d) for j, d in enumerate(dims)]
                   for k in range(len(dims))]
        for iters in (1, 2, ASCENT_MAX_ITERS):
            _assert_batch_matches_reference(cfg, norms, p, starts, iters)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_lockstep_ascent_stationary_start_stops_at_once(p):
    # at lam = (e_0, e_0) on the pair ((e_0, e_0), 0) the gradient is exactly 0
    e0 = np.array([1.0, 0.0])
    cfg = PairConfiguration(((SegrePoint((e0, e0)), SegrePoint.zero((2, 2))),))
    norms = NormSpec((2.0, 1.0), 2.0)
    starts = [[e0, e0], [np.array([0.6, 0.8]), np.array([1.0, -0.5])], [e0, np.zeros(2)]]
    for iters in (0, 1, 2, ASCENT_MAX_ITERS):
        _assert_batch_matches_reference(cfg, norms, p, starts, iters)
    values, lams = formnorm._rank_one_ascent(cfg, norms, p, starts[:1], ASCENT_MAX_ITERS,
                                             ASCENT_TOL)
    assert np.array_equal(lams[0][0], e0) and np.array_equal(lams[1][0], e0)


# --------------------------------------------------------------------------
# lockstep HS-ball ascent against the one-start loop, bit for bit
# --------------------------------------------------------------------------


def _hs_value(G, deltas, weights, p):
    """The HS-ball objective at one kernel as written before formnorm._hs_values stacked it:
    the bitwise oracle for it."""
    nrm = np.linalg.norm(G)
    if nrm == 0:
        return 0.0
    return _one_vector_power_sum(deltas @ (G / nrm), weights, p)


def _reference_hs_ascent(deltas, weights, p, rng, iters, tol, halvings=None):
    """Projected gradient ascent on the Frobenius sphere from one start, run on its own, one
    line-search trial at a time: the oracle for the batch.  Each line search appends to
    `halvings` ("gain" or "floor", its losses)."""
    G = rng.standard_normal(deltas.shape[1])
    G /= np.linalg.norm(G)
    value = _hs_value(G, deltas, weights, p)
    step = 1.0
    for _ in range(iters):
        s = deltas @ G
        mag = np.abs(s) ** (p - 1.0) * np.sign(s)
        grad = (weights * mag) @ deltas
        grad = grad - np.dot(grad, G) * G
        gn = np.linalg.norm(grad)
        if gn < 1e-15:
            break
        improved, losses = False, 0
        while step > 1e-12:
            cand = G + step * grad / gn
            cand /= np.linalg.norm(cand)
            cand_val = _hs_value(cand, deltas, weights, p)
            if cand_val > value:
                G, improved = cand, True
                if halvings is not None:
                    halvings.append(("gain", losses))
                if cand_val <= value * (1.0 + tol):
                    return cand_val
                value = cand_val
                step *= 1.5
                break
            step *= 0.5
            losses += 1
        if not improved:
            if halvings is not None:
                halvings.append(("floor", losses))
            break
    return value


def test_lockstep_hs_ascent_is_bitwise_the_one_start_loop():
    rng = stream(81)
    halvings = []
    for case, p in enumerate((1.0, 1.25, 1.5, 3.0, 4.0)):
        for count in (1, 3, 12):  # 12 pairs reach numpy's pairwise summation
            for dim in range(1, 10):
                deltas = rng.standard_normal((count, dim))
                weights = rng.uniform(0.2, 2.0, size=count)
                draws = np.array([stream(case, dim, i).standard_normal(dim) for i in range(5)])
                for iters, tol in ((1, ASCENT_TOL), (2, ASCENT_TOL), (ASCENT_MAX_ITERS, ASCENT_TOL),
                                   (ASCENT_MAX_ITERS, 0.0)):
                    values = formnorm._hs_ascent(deltas, weights, p, draws, iters, tol)
                    want = [_reference_hs_ascent(deltas, weights, p, stream(case, dim, i), iters,
                                                 tol, halvings) for i in range(5)]
                    assert list(values) == want, (p, count, dim, iters, tol)
    assert_covers_four_trial_rounds(halvings)


def test_hs_values_match_the_one_kernel_version():
    rng = np.random.default_rng(32)
    for dim in (1, 4, 9, 27, 64):
        for count in (1, 3, 12):
            deltas = rng.standard_normal((count, dim))
            weights = rng.uniform(0.2, 2.0, size=count)
            G = rng.standard_normal((7, dim))
            G[2] = 0.0
            G[3] *= 1e-120  # a plain power sum that underflows
            for p in (1.0, 1.5, 3.0, 4.0, math.inf):
                values = formnorm._hs_values(G, deltas, weights, p)
                assert values[2] == 0.0
                assert list(values) == [_hs_value(g, deltas, weights, p) for g in G]


def _never(*_):
    raise AssertionError("called")


def test_lockstep_ascent_without_starts_or_gradients_leaves_the_points():
    empty = np.zeros((0, 2))
    value = np.zeros(0)
    formnorm.lockstep_ascent([empty], [], value, _never, _never, step=1.0, floor=1e-12,
                             iters=10, tol=0.0)
    assert empty.shape == (0, 2) and value.shape == (0,)
    X, value = np.array([[0.5], [2.0]]), np.array([1.0, 3.0])
    formnorm.lockstep_ascent([X], [], value, _never, _never, step=1.0, floor=1e-12, iters=0,
                             tol=0.0)
    assert X.tolist() == [[0.5], [2.0]] and value.tolist() == [1.0, 3.0]


def test_lockstep_ascent_infinite_value_stops_without_a_gradient():
    # maximize 2 - (x - 1)^2 from x = 0, next to a start whose value is infinite
    seen = []

    def gradient(points, state, value):
        seen.append(points[0].copy())
        g = -2.0 * (points[0] - 1.0)
        gn = np.abs(g[:, 0])
        return [g], gn, gn < 1e-14

    def trial(moved):
        return moved, [], 2.0 - (moved[0][:, 0] - 1.0) ** 2

    X, value = np.array([[5.0], [0.0]]), np.array([math.inf, 1.0])
    formnorm.lockstep_ascent([X], [], value, gradient, trial, step=0.5, floor=1e-12, iters=50,
                             tol=0.0)
    assert seen and all(len(rows) == 1 for rows in seen)
    assert X[0, 0] == 5.0 and value[0] == math.inf
    assert abs(X[1, 0] - 1.0) < 1e-6 and 2.0 - 1e-12 < value[1] <= 2.0


# --------------------------------------------------------------------------
# lockstep alternating maximization against the one-start loop, bit for bit
# --------------------------------------------------------------------------


def _reference_gradient(kernel, factors, y, k):
    """slot_gradient of one point, with plain labels and no batch index."""
    n = kernel.ndim - 1
    operands: list = [kernel, list(range(n)) + [n]]
    for j in range(n):
        if j != k:
            operands.extend([factors[j], [j]])
    operands.extend([y, [n]])
    return np.einsum(*operands, [k])


def _alternating_start(op, rng):
    """The start of one restart of operator_norm as drawn before it stacked its draws: the
    oracle for them."""
    if rng is None:
        return [dual_norming_vector(np.ones(d), r) for d, r in zip(op.dims, op.norms.factors)]
    return [dual_norming_vector(rng.standard_normal(d), r)
            for d, r in zip(op.dims, op.norms.factors)]


def _reference_alternating(op, factors, max_sweeps):
    """Alternating maximization from one start, run on its own: the oracle for the batch."""
    factors = [np.asarray(f, dtype=float) for f in factors]
    s_dual = dual_exponent(op.norms.codomain)
    y = dual_norming_vector(eval_operator(op, SegrePoint(tuple(factors))), s_dual)
    best = -math.inf
    for _ in range(max_sweeps):
        for k in range(op.n):
            g = _reference_gradient(op.kernel.array, factors, y, k)
            assert np.array_equal(formnorm.slot_gradient(op.kernel.array, factors, y, k), g)
            factors[k] = dual_norming_vector(g, op.norms.factors[k])
        t = eval_operator(op, SegrePoint(tuple(factors)))
        y = dual_norming_vector(t, s_dual)
        value = vector_norm(t, op.norms.codomain)
        if value <= best * (1.0 + 1e-13):
            best = max(best, value)
            break
        best = value
    return best, factors


def _assert_alternating_matches_reference(op, starts, max_sweeps):
    values, factors = formnorm._alternating_max(
        op, [np.stack([s[k] for s in starts]) for k in range(op.n)], max_sweeps)
    assert len(values) == len(starts)
    for i, start in enumerate(starts):
        ref_value, ref_factors = _reference_alternating(op, start, max_sweeps)
        assert values[i] == ref_value, (i, values[i], ref_value)
        for k, ref in enumerate(ref_factors):
            assert np.array_equal(factors[k][i], ref), (i, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lockstep_alternating_max_is_bitwise_the_one_start_loop(n):
    rng = stream(78, n)
    exponents = [1.0, 2.0, math.inf]
    for m in (1, 2, 3):
        for codomain in exponents:
            for case in ("random", "zero-slice", "integer"):
                factors = tuple(rng.choice(exponents, size=n))
                dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
                if case == "integer":  # integer entries make ties in the argmax
                    kernel = rng.integers(-2, 3, size=dims + (m,)).astype(float)
                else:
                    kernel = rng.standard_normal(dims + (m,))
                if case == "zero-slice":
                    kernel[..., 0] = 0.0
                op = MultilinearOperator.from_array(kernel, NormSpec(factors, codomain))
                starts = [_alternating_start(op, None)]
                starts += [_alternating_start(op, stream(78, n, i)) for i in range(4)]
                starts += [[rng.standard_normal(d) for d in dims], [np.zeros(d) for d in dims]]
                for max_sweeps in (1, 2, 200):
                    _assert_alternating_matches_reference(op, starts, max_sweeps)


def test_operator_norm_starts_are_the_one_start_draws(monkeypatch):
    seen = []

    def spy(op, factors, *args):
        seen.append([F.copy() for F in factors])
        return alternating_max(op, factors, *args)

    alternating_max = formnorm._alternating_max
    monkeypatch.setattr(formnorm, "_alternating_max", spy)
    rng = stream(82)
    # an l2 first slot of dimension >= 2 and m = 2 keep every operator on the relaxed path
    for dims in ((3, 3), (2, 1), (2, 1, 3), (4, 2, 2)):
        for rest in (2.0, 1.0, math.inf):
            factors = (2.0,) + (rest,) * (len(dims) - 1)
            op = MultilinearOperator.from_array(rng.standard_normal(dims + (2,)),
                                                NormSpec(factors, 1.0))
            for seed, restarts in ((0, 1), (3, 2), (7, 9)):
                seen.clear()
                operator_norm(op, seed=seed, restarts=restarts)
                want = [_alternating_start(op, None if i == 0 else stream(seed, 0, i))
                        for i in range(restarts)]
                assert len(seen) == 1
                for k, F in enumerate(seen[0]):
                    assert np.array_equal(F, np.array([w[k] for w in want])), (dims, seed, k)


def test_operator_norm_takes_the_first_maximum():
    # a {-1, 0, 1} kernel on l2 x l1 x l1 factors: many restarts reach the same
    # value exactly, at different maximizers
    rng = stream(79)
    kernel = rng.integers(-1, 2, size=(3, 3, 3, 2)).astype(float)
    op = MultilinearOperator.from_array(kernel, NormSpec((2.0, 1.0, 1.0), 2.0))
    starts = [_alternating_start(op, None if i == 0 else stream(5, 0, i))
              for i in range(16)]
    values, factors = formnorm._alternating_max(
        op, [np.stack([s[k] for s in starts]) for k in range(op.n)])
    tied = np.flatnonzero(values == values.max())
    first = tied[0]
    assert any(not all(np.array_equal(F[first], F[i]) for F in factors) for i in tied[1:])
    rep = operator_norm(op, seed=5, restarts=16)
    assert rep.method == "relaxed"
    assert rep.certified_lower == values[first]
    for F, x in zip(factors, rep.detail["argmax"].factors):
        assert np.array_equal(x, F[first])


def test_operator_norm_without_restarts_has_zero_lower_end():
    op = MultilinearOperator.from_array(stream(80).standard_normal((2, 2, 2, 2)))
    rep = operator_norm(op, restarts=0)
    assert rep.certified_lower == 0.0 and rep.detail["argmax"] is None
    assert rep.certified_upper == formnorm._relaxed_upper(op) > 0
    # the SVD path evaluates T only for the lower end, so it skips that evaluation too
    for kernel, norms in ((stream(81).standard_normal((3, 2, 1)), NormSpec.all_l2(2)),
                          (stream(82).standard_normal((3, 2)), NormSpec.all_l2(1))):
        op = MultilinearOperator.from_array(kernel, norms)
        rep, full = operator_norm(op, restarts=0), operator_norm(op)
        assert rep.method == full.method == "svd"
        assert rep.certified_lower == 0.0 and rep.detail["argmax"] is None
        assert rep.certified_upper == full.certified_upper > 0
        assert full.certified_lower > 0 and full.detail["argmax"] is not None


def test_operator_norm_pinned_values():
    from pilip.verify import random_operator

    rep = operator_norm(random_operator((3, 3, 3), 2, stream(0, 22)), seed=0)
    assert repr([rep.certified_lower, rep.certified_upper]) == repr(
        [3.76754314458202, 5.186514468949431])
    assert rep.method == "relaxed"
    op = random_operator((2, 3), 2, stream(0, 3), NormSpec((math.inf, 2.0), 2.0))
    rep = operator_norm(op, seed=0, restarts=8)
    assert repr([rep.certified_lower, rep.certified_upper]) == repr(
        [3.6644274890840927, 4.237541798334501])


# --------------------------------------------------------------------------
# batched extreme-point enumeration and the stacked triangle bound
# --------------------------------------------------------------------------


def _serial_enumeration_max(op):
    """The enumeration one tuple at a time, keeping the first strictly larger value: the
    oracle of the batched enumeration."""
    sets = formnorm._extreme_sets(op)
    if sets is None:
        return None
    best, arg = -1.0, None
    for combo in itertools.product(*sets):
        value = vector_norm(eval_operator(op, SegrePoint(combo)), op.norms.codomain)
        if value > best:
            best, arg = value, SegrePoint(combo)
    return best, arg


def _assert_enumeration_matches_serial(op):
    got, want = formnorm._enumeration_max(op), _serial_enumeration_max(op)
    assert want is not None
    assert got[0] == want[0]
    assert all(np.array_equal(a, b) for a, b in zip(got[1].factors, want[1].factors))
    return got


def test_batched_enumeration_is_bitwise_the_serial_loop():
    inf = math.inf
    # ties: every extreme tuple of lambda_n(3) and of the sign-symmetric l1 kernel has the
    # same value, and two tuples of the l-inf identity tie; the first maximizer is kept
    assert _assert_enumeration_matches_serial(lambda_n(3))[0] == 1.0
    flips = MultilinearOperator.from_array(np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None],
                                           NormSpec((1.0, 1.0), 2.0))
    _, arg = _assert_enumeration_matches_serial(flips)
    assert [f.tolist() for f in arg.factors] == [[1.0, 0.0], [1.0, 0.0]]
    eye = MultilinearOperator.from_array(np.eye(2)[:, :, None], NormSpec((inf, inf), 2.0))
    value, arg = _assert_enumeration_matches_serial(eye)
    assert value == 2.0 and [f.tolist() for f in arg.factors] == [[1.0, -1.0], [1.0, -1.0]]
    rng = stream(83)
    for case in range(40):
        n = 1 + case % 3
        factors = tuple(rng.choice([1.0, inf], size=n))
        dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
        m = int(rng.integers(1, 4))
        kernel = rng.standard_normal(dims + (m,))
        if case % 4 == 0:
            kernel = np.round(kernel)  # integer entries: ties between tuples
        norms = NormSpec(factors, (1.0, 2.0, inf)[case % 3])
        _assert_enumeration_matches_serial(MultilinearOperator.from_array(kernel, norms))


def test_enumeration_cap_boundary():
    assert ENUMERATION_CAP == 4096
    rng = stream(84)
    l1 = NormSpec((1.0, 1.0), 2.0)
    at_cap = MultilinearOperator.from_array(rng.standard_normal((16, 256, 1)), l1)
    linf_at_cap = MultilinearOperator.from_array(rng.standard_normal((13, 2)),
                                                 NormSpec((math.inf,), 1.0))
    over_cap = MultilinearOperator.from_array(rng.standard_normal((17, 241, 1)), l1)
    for op in (at_cap, linf_at_cap):  # 16 * 256 = 2^12 = 4096 tuples
        _assert_enumeration_matches_serial(op)
        assert operator_norm(op, restarts=0).method == "enumeration"
    assert formnorm._extreme_sets(over_cap) is None  # 17 * 241 = 4097 tuples
    assert formnorm._enumeration_max(over_cap) is None
    assert operator_norm(over_cap, restarts=0).method == "relaxed"


@pytest.mark.parametrize("k", [1, 3, 12])
def test_stacked_pair_triangle_is_the_product_of_slot_norms(k):
    rng = stream(85, k)
    inf = math.inf
    for dims in ((1,), (3,), (2, 3), (1, 4, 2), (3, 1, 2, 2)):
        for factors in ((1.0,), (2.0,), (inf,), None):
            factors = (tuple(rng.choice([1.0, 2.0, inf], size=len(dims))) if factors is None
                       else factors * len(dims))
            norms = NormSpec(factors, 2.0)
            pairs = [(SegrePoint(tuple(rng.standard_normal(d) for d in dims)),
                      SegrePoint.zero(dims) if i % 3 == 0
                      else SegrePoint(tuple(rng.standard_normal(d) for d in dims)))
                     for i in range(k)]
            want = [math.prod(vector_norm(f, r) for f, r in zip(u.factors, factors))
                    + math.prod(vector_norm(f, r) for f, r in zip(v.factors, factors))
                    for u, v in pairs]
            assert pair_triangle(pair_factors(pairs), norms).tolist() == want
