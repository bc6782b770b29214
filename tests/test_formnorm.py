import collections
import itertools
import math

import numpy as np
import pytest

from pilip import formnorm
from pilip.formnorm import (
    ASCENT_MAX_ITERS,
    ENUMERATION_CAP,
    SEARCH_FREE_UPPERS,
    config_denominator,
    denominator_upper,
    exact_op_denominator,
    exact_rank_one_maximizer,
    hs_to_op_scale,
    hs_uppers,
    operator_norm,
    pair_triangle,
    rank_one_form,
    rank_one_maximizer,
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
    elementary_tensor,
    eval_operator,
    pair_factors,
    row_norms,
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
    # config_denominator's upper is denominator_upper's unless its rank-one lower lies above
    # it; where exact_op_denominator gives D, both ends are D, between the ascent and that
    # upper; where exact_rank_one_maximizer applies, its lower is at least the ascent's
    dims, norms = (2, 3, 2)[:len(factors)], NormSpec(factors, 2.0)
    rng, unclamped, exact, rank_one = stream(15, len(factors), int(1.0 in factors)), 0, 0, 0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for count, zero in itertools.product((1, 4), (0.0, 1.0)):
            cfg = random_pairs(dims, count, rng, zero_fraction=zero)
            cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
            value, method = denominator_upper(cfg, p, norms)
            rep = config_denominator(cfg, p, "op", norms, seed=1, restarts=4)
            ascent = rank_one_maximizer(cfg, p, norms, seed=1, restarts=4)[0]
            if exact_op_denominator(cfg, p, norms) is not None:
                exact += 1
                assert rep.method == EXACT_METHOD[factors]
                assert rep.certified_lower == rep.certified_upper <= value * (1 + 1e-12)
                assert ascent <= rep.certified_lower * (1 + 1e-12)
                continue
            if exact_rank_one_maximizer(cfg, p, norms) is not None:
                rank_one += 1
                assert rep.method == f"rank-one-exact/{method}"
                assert ascent <= rep.certified_lower * (1 + 1e-12)
            else:
                assert rep.method == f"rank-one-ascent/{method}"
            if rep.certified_lower <= value:
                unclamped += 1
                assert rep.certified_upper == value
            else:
                assert rep.certified_upper == rep.certified_lower <= value * (1 + 1e-14)
    # 20 cases: the l1 products are exact at every p, the l2 forms at p = 1 and p = inf;
    # the best rank-one form is exact at every p on (linf, linf), at p = 1, 2, inf on
    # (linf, l1, l2), and on a single pair (K = 1) also at p = 1.5 and 3 on (linf, l1, l2)
    # and at p = 1.5, 2, 3 on (l2, l2)
    assert exact == {(1.0, 1.0): 20, (2.0, 2.0): 8, (1.0, math.inf): 20,
                     (1.0, 1.0, 1.0): 20}.get(factors, 0)
    assert rank_one == {(2.0, 2.0): 6, (math.inf, math.inf): 20,
                        (math.inf, 1.0, 2.0): 16}.get(factors, 0)
    # on one l2 pair the ascent can end ulps above the nuclear upper
    assert unclamped >= (20 - exact) / 2


EXACT_METHOD = {(1.0, 1.0): "vertex-exact", (2.0, 2.0): "nuclear-exact",
                (1.0, math.inf): "vertex-exact", (1.0, 1.0, 1.0): "vertex-exact"}


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
    values, _ = formnorm._rank_one_ascent(cfg, norms, p, starts, ASCENT_MAX_ITERS)
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
    # on the ascent path, dividing each full-kernel candidate by operator_norm's search-free
    # upper gives the ends that an operator_norm search per candidate gave, bit for bit
    mixes = {2: [(2.0, 2.0), (math.inf, 2.0), (1.0, math.inf), (1.0, 2.0), (math.inf, math.inf)],
             3: [(2.0, 2.0, 2.0), (math.inf, 1.0, 2.0), (1.0, 1.0, 2.0), (math.inf, math.inf, 2.0),
                 (1.0, math.inf, 1.0)]}
    cases, exact, rank_one, beaten, clamped = 0, 0, 0, [], []
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
                    if beat:
                        beaten.append((factors, p, count, zero))
                    if exact_op_denominator(cfg, p, norms) is not None:
                        # D exactly, between the searched lower and the search-free upper
                        exact += 1
                        assert rep.method == ("nuclear-exact" if factors == (2.0, 2.0)
                                              else "vertex-exact")
                        assert rep.certified_lower == rep.certified_upper
                        assert lower <= rep.certified_lower * (1 + 1e-12)
                        search_free = denominator_upper(cfg, p, norms)[0]
                        assert rep.certified_upper <= search_free * (1 + 1e-12)
                        continue
                    if exact_rank_one_maximizer(cfg, p, norms) is not None:
                        # the best rank-one form exactly: no ascent, a lower at least as high
                        rank_one += 1
                        assert rep.method.startswith("rank-one-exact/")
                        assert lower <= rep.certified_lower * (1 + 1e-12)
                        if rep.certified_upper != upper:  # the clamp to the lower end fired
                            clamped.append((count, zero))
                            assert rep.certified_upper == rep.certified_lower <= upper * (1 + 1e-15)
                        continue
                    assert (rep.certified_lower, rep.certified_upper) == (lower, upper)
                    cases += 1
    # 150 cases: (l2, l2) at p = 1 and p = inf, (l1, linf) and (l1, linf, l1) are exact; the
    # best rank-one form is exact on (linf, linf) at every p, on the one-l2 mixes at
    # p = 1, 2, inf and on every single pair (K = 1) with at most two l2 slots
    assert (cases, exact, rank_one) == (28, 36, 86)
    # On a single pair against 0 the triangle upper is D, which a rank-one form attains; in 4
    # of those 34 cases the exact value evaluates 1-2 ulps above that upper, which the clamp
    # then raises to it (the search had stopped below)
    assert clamped == [(1, 1.0)] * 4
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
        assert rep.detail["ball"] == "hs" and rep.certified_lower <= rep.certified_upper
        if method == "hs-exact":
            assert rep.method == "hs-exact" and rep.certified_upper == value
        else:  # the op bracket of the flattening, whose "kappa-hs" upper is hs_uppers
            assert rep.method in {f"rank-one-{how}/{up}" for how in ("exact", "ascent")
                                  for up in ("kappa-hs", "triangle")}
            assert rep.certified_upper <= value
    scalar = random_pairs((1, 1), 2, rng)
    assert denominator_upper(scalar, 3.0, NormSpec.all_l2(2), "hs")[1] == "scalar-exact"
    with pytest.raises(ValueError, match="ball"):
        denominator_upper(cfg, 2.0, NormSpec.all_l2(2), "frobenius")


def test_hs_ball_denominator_prices_its_upper_once(monkeypatch):
    # off p = 2 and p = inf the HS bracket is the flattening's op bracket, whose "kappa-hs"
    # upper is the one hs_uppers call; at p = 2 the one call is the exact value
    calls = []
    real = formnorm.hs_uppers

    def spy(deltas, weights, p):
        calls.append(deltas.shape)
        return real(deltas, weights, p)

    monkeypatch.setattr(formnorm, "hs_uppers", spy)
    cfg = random_pairs((3, 3), 4, stream(7))
    for p in (1.0, 2.0):
        calls.clear()
        config_denominator(cfg, p, "hs")
        assert calls == [(1, 4, 9)], (p, calls)


def test_exact_hs_ball_is_the_op_ball_of_the_flattening():
    # the HS ball of forms is the l2 ball of R^D: at p = 1 its denominator is the largest
    # ||sum_i e_i a_i Delta_i||_2 over signs e with e_1 = 1, found exactly; elsewhere the HS
    # bracket is the op bracket of the flattening, bit for bit
    rng = stream(27, 1)
    for dims in ((2, 2), (2, 3), (2, 2, 2)):
        for K in (1, 2, 4, 6):
            base = random_pairs(dims, K, rng)
            cfg = PairConfiguration(base.pairs, tuple(rng.uniform(0.2, 2.0, size=K)))
            rep = config_denominator(cfg, 1.0, "hs", restarts=4)
            weighted = np.asarray(cfg.weights)[:, None] * cfg.rows
            brute = max(np.linalg.norm(weighted[0] + np.array(signs) @ weighted[1:])
                        for signs in itertools.product((1.0, -1.0), repeat=K - 1))
            assert rep.method.startswith("rank-one-exact/"), rep.method
            assert rep.certified_lower == pytest.approx(brute, rel=1e-12, abs=0.0)
            assert rep.certified_lower <= rep.certified_upper
            flat = PairConfiguration(tuple((SegrePoint((row,)), SegrePoint.zero((row.size,)))
                                           for row in cfg.rows), cfg.weights)
            for p in (1.5, 3.0):
                for seed, restarts in ((0, 4), (3, 16)):
                    hs = config_denominator(cfg, p, "hs", seed=seed, restarts=restarts)
                    op = config_denominator(flat, p, "op", NormSpec((2.0,), 2.0), seed=seed,
                                            restarts=restarts)
                    assert hs.detail["ball"] == "hs" and hs.method == op.method
                    assert (hs.certified_lower, hs.certified_upper) == (
                        op.certified_lower, op.certified_upper)
            # warm starts: a start on cfg's slots enters as its elementary tensor, and the HS
            # report's own maximizer fed back keeps the lower end
            start = [rng.standard_normal(d) for d in dims]
            warm = config_denominator(cfg, 1.5, "hs", restarts=2, extra_rank_one_starts=[start])
            want = config_denominator(flat, 1.5, "op", NormSpec((2.0,), 2.0), restarts=2,
                                      extra_rank_one_starts=[[elementary_tensor(
                                          SegrePoint(tuple(start))).array.reshape(-1)]])
            assert warm.certified_lower == want.certified_lower
            again = config_denominator(
                cfg, 1.5, "hs", restarts=2,
                extra_rank_one_starts=[warm.detail["rank_one_maximizer"]],
                extra_kernels=[warm.detail["full_kernel_candidate"]])
            assert again.certified_lower >= warm.certified_lower * (1.0 - 1e-12)


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
            rows = formnorm.power_sums(S, weights, p)
            for i, s in enumerate(S):
                want = _one_vector_power_sum(s, weights, p)
                assert rows[i] == want and formnorm.weighted_power_sum(s, weights, p) == want
            if math.isfinite(p):  # rows that take the rescue path: a plain sum of 0 or inf
                with np.errstate(over="ignore", under="ignore"):
                    plain = (weights * np.abs(S) ** p).sum(axis=1)
                top = np.abs(S).max(axis=1)
                rescaled += int(np.sum(((plain == 0.0) | (plain == math.inf))
                                       & (top > 0.0) & (top < math.inf)))
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
                                          ASCENT_MAX_ITERS)
    # D of (u, 0) on l2 factors is ||u_1|| ||u_2||
    exact = float(np.linalg.norm(u.factors[0]) * np.linalg.norm(u.factors[1]))
    assert 0.0 < values.max() and abs(values.max() - exact) <= 1e-12 * exact


def test_rank_one_ascent_stop_does_not_depend_on_the_scale_of_the_pairs():
    # the ratio is 1-homogeneous in each factor of the pairs: at scale 1e-60 per factor every
    # start sweeps as it does at scale 1 and stops on a relative gain, so a stop on an
    # absolute one would halt each start at once, short of the optimum
    rng = stream(16)
    starts = [[rng.standard_normal(3), rng.standard_normal(3)] for _ in range(8)]
    ends = []
    for scale in (1.0, 1e-60):
        u = SegrePoint((scale * np.array([1.0, 2.0, 0.5]), scale * np.array([1.0, -1.0, 3.0])))
        cfg = PairConfiguration(((u, SegrePoint.zero((3, 3))),))
        values, _ = formnorm._rank_one_ascent(cfg, NormSpec.all_l2(2), 4.0, starts,
                                              ASCENT_MAX_ITERS)
        ends.append(values)
    exact = math.sqrt(5.25) * math.sqrt(11.0)  # ||u_1|| ||u_2|| at scale 1
    np.testing.assert_allclose(ends[0], exact, rtol=1e-12)  # every start reaches the optimum
    np.testing.assert_allclose(ends[1], ends[0] * 1e-120, rtol=1e-12)


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
# exact op-ball denominators against brute-force vertex lists
# --------------------------------------------------------------------------


def _vertex_oracle(cfg, p, kernels):
    """max over the given kernels phi of (sum_i a_i |<phi, Delta_i>|^p)^(1/p), term by term."""
    weights, best = np.asarray(cfg.weights), 0.0
    for phi in kernels:
        t = np.abs(cfg.rows @ np.asarray(phi, dtype=float).reshape(-1))
        value = float(t.max()) if math.isinf(p) else float(np.sum(weights * t**p) ** (1 / p))
        best = max(best, value)
    return best


def _signs(d):
    return [np.array(s, dtype=float) for s in itertools.product((-1.0, 1.0), repeat=d)]


def _signed_basis(d):
    return [s * e for e in np.eye(d) for s in (1.0, -1.0)]


def _fibers(choices, count, shape, axis):
    """Every kernel of the given shape whose `count` fibers along `axis` each take one of
    `choices`: the vertices of a product of dual balls."""
    for pick in itertools.product(choices, repeat=count):
        yield np.moveaxis(np.array(pick).reshape(*np.delete(shape, axis), shape[axis]), -1, axis)


VERTEX_CASES = [  # (factor norms, dims, the vertices of the op ball)
    ((1.0,), (4,), lambda: _signs(4)),
    ((math.inf,), (4,), lambda: _signed_basis(4)),
    ((1.0, 1.0), (2, 3), lambda: [s.reshape(2, 3) for s in _signs(6)]),
    ((1.0, math.inf), (2, 3), lambda: _fibers(_signed_basis(3), 2, (2, 3), 1)),
    ((math.inf, 1.0), (3, 2), lambda: _fibers(_signed_basis(3), 2, (3, 2), 0)),
    ((1.0, 1.0, math.inf), (2, 2, 2), lambda: _fibers(_signed_basis(2), 4, (2, 2, 2), 2)),
]


@pytest.mark.parametrize("factors, dims, vertices", VERTEX_CASES)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_vertex_exact_denominator_matches_every_vertex(factors, dims, vertices, p):
    rng = stream(40, len(factors), p if math.isfinite(p) else 99)
    for count in (1, 3, 6):
        cfg = random_pairs(dims, count, rng)
        cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
        value, method = exact_op_denominator(cfg, p, NormSpec(factors, 2.0))
        assert method == "vertex-exact"
        np.testing.assert_allclose(value, _vertex_oracle(cfg, p, vertices()), rtol=1e-12)


def test_nuclear_exact_denominator_matches_a_grid_over_o2():
    # the extreme points of the spectral ball on 2 x 2 are the rotations and reflections
    theta = np.linspace(0.0, 2 * math.pi, 2**18, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    grid = np.concatenate([np.stack([c, -s, s, c], axis=1), np.stack([c, s, s, -c], axis=1)])
    rng = stream(41)
    for count in (1, 2, 5):
        cfg = random_pairs((2, 2), count, rng)
        cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
        value, method = exact_op_denominator(cfg, 1.0, NormSpec.all_l2(2))
        oracle = float(np.max(np.abs(grid @ cfg.rows.T) @ np.asarray(cfg.weights)))
        assert method == "nuclear-exact"
        assert oracle <= value * (1 + 1e-12) and value <= oracle * (1 + 1e-4)
        nuclear = max(np.linalg.svd(r.reshape(2, 2), compute_uv=False).sum() for r in cfg.rows)
        inf_value = exact_op_denominator(cfg, math.inf, NormSpec.all_l2(2))[0]
        np.testing.assert_allclose(inf_value, nuclear, rtol=1e-14)


EXACT_MIXES = [  # (factor norms, dims, exponents on which D is exact)
    ((1.0,), (5,), (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)),
    ((math.inf,), (5,), (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)),
    ((1.0, 1.0), (3, 3), (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)),
    ((1.0, math.inf), (3, 3), (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)),
    ((1.0, math.inf, 1.0), (2, 2, 2), (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)),
    ((2.0, 2.0), (3, 3), (1.0, math.inf)),
]


@pytest.mark.parametrize("factors, dims, exponents", EXACT_MIXES)
def test_exact_denominator_lies_between_the_ascent_and_the_search_free_upper(
        factors, dims, exponents):
    norms, rng = NormSpec(factors, 2.0), stream(42, len(factors), int(1.0 in factors))
    for p in exponents:
        for count in (1, 6):
            cfg = random_pairs(dims, count, rng, zero_fraction=0.5)
            cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
            value = exact_op_denominator(cfg, p, norms)[0]
            ascent = rank_one_maximizer(cfg, p, norms, seed=3, restarts=8)[0]
            assert ascent <= value * (1 + 1e-12)
            assert value <= denominator_upper(cfg, p, norms)[0] * (1 + 1e-12)
            rep = config_denominator(cfg, p, "op", norms, seed=3, restarts=8)
            assert rep.certified_lower == rep.certified_upper == value


@pytest.mark.parametrize("factors, dims, exponents", EXACT_MIXES)
@pytest.mark.parametrize("t", [2.75, 1e-85])
def test_exact_denominator_is_homogeneous_and_does_not_underflow(factors, dims, exponents, t):
    # scaling every factor by t scales D by t^n; at t = 1e-85 the plain p-sums underflow
    norms, rng = NormSpec(factors, 2.0), stream(43, len(factors))
    cfg = random_pairs(dims, 4, rng)
    for p in exponents:
        value = exact_op_denominator(cfg, p, norms)[0]
        scaled = exact_op_denominator(cfg.scaled(t), p, norms)[0]
        assert scaled > 0.0
        np.testing.assert_allclose(scaled, t ** len(dims) * value, rtol=1e-12)


def test_past_the_enumeration_cap_the_ascent_runs():
    # l1^d prices 2^(d-1) sign vectors, (l2, l2) at p = 1 2^(K-1) sign patterns
    rng = stream(44)
    for cases, norms, p in (([random_pairs((13,), 2, rng), random_pairs((14,), 2, rng)],
                             NormSpec((1.0,), 2.0), 2.0),
                            ([random_pairs((2, 2), 13, rng), random_pairs((2, 2), 14, rng)],
                             NormSpec.all_l2(2), 1.0)):
        at_cap, past = cases
        assert exact_op_denominator(at_cap, p, norms) is not None
        assert exact_op_denominator(past, p, norms) is None
        rep = config_denominator(past, p, "op", norms, restarts=4)
        assert rep.method.startswith("rank-one-ascent/")
    assert ENUMERATION_CAP == 2**12


def test_exact_paths_count_vertices_before_building_them(monkeypatch):
    # an l1^30 op ball has 2^29 sign vertices, about 4 GB as rows: every exact path counts
    # them against the cap and declines without building them
    vertices = formnorm._vertices

    def refuse(d, r):
        assert formnorm._vertex_count(d, r) <= ENUMERATION_CAP, f"built l_{r}^{d}'s vertices"
        return vertices(d, r)

    monkeypatch.setattr(formnorm, "_vertices", refuse)
    cfg, norms = random_pairs((30,), 2, stream(48)), NormSpec((1.0,), 2.0)
    assert exact_op_denominator(cfg, 2.0, norms) is None
    assert exact_rank_one_maximizer(cfg, 2.0, norms) is None
    op = MultilinearOperator.from_array(stream(48, 1).standard_normal((30, 2)),
                                        NormSpec((math.inf,), 2.0))
    assert operator_norm(op, restarts=0).method == "relaxed"
    assert config_denominator(cfg, 2.0, "op", norms, restarts=4).method.startswith(
        "rank-one-ascent/")


def test_exact_denominator_declines_other_geometries():
    rng = stream(45)
    cfg, scalar = random_pairs((2, 2), 3, rng), random_pairs((1, 1), 2, rng)
    for factors, p in (((2.0, 2.0), 2.0), ((math.inf, math.inf), 1.0), ((1.0, 2.0), 1.0),
                       ((math.inf, 1.0, 2.0), 1.0)):
        one = cfg if len(factors) == 2 else random_pairs((2, 2, 2), 3, rng)
        assert exact_op_denominator(one, p, NormSpec(factors, 2.0)) is None
    # scalar factor spaces keep their own exact method
    assert exact_op_denominator(scalar, 2.0, NormSpec((1.0, 1.0), 2.0)) is None
    assert config_denominator(scalar, 2.0, "op", NormSpec((1.0, 1.0), 2.0)).method == (
        "scalar-exact")


@pytest.mark.parametrize("factors, n1_factor", [((2.0, 1.0), 1.0), ((math.inf, math.inf), math.inf),
                                                ((2.0, math.inf), math.inf)])
def test_exact_denominator_ignores_slots_of_dimension_one(factors, n1_factor):
    # every norm of R^1 is |x|: on dims (1, 3) the op ball is that of the n = 1 problem whose
    # pairs fold the scalar factor into the other
    def fold(x):
        return SegrePoint((x.factors[0][0] * x.factors[1],))

    rng = stream(47)
    for p in (1.0, 2.0, 3.0, math.inf):
        cfg = random_pairs((1, 3), 4, rng)
        cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, 4)))
        folded = PairConfiguration(tuple((fold(u), fold(v)) for u, v in cfg.pairs), cfg.weights)
        value, method = exact_op_denominator(cfg, p, NormSpec(factors, 2.0))
        assert method == "vertex-exact"
        assert value == exact_op_denominator(folded, p, NormSpec((n1_factor,), 2.0))[0]
        assert config_denominator(cfg, p, "op", NormSpec(factors, 2.0)).method == "vertex-exact"


# --------------------------------------------------------------------------
# the exact best rank-one form against brute-force vertex tuples and an l2 grid
# --------------------------------------------------------------------------


def _dual_vertices(d, r):
    """Every extreme point of the dual ball of slot l_r^d, both signs: +-e_j for linf, the
    sign vectors for l1."""
    return _signed_basis(d) if r == math.inf else _signs(d)


def _rank_one_oracle(cfg, p, norms, angles=2**16):
    """The largest ratio over the rank-one forms whose l1 and linf slots take every vertex of
    their dual balls and whose l2 slot of R^2 (if any) takes every point of an `angles`-point
    grid on the unit circle; each form is a kernel paired with the difference rows.  Every
    such form has unit dual norms, so the ratio is the weighted p-sum."""
    weights, dims = np.asarray(cfg.weights), cfg.dims
    theta = np.linspace(0.0, 2 * math.pi, angles, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    choices = [[None] if r == 2.0 else _dual_vertices(d, r) for d, r in zip(dims, norms.factors)]
    best = 0.0
    for tup in itertools.product(*choices):
        lams = [circle if v is None else np.asarray(v)[None] for v in tup]
        kernels = lams[0]
        for lam in lams[1:]:
            rows = max(len(kernels), len(lam))
            kernels = (kernels[:, :, None] * lam[:, None, :]).reshape(rows, -1)
        t = np.abs(kernels @ cfg.rows.T)
        values = t.max(axis=1) if math.isinf(p) else (t**p @ weights) ** (1 / p)
        best = max(best, float(values.max()))
    return best


def _assert_is_a_rank_one_maximizer(cfg, p, norms, value, lams):
    # every non-l2 slot sits at a vertex with its sign fixed, the l2 slot on the unit sphere,
    # and the value is the ratio at that form
    for lam, d, r in zip(lams, cfg.dims, norms.factors):
        if d > 1 and r == math.inf:
            assert sorted(lam.tolist()) == [0.0] * (d - 1) + [1.0]
        elif d > 1 and r == 1.0:
            assert lam[0] == 1.0 and set(lam.tolist()) <= {-1.0, 1.0}
        else:
            assert vector_norm(lam, 2.0) == pytest.approx(1.0, rel=1e-14)
    form = rank_one_form(lams, norms).kernel.array.reshape(-1)
    ratio = weighted_power_sum(cfg.rows @ form, np.asarray(cfg.weights), p)
    ratio /= rank_one_norm(lams, norms)
    np.testing.assert_allclose(value, ratio, rtol=1e-13)


L2_MIXES = [  # (factor norms, dims), the l2 slot of dimension 2
    ((math.inf, 2.0), (3, 2)),
    ((1.0, 2.0), (3, 2)),
    ((math.inf, 1.0, 2.0), (2, 2, 2)),
    ((1.0, 1.0, 2.0), (2, 3, 2)),
    ((2.0, math.inf), (2, 3)),
]


@pytest.mark.parametrize("factors, dims", L2_MIXES)
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_exact_rank_one_maximizer_matches_vertices_and_an_l2_grid(factors, dims, p):
    norms, rng = NormSpec(factors, 2.0), stream(48, len(factors), int(p) if p < 3 else 9)
    for count in (1, 3, 6):
        cfg = random_pairs(dims, count, rng)
        cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
        value, lams = exact_rank_one_maximizer(cfg, p, norms)
        oracle = _rank_one_oracle(cfg, p, norms)
        # the grid's spacing of 1e-4 rad costs the oracle at most ~1.2e-9 relative
        assert oracle <= value * (1 + 1e-12) and value <= oracle * (1 + 1e-8)
        _assert_is_a_rank_one_maximizer(cfg, p, norms, value, lams)


@pytest.mark.parametrize("factors, dims", [((math.inf, math.inf), (3, 3)),
                                           ((1.0, math.inf, math.inf), (2, 2, 3))])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
def test_exact_rank_one_maximizer_matches_every_vertex_tuple(factors, dims, p):
    norms, rng = NormSpec(factors, 2.0), stream(49, len(factors), int(2 * p))
    for count in (1, 3, 6):
        cfg = random_pairs(dims, count, rng)
        cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
        value, lams = exact_rank_one_maximizer(cfg, p, norms)
        np.testing.assert_allclose(value, _rank_one_oracle(cfg, p, norms), rtol=1e-12)
        _assert_is_a_rank_one_maximizer(cfg, p, norms, value, lams)


RANK_ONE_MIXES = [  # (factor norms, dims, exponents on which the best rank-one form is exact)
    ((2.0,), (4,), (1.0, 2.0, math.inf)),
    ((math.inf, 2.0), (3, 3), (1.0, 2.0, math.inf)),
    ((2.0, 1.0), (3, 3), (1.0, 2.0, math.inf)),
    ((math.inf, 1.0, 2.0), (2, 2, 2), (1.0, 2.0, math.inf)),
    ((1.0, 2.0, 1.0), (2, 3, 2), (1.0, 2.0, math.inf)),
    ((math.inf, math.inf), (3, 3), (1.0, 1.5, 2.0, 3.0, math.inf)),
    ((1.0, math.inf, math.inf), (2, 2, 2), (1.0, 1.5, 2.0, 3.0, math.inf)),
]


@pytest.mark.parametrize("factors, dims, exponents", RANK_ONE_MIXES)
def test_exact_rank_one_maximizer_lies_between_the_ascent_and_the_search_free_upper(
        factors, dims, exponents):
    norms, rng = NormSpec(factors, 2.0), stream(50, len(factors), int(1.0 in factors))
    for p in exponents:
        for count, zero in ((1, 0.0), (3, 0.5), (6, 0.0)):
            cfg = random_pairs(dims, count, rng, zero_fraction=zero)
            cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, count)))
            value = exact_rank_one_maximizer(cfg, p, norms)[0]
            ascent = rank_one_maximizer(cfg, p, norms, seed=3, restarts=8)[0]
            assert ascent <= value * (1 + 1e-12)
            assert value <= denominator_upper(cfg, p, norms)[0] * (1 + 1e-12)
            rep = config_denominator(cfg, p, "op", norms, seed=3, restarts=8)
            assert rep.method.startswith("rank-one-exact/") and rep.certified_lower >= value


@pytest.mark.parametrize("factors, dims, exponents", RANK_ONE_MIXES)
@pytest.mark.parametrize("t", [2.75, 1e-85])
def test_exact_rank_one_maximizer_is_homogeneous_and_does_not_underflow(
        factors, dims, exponents, t):
    # scaling every factor by t scales each ratio by t^n; at t = 1e-85 the plain p-sums,
    # and at n = 3 the plain l2 norms, underflow
    norms, rng = NormSpec(factors, 2.0), stream(51, len(factors))
    cfg = random_pairs(dims, 4, rng)
    for p in exponents:
        value = exact_rank_one_maximizer(cfg, p, norms)[0]
        scaled = exact_rank_one_maximizer(cfg.scaled(t), p, norms)[0]
        assert scaled > 0.0
        np.testing.assert_allclose(scaled, t ** len(dims) * value, rtol=1e-12)


def test_exact_rank_one_maximizer_enumeration_cap_boundary():
    # the candidates are the vertex tuples, times the 2^(K-1) sign patterns at p = 1
    rng = stream(52)
    for norms, (at_cap, past), p in (
            (NormSpec((1.0, 2.0), 2.0), [random_pairs((13, 2), 2, rng),
                                         random_pairs((14, 2), 2, rng)], 2.0),
            (NormSpec((math.inf, 2.0), 2.0), [random_pairs((4, 2), 11, rng),
                                              random_pairs((4, 2), 12, rng)], 1.0),
            (NormSpec((math.inf, math.inf), 2.0), [random_pairs((64, 64), 2, rng),
                                                   random_pairs((64, 65), 2, rng)], 3.0)):
        assert exact_rank_one_maximizer(at_cap, p, norms) is not None
        assert exact_rank_one_maximizer(past, p, norms) is None
        assert config_denominator(past, p, "op", norms, restarts=2).method.startswith(
            "rank-one-ascent/")
    # at p = inf each tuple's rows are priced, not sign patterns
    assert exact_rank_one_maximizer(random_pairs((4, 2), 12, rng), math.inf,
                                    NormSpec((math.inf, 2.0), 2.0)) is not None


def test_exact_rank_one_maximizer_declines_two_l2_slots_and_other_exponents():
    rng = stream(53)
    for factors, dims, p in (((2.0, 2.0), (2, 2), 2.0), ((2.0, math.inf, 2.0), (2, 2, 2), 1.0),
                             ((math.inf, 2.0), (3, 3), 3.0), ((1.0, 2.0), (3, 3), 1.5)):
        cfg = random_pairs(dims, 3, rng)
        norms = NormSpec(factors, 2.0)
        assert exact_rank_one_maximizer(cfg, p, norms) is None
        assert config_denominator(cfg, p, "op", norms, restarts=2).method.startswith(
            "rank-one-ascent/")
    # an l2 slot of dimension 1 is no l2 slot
    assert exact_rank_one_maximizer(random_pairs((1, 3), 3, rng), 2.0, NormSpec.all_l2(2))


@pytest.mark.parametrize("call", [
    lambda cfg: config_denominator(cfg, math.nan, "op"),
    lambda cfg: denominator_upper(cfg, math.nan, NormSpec.all_l2(2)),
])
def test_a_nan_exponent_is_rejected(call):
    with pytest.raises(ValueError, match="p must be >= 1"):
        call(random_pairs((2, 2), 2, stream(46)))


# --------------------------------------------------------------------------
# the HS-ball objective against the one-kernel version, bit for bit
# --------------------------------------------------------------------------


def _hs_value(G, deltas, weights, p):
    """The HS-ball objective at one kernel as written before formnorm._hs_values stacked it:
    the bitwise oracle for it."""
    nrm = np.linalg.norm(G)
    if nrm == 0:
        return 0.0
    return _one_vector_power_sum(deltas @ (G / nrm), weights, p)


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


def _reference_codomain(t, r):
    """||t||_r and a norming functional of t, one vector at a time: the dual norming vector at
    r in {1, 2, inf}, else sign(t) (|t| / max|t|)^(r - 1)."""
    if r in (1.0, 2.0, math.inf):
        return vector_norm(t, r), dual_norming_vector(t, dual_exponent(r))
    top = float(np.max(np.abs(t)))
    y = np.sign(t) * (np.abs(t) / (top if top > 0.0 else 1.0)) ** (r - 1.0)
    return formnorm.weighted_power_sum(t, np.ones(len(t)), r), y


def _reference_alternating(op, factors, max_sweeps, r=None):
    """Alternating maximization of ||T(x)||_r (r the codomain norm unless given) from one
    start, run on its own: the oracle for the batch."""
    factors = [np.asarray(f, dtype=float) for f in factors]
    r = op.norms.codomain if r is None else r
    y = _reference_codomain(eval_operator(op, SegrePoint(tuple(factors))), r)[1]
    best = -math.inf
    for _ in range(max_sweeps):
        for k in range(op.n):
            g = _reference_gradient(op.kernel.array, factors, y, k)
            assert np.array_equal(formnorm.slot_gradient(op.kernel.array, factors, y, k), g)
            factors[k] = dual_norming_vector(g, op.norms.factors[k])
        value, y = _reference_codomain(eval_operator(op, SegrePoint(tuple(factors))), r)
        if value <= best * (1.0 + 1e-13):
            best = max(best, value)
            break
        best = value
    return best, factors


def _assert_alternating_matches_reference(op, starts, max_sweeps, r=None):
    values, factors = formnorm._alternating_max(
        op, [np.stack([s[k] for s in starts]) for k in range(op.n)], max_sweeps, r)
    assert len(values) == len(starts)
    for i, start in enumerate(starts):
        ref_value, ref_factors = _reference_alternating(op, start, max_sweeps, r)
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
    # an l_r codomain off {1, 2, inf}, the one the rank-one search takes at r = p, on a kernel
    # also scaled by 1e-60
    rng = stream(78, n, 1)
    for m in (1, 2, 3):
        for r in (1.5, 3.0, 4.0):
            for case in ("random", "zero-slice", "integer", "tiny"):
                factors = tuple(rng.choice(exponents, size=n))
                dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
                if case == "integer":
                    kernel = rng.integers(-2, 3, size=dims + (m,)).astype(float)
                else:
                    kernel = rng.standard_normal(dims + (m,)) * (1e-60 if case == "tiny" else 1.0)
                if case == "zero-slice":
                    kernel[..., 0] = 0.0
                op = MultilinearOperator.from_array(kernel, NormSpec(factors, 2.0))
                starts = [_alternating_start(op, None)]
                starts += [_alternating_start(op, stream(78, n, i)) for i in range(4)]
                starts += [[rng.standard_normal(d) for d in dims], [np.zeros(d) for d in dims]]
                for max_sweeps in (1, 2, 200):
                    _assert_alternating_matches_reference(op, starts, max_sweeps, r)


def test_rank_one_ascent_never_ends_below_its_start():
    # random configurations with n <= 3, dims 1-3, factors in {1, 2, inf}, K <= 6 and random
    # weights: every start ends at least at the ratio it starts at (a sweep never lowers the
    # norm of the difference map), and at the value it reaches when run on its own
    rng = stream(83)
    worst, count = 0.0, 0
    for _ in range(150):
        n = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
        norms = NormSpec(tuple(float(r) for r in rng.choice([1.0, 2.0, math.inf], size=n)), 2.0)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0, math.inf]))
        K = int(rng.integers(1, 7))
        # on scalar spaces u and v = -u would coincide: pair u with 0 there
        zero = 1.0 if math.prod(dims) == 1 else 0.4
        cfg = PairConfiguration(random_pairs(dims, K, rng, zero_fraction=zero).pairs,
                                tuple(rng.uniform(0.2, 2.0, K)))
        starts = [[rng.standard_normal(d) for d in dims] for _ in range(7)]
        starts.append([dual_norming_vector(f, r) for f, r in zip(cfg.pairs[0][0].factors,
                                                                   norms.factors)])
        starts.append([np.ones(d) for d in dims])
        starts.append([np.zeros(d) if k == 0 else rng.standard_normal(d)
                       for k, d in enumerate(dims)])
        values, lams = formnorm._rank_one_ascent(cfg, norms, p, starts, ASCENT_MAX_ITERS)
        at_start = formnorm._rank_one_ratios(
            cfg, p, norms, [np.array([s[k] for s in starts]) for k in range(n)])
        assert np.all(values >= at_start * (1.0 - 1e-12)), (dims, norms, p, values, at_start)
        pos = at_start > 0.0
        worst = max(worst, float(np.max(1.0 - values[pos] / at_start[pos], initial=0.0)))
        count += len(starts)
        for i, start in enumerate(starts):
            one, one_lams = formnorm._rank_one_ascent(cfg, norms, p, [start], ASCENT_MAX_ITERS)
            assert one[0] == values[i], (i, one[0], values[i])
            for L, one_L in zip(lams, one_lams):
                assert np.array_equal(L[i], one_L[0])
    assert count == 1500 and worst < 1e-12


# --------------------------------------------------------------------------
# lockstep rank-one ascent against the one-start loop, bit for bit
# --------------------------------------------------------------------------


def _reference_value(lams, PU, PV, weights, p, duals):
    """The ratio of one rank-one form, each slot evaluated as a matrix-vector product."""
    su = np.ones(len(weights))
    sv = np.ones(len(weights))
    for k, lam in enumerate(lams):
        su *= PU[k] @ lam
        sv *= PV[k] @ lam
    scale = math.prod(vector_norm(lam, duals[k]) for k, lam in enumerate(lams))
    if scale == 0:
        return 0.0
    return formnorm.weighted_power_sum(su - sv, weights, p) / scale


def _reference_ascent(cfg, norms, p, start, iters):
    """The rank-one search from one start, run on its own: each slot scaled into its dual ball
    (a zero slot stays zero), then the one-start alternating maximization of the difference
    map at r = p.  Returns the ratio at the final form and the form."""
    duals = tuple(dual_exponent(r) for r in norms.factors)
    phi = MultilinearOperator.from_array(formnorm._difference_kernel(cfg, p), NormSpec(duals, 2.0))
    lams = [np.asarray(s, dtype=float) for s in start]
    lams = [lam / (q if q > 0.0 else 1.0)
            for lam, q in ((lam, vector_norm(lam, duals[k])) for k, lam in enumerate(lams))]
    _, lams = _reference_alternating(phi, lams, iters, p)
    value = float(formnorm._rank_one_ratios(cfg, p, norms, [lam[None] for lam in lams])[0])
    # the ratio as an independent sum of matrix-vector products, up to rounding
    PU = [np.stack([u.factors[k] for u, _ in cfg.pairs]) for k in range(len(cfg.dims))]
    PV = [np.stack([v.factors[k] for _, v in cfg.pairs]) for k in range(len(cfg.dims))]
    other = _reference_value(lams, PU, PV, np.asarray(cfg.weights), p, duals)
    assert math.isclose(value, other, rel_tol=1e-12, abs_tol=1e-300), (value, other)
    return value, lams


def _assert_batch_matches_reference(cfg, norms, p, starts, iters):
    values, lams = formnorm._rank_one_ascent(cfg, norms, p, starts, iters)
    assert len(values) == len(starts)
    for i, start in enumerate(starts):
        ref_value, ref_lams = _reference_ascent(cfg, norms, p, start, iters)
        assert values[i] == ref_value, (i, values[i], ref_value)
        for k, ref in enumerate(ref_lams):
            assert np.array_equal(lams[k][i], ref), (i, k)


_NORM_MIXES = [(1.0,), (2.0,), (math.inf,), "mixed"]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_rank_one_ascent_is_bitwise_the_one_start_loop(p):
    rng = stream(77, int(p) if math.isfinite(p) else 99)
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
                _assert_batch_matches_reference(cfg, norms, p, starts, iters)
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
def test_rank_one_ascent_stationary_start_stops_at_once(p):
    # lam = (e_0, e_0) attains the ratio 1 of the pair ((e_0, e_0), 0).  On l2 factors the
    # first sweep moves no slot; on an l1 factor its slot takes the sign vector (1, 1) of its
    # gradient (1, 0), another maximizer.  Either way the second sweep gains nothing and the
    # search stops there
    e0 = np.array([1.0, 0.0])
    cfg = PairConfiguration(((SegrePoint((e0, e0)), SegrePoint.zero((2, 2))),))
    starts = [[e0, e0], [np.array([0.6, 0.8]), np.array([1.0, -0.5])], [e0, np.zeros(2)]]
    for factors, second in [((2.0, 1.0), np.ones(2)), ((2.0, 2.0), e0)]:
        norms = NormSpec(factors, 2.0)
        for iters in (0, 1, 2, ASCENT_MAX_ITERS):
            _assert_batch_matches_reference(cfg, norms, p, starts, iters)
        for iters in (1, ASCENT_MAX_ITERS):
            values, lams = formnorm._rank_one_ascent(cfg, norms, p, starts[:1], iters)
            assert values[0] == 1.0
            assert np.array_equal(lams[0][0], e0) and np.array_equal(lams[1][0], second)


def test_operator_norm_starts_are_the_one_start_draws(monkeypatch):
    seen = []

    def spy(op, factors, *args):
        seen.append([F.copy() for F in factors])
        return alternating_max(op, factors, *args)

    alternating_max = formnorm._alternating_max
    monkeypatch.setattr(formnorm, "_alternating_max", spy)
    rng = stream(82)
    # two l2 first slots of dimension >= 2 and m = 2 keep every operator on the relaxed path
    for dims in ((3, 3), (2, 2, 1), (2, 3, 1, 3), (4, 2, 2)):
        for rest in (2.0, 1.0, math.inf):
            factors = (2.0, 2.0) + (rest,) * (len(dims) - 2)
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
    # a {-1, 0, 1} kernel on l2 x l1 x l1 factors, and a second l2 slot read through its first
    # coordinate only, which keeps the search: many restarts reach the same value exactly, at
    # different maximizers
    rng = stream(79)
    kernel = np.zeros((3, 2, 3, 3, 2))
    kernel[:, 0] = rng.integers(-1, 2, size=(3, 3, 3, 2))
    op = MultilinearOperator.from_array(kernel, NormSpec((2.0, 2.0, 1.0, 1.0), 2.0))
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
        [3.664427489084091, 3.664427489084092])
    assert rep.method == "svd"


# --------------------------------------------------------------------------
# batched extreme-point enumeration and the stacked triangle bound
# --------------------------------------------------------------------------


def _serial_enumeration_max(op):
    """The enumeration one tuple at a time, keeping the first strictly larger value: the
    oracle of the batched enumeration."""
    sets = [formnorm._vertices(d, r) for d, r in zip(op.dims, op.norms.factors)]
    best, arg = -1.0, None
    for combo in itertools.product(*sets):
        value = vector_norm(eval_operator(op, SegrePoint(combo)), op.norms.codomain)
        if value > best:
            best, arg = value, SegrePoint(combo)
    return best, arg


def _assert_enumeration_matches_serial(op):
    method, value, x = formnorm._vertex_max(op.kernel.array, op.norms.factors,
                                            op.norms.codomain)
    want = _serial_enumeration_max(op)
    assert method == "enumeration" and value is None
    assert all(np.array_equal(a, b) for a, b in zip(x, want[1].factors))
    rep = operator_norm(op, restarts=0)
    assert rep.method == "enumeration"
    assert rep.certified_lower == rep.certified_upper == want[0]
    return want


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
    assert formnorm._vertex_max(over_cap.kernel.array, (1.0, 1.0), 2.0) is None  # 4097 tuples
    assert operator_norm(over_cap, restarts=0).method == "relaxed"
    # into l1 with an l2 slot left, each tuple counts 2^(m - 1) signed sums: 4 * 2^10 = 4096
    norms = NormSpec((math.inf, 2.0), 1.0)
    for m, method in ((11, "enumeration"), (12, "relaxed")):
        op = MultilinearOperator.from_array(rng.standard_normal((3, 2, m)), norms)
        assert operator_norm(op, restarts=0).method == method


def _grid_max(op, angles=2000):
    """The largest ||T(x)|| over every vertex tuple of the l1 and linf slots and an
    `angles`-point grid on the unit circle of each l2 slot (of dimension 2)."""
    theta = np.linspace(0.0, 2 * math.pi, angles, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    slots = [k for k, r in enumerate(op.norms.factors) if r != 2.0]
    balls = [_dual_vertices(op.dims[k], dual_exponent(op.norms.factors[k])) for k in slots]
    best = 0.0
    for tup in itertools.product(*balls):
        M = op.kernel.array
        for k, v in reversed(list(zip(slots, tup))):
            M = np.tensordot(M, np.asarray(v, dtype=float), axes=([k], [0]))
        if M.ndim == 3:  # two l2 slots into R^1
            values = np.abs(circle @ M[..., 0] @ circle.T)
        else:
            values = np.array([vector_norm(t, op.norms.codomain) for t in circle @ M])
        best = max(best, float(values.max()))
    return best


EXACT_L2_GEOMETRIES = [  # (factor norms, codomain norm, dims, m, method), l2 slots of R^2
    ((math.inf, 2.0), 2.0, (3, 2), 3, "svd"),
    ((1.0, 2.0), math.inf, (3, 2), 3, "enumeration"),
    ((math.inf, 2.0), 1.0, (3, 2), 3, "enumeration"),
    ((math.inf, 2.0, 2.0), 2.0, (2, 2, 2), 1, "svd"),
    ((1.0, math.inf, 2.0), 2.0, (3, 3, 2), 1, "svd"),
]


def test_exact_operator_norm_with_l2_slots_and_the_difference_map():
    # where at most one l2 slot is left (two into R^1) the norm is exact: at least every
    # alternating search, at most the relaxed upper, and an l2 grid's maximum within its
    # spacing (2000 points cost at most ~1.2e-6 relative per circle)
    rng = stream(86)
    for factors, codomain, dims, m, method in EXACT_L2_GEOMETRIES:
        for _ in range(3):
            op = MultilinearOperator.from_array(rng.standard_normal(dims + (m,)),
                                                NormSpec(factors, codomain))
            rep = operator_norm(op, restarts=0)
            exact = rep.certified_upper
            assert rep.method == method
            assert operator_norm(op).certified_lower >= exact * (1 - 1e-14)
            starts = [_alternating_start(op, None if i == 0 else stream(86, 1, i))
                      for i in range(64)]
            searched, _ = formnorm._alternating_max(
                op, [np.stack([s[k] for s in starts]) for k in range(op.n)])
            assert (exact >= searched * (1 - 1e-12)).all()
            assert exact <= formnorm._relaxed_upper(op) * (1 + 1e-12)
            grid = _grid_max(op)
            assert grid <= exact * (1 + 1e-12) and exact <= grid * (1 + 1e-5)
    # one l2 slot into linf: T at the normalized best column can sit an ulp below that
    # column's norm, so the upper end is the larger of the two
    for _ in range(50):
        kernel = rng.standard_normal((3, 4, 3))
        rep = operator_norm(MultilinearOperator.from_array(kernel, NormSpec((1.0, 2.0), math.inf)),
                            restarts=0)
        assert rep.method == "enumeration" and rep.certified_lower <= rep.certified_upper
        assert rep.certified_upper >= row_norms(kernel.transpose(0, 2, 1).reshape(-1, 4), 2.0).max()
    # the best rank-one form is the norm of the difference map Phi(lam)_i =
    # a_i^(1/p) (lam(u_i) - lam(v_i)) on the dual balls, into l_p^K
    for factors in ((math.inf, 2.0), (1.0, 2.0)):
        norms = NormSpec(factors, 2.0)
        for p in (1.0, 2.0, math.inf):
            cfg = random_pairs((3, 2), 5, rng)
            cfg = PairConfiguration(cfg.pairs, tuple(rng.uniform(0.5, 2.0, 5)))
            kernel = (cfg.rows * np.asarray(cfg.weights)[:, None] ** (1 / p)).T
            phi = MultilinearOperator.from_array(
                kernel.reshape(3, 2, 5), NormSpec(tuple(map(dual_exponent, factors)), p))
            value = exact_rank_one_maximizer(cfg, p, norms)[0]
            np.testing.assert_allclose(value, operator_norm(phi).certified_upper, rtol=1e-13)
    # one pair is Phi with K = 1, into R^1: exact with two l2 slots and at every p
    cfg = random_pairs((2, 3), 1, rng)
    for p in (1.5, 3.0):
        value = exact_rank_one_maximizer(cfg, p, NormSpec.all_l2(2))[0]
        nuclear = np.linalg.svd(cfg.rows.reshape(2, 3), compute_uv=False)
        np.testing.assert_allclose(value, nuclear[0], rtol=1e-13)


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
