import collections
import itertools
import math
import warnings

import numpy as np
import pytest

from pilip import formnorm, tensor_norm
from pilip.rng import child_seed, stream
from pilip.summing import Budget
from pilip.tensor_norm import (
    _rebalance,
    DualWitness,
    MixedTensor,
    Representation,
    check_delta_epsilon_bound,
    conjugate_exponent,
    delta_p_norm,
    dp_lower_dual,
    dp_upper,
    epsilon_norm_diff,
)
from pilip.formnorm import (
    SEARCH_FREE_UPPERS,
    config_denominator,
    denominator_upper,
    hs_to_op_scale,
    hs_uppers,
    search_free_uppers,
    weighted_power_sum,
)
from pilip.tensors import (
    DegeneratePairWarning,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    dual_exponent,
    dual_norming_vector,
    elementary_tensor,
    vector_norm,
)
from pilip.verify import lambda_n, random_mixed, random_operator, random_pairs

FAST = Budget(restarts=16, max_pairs=12, max_dictionary=24, rounds=2)


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(math.inf) == 1.0
    np.testing.assert_allclose(conjugate_exponent(4.0), 4.0 / 3.0)
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


@pytest.mark.parametrize(
    "ys,p,expected",
    [
        ([np.array([3.0, 4.0])], 2.0, 5.0),
        ([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2.0, math.sqrt(2.0)),
        ([np.array([1.0]), np.array([1.0]), np.array([1.0])], 1.0, 3.0),
    ],
)
def test_delta_p_examples(ys, p, expected):
    np.testing.assert_allclose(delta_p_norm(ys, p), expected, rtol=1e-15)


@pytest.mark.parametrize("p", [math.nan, 1.0, 0.5])
def test_tensor_norm_entry_points_reject_a_bad_exponent(p):
    # p = nan passed a `p <= 1` test: dp_lower_dual returned a "certified" lower
    z = random_mixed((2, 2), 2, stream(1))
    for call in (conjugate_exponent, lambda q: dp_upper(z, q), lambda q: dp_lower_dual(z, q)):
        with pytest.raises(ValueError):
            call(p)
    ys = [np.array([3.0, 4.0])]
    if p == 1.0:
        assert delta_p_norm(ys, p) == 5.0
    else:
        with pytest.raises(ValueError):
            delta_p_norm(ys, p)


def test_dp_upper_elementary_single_term():
    rng = stream(0)
    a, b, y = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(2)
    z = MixedTensor.from_array(np.multiply.outer(np.outer(a, b), y))
    up = dp_upper(z, 2.0, seed=1)
    cfg = PairConfiguration(((SegrePoint((a, b)), SegrePoint.zero((2, 3))),))
    den = config_denominator(cfg, 2.0, "op", z.norms)
    assert up.certified_upper <= den.certified_upper * np.linalg.norm(y) + 1e-9
    assert up.detail["residual"] <= 1e-8


def test_dp_upper_zero():
    z = MixedTensor.from_array(np.zeros((2, 2, 2)))
    assert dp_upper(z, 2.0).certified_upper == 0.0


def test_dp_bracket_basis_elementary_is_one():
    e = np.array([1.0, 0.0])
    z = MixedTensor.from_array(np.multiply.outer(np.outer(e, e), e))
    up = dp_upper(z, 2.0, seed=2)
    low = dp_lower_dual(z, 2.0, seed=2)
    assert low.certified_lower <= 1.0 + 1e-9
    np.testing.assert_allclose(up.certified_upper, 1.0, rtol=1e-9)
    np.testing.assert_allclose(low.certified_lower, 1.0, rtol=1e-9)


def test_dp_lower_elementary_saturation():
    # hand computation: the norming rank-one witness gives ||a|| ||b|| ||y||
    rng = stream(1)
    a, b, y = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(3)
    z = MixedTensor.from_array(np.multiply.outer(np.outer(a, b), y))
    target = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(y)
    low = dp_lower_dual(z, 2.0, seed=3)
    np.testing.assert_allclose(low.certified_lower, target, rtol=1e-9)


def _witnesses_reference(z, seed, count=12):
    """The automatic witnesses one DualWitness at a time, as dp_lower_dual built them before
    they were stacked."""
    dims, m, norms = z.dims, z.m, z.norms
    s_dual = dual_exponent(norms.codomain)
    u, s, vt = np.linalg.svd(z.kernel.array.reshape(-1, m), full_matrices=False)
    out = []

    def add(vecs, ystar):
        lam = [dual_norming_vector(c, dual_exponent(r)) for c, r in zip(vecs, norms.factors)]
        kernel = elementary_tensor(SegrePoint((*lam, ystar))).array
        pi_up = float(np.prod([vector_norm(v, dual_exponent(r))
                               for v, r in zip(lam, norms.factors)])) * vector_norm(ystar, s_dual)
        if pi_up > 0:
            out.append(DualWitness(MultilinearOperator.from_array(kernel, norms), pi_up))

    for l in range(min(len(s), 3)):
        if s[l] == 0:
            break
        w = u[:, l].reshape(dims)
        fac = tensor_norm._elementary_factors(w)
        add(fac if fac is not None else tensor_norm._leading_rank_one(w),
            dual_norming_vector(vt[l], s_dual))
    rng = stream(seed, 22)
    for _ in range(count):
        vecs = [rng.standard_normal(d) for d in dims]
        add(vecs, dual_norming_vector(rng.standard_normal(m), s_dual))
    return out


def _lower_reference(z, witnesses, seed):
    """(certified lower, winner, witness count) of the one-object-at-a-time loop."""
    pool = list(witnesses) + _witnesses_reference(z, seed)
    certified, best = 0.0, None
    for w in pool:
        if w.pi_upper <= 0:
            continue
        ratio = abs(float(np.dot(w.operator.kernel.data, z.kernel.data))) / w.pi_upper
        if ratio > certified:
            certified, best = ratio, w
    return certified, best, len(pool)


def test_stacked_witnesses_are_bitwise_the_one_at_a_time_loop():
    cases = 0
    for n, dims in ((1, (3,)), (2, (2, 3)), (3, (2, 2, 2))):
        for c, factors in enumerate(itertools.product(EXPONENTS, repeat=n)):
            for codomain in EXPONENTS:
                norms = NormSpec(factors, codomain)
                rng = stream(94, n, c, int(codomain) if math.isfinite(codomain) else 0)
                z = random_mixed(dims, 2, rng, norms)
                if c % 2:  # an elementary z, whose leading witness comes from exact factors
                    z = MixedTensor.from_array(elementary_tensor(SegrePoint(tuple(
                        rng.standard_normal(d) for d in dims + (2,)))).array, norms)
                _, auto_best, _ = _lower_reference(z, [], c)
                weak = DualWitness(auto_best.operator, auto_best.pi_upper * 4.0)
                strong = DualWitness(auto_best.operator, auto_best.pi_upper / 4.0)
                tie = DualWitness(auto_best.operator, auto_best.pi_upper)  # equal ratio
                unpriced = DualWitness(auto_best.operator, 0.0)
                for user in ([], [weak], [unpriced, strong], [tie], [weak, tie]):
                    got = dp_lower_dual(z, 2.0, user, seed=c)
                    certified, best, count = _lower_reference(z, user, c)
                    assert got.certified_lower == certified
                    assert got.detail["witness_count"] == count
                    w = got.detail["witness"]
                    assert np.array_equal(w.operator.kernel.data, best.operator.kernel.data)
                    assert w.pi_upper == best.pi_upper
                    assert w.operator.norms == best.operator.norms
                    if any(u is best for u in user):  # a user witness kept its place
                        assert w is best
                    cases += 1
    assert cases == 5 * 3 * (3 + 9 + 27)


def test_dp_lower_zero():
    z = MixedTensor.from_array(np.zeros((2, 2, 2)))
    assert dp_lower_dual(z, 2.0).certified_lower == 0.0


def test_dp_weak_duality_random():
    for i in range(10):
        z = random_mixed((2, 2), 2, stream(50 + i))
        up = dp_upper(z, 2.0, seed=i)
        low = dp_lower_dual(z, 2.0, seed=i)
        assert low.certified_lower <= up.certified_upper + 1e-7


def test_dp_trilinear_paths():
    # n = 3 exercises the basis-slice representation construction
    for i in range(3):
        z = random_mixed((2, 2, 2), 2, stream(90 + i))
        up = dp_upper(z, 2.0, seed=i)
        low = dp_lower_dual(z, 2.0, seed=i)
        assert up.detail["residual"] <= 1e-12
        assert low.certified_lower <= up.certified_upper + 1e-7
    rng = stream(93)
    a, b, c, y = (rng.standard_normal(2) for _ in range(4))
    z = MixedTensor.from_array(np.einsum("a,b,c,j->abcj", a, b, c, y))
    target = np.prod([np.linalg.norm(v) for v in (a, b, c, y)])
    np.testing.assert_allclose(dp_upper(z, 2.0, seed=1).certified_upper, target, rtol=1e-9)
    np.testing.assert_allclose(
        dp_lower_dual(z, 2.0, seed=1).certified_lower, target, rtol=1e-9
    )


def test_dp_weak_duality_p_inf():
    z = random_mixed((2, 2), 2, stream(60))
    up = dp_upper(z, math.inf, seed=4)
    low = dp_lower_dual(z, math.inf, seed=4)
    assert low.certified_lower <= up.certified_upper + 1e-7


def test_dp_upper_rejects_p_one():
    z = random_mixed((2, 2), 2, stream(61))
    with pytest.raises(ValueError):
        dp_upper(z, 1.0)


def test_dp_upper_increase_k_error():
    # a full-rank mixed tensor cannot be reconstructed by one term
    Z = np.zeros((2, 2, 2))
    Z[0, 0, 0] = 1.0
    Z[1, 1, 1] = 1.0
    Z[0, 1, 1] = 0.5
    with pytest.raises(ValueError, match="increase k"):
        dp_upper(MixedTensor.from_array(Z), 2.0, k=1, seed=5)


def test_dp_homogeneity():
    z = random_mixed((2, 2), 2, stream(63))
    base = dp_upper(z, 2.0, seed=6).certified_upper
    for t in (0.25, 3.0, 17.5):
        zt = MixedTensor.from_array(t * z.kernel.array, z.norms)
        np.testing.assert_allclose(
            dp_upper(zt, 2.0, seed=6).certified_upper, t * base, rtol=1e-6
        )


def test_dp_triangle_inequality():
    for i in range(6):
        rng = stream(70 + i)
        z1 = random_mixed((2, 2), 2, rng)
        z2 = random_mixed((2, 2), 2, rng)
        zs = MixedTensor.from_array(z1.kernel.array + z2.kernel.array, z1.norms)
        u1 = dp_upper(z1, 2.0, seed=i).certified_upper
        u2 = dp_upper(z2, 2.0, seed=i).certified_upper
        us = dp_upper(zs, 2.0, seed=i).certified_upper
        assert us <= u1 + u2 + 1e-6


def test_representation_residual_and_reconstruct():
    rng = stream(64)
    a, b, y = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
    z = MixedTensor.from_array(np.multiply.outer(np.outer(a, b), y))
    rep = Representation(((SegrePoint((a, b)), SegrePoint.zero((2, 2)), y),))
    assert rep.residual(z) <= 1e-12
    np.testing.assert_allclose(rep.reconstruct((2, 2), 2), z.kernel.array, atol=1e-12)


def test_epsilon_inherits_config_denominator():
    cfg = random_pairs((2, 2), 3, stream(67))
    eps = epsilon_norm_diff(cfg, 2.0, seed=8)
    den = config_denominator(cfg, 2.0, "op", seed=8, restarts=16)
    np.testing.assert_allclose(eps.certified_upper, den.certified_upper, rtol=1e-12)
    np.testing.assert_allclose(eps.certified_lower, den.certified_lower, rtol=1e-12)


def test_epsilon_single_pair_lower_bound():
    rng = stream(68)
    u = SegrePoint(tuple(rng.standard_normal(2) for _ in range(2)))
    cfg = PairConfiguration(((u, SegrePoint.zero((2, 2))),))
    eps = epsilon_norm_diff(cfg, 2.0)
    hs_value = math.prod(np.linalg.norm(f) for f in u.factors)
    assert eps.certified_upper >= hs_value - 1e-12


def test_delta_epsilon_lambda2_constant_one():
    cfg = random_pairs((1, 1), 4, stream(69))
    report = check_delta_epsilon_bound(lambda_n(2), cfg, 2.0, FAST, seed=9)
    assert report["passed"]
    np.testing.assert_allclose(report["constant"], 1.0, rtol=1e-9)


def test_delta_epsilon_zero_operator():
    zero = MultilinearOperator.from_array(np.zeros((2, 2, 2)))
    cfg = random_pairs((2, 2), 3, stream(70))
    report = check_delta_epsilon_bound(zero, cfg, 2.0, FAST, seed=10)
    assert report["passed"] and report["delta_p"] == 0.0


def test_delta_epsilon_random_instances():
    for i in range(8):
        rng = stream(80 + i)
        op = random_operator((2, 2), 2, rng)
        cfg = random_pairs((2, 2), 4, rng)
        report = check_delta_epsilon_bound(op, cfg, 2.0, FAST, seed=i)
        assert report["passed"], report


def _pair_configuration(rep):
    """The PairConfiguration of rep's pairs, without the warnings of the pairs it drops."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePairWarning)
        return PairConfiguration(tuple((p_pt, q_pt) for p_pt, q_pt, _ in rep.terms))


def _rep_value_reference(rep, p, pp, norms):
    """The representation value through a PairConfiguration, one candidate at a time:
    `denominator_upper` of its kept pairs at p' times the p-sum of all its y norms."""
    den = denominator_upper(_pair_configuration(rep), pp, norms)[0]
    return den * delta_p_norm(rep.y_vectors(), p, norms.codomain)


def _rebalance_reference(rep, z, p, pp):
    """The whole-representation sweep loop that the incremental _rebalance replaced."""
    n = len(z.dims)
    best = rep
    best_val = _rep_value_reference(rep, p, pp, z.norms)
    for _ in range(3):
        improved = False
        for i in range(len(best.terms)):
            for s in (0.5, 0.75, 1.5, 2.0):
                terms = list(best.terms)
                p_pt, q_pt, y = terms[i]
                factor = s ** (1.0 / n)
                terms[i] = (p_pt.scale(factor), q_pt.scale(factor), y / s)
                cand = Representation(tuple(terms))
                val = _rep_value_reference(cand, p, pp, z.norms)
                if val < best_val * (1 - 1e-12):
                    best, best_val, improved = cand, val, True
        if not improved:
            break
    return best


def _uneven_representation(dims, m, rng):
    """Terms at scattered scales, with one degenerate pair (p == q) and two equal terms."""
    def point(scale):
        return SegrePoint(tuple(scale * rng.standard_normal(d) for d in dims))

    terms = []
    for j in range(4):
        q_pt = SegrePoint.zero(dims) if j % 2 else point(math.exp(rng.standard_normal()))
        terms.append((point(math.exp(1.5 * rng.standard_normal())), q_pt,
                      math.exp(1.5 * rng.standard_normal()) * rng.standard_normal(m)))
    same = point(2.0)
    terms.append((same, same, rng.standard_normal(m)))
    terms.append(terms[0])
    return Representation(tuple(terms))


EXPONENTS = (1.0, 2.0, math.inf)


def _compare_rebalance_with_rebuild(n, codomain, p, monkeypatch):
    """Assert _rebalance bitwise equal to the whole rebuild on uneven representations over
    every factor-norm combination, its value too; returns how many moved, how many of
    _rebalance's candidates skipped the SVD (True) or needed it (False), and how many stacks
    were built again after an accepted scale that was not the last of its stack."""
    dims = (3, 2, 2)[:n]
    moved, paths, restacks = 0, collections.Counter(), 0
    wins, scaled = formnorm._triangle_wins, tensor_norm._scaled_terms
    counting = False  # the reference prices through the same seam: count only _rebalance

    def counted(*args):
        out = wins(*args)
        if counting:
            paths.update(np.atleast_1d(out).tolist())  # one flag per stacked candidate
        return out

    def built(stacks, ys, scales, norms):
        nonlocal restacks
        # the untried scales of a term are a prefix of SCALES, and the base is built at scale
        # 1.0, except right after an acceptance, when the scales after the accepted one are
        # built again from the term's new factors
        restacks += scales[0] in tensor_norm.SCALES[1:]
        return scaled(stacks, ys, scales, norms)

    monkeypatch.setattr(formnorm, "_triangle_wins", counted)
    monkeypatch.setattr(tensor_norm, "_scaled_terms", built)
    for c, factors in enumerate(itertools.product(EXPONENTS, repeat=n)):
        if n == 3 and c % 4:  # a third of the 27 combinations keeps the test short
            continue
        norms = NormSpec(factors, codomain)
        rng = stream(90, n, c, int(codomain) if math.isfinite(codomain) else 0)
        rep = _uneven_representation(dims, 2, rng)
        z = MixedTensor.from_array(rep.reconstruct(dims, 2), norms)
        pp = conjugate_exponent(p)
        counting = True
        got, value = _rebalance(rep, z, p, pp)
        counting = False
        want = _rebalance_reference(rep, z, p, pp)
        assert value == _rep_value_reference(want, p, pp, z.norms)
        assert len(got.terms) == len(want.terms)
        for (gp, gq, gy), (wp, wq, wy) in zip(got.terms, want.terms):
            assert all(np.array_equal(a, b) for a, b in zip(gp.factors + gq.factors,
                                                            wp.factors + wq.factors))
            assert np.array_equal(gy, wy)
        moved += got is not rep
    return moved, paths, restacks


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("codomain", EXPONENTS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
def test_incremental_rebalance_is_bitwise_the_whole_rebuild(n, codomain, p, monkeypatch):
    moved, paths, restacks = _compare_rebalance_with_rebuild(n, codomain, p, monkeypatch)
    assert moved > 0  # the sweeps accepted candidates, so the comparison is not vacuous
    assert sum(paths.values()) > len(tensor_norm.SCALES)  # stacked candidates, not only bases
    assert restacks > 0  # and a visit went on after an acceptance, from the new factors


@pytest.mark.parametrize("n,codomain,p", [(1, 2.0, 1.5), (2, math.inf, 2.0)])
def test_incremental_rebalance_compares_both_paths(n, codomain, p, monkeypatch):
    # at n = 3 the triangle upper always wins; these cases also reach the SVD
    _, paths, _ = _compare_rebalance_with_rebuild(n, codomain, p, monkeypatch)
    assert paths[True] > 0 and paths[False] > 0, paths


def test_triangle_wins_only_where_the_min_is_the_triangle():
    rng = stream(92)
    paths = collections.Counter()
    for pp in (1.0, 1.5, 2.0, 3.0):
        for trial in range(150):
            dims = ((2, 3), (3, 3), (2, 2, 2))[trial % 3]
            norms = NormSpec(tuple(rng.choice([1.0, 2.0, math.inf], size=len(dims))), 2.0)
            count = int(rng.integers(1, 7))
            rows = rng.standard_normal((count, math.prod(dims)))
            rows *= np.exp(rng.standard_normal((count, 1)))
            weights = np.ones(count) if trial % 4 < 2 else np.exp(rng.standard_normal(count))
            row_l2 = np.array([np.linalg.norm(r) for r in rows]) * weights ** (1.0 / pp)
            kappa = hs_to_op_scale(dims, norms)
            tri = row_l2 * rng.uniform(0.1, 3.0, size=count)
            if trial % 2:  # move the triangle sum next to the skip threshold
                bound = float(np.max(row_l2))
                bound *= count ** (1.0 / pp - 0.5) if pp < 2 else 1.0
                tri *= kappa * bound * rng.uniform(0.999, 1.001) / weighted_power_sum(
                    tri, weights, pp)
            tri_sum = weighted_power_sum(tri, weights, pp)
            wins = formnorm._triangle_wins(tri_sum, kappa, row_l2, pp)
            paths[wins] += 1
            if wins:
                uppers = {"kappa-hs": kappa * float(hs_uppers(rows[None], weights, pp)[0]),
                          "triangle": tri_sum}
                assert min(uppers.values()) == tri_sum, (pp, uppers, tri_sum)
                value, won = search_free_uppers(rows[None], tri[None], row_l2[None], weights,
                                                dims, norms, pp)
                method = SEARCH_FREE_UPPERS[won[0]]  # one l2 bilinear pair may price "nuclear"
                assert method in ("triangle", "nuclear") and value[0] <= tri_sum
                assert bool(value[0] == tri_sum) is (method == "triangle")
    assert paths[True] > 0 and paths[False] > 0, paths


def _rebalance_cases():
    """(rep, norms, p) with the pricing paths that _rebalance once lacked or priced apart from
    dp_upper: scalar factor spaces ("scalar-exact"), one pair of l2 bilinear points
    ("nuclear"), l1/linf mixes, and uneven representations with a degenerate term."""
    rng = stream(95)
    shapes = [((1, 1), (1.0, 2.0), 3), ((1, 1, 1), (math.inf, 2.0, 1.0), 2),
              ((3, 2), (2.0, 2.0), 1), ((2, 2), (2.0, 2.0), 1), ((3, 2), (1.0, math.inf), 4),
              ((2, 3), (math.inf, 1.0), 3), ((2, 2, 2), (math.inf, 1.0, 1.0), 3)]
    for p in (1.5, 2.0, 3.0, math.inf):
        for (dims, factors, count), codomain in itertools.product(shapes, EXPONENTS):
            def point():
                return SegrePoint(tuple(math.exp(rng.standard_normal()) * rng.standard_normal(d)
                                        for d in dims))

            yield Representation(tuple(
                (point(), SegrePoint.zero(dims) if j % 2 else point(),
                 math.exp(1.5 * rng.standard_normal()) * rng.standard_normal(2))
                for j in range(count))), NormSpec(factors, codomain), p
        for factors in ((1.0, math.inf), (math.inf, 1.0), (2.0, 2.0)):
            yield _uneven_representation((3, 2), 2, rng), NormSpec(factors, 2.0), p


def test_rebalance_value_is_the_one_candidate_price():
    # the value _rebalance returns is, bit for bit, denominator_upper of the returned
    # representation's kept pairs at p' times the p-sum of all its y norms
    moved = cases = 0
    for rep, norms, p in _rebalance_cases():
        dims = rep.terms[0][0].dims
        z = MixedTensor.from_array(rep.reconstruct(dims, 2), norms)
        out, value = _rebalance(rep, z, p, conjugate_exponent(p))
        assert value == _rep_value_reference(out, p, conjugate_exponent(p), norms)
        moved += out is not rep
        cases += 1
    assert cases == 4 * (7 * 3 + 3) and moved > 0


def test_rebalance_value_is_the_one_candidate_price_inside_dp_upper(monkeypatch):
    # the same on the candidates dp_upper rebalances, scalar and nuclear ones included
    seen = []
    rebalance = tensor_norm._rebalance

    def spy(rep, z, p, pp):
        out, value = rebalance(rep, z, p, pp)
        seen.append((out, value, z.norms, p))
        return out, value

    monkeypatch.setattr(tensor_norm, "_rebalance", spy)
    for i, (z, p, budget) in enumerate(itertools.islice(_skip_cases(), 0, None, 2)):
        dp_upper(z, p, budget=budget, seed=i)
    scalar = 0
    for out, value, norms, p in seen:
        assert value == _price(out, norms, p)
        scalar += math.prod(out.terms[0][0].dims) == 1
    assert scalar > 0


def test_dp_upper_prices_each_candidate_once(monkeypatch):
    # dp_upper reads each candidate's value from _rebalance: no PairConfiguration, no
    # denominator_upper and no delta_p_norm per candidate
    def forbidden(*args, **kwargs):
        raise AssertionError("dp_upper priced a candidate a second time")

    monkeypatch.setattr(PairConfiguration, "__post_init__", forbidden)
    monkeypatch.setattr(tensor_norm, "denominator_upper", forbidden)
    monkeypatch.setattr(formnorm, "denominator_upper", forbidden)
    monkeypatch.setattr(tensor_norm, "delta_p_norm", forbidden)
    z = random_mixed((3, 3, 2), 2, stream(0, 30, 0))
    assert repr(dp_upper(z, 3.0, seed=0, budget=Budget(restarts=2)).certified_upper) == (
        "18.098757597842127")
    z = random_mixed((1, 1), 2, stream(0, 61))
    assert repr(dp_upper(z, 2.0, seed=0, budget=Budget(restarts=2)).certified_upper) == (
        "0.9527727590565715")
    rng = stream(96)
    vecs = [rng.standard_normal(d) for d in (3, 2, 2)]
    z = MixedTensor.from_array(np.einsum("i,j,k->ijk", *vecs))
    assert dp_upper(z, 2.0, seed=0).detail["terms"] == 1  # one l2 bilinear pair: "nuclear"


def test_rebalance_of_all_degenerate_pairs_raises():
    rng = stream(91)
    pt = SegrePoint((rng.standard_normal(2), rng.standard_normal(3)))
    rep = Representation(((pt, pt, rng.standard_normal(2)), (pt, pt, rng.standard_normal(2))))
    z = MixedTensor.from_array(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="empty after dropping degenerate pairs"):
        _rebalance(rep, z, 2.0, 2.0)


@pytest.mark.parametrize(
    "i,dims,m,p,norms,expected",
    [
        (0, (3, 3, 2), 2, 3.0, None, "18.098757597842127"),
        (1, (2, 2, 2), 3, 1.5, None, "16.02385793431671"),
        (2, (3, 3), 2, 2.0, NormSpec((1.0, math.inf), 2.0), "7.134316393151542"),
        (3, (2, 3), 3, math.inf, NormSpec((math.inf, 2.0), 1.0), "9.171949427441277"),
        (4, (4,), 3, 2.0, NormSpec((1.0,), math.inf), "8.072208081226192"),
    ],
)
def test_dp_upper_pinned_values(i, dims, m, p, norms, expected):
    z = random_mixed(dims, m, stream(0, 30, i), norms)
    up = dp_upper(z, p, seed=0, budget=Budget(restarts=2))
    assert repr(up.certified_upper) == expected


def test_dp_upper_of_scalar_factor_spaces_is_pinned():
    z = random_mixed((1, 1), 2, stream(0, 61))
    for p in (1.5, 2.0, math.inf):
        up = dp_upper(z, p, seed=0, budget=Budget(restarts=2))
        assert repr(up.certified_upper) == "0.9527727590565715"


def test_dp_upper_runs_no_denominator_search(monkeypatch):
    # each representation is priced with the search-free denominator upper
    def forbidden(*args, **kwargs):
        raise AssertionError("no denominator search expected")

    monkeypatch.setattr(tensor_norm, "config_denominator", forbidden)
    monkeypatch.setattr(formnorm, "config_denominator", forbidden)
    monkeypatch.setattr(formnorm, "_rank_one_ascent", forbidden)
    z = random_mixed((3, 3, 2), 2, stream(0, 30, 0))
    up = dp_upper(z, 3.0, seed=0, budget=Budget(restarts=2))
    assert repr(up.certified_upper) == "18.098757597842127"


def test_dp_upper_default_k_covers_the_svd_construction():
    # 27 base terms, more than Budget().max_pairs: the default k must not drop them
    z = random_mixed((3, 3, 3), 3, stream(0, 77))
    up = dp_upper(z, 2.0)
    assert up.detail["k"] == 27
    assert repr(up.certified_upper) == "45.35185082075107"


# --------------------------------------------------------------------------
# the rescaling floor that lets dp_upper skip a candidate
# --------------------------------------------------------------------------


def _price(rep, norms, p):
    """dp_upper's value of rep without its reconstruction slack (which is >= 0)."""
    return _rep_value_reference(rep, p, conjugate_exponent(p), norms)


def _skip_cases():
    """(z, p, budget) for the skip guard: n = 1, 2, 3 with l1, l2 and linf factors and
    codomains, p in {1.5, 2, 3, inf} and both budgets.  Every fourth tensor is rank one over
    two l2 factors, whose one-pair candidates are priced "nuclear" and all tie with the SVD
    base up to rounding; every eighth has scalar factor spaces, priced "scalar-exact"."""
    rng = stream(93)
    exps = (1.0, 2.0, math.inf)
    for i in range(216):
        n = 1 + i % 3
        p = (1.5, 2.0, 3.0, math.inf)[i // 3 % 4]
        budget = Budget(restarts=2) if i % 2 else Budget()
        m = int(rng.integers(1, 4))
        codomain = exps[int(rng.integers(3))]
        if i % 4 == 1:
            dims = tuple(int(d) for d in rng.integers(2, 4, size=2))
            kernel = np.einsum("i,j,k->ijk", *(rng.standard_normal(d) for d in dims + (m,)))
            z = MixedTensor.from_array(kernel, NormSpec((2.0, 2.0), codomain))
        else:
            dims = (1,) * n if i % 8 == 2 else tuple(int(d) for d in rng.integers(1, 4, size=n))
            norms = NormSpec(tuple(exps[int(k)] for k in rng.integers(3, size=n)), codomain)
            z = random_mixed(dims, m, rng, norms)
        yield z, p, budget


def _same_upper(got, want):
    assert repr(got.certified_upper) == repr(want.certified_upper)
    assert repr(got.detail["residual"]) == repr(want.detail["residual"])
    gt, wt = got.detail["representation"].terms, want.detail["representation"].terms
    assert len(gt) == len(wt)
    for (gp, gq, gy), (wp, wq, wy) in zip(gt, wt):
        assert all(np.array_equal(a, b)
                   for a, b in zip(gp.factors + gq.factors, wp.factors + wq.factors))
        assert np.array_equal(gy, wy)


def test_dp_upper_skip_is_bitwise_the_loop_without_it(monkeypatch):
    calls = collections.Counter()
    rebalance = tensor_norm._rebalance

    def counted(*args):
        calls[mode] += 1
        return rebalance(*args)

    monkeypatch.setattr(tensor_norm, "_rebalance", counted)
    cases = 0
    for z, p, budget in _skip_cases():
        mode = "skip"
        got = dp_upper(z, p, budget=budget, seed=cases)
        with monkeypatch.context() as m:
            # a floor of 0 never skips: dp_upper's loop as it runs without the rule
            m.setattr(Representation, "value_floor", lambda self, norms: 0.0)
            mode = "all"
            want = dp_upper(z, p, budget=budget, seed=cases)
        _same_upper(got, want)
        cases += 1
    assert cases >= 200
    assert calls["skip"] < calls["all"], calls  # the rule fired, so the comparison is not vacuous


def test_value_floor_lies_below_every_rebalanced_price(monkeypatch):
    seen = []
    rebalance = tensor_norm._rebalance

    def spy(rep, z, p, pp):
        out = rebalance(rep, z, p, pp)
        seen.append((rep, out[0], z.norms, p))
        return out

    monkeypatch.setattr(tensor_norm, "_rebalance", spy)
    for i, (z, p, budget) in enumerate(itertools.islice(_skip_cases(), 0, None, 3)):
        dp_upper(z, p, budget=budget, seed=i)
    assert len(seen) > 60
    moved = 0
    for rep, out, norms, p in seen:
        floor = rep.value_floor(norms)
        assert 0.0 < floor <= _price(out, norms, p) * (1 + 1e-12)
        assert floor <= _price(rep, norms, p) * (1 + 1e-12)
        moved += out is not rep
    assert moved > 0


@pytest.mark.parametrize("dims,factors", [
    ((3, 2), (2.0, 2.0)), ((3, 3, 2), (1.0, 2.0, math.inf)), ((2, 3), (math.inf, 1.0)),
    ((4,), (2.0,)), ((1, 1), (1.0, 2.0))])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
def test_value_floor_lies_below_random_rescalings(dims, factors, p):
    rng = stream(94, len(dims), int(p) if math.isfinite(p) else 0)
    exps = (1.0, 2.0, math.inf)
    for trial in range(12):
        norms = NormSpec(factors, exps[trial % 3])
        count = 1 if trial % 4 == 0 else int(rng.integers(2, 6))  # one l2 bilinear pair: nuclear

        def point():
            return SegrePoint(tuple(rng.standard_normal(d) for d in dims))

        rep = Representation(tuple(
            (point(), SegrePoint.zero(dims) if j % 2 else point(),
             math.exp(rng.standard_normal()) * rng.standard_normal(3))
            for j in range(count)))
        floor = rep.value_floor(norms)
        assert floor > 0.0
        for _ in range(8):
            s = np.exp(1.5 * rng.standard_normal(count))
            scaled = Representation(tuple(
                (u.scale(t ** (1.0 / len(dims))), v.scale(t ** (1.0 / len(dims))), y / t)
                for (u, v, y), t in zip(rep.terms, s)))
            assert floor <= _price(scaled, norms, p) * (1 + 1e-12)


def test_value_floor_is_zero_next_to_a_degenerate_pair():
    # pricing drops the pair (e, e), which the floor's sums would count: the floor must be 0
    e = SegrePoint((np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    norms = NormSpec.all_l2(2)
    rep = Representation(((e, e, np.array([1.0, 0.0])),
                          (e, SegrePoint.zero((3, 3)), np.array([0.0, 1.0]))))
    assert rep.value_floor(norms) <= _price(rep, norms, 2.0)
    assert rep.value_floor(norms) == 0.0
    # a row within 1e20 of the drop rule gets 0 too; one farther away does not
    for scale, zero in ((1e-143, True), (1e-138, False)):
        tiny = SegrePoint((scale * np.ones(3), scale * np.ones(3)))
        rep = Representation(((tiny, SegrePoint.zero((3, 3)), np.ones(2)),
                              (e, SegrePoint.zero((3, 3)), np.ones(2))))
        assert (rep.value_floor(norms) == 0.0) is zero


def test_dp_upper_skip_fires_on_a_pinned_tensor(monkeypatch):
    calls = []
    rebalance = tensor_norm._rebalance
    monkeypatch.setattr(tensor_norm, "_rebalance", lambda *a: calls.append(1) or rebalance(*a))
    z = random_mixed((3, 3, 2), 2, stream(0, 30, 0))
    up = dp_upper(z, 3.0, seed=0, budget=Budget(restarts=2))
    assert repr(up.certified_upper) == "18.098757597842127"
    skipped = len(calls)
    monkeypatch.setattr(Representation, "value_floor", lambda self, norms: 0.0)
    again = dp_upper(z, 3.0, seed=0, budget=Budget(restarts=2))
    assert repr(again.certified_upper) == "18.098757597842127"
    assert skipped < len(calls) - skipped, (skipped, len(calls) - skipped)


def test_dp_upper_rebalances_few_candidates_on_a_dnorm_cycle(monkeypatch):
    """The 20 tensors of one seed-0 pass of perfbench's dnorm workload (five shapes, four
    batches), priced as its CLI calls price them: 44 rebalances without the skip rule, 24 with
    it, against one per tensor at least."""
    calls = []
    rebalance = tensor_norm._rebalance
    monkeypatch.setattr(tensor_norm, "_rebalance", lambda *a: calls.append(1) or rebalance(*a))
    shapes = [((2, 2), 2, 2.0), ((3, 3), 2, 2.0), ((3, 3, 2), 2, 2.0), ((3, 3, 2), 2, 3.0),
              ((2, 2, 2), 3, 1.5)]

    def cycle():
        calls.clear()
        for j in range(4):
            for i, (dims, m, p) in enumerate(shapes):
                z = random_mixed(dims, m, stream(0, 10, i, j))
                seed = 0 if j == 0 else child_seed(0, 40, j)
                dp_upper(z, p, budget=Budget(restarts=2), seed=seed)
        return len(calls)

    assert cycle() == 24
    monkeypatch.setattr(Representation, "value_floor", lambda self, norms: 0.0)
    assert cycle() == 44
