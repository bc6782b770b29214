import collections
import itertools
import math
import warnings

import numpy as np
import pytest

from pilip import tensor_norm
from pilip.rng import stream
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
    config_denominator,
    hs_to_op_scale,
    op_ball_uppers,
    weighted_power_sum,
)
from pilip.tensors import (
    DegeneratePairWarning,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
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


def test_user_witness_heuristic_only_excluded_from_certified():
    z = random_mixed((2, 2), 2, stream(65))
    big = DualWitness(
        random_operator((2, 2), 2, stream(66)), pi_upper=1e-6, certified=False
    )
    with_heur = dp_lower_dual(z, 2.0, witnesses=[big], seed=7)
    base = dp_lower_dual(z, 2.0, seed=7)
    # the implausible heuristic witness inflates only the heuristic value
    np.testing.assert_allclose(with_heur.certified_lower, base.certified_lower, rtol=1e-12)
    assert with_heur.heuristic_lower >= with_heur.certified_lower


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


def _rep_value_reference(rep, p, pp, norms):
    """The representation value through a PairConfiguration, as _rebalance once computed it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePairWarning)
        cfg = rep.pair_configuration()
    deltas = cfg.rows
    triangle = [math.prod(u.factor_norms(norms)) + math.prod(v.factor_norms(norms))
                for u, v in cfg.pairs]
    den = min(op_ball_uppers(deltas, triangle, np.asarray(cfg.weights), cfg.dims, norms, pp).values())
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
    every factor-norm combination; returns how many moved and how many candidates skipped
    the SVD (True) or needed it (False)."""
    dims = (3, 2, 2)[:n]
    moved, paths = 0, collections.Counter()
    wins = tensor_norm._triangle_wins

    def counted(*args):
        out = wins(*args)
        paths[out] += 1
        return out

    monkeypatch.setattr(tensor_norm, "_triangle_wins", counted)
    for c, factors in enumerate(itertools.product(EXPONENTS, repeat=n)):
        if n == 3 and c % 4:  # a third of the 27 combinations keeps the test short
            continue
        norms = NormSpec(factors, codomain)
        rng = stream(90, n, c, int(codomain) if math.isfinite(codomain) else 0)
        rep = _uneven_representation(dims, 2, rng)
        z = MixedTensor.from_array(rep.reconstruct(dims, 2), norms)
        pp = conjugate_exponent(p)
        got, want = _rebalance(rep, z, p, pp), _rebalance_reference(rep, z, p, pp)
        assert len(got.terms) == len(want.terms)
        for (gp, gq, gy), (wp, wq, wy) in zip(got.terms, want.terms):
            assert all(np.array_equal(a, b) for a, b in zip(gp.factors + gq.factors,
                                                            wp.factors + wq.factors))
            assert np.array_equal(gy, wy)
        moved += got is not rep
    return moved, paths


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("codomain", EXPONENTS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
def test_incremental_rebalance_is_bitwise_the_whole_rebuild(n, codomain, p, monkeypatch):
    moved, paths = _compare_rebalance_with_rebuild(n, codomain, p, monkeypatch)
    assert moved > 0  # the sweeps accepted candidates, so the comparison is not vacuous
    assert sum(paths.values()) > 0


@pytest.mark.parametrize("n,codomain,p", [(1, 2.0, 1.5), (2, math.inf, 2.0)])
def test_incremental_rebalance_compares_both_paths(n, codomain, p, monkeypatch):
    # at n = 3 the triangle upper always wins; these cases also reach the SVD
    _, paths = _compare_rebalance_with_rebuild(n, codomain, p, monkeypatch)
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
            row_l2 = np.array([np.linalg.norm(r) for r in rows])
            kappa = hs_to_op_scale(dims, norms)
            tri = row_l2 * rng.uniform(0.1, 3.0, size=count)
            if trial % 2:  # move the triangle sum next to the skip threshold
                bound = float(np.max(row_l2)) * (count ** (1.0 / pp - 0.5) if pp < 2 else 1.0)
                tri *= kappa * bound * rng.uniform(0.999, 1.001) / weighted_power_sum(
                    tri, np.ones(count), pp)
            tri_sum = weighted_power_sum(tri, np.ones(count), pp)
            wins = tensor_norm._triangle_wins(tri_sum, kappa, row_l2, pp)
            paths[wins] += 1
            if wins:
                uppers = op_ball_uppers(rows, tri, np.ones(count), dims, norms, pp)
                assert min(uppers.values()) == tri_sum, (pp, uppers, tri_sum)
    assert paths[True] > 0 and paths[False] > 0, paths


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


def test_dp_upper_default_k_covers_the_svd_construction():
    # 27 base terms, more than Budget().max_pairs: the default k must not drop them
    z = random_mixed((3, 3, 3), 3, stream(0, 77))
    up = dp_upper(z, 2.0)
    assert up.detail["k"] == 27
    assert repr(up.certified_upper) == "45.35185082075107"
