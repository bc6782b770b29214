import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pilip.tensors import (
    DegeneratePairWarning,
    DenseTensor,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    ShapeError,
    degenerate_rows,
    dual_norming_vector,
    elementary_rows,
    elementary_tensor,
    eval_differences,
    eval_operator,
    eval_rows,
    flatten,
    norming_rows,
    project_rows,
    project_to_ball,
    row_norms,
    vector_norm,
)

LAMBDA2 = MultilinearOperator.from_array(np.ones((1, 1, 1)))
EYE_FORM = MultilinearOperator.from_array(np.eye(2)[:, :, None])


def test_eval_scalar_multiplication():
    out = eval_operator(LAMBDA2, SegrePoint.of([3], [4]))
    np.testing.assert_allclose(out, [12.0])


def test_eval_zero_factor_gives_zero():
    op = MultilinearOperator.from_array(np.arange(8.0).reshape(2, 2, 2))
    out = eval_operator(op, SegrePoint.of([0.0, 0.0], [1.0, -2.0]))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_eval_identity_form_orthogonal_basis():
    # hand contraction: sum_ij I[i,j] x[i] y[j] with x = e1, y = e2
    out = eval_operator(EYE_FORM, SegrePoint.of([1, 0], [0, 1]))
    np.testing.assert_allclose(out, [0.0])


def test_eval_shape_mismatch():
    with pytest.raises(ShapeError):
        eval_operator(EYE_FORM, SegrePoint.of([1, 0, 0], [0, 1]))


def test_elementary_basis_vectors():
    t = elementary_tensor(SegrePoint.of([1, 0], [1, 0]))
    np.testing.assert_array_equal(t.array, [[1, 0], [0, 0]])


def test_elementary_scalars():
    t = elementary_tensor(SegrePoint.of([2], [3], [5]))
    np.testing.assert_array_equal(t.array, [[[30.0]]])


def test_elementary_hand_contraction():
    t = elementary_tensor(SegrePoint.of([1, 1], [1, -1]))
    np.testing.assert_array_equal(t.array, [[1, -1], [1, -1]])


@pytest.mark.parametrize(
    "r,expected", [(2.0, 5.0), (math.inf, 4.0), (1.0, 7.0)]
)
def test_vector_norm_three_four(r, expected):
    assert vector_norm(np.array([3.0, 4.0]), r) == expected


def test_flatten_identity_split():
    t = DenseTensor.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(flatten(t, ((0,), (1,))), [[1, 2], [3, 4]])


def test_flatten_ones_cube():
    t = DenseTensor.from_array(np.ones((2, 2, 2)))
    np.testing.assert_array_equal(flatten(t, ((0,), (1, 2))), np.ones((2, 4)))


def test_flatten_elementary_is_rank_one():
    rng = np.random.default_rng(0)
    x = SegrePoint(tuple(rng.standard_normal(d) for d in (2, 3, 2)))
    t = elementary_tensor(x)
    for split in (((0,), (1, 2)), ((0, 1), (2,)), ((1,), (0, 2))):
        s = np.linalg.svd(flatten(t, split), compute_uv=False)
        assert s[1] <= 1e-10 * s[0]


def test_flatten_bad_partition():
    t = DenseTensor.from_array(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        flatten(t, ((0,), (0, 1)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kernel=arrays(np.float64, (2, 3, 2), elements=st.floats(-5, 5)),
    x0=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
    x1=arrays(np.float64, (3,), elements=st.floats(-3, 3)),
    y1=arrays(np.float64, (3,), elements=st.floats(-3, 3)),
    coef=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
)
def test_eval_linear_in_each_slot(kernel, x0, x1, y1, coef):
    op = MultilinearOperator.from_array(kernel)
    a, b = coef
    mixed = eval_operator(op, SegrePoint((x0, a * x1 + b * y1)))
    split = a * eval_operator(op, SegrePoint((x0, x1))) + b * eval_operator(
        op, SegrePoint((x0, y1))
    )
    np.testing.assert_allclose(mixed, split, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kernel=arrays(np.float64, (2, 2, 2), elements=st.floats(-5, 5)),
    x0=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
    x1=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
)
def test_eval_equals_kernel_paired_with_elementary(kernel, x0, x1):
    op = MultilinearOperator.from_array(kernel)
    x = SegrePoint((x0, x1))
    via_tensor = np.tensordot(
        elementary_tensor(x).array, op.kernel.array, axes=((0, 1), (0, 1))
    )
    np.testing.assert_allclose(eval_operator(op, x), via_tensor, atol=1e-9)


def test_dense_tensor_length_mismatch():
    with pytest.raises(ShapeError):
        DenseTensor((2, 2), np.ones(3))


def test_dense_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseTensor((2,), np.array([1.0, np.nan]))


def test_norm_spec_rejects_bad_exponent():
    with pytest.raises(ValueError):
        NormSpec((3.0,), 2.0)


def test_conf_drops_degenerate_pairs_with_warning():
    u = SegrePoint.of([1.0, 0.0], [1.0, 0.0])
    v = SegrePoint.of([2.0, 0.0], [0.5, 0.0])  # same elementary tensor as u
    w = SegrePoint.of([0.0, 1.0], [1.0, 0.0])
    with pytest.warns(DegeneratePairWarning):
        cfg = PairConfiguration(((u, v), (u, w)))
    assert len(cfg) == 1


def test_degenerate_pair_warning_points_at_the_caller():
    u = SegrePoint.of([1.0, 0.0], [1.0, 0.0])
    w = SegrePoint.of([0.0, 1.0], [1.0, 0.0])
    with pytest.warns(DegeneratePairWarning) as record:
        PairConfiguration(((u, u), (u, w)))
    assert [w.filename for w in record] == [__file__]


def test_conf_rejects_all_degenerate():
    u = SegrePoint.of([1.0], [1.0])
    with pytest.warns(DegeneratePairWarning), pytest.raises(ValueError):
        PairConfiguration(((u, u),))


def test_conf_rejects_nonpositive_weights():
    u = SegrePoint.of([1.0], [1.0])
    z = SegrePoint.zero((1, 1))
    with pytest.raises(ValueError):
        PairConfiguration(((u, z),), (0.0,))


def test_dual_norming_vector_is_feasible_and_norming():
    rng = np.random.default_rng(1)
    for r in (1.0, 2.0, math.inf):
        g = rng.standard_normal(5)
        w = dual_norming_vector(g, r)
        assert vector_norm(w, r) <= 1 + 1e-12
        dual = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}[r]
        np.testing.assert_allclose(np.dot(w, g), vector_norm(g, dual), rtol=1e-12)


def test_project_to_ball():
    rng = np.random.default_rng(2)
    for r in (1.0, 2.0, math.inf):
        v = 3.0 * rng.standard_normal(6)
        proj = project_to_ball(v, r)
        assert vector_norm(proj, r) <= 1 + 1e-10
        inside = 0.1 * rng.standard_normal(6)
        np.testing.assert_allclose(project_to_ball(inside, r), inside)


def test_l1_projection_is_euclidean_projection():
    # oracle: dense search over the l1 sphere in 2d
    v = np.array([2.0, 1.0])
    proj = project_to_ball(v, 1.0)
    thetas = np.linspace(0, 2 * np.pi, 20001)
    candidates = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    candidates /= np.abs(candidates).sum(axis=1, keepdims=True)
    best = candidates[np.argmin(np.linalg.norm(candidates - v, axis=1))]
    assert np.linalg.norm(proj - v) <= np.linalg.norm(best - v) + 1e-6


def _one_vector_norm(v, r):
    """The one-vector l_r norm as written before it became a one-row call of row_norms: the
    bitwise oracle for both."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size == 0:
        return 0.0
    if r == 1.0:
        return float(np.sum(np.abs(v)))
    if r == 2.0:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def _one_vector_norming(g, r):
    """The one-vector dual norming vector as written before it became a one-row call of
    norming_rows: the bitwise oracle for both."""
    g = np.asarray(g, dtype=float).reshape(-1)
    if not np.any(g):
        e = np.zeros_like(g)
        e[0] = 1.0
        return e
    if r == 2.0:
        return g / np.linalg.norm(g)
    if r == 1.0:
        i = int(np.argmax(np.abs(g)))
        e = np.zeros_like(g)
        e[i] = 1.0 if g[i] >= 0 else -1.0
        return e
    return np.where(g >= 0, 1.0, -1.0)


def _one_vector_projection(v, r):
    """The one-vector projection onto the unit l_r ball, the bitwise oracle for project_rows
    and project_to_ball: in l1, the sort path below an l1 norm of 16 and the gaps from it on."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if r == math.inf:
        return np.clip(v, -1.0, 1.0)
    if r == 2.0:
        nrm = np.linalg.norm(v)
        return v if nrm <= 1.0 else v / nrm
    if np.sum(np.abs(v)) <= 1.0:
        return v
    a = np.sort(np.abs(v))[::-1]
    cumsum = np.cumsum(a)
    ks = np.arange(1, a.size + 1)
    if cumsum[-1] >= 16.0 and a[0] < math.inf:  # the cancellation-free form, from the gaps
        k = int(np.sum(np.triu(a[:, None] - a[None, :]).sum(axis=0) < 1.0))
        gap = np.sum(np.where(ks <= k, a[None, :] - np.abs(v)[:, None], 0.0), axis=1)
        return np.sign(v) * np.maximum((1.0 - gap) / k, 0.0)
    mask = a > (cumsum - 1.0) / ks
    k = int(np.max(ks[mask]))
    tau = (cumsum[k - 1] - 1.0) / k
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def test_row_helpers_match_one_vector_versions():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 12, 31, 100, 257, 1000):
        X = rng.standard_normal((9, d))
        X[0] = 0.0                              # a zero row
        X[1] = 0.02 * X[1]                      # inside every unit ball
        X[2] = 0.5 * X[2] / np.sum(np.abs(X[2]))  # inside the l1 ball
        X[3] = 3.0 * X[3]                       # outside every unit ball, clipped in l-inf
        X[4] = np.round(X[4])                   # ties in |x|
        X[5, 0] = -4.0                          # clipped in l-inf
        X[6] = 1e15 * X[6]                      # large entries: l1 sum above 16
        X[7] = 1e-150 * X[7]                    # squares near the least normal float
        for r in (1.0, 2.0, math.inf):
            norms, norming, proj = row_norms(X, r), norming_rows(X, r), project_rows(X, r)
            for i, x in enumerate(X):
                want = _one_vector_norm(x, r)
                assert norms[i] == want and vector_norm(x, r) == want, (d, r, i)
                want = _one_vector_norming(x, r)
                assert np.array_equal(norming[i], want), (d, r, i)
                assert np.array_equal(dual_norming_vector(x, r), want), (d, r, i)
                want = _one_vector_projection(x, r)
                assert np.array_equal(proj[i], want), (d, r, i)
                assert np.array_equal(project_to_ball(x, r), want), (d, r, i)
    outside = 3.0 * rng.standard_normal((4, 6))
    assert np.all(np.sum(np.abs(outside), axis=1) > 1.0)
    assert not np.array_equal(project_rows(outside, 1.0), outside)  # the soft threshold ran

    for dims, m in (((3,), 2), ((2, 3), 1), ((2, 1, 3), 3), ((1, 1), 2)):
        op = MultilinearOperator.from_array(rng.standard_normal(dims + (m,)))
        factors = [rng.standard_normal((7, d)) for d in dims]
        factors[0][1] = 0.0
        values, tensors = eval_rows(op, factors), elementary_rows(factors)
        assert values.shape == (7, m) and tensors.shape == (7, math.prod(dims))
        for i in range(7):
            x = SegrePoint(tuple(f[i] for f in factors))
            assert np.array_equal(values[i], eval_operator(op, x))
            assert np.array_equal(tensors[i], elementary_tensor(x).data)
    with pytest.raises(ShapeError):
        eval_rows(EYE_FORM, [np.ones((2, 2)), np.ones((2, 3))])


def test_row_helpers_reject_other_exponents():
    X = np.ones((2, 3))
    for helper in (row_norms, norming_rows, project_rows, vector_norm, dual_norming_vector,
                   project_to_ball):
        with pytest.raises(ValueError, match="norm exponent"):
            helper(X if helper in (row_norms, norming_rows, project_rows) else X[0], 3.0)


def test_one_vector_helpers_keep_their_edge_rules():
    for r in (1.0, 2.0, math.inf):
        assert vector_norm(np.zeros(0), r) == 0.0 and vector_norm([], r) == 0.0
        assert np.array_equal(row_norms(np.zeros((2, 0)), r), np.zeros(2))
        assert np.array_equal(dual_norming_vector(np.zeros(3), r), [1.0, 0.0, 0.0])
        want = [1.0, 1.0] if r == math.inf else [0.0, 1.0]  # sign(0) is +1 in l-inf
        assert np.array_equal(dual_norming_vector([[0.0], [2.0]], r), want)
        assert vector_norm([[3.0], [-4.0]], r) == {1.0: 7.0, 2.0: 5.0, math.inf: 4.0}[r]


def test_project_rows_keeps_non_finite_rows_non_finite():
    X = np.array([[np.nan, 0.5], [np.inf, 0.1], [0.3, 0.2]])
    for r in (1.0, 2.0, math.inf):
        with np.errstate(invalid="ignore"):
            out = project_rows(X, r)
        assert not np.all(np.isfinite(out[0]))
        assert np.array_equal(out[2], X[2])
        if r != math.inf:  # clipping maps inf to 1
            assert not np.all(np.isfinite(out[1]))


@pytest.mark.parametrize("scale", [1e-170, 1e-310, 5e-324, 1e170, 1e300])
def test_l2_helpers_rescale_tiny_and_huge_rows(scale):
    # squares of these entries underflow to 0 or overflow to inf
    X = np.array([[1.0, 1.0, 1.0], [3.0, -4.0, 0.0], [0.0, 0.0, 0.0]]) * [[scale], [scale], [1]]
    X = np.vstack([X, [[3.0, 4.0, 0.0]]])  # a plain row keeps its bits
    with np.errstate(over="raise", under="ignore"):
        norms, norming, proj = row_norms(X, 2.0), norming_rows(X, 2.0), project_rows(X, 2.0)
    want = [math.sqrt(3.0) * scale, 5.0 * scale, 0.0, 5.0]
    if scale > 1e-300:
        np.testing.assert_allclose(norms, want, rtol=1e-15)
    else:  # subnormal entries carry fewer bits
        assert 0.0 < norms[0] and 0.0 < norms[1] and norms[2] == 0.0
    assert norms[3] == 5.0 and vector_norm(X[0], 2.0) == norms[0]
    np.testing.assert_allclose(norming[:2], [[3.0 ** -0.5] * 3, [0.6, -0.8, 0.0]], rtol=1e-15)
    assert np.array_equal(norming[2], [1.0, 0.0, 0.0]) and np.array_equal(norming[3], X[3] / 5.0)
    assert np.array_equal(dual_norming_vector(X[0], 2.0), norming[0])
    if scale > 1.0:
        np.testing.assert_allclose(proj[:2], norming[:2], rtol=1e-15)
    else:
        assert np.array_equal(proj[:2], X[:2])


def test_l1_projection_of_entries_above_2_53():
    # 1 is below the spacing of these entries, so cumsum - 1 rounds to cumsum
    for v, want in (([1e17], [1.0]), ([1e17, -1e17], [0.5, -0.5]), ([1e17, 1.0], [1.0, 0.0]),
                    ([2.0**53 + 2.0], [1.0]), ([1e16, 0.5, -1e16], [0.5, 0.0, -0.5])):
        with np.errstate(all="raise"):
            out = project_to_ball(np.array(v), 1.0)
        assert np.array_equal(out, want), (v, out)
    X = np.array([[1e17, 3.0, -1e17 + 16.0], [2.0, 1.0, 0.0], [0.2, -0.3, 0.1]])
    with np.errstate(all="raise"):
        out = project_rows(X, 1.0)
    assert np.array_equal(out[0], [1.0, 0.0, 0.0])  # the gap 16 > 1 leaves the top entry
    for i in (1, 2):  # the other rows keep their bits
        assert np.array_equal(out[i], _one_vector_projection(X[i], 1.0))


def _exact_l1_projection(v):
    """The projection of v onto the unit l1 ball in rational arithmetic, each entry rounded
    once at the end."""
    x = [Fraction(float(t)) for t in v]
    if sum(abs(t) for t in x) <= 1:
        return np.array([float(t) for t in x])
    total, tau = Fraction(0), None
    for j, a in enumerate(sorted((abs(t) for t in x), reverse=True), 1):
        total += a
        if a > (total - 1) / j:
            tau = (total - 1) / j
    return np.array([float(max(abs(t) - tau, 0) * (1 if t > 0 else -1)) for t in x])


@pytest.mark.parametrize("e", [0.5, 2, 4, 6, 10, 20, 40, 60])
def test_l1_projection_matches_the_exact_projection_at_every_scale(e):
    # rows of l1 norm about 2^e whose entries lie within 1 of each other, so that every entry
    # survives the soft threshold; cumsum - 1 would lose about 2^(e - 53) there
    rng = np.random.default_rng(int(4 * e))
    for d in (2, 3, 5, 8):
        X = (2.0**e / d + rng.uniform(0, 1.5 / d, (40, d))) * rng.choice([-1.0, 1.0], (40, d))
        for x, got in zip(X, project_rows(X, 1.0)):
            want = _exact_l1_projection(x)
            assert np.max(np.abs(got - want)) <= 8 * 2.0**-53, (e, x, got, want)
            assert np.sum(np.abs(got)) <= 1 + 1e-14


def test_l1_projection_of_a_row_whose_sum_passes_2_52():
    # every entry is below 2^53, but 1 is below the spacing of the running sum
    assert np.array_equal(project_to_ball(np.array([4e15 + 0.5, 4e15]), 1.0), [0.75, 0.25])


# --------------------------------------------------------------------------
# the one-point helpers and the pair layout against per-point references
# --------------------------------------------------------------------------


def _outer_chain(x):
    """elementary_tensor(x).data as a chain of outer products, one point at a time."""
    out = np.array(1.0)
    for f in x.factors:
        out = np.multiply.outer(out, f)
    return out.reshape(-1)


def _tensordot_chain(op, x):
    """eval_operator(op, x) as a chain of tensordots, one point at a time."""
    out = op.kernel.array
    for f in x.factors:
        out = np.tensordot(f, out, axes=(0, 0))
    return out


def _random_pairs(rng, dims, k):
    pairs = []
    for i in range(k):
        u = SegrePoint(tuple(rng.standard_normal(d) for d in dims))
        v = SegrePoint.zero(dims) if i % 3 == 0 else SegrePoint(
            tuple(rng.standard_normal(d) for d in dims))
        pairs.append((u, v))
    return pairs


def test_one_point_helpers_are_bitwise_the_per_point_loops():
    rng = np.random.default_rng(21)
    for case in range(600):
        n = 1 + case % 4
        dims = tuple(int(d) for d in rng.integers(1, 9, size=n))
        op = MultilinearOperator.from_array(rng.standard_normal(dims + (int(rng.integers(1, 7)),)))
        x = SegrePoint(tuple(rng.standard_normal(d) for d in dims))
        assert np.array_equal(eval_operator(op, x), _tensordot_chain(op, x)), case
        assert np.array_equal(elementary_tensor(x).data, _outer_chain(x)), case
        assert elementary_tensor(x).shape == dims


@pytest.mark.parametrize("dims", [(1,), (1, 1), (3,), (2, 3), (1, 4, 2), (3, 1, 2, 2)])
@pytest.mark.parametrize("k", [1, 3, 12])
def test_configuration_rows_are_the_per_pair_differences(dims, k):
    rng = np.random.default_rng(22 + 7 * k + len(dims))
    cfg = PairConfiguration(tuple(_random_pairs(rng, dims, k)))
    assert cfg.rows.shape == (k, math.prod(dims))
    assert not cfg.rows.flags.writeable
    for row, (u, v) in zip(cfg.rows, cfg.pairs):
        assert np.array_equal(row, _outer_chain(u) - _outer_chain(v))
        assert np.array_equal(row, elementary_tensor(u).data - elementary_tensor(v).data)
    assert not degenerate_rows(cfg.rows).any()


def test_configuration_rows_drop_each_degenerate_pair_with_one_warning():
    rng = np.random.default_rng(23)
    dims = (2, 3)
    good = _random_pairs(rng, dims, 3)
    u = good[1][0]
    halved = SegrePoint((2.0 * u.factors[0], 0.5 * u.factors[1]))  # the same elementary tensor
    pairs = (good[0], (u, u), good[1], (u, halved), good[2])
    with pytest.warns(DegeneratePairWarning) as record:
        cfg = PairConfiguration(pairs, (1.0, 2.0, 3.0, 4.0, 5.0))
    assert sum(issubclass(w.category, DegeneratePairWarning) for w in record) == 2
    assert all(a is b for a, b in zip(cfg.pairs, good)) and cfg.weights == (1.0, 3.0, 5.0)
    assert cfg.rows.shape == (3, 6) and not cfg.rows.flags.writeable
    for row, (u, v) in zip(cfg.rows, cfg.pairs):
        assert np.array_equal(row, _outer_chain(u) - _outer_chain(v))
    with pytest.raises(ValueError):
        cfg.rows[0, 0] = 1.0


@pytest.mark.parametrize("k", [1, 3, 12])
def test_eval_differences_are_the_per_pair_evaluations(k):
    rng = np.random.default_rng(24 + k)
    for dims, m in (((1,), 1), ((3,), 2), ((2, 3), 1), ((2, 1, 3), 3), ((1, 1), 2)):
        op = MultilinearOperator.from_array(rng.standard_normal(dims + (m,)))
        pairs = _random_pairs(rng, dims, k)
        diffs = eval_differences(op, pairs)
        assert diffs.shape == (k, m)
        for row, (u, v) in zip(diffs, pairs):
            assert np.array_equal(row, _tensordot_chain(op, u) - _tensordot_chain(op, v))
            assert np.array_equal(row, eval_operator(op, u) - eval_operator(op, v))
