import math

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
    dual_norming_vector,
    elementary_rows,
    elementary_tensor,
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


def test_row_helpers_match_one_vector_versions():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 12):
        X = rng.standard_normal((9, d))
        X[0] = 0.0                              # a zero row
        X[1] = 0.02 * X[1]                      # inside every unit ball
        X[2] = 0.5 * X[2] / np.sum(np.abs(X[2]))  # inside the l1 ball
        X[3] = 3.0 * X[3]                       # outside every unit ball, clipped in l-inf
        X[4] = np.round(X[4])                   # ties in |x|
        X[5, 0] = -4.0                          # clipped in l-inf
        for r in (1.0, 2.0, math.inf):
            norms, norming, proj = row_norms(X, r), norming_rows(X, r), project_rows(X, r)
            for i, x in enumerate(X):
                assert norms[i] == vector_norm(x, r), (d, r, i)
                assert np.array_equal(norming[i], dual_norming_vector(x, r)), (d, r, i)
                assert np.array_equal(proj[i], project_to_ball(x, r)), (d, r, i)
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


def test_project_rows_keeps_non_finite_rows_non_finite():
    X = np.array([[np.nan, 0.5], [np.inf, 0.1], [0.3, 0.2]])
    for r in (1.0, 2.0, math.inf):
        with np.errstate(invalid="ignore"):
            out = project_rows(X, r)
        assert not np.all(np.isfinite(out[0]))
        assert np.array_equal(out[2], X[2])
        if r != math.inf:  # clipping maps inf to 1
            assert not np.all(np.isfinite(out[1]))
