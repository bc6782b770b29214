import numpy as np
import pytest

from pilip.simplex import solve_lp


def test_basic_minimization():
    # min -x - y  s.t.  x + y <= 1, x, y >= 0  -> x + y = 1, value -1
    res = solve_lp(np.array([-1.0, -1.0]), A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]))
    assert res.ok
    np.testing.assert_allclose(res.value, -1.0, atol=1e-10)
    np.testing.assert_allclose(np.sum(res.x), 1.0, atol=1e-10)


def test_equality_rows_are_rejected():
    # the solver takes A_ub rows only: x = 0 must be a feasible start
    with pytest.raises(TypeError):
        solve_lp(np.array([1.0, 2.0]), A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))


def test_negative_rhs_is_rejected():
    # x <= -1 with x >= 0: a negative right-hand side, outside the solver's domain
    with pytest.raises(ValueError, match="b_ub"):
        solve_lp(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([-1.0]))


def test_mismatched_shapes_are_rejected():
    with pytest.raises(ValueError, match="shape"):
        solve_lp(np.ones(2), A_ub=np.ones((2, 3)), b_ub=np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        solve_lp(np.ones(2), A_ub=np.ones((1, 2)), b_ub=np.ones(2))


def test_unbounded():
    # min -x over x >= 0 with no constraint rows
    assert solve_lp(np.array([-1.0])).status == "unbounded"


def test_unbounded_with_constraint():
    # min -x  s.t.  -x <= 1  (x can grow without bound)
    res = solve_lp(np.array([-1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([1.0]))
    assert res.status == "unbounded"


def test_degenerate_does_not_cycle():
    # a classic degenerate instance; Bland's rule must terminate
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A_ub = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b_ub = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.ok
    np.testing.assert_allclose(res.value, -0.05, atol=1e-9)


def test_random_instances_match_feasibility_and_duality():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, n = 4, 6
        A = rng.standard_normal((m, n))
        x_feas = rng.uniform(0.1, 1.0, n)
        b = np.abs(A @ x_feas) + rng.uniform(0.1, 1.0, m)  # b >= 0, strictly feasible
        c = rng.standard_normal(n)
        res = solve_lp(c, A_ub=A, b_ub=b)
        if res.status == "optimal":
            assert np.all(A @ res.x <= b + 1e-8)
            assert np.all(res.x >= -1e-12)
            assert res.value <= c @ x_feas + 1e-8
        else:
            assert res.status == "unbounded"


def test_simplex_matches_vertex_enumeration():
    # boxed 2-variable LPs checked against brute-force vertex enumeration
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = np.vstack([rng.standard_normal((4, 2)), np.eye(2)])
        b = np.concatenate([rng.uniform(0.5, 2.0, 4), [10.0, 10.0]])
        c = rng.standard_normal(2)
        res = solve_lp(c, A_ub=A, b_ub=b)
        rows = np.vstack([A, -np.eye(2)])
        rhs = np.concatenate([b, np.zeros(2)])
        best = np.inf
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                M = rows[[i, j]]
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                v = np.linalg.solve(M, rhs[[i, j]])
                if np.all(rows @ v <= rhs + 1e-9):
                    best = min(best, c @ v)
        assert np.isfinite(best) and res.ok
        np.testing.assert_allclose(res.value, best, atol=1e-8)


def _bounded_lps(seed, count=30):
    """Random feasible LPs with b_ub >= 0, bounded by a row sum(x) <= 10; x_feas
    stays strictly feasible."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = rng.integers(2, 7), rng.integers(2, 7)
        A = rng.standard_normal((m, n))
        x_feas = rng.uniform(0.1, 1.0, n)
        b = np.abs(A @ x_feas) + rng.uniform(0.05, 0.5, m)
        A = np.vstack([A, np.ones(n)])
        b = np.append(b, 10.0)
        yield rng.standard_normal(n), A, b


def test_duals_solve_the_dual_lp():
    for c, A, b in _bounded_lps(2):
        res = solve_lp(c, A_ub=A, b_ub=b)
        assert res.ok
        y = res.duals
        assert y.shape == (A.shape[0],)
        assert np.all(y >= -1e-12)
        scale = max(1.0, abs(res.value))
        # strong duality, dual feasibility, complementary slackness
        assert abs(res.value - (-b @ y)) <= 1e-9 * scale
        reduced = c + A.T @ y
        assert np.all(reduced >= -1e-9 * scale)
        assert np.all(np.abs(y * (b - A @ res.x)) <= 1e-9 * scale)
        assert np.all(np.abs(res.x * reduced) <= 1e-9 * scale)


def test_duals_empty_without_inequality_rows():
    assert solve_lp(np.array([1.0])).duals.shape == (0,)


def test_duals_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for c, A, b in _bounded_lps(3):
        res = solve_lp(c, A_ub=A, b_ub=b)
        ref = linprog(c, A_ub=A, b_ub=b, method="highs")
        assert res.ok and ref.status == 0
        scale = max(1.0, abs(ref.fun))
        assert abs(res.value - ref.fun) <= 1e-9 * scale
        # HiGHS reports d(value)/d(b_ub) <= 0; ours are its negation
        np.testing.assert_allclose(res.duals, -ref.ineqlin.marginals, atol=1e-8 * scale)
