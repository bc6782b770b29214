"""Dense two-phase simplex for the small LPs behind domination certificates.

Problems here have at most a few hundred variables (dictionary weights plus
feasibility slacks), so a dense tableau with Bland's rule is simple,
deterministic, and immune to cycling.  Minimizes c.x subject to
A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

At an optimum, ``duals`` holds one multiplier y_i >= 0 per row of A_ub: the
phase-2 reduced cost of that row's slack column.  With A_ub rows only they
solve the dual LP  max -b_ub.y  s.t.  A_ub^T y >= -c, y >= 0, so
c.x = -b_ub.duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "solve_lp"]

_TOL = 1e-10


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    value: float
    duals: np.ndarray | None = None  # one multiplier per A_ub row, at an optimum

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int, maxiter: int) -> str:
    """Iterate on tableau T (last row = reduced costs, last col = rhs)."""
    m = T.shape[0] - 1
    for _ in range(maxiter):
        # Bland: entering = lowest index with negative reduced cost
        col = -1
        for j in range(ncols):
            if T[m, j] < -_TOL:
                col = j
                break
        if col < 0:
            return "optimal"
        ratios = np.full(m, np.inf)
        for i in range(m):
            if T[i, col] > _TOL:
                ratios[i] = T[i, -1] / T[i, col]
        row = -1
        best = np.inf
        for i in range(m):
            if ratios[i] < best - _TOL or (ratios[i] < best + _TOL and row >= 0 and basis[i] < basis[row]):
                best, row = ratios[i], i
        if row < 0:
            return "unbounded"
        _pivot(T, basis, row, col)
    return "iteration_limit"


def solve_lp(
    c: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    maxiter: int = 20_000,
) -> SimplexResult:
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    n_slack = 0 if A_ub is None else np.asarray(A_ub).shape[0]

    if A_ub is not None:
        A_ub = np.asarray(A_ub, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        for i in range(A_ub.shape[0]):
            row = np.zeros(n + n_slack)
            row[:n] = A_ub[i]
            row[n + i] = 1.0
            rows.append(row)
            rhs.append(float(b_ub[i]))
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        for i in range(A_eq.shape[0]):
            row = np.zeros(n + n_slack)
            row[:n] = A_eq[i]
            rows.append(row)
            rhs.append(float(b_eq[i]))

    if not rows:
        return SimplexResult("optimal", np.zeros(n), 0.0, np.zeros(0))

    A = np.vstack(rows)
    b = np.asarray(rhs)
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    m, ntot = A.shape

    # phase 1: artificial basis
    T = np.zeros((m + 1, ntot + m + 1))
    T[:m, :ntot] = A
    T[:m, ntot : ntot + m] = np.eye(m)
    T[:m, -1] = b
    T[m, ntot : ntot + m] = 1.0
    basis = np.arange(ntot, ntot + m)
    for i in range(m):  # price out artificials
        T[m] -= T[i]
    status = _run_simplex(T, basis, ntot + m, maxiter)
    if status != "optimal":
        return SimplexResult(status, None, np.nan)
    if T[m, -1] < -_TOL * max(1.0, float(np.max(np.abs(b)))):
        return SimplexResult("infeasible", None, np.nan)

    # drive remaining artificials out of the basis
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= ntot:
            piv = -1
            for j in range(ntot):
                if abs(T[i, j]) > _TOL:
                    piv = j
                    break
            if piv >= 0:
                _pivot(T, basis, i, piv)
            else:
                keep[i] = False  # redundant row
    T = np.vstack([T[:m][keep], T[m:]])
    basis = basis[keep]
    m = basis.size

    # phase 2
    T2 = np.zeros((m + 1, ntot + 1))
    T2[:m, :ntot] = T[:m, :ntot]
    T2[:m, -1] = T[:m, -1]
    cost = np.zeros(ntot)
    cost[:n] = c
    T2[m, :ntot] = cost
    for i in range(m):
        if cost[basis[i]] != 0.0:
            T2[m] -= cost[basis[i]] * T2[i]
    status = _run_simplex(T2, basis, ntot, maxiter)
    if status != "optimal":
        return SimplexResult(status, None, np.nan)

    x = np.zeros(ntot)
    for i in range(m):
        x[basis[i]] = T2[i, -1]
    x = np.maximum(x[:n], 0.0)
    duals = np.maximum(T2[m, n : n + n_slack], 0.0)
    return SimplexResult("optimal", x, float(np.dot(c, x)), duals)
