"""Dense one-phase simplex for the small LPs behind domination certificates.

Problems here have at most a few hundred variables (dictionary weights plus
feasibility slacks), so a dense tableau with Bland's rule is simple,
deterministic, and immune to cycling.  Minimizes c.x subject to
A_ub x <= b_ub, x >= 0, with b_ub >= 0: x = 0 is then a feasible vertex, and
the simplex starts from the slack basis with no phase 1.

At an optimum, ``duals`` holds one multiplier y_i >= 0 per row of A_ub: the
reduced cost of that row's slack column.  They solve the dual LP
max -b_ub.y  s.t.  A_ub^T y >= -c, y >= 0, so c.x = -b_ub.duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "solve_lp"]

_TOL = 1e-10


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    value: float
    duals: np.ndarray | None = None  # one multiplier per A_ub row, at an optimum

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def solve_lp(
    c: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    *,
    maxiter: int = 20_000,
) -> SimplexResult:
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    A = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    if A.shape != (b.size, n):
        raise ValueError(f"A_ub has shape {A.shape}, expected {(b.size, n)}")
    if np.any(b < 0):
        raise ValueError("b_ub must be >= 0: the simplex starts from the slack basis")
    m = b.size

    # tableau: rows [A | I | b] over the reduced costs [c | 0 | -c.x]
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = c
    basis = np.arange(n, n + m)
    for _ in range(maxiter):
        # Bland: entering = lowest index with negative reduced cost
        entering = np.flatnonzero(T[m, :-1] < -_TOL)
        if entering.size == 0:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            x = np.maximum(x[:n], 0.0)
            duals = np.maximum(T[m, n:-1], 0.0)
            return SimplexResult("optimal", x, float(np.dot(c, x)), duals)
        col = entering[0]
        # ratio test; near-ties leave by the lowest basis index
        up = np.flatnonzero(T[:m, col] > _TOL)
        if up.size == 0:
            return SimplexResult("unbounded", None, np.nan)
        ratios = T[up, -1] / T[up, col]
        tied = up[ratios < np.min(ratios) + _TOL]
        _pivot(T, basis, tied[np.argmin(basis[tied])], col)
    return SimplexResult("iteration_limit", None, np.nan)
