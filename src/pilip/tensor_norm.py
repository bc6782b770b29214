"""The Chevet-Saphar-type norm on (X_1 (x) ... (x) X_n) (x) Y.

An element z is measured through representations

    z = sum_i (p_i - q_i) (x) y_i,    p_i, q_i elementary,

with value (sup-of-differences denominator of the pairs at the conjugate
exponent p') * (sum ||y_i||^p)^(1/p); the norm is the infimum over
representations.  ``dp_upper`` searches representations (any valid one is
a true upper bound), ``dp_lower_dual`` pairs z against summing operators
with certified norm bounds (weak duality gives a true lower bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .bounds import BoundReport
from .formnorm import (
    config_denominator,
    hs_to_op_scale,
    op_ball_uppers,
    pair_triangle,
    rank_one_norm,
    weighted_power_sum,
)
from .rng import child_seed, stream
from .summing import Budget, initial_dictionary, pietsch_upper_lp
from .tensors import (
    DenseTensor,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    degenerate_rows,
    dual_exponent,
    dual_norming_vector,
    elementary_rows,
    elementary_tensor,
    eval_differences,
    pair_rows,
    vector_norm,
)

__all__ = [
    "MixedTensor",
    "Representation",
    "DualWitness",
    "conjugate_exponent",
    "delta_p_norm",
    "dp_upper",
    "dp_lower_dual",
    "epsilon_norm_diff",
    "check_delta_epsilon_bound",
]


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; p = inf gives 1."""
    if p <= 1:
        raise ValueError("conjugate exponent needs p > 1")
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class MixedTensor:
    """An element of X_1 (x) ... (x) X_n (x) Y, stored as a dense kernel of
    shape (d1, ..., dn, m) with the spaces' norms alongside."""

    kernel: DenseTensor
    norms: NormSpec

    def __post_init__(self):
        if self.kernel.ndim < 2:
            raise ValueError("mixed tensor needs at least one factor mode plus the codomain")
        if len(self.norms.factors) != self.kernel.ndim - 1:
            raise ValueError("one factor norm per factor mode required")

    @classmethod
    def from_array(cls, array: np.ndarray, norms: NormSpec | None = None) -> "MixedTensor":
        array = np.asarray(array, dtype=float)
        if norms is None:
            norms = NormSpec.all_l2(array.ndim - 1)
        return cls(DenseTensor.from_array(array), norms)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.kernel.shape[:-1]

    @property
    def m(self) -> int:
        return self.kernel.shape[-1]


@dataclass(frozen=True)
class Representation:
    """Terms (p_i, q_i, y_i) with sum (P_i - Q_i) (x) y_i ~ z."""

    terms: tuple[tuple[SegrePoint, SegrePoint, np.ndarray], ...]

    def reconstruct(self, dims: tuple[int, ...], m: int) -> np.ndarray:
        out = np.zeros(dims + (m,))
        if not self.terms:
            return out
        rows = pair_rows([(p_pt, q_pt) for p_pt, q_pt, _ in self.terms])
        for row, (_, _, y) in zip(rows, self.terms):  # term by term, as the sum is defined
            out += np.multiply.outer(row.reshape(dims), np.asarray(y, dtype=float))
        return out

    def residual(self, z: MixedTensor) -> float:
        """Frobenius distance to z, relative to ||z||_F (absolute when z = 0)."""
        target = z.kernel.array
        diff = self.reconstruct(z.dims, z.m) - target
        scale = float(np.linalg.norm(target))
        return float(np.linalg.norm(diff)) / (scale if scale > 0 else 1.0)

    def pair_configuration(self) -> PairConfiguration:
        return PairConfiguration(tuple((p_pt, q_pt) for p_pt, q_pt, _ in self.terms))

    def y_vectors(self) -> list[np.ndarray]:
        return [y for _, _, y in self.terms]


@dataclass(frozen=True)
class DualWitness:
    """A summing operator W with a known upper estimate of its p'-norm.

    Only witnesses whose upper bound is certified contribute to the
    certified lower bound of the tensor norm; the others are diagnostics.
    """

    operator: MultilinearOperator
    pi_upper: float
    certified: bool = True


def delta_p_norm(ys: Sequence[np.ndarray], p: float, codomain: float = 2.0) -> float:
    """(sum_i ||y_i||^p)^(1/p); max of norms at p = inf."""
    vals = np.array([vector_norm(np.asarray(y), codomain) for y in ys])
    return weighted_power_sum(vals, np.ones(len(vals)), p)


# ---------------------------------------------------------------------------
# upper bounds: representation search
# ---------------------------------------------------------------------------


def _elementary_factors(w: np.ndarray, tol: float = 1e-10) -> list[np.ndarray] | None:
    """Factor w as an elementary tensor, or None.  Scale rides on factor 0."""
    if w.ndim == 1:
        return [w.copy()]
    mat = w.reshape(w.shape[0], -1)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[0] == 0:
        return None
    if len(s) > 1 and s[1] > tol * s[0]:
        return None
    rest = _elementary_factors((s[0] * vt[0]).reshape(w.shape[1:]), tol)
    if rest is None:
        return None
    return [u[:, 0]] + rest


def _solve_ys(pairs: list[tuple[SegrePoint, SegrePoint]], Z: np.ndarray) -> np.ndarray:
    """Least-squares y-block for fixed pairs: minimizes the reconstruction error."""
    Y, *_ = np.linalg.lstsq(pair_rows(pairs).T, Z, rcond=None)
    return Y


def _svd_chunk_representation(z: MixedTensor) -> Representation:
    """Deterministic exact representation from the ({factors},{codomain}) SVD.

    Z = sum_l w_l y_l^T; each w_l is split into rank-one (n = 1, 2) or
    basis-slice pieces (n >= 3), every piece elementary or a difference of
    two elementaries.
    """
    dims, m = z.dims, z.m
    n = len(dims)
    Z = z.kernel.array.reshape(-1, m)
    u, s, vt = np.linalg.svd(Z, full_matrices=False)
    terms: list[tuple[SegrePoint, SegrePoint, np.ndarray]] = []
    zero = SegrePoint.zero(dims)
    rank_tol = max(Z.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    for l in range(len(s)):
        if s[l] <= rank_tol:
            break
        w = u[:, l].reshape(dims)
        y = s[l] * vt[l]
        if n == 1:
            terms.append((SegrePoint((w.reshape(-1),)), zero, y))
            continue
        if n == 2:
            wu, ws, wvt = np.linalg.svd(w)
            idx = [i for i in range(len(ws)) if ws[i] > rank_tol]
            for a in range(0, len(idx), 2):
                i = idx[a]
                p_pt = SegrePoint((ws[i] * wu[:, i], wvt[i]))
                if a + 1 < len(idx):
                    j = idx[a + 1]
                    q_pt = SegrePoint((-ws[j] * wu[:, j], wvt[j]))
                else:
                    q_pt = zero
                terms.append((p_pt, q_pt, y.copy()))
            continue
        # n >= 3: slice along the first n-1 modes and peel each fiber
        fac = _elementary_factors(w)
        if fac is not None:
            terms.append((SegrePoint(tuple(fac)), zero, y))
            continue
        eyes = [np.eye(d) for d in dims[:-1]]
        for idx in np.ndindex(*dims[:-1]):
            fiber = w[idx]
            if np.max(np.abs(fiber)) <= rank_tol:
                continue
            vecs = tuple(eyes[k][j] for k, j in enumerate(idx)) + (fiber,)
            terms.append((SegrePoint(vecs), zero, y.copy()))
    return Representation(tuple(terms))


def _perturbed(rep: Representation, rng: np.random.Generator, scale: float) -> list[
    tuple[SegrePoint, SegrePoint]
]:
    pairs = []
    for p_pt, q_pt, _ in rep.terms:
        pu = SegrePoint(tuple(f + scale * rng.standard_normal(f.size) * max(np.max(np.abs(f)), 1e-3)
                              for f in p_pt.factors))
        qv = SegrePoint(tuple(f + scale * rng.standard_normal(f.size) * max(np.max(np.abs(f)), 1e-3)
                              for f in q_pt.factors))
        pairs.append((pu, qv))
    return pairs


def _triangle_wins(tri: float, kappa: float, row_l2: np.ndarray, pp: float) -> bool:
    """Whether the triangle upper `tri` of unit-weight pairs lies below their "kappa-hs" upper,
    so that min(op_ball_uppers(...).values()) returns `tri` itself and the SVD can be skipped.

    `row_l2` holds the l2 norms of the pairs' difference rows and kappa is hs_to_op_scale.
    The HS upper's sigma_max is at least every row norm, and at p' < 2 it is multiplied by
    K^(1/p' - 1/2) for K rows; the factor 1 - 1e-9 covers the rounding of both sides."""
    bound = float(row_l2.max())
    if pp < 2.0:
        bound *= len(row_l2) ** (1.0 / pp - 0.5)
    return tri < kappa * bound * (1.0 - 1e-9)


def _rebalance(rep: Representation, z: MixedTensor, p: float, pp: float) -> Representation:
    """Per-term scale sweeps: move mass between a pair and its y (tensor fixed).

    A representation's value is the certified search-free op-ball upper of its
    pairs times the p-sum of its y norms.  Each term's difference row, triangle
    value, y norm and keep flag (the PairConfiguration drop rule) are computed
    once; a candidate recomputes only the term it rescales, from its factors
    stacked as (2, d_k) arrays (p's factor over q's), once per scale while the
    term is unchanged, and SegrePoints are built only for the terms that
    changed.  The SVD of the HS upper runs only when the triangle upper does
    not win outright (`_triangle_wins`)."""
    norms = z.norms
    n = len(z.dims)
    kappa = hs_to_op_scale(z.dims, norms)

    def parts(stacks, y):
        E = elementary_rows(stacks)
        rows = E[:1] - E[1:]
        return (rows[0], float(pair_triangle(stacks, norms)[0]), vector_norm(y, norms.codomain),
                not degenerate_rows(rows)[0], math.sqrt(rows[0] @ rows[0]))

    ones = np.ones(len(rep.terms))

    def value(cache):
        rows, tri, y_norms, kept, row_l2 = cache
        if not kept.all():
            rows, tri, row_l2 = rows[kept], tri[kept], row_l2[kept]
            if not len(rows):
                raise ValueError("configuration is empty after dropping degenerate pairs")
        den = weighted_power_sum(tri, ones[:len(tri)], pp)
        if not _triangle_wins(den, kappa, row_l2, pp):
            den = min(op_ball_uppers(rows, tri, ones[:len(tri)], z.dims, norms, pp).values())
        return den * weighted_power_sum(y_norms, ones, p)

    stacks = [[np.stack(fs) for fs in zip(p_pt.factors, q_pt.factors)]
              for p_pt, q_pt, _ in rep.terms]
    ys = [y for _, _, y in rep.terms]
    cache = [np.array(c) for c in zip(*(parts(st, y) for st, y in zip(stacks, ys)))]
    best_val = value(cache)
    changed = set()
    tried = [{} for _ in ys]  # per term, scale -> its candidate from the term's current factors
    for _ in range(3):
        improved = False
        for i in range(len(ys)):
            for s in (0.5, 0.75, 1.5, 2.0):
                if s not in tried[i]:
                    factor = s ** (1.0 / n)
                    st, y_s = [factor * X for X in stacks[i]], ys[i] / s  # as SegrePoint.scale
                    tried[i][s] = st, y_s, parts(st, y_s)
                st, y_s, term = tried[i][s]
                cand = [c.copy() for c in cache]
                for c, v in zip(cand, term):
                    c[i] = v
                val = value(cand)
                if val < best_val * (1 - 1e-12):
                    stacks[i], ys[i], tried[i] = st, y_s, {}
                    cache, best_val, improved = cand, val, True
                    changed.add(i)
        if not improved:
            break
    if not changed:
        return rep
    return Representation(tuple(
        (SegrePoint(tuple(X[0] for X in st)), SegrePoint(tuple(X[1] for X in st)), y)
        if i in changed else term
        for i, (term, st, y) in enumerate(zip(rep.terms, stacks, ys))))


def dp_upper(
    z: MixedTensor,
    p: float,
    k: int | None = None,
    budget: Budget | None = None,
    *,
    seed: int = 0,
    residual_tol: float = 1e-8,
) -> BoundReport:
    """Upper bound the tensor norm by searching representations of z.

    p must lie in (1, inf]; the pair denominator runs at the conjugate
    exponent p'.  Any representation whose reconstruction residual is within
    `residual_tol` (relative Frobenius) yields a certified upper bound: the
    value is charged the l1 mass of the residual, which dominates the norm
    of the reconstruction error.  Raises ValueError("... increase k") when
    no candidate meets the residual tolerance within k terms.

    The default k is the larger of 2 x rank of the ({factors},{codomain})
    flattening and the term count of the deterministic SVD construction, so
    that construction is always a candidate; `budget.max_pairs` does not cap it.
    """
    if p <= 1:
        raise ValueError("dp_upper needs p in (1, inf]")
    budget = budget or Budget()
    pp = conjugate_exponent(p)
    A = z.kernel.array
    scale = float(np.linalg.norm(A))
    if scale == 0.0:
        return BoundReport(0.0, 0.0, 0.0, method="zero")
    unit = MixedTensor.from_array(A / scale, z.norms)
    Z = unit.kernel.array.reshape(-1, unit.m)

    candidates: list[Representation] = []
    fac = None
    u, s, vt = np.linalg.svd(Z, full_matrices=False)
    if len(s) == 1 or (len(s) > 1 and s[1] <= 1e-12 * s[0]):
        fac = _elementary_factors(u[:, 0].reshape(unit.dims))
    if fac is not None:
        candidates.append(
            Representation(((SegrePoint(tuple(fac)), SegrePoint.zero(unit.dims), s[0] * vt[0]),))
        )
    base = _svd_chunk_representation(unit)
    if base.terms:
        candidates.append(base)
    rank = int(np.sum(s > max(Z.shape) * np.finfo(float).eps * s[0]))
    k_default = max(2 * rank, len(base.terms), 1)
    k_eff = k if k is not None else k_default

    # refinement: perturb pair factors, re-solve y by least squares
    rng_root = child_seed(seed, 20)
    for c in list(candidates):
        if len(c.terms) > k_eff:
            continue
        for i in range(min(8, budget.restarts)):
            rng = stream(rng_root, i)
            pairs = _perturbed(c, rng, 0.3)
            try:
                Y = _solve_ys(pairs, Z)
            except np.linalg.LinAlgError:
                continue
            cand = Representation(
                tuple((u_pt, v_pt, Y[j]) for j, (u_pt, v_pt) in enumerate(pairs))
            )
            candidates.append(cand)

    best_val, best_rep, best_res = math.inf, None, math.inf
    for cand in candidates:
        if len(cand.terms) > k_eff or not cand.terms:
            continue
        res = cand.residual(unit)
        if res > residual_tol:
            continue
        cand = _rebalance(cand, unit, p, pp)
        diff = cand.reconstruct(unit.dims, unit.m) - unit.kernel.array
        slack = float(np.sum(np.abs(diff)))  # each basis elementary has value <= 1
        cfg = cand.pair_configuration()
        den = config_denominator(
            cfg, pp, "op", z.norms, seed=child_seed(seed, 21), restarts=8,
        )
        value = den.certified_upper * delta_p_norm(cand.y_vectors(), p, z.norms.codomain) + slack
        if value < best_val:
            best_val, best_rep, best_res = value, cand, res
    if best_rep is None:
        raise ValueError(
            f"no representation within residual tolerance at k = {k_eff}; increase k"
        )
    return BoundReport(
        0.0, 0.0, scale * best_val,
        method="representation-search",
        detail={
            "representation": best_rep,
            "residual": best_res,
            "terms": len(best_rep.terms),
            "k": k_eff,
            "seed": seed,
            "p": p,
        },
    )


# ---------------------------------------------------------------------------
# lower bounds: duality pairing
# ---------------------------------------------------------------------------


def _pairing(witness: MultilinearOperator, z: MixedTensor) -> float:
    return float(np.dot(witness.kernel.data, z.kernel.data))


def _rank_one_witnesses(z: MixedTensor, seed: int, count: int = 12) -> list[DualWitness]:
    """Scalar-type witnesses phi (x) y*: exact norm product, hence certified."""
    dims, m = z.dims, z.m
    norms = z.norms
    s_dual = dual_exponent(norms.codomain)
    Z = z.kernel.array.reshape(-1, m)
    u, s, vt = np.linalg.svd(Z, full_matrices=False)
    witnesses = []

    def add(vecs: list[np.ndarray], ystar: np.ndarray) -> None:
        lam = [dual_norming_vector(c, dual_exponent(r)) for c, r in zip(vecs, norms.factors)]
        kernel = elementary_tensor(SegrePoint((*lam, ystar))).array
        w_op = MultilinearOperator.from_array(kernel, norms)
        pi_up = rank_one_norm(lam, norms) * vector_norm(ystar, s_dual)
        if pi_up > 0:
            witnesses.append(DualWitness(w_op, pi_up, certified=True))

    for l in range(min(len(s), 3)):
        if s[l] == 0:
            break
        w = u[:, l].reshape(dims)
        fac = _elementary_factors(w)
        if fac is None:
            fac = _leading_rank_one(w)
        add(fac, dual_norming_vector(vt[l], s_dual))
    rng = stream(seed, 22)
    for _ in range(count):
        vecs = [rng.standard_normal(d) for d in dims]
        add(vecs, dual_norming_vector(rng.standard_normal(m), s_dual))
    return witnesses


def _leading_rank_one(w: np.ndarray, sweeps: int = 30) -> list[np.ndarray]:
    """Alternating power iteration for the best rank-one fit of a tensor."""
    dims = w.shape
    vecs = [np.ones(d) / math.sqrt(d) for d in dims]
    for _ in range(sweeps):
        for k in range(len(dims)):
            operands: list = [w, list(range(len(dims)))]
            for j in range(len(dims)):
                if j != k:
                    operands.extend([vecs[j], [j]])
            g = np.einsum(*operands, [k])
            nrm = np.linalg.norm(g)
            if nrm == 0:
                return vecs
            vecs[k] = g / nrm
    return vecs


def dp_lower_dual(
    z: MixedTensor,
    p: float,
    witnesses: Sequence[DualWitness] | None = None,
    *,
    seed: int = 0,
) -> BoundReport:
    """Certified lower bound max |<W, z>| / upper(pi_p'(W)) over witnesses.

    Auto-generated scalar-type witnesses (rank-one form tensored with a
    dual-unit codomain vector) have exactly known norms.  Witnesses whose
    bound is not certified only feed the heuristic value.
    """
    if p <= 1:
        raise ValueError("dp_lower_dual needs p in (1, inf]")
    if float(np.linalg.norm(z.kernel.data)) == 0.0:
        return BoundReport(0.0, 0.0, math.inf, method="dual-witness")
    pool = list(witnesses or [])
    pool.extend(_rank_one_witnesses(z, seed))
    certified, heuristic = 0.0, 0.0
    best: DualWitness | None = None
    for w in pool:
        if w.pi_upper <= 0:
            continue
        ratio = abs(_pairing(w.operator, z)) / w.pi_upper
        heuristic = max(heuristic, ratio)
        if w.certified and ratio > certified:
            certified, best = ratio, w
    return BoundReport(
        certified, heuristic, math.inf,
        method="dual-witness",
        detail={"witness": best, "witness_count": len(pool), "seed": seed, "p": p},
    )


# ---------------------------------------------------------------------------
# the Delta_p / epsilon characterization
# ---------------------------------------------------------------------------


def epsilon_norm_diff(
    cfg: PairConfiguration,
    p: float,
    norms: NormSpec | None = None,
    *,
    seed: int = 0,
    restarts: int = 16,
) -> BoundReport:
    """The injective norm of sum_i e_i (x) (a_i - b_i): identical to the
    operator-ball configuration denominator at exponent p."""
    return config_denominator(cfg, p, "op", norms, seed=seed, restarts=restarts)


def check_delta_epsilon_bound(
    op: MultilinearOperator,
    cfg: PairConfiguration,
    p: float,
    budget: Budget | None = None,
    *,
    seed: int = 0,
    tol: float = 1e-7,
) -> dict[str, Any]:
    """Finitary check: Delta_p of the mapped differences is at most
    (LP constant on cfg) x (epsilon certified upper), within tol."""
    budget = budget or Budget()
    lhs = delta_p_norm(eval_differences(op, cfg.pairs), p, op.norms.codomain)
    eps = epsilon_norm_diff(cfg, p, op.norms, seed=child_seed(seed, 23),
                            restarts=max(8, budget.restarts // 8))
    dictionary = initial_dictionary(
        op, list(cfg.pairs), child_seed(seed, 24), budget.max_dictionary, "op"
    )
    cert = pietsch_upper_lp(op, cfg, dictionary, p)
    bound = cert.constant * eps.certified_upper
    passed = lhs <= bound + tol
    return {
        "delta_p": lhs,
        "constant": cert.constant,
        "epsilon_upper": eps.certified_upper,
        "bound": bound,
        "margin": bound - lhs,
        "passed": bool(passed),
        "p": p,
    }
