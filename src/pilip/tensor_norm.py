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
    denominator_upper,
    pair_triangle,
    power_sums,
    rank_one_norms,
    search_free_floor,
    search_free_uppers,
    weighted_power_sum,
)
from .rng import child_seed, stream
from .summing import Budget, initial_dictionary, pietsch_upper_lp
from .tensors import (
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    degenerate_rows,
    dual_exponent,
    elementary_rows,
    eval_differences,
    norming_rows,
    pair_factors,
    pair_rows,
    row_norms,
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
    if not p > 1:
        raise ValueError("conjugate exponent needs p > 1")
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class MixedTensor(MultilinearOperator):
    """An element of X_1 (x) ... (x) X_n (x) Y, stored as a dense kernel of
    shape (d1, ..., dn, m) with the spaces' norms alongside: the data of an
    operator, read as a tensor."""


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

    def y_vectors(self) -> list[np.ndarray]:
        return [y for _, _, y in self.terms]

    def value_floor(self, norms: NormSpec) -> float:
        """A floor under dp_upper's value, at every p in (1, inf], of every rescaling
        (s_i p_i, s_i q_i, y_i / s_i) of the terms in which no pair is dropped: the
        `formnorm.search_free_floor` of the pairs charged their y norms (docs/formats.md)."""
        if not self.terms:
            return 0.0
        pairs = [(p_pt, q_pt) for p_pt, q_pt, _ in self.terms]
        a = row_norms(np.array(self.y_vectors(), dtype=float), norms.codomain)
        return search_free_floor(pair_rows(pairs), pair_triangle(pair_factors(pairs), norms), a,
                                 self.terms[0][0].dims, norms)


@dataclass(frozen=True)
class DualWitness:
    """A summing operator W with a certified upper bound `pi_upper` of its p'-norm."""

    operator: MultilinearOperator
    pi_upper: float


def delta_p_norm(ys: Sequence[np.ndarray], p: float, codomain: float = 2.0) -> float:
    """(sum_i ||y_i||^p)^(1/p) of the vectors y_i; max of norms at p = inf, 0.0 for no y."""
    if not p >= 1:
        raise ValueError("delta_p_norm needs p in [1, inf]")
    vals = row_norms(np.atleast_2d(np.asarray(ys, dtype=float)), codomain)
    return weighted_power_sum(vals, np.ones(len(vals)), p)


# ---------------------------------------------------------------------------
# upper bounds: representation search
# ---------------------------------------------------------------------------


ELEMENTARY_TOL = 1e-10  # the relative second singular value below which a flattening is rank one
RANK_ONE_SWEEPS = 30  # the alternating sweeps of _leading_rank_one
RANDOM_WITNESSES = 12  # the random rank-one witnesses of dp_lower_dual


def _elementary_factors(w: np.ndarray) -> list[np.ndarray] | None:
    """Factor w as an elementary tensor, or None.  Scale rides on factor 0."""
    if w.ndim == 1:
        return [w.copy()]
    mat = w.reshape(w.shape[0], -1)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[0] == 0:
        return None
    if len(s) > 1 and s[1] > ELEMENTARY_TOL * s[0]:
        return None
    rest = _elementary_factors((s[0] * vt[0]).reshape(w.shape[1:]))
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
        # n = 1 or n >= 3: slice along the first n-1 modes and peel each fiber
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


SCALES = (0.5, 0.75, 1.5, 2.0)  # the rescalings _rebalance tries on each term, in order


def _scaled_terms(stacks: Sequence[list[np.ndarray]], ys: Sequence[np.ndarray],
                  scales: Sequence[float], norms: NormSpec) -> list[tuple]:
    """Terms rescaled in one pass: candidate c is the term whose factors are stacks[c], n
    arrays of shape (2, d_k) holding p's factor over q's, and whose y is ys[c], rescaled by
    scales[c].  s moves the factors to s^(1/n) * X (as SegrePoint.scale) and y to y / s, which
    leaves the tensor as it is; s = 1.0 leaves both as they are.  Returns, per candidate, its
    stack, its y and the parts that price it: difference row, triangle value, y norm, the
    row's l2 norm and keep flag (the PairConfiguration drop rule).  Each part is taken row by
    row, so every candidate has the bits of a one-candidate call."""
    C = len(scales)
    factor = np.array([s ** (1.0 / len(stacks[0])) for s in scales])
    slots = [(factor[:, None, None] * np.array(X)).transpose(1, 0, 2).reshape(2 * C, -1)
             for X in zip(*stacks)]  # per slot, every candidate's p over every candidate's q
    Y = np.array(ys, dtype=float) / np.array(scales)[:, None]
    E = elementary_rows(slots)
    rows = E[:C] - E[C:]
    parts = (rows, pair_triangle(slots, norms), row_norms(Y, norms.codomain),
             row_norms(rows, 2.0), ~degenerate_rows(rows))
    return [([S[c::C] for S in slots], Y[c], *(part[c] for part in parts)) for c in range(C)]


def _rebalance(rep: Representation, z: MixedTensor, p: float,
               pp: float) -> tuple[Representation, float]:
    """Per-term scale sweeps: move mass between a pair and its y (tensor fixed).
    Returns the best representation and its value.

    A representation's value is `formnorm.search_free_uppers` of its kept pairs
    at p' times the p-sum of all its y norms.  Each term's pricing parts are kept
    in a cache.  A term's candidates depend only on its own factors, which
    change only at its own visit, so each sweep first builds, in one stack, the
    SCALES of every term not yet tried from its current factors.  At each visit
    the term's candidates, each the representation with that one term
    replaced, are priced in one pass.  The first below the best is the one a
    loop over the scales would accept, as nothing it reads changes before it;
    the scales after it are built and priced again from the new factors.
    SegrePoints are built only for the terms that changed."""
    dims, norms, ones = z.dims, z.norms, np.ones(len(rep.terms))

    def prices(rows, tri, y_norms, row_l2, kept):
        """The value of every candidate c from row c of the (C, K[, D]) arrays; the
        candidates share the keep flags `kept`."""
        if not kept.all():
            rows, tri, row_l2 = rows[:, kept], tri[:, kept], row_l2[:, kept]
            if not kept.any():
                raise ValueError("configuration is empty after dropping degenerate pairs")
        den = search_free_uppers(rows, tri, row_l2, ones[:tri.shape[1]], dims, norms, pp)[0]
        return den * power_sums(y_norms, ones, p)[0]

    stacks = [[np.stack(fs) for fs in zip(p_pt.factors, q_pt.factors)]
              for p_pt, q_pt, _ in rep.terms]
    ys = [y for _, _, y in rep.terms]
    tried = [{} for _ in ys]  # per term, scale -> its candidate from the term's current factors

    def build(todo):
        """Add the candidates (term, scale) of `todo` to `tried`, in one stack."""
        cands = _scaled_terms([stacks[i] for i, _ in todo], [ys[i] for i, _ in todo],
                              [s for _, s in todo], norms)
        for (i, s), cand in zip(todo, cands):
            tried[i][s] = cand

    cache = [np.array(part) for part in zip(*(cand[2:] for cand in _scaled_terms(
        stacks, ys, [1.0] * len(ys), norms)))]
    best_val = prices(*(c[None] for c in cache[:4]), cache[4])[0]
    changed = set()
    for _ in range(3):
        improved = False
        untried = [(i, s) for i in range(len(ys)) for s in SCALES if s not in tried[i]]
        if untried:
            build(untried)
        for i in range(len(ys)):
            todo = SCALES
            while todo:
                if todo[0] not in tried[i]:  # the scales after an accepted one
                    build([(i, s) for s in todo])
                cands = [tried[i][s] for s in todo]
                stacked = []
                for c, base in enumerate(cache[:4]):
                    col = np.repeat(base[None], len(todo), axis=0)
                    col[:, i] = [cand[2 + c] for cand in cands]
                    stacked.append(col)
                kept_i = np.array([cand[6] for cand in cands])
                same = kept_i == cache[4][i]
                vals = np.empty(len(todo))
                if same.any():
                    vals[same] = prices(*(col[same] for col in stacked), cache[4])
                for j in range(len(todo)):
                    if not same[j]:  # this candidate drops or restores a pair: priced alone
                        kept = cache[4].copy()
                        kept[i] = kept_i[j]
                        vals[j] = prices(*(col[j:j + 1] for col in stacked), kept)[0]
                    if vals[j] < best_val * (1 - 1e-12):
                        break
                else:
                    break
                stacks[i], ys[i] = cands[j][:2]
                for part, value in zip(cache, cands[j][2:]):
                    part[i] = value
                best_val, improved, tried[i], todo = vals[j], True, {}, todo[j + 1:]
                changed.add(i)
        if not improved:
            break
    if not changed:
        return rep, best_val
    return Representation(tuple(
        (SegrePoint(tuple(X[0] for X in st)), SegrePoint(tuple(X[1] for X in st)), y)
        if i in changed else term
        for i, (term, st, y) in enumerate(zip(rep.terms, stacks, ys)))), best_val


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
    if not p > 1:
        raise ValueError("dp_upper needs p in (1, inf]")
    budget = budget or Budget()
    pp = conjugate_exponent(p)
    A = z.kernel.array
    scale = float(np.linalg.norm(A))
    if scale == 0.0:
        return BoundReport(0.0, 0.0, method="zero")
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
        if best_val < math.inf and cand.value_floor(z.norms) * (1 - 1e-9) >= best_val:
            continue  # no rescaling of cand can price below the best
        cand, value = _rebalance(cand, unit, p, pp)
        diff = cand.reconstruct(unit.dims, unit.m) - unit.kernel.array
        value = value + float(np.sum(np.abs(diff)))  # each basis elementary has value <= 1
        if value < best_val:
            best_val, best_rep, best_res = value, cand, res
    if best_rep is None:
        raise ValueError(
            f"no representation within residual tolerance at k = {k_eff}; increase k"
        )
    return BoundReport(
        0.0, scale * best_val,
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


def _rank_one_witnesses(z: MixedTensor, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-type witnesses phi (x) y*: exact norm product, hence certified.  Up to three from
    the leading singular pairs of z's ({factors},{codomain}) flattening, then RANDOM_WITNESSES
    random ones from stream(seed, 22), built in one stack: returns their flattened kernels as
    rows and their pi uppers, leaving out every witness whose pi upper is not positive."""
    dims, m = z.dims, z.m
    norms = z.norms
    s_dual = dual_exponent(norms.codomain)
    Z = z.kernel.array.reshape(-1, m)
    u, s, vt = np.linalg.svd(Z, full_matrices=False)
    vecs, gs = [], []  # per witness, the vectors that its lambdas and its y* norm
    for l in range(min(len(s), 3)):
        if s[l] == 0:
            break
        w = u[:, l].reshape(dims)
        fac = _elementary_factors(w)
        vecs.append(fac if fac is not None else _leading_rank_one(w))
        gs.append(vt[l])
    rng = stream(seed, 22)
    for _ in range(RANDOM_WITNESSES):
        vecs.append([rng.standard_normal(d) for d in dims])
        gs.append(rng.standard_normal(m))
    lam = [norming_rows(np.array(col), dual_exponent(r))
           for col, r in zip(zip(*vecs), norms.factors)]
    ystar = norming_rows(np.array(gs), s_dual)
    pi = rank_one_norms(lam, norms) * row_norms(ystar, s_dual)
    keep = pi > 0
    return elementary_rows(lam + [ystar])[keep], pi[keep]


def _leading_rank_one(w: np.ndarray) -> list[np.ndarray]:
    """Alternating power iteration for the best rank-one fit of a tensor."""
    dims = w.shape
    vecs = [np.ones(d) / math.sqrt(d) for d in dims]
    for _ in range(RANK_ONE_SWEEPS):
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
    dual-unit codomain vector) have exactly known norms.
    """
    if not p > 1:
        raise ValueError("dp_lower_dual needs p in (1, inf]")
    if float(np.linalg.norm(z.kernel.data)) == 0.0:
        return BoundReport(0.0, math.inf, method="dual-witness")
    pool = list(witnesses or [])
    certified = 0.0
    best: DualWitness | None = None
    for w in pool:
        if w.pi_upper <= 0:
            continue
        ratio = abs(_pairing(w.operator, z)) / w.pi_upper
        if ratio > certified:
            certified, best = ratio, w
    kernels, pi = _rank_one_witnesses(z, seed)
    pairings = (kernels[:, None, :] @ z.kernel.data[:, None])[:, 0, 0]  # np.dot per row
    ratios = np.abs(pairings) / pi
    gain = ratios > certified
    if gain.any():  # the first largest ratio, as a loop replacing on a larger one takes it
        top = int(np.argmax(np.where(gain, ratios, -math.inf)))
        certified = float(ratios[top])
        best = DualWitness(MultilinearOperator.from_array(kernels[top].reshape(z.dims + (z.m,)),
                                                          z.norms), float(pi[top]))
    return BoundReport(
        certified, math.inf,
        method="dual-witness",
        detail={"witness": best, "witness_count": len(pool) + len(pi), "seed": seed, "p": p},
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
    """Finitary check: Delta_p of the mapped differences is at most (LP constant on
    cfg) x (epsilon certified upper, the op-ball `denominator_upper`), within tol."""
    budget = budget or Budget()
    lhs = delta_p_norm(eval_differences(op, cfg.pairs), p, op.norms.codomain)
    eps_upper = denominator_upper(cfg, p, op.norms)[0]
    dictionary = initial_dictionary(
        op, list(cfg.pairs), child_seed(seed, 24), budget.max_dictionary, "op"
    )
    cert = pietsch_upper_lp(op, cfg, dictionary, p)
    bound = cert.constant * eps_upper
    passed = lhs <= bound + tol
    return {
        "delta_p": lhs,
        "constant": cert.constant,
        "epsilon_upper": eps_upper,
        "bound": bound,
        "margin": bound - lhs,
        "passed": bool(passed),
        "p": p,
    }
