"""Operator norms and configuration denominators, each as a certified bracket.

Two nonconvex suprema live here:

* ``operator_norm``: sup of ||T(x1,...,xn)||_Y over the factor unit balls.
  Lower bounds come from multi-start alternating maximization (every slot
  update is a dual-norming step, so every iterate is feasible); the upper
  bound is exact where the geometry allows it (extreme-point enumeration
  for l1/linf balls, SVD for bilinear l2 forms) and a scaled
  Hilbert-Schmidt relaxation otherwise.

* ``config_denominator``: sup over a unit ball of forms of the weighted
  p-sum (sum_i a_i |phi(Delta_i)|^p)^(1/p), where Delta_i is the
  elementary-tensor difference of pair i.  The Hilbert-Schmidt ball at
  p = 2 has an exact SVD value; the operator ball is bracketed between
  rank-one ascent (whose normalization is exact) and a menu of certified
  relaxations.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundReport
from .rng import stream
from .tensors import (
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    degenerate_rows,
    dual_exponent,
    dual_norming_vector,
    elementary_tensor,
    eval_operator,
    eval_rows,
    norming_rows,
    pair_factors,
    row_norms,
    vector_norm,
)

__all__ = [
    "operator_norm",
    "config_denominator",
    "denominator_upper",
    "rank_one_maximizer",
    "rank_one_form",
    "rank_one_norm",
    "halving_trials",
    "hs_to_op_scale",
    "hs_uppers",
    "lockstep_ascent",
    "pair_triangle",
    "power_sums",
    "rank_one_norms",
    "search_free_floor",
    "search_free_uppers",
    "SEARCH_FREE_UPPERS",
    "slot_gradient",
    "weighted_power_sum",
]

DEFAULT_RESTARTS = 64
ASCENT_TOL = 1e-9
ASCENT_MAX_ITERS = 10_000
ENUMERATION_CAP = 4096
_LINE_TRIALS = 4  # line-search trials per start in one round of a lockstep ascent


def weighted_power_sum(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_i a_i |t_i|^p)^(1/p), with max_i |t_i| at p = inf: the one-row call of
    `power_sums`, whose rule also covers a plain sum that under- or overflows."""
    t = np.asarray(values, dtype=float).reshape(1, -1)
    return float(power_sums(t, np.asarray(weights), p)[0][0])


def rank_one_form(vectors: Sequence[np.ndarray], norms: NormSpec) -> MultilinearOperator:
    """The scalar form lam_1 (x) ... (x) lam_n.

    Its operator norm for the given factor norms is exactly the product of
    the dual norms of the vectors, which makes rank-one forms the one family
    whose normalization needs no search.
    """
    kernel = elementary_tensor(SegrePoint.of(*vectors)).array[..., np.newaxis]
    return MultilinearOperator.from_array(kernel, NormSpec(norms.factors, 2.0))


def rank_one_norm(vectors: Sequence[np.ndarray], norms: NormSpec) -> float:
    """The norm of `rank_one_form(vectors, norms)`: the one-row call of `rank_one_norms`."""
    return float(rank_one_norms([np.asarray(v, dtype=float)[None] for v in vectors], norms)[0])


def rank_one_norms(factors: Sequence[np.ndarray], norms: NormSpec) -> np.ndarray:
    """The norm of every rank-one form whose k-th factors are the rows of the (R, d_k) array
    factors[k]: the product of the factors' dual norms, taken left to right."""
    return _prod(row_norms(X, dual_exponent(r)) for X, r in zip(factors, norms.factors))


@functools.lru_cache(maxsize=128)
def hs_to_op_scale(dims: tuple[int, ...], norms: NormSpec) -> float:
    """kappa with ||phi||_HS <= kappa ||phi||_op over the given factor norms.

    sqrt(prod d_i / max d_i) for l2/linf factors; each l1 factor costs an
    extra sqrt(d_i) because its unit ball is smaller than the l2 ball.  Cached: the pricing
    loops call it once per stack."""
    kappa = math.sqrt(math.prod(dims) / max(dims))
    for d, r in zip(dims, norms.factors):
        if r == 1.0:
            kappa *= math.sqrt(d)
    return kappa


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def slot_gradient(kernel: np.ndarray, factors: list[np.ndarray], y: np.ndarray, k: int) -> np.ndarray:
    """The gradient in slot k of <y, T(x_1, ..., x_n)>: contract every other slot and the codomain.
    The kernel, the factors and y may carry a leading batch index (a row per point), kept in the
    result; each row is then bit for bit the gradient of that point alone."""
    n = len(factors)
    if factors[k].ndim == 2 and factors[k].shape[1] == 1:
        # einsum orders a batched sum into a unit slot unlike a one-point sum: go row by row
        return np.array([
            slot_gradient(kernel[r] if kernel.ndim > n + 1 else kernel, [f[r] for f in factors],
                          y[r] if y.ndim > 1 else y, k)
            for r in range(len(factors[k]))]).reshape(-1, 1)
    operands: list = [kernel, [..., *range(n), n]]
    for j in range(n):
        if j != k:
            operands.extend([factors[j], [..., j]])
    operands.extend([y, [..., n]])
    return np.einsum(*operands, [..., k])


def _alternating_max(
    op: MultilinearOperator, factors: list[np.ndarray], max_sweeps: int = 200
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Alternating maximization from all starts in lockstep, one (starts, d_k) array per
    slot; each start stops on its own and does the same floating-point operations as a
    run on its own (docs/formats.md).  Returns the value and the maximizer of each start."""
    kernel, n = op.kernel.array, op.n
    s_dual = dual_exponent(op.norms.codomain)
    y = norming_rows(eval_rows(op, factors), s_dual)
    best = np.full(len(y), -math.inf)
    running = np.arange(len(y))
    for _ in range(max_sweeps):
        X, Y = [F[running] for F in factors], y[running]
        for k in range(n):
            X[k] = norming_rows(slot_gradient(kernel, X, Y, k), op.norms.factors[k])
        t = eval_rows(op, X)
        y[running] = norming_rows(t, s_dual)
        value = row_norms(t, op.norms.codomain)
        stop = value <= best[running] * (1.0 + 1e-13)
        best[running] = np.maximum(best[running], value)
        for F, x in zip(factors, X):
            F[running] = x
        running = running[~stop]
        if not running.size:
            break
    return best, factors


def _extreme_sets(op: MultilinearOperator) -> list[list[np.ndarray]] | None:
    """Per-factor extreme points with one global sign fixed per factor.

    Flipping the sign of any single factor only flips the sign of T(x), so
    the enumeration may pin one sign per slot.  Returns None when a factor
    has an l2 ball of dimension >= 2 or the tuple count exceeds ENUMERATION_CAP.
    """
    sets: list[list[np.ndarray]] = []
    total = 1
    for d, r in zip(op.dims, op.norms.factors):
        if d == 1:
            pts = [np.array([1.0])]
        elif r == 1.0:
            pts = [e for e in np.eye(d)]
        elif r == math.inf:
            pts = [
                np.concatenate(([1.0], np.array(bits, dtype=float) * 2 - 1))
                for bits in np.ndindex(*(2,) * (d - 1))
            ]
        else:
            return None
        total *= len(pts)
        if total > ENUMERATION_CAP:
            return None
        sets.append(pts)
    return sets


def _enumeration_max(op: MultilinearOperator) -> tuple[float, SegrePoint] | None:
    """The largest ||T(x)|| over the extreme tuples and its first maximizer, with every tuple
    evaluated in one `eval_rows` call."""
    sets = _extreme_sets(op)
    if sets is None:
        return None
    combos = list(itertools.product(*sets))
    values = row_norms(eval_rows(op, [np.array(X) for X in zip(*combos)]), op.norms.codomain)
    i = int(np.argmax(values))  # the first maximum
    return float(values[i]), SegrePoint(combos[i])


def _svd_argmax(op: MultilinearOperator) -> tuple[float, SegrePoint] | None:
    kernel = op.kernel.array
    if op.n == 2 and op.m == 1 and op.norms.factors == (2.0, 2.0):
        u, s, vt = np.linalg.svd(kernel[:, :, 0])
        return float(s[0]), SegrePoint((u[:, 0], vt[0]))
    if op.n == 1 and op.norms.factors == (2.0,) and op.norms.codomain == 2.0:
        u, s, vt = np.linalg.svd(kernel)
        return float(s[0]), SegrePoint((u[:, 0],))
    return None


def _relaxed_upper(op: MultilinearOperator) -> float:
    """The scaled-HS relaxation: sqrt(d_i) per linf factor, sqrt(m) for an l1 codomain."""
    flat = op.kernel.array.reshape(-1, op.m)
    scale = math.prod(math.sqrt(d) for d, r in zip(op.dims, op.norms.factors) if r == math.inf)
    if op.norms.codomain == 1.0:
        scale *= math.sqrt(op.m)
    return scale * float(np.linalg.svd(flat, compute_uv=False)[0])


def operator_norm(
    op: MultilinearOperator,
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> BoundReport:
    """Bracket ||T|| = sup over the factor unit balls of ||T(x)||_Y.

    certified_lower is the best feasible point actually evaluated (the
    bracket has zero width on the enumeration and SVD paths, where that
    point attains the supremum); otherwise the lower end comes from
    multi-start alternating maximization and the upper end from the
    scaled-HS relaxation, tagged "relaxed".  With restarts = 0 no search
    runs, and certified_upper is the certified upper alone; off the
    enumeration path T is not evaluated either, so the lower ends are 0
    and argmax is None.
    """
    kernel = op.kernel.array
    if not np.any(kernel):
        return BoundReport(0.0, 0.0, method="zero")

    enum = _enumeration_max(op)
    if enum is not None:
        value, argmax = enum
        return BoundReport(
            value, value, method="enumeration",
            detail={"argmax": argmax, "seed": seed},
        )
    svd = _svd_argmax(op)
    if svd is not None:
        sigma, argmax = svd
        attained = 0.0
        if restarts > 0:
            attained = vector_norm(eval_operator(op, argmax), op.norms.codomain)
        else:  # no evaluation: the upper end alone, as on the relaxed path
            argmax = None
        return BoundReport(
            attained, sigma, method="svd",
            detail={"argmax": argmax, "seed": seed},
        )

    best, argmax = 0.0, None
    if restarts > 0:
        # start 0 norms ones(d) in every slot, start i a draw of stream(seed, 0, i) per slot
        rngs = [stream(seed, 0, i) for i in range(1, restarts)]
        values, factors = _alternating_max(op, [
            norming_rows(np.array([np.ones(d)] + [g.standard_normal(d) for g in rngs]), r)
            for d, r in zip(op.dims, op.norms.factors)])
        i = int(np.argmax(values))  # the first maximum
        if values[i] > best:
            best, argmax = float(values[i]), SegrePoint(tuple(F[i] for F in factors))
    upper = _relaxed_upper(op)
    return BoundReport(
        best, max(upper, best), method="relaxed",
        detail={"argmax": argmax, "seed": seed, "restarts": restarts},
    )


# ---------------------------------------------------------------------------
# configuration denominator
# ---------------------------------------------------------------------------


def hs_uppers(deltas: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Certified upper bound for the HS-ball denominator at exponent p of every configuration
    deltas[c], a (C, K, D) stack of K difference rows each, all with the same weights.

    p = 2 and p = inf are exact; other p reduce to the p = 2 closed form
    via norm comparisons (weights move to a_i^(2/p), and p < 2 pays the
    usual count factor k^(1/p - 1/2)).  LAPACK takes the stacked SVD one
    matrix at a time, so every value has the bits of a one-matrix call."""
    if math.isinf(p):
        nrm = np.linalg.norm(deltas, axis=2)
        odd = ((nrm == 0.0) | (nrm == math.inf)) & deltas.any(axis=2)
        if odd.any():  # a nonzero row whose plain norm under- or overflowed, as `row_norms`
            nrm[odd] = row_norms(deltas[odd], 2.0)
        return nrm.max(axis=1)
    w2 = weights ** (1.0 / p)
    sigma = np.linalg.svd(deltas * w2[:, None], compute_uv=False)[:, 0]
    if p >= 2.0:
        return sigma
    return float(len(weights) ** (1.0 / p - 0.5)) * sigma


def _hs_values(G: np.ndarray, deltas: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """The exact objective at every row of G (a flattened kernel), scaled to unit Frobenius
    norm; 0 at a zero row.  One gemv per row, as `deltas @ g` takes it."""
    nrm = row_norms(G, 2.0)
    C = G / np.where(nrm == 0, 1.0, nrm)[:, None]
    return power_sums((deltas @ C[:, :, None])[..., 0], weights, p)[0]


def _hs_ascent(
    deltas: np.ndarray, weights: np.ndarray, p: float, draws: np.ndarray, iters: int, tol: float,
) -> np.ndarray:
    """Projected gradient ascent on the Frobenius sphere from each row of `draws` (scaled to
    unit norm first), for finite p; every iterate is feasible.  Returns the value of each."""
    G = draws / row_norms(draws, 2.0)[:, None]

    def gradient(points, _, __):
        X = points[0]
        s = (deltas @ X[:, :, None])[..., 0]
        g = ((weights * (np.abs(s) ** (p - 1.0) * np.sign(s)))[:, None, :] @ deltas)[:, 0, :]
        g = g - (g[:, None, :] @ X[:, :, None])[:, 0] * X  # tangent to the sphere
        gn = row_norms(g, 2.0)
        return [g], gn, gn < 1e-15

    def trial(moved):
        C = moved[0] / row_norms(moved[0], 2.0)[:, None]
        return [C], [], _hs_values(C, deltas, weights, p)

    value = _hs_values(G, deltas, weights, p)
    lockstep_ascent([G], [], value, gradient, trial, step=1.0, floor=1e-12, iters=iters, tol=tol)
    return value


def _prod(factors) -> np.ndarray | float:
    """Left-to-right elementwise product, as math.prod and np.prod take it (1.0 when empty)."""
    factors = iter(factors)
    out = next(factors, 1.0)
    for f in factors:
        out = out * f
    return out


def _roots(x: np.ndarray, e: float) -> list[float]:
    """x_i ** e, one libm pow per entry as a scalar power takes it: numpy's array power rounds
    differently."""
    return list(map(math.pow, x.tolist(), itertools.repeat(e)))


def power_sums(
    s: np.ndarray, weights: np.ndarray, p: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(sum_i a_i |s_i|^p)^(1/p) of every row of s, with max_i |s_i| at p = inf; an empty row
    gives 0.  A row whose plain sum underflows to 0 or overflows to inf although M = max_i
    |s_i| is finite and nonzero is taken as M (sum_i a_i |s_i / M|^p)^(1/p) instead, so that
    every other row keeps its bits.  The second result holds M for those rows and 1.0 for the
    others, or is None when no row was rescaled."""
    t = np.abs(s)
    if math.isinf(p):
        return t.max(axis=1, initial=0.0), None
    with np.errstate(over="ignore", under="ignore"):
        out = _roots((weights * t**p).sum(axis=1), 1.0 / p)
    if 0.0 not in out and math.inf not in out:
        return np.array(out), None
    out, top = np.array(out), t.max(axis=1, initial=0.0)
    bad = ((out == 0.0) | (out == math.inf)) & (top > 0.0) & (top < math.inf)
    scale = np.where(bad, top, 1.0)
    out[bad] = top[bad] * _roots((weights * (t[bad] / top[bad, None]) ** p).sum(axis=1), 1.0 / p)
    return out, scale


def halving_trials(step: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, Callable]:
    """One round of a halving line search for every row of `step`, with all its trials at once.

    Row i tries the steps step[i] * 2^-j for j = 0..3 that lie above `floor`.  Returns
    (rows, steps, pick): trial t moves row rows[t] by steps[t], the trials of a row in order of
    j.  pick(gain) takes whether each trial gains and returns (took, chosen, next_step):
    took[i] tells whether row i gained, chosen holds the index t of the first gaining trial of
    each row that took, and next_step[i] is that trial's step times 1.5, or step[i] * 2^-4 when
    no trial of row i gains.  These are the trials and the step of a loop that makes one trial
    at a time and halves its step after each loss: halving is exact in binary floating point,
    so step[i] * 2^-j is bit for bit the step after j losses.
    """
    tries = step[:, None] * 0.5 ** np.arange(_LINE_TRIALS)
    rows, js = np.nonzero(tries > floor)
    index = np.zeros(tries.shape, dtype=int)
    index[rows, js] = np.arange(len(rows))

    def pick(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hit = np.zeros(tries.shape, dtype=bool)
        hit[rows, js] = gain
        took = hit.any(axis=1)
        first = np.argmax(hit, axis=1)  # the first gain of each row
        next_step = np.where(took, tries[np.arange(len(step)), first] * 1.5,
                             step * 0.5**_LINE_TRIALS)
        return took, index[took, first[took]], next_step

    return rows, tries[rows, js], pick


def lockstep_ascent(
    points: list[np.ndarray], state: list[np.ndarray], value: np.ndarray,
    gradient: Callable, trial: Callable, *, step: float, floor: float, iters: int, tol: float,
) -> None:
    """Halving line-search ascent from every start at once; row i of every array is start i.

    `points` holds the iterates (one array per block), `state` what the objective keeps at each
    current point and `value` its value there; all three are updated in place.
    gradient(point_rows, state_rows, value_rows) returns the gradient blocks, their joint l2
    norm and a mask of the starts that stop there.  trial(moved_rows) maps the moved rows
    x + s g/|g| back onto the feasible set and returns them with their state and values.

    Each round computes a gradient for the starts that moved (at most `iters` per start) and
    tries, for every start still running, the next four halvings of its step at once
    (`halving_trials`); the start takes its first trial that gains.  A start stops on an
    infinite value, on its gradient mask, when its step falls to `floor` or when its gain is
    within a factor 1 + tol.  Each start does the same floating-point operations as a run on
    its own that makes one trial at a time (docs/formats.md).
    """
    step = np.full(len(value), step)
    left = np.full(len(value), iters)        # gradient evaluations left
    moved = np.ones(len(value), dtype=bool)  # needs a gradient at its new point
    running = np.ones(len(value), dtype=bool)
    grads = [np.zeros_like(X) for X in points]
    gn = np.ones(len(value))
    while running.any():
        due = np.flatnonzero(running & moved)
        done = (left[due] == 0) | np.isinf(value[due])
        running[due[done]] = False
        due = due[~done]
        if due.size:
            left[due] -= 1
            g, gn[due], stop = gradient([X[due] for X in points], [E[due] for E in state],
                                        value[due])
            for G, g_k in zip(grads, g):
                G[due] = g_k
            running[due[stop]] = False
        running &= step > floor

        live = np.flatnonzero(running)
        if not live.size:
            break
        rows, steps, pick = halving_trials(step[live], floor)
        at = live[rows]
        cand, cand_state, cand_val = trial([X[at] + steps[:, None] * G[at] / gn[at, None]
                                            for X, G in zip(points, grads)])
        took, chosen, step[live] = pick(cand_val > value[at])
        better = live[took]
        for X, C in zip(points + state, cand + cand_state):
            X[better] = C[chosen]
        gained = cand_val[chosen]
        running[better[gained <= value[better] * (1.0 + tol)]] = False
        value[better] = gained
        moved[live] = took


def _by_norm(f: Callable, X: np.ndarray, exps: tuple) -> np.ndarray:
    """f(rows, r) for the rows of an (R, m, d) slot stack, as an (R, m, -1) array, where
    exps = (r, [(r', mask), ...]) gives every slot the exponent r unless an (m, 1) mask picks
    a later r' for it: one call per distinct exponent on all the rows."""
    R, m, d = X.shape
    rows = X.reshape(R * m, d)
    out = f(rows, exps[0]).reshape(R, m, -1)
    for r, mask in exps[1]:
        out = np.where(mask, f(rows, r).reshape(R, m, -1), out)
    return out


def _rank_one_ascent(
    cfg: PairConfiguration, norms: NormSpec, p: float, starts: list[list[np.ndarray]],
    iters: int, tol: float,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Maximize the ratio objective over rank-one forms lam_1 (x) ... (x) lam_n.

    The normalization prod ||lam_k||_(r_k') is exact, so each returned value
    is a certified lower bound of the operator-ball denominator.  All starts
    ascend together (`lockstep_ascent`).  The slots of one dimension form a
    group, stored as one (starts, n_g d) array, so that a step costs one numpy
    call per group where it cost one per slot, with the same floating-point
    operations (docs/formats.md).  Returns the value of each start and, per
    slot, its maximizer as row i of a (starts, d_k) array.
    """
    weights = np.asarray(cfg.weights)
    dims, n, P = cfg.dims, len(cfg.dims), len(cfg)

    def exponents(exps):  # a group's exponents in the form _by_norm takes
        return exps[0], [(r, np.array([e == r for e in exps])[:, None])
                         for r in dict.fromkeys(exps) if r != exps[0]]

    # the slots of each dimension: (slots, d, their PU and PV as (n_g, P, d) stacks, their
    # factor norms and dual norms)
    groups, F = [], pair_factors(cfg.pairs)
    for d in dict.fromkeys(dims):
        slots = [k for k in range(n) if dims[k] == d]
        groups.append((slots, d, np.array([F[k][:P] for k in slots]),
                       np.array([F[k][P:] for k in slots]),
                       exponents([norms.factors[k] for k in slots]),
                       exponents([dual_exponent(norms.factors[k]) for k in slots])))
    # slot k is entry i of group g, loc[k] = (g, i); the pu and pv that a start keeps hold
    # the groups one after the other, with slot k at entry pos[k]
    loc = {k: (g, i) for g, (slots, *_) in enumerate(groups) for i, k in enumerate(slots)}
    loc = [loc[k] for k in range(n)]
    joined = [k for slots, *_ in groups for k in slots]
    pos = {k: j for j, k in enumerate(joined)}
    # row m: the entry of the m-th other slot of the slot at each entry
    others = np.array([[pos[m] for m in range(n) if m != k] for k in joined], dtype=int)
    others = others.reshape(n, n - 1).T

    def normalized(Ls):
        out = []
        for (_, d, _, _, _, duals), L in zip(groups, Ls):
            X = L.reshape(len(L), -1, d)
            out.append((X / np.maximum(_by_norm(row_norms, X, duals), 1e-300)).reshape(L.shape))
        return out

    def evaluate(Ls):
        """The ratio of every row, and what its gradient needs, packed in one array: the slot
        evaluations PU[k] @ lam_k and PV[k] @ lam_k (one gemv per start and slot), their
        product difference s and its power sum; a row rescaled by M keeps s / M and the
        power sum / M, which give the same gradient."""
        R, pu, pv, dual_norms = len(Ls[0]), [], [], []
        for (_, d, PU, PV, _, duals), L in zip(groups, Ls):
            X = L.reshape(R, -1, d)
            pu.append((PU @ X[..., None])[..., 0])
            pv.append((PV @ X[..., None])[..., 0])
            dual_norms.append(_by_norm(row_norms, X, duals)[..., 0])
        # products left to right over the slots
        s = _prod(pu[g][:, i] for g, i in loc) - _prod(pv[g][:, i] for g, i in loc)
        num, rescale = power_sums(s, weights, p)
        scale = _prod(dual_norms[g][:, i] for g, i in loc)
        value = np.divide(num, scale, out=np.zeros_like(num), where=scale != 0)
        if rescale is not None:
            s, num = s / rescale[:, None], num / rescale
        kept = np.concatenate([X.reshape(R, -1) for X in pu + pv] + [s, num[:, None]], axis=1)
        return [kept], value

    def gradient(Ls, kept, value):
        kept, R = kept[0], len(value)
        pu, pv = kept[:, :n * P].reshape(R, n, P), kept[:, n * P:2 * n * P].reshape(R, n, P)
        s, num = kept[:, 2 * n * P:-1], kept[:, -1]
        # num == 0 makes the gradient 0 (at p = inf too), so that start stops on gn below
        if math.isinf(p):
            rows, i = np.arange(R), np.argmax(np.abs(s), axis=1)
            coef = np.zeros_like(s)
            coef[rows, i] = np.sign(s[rows, i])
        else:
            damp = np.array([x ** (1.0 - p) if x else 0.0 for x in num.tolist()])
            coef = weights * np.abs(s) ** (p - 1.0) * np.sign(s) * damp[:, None]
        # each slot's coefficients times the other slots' evaluations, left to right
        cu = coef[:, None, :] * _prod(pu[:, j] for j in others)
        cv = coef[:, None, :] * _prod(pv[:, j] for j in others)
        grads, dots, a = [], [], 0
        for (slots, d, PU, PV, exps, _), L in zip(groups, Ls):
            b = a + len(slots)
            G = (cu[:, a:b, None, :] @ PU)[..., 0, :] - (cv[:, a:b, None, :] @ PV)[..., 0, :]
            # subtract the normalization's log-gradient (norming functional)
            G = G - value[:, None, None] * _by_norm(norming_rows, L.reshape(R, -1, d), exps)
            grads.append(G.reshape(L.shape))
            dots.append((G[..., None, :] @ G[..., :, None])[..., 0, 0])
            a = b
        sq = 0.0
        for g, i in loc:  # left to right over the slots: np.sum adds three in another order
            sq = sq + dots[g][:, i]
        gn = np.sqrt(sq)
        return grads, gn, gn <= 1e-14 * value  # relative: the ratio is 1-homogeneous in the pairs

    def trial(moved):
        cand = normalized(moved)
        return cand, *evaluate(cand)

    Ls = normalized([np.array([[np.asarray(start[k], dtype=float) for k in slots]
                               for start in starts]).reshape(len(starts), len(slots) * d)
                     for slots, d, *_ in groups])
    kept, value = evaluate(Ls)
    lockstep_ascent(Ls, kept, value, gradient, trial, step=0.5, floor=1e-12, iters=iters,
                    tol=tol)
    return value, [Ls[g][:, i * dims[k]:(i + 1) * dims[k]] for k, (g, i) in enumerate(loc)]


def pair_triangle(factors: Sequence[np.ndarray], norms: NormSpec) -> np.ndarray:
    """prod_k ||u_k|| + prod_k ||v_k|| of every pair of Segre points (u, v), which bounds
    |phi(u) - phi(v)| for every phi with ||phi||_op <= 1.  factors[k] stacks the k-th factors
    of the K points u over those of the K points v (`pair_factors`), a (2K, d_k) array; the
    slot norms multiply left to right.  Returns K values."""
    t = _prod(row_norms(X, r) for X, r in zip(factors, norms.factors))
    return t[:len(t) // 2] + t[len(t) // 2:]


SEARCH_FREE_UPPERS = ("scalar-exact", "kappa-hs", "triangle", "nuclear")


def _triangle_wins(tri: np.ndarray, kappa: float, row_l2: np.ndarray, p: float) -> np.ndarray:
    """Whether configuration c's triangle upper tri[c] lies below its "kappa-hs" upper, whose SVD
    can then be skipped.  row_l2[c] holds the l2 norms of the rows of c's `hs_uppers` matrix:
    sigma_max is at least each, and p < 2 multiplies it by K^(1/p - 1/2) for K rows; the factor
    1 - 1e-9 covers the rounding of both sides."""
    bound = row_l2.max(axis=-1)
    if p < 2.0:
        bound = bound * row_l2.shape[-1] ** (1.0 / p - 0.5)
    return tri < kappa * bound * (1.0 - 1e-9)


def search_free_uppers(
    rows: np.ndarray, triangle: np.ndarray, row_l2: np.ndarray, weights: np.ndarray,
    dims: tuple[int, ...], norms: NormSpec, p: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The op-ball denominator's least certified upper that needs no search, for every
    configuration c of a stack with shared weights a, dims and norms: rows[c] holds its K
    difference rows r_i, triangle[c] their `pair_triangle` values and row_l2[c] the l2 norms
    of a_i^(1/p) r_i (of r_i at p = inf), the rows of the matrix `hs_uppers` takes.
    Returns the values and the index in SEARCH_FREE_UPPERS of the upper that gave each: on
    scalar factor spaces the exact value, "scalar-exact" (on either ball); else the least of
    "kappa-hs" (`hs_uppers` times hs_to_op_scale, its SVD run only where `_triangle_wins` is
    false), "triangle" (the p-sum of the triangle values) and, for one pair of l2 bilinear
    points, "nuclear" (a^(1/p) times the difference's nuclear norm), the first in this order
    on a tie.  Each value has the bits of a one-configuration call (docs/formats.md)."""
    if math.prod(dims) == 1:
        return power_sums(rows[:, :, 0], weights, p)[0], np.zeros(len(rows), dtype=int)
    value = power_sums(triangle, weights, p)[0]
    won = np.full(len(value), 2)  # indices into SEARCH_FREE_UPPERS: "triangle" so far
    kappa = hs_to_op_scale(dims, norms)
    svd = ~_triangle_wins(value, kappa, row_l2, p)
    if svd.any():
        hs, tri = kappa * hs_uppers(rows[svd], weights, p), value[svd]
        value[svd] = np.minimum(tri, hs)  # the same float on a tie
        won[svd] = 2 - (hs <= tri)
    if rows.shape[1] == 1 and len(dims) == 2 and norms.factors == (2.0, 2.0):
        a0 = 1.0 if math.isinf(p) else float(weights[0] ** (1.0 / p))
        nuc = a0 * np.linalg.svd(rows.reshape(-1, *dims), compute_uv=False).sum(axis=1)
        won = np.where(nuc < value, 3, won)
        value = np.minimum(value, nuc)
    return value, won


def search_free_floor(rows: np.ndarray, triangle: np.ndarray, y_norms: np.ndarray,
                      dims: tuple[int, ...], norms: NormSpec) -> float:
    """A floor, at every p in (1, inf], under search_free_uppers(s_i r_i, s_i t_i) at p' (unit
    weights) times the p-sum of a_i / s_i over all s_i > 0, with r_i = rows[i], t_i =
    triangle[i], a_i = y_norms[i]: by Hoelder the least of sum_i t_i a_i, kappa sum_i a_i
    |r_i . v| (v the top right singular vector of diag(a) R) and, for one l2 bilinear pair,
    ||r||_2 a; sum_i |r_i| a_i on scalar spaces (docs/formats.md).  0.0 when a row lies
    within a factor 1e20 of the drop rule, which a rescaling could then cross."""
    if degenerate_rows(rows * 1e-20).any():
        return 0.0
    if math.prod(dims) == 1:
        return float(np.abs(rows[:, 0]) @ y_norms)
    v = np.linalg.svd(y_norms[:, None] * rows, full_matrices=False)[2][0]
    floor = min(triangle @ y_norms, hs_to_op_scale(dims, norms) * (np.abs(rows @ v) @ y_norms))
    if len(rows) == 1 and norms.factors == (2.0, 2.0):
        floor = min(floor, vector_norm(rows[0], 2.0) * y_norms[0])
    return float(floor)


def denominator_upper(cfg: PairConfiguration, p: float, norms: NormSpec,
                      ball: str = "op") -> tuple[float, str]:
    """The denominator's cheapest certified upper that needs no search, as (value, method).
    On the op ball, and on either ball when every factor space is scalar: the one-row call of
    `search_free_uppers`.  On the HS ball: `hs_uppers`, exact at p = 2 and p = inf
    ("hs-exact"), else "hs"."""
    if ball not in ("op", "hs"):
        raise ValueError(f"ball must be 'op' or 'hs', got {ball!r}")
    weights, deltas, dims = np.asarray(cfg.weights), cfg.rows, cfg.dims
    if ball == "hs" and math.prod(dims) > 1:
        upper = float(hs_uppers(deltas[None], weights, p)[0])
        return upper, "hs-exact" if p == 2.0 or math.isinf(p) else "hs"
    triangle = pair_triangle(pair_factors(cfg.pairs), norms)
    row_l2 = row_norms(deltas, 2.0) * (1.0 if math.isinf(p) else weights ** (1.0 / p))
    value, won = search_free_uppers(deltas[None], triangle[None], row_l2[None], weights, dims,
                                    norms, p)
    return float(value[0]), SEARCH_FREE_UPPERS[won[0]]


def rank_one_maximizer(
    cfg: PairConfiguration, p: float, norms: NormSpec, *, seed: int = 0,
    restarts: int = DEFAULT_RESTARTS, max_iters: int = ASCENT_MAX_ITERS,
    extra_starts: Sequence[Sequence[np.ndarray]] | None = None,
) -> tuple[float, list[np.ndarray] | None]:
    """The op-ball denominator's best rank-one form lam_1 (x) ... (x) lam_n from
    `_rank_one_ascent`, as (value, [lam_k]), a certified lower (exact normalization), or
    (0.0, None) when no value is positive.  Starts: `extra_starts`, the dual norming vectors
    of the u and the v of the first max(1, restarts // 4) pairs, then stream(seed, 2, i)."""
    starts = [[np.asarray(v, dtype=float) for v in s] for s in (extra_starts or [])]
    for u, v in cfg.pairs[: max(1, restarts // 4)]:
        starts.append([dual_norming_vector(f, r) for f, r in zip(u.factors, norms.factors)])
        starts.append([dual_norming_vector(f, r) for f, r in zip(v.factors, norms.factors)])
    for i in range(len(starts), max(restarts, len(starts))):
        rng = stream(seed, 2, i)
        starts.append([rng.standard_normal(d) for d in cfg.dims])
    values, lams = _rank_one_ascent(cfg, norms, p, starts, max_iters, ASCENT_TOL)
    best = int(np.argmax(values))  # the first maximum
    if values[best] > 0.0:
        return float(values[best]), [L[best] for L in lams]
    return 0.0, None


def config_denominator(
    cfg: PairConfiguration,
    p: float,
    ball: str = "op",
    norms: NormSpec | None = None,
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    extra_rank_one_starts: Sequence[Sequence[np.ndarray]] | None = None,
    extra_kernels: Sequence[np.ndarray] | None = None,
) -> BoundReport:
    """Bracket D = sup over the chosen unit ball of (sum_i a_i|phi(Delta_i)|^p)^(1/p).

    ball "hs": forms with Frobenius norm <= 1 (exact at p = 2 and p = inf).
    ball "op": forms with operator norm <= 1 for the factor norms in `norms`.
    On either ball the certified upper is `denominator_upper` (raised to the
    certified lower where that is larger); the op ball's certified lower comes
    from `rank_one_maximizer` and from full-kernel candidates (exact norms).

    `extra_rank_one_starts` / `extra_kernels` inject known good candidates
    (e.g. the maximizers found on a sub-configuration), which keeps the
    lower endpoints monotone when pairs are added.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if norms is None:
        norms = NormSpec.all_l2(len(cfg.dims))
    if len(norms.factors) != len(cfg.dims):
        raise ValueError("norm spec does not match configuration dims")

    weights = np.asarray(cfg.weights)
    deltas = cfg.rows
    detail: dict = {"seed": seed, "restarts": restarts, "ball": ball, "p": p}
    upper, method_up = denominator_upper(cfg, p, norms, ball)
    if method_up in ("scalar-exact", "hs-exact"):
        return BoundReport(upper, upper, method=method_up, detail=detail)

    if ball == "hs":
        w2 = weights ** (1.0 / p)
        _, _, vt = np.linalg.svd(deltas * w2[:, None], full_matrices=False)
        cands = _hs_values(np.vstack([vt[0], deltas]), deltas, weights, p)
        draws = np.array([stream(seed, 1, i).standard_normal(deltas.shape[1])
                          for i in range(restarts)]).reshape(restarts, deltas.shape[1])
        ends = _hs_ascent(deltas, weights, p, draws, ASCENT_MAX_ITERS, ASCENT_TOL)
        lower = max([0.0, *cands.tolist(), *ends.tolist()])
        return BoundReport(lower, max(upper, lower), method="hs-ascent", detail=detail)

    # operator ball
    certified, best_lams = rank_one_maximizer(cfg, p, norms, seed=seed, restarts=restarts,
                                              extra_starts=extra_rank_one_starts)

    # full-kernel candidates: the HS geometry maximizer, the per-pair
    # spectral-ball norming kernels U V^T (which attain the nuclear pairing
    # for l2 bilinear forms), plus injected ones; certified by dividing out
    # operator_norm's search-free certified upper
    w2 = weights ** (1.0 / p) if not math.isinf(p) else np.ones_like(weights)
    _, _, vt = np.linalg.svd(deltas * w2[:, None], full_matrices=False)
    kernels = [vt[0]] + [np.asarray(k, dtype=float).reshape(-1) for k in (extra_kernels or [])]
    if len(cfg.dims) == 2 and norms.factors == (2.0, 2.0):
        for row in deltas[:4]:
            du, _, dvt = np.linalg.svd(row.reshape(cfg.dims), full_matrices=False)
            kernels.append((du @ dvt).reshape(-1))
    kernels = np.array(kernels)
    for G_flat, raw in zip(kernels, _hs_values(kernels, deltas, weights, p).tolist()):
        if raw <= 0:  # a zero kernel, or one that vanishes on every pair
            continue
        G_flat = G_flat / np.linalg.norm(G_flat)
        g_form = MultilinearOperator.from_array(
            G_flat.reshape(cfg.dims)[..., np.newaxis], NormSpec(norms.factors, 2.0)
        )
        g_upper = operator_norm(g_form, restarts=0).certified_upper
        if g_upper > 0:
            certified = max(certified, raw / g_upper)

    detail["rank_one_maximizer"] = best_lams
    detail["full_kernel_candidate"] = vt[0].reshape(cfg.dims)
    return BoundReport(
        certified, max(upper, certified),
        method=f"rank-one-ascent/{method_up}", detail=detail,
    )
