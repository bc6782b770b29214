"""Operator norms and configuration denominators, each as a certified bracket.

Two nonconvex suprema live here:

* ``operator_norm``: sup of ||T(x1,...,xn)||_Y over the factor unit balls.
  One rule makes it exact (`_vertex_max`): the l1/linf slots take the
  extreme points of their balls, and what is left, at most one l2 ball
  (two into R^1), has a closed form (an SVD or a largest row).  Elsewhere
  the lower end comes from multi-start alternating maximization (every
  slot update is a dual-norming step, so every iterate is feasible) and
  the upper end from a scaled Hilbert-Schmidt relaxation.

* ``config_denominator``: sup over a unit ball of forms of the weighted
  p-sum (sum_i a_i |phi(Delta_i)|^p)^(1/p), where Delta_i is the
  elementary-tensor difference of pair i.  The Hilbert-Schmidt ball at
  p = 2 has an exact SVD value; so has the operator ball of l1/linf
  products (vertex enumeration) and of l2 bilinear forms at p = 1 and
  p = inf (nuclear norms).  Elsewhere the operator ball is bracketed
  between the best rank-one form (exact normalization; the operator norm
  of the difference map, by the same rule where that applies, else by
  alternating maximization) and a menu of certified relaxations, and the
  HS ball, the l2 ball of R^D, is the operator ball of its flattening.
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
    "exact_op_denominator",
    "exact_rank_one_maximizer",
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
ASCENT_MAX_ITERS = 10_000  # sweeps per start of the rank-one search
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


def _codomain_norms(t: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The l_r norm of every row of t and a norming functional of it, a maximizer of <y, t>
    over the dual ball up to a positive factor: `norming_rows` at r in {1, 2, inf}, else
    sign(t) (|t| / max|t|)^(r - 1), whose division keeps a tiny row from underflowing."""
    if r in (1.0, 2.0, math.inf):
        return row_norms(t, r), norming_rows(t, dual_exponent(r))
    top = np.abs(t).max(axis=1, keepdims=True)
    y = np.sign(t) * (np.abs(t) / np.where(top > 0.0, top, 1.0)) ** (r - 1.0)
    return power_sums(t, np.ones(t.shape[1]), r)[0], y


def _alternating_max(
    op: MultilinearOperator, factors: list[np.ndarray], max_sweeps: int = 200,
    r: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Alternating maximization of ||T(x)||_r (r >= 1, the codomain norm unless given) from all
    starts in lockstep, one (starts, d_k) array per slot.  A sweep moves each slot in turn to
    the norming vector of <y, T(...)>, y normed on the last image, so no sweep lowers the
    value.  Each start stops on its own and does the same floating-point operations as a run
    on its own (docs/formats.md).  Returns the value and the maximizer of each start."""
    kernel, n = op.kernel.array, op.n
    r = op.norms.codomain if r is None else r
    y = _codomain_norms(eval_rows(op, factors), r)[1]
    best = np.full(len(y), -math.inf)
    running = np.arange(len(y))
    for _ in range(max_sweeps):
        X, Y = [F[running] for F in factors], y[running]
        for k in range(n):
            X[k] = norming_rows(slot_gradient(kernel, X, Y, k), op.norms.factors[k])
        value, y[running] = _codomain_norms(eval_rows(op, X), r)
        stop = value <= best[running] * (1.0 + 1e-13)
        best[running] = np.maximum(best[running], value)
        for F, x in zip(factors, X):
            F[running] = x
        running = running[~stop]
        if not running.size:
            break
    return best, factors


def _vertex_count(d: int, r: float) -> int | None:
    """The number of rows of `_vertices(d, r)`, or None for an l2 ball of dimension >= 2."""
    if d == 1:
        return 1
    if r == 1.0:
        return d
    return 2 ** (d - 1) if r == math.inf else None


def _vertices(d: int, r: float) -> np.ndarray:
    """The extreme points of the unit l_r ball of R^d with one sign fixed, as rows: [1] at
    d = 1 (every norm of R^1 is |x|), e_1, ..., e_d for l1 and, for linf, the sign vectors
    with first entry +1, the others in the order of np.ndindex (-1 before +1)."""
    if d == 1:
        return np.ones((1, 1))
    if r == 1.0:
        return np.eye(d)
    bits = (np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 2, -1, -1)) & 1
    return np.hstack([np.ones((len(bits), 1)), 2.0 * bits - 1.0])


def _vertex_max(kernel: np.ndarray, factors: Sequence[float],
                r: float) -> tuple[str, float | None, list[np.ndarray]] | None:
    """A maximizer x of ||T(x_1, ..., x_n)||_r over the unit l_(factors[k]) balls, for T with
    the dense kernel (d_1, ..., d_n, m), as (method, value, [x_k]); None where it has no
    closed form.

    ||T(x)|| is convex in each x_k, so every slot with few extreme points (l1, linf, dimension
    1) takes one of its `_vertices`, one sign fixed: a sign flip of x_k flips T(x).  The vertex
    tuples, in itertools.product order over those slots, are contracted with the kernel
    (einsum, no BLAS product), and what remains is solved in closed form, the first maximum
    winning.  With no l2 slot left: the l_r norm of each tuple's image.  With one l2 slot, the
    image is M^T x for the tuple's (d, m) matrix M, its rows the l2 slot: sigma_max(M) at r = 2
    (x = u[:, 0]); else the largest l2 norm of a column of M (r = inf, or m = 1) or of a signed
    sum of its columns with first sign + (r = 1, `_signed_sums`), x that vector normalized.
    With two l2 slots and m = 1: sigma_max of the (d_a, d_b) matrix (u[:, 0] and vt[0]).
    method is "svd" where an SVD answered, value then sigma_max, else "enumeration", value
    then the l2 norm of the largest column or signed sum, or None with no l2 slot: T at x.
    None where more l2 slots are left, or more than ENUMERATION_CAP tuples (times 2^(m - 1)
    for the signed sums).  A single point needs no contraction, and with no slot to
    enumerate the kernel itself goes into the closed form."""
    dims, m = kernel.shape[:-1], kernel.shape[-1]
    counts = [_vertex_count(d, q) for d, q in zip(dims, factors)]
    free = [k for k, c in enumerate(counts) if c is None]
    if len(free) > 2 or (free and m > 1 and (len(free) == 2 or r not in (1.0, 2.0, math.inf))):
        return None
    signed = len(free) == 1 and r == 1.0
    tuples = math.prod(c for c in counts if c is not None)
    if tuples * (2 ** (m - 1) if signed else 1) > ENUMERATION_CAP:
        return None
    fixed = [k for k, c in enumerate(counts) if c is not None]
    sets = [_vertices(dims[k], factors[k]) for k in fixed]
    if not free and tuples == 1:
        return "enumeration", None, [V[0] for V in sets]
    # A[t]: the kernel contracted with vertex tuple t in the fixed slots (einsum: no BLAS)
    A = kernel.transpose(*fixed, *free, len(dims))[None]
    for V in sets:
        A = np.einsum("td...,vd->tv...", A, V).reshape(-1, *A.shape[2:])
    method, value, x = "enumeration", None, []
    if not free:
        t = int(np.argmax(power_sums(A, np.ones(m), r)[0]))
    elif r == 2.0 or len(free) == 2:
        u, s, vt = np.linalg.svd(A.reshape(len(A), dims[free[0]], -1), full_matrices=False)
        t = int(np.argmax(s[:, 0]))
        method, value, x = "svd", float(s[t, 0]), [u[t, :, 0], vt[t, 0]][:len(free)]
    else:  # one l2 slot: the columns of each tuple's M, or their signed sums, tuple by tuple
        cols = np.moveaxis(A, 2, 0)
        cand = (_signed_sums(cols) if signed else cols).transpose(1, 0, 2).reshape(-1, A.shape[1])
        score = row_norms(cand, 2.0)
        i = int(np.argmax(score))
        t = i // (len(cand) // len(A))
        value, x = float(score[i]), [cand[i] / score[i] if score[i] > 0.0 else cand[i]]
    out = [V[j] for V, j in zip(sets, np.unravel_index(t, [len(V) for V in sets]))]
    for k, f in zip(free, x):
        out.insert(k, f)
    return method, value, out


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

    Exact where `_vertex_max` applies (the l1/linf factors enumerated, at
    most one l2 factor of dimension >= 2 left, or two into R^1): "svd" when
    its answer is a largest singular value, the upper end, with T evaluated
    at its maximizer as the lower end; "enumeration" otherwise, with T at
    the maximizer as the lower end and as the upper end, or the closed
    form's value (a column norm) where that is larger.
    Elsewhere the lower end is the best point of a multi-start alternating
    maximization and the upper end the scaled-HS relaxation, tagged
    "relaxed".  With restarts = 0 no search runs and certified_upper is
    the certified upper alone; off the enumeration path T is not evaluated
    either, so the lower end is 0 and argmax is None.
    """
    kernel = op.kernel.array
    if not np.any(kernel):
        return BoundReport(0.0, 0.0, method="zero")

    exact = _vertex_max(kernel, op.norms.factors, op.norms.codomain)
    if exact is not None:
        method, value, x = exact
        # with restarts = 0 the SVD path evaluates nothing: the upper end alone
        argmax = SegrePoint(tuple(x)) if method == "enumeration" or restarts > 0 else None
        attained = 0.0 if argmax is None else vector_norm(eval_operator(op, argmax),
                                                          op.norms.codomain)
        if method == "enumeration":  # T at x may sit an ulp below the closed form
            value = attained if value is None else max(attained, value)
        return BoundReport(attained, value, method=method, detail={"argmax": argmax, "seed": seed})

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
    above = tries > floor
    rows = np.nonzero(above)[0]
    # the steps fall with j, so the trials of a row are j = 0..count - 1, from its offset on
    count = above.sum(axis=1)
    offset = np.cumsum(count) - count

    def pick(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hit = np.zeros(tries.shape, dtype=bool)
        hit[above] = gain
        took = hit.any(axis=1)
        first = np.argmax(hit, axis=1)  # the first gain of each row
        next_step = np.where(took, tries[np.arange(len(step)), first] * 1.5,
                             step * 0.5**_LINE_TRIALS)
        return took, (offset + first)[took], next_step

    return rows, tries[above], pick


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
    running = np.ones(len(value), dtype=bool)
    due = np.arange(len(value))              # running starts that need a gradient where they moved
    grads = [np.zeros_like(X) for X in points]
    gn = np.ones(len(value))
    while True:
        done = (left[due] == 0) | np.isinf(value[due])
        if done.any():
            running[due[done]] = False
            due = due[~done]
        if due.size:
            left[due] -= 1
            g, gn[due], stop = gradient([X[due] for X in points], [E[due] for E in state],
                                        value[due])
            for G, g_k in zip(grads, g):
                G[due] = g_k
            if stop.any():
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
        halt = gained <= value[better] * (1.0 + tol)
        value[better] = gained
        due = better
        if halt.any():
            running[better[halt]] = False
            due = better[~halt]


def _difference_kernel(cfg: PairConfiguration, p: float) -> np.ndarray:
    """The kernel of the difference map Phi(lam)_i = a_i^(1/p) (lam(u_i) - lam(v_i)), a
    (d_1, ..., d_n, K) array: (rows * a^(1/p))^T (a^0 = 1 at p = inf).  The best rank-one
    form is the operator norm of Phi from the product of the dual balls (l_(r_k')) into
    l_p^K."""
    weights = np.asarray(cfg.weights)
    return (cfg.rows * (weights ** (1.0 / p))[:, None]).T.reshape(*cfg.dims, len(cfg))


def _rank_one_ratios(cfg: PairConfiguration, p: float, norms: NormSpec,
                     lams: Sequence[np.ndarray]) -> np.ndarray:
    """The ratio of every rank-one form whose k-th factors are the rows of the (R, d_k) array
    lams[k]: its p-sum over the pairs, the slot evaluations taken as elementwise sums and
    multiplied left to right, over `rank_one_norms`; 0 where that norm is 0."""
    K = len(cfg)
    ev = _prod((L[:, None, :] * X).sum(axis=2) for X, L in zip(pair_factors(cfg.pairs), lams))
    num = power_sums(ev[:, :K] - ev[:, K:], np.asarray(cfg.weights), p)[0]
    scale = rank_one_norms(lams, norms)
    return np.divide(num, scale, out=np.zeros_like(num), where=scale > 0.0)


def _rank_one_ascent(
    cfg: PairConfiguration, norms: NormSpec, p: float, starts: list[list[np.ndarray]],
    iters: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Maximize the ratio over rank-one forms lam_1 (x) ... (x) lam_n, the norm of the
    difference map (`_difference_kernel`), by `_alternating_max` at r = p with at most `iters`
    sweeps, from every start scaled slot by slot to lam_k / ||lam_k||_(r_k') (a zero slot stays
    zero), so that no start ends below its own ratio.  Returns the ratio (`_rank_one_ratios`)
    at the final form of each start, a certified lower bound of the op-ball denominator, and,
    per slot, the forms as the rows of a (starts, d_k) array."""
    duals = tuple(dual_exponent(r) for r in norms.factors)
    phi = MultilinearOperator.from_array(_difference_kernel(cfg, p), NormSpec(duals, 2.0))
    X = [np.array([np.asarray(s[k], dtype=float) for s in starts]) for k in range(len(duals))]
    scale = [np.where(q > 0.0, q, 1.0)[:, None] for q in map(row_norms, X, duals)]
    _, lams = _alternating_max(phi, [F / q for F, q in zip(X, scale)], iters, p)
    return _rank_one_ratios(cfg, p, norms, lams), lams


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
    if not p >= 1:
        raise ValueError("p must be >= 1")
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


def _signed_sums(terms: np.ndarray) -> np.ndarray:
    """sum_i e_i terms[i] over every sign vector e with e_1 = 1, along the first axis, built
    one term at a time: 2^(K-1) sums, the one at index j taking -terms[i] where bit i - 1 of
    j is set."""
    sums = terms[:1]
    for t in terms[1:]:
        sums = np.concatenate([sums + t, sums - t])
    return sums


def exact_op_denominator(cfg: PairConfiguration, p: float,
                         norms: NormSpec) -> tuple[float, str] | None:
    """The op-ball denominator D exactly, as (D, method), where D is a maximum over at most
    ENUMERATION_CAP candidates; None elsewhere, and on scalar factor spaces.  D is convex in
    phi, so it is attained at an extreme point of the ball.

    "vertex-exact": every factor is l1 but at most one slot k, which is linf (k is the last
    slot when all are l1); a slot of dimension 1 counts as l1 whatever its label.  Then
    ||phi||_op is the largest dual norm of phi(e_I, .) over the basis tuples e_I of the l1
    slots, so the ball is a product of M = prod_(j != k) d_j dual balls of slot k: l1 balls
    (vertices +-e_j) when it is linf, cubes (sign vectors) when it is l1.  Every vertex, one
    global sign fixed, is priced against the difference rows.
    "nuclear-exact": l2 bilinear forms at p = 1, where D is the largest nuclear norm of
    sum_i e_i a_i Delta_i over signs e with e_1 = 1, and at p = inf, where it is the largest
    ||Delta_i||_*.  The candidates' values are sums built one slot block or one pair at a
    time, with no BLAS product, so that D does not depend on the BLAS kernel."""
    weights, dims, factors = np.asarray(cfg.weights), cfg.dims, norms.factors
    K = len(cfg.rows)
    if math.prod(dims) == 1:
        return None
    if factors == (2.0, 2.0) and (p == 1.0 or math.isinf(p)):
        if (K if math.isinf(p) else 2 ** (K - 1)) > ENUMERATION_CAP:
            return None
        terms = cfg.rows.reshape(K, *dims)
        if p == 1.0:
            terms = _signed_sums(weights[:, None, None] * terms)
        return float(np.linalg.svd(terms, compute_uv=False).sum(axis=1).max()), "nuclear-exact"
    rest = [j for j, r in enumerate(factors) if r != 1.0 and dims[j] > 1]
    if len(rest) > 1 or (rest and factors[rest[0]] != math.inf):
        return None
    k = rest[0] if rest else len(dims) - 1
    d = dims[k]
    M = math.prod(dims) // d
    dual = dual_exponent(factors[k])
    if (2 * _vertex_count(d, dual))**M // 2 > ENUMERATION_CAP:  # count before building
        return None
    V = _vertices(d, dual)
    # blocks[I, :, i] = Delta_i(e_I, .), slot k last; vals[I, v, i] = its value at vertex v
    blocks = np.moveaxis(cfg.rows.reshape(K, *dims), k + 1, -1).reshape(K, M, d).transpose(1, 2, 0)
    vals = (np.vstack([V, -V])[None, :, :, None] * blocks[:, None]).sum(axis=2)
    sums = vals[0, :len(V)]  # the first block's vertex keeps its sign
    for block in vals[1:]:
        sums = (sums[:, None] + block[None]).reshape(-1, K)
    return float(power_sums(sums, weights, p)[0].max()), "vertex-exact"


def exact_rank_one_maximizer(cfg: PairConfiguration, p: float,
                             norms: NormSpec) -> tuple[float, list[np.ndarray] | None] | None:
    """The op-ball denominator's best rank-one form lam_1 (x) ... (x) lam_n exactly, as
    (value, [lam_k]), or (0.0, None) when no value is positive; None where `_vertex_max` does
    not apply to the difference map (`_difference_kernel`), whose operator norm it is: when
    every slot of dimension > 1 is l1 or linf but at most one l2 slot, and then p is 1, 2 or
    inf or there is one pair, or when there are two l2 slots and one pair; the vertex tuples
    (times 2^(K-1) at p = 1 with an l2 slot) number at most ENUMERATION_CAP.  The value is
    `_rank_one_ratios` at the form it returns.  Unlike `rank_one_maximizer` it takes no
    starts."""
    exact = _vertex_max(_difference_kernel(cfg, p), [dual_exponent(r) for r in norms.factors], p)
    if exact is None:
        return None
    value = float(_rank_one_ratios(cfg, p, norms, [x[None] for x in exact[2]])[0])
    return (value, exact[2]) if value > 0.0 else (0.0, None)


def rank_one_maximizer(
    cfg: PairConfiguration, p: float, norms: NormSpec, *, seed: int = 0,
    restarts: int = DEFAULT_RESTARTS, max_iters: int = ASCENT_MAX_ITERS,
    extra_starts: Sequence[Sequence[np.ndarray]] | None = None,
) -> tuple[float, list[np.ndarray] | None]:
    """The op-ball denominator's best rank-one form lam_1 (x) ... (x) lam_n searched by
    `_rank_one_ascent` (at most `max_iters` sweeps per start), as (value, [lam_k]), a
    certified lower (exact normalization), or (0.0, None) when no value is positive.  Starts:
    `extra_starts`, the dual norming vectors of the u and the v of the first
    max(1, restarts // 4) pairs, then stream(seed, 2, i).
    It always searches, also where `exact_rank_one_maximizer` applies (which
    `config_denominator` takes there instead): the dictionary growth of `estimate_pi_lip`
    calls it as it is."""
    starts = [[np.asarray(v, dtype=float) for v in s] for s in (extra_starts or [])]
    for u, v in cfg.pairs[: max(1, restarts // 4)]:
        starts.append([dual_norming_vector(f, r) for f, r in zip(u.factors, norms.factors)])
        starts.append([dual_norming_vector(f, r) for f, r in zip(v.factors, norms.factors)])
    for i in range(len(starts), max(restarts, len(starts))):
        rng = stream(seed, 2, i)
        starts.append([rng.standard_normal(d) for d in cfg.dims])
    values, lams = _rank_one_ascent(cfg, norms, p, starts, max_iters)
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

    ball "hs": forms with Frobenius norm <= 1 (exact at p = 2 and p = inf;
    elsewhere the op-ball report of the flattening, the pairs (Delta_i, 0) in
    l2^D, D = prod d_k, whose one-slot forms are rank one: exact lower at p = 1).
    ball "op": forms with operator norm <= 1 for the factor norms in `norms`
    (exact where `exact_op_denominator` gives a value).
    Elsewhere the certified upper is `denominator_upper` (raised to the
    certified lower where that is larger); the op ball's certified lower is the
    best rank-one form and the full-kernel candidates (exact norms).  The best
    rank-one form comes from `exact_rank_one_maximizer` where it applies
    (method "rank-one-exact/<upper>", no search runs) and from the alternating
    search of `rank_one_maximizer` otherwise ("rank-one-ascent/<upper>").

    `extra_rank_one_starts` / `extra_kernels` inject known good candidates (e.g. the
    maximizers found on a sub-configuration; an HS start enters as its elementary tensor),
    which keeps the lower endpoints monotone when pairs are added.  The exact rank-one
    path needs no starts and does not read `extra_rank_one_starts`.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if norms is None:
        norms = NormSpec.all_l2(len(cfg.dims))
    if len(norms.factors) != len(cfg.dims):
        raise ValueError("norm spec does not match configuration dims")

    weights = np.asarray(cfg.weights)
    deltas = cfg.rows
    detail: dict = {"seed": seed, "restarts": restarts, "ball": ball, "p": p}
    exact = exact_op_denominator(cfg, p, norms) if ball == "op" else None
    if exact is not None:
        return BoundReport(exact[0], exact[0], method=exact[1], detail=detail)
    upper, method_up = denominator_upper(cfg, p, norms, ball)
    if method_up in ("scalar-exact", "hs-exact"):
        return BoundReport(upper, upper, method=method_up, detail=detail)

    if ball == "hs":  # the l2 ball of R^D: the op ball of the one-slot flattening
        flat = PairConfiguration(tuple((SegrePoint((row,)), SegrePoint.zero((row.size,)))
                                       for row in deltas), cfg.weights)
        starts = [[elementary_tensor(SegrePoint.of(*s)).array.ravel()]
                  for s in extra_rank_one_starts or []]
        rep = config_denominator(flat, p, "op", NormSpec((2.0,), 2.0), seed=seed, restarts=restarts,
                                 extra_rank_one_starts=starts, extra_kernels=extra_kernels)
        rep.detail["ball"] = "hs"
        return rep

    # operator ball
    rank_one = exact_rank_one_maximizer(cfg, p, norms)
    searched = rank_one is None
    if searched:
        rank_one = rank_one_maximizer(cfg, p, norms, seed=seed, restarts=restarts,
                                      extra_starts=extra_rank_one_starts)
    certified, best_lams = rank_one

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
        method=f"rank-one-{'ascent' if searched else 'exact'}/{method_up}", detail=detail,
    )
