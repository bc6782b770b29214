"""Lipschitz p-summing norm estimation with domination certificates.

The norm pi_p of an operator T is the best constant c with

    (sum_i a_i ||T(u_i) - T(v_i)||^p)^(1/p)  <=  c * D(config)

over all weighted pair configurations, D being the operator-ball
configuration denominator.  Three routes are implemented:

* ``lower_bound_config``: a true lower bound N / upper(D) from any one
  configuration.
* ``pietsch_upper_lp``: the exact optimum of the dictionary-restricted
  domination problem - the smallest c such that some probability mix w
  over unit-norm forms satisfies ||T(u)-T(v)||^p <= c^p sum_j w_j
  |phi_j(Delta)|^p on every listed pair.  Solved as one LP, the best
  weighted configuration against the dictionary (Pietsch duality); its row
  multipliers are the optimal mixture w, and the returned certificate
  constant is recomputed from w so the domination inequality holds by
  construction.
* ``estimate_pi_lip``: alternates adversarial pair search against the
  current certificate with dictionary growth, and reports the best
  certified lower together with the final LP constant (an upper bound for
  the restricted problem, a heuristic estimate of the full norm).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import permutations
from typing import Any, Sequence

import numpy as np

from .bounds import BoundReport
from .formnorm import (
    config_denominator,
    denominator_upper,
    operator_norm,
    rank_one_form,
    rank_one_maximizer,
    rank_one_norm,
    slot_gradient,
    weighted_power_sum,
)
from .rng import child_seed, stream
from .simplex import solve_lp
from .tensors import (
    DenseTensor,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    ShapeError,
    degenerate_rows,
    dual_exponent,
    dual_norming_vector,
    elementary_rows,
    eval_differences,
    eval_rows,
    norming_rows,
    pair_factors,
    pair_rows,
    point_rows,
    project_rows,
    project_to_ball,
    row_norms,
    vector_norm,
)

__all__ = [
    "Budget",
    "PietschCertificate",
    "FactorizationBundle",
    "lower_bound_config",
    "pietsch_upper_lp",
    "estimate_pi_lip",
    "initial_dictionary",
    "build_factorization",
    "restrict_operator",
    "symmetrize_kernel",
    "estimate_pi_lip_poly",
]

GAUSSIAN_FORMS = 32  # random forms in an initial dictionary
COLLAPSE_TOL = 1e-9  # distances at or below it count as collapsed in a factorization
SYMMETRY_TOL = 1e-12  # relative asymmetry a polynomial's kernel may have


@dataclass(frozen=True)
class Budget:
    """Caps for the iterative search; all fields must be positive integers."""

    restarts: int = 64
    max_pairs: int = 24
    max_dictionary: int = 48
    rounds: int = 8
    adversarial_starts: int = 16
    ascent_iters: int = 2_000  # sweeps per start of the rank-one search in the dictionary growth

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"budget field {name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class PietschCertificate:
    """A discrete domination measure: forms, probability weights, constant.

    For every pair in `pairset`,
        ||T(u)-T(v)||^p <= constant^p * sum_j weights[j] |phi_j(Delta)|^p.
    Dictionary forms carry certified norm <= 1 in the ball named by `ball`.
    """

    dictionary: tuple[MultilinearOperator, ...]
    weights: tuple[float, ...]
    constant: float
    pairset: PairConfiguration
    p: float
    ball: str = "op"
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if math.isfinite(self.constant) and len(self.dictionary) != len(self.weights):
            raise ValueError("one weight per dictionary form required")
        if self.weights and math.isfinite(self.constant):
            total = float(sum(self.weights))
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1, got {total}")

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.constant)

    def form_matrix(self) -> np.ndarray:
        """Stacked form kernels: row j pairs with a vectorized tensor."""
        return np.stack([f.kernel.data for f in self.dictionary])

    def embed_rows(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """j_p(x) = (w_j^(1/p) phi_j(x))_j, a point of l_p^len(dictionary), of every point x
        whose factors are the rows of the (R, d_k) arrays, as an (R, len(dictionary)) array:
        one gemv per row, as `form_matrix() @ x` takes it."""
        if not self.dictionary:
            return np.zeros((len(factors[0]), 0))
        vals = (self.form_matrix() @ elementary_rows(factors)[:, :, None])[..., 0]
        return np.asarray(self.weights) ** (1.0 / self.p) * vals

    def embedded_distances(self, pairs: Sequence[tuple[SegrePoint, SegrePoint]]) -> list[float]:
        """||j_p(u) - j_p(v)||_p of every pair (u, v), each root a scalar power."""
        emb = self.embed_rows(pair_factors(pairs))
        sums = np.sum(np.abs(emb[:len(pairs)] - emb[len(pairs):]) ** self.p, axis=1)
        return [x ** (1.0 / self.p) for x in sums.tolist()]

    def domination_margin(self, op: MultilinearOperator) -> float:
        """max over the pairset of lhs - constant * rhs (<= ~0 when valid)."""
        pairs = self.pairset.pairs
        lhs = row_norms(eval_differences(op, pairs), op.norms.codomain).tolist()
        return max(a - self.constant * b for a, b in zip(lhs, self.embedded_distances(pairs)))


@dataclass(frozen=True)
class FactorizationBundle:
    """Explicit factorization data T = h o j_p on sampled Segre points.

    `images[i]` is j_p(samples[i]) and `values[i]` = T(samples[i]); h maps
    one to the other.  `lipschitz_constant` is the empirical Lipschitz
    constant of h on the certificate's pairset, and `quotient_violations`
    lists sample index pairs that j_p collapses while T separates them
    (pairs the certificate fails to dominate; re-solve with them added).
    """

    certificate: PietschCertificate
    samples: tuple[SegrePoint, ...]
    images: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    lipschitz_constant: float
    quotient_violations: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# configuration lower bounds
# ---------------------------------------------------------------------------


def _numerator(op: MultilinearOperator, cfg: PairConfiguration, p: float) -> float:
    diffs = row_norms(eval_differences(op, cfg.pairs), op.norms.codomain)
    return weighted_power_sum(diffs, np.asarray(cfg.weights), p)


def _certified_ratio(num: float, den_upper: float) -> float:
    """N / upper(D) for a positive N: N > 0 forces D > 0, so a zero upper raises."""
    if den_upper <= 0:
        raise RuntimeError(f"numerical failure: denominator upper end 0 under numerator {num}")
    return num / den_upper


def lower_bound_config(
    op: MultilinearOperator,
    cfg: PairConfiguration,
    p: float,
    ball: str = "op",
    *,
    seed: int = 0,
    restarts: int = 16,
    denominator: BoundReport | None = None,
) -> BoundReport:
    """Bracket the ratio N/D of one configuration.

    N = (sum_i a_i ||T(u_i)-T(v_i)||^p)^(1/p) is exact; D is bracketed by
    ``config_denominator``.  certified_lower = N / upper(D) is a true lower
    bound on the summing norm; the bracket's upper end N / lower(D) bounds
    only this configuration's ratio, not the norm.  A denominator whose
    upper end is 0 under a positive N is a numerical failure and raises.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if cfg.dims != op.dims:
        raise ShapeError("configuration dims do not match the operator")
    num = _numerator(op, cfg, p)
    if num == 0.0:
        return BoundReport(0.0, 0.0, method="zero-numerator")
    den = denominator if denominator is not None else config_denominator(
        cfg, p, ball, op.norms, seed=seed, restarts=restarts
    )
    certified = _certified_ratio(num, den.certified_upper)
    upper = num / den.certified_lower if den.certified_lower > 0 else math.inf
    return BoundReport(
        certified, upper,
        method=f"config-ratio[{den.method}]",
        detail={"numerator": num, "denominator": den.to_dict(), "ball": ball, "p": p},
    )


# ---------------------------------------------------------------------------
# Pietsch LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _UnitForm(MultilinearOperator):
    """A dictionary form of certified norm at most 1 on `ball`, made only by `_unit_form`."""

    ball: str


def _unit_form(form: MultilinearOperator, ball: str, scale: float | None = None) -> _UnitForm:
    """The form divided by `scale`, a certified upper of its norm on `ball` ("op", "hs" or
    "poly"): by default its Frobenius norm on "hs" and operator_norm's search-free upper
    otherwise, which majorizes the polynomial norm too.  A form already made for `ball` comes
    back unchanged, so each form is priced once; a zero form stays zero."""
    if ball not in ("op", "hs", "poly"):
        raise ValueError(f"ball must be 'op', 'hs' or 'poly', got {ball!r}")
    if isinstance(form, _UnitForm) and form.ball == ball:
        return form
    if not form.is_form():
        raise ValueError("dictionary entries must be scalar-valued forms")
    if scale is None:
        scale = (form.kernel.frobenius() if ball == "hs"
                 else operator_norm(form, restarts=0).certified_upper)
    array = form.kernel.array / scale if scale > 0 else form.kernel.array
    return _UnitForm(DenseTensor.from_array(array), form.norms, ball)


def _pietsch_lp(
    S: np.ndarray, t: np.ndarray
) -> tuple[float, float, np.ndarray | None, np.ndarray | None, str | None]:
    """The restricted Pietsch problem on the table S[i, j] = |phi_j(Delta_i)|^p
    and the pair values t_i = ||T(u_i) - T(v_i)||^p, as one LP.

    Solves  max sum_i mu_i  s.t.  sum_i mu_i s_ij / t_i <= 1, mu >= 0  over
    the active pairs (t_i > 1e-15 max t).  Its value is the optimal c^p, the
    best weighted configuration lambda = mu / t against the dictionary, and
    its row multipliers, normalized, are an optimal mixture w.  Returns
    (c^p, dual value, w, lambda, reason): c^p = max_i t_i / (S w)_i is
    recomputed from w, so the domination inequality holds by construction;
    c^p is 0 when t vanishes and inf, with a reason, when the dictionary
    cannot dominate some pair.  A solver failure raises.
    """
    t_scale = float(np.max(t, initial=0.0))
    if t_scale == 0.0:
        return 0.0, 0.0, None, None, None
    if S.size == 0:
        return math.inf, math.nan, None, None, "empty dictionary"
    active = t > 1e-15 * t_scale
    if np.any(active & (np.max(S, axis=1) <= 0.0)):
        return math.inf, math.nan, None, None, "dictionary cannot dominate a pair (all-zero row)"
    Sa, ta = S[active], t[active]
    # the simplex tolerances are absolute: t scaled into [1/2, 1) by the power of two 2^-e
    # makes the objective -1/r, of the order of t, of order 1 and leaves A / r bit-identical;
    # each pair's column is scaled to a largest entry of 1 (nu_i = r_i mu_i), as the entries
    # span many decades
    e = math.frexp(t_scale)[1]
    ts = np.ldexp(ta, -e)
    A = (Sa / ts[:, None]).T
    r = np.max(A, axis=0)
    res = solve_lp(-1.0 / r, A_ub=A / r, b_ub=np.ones(S.shape[1]))
    if not res.ok:
        raise RuntimeError(f"Pietsch LP not solved: simplex status {res.status}")
    if np.sum(res.duals) == 0:
        raise RuntimeError("Pietsch LP not solved: zero duals under a nonzero t")
    w = res.duals / np.sum(res.duals)
    lam = np.zeros(len(t))
    lam[active] = res.x / (r * ts)
    return float(np.max(ta / (Sa @ w))), math.ldexp(-res.value, e), w, lam, None


def pietsch_upper_lp(
    op: MultilinearOperator,
    pairset: PairConfiguration,
    dictionary: Sequence[MultilinearOperator],
    p: float,
    *,
    ball: str = "op",
) -> PietschCertificate:
    """Best domination constant for the given pairs over the given dictionary.

    Forms made for `ball` by `_unit_form` enter as they are; the others are
    priced and scaled by it here, and zero forms are dropped.  One LP
    (``_pietsch_lp``): the best weighted configuration against the
    dictionary, whose row multipliers are the optimal mixture w.  The
    constant is recomputed from w; the LP value is kept as
    detail["dual_constant"] and the configuration weights as
    detail["dual_weights"].  When some pair has t_i > 0 but s_ij = 0 for
    every j the dictionary cannot dominate it and the certificate is
    flagged infeasible (constant = inf).
    """
    if not p >= 1 or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    forms = [f for f in (_unit_form(g, ball) for g in dictionary) if np.any(f.kernel.data)]
    diffs = row_norms(eval_differences(op, pairset.pairs), op.norms.codomain)
    t = np.array([x ** p for x in diffs.tolist()])  # a scalar power each
    Dm = pairset.rows
    F = np.stack([f.kernel.data for f in forms]) if forms else np.zeros((0, Dm.shape[1]))
    c_p, dual_value, w, lam, reason = _pietsch_lp(np.abs(Dm @ F.T) ** p, t)
    if reason is not None:
        return PietschCertificate(
            tuple(forms), (), math.inf, pairset, p, ball, detail={"reason": reason}
        )
    if w is None:  # t vanishes: any mixture dominates
        w = np.full(len(forms), 1.0 / len(forms)) if forms else np.zeros(0)
    return PietschCertificate(
        tuple(forms),
        tuple(float(x) for x in w),
        c_p ** (1.0 / p),
        pairset,
        p,
        ball,
        detail={"dual_constant": dual_value ** (1.0 / p), "dual_weights": lam},
    )


# ---------------------------------------------------------------------------
# adversarial search and dictionary growth
# ---------------------------------------------------------------------------


def _random_factors(
    dims: Sequence[int], norms: NormSpec, rng: np.random.Generator
) -> list[np.ndarray]:
    return [project_to_ball(rng.standard_normal(d), r) for d, r in zip(dims, norms.factors)]


def _random_segre(dims: Sequence[int], norms: NormSpec, rng: np.random.Generator) -> SegrePoint:
    return SegrePoint(tuple(_random_factors(dims, norms, rng)))


def _violation_search(
    op: MultilinearOperator,
    cert: PietschCertificate,
    p: float,
    seed: int,
    starts: int,
    iters: int = 60,
) -> list[tuple[SegrePoint, SegrePoint, float]]:
    """Ascent on the domination-violation ratio ||T(u)-T(v)|| / ||j_p(u)-j_p(v)||
    from random starts, largest ratio first (ties in start order).

    The ratio is invariant under joint scaling of all factors, so factors stay
    projected into their unit balls without loss of generality.  All starts
    ascend together on one halving line search (docs/formats.md), one
    (starts, d_k) array per slot of u and of v, each start bit for bit a run
    on its own.  Form values are one gemv per start against the
    elementary-tensor difference; form gradients collapse into one synthetic
    kernel per start by linearity.
    """
    if not cert.feasible or not cert.dictionary or starts < 1:
        return []
    norms, n = op.norms, op.n
    kernel = op.kernel.array
    lhs_floor = 1e-14 * float(np.max(np.abs(kernel)))  # relative: lhs is 1-homogeneous in T
    keep = [j for j, w in enumerate(cert.weights) if w > 1e-15]
    F, w = cert.form_matrix()[keep], np.asarray(cert.weights)[keep]
    s_dual = dual_exponent(norms.codomain)
    one = np.ones(1)

    def evaluate(U, V):  # T(u) - T(v) and the form values phi_j(Delta) of every start
        delta = elementary_rows(U) - elementary_rows(V)
        return eval_rows(op, U) - eval_rows(op, V), (F @ delta[:, :, None])[..., 0]

    def form_sums(vals):  # sum_j w_j |phi_j(Delta)|^p
        return np.sum(w * np.abs(vals) ** p, axis=1)

    def ratio(diff, vals):
        lhs = row_norms(diff, norms.codomain)
        rhs = np.array([float(x) ** (1.0 / p) for x in form_sums(vals)])  # a scalar power each
        return np.divide(lhs, rhs, out=np.where(lhs > lhs_floor, math.inf, 0.0),
                         where=~(rhs <= 1e-300))

    def gradient(X, diff, vals):
        """Gradients of log(lhs) - (1/p) log sum_j w_j |phi_j(Delta)|^p, and their norm."""
        X_u, X_v = X[:n], X[n:]
        lhs = np.maximum(row_norms(diff, norms.codomain), 1e-300)[:, None]
        ystar = norming_rows(diff, s_dual)
        sums = form_sums(vals)
        # a start whose form sum vanishes (u (x) ... = v (x) ..., say) has the ratio 0: its
        # gradient, divided by the 1e-300 clamps, would overflow, so it is taken as 0 and the
        # start stops on gn
        idle = sums == 0
        rhs_p = np.maximum(sums, 1e-300)[:, None]
        coef = w * np.abs(vals) ** (p - 1.0) * np.sign(vals)
        combined = (coef[:, None, :] @ F)[:, 0, :].reshape((len(vals),) + op.dims + (1,))
        grads_u, grads_v = [], []
        for k in range(n):
            gu = slot_gradient(kernel, X_u, ystar, k) / lhs
            gv = -slot_gradient(kernel, X_v, ystar, k) / lhs
            du = slot_gradient(combined, X_u, one, k)
            dv = -slot_gradient(combined, X_v, one, k)
            grads_u.append(np.where(idle[:, None], 0.0, gu - du / rhs_p))
            grads_v.append(np.where(idle[:, None], 0.0, gv - dv / rhs_p))
        sq_u = sq_v = 0.0  # sum(u terms) + sum(v terms), as in the one-start loop
        for g_u, g_v in zip(grads_u, grads_v):
            sq_u = sq_u + (g_u[:, None, :] @ g_u[:, :, None])[:, 0, 0]
            sq_v = sq_v + (g_v[:, None, :] @ g_v[:, :, None])[:, 0, 0]
        return grads_u + grads_v, np.sqrt(sq_u + sq_v)

    drawn_u, drawn_v = [], []
    for s_idx in range(starts):
        rng = stream(seed, 5, s_idx)
        drawn_u.append(_random_factors(op.dims, norms, rng))
        drawn_v.append([np.zeros(d) for d in op.dims] if s_idx % 3 == 0
                       else _random_factors(op.dims, norms, rng))
    UV = [np.stack([x[k] for x in drawn]) for drawn in (drawn_u, drawn_v) for k in range(n)]
    diff, vals = evaluate(UV[:n], UV[n:])
    value = ratio(diff, vals)
    step = np.full(starts, 0.25)           # row i of every array is start i
    left = np.full(starts, iters)          # gradient evaluations left
    running = np.ones(starts, dtype=bool)
    due = np.arange(starts)                # running starts that need a gradient where they moved
    grads = [np.zeros_like(X) for X in UV]
    gn = np.ones(starts)
    while True:
        done = (left[due] == 0) | np.isinf(value[due])
        running[due[done]] = False
        due = due[~done]
        if due.size:
            left[due] -= 1
            g, gn[due] = gradient([X[due] for X in UV], diff[due], vals[due])
            for G, g_k in zip(grads, g):
                G[due] = g_k
            running[due[gn[due] < 1e-14]] = False
        running &= step > 1e-10
        live = np.flatnonzero(running)
        if not live.size:
            break
        # trials s/2^j above the floor: bit for bit the steps after j losses of a one-trial loop
        tries = step[live, None] * 0.5 ** np.arange(4)
        above = tries > 1e-10
        at = live[np.nonzero(above)[0]]
        s = tries[above]
        cand = [project_rows(X[at] + s[:, None] * G[at] / gn[at, None], r)
                for X, G, r in zip(UV, grads, norms.factors * 2)]
        if not all(np.all(np.isfinite(C)) for C in cand):
            raise ValueError("entries must be finite")  # the check SegrePoint makes
        c_diff, c_vals = evaluate(cand[:n], cand[n:])
        c_value = ratio(c_diff, c_vals)
        hit = np.zeros(tries.shape, dtype=bool)
        hit[above] = c_value > value[at]
        took = hit.any(axis=1)
        first = np.argmax(hit, axis=1)     # the first gain of each live start
        step[live] = np.where(took, tries[np.arange(live.size), first] * 1.5, step[live] / 16)
        chosen = (np.cumsum(above).reshape(above.shape) - 1)[took, first[took]]  # stack index
        better = live[took]
        for X, C in zip(UV + [diff, vals], cand + [c_diff, c_vals]):
            X[better] = C[chosen]
        halt = c_value[chosen] <= value[better] * (1.0 + 1e-10)
        value[better] = c_value[chosen]
        running[better[halt]] = False
        due = better[~halt]
    results = [(SegrePoint(tuple(X[i].copy() for X in UV[:n])),
                SegrePoint(tuple(X[i].copy() for X in UV[n:])), float(value[i]))
               for i in range(starts) if value[i] > 0]
    results.sort(key=lambda r: -min(r[2], 1e300))
    return results


def _unit_rank_one(vecs, norms: NormSpec, ball: str) -> _UnitForm:
    """lam_1 (x) ... (x) lam_n over its exact norm on "op", its Frobenius norm on "hs"."""
    return _unit_form(rank_one_form(vecs, norms), ball,
                      rank_one_norm(vecs, norms) if ball == "op" else None)


def initial_dictionary(
    op: MultilinearOperator,
    pairs: list[tuple[SegrePoint, SegrePoint]],
    seed: int,
    max_dictionary: int,
    ball: str,
) -> list[MultilinearOperator]:
    """Rank-one forms norming the pair factors, up to GAUSSIAN_FORMS random
    Gaussian forms, and (for nonzero scalar-valued T) the normalized operator itself,
    each made by `_unit_form` for `ball`."""
    norms = op.norms
    forms: list[MultilinearOperator] = []
    if op.is_form() and np.any(op.kernel.data):
        forms.append(_unit_form(op, ball))
    for u, v in pairs:
        for point in (u, v):
            if not all(np.any(f) for f in point.factors):
                continue
            vecs = [dual_norming_vector(f, r) for f, r in zip(point.factors, norms.factors)]
            forms.append(_unit_rank_one(vecs, norms, ball))
            if len(forms) >= max_dictionary:
                return forms
    rng = stream(seed, 6)
    for _ in range(GAUSSIAN_FORMS):
        if len(forms) >= max_dictionary:
            break
        kernel = rng.standard_normal(op.dims + (1,))
        forms.append(_unit_form(MultilinearOperator.from_array(kernel, norms), ball))
    return forms


def _dedup_forms(forms: list[MultilinearOperator], cap: int) -> list[MultilinearOperator]:
    kept: list[MultilinearOperator] = []
    kept_norms: list[float] = []
    for f in forms:
        vec = f.kernel.data
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            continue
        if any(
            abs(float(np.dot(vec, g.kernel.data))) >= (1 - 1e-12) * nrm * g_nrm
            for g, g_nrm in zip(kept, kept_norms)
        ):
            continue
        kept.append(f)
        kept_norms.append(nrm)
        if len(kept) >= cap:
            break
    return kept


# ---------------------------------------------------------------------------
# the orchestrated estimator
# ---------------------------------------------------------------------------


def estimate_pi_lip(
    op: MultilinearOperator,
    p: float,
    budget: Budget | None = None,
    *,
    seed: int = 0,
    ball: str = "op",
    initial_pairs: Sequence[tuple[SegrePoint, SegrePoint]] | None = None,
    extra_dictionary: Sequence[MultilinearOperator] | None = None,
) -> BoundReport:
    """Bracket pi_p(T): certified lower N / denominator_upper from explored
    configurations, the final LP constant as the (restricted, heuristic) upper.

    The pairset always contains the operator-norm argmax paired with zero,
    which makes the certified lower dominate the attained value of ||T||
    and keeps the LP constant above every lower bound produced here.  The
    final certificate sits in detail["certificate"].
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    budget = budget or Budget()
    if not np.any(op.kernel.data):
        return BoundReport(0.0, 0.0, method="zero", detail={"certificate": None, "seed": seed})

    norm_report = operator_norm(op, seed=child_seed(seed, 1), restarts=budget.restarts)
    pairs: list[tuple[SegrePoint, SegrePoint]] = list(initial_pairs or [])
    argmax_pair: tuple[SegrePoint, SegrePoint] | None = None
    argmax = norm_report.detail.get("argmax")
    if argmax is not None:
        argmax_pair = (argmax, SegrePoint.zero(op.dims))
        pairs.append(argmax_pair)
    rng = stream(seed, 7)
    target = min(budget.max_pairs, max(4, len(pairs) + 3))
    while len(pairs) < target:
        u = _random_segre(op.dims, op.norms, rng)
        v = SegrePoint.zero(op.dims) if rng.random() < 0.5 else _random_segre(op.dims, op.norms, rng)
        pairs.append((u, v))

    dictionary = [_unit_form(f, ball) for f in extra_dictionary or []]
    dictionary += initial_dictionary(op, pairs, seed, budget.max_dictionary, ball)
    dictionary = _dedup_forms(dictionary, budget.max_dictionary)

    best_lower = 0.0
    best_witness: PairConfiguration | None = None
    cert: PietschCertificate | None = None
    rounds_used = 0

    for rnd in range(budget.rounds):
        rounds_used = rnd + 1
        cfg = PairConfiguration(tuple(pairs))
        cert = pietsch_upper_lp(op, cfg, dictionary, p, ball=ball)

        lower_candidates = [cfg]
        lam = cert.detail.get("dual_weights")
        if lam is not None and np.any(lam > 1e-12):
            keep = lam > 1e-12
            sub_pairs = tuple(pr for pr, k in zip(cfg.pairs, keep) if k)
            if sub_pairs:
                lower_candidates.append(
                    PairConfiguration(sub_pairs, tuple(float(x) for x in lam[keep]))
                )
        if argmax_pair is not None:
            lower_candidates.append(PairConfiguration((argmax_pair,)))
        if initial_pairs:
            lower_candidates.append(PairConfiguration(tuple(initial_pairs)))
        for cand in lower_candidates:  # N / upper(D), priced without a search
            num = _numerator(op, cand, p)
            if num > 0:
                lower = _certified_ratio(num, denominator_upper(cand, p, op.norms, ball)[0])
                if lower > best_lower:
                    best_lower, best_witness = lower, cand

        if cert.feasible and cert.constant <= best_lower * (1 + 1e-3):
            break  # bracket already tight
        if rnd == budget.rounds - 1:
            break

        found = _violation_search(
            op, cert, p, child_seed(seed, 3, rnd), budget.adversarial_starts
        )
        found = [(u, v) for u, v, _ in found[:4]]
        if found:
            fresh = [pr for pr, d in zip(found, degenerate_rows(pair_rows(found))) if not d]
            pairs += fresh[:max(0, budget.max_pairs - len(pairs))]

        if ball == "op" and math.prod(op.dims) > 1:
            _, lams = rank_one_maximizer(
                PairConfiguration(tuple(pairs)), p, op.norms, seed=child_seed(seed, 4, rnd),
                restarts=max(8, budget.restarts // 4), max_iters=budget.ascent_iters)
            if lams is not None:
                dictionary.append(_unit_rank_one(lams, op.norms, ball))
        grow_rng = stream(seed, 8, rnd)
        for _ in range(4):
            dictionary.append(
                _unit_rank_one([grow_rng.standard_normal(d) for d in op.dims], op.norms, ball)
            )
        dictionary = _dedup_forms(dictionary, budget.max_dictionary)

    assert cert is not None
    upper = cert.constant
    method = "pietsch-lp(restricted-heuristic-upper)"
    if not cert.feasible:
        method = "pietsch-lp(dictionary exhausted)"
    if ball == "hs" and p == 2.0 and op.norms.is_all_l2():
        # coincidence: over the HS ball at p = 2 the norm is exactly the
        # Frobenius norm (Khintchine constant 1), so the upper end is certified
        upper = op.kernel.frobenius()
        method = "hs-coincidence(certified-upper)"
    norm_summary = {k: v for k, v in norm_report.to_dict().items() if k != "detail"}
    detail = {
        "certificate": cert,
        "operator_norm": norm_summary,
        "witness": best_witness,
        "seed": seed,
        "rounds": rounds_used,
        "pairs": len(pairs),
        "dictionary_size": len(dictionary),
        "ball": ball,
        "p": p,
    }
    return BoundReport(best_lower, upper, method, detail)


# ---------------------------------------------------------------------------
# factorization, restriction, polynomials
# ---------------------------------------------------------------------------


def build_factorization(
    cert: PietschCertificate,
    samples: Sequence[SegrePoint],
    op: MultilinearOperator,
) -> FactorizationBundle:
    """Realize T = h o j_p on samples, with h Lipschitz on the certified pairs.

    Raises ValueError on an infeasible certificate.  Sample pairs that j_p
    collapses while T separates them are reported as quotient violations
    rather than raising; they mark pairs to re-solve the certificate with.
    Distances at or below COLLAPSE_TOL (times the largest value entry when
    that exceeds 1) count as collapsed.
    """
    if not cert.feasible:
        raise ValueError("cannot factorize through an infeasible certificate")
    samples = tuple(samples)
    images, values = (), ()
    if samples:
        stacked = point_rows(samples)
        images, values = tuple(cert.embed_rows(stacked)), tuple(eval_rows(op, stacked))

    lip = 0.0
    pairs = cert.pairset.pairs
    d_vals = row_norms(eval_differences(op, pairs), op.norms.codomain).tolist()
    for d_img, d_val in zip(cert.embedded_distances(pairs), d_vals):
        if d_img > 1e-300:
            lip = max(lip, d_val / d_img)
        elif d_val > COLLAPSE_TOL:
            lip = math.inf

    scale = max((float(np.max(np.abs(v))) for v in values), default=0.0)
    tol = COLLAPSE_TOL * max(1.0, scale)
    violations = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            d_img = float(np.sum(np.abs(images[i] - images[j]) ** cert.p) ** (1 / cert.p))
            d_val = vector_norm(values[i] - values[j], op.norms.codomain)
            if d_img <= tol and d_val > tol:
                violations.append((i, j))
    return FactorizationBundle(cert, samples, images, values, lip, tuple(violations))


def restrict_operator(
    op: MultilinearOperator, fixed: dict[int, np.ndarray]
) -> MultilinearOperator:
    """Contract the given slots with fixed vectors; keeps the remaining norms.

    `fixed` maps slot index (0-based) to a vector of matching length; at
    least one slot must remain free.
    """
    if not fixed:
        raise ValueError("no slots fixed")
    if len(fixed) >= op.n:
        raise ValueError("fixing every slot leaves a constant, not an operator")
    kernel = op.kernel.array
    norms = list(op.norms.factors)
    for slot in sorted(fixed, reverse=True):
        if not 0 <= slot < op.n:
            raise ValueError(f"slot {slot} out of range for {op.n} factors")
        vec = np.asarray(fixed[slot], dtype=float)
        if vec.size != op.dims[slot]:
            raise ShapeError(
                f"vector of length {vec.size} cannot fix slot {slot} of dim {op.dims[slot]}"
            )
        kernel = np.tensordot(kernel, vec, axes=(slot, 0))
        norms.pop(slot)
    return MultilinearOperator.from_array(kernel, NormSpec(tuple(norms), op.norms.codomain))


def symmetrize_kernel(kernel: np.ndarray) -> np.ndarray:
    """Average an operator kernel (d, ..., d, m) over factor permutations."""
    n = kernel.ndim - 1
    acc = np.zeros_like(kernel)
    count = 0
    for perm in permutations(range(n)):
        acc += kernel.transpose(perm + (n,))
        count += 1
    return acc / count


def _diag_power_form(lam: np.ndarray, n: int, norms: NormSpec) -> _UnitForm:
    """q(x) = <lam, x>^n scaled to exact polynomial norm 1 = ||lam||_(r')^n."""
    return _unit_form(rank_one_form([lam] * n, norms), "poly",
                      vector_norm(lam, dual_exponent(norms.factors[0])) ** n)


def estimate_pi_lip_poly(
    op: MultilinearOperator,
    p: float,
    budget: Budget | None = None,
    *,
    seed: int = 0,
) -> BoundReport:
    """Summing-norm bracket for the homogeneous polynomial x -> T(x, ..., x).

    Same pipeline as ``estimate_pi_lip`` restricted to diagonal Segre
    points, with the denominator ball switched to polynomials normalized on
    the single unit ball.  Requires a permutation-symmetric kernel (within
    SYMMETRY_TOL relative).
    """
    if not p >= 1 or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    budget = budget or Budget()
    n, d = op.n, op.dims[0]
    if any(dd != d for dd in op.dims) or any(r != op.norms.factors[0] for r in op.norms.factors):
        raise ValueError("polynomial estimation needs identical factor spaces")
    kernel = op.kernel.array
    scale = max(float(np.max(np.abs(kernel))), 1e-300)
    if float(np.max(np.abs(kernel - symmetrize_kernel(kernel)))) > SYMMETRY_TOL * scale:
        raise ValueError("kernel is not symmetric under factor permutations")
    if not np.any(kernel):
        return BoundReport(0.0, 0.0, method="zero")
    r = op.norms.factors[0]

    rng = stream(seed, 9)
    points: list[np.ndarray] = [dual_norming_vector(np.ones(d), r)]
    points += [e for e in np.eye(d)[: min(d, 4)]]
    while len(points) < max(6, budget.max_pairs):
        points.append(project_to_ball(rng.standard_normal(d), r))
    diag_pairs = [(x, np.zeros(d)) for x in points[: budget.max_pairs // 2]]
    diag_pairs += [(points[i], points[i + 1]) for i in range(0, len(points) - 1, 2)]
    diag_pairs = diag_pairs[: budget.max_pairs]

    forms = [_unit_form(op, "poly")] if op.is_form() else []
    for e in np.eye(d):
        forms.append(_diag_power_form(e, n, op.norms))
    for x, _ in diag_pairs[:8]:
        if np.any(x):
            forms.append(_diag_power_form(dual_norming_vector(x, r), n, op.norms))
    gauss = stream(seed, 10)
    while len(forms) < budget.max_dictionary:
        forms.append(_diag_power_form(gauss.standard_normal(d), n, op.norms))
    forms = _dedup_forms(forms, budget.max_dictionary)

    # the pairs' diagonal points, x's over y's, leaving out the degenerate pairs
    xy = np.array([x for x, _ in diag_pairs] + [y for _, y in diag_pairs]).reshape(-1, d)
    E = elementary_rows([xy] * n)
    live = ~degenerate_rows(E[:len(diag_pairs)] - E[len(diag_pairs):])
    live_pairs = [pr for pr, k in zip(diag_pairs, live) if k]
    L, at = len(live_pairs), [xy[np.concatenate([live, live])]] * n
    values = eval_rows(op, at)
    t = np.array([x ** p for x in row_norms(values[:L] - values[L:], op.norms.codomain).tolist()])
    vals = [eval_rows(f, at)[:, 0].tolist() for f in forms]  # each form at every point
    S = np.array([[abs(v[i] - v[L + i]) ** p for v in vals] for i in range(L)])
    upper = _pietsch_lp(S, t)[0] ** (1.0 / p)

    # certified lower: best single-pair ratio against a certified poly-ball upper
    best_lower = 0.0
    polar = math.factorial(n) / float(n**n)  # poly ball is within (n^n/n!) x op ball
    for (x, y), t_i in zip(live_pairs, t):
        if t_i == 0:
            continue
        num = t_i ** (1.0 / p)
        triangle = vector_norm(x, r) ** n + vector_norm(y, r) ** n
        cfg = PairConfiguration(((SegrePoint((x,) * n), SegrePoint((y,) * n)),))
        den_upper = min(triangle, denominator_upper(cfg, p, op.norms)[0] / polar)
        if den_upper > 0:
            best_lower = max(best_lower, num / den_upper)
    return BoundReport(
        best_lower, upper,
        method="poly-pietsch-lp(restricted-heuristic-upper)",
        detail={"seed": seed, "pairs": len(live_pairs), "dictionary_size": len(forms), "p": p},
    )

