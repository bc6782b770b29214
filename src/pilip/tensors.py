"""Dense tensors, multilinear operators, Segre points, and pair configurations.

This is the shared substrate: every norm estimator in the package works on
the types defined here.  An n-linear operator T into R^m is stored as a
dense kernel of shape (d1, ..., dn, m) together with the l_r norms carried
by each factor space and by the codomain.  Scalar-valued forms are the
m = 1 case.

All objects are immutable after construction (arrays are frozen), so they
can be shared freely across threads; the operations are pure functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "DegeneratePairWarning",
    "DenseTensor",
    "NormSpec",
    "MultilinearOperator",
    "SegrePoint",
    "PairConfiguration",
    "eval_operator",
    "eval_rows",
    "eval_differences",
    "elementary_tensor",
    "elementary_rows",
    "point_rows",
    "pair_factors",
    "pair_rows",
    "degenerate_rows",
    "vector_norm",
    "row_norms",
    "unit_vector",
    "dual_exponent",
    "dual_norming_vector",
    "norming_rows",
    "project_to_ball",
    "project_rows",
    "flatten",
]

VALID_EXPONENTS = (1.0, 2.0, math.inf)


class ShapeError(ValueError):
    """Dimension or mode-partition mismatch."""


class DegeneratePairWarning(UserWarning):
    """A pair with equal elementary tensors was dropped from a configuration."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    a.flags.writeable = False
    return a


def _check_exponent(r: float) -> float:
    r = float(r)
    if r not in VALID_EXPONENTS:
        raise ValueError(f"norm exponent must be 1, 2 or inf, got {r}")
    return r


@dataclass(frozen=True)
class DenseTensor:
    """A real multi-index array in row-major order.

    `shape` lists positive dimensions; `data` is the flat row-major buffer
    of length prod(shape).
    """

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        if any(d < 1 for d in shape):
            raise ShapeError(f"dimensions must be positive, got {shape}")
        data = _freeze(np.asarray(self.data).reshape(-1))
        if data.size != math.prod(shape):
            raise ShapeError(
                f"data length {data.size} does not match shape {shape} "
                f"(expected {math.prod(shape)})"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "DenseTensor":
        array = np.asarray(array, dtype=float)
        return cls(array.shape, array.reshape(-1))

    @property
    def array(self) -> np.ndarray:
        """Read-only view with the tensor's natural shape."""
        return self.data.reshape(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True)
class NormSpec:
    """l_r exponents for the factor spaces and the codomain, r in {1, 2, inf}."""

    factors: tuple[float, ...]
    codomain: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(_check_exponent(r) for r in self.factors))
        object.__setattr__(self, "codomain", _check_exponent(self.codomain))

    @classmethod
    def all_l2(cls, n: int) -> "NormSpec":
        return cls((2.0,) * n, 2.0)

    def is_all_l2(self) -> bool:
        return all(r == 2.0 for r in self.factors) and self.codomain == 2.0


@dataclass(frozen=True)
class MultilinearOperator:
    """An n-linear operator R^{d1} x ... x R^{dn} -> R^m as a dense kernel.

    The kernel has shape (d1, ..., dn, m); evaluation contracts the first n
    modes against the argument's factors.  `norms.factors[i]` is the l_r
    exponent of factor space i, `norms.codomain` the exponent on R^m.
    """

    kernel: DenseTensor
    norms: NormSpec

    def __post_init__(self):
        if self.kernel.ndim < 2:
            raise ShapeError("kernel needs at least one factor mode plus a codomain mode")
        if len(self.norms.factors) != self.kernel.ndim - 1:
            raise ShapeError(
                f"{len(self.norms.factors)} factor norms for "
                f"{self.kernel.ndim - 1} factor modes"
            )

    @classmethod
    def from_array(cls, array: np.ndarray, norms: NormSpec | None = None) -> "MultilinearOperator":
        array = np.asarray(array, dtype=float)
        if norms is None:
            norms = NormSpec.all_l2(array.ndim - 1)
        return cls(DenseTensor.from_array(array), norms)

    @property
    def n(self) -> int:
        """Number of factor slots."""
        return self.kernel.ndim - 1

    @property
    def m(self) -> int:
        """Codomain dimension."""
        return self.kernel.shape[-1]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.kernel.shape[:-1]

    def __call__(self, x: "SegrePoint") -> np.ndarray:
        return eval_operator(self, x)

    def codomain_norm(self, y: np.ndarray) -> float:
        return vector_norm(y, self.norms.codomain)

    def is_form(self) -> bool:
        return self.m == 1


@dataclass(frozen=True)
class SegrePoint:
    """A point (x1, ..., xn) of the product space, i.e. the elementary tensor
    x1 (x) ... (x) xn on the Segre cone."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(_freeze(f).reshape(-1) for f in self.factors))
        if not self.factors:
            raise ShapeError("a Segre point needs at least one factor")

    @classmethod
    def of(cls, *factors: Sequence[float]) -> "SegrePoint":
        return cls(tuple(np.asarray(f, dtype=float) for f in factors))

    @classmethod
    def zero(cls, dims: Sequence[int]) -> "SegrePoint":
        return cls(tuple(np.zeros(int(d)) for d in dims))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)

    def factor_norms(self, spec: NormSpec) -> tuple[float, ...]:
        return tuple(vector_norm(f, r) for f, r in zip(self.factors, spec.factors))

    def scale(self, t: float) -> "SegrePoint":
        """Scale every factor by t (the tensor scales by t^n)."""
        return SegrePoint(tuple(t * f for f in self.factors))


@dataclass(frozen=True)
class PairConfiguration:
    """Weighted pairs (u_i, v_i) of Segre points.

    Weights default to 1.  `rows` holds the flattened elementary-tensor
    differences u_i (x) ... - v_i (x) ... of the kept pairs, one read-only row
    per pair (`pair_rows`).  Pairs whose elementary tensors coincide
    (`degenerate_rows`) contribute nothing to any summing estimate and are
    dropped at construction, each with a `DegeneratePairWarning`.
    """

    pairs: tuple[tuple[SegrePoint, SegrePoint], ...]
    weights: tuple[float, ...] = field(default=())
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple(self.pairs)
        weights = tuple(float(w) for w in self.weights) or (1.0,) * len(pairs)
        if len(weights) != len(pairs):
            raise ValueError("one weight per pair required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be strictly positive")
        if not pairs:
            raise ValueError("configuration must contain at least one pair")
        dims = pairs[0][0].dims
        for u, v in pairs:
            if u.dims != dims or v.dims != dims:
                raise ShapeError("all pairs must share the factor dimensions")
        rows = pair_rows(pairs)
        drop = degenerate_rows(rows)
        for _ in range(int(drop.sum())):
            warnings.warn(
                "dropping degenerate pair (equal elementary tensors)",
                DegeneratePairWarning,
                stacklevel=2,
            )
        if drop.all():
            raise ValueError("configuration is empty after dropping degenerate pairs")
        pairs = tuple(pr for pr, d in zip(pairs, drop) if not d)
        weights = tuple(w for w, d in zip(weights, drop) if not d)
        rows = rows[~drop]
        rows.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.pairs[0][0].dims

    def with_pairs(self, extra: Iterable[tuple[SegrePoint, SegrePoint]]) -> "PairConfiguration":
        extra = tuple(extra)
        return PairConfiguration(self.pairs + extra, self.weights + (1.0,) * len(extra))

    def reweighted(self, weights: Sequence[float]) -> "PairConfiguration":
        return PairConfiguration(self.pairs, tuple(weights))

    def scaled(self, t: float) -> "PairConfiguration":
        return PairConfiguration(
            tuple((u.scale(t), v.scale(t)) for u, v in self.pairs), self.weights
        )


def eval_operator(op: MultilinearOperator, x: SegrePoint) -> np.ndarray:
    """Evaluate T(x1, ..., xn): contract the kernel against the factors.

    Linear in each slot; equals the pairing of the kernel with the
    elementary tensor of x.  The one-row case of `eval_rows`.
    """
    return eval_rows(op, [f[None] for f in x.factors])[0]


def eval_rows(op: MultilinearOperator, factors: Sequence[np.ndarray]) -> np.ndarray:
    """T at every point whose factors are the rows of the (R, d_k) arrays, as an (R, m) array.
    One gemv per row and slot, so each row has the bits of a one-row call: a single gemm
    would sum in another order and round differently."""
    dims = tuple(X.shape[1] for X in factors)
    if dims != op.dims:
        raise ShapeError(f"factor dims {dims} do not match operator dims {op.dims}")
    out = (factors[0][:, None, :] @ op.kernel.array.reshape(op.dims[0], -1))[:, 0, :]
    for X, d in zip(factors[1:], op.dims[1:]):
        out = (X[:, None, :] @ out.reshape(len(X), d, out.shape[1] // d))[:, 0, :]
    return out


def eval_differences(
    op: MultilinearOperator, pairs: Sequence[tuple[SegrePoint, SegrePoint]]
) -> np.ndarray:
    """T(u_i) - T(v_i) of every pair, as a (K, m) array (`eval_rows` on the stacked points)."""
    values = eval_rows(op, pair_factors(pairs))
    return values[:len(pairs)] - values[len(pairs):]


def elementary_tensor(x: SegrePoint) -> DenseTensor:
    """The rank-one tensor with entries prod_k x_k[i_k]: the one-row case of
    `elementary_rows`."""
    return DenseTensor(x.dims, elementary_rows([f[None] for f in x.factors])[0])


def elementary_rows(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The flattened elementary tensor of every point whose factors are the rows of the
    (R, d_k) arrays, as an (R, prod d_k) array; the products are taken left to right."""
    out = np.ones((len(factors[0]), 1))
    for X in factors:
        out = (out[:, :, None] * X[:, None, :]).reshape(len(X), out.shape[1] * X.shape[1])
    return out


def point_rows(points: Sequence[SegrePoint]) -> list[np.ndarray]:
    """The factors of the points stacked slot by slot: one (R, d_k) array per slot, row i
    from point i.  The layout `eval_rows` and `elementary_rows` take."""
    return [np.array([x.factors[k] for x in points]) for k in range(len(points[0].factors))]


def pair_factors(pairs: Sequence[tuple[SegrePoint, SegrePoint]]) -> list[np.ndarray]:
    """`point_rows` of the K points u_i followed by the K points v_i: one (2K, d_k) array per
    slot, the u's over the v's."""
    return point_rows([u for u, _ in pairs] + [v for _, v in pairs])


def pair_rows(pairs: Sequence[tuple[SegrePoint, SegrePoint]]) -> np.ndarray:
    """The flattened elementary-tensor difference u_i (x) ... - v_i (x) ... of every pair, as
    a (K, prod d_k) array."""
    E = elementary_rows(pair_factors(pairs))
    return E[:len(pairs)] - E[len(pairs):]


def degenerate_rows(rows: np.ndarray) -> np.ndarray:
    """The drop rule for pairs: whether each difference row has max |entry| <= 1e-300, that
    is, whether the pair's two elementary tensors coincide."""
    return np.max(np.abs(rows), axis=1) <= 1e-300


def vector_norm(v: np.ndarray, r: float) -> float:
    """The l_r norm for r in {1, 2, inf} (max of absolute values at inf)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    r = _check_exponent(r)
    if v.size == 0:
        return 0.0
    if r == 1.0:
        return float(np.sum(np.abs(v)))
    if r == 2.0:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def row_norms(X: np.ndarray, r: float) -> np.ndarray:
    """vector_norm(x, r) of every row x of X, with the same arithmetic."""
    if r == 1.0:
        return np.sum(np.abs(X), axis=1)
    if r == 2.0:
        return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])  # BLAS dot, as np.linalg.norm
    return np.max(np.abs(X), axis=1)


def unit_vector(v: np.ndarray) -> np.ndarray:
    """v scaled to unit l2 norm; the zero vector is returned as it is."""
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def dual_exponent(r: float) -> float:
    """Conjugate exponent: 1 <-> inf, 2 <-> 2."""
    r = _check_exponent(r)
    if r == 1.0:
        return math.inf
    if r == math.inf:
        return 1.0
    return 2.0


def dual_norming_vector(g: np.ndarray, r: float) -> np.ndarray:
    """A maximizer of <g, w> over the unit l_r ball (any fixed choice at ties).

    For g = 0 returns the first basis vector, which lies on every unit sphere.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    r = _check_exponent(r)
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


def norming_rows(X: np.ndarray, r: float) -> np.ndarray:
    """dual_norming_vector(x, r) of every row x of X, with the same arithmetic."""
    if r == 2.0:
        nrm = row_norms(X, 2.0)
        out = X / np.where(nrm == 0, 1.0, nrm)[:, None]
    elif r == 1.0:
        rows, i = np.arange(len(X)), np.argmax(np.abs(X), axis=1)
        out = np.zeros_like(X)
        out[rows, i] = np.where(X[rows, i] >= 0, 1.0, -1.0)
    else:
        out = np.where(X >= 0, 1.0, -1.0)
    zero = ~X.any(axis=1)
    if zero.any():
        out[zero] = 0.0
        out[zero, 0] = 1.0
    return out


def project_to_ball(v: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection of v onto the unit l_r ball."""
    v = np.asarray(v, dtype=float).reshape(-1)
    r = _check_exponent(r)
    if r == math.inf:
        return np.clip(v, -1.0, 1.0)
    if r == 2.0:
        nrm = np.linalg.norm(v)
        return v if nrm <= 1.0 else v / nrm
    if np.sum(np.abs(v)) <= 1.0:
        return v
    # l1 ball: soft-threshold at the level set determined by sorting
    a = np.sort(np.abs(v))[::-1]
    cumsum = np.cumsum(a)
    ks = np.arange(1, a.size + 1)
    mask = a > (cumsum - 1.0) / ks
    k = int(np.max(ks[mask]))
    tau = (cumsum[k - 1] - 1.0) / k
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_rows(X: np.ndarray, r: float) -> np.ndarray:
    """project_to_ball(x, r) of every row x of X, with the same arithmetic.  A row holding a
    NaN, or in l1 and l2 an infinity, comes back with a non-finite entry."""
    r = _check_exponent(r)
    if r == math.inf:
        return np.clip(X, -1.0, 1.0)
    if r == 2.0:
        nrm = row_norms(X, 2.0)
        return X / np.where(nrm <= 1.0, 1.0, nrm)[:, None]  # x / 1.0 is x
    out = X.copy()
    rows = np.flatnonzero(~(np.sum(np.abs(X), axis=1) <= 1.0))
    if rows.size:
        # l1 ball: soft-threshold each row outside it at the level set found by sorting
        V = X[rows]
        a = np.sort(np.abs(V), axis=1)[:, ::-1]
        cumsum = np.cumsum(a, axis=1)
        ks = np.arange(1, X.shape[1] + 1)
        k = np.max(np.where(a > (cumsum - 1.0) / ks, ks, 0), axis=1)  # 0 only with NaN or inf
        tau = (cumsum[np.arange(len(rows)), k - 1] - 1.0) / k
        out[rows] = np.sign(V) * np.maximum(np.abs(V) - tau[:, None], 0.0)
    return out


def flatten(t: DenseTensor, split: tuple[Sequence[int], Sequence[int]]) -> np.ndarray:
    """Matricize `t`: modes in split[0] become rows, split[1] columns.

    The split must cover every mode exactly once; the reshape is row-major
    and therefore invertible.
    """
    rows, cols = (tuple(int(i) for i in g) for g in split)
    if sorted(rows + cols) != list(range(t.ndim)):
        raise ShapeError(f"split {split} is not a partition of modes 0..{t.ndim - 1}")
    arr = t.array.transpose(rows + cols)
    nrow = math.prod(t.shape[i] for i in rows) if rows else 1
    return arr.reshape(nrow, -1)
