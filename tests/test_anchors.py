"""Closed-form anchors for the lower end of `estimate_pi_lip`, at the default Budget and seed 0.

At n = 1 the Lipschitz p-summing norm is the classical one, since T(u) - T(v) = T(u - v).
The true values (Diestel-Jarchow-Tonge, *Absolutely Summing Operators*):
- Gordon (1969): pi_p(id on l2^d) = m_p^(-1/p), m_p = G(d/2) G((p+1)/2) / (sqrt(pi) G((d+p)/2));
- Garling-Gordon (1971): pi_2(id_E) = sqrt(d) for every d-dimensional E;
- pi_2(T) = ||T||_HS for every T: l2^d -> l2^m.
Only the lower end is checked: `certified_upper` is the restricted LP constant, which is not
yet an upper bound.
"""

import math

import numpy as np
import pytest

from pilip.rng import stream
from pilip.summing import estimate_pi_lip
from pilip.tensors import MultilinearOperator, NormSpec
from pilip.verify import random_operator


def _gordon(d: int, p: float) -> float:
    m_p = math.gamma(d / 2) * math.gamma((p + 1) / 2) / (
        math.sqrt(math.pi) * math.gamma((d + p) / 2))
    return m_p ** (-1.0 / p)


def _identity(d: int, r: float) -> MultilinearOperator:
    return MultilinearOperator.from_array(np.eye(d), NormSpec((r,), r))


IDENTITIES = [(d, 2.0, p, _gordon(d, p)) for d in (2, 3) for p in (1.0, 2.0, 3.0)]
IDENTITIES += [(d, r, 2.0, math.sqrt(d)) for r in (1.0, math.inf) for d in (2, 3)]


@pytest.mark.parametrize("d,r,p,truth", IDENTITIES)
def test_identity_lower_end_is_below_the_closed_form(d, r, p, truth):
    rep = estimate_pi_lip(_identity(d, r), p, seed=0)
    assert 0 < rep.certified_lower <= truth * (1 + 1e-12)


def _hs_family() -> list[MultilinearOperator]:
    """20 operators l2^d -> l2^m, 4 for each (d, m), drawn in turn from stream(0, 99)."""
    rng = stream(0, 99)
    return [random_operator((d,), m, rng)
            for d, m in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 4)) for _ in range(4)]


@pytest.mark.parametrize("i", range(20))
def test_hs_family_lower_end_is_below_the_hilbert_schmidt_norm(i):
    op = _hs_family()[i]
    rep = estimate_pi_lip(op, 2.0, seed=0)
    assert 0 < rep.certified_lower <= float(np.linalg.norm(op.kernel.data)) * (1 + 1e-12)
