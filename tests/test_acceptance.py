"""Acceptance criteria, one test per criterion, one printed line each.

The PASS/FAIL lines are echoed in the terminal summary of every pytest
run (see conftest.py) and printed inline under `-s`.  Tolerances and
instance counts are fixed here, not configurable.
"""

import json
import subprocess
import sys
import time

import numpy as np

from conftest import record_acceptance

from pilip.formnorm import operator_norm
from pilip.hilbert_schmidt import basis_config_lower, hs_norm
from pilip.rng import child_seed, stream
from pilip.serialize import operator_to_json, save_json
from pilip.summing import (
    Budget,
    estimate_pi_lip,
    initial_dictionary,
    lower_bound_config,
    pietsch_upper_lp,
    restrict_operator,
)
from pilip.tensor_norm import MixedTensor, check_delta_epsilon_bound, dp_lower_dual, dp_upper
from pilip.tensors import MultilinearOperator, PairConfiguration, SegrePoint
from pilip.verify import lambda_n, random_mixed, random_operator, random_pairs

LEAN = Budget(restarts=16, max_pairs=8, max_dictionary=16, rounds=1)


def _criterion(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    record_acceptance(line)
    assert ok, line


def test_acceptance_1_lambda_unit_norm(tmp_path):
    """pi_p of scalar multiplication is 1, certified both ways, under 1 s."""
    worst_time = 0.0
    ok = True
    details = []
    for n in (2, 3):
        path = tmp_path / f"lambda{n}.json"
        save_json(operator_to_json(lambda_n(n)), str(path))
        for p in (1.0, 2.0):
            start = time.perf_counter()
            rep = estimate_pi_lip(
                lambda_n(n), p, seed=7, extra_dictionary=[lambda_n(n)]
            )
            elapsed = time.perf_counter() - start
            worst_time = max(worst_time, elapsed)
            lower, upper = rep.certified_lower, rep.certified_upper
            ok = ok and lower >= 0.999 and upper <= 1.001 and elapsed < 1.0
            details.append(f"n={n},p={p}: [{lower:.6f},{upper:.6f}] {elapsed:.2f}s")
    _criterion(1, ok, "; ".join(details))


def test_acceptance_2_scalar_form_exactness():
    """Brackets contain the SVD norm of 50 random bilinear forms within 2%."""
    start = time.perf_counter()
    violations = 0
    for i in range(50):
        rng = stream(1000 + i)
        A = rng.standard_normal((2, 2))
        phi = MultilinearOperator.from_array(A[:, :, None])
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        rep = estimate_pi_lip(phi, 2.0, seed=child_seed(2, i))
        if rep.certified_lower > sigma * 1.02 or rep.certified_upper < sigma * 0.98:
            violations += 1
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        violations == 0 and elapsed < 30.0,
        f"violations={violations}/50, {elapsed:.1f}s (< 30 s)",
    )


def test_acceptance_3_hs_lower_exactness():
    """basis_config_lower equals hs_norm to 1e-9 relative on 100 kernels."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = stream(2000 + i)
        n = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n))
        op = random_operator(dims, int(rng.integers(1, 4)), rng)
        hs = hs_norm(op)
        if hs == 0.0:
            continue
        worst = max(worst, abs(basis_config_lower(op, seed=i) - hs) / hs)
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        worst <= 1e-9 and elapsed < 10.0,
        f"worst relative error={worst:.2e}, {elapsed:.1f}s (< 10 s)",
    )


def test_acceptance_4_inclusion_theorem():
    """Lower bound at q never exceeds the LP constant at p <= q (+1e-7)."""
    violations = 0
    worst = -np.inf
    for i in range(50):
        rng = stream(3000 + i)
        op = random_operator((2, 2), 2, rng)
        cfg = random_pairs(op.dims, 5, rng)
        dictionary = initial_dictionary(op, list(cfg.pairs), child_seed(4, i), 16, "op")
        for p, q in ((1.0, 2.0), (2.0, 4.0)):
            cert = pietsch_upper_lp(op, cfg, dictionary, p)
            low_q = lower_bound_config(op, cfg, q, seed=child_seed(4, i, 1), restarts=8)
            margin = low_q.certified_lower - cert.constant
            worst = max(worst, margin)
            if margin > 1e-7:
                violations += 1
    _criterion(4, violations == 0, f"violations={violations}/100, worst margin={worst:.2e}")


def test_acceptance_5_norm_domination():
    """The attained operator norm never exceeds the LP constant (+1e-6)."""
    violations = 0
    worst = -np.inf
    for i in range(50):
        rng = stream(4000 + i)
        op = random_operator((2, 2), 2, rng)
        est = estimate_pi_lip(op, 2.0, LEAN, seed=child_seed(5, i))
        norm_lower = est.detail["operator_norm"]["certified_lower"]
        margin = norm_lower - est.certified_upper
        worst = max(worst, margin)
        if margin > 1e-6:
            violations += 1
    _criterion(5, violations == 0, f"violations={violations}/50, worst margin={worst:.2e}")


def test_acceptance_6_restriction_bound():
    """Restricting a slot to a unit vector cannot raise the summing norm."""
    violations = 0
    worst = -np.inf
    for i in range(30):
        rng = stream(5000 + i)
        op = random_operator((2, 2, 2), 2, rng)
        slot = int(rng.integers(0, 3))
        x0 = rng.standard_normal(2)
        x0 /= np.linalg.norm(x0)
        restricted = restrict_operator(op, {slot: x0})
        r_cfg = random_pairs((2, 2), 4, rng)

        def lift(point):
            factors = list(point.factors)
            factors.insert(slot, x0)
            return SegrePoint(tuple(factors))

        lifted = PairConfiguration(tuple((lift(u), lift(v)) for u, v in r_cfg.pairs))
        dictionary = initial_dictionary(op, list(lifted.pairs), child_seed(6, i), 16, "op")
        cert = pietsch_upper_lp(op, lifted, dictionary, 2.0)
        low = lower_bound_config(restricted, r_cfg, 2.0, seed=child_seed(6, i, 1), restarts=8)
        margin = low.certified_lower - 1.0 * cert.constant  # ||x0|| = 1
        worst = max(worst, margin)
        if margin > 1e-6:
            violations += 1
    _criterion(6, violations == 0, f"violations={violations}/30, worst margin={worst:.2e}")


def test_acceptance_7_delta_epsilon_finitary():
    """Delta_p of mapped differences <= constant x epsilon upper (+1e-7)."""
    failures = 0
    worst = np.inf
    for i in range(50):
        rng = stream(6000 + i)
        op = random_operator((2, 2), 2, rng)
        cfg = random_pairs((2, 2), 4, rng)
        report = check_delta_epsilon_bound(op, cfg, 2.0, LEAN, seed=child_seed(7, i), tol=1e-7)
        worst = min(worst, report["margin"])
        if not report["passed"]:
            failures += 1
    _criterion(7, failures == 0, f"failures={failures}/50, smallest margin={worst:.2e}")


def test_acceptance_8_tensor_norm_weak_duality():
    """dp_lower_dual <= dp_upper + 1e-7; elementary l2 brackets close to 5%."""
    violations = 0
    for i in range(50):
        z = random_mixed((2, 2), 2, stream(7000 + i))
        up = dp_upper(z, 2.0, seed=child_seed(8, i))
        low = dp_lower_dual(z, 2.0, seed=child_seed(8, i))
        if low.certified_lower > up.certified_upper + 1e-7:
            violations += 1
    worst_width = 0.0
    for i in range(10):
        rng = stream(7500 + i)
        a, b, y = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
        z = MixedTensor.from_array(np.multiply.outer(np.outer(a, b), y))
        up = dp_upper(z, 2.0, seed=child_seed(8, 100 + i)).certified_upper
        low = dp_lower_dual(z, 2.0, seed=child_seed(8, 100 + i)).certified_lower
        target = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(y)
        worst_width = max(worst_width, (up - low) / target)
    _criterion(
        8,
        violations == 0 and worst_width <= 0.05,
        f"duality violations={violations}/50, worst elementary width={worst_width:.2e}",
    )


def test_acceptance_9_determinism(tmp_path):
    """Two `verify --seed 7` runs produce byte-identical reports."""
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pilip.cli", "verify", "--seed", "7",
             "--json-out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    report = json.loads(outs[0])
    _criterion(
        9,
        identical and report["result"]["passed"],
        f"byte-identical={identical}, suite passed={report['result']['passed']}",
    )
