"""Spans around calls into pilip, recorded from outside the package.

Tracing never edits ``src/``.  ``Tracer.install`` rebinds each traced
function in every loaded ``pilip.*`` module that holds the same function
object (``from .x import y`` copies the binding into the importing module,
so patching only the defining module would miss most calls), and wraps the
entries of ``verify.PROPERTIES``.  ``Tracer.uninstall`` puts every original
binding back.

Spans are kept in memory as (name, start, end, parent) and reduced to
per-name call counts and self times at the end of each pass.  Some spans
also record an observation taken from the call's arguments or result
(simplex status, bracket widths, report sizes); those become the derived
per-layer metrics in ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "TRACED", "PROPERTY_NAMES", "property_metric", "layer_metrics"]


def _simplex_obs(args, kwargs, result) -> dict:
    def rows(key: str, pos: int) -> int:
        a = kwargs.get(key, args[pos] if len(args) > pos else None)
        return 0 if a is None else len(a)

    c = kwargs.get("c", args[0] if args else ())
    cells = (rows("A_ub", 1) + rows("A_eq", 3)) * len(c)
    return {"status": result.status, "cells": cells}


def _bracket_log_gap(report) -> float | None:
    lo, up = report.certified_lower, report.certified_upper
    if lo > 0 and math.isfinite(up):
        return math.log(up / lo)
    return None


def _estimate_obs(args, kwargs, result) -> dict:
    d = result.detail
    if "rounds" not in d:  # zero operator: no search ran
        return {}
    tight = result.certified_upper <= result.certified_lower * (1 + 1e-3) + 1e-12
    return {"rounds": d["rounds"], "pairs": d["pairs"],
            "dictionary": d["dictionary_size"], "tight": float(tight)}


# (module, attribute, span name, observer or None)
TRACED: list[tuple[str, str, str, Callable | None]] = [
    ("simplex", "solve_lp", "simplex.solve_lp", _simplex_obs),
    ("summing", "estimate_pi_lip", "summing.estimate_pi_lip", _estimate_obs),
    ("summing", "pietsch_upper_lp", "summing.pietsch_upper_lp", None),
    ("summing", "_violation_search", "summing.violation_search", None),
    ("summing", "lower_bound_config", "summing.lower_bound_config", None),
    ("formnorm", "config_denominator", "formnorm.config_denominator",
     lambda a, k, r: {"log_gap": _bracket_log_gap(r)}),
    ("formnorm", "_rank_one_ascent", "formnorm.rank_one_ascent", None),
    ("formnorm", "operator_norm", "formnorm.operator_norm", None),
    ("tensor_norm", "dp_upper", "tensor_norm.dp_upper",
     lambda a, k, r: {"terms": r.detail.get("terms", 0)}),
    ("tensor_norm", "dp_lower_dual", "tensor_norm.dp_lower_dual", None),
    ("tensors", "eval_operator", "tensors.eval_operator", None),
    ("tensors", "elementary_tensor", "tensors.elementary_tensor", None),
    ("hilbert_schmidt", "verify_sandwich", "hilbert_schmidt.verify_sandwich", None),
    ("hilbert_schmidt", "basis_config_lower", "hilbert_schmidt.basis_config_lower", None),
    ("serialize", "dumps_canonical", "serialize.dumps_canonical",
     lambda a, k, r: {"bytes": len(r.encode())}),
    ("serialize", "operator_from_json", "serialize.operator_from_json", None),
    ("cli", "cli_main", "cli.cli_main", None),
]

# the entries of pilip.verify.PROPERTIES; names use "." where pilip uses "/"
PROPERTY_NAMES = [
    "tensor_core/slot_linearity",
    "tensor_core/elementary_rank_one",
    "tensor_core/eval_matches_contraction",
    "form_norm/config_monotonicity",
    "form_norm/ball_inclusion",
    "form_norm/lambda_n_unit_norm",
    "form_norm/enumeration_equals_sign_grid",
    "summing/lp_soundness_and_duality_gap",
    "summing/inclusion_theorem",
    "summing/norm_domination",
    "summing/composition_bound",
    "summing/scalar_form_bracket",
    "hilbert_schmidt/rotation_invariance",
    "hilbert_schmidt/basis_equals_hs",
    "hilbert_schmidt/operator_norm_below_hs",
    "hilbert_schmidt/khintchine_monotone",
    "tensor_norm/weak_duality",
    "tensor_norm/triangle_inequality",
    "tensor_norm/elementary_crossnorm_bracket",
    "tensor_norm/homogeneity",
    "tensor_norm/delta_epsilon_finitary",
    "open_question/farmer_johnson_weight_gap",
]


def property_metric(name: str) -> str:
    return "verify.property." + name.replace("/", ".")


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.observations: dict[str, list[dict]] = defaultdict(list)
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._restore: list[tuple[Any, str, Any]] = []
        self._properties: tuple[list, list] | None = None  # (PROPERTIES, saved entries)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack, observations = self.spans, self._stack, self.observations

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:  # a recursive call is part of its caller
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if observe is not None:
                observations[name].append(observe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        traced = [(importlib.import_module("pilip." + mod), attr, name, observe)
                  for mod, attr, name, observe in TRACED]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pilip" or n.startswith("pilip."))]
        for module_of, attr, name, observe in traced:
            original = getattr(module_of, attr)
            wrapper = self.wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        props = importlib.import_module("pilip.verify").PROPERTIES
        self._properties = (props, list(props))
        props[:] = [(n, self.wrap(property_metric(n), f), cap) for n, f, cap in props]

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()
        if self._properties is not None:
            props, saved = self._properties
            props[:] = saved
            self._properties = None

    def drain(self) -> tuple[dict[str, int], dict[str, float], dict[str, float],
                             dict[str, list[dict]]]:
        """Reduce the spans recorded so far to (calls, self seconds, total
        seconds, observations) per span name, and forget them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
            total_s[name] += end - start
        observations = dict(self.observations)
        self.spans.clear()
        self.observations.clear()
        return dict(calls), dict(self_s), dict(total_s), observations


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(calls: dict[str, int], self_s: dict[str, float], total_s: dict[str, float],
                  obs: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle (counts exact, times in s)."""
    out: dict[str, float] = {}
    for _, _, name, _ in TRACED:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    for prop in PROPERTY_NAMES:
        name = property_metric(prop)
        out[name + ".self_s"] = self_s.get(name, 0.0)
        out[name + ".total_s"] = total_s.get(name, 0.0)

    lp = obs.get("simplex.solve_lp", [])
    out["simplex.solve_lp.nonoptimal_frac"] = (
        sum(o["status"] != "optimal" for o in lp) / len(lp) if lp else 0.0)
    out["simplex.solve_lp.iteration_limit"] = sum(o["status"] == "iteration_limit" for o in lp)
    out["simplex.solve_lp.cells_mean"] = _mean([o["cells"] for o in lp])

    certs = calls.get("summing.pietsch_upper_lp", 0)
    out["summing.lp_per_certificate"] = calls.get("simplex.solve_lp", 0) / certs if certs else 0.0
    est = [o for o in obs.get("summing.estimate_pi_lip", []) if o]
    out["summing.rounds_mean"] = _mean([o["rounds"] for o in est])
    out["summing.tight_stop_frac"] = _mean([o["tight"] for o in est])
    out["summing.pairs_mean"] = _mean([o["pairs"] for o in est])
    out["summing.dictionary_mean"] = _mean([o["dictionary"] for o in est])

    gaps = [o["log_gap"] for o in obs.get("formnorm.config_denominator", [])
            if o["log_gap"] is not None]
    out["formnorm.denominator_log_gap_mean"] = _mean(gaps)
    out["tensor_norm.terms_mean"] = _mean(
        [o["terms"] for o in obs.get("tensor_norm.dp_upper", [])])
    out["serialize.bytes_out"] = sum(o["bytes"] for o in obs.get("serialize.dumps_canonical", []))
    return out
