"""Command-line front end.

Subcommands: norm, summing, hs, dnorm, restrict, poly, verify, gen.
Exit codes: 0 success, 1 verification failure, 2 input error.  Reports are
canonical JSON (17-significant-digit floats) embedding the full run
configuration, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .hilbert_schmidt import hs_norm, verify_sandwich
from .formnorm import operator_norm
from .rng import stream
from .serialize import (
    SchemaError,
    dumps_canonical,
    mixed_from_json,
    mixed_to_json,
    operator_from_json,
    operator_to_json,
    save_json,
    to_jsonable,
)
from .summing import Budget, estimate_pi_lip, estimate_pi_lip_poly, restrict_operator
from .tensor_norm import MixedTensor, dp_lower_dual, dp_upper
from .tensors import MultilinearOperator, NormSpec
from .verify import run_all

__all__ = ["RunConfig", "cli_main", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Echoed into every report: seed, budgets (None where the subcommand reads none),
    tolerance, paths."""

    seed: int
    budget: Budget | None
    tol: float | None
    input_path: str | None

    def __post_init__(self):
        if self.tol is not None and not 0.0 < self.tol < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")

    def echo(self) -> dict:
        return {
            "seed": self.seed,
            "budget": None if self.budget is None else asdict(self.budget),
            "tol": self.tol,
            "input": self.input_path,
        }


def _config(args: argparse.Namespace) -> RunConfig:
    """The run configuration of a subcommand; an invalid budget or tolerance is an input error."""
    try:
        budget = None
        if "budget_rounds" in vars(args):  # a subcommand that reads a budget
            budget = Budget(restarts=args.budget_restarts, max_pairs=args.budget_pairs,
                            max_dictionary=args.budget_dict, rounds=args.budget_rounds)
        return RunConfig(args.seed, budget, vars(args).get("tol"), vars(args).get("input"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _finite_p(args: argparse.Namespace) -> float:
    if not 1.0 <= args.p < math.inf:
        raise SchemaError(f"--p must be finite and >= 1, got {args.p}")
    return args.p


def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("input", help="path to a JSON instance")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json-out", default=None, help="write the report here")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-restarts", type=int, default=64)
    sub.add_argument("--budget-pairs", type=int, default=24)
    sub.add_argument("--budget-dict", type=int, default=48)
    sub.add_argument("--budget-rounds", type=int, default=8)


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from None


def _load_operator(path: str) -> MultilinearOperator:
    return operator_from_json(_load_json(path))


def _emit(report: dict, json_out: str | None) -> None:
    """Print the report's canonical text, after writing it to `json_out` when one is given."""
    text = dumps_canonical(to_jsonable(report))
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _report(command: str, config: RunConfig, result: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config": config.echo(),
        "result": result,
    }


def _cmd_norm(args: argparse.Namespace) -> int:
    cfg = _config(args)
    op = _load_operator(args.input)
    rep = operator_norm(op, seed=args.seed, restarts=cfg.budget.restarts)
    _emit(_report("norm", cfg, rep), args.json_out)  # _emit makes the report JSON-ready
    return 0


def _cmd_summing(args: argparse.Namespace) -> int:
    cfg = _config(args)
    op = _load_operator(args.input)
    rep = estimate_pi_lip(op, _finite_p(args), cfg.budget, seed=args.seed, ball=args.ball)
    _emit(_report("summing", cfg, to_jsonable(rep)), args.json_out)
    return 0


def _cmd_hs(args: argparse.Namespace) -> int:
    cfg = _config(args)
    op = _load_operator(args.input)
    try:
        value = hs_norm(op)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    result: dict = {"hs_norm": value}
    if args.sandwich:
        result["sandwich"] = verify_sandwich(op, _finite_p(args), cfg.budget, seed=args.seed)
    _emit(_report("hs", cfg, result), args.json_out)
    if args.sandwich and not result["sandwich"]["passed"]:
        return 1
    return 0


def _cmd_dnorm(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if not 1.0 < args.p <= math.inf:
        raise SchemaError(f"--p must lie in (1, inf], got {args.p}")
    z = mixed_from_json(_load_json(args.input))
    upper = dp_upper(z, args.p, budget=cfg.budget, seed=args.seed,
                     residual_tol=args.tol if args.tol else 1e-8)
    lower = dp_lower_dual(z, args.p, seed=args.seed)
    result = {
        "certified_lower": lower.certified_lower,
        "certified_upper": upper.certified_upper,
        "upper_report": to_jsonable(upper),
        "lower_report": to_jsonable(lower),
    }
    _emit(_report("dnorm", cfg, result), args.json_out)
    return 0


def _cmd_restrict(args: argparse.Namespace) -> int:
    cfg = _config(args)
    op = _load_operator(args.input)
    try:
        vector = np.asarray([float(x) for x in args.vector.split(",")])
        restricted = restrict_operator(op, {args.slot: vector})
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    result = {"restricted": operator_to_json(restricted)}
    _emit(_report("restrict", cfg, result), args.json_out)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    cfg = _config(args)
    op = _load_operator(args.input)
    try:
        rep = estimate_pi_lip_poly(op, _finite_p(args), cfg.budget, seed=args.seed)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    _emit(_report("poly", cfg, to_jsonable(rep)), args.json_out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    suite = run_all(seed=args.seed, trials=args.trials)
    report = _report("verify", cfg, suite)
    _emit(report, args.json_out)
    return 0 if suite["passed"] else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    try:  # an unparsable entry, an exponent outside {1, 2, inf} or a dimension below 1
        dims = tuple(int(d) for d in args.dims.split(","))
        factor_norms = (tuple(float(r) for r in args.factor_norms.split(","))
                        if args.factor_norms else (2.0,) * len(dims))
        norms = NormSpec(factor_norms, float(args.codomain_norm))
        kernel = stream(args.seed, 99).standard_normal(dims + (args.m,))
        if args.kind == "operator":
            payload = operator_to_json(MultilinearOperator.from_array(kernel, norms))
        else:
            payload = mixed_to_json(MixedTensor.from_array(kernel, norms))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    save_json(payload, args.output)
    print(f"wrote {args.kind} with dims {dims} -> m={args.m} to {args.output}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pilip",
        description="Certified brackets for Lipschitz p-summing norms of "
                    "multilinear operators.",
    )
    parser.add_argument("--version", action="version", version=f"pilip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="operator norm bracket")
    _add_common(p_norm)
    p_norm.set_defaults(func=_cmd_norm)

    p_sum = sub.add_parser("summing", help="Lipschitz p-summing norm bracket")
    _add_common(p_sum)
    p_sum.add_argument("--ball", choices=["op", "hs"], default="op")
    p_sum.set_defaults(func=_cmd_summing)

    p_hs = sub.add_parser("hs", help="Hilbert-Schmidt norm / coincidence check")
    _add_common(p_hs)
    p_hs.add_argument("--sandwich", action="store_true",
                      help="also run the coincidence sandwich verification")
    p_hs.set_defaults(func=_cmd_hs)

    p_dn = sub.add_parser("dnorm", help="tensor-norm bracket for a mixed tensor")
    _add_common(p_dn)
    p_dn.add_argument("--tol", type=float, default=None, help="residual tolerance (1e-8)")
    p_dn.set_defaults(func=_cmd_dnorm)

    p_re = sub.add_parser("restrict", help="fix one slot to a vector")
    _add_common(p_re)
    p_re.add_argument("--slot", type=int, required=True, help="0-based slot index")
    p_re.add_argument("--vector", required=True, help="comma-separated entries")
    p_re.set_defaults(func=_cmd_restrict)

    p_po = sub.add_parser("poly", help="summing bracket for the diagonal polynomial")
    _add_common(p_po)
    p_po.set_defaults(func=_cmd_poly)
    for sp in (p_sum, p_hs, p_dn, p_po):  # the subcommands that read --p
        sp.add_argument("--p", type=float, default=2.0)
    for sp in (p_norm, p_sum, p_hs, p_dn, p_po):  # the subcommands that read a budget
        _add_budget(sp)

    p_ve = sub.add_parser("verify", help="run the randomized property suite")
    _add_common(p_ve, with_input=False)
    p_ve.add_argument("--trials", type=int, default=50)
    p_ve.set_defaults(func=_cmd_verify)

    p_ge = sub.add_parser("gen", help="generate a random JSON instance")
    p_ge.add_argument("output", help="where to write the instance")
    p_ge.add_argument("--kind", choices=["operator", "mixed"], default="operator")
    p_ge.add_argument("--dims", default="2,2", help="factor dims, comma-separated")
    p_ge.add_argument("--m", type=int, default=1, help="codomain dimension")
    p_ge.add_argument("--factor-norms", default=None,
                      help='comma-separated exponents (1, 2 or "inf")')
    p_ge.add_argument("--codomain-norm", default="2")
    p_ge.add_argument("--seed", type=int, default=0)
    p_ge.set_defaults(func=_cmd_gen)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand has --seed; SeedSequence takes no negative entropy
            raise SchemaError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
