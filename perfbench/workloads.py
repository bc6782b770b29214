"""The benchmark's workloads: seeded instances, output checks.

A workload is a list of ``BATCHES[workload]`` batches.  Every batch holds
one instance of each of the workload's kinds, drawn from its own stream,
so a run sees several independent draws of every kind.  Every instance is
built from ``pilip.rng.stream(seed, ...)``; at the default seed 0 the
``t2`` instance of batch 0 is ROADMAP's T2
(``verify.random_operator((3, 3), 2, stream(0, 1))``).

The program only ever sees the generated instances: the CLI workloads get
JSON files written during set-up and run ``pilip.cli.cli_main``
in-process with ``--json-out``; the library workload gets the objects.
An instance's ``run`` returns an ``Outcome``; ``check`` lists its failed
checks, which feed ``failed``/``attempted``.  Every instance is a nonzero
operator, tensor or pair configuration, so each certified lower end must
be positive: a bracket that loses it fails, and is not just left out of
``log_gap_mean``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import pilip
from pilip import cli
from pilip.rng import child_seed, stream
from pilip.serialize import mixed_to_json, operator_to_json, save_json
from pilip.summing import symmetrize_kernel
from pilip.tensors import MultilinearOperator, NormSpec
from pilip.verify import lambda_n, random_mixed, random_operator, random_pairs

__all__ = ["BATCHES", "WORKLOADS", "Instance", "Outcome", "build", "check", "warm_up"]

INF = math.inf

# Batches per workload: enough independent draws of each kind that the
# median over them is steady from seed to seed, few enough that one cycle
# and a repeat of the first batch fit in a run.
BATCHES = {"summing": 4, "verify": 2, "dnorm": 4, "denominator": 8}

# Search budgets.  The default Budget takes 6-7 s on T2 and over 100 s on
# some (2,2)->2 p=3 instances, far beyond one pass of a closed loop; the
# anchor test runs T2 with the default Budget instead.
SUMMING_BUDGET = ["--budget-restarts", "8", "--budget-pairs", "10",
                  "--budget-dict", "48", "--budget-rounds", "2"]
DNORM_BUDGET = ["--budget-restarts", "2"]
VERIFY_TRIALS = 10


@dataclass
class Outcome:
    """What one instance produced: its brackets and its report bytes."""

    payload: bytes
    brackets: list[tuple[float, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


@dataclass
class Instance:
    kind: str
    batch: int
    run: Callable[[], Outcome]

    @property
    def name(self) -> str:
        return f"{self.kind}/{self.batch}"


def _cli(argv: list[str], out: str, result_check: Callable[[dict], list[str]] | None = None,
         bracket_of: Callable[[dict], tuple[float, float]] | None = None) -> Outcome:
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cli_main(argv + ["--json-out", out])
    problems = [] if code == 0 else [f"exit code {code}"]
    if not os.path.exists(out):
        return Outcome(b"", [], problems + ["no report written"])
    with open(out, "rb") as fh:
        payload = fh.read()
    result = json.loads(payload)["result"]
    if result_check is not None:
        problems += result_check(result)
    return Outcome(payload, [bracket_of(result)] if bracket_of else [], problems)


def _number(x) -> float:
    return float(x) if isinstance(x, (int, float)) else math.nan


def _report_bracket(result: dict) -> tuple[float, float]:
    return _number(result["certified_lower"]), _number(result["certified_upper"])


def _exact_operator_norm(result: dict) -> list[str]:
    nrm = result["detail"]["operator_norm"]
    if nrm["certified_lower"] != nrm["certified_upper"]:
        return [f"operator norm not exact: [{nrm['certified_lower']}, {nrm['certified_upper']}]"]
    return []


def _unit_bracket(result: dict) -> list[str]:
    lo, up = _report_bracket(result)
    return [] if (lo, up) == (1.0, 1.0) else [f"lambda_2 bracket [{lo}, {up}] is not [1, 1]"]


def _verify_passed(result: dict) -> list[str]:
    failed = [p["property"] for p in result["properties"] if not p["passed"]]
    return [] if result["passed"] else [f"verify failed: {', '.join(failed)}"]


class _Files:
    """Instance and report files of one run, under one directory."""

    def __init__(self, tmp: str):
        self.tmp = tmp

    def write(self, name: str, payload: dict) -> str:
        path = os.path.join(self.tmp, name + ".json")
        save_json(payload, path)
        return path

    def cli(self, kind: str, batch: int, argv: list[str], result_check=None,
            bracket_of=None) -> Instance:
        out = os.path.join(self.tmp, f"{kind}_{batch}.out.json")
        return Instance(kind, batch, lambda: _cli(argv, out, result_check, bracket_of))


def _draw(seed: int, kind: int, batch: int):
    # batch 0 of kind 1 is stream(seed, 1): ROADMAP's T2 at seed 0
    return stream(seed, kind) if batch == 0 else stream(seed, kind, batch)


def _run_seed(seed: int, batch: int) -> str:
    """The --seed given to pilip: the benchmark seed in batch 0, derived from
    it elsewhere, so that batches also differ in the program's own draws."""
    return str(seed if batch == 0 else child_seed(seed, 40, batch))


SUMMING_KINDS = [  # (stream id, kind, dims, m, norms, p)
    (1, "t2", (3, 3), 2, NormSpec.all_l2(2), 2.0),
    (2, "l2_p3", (2, 2), 2, NormSpec.all_l2(2), 3.0),
    (3, "linf_l2", (2, 3), 2, NormSpec((INF, 2.0), 2.0), 2.0),
    (4, "enum_l1_linf", (2, 3), 2, NormSpec((1.0, INF), 1.0), 2.0),
]


def _summing(seed: int, files: _Files, j: int) -> list[Instance]:
    s = _run_seed(seed, j)
    out = []
    for sid, kind, dims, m, norms, p in SUMMING_KINDS:
        src = files.write(f"{kind}_{j}", operator_to_json(
            random_operator(dims, m, _draw(seed, sid, j), norms)))
        check = _exact_operator_norm if kind.startswith("enum") else None
        argv = ["summing", src, "--seed", s, "--p", repr(p)] + SUMMING_BUDGET
        out.append(files.cli(kind, j, argv, check, _report_bracket))

    src = files.write(f"hs_{j}", operator_to_json(random_operator((3, 3), 2, _draw(seed, 5, j))))
    argv = ["hs", src, "--sandwich", "--p", "3", "--seed", s] + SUMMING_BUDGET
    out.append(files.cli("hs_sandwich", j, argv))

    kernel = symmetrize_kernel(_draw(seed, 6, j).standard_normal((3, 3, 1)))
    src = files.write(f"poly_{j}", operator_to_json(MultilinearOperator.from_array(kernel)))
    argv = ["poly", src, "--p", "2", "--seed", s] + SUMMING_BUDGET
    out.append(files.cli("poly", j, argv, None, _report_bracket))

    src = files.write(f"lambda2_{j}", operator_to_json(lambda_n(2)))
    argv = ["summing", src, "--seed", s, "--p", "1"] + SUMMING_BUDGET
    out.append(files.cli("lambda2", j, argv, _unit_bracket, _report_bracket))
    return out


def _verify(seed: int, files: _Files, j: int) -> list[Instance]:
    argv = ["verify", "--seed", _run_seed(seed, j), "--trials", str(VERIFY_TRIALS)]
    return [files.cli("verify", j, argv, _verify_passed)]


DNORM_SHAPES = [  # (dims, m, p)
    ((2, 2), 2, 2.0),
    ((3, 3), 2, 2.0),
    ((3, 3, 2), 2, 2.0),
    ((3, 3, 2), 2, 3.0),
    ((2, 2, 2), 3, 1.5),
]


def _dnorm(seed: int, files: _Files, j: int) -> list[Instance]:
    out = []
    for i, (dims, m, p) in enumerate(DNORM_SHAPES):
        kind = f"{'x'.join(map(str, dims))}_{m}_p{p:g}"
        z = random_mixed(dims, m, stream(seed, 10, i, j), NormSpec.all_l2(len(dims)))
        src = files.write(f"{kind}_{j}", mixed_to_json(z))
        argv = ["dnorm", src, "--p", repr(p), "--seed", _run_seed(seed, j)] + DNORM_BUDGET
        out.append(files.cli(kind, j, argv, None, _report_bracket))
    return out


DENOMINATOR_KINDS = [  # (factor norms, p); n = 2 on (3, 3), n = 3 on (2, 2, 2)
    ((2.0, 2.0), 1.0),
    ((INF, 2.0), 2.0),
    ((1.0, INF), 4.0),
    ((2.0, 2.0, 2.0), 1.0),
    ((INF, 1.0, 2.0), 2.0),
    ((1.0, 1.0, 2.0), 4.0),
]


def _library_outcome(*reports) -> Outcome:
    payload = repr([(r.certified_lower, r.heuristic_lower, r.certified_upper, r.method)
                    for r in reports]).encode()
    return Outcome(payload, [(r.certified_lower, r.certified_upper) for r in reports])


def _bind_denominator(op, cfg, p, norms, run_seed) -> Callable[[], Outcome]:
    def run() -> Outcome:
        den = pilip.config_denominator(cfg, p, "op", norms, seed=run_seed, restarts=16)
        low = pilip.lower_bound_config(op, cfg, p, "op", seed=run_seed, restarts=16)
        return _library_outcome(den, low)
    return run


def _denominator(seed: int, files: _Files, j: int) -> list[Instance]:
    out = []
    for i, (factors, p) in enumerate(DENOMINATOR_KINDS):
        dims = (3, 3) if len(factors) == 2 else (2, 2, 2)
        rng = stream(seed, 20, i, j)
        cfg = random_pairs(dims, 6, rng)
        norms = NormSpec(factors, 2.0)
        op = random_operator(dims, 2, rng, norms)
        kind = "config_" + "_".join("linf" if r == INF else f"l{r:g}" for r in factors)
        out.append(Instance(f"{kind}_p{p:g}", j,
                            _bind_denominator(op, cfg, p, norms, child_seed(seed, 21, i, j))))

    op = random_operator((3, 3, 3), 2, stream(seed, 22, j))
    src = files.write(f"norm_{j}", operator_to_json(op))
    out.append(files.cli("norm_3x3x3_2", j, ["norm", src, "--seed", _run_seed(seed, j)], None,
                         _report_bracket))
    return out


WORKLOADS: dict[str, Callable[[int, _Files, int], list[Instance]]] = {
    "summing": _summing,
    "verify": _verify,
    "dnorm": _dnorm,
    "denominator": _denominator,
}


def build(workload: str, seed: int, tmp: str) -> list[list[Instance]]:
    """The workload's batches at `seed`; instance files go under `tmp`."""
    files = _Files(tmp)
    return [WORKLOADS[workload](seed, files, j) for j in range(BATCHES[workload])]


def warm_up(workload: str, tmp: str) -> None:
    """One small call through the workload's entry point."""
    if workload == "denominator":
        cfg = random_pairs((2, 2), 2, stream(0, 99))
        pilip.config_denominator(cfg, 2.0, "op", seed=0, restarts=2)
    else:
        src = _Files(tmp).write("warm_up", operator_to_json(lambda_n(2)))
        _cli(["norm", src], os.path.join(tmp, "warm_up.out.json"))


def check(outcome: Outcome, previous: bytes | None) -> list[str]:
    """Every failed check of one instance run (empty when it is correct)."""
    problems = list(outcome.problems)
    for lo, up in outcome.brackets:
        if not (math.isfinite(lo) and math.isfinite(up)):
            problems.append(f"non-finite end: [{lo}, {up}]")
        elif lo <= 0:  # every instance is nonzero, so a certified lower end is > 0
            problems.append(f"lower end not positive: [{lo}, {up}]")
        elif lo > up:
            problems.append(f"bracket crosses: {lo} > {up}")
    if previous is not None and outcome.payload != previous:
        problems.append("report bytes differ from the previous pass")
    return problems
