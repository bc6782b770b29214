"""Seeded end-to-end benchmark of pilip (stdlib and numpy only).

    python3 perfbench/run.py --workload summing --seed 0 --seconds 20 --trace 0

Run from the root of a pilip source tree; pilip is imported from ``src/``.
Workloads: summing, verify, dnorm, denominator (see perfbench/README.md).

The script starts the workload process (``child.py``) with BLAS pinned to
one thread: ``SETUP_SAMPLES - 1`` processes that only set up, then one that
sets up and measures.  ``setup_s`` is the median set-up time over all of
them.  The whole run ends within ``DEADLINE_S``: a measuring process still
running then is killed, and the run reports the passes it finished, with
the interrupted instance counted as failed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the machine, the settings and the name of every failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from tracing import PROPERTY_NAMES, TRACED, property_metric  # noqa: E402

WORKLOADS = ("summing", "verify", "dnorm", "denominator")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0          # the whole run, set-up included

END_TO_END = [  # (name, unit)
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("slowest_instance_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def _layer_units() -> list[tuple[str, str]]:
    units = []
    for _, _, name, _ in TRACED:
        units += [(name + ".calls", "count"), (name + ".self_s", "s")]
    for p in PROPERTY_NAMES:
        units += [(property_metric(p) + ".self_s", "s"), (property_metric(p) + ".total_s", "s")]
    units += [
        ("simplex.solve_lp.nonoptimal_frac", "ratio"),
        ("simplex.solve_lp.iteration_limit", "count"),
        ("simplex.solve_lp.cells_mean", "count"),
        ("summing.lp_per_certificate", "ratio"),
        ("summing.rounds_mean", "count"),
        ("summing.tight_stop_frac", "ratio"),
        ("summing.pairs_mean", "count"),
        ("summing.dictionary_mean", "count"),
        ("formnorm.denominator_log_gap_mean", "ln"),
        ("tensor_norm.terms_mean", "count"),
        ("serialize.bytes_out", "bytes"),
        ("trace.overhead_s", "s"),
        ("log_gap_mean", "ln"),
        ("failed_frac", "ratio"),
    ]
    return units


PER_LAYER = _layer_units()


def _git_sha(root: str) -> str | None:
    """HEAD of the tree if it is a git checkout (read without running git)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _setup_child(args: list[str], env: dict, deadline: float) -> float:
    proc = subprocess.run([sys.executable, CHILD] + args, env=env, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _measure_child(args: list[str], env: dict, deadline: float) -> tuple[list[dict], bool]:
    """The lines the measuring process printed, and whether it was killed
    at the deadline."""
    proc = subprocess.Popen([sys.executable, CHILD] + args, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killed = False
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    if proc.returncode != 0 and not killed:
        sys.stderr.write(err)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not any("pass" in line for line in lines):
        sys.stderr.write(err)
        raise SystemExit("workload process ended before it finished a pass")
    return lines, killed


def _median_pass(passes: list[dict], instances: list[list[str]], key: str) -> dict[str, float]:
    """Per kind, the median over batches of the instance's median time: the
    time each kind takes in a typical pass."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for name, t in p[key].items():
            samples.setdefault(name, []).append(t)
    by_kind: dict[str, list[float]] = {}
    for name, kind in instances:
        if name in samples:
            by_kind.setdefault(kind, []).append(statistics.median(samples[name]))
    return {kind: statistics.median(ts) for kind, ts in by_kind.items()}


def _batch_walls(passes: list[dict]) -> dict[int, float]:
    """Per batch, the median wall time of its whole passes."""
    walls: dict[int, list[float]] = {}
    for p in passes:
        walls.setdefault(p["batch"], []).append(p["wall_s"])
    return {b: statistics.median(w) for b, w in walls.items()}


def _metrics(plain: list[dict], traced: list[dict], layers: list[dict],
             instances: list[list[str]], setup_s: float, trace: bool) -> dict[str, float]:
    if not trace:
        wall = _median_pass(plain, instances, "instance_s")
        return {
            "wall_s": sum(wall.values()),
            "cpu_s": sum(_median_pass(plain, instances, "instance_cpu_s").values()),
            "setup_s": setup_s,
            "slowest_instance_s": max(wall.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    # a run killed before its first traced cycle ended has no layers
    whole = layers or [tracing.layer_metrics({}, {}, {}, {})]
    metrics = {k: statistics.median(c[k] for c in whole) for k in whole[0]}
    plain_b, traced_b = _batch_walls(plain), _batch_walls(traced)
    both = sorted(set(plain_b) & set(traced_b))
    metrics["trace.overhead_s"] = statistics.fmean(
        [traced_b[b] - plain_b[b] for b in both]) if both else 0.0
    first: dict[int, dict] = {}
    for p in plain:
        first.setdefault(p["batch"], p)
    gaps = [g for p in first.values() for gs in p["log_gaps"].values() for g in gs]
    metrics["log_gap_mean"] = statistics.fmean(gaps) if gaps else 0.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pilip", "__init__.py")):
        print("error: run from the root of a pilip source tree (src/pilip not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    deadline = time.monotonic() + DEADLINE_S
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
        setups = [_setup_child(["--role", "setup"] + common, env, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        lines, killed = _measure_child(["--role", "measure", "--seconds", str(args.seconds),
                                        "--trace", str(args.trace)] + common, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    head = lines[0]
    setups.append(head["setup_s"])
    instances = head["instances"]
    plain = [line["pass"] for line in lines if "pass" in line and not line["traced"]]
    traced = [line["pass"] for line in lines if "pass" in line and line["traced"]]
    layers = [line["layers"] for line in lines if "layers" in line]

    every = plain + traced
    failures: dict[str, list[str]] = {}
    for p in every:
        for name, problems in p["failures"].items():
            failures[name] = sorted(set(failures.get(name, [])) | set(problems))
    attempted = sum(len(p["instance_s"]) for p in every)
    failed = sum(len(p["failures"]) for p in every)
    if killed:  # the instance that was running when the process was killed
        attempted, failed = attempted + 1, failed + 1
        failures["(running)"] = ["measuring process killed at the time limit"]
    traced_b = _batch_walls(traced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "batches": head["batches"], "passes": len(plain),
        "traced_passes": len(traced), "instances": len(instances),
        "killed": killed,
        "git_sha": _git_sha(root), "src_lines": _src_lines(root), "machine": head["machine"],
        "setup_samples_s": setups,
        "median_pass_s": _median_pass(plain, instances, "instance_s"),
        "traced_cycle_s": sum(traced_b.values()) if traced_b else None,
        "failures": failures,
    }
    print(json.dumps({"record": record}))
    values = _metrics(plain, traced, layers, instances, statistics.median(setups),
                      bool(args.trace))
    values["failed_frac"] = failed / attempted
    spec = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
