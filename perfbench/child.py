"""The workload process started by ``run.py``.

    python3 perfbench/child.py --role setup   --workload W --seed S --tmp DIR
    python3 perfbench/child.py --role measure --workload W --seed S --tmp DIR \
        --seconds T --trace 0|1

Both roles time set-up (importing pilip, building the instances, one small
warm-up call).  ``setup`` prints it and exits.  ``measure`` prints it with
the machine record, then runs passes as a closed loop (one caller; each
instance starts when the previous one has finished), one batch per pass,
cycling over the batches until ``--seconds`` is used up (see ``measure``).
Each pass is printed as one JSON line as soon as it ends, and so are the
per-layer metrics of each traced cycle, so that a run killed at its time
limit still leaves every pass it finished.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _blas() -> dict:
    """BLAS library, version and the thread count it actually uses."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        info = {"name": None, "version": None}
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:  # not Linux: the thread count stays unknown
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def one_pass(batch, previous: dict[str, bytes]) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    walls, cpus, gaps, failures = {}, {}, {}, {}
    for inst in batch:
        t, c = time.perf_counter(), time.process_time()
        try:
            outcome = inst.run()
        except Exception as exc:  # an instance that raises is a failed instance
            outcome = workloads.Outcome(b"", [], [f"raised {type(exc).__name__}: {exc}"])
        walls[inst.name] = time.perf_counter() - t
        cpus[inst.name] = time.process_time() - c
        problems = workloads.check(outcome, previous.get(inst.name))
        if problems:
            failures[inst.name] = problems
        else:
            previous[inst.name] = outcome.payload
            gaps[inst.name] = [math.log(up / lo) for lo, up in outcome.brackets]
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0,
            "instance_s": walls, "instance_cpu_s": cpus, "log_gaps": gaps,
            "failures": failures}


def measure(batches, seconds: float, trace: bool, emit) -> None:
    """Closed loop over the batches, one batch per pass, every pass emitted
    as it ends.  With ``trace``, untraced and traced cycles (one pass over
    every batch) alternate, starting untraced, so the tracing overhead is
    measured in the same process on the same instances.

    The loop stops at the first period end (a pass untraced, an untraced
    plus a traced cycle traced) after which one more period would exceed
    `seconds`; it runs at least one full cycle and a repeat of batch 0
    (untraced) or one cycle of each kind (traced), so that every run
    compares report bytes."""
    n = len(batches)
    period, minimum = (2 * n, 2 * n) if trace else (1, n + 1)
    tracer = tracing.Tracer()
    previous: dict[str, bytes] = {}
    deadline = time.perf_counter() + seconds
    t_period = time.perf_counter()
    i = 0
    while True:
        traced = trace and (i // n) % 2 == 1
        if traced and i % n == 0:
            tracer.install()
        p = one_pass(batches[i % n], previous)
        p["batch"] = i % n
        emit({"pass": p, "traced": traced})
        i += 1
        if traced and i % n == 0:
            tracer.uninstall()
            emit({"layers": tracing.layer_metrics(*tracer.drain())})
        if i % period == 0:
            now = time.perf_counter()
            if i >= minimum and now + (now - t_period) > deadline:
                return
            t_period = now


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["setup", "measure"], required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    batches = workloads.build(args.workload, args.seed, args.tmp)
    workloads.warm_up(args.workload, args.tmp)
    setup_s = time.perf_counter() - _T0
    if args.role == "setup":
        _emit({"setup_s": setup_s})
        return

    _emit({
        "setup_s": setup_s,
        "machine": machine(),
        "instances": [[inst.name, inst.kind] for batch in batches for inst in batch],
        "batches": len(batches),
    })
    measure(batches, args.seconds, bool(args.trace), _emit)


if __name__ == "__main__":
    main()
