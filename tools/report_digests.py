"""The sha256 of every benchmark payload, to tell which report bytes a change moves.

    python3 tools/report_digests.py --seed 0 5 --out digests.json
    python3 tools/report_digests.py --diff before.json after.json

Run from anywhere in a pilip source tree: pilip is imported from its ``src/`` and the
instances from ``perfbench/workloads.py``, which this script only reads.  Every payload of
``workloads.build`` at each seed, over every workload, is run once and hashed.  The
instance files go under one fixed directory in the system temp dir, so the input paths
that the CLI reports record are the same from checkout to checkout, and two trees hash
alike where their reports agree.  Two runs must not share that directory at once.

The output maps "workload/seed/kind/batch" to the hex digest of the payload, with the
keys sorted.  ``--diff A B`` prints the keys whose digests differ, or that only one file
holds, one per line, and exits 1 when there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(tempfile.gettempdir(), "pilip_report_digests")


def digests(seeds: list[int]) -> dict[str, str]:
    """The digest of every payload of every workload at each seed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    out = {}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                for batch in workloads.build(name, seed, WORK_DIR):
                    for inst in batch:
                        payload = inst.run().payload
                        out[f"{name}/{seed}/{inst.name}"] = hashlib.sha256(payload).hexdigest()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return dict(sorted(out.items()))


def moved(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The keys whose digests differ between a and b, or that only one of them holds."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    ap.add_argument("--out", help="write the digests here (default: standard output)")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="list the payloads whose digests differ between two digest files")
    args = ap.parse_args(argv)
    if args.diff:
        with open(args.diff[0]) as fa, open(args.diff[1]) as fb:
            keys = moved(json.load(fa), json.load(fb))
        for k in keys:
            print(k)
        return 1 if keys else 0
    text = json.dumps(digests(args.seed), indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
