"""One benchmark pass in a fresh process; prints its report as one JSON line.

Started by ``run.py``, once per pass, so that ``setup_s`` includes importing
``repro`` and the peak RSS belongs to this pass alone::

    python3 e2ebench/worker.py --workload audited-cell --seed 1 --pass 0 \\
        --trace 0 --out .e2ebench-out

Set-up is timed from the first line of this file (before any ``repro``
import) to the first timed call of the workload.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cells  # noqa: E402
from catalog import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(cells.SIZES), default="full")
    parser.add_argument("--out", required=True, help="directory for work files and spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    workdir = os.path.join(args.out, "work", f"{args.workload}-{os.getpid()}")
    try:
        inputs = cells.prepare(args.workload, args.seed, args.pass_index, args.scale, workdir)
        setup_s = time.perf_counter() - _START
        report = cells.run(args.workload, inputs, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux.
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["spans"] = tracer.per_name()
        report["tallies"] = tracer.tallies
        spans_dir = os.path.join(args.out, "spans", args.workload)
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(
            os.path.join(spans_dir, f"seed{args.seed}-pass{args.pass_index}.jsonl.gz")
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
