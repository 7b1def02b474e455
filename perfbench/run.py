#!/usr/bin/env python3
"""The repository benchmark: four workloads behind one command.

    python3 perfbench/run.py --workload parallel_cold --seed 1 --seconds 15 --trace 0

Workloads: ``parallel_cold``, ``network_mop``, ``serve_mixed``,
``study_sweep`` (see README.md).  Run from any directory; the checkout
root is the parent of this file, and the program is imported from its
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it replays the workload with spans around each public call
and reports the per-layer metrics instead.

Standard output ends with three blocks: a JSON line with the workload's
named metrics and run details, a human table, and as the last line the
result ``{"correct", "attempted", "failed", "metrics"}``.  Every file the
run writes stays under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = {
    "parallel_cold": "wl_parallel",
    "network_mop": "wl_network",
    "serve_mixed": "wl_serve",
    "study_sweep": "wl_study",
}
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src / 'repro'}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    # Temporary files of this process and of the cluster workers it spawns
    # land inside the checkout too.
    os.environ["TMPDIR"] = str(run_dir / "tmp")

    start = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    for name in module.IMPORTS:
        importlib.import_module(name)
    import_s = time.perf_counter() - start

    try:
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            outcome = module.trace(
                args.seed, args.seconds, run_dir,
                traces / f"{args.workload}-seed{args.seed}.json")
            units = harness.PER_LAYER
            values = {name: 0.0 for name in units}
            values.update(outcome.metrics)
        else:
            outcome = module.run(args.seed, args.seconds, SETUP_REPS,
                                 import_s, run_dir)
            units = harness.END_TO_END
            values = outcome.metrics
    except harness.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = outcome.tally
    named = dict(outcome.named)
    named["error_rate"] = tally.error_rate
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "wrong": tally.wrong,
        "named_metrics": {} if args.trace else {
            name: {"value": named[name], "unit": unit}
            for name, unit in harness.NAMED.items() if name in named},
        "details": outcome.details, "failures": tally.notes,
    }, default=float))
    if args.trace:
        print(harness.layer_table(values, units))
    else:
        print(harness.human_table([(args.workload, named)], harness.NAMED))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": harness.metric_block(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
