"""The repo's benchmark: SABRE on the paper's Table-II workload, run
in-process and through ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload compile_table2 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run.  Human-readable tables and host
metadata go to stdout first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code
0 means every output passed its checks; a refused request is counted in
``failed`` and ``ok_share`` but is not a wrong output.

``--self-test`` runs every workload at minimal size in both modes and
asserts that every metric ``BENCHMARK.json`` names is measured: each
end-to-end metric by every workload, each per-layer metric by at least
one.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
#: The workloads, metric names, units and bounds.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def import_program():
    """Put ``src/`` on the path and import the workloads; exit 2 with a
    message (and no result line) when the program is not there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import workloads

    return workloads


def host_metadata(args, outcome) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **outcome.info,
    }


def run_once(args, tiny: bool = False):
    workloads = import_program()
    workdir = os.path.join(".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            workloads.Run(
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                workdir=workdir,
                tiny=tiny,
            )
        )
        if args.trace:
            keep = os.path.join(".perfbench-work", f"spans-{args.workload}.json")
            if os.path.exists(os.path.join(workdir, "spans.json")):
                shutil.copyfile(os.path.join(workdir, "spans.json"), keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for row in SPEC["per_layer" if args.trace else "end_to_end"]:
        value = outcome.metrics.get(row["name"], 0.0)
        metrics[row["name"]] = {"value": value, "unit": row["unit"]}
    return outcome, metrics


def report(args, outcome, metrics) -> Dict[str, object]:
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(host_metadata(args, outcome), sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def self_test() -> int:
    """Every workload at minimal size, both modes: every output correct,
    and every metric ``BENCHMARK.json`` names measured somewhere."""
    import types

    layers_measured = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = types.SimpleNamespace(workload=workload, seed=7, seconds=1, trace=trace)
            outcome, metrics = run_once(args, tiny=True)
            result = report(args, outcome, metrics)
            assert result["correct"], (workload, trace, outcome.problems)
            for name, entry in metrics.items():
                assert isinstance(entry["value"], (int, float)), (workload, name)
                if not trace:
                    assert name in outcome.metrics, (workload, "measured no", name)
            if trace:
                layers_measured.update(outcome.metrics)
    missing = {row["name"] for row in SPEC["per_layer"]} - layers_measured
    assert not missing, f"no workload measures {sorted(missing)}"
    print("self-test ok")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    outcome, metrics = run_once(args)
    result = report(args, outcome, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
