"""Run one benchmark workload; the last line of stdout is its result.

    python3 perfbench/run.py --workload solve-keepalive --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures with no spans and reports every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` is the separate traced
pass and reports every per-layer metric (a layer the workload bypasses
reads 0), then writes its spans to ``.perfbench-out/``.  The exit code
is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import common  # noqa: E402
from perfbench.spans import (self_seconds_by_name,  # noqa: E402
                             write_spans)

#: Workload name -> module running it.
WORKLOADS = {
    "solve-keepalive": "solve",
    "solve-prefork": "solve",
    "fig1-reproduce": "fig1",
    "jobs-drain": "drain",
}


def metric_table(trace: bool) -> List[Dict[str, Any]]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"no program sources under {common.SRC}", file=sys.stderr)
        return 2
    table = metric_table(bool(args.trace))
    sys.path.insert(0, common.SRC)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-",
                                dir=common.OUT_DIR)
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = work_dir
    try:
        module = importlib.import_module(
            f"perfbench.{WORKLOADS[args.workload]}")
        result = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), work_dir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)

    tally = result["tally"]
    measured = dict(result["metrics"])
    if args.trace:
        for entry in table:
            measured.setdefault(entry["name"], 0.0)
    missing = [entry["name"] for entry in table
               if entry["name"] not in measured]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    environment = common.environment(result.get("server_pids", ()))
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment,
              "outcomes": {"ok": tally.ok, "refused": tally.refused,
                           "failed": tally.failed, "wrong": tally.wrong,
                           "error_share": tally.error_share},
              **result.get("detail", {})}
    if args.trace:
        tracers = result.get("tracers", [])
        path = os.path.join(common.OUT_DIR,
                            f"spans-{args.workload}-seed{args.seed}.json")
        write_spans(path, {
            **detail,
            "self_seconds": [self_seconds_by_name(tracer.spans)
                             for tracer in tracers],
        }, tracers)
        detail["spans_file"] = os.path.relpath(path, common.ROOT)
    print(json.dumps({"detail": detail}))
    correct = tally.attempted > 0 and tally.errors == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.errors,
        "metrics": {entry["name"]: {"value": measured[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
