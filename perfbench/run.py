"""End-to-end and per-layer benchmark of the MGA tuner.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 \\
        --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (0 for a layer the workload bypasses)
and writes the spans to ``.perfbench/trace-<workload>-<seed>.json``.  The
last stdout line is the result object; the line before it reports each
phase (sent, succeeded, failed) and each output check.  The exit code is 1
when an output check fails and 2 when the program cannot be found.
Workload settings live in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

#: one BLAS thread per process, set before numpy loads: the two daemon
#: workers and the load generator already fill a two-core machine, and more
#: threads than cores would time the scheduler instead of the program
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: working files inside the checkout (registry, socket, traces)
WORK_DIR = ".perfbench"


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    settings = config["workloads"].get(args.workload)
    if settings is None:
        print(f"perfbench: unknown workload {args.workload!r} (known: "
              f"{', '.join(config['workloads'])})", file=sys.stderr)
        return 2

    import workloads

    # a SIGTERM unwinds like an error, so the daemon process is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # relative paths keep the daemon's unix socket path short
    os.chdir(ROOT)
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        # numpy seeds must be non-negative; any integer names a workload
        outcome = workloads.serve(settings, config["common"],
                                  args.seed % (1 << 32), args.seconds,
                                  bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        declared, values = benchmark["per_layer"], outcome["layers"]
        outcome["recorder"].dump(os.path.join(
            WORK_DIR, f"trace-{args.workload}-{args.seed}.json"))
    else:
        declared, values = benchmark["end_to_end"], outcome["e2e"]
    unknown = sorted(set(values) - {m["name"] for m in declared})
    missing = [m["name"] for m in declared
               if m["name"] not in values and not args.trace]
    if unknown or missing:
        raise KeyError(f"metrics not declared: {unknown}; "
                       f"not measured: {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    correct = all(outcome["checks"].values())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "checks": outcome["checks"],
                      "report": outcome["report"]}))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
