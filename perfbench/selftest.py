"""Short-mode self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 3]

Runs every workload briefly, untraced and traced, and asserts that:

* every metric of ``BENCHMARK.json`` is printed with its unit, in a result
  line of exactly the agreed shape;
* the output checks ran and passed;
* the workloads split the layers as designed: the engine result cache
  answers everything on ``serve_hot`` and nothing on ``serve_cold``, only
  ``serve_cold`` reaches ``MGAModel.predict``, and both replay the
  training tape;
* without the program's sources the benchmark fails without a result.

Takes a few minutes, almost all of it model fits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHECKS = {"loss_finite", "generator_on_schedule", "no_worker_restarts",
          "daemon_matches_engine"}
TRACED_CHECKS = CHECKS | {"replay_matches_daemon", "trace_preserves_training"}


def run(workload: str, seconds: float, trace: int, cwd: str = ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_run(workload: str, seconds: float, trace: int,
              declared: list) -> dict:
    done = run(workload, seconds, trace)
    assert done.returncode == 0, (workload, trace, done.stderr[-3000:])
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = TRACED_CHECKS if trace else CHECKS
    assert set(report["checks"]) == expected, report["checks"]
    assert all(report["checks"].values()), report["checks"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == units, result["metrics"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    print(f"ok  {workload} trace={trace}: {len(values)} metrics, "
          f"{result['attempted']} requests, checks {sorted(expected)}")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "workloads.json")) as handle:
        workloads = json.load(handle)["workloads"]
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads)

    layers = {}
    for name in workloads:
        check_run(name, args.seconds, 0, benchmark["end_to_end"])
        layers[name] = check_run(name, args.seconds, 1,
                                 benchmark["per_layer"])
    hot, cold = layers["serve_hot"], layers["serve_cold"]
    assert hot["engine.memo_hit_rate"] >= 0.99, hot
    assert cold["engine.memo_hit_rate"] <= 0.01, cold
    assert hot["mga.predict.calls"] == 0 < cold["mga.predict.calls"]
    assert hot["tape.replays"] > 0 and cold["tape.replays"] > 0
    print(f"ok  layer split: memo hit rate {hot['engine.memo_hit_rate']:.3f} "
          f"hot, {cold['engine.memo_hit_rate']:.3f} cold; predict calls "
          f"{hot['mga.predict.calls']:.0f} hot, "
          f"{cold['mga.predict.calls']:.0f} cold; tape replays "
          f"{hot['tape.replays']:.0f}")

    bare = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run("serve_hot", args.seconds, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  without the program: exit code", done.returncode,
          "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
