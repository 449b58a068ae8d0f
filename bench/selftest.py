"""Self-test of the tracing: every hook fires where the layer table predicts.

    python3 bench/selftest.py

For each workload it makes two traced runs of seed 0, each in a fresh
process, and checks that

  * both runs pass their correctness checks;
  * every per-layer metric is non-zero on the workloads where
    `tracing.PREDICTED_WORK` names work and zero on the others;
  * every machine-independent count is identical across the two runs and
    was exact across the traced operations inside each run;
  * `trace.overhead_frac` is reported.

Layers whose hook target no longer exists are listed as absent; they are
reported, not failed, since no value can be predicted for them.  Exits 1 when
any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

from tracing import EXACT_COUNTS, LAYER_METRICS, PREDICTED_WORK

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("branch_disk", "mu_sweep", "freeenergy_chain")
SEED = 0


def traced_run(workload, seed):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=BENCH_DIR.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report), json.loads(result)


def check_workload(workload, seed):
    problems, absent = [], set()
    runs = [traced_run(workload, seed) for _ in range(2)]
    for k, (report, result) in enumerate(runs):
        detail = report["trace_detail"]
        absent.update(detail["absent_metrics"])
        if not result["correct"]:
            problems.append(f"run {k}: outputs failed their checks: {report['failures']}")
        if detail["count_mismatch"]:
            problems.append(f"run {k}: counts differ between traced operations: "
                            f"{detail['count_mismatch']}")
        if "trace.overhead_frac" not in result["metrics"]:
            problems.append(f"run {k}: trace.overhead_frac missing")
        for name, busy_on in PREDICTED_WORK.items():
            if name not in result["metrics"]:
                continue
            value = result["metrics"][name]["value"]
            if workload in busy_on and not value > 0:
                problems.append(f"run {k}: {name} = {value}, predicted work")
            elif workload not in busy_on and value != 0:
                problems.append(f"run {k}: {name} = {value}, predicted none")
    first, second = (r[1]["metrics"] for r in runs)
    for name in EXACT_COUNTS:
        if name in first and name in second and \
                first[name]["value"] != second[name]["value"]:
            problems.append(f"{name} differs across runs: {first[name]['value']} "
                            f"vs {second[name]['value']}")
    return problems, sorted(absent)


def main():
    if set(PREDICTED_WORK) != set(LAYER_METRICS):
        sys.exit("selftest: the prediction table does not cover every layer metric")
    failed = False
    for workload in WORKLOADS:
        problems, absent = check_workload(workload, SEED)
        status = "FAIL" if problems else "ok"
        print(f"{workload}: {status}" + (f" (absent: {', '.join(absent)})" if absent else ""))
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
