"""Benchmark of the gelfand package: three user jobs, end to end and per layer.

    python3 bench/run.py --workload branch_disk --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Workloads, metrics and the layer predictions are
documented in bench/README.md.

Every time is read from `clock.SpeedClock`: seconds at the host's reference
speed, which takes out the slow phases of a shared virtual machine.
With `--trace 0` the run times untraced operations and prints the end-to-end
metrics.  With `--trace 1` it alternates untraced and traced operations and
prints the per-layer metrics of the traced ones plus the tracing overhead.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a JSON
report with every operation, the environment and the checks.
"""

import os

# one thread in every BLAS/OpenMP pool, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_UNTRACED_OPS = 3
# traced runs: an untraced operation first, then two traced ones, then
# alternating while the time budget lasts
TRACED_PATTERN = (False, True, True)
SETUP_SAMPLES = 5
WARMUP_POLICY = ("one untimed operation of the same workload on a coarse mesh "
                 f"(h_max = 0.14) before any timing; then {SETUP_SAMPLES} timed "
                 "stand-alone set-ups (untraced runs only); every timed operation "
                 "builds its own problem, so no state carries over between them; "
                 "the speed probes run from the first timed set-up to the end")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# op_raw_s: set-up plus work of one operation on the wall clock, for comparison
REPORTED_ONLY = {"op_raw_s": "s", "failed_frac": "ratio", "oracle_relerr_max": "ratio"}


def _import_package():
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import gelfand
        import gelfand.cli  # noqa: F401  (cli is not imported by the package)
    except ImportError as e:
        sys.exit(f"bench: cannot import gelfand from {SRC}: {e}")
    if not Path(gelfand.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: gelfand was imported from {gelfand.__file__}, not {SRC}")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "gelfand").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, work_dir, seconds, traced, clock):
    """Run operations until the next one would overrun the time budget."""
    from tracing import Recorder
    from workloads import Op

    recorder = Recorder(clock.now) if traced else None
    ops, layers = [], []
    t_start = perf_counter()
    while True:
        i = len(ops)
        with_trace = traced and (TRACED_PATTERN[i] if i < len(TRACED_PATTERN)
                                 else i % 2 == 0)
        out_dir = os.path.join(work_dir, f"op{i}")
        os.makedirs(out_dir)
        gc.collect()           # start every operation from the same clean heap
        t_op, raw_op = perf_counter(), clock.raw()
        if with_trace:
            recorder.install()
            close = recorder.op()
        try:
            op = workload.op(out_dir)
        except Exception:      # a crash is a failed operation, not a lost run
            op = Op(0.0, 0.0, 1, [traceback.format_exc()])
        finally:
            if with_trace:
                span_range = close()
                recorder.uninstall()
        op.raw_s = clock.raw() - raw_op
        op.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op.real_s = perf_counter() - t_op
        if with_trace:
            layers.append(recorder.layer_metrics(span_range))
        op.traced = with_trace
        ops.append(op)
        shutil.rmtree(out_dir)
        elapsed = perf_counter() - t_start
        n_untraced = sum(not o.traced for o in ops)
        done = (len(layers) >= 2 and n_untraced >= 1) if traced \
            else n_untraced >= MIN_UNTRACED_OPS
        typical = _median([o.real_s for o in ops])
        if done and elapsed + typical > seconds:
            return ops, layers, recorder


def layer_summary(ops, layers, recorder):
    """Per-layer metrics: medians over traced operations, counts checked exact."""
    from tracing import EXACT_COUNTS, LAYER_METRICS

    metrics, absent, exact, mismatched = {}, [], [], {}
    for name, unit in LAYER_METRICS.items():
        values = [m[name] for m in layers]
        if any(v is None for v in values):
            absent.append(name)
            continue
        if name in EXACT_COUNTS:
            if len(set(values)) == 1:
                exact.append(name)
            else:
                mismatched[name] = values
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced = [o.wall_s for o in ops if o.traced]
    untraced = [o.wall_s for o in ops if not o.traced]
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "unit": "ratio"}
    detail = {"exact_counts": exact, "count_mismatch": mismatched,
              "absent_metrics": absent, "absent_hooks": recorder.absent_hooks,
              "hook_sites": recorder.sites}
    return metrics, detail


def fingerprint_failures(ops):
    """Outputs must repeat exactly across operations, traced or not."""
    ref = next((o.fingerprint for o in ops if o.fingerprint is not None), None)
    bad = [i for i, o in enumerate(ops)
           if o.fingerprint is not None and o.fingerprint != ref]
    return [f"operation {i}: outputs differ from the first operation" for i in bad]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("branch_disk", "mu_sweep", "freeenergy_chain"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from clock import PROBE_REF_S, SpeedClock
    from workloads import WORKLOADS

    clock = SpeedClock()
    # inside the checkout, so the run writes nowhere else
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work_dir:
        workload = WORKLOADS[args.workload](work_dir, args.seed, clock.now)
        try:
            warm = workload.warmup()
            clock.start()
            setups = [] if args.trace else [workload.setup_once()
                                            for _ in range(SETUP_SAMPLES)]
            ops, layers, recorder = measure(workload, work_dir, args.seconds,
                                            bool(args.trace), clock)
        finally:
            clock.stop()
            workload.close()

    failures = warm.failures + [f for o in ops for f in o.failures]
    repeat_failures = fingerprint_failures(ops)
    attempted = warm.attempted + sum(o.attempted for o in ops)
    failed = len(failures)
    untraced = [o for o in ops if not o.traced]
    e2e = {
        "wall_s": _median([o.wall_s for o in untraced]),
        "setup_s": _median(setups + [o.setup_s for o in untraced]),
        "op_raw_s": _median([o.raw_s for o in untraced]),
        # the high-water mark creeps up with every operation and jumps when a
        # speed probe lands on the package's own peak, so it is read at a
        # fixed point that every untraced run reaches: after its third
        # operation (the last one that a traced run made, if it made fewer)
        "peak_rss_mb": untraced[:MIN_UNTRACED_OPS][-1].rss_mb,
        "failed_frac": failed / attempted,
        "oracle_relerr_max": max(o.relerr for o in ops),
    }
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": environment(args.seed), "warmup_policy": WARMUP_POLICY,
        "end_to_end": {k: {"value": e2e[k], "unit": u}
                       for k, u in {**END_TO_END, **REPORTED_ONLY}.items()},
        "setup_samples": setups,
        "clock": {"probe_ref_s": PROBE_REF_S, "probes": len(clock.probe_times),
                  "probe_s_min_median_max": [
                      min(clock.probe_times), statistics.median(clock.probe_times),
                      max(clock.probe_times)]},
        "ops": [{"traced": o.traced, "setup_s": o.setup_s, "wall_s": o.wall_s,
                 "raw_s": o.raw_s, "peak_rss_mb": o.rss_mb,
                 "attempted": o.attempted, "failed": len(o.failures),
                 "oracle_relerr": o.relerr} for o in ops],
        "failures": (failures + repeat_failures)[:20],
    }
    if args.trace:
        metrics, report["trace_detail"] = layer_summary(ops, layers, recorder)
        report["per_layer_ops"] = layers
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and not repeat_failures,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
