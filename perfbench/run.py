"""dpadapt benchmark: closed-loop workloads, end-to-end metrics, traced per-layer timings.

    python3 perfbench/run.py --workload nsi-desk --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from ./src.
One worker runs trials back to back (a closed loop) until the next trial
would overrun --seconds. --trace 0 prints the end-to-end metrics; --trace 1
runs every trial twice, untraced and traced in alternating order, and prints
the per-layer metrics and the tracing overhead, and fails any operation whose
traced rejections differ from the untraced ones. The last line of stdout is
the result object; the line before it carries the run environment, per-arm
latencies (scaled and raw), failures, statistical quality and, when traced,
every per-layer metric with its per-arm breakdown. Both are also written to
perfbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = "import dpadapt, dpadapt.cli; dpadapt.bh([0.01, 0.5], 0.1)"


def measure_setup_s(probe) -> tuple[float, float]:
    """Median time for a fresh interpreter to import dpadapt and make a first call,
    raw and on the SpeedProbe scale."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
        end = time.perf_counter()
        probe.mark()
        ms, scaled_ms = probe.measure(start, end)
        raw.append(ms / 1e3)
        scaled.append(scaled_ms / 1e3)
    return statistics.median(raw), statistics.median(scaled)


def environment(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workers": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
    }


def quality(trials, arms, k) -> dict:
    """Mean FDP and power per arm over the first k trials, with Monte Carlo standard errors."""
    out = {"trials": min(k, len(trials))}
    for arm in arms:
        fdps, powers = [], []
        for t in trials[:k]:
            for a in t.arms:
                if a.arm == arm and a.rejected is not None:
                    truth = t.labels[a.rejected]
                    fdps.append(float((~truth).sum()) / max(a.rejected.size, 1))
                    powers.append(float(truth.sum()) / max(int(t.labels.sum()), 1))
        for key, vals in (("fdr", fdps), ("power", powers)):
            se = statistics.stdev(vals) / len(vals) ** 0.5 if len(vals) > 1 else None
            out[f"{key}.{arm}"] = {"mean": statistics.fmean(vals) if vals else None, "se": se}
    return out


def run_trials(wl, seconds, capture, probe, tracer):
    """Closed loop over trials; with a tracer, each trial runs untraced and traced."""
    import numpy as np

    untraced, traced, costs = [], [], []
    while not costs or sum(costs) + statistics.median(costs) <= seconds:
        i = len(costs)
        start = time.perf_counter()
        if tracer is None:
            untraced.append(wl.run_trial(i, capture, probe))
        else:
            for traced_pass in (False, True) if i % 2 == 0 else (True, False):
                if not traced_pass:
                    untraced.append(wl.run_trial(i, capture, probe))
                    continue
                tracer.trial = i
                tracer.install()
                try:
                    traced.append(wl.run_trial(i, capture, probe, tracer))
                finally:
                    tracer.uninstall()
            for a, b in zip(untraced[-1].arms, traced[-1].arms):
                if a.rejected is not None and b.rejected is not None and not np.array_equal(a.rejected, b.rejected):
                    b.errors += (f"trial {i} {b.arm}: traced rejections differ from untraced",)
        costs.append(time.perf_counter() - start)
    return untraced, traced, sum(costs)


def run(args) -> tuple[dict, dict, int, int]:
    import tracing
    import workloads
    from speed import SpeedProbe

    wl = workloads.make(args.workload)
    probe = SpeedProbe()
    raw_setup_s, setup_s = measure_setup_s(probe) if args.trace == 0 else (None, None)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    patcher = tracing.Patcher()
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl.prepare(args.seed, workdir)
        capture = workloads.Capture(patcher)
        untraced, traced, spent = run_trials(wl, args.seconds, capture, probe, tracer)
    finally:
        patcher.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [a for t in untraced + traced for a in t.arms]
    attempted = len(ops)
    failed = sum(1 for a in ops if a.errors)
    arm_ms = {}
    for arm in wl.arms:
        ok = [a for t in untraced for a in t.arms if a.arm == arm and not a.errors]
        arm_ms[arm] = {
            "p50": statistics.median(a.scaled_ms for a in ok) if ok else None,
            "raw_p50": statistics.median(a.ms for a in ok) if ok else None,
            "n": len(ok),
            "scaled": [a.scaled_ms for a in ok],
            "raw": [a.ms for a in ok],
        }
    trial_ms = [t.scaled_ms for t in untraced]
    detail = {
        "workload": wl.name,
        "env": environment(args, wl),
        "trials": len(untraced),
        "measured_s": spent,
        "fail_frac": failed / attempted,
        "failures": [e for a in ops for e in a.errors][:10],
        "arm_ms": arm_ms,
        "trial_ms": {"p50": statistics.median(trial_ms), "raw_p50": statistics.median(t.ms for t in untraced),
                     "n": len(trial_ms)},
        "quality": quality(untraced, wl.arms, wl.quality_trials),
    }
    if tracer is None:
        detail["raw_setup_s"] = raw_setup_s
        metrics = {
            "setup_s": setup_s,
            "trials_per_s": 1e3 * len(trial_ms) / sum(trial_ms),
            "dp-adapt_ms_p50": arm_ms["dp-adapt"]["p50"],
            "dp-bh_ms_p50": arm_ms["dp-bh"]["p50"],
            "nonprivate_ms_p50": arm_ms[wl.nonprivate_arm]["p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        layer_names = list(json.loads((BENCH_DIR / "layers.json").read_text()))
        metrics, per_arm = tracing.summarize(tracer.per_op(), layer_names)
        metrics["trace.overhead_pct"] = 100.0 * (sum(t.scaled_ms for t in traced) / sum(trial_ms) - 1.0)
        detail["layers_per_arm"] = per_arm
        tracer.write_spans(out_dir / f"spans-{wl.name}-seed{args.seed}.csv")
    detail["metrics"] = metrics
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    return detail, metrics, attempted, failed


def result_line(metrics: dict, attempted: int, failed: int, trace: int) -> dict:
    """Keep the metrics BENCHMARK.json lists for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark does not compute {missing}")
    values = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    correct = failed == 0 and all(v["value"] is not None for v in values.values())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("nsi-desk", "grid-desk", "csv-100k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "dpadapt" / "__init__.py").is_file():
        print(f"no dpadapt sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # Cap BLAS threads before numpy loads; the setup subprocesses inherit the cap.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import dpadapt

    if Path(dpadapt.__file__).resolve().parent != SRC / "dpadapt":
        print(f"dpadapt imported from {dpadapt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    detail, metrics, attempted, failed = run(args)
    result = result_line(metrics, attempted, failed, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
