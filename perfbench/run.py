"""Repo benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run warms the native-kernel compile
cache, then measures the workload in fresh interpreters (one per
iteration, same seed), as many iterations as fill ``--seconds`` at the
nominal iteration cost, and at least three. Host metrics are medians
over the iterations; simulated metrics must repeat exactly, which the
per-iteration digests check.
With ``--trace 1`` one more iteration runs with every layer entry point
wrapped in a span, and the per-layer metrics are reported instead.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The exit code is 0 only when every correctness and determinism check
passed. Everything the run writes goes under ``$CARGO_TARGET_DIR``
(default ``.bench_build``) in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: End-to-end metrics: name -> unit (BENCHMARK.json lists the same).
#: ``sim_us`` and ``1/sim_s`` are simulated (model) time, which repeats
#: exactly for a seed; ``s`` and ``us`` are host time.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_host_us_p50": "us",
    "op_host_us_p99": "us",
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    "goodput_rps": "1/sim_s",
    "served_ratio": "ratio",
    "stored_bytes_per_user_byte": "ratio",
}

WORKER_TIMEOUT_S = 170

#: Rough host seconds of one iteration (fresh interpreter, set-up and
#: timed region) on a 2-core x86 server; sets how many iterations fill
#: ``--seconds``. A constant, so the iteration count never depends on
#: how fast the machine happened to be.
NOMINAL_ITERATION_S = {
    "fleet-spike": 10.0,
    "pipeline-cascade": 8.0,
    "fig12-grid": 11.0,
}
MIN_ITERATIONS = 3


def iterations(workload: str, seconds: float) -> int:
    """Iterations per run: enough to fill ``seconds``, at least three so
    that the median shrugs off one disturbed iteration."""
    return max(MIN_ITERATIONS, round(seconds / NOMINAL_ITERATION_S[workload]))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _worker(argv, env, timeout=WORKER_TIMEOUT_S) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _compiler() -> str:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            try:
                version = subprocess.run(
                    [path, "--version"], capture_output=True, text=True,
                    timeout=30,
                ).stdout.splitlines()
            except (OSError, subprocess.SubprocessError):
                version = []
            return f"{name}: {version[0] if version else 'unknown version'}"
    return "none"


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _quantile_us(samples, q) -> float:
    return workloads.percentile(samples, q) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r}; have "
            f"{', '.join(sorted(workloads.WORKLOADS))}"
        )
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {root / 'src' / 'repro'}")

    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work_dir = build / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.setdefault("REPRO_NATIVE_CACHE", str(build / "native"))

    warm = _worker(["--warm"], env, timeout=600)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(work_dir)]

    def iteration(trace: int) -> dict:
        return _worker(
            [*common, "--trace", str(trace),
             "--spawned-at", repr(time.monotonic())],
            env,
        )

    count = iterations(args.workload, args.seconds)
    runs = [iteration(0) for _ in range(count)]
    traced = iteration(1) if args.trace else None

    everything = runs + ([traced] if traced else [])
    digests = sorted({r["digest"] for r in everything})
    problems = []
    if len(digests) != 1:
        problems.append(
            f"simulated outputs differ across same-seed runs: {digests}"
        )
    for r in everything:
        if r["failed"]:
            problems.append(f"correctness checks failed: {r['checks']}")
    if warm["native_loaded"] != runs[0]["native_loaded"]:
        problems.append("native codec engine differs between warm-up and run")

    first = runs[0]
    op_samples = [s for r in runs for s in r["op_host_s"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "op_host_us_p50": _quantile_us(op_samples, 0.50),
        "op_host_us_p99": _quantile_us(op_samples, 0.99),
        **first["sim"],
    }
    samples = {
        "wall_s": len(runs), "setup_s": len(runs), "peak_rss_mb": len(runs),
        "op_host_us_p50": len(op_samples), "op_host_us_p99": len(op_samples),
        **first["sim_samples"],
    }

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(runs),
        "iteration_wall_s": [round(r["wall_s"], 4) for r in runs],
        "iteration_setup_s": [round(r["setup_s"], 4) for r in runs],
        "traced_iterations": 1 if traced else 0,
        "digest": digests[0] if len(digests) == 1 else digests,
        "native_loaded": warm["native_loaded"],
        "native_compiled_this_run": warm["native_compiled_now"],
        "compiler": _compiler(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "git_commit": _git_commit(root),
    }
    print("manifest: " + json.dumps(manifest, sort_keys=True))

    if traced is None:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        for name, unit in END_TO_END.items():
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}"
                  f" (n={samples.get(name, first['attempted'])})")
        for name, value in first["info"].items():
            print(f"{args.workload} {name} = {value:.6g} (derived, not gated)")
    else:
        layers = dict(traced["layers"])
        untraced_wall = values["wall_s"]
        windows = layers["core.emulator.windows"]
        # Untraced host time per refresh window (the span wrappers would
        # inflate it several-fold).
        layers["core.emulator.host_us_per_window"] = (
            untraced_wall / windows * 1e6 if windows else 0.0
        )
        layers["trace.traced_wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        layers["trace.unattributed_share"] = max(
            0.0, 1.0 - traced["layers_attributed_s"] / traced["wall_s"]
        )
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in layers.items()
        }
        for name, value in layers.items():
            print(f"{args.workload} {name} = {value:.6g} {layer_unit(name)}")

    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("host_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_window"):
        return "us"
    if name.endswith("_ns_per_event"):
        return "ns"
    if name.endswith(("_rate", "_share", "native_loaded")):
        return "ratio"
    if name.endswith(("bytes_in", "bytes_out", "trace_bytes")):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
