"""One measured iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration so that process-global
state (the simulated clock, the flight recorder, registries, allocator
growth) never carries from one iteration into the next. It prints one
JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T --work-dir DIR

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn (a system-wide clock), so set-up time covers interpreter start,
imports, loading the native kernels, input generation and object
construction -- everything up to the first timed operation.
``--warm`` instead imports every module and loads (compiling if needed)
the native kernels, then reports what it found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import workloads  # noqa: E402


def _native_loaded() -> bool:
    from repro.compression import _native

    return _native.load() is not None


def warm() -> dict:
    """Import every module the workloads touch and load the native codec
    kernels, compiling them into ``REPRO_NATIVE_CACHE`` when missing."""
    from repro.compression import _native

    # The loader's own cache key: a hash of the kernel source.
    digest = hashlib.blake2b(
        _native._SOURCE.read_bytes(), digest_size=12
    ).hexdigest()
    cache = Path(os.environ.get("REPRO_NATIVE_CACHE", ""))
    existed = (cache / f"hotpath-{digest}.so").exists()
    loaded = _native.load() is not None
    for name in ("repro.fleet", "repro.tiering.pipeline",
                 "repro.core.emulator", "repro.workloads.corpus"):
        try:
            importlib.import_module(name)
        except ImportError:  # a tree that predates the package
            pass
    return {
        "native_loaded": loaded,
        "native_compiled_now": loaded and not existed,
    }


def measure(args) -> dict:
    work = workloads.make(args.workload, args.seed, Path(args.work_dir))
    work.setup()
    # Set-up objects live for the whole run: move them out of the
    # collector's generations so they add no pauses to timed operations.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    start = time.perf_counter()
    setup_s = time.monotonic() - args.spawned_at
    work.run()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.unpatch()
    out = work.results()
    out.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        native_loaded=_native_loaded(),
    )
    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(
            tracer, out["counters"], out["native_loaded"]
        )
        out["layers_attributed_s"] = tracer.attributed_s()
        tracer.dump(
            Path(args.work_dir) / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        )
    work.cleanup()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)
    if args.warm:
        result = warm()
    else:
        if args.spawned_at is None:
            args.spawned_at = time.monotonic()
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
