"""CLI for the codec hot-path perf harness.

Modes:

``run``
    Measure every kernel and print the results as JSON. With
    ``--update-baseline`` the committed ``BENCH_perf.json`` is rewritten:
    the fresh numbers become the ``baseline`` section while the pinned
    pre-overhaul ``reference`` section is preserved verbatim (it is a
    historical measurement and must never be re-run on new code).

``check``
    Re-measure with reduced iterations (CI smoke mode) and compare each
    kernel against the committed baseline. Exits non-zero when any
    kernel is more than ``--max-slowdown`` times slower than its
    committed number. The threshold is deliberately loose (2.5x) because
    CI machines differ from the baseline machine; the gate catches
    algorithmic regressions (accidentally reverting to a bit-serial
    loop), not percent-level noise.

``telemetry-guard``, ``span-guard``, ``tier-guard``
    In-process-ratio gates (guarded loop vs plain loop on the same
    machine, same run), so unlike ``check`` they can afford to be tight.
    Each asserts its overhead stays < ``--max-overhead``: the *disabled*
    telemetry guards on the deflate round-trip kernel (default 3%); the
    *disabled* span/quantile/flight-recorder guards at the pipeline's
    real instrumentation-site density (default 3%); and routing the
    zswap store/load path through a single-tier ``TierPipeline`` instead
    of a bare ``SfmBackend`` (default 5%). One gate, ``cmd_ratio_guard``,
    runs all three from the ``RATIO_GUARDS`` table.

``sim-guard``
    Assert that the shared simulated-clock/event core added <
    ``--max-overhead`` (default 5%) to the ``tier_pipeline_store`` /
    ``tier_pipeline_load`` kernels, best-of-``--trials`` against their
    committed pre-refactor ``BENCH_perf.json`` baselines.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py run
    PYTHONPATH=src python benchmarks/perf/run_perf.py run --update-baseline
    PYTHONPATH=src python benchmarks/perf/run_perf.py check --inner-scale 0.5
    PYTHONPATH=src python benchmarks/perf/run_perf.py telemetry-guard
    PYTHONPATH=src python benchmarks/perf/run_perf.py tier-guard
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import microbench  # noqa: E402  (sibling module, path-injected above)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_perf.json"


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _measure(args: argparse.Namespace) -> dict:
    """Run all kernels, optionally inside a telemetry session.

    With ``--trace-dir`` the measurement runs under tracing and writes
    ``trace.json``/``metrics.json`` there (the measured numbers then
    include the enabled-tracing overhead — useful for inspecting the
    harness itself, not for updating baselines).
    """
    trace_dir = getattr(args, "trace_dir", None)
    if not trace_dir:
        return microbench.run_all(args.inner_scale, args.repeats)
    from repro.telemetry import TelemetrySession

    with TelemetrySession(out_dir=trace_dir):
        results = microbench.run_all(args.inner_scale, args.repeats)
    print(f"telemetry written to {trace_dir}", file=sys.stderr)
    return results


def _report_deltas(fresh: dict, previous: dict) -> None:
    """Per-kernel deltas vs the *previous committed baseline* — the
    numbers a reviewer of a perf PR actually needs. (The pinned
    ``reference`` section answers a different question: cumulative
    speedup since the pre-overhaul seed.)"""
    if not previous:
        print("no previous baseline to diff against", file=sys.stderr)
        return
    width = max(len(name) for name in fresh)
    print(
        f"{'kernel'.ljust(width)}  previous(s/op)  fresh(s/op)   delta",
        file=sys.stderr,
    )
    for name, record in sorted(fresh.items()):
        base = previous.get(name)
        if base is None:
            print(f"{name.ljust(width)}  (new kernel)", file=sys.stderr)
            continue
        ratio = record["seconds_per_op"] / base["seconds_per_op"]
        print(
            f"{name.ljust(width)}  {base['seconds_per_op']:.6f}"
            f"        {record['seconds_per_op']:.6f}"
            f"     {(ratio - 1.0) * 100:+6.1f}%",
            file=sys.stderr,
        )


def cmd_run(args: argparse.Namespace) -> int:
    results = _measure(args)
    payload = {"schema": 1, "kernels": results}
    baseline_path = Path(args.baseline)
    doc = _load(baseline_path) if baseline_path.exists() else {}
    previous = doc.get("baseline", {}).get("kernels", {})
    _report_deltas(results, previous)
    if args.update_baseline:
        doc["schema"] = 1
        doc["baseline"] = {"kernels": results}
        if previous:
            doc["delta_vs_previous_baseline"] = {
                name: round(
                    results[name]["seconds_per_op"]
                    / previous[name]["seconds_per_op"],
                    3,
                )
                for name in results
                if name in previous
            }
        reference = doc.get("reference", {}).get("kernels", {})
        if reference:
            doc["speedup_vs_reference"] = {
                name: round(
                    reference[name]["seconds_per_op"]
                    / results[name]["seconds_per_op"],
                    2,
                )
                for name in results
                if name in reference
            }
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {baseline_path}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    doc = _load(Path(args.baseline))
    committed = doc["baseline"]["kernels"]
    fresh = _measure(args)
    failures = []
    width = max(len(name) for name in fresh)
    print(f"{'kernel'.ljust(width)}  committed(s/op)  fresh(s/op)  ratio")
    for name, record in sorted(fresh.items()):
        base = committed.get(name)
        if base is None:
            print(f"{name.ljust(width)}  (no committed baseline — skipped)")
            continue
        ratio = record["seconds_per_op"] / base["seconds_per_op"]
        flag = "  FAIL" if ratio > args.max_slowdown else ""
        print(
            f"{name.ljust(width)}  {base['seconds_per_op']:.6f}"
            f"         {record['seconds_per_op']:.6f}     {ratio:5.2f}x{flag}"
        )
        if ratio > args.max_slowdown:
            failures.append((name, ratio))
    if failures:
        print(
            f"\nperf regression: {len(failures)} kernel(s) exceeded the "
            f"{args.max_slowdown}x slowdown gate:"
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x slower than committed baseline")
        return 1
    print(f"\nall kernels within the {args.max_slowdown}x gate")
    return 0


class RatioGuard(NamedTuple):
    ratio: Callable[..., float]
    max_overhead: float
    help: str
    measured: str
    failure: str


#: subcommand -> (overhead-ratio kernel, default gate, --help text,
#: label of the measured line, why a failure matters).
RATIO_GUARDS: Dict[str, RatioGuard] = {
    "telemetry-guard": RatioGuard(
        microbench.telemetry_overhead_ratio,
        0.03,
        "assert disabled telemetry costs < --max-overhead",
        "disabled-telemetry overhead on deflate round-trip",
        "the tracing_enabled() fast path must stay free when tracing is off",
    ),
    "span-guard": RatioGuard(
        microbench.span_overhead_ratio,
        0.03,
        "assert disabled span/quantile guards cost < --max-overhead",
        "disabled span/quantile instrumentation overhead",
        "the span/quantile/flight-recorder guards must stay free when "
        "tracing is off",
    ),
    "tier-guard": RatioGuard(
        microbench.tier_overhead_ratio,
        0.05,
        "assert single-tier pipeline overhead < --max-overhead",
        "single-tier pipeline overhead on zswap store/load",
        "TierPipeline bookkeeping must stay negligible next to the codec "
        "on the single-tier store path",
    ),
}


def cmd_ratio_guard(args: argparse.Namespace) -> int:
    guard = RATIO_GUARDS[args.mode]
    name = args.mode.replace("-", " ")
    # Best-of-N both ways; take the minimum over trials so a single
    # noisy plain-loop batch can't fail the gate spuriously.
    ratio = min(guard.ratio(repeats=args.repeats) for _ in range(args.trials))
    overhead = ratio - 1.0
    print(
        f"{guard.measured}: "
        f"{overhead * 100:+.2f}% (gate: < {args.max_overhead * 100:.0f}%)"
    )
    if overhead > args.max_overhead:
        print(f"{name} FAILED: {guard.failure}")
        return 1
    print(f"{name} passed")
    return 0


def cmd_batch_guard(args: argparse.Namespace) -> int:
    """Assert the page-batch codec API is genuinely batched end to end.

    Three checks, all on the process-wide ``batch_stats`` telemetry:
    every registered hot-path codec's ``compress_batch``/
    ``decompress_batch`` must be a real batched implementation (zero
    trips through the base-class scalar adapter); the multi-channel
    backend's swap path must route stripes through it (``multichannel``
    site); and the tier pipeline's demotion cascade must route victim
    batches through it (``tier_demote`` site)."""
    from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
    from repro.compression.base import batch_stats

    pages = microbench._bench_pages()
    failures = []
    for codec in (DeflateCodec(window_size=4096), LzFastCodec(), ZstdLikeCodec()):
        batch_stats.reset()
        blobs = codec.compress_batch(pages)
        if codec.decompress_batch(blobs) != pages:
            failures.append(f"{codec.name}: batch round-trip mismatch")
        if (
            batch_stats.compress_scalar_fallback_calls
            or not batch_stats.compress_batch_calls
        ):
            failures.append(
                f"{codec.name}: compress_batch fell back to the scalar "
                "adapter"
            )
        if (
            batch_stats.decompress_scalar_fallback_calls
            or not batch_stats.decompress_batch_calls
        ):
            failures.append(
                f"{codec.name}: decompress_batch fell back to the scalar "
                "adapter"
            )

    from repro.sfm.page import PAGE_SIZE, Page
    from repro.tiering.factory import make_tier

    batch_stats.reset()
    mc = make_tier("xfm-mc")
    for i, data in enumerate(pages):
        page = Page(vaddr=i * PAGE_SIZE, data=data)
        if mc.swap_out(page).accepted:
            mc.swap_in(page)
    mc_pages = batch_stats.site_pages.get("multichannel", 0)
    if not mc_pages:
        failures.append(
            "multichannel swap path recorded no batched pages "
            "(site 'multichannel' empty)"
        )

    batch_stats.reset()
    microbench.KERNELS["tier_demote_batch"][0]()()
    demote_pages = batch_stats.site_pages.get("tier_demote", 0)
    if not demote_pages:
        failures.append(
            "tier demotion cascade recorded no batched pages "
            "(site 'tier_demote' empty)"
        )

    print(
        f"batch sites: multichannel={mc_pages} pages, "
        f"tier_demote={demote_pages} pages"
    )
    if failures:
        print(f"batch guard FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("batch guard passed: no scalar fallbacks on the batch API")
    return 0


def cmd_sim_guard(args: argparse.Namespace) -> int:
    """Assert the repro.sim clock/event core added < ``--max-overhead``
    to the tier pipeline hot path.

    The tier store/load kernels route every operation through the
    pieces the simulation-core refactor touched (span clock reads,
    breaker checks, latency accounting), so they are the canary: each
    is re-measured (best-of-``--trials`` full kernel runs) and compared
    against its committed ``BENCH_perf.json`` baseline, which was
    recorded immediately before the shared-clock refactor landed."""
    doc = _load(Path(args.baseline))
    committed = doc["baseline"]["kernels"]
    kernels = ("tier_pipeline_store", "tier_pipeline_load")
    failures = []
    for name in kernels:
        fresh = min(
            microbench.run_kernel(name, args.inner_scale, args.repeats)[
                "seconds_per_op"
            ]
            for _ in range(args.trials)
        )
        base = committed[name]["seconds_per_op"]
        overhead = fresh / base - 1.0
        print(
            f"{name}: committed {base:.6f} s/op, fresh {fresh:.6f} s/op "
            f"({overhead * 100:+.2f}%, gate: < {args.max_overhead * 100:.0f}%)"
        )
        if overhead > args.max_overhead:
            failures.append((name, overhead))
    if failures:
        print(f"\nsim guard FAILED ({len(failures)} kernel(s)):")
        for name, overhead in failures:
            print(
                f"  {name}: {overhead * 100:+.2f}% over the pre-sim "
                "baseline — scheduler/clock bookkeeping leaked into the "
                "hot path"
            )
        return 1
    print("sim guard passed: event-core overhead within the gate")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    run = sub.add_parser("run", help="measure and print/update baseline")
    run.add_argument("--update-baseline", action="store_true")
    run.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    run.add_argument("--inner-scale", type=float, default=1.0)
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--trace-dir", default=None)
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="compare against committed baseline")
    check.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    check.add_argument("--inner-scale", type=float, default=1.0)
    check.add_argument("--repeats", type=int, default=2)
    check.add_argument("--max-slowdown", type=float, default=2.5)
    check.add_argument("--trace-dir", default=None)
    check.set_defaults(func=cmd_check)

    for mode, ratio_guard in RATIO_GUARDS.items():
        guard = sub.add_parser(mode, help=ratio_guard.help)
        guard.add_argument(
            "--max-overhead", type=float, default=ratio_guard.max_overhead
        )
        guard.add_argument("--repeats", type=int, default=3)
        guard.add_argument("--trials", type=int, default=3)
        guard.set_defaults(func=cmd_ratio_guard)

    batch_guard = sub.add_parser(
        "batch-guard",
        help="assert the page-batch codec API never falls back to scalar",
    )
    batch_guard.set_defaults(func=cmd_batch_guard)

    sim_guard = sub.add_parser(
        "sim-guard",
        help="assert the sim clock/event core overhead on the tier "
        "pipeline kernels stays < --max-overhead vs the committed "
        "baseline",
    )
    sim_guard.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    sim_guard.add_argument("--max-overhead", type=float, default=0.05)
    sim_guard.add_argument("--inner-scale", type=float, default=1.0)
    sim_guard.add_argument("--repeats", type=int, default=3)
    sim_guard.add_argument("--trials", type=int, default=3)
    sim_guard.set_defaults(func=cmd_sim_guard)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
