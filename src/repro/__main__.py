"""Command-line entry point: regenerate the paper's figures and tables and
run the far-memory campaigns.

Usage::

    python -m repro list                 # experiments and commands
    python -m repro table1 table2 fig3   # run specific experiments
    python -m repro all                  # every experiment (a few minutes)
    python -m repro <command> --help     # e.g. replay, slo, fleet, chaos

Each figure prints through the same :mod:`repro.analysis.goldens`
renderer its benchmark writes to ``benchmarks/results``; fig. 8 and
fig. 12 run with smaller parameters than their benches. Each command
has its own parser (``COMMANDS``), so a flag one command does not take
is a usage error (exit 2), never silently ignored.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _fig1() -> str:
    from repro.analysis.figures import fig1_bandwidth_series
    from repro.analysis.goldens import fig1_table

    return fig1_table(fig1_bandwidth_series())


def _fig3() -> str:
    from repro.analysis.goldens import fig3_table
    from repro.costmodel import CostParams
    from repro.costmodel.breakeven import sfm_vs_dfm_cost_breakeven

    breakeven = sfm_vs_dfm_cost_breakeven(CostParams(), 1.0)
    return (
        fig3_table("cost")
        + f"\nSFM@100% cost break-even: {breakeven:.1f} years (paper: 8.5)"
    )


def _fig8() -> str:
    from repro.analysis.figures import fig8_ratios
    from repro.analysis.goldens import fig8_table

    return fig8_table(fig8_ratios(pages_per_corpus=4))


def _fig11() -> str:
    from repro.analysis.figures import fig11_interference
    from repro.analysis.goldens import fig11_table

    return fig11_table(fig11_interference())


def _fig12() -> str:
    from repro.analysis.figures import fig12_fallbacks
    from repro.analysis.goldens import fig12_table

    return fig12_table(fig12_fallbacks(sim_time_s=0.05))


def _table(number: int) -> str:
    from repro.analysis import tables
    from repro.analysis.report import format_table

    headers = getattr(tables, f"TABLE{number}_HEADERS")
    rows = getattr(tables, f"table{number}_rows")()
    return format_table(headers, rows, title=f"Table {number}")


def _budget() -> str:
    from repro.analysis.figures import refresh_budget_summary

    summary = refresh_budget_summary()
    return "\n".join(
        f"{key:28s}: {value:.4g}" for key, value in summary.items()
    )


#: name -> (render function, one-line description).
EXPERIMENTS: Dict[str, Tuple[Callable[[], str], str]] = {
    "fig1": (_fig1, "SFM bandwidth vs rank count; XFM side-channel headroom"),
    "fig3": (_fig3, "cost of SFM vs DFM over years (EQ1-EQ3)"),
    "fig8": (_fig8, "multi-channel compression ratios on 16 corpora"),
    "fig11": (_fig11, "SPEC x SFM co-run interference, three configs"),
    "fig12": (_fig12, "CPU fallback rate vs SPM size x access budget"),
    "table1": (
        partial(_table, 1),
        "DDR5 device configuration + conditional access capacity",
    ),
    "table2": (partial(_table, 2), "FPGA resource utilization"),
    "table3": (partial(_table, 3), "FPGA power breakdown"),
    "budget": (_budget, "refresh side-channel budget arithmetic (Sec. 4.3)"),
}

#: The artifacts every :class:`TelemetrySession` with an ``out_dir`` writes.
SESSION_FILES = ("trace.json", "metrics.json")


def _print_wrote(
    directory: Optional[Path], *names: str, indent: str = "  "
) -> None:
    """One ``wrote <path>`` line per artifact written under ``directory``
    (none when the command ran without ``--out``)."""
    for name in names if directory is not None else ():
        print(f"{indent}wrote {directory / name}")


def _load_trace(scenario: Optional[str], trace_file: Optional[str] = None):
    """The trace to replay, or ``None`` after reporting why it is unusable."""
    from repro.errors import ScenarioError
    from repro.scenarios.format import ScenarioTrace
    from repro.scenarios.zoo import load_scenario

    try:
        if trace_file is not None:
            return ScenarioTrace.load(trace_file)
        return load_scenario(scenario)
    except ScenarioError as exc:
        print(f"unusable trace: {exc}", file=sys.stderr)
        return None


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a swap trace against a backend config. Exit 0 clean, 1 on
    digest mismatches or missing pages, 2 on usage errors."""
    from repro.scenarios.replayer import TraceReplayer, format_report
    from repro.telemetry.session import TelemetrySession
    from repro.tiering.factory import make_tier
    from repro.validation.hooks import validation

    trace = _load_trace(args.scenario, args.trace_file)
    if trace is None:
        return 2
    session = TelemetrySession(out_dir=args.out)
    with session, validation(args.validation):
        target = make_tier(args.backend, registry=session.registry)
        report = TraceReplayer(
            trace,
            target,
            backend_name=args.backend,
            fault_profile=args.fault_profile,
            fault_seed=args.fault_seed,
            session=session,
        ).run()
    print(format_report(report))
    _print_wrote(args.out, *SESSION_FILES)
    return 0 if report.clean else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """Replay a zoo scenario under tracing and evaluate latency and
    availability SLOs over simulated-time windows. Exit 0 unless
    ``--fail-on-violation`` is set and an objective missed its target."""
    import json

    from repro.analysis.report import format_latency_table
    from repro.scenarios.replayer import TraceReplayer
    from repro.sfm.page import PAGE_SIZE
    from repro.telemetry.session import TelemetrySession
    from repro.telemetry.slo import SloEngine, default_objectives
    from repro.tiering.factory import make_tier

    trace = _load_trace(args.scenario)
    if trace is None:
        return 2
    session = TelemetrySession(out_dir=args.out)
    with session:
        # The goldens' 40-page pipeline split: small upper tiers force
        # the demotion cascades and cross-tier fetches that make the
        # latency distributions (and the burn report) non-trivial.
        target = make_tier(
            args.backend,
            capacity_bytes=40 * PAGE_SIZE,
            registry=session.registry,
        )
        engine = SloEngine(
            session.registry,
            default_objectives(target),
            window_ns=args.window_ns,
        )
        report = TraceReplayer(
            trace,
            target,
            backend_name=args.backend,
            fault_profile=args.fault_profile,
            fault_seed=args.fault_seed,
            session=session,
            slo_engine=engine,
        ).run()
    print(f"slo: scenario={report.scenario} backend={report.backend}")
    print(
        format_latency_table(
            report.latency_percentiles,
            title="latency percentiles (op-class x tier)",
        )
    )
    print()
    summary = engine.summary()
    print(f"slo summary ({len(engine.windows)} window results, "
          f"window={args.window_ns:.0f} ns):")
    for name, row in summary.items():
        verdict = "met" if row["met"] else "VIOLATED"
        print(
            f"  {name:16s}: target={row['target']:.3f} "
            f"attainment={row['attainment']:.4f} "
            f"worst_burn={row['worst_burn']:.2f} "
            f"violated_windows={row['windows_violated']}/{row['windows']} "
            f"[{verdict}]"
        )
    if args.out is not None:
        doc = {
            "scenario": report.scenario,
            "backend": report.backend,
            "latency_percentiles": report.latency_percentiles,
            "slo": engine.as_dict(),
        }
        (args.out / "slo_report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8"
        )
        _print_wrote(args.out, "slo_report.json", *SESSION_FILES)
    all_met = all(row["met"] for row in summary.values())
    return 1 if args.fail_on_violation and not all_met else 0


def _cmd_record(args: argparse.Namespace) -> int:
    """Re-record a zoo scenario from a live pipeline run and save the
    trace artifact."""
    from repro.scenarios.format import trace_fingerprint
    from repro.scenarios.zoo import ARTIFACT_SUFFIX, build_scenario

    trace = build_scenario(args.scenario, seed=args.seed)
    path = args.trace_file or args.out / (args.scenario + ARTIFACT_SUFFIX)
    trace.save(path)
    print(f"recorded scenario: {args.scenario}")
    print(f"  events      : {len(trace)}")
    print(f"  unique pages: {len(trace.pages)}")
    print(f"  fingerprint : {trace_fingerprint(trace)}")
    _print_wrote(path.parent, path.name)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Page-ify a file tree into a digest-verified per-domain corpus."""
    from repro.errors import ConfigError
    from repro.scenarios.ingest import IngestConfig, ingest_tree

    try:
        manifest = ingest_tree(
            args.root,
            args.out,
            IngestConfig(max_file_bytes=args.max_file_kib * 1024),
        )
    except ConfigError as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 2
    print(f"ingested corpus: {manifest.root_label}")
    for domain, pages in manifest.summary().items():
        print(f"  {domain:10s}: {pages} pages")
    print(f"  total      : {manifest.total_pages()} pages "
          f"({manifest.page_size} B each)")
    _print_wrote(args.out, "manifest.json")
    return 0


def _cmd_codectune(args: argparse.Namespace) -> int:
    """Train per-domain static Huffman tables (auto-tuned matcher
    parameters) and persist them.

    The corpus is either an already-ingested directory (containing
    ``manifest.json``) or a raw file tree, which is ingested into a
    temporary directory first. It defaults to this repository's own
    ``src/`` tree — the first corpus the paper-style static tables are
    trained on."""
    import tempfile

    from repro.compression.static_tables import (
        DEFAULT_TABLES_PATH,
        StaticTableRegistry,
    )
    from repro.compression.tuning import make_tuner
    from repro.errors import ConfigError, ManifestError
    from repro.scenarios.ingest import (
        MANIFEST_NAME,
        CorpusManifest,
        IngestConfig,
        ingest_tree,
    )

    root = args.root or Path(__file__).resolve().parents[1]
    out_path = args.out or DEFAULT_TABLES_PATH
    choices: dict = {}
    registry = StaticTableRegistry()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if (root / MANIFEST_NAME).exists():
                manifest = CorpusManifest.load(root)
            else:
                manifest = ingest_tree(
                    root,
                    tmp,
                    IngestConfig(max_file_bytes=args.max_file_kib * 1024),
                )
            registry.train_from_manifest(
                manifest, tuner=make_tuner(record=choices)
            )
    except (ConfigError, ManifestError) as exc:
        print(f"codectune failed: {exc}", file=sys.stderr)
        return 2
    if not len(registry):
        print(f"no corpus domains found under {root}", file=sys.stderr)
        return 2
    registry.save(out_path)
    print(f"trained static tables: {len(registry)} domain(s) from {root}")
    for domain in registry.domains():
        entry = registry.get(domain)
        choice = choices[domain]
        print(
            f"  {domain:10s}: {entry.num_pages:5d} pages  "
            f"window={entry.window_size:<5d} chain={entry.max_chain:<3d} "
            f"lazy={str(entry.lazy):5s} "
            f"sample ratio={choice.ratio:.2f}  "
            f"table_id=0x{entry.tables.table_id:08x}"
        )
    _print_wrote(out_path.parent, out_path.name)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run the deterministic overload campaign (steady -> spike -> drain
    -> recovery) through the sharded frontend.

    Exit 0 on a clean run, 1 when data integrity or an explicit
    expectation fails, 2 on usage errors. ``--expect-shed`` asserts the
    overload contract (the spike sheds, recovery is shed-free, and the
    admitted-request spike p99 stays within 3x the steady p99);
    ``--expect-no-shed`` asserts a steady campaign sheds nothing;
    ``--fail-on-slo-violation`` additionally requires every SLO met.
    """
    from repro.errors import ConfigError
    from repro.fleet.harness import FleetConfig, format_report, run_fleet

    scale = args.duration_scale
    try:
        config = FleetConfig(
            seed=args.seed,
            shards=args.fleet_shards,
            steady_rate_rps=args.rate_rps,
            spike_multiplier=args.spike_multiplier,
            steady_ns=60e6 * scale,
            spike_ns=30e6 * scale,
            drain_guard_ns=10e6 * scale,
            recovery_ns=60e6 * scale,
            kill_shard_at_ns=(
                args.kill_shard_at_ms * 1e6
                if args.kill_shard_at_ms is not None
                else None
            ),
        )
    except ConfigError as exc:
        print(f"bad fleet config: {exc}", file=sys.stderr)
        return 2
    report = run_fleet(config, args.out)
    print(format_report(report))
    files = ("fleet_report.json", *SESSION_FILES, *report["flight_records"])
    _print_wrote(args.out, *files)
    verdict = report["verdict"]
    ok = verdict["acked_data_lost"] == 0
    ok = ok and verdict["silent_corruptions"] == 0
    if args.expect_shed:
        steady_p99 = report["phases"]["steady"]["latency_ns"]["p99"]
        spike_p99 = report["phases"]["spike"]["latency_ns"]["p99"]
        ok = ok and verdict["spike_shed"] and verdict["recovery_clean"]
        ok = ok and spike_p99 <= 3 * steady_p99
    if args.expect_no_shed:
        total_shed = sum(
            report["phases"][p]["shed"] for p in report["phases"]
        )
        ok = ok and total_shed == 0
    if args.fail_on_slo_violation:
        ok = ok and all(verdict["slo_met"].values())
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one seeded fault campaign over the CPU-zswap -> XFM -> DFM
    pipeline. Exit 1 unless every injected fault was detected and
    accounted for (and, with ``--fail-on-loss``, nothing was lost)."""
    from repro.errors import ConfigError
    from repro.resilience.chaos import ChaosConfig, format_report, run_chaos

    try:
        config = ChaosConfig(
            seed=args.seed,
            ops=args.ops,
            profile=args.profile,
            validate=args.validation,
        )
    except ConfigError as exc:
        print(f"bad chaos config: {exc}", file=sys.stderr)
        return 2
    report = run_chaos(config, args.out)
    print(format_report(report))
    _print_wrote(args.out, "chaos_report.json", *SESSION_FILES)
    verdict = report["verdict"]
    clean = verdict["clean"] and verdict["all_detections_accounted"]
    if args.fail_on_loss:
        recovery = report["recovery"]
        clean = clean and not recovery["data_loss_events"]
        clean = clean and not recovery["poison_pages"]
    return 0 if clean else 1


def _cmd_tiers(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_tier_stats
    from repro.telemetry.runner import run_traced

    session, summary = run_traced("tiers", args.out)
    pipeline = summary.pop("_pipeline", None)
    print("tier pipeline demo: cpu-zswap -> xfm -> dfm")
    for key, value in summary.items():
        print(f"  {key:24s}: {value}")
    if pipeline is not None:
        print()
        print(format_tier_stats(pipeline, title="per-tier counters"))
    _print_wrote(args.out, *SESSION_FILES)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.runner import run_traced

    names = args.workloads
    if isinstance(names, str):  # argparse's default when none is named
        names = [names]
    for name in names:
        out_dir = args.out / name if len(names) > 1 else args.out
        session, summary = run_traced(name, out_dir)
        print(f"trace workload: {name}")
        for key, value in summary.items():
            if key.startswith("_"):
                continue
            print(f"  {key:24s}: {value}")
        _print_wrote(out_dir, *SESSION_FILES)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import EXPORTERS

    args.dir.mkdir(parents=True, exist_ok=True)
    for filename, exporter in EXPORTERS.items():
        (args.dir / filename).write_text(exporter(), encoding="utf-8")
    _print_wrote(args.dir, *EXPORTERS, indent="")
    return 0


def _out_arg(
    parser: argparse.ArgumentParser, help: str = "output directory", **kwargs
) -> None:
    parser.add_argument("--out", type=Path, help=help, **kwargs)


def _scenario_arg(parser, **kwargs) -> None:
    from repro.scenarios.zoo import SCENARIOS

    parser.add_argument("scenario", choices=sorted(SCENARIOS), **kwargs)


def _max_file_kib_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-file-kib",
        type=int,
        default=512,
        help="skip files larger than this (KiB)",
    )


def _target_args(parser: argparse.ArgumentParser) -> None:
    """The replay target and fault-injection flags of replay and slo."""
    from repro.tiering.factory import TIER_KINDS

    parser.add_argument("--backend", choices=TIER_KINDS, default="pipeline")
    parser.add_argument(
        "--fault-profile", help="inject a chaos fault profile (transient|full)"
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for --fault-profile"
    )


def _replay_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    _scenario_arg(source, nargs="?")
    source.add_argument("--trace-file", help="trace artifact to replay")
    _target_args(parser)
    parser.add_argument(
        "--validation", action="store_true", help="run the validation checkers"
    )
    _out_arg(parser, "write trace.json and metrics.json here")


def _slo_args(parser: argparse.ArgumentParser) -> None:
    _scenario_arg(parser)
    _target_args(parser)
    parser.add_argument(
        "--window-ns",
        type=float,
        default=15000.0,
        help="simulated-time window size in ns",
    )
    parser.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 1 when an objective misses its target",
    )
    _out_arg(parser, "write slo_report.json and the telemetry here")


def _record_args(parser: argparse.ArgumentParser) -> None:
    _scenario_arg(parser)
    parser.add_argument("--seed", type=int, default=0, help="build seed")
    parser.add_argument(
        "--trace-file",
        type=Path,
        help="artifact path (default: OUT/<scenario>.trace.jsonl.gz)",
    )
    _out_arg(parser, "artifact directory", default="trace-out")


def _ingest_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("root", help="file tree to page-ify")
    _max_file_kib_arg(parser)
    _out_arg(parser, "corpus directory", default="corpus-out")


def _codectune_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "root",
        nargs="?",
        type=Path,
        help="ingested corpus or raw file tree (default: the repro sources)",
    )
    _max_file_kib_arg(parser)
    _out_arg(parser, "tables file (default: the shipped static tables)")


def _fleet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--fleet-shards", type=int, default=4, help="pipeline shards"
    )
    parser.add_argument(
        "--rate-rps",
        type=float,
        default=35000.0,
        help="steady-state offered arrival rate (requests/s)",
    )
    parser.add_argument(
        "--spike-multiplier",
        type=float,
        default=5.0,
        help="arrival-rate multiplier during the spike phase",
    )
    parser.add_argument(
        "--duration-scale",
        type=float,
        default=1.0,
        help="scale all phase durations (1.0 = 160 ms simulated)",
    )
    parser.add_argument(
        "--kill-shard-at-ms",
        type=float,
        help="chaos-kill shard-0 at this simulated millisecond",
    )
    expect = parser.add_mutually_exclusive_group()
    expect.add_argument(
        "--expect-shed",
        action="store_true",
        help="fail unless the spike sheds, recovery is clean, and "
        "admitted spike p99 <= 3x steady p99",
    )
    expect.add_argument(
        "--expect-no-shed",
        action="store_true",
        help="fail if any request was shed (steady campaigns)",
    )
    parser.add_argument(
        "--fail-on-slo-violation",
        action="store_true",
        help="exit 1 when an SLO misses its target",
    )
    _out_arg(parser, "write fleet_report.json and the telemetry here")


def _chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument("--ops", type=int, default=400, help="operations")
    parser.add_argument(
        "--profile", default="transient", help="fault profile (transient|full)"
    )
    parser.add_argument(
        "--validation", action="store_true", help="run the validation checkers"
    )
    parser.add_argument(
        "--fail-on-loss",
        action="store_true",
        help="exit 1 if the campaign lost or corrupted data",
    )
    _out_arg(parser, "write chaos_report.json and the telemetry here")


def _trace_args(parser: argparse.ArgumentParser) -> None:
    from repro.telemetry.runner import WORKLOADS

    parser.add_argument(
        "workloads", nargs="*", choices=sorted(WORKLOADS), default="zswap"
    )
    _out_arg(parser, "output directory", default="trace-out")


def _export_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", nargs="?", type=Path, default="figure-data")


#: name -> (handler, function that adds its arguments, one-line help).
COMMANDS: Dict[str, Tuple[Callable, Callable, str]] = {
    "replay": (_cmd_replay, _replay_args, "replay a swap trace"),
    "slo": (_cmd_slo, _slo_args, "SLO burn report of a scenario replay"),
    "record": (_cmd_record, _record_args, "re-record a zoo trace artifact"),
    "ingest": (_cmd_ingest, _ingest_args, "page-ify a file tree"),
    "codectune": (_cmd_codectune, _codectune_args, "train Huffman tables"),
    "fleet": (_cmd_fleet, _fleet_args, "sharded-fleet overload campaign"),
    "chaos": (_cmd_chaos, _chaos_args, "seeded fault campaign"),
    "tiers": (_cmd_tiers, _out_arg, "3-tier demotion/promotion demo"),
    "trace": (_cmd_trace, _trace_args, "Perfetto trace of a workload"),
    "export": (_cmd_export, _export_args, "CSV/JSON figure data"),
}


def _command_parser(name: str) -> argparse.ArgumentParser:
    handler, add_arguments, help = COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {name}", description=help
    )
    add_arguments(parser)
    parser.set_defaults(run=handler)
    return parser


def _experiments_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures/tables of the XFM paper.",
        epilog=f"commands: {', '.join(COMMANDS)} (see 'list')",
    )
    parser.add_argument(
        "experiments", nargs="*", help="experiment names, 'all' or 'list'"
    )
    parser.set_defaults(run=_run_experiments)
    return parser


def _list() -> int:
    print("available experiments:")
    for name, (_, description) in EXPERIMENTS.items():
        print(f"  {name:8s} {description}")
    print("run: python -m repro <name> [<name> ...] | all")
    print()
    print("commands (python -m repro <command> --help for the flags):")
    for name, (_, _, help) in COMMANDS.items():
        print(f"  {name:10s} {help}")
        usage = _command_parser(name).format_usage().rstrip()
        print(textwrap.indent(usage, "    "))
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    names = args.experiments
    if names in ([], ["list"]):
        return _list()
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        render, _ = EXPERIMENTS[name]
        print(render())
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser, argv = _command_parser(argv[0]), argv[1:]
    else:
        parser = _experiments_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on usage errors
        return exc.code
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
