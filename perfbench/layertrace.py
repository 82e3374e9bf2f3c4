"""Per-layer host-time tracing from outside the program.

The benchmark wraps layer entry points -- each patched where its callers
look it up -- so that every call records a span: name, start, end,
parent span and, on ``fleet-spike``, the request id. Spans are kept in
memory; whenever the span stack empties, the finished span trees are
folded into per-name totals by :func:`self_times` and the first
``keep`` spans are kept for :meth:`Tracer.dump`.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of all spans add up to the time spent inside
any span, each instant counted once, in the innermost span running.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import namedtuple
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

Span = namedtuple("Span", "sid name start end parent rid")

#: The layers (repro module names) whose self time counts as attributed.
LAYERS = (
    "fleet.traffic", "fleet.frontend", "tiering", "sfm", "core", "dfm",
    "compression", "dram", "sim", "telemetry",
)


def self_times(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """Per span name: ``[calls, self_s, total_s]``.

    ``self_s`` is each span's duration minus the union of its children's
    intervals clipped to the span -- spans of one thread nest, but the
    union keeps the arithmetic right for any tree.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[str, List[float]] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        duration = span.end - span.start
        row = out.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration - covered
        row[2] += duration
    return out


class Tracer:
    """Span recorder for one traced run (single thread)."""

    def __init__(self, keep: int = 200_000) -> None:
        self.totals: Dict[str, List[float]] = {}
        #: Extra per-name sums (bytes in/out of codec calls, ...).
        self.sums: Dict[str, float] = {}
        self.kept: List[Span] = []
        self.keep = keep
        self._stack: List[Span] = []
        self._done: List[Span] = []
        self._next = 0
        #: Request id per pipeline key, set when a request is submitted.
        self.rid_of_key: Dict[int, int] = {}
        self._patches: List[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid_of: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``. ``rid_of(args)``
        names the request the call serves (children inherit it);
        ``on_return(args, result)`` records sums such as bytes."""
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rid = rid_of(args) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent.rid
            sid = tracer._next
            tracer._next += 1
            frame = Span(sid, name, clock(), 0.0,
                         parent.sid if parent else None, rid)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._done.append(frame._replace(end=clock()))
                if not stack:
                    tracer._fold()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner: object, attr: str, make: Callable) -> bool:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`unpatch`;
        False (and no change) when the program has no such attribute."""
        original = vars(owner).get(attr) if isinstance(owner, type) else (
            getattr(owner, attr, None)
        )
        if original is None:
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def patch(self, owner: object, attr: str, name: str, **kwargs) -> bool:
        """Replace ``owner.attr`` by its version traced as ``name``."""
        return self.replace(
            owner, attr, lambda original: self.wrap(name, original, **kwargs)
        )

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _fold(self) -> None:
        done, self._done = self._done, []
        for name, (calls, self_s, total_s) in self_times(done).items():
            row = self.totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
        room = self.keep - len(self.kept)
        if room > 0:
            self.kept.extend(done[:room])

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def attributed_s(self) -> float:
        """Self time of every span that belongs to a layer."""
        return sum(
            row[1] for name, row in self.totals.items()
            if name.startswith(tuple(layer + "." for layer in LAYERS))
        )

    def dump(self, path: Path) -> None:
        """Write the kept spans (JSON lines, gzip) for offline reading."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.kept:
                fh.write(json.dumps(span._asdict()) + "\n")


# -- the layer boundaries ------------------------------------------------------

#: The codecs the three workloads run (LzFastCodec is not on their paths).
CODECS = ("DeflateCodec", "ZstdLikeCodec")
CODEC_METHODS = ("compress", "decompress", "compress_batch", "decompress_batch")


def _nbytes(value) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return sum(len(v) for v in value)


def _event_span_name(fn: Callable) -> str:
    """Span name of a scheduled event callback: its defining module."""
    module = getattr(fn, "__module__", None) or "unknown"
    if module == "repro.dram.refresh":
        return "dram.refresh.fire"
    if module == "repro.fleet.shard":
        return "fleet.frontend.shard_pump"
    return module.replace("repro.", "", 1) + ".event"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reads (those the
    program has; trees that predate a layer simply lack its spans)."""
    import importlib

    def mod(name: str):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    harness = mod("repro.fleet.harness")
    if harness is not None:
        tracer.patch(harness, "page_for", "fleet.traffic.page_for")
        tracer.patch(
            harness, "generate_arrivals", "fleet.traffic.generate_arrivals"
        )
        frontend_mod = mod("repro.fleet.frontend")

        def note_submit(args):
            req = args[1]
            tracer.rid_of_key[req.key] = req.rid
            return req.rid

        tracer.patch(
            frontend_mod.FleetFrontend, "submit", "fleet.frontend.submit",
            rid_of=note_submit,
        )

    def key_rid(args):
        return tracer.rid_of_key.get(args[1]) if len(args) > 1 else None

    pipeline = mod("repro.tiering.pipeline")
    if pipeline is not None:
        for method in ("store", "load"):
            tracer.patch(
                pipeline.TierPipeline, method, f"tiering.{method}",
                rid_of=key_rid,
            )

    for module, cls, prefix in (
        ("repro.sfm.backend", "SfmBackend", "sfm"),
        ("repro.core.backend", "XfmBackend", "core.xfm"),
        ("repro.dfm.backend", "DfmBackend", "dfm"),
    ):
        loaded = mod(module)
        if loaded is not None:
            for method in ("swap_out", "swap_in"):
                tracer.patch(
                    getattr(loaded, cls), method, f"{prefix}.{method}"
                )

    compression = mod("repro.compression")
    for cls_name in CODECS:
        cls = getattr(compression, cls_name, None)
        if cls is None:
            continue
        for method in CODEC_METHODS:
            name = f"compression.{cls_name}.{method}"

            def count(args, result, name=name):
                tracer.add(name + ".bytes_in", _nbytes(args[1]))
                tracer.add(name + ".bytes_out", _nbytes(result))

            tracer.patch(cls, method, name, on_return=count)
    huffman = mod("repro.compression.huffman")
    if huffman is not None:
        tracer.patch(
            huffman, "code_lengths_from_frequencies",
            "compression.huffman.code_lengths_from_frequencies",
        )

    emulator = mod("repro.core.emulator")
    if emulator is not None:
        tracer.patch(emulator.XfmEmulator, "run", "core.emulator.run")
    channel = mod("repro.core.refresh_channel")
    if channel is not None:
        tracer.patch(
            channel.WindowScheduler, "drain_window",
            "core.refresh_channel.drain_window",
        )
    energy = mod("repro.dram.energy")
    if energy is not None:
        for method in ("nma_page_access_j", "cpu_page_access_j"):
            tracer.patch(energy.AccessEnergyModel, method, "dram.energy")

    def traced_window_consumer(original):
        def schedule_windows(self, events, until_ns, on_window, *a, **k):
            return original(
                self, events, until_ns,
                tracer.wrap("core.emulator.window", on_window), *a, **k,
            )

        return schedule_windows

    def traced_callbacks(original):
        def schedule_at_ticks(self, ticks, fn):
            return original(self, ticks, tracer.wrap(_event_span_name(fn), fn))

        return schedule_at_ticks

    refresh = mod("repro.dram.refresh")
    if refresh is not None:
        tracer.replace(
            refresh.RefreshScheduler, "schedule_windows",
            traced_window_consumer,
        )
    events = mod("repro.sim.events")
    if events is not None:
        tracer.patch(events.EventScheduler, "step", "sim.events.step")
        tracer.replace(
            events.EventScheduler, "schedule_at_ticks", traced_callbacks
        )

    session = mod("repro.telemetry.session")
    if session is not None:

        def note_write(args, result):
            trace_path = Path(result[0])
            tracer.add("telemetry.write.trace_bytes", trace_path.stat().st_size)
            tracer.add("telemetry.write.trace_events", len(args[0].ring))

        tracer.patch(
            session.TelemetrySession, "write", "telemetry.write",
            on_return=note_write,
        )


def layer_metrics(
    tracer: Tracer, counters: Dict[str, float], native_loaded: bool
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, every name always present
    (0 where the workload never enters the layer)."""
    t = tracer
    m: Dict[str, float] = {}

    def calls_self(name: str) -> None:
        m[name + ".calls"] = t.calls(name)
        m[name + ".self_s"] = t.self_s(name)

    calls_self("fleet.traffic.page_for")
    m["fleet.traffic.generate_arrivals.self_s"] = t.self_s(
        "fleet.traffic.generate_arrivals"
    )
    calls_self("fleet.frontend.submit")
    m["fleet.frontend.shard_pump.self_s"] = t.self_s("fleet.frontend.shard_pump")
    for reason in ("rate", "queue_full", "deadline"):
        key = f"fleet.frontend.shed.{reason}"
        m[key] = counters.get(key, 0)

    for cls_name in CODECS:
        for method in CODEC_METHODS:
            name = f"compression.{cls_name}.{method}"
            calls_self(name)
            bytes_in = t.sums.get(name + ".bytes_in", 0.0)
            m[name + ".bytes_in"] = bytes_in
            m[name + ".bytes_out"] = t.sums.get(name + ".bytes_out", 0.0)
            self_s = t.self_s(name)
            m[name + ".host_mb_per_s"] = bytes_in / self_s / 1e6 if self_s else 0.0
    calls_self("compression.huffman.code_lengths_from_frequencies")
    m["compression.native_loaded"] = 1 if native_loaded else 0

    calls_self("sfm.swap_out")
    calls_self("sfm.swap_in")
    hits = counters.get("sfm.digest_cache_hits", 0)
    lookups = counters.get("sfm.digest_cache_lookups", 0)
    m["sfm.digest_cache_hits"] = hits
    m["sfm.digest_cache_lookups"] = lookups
    m["sfm.digest_cache_hit_rate"] = hits / lookups if lookups else 0.0

    calls_self("tiering.store")
    calls_self("tiering.load")
    for counter in ("store_fallthroughs", "demotions", "promotions"):
        m[f"tiering.{counter}"] = counters.get(f"tiering.{counter}", 0)
    for prefix in ("core.xfm", "dfm"):
        calls_self(prefix + ".swap_out")
        calls_self(prefix + ".swap_in")

    windows = t.calls("core.emulator.window")
    m["core.emulator.run.self_s"] = t.self_s("core.emulator.run")
    m["core.emulator.window.self_s"] = t.self_s("core.emulator.window")
    m["core.emulator.windows"] = windows
    calls_self("core.refresh_channel.drain_window")
    calls_self("dram.refresh.fire")
    calls_self("dram.energy")

    calls_self("sim.events.step")
    steps = t.calls("sim.events.step")
    m["sim.events.step.host_ns_per_event"] = (
        t.self_s("sim.events.step") / steps * 1e9 if steps else 0.0
    )

    m["telemetry.write.self_s"] = t.self_s("telemetry.write")
    m["telemetry.write.trace_bytes"] = t.sums.get("telemetry.write.trace_bytes", 0)
    m["telemetry.write.trace_events"] = t.sums.get(
        "telemetry.write.trace_events", 0
    )
    return m
