"""The three benchmark workloads, driven through the repo's public APIs.

Each workload splits into ``setup()`` (inputs and objects, untimed but
reported as set-up time) and ``run()`` (the timed region), then
``results()`` returns the simulated outputs, the per-operation host
latencies, the correctness tally and a digest of everything simulated.
Inputs depend only on the seed; the program under test only sees the
generated inputs.

* ``fleet-spike`` -- the default ``python -m repro fleet`` campaign
  (open loop, load generator, admission, shedding, trace export).
* ``pipeline-cascade`` -- one closed-loop client over a small-upper-tier
  ``TierPipeline`` (read-heavy, shared page content, demotion cascades).
* ``fig12-grid`` -- the Fig. 12 emulator grid (refresh-window model and
  event core, no codec byte work).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List

PAGE_SIZE = 4096


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _digest(obj: object) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _stored_per_user_byte(pipelines) -> float:
    used = sum(p.used_bytes() for p in pipelines)
    resident = sum(p.stored_pages() for p in pipelines) * PAGE_SIZE
    return used / resident if resident else 0.0


def pipeline_counters(pipelines) -> Dict[str, float]:
    """Tier-stack counters read from the pipelines' public stats."""
    out = {
        "tiering.store_fallthroughs": 0,
        "tiering.demotions": 0,
        "tiering.promotions": 0,
        "sfm.digest_cache_hits": 0,
        "sfm.digest_cache_lookups": 0,
    }
    for pipeline in pipelines:
        stats = pipeline.pipeline_stats
        out["tiering.store_fallthroughs"] += stats.store_fallthroughs
        out["tiering.demotions"] += stats.demotions
        out["tiering.promotions"] += stats.promotions
        for tier in pipeline.tiers:
            if type(tier).__name__ == "SfmBackend":
                hits = tier.stats.digest_cache_hits
                out["sfm.digest_cache_hits"] += hits
                out["sfm.digest_cache_lookups"] += (
                    hits + tier.stats.digest_cache_misses
                )
    return out


class FleetSpike:
    """``run_fleet(FleetConfig(seed=S), out_dir)``: steady -> 5x spike ->
    drain -> recovery, open loop in simulated time."""

    name = "fleet-spike"

    def __init__(self, seed: int, work_dir: Path, **config_overrides):
        self.seed = seed
        self.work_dir = work_dir
        self.overrides = config_overrides
        self.op_host_s: List[float] = []

    def setup(self) -> None:
        import repro.fleet.harness as harness
        from repro.fleet import FleetConfig, run_fleet

        frontends = []
        workload = self

        class RecordedFrontend(harness.FleetFrontend):
            """Keeps a handle on the campaign's frontend so the
            benchmark can read its shards' stats after the run, and
            notes the tier footprint and the served-call count when
            serving ends: the harness's verification sweep then loads
            every page back out through ``lookup``."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.footprint_at_sweep = None
                frontends.append(self)

            def lookup(self, key):
                if self.footprint_at_sweep is None:
                    self.footprint_at_sweep = _stored_per_user_byte(
                        [shard.pipeline for shard in self.shards.values()]
                    )
                    workload.served_calls = len(workload.op_host_s)
                return super().lookup(key)

        self._restore = [(harness, "FleetFrontend", harness.FleetFrontend)]
        harness.FleetFrontend = RecordedFrontend
        self.frontends = frontends
        self.config = FleetConfig(seed=self.seed, **self.overrides)
        self._run_fleet = run_fleet
        self.out_dir = self.work_dir / f"fleet-{self.seed}"
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self._time_pipeline_calls()

    def _time_pipeline_calls(self) -> None:
        """Record the host time of every ``TierPipeline.store``/``load``
        the shards make (one served request each)."""
        from repro.tiering.pipeline import TierPipeline

        samples = self.op_host_s
        clock = time.perf_counter
        for method in ("store", "load"):
            original = TierPipeline.__dict__[method]
            self._restore.append((TierPipeline, method, original))

            def timed(self, *args, _original=original, **kwargs):
                start = clock()
                try:
                    return _original(self, *args, **kwargs)
                finally:
                    samples.append(clock() - start)

            setattr(TierPipeline, method, timed)

    def run(self) -> None:
        self.report = self._run_fleet(self.config, self.out_dir)

    def pipelines(self):
        return [
            shard.pipeline
            for frontend in self.frontends
            for shard in frontend.shards.values()
        ]

    def results(self) -> Dict[str, object]:
        report = self.report
        verdict = report["verdict"]
        phases = report["phases"]
        offered = sum(p["offered"] for p in phases.values())
        served = sum(p["served"] for p in phases.values())
        spike = phases["spike"]
        pipelines = self.pipelines()
        report_bytes = (self.out_dir / "fleet_report.json").read_bytes()
        failed = verdict["acked_data_lost"] + verdict["silent_corruptions"]
        sim = {
            "sim_p50_us": spike["latency_ns"]["p50"] / 1e3,
            "sim_p99_us": spike["latency_ns"]["p99"] / 1e3,
            "goodput_rps": served / (self.config.total_ns / 1e9),
            "served_ratio": served / offered,
            "stored_bytes_per_user_byte": self.frontends[0].footprint_at_sweep,
        }
        shed = report["shedding"]["by_reason"]
        return {
            "attempted": offered,
            "failed": failed,
            "checks": {
                "acked_data_lost": verdict["acked_data_lost"],
                "silent_corruptions": verdict["silent_corruptions"],
            },
            "sim": sim,
            "sim_samples": {
                "sim_p50_us": spike["served"], "sim_p99_us": spike["served"],
            },
            "info": {"fail_ratio": 1.0 - served / offered},
            "op_host_s": self.op_host_s[:self.served_calls],
            "digest": hashlib.sha256(report_bytes).hexdigest()[:16],
            "counters": {
                **pipeline_counters(pipelines),
                "fleet.frontend.shed.rate": shed.get("rate-quota", 0),
                "fleet.frontend.shed.queue_full": shed.get("queue-full", 0),
                "fleet.frontend.shed.deadline": shed.get("deadline", 0),
            },
        }

    def cleanup(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        shutil.rmtree(self.out_dir, ignore_errors=True)


class PipelineCascade:
    """One closed-loop client over ``TierPipeline.build`` with small upper
    tiers and ``LruDemotion`` (the scenario-zoo rig). Telemetry stays off.

    Far memory starts prefilled (set-up) so that the read-heavy loop --
    70% exclusive loads, each taking a page out of far memory -- never
    runs dry. The prefill is cold data written straight to the DFM floor
    (an admission policy keeps it out of the upper tiers), so set-up
    costs no codec work. Loads pick resident keys with a power-law skew
    toward the most recently stored; stores mostly write back pages
    loaded earlier.
    Page content comes half from a hot head of the pool and half from
    the whole pool, which spans every corpus and holds more distinct
    pages than the SFM digest cache (1024 entries), so that cache both
    hits and misses. The seed draws every key, page and order; the
    proportions are fixed by stratifying the draws, so that run cost
    does not swing with the seed.
    """

    name = "pipeline-cascade"
    #: Each block of ten operations: seven loads, three stores.
    BLOCK = ("load",) * 7 + ("store",) * 3
    #: Load index = len(far) * u ** LOAD_SKEW over the recency order.
    LOAD_SKEW = 1.5
    #: Every NEW_KEY_EVERY-th store writes a new key instead of writing
    #: back the oldest locally held page.
    NEW_KEY_EVERY = 5
    HOT_CONTENT_PAGES = 64

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        ops: int = 5000,
        prefill: int = 2100,
        pool_pages_per_corpus: int = 80,
        upper_tier_pages: int = 32,
    ):
        self.seed = seed
        self.ops = ops
        self.prefill = prefill
        self.pool_pages_per_corpus = pool_pages_per_corpus
        self.upper_tier_pages = upper_tier_pages
        #: Host time of each load: the page fault a user waits on. Stores
        #: (swap-out happens in reclaim, off that path) count in wall_s.
        self.op_host_s: List[float] = []

    def setup(self) -> None:
        from repro.tiering.pipeline import TierPipeline
        from repro.tiering.policy import (
            AdmissionPolicy,
            AlwaysAdmit,
            LruDemotion,
        )
        from repro.workloads.corpus import CORPUS_NAMES, corpus_pages

        class FloorOnly(AdmissionPolicy):
            def admit(self, tier) -> bool:
                return type(tier).__name__ == "DfmBackend"

        self.rng = random.Random(self.seed)
        per_corpus = [
            corpus_pages(
                corpus, self.pool_pages_per_corpus, seed=self.seed * 31 + i
            )
            for i, corpus in enumerate(CORPUS_NAMES)
        ]
        # Interleaved, so every slice of the pool (the hot head too) has
        # the same corpus mix whatever the seed.
        self.pool = [page for group in zip(*per_corpus) for page in group]
        upper = self.upper_tier_pages * PAGE_SIZE
        self.pipeline = TierPipeline.build(
            cpu_capacity_bytes=upper,
            xfm_capacity_bytes=upper,
            dfm_capacity_bytes=4 * (self.prefill + self.ops) * PAGE_SIZE,
            demotion=LruDemotion(watermark_fraction=0.6),
            admission=FloorOnly(),
        )
        self.tiers = self.pipeline.tiers_by_name()
        #: Ground truth for every page in far memory.
        self.shadow: Dict[int, bytes] = {}
        #: Keys in far memory, most recently stored first.
        self.far: List[int] = []
        #: Keys loaded back and held locally, oldest first.
        self.local: List[int] = []
        self.next_key = 0
        self.stores = 0
        for _ in range(self.prefill):
            key = self._new_key()
            data = self._pick_page()
            if not self.pipeline.store(key, data):
                raise RuntimeError(f"pipeline rejected prefill key {key}")
            self.shadow[key] = data
            self.far.insert(0, key)
        self.pipeline.admission = AlwaysAdmit()
        self.plan: List[str] = []
        while len(self.plan) < self.ops:
            block = list(self.BLOCK)
            self.rng.shuffle(block)
            self.plan += block
        del self.plan[self.ops:]
        self.counters_after_setup = pipeline_counters([self.pipeline])
        self.load_model_s: List[float] = []
        self.store_model_s: List[float] = []
        self.trail: List[object] = []
        self.failed = 0

    def _new_key(self) -> int:
        key = self.next_key
        self.next_key += 1
        return key

    def _pick_page(self) -> bytes:
        """Alternately a hot page and a page from the whole pool."""
        self.stores += 1
        head = self.HOT_CONTENT_PAGES if self.stores % 2 else len(self.pool)
        return self.pool[self.rng.randrange(head)]

    def run(self) -> None:
        pipeline = self.pipeline
        rng = self.rng
        clock = time.perf_counter
        lat = self.op_host_s
        for op in self.plan:
            if op == "load" and self.far:
                index = int(len(self.far) * rng.random() ** self.LOAD_SKEW)
                key = self.far.pop(index)
                tier = pipeline.tier_of_key(key)
                start = clock()
                data = pipeline.load(key)
                lat.append(clock() - start)
                if data != self.shadow.pop(key):
                    self.failed += 1
                self.local.append(key)
                self.load_model_s.append(self.tiers[tier].swap_latency_s("in"))
                self.trail.append(("L", key, tier))
            else:
                if self.local and self.stores % self.NEW_KEY_EVERY:
                    key = self.local.pop(0)
                else:
                    key = self._new_key()
                data = self._pick_page()
                if not pipeline.store(key, data):
                    self.failed += 1
                    continue
                self.shadow[key] = data
                self.far.insert(0, key)
                tier = pipeline.tier_of_key(key)
                self.store_model_s.append(self.tiers[tier].swap_latency_s("out"))
                self.trail.append(("S", key, tier))

    def results(self) -> Dict[str, object]:
        loads = self.load_model_s
        modelled_s = sum(loads) + sum(self.store_model_s)
        pipeline = self.pipeline
        return {
            "attempted": len(self.plan),
            "failed": self.failed,
            "checks": {"load_mismatches_or_rejects": self.failed},
            "sim": {
                "sim_p50_us": percentile(loads, 0.50) * 1e6,
                "sim_p99_us": percentile(loads, 0.99) * 1e6,
                "goodput_rps": len(self.trail) / modelled_s,
                "served_ratio": len(self.trail) / len(self.plan),
                "stored_bytes_per_user_byte": _stored_per_user_byte([pipeline]),
            },
            "sim_samples": {"sim_p50_us": len(loads), "sim_p99_us": len(loads)},
            "info": {"fail_ratio": 1.0 - len(self.trail) / len(self.plan)},
            "op_host_s": self.op_host_s,
            "digest": _digest(
                [self.trail, pipeline_counters([pipeline]),
                 pipeline.used_bytes()]
            ),
            # Counted over the timed loop only, not the prefill.
            "counters": {
                name: value - self.counters_after_setup[name]
                for name, value in pipeline_counters([pipeline]).items()
            },
        }

    def cleanup(self) -> None:
        pass


class Fig12Grid:
    """``XfmEmulator(EmulatorConfig(seed=S, ...)).run()`` over the Fig. 12
    grid: 2 promotion rates x 4 SPM sizes x 3 access budgets."""

    name = "fig12-grid"
    PROMOTION_RATES = (0.5, 1.0)
    SPM_MIB = (1, 2, 4, 8)
    ACCESSES_PER_REF = (1, 2, 3)

    def __init__(self, seed: int, work_dir: Path, sim_time_s: float = 0.05):
        self.seed = seed
        self.sim_time_s = sim_time_s
        self.op_host_s: List[float] = []

    def setup(self) -> None:
        from repro.core.emulator import EmulatorConfig, XfmEmulator

        self.emulator = XfmEmulator
        self.configs = [
            EmulatorConfig(
                seed=self.seed,
                promotion_rate=rate,
                spm_bytes=spm << 20,
                accesses_per_ref=budget,
                sim_time_s=self.sim_time_s,
            )
            for rate in self.PROMOTION_RATES
            for spm in self.SPM_MIB
            for budget in self.ACCESSES_PER_REF
        ]

    def run(self) -> None:
        clock = time.perf_counter
        self.reports = []
        for config in self.configs:
            start = clock()
            self.reports.append(self.emulator(config).run())
            self.op_host_s.append(clock() - start)

    def results(self) -> Dict[str, object]:
        reports = self.reports
        total = sum(r.total_ops for r in reports)
        fallbacks = sum(r.fallback_ops for r in reports)
        completed = sum(r.completed_ops for r in reports)
        sim_s = sum(r.sim_time_s for r in reports)
        p50s = [r.latency_percentiles_ms[50] for r in reports]
        p99s = [r.latency_percentiles_ms[99] for r in reports]
        return {
            "attempted": total,
            "failed": 0,
            "checks": {},
            "sim": {
                "sim_p50_us": percentile(p50s, 0.5) * 1e3,
                "sim_p99_us": percentile(p99s, 0.5) * 1e3,
                "goodput_rps": completed / sim_s,
                # Offloads the NMA served; the rest fell back to the CPU.
                "served_ratio": (total - fallbacks) / total,
                # Fixed by the emulator's configured compression ratio.
                "stored_bytes_per_user_byte": (
                    reports[0].config.blob_bytes / PAGE_SIZE
                ),
            },
            "sim_samples": {
                "sim_p50_us": len(reports), "sim_p99_us": len(reports),
            },
            "info": {"fallback_pct": 100.0 * fallbacks / total},
            "op_host_s": self.op_host_s,
            "digest": _digest(
                [
                    [r.total_ops, r.fallback_ops, r.completed_ops,
                     r.conditional_accesses, r.random_accesses,
                     r.spm_peak_bytes, r.nma_bytes_moved,
                     r.latency_percentiles_ms]
                    for r in reports
                ]
            ),
            "counters": {},
        }

    def cleanup(self) -> None:
        pass


WORKLOADS = {
    FleetSpike.name: FleetSpike,
    PipelineCascade.name: PipelineCascade,
    Fig12Grid.name: Fig12Grid,
}


def make(name: str, seed: int, work_dir, **overrides):
    """Build workload ``name`` for ``seed``, writing under ``work_dir``;
    ``overrides`` shrink it (tests)."""
    return WORKLOADS[name](seed, Path(work_dir), **overrides)
