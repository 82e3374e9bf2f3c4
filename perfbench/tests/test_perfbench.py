"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Tiny-size runs of each workload, the pipeline-cascade byte check, the
self-time arithmetic on a hand-built span tree, and the traced layer
boundaries.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layertrace  # noqa: E402
import workloads  # noqa: E402
from layertrace import Span, Tracer, self_times  # noqa: E402

TINY = {
    "fleet-spike": dict(
        steady_ns=2e6, spike_ns=1e6, drain_guard_ns=0.5e6, recovery_ns=2e6,
    ),
    "pipeline-cascade": dict(
        ops=120, prefill=80, pool_pages_per_corpus=4, upper_tier_pages=8,
    ),
    "fig12-grid": dict(sim_time_s=0.0005),
}


def _run(name, tmp_path, seed=3, tracer=None):
    work = workloads.make(name, seed, tmp_path, **TINY[name])
    work.setup()
    try:
        if tracer is not None:
            layertrace.install(tracer)
        try:
            work.run()
        finally:
            if tracer is not None:
                tracer.unpatch()
        return work.results()
    finally:
        work.cleanup()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_completes_and_repeats(name, tmp_path):
    first = _run(name, tmp_path)
    second = _run(name, tmp_path)
    assert first["failed"] == 0
    assert first["attempted"] > 0
    assert first["digest"] == second["digest"]
    assert first["sim"] == second["sim"]
    assert all(value > 0 for value in first["sim"].values()), first["sim"]
    assert first["op_host_s"]


def test_another_seed_gives_other_inputs(tmp_path):
    assert (
        _run("pipeline-cascade", tmp_path, seed=3)["digest"]
        != _run("pipeline-cascade", tmp_path, seed=4)["digest"]
    )


def test_wrong_byte_fails_the_pipeline_check(tmp_path, monkeypatch):
    from repro.tiering.pipeline import TierPipeline

    original = TierPipeline.load
    flipped = []

    def corrupt_once(self, key):
        data = original(self, key)
        if data is not None and not flipped:
            flipped.append(key)
            data = bytes([data[0] ^ 1]) + data[1:]
        return data

    monkeypatch.setattr(TierPipeline, "load", corrupt_once)
    result = _run("pipeline-cascade", tmp_path)
    assert flipped
    assert result["failed"] == 1


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c
    # [2, 3]; d [6, 8] and e [7, 8.5] under b overlap each other.
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "c", 2.0, 3.0, 1, None),
        Span(3, "b", 5.0, 9.0, 0, None),
        Span(4, "d", 6.0, 8.0, 3, None),
        Span(5, "e", 7.0, 8.5, 3, None),
    ]
    out = self_times(spans)
    assert out["root"] == [1, pytest.approx(3.0), pytest.approx(10.0)]
    assert out["a"] == [1, pytest.approx(2.0), pytest.approx(3.0)]
    assert out["c"] == [1, pytest.approx(1.0), pytest.approx(1.0)]
    # b's children cover [6, 8.5]: the overlap counts once.
    assert out["b"] == [1, pytest.approx(1.5), pytest.approx(4.0)]
    # Non-overlapping trees: self times add up to the root's duration.
    nested = [s for s in spans if s.name != "e"]
    assert sum(row[1] for row in self_times(nested).values()) == (
        pytest.approx(10.0)
    )


def test_tracer_nests_spans_and_inherits_request_ids():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap(
        "outer", lambda x: inner(x) * 2, rid_of=lambda args: 7
    )
    assert outer(1) == 4
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    assert tracer.total_s("outer") >= tracer.total_s("inner")
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner")
    )
    root, child = sorted(tracer.kept, key=lambda s: s.start)
    assert child.parent == root.sid
    assert root.rid == child.rid == 7


@pytest.mark.parametrize(
    "name, must_run",
    [
        ("fleet-spike", ("fleet.traffic.page_for", "fleet.frontend.submit",
                         "tiering.store", "sim.events.step",
                         "telemetry.write")),
        ("pipeline-cascade", ("tiering.store", "tiering.load",
                              "compression.ZstdLikeCodec.decompress",
                              "sfm.swap_out")),
        ("fig12-grid", ("core.emulator.run", "dram.refresh.fire",
                        "core.refresh_channel.drain_window", "dram.energy",
                        "sim.events.step")),
    ],
)
def test_traced_run_reaches_each_layer(name, must_run, tmp_path):
    tracer = Tracer()
    result = _run(name, tmp_path, tracer=tracer)
    metrics = layertrace.layer_metrics(tracer, result["counters"], True)
    assert len(metrics) > 80
    for span in must_run:
        assert tracer.calls(span) > 0, span
    assert 0 < tracer.attributed_s() <= sum(
        row[1] for row in tracer.totals.values()
    )
    # Tracing must not change what is simulated.
    assert result["digest"] == _run(name, tmp_path)["digest"]
