"""Fig. 1 — SFM memory-bandwidth utilization vs rank count.

Paper claim: CPU-centric SFM's DDR traffic grows with capacity (rank
count) toward the channel limit, while XFM's per-rank refresh side channel
absorbs the same traffic with rank-level parallelism; XFM eliminates SFM
channel bandwidth for capacities up to ~1 TB.

The table is rendered by :func:`repro.analysis.goldens.fig1_table`,
shared with ``python -m repro fig1``.
"""

from repro.analysis.figures import fig1_bandwidth_series, max_supported_sfm_gb
from repro.analysis.goldens import fig1_table


def test_fig1_bandwidth(once, emit):
    points = once(fig1_bandwidth_series, rank_counts=(4, 8, 16, 32, 64))
    emit("fig01_bandwidth", fig1_table(points))

    # Shape: CPU traffic scales with ranks; XFM per-rank demand flat & fits.
    assert points[-1].cpu_sfm_channel_gbps > 8 * points[0].cpu_sfm_channel_gbps
    assert all(p.xfm_utilization < 0.5 for p in points)
    assert max_supported_sfm_gb(num_ranks=16) >= 1000.0
