"""Fig. 3 — capital cost and emissions of SFM vs DFM, normalized to DFM.

Paper claims: SFM at 100% promotion takes ~8.5 years to break even with a
DRAM-based DFM in cost; at 20% promotion SFM can beat even PMem-based DFM;
DRAM-DFM's embodied emissions mean the (accelerated) SFM never breaks even
within a 5-year server lifetime.

The series tables are rendered by :func:`repro.analysis.goldens.fig3_table`,
shared with ``python -m repro fig3``.
"""

import pytest

from repro.analysis.goldens import fig3_table
from repro.costmodel import CostParams, MemoryKind
from repro.costmodel.breakeven import (
    sfm_vs_dfm_cost_breakeven,
    sfm_vs_dfm_emission_breakeven,
)


def test_fig3_cost(once, emit):
    table = once(fig3_table, "cost")
    params = CostParams()
    be_100 = sfm_vs_dfm_cost_breakeven(params, 1.0)
    be_20_pmem = sfm_vs_dfm_cost_breakeven(params, 0.2, MemoryKind.PMEM)
    table += (
        f"\ncost break-even, SFM@100% vs DFM-DRAM: {be_100:.1f} years"
        f" (paper: 8.5)"
        f"\ncost break-even, SFM@20% vs DFM-PMem: "
        f"{'never' if be_20_pmem is None else f'{be_20_pmem:.1f} years'}"
        f" (paper: SFM can beat even PMem)"
    )
    emit("fig03_cost", table)
    assert be_100 == pytest.approx(8.5, abs=0.3)
    assert be_20_pmem is None or be_20_pmem > 10.0


def test_fig3_emissions(once, emit):
    table = once(fig3_table, "emission")
    params = CostParams()
    be_xfm = sfm_vs_dfm_emission_breakeven(params, 1.0, accelerated=True)
    be_cpu = sfm_vs_dfm_emission_breakeven(params, 0.2)
    table += (
        f"\nemission break-even, XFM-SFM@100% vs DFM-DRAM: "
        f"{'never' if be_xfm is None else f'{be_xfm:.1f} years'}"
        f" (paper: never within server lifetime)"
        f"\nemission break-even, CPU-SFM@20% vs DFM-DRAM: "
        f"{'never' if be_cpu is None else f'{be_cpu:.1f} years'}"
        f" (literal EQ5 crosses earlier than the paper's figure; see"
        f" EXPERIMENTS.md)"
    )
    emit("fig03_emissions", table)
    assert be_xfm is None
    assert be_cpu is not None and be_cpu > 1.0
