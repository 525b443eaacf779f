"""The fused-experiment registry and lowering-refusal diagnostics.

``repro.xir.XIR_LOWERED_EXPERIMENTS`` is the documented contract for
which experiments ride the fused executor under the ``fused`` backend,
the registry default (everything else inherits the batched engine).
Pinning it here keeps the registry, the docs and the per-experiment
retrofits from drifting apart silently.
"""

from __future__ import annotations

import pytest

from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams
from repro.xir import XIR_LOWERED_EXPERIMENTS, XirLoweringError, ir
from repro.xir.executor import FusedRunner

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)


def test_registry_pins_the_lowered_experiments():
    assert XIR_LOWERED_EXPERIMENTS == ("fig6", "fig9", "fig10", "fig11",
                                       "nist")


def test_registry_names_real_experiments():
    from repro.experiments.runner import EXPERIMENTS

    for name in XIR_LOWERED_EXPERIMENTS:
        assert name in EXPERIMENTS


def test_lowered_experiments_accept_the_fused_backend():
    """Every registered experiment's module takes the backend branch.

    The retrofits gate on ``runs_fused(config)`` (resolved through the
    registry, so the ``fused`` default takes it too) with a lazy
    ``from ..xir import ...``; a typo'd import would only explode at
    run time, so grep the source of each registered module for the
    branch instead of running full experiments here (the conformance
    suite and CI cover execution).
    """
    import importlib
    import inspect

    modules = {
        "fig6": "repro.experiments.fig6_retention",
        "fig9": "repro.experiments.fig9_fmaj_coverage",
        "fig10": "repro.experiments.fig10_fmaj_stability",
        "fig11": "repro.experiments.fig11_puf_hd",
        "nist": "repro.experiments.nist_randomness",
    }
    assert set(modules) == set(XIR_LOWERED_EXPERIMENTS)
    for name in XIR_LOWERED_EXPERIMENTS:
        module = importlib.import_module(modules[name])
        source = inspect.getsource(module)
        assert "if runs_fused(config):" in source, name
        assert 'backend == "fused"' not in source, name


def test_refusal_names_the_offending_op():
    """An unlowerable program's error points at the experiment op."""
    device = BatchedChip.from_fleet([("B", 0), ("B", 1)], geometry=GEOMETRY,
                                    master_seed=7, epochs=[0, 0])
    runner = FusedRunner(BatchedFracDram(device).mc)
    ops = (ir.WriteRow(0, "t", True), ir.ReadRow(1, "t"))
    with pytest.raises(XirLoweringError,
                       match=r"while lowering ReadRow\(bank=1, rows='t'\)"):
        runner.run(ops, rows={"t": [1, 1]})
