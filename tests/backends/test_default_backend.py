"""The default backend is ``fused``: ``backend=None`` runs the xir path.

Experiments decide whether to fuse through
:func:`repro.experiments.base.runs_fused`, which resolves the configured
name through the registry — so the default path (no ``--backend``), not
just an explicit ``--backend fused``, must compile xir programs, and
must still export exactly the bytes of the unfused ``batched`` engine,
serially and under fleet workers.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.base import runs_fused
from repro.experiments.report import export_json
from repro.experiments.runner import run_experiment
from repro.telemetry import Telemetry, activate, deactivate
from repro.xir import clear_xir_cache, xir_cache_info

CONFIG = ExperimentConfig(columns=32, rows_per_subarray=16,
                          subarrays_per_bank=2, n_banks=2, chips_per_group=2)


def exported(name, config, tmp_path) -> bytes:
    tag = config.backend or "default"
    path = export_json(run_experiment(name, config),
                       tmp_path / f"{name}-{tag}.json")
    return path.read_bytes()


def test_runs_fused_resolves_through_the_registry():
    assert runs_fused(CONFIG)
    assert runs_fused(CONFIG.scaled(backend="fused"))
    for name in ("batched", "scalar", "plan"):
        assert not runs_fused(CONFIG.scaled(backend=name))


@pytest.mark.parametrize("name", ["fig9", "fig11"])
def test_default_path_compiles_xir_and_matches_batched(name, tmp_path):
    clear_xir_cache()
    default = exported(name, CONFIG, tmp_path)
    assert xir_cache_info()["misses"] > 0, (
        f"{name} with backend=None never reached the xir compiler")
    clear_xir_cache()
    batched = exported(name, CONFIG.scaled(backend="batched"), tmp_path)
    assert xir_cache_info()["misses"] == 0
    assert default == batched


@pytest.mark.fleet
def test_two_worker_fleet_stamps_fused_and_matches_serial(tmp_path):
    serial = exported("fig6", CONFIG, tmp_path)
    telemetry = activate(Telemetry())
    try:
        parallel = run_experiment("fig6", CONFIG, workers=2)
    finally:
        deactivate()
    assert telemetry.notes["fleet.fig6.backend"] == "fused"
    assert export_json(parallel, tmp_path / "fig6-fleet.json").read_bytes() \
        == serial
