"""The digest gate flags an export that differs from the recorded bytes."""

from dataclasses import dataclass

import gate
import numpy as np


@dataclass
class Result:
    name: str
    values: np.ndarray


def test_perturbed_export_is_flagged(tmp_path):
    good = Result("fig-x", np.array([0.25, 0.5, 0.75]))
    digest = gate.export_digest(good, tmp_path / "a", "fig-x")
    recorded = {"2022": {"fig-x": digest}}
    assert gate.mismatches(recorded, 2022, {"fig-x": digest}) == []

    perturbed = Result("fig-x", np.array([0.25, 0.5, 0.7500000000000001]))
    other = gate.export_digest(perturbed, tmp_path / "b", "fig-x")
    assert other != digest
    assert gate.mismatches(recorded, 2022, {"fig-x": other}) == ["fig-x"]


def test_unrecorded_seed_or_experiment_fails():
    recorded = {"2022": {"fig9": "ab"}}
    assert gate.mismatches(recorded, 2023, {"fig9": "ab"}) == ["fig9"]
    assert gate.mismatches(recorded, 2022, {"fig10": "ab"}) == ["fig10"]


def test_every_benchmark_seed_has_recorded_digests():
    recorded = gate.load()
    for seed in range(2 * gate.N_SEEDS):
        table = recorded[str(gate.master_seed(seed))]
        assert set(table) == set(gate.TRIAL_SWEEP + gate.DEVICE_SWEEP)
    assert gate.master_seed(0) == 2022  # the program's DEFAULT_CONFIG
    assert str(gate.HELD_OUT_SEED) in recorded
