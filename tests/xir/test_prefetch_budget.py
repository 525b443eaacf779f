"""Budget-capped draw prefetch: sub-regions bound memory, never bytes.

``repro.xir.executor._PREFETCH_BUDGET`` caps each prefetched draw
matrix.  Shrinking it to a single row forces every region apart at each
``sense`` segment, so the fused executor crosses a sub-region boundary
inside nearly every op:

* a chained :meth:`FusedFracPuf.evaluate_many` (one Leak-free region
  spanning the whole challenge set) splits into many sub-regions;
* the fig6 retention pass splits on both sides of its Leak, and its
  ``n_frac = 0`` shape leaves sub-regions holding only dead write draws,
  which the telemetry-off fast plan must still advance with ``skip``
  runs.

No matrix may exceed the budget unless it is one uncuttable unit (a
``sense`` segment plus the charge shares up to the next one), and every
output must equal the batched engine byte for byte — telemetry off (fast
plan) and on (full plan, identical deterministic counters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.retention import BatchedRetentionProfiler
from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams
from repro.puf.batched_puf import BatchedFracPuf
from repro.puf.frac_puf import Challenge
from repro.telemetry import session as telemetry_session
from repro.xir import FusedFracPuf, FusedRetentionProfiler, executor

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)
ROW_BYTES = 8 * GEOMETRY.columns
PUF_UNITS = [("B", 0), ("C", 1), ("G", 2), ("A", 3)]
#: J enforces command spacing, so the retention runner splits two lane
#: classes that must cross sub-regions in lockstep.
RETENTION_UNITS = [("B", 0), ("C", 1), ("J", 0), ("G", 2)]
CHALLENGES = [Challenge(bank, row) for bank, row in
              [(0, 3), (1, 20), (0, 17), (1, 2), (0, 9), (1, 25)]]


def make_fleet(units, seed=11):
    return BatchedChip.from_fleet(units, geometry=GEOMETRY, master_seed=seed,
                                  epochs=[0] * len(units))


@pytest.fixture
def schedules(monkeypatch):
    """One-row budget; record each schedule's sub-regions.

    A recorded schedule is a list of regions, each a list of
    ``(segment kinds, full-plan rows, fast-plan rows)`` per sub-region.
    """
    monkeypatch.setattr(executor, "_PREFETCH_BUDGET", ROW_BYTES)
    cut_region = executor.FusedRunner._cut_region
    schedule = executor.FusedRunner._schedule
    cuts: list = []
    recorded: list = []

    def recording_cut(self, region, bindings):
        parts = cut_region(self, region, bindings)
        cuts.append([tuple(segment[0] for segment in part)
                     for part in parts])
        return parts

    def recording_schedule(self, program, bindings, class_lanes):
        cuts.clear()
        regions = schedule(self, program, bindings, class_lanes)
        recorded.append([
            [(kinds, full[0], fast[0])
             for kinds, (full, fast) in zip(region_kinds, plans)]
            for region_kinds, plans in zip(cuts, regions)])
        return regions

    monkeypatch.setattr(executor.FusedRunner, "_cut_region", recording_cut)
    monkeypatch.setattr(executor.FusedRunner, "_schedule",
                        recording_schedule)
    return recorded


def assert_within_budget(recorded):
    assert recorded
    for schedule in recorded:
        for region in schedule:
            assert region, "every region keeps at least one sub-region"
            for kinds, full_rows, fast_rows in region:
                assert fast_rows <= full_rows
                if full_rows * ROW_BYTES > executor._PREFETCH_BUDGET:
                    assert "sense" not in kinds[1:], (
                        f"over-budget sub-region could have been cut: "
                        f"{kinds}")


def counters_of(telemetry):
    return telemetry.snapshot(deterministic=True)["counters"]


def puf_epochs(puf):
    """Two back-to-back epochs (stream continuity), then a reseed."""
    out = [puf.evaluate_many(CHALLENGES), puf.evaluate_many(CHALLENGES)]
    puf.reseed_noise(1)
    out.append(puf.evaluate_many(CHALLENGES))
    return out


class TestChainedPuf:
    def test_fast_plan_matches_batched(self, schedules):
        expected = puf_epochs(BatchedFracPuf(make_fleet(PUF_UNITS)))
        fused = puf_epochs(FusedFracPuf(make_fleet(PUF_UNITS)))
        for reference, candidate in zip(expected, fused):
            assert np.array_equal(reference, candidate)
        assert_within_budget(schedules)
        chained_region = schedules[0][0]
        assert len(chained_region) >= len(CHALLENGES)

    def test_full_plan_matches_batched_with_counters(self, schedules):
        with telemetry_session() as batched_telemetry:
            expected = puf_epochs(BatchedFracPuf(make_fleet(PUF_UNITS)))
        with telemetry_session() as fused_telemetry:
            fused = puf_epochs(FusedFracPuf(make_fleet(PUF_UNITS)))
        for reference, candidate in zip(expected, fused):
            assert np.array_equal(reference, candidate)
        assert counters_of(fused_telemetry) == counters_of(batched_telemetry)
        assert_within_budget(schedules)


def profile(profiler_cls):
    targets = [[(0, 5 + lane), (1, 18 + 3 * lane)]
               for lane in range(len(RETENTION_UNITS))]
    profiler = profiler_cls(BatchedFracDram(make_fleet(RETENTION_UNITS)))
    return [row.buckets for row in
            profiler.profile_rows(targets, (0, 1, 3))]


class TestRetention:
    def test_fast_plan_matches_batched(self, schedules):
        expected = profile(BatchedRetentionProfiler)
        fused = profile(FusedRetentionProfiler)
        for reference, candidate in zip(expected, fused):
            assert np.array_equal(reference, candidate)
        assert_within_budget(schedules)
        leaking = [schedule for schedule in schedules if len(schedule) == 2]
        assert leaking, "no probe ran a Leak"
        assert any(all(len(region) >= 2 for region in schedule)
                   for schedule in leaking), (
            "no Leak program split on both sides of its Leak")

    def test_full_plan_matches_batched_with_counters(self, schedules):
        with telemetry_session() as batched_telemetry:
            expected = profile(BatchedRetentionProfiler)
        with telemetry_session() as fused_telemetry:
            fused = profile(FusedRetentionProfiler)
        for reference, candidate in zip(expected, fused):
            assert np.array_equal(reference, candidate)
        assert counters_of(fused_telemetry) == counters_of(batched_telemetry)
        assert_within_budget(schedules)


def test_default_budget_leaves_small_regions_whole():
    """At the shipped budget a small program prefetches whole regions."""
    puf = FusedFracPuf(make_fleet(PUF_UNITS))
    runner = puf._runner
    puf.evaluate_many(CHALLENGES)
    for *_, schedule in runner._bind_cache.values():
        assert all(len(region) == 1 for region in schedule)
