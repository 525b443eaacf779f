"""Shared fixtures: one small enrolled fleet per test module.

Enrollment runs the device-batched engine, so the database is built
once (session scope) and shared read-only across tests.  Nine modules
over groups A/B/C covers mixed-vendor coalescing, the MAJ3-capable
group (B) and two MAJ3-incapable ones.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceConfig, VerificationEngine, build_enrollment

SERVICE_GROUPS = ("A", "B", "C")
N_MODULES = 9


@pytest.fixture(scope="session")
def service_config() -> ServiceConfig:
    return ServiceConfig(groups=SERVICE_GROUPS)


@pytest.fixture(scope="session")
def enrolled_db(service_config):
    return build_enrollment(service_config, N_MODULES)


class FaultyEngine:
    """A real engine whose first ``execute`` raises."""

    def __init__(self, engine: VerificationEngine) -> None:
        self.engine = engine
        self.config = engine.config
        self.calls = 0

    def execute(self, requests, batch_index=0):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("injected engine fault")
        return self.engine.execute(requests, batch_index)


@pytest.fixture
def faulty_engine(enrolled_db):
    return FaultyEngine(VerificationEngine(enrolled_db))
