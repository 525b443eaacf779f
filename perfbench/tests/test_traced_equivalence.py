"""Tracing observes the program without changing what it computes."""

import json
from pathlib import Path

import gate
import worker
from spans import Tracer

import repro.service
from repro.experiments.base import DEFAULT_CONFIG
from repro.experiments.runner import run_experiment
from repro.service import (ServiceConfig, VerificationEngine, WorkloadSpec,
                           build_enrollment, generate_schedule)

SMALL = DEFAULT_CONFIG.scaled(columns=64)


def test_traced_exports_equal_untraced(tmp_path):
    for name in ("fig6", "fig8"):
        plain = gate.export_digest(run_experiment(name, SMALL),
                                   tmp_path / "plain", name)
        with Tracer() as tracer:
            traced = gate.export_digest(run_experiment(name, SMALL),
                                        tmp_path / "traced", name)
        assert traced == plain, name
        assert tracer.spans, name


def test_traced_serve_decisions_equal_untraced():
    config = ServiceConfig(columns=32, n_challenges=2, enroll_batch=16)
    requests = [request for _, request in generate_schedule(
        build_enrollment(config, 48),
        WorkloadSpec(seed=3, n_requests=24, impostor_fraction=0.25))]
    plain_db = build_enrollment(config, 48)
    plain = VerificationEngine(plain_db).execute(requests)
    with Tracer() as tracer:
        # Through the package binding, which the tracer wraps (this
        # module's own name was bound before tracing began).
        traced_db = repro.service.build_enrollment(config, 48)
        traced = VerificationEngine(traced_db).execute(requests)
    assert (traced_db.references == plain_db.references).all()
    assert traced == plain
    layers = worker.layer_metrics(tracer)
    assert layers["service.batches"] == 1
    assert layers["puf.match_calls"] == len(requests)
    # Enrollment, one lane per request, and the one scalar donor chip the
    # engine fabricates for group B's MAJ3 attestation plan.
    assert layers["dram.fab_lanes"] == 48 + len(requests) + 1
    assert layers["service.enroll_s"] > 0.0
    assert layers["puf.nist_s"] == 0.0


def test_layer_metrics_are_declared_in_benchmark_json():
    spec = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    declared = {entry["name"]
                for entry in json.loads(spec.read_text())["per_layer"]}
    produced = set(worker.layer_metrics(Tracer(layers=())))
    assert produced <= declared
