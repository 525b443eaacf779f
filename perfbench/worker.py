"""One fresh benchmark process: a sweep, a serving session, or a set-up probe.

``run.py`` starts this script once per measurement with a job file and
reads the result file it writes; nothing else passes between them.
The job names ``t0``, the parent's ``time.perf_counter()`` just before
the process was started (CLOCK_MONOTONIC, shared by all processes), so
set-up time includes interpreter start and imports.

Modes:

* ``sweep``   — ``run_experiment`` on each named experiment at
  ``DEFAULT_CONFIG`` with the job's master seed, serially, without a
  result cache; then export and hash every result.
* ``serve``   — enroll the fleet, start ``PufAuthService`` behind its
  JSON-lines TCP transport on 127.0.0.1, then drive it over one
  pipelined connection: back-to-back bursts (throughput), and with
  ``paced`` Poisson open loops at the low and high rates (latency).
* mode ``setup`` — the set-up part of a sweep, then exit.

With ``traced`` the layer wrappers of :mod:`spans` are installed for
the measured part and the per-layer totals are returned.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import gate
import loadgen
import stats
from spans import Tracer

#: The serving deployment (the ``BENCH_service`` setup, kept for
#: continuity): 128 columns x 4 challenges = 512 response bits.
N_MODULES = 10_000
COLUMNS, N_CHALLENGES, ENROLL_BATCH = 128, 4, 256
MAX_LANES, MAX_WAIT_S = 48, 0.01
IMPOSTOR_FRACTION = 0.2
#: Requests per back-to-back burst, and the pool bursts cycle through.
BURST = 192
BURST_POOL = 4
#: Offered loads of the paced phases (requests/s) and their lengths:
#: 1000 requests leave ten samples beyond p99.
RATES = {"low": 40.0, "high": 100.0}
PACED_REQUESTS = 1000
SLO_S = 0.250
#: Replies re-decided by the scalar Authenticator, per run.
SCALAR_CHECKS = 8
REPLY_TIMEOUT_S = 60.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures every workload reports (0 where unused)."""
    totals = tracer.totals()

    def get(layer: str, what: str) -> float:
        entry = totals.get(layer)
        return float(getattr(entry, what)) if entry else 0.0

    out = {
        "controller.replay_self_s": get("controller.replay", "self_s"),
        "controller.replay_calls": get("controller.replay", "calls"),
        "dram.fab_s": get("dram.fab", "inclusive_s"),
        "dram.fab_lanes": float(sum(
            1 for span in tracer.spans
            if span.layer == "dram.fab" and span.note == "chip")),
        "dram.activate_s": get("dram.activate", "inclusive_s"),
        "dram.activate_calls": get("dram.activate", "calls"),
        "dram.settle_s": get("dram.settle", "inclusive_s"),
        "dram.precharge_s": get("dram.precharge", "inclusive_s"),
        "dram.rw_s": get("dram.rw", "inclusive_s"),
        "dram.leak_s": get("dram.leak", "inclusive_s"),
        "dram.xir_kernel_s": get("dram.xir_kernel", "inclusive_s"),
        "xir.compile_s": get("xir.compile", "inclusive_s"),
        "xir.run_self_s": get("xir.run", "self_s"),
        "puf.eval_s": get("puf.eval", "inclusive_s"),
        "puf.match_s": get("puf.match", "inclusive_s"),
        "puf.match_calls": get("puf.match", "calls"),
        "puf.nist_s": get("puf.nist", "inclusive_s"),
        "service.enroll_s": get("service.enroll", "inclusive_s"),
        "service.engine_s": get("service.engine", "inclusive_s"),
        "service.batches": get("service.engine", "calls"),
        "service.transport_s": get("service.transport", "inclusive_s"),
    }
    from repro.xir.compile import xir_cache_info

    out["xir.compiles"] = float(xir_cache_info()["misses"])
    return out


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def run_sweep(job: dict) -> dict:
    from repro.experiments.base import DEFAULT_CONFIG
    from repro.experiments.runner import run_experiment

    config = DEFAULT_CONFIG.scaled(master_seed=job["master_seed"])
    tracer = Tracer().install() if job["traced"] else None
    ready = time.perf_counter()
    result: dict = {"setup_s": ready - job["t0"]}
    if job["mode"] == "setup":
        return result
    outputs, per_experiment = {}, {}
    for name in job["experiments"]:
        started = time.perf_counter()
        with (tracer.span(f"experiments.{name}") if tracer is not None
              else nullcontext()):
            outputs[name] = run_experiment(name, config, workers=0,
                                           cache=None)
        per_experiment[name] = time.perf_counter() - started
    result["wall_s"] = time.perf_counter() - ready
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        result["layers"].update({f"experiments.{name}_s": seconds
                                 for name, seconds in per_experiment.items()})
        tracer.dump(job["spans"])
    digests = {name: gate.export_digest(output, Path(job["dir"]) / "export",
                                        name)
               for name, output in outputs.items()}
    bad = gate.mismatches(gate.load(), job["master_seed"], digests)
    result.update(attempted=len(digests), failed=len(bad), mismatched=bad,
                  digests=digests, per_experiment_s=per_experiment)
    return result


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------

def request_line(request) -> tuple[str, str]:
    return request.request_id, json.dumps({
        "id": request.request_id, "group": request.group_id,
        "serial": request.serial, "epoch": request.epoch,
        "claim": request.claimed_id}, sort_keys=True)


def judge(enrolled: set[str], request, reply: dict | None) -> bool:
    """Genuine modules are accepted as themselves; impostors are rejected."""
    if reply is None or "error" in reply:
        return False
    if request.presented_id in enrolled:
        return (reply["accepted"] is True
                and reply["device_id"] == request.presented_id)
    return reply["accepted"] is False


def scalar_mismatches(db, checks: list[tuple[object, dict | None]]) -> int:
    """Replies whose decision differs from the scalar Authenticator's."""
    from repro import DramChip
    from repro.puf.frac_puf import FracPuf

    config = db.config
    auth = db.authenticator()
    bad = 0
    for request, reply in checks:
        chip = DramChip(request.group_id, geometry=config.geometry(),
                        serial=request.serial, master_seed=config.master_seed)
        chip.reseed_noise(request.epoch)
        probe = FracPuf(chip, n_frac=config.n_frac).evaluate_many(
            config.challenges())
        decision = auth.decide(probe)
        bad += int(reply is None or "error" in reply
                   or reply["accepted"] != decision.accepted
                   or reply["device_id"] != decision.device_id
                   or reply["mean_distance"] != decision.mean_distance)
    return bad


class Session:
    """The client side of one serving session (runs in its own thread)."""

    def __init__(self, db, host: str, port: int, job: dict) -> None:
        from repro.service import WorkloadSpec, generate_schedule

        self.job = job
        self.enrolled = set(db.ids)
        n_paced = PACED_REQUESTS * len(RATES) if job["paced"] else 0
        # One unit-rate Poisson schedule names every request; bursts
        # take its head, the paced phases re-time its tail per rate.
        self.schedule = generate_schedule(db, WorkloadSpec(
            seed=job["seed"], n_requests=BURST * BURST_POOL + n_paced,
            rate_rps=1.0, impostor_fraction=IMPOSTOR_FRACTION))
        self.client = loadgen.Client(host, port)
        self.metrics: dict[str, float] = {}
        self.burst_s: list[float] = []
        #: Due time of every paced request, by phase and request id.
        self.dues: dict[str, dict[str, float]] = {}
        self.served: list[tuple[object, dict | None]] = []

    def run(self) -> "Session":
        try:
            self.bursts()
            if self.job["paced"]:
                self.paced()
        finally:
            self.client.close()
        return self

    def _exchange(self, pairs, dues: list[float]) -> tuple:
        requests = [request for _, request in pairs]
        exchange = self.client.exchange(
            [request_line(request) for request in requests], dues,
            REPLY_TIMEOUT_S)
        self.served.extend(zip(requests, exchange.replies))
        return exchange, requests

    def bursts(self) -> None:
        """Back-to-back bursts until the measuring time is spent."""
        until = time.perf_counter() + self.job["seconds"]
        rep = 0
        while rep < self.job["min_bursts"] or time.perf_counter() < until:
            slot = rep % BURST_POOL
            pairs = self.schedule[slot * BURST:(slot + 1) * BURST]
            now = time.perf_counter()
            exchange, _ = self._exchange(pairs, [now] * len(pairs))
            self.burst_s.append(exchange.last_received - exchange.first_sent)
            rep += 1

    def paced(self) -> None:
        """Poisson open loops at each offered load, sleeping to deadlines."""
        offset = BURST * BURST_POOL
        lags: list[float] = []
        for phase, rate in RATES.items():
            pairs = self.schedule[offset:offset + PACED_REQUESTS]
            offsets = loadgen.paced_offsets(
                [arrival for arrival, _ in pairs], rate,
                previous=self.schedule[offset - 1][0])
            offset += PACED_REQUESTS
            # The schedule starts just ahead of now, so the first request
            # is not already late when the phase begins.
            start = time.perf_counter() + 0.05
            dues = [start + delta for delta in offsets]
            exchange, requests = self._exchange(pairs, dues)
            # A failed or unanswered request misses every latency limit.
            latency = [
                value if value is not None and judge(self.enrolled, request,
                                                     reply)
                else REPLY_TIMEOUT_S
                for value, request, reply in zip(
                    loadgen.latencies(dues, exchange.received), requests,
                    exchange.replies)]
            self.metrics[f"lat_p50_ms.{phase}"] = 1e3 * stats.percentile(
                latency, 50)
            self.metrics[f"lat_p99_ms.{phase}"] = 1e3 * stats.tail_percentile(
                latency, 99)
            self.metrics[f"slo_ok_frac.{phase}"] = sum(
                1 for value in latency if value <= SLO_S) / len(latency)
            self.dues[phase] = {request.request_id: due
                                for request, due in zip(requests, dues)}
            lags.extend(loadgen.lags(dues, exchange.sent))
        self.metrics["loadgen.lag_p99_ms"] = 1e3 * stats.tail_percentile(
            lags, 99)
        self.metrics["loadgen.lag_max_ms"] = 1e3 * max(lags)

    def failures(self) -> int:
        return sum(1 for request, reply in self.served
                   if not judge(self.enrolled, request, reply))

    def scalar_sample(self) -> list[tuple[object, dict | None]]:
        stride = max(1, len(self.served) // SCALAR_CHECKS)
        return self.served[::stride][:SCALAR_CHECKS]


async def serve_session(job: dict) -> dict:
    import repro.service as api

    tracer = Tracer().install() if job["traced"] else None
    config = api.ServiceConfig(columns=COLUMNS, n_challenges=N_CHALLENGES,
                               enroll_batch=ENROLL_BATCH)
    # Looked up at call time, so a traced run sees the wrapped binding.
    db = api.build_enrollment(config, N_MODULES)
    service = api.PufAuthService(db, policy=api.CoalescePolicy(
        max_lanes=MAX_LANES, max_wait_s=MAX_WAIT_S))
    await service.start()
    host, port = await service.serve_tcp("127.0.0.1", 0)
    result: dict = {"setup_s": time.perf_counter() - job["t0"]}
    try:
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=1) as pool:
            session = await loop.run_in_executor(
                pool, lambda: Session(db, host, port, job).run())
    finally:
        await service.stop()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["layers"].update(service_waits(tracer, session.dues))
        tracer.dump(job["spans"])
    checks = session.scalar_sample()
    scalar_bad = scalar_mismatches(db, checks)
    result.update(session.metrics)
    result.update(burst_s=session.burst_s, burst_size=BURST,
                  attempted=len(session.served) + len(checks),
                  failed=session.failures() + scalar_bad,
                  scalar_checked=len(checks), scalar_mismatches=scalar_bad)
    return result


def service_waits(tracer: Tracer,
                  dues: dict[str, dict[str, float]]) -> dict[str, float]:
    """Queueing and service time per paced request, from the engine spans.

    A request waits from its due time until its batch enters
    ``VerificationEngine.execute`` (queueing plus coalescing); its
    service time is that ``execute`` span.
    """
    metrics: dict[str, float] = {}
    batches = [span for span in tracer.spans if span.layer == "service.engine"]
    for phase, phase_dues in dues.items():
        waits, execs, lanes = [], [], []
        for span in batches:
            ids = [key for key in span.note if key in phase_dues]
            if not ids:
                continue
            lanes.append(len(span.note))
            for key in ids:
                waits.append(span.start - phase_dues[key])
                execs.append(span.duration)
        metrics[f"service.mean_lanes.{phase}"] = sum(lanes) / len(lanes)
        metrics[f"service.wait_ms_p50.{phase}"] = 1e3 * stats.percentile(
            waits, 50)
        metrics[f"service.wait_ms_p99.{phase}"] = 1e3 * stats.tail_percentile(
            waits, 99)
        metrics[f"service.exec_ms_p50.{phase}"] = 1e3 * stats.percentile(
            execs, 50)
    return metrics


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    if job["workload"] == "serve":
        result = asyncio.run(serve_session(job))
    else:
        result = run_sweep(job)
    result["peak_rss_mb"] = peak_rss_mb()
    Path(job["out"]).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
