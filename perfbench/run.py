"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload trial-sweep --seed 0 --seconds 34 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``trial-sweep``  — fig9, fig10, fig6, nist at ``DEFAULT_CONFIG``
* ``device-sweep`` — table1, fig7, fig8, fig11, fig12, ddr4
* ``serve-10k``    — the PUF service over a fresh 10,000-module fleet

Every measurement runs in a fresh process (``worker.py``) with a per-run
fleet cache directory, no result cache or enrollment store,
``workers=0`` and BLAS/OpenMP pinned to one thread.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the workload once untraced and once with the layer wrappers of
``spans.py`` installed, and reports the per-layer metrics.  Outputs are
checked on every run (export digests for the sweeps, decisions for
serving); a wrong output counts as failed.

The last line of standard output is the result object; a provenance
record with median and quartiles per metric is written under
``.perfbench/`` and named on the line before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import stats  # noqa: E402

WORKLOADS = {
    "trial-sweep": gate.TRIAL_SWEEP,
    "device-sweep": gate.DEVICE_SWEEP,
    "serve-10k": None,
}
#: Fresh set-ups per run whose median is ``setup_s``.
SETUP_REPEATS = 3
#: Fresh-process sweeps per untraced run, at least.
MIN_SWEEPS = 1
#: Share of ``--seconds`` a serving run spends draining bursts, split
#: evenly over its :data:`SETUP_REPEATS` fresh serving processes; the
#: rest of a serving run goes to their set-ups (enrollment).
BURST_SHARE = 1 / 3
#: Back-to-back bursts per serving process, at least.
MIN_BURSTS = 3
#: Every process of a run must end within this many seconds of its start.
RUN_BUDGET_S = 175.0
#: Threading knobs pinned in every benchmark process.
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Run:
    """One benchmark invocation: its directory, environment and processes."""

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root, self.args = root, args
        self.started = time.perf_counter()
        self.dir = root / ".perfbench" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in ONE_THREAD})
        self.env.update(
            PYTHONPATH=os.pathsep.join(
                [str(root / "src")]
                + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                   else [])),
            REPRO_FLEET_CACHE=str(self.dir / "fleet-cache"),
            REPRO_FLEET_WORKERS="0",
            TMPDIR=str(self.dir / "tmp"))
        self.processes = 0

    def spawn(self, **job) -> dict:
        """Run one worker process to completion and return its result."""
        self.processes += 1
        tag = f"p{self.processes}"
        job_path = self.dir / f"{tag}.job.json"
        job.update(dir=str(self.dir / tag), out=str(self.dir / f"{tag}.out"),
                   spans=str(self.dir / f"{tag}.spans.jsonl.gz"),
                   seed=self.args.seed)
        job.setdefault("seconds", self.args.seconds)
        Path(job["dir"]).mkdir()
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RuntimeError("run budget exhausted")
        job["t0"] = time.perf_counter()
        job_path.write_text(json.dumps(job))
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=self.root, env=self.env, timeout=remaining,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if completed.returncode != 0:
            raise RuntimeError(f"worker failed ({completed.returncode}):\n"
                               + completed.stderr[-4000:])
        return json.loads(Path(job["out"]).read_text())

    def cleanup(self) -> None:
        """Drop caches, exports and temp files; keep results and spans."""
        for entry in self.dir.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

def sweep_job(run: Run, mode: str, traced: bool) -> dict:
    return run.spawn(workload="sweep", mode=mode, traced=traced,
                     experiments=list(WORKLOADS[run.args.workload]),
                     master_seed=gate.master_seed(run.args.seed))


def serve_job(run: Run, traced: bool, paced: bool,
              seconds: float = 0.0) -> dict:
    # Paced processes time latency; their bursts stop at MIN_BURSTS.
    return run.spawn(workload="serve", mode="serve", traced=traced,
                     paced=paced, min_bursts=MIN_BURSTS,
                     seconds=0.0 if paced else seconds)


def sweep_wall_s(results: list[dict], experiments: list[str]) -> float:
    """Sum over the experiments of each one's median time across sweeps.

    Each experiment is timed from its call to its result, so the sum is
    the time from the first experiment call to the last result of a
    typical sweep.  Taking the median per experiment keeps a slow spell
    of the host, which hits one experiment of one sweep, out of it.
    """
    return sum(statistics.median(result["per_experiment_s"][name]
                                 for result in results)
               for name in experiments)


def end_to_end(run: Run) -> tuple[dict[str, list[float]], list[dict]]:
    """Untraced: repeated fresh set-ups and the measured work.

    Sweeps repeat in fresh processes (cold caches, as a CLI user has
    them): :data:`MIN_SWEEPS` times, and again while the next one is
    expected to end within ``--seconds``; set-up-only probe processes
    top their set-ups up to :data:`SETUP_REPEATS`.  Serving runs
    :data:`SETUP_REPEATS` fresh serving processes, each of which sets up
    and then drains bursts for its part of :data:`BURST_SHARE`; the
    bursts of all of them are pooled.
    """
    serving = WORKLOADS[run.args.workload] is None
    samples: dict[str, list[float]] = {}
    results: list[dict] = []
    if serving:
        per_process = run.args.seconds * BURST_SHARE / SETUP_REPEATS
        results = [serve_job(run, False, False, per_process)
                   for _ in range(SETUP_REPEATS)]
        samples["wall_s"] = [burst for result in results
                             for burst in result["burst_s"]]
    else:
        measuring = time.perf_counter()
        while True:
            results.append(sweep_job(run, "sweep", False))
            spent = time.perf_counter() - measuring
            if (len(results) >= MIN_SWEEPS
                    and spent + spent / len(results) > run.args.seconds):
                break
        samples["wall_s"] = [
            sweep_wall_s(results, list(WORKLOADS[run.args.workload]))]
    samples["setup_s"] = [result["setup_s"] for result in results]
    samples["peak_rss_mb"] = [result["peak_rss_mb"] for result in results]
    while len(samples["setup_s"]) < SETUP_REPEATS:
        samples["setup_s"].append(sweep_job(run, "setup", False)["setup_s"])
    return samples, results


def per_layer(run: Run) -> tuple[dict[str, list[float]], list[dict]]:
    """One untraced and one traced process of the same work."""
    serving = WORKLOADS[run.args.workload] is None
    if serving:
        plain = serve_job(run, False, True)
        traced = serve_job(run, True, True)
        base = stats.summary(plain["burst_s"])["median"]
        slow = stats.summary(traced["burst_s"])["median"]
    else:
        plain = sweep_job(run, "sweep", False)
        traced = sweep_job(run, "sweep", True)
        base, slow = plain["wall_s"], traced["wall_s"]
    samples = {name: [value] for name, value in traced["layers"].items()}
    samples["trace.overhead_frac"] = [slow / base - 1.0]
    if serving:
        # Serving latency comes from the untraced process.
        samples["verify_per_s"] = [plain["burst_size"] / base]
        samples.update({name: [value] for name, value in plain.items()
                        if name.startswith(("lat_p", "slo_ok_frac.",
                                            "loadgen."))})
    return samples, [plain, traced]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def provenance(root: Path, run: Run) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, text=True,
                capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    import numpy

    return {"commit": commit, "src_sha256": gate.tree_digest(root / "src"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "processes": run.processes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source (src/repro) in the working "
              "directory; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(root, args)
    try:
        samples, results = (per_layer if args.trace else end_to_end)(run)
    finally:
        run.cleanup()
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    if not args.trace:
        samples["ok_frac"] = [1.0 - failed / attempted]

    metrics, record = {}, {}
    for entry in declared:
        name = entry["name"]
        values = samples.get(name)
        if values is None:
            if not args.trace:
                raise KeyError(f"end-to-end metric {name} was not measured")
            values = [0.0]  # a layer this workload never calls
        summary = stats.summary(values)
        metrics[name] = {"value": summary["median"], "unit": entry["unit"]}
        record[name] = dict(summary, unit=entry["unit"])
    document = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": attempted, "failed": failed,
        "provenance": provenance(root, run), "metrics": record,
        "processes": [{key: value for key, value in result.items()
                       if key != "layers"} for result in results]}
    if WORKLOADS[args.workload] is not None:
        document["master_seed"] = gate.master_seed(args.seed)
    record_path = run.dir / "record.json"
    record_path.write_text(json.dumps(document, indent=1, sort_keys=True))
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
