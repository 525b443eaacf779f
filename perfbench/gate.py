"""Correctness gate for the characterization sweeps: export digests.

Every experiment result is exported with the program's own
:func:`repro.experiments.report.export_json`, and the SHA-256 of the
exported bytes must equal the digest recorded in ``digests.json`` for
that experiment and master seed.  The program promises byte-identical
results across engines, batch widths and runs, so any difference is a
wrong result, not noise.

The benchmark's ``--seed n`` picks master seed ``SEED_BASE + n mod
len(MASTER_SEEDS)``; each of those seeds has recorded digests.  Seed
``SEED_BASE`` is the program's default (``DEFAULT_CONFIG.master_seed``);
the last one is held out: it was not used while tuning the benchmark.

Re-record (only when the program's results are meant to change)::

    PYTHONPATH=src python3 perfbench/gate.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
SEED_BASE = 2022
N_SEEDS = 16
MASTER_SEEDS = tuple(SEED_BASE + k for k in range(N_SEEDS))
HELD_OUT_SEED = MASTER_SEEDS[-1]

TRIAL_SWEEP = ("fig9", "fig10", "fig6", "nist")
DEVICE_SWEEP = ("table1", "fig7", "fig8", "fig11", "fig12", "ddr4")


def master_seed(seed: int) -> int:
    """The experiment master seed a benchmark ``--seed`` names."""
    return MASTER_SEEDS[seed % N_SEEDS]


def tree_digest(directory: str | Path) -> str:
    """SHA-256 over the program's Python sources (provenance without git)."""
    digest = hashlib.sha256()
    base = Path(directory)
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def export_digest(result, directory: str | Path, name: str) -> str:
    """Export ``result`` as the program does and hash the bytes."""
    from repro.experiments.report import export_json

    path = export_json(result, Path(directory) / f"{name}.json")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load(path: str | Path = DIGESTS) -> dict[str, dict[str, str]]:
    return json.loads(Path(path).read_text())["digests"]


def mismatches(recorded: dict[str, dict[str, str]], seed: int,
               digests: dict[str, str]) -> list[str]:
    """Experiments whose digest differs from (or is missing in) the record."""
    expected = recorded.get(str(seed), {})
    return sorted(name for name, digest in digests.items()
                  if expected.get(name) != digest)


def _record(directory: Path) -> None:
    from repro.experiments.base import DEFAULT_CONFIG
    from repro.experiments.runner import run_experiment

    table: dict[str, dict[str, str]] = {}
    for seed in MASTER_SEEDS:
        config = DEFAULT_CONFIG.scaled(master_seed=seed)
        table[str(seed)] = {
            name: export_digest(run_experiment(name, config), directory, name)
            for name in TRIAL_SWEEP + DEVICE_SWEEP}
        print(f"seed {seed}: recorded", file=sys.stderr, flush=True)
    DIGESTS.write_text(json.dumps(
        {"hash": "sha256 of repro.experiments.report.export_json output",
         "config": "DEFAULT_CONFIG with master_seed = key",
         "default_seed": SEED_BASE, "held_out_seed": HELD_OUT_SEED,
         "digests": table}, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="run every sweep experiment at every master "
                             "seed and rewrite digests.json")
    parser.add_argument("--workdir", default=".perfbench/record",
                        help="where exports are written while recording")
    args = parser.parse_args(argv)
    if not args.record:
        parser.print_help()
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _record(workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
