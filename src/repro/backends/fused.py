"""The fused backend: xir-compiled experiment programs over batched lanes.

``fused`` layers the :mod:`repro.xir` pipeline on top of the batched
engine: experiments whose hot loop has an xir lowering — the registry
is :data:`repro.xir.XIR_LOWERED_EXPERIMENTS` (fig6 retention, fig9
fMAJ coverage, fig10 fMAJ stability, fig11 PUF HD, nist randomness) —
route their inner passes through
:class:`~repro.xir.FusedRetentionProfiler` /
:class:`~repro.xir.FusedFracDram` / :class:`~repro.xir.FusedFracPuf`,
which replay one compiled phase-op schedule per program *shape* instead
of dispatching per command.  Everything else — lane-width policy,
assembled-program execution, fleet sharding — inherits the batched
engine unchanged, so the backend is a strict superset: same bytes,
same counters, less Python.  It is the registry default
(:data:`~repro.backends.registry.DEFAULT_BACKEND`), so ``backend=None``
runs fused; experiments ask :func:`repro.experiments.base.runs_fused`
rather than comparing names.  The serving stack uses the same engine
for enrollment and verification.

The conformance suite (``tests/backends``) holds ``fused`` to the same
gate as every other backend: byte-identical results and deterministic
telemetry counter snapshots against the scalar reference, serially and
under fleet workers.
"""

from __future__ import annotations

from .batched import BatchedBackend
from .registry import register_backend

__all__ = ["FusedBackend"]


@register_backend
class FusedBackend(BatchedBackend):
    """Batched lanes plus xir-compiled experiment hot loops."""

    name = "fused"
    runs_fused = True
    description = ("xir-compiled experiment programs on batched lanes "
                   "(fig6/fig9/fig10/fig11/nist fused hot paths)")
