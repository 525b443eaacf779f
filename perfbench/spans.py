"""Span tracing from outside the program: wrap each layer's public calls.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` replaces a
layer's public functions and methods with thin wrappers that record one
span per call — ``(id, layer, start, end, parent, outermost)`` — in
memory, and puts every original back on :meth:`Tracer.uninstall`.

A module-level function is replaced at *every* binding a caller looks
up: the defining module and each loaded ``repro`` module that imported
the same object by name (``from ..puf.auth import match_probe`` binds a
second name the defining-module patch would miss).  Methods are replaced
on their class, which every caller reaches through attribute lookup.

Self time is span time minus the time of the span's direct children;
a layer's inclusive time counts only spans with no ancestor of the same
layer, so recursion and same-layer nesting are not double counted.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: (layer, module, attribute path).  ``Class.*prefix`` expands to every
#: method of ``Class`` whose name starts with ``prefix``.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("controller.replay", "repro.controller.batched", "BatchedSoftMC.run"),
    ("dram.fab", "repro.dram.batched", "BatchedChip.from_fleet"),
    ("dram.fab", "repro.dram.batched", "BatchedChip.from_chips"),
    ("dram.fab", "repro.dram.chip", "DramChip.__init__"),
    ("dram.activate", "repro.dram.batched", "BatchedChip.activate"),
    ("dram.settle", "repro.dram.batched", "BatchedChip.settle"),
    ("dram.settle", "repro.dram.batched", "BatchedChip.finish"),
    ("dram.precharge", "repro.dram.batched", "BatchedChip.precharge"),
    ("dram.precharge", "repro.dram.batched", "BatchedChip.precharge_all"),
    ("dram.rw", "repro.dram.batched", "BatchedChip.write_open"),
    ("dram.rw", "repro.dram.batched", "BatchedChip.row_buffer_logical"),
    ("dram.leak", "repro.dram.batched", "BatchedChip.advance_time"),
    ("dram.xir_kernel", "repro.dram.batched", "BatchedSubArray.*xir_"),
    ("xir.compile", "repro.xir.compile", "compile_program"),
    ("xir.run", "repro.xir.executor", "FusedRunner.run"),
    ("xir.run", "repro.xir.executor", "FusedRunner.run_sweep"),
    ("puf.eval", "repro.puf.batched_puf", "BatchedFracPuf.evaluate_many"),
    ("puf.eval", "repro.xir.puf", "FusedFracPuf.evaluate_many"),
    ("puf.match", "repro.puf.auth", "match_probe"),
    ("puf.nist", "repro.puf.nist.suite", "run_all"),
    ("service.enroll", "repro.service.enrollment", "build_enrollment"),
    ("service.engine", "repro.service.batcher", "VerificationEngine.execute"),
    ("service.transport", "repro.service.server", "parse_request_line"),
)


def _program_modules() -> list[object]:
    return [module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def _request_ids(args: tuple, kwargs: dict) -> list[str]:
    requests = kwargs.get("requests", args[1] if len(args) > 1 else ())
    return [request.request_id for request in requests]


#: Calls whose spans keep a note, by (layer, function name): the request
#: ids of a served batch, and a mark on each chip fabricated.
NOTES: dict[tuple[str, str], Callable[[tuple, dict], Any]] = {
    ("service.engine", "execute"): _request_ids,
    ("dram.fab", "__init__"): lambda args, kwargs: "chip",
}


@dataclass
class Span:
    id: int
    layer: str
    start: float
    end: float
    parent: int  # span id, or -1 at the root of a thread
    outermost: bool  # no ancestor belongs to the same layer
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotals:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Records spans around the calls of :data:`LAYERS`."""

    layers: tuple[tuple[str, str, str], ...] = LAYERS
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._functions: list[tuple[str, Callable, Callable]] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> tuple[list[int], dict[str, int]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.depth = [], {}
        return local.stack, local.depth

    def _begin(self, layer: str) -> tuple[int, int, int, float]:
        stack, depth = self._state()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        level = depth.get(layer, 0)
        depth[layer] = level + 1
        stack.append(span_id)
        return span_id, parent, level, self.clock()

    def _end(self, layer: str, opened: tuple[int, int, int, float],
             note: Any) -> None:
        end = self.clock()
        span_id, parent, level, start = opened
        stack, depth = self._state()
        stack.pop()
        depth[layer] = level
        # list.append is atomic, so threads may record concurrently.
        self.spans.append(Span(span_id, layer, start, end, parent,
                               level == 0, note))

    @contextmanager
    def span(self, layer: str, note: Any = None) -> Iterator[None]:
        """Record one span around the benchmark's own call."""
        opened = self._begin(layer)
        try:
            yield
        finally:
            self._end(layer, opened, note)

    def _wrap(self, layer: str, function: Callable) -> Callable:
        tracer = self
        noter = NOTES.get((layer, getattr(function, "__name__", "")))

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = tracer._begin(layer)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._end(layer, opened,
                            noter(args, kwargs) if noter else None)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", layer)
        return traced

    # -- installing ----------------------------------------------------

    def install(self) -> "Tracer":
        for layer, module_name, path in self.layers:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if not owner_name:
                self._patch_function(layer, module, attr)
                continue
            owner = getattr(module, owner_name)
            if attr.startswith("*"):
                names = sorted(name for name in vars(owner)
                               if name.startswith(attr[1:]))
            else:
                names = [attr]
            for name in names:
                self._patch_method(layer, owner, name)
        return self

    def _patch_function(self, layer: str, module: object, name: str) -> None:
        original = getattr(module, name)
        traced = self._wrap(layer, original)
        self._functions.append((name, traced, original))
        for loaded in _program_modules():
            if getattr(loaded, name, None) is original:
                self._patches.append((loaded, name, original))
                setattr(loaded, name, traced)

    def _patch_method(self, layer: str, owner: type, name: str) -> None:
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            traced: object = classmethod(self._wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            traced = staticmethod(self._wrap(layer, raw.__func__))
        else:
            traced = self._wrap(layer, raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, traced)

    def uninstall(self) -> None:
        """Put every original function back, newest patch first.

        A module first imported while tracing bound the wrapper by name;
        those bindings are found and restored too.
        """
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for loaded in _program_modules():
            for name, traced, original in self._functions:
                if getattr(loaded, name, None) is traced:
                    setattr(loaded, name, original)
        self._functions.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- summarising ---------------------------------------------------

    def totals(self) -> dict[str, LayerTotals]:
        """Per-layer call count, inclusive time and self time."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] = (children.get(span.parent, 0.0)
                                         + span.duration)
        totals: dict[str, LayerTotals] = {}
        for span in self.spans:
            entry = totals.setdefault(span.layer, LayerTotals())
            entry.calls += 1
            entry.self_s += span.duration - children.get(span.id, 0.0)
            if span.outermost:
                entry.inclusive_s += span.duration
        return totals

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines: id, layer, start, end, parent."""
        import gzip
        import json

        with gzip.open(path, "wt") as handle:
            for span in sorted(self.spans, key=lambda item: item.id):
                handle.write(json.dumps(
                    [span.id, span.layer, span.start, span.end, span.parent],
                    separators=(",", ":")) + "\n")

