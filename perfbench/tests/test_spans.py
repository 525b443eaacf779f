"""Span recording, self time, and restoring every wrapped function."""

import sys
import types

import spans
from spans import LAYERS, Tracer


def _targets():
    """Every (owner, attribute) a tracer patches, with the raw original."""
    import importlib

    found = []
    for _, module_name, path in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            for loaded in spans._program_modules():
                if getattr(loaded, attr, None) is original:
                    found.append((loaded, attr, original))
            continue
        owner = getattr(module, owner_name)
        names = ([name for name in vars(owner) if name.startswith(attr[1:])]
                 if attr.startswith("*") else [attr])
        found.extend((owner, name, vars(owner)[name]) for name in names)
    return found


def test_wrappers_replace_and_restore_every_binding():
    before = _targets()
    # The service's batcher imported match_probe by name: a second binding.
    import repro.puf.auth
    import repro.service.batcher

    assert any(owner is repro.service.batcher and name == "match_probe"
               for owner, name, _ in before)
    tracer = Tracer().install()
    try:
        for owner, name, original in before:
            current = (vars(owner)[name] if isinstance(owner, type)
                       else getattr(owner, name))
            assert current is not original, f"{owner}.{name} not wrapped"
        # A module first imported while tracing binds the wrapper ...
        late = types.ModuleType("repro._late_import_probe")
        late.match_probe = repro.puf.auth.match_probe
        sys.modules[late.__name__] = late
    finally:
        tracer.uninstall()
    try:
        for owner, name, original in before:
            current = (vars(owner)[name] if isinstance(owner, type)
                       else getattr(owner, name))
            assert current is original, f"{owner}.{name} not restored"
        # ... and gets the original back too.
        assert late.match_probe is repro.service.batcher.match_probe
    finally:
        del sys.modules[late.__name__]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(layers=(), clock=clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
        with tracer.span("inner"):
            clock.now += 0.5
        clock.now += 0.25
    totals = tracer.totals()
    assert totals["outer"].inclusive_s == 3.75
    assert totals["outer"].self_s == 1.25
    assert totals["inner"].calls == 2
    assert totals["inner"].inclusive_s == 2.5
    parents = {span.layer: span.parent for span in tracer.spans}
    outer = next(span for span in tracer.spans if span.layer == "outer")
    assert parents["inner"] == outer.id and outer.parent == -1


def test_same_layer_nesting_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(layers=(), clock=clock)
    with tracer.span("dram.fab"):
        clock.now += 1.0
        with tracer.span("dram.fab"):
            clock.now += 3.0
    totals = tracer.totals()["dram.fab"]
    assert totals.inclusive_s == 4.0
    assert totals.self_s == 4.0
    assert totals.calls == 2


def test_wrapped_functions_record_spans_and_notes():
    tracer = Tracer(layers=(("puf.match", "repro.puf.auth", "match_probe"),))
    import numpy as np
    import repro.service.batcher as batcher

    references = np.zeros((3, 1, 8), dtype=bool)
    references[1] = True
    with tracer:
        index, distance = batcher.match_probe(references,
                                              np.ones((1, 8), dtype=bool))
    assert (index, distance) == (1, 0.0)
    assert [span.layer for span in tracer.spans] == ["puf.match"]
