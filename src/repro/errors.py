"""Exception hierarchy for the FracDRAM reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A device, group, or experiment was configured inconsistently."""


class AddressError(ReproError, IndexError):
    """A bank, row, or column address is out of range for the device."""


class TimingViolationError(ReproError):
    """A command sequence violates JEDEC timing while strict mode is on.

    The memory controller raises this only in ``strict`` mode; FracDRAM
    primitives intentionally violate timing and therefore run with the
    checker in permissive mode.
    """

    def __init__(self, message: str, *, constraint: str | None = None,
                 required_cycles: int | None = None,
                 actual_cycles: int | None = None) -> None:
        super().__init__(message)
        self.constraint = constraint
        self.required_cycles = required_cycles
        self.actual_cycles = actual_cycles


class CommandSequenceError(ReproError):
    """A command sequence is structurally invalid (ordering, duplicates)."""


class UnsupportedOperationError(ReproError):
    """The target DRAM group cannot perform the requested operation.

    Mirrors the capability matrix of Table I: e.g. requesting a
    three-row-activation MAJ3 on a group C module raises this error.
    """


class RefreshViolationError(ReproError):
    """A refresh was issued to a row currently holding a fractional value."""


class InsufficientDataError(ReproError):
    """A statistical routine was given fewer samples than it requires."""


class EngineError(ReproError):
    """The verification engine failed while serving a coalesced batch.

    Raised to every request of the failed batch (the engine's own
    exception is the ``__cause__``); later batches are unaffected.
    """
