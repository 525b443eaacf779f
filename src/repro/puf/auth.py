"""PUF-based device authentication (the use case motivating Section VI-B).

An :class:`Authenticator` enrolls devices by storing reference responses
to a private challenge set, then authenticates an unknown device by
re-evaluating the challenges and accepting the enrolled identity with the
smallest mean Hamming distance, provided it clears the decision threshold.
The threshold sits between the expected intra-HD (~0) and the minimum
inter-HD (>= 0.27 in the paper), so both false accepts and false rejects
are negligible.

Matching is a popcount kernel: the enrollment database keeps the
stacked ``(n_enrolled, n_challenges, bits)`` reference matrix packed
into ``uint64`` words (:class:`PackedReferences`, built once per
database), and a probe is packed the same way, XORed into every
enrolled row's words and popcounted (:func:`match_probe`).  The integer
mismatch count of a challenge is exactly the sum the bool mean used to
take, so ``counts / bits`` is the same float the per-challenge
``np.mean`` produced, and the mean over challenges runs over the same
C-contiguous ``(n_enrolled, n_challenges)`` array in the same order:
distances are bit-identical to the historical per-device loop.  Ties
keep the first-enrolled identity.  :mod:`repro.service` builds its
serving path on the same matcher, so the scalar and served decisions
are identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InsufficientDataError
from .frac_puf import Challenge, FracPuf

__all__ = ["AuthDecision", "Authenticator", "PackedReferences", "match_probe"]

#: Default accept threshold: comfortably above the paper's max intra-HD
#: (0.07 across environments) and below its min inter-HD (0.27).
DEFAULT_THRESHOLD: float = 0.15


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of an authentication attempt."""

    accepted: bool
    device_id: str | None
    mean_distance: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.accepted:
            return f"accepted as {self.device_id!r} (HD={self.mean_distance:.3f})"
        return f"rejected (best HD={self.mean_distance:.3f})"


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a bit array into zero-padded ``uint64`` words."""
    packed = np.packbits(bits, axis=-1)
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, pad)])
    return np.ascontiguousarray(packed).view(np.uint64)


@dataclass(frozen=True)
class PackedReferences:
    """A stacked reference matrix packed into ``uint64`` words.

    ``words`` is ``(n_enrolled, n_challenges, ceil(bits / 64))``; the
    padding bits are zero in references and probes alike, so they never
    count as mismatches.  ``shape`` is the unpacked matrix's shape.
    """

    words: np.ndarray
    shape: tuple[int, int, int]

    @classmethod
    def pack(cls, references: np.ndarray) -> "PackedReferences":
        references = np.asarray(references)
        if references.ndim != 3:
            raise ValueError(
                f"expected (n_enrolled, n_challenges, bits) references, got "
                f"shape {references.shape}")
        n, challenges, bits = references.shape
        return cls(_pack_words(references), (n, challenges, bits))


def match_probe(references: PackedReferences | np.ndarray,
                probe: np.ndarray) -> tuple[int, float]:
    """Best enrolled index for a probe, plus its mean Hamming distance.

    ``references`` is the stacked ``(n_enrolled, n_challenges, bits)``
    matrix, packed or as a bool array (packed here first), ``probe`` a
    ``(n_challenges, bits)`` response set.  The per-identity distance is
    the mean of per-challenge normalized HDs — computed with the same
    reduction order as the historical scalar loop (per-challenge
    fraction first, then the mean over challenges), so the floats are
    bit-identical.  Ties resolve to the lowest index, i.e.
    first-enrolled-wins.
    """
    if not isinstance(references, PackedReferences):
        references = PackedReferences.pack(references)
    n, challenges, bits = references.shape
    if n == 0:
        raise InsufficientDataError("no devices enrolled")
    probe = np.asarray(probe)
    if probe.shape != (challenges, bits):
        raise ValueError(
            f"length mismatch: {(challenges, bits)} vs {probe.shape}")
    if probe.size == 0:
        raise InsufficientDataError("cannot compute HD of empty vectors")
    counts = np.bitwise_count(references.words ^ _pack_words(probe))
    # Adding word slices beats .sum(axis=-1) over the short word axis.
    mismatches = counts[..., 0].astype(np.int64)
    for word in range(1, counts.shape[-1]):
        mismatches += counts[..., word]
    per_challenge = mismatches / bits
    distances = np.mean(per_challenge, axis=1)
    index = int(np.argmin(distances))
    return index, float(distances[index])


class Authenticator:
    """Enrollment database + matching logic."""

    def __init__(self, challenges: list[Challenge],
                 threshold: float = DEFAULT_THRESHOLD) -> None:
        if not challenges:
            raise ConfigurationError("need at least one challenge")
        if not 0.0 < threshold < 0.5:
            raise ConfigurationError("threshold must be in (0, 0.5)")
        self.challenges = list(challenges)
        self.threshold = threshold
        self._ids: list[str] = []
        self._references: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None
        self._packed: PackedReferences | None = None

    @property
    def enrolled_ids(self) -> tuple[str, ...]:
        return tuple(self._ids)

    @property
    def references(self) -> np.ndarray:
        """The stacked ``(n_enrolled, n_challenges, bits)`` matrix."""
        if self._matrix is None:
            if not self._references:
                raise InsufficientDataError("no devices enrolled")
            self._matrix = np.stack(self._references).astype(bool)
        return self._matrix

    @property
    def packed_references(self) -> PackedReferences:
        """:attr:`references`, packed for :func:`match_probe`."""
        if self._packed is None:
            self._packed = PackedReferences.pack(self.references)
        return self._packed

    def enroll(self, device_id: str, puf: FracPuf) -> None:
        """Record the device's reference responses."""
        self.enroll_response(device_id, puf.evaluate_many(self.challenges))

    def enroll_response(self, device_id: str, reference: np.ndarray) -> None:
        """Record pre-evaluated reference responses for ``device_id``."""
        if device_id in self._ids:
            raise ConfigurationError(f"device {device_id!r} already enrolled")
        reference = np.asarray(reference, dtype=bool)
        expected = (len(self.challenges),)
        if reference.ndim != 2 or reference.shape[:1] != expected:
            raise ConfigurationError(
                f"reference must be (n_challenges, bits) = ({expected[0]}, "
                f"*), got shape {reference.shape}")
        self._ids.append(device_id)
        self._references.append(reference)
        # Stacked and packed matrices are rebuilt on next use.
        self._matrix = None
        self._packed = None

    def authenticate(self, puf: FracPuf) -> AuthDecision:
        """Identify the device behind ``puf`` against the enrollment DB."""
        return self.decide(puf.evaluate_many(self.challenges))

    def decide(self, probe: np.ndarray) -> AuthDecision:
        """Match a pre-evaluated ``(n_challenges, bits)`` response set."""
        index, best_distance = match_probe(self.packed_references,
                                           np.asarray(probe, dtype=bool))
        accepted = best_distance <= self.threshold
        return AuthDecision(accepted,
                            self._ids[index] if accepted else None,
                            best_distance)
