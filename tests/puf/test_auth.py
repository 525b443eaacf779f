"""PUF-based authentication."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro import DramChip, GeometryParams
from repro.analysis.stats import hamming_distance
from repro.errors import ConfigurationError, InsufficientDataError
from repro.puf.auth import Authenticator, PackedReferences, match_probe
from repro.puf.frac_puf import Challenge, FracPuf

GEOM = GeometryParams(n_banks=2, subarrays_per_bank=2,
                      rows_per_subarray=16, columns=64)
CHALLENGES = [Challenge(0, 1), Challenge(0, 3), Challenge(1, 5)]


def make_puf(serial: int, group: str = "B") -> FracPuf:
    return FracPuf(DramChip(group, geometry=GEOM, serial=serial))


def bool_xor_match(references: np.ndarray,
                   probe: np.ndarray) -> tuple[int, float]:
    """The bool-XOR matcher the popcount kernel replaced (test oracle)."""
    per_challenge = np.mean(references ^ probe[np.newaxis], axis=2)
    distances = np.mean(per_challenge, axis=1)
    index = int(np.argmin(distances))
    return index, float(distances[index])


def assert_matches_oracle(references: np.ndarray, probe: np.ndarray) -> None:
    expected_index, expected = bool_xor_match(references, probe)
    for given_references in (references, PackedReferences.pack(references)):
        index, distance = match_probe(given_references, probe)
        assert index == expected_index
        assert (np.float64(distance).tobytes()
                == np.float64(expected).tobytes())


@st.composite
def match_cases(draw) -> tuple[np.ndarray, np.ndarray]:
    """References with duplicate and constant rows, plus a probe."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 200)))
    row = st.one_of(npst.arrays(bool, shape),
                    st.just(np.zeros(shape, dtype=bool)),
                    st.just(np.ones(shape, dtype=bool)))
    rows = draw(st.lists(row, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))),
                    rows[draw(st.integers(0, len(rows) - 1))].copy())
    probe = draw(st.one_of(row, st.sampled_from(rows)))
    return np.stack(rows), probe


class TestEnrollment:
    def test_enroll_and_list(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        assert auth.enrolled_ids == ("dev-0",)

    def test_double_enroll_rejected(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        with pytest.raises(ConfigurationError):
            auth.enroll("dev-0", make_puf(1))

    def test_requires_challenges(self):
        with pytest.raises(ConfigurationError):
            Authenticator([])

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            Authenticator(CHALLENGES, threshold=0.9)


class TestAuthentication:
    def test_genuine_device_accepted(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        auth.enroll("dev-1", make_puf(1))
        decision = auth.authenticate(make_puf(0))
        assert decision.accepted
        assert decision.device_id == "dev-0"
        assert decision.mean_distance < 0.1

    def test_unknown_device_rejected(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        decision = auth.authenticate(make_puf(42))
        assert not decision.accepted
        assert decision.device_id is None
        assert decision.mean_distance > 0.2

    def test_cross_vendor_impostor_rejected(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0, group="B"))
        decision = auth.authenticate(make_puf(0, group="G"))
        assert not decision.accepted

    def test_authentication_with_fresh_noise_epoch(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        probe = make_puf(0)
        probe.fd.device.reseed_noise(epoch=1)
        assert auth.authenticate(probe).accepted

    def test_empty_database_raises(self):
        auth = Authenticator(CHALLENGES)
        with pytest.raises(InsufficientDataError):
            auth.authenticate(make_puf(0))

    def test_decision_str(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        assert "dev-0" in str(auth.authenticate(make_puf(0)))


class TestVectorizedMatching:
    def test_match_probe_bitwise_equals_scalar_loop(self):
        # The vectorized matcher must reproduce the scalar per-device
        # loop to the last float ulp: per-challenge means first, then
        # the mean over challenges, same reduction order as
        # hamming_distance.  Ties must keep first-enrolled-wins.
        rng = np.random.default_rng(99)
        references = rng.random((12, 3, 64)) < 0.5
        probe = rng.random((3, 64)) < 0.5
        index, best = match_probe(references, probe)
        scalar = [float(np.mean([hamming_distance(ref, got)
                                 for ref, got in zip(reference, probe)]))
                  for reference in references]
        assert best == min(scalar)
        assert index == int(np.argmin(scalar))

    def test_tie_keeps_first_enrolled(self):
        probe = np.zeros((2, 8), dtype=bool)
        duplicate = np.ones((2, 8), dtype=bool)
        references = np.stack([duplicate, duplicate])
        index, _ = match_probe(references, probe)
        assert index == 0

    def test_match_probe_validates_shapes(self):
        with pytest.raises(InsufficientDataError):
            match_probe(np.empty((0, 2, 8), dtype=bool),
                        np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError):
            match_probe(np.zeros((1, 2, 8), dtype=bool),
                        np.zeros((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            match_probe(np.zeros((2, 8), dtype=bool),
                        np.zeros((2, 8), dtype=bool))
        with pytest.raises(InsufficientDataError):
            match_probe(PackedReferences.pack(np.zeros((1, 2, 0), bool)),
                        np.zeros((2, 0), dtype=bool))

    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 63, 64, 65, 127, 128,
                                      129, 200])
    def test_packed_match_equals_bool_xor_at_word_edges(self, bits):
        rng = np.random.default_rng(bits)
        references = rng.random((16, 4, bits)) < 0.5
        assert_matches_oracle(references, rng.random((4, bits)) < 0.5)

    @settings(deadline=None, max_examples=200)
    @given(match_cases())
    def test_packed_match_equals_bool_xor(self, case):
        references, probe = case
        assert_matches_oracle(references, probe)
        # Ties keep the lowest index.
        per_row = [bool_xor_match(row[np.newaxis], probe)[1]
                   for row in references]
        index, distance = match_probe(references, probe)
        assert index == per_row.index(distance)

    def test_packed_words_are_zero_padded(self):
        packed = PackedReferences.pack(np.ones((3, 2, 65), dtype=bool))
        assert packed.shape == (3, 2, 65)
        assert packed.words.dtype == np.uint64
        assert packed.words.shape == (3, 2, 2)
        assert np.bitwise_count(packed.words).sum(axis=-1).tolist() == [
            [65, 65]] * 3

    def test_stacked_references_cache_invalidated_by_enroll(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        assert auth.references.shape[0] == 1
        packed = auth.packed_references
        assert packed.shape == (1, len(CHALLENGES), GEOM.columns)
        assert auth.packed_references is packed  # cached
        auth.enroll("dev-1", make_puf(1))
        assert auth.references.shape[0] == 2
        assert auth.packed_references is not packed
        assert auth.packed_references.shape[0] == 2
        assert (auth.packed_references.words
                == PackedReferences.pack(auth.references).words).all()
        decision = auth.authenticate(make_puf(1))
        assert decision.device_id == "dev-1"
