"""Frozen text encoder, trainable image encoder, and the block-file
format of prototypes.bin with its checksum and error kinds."""

import struct

import numpy as np
import pytest

from conftest import encode_text, sum_all
from ordinalproto.diffcore import Tape, finite_difference_check
from ordinalproto.encoders import (
    BadMagicError,
    ChecksumMismatchError,
    ImageEncoder,
    NonFiniteEntryError,
    PrototypeFileError,
    PseudoTextEncoder,
    TruncatedPayloadError,
    encode_images,
    export_prototypes,
    fnv1a64,
    import_prototypes,
    read_blocks,
    write_blocks,
)


class TestPseudoTextEncoder:
    def test_same_seed_builds_identical_encoders(self):
        a = PseudoTextEncoder.create(3, word_dim=8, latent_dim=10)
        b = PseudoTextEncoder.create(3, word_dim=8, latent_dim=10)
        assert np.array_equal(a.mixing, b.mixing)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.token_table, b.token_table)

    def test_parameters_are_read_only(self):
        enc = PseudoTextEncoder.create(0, word_dim=4, latent_dim=4)
        with pytest.raises(ValueError):
            enc.mixing[0, 0] = 1.0

    def test_mixing_and_projection_are_multiplied_once_into_a_frozen_matrix(self):
        enc = PseudoTextEncoder.create(4, word_dim=6, latent_dim=8)
        np.testing.assert_array_equal(enc.mixed_projection, enc.mixing @ enc.projection)
        with pytest.raises(ValueError):
            enc.mixed_projection[0, 0] = 1.0
        seq = np.random.default_rng(4).normal(size=(3, 6))
        weights = enc.position_weights[:3]
        row = (weights / weights.sum()) @ seq @ enc.mixing @ enc.projection
        np.testing.assert_allclose(
            encode_text(enc, [seq])[0], row / np.linalg.norm(row), rtol=0, atol=1e-12
        )

    def test_identical_sequences_give_identical_prototypes(self):
        enc = PseudoTextEncoder.create(1, word_dim=6, latent_dim=8)
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(3, 6))
        protos = encode_text(enc, [seq, seq.copy()])
        np.testing.assert_array_equal(protos[0], protos[1])

    def test_prototypes_are_unit_norm(self):
        enc = PseudoTextEncoder.create(2, word_dim=6, latent_dim=8)
        rng = np.random.default_rng(1)
        protos = encode_text(enc, [rng.normal(size=(4, 6)) for _ in range(5)])
        np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-9)

    def test_all_zero_sequence_rejected(self):
        enc = PseudoTextEncoder.create(2, word_dim=6, latent_dim=8)
        with pytest.raises(ValueError, match="zero"):
            encode_text(enc, [np.zeros((3, 6))])

    def test_empty_and_overlong_sequences_rejected(self):
        enc = PseudoTextEncoder.create(2, word_dim=6, latent_dim=8, max_len=4)
        with pytest.raises(ValueError, match="empty"):
            encode_text(enc, [np.zeros((0, 6))])
        with pytest.raises(ValueError, match="max_len"):
            encode_text(enc, [np.ones((5, 6))])

    def test_scaling_a_sequence_leaves_the_direction_unchanged(self):
        """Linear pooling then normalization: 2x input, same prototype,
        whatever the position weights."""
        enc = PseudoTextEncoder.create(5, word_dim=6, latent_dim=8)
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(3, 6))
        a = encode_text(enc, [seq])
        b = encode_text(enc, [2.0 * seq])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_token_order_matters_with_seeded_position_weights(self):
        enc = PseudoTextEncoder.create(6, word_dim=6, latent_dim=8)
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(3, 6))
        a = encode_text(enc, [seq])
        b = encode_text(enc, [seq[::-1]])
        assert not np.allclose(a, b)


class TestImageEncoder:
    def test_duplicated_row_gives_identical_embeddings(self):
        enc = ImageEncoder.create(0, input_dim=5, hidden_dim=6, latent_dim=7)
        row = np.random.default_rng(4).normal(size=(1, 5))
        _, emb = encode_images(enc, np.vstack([row, row]))
        np.testing.assert_array_equal(emb[0], emb[1])

    def test_embeddings_are_unit_norm(self):
        enc = ImageEncoder.create(1, input_dim=5, hidden_dim=6, latent_dim=7)
        batch = np.random.default_rng(5).normal(size=(9, 5))
        _, emb = encode_images(enc, batch)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    def test_non_finite_batch_rejected(self):
        enc = ImageEncoder.create(2, input_dim=3, hidden_dim=4, latent_dim=4)
        batch = np.zeros((2, 3))
        batch[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            encode_images(enc, batch)

    def test_gradient_of_embedding_sum_matches_finite_differences(self):
        enc = ImageEncoder.create(3, input_dim=4, hidden_dim=5, latent_dim=6)
        batch = np.random.default_rng(6).normal(size=(3, 4))

        def loss_with(w1):
            probe = ImageEncoder(w1, enc.b1, enc.w2, enc.b2)
            tape = Tape()
            _, emb = probe.encode(tape, batch)
            return tape.value(sum_all(tape, emb))[0, 0]

        tape = Tape()
        _, emb = enc.encode(tape, batch)
        analytic = tape.backward(sum_all(tape, emb))["image.w1"]
        assert finite_difference_check(loss_with, enc.w1, analytic, h=1e-5) <= 1e-4


class TestPrototypeFile:
    def _unit_rows(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(rows, cols))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    def test_round_trip_is_bitwise_for_normalized_rows(self, tmp_path):
        protos = self._unit_rows(5, 8, 0)
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        np.testing.assert_array_equal(import_prototypes(path), protos)

    def test_non_unit_rows_are_renormalized_on_load(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = 3.0 * rng.normal(size=(4, 6))
        path = tmp_path / "protos.bin"
        export_prototypes(path, raw)
        loaded = import_prototypes(path)
        np.testing.assert_allclose(np.linalg.norm(loaded, axis=1), 1.0, atol=1e-12)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(3, 4, 2))
        blob = bytearray(path.read_bytes())
        blob[:5] = b"WRONG"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            import_prototypes(path)

    def test_truncated_payload_names_declared_shape(self, tmp_path):
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(5, 4, 3))
        blob = path.read_bytes()
        # keep the header claiming 5 rows but drop one row plus the checksum
        path.write_bytes(blob[: 5 + 16 + 4 * 4 * 8])
        with pytest.raises(TruncatedPayloadError, match="5x4"):
            import_prototypes(path)

    def test_nan_entry_reports_row_and_col(self, tmp_path):
        protos = self._unit_rows(3, 4, 4)
        protos[2, 1] = np.nan
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        with pytest.raises(NonFiniteEntryError) as err:
            import_prototypes(path)
        assert err.value.row == 2 and err.value.col == 1

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(3, 4, 5))
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError):
            import_prototypes(path)

    def test_zero_row_rejected(self, tmp_path):
        protos = self._unit_rows(3, 4, 6)
        protos[1] = 0.0
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        with pytest.raises(PrototypeFileError, match="zero"):
            import_prototypes(path)

    def test_file_is_magic_shape_payload_checksum(self, tmp_path):
        protos = self._unit_rows(2, 3, 7)
        payload = b"".join(struct.pack("<d", v) for v in protos.ravel())
        checksum = struct.pack("<Q", fnv1a64(payload))
        expected = b"OPRO1" + struct.pack("<2Q", 2, 3) + payload + checksum
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        assert path.read_bytes() == expected

    def test_fnv1a64_reference_values(self):
        # published FNV-1a test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


class TestBlockFile:
    BLOCKS = (np.arange(6.0).reshape(2, 3), np.zeros((0, 4)), np.array([[-1.5]]))

    def test_round_trip_keeps_order_shapes_and_bits(self, tmp_path):
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        loaded = read_blocks(path, b"TEST1", len(self.BLOCKS))
        assert [b.shape for b in loaded] == [(2, 3), (0, 4), (1, 1)]
        for got, want in zip(loaded, self.BLOCKS):
            np.testing.assert_array_equal(got, want)

    def test_checksum_covers_every_payload_in_order(self, tmp_path):
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        payload = np.arange(6.0).tobytes() + np.array([-1.5]).tobytes()
        assert path.read_bytes()[-8:] == struct.pack("<Q", fnv1a64(payload))

    def test_a_block_the_file_does_not_hold_is_truncation(self, tmp_path):
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        with pytest.raises(TruncatedPayloadError):
            read_blocks(path, b"TEST1", len(self.BLOCKS) + 1)

    def test_non_matrix_block_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="matrix"):
            write_blocks(tmp_path / "blocks.bin", b"TEST1", [np.zeros(3)])
