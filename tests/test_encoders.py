"""Frozen text encoder, trainable image encoder, and the block-file
format of prototypes.bin with its checksum and error messages."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    encode_images,
    encode_text,
    finite_difference_check,
    fnv1a64_reference,
)
from ordinalproto.diffcore import Tape, l2_normalize_rows, l2_normalize_rows_grad
from ordinalproto.encoders import (
    _FNV_CHUNK,
    BlockFileError,
    ImageEncoder,
    PseudoTextEncoder,
    export_prototypes,
    fnv1a64,
    import_prototypes,
    read_blocks,
    write_blocks,
)


def _seed_draws(seed, word_dim, latent_dim, max_len=16, vocab_size=64):
    """(mixing, position weights, projection, token table): what
    PseudoTextEncoder.create draws from seed, in its order."""
    rng = np.random.default_rng(seed)
    mixing = np.eye(word_dim) + rng.normal(0.0, 0.5 / np.sqrt(word_dim), (word_dim, word_dim))
    positions = rng.uniform(0.5, 1.5, max_len)
    projection = rng.normal(0.0, 1.0 / np.sqrt(word_dim), (word_dim, latent_dim))
    table = rng.normal(0.0, 0.02, (vocab_size, word_dim))
    return mixing, positions, projection, table


class TestPseudoTextEncoder:
    def test_same_seed_builds_identical_encoders(self):
        a = PseudoTextEncoder.create(3, word_dim=8, latent_dim=10)
        b = PseudoTextEncoder.create(3, word_dim=8, latent_dim=10)
        _, positions, _, table = _seed_draws(3, word_dim=8, latent_dim=10)
        for enc in (a, b):
            np.testing.assert_array_equal(enc.position_weights, positions)
            np.testing.assert_array_equal(enc.token_table, table)
        np.testing.assert_array_equal(a.mixed_projection, b.mixed_projection)

    def test_parameters_are_read_only(self):
        enc = PseudoTextEncoder.create(0, word_dim=4, latent_dim=4)
        for array in (enc.position_weights, enc.mixed_projection, enc.token_table):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_mixing_and_projection_are_multiplied_once_into_a_frozen_matrix(self):
        enc = PseudoTextEncoder.create(4, word_dim=6, latent_dim=8)
        mixing, positions, projection, _ = _seed_draws(4, word_dim=6, latent_dim=8)
        np.testing.assert_array_equal(enc.mixed_projection, mixing @ projection)
        with pytest.raises(ValueError):
            enc.mixed_projection[0, 0] = 1.0
        seq = np.random.default_rng(4).normal(size=(3, 6))
        weights = positions[:3]
        row = (weights / weights.sum()) @ seq @ mixing @ projection
        np.testing.assert_allclose(
            encode_text(enc, [seq])[0], row / np.linalg.norm(row), rtol=0, atol=1e-12
        )

    def test_identical_sequences_give_identical_prototypes(self):
        """Equal sequences at different rows of one table pool to the same
        prototype, within rounding: each pooling product adds the other
        rows' zero terms in its own place of the BLAS sum."""
        enc = PseudoTextEncoder.create(1, word_dim=6, latent_dim=8)
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(3, 6))
        protos = encode_text(enc, [seq, seq.copy()])
        np.testing.assert_allclose(protos[0], protos[1], rtol=0, atol=1e-12)

    def test_prompts_that_read_the_same_rows_give_identical_prototypes(self):
        enc = PseudoTextEncoder.create(1, word_dim=6, latent_dim=8)
        table = np.random.default_rng(0).normal(size=(5, 6))
        tape = Tape()
        protos = tape.value(enc.encode(tape, tape.constant(table), [[1, 3, 4], [1, 3, 4]]))
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

    def test_a_repeated_row_adds_its_weights(self):
        """A prompt that reads a row twice pools as the sequence that holds
        that row twice: the row takes the sum of both positions' weights."""
        enc = PseudoTextEncoder.create(3, word_dim=6, latent_dim=8)
        _, positions, _, _ = _seed_draws(3, word_dim=6, latent_dim=8)
        table = np.random.default_rng(5).normal(size=(3, 6))
        tape = Tape()
        protos = tape.value(enc.encode(tape, tape.constant(table), [[2, 0, 2]]))
        pool = positions[:3] / positions[:3].sum()
        row = ((pool[0] + pool[2]) * table[2] + pool[1] * table[0]) @ enc.mixed_projection
        np.testing.assert_allclose(protos[0], row / np.linalg.norm(row), rtol=0, atol=1e-12)
        np.testing.assert_allclose(protos, encode_text(enc, [table[[2, 0, 2]]]), rtol=0,
                                   atol=1e-12)

    def test_prompts_of_two_lengths_pool_each_with_its_own_weights(self):
        """Each prompt has its own pooling row, so prompts of different
        lengths encode as each would alone."""
        enc = PseudoTextEncoder.create(2, word_dim=6, latent_dim=8)
        rng = np.random.default_rng(6)
        long, short = rng.normal(size=(3, 6)), rng.normal(size=(2, 6))
        both = encode_text(enc, [long, short])
        np.testing.assert_allclose(both[0], encode_text(enc, [long])[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(both[1], encode_text(enc, [short])[0], rtol=0, atol=1e-12)

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
        weights = ImageEncoder.create(0, input_dim=5, hidden_dim=6, latent_dim=7)
        row = np.random.default_rng(4).normal(size=(1, 5))
        _, emb = encode_images(weights, np.vstack([row, row]))
        np.testing.assert_array_equal(emb[0], emb[1])

    def test_embeddings_are_unit_norm(self):
        weights = ImageEncoder.create(1, input_dim=5, hidden_dim=6, latent_dim=7)
        batch = np.random.default_rng(5).normal(size=(9, 5))
        _, emb = encode_images(weights, batch)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    def test_non_finite_batch_rejected(self):
        weights = ImageEncoder.create(2, input_dim=3, hidden_dim=4, latent_dim=4)
        batch = np.zeros((2, 3))
        batch[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            encode_images(weights, batch)

    def test_batch_of_the_wrong_shape_rejected(self):
        weights = ImageEncoder.create(2, input_dim=3, hidden_dim=4, latent_dim=4)
        with pytest.raises(ValueError, match=r"expected a 2-D matrix, got shape \(3,\)"):
            encode_images(weights, np.zeros(3))
        with pytest.raises(ValueError, match=r"matmul: incompatible shapes \(\(2, 5\), \(3, 4\)\)"):
            encode_images(weights, np.zeros((2, 5)))

    @pytest.mark.parametrize("name", ImageEncoder.NAMES)
    def test_gradient_of_embedding_sum_matches_finite_differences(self, name):
        """backward, fed the gradient of the embeddings' entry sum through
        their normalization, against central differences of that sum."""
        weights = ImageEncoder.create(3, input_dim=4, hidden_dim=5, latent_dim=6)
        weights = {k: v + 0.1 for k, v in weights.items()}  # nonzero biases
        batch = np.random.default_rng(6).normal(size=(3, 4))

        def loss_with(value):
            return encode_images(weights | {name: value}, batch)[1].sum()

        features, kept = ImageEncoder.encode(weights, batch)
        emb, norms = l2_normalize_rows(features)
        grads = {k: np.empty_like(v) for k, v in weights.items()}
        ImageEncoder.backward(weights, kept, l2_normalize_rows_grad(np.ones_like(emb), emb, norms),
                              grads)
        assert np.abs(grads[name]).max() > 0
        assert finite_difference_check(loss_with, weights[name], grads[name], h=1e-5) <= 1e-4


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

    def test_rows_are_returned_as_stored(self, tmp_path):
        """Rows off unit norm load bitwise as written: nothing re-normalizes
        them."""
        raw = 3.0 * np.random.default_rng(1).normal(size=(4, 6))
        path = tmp_path / "protos.bin"
        export_prototypes(path, raw)
        np.testing.assert_array_equal(import_prototypes(path), raw)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(3, 4, 2))
        blob = bytearray(path.read_bytes())
        blob[:5] = b"WRONG"
        path.write_bytes(bytes(blob))
        with pytest.raises(BlockFileError, match="bad magic b'WRONG', expected b'OPRO2'"):
            import_prototypes(path)

    def test_truncated_payload_names_declared_shape(self, tmp_path):
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(5, 4, 3))
        blob = path.read_bytes()
        # keep the header claiming 5 rows but drop one row plus the checksum
        path.write_bytes(blob[: 5 + 16 + 4 * 4 * 8])
        with pytest.raises(BlockFileError, match="payload of block 0 truncated: header says 5x4"):
            import_prototypes(path)

    def test_nan_entry_reports_row_and_col(self, tmp_path):
        protos = self._unit_rows(3, 4, 4)
        protos[2, 1] = np.nan
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        with pytest.raises(BlockFileError, match=f"^{re.escape(str(path))}: "
                           "non-finite prototype entry at row 2, col 1$"):
            import_prototypes(path)

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(3, 4, 5))
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(BlockFileError, match=r": checksum mismatch$"):
            import_prototypes(path)

    def test_a_header_reshaped_to_the_same_size_fails_the_checksum(self, tmp_path):
        """A 20 x 64 header rewritten to 40 x 32, with the payload and the
        checksum as written, does not load as a 40 x 32 matrix: the
        checksum covers the header."""
        path = tmp_path / "protos.bin"
        export_prototypes(path, self._unit_rows(20, 64, 8))
        blob = path.read_bytes()
        assert blob[5:21] == struct.pack("<2Q", 20, 64)
        path.write_bytes(blob[:5] + struct.pack("<2Q", 40, 32) + blob[21:])
        with pytest.raises(BlockFileError, match=r": checksum mismatch$"):
            import_prototypes(path)

    def test_a_file_of_the_payload_only_checksum_fails_on_its_magic(self, tmp_path):
        """The layout before the checksum covered the headers, under the
        magic OPRO1 with FNV-1a over the payload alone, is not read."""
        protos = self._unit_rows(2, 3, 9)
        payload = protos.astype("<f8").tobytes()
        path = tmp_path / "protos.bin"
        path.write_bytes(b"OPRO1" + struct.pack("<2Q", 2, 3) + payload
                         + struct.pack("<Q", fnv1a64(payload)))
        with pytest.raises(BlockFileError, match="bad magic b'OPRO1', expected b'OPRO2'"):
            import_prototypes(path)

    def test_zero_row_rejected(self, tmp_path):
        protos = self._unit_rows(3, 4, 6)
        protos[1] = 0.0
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        with pytest.raises(BlockFileError, match=f"^{re.escape(str(path))}: "
                           "prototype row 1 is the zero vector$"):
            import_prototypes(path)

    def test_file_is_magic_shape_payload_checksum(self, tmp_path):
        protos = self._unit_rows(2, 3, 7)
        payload = b"".join(struct.pack("<d", v) for v in protos.ravel())
        body = b"OPRO2" + struct.pack("<2Q", 2, 3) + payload
        expected = body + struct.pack("<Q", fnv1a64(body))
        path = tmp_path / "protos.bin"
        export_prototypes(path, protos)
        assert path.read_bytes() == expected

    def test_fnv1a64_reference_values(self):
        # published FNV-1a test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @pytest.mark.parametrize("fill", ["zeros", "ones", "random"])
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, _FNV_CHUNK - 1, _FNV_CHUNK,
                                        _FNV_CHUNK + 1, 3 * _FNV_CHUNK + 5])
    def test_fnv1a64_equals_the_per_byte_loop(self, length, fill):
        if fill == "random":
            data = np.random.default_rng(length).integers(0, 256, length, np.uint8).tobytes()
        else:
            data = (b"\x00" if fill == "zeros" else b"\xff") * length
        assert fnv1a64(data) == fnv1a64_reference(data)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.binary(max_size=2 * _FNV_CHUNK + 3))
    def test_drawn_byte_strings_hash_as_the_per_byte_loop(self, data):
        assert fnv1a64(data) == fnv1a64_reference(data)


class TestBlockFile:
    BLOCKS = (np.arange(6.0).reshape(2, 3), np.zeros((0, 4)), np.array([[-1.5]]))

    def test_round_trip_keeps_order_shapes_and_bits(self, tmp_path):
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        loaded = read_blocks(path, path.read_bytes(), b"TEST1", len(self.BLOCKS))
        assert [b.shape for b in loaded] == [(2, 3), (0, 4), (1, 1)]
        for got, want in zip(loaded, self.BLOCKS):
            np.testing.assert_array_equal(got, want)

    def test_checksum_covers_every_byte_before_it(self, tmp_path):
        """The magic, then each block's header and payload in order."""
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        body = (b"TEST1" + struct.pack("<2Q", 2, 3) + np.arange(6.0).tobytes()
                + struct.pack("<2Q", 0, 4) + struct.pack("<2Q", 1, 1)
                + np.array([-1.5]).tobytes())
        assert path.read_bytes() == body + struct.pack("<Q", fnv1a64(body))

    def test_a_block_the_file_does_not_hold_is_truncation(self, tmp_path):
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        with pytest.raises(BlockFileError, match="header of block 3 truncated"):
            read_blocks(path, path.read_bytes(), b"TEST1", len(self.BLOCKS) + 1)

    @pytest.mark.parametrize("extra", [b"\n", b"\x00" * 8, None],
                             ids=["newline", "eight-zero-bytes", "checksum-again"])
    def test_bytes_after_the_checksum_are_rejected(self, tmp_path, extra):
        """The checksum ends the file: a newline, zero padding, or the
        checksum written twice after it is named in one line, though
        every block and the checksum before it read back."""
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        blob = path.read_bytes()
        extra = blob[-8:] if extra is None else extra
        message = f"{path}: {len(extra)} bytes after the checksum"
        with pytest.raises(BlockFileError, match=f"^{re.escape(message)}$"):
            read_blocks(path, blob + extra, b"TEST1", len(self.BLOCKS))

    def test_a_block_the_reader_does_not_ask_for_is_rejected(self, tmp_path):
        """A file holding one block more than the reader asks for is not
        read as its first blocks: the reader takes the first 8 bytes of the
        last block's header for the checksum, and the file's other 24 bytes
        follow it."""
        path = tmp_path / "blocks.bin"
        write_blocks(path, b"TEST1", self.BLOCKS)
        message = f"{path}: 24 bytes after the checksum"
        with pytest.raises(BlockFileError, match=f"^{re.escape(message)}$"):
            read_blocks(path, path.read_bytes(), b"TEST1", len(self.BLOCKS) - 1)
