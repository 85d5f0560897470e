"""Frozen text-side encoder, trainable image-side encoder, block-file I/O.

The text encoder is a small frozen stand-in for a pretrained language
model: position-weighted mean pooling, a token-mixing matrix, and a
projection into the joint latent space, followed by row normalization.
It reads each prompt as a list of rows of a token table node and pools
it with one matmul against the table, on the tape. Its parameters are
seeded once and never receive gradients; the table rows flowing through
it do. The image encoder is a two-layer tanh network mapping raw feature
vectors to features in the same latent space, and is always trainable;
the scores graph (training._graph) normalizes them for the prompt
methods. It is closed-form numpy off the tape, with its gradient written
out by hand, and holds no weights of its own: its four arrays live with
the model's other parameter groups, under the names in
ImageEncoder.NAMES, and encode and backward read them from that dict.
"""

from __future__ import annotations

import struct

import numpy as np

from .diffcore import Tape, add_row, check_finite, matmul

PROTOTYPE_MAGIC = b"OPRO2"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# fnv1a64 hashes its input in chunks of at most this many bytes, which
# bounds its temporaries. _FNV_POWERS[j] = _FNV_PRIME ** (_FNV_CHUNK - j)
# mod 2**64, so that _FNV_POWERS[-n - 1 : -1] runs from prime ** n down to
# prime ** 1; uint64 products wrap mod 2**64, as the hash does.
_FNV_CHUNK = 1 << 14
_FNV_POWERS = np.append(np.full(_FNV_CHUNK, _FNV_PRIME, dtype=np.uint64).cumprod()[::-1],
                        np.uint64(1))


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string, h = (h ^ byte) * prime mod
    2**64 for each byte, computed a chunk at a time in numpy.

    XOR with a byte changes only the state's low byte lo, so it adds d =
    (lo ^ byte) - lo, and over a chunk of n bytes the state becomes h *
    prime**n + sum(d_i * prime**(n - i)) mod 2**64: one uint64 dot product.
    The low bytes follow lo' = ((lo ^ byte) * 0xB3) mod 256 (0xB3 is the
    prime's low byte), and bit k of that product is bit k of lo ^ byte
    XOR bit k of the product of its bits 0..k-1 alone. So once the lower
    bit planes of lo are known, plane k is a running XOR, and eight
    passes give every lo.
    """
    h = _FNV_OFFSET
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, len(buf), _FNV_CHUNK):
        b = buf[start : start + _FNV_CHUNK]
        # lo[i], the state's low byte before b[i], is filled one bit plane
        # at a time. steps[0] is the first lo, and at plane k bit k of
        # steps[i + 1] turns lo[i] into lo[i + 1], so a running XOR of
        # steps gives plane k of every lo.
        lo = np.zeros_like(b)
        steps = np.empty_like(b)
        steps[0] = h & 0xFF
        for k in range(8):
            bit = 1 << k
            steps[1:] = ((lo[:-1] ^ b[:-1]) & (bit - 1)) * 0xB3 ^ b[:-1]
            lo |= np.bitwise_xor.accumulate(steps) & bit
        d = (lo ^ b).astype(np.uint64) - lo
        powers = _FNV_POWERS[-len(b) - 1 :]
        h = (h * int(powers[0]) + int(np.dot(d, powers[:-1]))) & 0xFFFFFFFFFFFFFFFF
    return h


class BlockFileError(ValueError):
    """A block file that does not read back: a bad magic, a truncated
    header, payload or checksum, bytes after the checksum, a checksum
    mismatch, or (read_prototypes) a non-finite entry or a zero row. The
    message starts with the file's path and says which."""


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.asarray(array, dtype=np.float64)
    out.setflags(write=False)
    return out


class PseudoTextEncoder:
    """Deterministic frozen map from token sequences to language prototypes.

    Four weight blocks (mixing, position weights, projection, token table)
    are drawn from one seed. Since mixing and projection are both frozen,
    `create` multiplies them out once into `mixed_projection`, and the
    encoder keeps only what encoding reads: the position weights, that
    product and the token table, each made read-only, so freezing is
    enforced by the arrays themselves. Position-weighted pooling keeps the
    prototype a nontrivial function of token order while staying linear,
    which the gradient checks rely on. Encoding pools each prompt to one
    row with one matmul against the token table, then mixes and projects
    all the pooled rows with one matmul; its values differ from the two
    successive products, and from projecting each row on its own, by
    float rounding only.
    """

    def __init__(self, position_weights, mixed_projection, token_table):
        self.position_weights = _frozen(position_weights)
        self.mixed_projection = _frozen(mixed_projection)
        self.token_table = _frozen(token_table)

    @classmethod
    def create(
        cls,
        seed: int,
        word_dim: int = 32,
        latent_dim: int = 64,
        max_len: int = 16,
        vocab_size: int = 64,
    ) -> "PseudoTextEncoder":
        rng = np.random.default_rng(seed)
        mixing = np.eye(word_dim) + rng.normal(0.0, 0.5 / np.sqrt(word_dim), (word_dim, word_dim))
        positions = rng.uniform(0.5, 1.5, max_len)
        projection = rng.normal(0.0, 1.0 / np.sqrt(word_dim), (word_dim, latent_dim))
        table = rng.normal(0.0, 0.02, (vocab_size, word_dim))
        return cls(positions, mixing @ projection, table)

    def encode(self, tape: Tape, table_node: int, prompts) -> int:
        """Unit-norm prototype matrix (one row per prompt) on the tape.

        Each prompt is the list of token table rows it reads, in order
        (prompt.assemble_sequences). prototypes = normalize(pooled @
        mixed_projection), where row i of pooled is the position-weighted
        mean of prompt i's rows: one matmul of a constant pooling row, the
        prompt's normalized position weights placed at the rows it reads,
        against the table. A row the prompt repeats adds its weights. The
        pooled rows are stacked, and one matmul projects them all.
        Differentiable in the table only; encoder weights enter as
        constants. Each prompt reads 1 to max_len rows of the table, as
        assemble_sequences builds them once training.build_model has checked
        the prompt length.
        """
        table_rows = tape.value(table_node).shape[0]
        pooled = []
        for rows in prompts:
            weights = self.position_weights[: len(rows)]
            pooling = np.bincount(rows, weights / weights.sum(), minlength=table_rows)
            pooled.append(tape.matmul(tape.constant(pooling[None, :]), table_node))
        pooled = tape.concat_rows(pooled)
        mixed_projection = tape.constant(self.mixed_projection)
        return tape.l2_normalize_rows(tape.matmul(pooled, mixed_projection))


class ImageEncoder:
    """Two affine layers with a tanh between: A = X W1 + b1, H = tanh(A),
    F = H W2 + b2.

    The encoder keeps no weights. create() returns its four arrays under
    their names, NAMES, which the model stores with its other parameter
    groups; encode() and backward() read them from such a dict. Both
    compute what the tape's ops did, in their order, bitwise.
    """

    NAMES = ("image.w1", "image.b1", "image.w2", "image.b2")

    @staticmethod
    def create(
        seed: int, input_dim: int = 16, hidden_dim: int = 32, latent_dim: int = 64
    ) -> dict[str, np.ndarray]:
        """The seeded weights, {name: array} in NAMES order."""
        dims = {"input_dim": input_dim, "hidden_dim": hidden_dim, "latent_dim": latent_dim}
        for name, dim in dims.items():
            if dim < 1:
                raise ValueError(f"{name} must be >= 1, got {dim}")
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, hidden_dim))
        b1 = np.zeros((1, hidden_dim))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (hidden_dim, latent_dim))
        b2 = np.zeros((1, latent_dim))
        return dict(zip(ImageEncoder.NAMES, (w1, b1, w2, b2)))

    @staticmethod
    def checked_batch(batch: np.ndarray) -> np.ndarray:
        """The batch as float64, checked to have rows, be finite and be a
        matrix. Every batch the encoder reads passes here. The first
        matmul rejects a width other than input_dim."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[:1] == (0,):
            raise ValueError("image batch has no rows")
        if not np.isfinite(batch).all():
            raise ValueError("image batch contains non-finite values")
        if batch.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {batch.shape}")
        return batch

    @staticmethod
    def encode(params: dict[str, np.ndarray], batch: np.ndarray,
               check=check_finite) -> tuple[np.ndarray, tuple]:
        """(unnormalized features F, what backward reads) of the batch,
        with the weights params[name] for each name in NAMES; check(value,
        op) follows each product and bias (diffcore.guarded)."""
        x = ImageEncoder.checked_batch(batch)
        w1, b1, w2, b2 = (params[name] for name in ImageEncoder.NAMES)
        a = matmul(x, w1)
        check(a, "matmul")
        check(add_row(a, b1), "add")
        h = np.tanh(a, out=a)
        features = matmul(h, w2)
        check(features, "matmul")
        check(add_row(features, b2), "add")
        return features, (x, h)

    @staticmethod
    def backward(params: dict[str, np.ndarray], kept: tuple, d_features: np.ndarray,
                 grads: dict[str, np.ndarray]) -> None:
        """Write the gradient of each group in NAMES into grads[name], given
        dL/dF and what encode kept: dW2 = H.T dF, db2 = colsum(dF),
        dA = (dF W2.T) (1 - H^2), dW1 = X.T dA and db1 = colsum(dA)."""
        x, h = kept
        grads["image.b2"][...] = d_features.sum(axis=0, keepdims=True)
        grads["image.w2"][...] = h.T.dot(d_features)
        d_a = d_features.dot(params["image.w2"].T) * (1.0 - h * h)
        grads["image.b1"][...] = d_a.sum(axis=0, keepdims=True)
        grads["image.w1"][...] = x.T.dot(d_a)


# ---------------------------------------------------------------------------
# block files: a magic, then for each block its rows and cols as
# little-endian uint64 and its row-major little-endian float64 payload, then
# a 64-bit FNV-1a checksum over every byte before it (the magic, each header
# and each payload), which ends the file. A header rewritten to another
# shape of the same size fails the checksum.
# prototypes.bin is one block, the C x latent_dim prototype matrix;
# checkpoint.bin holds a model's parameter groups (training.save_state). The
# readers parse bytes the caller has read, so `report` checks the very bytes
# it verified against the manifest; the path only names the file in
# messages. A file that does not read back raises BlockFileError, whose
# message says what is wrong.


def write_blocks(path, magic: bytes, blocks) -> None:
    """Write the blocks, in order, under `magic`. Callers pass matrices:
    tape values, parameter groups, or the 1x1 num_ranks block."""
    blocks = [np.ascontiguousarray(block, dtype="<f8") for block in blocks]
    body = magic + b"".join(struct.pack("<2Q", *block.shape) + block.tobytes()
                            for block in blocks)
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<Q", fnv1a64(body)))


def read_blocks(path, blob: bytes, magic: bytes, count: int) -> list[np.ndarray]:
    """The `count` blocks of the block file `path` whose bytes are `blob`,
    after checking its magic, each block's length, that the file ends at
    the checksum, and the checksum."""
    if blob[: len(magic)] != magic:
        raise BlockFileError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    offset = len(magic)
    blocks = []
    for index in range(count):
        if len(blob) < offset + 16:
            raise BlockFileError(f"{path}: header of block {index} truncated")
        rows, cols = struct.unpack_from("<2Q", blob, offset)
        offset += 16
        payload = blob[offset : offset + rows * cols * 8]
        if len(payload) != rows * cols * 8:
            raise BlockFileError(
                f"{path}: payload of block {index} truncated: header says {rows}x{cols}"
            )
        offset += len(payload)
        blocks.append(np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy())
    if len(blob) < offset + 8:
        raise BlockFileError(f"{path}: checksum truncated")
    if len(blob) > offset + 8:
        raise BlockFileError(f"{path}: {len(blob) - offset - 8} bytes after the checksum")
    (stored,) = struct.unpack_from("<Q", blob, offset)
    if fnv1a64(blob[:offset]) != stored:
        raise BlockFileError(f"{path}: checksum mismatch")
    return blocks


def export_prototypes(path, prototypes: np.ndarray) -> None:
    write_blocks(path, PROTOTYPE_MAGIC, [prototypes])


def read_prototypes(path, blob: bytes) -> np.ndarray:
    """The prototype matrix of the prototype file `path` whose bytes are
    `blob`, as stored, after read_blocks' checks: every entry finite and
    no row the zero vector. Every file the package writes holds unit-norm
    rows (l2-normalize-rows output), and nothing re-normalizes them."""
    (matrix,) = read_blocks(path, blob, PROTOTYPE_MAGIC, 1)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, col = bad[0]
        raise BlockFileError(f"{path}: non-finite prototype entry at row {row}, col {col}")
    norms = np.linalg.norm(matrix, axis=1)
    if (norms == 0).any():
        row = int(np.flatnonzero(norms == 0)[0])
        raise BlockFileError(f"{path}: prototype row {row} is the zero vector")
    return matrix


def import_prototypes(path) -> np.ndarray:
    """read_prototypes of the file at `path`, read once."""
    with open(path, "rb") as fh:
        return read_prototypes(path, fh.read())
