"""Token encodings, their four-way split, and phrase/question dense vectors."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Token

QUERY_MARKER = "<query>"


@dataclass(frozen=True)
class EncoderConfig:
    """Widths of the token encoding and its four positional slices."""

    dim: int = 1024
    boundary_dim: int = 480
    coherency_dim: int = 32

    def __post_init__(self) -> None:
        if min(self.dim, self.boundary_dim, self.coherency_dim) <= 0:
            raise ValueError("all widths must be positive")
        if 2 * self.boundary_dim + 2 * self.coherency_dim != self.dim:
            raise ValueError(
                f"2*{self.boundary_dim} + 2*{self.coherency_dim} != {self.dim}"
            )


class TokenEncodingMatrix:
    """T x dim matrix whose columns split positionally into four views.

    The column order (start, end, coherency head, coherency tail) is a fixed
    convention and is part of the index format version.
    """

    def __init__(self, data: np.ndarray, config: EncoderConfig):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != config.dim:
            raise ValueError(f"expected T x {config.dim} matrix, got {data.shape}")
        self.data = data
        self.config = config

    @property
    def n_tokens(self) -> int:
        return self.data.shape[0]

    @property
    def start_cols(self) -> np.ndarray:
        return self.data[:, : self.config.boundary_dim]

    @property
    def end_cols(self) -> np.ndarray:
        return self.data[:, self.config.boundary_dim : 2 * self.config.boundary_dim]

    @property
    def coh_head_cols(self) -> np.ndarray:
        b, c = self.config.boundary_dim, self.config.coherency_dim
        return self.data[:, 2 * b : 2 * b + c]

    @property
    def coh_tail_cols(self) -> np.ndarray:
        b, c = self.config.boundary_dim, self.config.coherency_dim
        return self.data[:, 2 * b + c :]


@dataclass
class DensePhraseVector:
    """Start vector, end vector, and coherency scalar for one span.

    start/end are views into token-level rows; no per-phrase storage is
    allocated.
    """

    start: np.ndarray
    end: np.ndarray
    coherency: float

    def flattened(self) -> np.ndarray:
        return np.concatenate([self.start, self.end, [self.coherency]])


QueryDenseVector = DensePhraseVector  # a question's vector has the same layout


def phrase_dense(H: TokenEncodingMatrix, i: int, j: int) -> DensePhraseVector:
    """Span vector: start row i, end row j, coherency = head_i . tail_j."""
    if not (0 <= i <= j < H.n_tokens):
        raise IndexError(f"span ({i}, {j}) out of range for {H.n_tokens} tokens")
    return DensePhraseVector(
        start=H.start_cols[i],
        end=H.end_cols[j],
        coherency=float(np.dot(H.coh_head_cols[i], H.coh_tail_cols[j])),
    )


def question_dense(H: TokenEncodingMatrix) -> QueryDenseVector:
    """Question vector read entirely from the marker row (row 0)."""
    if H.n_tokens < 1:
        raise ValueError("empty question")
    return phrase_dense(H, 0, 0)


def dense_score(q: QueryDenseVector, p: DensePhraseVector) -> float:
    """Inner product of the flattened (2*boundary_dim + 1) vectors."""
    if q.start.shape != p.start.shape or q.end.shape != p.end.shape:
        raise ValueError("dimension mismatch between query and phrase")
    return float(
        np.dot(q.start, p.start) + np.dot(q.end, p.end) + q.coherency * p.coherency
    )


class Encoder(Protocol):
    """Deterministic token-sequence encoders with a query-marker question mode.
    A token is a Token or its surface string; build_index passes surfaces."""

    config: EncoderConfig

    def encode_document(
        self, tokens: Sequence[Token | str], key: str = ""
    ) -> TokenEncodingMatrix: ...

    def encode_question(
        self, tokens: Sequence[Token | str], key: str = ""
    ) -> TokenEncodingMatrix: ...


def _feature_hash(text: str, n_features: int) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8, person=b"ctxfeat").digest()
    return int.from_bytes(digest, "little") % n_features


class ToyEncoder:
    """Deterministic contextual encoder standing in for a heavyweight model.

    Each token is featurized as a hashed bag over a window of two neighbors on
    each side, with relative-position tags, then projected by a seed-derived
    fixed matrix and an optional trainable linear layer (identity at init).
    """

    def __init__(
        self,
        config: EncoderConfig,
        seed: int = 0,
        n_features: int = 256,
        window: int = 2,
    ):
        self.config = config
        self.seed = seed
        self.n_features = n_features
        self.window = window
        rng = np.random.default_rng(seed)
        self.projection = rng.normal(
            0.0, 1.0 / np.sqrt(n_features), size=(config.dim, n_features)
        )
        self.linear = np.eye(config.dim)  # trainable

    def _surfaces(self, tokens: Sequence[Token | str]) -> list[str]:
        return [t.surface if isinstance(t, Token) else t for t in tokens]

    def feature_matrix(self, tokens: Sequence[Token | str]) -> np.ndarray:
        surfaces = [s.lower() for s in self._surfaces(tokens)]
        phi = np.zeros((len(surfaces), self.n_features), dtype=np.float64)
        for t in range(len(surfaces)):
            for off in range(-self.window, self.window + 1):
                u = t + off
                if 0 <= u < len(surfaces):
                    idx = _feature_hash(f"{off}|{surfaces[u]}", self.n_features)
                    phi[t, idx] += 1.0
        return phi

    def base_document(self, tokens: Sequence[Token | str]) -> np.ndarray:
        """Pre-trainable-layer encodings (used by training for gradients)."""
        return self.feature_matrix(tokens) @ self.projection.T

    def base_question(self, tokens: Sequence[Token | str]) -> np.ndarray:
        return self.base_document([QUERY_MARKER, *self._surfaces(tokens)])

    def encode_document(self, tokens: Sequence[Token | str], key: str = "") -> TokenEncodingMatrix:
        return TokenEncodingMatrix(self.base_document(tokens) @ self.linear.T, self.config)

    def encode_question(self, tokens: Sequence[Token | str], key: str = "") -> TokenEncodingMatrix:
        return TokenEncodingMatrix(self.base_question(tokens) @ self.linear.T, self.config)


# ---------------------------------------------------------------------------
# Precomputed-embedding import path
# ---------------------------------------------------------------------------

EMBED_MAGIC = b"PEMB"
EMBED_VERSION = 1


def write_embedding_file(path: str | Path, records: dict[str, np.ndarray], dim: int) -> None:
    """Write keyed per-token float32 matrices: header, then row-major records."""
    with open(path, "wb") as fh:
        fh.write(EMBED_MAGIC)
        fh.write(struct.pack("<II", EMBED_VERSION, dim))
        fh.write(struct.pack("<I", len(records)))
        for key in sorted(records):
            matrix = np.asarray(records[key], dtype=np.float32)
            if matrix.ndim != 2 or matrix.shape[1] != dim:
                raise ValueError(f"record {key!r} is not a T x {dim} matrix")
            encoded = key.encode("utf-8")
            fh.write(struct.pack("<HI", len(encoded), matrix.shape[0]))
            fh.write(encoded)
            fh.write(matrix.tobytes(order="C"))


def read_embedding_file(path: str | Path) -> tuple[int, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if fh.read(4) != EMBED_MAGIC:
            raise ValueError("not an embedding file (bad magic)")
        version, dim = struct.unpack("<II", fh.read(8))
        if version != EMBED_VERSION:
            raise ValueError(f"unsupported embedding file version {version}")
        (n_records,) = struct.unpack("<I", fh.read(4))
        records: dict[str, np.ndarray] = {}
        for _ in range(n_records):
            key_len, n_rows = struct.unpack("<HI", fh.read(6))
            key = fh.read(key_len).decode("utf-8")
            raw = fh.read(n_rows * dim * 4)
            records[key] = (
                np.frombuffer(raw, dtype="<f4").reshape(n_rows, dim).astype(np.float64)
            )
    return dim, records


class PrecomputedEncoder:
    """Encoder that serves externally produced per-token vectors from a file.

    Documents are keyed "doc_id/para_idx"; questions by a caller-chosen key.
    Question records carry the marker row at position 0 (a single-row record
    is legal when only the marker is needed).
    """

    def __init__(self, path: str | Path, config: EncoderConfig):
        dim, records = read_embedding_file(path)
        if dim != config.dim:
            raise ValueError(f"embedding width {dim} != configured {config.dim}")
        self.config = config
        self.records = records

    def _lookup(self, key: str) -> np.ndarray:
        try:
            return self.records[key]
        except KeyError:
            raise KeyError(f"no precomputed embedding for key {key!r}") from None

    def encode_document(self, tokens: Sequence[Token | str], key: str = "") -> TokenEncodingMatrix:
        rows = self._lookup(key)
        if rows.shape[0] != len(tokens):
            raise ValueError(
                f"record {key!r} has {rows.shape[0]} rows for {len(tokens)} tokens"
            )
        return TokenEncodingMatrix(rows, self.config)

    def encode_question(self, tokens: Sequence[Token | str], key: str = "") -> TokenEncodingMatrix:
        return TokenEncodingMatrix(self._lookup(key), self.config)
