"""Build, persist, and load the compressed on-disk phrase index.

Directory layout: manifest.json plus binary sections (starts.bin, ends.bin,
phrases.bin, coherency.bin, quant.bin, sparse_docs.bin, postings.bin,
filter.bin, encoder.bin, optional ivf.bin) and corpus.jsonl. Every binary
section is little-endian and begins with a magic + tag + version header; the
manifest records a checksum for each file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .corpus import CorpusStore, SpanRef, load_corpus
from .dense import Encoder, EncoderConfig, ToyEncoder
from .sparse import (
    InvertedIndex,
    SparseVector,
    TfIdfModel,
    build_inverted_index,
    combine_doc_para,
)
from .training import FilterModel

FORMAT_VERSION = 1
MAGIC = b"PIDX"
_HEADER_LEN = 12  # magic(4) + tag(4) + version(4)

PARA_DTYPE = np.dtype(
    [("doc", "<u4"), ("para", "<u4"), ("rec_begin", "<u8"), ("n_recs", "<u4"), ("n_tokens", "<u4")]
)
REC_DTYPE = np.dtype(
    [("doc", "<u4"), ("para", "<u4"), ("tok", "<u4"), ("ends_begin", "<u8"), ("n_ends", "<u4")]
)
END_DTYPE = np.dtype([("tok", "<u4"), ("row", "<u4")])


# ---------------------------------------------------------------------------
# Scalar quantization
# ---------------------------------------------------------------------------


@dataclass
class QuantizationParams:
    """Per-dimension affine map between float vectors and signed 8-bit codes."""

    minimums: np.ndarray  # float64 (d,)
    scales: np.ndarray  # float64 (d,), strictly positive

    @property
    def dim(self) -> int:
        return self.minimums.shape[0]


def fit_quantization(sample: np.ndarray) -> QuantizationParams:
    """Fit per-dimension min/scale on a sample so its range maps onto 256 levels."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2 or sample.shape[0] == 0:
        raise ValueError("quantization sample must be a non-empty 2-D array")
    mins = sample.min(axis=0)
    spread = sample.max(axis=0) - mins
    scales = np.where(spread > 0.0, spread / 255.0, 1.0)
    return QuantizationParams(minimums=mins, scales=scales)


def quantize(vectors: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """Round-half-to-even onto the 256-level grid, clamping out-of-range values."""
    t = (np.asarray(vectors, dtype=np.float64) - params.minimums) / params.scales
    codes = np.rint(t) - 128.0
    return np.clip(codes, -128, 127).astype(np.int8)


def dequantize(codes: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """minimums + (codes + 128) * scales, computed in one float64 buffer."""
    out = codes.astype(np.float64)
    out += 128.0
    out *= params.scales
    out += params.minimums
    return out


# ---------------------------------------------------------------------------
# Filter application and size arithmetic
# ---------------------------------------------------------------------------


def apply_filter(H, filter_model: FilterModel) -> tuple[np.ndarray, np.ndarray]:
    """Token survival masks (start, end): logistic score >= threshold survives."""
    start_mask = filter_model.start_scores(H.start_cols) >= filter_model.threshold
    end_mask = filter_model.end_scores(H.end_cols) >= filter_model.threshold
    return start_mask, end_mask


@dataclass
class IndexSizeEstimate:
    """Stage-by-stage byte estimate of the compression chain."""

    naive_bytes: float
    pointer_bytes: float
    filtered_bytes: float
    quantized_bytes: float
    phrase_table_bytes: float  # per-phrase pointer overhead, reported separately


def estimate_index_size(
    n_phrases: float,
    n_tokens: float,
    boundary_dim: int,
    survival_rate: float,
    bytes_per_value: int = 4,
) -> IndexSizeEstimate:
    """Naive -> pointer-dedup -> filtered -> 8-bit-quantized storage estimate."""
    if min(n_phrases, n_tokens, boundary_dim, survival_rate, bytes_per_value) <= 0:
        raise ValueError("all size-estimate arguments must be positive")
    naive = n_phrases * (2 * boundary_dim + 1) * bytes_per_value
    pointer = 2 * n_tokens * boundary_dim * bytes_per_value
    filtered = pointer * survival_rate
    quantized = filtered / 4.0
    phrase_table = n_phrases * (2 * 4 + 4)  # two 4-byte pointers + float32 coherency
    return IndexSizeEstimate(naive, pointer, filtered, quantized, phrase_table)


# ---------------------------------------------------------------------------
# Section IO helpers
# ---------------------------------------------------------------------------


def _write_header(fh, tag: bytes) -> None:
    fh.write(MAGIC + tag + struct.pack("<I", FORMAT_VERSION))


def _check_header(fh, tag: bytes, name: str) -> None:
    head = fh.read(_HEADER_LEN)
    if len(head) < _HEADER_LEN or head[:4] != MAGIC or head[4:8] != tag:
        raise ValueError(f"section {name}: bad magic or tag")
    (version,) = struct.unpack("<I", head[8:])
    if version != FORMAT_VERSION:
        raise ValueError(f"section {name}: version mismatch ({version})")


def _write_sized(fh, arr: np.ndarray) -> None:
    raw = np.ascontiguousarray(arr).tobytes()
    fh.write(struct.pack("<Q", len(raw)))
    fh.write(raw)


def _read_sized(fh, dtype) -> np.ndarray:
    (nbytes,) = struct.unpack("<Q", fh.read(8))
    return np.frombuffer(fh.read(nbytes), dtype=dtype)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_sparse_list(fh, vectors: list[SparseVector]) -> None:
    offsets = np.zeros(len(vectors) + 1, dtype="<u8")
    for i, v in enumerate(vectors):
        offsets[i + 1] = offsets[i] + v.bins.size
    bins = np.concatenate([v.bins for v in vectors]) if vectors else np.empty(0, np.int64)
    weights = (
        np.concatenate([v.weights for v in vectors]) if vectors else np.empty(0, np.float64)
    )
    fh.write(struct.pack("<Q", len(vectors)))
    _write_sized(fh, offsets)
    _write_sized(fh, bins.astype("<u4"))
    _write_sized(fh, weights.astype("<f4"))


def _read_sparse_csr(fh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A written sparse-vector list as CSR arrays (offsets, bins, weights):
    vector i holds entries offsets[i]:offsets[i + 1]."""
    fh.read(8)  # vector count, implied by the offsets
    offsets = _read_sized(fh, "<u8").astype(np.int64)
    bins = _read_sized(fh, "<u4").astype(np.int64)
    weights = _read_sized(fh, "<f4").astype(np.float64)
    return offsets, bins, weights


# ---------------------------------------------------------------------------
# Reservoir sampling for quantization fitting
# ---------------------------------------------------------------------------


class _Reservoir:
    def __init__(self, capacity: int, dim: int, rng: np.random.Generator):
        self.capacity = capacity
        self.buffer = np.empty((capacity, dim), dtype=np.float64)
        self.rng = rng
        self.seen = 0
        self.size = 0

    def add(self, rows: np.ndarray) -> None:
        for row in rows:
            self.seen += 1
            if self.size < self.capacity:
                self.buffer[self.size] = row
                self.size += 1
            else:
                k = int(self.rng.integers(self.seen))
                if k < self.capacity:
                    self.buffer[k] = row

    def sample(self) -> np.ndarray:
        return self.buffer[: self.size]


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


@dataclass
class BuildConfig:
    max_span: int = 20
    seed: int = 0
    quant_sample_size: int = 100_000
    ivf_clusters: int = 1 << 20  # capped at the number of stored start rows
    build_ivf: bool = True


def _encoder_section_bytes(encoder: Encoder) -> bytes:
    cfg = encoder.config
    out = bytearray()
    if isinstance(encoder, ToyEncoder):
        out += struct.pack("<IIII", 0, cfg.dim, cfg.boundary_dim, cfg.coherency_dim)
        out += struct.pack("<QII", encoder.seed, encoder.n_features, encoder.window)
        out += np.ascontiguousarray(encoder.linear, dtype="<f8").tobytes()
    else:
        out += struct.pack("<IIII", 1, cfg.dim, cfg.boundary_dim, cfg.coherency_dim)
    return bytes(out)


def _load_encoder_section(path: Path) -> tuple[EncoderConfig, ToyEncoder | None]:
    with open(path, "rb") as fh:
        _check_header(fh, b"ENCD", "encoder.bin")
        kind, dim, bdim, cdim = struct.unpack("<IIII", fh.read(16))
        config = EncoderConfig(dim=dim, boundary_dim=bdim, coherency_dim=cdim)
        if kind == 1:
            return config, None
        seed, n_features, window = struct.unpack("<QII", fh.read(16))
        linear = np.frombuffer(fh.read(dim * dim * 8), dtype="<f8").reshape(dim, dim)
        encoder = ToyEncoder(config, seed=seed, n_features=n_features, window=window)
        encoder.linear = linear.copy()
        return config, encoder


def build_index(
    corpus: CorpusStore,
    encoder: Encoder,
    tfidf: TfIdfModel,
    filter_model: FilterModel | None,
    out_dir: str | Path,
    config: BuildConfig | None = None,
) -> Path:
    """Stream the corpus twice (survival pass, then write pass) into a new
    index directory. The build is atomic: everything lands in a temp dir that
    is renamed at the end, so a partial build is never visible.
    """
    config = config or BuildConfig()
    out_dir = Path(out_dir)
    if out_dir.exists():
        raise FileExistsError(f"index directory {out_dir} already exists")
    cfg = encoder.config
    if filter_model is None:
        filter_model = FilterModel.keep_all(cfg.boundary_dim)
    if filter_model.start_weights.shape[0] != cfg.boundary_dim:
        raise ValueError("filter width does not match encoder boundary width")

    def encode(doc, pidx, para):
        H = encoder.encode_document(para.tokens, key=f"{doc.id}/{pidx}")
        if H.n_tokens != para.n_tokens:
            raise ValueError(f"encoder returned {H.n_tokens} rows for {para.n_tokens} tokens")
        return H

    # Pass A: survival masks, phrase counts, quantization reservoirs.
    rng = np.random.default_rng(config.seed)
    start_res = _Reservoir(config.quant_sample_size, cfg.boundary_dim, rng)
    end_res = _Reservoir(config.quant_sample_size, cfg.boundary_dim, rng)
    n_tokens = n_paras = n_phrases = n_start_surv = n_end_surv = 0
    for _, doc, pidx, para in corpus.iter_paragraphs():
        H = encode(doc, pidx, para)
        smask, emask = apply_filter(H, filter_model)
        n_paras += 1
        n_tokens += para.n_tokens
        n_start_surv += int(smask.sum())
        n_end_surv += int(emask.sum())
        start_res.add(H.start_cols[smask])
        end_res.add(H.end_cols[emask])
        end_cum = np.concatenate([[0], np.cumsum(emask)])
        for i in np.flatnonzero(smask):
            hi = min(i + config.max_span, para.n_tokens)
            n_phrases += int(end_cum[hi] - end_cum[i])
    if n_phrases == 0:
        raise ValueError("empty index: filter discarded every candidate phrase")

    start_quant = fit_quantization(start_res.sample())
    end_quant = fit_quantization(end_res.sample())

    # Pass B: quantize and accumulate all sections.
    start_codes: list[np.ndarray] = []
    end_codes: list[np.ndarray] = []
    para_rows: list[tuple] = []
    records: list[tuple] = []
    end_entries: list[tuple[int, int]] = []
    coherency: list[float] = []
    para_vectors: list[SparseVector] = []
    doc_vectors = [tfidf.embed(doc) for doc in corpus]
    n_end_rows = 0
    for ord_, doc, pidx, para in corpus.iter_paragraphs():
        H = encode(doc, pidx, para)
        smask, emask = apply_filter(H, filter_model)
        end_row_of = {}
        for t in np.flatnonzero(emask):
            end_row_of[int(t)] = n_end_rows
            n_end_rows += 1
        if emask.any():
            end_codes.append(quantize(H.end_cols[emask], end_quant))
        rec_begin = len(records)
        surv_starts = np.flatnonzero(smask)
        if surv_starts.size:
            start_codes.append(quantize(H.start_cols[surv_starts], start_quant))
        coh = H.coh_head_cols @ H.coh_tail_cols.T
        for i in surv_starts:
            ends_begin = len(end_entries)
            for j in range(int(i), min(int(i) + config.max_span, para.n_tokens)):
                if emask[j]:
                    end_entries.append((j, end_row_of[j]))
                    coherency.append(float(coh[i, j]))
            records.append((ord_, pidx, int(i), ends_begin, len(end_entries) - ends_begin))
        para_rows.append((ord_, pidx, rec_begin, len(records) - rec_begin, para.n_tokens))
        para_vectors.append(combine_doc_para(doc_vectors[ord_], tfidf.embed(para)))

    n_start_rows = sum(c.shape[0] for c in start_codes)
    tmp = out_dir.parent / f"{out_dir.name}.tmp"
    if tmp.exists():
        raise FileExistsError(f"stale temp directory {tmp}")
    tmp.mkdir(parents=True)

    with open(tmp / "starts.bin", "wb") as fh:
        _write_header(fh, b"STRT")
        fh.write(struct.pack("<QI", n_start_rows, cfg.boundary_dim))
        for block in start_codes:
            fh.write(block.tobytes())
    with open(tmp / "ends.bin", "wb") as fh:
        _write_header(fh, b"ENDS")
        fh.write(struct.pack("<QI", n_end_rows, cfg.boundary_dim))
        for block in end_codes:
            fh.write(block.tobytes())
    with open(tmp / "quant.bin", "wb") as fh:
        _write_header(fh, b"QNTZ")
        fh.write(struct.pack("<I", cfg.boundary_dim))
        for arr in (start_quant.minimums, start_quant.scales, end_quant.minimums, end_quant.scales):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(tmp / "coherency.bin", "wb") as fh:
        _write_header(fh, b"COHR")
        fh.write(struct.pack("<Q", len(coherency)))
        fh.write(np.asarray(coherency, dtype="<f4").tobytes())
    with open(tmp / "phrases.bin", "wb") as fh:
        _write_header(fh, b"PHRS")
        fh.write(struct.pack("<QQQ", len(para_rows), len(records), len(end_entries)))
        fh.write(np.array(para_rows, dtype=PARA_DTYPE).tobytes())
        fh.write(np.array(records, dtype=REC_DTYPE).tobytes())
        fh.write(np.array(end_entries, dtype=END_DTYPE).tobytes())
    with open(tmp / "sparse_docs.bin", "wb") as fh:
        _write_header(fh, b"SPRS")
        df_bins = np.array(sorted(tfidf.doc_freq), dtype="<u4")
        df_counts = np.array([tfidf.doc_freq[int(b)] for b in df_bins], dtype="<u4")
        fh.write(struct.pack("<Q", tfidf.doc_count))
        _write_sized(fh, df_bins)
        _write_sized(fh, df_counts)
        _write_sparse_list(fh, doc_vectors)
        _write_sparse_list(fh, para_vectors)
    with open(tmp / "postings.bin", "wb") as fh:
        _write_header(fh, b"PSTG")
        inv = build_inverted_index(doc_vectors)
        bins = np.array(sorted(inv.postings), dtype="<u4")
        offsets = np.zeros(bins.size + 1, dtype="<u8")
        deltas: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for k, b in enumerate(bins):
            docs, ws = inv.postings[int(b)]
            offsets[k + 1] = offsets[k] + docs.size
            deltas.append(np.diff(docs, prepend=0).astype("<u4"))
            weights.append(ws.astype("<f4"))
        fh.write(struct.pack("<Q", bins.size))
        _write_sized(fh, bins)
        _write_sized(fh, offsets)
        _write_sized(fh, np.concatenate(deltas) if deltas else np.empty(0, "<u4"))
        _write_sized(fh, np.concatenate(weights) if weights else np.empty(0, "<f4"))
    with open(tmp / "filter.bin", "wb") as fh:
        _write_header(fh, b"FLTR")
        fh.write(struct.pack("<Id", cfg.boundary_dim, filter_model.threshold))
        fh.write(np.ascontiguousarray(filter_model.start_weights, dtype="<f8").tobytes())
        fh.write(struct.pack("<d", filter_model.start_bias))
        fh.write(np.ascontiguousarray(filter_model.end_weights, dtype="<f8").tobytes())
        fh.write(struct.pack("<d", filter_model.end_bias))
    with open(tmp / "encoder.bin", "wb") as fh:
        _write_header(fh, b"ENCD")
        fh.write(_encoder_section_bytes(encoder))
    ivf_written = False
    if config.build_ivf and n_start_rows > 0:
        from .search import kmeans_train  # deferred: search depends on this module

        all_codes = np.concatenate(start_codes) if start_codes else np.empty((0, cfg.boundary_dim), np.int8)
        rows = dequantize(all_codes, start_quant)
        n_clusters = min(config.ivf_clusters, n_start_rows)
        ivf = kmeans_train(rows, n_clusters, seed=config.seed)
        with open(tmp / "ivf.bin", "wb") as fh:
            _write_header(fh, b"IVFC")
            fh.write(struct.pack("<II", ivf.centroids.shape[0], cfg.boundary_dim))
            fh.write(np.ascontiguousarray(ivf.centroids, dtype="<f4").tobytes())
            offsets = np.zeros(len(ivf.lists) + 1, dtype="<u8")
            for k, lst in enumerate(ivf.lists):
                offsets[k + 1] = offsets[k] + lst.size
            _write_sized(fh, offsets)
            _write_sized(
                fh,
                np.concatenate(ivf.lists).astype("<u4") if ivf.lists else np.empty(0, "<u4"),
            )
        ivf_written = True
    (tmp / "corpus.jsonl").write_text(corpus.to_jsonl(), encoding="utf-8")

    sections = sorted(p.name for p in tmp.iterdir())
    manifest = {
        "format_version": FORMAT_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "encoder": {
            "kind": "toy" if isinstance(encoder, ToyEncoder) else "precomputed",
            "dim": cfg.dim,
            "boundary_dim": cfg.boundary_dim,
            "coherency_dim": cfg.coherency_dim,
        },
        "max_span": config.max_span,
        "seed": config.seed,
        "sparse_model_digest": tfidf.digest(),
        "counts": {
            "docs": corpus.n_docs,
            "paragraphs": n_paras,
            "tokens": n_tokens,
            "surviving_start_tokens": n_start_surv,
            "surviving_end_tokens": n_end_surv,
            "start_rows": n_start_rows,
            "end_rows": n_end_rows,
            "phrases": n_phrases,
        },
        "has_ivf": ivf_written,
        "sections": {
            name: {"bytes": (tmp / name).stat().st_size, "sha256": _sha256(tmp / name)}
            for name in sections
        },
    }
    (tmp / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.rename(tmp, out_dir)
    return out_dir


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


class PhraseIndex:
    """Read-only handle over a built index directory.

    Large vector sections stay on disk as memory maps and are dequantized per
    accessed row range; small sections are parsed once at load. Any number of
    concurrent readers may share a directory; each handle is independent.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        manifest_path = self.path / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no manifest.json under {self.path}")
        self.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if self.manifest.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"index format version mismatch: {self.manifest.get('format_version')}"
            )
        for name, meta in sorted(self.manifest["sections"].items()):
            fpath = self.path / name
            if not fpath.exists():
                raise ValueError(f"section {name}: missing file")
            if fpath.stat().st_size != meta["bytes"] or _sha256(fpath) != meta["sha256"]:
                raise ValueError(f"section {name}: checksum mismatch")

        counts = self.manifest["counts"]
        self.max_span: int = self.manifest["max_span"]
        self.config, self.encoder = _load_encoder_section(self.path / "encoder.bin")
        self.corpus = load_corpus(self.path / "corpus.jsonl")

        self.start_codes = self._map_code_matrix("starts.bin", b"STRT")
        self.end_codes = self._map_code_matrix("ends.bin", b"ENDS")
        with open(self.path / "quant.bin", "rb") as fh:
            _check_header(fh, b"QNTZ", "quant.bin")
            (dim,) = struct.unpack("<I", fh.read(4))
            arrs = [np.frombuffer(fh.read(dim * 8), dtype="<f8").astype(np.float64) for _ in range(4)]
        self.start_quant = QuantizationParams(arrs[0], arrs[1])
        self.end_quant = QuantizationParams(arrs[2], arrs[3])

        with open(self.path / "phrases.bin", "rb") as fh:
            _check_header(fh, b"PHRS", "phrases.bin")
            n_para, n_recs, n_ends = struct.unpack("<QQQ", fh.read(24))
            base = fh.tell()
        self.para_table = np.memmap(
            self.path / "phrases.bin", dtype=PARA_DTYPE, mode="r", offset=base, shape=(n_para,)
        )
        rec_off = base + n_para * PARA_DTYPE.itemsize
        self.start_records = np.memmap(
            self.path / "phrases.bin", dtype=REC_DTYPE, mode="r", offset=rec_off, shape=(n_recs,)
        )
        end_off = rec_off + n_recs * REC_DTYPE.itemsize
        self.end_entries = np.memmap(
            self.path / "phrases.bin", dtype=END_DTYPE, mode="r", offset=end_off, shape=(n_ends,)
        )
        with open(self.path / "coherency.bin", "rb") as fh:
            _check_header(fh, b"COHR", "coherency.bin")
            (n_coh,) = struct.unpack("<Q", fh.read(8))
            coh_off = fh.tell()
        self.coherency = np.memmap(
            self.path / "coherency.bin", dtype="<f4", mode="r", offset=coh_off, shape=(n_coh,)
        )

        with open(self.path / "sparse_docs.bin", "rb") as fh:
            _check_header(fh, b"SPRS", "sparse_docs.bin")
            (doc_count,) = struct.unpack("<Q", fh.read(8))
            df_bins = _read_sized(fh, "<u4")
            df_counts = _read_sized(fh, "<u4")
            self.tfidf = TfIdfModel(
                doc_count=doc_count,
                doc_freq={int(b): int(c) for b, c in zip(df_bins, df_counts)},
            )
            offsets, bins, weights = _read_sparse_csr(fh)
            self.doc_vectors = [
                SparseVector(bins[lo:hi], weights[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:])
            ]
            self.para_offsets, self.para_bins, self.para_weights = _read_sparse_csr(fh)

        with open(self.path / "postings.bin", "rb") as fh:
            _check_header(fh, b"PSTG", "postings.bin")
            (n_bins,) = struct.unpack("<Q", fh.read(8))
            bins = _read_sized(fh, "<u4")
            offsets = _read_sized(fh, "<u8")
            deltas = _read_sized(fh, "<u4")
            weights = _read_sized(fh, "<f4")
        postings = {}
        for k in range(n_bins):
            lo, hi = int(offsets[k]), int(offsets[k + 1])
            docs = np.cumsum(deltas[lo:hi]).astype(np.int64)
            postings[int(bins[k])] = (docs, weights[lo:hi].astype(np.float64))
        self.postings = InvertedIndex(n_docs=counts["docs"], postings=postings)

        with open(self.path / "filter.bin", "rb") as fh:
            _check_header(fh, b"FLTR", "filter.bin")
            dim, threshold = struct.unpack("<Id", fh.read(12))
            sw = np.frombuffer(fh.read(dim * 8), dtype="<f8").astype(np.float64)
            (sb,) = struct.unpack("<d", fh.read(8))
            ew = np.frombuffer(fh.read(dim * 8), dtype="<f8").astype(np.float64)
            (eb,) = struct.unpack("<d", fh.read(8))
        self.filter_model = FilterModel(sw, sb, ew, eb, threshold)

        self.ivf = None
        if self.manifest.get("has_ivf"):
            from .search import IvfIndex

            with open(self.path / "ivf.bin", "rb") as fh:
                _check_header(fh, b"IVFC", "ivf.bin")
                n_clusters, dim = struct.unpack("<II", fh.read(8))
                centroids = (
                    np.frombuffer(fh.read(n_clusters * dim * 4), dtype="<f4")
                    .reshape(n_clusters, dim)
                    .astype(np.float64)
                )
                offsets = _read_sized(fh, "<u8")
                rows = _read_sized(fh, "<u4").astype(np.int64)
            lists = [
                rows[int(offsets[k]) : int(offsets[k + 1])] for k in range(n_clusters)
            ]
            self.ivf = IvfIndex(centroids=centroids, lists=lists)

        # Paragraph lookup: (doc ordinal, para idx) -> para_table row.
        self._para_row = {
            (int(r["doc"]), int(r["para"])): k for k, r in enumerate(self.para_table)
        }
        # Per-record lookups for search. Records are stored in (doc, para, tok)
        # order, so document d owns records [doc_rec_begin[d], doc_rec_begin[d + 1]).
        self.rec_para = np.repeat(np.arange(n_para), self.para_table["n_recs"].astype(np.int64))
        self.rec_ends_begin = self.start_records["ends_begin"].astype(np.int64)
        self.rec_n_ends = self.start_records["n_ends"].astype(np.int64)
        # A record's ends sit at consecutive end rows, from rec_end_row[r] on.
        # A record without ends takes the value before it, which keeps the
        # array nondecreasing.
        has_ends = self.rec_n_ends > 0
        first_end_row = np.zeros(n_recs, dtype=np.int64)
        first_end_row[has_ends] = self.end_entries["row"][self.rec_ends_begin[has_ends]]
        self.rec_end_row = np.maximum.accumulate(first_end_row)
        self.doc_rec_begin = np.searchsorted(self.start_records["doc"], np.arange(counts["docs"] + 1))

    def _map_code_matrix(self, name: str, tag: bytes) -> np.memmap:
        with open(self.path / name, "rb") as fh:
            _check_header(fh, tag, name)
            n_rows, dim = struct.unpack("<QI", fh.read(12))
            offset = fh.tell()
        return np.memmap(
            self.path / name, dtype=np.int8, mode="r", offset=offset, shape=(n_rows, dim)
        )

    # -- accessors ----------------------------------------------------------

    @property
    def counts(self) -> dict:
        return self.manifest["counts"]

    @property
    def n_docs(self) -> int:
        return self.counts["docs"]

    @property
    def n_start_rows(self) -> int:
        return self.start_codes.shape[0]

    @property
    def n_end_rows(self) -> int:
        return self.end_codes.shape[0]

    @property
    def n_phrases(self) -> int:
        return self.counts["phrases"]

    def dequant_start_rows(self, rows: np.ndarray | slice) -> np.ndarray:
        return dequantize(np.asarray(self.start_codes[rows]), self.start_quant)

    def dequant_end_rows(self, rows: np.ndarray | slice) -> np.ndarray:
        return dequantize(np.asarray(self.end_codes[rows]), self.end_quant)

    def doc_id(self, ordinal: int) -> str:
        return self.corpus.doc_by_ordinal(ordinal).id

    def doc_title(self, ordinal: int) -> str:
        return self.corpus.doc_by_ordinal(ordinal).title

    def para_row(self, doc_ordinal: int, para_idx: int) -> int:
        return self._para_row[(doc_ordinal, para_idx)]

    def para_vector(self, para_row: int) -> SparseVector:
        """Combined document + paragraph sparse vector for a para_table row,
        as views into the CSR arrays para_offsets/para_bins/para_weights."""
        lo, hi = self.para_offsets[para_row], self.para_offsets[para_row + 1]
        return SparseVector(self.para_bins[lo:hi], self.para_weights[lo:hi])

    def span_text(self, ref: SpanRef) -> str:
        return self.corpus.span_text(ref)


def load_index(path: str | Path) -> PhraseIndex:
    """Open an index directory after validating manifest and section checksums."""
    return PhraseIndex(path)
