"""Build, persist, and load the compressed on-disk phrase index.

Directory layout: manifest.json plus the SECTIONS: binary sections
(starts.bin, ends.bin, phrases.bin, coherency.bin, quant.bin,
sparse_docs.bin, postings.bin, encoder.bin, ivf.bin) and corpus.jsonl.
Every binary section is little-endian and begins with a magic + tag +
version header; the manifest records a checksum for each file, lists exactly
these sections, and gives counts that open checks against them. Each shape
is stored once: encoder.bin's header gives every width (boundary_dim,
coherency_dim), and the sums of phrases.bin's survival masks give the start
and end row counts. No other section stores a width or a row count, and open
reads each one at exactly the shape these give, so a section of any other
size is refused by name.

Every list of ids is stored with one codec pair. A narrow array is its byte
count as a u64, its width as one byte in {1, 2, 4, 8}, then the values as
little-endian unsigned integers of the least width that holds the largest.
A list set is the list lengths as a narrow array, then every list's
ascending values as narrow d-gaps: each list's first value as is, every
later one less the value before it. Open refuses an id list that does not
ascend strictly below its limit: NGRAM_BINS, or the count of what it names.
Float arrays are stored raw, their counts given by what precedes them.

phrases.bin holds, after its header, each paragraph's document ordinal and
its token count as two narrow arrays, then the start and the end survival
masks, each as np.packbits of one bit per token over the whole corpus in
token order. Nothing per start or per phrase is stored: _phrase_records
derives the start records from these, at build and at open, where
PhraseIndex also derives the rest of the paragraph table (PARA_DTYPE).

starts.bin and ends.bin hold, after their headers, the int8 codes of the
start and end rows, boundary_dim per row, and quant.bin the float64 minimums
and scales of the start side, then of the end side, boundary_dim each.

coherency.bin holds, after its header, the least and greatest phrase
coherency as two f32, then two float32 matrices: one coherency-head row per
start row, aligned with starts.bin, and one coherency-tail row per end row,
aligned with ends.bin. A phrase's coherency is search.phrase_coherency of
its start's head and its end's tail, computed when it is scored. The two
matrices cost 4 * coherency_dim bytes per stored row against 4 bytes per
phrase for a stored scalar, so they are smaller when there are more than
2 * coherency_dim phrases per token: at keep-all, about max_span of them.

postings.bin holds, after its header, the document postings: the posting
bins as a list set of one list, each bin's document ordinals as a list set,
each posting's term count (tf, at least 1) as a narrow array, then the
float64 norm of each document vector's tf * idf before normalization, one
per document with postings, in document order. No weight is stored: a bin's
df is the length of its posting list, and open derives every weight as
float32 of sparse.tfidf_weights(tf, idf(df), norm), which is the float32 of
the weight TfIdfModel.embed gives, bit for bit. sparse_docs.bin holds only
what postings.bin cannot give. After its header: the bins whose idf is 0,
which have no postings, as a list set of one list, and their dfs as a narrow
array; a float32 1 / ||doc + para|| per paragraph (0 for an empty sum); and
the postings of the paragraphs' own tf-idf vectors in postings.bin's
layout, with paragraph ordinals in place of document ordinals and each bin
named by its rank in postings.bin's bins: a paragraph's bins are bins of its
document, and they take the document's df. A document's only paragraph has
no postings: its paragraph vector is its document vector. The document
vectors are the transpose of postings.bin, and every other bin's df is the
length of its posting list, so the tf-idf model is derived at open. A
paragraph's combined vector is (doc + para) * inv_norm.

ivf.bin holds, after its header, the cell count as a u32, the float32
centroids, boundary_dim each, then each cell's ascending start rows as a
list set.
"""

from __future__ import annotations

import fcntl
import glob
import hashlib
import json
import math
import numbers
import os
import shutil
import struct
import tempfile
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .corpus import CorpusStore, SpanRef, load_corpus
from .dense import Encoder, EncoderConfig, ToyEncoder
from .search import IvfIndex, _ranges, phrase_coherency
from .sparse import (
    NGRAM_BINS,
    SparseRows,
    TfIdfModel,
    add_vectors,
    fit_tfidf,
    idf_of_dfs,
    posting_lists,
    posting_order,
    summed_counts,
    token_counts,
)
from .training import FilterModel

FORMAT_VERSION = 8
MAGIC = b"PIDX"
_HEADER_LEN = 12  # magic(4) + tag(4) + version(4)
_WIDTHS = (1, 2, 4, 8)  # the byte widths of a narrow array

SECTIONS = frozenset({
    "starts.bin", "ends.bin", "phrases.bin", "coherency.bin", "quant.bin", "sparse_docs.bin",
    "postings.bin", "encoder.bin", "ivf.bin", "corpus.jsonl",
})

PARA_DTYPE = np.dtype(
    [("doc", "<u4"), ("para", "<u4"), ("rec_begin", "<u8"), ("n_recs", "<u4"), ("n_tokens", "<u4")]
)


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
    # A naive phrase table: two 4-byte pointers and a float32 coherency per
    # phrase. The index stores none of it; it derives the phrases from the
    # survival masks and stores a float32 coherency head per start row and a
    # tail per end row, 4 * coherency_dim bytes each.
    phrase_table = n_phrases * (2 * 4 + 4)
    return IndexSizeEstimate(naive, pointer, filtered, quantized, phrase_table)


# ---------------------------------------------------------------------------
# Section IO helpers
# ---------------------------------------------------------------------------


def _write_header(fh, tag: bytes) -> None:
    fh.write(MAGIC + tag + struct.pack("<I", FORMAT_VERSION))


def _write_narrow(fh, values: np.ndarray) -> None:
    """values as a narrow array, at the least width that holds the largest."""
    top = int(np.max(values, initial=0))
    width = next(w for w in _WIDTHS if top >> 8 * w == 0)
    raw = np.asarray(values).astype(f"<u{width}").tobytes()
    fh.write(struct.pack("<QB", len(raw), width) + raw)


def _write_lists(fh, offsets: np.ndarray, values: np.ndarray) -> None:
    """The CSR pair of ascending lists, list i being values[offsets[i]:
    offsets[i + 1]], as a list set: the lengths, then the d-gaps."""
    lengths = np.diff(offsets)
    heads = offsets[:-1][lengths > 0]
    gaps = values.copy()
    gaps[1:] -= values[:-1]
    gaps[heads] = values[heads]
    _write_narrow(fh, lengths)
    _write_narrow(fh, gaps)


def _write_postings(fh, rows: SparseRows, doc_bins: np.ndarray | None = None) -> np.ndarray:
    """The postings of rows (posting_order): the bins as a list set of one
    list, or given doc_bins (which hold them) their ranks in doc_bins, each
    bin's ids as a list set, the term counts as a narrow array, then the
    float64 norm of each vector with postings. Returns the bins."""
    bins, offsets, ids, order = posting_order(rows)
    names = bins if doc_bins is None else np.searchsorted(doc_bins, bins)
    _write_lists(fh, np.array([0, names.size]), names)
    _write_lists(fh, offsets, ids)
    _write_narrow(fh, rows.tfs[order])
    fh.write(rows.norms[np.diff(rows.offsets) > 0].astype("<f8").tobytes())
    return bins


class _SectionReader:
    """A section's bytes after its checked header, read front to back. Every
    read checks that the bytes are there, so a section cut short is refused
    by name, and done() refuses bytes past the last read. A limit reads only
    that many bytes past the header."""

    def __init__(self, path: Path, tag: bytes, limit: int = -1):
        self.name, self.at = path.name, _HEADER_LEN
        with open(path, "rb") as fh:
            self.data = fh.read(_HEADER_LEN + limit if limit >= 0 else -1)
        if len(self.data) < _HEADER_LEN or self.data[:8] != MAGIC + tag:
            raise ValueError(f"section {self.name}: bad magic or tag")
        (version,) = struct.unpack("<I", self.data[8:_HEADER_LEN])
        if version != FORMAT_VERSION:
            raise ValueError(f"section {self.name}: version mismatch ({version})")

    def take(self, n: int) -> memoryview:
        if n > len(self.data) - self.at:
            raise ValueError(f"section {self.name}: truncated at byte {self.at}")
        self.at += n
        return memoryview(self.data)[self.at - n : self.at]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype)

    def narrow(self, wide: bool = True) -> np.ndarray:
        """A narrow array, as int64, or else at its stored width."""
        nbytes, width = self.unpack("<QB")
        if width not in _WIDTHS or nbytes % width:
            raise ValueError(f"section {self.name}: {nbytes} bytes of {width}-byte values")
        values = self.array(f"<u{width}", nbytes // width)
        return values.astype(np.int64) if wide else values

    def lists(self, what: str, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """A list set of what, as int64 CSR arrays (offsets, values). Each
        list must ascend strictly and stay in [0, limit): every gap after its
        list's head at least 1, and none negative, which a u8 gap of 2**63 or
        more is as int64."""
        lengths, gaps = self.narrow(), self.narrow()
        offsets = np.append(0, np.cumsum(lengths))
        if offsets[-1] != gaps.size:
            raise ValueError(
                f"section {self.name}: list lengths add up to {offsets[-1]}, not {gaps.size}"
            )
        # One running sum over all gaps, less its value before each list's head.
        values = np.cumsum(gaps)
        full = lengths > 0
        heads = offsets[:-1][full]
        values -= np.repeat(values[heads] - gaps[heads], lengths[full])
        least = np.ones_like(gaps)
        least[heads] = 0
        # Gaps below limit also keep the running sum from overflowing.
        if (gaps < least).any() or (gaps >= limit).any() or values.max(initial=-1) >= limit:
            raise ValueError(
                f"section {self.name}: {what} must ascend strictly within each list "
                f"and stay below {limit}"
            )
        return offsets, values

    def one_list(self, what: str, limit: int) -> np.ndarray:
        """A list set of one list, checked as lists checks it: its values."""
        offsets, values = self.lists(what, limit)
        if offsets.size != 2:
            raise ValueError(f"section {self.name}: {offsets.size - 1} lists of {what}, not 1")
        return values

    def postings(
        self, n: int, what: str, bins_what: str = "bins", n_bins: int = NGRAM_BINS
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Posting lists as _write_postings stores them: the bins (or ranks)
        below n_bins, the offsets and each bin's `what` (document or
        paragraph ordinals) below n, each posting's tf, and each vector's
        norm (0 for a vector without postings). Every tf must be at least 1,
        and every stored norm finite and above 0."""
        bins = self.one_list(bins_what, n_bins)
        offsets, ids = self.lists(what, n)
        if offsets.size != bins.size + 1:
            raise ValueError(f"section {self.name}: the bins need one posting list each")
        tfs = self.narrow(wide=False)
        if tfs.size != ids.size or (tfs < 1).any():
            raise ValueError(
                f"section {self.name}: {tfs.size} term counts for {ids.size} postings, "
                "each at least 1"
            )
        posted = np.zeros(n, dtype=bool)
        posted[ids] = True
        norms = self.array("<f8", int(posted.sum()))
        if not (np.isfinite(norms) & (norms > 0.0)).all():
            raise ValueError(f"section {self.name}: a vector norm is not finite and above 0")
        vector_norms = np.zeros(n)
        vector_norms[posted] = norms
        return bins, offsets, ids, tfs, vector_norms

    def done(self) -> None:
        if self.at != len(self.data):
            raise ValueError(f"section {self.name}: {len(self.data) - self.at} bytes past its end")


def _map_rows(
    path: Path, tag: bytes, dtype, shape: tuple[int, int], head: str = "<"
) -> tuple[tuple, np.memmap]:
    """The fields of a section's header after its version, unpacked by the
    struct format head, and a read-only memory map of the rows after them,
    after checking that the file holds exactly those rows."""
    fields = _SectionReader(path, tag, struct.calcsize(head)).unpack(head)
    offset = _HEADER_LEN + struct.calcsize(head)
    size = path.stat().st_size
    expected = offset + np.dtype(dtype).itemsize * shape[0] * shape[1]
    if size != expected:
        raise ValueError(f"section {path.name}: {size} bytes, expected {expected}")
    return fields, np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Row spills
# ---------------------------------------------------------------------------

# Rows per read of a spill. Reads of 8192 rows raised the peak RSS of a
# 16k-token build by 1.8 MB over reads of 1024.
_SPILL_CHUNK = 1024


class _Spill:
    """Float64 rows appended to an open unnamed temporary file. It keeps the
    least and greatest value of each dimension, which is all that
    fit_quantization reads of the rows, so quantizing them reads them back
    once, a bounded chunk at a time."""

    def __init__(self, file, width: int):
        self.file = file
        self.width = width
        self.rows = 0
        self.lo = np.full(width, np.inf)
        self.hi = np.full(width, -np.inf)

    def append(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        self.file.write(rows.tobytes())
        self.rows += rows.shape[0]
        np.minimum(self.lo, rows.min(axis=0, initial=np.inf), out=self.lo)
        np.maximum(self.hi, rows.max(axis=0, initial=-np.inf), out=self.hi)

    def quantized(self) -> tuple[QuantizationParams, np.ndarray]:
        """Params fitted on every row from the least and greatest values, and
        the rows' codes under them."""
        params = fit_quantization(np.stack([self.lo, self.hi]))
        codes = np.empty((self.rows, self.width), dtype=np.int8)
        self.file.seek(0)
        for first in range(0, self.rows, _SPILL_CHUNK):
            n = min(_SPILL_CHUNK, self.rows - first)
            rows = np.frombuffer(self.file.read(8 * n * self.width), np.float64).reshape(n, -1)
            codes[first : first + n] = quantize(rows, params)
        return params, codes


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


@dataclass
class BuildConfig:
    max_span: int = 20
    seed: int = 0
    ivf_clusters: int | None = None  # None: ceil(4 * sqrt(start rows)); capped at the start rows

    def __post_init__(self) -> None:
        for name in ("max_span", "seed", "ivf_clusters"):
            value = getattr(self, name)
            if name == "ivf_clusters" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


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
    section = _SectionReader(path, b"ENCD")
    kind, dim, bdim, cdim = section.unpack("<IIII")
    config = EncoderConfig(dim=dim, boundary_dim=bdim, coherency_dim=cdim)
    if kind == 1:
        section.done()
        return config, None
    seed, n_features, window = section.unpack("<QII")
    encoder = ToyEncoder(config, seed=seed, n_features=n_features, window=window)
    encoder.linear = section.array("<f8", dim * dim).reshape(dim, dim).astype(np.float64)
    section.done()
    return config, encoder


def _phrase_records(
    start_mask: np.ndarray, end_mask: np.ndarray, para_len: np.ndarray | list[int], max_span: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(token, paragraph, first end row, number of ends) of each start record
    of paragraphs of para_len tokens, from their concatenated survival masks.
    Record r is the r-th surviving start token, at global token g in a
    paragraph of n tokens from global token B: its token is g - B, and its
    end rows are [end_rank[g], end_rank[min(g + max_span, B + n)]), with
    end_rank[g] the count of surviving end tokens before g, which never
    decreases."""
    para_stop = np.cumsum(para_len)
    starts = np.flatnonzero(start_mask)
    para = np.searchsorted(para_stop, starts, side="right")
    end_rank = np.zeros(end_mask.size + 1, dtype=np.int64)
    np.cumsum(end_mask, out=end_rank[1:])
    first = end_rank[starts]
    n_ends = end_rank[np.minimum(starts + max_span, para_stop[para])] - first
    return starts - (para_stop - para_len)[para], para, first, n_ends


def _write_sparse_sections(
    out: Path,
    tfidf: TfIdfModel,
    doc_rows: SparseRows,
    own_rows: SparseRows,
    inv_norms: array,
) -> None:
    """postings.bin from the document vectors' terms, then sparse_docs.bin:
    the model's bins whose idf is 0, ascending, and their dfs, then the
    postings of the paragraph-only vectors, their bins as ranks in
    postings.bin's. The model is fit on the indexed documents, so a bin has
    postings exactly when its idf is above 0, a paragraph's bins are bins of
    its document, and the idf-0 pairs and postings.bin give every df."""
    with open(out / "postings.bin", "wb") as fh:
        _write_header(fh, b"PSTG")
        bins = _write_postings(fh, doc_rows)
    df_bins = np.fromiter(tfidf.doc_freq, np.int64, len(tfidf.doc_freq))
    dfs = np.fromiter(tfidf.doc_freq.values(), np.int64, df_bins.size)
    zero = np.flatnonzero(idf_of_dfs(dfs.tolist(), tfidf.doc_count) == 0.0)
    zero = zero[np.argsort(df_bins[zero])]
    with open(out / "sparse_docs.bin", "wb") as fh:
        _write_header(fh, b"SPRS")
        _write_lists(fh, np.array([0, zero.size]), df_bins[zero])
        _write_narrow(fh, dfs[zero])
        fh.write(np.array(inv_norms, dtype="<f4").tobytes())
        _write_postings(fh, own_rows, bins)


def _fsync_tree(path: Path) -> None:
    """Flush every file directly under path, then the directory entry list."""
    for f in path.iterdir():
        with open(f, "rb") as fh:
            os.fsync(fh.fileno())
    _fsync_dir(path)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def build_index(
    corpus: CorpusStore,
    encoder: Encoder,
    filter_model: FilterModel | None,
    out_dir: str | Path,
    config: BuildConfig | None = None,
) -> Path:
    """Fit the corpus's tf-idf model, encode each paragraph once, then write
    a new index directory.

    The tf-idf model is fit_tfidf(corpus), the model open derives from the
    sparse sections; no other is taken. One pass walks the corpus a document
    at a time. It tokenizes each of the document's paragraphs and takes
    their n-gram counts once, and keeps neither past the document: the
    document vector is embedded from the sum of the counts and each
    paragraph vector from its own, and both are appended to flat buffers
    (SparseRows) as their terms, the bins, their counts and the vector's
    norm, not kept as objects. The pass
    encodes each paragraph, keeps its survival masks, takes the least and
    greatest coherency of its phrases, and appends its surviving start/end
    rows (float64) and their float32 coherency heads and tails to four
    unnamed temporary files beside out_dir, which need no cleanup, keeping
    each side's per-dimension least and greatest row values as it goes.
    Each side's params are fitted on every row from those two, and its
    codes quantized reading its spill once, a bounded chunk at a time. The
    IVF is always built: k-means works from the start codes, and ivf.bin
    stores the cells kmeans_train returns as a list set. So no float
    array of every row and no object per token is held, and what a written
    section needed is dropped before k-means.
    phrases.bin stores each paragraph's document and token count and the two
    masks, bit-packed; the rest of the paragraph table and the phrases
    themselves are derived at open.
    The build is atomic: everything lands in a fresh temp directory beside
    out_dir, named <out_name>.*.tmp, which is fsynced and renamed at the end
    and removed if the build fails, so a partial build is never visible and
    never blocks the next one. The build holds an exclusive flock on the
    temp directory's own fd for its whole life, and first removes every
    <out_name>.*.tmp beside out_dir whose lock it can take without blocking:
    a build killed outright leaves its directory, but not its lock.
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

    out_dir.parent.mkdir(parents=True, exist_ok=True)
    _reclaim_dead_builds(out_dir)
    with ExitStack() as held:
        tmp = _locked_temp_dir(out_dir, held)
        try:
            _build(corpus, encoder, filter_model, tmp, config, held)
            _fsync_tree(tmp)
            os.rename(tmp, out_dir)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
    _fsync_dir(out_dir.parent)
    return out_dir


def _reclaim_dead_builds(out_dir: Path) -> None:
    """Remove each directory <out_name>.*.tmp beside out_dir whose flock can
    be taken without blocking: the build that made it is dead. Symlinks and
    files of that name are left alone."""
    for path in out_dir.parent.glob(f"{glob.escape(out_dir.name)}.*.tmp"):
        try:
            fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
        except OSError:
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            shutil.rmtree(path, ignore_errors=True)
        except BlockingIOError:
            pass  # a live build holds it
        finally:
            os.close(fd)


def _locked_temp_dir(out_dir: Path, held: ExitStack) -> Path:
    """A new directory <out_name>.*.tmp beside out_dir, with the mode mkdir
    would give it, locked through an fd of its own that held closes. Another
    build's reclaim may remove it before the lock is taken; then it is made
    afresh."""
    while True:
        tmp = Path(tempfile.mkdtemp(prefix=f"{out_dir.name}.", suffix=".tmp", dir=out_dir.parent))
        try:
            fd = os.open(tmp, os.O_RDONLY | os.O_DIRECTORY)
        except FileNotFoundError:
            continue
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            if os.stat(tmp).st_ino == os.fstat(fd).st_ino:
                held.callback(os.close, fd)
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    # mkdtemp makes the directory private; give it the mode mkdir would.
    umask = os.umask(0)
    os.umask(umask)
    tmp.chmod(0o777 & ~umask)
    return tmp


def _build(
    corpus: CorpusStore,
    encoder: Encoder,
    filter_model: FilterModel,
    tmp: Path,
    config: BuildConfig,
    spills: ExitStack,
) -> None:
    """build_index's encode pass and its section writes into tmp. Its spill
    files, beside tmp, are entered on spills, which the caller closes."""

    def spill():
        return spills.enter_context(tempfile.TemporaryFile(dir=tmp.parent))

    tfidf = fit_tfidf(corpus)
    cfg = encoder.config
    start_rows = _Spill(spill(), cfg.boundary_dim)  # surviving start/end columns
    end_rows = _Spill(spill(), cfg.boundary_dim)
    heads, tails = spill(), spill()  # float32 coherency heads of start rows, tails of end rows
    para_rows: list[tuple[int, int]] = []  # (document ordinal, token count) per paragraph
    start_masks: list[np.ndarray] = []
    end_masks: list[np.ndarray] = []
    coh_lo, coh_hi = np.float32(np.inf), np.float32(-np.inf)
    doc_rows = SparseRows()
    own_rows = SparseRows()  # paragraph-only, empty for a document's only paragraph
    inv_norms = array("d")  # 1 / ||doc + paragraph||
    n_tokens = n_phrases = 0
    for ord_, doc in enumerate(corpus):
        # One document's tokens and bin counts at a time, each taken once.
        doc_tokens = [para.surfaces() for para in doc.paragraphs]
        para_counts = [token_counts(tokens) for tokens in doc_tokens]
        sole = len(doc.paragraphs) == 1
        doc_vec = tfidf.embed(para_counts[0] if sole else summed_counts(para_counts), doc_rows)
        for pidx, (tokens, counts) in enumerate(zip(doc_tokens, para_counts)):
            H = encoder.encode_document(tokens, key=f"{doc.id}/{pidx}")
            if H.n_tokens != len(tokens):
                raise ValueError(f"encoder returned {H.n_tokens} rows for {len(tokens)} tokens")
            smask, emask = apply_filter(H, filter_model)
            _, _, first, n_ends = _phrase_records(smask, emask, [len(tokens)], config.max_span)
            para_rows.append((ord_, len(tokens)))
            start_rows.append(H.start_cols[smask])
            end_rows.append(H.end_cols[emask])

            head = H.coh_head_cols.astype("<f4")[smask]
            tail = H.coh_tail_cols.astype("<f4")[emask]
            heads.write(head.tobytes())
            tails.write(tail.tobytes())
            if n_ends.any():
                coh = phrase_coherency(np.repeat(head, n_ends, 0), tail[_ranges(first, n_ends)])
                coh_lo, coh_hi = min(coh_lo, coh.min()), max(coh_hi, coh.max())
            start_masks.append(smask)
            end_masks.append(emask)
            if sole:  # doc + doc is 2 * doc exactly, and so is its norm
                own_rows.append((), ())
                norm = 2.0 * doc_vec.norm()
            else:
                para_vec = tfidf.embed(counts, own_rows)
                norm = add_vectors(doc_vec, para_vec).norm()
            inv_norms.append(1.0 / norm if norm else 0.0)
            n_tokens += len(tokens)
            n_phrases += int(n_ends.sum())
    if n_tokens == 0:
        raise ValueError("empty index: no tokens in any paragraph")
    if n_phrases == 0:
        raise ValueError("empty index: filter discarded every candidate phrase")

    start_quant, start_codes = start_rows.quantized()
    end_quant, end_codes = end_rows.quantized()
    n_start_rows, n_end_rows = start_rows.rows, end_rows.rows

    with open(tmp / "starts.bin", "wb") as fh:
        _write_header(fh, b"STRT")
        fh.write(start_codes.tobytes())
    with open(tmp / "ends.bin", "wb") as fh:
        _write_header(fh, b"ENDS")
        fh.write(end_codes.tobytes())
    # Each input below is dropped once its section is written, so none is
    # held through k-means.
    del end_codes
    with open(tmp / "quant.bin", "wb") as fh:
        _write_header(fh, b"QNTZ")
        for arr in (start_quant.minimums, start_quant.scales, end_quant.minimums, end_quant.scales):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(tmp / "coherency.bin", "wb") as fh:
        _write_header(fh, b"COHR")
        fh.write(struct.pack("<ff", coh_lo, coh_hi))
        for spilled in (heads, tails):
            spilled.seek(0)
            shutil.copyfileobj(spilled, fh)
    with open(tmp / "phrases.bin", "wb") as fh:
        _write_header(fh, b"PHRS")
        for column in np.array(para_rows, dtype=np.int64).T:
            _write_narrow(fh, column)
        fh.write(np.packbits(np.concatenate(start_masks)).tobytes())
        fh.write(np.packbits(np.concatenate(end_masks)).tobytes())
    n_paragraphs = len(para_rows)
    del para_rows, start_masks, end_masks
    _write_sparse_sections(tmp, tfidf, doc_rows, own_rows, inv_norms)
    del doc_rows, own_rows, inv_norms
    with open(tmp / "encoder.bin", "wb") as fh:
        _write_header(fh, b"ENCD")
        fh.write(_encoder_section_bytes(encoder))
    from .search import kmeans_train  # looked up per build, so a patched one is used

    n_clusters = config.ivf_clusters or math.ceil(4 * math.sqrt(n_start_rows))
    ivf = kmeans_train(
        start_codes, min(n_clusters, n_start_rows), seed=config.seed, quant=start_quant
    )
    with open(tmp / "ivf.bin", "wb") as fh:
        _write_header(fh, b"IVFC")
        fh.write(struct.pack("<I", ivf.centroids.shape[0]))
        fh.write(np.ascontiguousarray(ivf.centroids, dtype="<f4").tobytes())
        _write_lists(fh, ivf.offsets, ivf.rows)
    with open(tmp / "corpus.jsonl", "w", encoding="utf-8") as fh:
        corpus.write_jsonl(fh)

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
        "counts": {
            "docs": corpus.n_docs,
            "paragraphs": n_paragraphs,
            "tokens": n_tokens,
            "surviving_start_tokens": n_start_rows,
            "surviving_end_tokens": n_end_rows,
            "start_rows": n_start_rows,
            "end_rows": n_end_rows,
            "phrases": n_phrases,
        },
        "sections": {
            name: {"bytes": (tmp / name).stat().st_size, "sha256": _sha256(tmp / name)}
            for name in sorted(SECTIONS)
        },
    }
    (tmp / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


def _read_manifest(path: Path) -> dict:
    """manifest.json under path, which has no checksum: anything but this
    format's JSON object of the shape open reads (sections of a bytes count
    and a sha256 each, counts that are all counts and give docs and tokens,
    a positive max_span) is one ValueError naming it."""
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {path}")

    def bad(what: str) -> ValueError:
        return ValueError(f"manifest.json under {path}: {what}")

    def is_count(value, least: int = 0) -> bool:
        return not isinstance(value, bool) and isinstance(value, int) and value >= least

    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise bad(str(exc)) from None
    if not isinstance(manifest, dict):
        raise bad("not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"index format version {manifest.get('format_version')} under {path}: "
            f"this phraseindex reads format version {FORMAT_VERSION}, so rebuild the index"
        )
    sections, counts, span = (manifest.get(k) for k in ("sections", "counts", "max_span"))
    if not isinstance(sections, dict) or not all(
        isinstance(meta, dict) and is_count(meta.get("bytes")) and isinstance(meta.get("sha256"), str)
        for meta in sections.values()
    ):
        raise bad("sections must map each name to its bytes and sha256")
    if not isinstance(counts, dict) or not {"docs", "tokens"} <= counts.keys() or not all(
        map(is_count, counts.values())
    ):
        raise bad("counts must give docs and tokens, and every count as a count")
    if not is_count(span, 1):
        raise bad(f"max_span {span!r} is not a positive integer")
    return manifest


class PhraseIndex:
    """Read-only handle over a built index directory.

    The code and coherency sections stay on disk as memory maps: search folds
    the quantization into the query and scores the int8 codes as stored.
    Small sections are parsed once at load. Any number of concurrent readers
    may share a directory; each handle is independent.

    The paragraph table and the start records are derived at open from each
    paragraph's document and token count and the two survival masks. Start
    record r owns start row r; rec_tok, rec_para, rec_end_row and rec_n_ends
    are its paragraph-local token, paragraph, first end row and number of
    ends (_phrase_records). Phrase (r, t), for t < rec_n_ends[r], ends at end
    row rec_end_row[r] + t. rec_ends_chain says whether each record's end
    rows begin no later than the previous record's stop and the stops never
    fall, so that the end rows of any run of records are one run of rows, as
    in an index without a filter. end_tok[e] is the paragraph-local token of
    end row e, and the phrase's coherency is phrase_coherency of head row r
    and that end row's tail. Document d owns paragraph rows [doc_para_begin[d],
    doc_para_begin[d + 1]) and start records [doc_rec_begin[d],
    doc_rec_begin[d + 1]). These arrays are O(tokens), and nothing is held
    per phrase. Open refuses manifest counts that differ from these. Search
    reads the coherency heads and tails, one float32 row per start row and
    per end row, and coherency_range, the least and greatest phrase
    coherency, from the header of coherency.bin.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.manifest = _read_manifest(self.path)
        listed = self.manifest["sections"]
        wrong = [f"missing section {n}" for n in sorted(SECTIONS - listed.keys())]
        wrong += [f"unknown section {n}" for n in sorted(listed.keys() - SECTIONS)]
        if wrong:
            raise ValueError(f"manifest.json under {self.path}: " + ", ".join(wrong))
        for name, meta in sorted(listed.items()):
            fpath = self.path / name
            if not fpath.exists():
                raise ValueError(f"section {name}: missing file")
            if fpath.stat().st_size != meta["bytes"] or _sha256(fpath) != meta["sha256"]:
                raise ValueError(f"section {name}: checksum mismatch")

        counts = self.manifest["counts"]
        self.max_span: int = self.manifest["max_span"]
        self.config, self.encoder = _load_encoder_section(self.path / "encoder.bin")
        self.corpus = load_corpus(self.path / "corpus.jsonl")
        if self.corpus.n_docs != counts["docs"]:
            raise ValueError(
                f"section corpus.jsonl: {self.corpus.n_docs} documents, not {counts['docs']}"
            )

        section = _SectionReader(self.path / "phrases.bin", b"PHRS")
        para_doc, para_len = section.narrow(), section.narrow()
        n = counts["tokens"]
        masks = [np.unpackbits(section.array("u1", -(-n // 8)), count=n) for _ in range(2)]
        section.done()
        self._derive_phrase_table(para_doc, para_len, *masks)
        # Every other section is read at the shape the masks and encoder.bin give.
        starts, ends = self.rec_tok.size, self.end_tok.size
        dim = self.config.boundary_dim
        _, self.start_codes = _map_rows(self.path / "starts.bin", b"STRT", np.int8, (starts, dim))
        _, self.end_codes = _map_rows(self.path / "ends.bin", b"ENDS", np.int8, (ends, dim))
        section = _SectionReader(self.path / "quant.bin", b"QNTZ")
        arrs = [section.array("<f8", dim).astype(np.float64) for _ in range(4)]
        section.done()
        self.start_quant = QuantizationParams(arrs[0], arrs[1])
        self.end_quant = QuantizationParams(arrs[2], arrs[3])
        want = dict(paragraphs=para_doc.size, start_rows=starts, surviving_start_tokens=starts,
                    end_rows=ends, surviving_end_tokens=ends, phrases=int(self.rec_n_ends.sum()))
        wrong = [f"{k} {counts.get(k)!r}, not {v}" for k, v in want.items() if counts.get(k) != v]
        if wrong:
            raise ValueError(f"manifest.json under {self.path}: counts " + ", ".join(wrong))
        (lo, hi), rows = _map_rows(
            self.path / "coherency.bin", b"COHR", "<f4", (starts + ends, self.config.coherency_dim),
            "<ff",
        )
        self.coherency_heads, self.coherency_tails = rows[:starts], rows[starts:]
        self.coherency_range = (float(lo), float(hi))

        section = _SectionReader(self.path / "postings.bin", b"PSTG")
        bins, offsets, docs, tfs, norms = section.postings(self.n_docs, "document ordinals")
        section.done()
        idfs = idf_of_dfs(np.diff(offsets).tolist(), self.n_docs)
        self.postings = posting_lists(self.n_docs, bins, offsets, docs, tfs, idfs, norms)
        self._read_sparse_docs(idfs)
        self.ivf = self._read_ivf()

    def _derive_phrase_table(
        self, doc: np.ndarray, para_len: np.ndarray, start_mask: np.ndarray, end_mask: np.ndarray
    ) -> None:
        """The paragraph table, and the per-record and per-end-row arrays,
        from each paragraph's document and token count and the two survival
        masks, in O(tokens), checked against each other."""

        def bad(what: str) -> ValueError:
            return ValueError(f"section phrases.bin: {what}")

        self.para_doc = doc
        self.doc_para_begin = np.searchsorted(doc, np.arange(self.n_docs + 1))
        if doc.size != para_len.size:
            raise bad(f"{doc.size} paragraph documents but {para_len.size} token counts")
        if (np.diff(doc) < 0).any() or self.doc_para_begin[-1] != doc.size:
            raise bad("paragraph table is not in document order")
        if int(para_len.sum()) != start_mask.size:
            raise bad("paragraph lengths do not add up to the token count")

        self.rec_tok, self.rec_para, self.rec_end_row, self.rec_n_ends = _phrase_records(
            start_mask, end_mask, para_len, self.max_span
        )
        stop = self.rec_end_row + self.rec_n_ends
        self.rec_ends_chain = bool(
            (self.rec_end_row[1:] <= stop[:-1]).all() and (stop[1:] >= stop[:-1]).all()
        )
        n_recs = np.bincount(self.rec_para, minlength=doc.size)
        rec_stop = np.cumsum(n_recs)
        table = self.para_table = np.empty(doc.size, PARA_DTYPE)
        table["doc"], table["para"] = doc, np.arange(doc.size) - self.doc_para_begin[doc]
        table["rec_begin"], table["n_recs"], table["n_tokens"] = rec_stop - n_recs, n_recs, para_len
        # End row e's paragraph-local token is that of record e of the end mask.
        self.end_tok = _phrase_records(end_mask, end_mask, para_len, 1)[0]
        self.doc_rec_begin = np.append(0, rec_stop)[self.doc_para_begin]

    def _read_sparse_docs(self, doc_idfs: np.ndarray) -> None:
        """1 / ||doc + paragraph|| of every paragraph, the postings of the
        paragraph-only vectors (para_postings), whose bins take the idf of
        the document bin they name (doc_idfs, one per document bin), and the
        tf-idf model: the df of a bin is the length of its posting list, or
        its entry in the list of idf-0 bins."""
        n_para = len(self.para_table)
        postings = self.postings
        section = _SectionReader(self.path / "sparse_docs.bin", b"SPRS")
        zero_bins = section.one_list("idf-0 bins", NGRAM_BINS)
        zero_counts = section.narrow()
        # Every df must be in [0, n_docs] before any log is taken of it.
        in_range = ((zero_counts >= 0) & (zero_counts <= self.n_docs)).all()
        if not in_range or idf_of_dfs(zero_counts.tolist(), self.n_docs).any():
            raise ValueError(f"section sparse_docs.bin: each idf-0 bin's df must be at most "
                             f"{self.n_docs} and give an idf of 0")
        self.para_inv_norm = section.array("<f4", n_para).astype(np.float64)
        ranks, offsets, paras, tfs, norms = section.postings(
            n_para, "paragraph ordinals", "paragraph bins, as ranks of document bins,",
            postings.bins.size,
        )
        section.done()
        self.para_postings = posting_lists(
            n_para, postings.bins[ranks], offsets, paras, tfs, doc_idfs[ranks], norms
        )
        self.para_sole = (np.diff(self.doc_para_begin) == 1)[self.para_doc]
        if self.para_sole[paras].any():
            raise ValueError(
                "section sparse_docs.bin: a document's only paragraph has a vector of its own"
            )
        doc_freq = dict(zip(map(int, postings.bins), map(int, np.diff(postings.offsets))))
        doc_freq.update(zip(map(int, zero_bins), map(int, zero_counts)))
        if zero_counts.size != zero_bins.size or len(doc_freq) != postings.bins.size + zero_bins.size:
            raise ValueError(
                "section sparse_docs.bin: the idf-0 bins need one df each and no postings"
            )
        self.tfidf = TfIdfModel(doc_count=self.n_docs, doc_freq=doc_freq)

    def _read_ivf(self) -> IvfIndex:
        """ivf.bin's boundary_dim-wide centroids and cells, after checking
        that there are n_clusters cells and that each start row is in
        exactly one cell."""
        section = _SectionReader(self.path / "ivf.bin", b"IVFC")
        (n_clusters,) = section.unpack("<I")
        dim = self.config.boundary_dim
        centroids = section.array("<f4", n_clusters * dim).reshape(n_clusters, dim)
        n = self.n_start_rows
        offsets, rows = section.lists("start rows", n)
        section.done()
        if offsets.size != n_clusters + 1 or not np.array_equal(np.sort(rows), np.arange(n)):
            raise ValueError(
                f"section ivf.bin: {offsets.size - 1} cells of {rows.size} rows, expected "
                f"{n_clusters} cells holding each of the {n} start rows once"
            )
        return IvfIndex(centroids=centroids.astype(np.float64), offsets=offsets, rows=rows)

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

    def code_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The start codes, end codes, coherency heads and coherency tails as
        plain ndarray views of their memory maps: nothing is copied, and
        indexing a view skips the per-call overhead of memmap.__getitem__."""
        return tuple(
            np.asarray(m)
            for m in (self.start_codes, self.end_codes, self.coherency_heads, self.coherency_tails)
        )

    def doc_id(self, ordinal: int) -> str:
        return self.corpus.doc_by_ordinal(ordinal).id

    def doc_title(self, ordinal: int) -> str:
        return self.corpus.doc_by_ordinal(ordinal).title

    def para_row(self, doc_ordinal: int, para_idx: int) -> int:
        """para_table row of a paragraph; KeyError if the index has no such paragraph."""
        if 0 <= doc_ordinal < self.n_docs:
            begin, stop = self.doc_para_begin[doc_ordinal : doc_ordinal + 2]
            if 0 <= para_idx < stop - begin:
                return int(begin) + para_idx
        raise KeyError((doc_ordinal, para_idx))

    def span_text(self, ref: SpanRef) -> str:
        return self.corpus.span_text(ref)


def load_index(path: str | Path) -> PhraseIndex:
    """Open an index directory after validating manifest and section checksums."""
    return PhraseIndex(path)
