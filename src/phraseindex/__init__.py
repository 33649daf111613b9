"""Query-agnostic phrase indexing and retrieval by maximum inner product search."""

from .corpus import (
    CorpusStore,
    Document,
    Paragraph,
    QaRecord,
    SpanRef,
    Token,
    enumerate_spans,
    load_corpus,
    load_qa,
    tokenize,
)
from .dense import (
    DensePhraseVector,
    Encoder,
    EncoderConfig,
    PrecomputedEncoder,
    QueryDenseVector,
    TokenEncodingMatrix,
    ToyEncoder,
    dense_score,
    phrase_dense,
    question_dense,
    write_embedding_file,
)
from .index import (
    BuildConfig,
    PhraseIndex,
    QuantizationParams,
    apply_filter,
    build_index,
    dequantize,
    estimate_index_size,
    fit_quantization,
    load_index,
    quantize,
)
from .search import (
    IvfIndex,
    QueryVector,
    SearchConfig,
    SearchOutput,
    SearchResult,
    dfs_search,
    embed_question,
    exact_search,
    hybrid_search,
    kmeans_train,
    run_search,
    sfs_search,
)
from .sparse import (
    InvertedIndex,
    SparseRows,
    SparseVector,
    TfIdfModel,
    build_inverted_index,
    combine_doc_para,
    embed_text_sparse,
    fit_tfidf,
    learned_sparse_encode,
    retrieve_top_docs,
    sparse_score,
)
from .training import (
    FilterModel,
    LogitBundle,
    TrainingConfig,
    apply_no_answer,
    aux_loss_end,
    aux_loss_start,
    combined_loss,
    compute_logits,
    mine_negatives,
    train_encoder,
    train_filter,
    true_loss,
)

__version__ = "0.1.0"

# The HTTP service's names load http.server on first use, not with the package:
# a build or a query does not need it.
_SERVICE = frozenset({"EvalReport", "benchmark", "em_f1", "eval_em_f1", "normalize_answer", "serve"})


def __getattr__(name: str):
    if name in _SERVICE:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
