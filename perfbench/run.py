"""Benchmark for phraseindex: seeded inputs, served through the public CLI and
HTTP API, with every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload longpara-hybrid --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the run
reports the end-to-end metrics, measured from outside the program's
processes. With ``--trace 1`` it builds, opens and queries in-process with
spans around the calls into each module (see tracing.py) and reports the
per-layer metrics, each layer's self time and the tracing overhead.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread in the program's processes and in this one (the traced run
# queries in-process). On a small machine extra BLAS threads contend with each
# other and with the load generator, and make every timing noisy. This must be
# set before numpy is first imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import gen  # noqa: E402
from load import HOST, free_port, http_get, run_load  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MAX_SPAN = 20
TOP_K = 10
SPARSE_SCALE = 0.05  # the serve default; the checker recomputes score with it
BUILD_FLAGS = [
    "--max-span", str(MAX_SPAN), "--clusters", "256",
    "--dim", "64", "--boundary-dim", "28", "--coherency-dim", "4",
]
ROUNDS = 3  # build, open, then a third of the timed queries; medians over rounds
WARMUP = 3  # untimed questions at the head of every stream
RECALL_SAMPLE = 8  # questions whose answers are compared with in-process exact search
EXHAUSTIVE_SAMPLE = 2  # questions for the exhaustive SFS/DFS and served-exact checks
STREAM_PER_SECOND = 150  # questions generated per timed second; more than any loop here answers
SECTIONS = [
    "coherency.bin", "corpus.jsonl", "encoder.bin", "ends.bin", "filter.bin", "ivf.bin",
    "phrases.bin", "postings.bin", "quant.bin", "sparse_docs.bin", "starts.bin",
]

CORPORA = {
    "longpara": gen.CorpusSpec(docs=60, paras=2, tokens=100),
    "manydoc": gen.CorpusSpec(docs=1000, paras=1, tokens=16),
}


@dataclass(frozen=True)
class Workload:
    corpus: str
    strategy: str
    mode: str  # "closed": HTTP, one keep-alive connection; "batch": in-process child
    tail: float  # the percentile reported as query_tail_ms
    pool: int = 0  # > 0: questions drawn with Zipf popularity from a pool this large
    k_s: int = 5  # sparse-first documents (`serve --k-s`); 5 is the program's default


WORKLOADS = {
    "longpara-hybrid": Workload("longpara", "hybrid", "closed", tail=0.9),
    # A closed loop: in an open loop the server idles between requests, and
    # its latency followed the machine's speed so closely that runs of the same
    # code spread past every bound. k_s = 50 makes the search ~13 ms of each
    # ~57 ms request instead of ~4 ms, so a faster search still shows.
    "manydoc-sfs": Workload("manydoc", "sfs", "closed", tail=0.9, pool=300, k_s=50),
    "longpara-exact": Workload("longpara", "exact", "batch", tail=0.9),
}

END_TO_END_UNITS = {
    "setup_s": "s", "build_s": "s", "build_peak_rss_mb": "MB",
    "serve_peak_rss_mb": "MB", "index_bytes_per_token": "B/token", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "qps": "1/s",
}


class BenchError(Exception):
    """The program failed in a way that leaves nothing to measure."""


@dataclass
class Answer:
    question: str
    latency_ms: float
    problem: str  # empty when the response passed every check
    results: list


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "phraseindex.cli", *args]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_inputs(name: str, seed: int, seconds: float, workdir: Path):
    """Corpus documents, paths of the written inputs, and the question stream."""
    w = WORKLOADS[name]
    docs = gen.make_corpus(CORPORA[w.corpus], seed, w.corpus)
    n = WARMUP + int(STREAM_PER_SECOND * seconds)
    if w.pool:
        stream = gen.zipf_stream(docs, n, w.pool, seed, name)
    else:
        stream = gen.unique_questions(docs, n, seed, name)
    corpus_path, questions_path = gen.write_inputs(workdir, docs, stream)
    return docs, corpus_path, questions_path, stream


def expected_counts(spec: gen.CorpusSpec) -> dict:
    n = spec.tokens
    per_para = sum(min(MAX_SPAN, n - i) for i in range(n))
    paras = spec.docs * spec.paras
    return {"docs": spec.docs, "paragraphs": paras, "tokens": paras * n, "phrases": paras * per_para}


# ---------------------------------------------------------------------------
# Program processes
# ---------------------------------------------------------------------------


def build(corpus_path: Path, out: Path, seed: int) -> tuple[float, float]:
    """Run `phraseindex build`: wall seconds and the child's peak RSS in MB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _cli("build", "--corpus", str(corpus_path), "--out", str(out), "--seed", str(seed), *BUILD_FLAGS),
        env=_env(), stdout=subprocess.DEVNULL,
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # e.g. SIGTERM: do not leave the build running
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise BenchError(f"phraseindex build exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


class Server:
    """`phraseindex serve` on a free port; ready once GET /health answers 200."""

    def __init__(self, index_dir: Path, w: Workload):
        self.port = free_port()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            _cli("serve", "--index", str(index_dir), "--addr", f"{HOST}:{self.port}",
                 "--strategy", w.strategy, "--k-s", str(w.k_s)),
            env=_env(), stdout=subprocess.DEVNULL,
        )
        try:
            self._wait_ready(deadline=t0 + 120)
        except BaseException:
            self.stop()
            raise
        self.open_s = time.perf_counter() - t0

    def _wait_ready(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"phraseindex serve exited with {self.proc.returncode}")
            try:
                if http_get(self.port, "/health")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("phraseindex serve not ready after 120 s")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the serve process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class BatchChild:
    """batch.py in a child process; ready once it prints `ready`."""

    def __init__(self, index_dir: Path, questions_path: Path, strategy: str, out: Path):
        self.out = out
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "batch.py"), "--index", str(index_dir),
             "--questions", str(questions_path), "--strategy", strategy,
             "--top-k", str(TOP_K), "--out", str(out)],
            env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise BenchError(f"batch child failed to open the index (exit {self.proc.returncode})")
        self.open_s = time.perf_counter() - t0
        self.peak_rss = 0.0

    def run(self, seconds: float, start: int) -> dict:
        self.proc.stdin.write(f"run {seconds} {WARMUP} {start}\n")
        self.proc.stdin.close()
        done = self.proc.stdout.readline().strip()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss = usage.ru_maxrss / 1024
        if done != "done" or self.proc.returncode:
            raise BenchError(f"batch child exited with {self.proc.returncode}")
        return json.loads(self.out.read_text(encoding="utf-8"))

    def stop(self) -> None:
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_query_process(w: Workload, index_dir: Path, questions_path: Path, workdir: Path):
    if w.mode == "batch":
        return BatchChild(index_dir, questions_path, w.strategy, workdir / "batch_out.json")
    return Server(index_dir, w)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def http_answers(samples, corpus) -> list[Answer]:
    out = []
    for s in samples:
        payload = s.payload if isinstance(s.payload, dict) else {}
        problem = s.error or corpus.response_problem(s.status, s.payload, TOP_K)
        out.append(Answer(s.question, s.latency_ms, problem, payload.get("results", [])))
    return out


def batch_answers(samples, corpus) -> list[Answer]:
    out = []
    for s in samples:
        problem = s["error"] or corpus.response_problem(200, {"results": s.get("results")}, TOP_K)
        out.append(Answer(s["question"], s["latency_ms"], problem, s.get("results", [])))
    return out


def sample_checks(index_dir: Path, answers: list[Answer], served_exact: list[Answer], corpus) -> tuple[float, list[str]]:
    """Recall of the served answers against in-process exact search, plus the
    exhaustive-limit checks: served exact equals in-process exact, and SFS and
    DFS with every document / cell / start kept reproduce exact top-k."""
    from check import recall, result_dicts, spans
    from phraseindex.index import PhraseIndex
    from phraseindex.search import SearchConfig, embed_question, run_search

    ix = PhraseIndex(index_dir)
    exact_cfg = SearchConfig(strategy="exact", top_k=TOP_K)
    exhaustive = {
        "sfs": SearchConfig(strategy="sfs", top_k=TOP_K, sparse_top_docs=ix.n_docs),
        "dfs": SearchConfig(strategy="dfs", top_k=TOP_K, nprobe=ix.ivf.centroids.shape[0],
                            dense_top_starts=ix.n_start_rows),
    }
    cache: dict[str, list[dict]] = {}

    def exact(q: str) -> list[dict]:
        if q not in cache:
            cache[q] = result_dicts(run_search(ix, embed_question(ix, q), exact_cfg))
        return cache[q]

    problems = []
    sample, seen = [], set()
    for a in answers:
        if not a.problem and a.question not in seen and len(sample) < RECALL_SAMPLE:
            seen.add(a.question)
            sample.append(a)
    recalls = [recall(a.results, exact(a.question)) for a in sample]
    for a in served_exact:
        if a.problem or a.results != exact(a.question):
            problems.append(f"served exact differs from in-process exact for {a.question!r}")
    for a in sample[:EXHAUSTIVE_SAMPLE]:
        for name, cfg in exhaustive.items():
            got = result_dicts(run_search(ix, embed_question(ix, a.question), cfg))
            if spans(got) != spans(exact(a.question)):
                problems.append(f"{name} at its exhaustive limit differs from exact for {a.question!r}")
    for q, results in cache.items():
        problem = corpus.response_problem(200, {"results": results}, TOP_K)
        if problem:
            problems.append(f"in-process exact for {q!r}: {problem}")
    return (statistics.fmean(recalls) if recalls else 0.0), problems


def index_bytes(index_dir: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in index_dir.iterdir() if p.is_file()}


def counts_problems(index_dir: Path, spec: gen.CorpusSpec) -> list[str]:
    counts = json.loads((index_dir / "manifest.json").read_text(encoding="utf-8"))["counts"]
    return [
        f"manifest counts {key} = {counts.get(key)}, expected {value}"
        for key, value in expected_counts(spec).items()
        if counts.get(key) != value
    ]


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """ROUNDS rounds of: build, start the query process, time seconds/ROUNDS of
    queries, stop. Spreading the timed queries over the run, between builds,
    makes the figures less sensitive to the machine's speed drifting."""
    from check import Corpus

    w = WORKLOADS[name]
    spec = CORPORA[w.corpus]
    docs, corpus_path, questions_path, stream = make_inputs(name, seed, seconds, workdir)
    corpus = Corpus(docs, MAX_SPAN, SPARSE_SCALE)
    setups, peaks, answers, samples, served_exact = [], [], [], [], []
    round_starts = []
    elapsed = 0.0
    for r in range(ROUNDS):
        index_dir = workdir / f"index{r}"
        if r:
            shutil.rmtree(workdir / f"index{r - 1}")
        t0 = time.perf_counter()
        build_s, build_rss = build(corpus_path, index_dir, seed)
        proc = start_query_process(w, index_dir, questions_path, workdir)
        try:
            setups.append((time.perf_counter() - t0, build_s, build_rss, proc.open_s))
            start = WARMUP + len(answers)
            round_starts.append(len(answers))
            if w.mode == "batch":
                result = proc.run(seconds / ROUNDS, start)
                answers += batch_answers(result["samples"], corpus)
                elapsed += result["elapsed_s"]
                peaks.append(proc.peak_rss)
                continue
            run_load(proc.port, stream[:WARMUP], w.strategy, TOP_K, seconds=600)
            got = run_load(proc.port, stream[start:], w.strategy, TOP_K, seconds / ROUNDS)
            peaks.append(proc.peak_rss_mb())
            samples += got
            answers += http_answers(got, corpus)
            elapsed += max(s.done for s in got) - min(s.scheduled for s in got)
            if r == ROUNDS - 1:
                exact = run_load(proc.port, stream[WARMUP:WARMUP + EXHAUSTIVE_SAMPLE], "exact", TOP_K, seconds=600)
                served_exact = http_answers(exact, corpus)
        finally:
            proc.stop()
    if w.strategy == "exact":
        served_exact = answers[:RECALL_SAMPLE]
    lags = [(s.noticed - s.scheduled) * 1e3 for s in samples]
    waits = [(s.sent - s.scheduled) * 1e3 for s in samples]
    overheads = [s.round_trip_ms - s.payload["timings"]["total_ms"]
                 for s, a in zip(samples, answers) if not a.problem]

    problems = counts_problems(index_dir, spec)
    recall_at_10, sample_problems = sample_checks(index_dir, answers, served_exact, corpus)
    problems += sample_problems
    sizes = index_bytes(index_dir)
    ok = [a for a in answers if not a.problem]
    failed = len(answers) - len(ok)
    latencies = [a.latency_ms for a in ok]
    metrics = {
        "setup_s": _median(s[0] for s in setups),
        "build_s": _median(s[1] for s in setups),
        "build_peak_rss_mb": _median(s[2] for s in setups),
        "serve_peak_rss_mb": _median(peaks),
        "index_bytes_per_token": sum(sizes.values()) / expected_counts(spec)["tokens"],
        "query_p50_ms": _median(latencies),
        "query_tail_ms": _nearest_rank(latencies, w.tail),
        "qps": len(ok) / elapsed if elapsed > 0 else 0.0,
    }
    samples_of = {"setup_s": len(setups), "build_s": len(setups), "build_peak_rss_mb": len(setups),
                  "serve_peak_rss_mb": len(peaks), "index_bytes_per_token": 1,
                  "query_p50_ms": len(ok), "query_tail_ms": len(ok), "qps": len(ok)}
    lines = [f"{name}: {w.mode} loop, strategy {w.strategy}, seed {seed}, {seconds:g} s of queries in {ROUNDS} rounds"]
    for key, value in metrics.items():
        lines.append(f"  {key:<22} {value:>12.4f} {END_TO_END_UNITS[key]:<8} n={samples_of[key]}")
    lines += [
        f"  {'open_s':<22} {_median(s[3] for s in setups):>12.4f} {'s':<8} n={len(setups)}",
        f"  {'error_rate':<22} {failed / max(1, len(answers)):>12.4f} {'ratio':<8} n={len(answers)}",
        f"  {'recall_at_10':<22} {recall_at_10:>12.4f} {'ratio':<8} n={min(RECALL_SAMPLE, len(ok))}",
        f"  tail percentile p{w.tail * 100:g}; corpus {spec.docs} docs x {spec.paras} paragraphs "
        f"x {spec.tokens} tokens; phrases {expected_counts(spec)['phrases']}",
        f"  question repeat share {gen.repeat_share([a.question for a in answers]):.3f}",
    ]
    if overheads:
        lines.append(f"  http overhead p50 {_median(overheads):.2f} ms; queue wait mean "
                     f"{statistics.fmean(waits):.3f} ms; generator lag mean {statistics.fmean(lags):.3f} ms")
    bounds = [*round_starts, len(answers)]
    lines.append("  query p50 by round (ms): " + " ".join(
        f"{_median(a.latency_ms for a in answers[i:j] if not a.problem):.2f}" for i, j in zip(bounds, bounds[1:])))
    lines += [f"  FAILED {a.question!r}: {a.problem}" for a in answers if a.problem][:5]
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    return {"correct": failed == 0 and not problems and len(answers) > 0, "attempted": len(answers),
            "failed": failed, "metrics": metrics, "lines": lines, "units": END_TO_END_UNITS}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

PER_QUERY_LAYERS = [
    "dense.encode_question", "sparse.retrieve_top_docs", "search.embed_question",
    "search.sfs_search", "search.dfs_search", "search.exact_search", "service.handle_query",
]


def layer_metrics(spans, queries: dict[str, dict], paragraphs: int, phrases: int,
                  tokens: int, sizes: dict[str, int]) -> dict[str, float]:
    from tracing import self_times

    own = self_times(spans)
    by_request: dict[str, list[int]] = defaultdict(list)
    for k, s in enumerate(spans):
        by_request[s.request].append(k)

    def total(request: str, name: str) -> float:
        return sum(spans[k].end - spans[k].start for k in by_request[request] if spans[k].name == name)

    def calls(request: str, name: str) -> int:
        return sum(1 for k in by_request[request] if spans[k].name == name)

    m = {
        "corpus.load_corpus_s": total("open", "corpus.load_corpus"),
        "dense.encode_document_s": total("build", "dense.encode_document"),
        "dense.encode_document_calls_per_paragraph": calls("build", "dense.encode_document") / paragraphs,
        "sparse.fit_tfidf_s": total("build", "sparse.fit_tfidf"),
        "sparse.embed_s": total("build", "sparse.embed"),
        "sparse.build_inverted_index_s": total("build", "sparse.build_inverted_index"),
        "index.build_index_self_s": sum(own[k] for k in by_request["build"] if spans[k].name == "index.build_index"),
        "index.quantize_s": total("build", "index.quantize"),
        "index.open_s": total("open", "index.open"),
        "search.kmeans_train_s": total("build", "search.kmeans_train"),
    }
    per_query: dict[str, list[float]] = defaultdict(list)
    for request, response in queries.items():
        ks = by_request[request]
        for layer in PER_QUERY_LAYERS:
            if calls(request, layer):
                per_query[layer + "_ms"].append(total(request, layer) * 1e3)
        question_embed = [k for k in ks if spans[k].name == "sparse.embed" and spans[k].parent >= 0
                          and spans[spans[k].parent].name == "search.embed_question"]
        per_query["sparse.embed_question_ms"].append(sum(spans[k].end - spans[k].start for k in question_embed) * 1e3)
        hybrid = [own[k] for k in ks if spans[k].name == "search.hybrid_search"]
        if hybrid:
            per_query["search.hybrid_self_ms"].append(sum(hybrid) * 1e3)
        rows = sum(spans[k].count for k in ks if spans[k].name.startswith("index.dequant_"))
        per_query["index.dequant_rows_per_query"].append(rows)
        per_query["search.docs_visited"].append(response["docs_visited"])
        if rows:
            per_query["search.results_per_row_dequantized"].append(len(response["results"]) / rows)
    for key in ["dense.encode_question_ms", "sparse.embed_question_ms", "sparse.retrieve_top_docs_ms",
                "index.dequant_rows_per_query", "search.embed_question_ms", "search.sfs_search_ms",
                "search.dfs_search_ms", "search.hybrid_self_ms", "search.exact_search_ms",
                "search.docs_visited", "search.results_per_row_dequantized", "service.handle_query_ms"]:
        m[key] = _median(per_query[key])
    for section in SECTIONS:
        m[f"index.bytes_per_token.{section}"] = sizes.get(section, 0) / tokens
    m["index.bytes_per_phrase"] = sum(sizes.values()) / phrases
    return m


def trace_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    import phraseindex.cli
    import phraseindex.service
    from check import Corpus
    from phraseindex.index import PhraseIndex
    from phraseindex.search import STRATEGIES, SearchConfig
    from tracing import Tracer, phraseindex_targets, summary

    w = WORKLOADS[name]
    spec = CORPORA[w.corpus]
    docs, corpus_path, questions_path, stream = make_inputs(name, seed, seconds, workdir)
    corpus = Corpus(docs, MAX_SPAN, SPARSE_SCALE)
    counts = expected_counts(spec)
    index_dir = workdir / "index"
    tracer = Tracer(phraseindex_targets())
    problems: list[str] = []

    tracer.install()
    try:
        with tracer.tag("build"), open(os.devnull, "w") as devnull, redirect_stdout(devnull):
            phraseindex.cli.main(["build", "--corpus", str(corpus_path), "--out", str(index_dir),
                                  "--seed", str(seed), *BUILD_FLAGS])
        with tracer.tag("open"):
            ix = PhraseIndex(index_dir)
    finally:
        tracer.uninstall()
    problems += counts_problems(index_dir, spec)
    config = SearchConfig(sparse_top_docs=w.k_s)

    def ask(question: str, strategy: str) -> tuple[float, dict]:
        t0 = time.perf_counter()
        response = phraseindex.service.handle_query(ix, {"question": question, "strategy": strategy, "top_k": TOP_K}, config)
        return time.perf_counter() - t0, response

    for q in stream[:WARMUP]:
        ask(q, w.strategy)
    # Each timed question runs once untraced and once traced, alternating which
    # goes first, so the difference is the tracing overhead and not warm-up.
    timed = stream[WARMUP:]
    queries: dict[str, dict] = {}
    attempted = failed = n = 0
    untraced = traced = 0.0
    t_end = time.perf_counter() + 0.6 * seconds

    def traced_ask(request: str, question: str, strategy: str) -> float:
        nonlocal attempted, failed
        tracer.install()
        try:
            with tracer.tag(request):
                wall, response = ask(question, strategy)
        finally:
            tracer.uninstall()
        queries[request] = response
        attempted += 1
        problem = corpus.response_problem(200, response, TOP_K)
        if problem:
            failed += 1
            problems.append(f"{request} {question!r}: {problem}")
        return wall

    while n < len(timed) and time.perf_counter() < t_end:
        if n % 2:
            traced += traced_ask(f"q{n}", timed[n], w.strategy)
            untraced += ask(timed[n], w.strategy)[0]
        else:
            untraced += ask(timed[n], w.strategy)[0]
            traced += traced_ask(f"q{n}", timed[n], w.strategy)
        n += 1
    for s in STRATEGIES:
        for k, q in enumerate(timed[:2]):
            traced_ask(f"sweep-{s}-{k}", q, s)

    server = Server(index_dir, w)
    try:
        run_load(server.port, stream[:WARMUP], w.strategy, TOP_K, seconds=600)
        samples = run_load(server.port, timed, w.strategy, TOP_K, 0.3 * seconds)
    finally:
        server.stop()
    answers = http_answers(samples, corpus)
    attempted += len(answers)
    failed += sum(1 for a in answers if a.problem)
    ok = [s for s, a in zip(samples, answers) if not a.problem]

    traced_answers = [Answer(q, 0.0, "", queries[f"q{k}"]["results"]) for k, q in enumerate(timed[:n])]
    recall_at_10, sample_problems = sample_checks(index_dir, traced_answers, [], corpus)
    problems += sample_problems
    sizes = index_bytes(index_dir)
    m = layer_metrics(tracer.spans, queries, counts["paragraphs"], counts["phrases"], counts["tokens"], sizes)
    m["search.recall_at_10"] = recall_at_10
    m["service.http_overhead_ms"] = _median(s.round_trip_ms - s.payload["timings"]["total_ms"] for s in ok)
    m["service.queue_wait_ms"] = statistics.fmean((s.sent - s.scheduled) * 1e3 for s in samples)
    m["bench.generator_lag_ms"] = statistics.fmean((s.noticed - s.scheduled) * 1e3 for s in samples)
    m["trace.overhead_ms"] = (traced - untraced) / n * 1e3 if n else 0.0
    tracer.write(WORK / "traces" / f"{name}-seed{seed}.jsonl")

    lines = [f"{name}: traced in-process, strategy {w.strategy}, seed {seed}, {n} timed queries "
             f"traced and untraced, {len(answers)} HTTP requests",
             f"  {'span':<28} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for span_name, (n_calls, tot, own) in summary(tracer.spans).items():
        lines.append(f"  {span_name:<28} {n_calls:>7} {tot:>10.4f} {own:>10.4f}")
    for key, value in m.items():
        lines.append(f"  {key:<44} {value:>12.6g} {PER_LAYER_UNITS[key]}")
    lines += [f"  CHECK FAILED: {p}" for p in problems[:10]]
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": m, "lines": lines, "units": PER_LAYER_UNITS}


PER_LAYER_UNITS = {
    "corpus.load_corpus_s": "s", "dense.encode_document_s": "s",
    "dense.encode_document_calls_per_paragraph": "count", "sparse.fit_tfidf_s": "s",
    "sparse.embed_s": "s", "sparse.build_inverted_index_s": "s", "index.build_index_self_s": "s",
    "index.quantize_s": "s", "index.open_s": "s", "search.kmeans_train_s": "s",
    "dense.encode_question_ms": "ms", "sparse.embed_question_ms": "ms",
    "sparse.retrieve_top_docs_ms": "ms", "index.dequant_rows_per_query": "count",
    "search.embed_question_ms": "ms", "search.sfs_search_ms": "ms", "search.dfs_search_ms": "ms",
    "search.hybrid_self_ms": "ms", "search.exact_search_ms": "ms", "search.docs_visited": "count",
    "search.results_per_row_dequantized": "ratio", "search.recall_at_10": "ratio",
    "service.handle_query_ms": "ms",
    **{f"index.bytes_per_token.{s}": "B/token" for s in SECTIONS},
    "index.bytes_per_phrase": "B", "service.http_overhead_ms": "ms", "service.queue_wait_ms": "ms",
    "bench.generator_lag_ms": "ms", "trace.overhead_ms": "ms",
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the `finally` blocks stop the program's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "phraseindex" / "__init__.py").is_file():
        print(f"error: no phraseindex source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = trace_run if args.trace else measure
    reports = {}
    for name in names:
        workdir = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            reports[name] = runner(name, args.seed, args.seconds, workdir)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("\n".join(reports[name]["lines"]), flush=True)

    def metric(report, key):
        return {"value": report["metrics"][key], "unit": report["units"][key]}

    single = len(names) == 1
    result = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (key if single else f"{name}.{key}"): metric(r, key)
            for name, r in reports.items() for key in r["metrics"]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
