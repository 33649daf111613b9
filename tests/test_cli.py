"""End-to-end runs of the command-line entry points."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phraseindex
from conftest import make_random_corpus, write_corpus_jsonl
from phraseindex.cli import _peak_rss_mb, main
from phraseindex.index import load_index
from phraseindex.search import SearchConfig


@pytest.fixture()
def corpus_file(tmp_path):
    rng = np.random.default_rng(50)
    corpus = make_random_corpus(rng, n_docs=6, tokens_per_para=(8, 14), paras_per_doc=(1, 1))
    return write_corpus_jsonl(corpus, tmp_path / "corpus.jsonl"), corpus


DIMS = ["--dim", "16", "--boundary-dim", "6", "--coherency-dim", "2"]


def _qa_of_first_two_tokens(corpus, path):
    """One answerable question per document, spanning its first two tokens."""
    lines = []
    for doc in corpus:
        end = doc.paragraphs[0].tokens[1].char_end
        lines.append(json.dumps({"question": f"start of {doc.id}", "doc_id": doc.id,
                                 "answers": [doc.paragraphs[0].raw_text[:end]],
                                 "answer_span": [0, 0, end]}))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_build_then_query(tmp_path, corpus_file, capsys):
    path, _ = corpus_file
    rc = main(
        ["build", "--corpus", str(path), "--out", str(tmp_path / "idx"),
         "--max-span", "3", "--clusters", "4", *DIMS]
    )
    assert rc == 0
    built = json.loads(capsys.readouterr().out)
    assert built["counts"]["docs"] == 6

    rc = main(
        ["query", "--index", str(tmp_path / "idx"), "--question", "where is w001",
         "--strategy", "exact", "--top-k", "3"]
    )
    assert rc == 0
    results = json.loads(capsys.readouterr().out)
    assert len(results) == 3
    assert {"text", "score", "doc_id", "strategy"} <= set(results[0])


def test_train_then_build_with_state(tmp_path, corpus_file, capsys):
    path, corpus = corpus_file
    qa_path = _qa_of_first_two_tokens(corpus, tmp_path / "qa.jsonl")

    config_path = tmp_path / "train.json"
    config_path.write_text(json.dumps({"learning_rate": 0.1, "epochs": 5, "max_span": 3}))
    rc = main(
        ["train", "--corpus", str(path), "--qa", str(qa_path), "--out", str(tmp_path / "run"),
         "--config", str(config_path), "--epochs", "2", *DIMS]  # flag overrides config
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs"] == 2
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert len(metrics) == 2 and "combined" in metrics[0]
    assert "filter_start_precision" in metrics[0]

    rc = main(
        ["build", "--corpus", str(path), "--out", str(tmp_path / "idx2"),
         "--max-span", "3", "--clusters", "4",
         "--encoder-state", str(tmp_path / "run" / "encoder_state.json"), *DIMS]
    )
    assert rc == 0
    capsys.readouterr()

    rc = main(["bench", "--index", str(tmp_path / "idx2"), "--qa", str(qa_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["exact"]["exact_match"] <= 1.0


def test_train_that_diverges_is_one_line_and_writes_nothing(tmp_path, corpus_file, capsys):
    # At a learning rate of 1e6 the loss leaves the floats within two epochs;
    # the run stops there instead of writing NaN metrics and weights.
    path, corpus = corpus_file
    qa_path = _qa_of_first_two_tokens(corpus, tmp_path / "qa.jsonl")
    rc = main(
        ["train", "--corpus", str(path), "--qa", str(qa_path), "--out", str(tmp_path / "run"),
         "--epochs", "2", "--lr", "1e6", *DIMS]
    )
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("phraseindex: error: training diverged in epoch ")
    assert "learning_rate 1000000.0" in line
    assert not (tmp_path / "run" / "metrics.json").exists()
    assert not (tmp_path / "run" / "encoder_state.json").exists()


def test_bench_command(tmp_path, corpus_file, capsys):
    path, _ = corpus_file
    main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"),
          "--max-span", "3", "--clusters", "4", *DIMS])
    capsys.readouterr()
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(json.dumps({"question": "w001 w002", "answers": ["w001 w002"]}) + "\n")
    rc = main(
        ["bench", "--index", str(tmp_path / "idx"), "--qa", str(qa_path),
         "--k-d", "20", "--nprobe", "2"]
    )
    assert rc == 0
    table = json.loads(capsys.readouterr().out)
    assert set(table) == {"exact", "sfs", "dfs", "hybrid"}
    for rep in table.values():
        assert rep["words_per_second"] > 0


DEFAULT_BUILD_RSS_MB = 200  # measured ~53 MB; one IVF cell per start row took ~420 MB


def test_default_build_of_20k_tokens_stays_under_rss_bound(tmp_path):
    # A build with every default setting, in its own process so that its
    # peak RSS is its own. The address-space cap turns a memory blow-up into
    # a failed build instead of a strain on the machine.
    rng = np.random.default_rng(20)
    corpus = make_random_corpus(
        rng, n_docs=100, tokens_per_para=(100, 100), paras_per_doc=(2, 2), vocab=2000
    )
    assert corpus.total_tokens() >= 20_000
    path = write_corpus_jsonl(corpus, tmp_path / "corpus.jsonl")
    src = str(Path(phraseindex.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    with subprocess.Popen(
        [sys.executable, "-m", "phraseindex.cli", "build", "--corpus", str(path),
         "--out", str(tmp_path / "idx")],
        env=env, stdout=subprocess.PIPE, preexec_fn=cap_address_space,
    ) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    report = json.loads(out)
    counts = report["counts"]
    assert counts["tokens"] == corpus.total_tokens()
    assert usage.ru_maxrss / 1024 < DEFAULT_BUILD_RSS_MB
    # The build reports its own peak, on stdout and never in the manifest.
    assert 0 < report["peak_rss_mb"] < DEFAULT_BUILD_RSS_MB
    assert "peak_rss_mb" not in (tmp_path / "idx" / "manifest.json").read_text(encoding="utf-8")
    cells = load_index(tmp_path / "idx").ivf.centroids.shape[0]
    assert cells == math.ceil(4 * math.sqrt(counts["start_rows"]))


@pytest.mark.parametrize("flags", [["--sparse-scale", "nan"], ["--sparse-scale", "inf"],
                                   ["--top-k", "0"]], ids=["nan_scale", "inf_scale", "top_k_0"])
def test_bad_search_settings_are_refused_before_the_index_is_read(tmp_path, capsys, flags):
    # The index does not exist: a setting that slipped through would fail on
    # the missing directory instead, or start a server.
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--index", str(tmp_path / "missing"), "--addr", "127.0.0.1:0", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("sparse_scale" in err) if "--sparse-scale" in flags else (">= 1" in err)


@pytest.mark.parametrize("flags, why", [
    (["--max-span", "0"], "max_span must be >= 1, got 0"),
    (["--max-span", "-3"], "max_span must be >= 1, got -3"),
    (["--clusters", "0"], "ivf_clusters must be >= 1, got 0"),
    (["--clusters", "-4"], "ivf_clusters must be >= 1, got -4"),
], ids=["max_span_0", "max_span_negative", "clusters_0", "clusters_negative"])
def test_bad_build_settings_are_refused_before_the_corpus_is_read(tmp_path, capsys, flags, why):
    # The corpus does not exist: a setting that slipped through would fail on
    # the missing file instead, with exit status 1.
    with pytest.raises(SystemExit) as exc:
        main(["build", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "idx"),
              *flags])
    assert exc.value.code == 2
    assert why in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_build_refuses_a_negative_seed_before_the_corpus_is_read(tmp_path, capsys):
    # The seed is checked with the other build settings, as a usage error
    # that names it, not by the encoder after the corpus has been read.
    with pytest.raises(SystemExit) as exc:
        main(["build", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "idx"),
              "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "phraseindex: error: seed must be >= 0, got -1"
    )
    assert list(tmp_path.iterdir()) == []


def test_query_of_a_missing_index_is_one_line_and_exit_status_1(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    assert main(["query", "--index", str(missing), "--question", "w001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phraseindex: error: ") and err.count("\n") == 1
    assert str(missing) in err


@pytest.mark.parametrize("section", ["starts.bin", "sparse_docs.bin", "ivf.bin", "quant.bin"])
def test_query_of_an_index_with_a_cut_section_is_one_line_and_exit_status_1(
    tmp_path, corpus_file, capsys, section
):
    path, _ = corpus_file
    index = tmp_path / "idx"
    main(["build", "--corpus", str(path), "--out", str(index), "--clusters", "4", *DIMS])
    data = (index / section).read_bytes()[:-3]
    (index / section).write_bytes(data)
    manifest = json.loads((index / "manifest.json").read_text())
    manifest["sections"][section] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    (index / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--question", "w001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"phraseindex: error: section {section}: ") and err.count("\n") == 1


def test_query_of_an_index_with_a_string_max_span_is_one_line_and_exit_status_1(
    tmp_path, corpus_file, capsys
):
    path, _ = corpus_file
    index = tmp_path / "idx"
    main(["build", "--corpus", str(path), "--out", str(index), "--clusters", "4", *DIMS])
    manifest = json.loads((index / "manifest.json").read_text())
    manifest["max_span"] = "20"
    (index / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--question", "w001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phraseindex: error: manifest.json under ") and err.count("\n") == 1
    assert "max_span '20' is not a positive integer" in err


def test_query_of_an_index_whose_manifest_lacks_counts_exits_1_without_a_traceback(
    tmp_path, corpus_file
):
    # The command's exit status and stderr, from a process of its own: this
    # used to end in a KeyError traceback.
    path, _ = corpus_file
    index = tmp_path / "idx"
    main(["build", "--corpus", str(path), "--out", str(index), "--clusters", "4", *DIMS])
    manifest = json.loads((index / "manifest.json").read_text())
    del manifest["counts"]
    (index / "manifest.json").write_text(json.dumps(manifest))
    src = str(Path(phraseindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "phraseindex.cli", "query", "--index", str(index), "--question", "w001"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("phraseindex: error: manifest.json under ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("bad, why", [
    (b"[1, 2]", "expected a JSON object, got list"),
    (b'{"id": ', "invalid JSON"),
    (b"\xff\xfe", "not UTF-8"),
    (b"[" * 100_000, "invalid JSON (nested too deeply)"),
], ids=["array", "truncated", "latin1", "nested"])
def test_build_of_a_bad_corpus_line_is_one_line_and_exit_status_1(
    tmp_path, corpus_file, capsys, bad, why
):
    path, corpus = corpus_file
    path.write_bytes(path.read_bytes() + bad + b"\n")
    rc = main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"), *DIMS])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"phraseindex: error: {path}: line {corpus.n_docs + 1}: {why}")
    assert err.count("\n") == 1
    assert not (tmp_path / "idx").exists()


@pytest.mark.parametrize("state, why", [
    ({}, '"linear" must be a 16 x 16 matrix of finite numbers'),
    ({"linear": [[1.0, 0.0], [0.0, 1.0]]}, '"linear" must be a 16 x 16 matrix of finite numbers'),
    ({"linear": [[float("nan")] * 16] * 16}, '"linear" must be a 16 x 16 matrix of finite numbers'),
    ({"linear": [["1"] * 16] * 16}, '"linear" must be a 16 x 16 matrix of finite numbers'),
    ({"linear": [[10**400] * 16] * 16}, '"linear" must be a 16 x 16 matrix of finite numbers'),
    ([[1.0]], '"linear" must be a 16 x 16 matrix of finite numbers'),
    ("{", "not a JSON file"),
], ids=["missing_key", "wrong_shape", "nan", "strings", "beyond_float", "not_an_object",
        "truncated"])
def test_build_refuses_a_bad_encoder_state_before_the_corpus_is_read(tmp_path, capsys, state, why):
    # The corpus does not exist: a state that slipped through would fail on
    # the missing file instead, or deep in the encoder after reading it.
    path = tmp_path / "encoder_state.json"
    path.write_text(state if isinstance(state, str) else json.dumps(state))
    rc = main(["build", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "idx"),
               "--encoder-state", str(path), *DIMS])
    assert rc == 1
    assert capsys.readouterr().err == f"phraseindex: error: --encoder-state {path}: {why}\n"
    assert not (tmp_path / "idx").exists()


def test_bench_of_an_empty_answer_list_is_one_line_and_exit_status_1(tmp_path, corpus_file, capsys):
    path, _ = corpus_file
    assert main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"),
                 "--max-span", "3", "--clusters", "4", *DIMS]) == 0
    capsys.readouterr()
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(json.dumps({"question": "w001", "answers": []}) + "\n")
    assert main(["bench", "--index", str(tmp_path / "idx"), "--qa", str(qa_path)]) == 1
    err = capsys.readouterr().err
    why = "answers must be a non-empty list of strings"
    assert err == f"phraseindex: error: {qa_path}: line 1: {why}\n"


def test_build_of_a_duplicate_document_id_names_the_file_and_both_lines(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    records = [{"id": "a", "title": "T", "paragraphs": [text]} for text in ("x y", "y z")]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    rc = main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"), *DIMS])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"phraseindex: error: {path}: line 2: duplicate document id 'a' (first on line 1)\n"
    assert not (tmp_path / "idx").exists()


def test_build_of_a_corpus_without_tokens_is_one_line_and_exit_status_1(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "a", "title": "T", "paragraphs": [" ", ""]}) + "\n")
    rc = main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"), *DIMS])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phraseindex: error: ") and "no tokens" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "idx").exists()


@pytest.mark.parametrize("command", ["query", "serve", "bench"])
def test_search_flags_default_to_the_search_config_defaults(monkeypatch, command):
    import phraseindex.cli as cli

    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or 0)
    extra = {"query": ["--question", "w001"], "bench": ["--qa", "qa.jsonl"], "serve": []}[command]
    assert main([command, "--index", "idx", *extra]) == 0
    assert seen[0].search == SearchConfig()


def _qa_line(**fields) -> str:
    rec = {"question": "where is w001", "answers": ["w001"], "doc_id": "doc000"}
    rec.update(fields)
    return json.dumps(rec) + "\n"


@pytest.mark.parametrize("span", [
    [0, 0], [0, 0, 2, 3], "abc", [-1, 0, 2], [0, 2, 2], [0, -1, 2], [0, 0, 2.0], [True, 0, 2],
], ids=["short", "long", "string", "negative-para", "empty", "negative-char", "float", "bool"])
def test_train_refuses_a_malformed_answer_span_in_one_line(tmp_path, corpus_file, capsys, span):
    path, _ = corpus_file
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(_qa_line(answer_span=span))
    rc = main(["train", "--corpus", str(path), "--qa", str(qa_path),
               "--out", str(tmp_path / "run"), "--epochs", "1", *DIMS])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"phraseindex: error: {qa_path}: line 1: answer_span must be")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fields, why", [
    ({"doc_id": "nope", "answer_span": [0, 0, 2]}, "unknown document 'nope'"),
    ({"answer_span": [1, 0, 2]}, "document 'doc000' has no paragraph 1 (it has 1)"),
    ({"answer_span": [0, 10_000, 10_002]}, "character range (10000, 10002) covers no token"),
], ids=["unknown-doc", "paragraph-past-the-end", "past-the-text"])
def test_train_refuses_an_answer_outside_the_corpus_in_one_line(
    tmp_path, corpus_file, capsys, fields, why
):
    path, corpus = corpus_file
    assert len(corpus.doc("doc000").paragraphs) == 1
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(_qa_line(**fields))
    rc = main(["train", "--corpus", str(path), "--qa", str(qa_path),
               "--out", str(tmp_path / "run"), "--epochs", "1", *DIMS])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"phraseindex: error: question 'where is w001': {why}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, why", [
    ("{", "not a JSON file"),
    ("[" * 100_000, "not a JSON file (nested too deeply)"),
    ("[1]", "not a JSON object"),
    (None, "No such file or directory"),
], ids=["truncated", "nested", "not_an_object", "missing"])
def test_train_refuses_a_bad_config_before_the_corpus_is_read(tmp_path, capsys, text, why):
    # The corpus and QA set do not exist: a config that slipped through would
    # fail on the missing files instead, or with a traceback once read.
    path = tmp_path / "train.json"
    if text is not None:
        path.write_text(text)
    rc = main(["train", "--corpus", str(tmp_path / "missing.jsonl"), "--qa",
               str(tmp_path / "missing_qa.jsonl"), "--out", str(tmp_path / "run"),
               "--config", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"phraseindex: error: --config {path}: {why}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, config, why", [
    ([], {"epochs": "ten"}, "epochs must be an integer, not 'ten'"),
    (["--epochs", "0"], None, "epochs must be >= 1, got 0"),
    ([], {"max_span": 0}, "max_span must be >= 1, got 0"),
    ([], {"negatives_per_paragraph": -1}, "negatives_per_paragraph must be >= 0, got -1"),
    (["--lr", "nan"], None, "learning_rate must be a finite number > 0, not nan"),
    ([], {"learning_rate": 0}, "learning_rate must be a finite number > 0, not 0"),
    (["--seed", "-1"], None, "seed must be >= 0, got -1"),
    ([], {"dim": "64"}, "dim must be an integer, not '64'"),
    ([], {"n_features": 0}, "n_features must be >= 1, got 0"),
    (["--dim", "16"], None, "2*28 + 2*4 != 16"),
], ids=["epochs_string", "epochs_0", "max_span_0", "negatives_negative", "lr_nan", "lr_0",
        "seed_negative", "dim_string", "n_features_0", "widths_disagree"])
def test_bad_train_settings_are_refused_before_the_corpus_is_read(
    tmp_path, capsys, flags, config, why
):
    # A usage error that names the setting, not a traceback once the corpus
    # and QA set (which do not exist) have been read.
    if config is not None:
        (tmp_path / "train.json").write_text(json.dumps(config))
        flags = [*flags, "--config", str(tmp_path / "train.json")]
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(tmp_path / "missing.jsonl"), "--qa",
              str(tmp_path / "missing_qa.jsonl"), "--out", str(tmp_path / "run"), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"phraseindex: error: {why}"
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_config_key_it_does_not_read(tmp_path, capsys):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"epoch": 3, "weight_true": 0.9, "epochs": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(tmp_path / "missing.jsonl"), "--qa",
              str(tmp_path / "missing_qa.jsonl"), "--out", str(tmp_path / "run"),
              "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith(f"phraseindex: error: --config {path}: unknown key(s) 'epoch', 'weight_true';")
    assert "learning_rate" in err and "negatives_per_paragraph" in err
    assert not (tmp_path / "run").exists()


def test_train_settings_default_to_the_training_and_encoder_defaults(monkeypatch):
    import phraseindex.cli as cli
    from phraseindex.training import TrainingConfig

    seen = []
    monkeypatch.setattr(cli, "cmd_train", lambda args: seen.append(args) or 0)
    assert main(["train", "--corpus", "c.jsonl", "--qa", "qa.jsonl", "--out", "run"]) == 0
    args = seen[0]
    assert args.train == TrainingConfig()
    assert {name: getattr(args, name) for name in cli.ENCODER_DEFAULTS} == cli.ENCODER_DEFAULTS
    assert (args.encoder.seed, args.encoder.n_features) == (0, 256)
    assert (args.encoder.config.dim, args.encoder.config.boundary_dim) == (64, 28)


def test_build_refuses_the_state_of_a_training_run_at_another_seed(tmp_path, corpus_file, capsys):
    path, corpus = corpus_file
    qa_path = _qa_of_first_two_tokens(corpus, tmp_path / "qa.jsonl")
    assert main(["train", "--corpus", str(path), "--qa", str(qa_path), "--out",
                 str(tmp_path / "run"), "--epochs", "1", "--seed", "3", *DIMS]) == 0
    state_path = tmp_path / "run" / "encoder_state.json"
    state = json.loads(state_path.read_text())
    assert {k: state[k] for k in state if k != "linear"} == {
        "seed": 3, "dim": 16, "boundary_dim": 6, "coherency_dim": 2, "n_features": 256}
    capsys.readouterr()
    rc = main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"),
               "--encoder-state", str(state_path), *DIMS])
    assert rc == 1
    assert capsys.readouterr().err == (
        f'phraseindex: error: --encoder-state {state_path}: "seed" is 3, but --seed is 0\n')
    assert not (tmp_path / "idx").exists()
    assert main(["build", "--corpus", str(path), "--out", str(tmp_path / "idx"),
                 "--encoder-state", str(state_path), "--seed", "3", *DIMS]) == 0


@pytest.mark.parametrize("change, why", [
    ({"n_features": 512}, '"n_features" is 512, but --n-features is 256'),
    ({"coherency_dim": 3}, '"coherency_dim" is 3, but --coherency-dim is 2'),
    ({"seed": True}, '"seed" is true, but --seed is 0'),
    ({"seed": 0.0}, '"seed" is 0.0, but --seed is 0'),
    ({"seed": None}, '"seed" is missing, but --seed is 0'),
    ({"dim": None, "n_features": None}, '"dim" is missing, but --dim is 16'),
], ids=["n_features", "coherency_dim", "seed_bool", "seed_float", "seed_missing", "older_state"])
def test_build_refuses_an_encoder_state_of_other_settings_before_the_corpus_is_read(
    tmp_path, capsys, change, why
):
    state = {"seed": 0, "dim": 16, "boundary_dim": 6, "coherency_dim": 2, "n_features": 256,
             "linear": np.eye(16).tolist()}
    state.update(change)
    path = tmp_path / "encoder_state.json"
    path.write_text(json.dumps({k: v for k, v in state.items() if v is not None}))
    rc = main(["build", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "idx"),
               "--encoder-state", str(path), *DIMS])
    assert rc == 1
    assert capsys.readouterr().err == f"phraseindex: error: --encoder-state {path}: {why}\n"
    assert not (tmp_path / "idx").exists()


def test_peak_rss_is_null_where_the_system_does_not_report_it(tmp_path):
    (tmp_path / "status").write_text("Name:\tpython3\nVmRSS:\t  2048 kB\n")
    assert _peak_rss_mb(tmp_path / "missing") is None
    assert _peak_rss_mb(tmp_path / "status") is None
    (tmp_path / "status").write_text("Name:\tpython3\nVmHWM:\t  51712 kB\n")
    assert _peak_rss_mb(tmp_path / "status") == 50.5


def test_the_cli_and_the_package_load_no_http_stack():
    # build, query and the benchmark's batch child import phraseindex.cli; only
    # serve and bench load the HTTP service, and the package's service
    # names resolve on first use.
    src = str(Path(phraseindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    check = (
        "import sys, phraseindex, phraseindex.cli\n"
        "assert 'http.server' not in sys.modules and 'phraseindex.service' not in sys.modules\n"
        "from phraseindex import serve, EvalReport\n"
        "import phraseindex.service as service\n"
        "assert serve is service.serve and EvalReport is service.EvalReport\n"
    )
    proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        phraseindex.no_such_name
