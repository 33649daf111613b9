"""Command-line entry points: build, train, query, serve, and bench, the EM/F1 and latency of
every strategy on a QA set."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .corpus import load_corpus, load_qa
from .dense import EncoderConfig, ToyEncoder
from .index import BuildConfig, PhraseIndex, build_index
from .search import STRATEGIES, SearchConfig, embed_question, run_search
from .training import TrainingConfig, train_encoder


def _search_config(args) -> SearchConfig:
    return SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})


def _add_search_args(p: argparse.ArgumentParser) -> None:
    """Search flags stored under SearchConfig's field names, with its defaults."""
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--top-k", type=int)
    p.add_argument("--k-s", dest="sparse_top_docs", type=int, help="sparse-first top documents")
    p.add_argument("--k-d", dest="dense_top_starts", type=int, help="dense-first top start vectors")
    p.add_argument("--nprobe", type=int)
    p.add_argument("--sparse-scale", type=float)
    p.set_defaults(**asdict(SearchConfig()))


# The encoder flags of build and train, under the key names of train's config
# file and encoder_state.json, with their defaults.
ENCODER_DEFAULTS = {"seed": 0, "dim": 64, "boundary_dim": 28, "coherency_dim": 4, "n_features": 256}


def _add_encoder_args(p: argparse.ArgumentParser) -> None:
    for name in ENCODER_DEFAULTS:
        p.add_argument("--" + name.replace("_", "-"), type=int)


def _encoder(args) -> ToyEncoder:
    """The toy encoder of the encoder settings, which a config file can give
    as any JSON value; one that is not an integer raises a ValueError."""
    for name in ENCODER_DEFAULTS:
        value = getattr(args, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if args.n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {args.n_features}")
    config = EncoderConfig(
        dim=args.dim, boundary_dim=args.boundary_dim, coherency_dim=args.coherency_dim
    )
    return ToyEncoder(config, seed=args.seed, n_features=args.n_features)


def _train_settings(args, file_cfg: dict) -> TrainingConfig:
    """Set each train setting a flag left unset from the config file, else
    from its default, and return the TrainingConfig. A config key that names
    no setting raises a ValueError."""
    defaults = {**ENCODER_DEFAULTS, **asdict(TrainingConfig())}
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise ValueError(
            f"--config {args.config}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"the keys are {', '.join(defaults)}"
        )
    for name, default in defaults.items():
        if getattr(args, name, None) is None:
            setattr(args, name, file_cfg.get(name, default))
    return TrainingConfig(**{f.name: getattr(args, f.name) for f in fields(TrainingConfig)})


def _read_json(flag: str, path: str):
    """The JSON value in the file a flag names; a file that cannot be read or
    is not JSON raises a ValueError naming the flag and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{flag} {path}: not a JSON file (nested too deeply)") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{flag} {path}: not a JSON file") from exc


def _encoder_state_linear(path: str, args) -> np.ndarray:
    """The "linear" matrix of a training run's encoder_state.json, which must
    be a JSON object whose "linear" is a dim x dim matrix of finite numbers
    and whose encoder settings are those of the build's flags."""
    dim = args.dim
    state = _read_json("--encoder-state", path)
    rows = state.get("linear") if isinstance(state, dict) else None
    shape_ok = isinstance(rows, list) and len(rows) == dim and all(
        isinstance(row, list) and len(row) == dim
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
        for row in rows
    )
    try:
        linear = np.array(rows, dtype=float) if shape_ok else None
    except OverflowError:  # an integer beyond float range
        linear = None
    if linear is None or not np.isfinite(linear).all():
        raise ValueError(
            f'--encoder-state {path}: "linear" must be a {dim} x {dim} matrix of finite numbers'
        )
    for name in ENCODER_DEFAULTS:
        got, want = state.get(name), getattr(args, name)
        if type(got) is not int or got != want:
            shown = json.dumps(got) if name in state else "missing"
            flag = "--" + name.replace("_", "-")
            raise ValueError(f'--encoder-state {path}: "{name}" is {shown}, but {flag} is {want}')
    return linear


def _peak_rss_mb(status: Path = Path("/proc/self/status")) -> float | None:
    """This process's peak resident set (VmHWM) in MB, or None where the
    system does not report it. Unlike ru_maxrss, it does not start from the
    resident set of the process that started this one."""
    try:
        lines = status.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if line.startswith("VmHWM:"):
            return round(int(line.split()[1]) / 1024, 2)  # reported in kB
    return None


def cmd_build(args) -> int:
    encoder = args.encoder
    if args.encoder_state:
        encoder.linear = _encoder_state_linear(args.encoder_state, args)
    corpus = load_corpus(args.corpus)
    out = build_index(corpus, encoder, None, args.out, args.build)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    report = {"index": str(out), "counts": manifest["counts"], "peak_rss_mb": _peak_rss_mb()}
    print(json.dumps(report))
    return 0


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    qa = load_qa(args.qa)
    history = train_encoder(corpus, qa, args.encoder, args.train)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(json.dumps(history, indent=2) + "\n")
    state = {name: getattr(args, name) for name in ENCODER_DEFAULTS}
    state["linear"] = args.encoder.linear.tolist()
    (out / "encoder_state.json").write_text(json.dumps(state) + "\n")
    print(json.dumps({"epochs": len(history), "final": history[-1]}))
    return 0


def cmd_query(args) -> int:
    index = PhraseIndex(args.index)
    out = run_search(index, embed_question(index, args.question), args.search)
    print(json.dumps([r.as_dict() for r in out.results], indent=2))
    return 0


def cmd_serve(args) -> int:
    from .service import serve  # http.server loads only for the commands that use it

    serve(args.index, args.addr, args.search)
    return 0


def cmd_bench(args) -> int:
    from .service import benchmark

    index = PhraseIndex(args.index)
    qa = load_qa(args.qa)
    reports = benchmark(
        index, [(rec.question, rec.answers) for rec in qa], args.search
    )
    print(json.dumps({k: asdict(v) for k, v in reports.items()}, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="phraseindex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index directory from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-span", type=int, default=20)
    p.add_argument(
        "--clusters", type=int, help="IVF cells (default: ceil(4 * sqrt(start rows)))"
    )
    _add_encoder_args(p)
    p.add_argument("--encoder-state", help="encoder_state.json from a training run")
    p.set_defaults(func=cmd_build, **ENCODER_DEFAULTS)

    p = sub.add_parser("train", help="train the encoder's linear layer on a QA set")
    p.add_argument("--corpus", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of training settings; flags override it")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-span", type=int)
    _add_encoder_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("query", help="answer one question against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--question", required=True)
    _add_search_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("serve", help="run the HTTP query service")
    p.add_argument("--index", required=True)
    p.add_argument("--addr", default="127.0.0.1:8080")
    _add_search_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench", help="EM/F1, latency and throughput of every strategy on a QA set")
    p.add_argument("--index", required=True)
    p.add_argument("--qa", required=True)
    _add_search_args(p)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        # The config file is input, like the corpus: one that cannot be read is exit 1.
        file_cfg = _read_json("--config", args.config) if getattr(args, "config", None) else {}
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config {args.config}: not a JSON object")
        try:  # check a command's settings before it reads any input
            if "sparse_scale" in args:  # a command that searches
                args.search = _search_config(args)
            if args.func is cmd_build:
                args.build = BuildConfig(
                    max_span=args.max_span, seed=args.seed, ivf_clusters=args.clusters
                )
            if args.func is cmd_train:
                args.train = _train_settings(args, file_cfg)
            if "n_features" in args:  # a command that encodes
                args.encoder = _encoder(args)
        except ValueError as exc:
            parser.error(str(exc))
        return args.func(args)
    # Bad input, one line each; UnicodeDecodeError is a ValueError. Bugs still traceback.
    except (ValueError, FileNotFoundError, FileExistsError) as exc:
        print(f"phraseindex: error: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
