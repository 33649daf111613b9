"""Query child for the in-process workload: the `eval` path, one question at a time.

Usage: python3 batch.py --index DIR --questions FILE --strategy S --top-k K --out FILE

Prints ``ready`` once the index is open, then reads one command from stdin:
``run <seconds> <warmup> <start>`` answers the first <warmup> questions
untimed, then times `embed_question` + `run_search` per question from
question <start> on, until <seconds> pass or the questions run out, and writes the samples and the loop's wall time to --out as JSON. Any other
line (or end of input) exits at once.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from phraseindex.index import PhraseIndex
from phraseindex.search import SearchConfig, embed_question, run_search

from check import result_dicts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--index", required=True)
    parser.add_argument("--questions", required=True)
    parser.add_argument("--strategy", required=True)
    parser.add_argument("--top-k", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    index = PhraseIndex(args.index)
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds, warmup, start = float(command[1]), int(command[2]), int(command[3])
    questions = [json.loads(line)["question"] for line in open(args.questions, encoding="utf-8")]
    config = SearchConfig(strategy=args.strategy, top_k=args.top_k)
    for q in questions[:warmup]:
        run_search(index, embed_question(index, q), config)

    samples = []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    for q in questions[start:]:
        t0 = time.perf_counter()
        if t0 >= t_end:
            break
        sample = {"question": q, "error": ""}
        try:
            out = run_search(index, embed_question(index, q), config)
            sample.update(results=result_dicts(out), docs_visited=out.docs_visited)
        except Exception as exc:  # a failed query is counted, not fatal
            sample["error"] = repr(exc)
        sample["latency_ms"] = (time.perf_counter() - t0) * 1e3
        samples.append(sample)
    elapsed = time.perf_counter() - t_start
    Path(args.out).write_text(json.dumps({"elapsed_s": elapsed, "samples": samples}), encoding="utf-8")
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
