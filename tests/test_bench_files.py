"""The committed BENCH_*.json files: each parses, and on each side of each
corpus the per-section bytes per token add up to the total."""

import json
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_section_bytes_add_up_to_the_total(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    corpora = bench["section_bytes_per_token"]["corpora"]
    assert corpora
    for sides in corpora.values():
        assert set(sides) == {"parent", "change"}
        for side in sides.values():
            total = sum(side["bytes_per_token"].values())
            assert abs(total - side["total_bytes_per_token"]) <= 0.01
