"""The names that perfbench/tracing.py wraps must exist in phraseindex."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # Tracer.install takes a class's attribute from the class's own __dict__
    # and a module's with getattr. A traced name that is renamed or deleted
    # fails here, not only in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    targets = tracing.phraseindex_targets()
    assert len(targets) > 10
    for owner, attr, name, _ in targets:
        if isinstance(owner, type):
            assert attr in owner.__dict__, name
            value = owner.__dict__[attr]
        else:
            value = getattr(owner, attr, None)
        assert callable(value), name
