"""The benchmark's ``--trace 1`` mode wraps functions named in
``perfbench/spans.py``; a renamed or removed function would break it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, name in spans.TARGETS:
        fn = getattr(importlib.import_module(f"gaudin.{module}"), name, None)
        assert callable(fn), f"gaudin.{module}.{name}"
