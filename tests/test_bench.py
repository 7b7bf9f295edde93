"""The benchmark's traced run wraps cartanforge functions by name."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def test_every_traced_target_resolves():
    # bench/spans.py getattr()s each (module, attr[, method]); a renamed or
    # deleted one fails the traced run
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, *path in spans.TARGETS:
        obj = importlib.import_module(f"cartanforge.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), (module, *path)
