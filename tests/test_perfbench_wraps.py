"""The benchmark's tracer wraps program names; each must still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    # a refactor that renames or drops one fails here, not in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module, attr, name in spans.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
