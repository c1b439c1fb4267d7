"""The benchmark's tracer wraps program names; each must still exist, and a
traced round of each workload must call every span the traced run reads."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    # a refactor that renames or drops one fails here, not in a traced run
    spans = _load("spans")
    assert spans.WRAPS
    for module, attr, name in spans.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_a_traced_round_calls_every_span_the_traced_run_reads(monkeypatch, tmp_path):
    # `--trace 1` raises KeyError when no workload calls a span it reads, and
    # its setup reads the first call of each workload's entry span
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings, as child.py does
    spans, workloads, run = _load("spans"), _load("workloads"), _load("run")
    called = set()
    for name in workloads.NAMES:
        wl = workloads.make(name, tmp_path)
        with spans.Tracer() as tracer:
            for op in wl.round(1, 0):
                wl.run(wl.prepare(op))
        seen = tracer.summary()
        assert wl.entry in seen, f"{name} never calls its entry span {wl.entry}"
        called |= set(seen)
    read = {span for _, span in run.PER_CALL_US} | {span for _, span, _ in run.SELF_PER_CALL}
    assert read <= called, f"no workload calls {sorted(read - called)}"
