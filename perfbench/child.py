"""One measured process, started by `run.py` in a fresh interpreter.

    python3 perfbench/child.py setup   WORKLOAD SEED TRACE
    python3 perfbench/child.py measure WORKLOAD SEED TRACE SECONDS OPS_FILE

`setup` times `import minorform` and the workload's first, cold operation,
with reference samples (`reference.py`) before and after, and prints one
JSON line. `measure` runs one warm-up round, then a closed loop with one
client for SECONDS in whole rounds: each operation starts when the
previous one ends, and only the program call is timed. One reference
sample is timed before the first operation and one after each operation,
outside the operation's time. It writes one JSON line per operation to
OPS_FILE, with its latency, the reference sample after it and its output,
and a last line with totals: the peak resident set size untraced, the
span aggregates traced. Nothing accumulates in this process while it measures.
The checks run in the parent process afterwards, so this one never
imports numpy, and it imports nothing ahead of the timed package import
that the package would import itself.
"""

import os
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_runs")

# The module each workload needs before its first operation.
ENTRY_MODULE = {"mc-closed5": "minorform", "telescope6": "minorform", "cli-invert3": "minorform.cli"}

# Traced rounds of each other workload after a traced loop (see _probe).
PROBE_ROUNDS = 4

# Reference samples timed before the import and after the cold operation
# of a set-up interpreter.
SETUP_REFS = 5


def _timed(wl, prepared):
    start = time.perf_counter()
    try:
        result = wl.run(prepared)
    except Exception as exc:  # a program fault: counted as a failed op
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, result


def _record(wl, op, latency: float, result, ref: float) -> dict:
    if isinstance(result, Exception):
        return {"lat": latency, "ref": ref, "ok": False, "out": {"op": op, "error": repr(result)}}
    ok, out = wl.record(op, result)
    return {"lat": latency, "ref": ref, "ok": ok, "out": out}


def _workload(name: str):
    from pathlib import Path

    import workloads

    return workloads.make(name, Path(SCRATCH))


def setup(name: str, seed: int, trace: bool) -> None:
    refs = [reference.timed() for _ in range(SETUP_REFS)]
    start = time.perf_counter()
    __import__(ENTRY_MODULE[name])
    import_s = time.perf_counter() - start
    import json

    wl = _workload(name)
    prepared = wl.prepare(wl.round(seed, "setup")[0])
    first_s = None
    if trace:
        import spans

        with spans.Tracer() as tracer:
            latency, result = _timed(wl, prepared)
        first_s = tracer.first(wl.entry)
    else:
        latency, result = _timed(wl, prepared)
    if isinstance(result, Exception):
        raise result
    refs += [reference.timed() for _ in range(SETUP_REFS)]
    print(json.dumps({"import_s": import_s, "op_s": latency, "first_call_s": first_s, "ref_s": refs}))


def _loop(wl, seed: int, seconds: float, emit) -> tuple[int, float, float]:
    """Ops attempted, busy seconds and the reference sample before the first op."""
    rounds = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    ref0 = reference.timed()
    while True:
        for op in wl.round(seed, rounds):
            latency, result = _timed(wl, wl.prepare(op))
            busy += latency
            emit(_record(wl, op, latency, result, reference.timed()))
        rounds += 1
        if time.perf_counter() >= deadline:
            return rounds * wl.round_size, busy, ref0


def _probe(names: list, seed: int) -> tuple[dict, dict]:
    """Traced rounds of each other workload, for layers the measured one never calls.

    Returns the span aggregates and the reference samples of each workload.
    """
    import spans

    probes = {}
    refs = {}
    for name in names:
        wl = _workload(name)
        for op in wl.round(seed, "probe-warm"):
            _timed(wl, wl.prepare(op))
        refs[name] = [reference.timed()]
        with spans.Tracer() as tracer:
            for r in range(PROBE_ROUNDS):
                for op in wl.round(seed, f"probe{r}"):
                    _timed(wl, wl.prepare(op))
                    refs[name].append(reference.timed())
        probes[name] = tracer.summary()
    return probes, refs


def measure(name: str, seed: int, trace: bool, seconds: float, ops_file: str) -> None:
    import json
    import resource

    import workloads

    wl = _workload(name)
    for op in wl.round(seed, "warm"):
        _timed(wl, wl.prepare(op))
    with open(ops_file, "w", encoding="utf-8") as out:
        def emit(obj: dict) -> None:
            out.write(json.dumps(obj) + "\n")

        if not trace:
            ops, busy, ref0 = _loop(wl, seed, seconds, emit)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            emit({"end": True, "ops": ops, "busy_s": busy, "ref0_s": ref0, "peak_rss_kib": peak_kib})
            return
        import spans

        with spans.Tracer() as tracer:
            ops, busy, ref0 = _loop(wl, seed, seconds, emit)
        others = [n for n in workloads.NAMES if n != name]
        probes, probe_refs = _probe(others, seed)
        emit({
            "end": True,
            "ops": ops,
            "busy_s": busy,
            "ref0_s": ref0,
            "spans": tracer.summary(),
            "probes": probes,
            "probe_refs_s": probe_refs,
        })


def main() -> None:
    mode, name, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(SCRATCH, exist_ok=True)
    if mode == "setup":
        setup(name, seed, trace)
    else:
        measure(name, seed, trace, float(sys.argv[5]), sys.argv[6])


if __name__ == "__main__":
    main()
