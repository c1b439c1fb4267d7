"""Summarise perfbench runs into a committed BENCH_<label>.json perf record.

    python3 tools/bench_record.py RUNS_DIR LABEL [--out DIR]

RUNS_DIR is the `.perfbench_runs` directory that one or more
`perfbench/run.py --trace 0` runs left at the root of a checkout. Every
`<workload>-seed<N>-trace0.json` file in it is one run. The record holds,
per workload, the seeds and the median and quartiles of each end-to-end
metric over those runs, next to each run's value keyed by its seed, with
the operations attempted and failed. Two records whose runs share seeds
pair run for run, so the pairs a change wins over its parent can be
counted from them. The record also holds the checkout's commit (`git
rev-parse HEAD`), its `src/` line count, the Python version that wrote
the record and whether that interpreter ran with bytecode writing off
(`PYTHONDONTWRITEBYTECODE` or `-B`). perfbench's interpreters started
from the same shell inherit that setting, and without a bytecode cache
every `setup_s` sample compiles `src/` afresh. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN_FILE = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json")


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        (v,) = values
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _commit(checkout: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _src_lines(checkout: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((checkout / "src").rglob("*.py")))


def summarise(runs_dir: Path, label: str) -> dict:
    """The perf record of every trace-0 run file in runs_dir."""
    runs: dict[str, list[tuple[int, dict]]] = {}
    for path in sorted(runs_dir.iterdir()):
        match = RUN_FILE.fullmatch(path.name)
        if match:
            raw = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], []).append((int(match["seed"]), raw))
    if not runs:
        raise SystemExit(f"bench_record: no <workload>-seed<N>-trace0.json files in {runs_dir}")
    workloads = {}
    for workload, seeded in sorted(runs.items()):
        seeded.sort(key=lambda item: item[0])
        results = [raw["result"] for _, raw in seeded]
        names = results[0]["metrics"]
        workloads[workload] = {
            "seeds": [seed for seed, _ in seeded],
            "seconds": sorted({raw["args"]["seconds"] for _, raw in seeded}),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "metrics": {
                name: {
                    "unit": names[name]["unit"],
                    **_quartiles([r["metrics"][name]["value"] for r in results]),
                    "by_seed": {str(seed): raw["result"]["metrics"][name]["value"] for seed, raw in seeded},
                }
                for name in names
            },
        }
    checkout = runs_dir.resolve().parent
    return {
        "label": label,
        "commit": _commit(checkout),
        "python": platform.python_version(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "src_lines": _src_lines(checkout),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs_dir", type=Path, help="a checkout's .perfbench_runs directory")
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory to write to")
    args = parser.parse_args(argv)
    record = summarise(args.runs_dir, args.label)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
