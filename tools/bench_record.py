"""Summarise perfbench runs into a committed BENCH_<label>.json perf record.

    python3 tools/bench_record.py RUNS_DIR LABEL [--out DIR]
    python3 tools/bench_record.py compare PARENT.json CHANGE.json

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
every `setup_s` sample compiles `src/` afresh.

`compare` reads two such records, a parent's and a change's, and prints
per workload and metric both medians and quartiles, the change in the
median, the parent's interquartile range and the pairs the change won,
runs matched by seed. A pair is won when the change's run is strictly
better in the direction that `BENCHMARK.json` at the repository root
gives the metric; a metric it does not list shows no wins. Each workload's failed share is printed for both sides.
Standard library only.
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

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
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


def _directions(benchmark: Path) -> dict[str, str]:
    """metric name -> "higher" or "lower", the benchmark file's end-to-end `better`."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def compare(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per workload both records hold: the failed shares and, per metric, the pairs won."""
    out = {}
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        old, new = parent["workloads"][workload], change["workloads"][workload]
        metrics = {}
        for name in old["metrics"]:
            if name not in new["metrics"]:
                continue
            a, b = old["metrics"][name], new["metrics"][name]
            seeds = sorted(set(a["by_seed"]) & set(b["by_seed"]), key=int)
            direction = better.get(name)
            if direction == "higher":
                wins = sum(b["by_seed"][s] > a["by_seed"][s] for s in seeds)
            elif direction == "lower":
                wins = sum(b["by_seed"][s] < a["by_seed"][s] for s in seeds)
            else:
                wins = None
            metrics[name] = {
                "parent": [a["q1"], a["median"], a["q3"]],
                "change": [b["q1"], b["median"], b["q3"]],
                "change_pct": 100.0 * (b["median"] - a["median"]) / a["median"] if a["median"] else None,
                "parent_iqr": a["q3"] - a["q1"],
                "wins": wins,
                "pairs": len(seeds),
            }
        out[workload] = {
            "failed": [[old["failed"], old["attempted"]], [new["failed"], new["attempted"]]],
            "metrics": metrics,
        }
    return out


def _format(comparison: dict) -> str:
    lines = []
    for workload, entry in comparison.items():
        (f0, a0), (f1, a1) = entry["failed"]
        lines.append(f"{workload}: failed {f0}/{a0} -> {f1}/{a1}")
        lines.append(f"  {'metric':<16} {'parent median [q1-q3]':<30} {'change median [q1-q3]':<30} {'change':>8} {'parent IQR':>11} {'won':>6}")
        for name, m in entry["metrics"].items():
            old = "{1:.4g} [{0:.4g}-{2:.4g}]".format(*m["parent"])
            new = "{1:.4g} [{0:.4g}-{2:.4g}]".format(*m["change"])
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
            won = "n/a" if m["wins"] is None else f"{m['wins']}/{m['pairs']}"
            lines.append(f"  {name:<16} {old:<30} {new:<30} {pct:>8} {m['parent_iqr']:>11.4g} {won:>6}")
    return "\n".join(lines)


def _compare_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py compare", description="Compare a change's perf record with its parent's.")
    parser.add_argument("parent", type=Path, help="the parent's BENCH_*.json")
    parser.add_argument("change", type=Path, help="the change's BENCH_*.json")
    args = parser.parse_args(argv)
    records = [json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)]
    print(_format(compare(*records, _directions(BENCHMARK))))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return _compare_main(argv[1:])
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
