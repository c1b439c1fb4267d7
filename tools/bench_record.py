"""Summarise perfbench runs into a committed BENCH_<label>.json perf record.

    python3 tools/bench_record.py RUNS_DIR LABEL [--out DIR]
    python3 tools/bench_record.py compare PARENT.json CHANGE.json
    python3 tools/bench_record.py cli PARENT_CHECKOUT CHANGE_CHECKOUT [--runs N]
    python3 tools/bench_record.py bits PARENT_CHECKOUT CHANGE_CHECKOUT

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
gives the metric; a metric it does not list shows no wins and no
verdict. Each workload's failed share is printed for both sides, and
each metric gets a verdict line, read against the metric's relative
`bound` in `BENCHMARK.json`, the first that holds of:

- `gain`: the change won at least 9 in 10 of the pairs, and its median is
  better by more than the parent's interquartile range;
- `worse`: the median is worse by more than the bound;
- `unresolved`: the parent's interquartile range is wider than the bound,
  and the change did not win every pair;
- `within bound`.

`cli` times three commands in fresh interpreters, `python -m minorform`
on each checkout's `src/`: `invert --random 8`, `det --random 8` and
`validate --trials 10000 --size 5 --out F`, the last in a temporary
directory. Each command first runs once untimed on each checkout. Then
run i times it on both, the parent first where i is even and the change
first where it is odd, so the two meet the same moments of a shared
machine. Per command it prints both sides' median and quartiles in ms,
the change in the median, the parent's interquartile range and the runs
the change won, pairing run i with run i. A command's wall time is read
as a latency: the verdict line is `compare`'s, with the direction and
bound `BENCHMARK.json` gives `latency_p50_ms`. Whether bytecode writing
is off is printed too, since every run then compiles `src/`.

`bits` runs `tools/bits_outcomes.py`, the same script for both, in a
fresh interpreter per checkout with that checkout's `src/` on the path.
Per engine it prints both sides' outcome count and sha256 over the
outcomes' `repr`s, and `identical` or `differ`; it exits 1 if any engine
differs. A checkout whose script run fails ends the command.

`BENCHMARK.json` is only read. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
OUTCOMES = Path(__file__).resolve().with_name("bits_outcomes.py")
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


def _end_to_end(benchmark: Path) -> dict[str, dict]:
    """metric name -> its end-to-end entry in the benchmark file: `better` and `bound`."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def _verdict(old: float, iqr: float, new: float, wins: int, pairs: int, better: str, bound: float) -> str:
    """A metric's verdict from the parent's median and IQR, the change's median and the pairs won."""
    gained = new - old if better == "higher" else old - new
    if pairs and 10 * wins >= 9 * pairs and gained > iqr:
        return "gain"
    if -gained > bound * abs(old):
        return "worse"
    if iqr > bound * abs(old) and wins < pairs:
        return "unresolved"
    return "within bound"


def _entry(a: dict, b: dict, wins: int | None, pairs: int, spec: dict) -> dict:
    """One metric's line from both sides' quartiles, the pairs won and its end-to-end entry."""
    iqr = a["q3"] - a["q1"]
    return {
        "parent": [a["q1"], a["median"], a["q3"]],
        "change": [b["q1"], b["median"], b["q3"]],
        "change_pct": 100.0 * (b["median"] - a["median"]) / a["median"] if a["median"] else None,
        "parent_iqr": iqr,
        "wins": wins,
        "pairs": pairs,
        "verdict": None if wins is None else _verdict(
            a["median"], iqr, b["median"], wins, pairs, spec["better"], spec["bound"]
        ),
    }


def compare(parent: dict, change: dict, end_to_end: dict[str, dict]) -> dict:
    """Per workload both records hold: the failed shares and, per metric, the pairs won and the verdict."""
    out = {}
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        old, new = parent["workloads"][workload], change["workloads"][workload]
        metrics = {}
        for name in old["metrics"]:
            if name not in new["metrics"]:
                continue
            a, b = old["metrics"][name], new["metrics"][name]
            seeds = sorted(set(a["by_seed"]) & set(b["by_seed"]), key=int)
            spec = end_to_end.get(name, {})
            direction = spec.get("better")
            if direction == "higher":
                wins = sum(b["by_seed"][s] > a["by_seed"][s] for s in seeds)
            elif direction == "lower":
                wins = sum(b["by_seed"][s] < a["by_seed"][s] for s in seeds)
            else:
                wins = None
            metrics[name] = _entry(a, b, wins, len(seeds), spec)
        out[workload] = {
            "failed": [[old["failed"], old["attempted"]], [new["failed"], new["attempted"]]],
            "metrics": metrics,
        }
    return out


def _spread(quartiles: list[float]) -> str:
    return "{1:.4g} [{0:.4g}-{2:.4g}]".format(*quartiles)


def _format(comparison: dict) -> str:
    lines = []
    for workload, entry in comparison.items():
        (f0, a0), (f1, a1) = entry["failed"]
        lines.append(f"{workload}: failed {f0}/{a0} -> {f1}/{a1}")
        lines.append(f"  {'metric':<16} {'parent median [q1-q3]':<30} {'change median [q1-q3]':<30} {'change':>8} {'parent IQR':>11} {'won':>6}")
        for name, m in entry["metrics"].items():
            old, new = _spread(m["parent"]), _spread(m["change"])
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
            won = "n/a" if m["wins"] is None else f"{m['wins']}/{m['pairs']}"
            lines.append(f"  {name:<16} {old:<30} {new:<30} {pct:>8} {m['parent_iqr']:>11.4g} {won:>6}")
        for name, m in entry["metrics"].items():
            if m["verdict"] is not None:
                lines.append(f"  verdict {name}: {m['verdict']}")
    return "\n".join(lines)


def _compare_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py compare", description="Compare a change's perf record with its parent's.")
    parser.add_argument("parent", type=Path, help="the parent's BENCH_*.json")
    parser.add_argument("change", type=Path, help="the change's BENCH_*.json")
    args = parser.parse_args(argv)
    records = [json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)]
    print(_format(compare(*records, _end_to_end(BENCHMARK))))
    return 0


CLI_COMMANDS = (
    ("invert", "--random", "8"),
    ("det", "--random", "8"),
    ("validate", "--trials", "10000", "--size", "5", "--out", "F"),
)


def _time_command(checkout: Path, argv: tuple[str, ...], workdir: Path) -> float:
    """Wall seconds of `python -m minorform argv` in a fresh interpreter on checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "minorform", *argv], cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    elapsed = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"bench_record: {' '.join(argv)} exited {done.returncode} on {checkout}: {done.stderr.strip()}")
    return elapsed


def time_cli(parent: Path, change: Path, runs: int, run) -> dict[str, dict[str, list[float]]]:
    """{command: {"parent": seconds by run, "change": seconds by run}}, the checkouts alternating.

    run(checkout, argv, workdir) times one command; the first run of each
    command on each checkout is not kept.
    """
    sides = {"parent": parent, "change": change}
    times = {}
    with tempfile.TemporaryDirectory() as workdir:
        for argv in CLI_COMMANDS:
            for checkout in sides.values():
                run(checkout, argv, Path(workdir))
            kept: dict[str, list[float]] = {"parent": [], "change": []}
            for i in range(runs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    kept[side].append(run(sides[side], argv, Path(workdir)))
            times[" ".join(argv)] = kept
    return times


def compare_cli(times: dict[str, dict[str, list[float]]], latency: dict) -> dict:
    """Per command, in ms: both sides' quartiles, the change, the parent's IQR, the runs won and the verdict."""
    out = {}
    for command, sides in times.items():
        old, new = ([1e3 * t for t in sides[side]] for side in ("parent", "change"))
        wins = sum(y < x if latency["better"] == "lower" else y > x for x, y in zip(old, new))
        out[command] = _entry(_quartiles(old), _quartiles(new), wins, len(old), latency)
    return out


def _format_cli(comparison: dict) -> str:
    off = "off" if sys.flags.dont_write_bytecode else "on"
    lines = [f"cli: python {platform.python_version()}, bytecode writing {off}, times in ms"]
    for command, m in comparison.items():
        old, new = _spread(m["parent"]), _spread(m["change"])
        lines.append(f"  {command}")
        lines.append(
            f"    parent {old}  change {new}  {m['change_pct']:+.1f}%  parent IQR {m['parent_iqr']:.4g}"
            f"  won {m['wins']}/{m['pairs']}  verdict: {m['verdict']}"
        )
    return "\n".join(lines)


def _cli_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py cli", description="Time three CLI commands on a checkout and its parent.")
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--runs", type=int, default=10, help="timed runs per command and checkout")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    latency = _end_to_end(BENCHMARK)["latency_p50_ms"]
    print(_format_cli(compare_cli(time_cli(args.parent, args.change, args.runs, _time_command), latency)))
    return 0


def outcome_hashes(checkout: Path) -> dict[str, list]:
    """{engine: [outcome count, sha256]} from `bits_outcomes.py` on checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run([sys.executable, str(OUTCOMES)], env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"bench_record: {OUTCOMES.name} exited {done.returncode} on {checkout}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def _bits_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py bits", description="Compare every engine outcome of two checkouts bit for bit.")
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    args = parser.parse_args(argv)
    old, new = outcome_hashes(args.parent), outcome_hashes(args.change)
    for engine, (count, sha) in old.items():
        verdict = "identical" if new[engine] == [count, sha] else "differ"
        print(f"{engine}: parent {count} {sha}  change {new[engine][0]} {new[engine][1]}  {verdict}")
    return int(old != new)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["bits"]:
        return _bits_main(argv[1:])
    if argv[:1] == ["compare"]:
        return _compare_main(argv[1:])
    if argv[:1] == ["cli"]:
        return _cli_main(argv[1:])
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
