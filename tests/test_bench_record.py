"""tools/bench_record.py on synthetic perfbench run files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def run_file(seed, ops_per_s, failed):
    metrics = {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": 20.0 + seed, "unit": "MB"},
    }
    result = {"correct": True, "attempted": 32, "failed": failed, "metrics": metrics}
    return json.dumps({"args": {"workload": "w", "seed": seed, "seconds": 30.0, "trace": 0}, "result": result})


def test_record_holds_quartiles_seeds_and_provenance(tmp_path):
    runs = tmp_path / ".perfbench_runs"
    runs.mkdir()
    for seed, ops in [(3, 30.0), (1, 10.0), (2, 20.0)]:
        (runs / f"w-seed{seed}-trace0.json").write_text(run_file(seed, ops, failed=seed % 2))
    (runs / "w-seed1-trace1.json").write_text("not a trace-0 run")
    (runs / "w-trace0-ops.jsonl").write_text("")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("a = 1\nb = 2\n")
    out = tmp_path / "out"
    out.mkdir()

    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(runs), "label", "--out", str(out)],
        capture_output=True, text=True, check=True,
    )

    record = json.loads((out / "BENCH_label.json").read_text())
    assert done.stdout.strip() == str(out / "BENCH_label.json")
    assert record["label"] == "label" and record["src_lines"] == 2
    assert record["python"].count(".") == 2
    w = record["workloads"]["w"]
    assert w["seeds"] == [1, 2, 3] and w["seconds"] == [30.0]
    assert (w["attempted"], w["failed"], w["all_correct"]) == (96, 2, True)
    assert w["metrics"]["ops_per_s"] == {
        "unit": "1/s", "q1": 15.0, "median": 20.0, "q3": 25.0, "by_seed": {"1": 10.0, "2": 20.0, "3": 30.0},
    }
    assert w["metrics"]["peak_rss_mb"]["median"] == 22.0
    assert w["metrics"]["peak_rss_mb"]["by_seed"] == {"1": 21.0, "2": 22.0, "3": 23.0}


def test_an_empty_runs_directory_is_refused(tmp_path):
    runs = tmp_path / ".perfbench_runs"
    runs.mkdir()
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(runs), "x", "--out", str(tmp_path)], capture_output=True, text=True
    )
    assert done.returncode != 0 and "no <workload>-seed<N>-trace0.json files" in done.stderr
    assert not (tmp_path / "BENCH_x.json").exists()


@pytest.mark.parametrize("dont_write", [False, True])
def test_record_notes_whether_bytecode_could_be_written(tmp_path, dont_write):
    runs = tmp_path / ".perfbench_runs"
    runs.mkdir()
    (runs / "w-seed1-trace0.json").write_text(run_file(1, 10.0, failed=0))
    (tmp_path / "src").mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if dont_write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    subprocess.run(
        [sys.executable, str(SCRIPT), str(runs), "b", "--out", str(tmp_path)], env=env, capture_output=True, check=True
    )
    assert json.loads((tmp_path / "BENCH_b.json").read_text())["dont_write_bytecode"] is dont_write


def record_of(tmp_path, name, runs):
    # runs: {workload: [(seed, {metric: value}, failed)]}, summarised by the tool itself
    runs_dir = tmp_path / name / ".perfbench_runs"
    runs_dir.mkdir(parents=True)
    (tmp_path / name / "src").mkdir()
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "rss_mb": "MB"}
    for workload, seeded in runs.items():
        for seed, values, failed in seeded:
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            result = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
            (runs_dir / f"{workload}-seed{seed}-trace0.json").write_text(
                json.dumps({"args": {"seconds": 30.0}, "result": result})
            )
    subprocess.run(
        [sys.executable, str(SCRIPT), str(runs_dir), name, "--out", str(tmp_path)], capture_output=True, check=True
    )
    return tmp_path / f"BENCH_{name}.json"


def compare_output(tmp_path):
    parent = record_of(tmp_path, "parent", {
        "w": [
            (1, {"ops_per_s": 10.0, "latency_p50_ms": 1.0, "rss_mb": 5.0}, 0),
            (2, {"ops_per_s": 20.0, "latency_p50_ms": 2.0, "rss_mb": 5.0}, 1),
            (3, {"ops_per_s": 30.0, "latency_p50_ms": 3.0, "rss_mb": 5.0}, 0),
            (4, {"ops_per_s": 40.0, "latency_p50_ms": 4.0, "rss_mb": 5.0}, 0),
        ],
        "only-in-parent": [(1, {"ops_per_s": 1.0}, 0)],
    })
    change = record_of(tmp_path, "change", {
        "w": [
            (1, {"ops_per_s": 11.0, "latency_p50_ms": 0.5, "rss_mb": 6.0}, 0),
            (2, {"ops_per_s": 19.0, "latency_p50_ms": 2.0, "rss_mb": 6.0}, 0),
            (3, {"ops_per_s": 31.0, "latency_p50_ms": 3.5, "rss_mb": 6.0}, 2),
            (5, {"ops_per_s": 99.0, "latency_p50_ms": 0.1, "rss_mb": 6.0}, 0),
        ],
    })
    # BENCHMARK.json gives ops_per_s "higher" and latency_p50_ms "lower", and lists no rss_mb
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "compare", str(parent), str(change)],
        capture_output=True, text=True, check=True,
    )
    return {line.split()[0]: line.split() for line in done.stdout.splitlines()}


def test_compare_counts_the_pairs_won_by_seed_in_each_metrics_direction(tmp_path):
    lines = compare_output(tmp_path)
    assert "only-in-parent:" not in lines
    assert lines["w:"] == ["w:", "failed", "1/400", "->", "2/400"]
    # seeds 1-3 pair up; 4 and 5 are in one record only
    ops = lines["ops_per_s"]
    assert ops[-1] == "2/3"
    # a tie is not a win
    assert lines["latency_p50_ms"][-1] == "1/3"
    # a metric BENCHMARK.json does not list has no direction
    assert lines["rss_mb"][-1] == "n/a"


def test_compare_prints_both_medians_quartiles_the_change_and_the_parents_iqr(tmp_path):
    ops = compare_output(tmp_path)["ops_per_s"]
    # parent 10, 20, 30, 40: quartiles 17.5, 25, 32.5; change 11, 19, 31, 99: 17, 25, 48
    assert ops[1:] == ["25", "[17.5-32.5]", "25", "[17-48]", "+0.0%", "15", "2/3"]
    rss = compare_output(tmp_path / "again")["rss_mb"]
    assert rss[1:6] == ["5", "[5-5]", "6", "[6-6]", "+20.0%"]


def verdicts(tmp_path, parent_runs, change_runs):
    # {workload: {metric: verdict}} from compare's verdict lines
    parent = record_of(tmp_path, "parent", parent_runs)
    change = record_of(tmp_path, "change", change_runs)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "compare", str(parent), str(change)],
        capture_output=True, text=True, check=True,
    )
    out = {}
    for line in done.stdout.splitlines():
        if not line.startswith(" "):
            workload = out.setdefault(line.split(":")[0], {})
        elif line.split()[0] == "verdict":
            name, _, said = line.split(None, 1)[1].partition(": ")
            workload[name] = said
    return out


def ten_runs(ops, latency):
    runs = zip(range(1, 11), ops, latency)
    return [(seed, {"ops_per_s": o, "latency_p50_ms": p, "rss_mb": 5.0}, 0) for seed, o, p in runs]


STEADY_OPS = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
STEADY_LATENCY = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045
WIDE_LATENCY = [0.5 + 0.1 * i for i in range(10)]  # median 0.95, IQR 0.45: wider than the 0.25 bound


def test_compare_gives_each_listed_metric_a_verdict_against_its_bound(tmp_path):
    said = verdicts(tmp_path, {
        "gain": ten_runs(STEADY_OPS, STEADY_LATENCY),
        "nine": ten_runs(STEADY_OPS, STEADY_LATENCY),
        "eight": ten_runs(STEADY_OPS, WIDE_LATENCY),
        "wide": ten_runs(STEADY_OPS, WIDE_LATENCY),
    }, {
        # every pair won, by more than the parent's IQR; latency unchanged
        "gain": ten_runs([o + 20 for o in STEADY_OPS], STEADY_LATENCY),
        # 9 of 10 pairs won is enough; latency 30% worse, its bound is 25%
        "nine": ten_runs(
            [o - 1 if i == 0 else o + 10 for i, o in enumerate(STEADY_OPS)], [1.3 * p for p in STEADY_LATENCY]
        ),
        # 8 of 10 is not; the wide latency is unresolved, as two pairs are lost
        "eight": ten_runs(
            [o - 1 if i < 2 else o + 10 for i, o in enumerate(STEADY_OPS)],
            [p + 0.01 if i < 2 else p - 0.01 for i, p in enumerate(WIDE_LATENCY)],
        ),
        # every wide-latency pair won, by less than the IQR; ops 30% worse
        "wide": ten_runs([0.7 * o for o in STEADY_OPS], [p - 0.01 for p in WIDE_LATENCY]),
    })
    # BENCHMARK.json lists no rss_mb, so it gets no verdict
    assert said == {
        "gain": {"ops_per_s": "gain", "latency_p50_ms": "within bound"},
        "nine": {"ops_per_s": "gain", "latency_p50_ms": "worse"},
        "eight": {"ops_per_s": "within bound", "latency_p50_ms": "unresolved"},
        "wide": {"ops_per_s": "worse", "latency_p50_ms": "within bound"},
    }


def test_a_worse_median_beyond_the_bound_is_worse_even_when_unresolved(tmp_path):
    said = verdicts(
        tmp_path,
        {"w": ten_runs(STEADY_OPS, WIDE_LATENCY)},
        {"w": ten_runs(STEADY_OPS, [p + 0.3 for p in WIDE_LATENCY])},
    )
    assert said == {"w": {"ops_per_s": "within bound", "latency_p50_ms": "worse"}}


def test_compare_reads_the_benchmark_file_and_never_writes_it(tmp_path):
    benchmark = SCRIPT.parents[1] / "BENCHMARK.json"
    before = benchmark.read_bytes(), benchmark.stat().st_mtime_ns
    verdicts(tmp_path, {"w": ten_runs(STEADY_OPS, STEADY_LATENCY)}, {"w": ten_runs(STEADY_OPS, STEADY_LATENCY)})
    assert (benchmark.read_bytes(), benchmark.stat().st_mtime_ns) == before
