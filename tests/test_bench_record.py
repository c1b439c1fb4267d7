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


def bench_record_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_alternates_the_checkouts_and_drops_each_first_run(tmp_path):
    tool = bench_record_module()
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def run(checkout, argv, workdir):
        calls.append((checkout.name, argv[0]))
        assert workdir.is_dir()
        # a side's k-th call on a command reads 100 + k ms; the parent's are 10 ms slower
        k = sum(c == (checkout.name, argv[0]) for c in calls)
        return (100 + k + (10 if checkout == parent else 0)) / 1e3

    times = tool.time_cli(parent, change, 3, run)
    assert list(times) == [" ".join(argv) for argv in tool.CLI_COMMANDS]
    assert list(times)[-1] == "validate --trials 10000 --size 5 --out F"
    for command in ("invert", "det", "validate"):
        sides = [side for side, name in calls if name == command]
        # one untimed run each, then parent first on even runs, change first on odd ones
        assert sides == ["parent", "change", "parent", "change", "change", "parent", "parent", "change"]
    invert = times["invert --random 8"]
    assert [round(t * 1e3, 6) for t in invert["parent"]] == [112, 113, 114]
    assert [round(t * 1e3, 6) for t in invert["change"]] == [102, 103, 104]


def test_cli_compares_in_ms_against_the_latency_bound(tmp_path):
    tool = bench_record_module()
    latency = {"better": "lower", "bound": 0.25}
    ten = [0.100 + 0.001 * i for i in range(10)]  # 100..109 ms: median 104.5, IQR 4.5
    out = tool.compare_cli({
        "faster": {"parent": ten, "change": [t - 0.010 for t in ten]},
        "slower": {"parent": ten, "change": [t + 0.030 for t in ten]},
        "same": {"parent": ten, "change": ten},
    }, latency)
    faster = out["faster"]
    assert [round(v, 6) for v in faster["parent"]] == [102.25, 104.5, 106.75]
    assert [round(v, 6) for v in faster["change"]] == [92.25, 94.5, 96.75]
    assert (faster["wins"], faster["pairs"], faster["verdict"]) == (10, 10, "gain")
    assert round(faster["parent_iqr"], 6) == 4.5
    # 30 ms on 104.5 is +28.7%, beyond the 25% bound
    assert (out["slower"]["wins"], out["slower"]["verdict"]) == (0, "worse")
    assert round(out["slower"]["change_pct"], 1) == 28.7
    # a tie is not a win
    assert (out["same"]["wins"], out["same"]["verdict"]) == (0, "within bound")


def test_cli_reads_the_latency_bound_and_leaves_benchmark_json_as_it_was(tmp_path, monkeypatch, capsys):
    tool = bench_record_module()
    before = tool.BENCHMARK.read_bytes()
    monkeypatch.setattr(tool, "_time_command", lambda checkout, argv, workdir: 0.1 if checkout.name == "a" else 0.2)
    assert tool.main(["cli", str(tmp_path / "a"), str(tmp_path / "b"), "--runs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("cli: python ") and out[0].endswith(", times in ms")
    assert out[1:3] == ["  invert --random 8", "    parent 100 [100-100]  change 200 [200-200]  +100.0%  parent IQR 0  won 0/2  verdict: worse"]
    assert tool.BENCHMARK.read_bytes() == before


STUB_MATRICES = """
class Matrix:
    def __init__(self, n, data):
        self.n, self.data = n, data
"""

STUB_DISCRETE = """
from enum import Enum


class ReprKind(Enum):
    DIRECT = "direct"
    GAMMA = "gamma"
"""

STUB_ENGINES = """
import warnings

from .discrete import ReprKind


def general_det(a):
    return a.data[0] {sign} a.data[1]


def general_inverse(a):
    warnings.warn("tiny", UserWarning)
    return a.data[::-1]


def element_inverse(a, p, q):
    return a.data[(p - 1) * a.n + q - 1]


def closed_form_det(a, repr_kind=ReprKind.DIRECT):
    if a.n > 5:
        raise ValueError(f"size {{a.n}}")
    return a.data[0] if repr_kind is ReprKind.DIRECT else a.data[-1]


def expand_terms(n):
    return tuple(range(n))


closed_form_inverse = general_inverse
"""


def stub_checkout(root, sign):
    package = root / "src" / "minorform"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "matrices.py").write_text(STUB_MATRICES)
    (package / "discrete.py").write_text(STUB_DISCRETE)
    (package / "engines.py").write_text(STUB_ENGINES.format(sign=sign))
    return root


def bits_lines(*checkouts):
    done = subprocess.run([sys.executable, str(SCRIPT), "bits", *map(str, checkouts)], capture_output=True, text=True)
    return done.returncode, {line.split(":")[0]: line.split() for line in done.stdout.splitlines()}


def test_bits_reads_one_flipped_sign_as_differ(tmp_path):
    parent, change = stub_checkout(tmp_path / "parent", "-"), stub_checkout(tmp_path / "change", "+")
    code, lines = bits_lines(parent, change)
    assert code == 1
    names = ["closed_form_det", "closed_form_det/gamma", "closed_form_inverse", "element_inverse", "expand_terms", "general_det", "general_inverse"]
    assert sorted(lines) == names
    # 64 draws per size n = 2..8, element_inverse at each of their n^2
    # entries, closed_form_det under each encoding but direct, and one
    # expansion per size
    assert [lines[name][2] for name in names] == ["448", "448", "448", "12992", "7", "448", "448"]
    assert lines["general_det"][-1] == "differ" and lines["general_det"][3] != lines["general_det"][6]
    assert [lines[name][-1] for name in names if name != "general_det"] == ["identical"] * 6
    code, lines = bits_lines(parent, parent)
    assert code == 0 and [line[-1] for line in lines.values()] == ["identical"] * 7


def test_an_outcome_is_the_value_and_its_warnings_or_the_exception():
    import importlib.util
    import warnings

    spec = importlib.util.spec_from_file_location("bits_outcomes", SCRIPT.with_name("bits_outcomes.py"))
    outcomes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outcomes)

    def warned():
        warnings.warn("tiny", UserWarning)
        return -0.0

    assert outcomes.outcome(warned) == repr((-0.0, [("UserWarning", "tiny")]))
    assert outcomes.outcome(lambda: 1 / 0) == repr(("ZeroDivisionError", "division by zero"))
    assert outcomes.outcome(complex, 0.0) != outcomes.outcome(complex, -0.0)


def test_the_harness_sets_hash_draws_and_reports_without_an_exception():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bits_outcomes", SCRIPT.with_name("bits_outcomes.py"))
    outcomes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outcomes)
    texts = {}
    outcomes.record_harness(lambda name, text: texts.setdefault(name, []).append(text))
    # n = 1..8 on four seeds, real and complex; four harness configurations
    assert {name: len(found) for name, found in texts.items()} == {"random_matrix": 64, "run_trials": 4}
    # a value with no warnings, never an exception's (name, message)
    assert all(text.endswith(", [])") for found in texts.values() for text in found)
    assert all('"redraws": ' in text and "bin_lo_db,bin_hi_db,count" in text for text in texts["run_trials"])
