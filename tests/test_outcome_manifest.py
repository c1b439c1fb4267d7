"""Every engine, harness and matrix I/O outcome matches the committed manifest.

`tests/golden/bits_outcomes.json` is the output of `tools/bits_outcomes.py`
on `src/`. A change meant to move outcomes rewrites it with

    PYTHONPATH=src python3 tools/bits_outcomes.py > tests/golden/bits_outcomes.json

and names each changed set, and why, in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import minorform

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "bits_outcomes.json"
SCRIPT = ROOT / "tools" / "bits_outcomes.py"


def set_differences(expected: dict, found: dict) -> list[str]:
    """One line per set, in name order, that differs, is missing from found or is new in it."""
    lines = []
    for name in sorted(expected.keys() | found.keys()):
        if name not in found:
            lines.append(f"{name}: missing (manifest {expected[name][0]} {expected[name][1]})")
        elif name not in expected:
            lines.append(f"{name}: new ({found[name][0]} {found[name][1]})")
        elif expected[name] != found[name]:
            lines.append(f"{name}: differ (manifest {expected[name][0]} {expected[name][1]}, now {found[name][0]} {found[name][1]})")
    return lines


def platform_note(expected: dict, found: dict) -> str:
    return (
        f"manifest written on {expected['platform']} {' '.join(expected['libc'])}, "
        f"this run on {found['platform']} {' '.join(found['libc'])}. The engines use only "
        "+, -, * and / on complex numbers, but the draws go through libm's log and cos "
        "(random.Random.gauss, minorform.rng) and run_trials' dB scores through log10, "
        "so a set that hashes a draw can differ on another libm with no change to src/"
    )


def test_set_differences_names_each_differing_missing_and_new_set():
    expected = {"a": [1, "x"], "b": [2, "y"], "c": [3, "z"]}
    found = {"a": [1, "x"], "b": [2, "w"], "d": [4, "v"]}
    assert set_differences(expected, found) == [
        "b: differ (manifest 2 y, now 2 w)",
        "c: missing (manifest 3 z)",
        "d: new (4 v)",
    ]
    assert set_differences(expected, dict(expected)) == []


def test_every_outcome_set_matches_the_committed_manifest():
    env = {**os.environ, "PYTHONPATH": str(Path(minorform.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    lines = set_differences(expected["sets"], found["sets"])
    assert not lines, "\n".join(["outcome sets off the manifest:", *lines, platform_note(expected, found)])
