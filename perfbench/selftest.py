"""Self-test of the output checks: none of them may be vacuous.

Each workload produces one genuine output through the program; the checks
must accept it and must reject every deliberately perturbed copy of it.
`run.py` calls `results()` before it checks a run's outputs; run this file
directly to see each case:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRATCH = HERE.parent / ".perfbench_runs"


def _bump_bin(out):
    out["bins"][0][2] += 1


def _median_above_max(out):
    out["median_db"] = out["max_db"] + 1.0


def _gap_in_bins(out):
    lo, hi, count = out["bins"][-1]
    out["bins"][-1] = [lo + 0.5, hi + 0.5, count]


def _shift_histogram(out):
    # self-consistent, but no longer holds the trial the checks redo
    for key in ("min_db", "max_db", "median_db", "mode_db"):
        out[key] += 100.0
    out["bins"] = [[lo + 100.0, hi + 100.0, c] for lo, hi, c in out["bins"]]


def _perturb_entry(out):
    out["x"][2][3][0] *= 1.0 + 1e-9


def _transpose(out):
    out["x"] = [list(col) for col in zip(*out["x"])]


def _perturb_printed_entry(out):
    obj_line, residual_line = out["stdout"].splitlines()
    obj = json.loads(obj_line)
    obj["re"][1][2] *= 1.0 + 1e-9
    out["stdout"] = json.dumps(obj) + "\n" + residual_line + "\n"


def _inflate_residual(out):
    obj_line, _ = out["stdout"].splitlines()
    out["stdout"] = obj_line + "\nresidual 1.0000000000000000e-03\n"


def _drop_residual(out):
    out["stdout"] = out["stdout"].splitlines()[0] + "\n"


PERTURBATIONS = {
    "mc-closed5": (_bump_bin, _median_above_max, _gap_in_bins, _shift_histogram),
    "telescope6": (_perturb_entry, _transpose),
    "cli-invert3": (_perturb_printed_entry, _inflate_residual, _drop_residual),
}


def _genuine(name: str) -> dict:
    import workloads

    wl = workloads.make(name, SCRATCH)
    op = wl.round(0, "selftest")[0]
    ok, out = wl.record(op, wl.run(wl.prepare(op)))
    if not ok:
        raise RuntimeError(f"{name}: the self-test's own operation failed")
    return out


def _direct_cases():
    """The exact and scaling checks on their own, where a perturbation is subtle."""
    import numpy as np

    from checks import check_exact, check_scaling, exact_inverse

    rows = [[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.25, 1.0, 2.0]]
    det, inv = exact_inverse(rows)
    x = np.array([[float(v) for v in row] for row in inv], dtype=complex)
    yield "exact: genuine", lambda: check_exact(rows, complex(float(det)), x), True
    yield "exact: determinant off by 1e-12", lambda: check_exact(rows, complex(float(det) * (1 + 1e-12)), x), False
    bad = x.copy()
    bad[0, 1] *= 1 + 1e-9
    yield "exact: inverse entry off by 1e-9", lambda: check_exact(rows, complex(float(det)), bad), False
    scaled = np.ldexp(x.real, -5) + 0j
    yield "scaling: genuine", lambda: check_scaling(x, scaled, 5), True
    off = scaled.copy()
    off[2, 2] = complex(math.nextafter(off[2, 2].real, math.inf), 0.0)
    yield "scaling: one entry one ulp off", lambda: check_scaling(x, off, 5), False


def cases():
    """(description, thunk, should_pass) for every self-test case."""
    from checks import CHECKS

    for name, perturbations in PERTURBATIONS.items():
        out = _genuine(name)
        check = CHECKS[name]
        yield f"{name}: genuine", (lambda c=check, o=out: c(0, o)), True
        for perturb in perturbations:
            bad = copy.deepcopy(out)
            perturb(bad)
            yield f"{name}: {perturb.__name__.strip('_')}", (lambda c=check, o=bad: c(0, o)), False
    yield from _direct_cases()


def results() -> list[tuple[str, bool, bool]]:
    """(description, should_pass, passed) for every self-test case."""
    from checks import CheckFailure

    out = []
    for description, thunk, should_pass in cases():
        try:
            thunk()
            passed = True
        except CheckFailure:
            passed = False
        out.append((description, should_pass, passed))
    return out


def main() -> int:
    wrong = 0
    for description, should_pass, passed in results():
        wrong += passed != should_pass
        verdict = "ok" if passed == should_pass else "WRONG"
        print(f"{verdict:5} {'accepted' if passed else 'rejected':8} {description}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    SCRATCH.mkdir(exist_ok=True)
    sys.exit(main())
