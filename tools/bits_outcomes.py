"""Print the sha256 of every engine and harness outcome on fixed inputs.

    PYTHONPATH=CHECKOUT/src python3 tools/bits_outcomes.py

Imports `minorform` from the path and prints one JSON object,
{set: [outcome count, sha256]}. An outcome is the `repr` of the value
and of the warnings raised as (category name, message), or of the
exception's type name and message. The engine sets are `general_det`,
`general_inverse`, `element_inverse` at every (p, q), `closed_form_det`
and `closed_form_inverse`, each on every draw at n = 2..8, uncovered
sizes included. `closed_form_det/<encoding>` is `closed_form_det(a,
encoding)` on the same draws under each other `ReprKind`, uncovered
combinations included, and `expand_terms` is `expand_terms(n)` for
n = 2..8, the symbolic table behind them. The draws come from `random.Random`, seeded per size:
real and complex N(0,1) entries, entries whose parts are 0.0, -0.0, 1,
-1, 2.5 or 3, and those with 1 to 4 parts replaced by ±1e300, 1e-300,
1e200 or 1.5e308.

The harness sets cover the program's own generator and the Monte-Carlo
harness: `random_matrix` is `random_matrix(n, seed, complex_entries)` for
n = 1..8, seeds 0, 1, -1 and 2^64 - 1, real and complex, and `run_trials`
is the `summary_json` and `histogram_csv` of `run_trials` for the
closed form at 5x5, the telescope at 6x6, the cofactor oracle at 4x4 and
the closed form on complex 3x3 draws, 100 trials each from seed 3000 +
size. A checkout without `minorform.validation`, such as an engines-only
stub, gets the engine sets alone. `bench_record.py
bits` runs this script once per checkout, in a fresh interpreter.
Standard library only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import warnings

from minorform import engines
from minorform.discrete import ReprKind
from minorform.matrices import Matrix

SMALL = (0.0, -0.0, 1.0, -1.0, 2.5, 3.0)
EXTREME = (1e300, -1e300, 1e-300, 1e200, 1.5e308)
DRAWS_PER_KIND = 16
HARNESS_SEEDS = (0, 1, -1, 2**64 - 1)
HARNESS_TRIALS = 100


def draws(n: int):
    rng = random.Random(2800 + n)
    for _ in range(DRAWS_PER_KIND):
        yield [complex(rng.gauss(0, 1)) for _ in range(n * n)]
        yield [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)]
        yield [complex(rng.choice(SMALL), rng.choice(SMALL)) for _ in range(n * n)]
        parts = [rng.choice(SMALL) for _ in range(2 * n * n)]
        for i in rng.sample(range(2 * n * n), rng.randint(1, 4)):
            parts[i] = rng.choice(EXTREME)
        yield [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]


def outcome(call, *args) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call(*args)
        except Exception as error:
            return repr((type(error).__name__, str(error)))
    return repr((value, [(type(w.message).__name__, str(w.message)) for w in caught]))


def record_harness(record) -> None:
    """Record the `random_matrix` and `run_trials` sets, if the checkout has the harness."""
    if importlib.util.find_spec("minorform.validation") is None:
        return
    from minorform.engines import Method
    from minorform.matrices import random_matrix
    from minorform.validation import TrialConfig, histogram_csv, run_trials, summary_json

    def reports(cfg: TrialConfig) -> tuple[str, str]:
        report = run_trials(cfg)
        return summary_json(report), histogram_csv(report)

    for n in range(1, 9):
        for seed in HARNESS_SEEDS:
            for complex_entries in (False, True):
                record("random_matrix", outcome(random_matrix, n, seed, complex_entries))
    for method, size, complex_entries in (
        (Method.CLOSED_FORM, 5, False),
        (Method.TELESCOPE, 6, False),
        (Method.ORACLE, 4, False),
        (Method.CLOSED_FORM, 3, True),
    ):
        cfg = TrialConfig(HARNESS_TRIALS, size, 3000 + size, method, complex_entries)
        record("run_trials", outcome(reports, cfg))


def main() -> None:
    hashes: dict[str, list] = {}

    def record(name: str, text: str) -> None:
        entry = hashes.setdefault(name, [0, hashlib.sha256()])
        entry[0] += 1
        entry[1].update(text.encode() + b"\n")

    encodings = [kind for kind in ReprKind if kind is not ReprKind.DIRECT]
    for n in range(2, 9):
        record("expand_terms", outcome(engines.expand_terms, n))
        for data in draws(n):
            a = Matrix(n, tuple(data))
            for name in ("general_det", "general_inverse", "closed_form_det", "closed_form_inverse"):
                record(name, outcome(getattr(engines, name), a))
            for kind in encodings:
                record(f"closed_form_det/{kind.value}", outcome(engines.closed_form_det, a, kind))
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    record("element_inverse", outcome(engines.element_inverse, a, p, q))
    record_harness(record)
    print(json.dumps({name: [count, sha.hexdigest()] for name, (count, sha) in hashes.items()}))


if __name__ == "__main__":
    main()
