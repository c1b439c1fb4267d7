"""Print the sha256 of every engine and harness outcome on fixed inputs.

    PYTHONPATH=CHECKOUT/src python3 tools/bits_outcomes.py

Imports `minorform` from the path and prints one JSON object: the
platform it ran on, `sys.platform` and `platform.libc_ver()`, and under
"sets" {set: [outcome count, sha256]}. An outcome is the `repr` of the value
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
size.

The I/O sets cover the matrix wire format and the CLI's residual, on the
same draws at n = 1..8 plus one draw per size whose parts cycle through
EDGES (signed zeros, the smallest subnormal, the smallest normal, +-max,
1e-300, 1.5e308). `write_matrix` is the bytes `write_matrix` writes,
`parse_matrix` is `parse_matrix` of those bytes and of each payload in
MALFORMED, and `residual_max_abs` is `residual_max_abs(a, x)` with x the
`closed_form_inverse` of a, its Gauss-Jordan inverse and the identity,
where an overflowing entry of A X - I is an outcome like any other.

Its output on `src/` is committed as `tests/golden/bits_outcomes.json`,
which a Tier-1 test compares set by set; a change meant to move outcomes
rewrites it with

    PYTHONPATH=src python3 tools/bits_outcomes.py > tests/golden/bits_outcomes.json

Two checkouts A and B compare as `PYTHONPATH=A/src python3
tools/bits_outcomes.py > a.json`, the same for B, and `diff a.json b.json`.

The engines use only +, -, * and / on complex numbers, which IEEE 754
rounds the same everywhere. The draws do not: `random.Random.gauss` and
`minorform.rng` call libm's `log` and `cos`, and `run_trials` scores in
dB through `log10`, whose last bit libm does not fix. So every set that
hashes a draw holds only on a libm that rounds as the recorded one does.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
import warnings

from minorform import engines
from minorform.discrete import ReprKind
from minorform.matrices import Matrix, identity, parse_matrix, random_matrix, write_matrix
from minorform.oracles import gauss_inverse, residual_max_abs
from minorform.validation import TrialConfig, histogram_csv, run_trials, summary_json

SMALL = (0.0, -0.0, 1.0, -1.0, 2.5, 3.0)
EXTREME = (1e300, -1e300, 1e-300, 1e200, 1.5e308)
DRAWS_PER_KIND = 16
HARNESS_SEEDS = (0, 1, -1, 2**64 - 1)
HARNESS_TRIALS = 100
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1.5e308)
MALFORMED = (
    b"",
    b"\xff\xfe{}",
    b'{"n": 2,\n "re": [[1, 2], [3, 4]',
    b"[1, 2, 3]",
    b'{"n": 1, "re": [[1]], "extra": 3}',
    b'{"re": [[1]]}',
    b'{"n": true, "re": [[1]]}',
    b'{"n": 0, "re": []}',
    b'{"n": 1}',
    b'{"n": 2, "re": [[1, 2]]}',
    b'{"n": 2, "re": [[1, 2], [3]]}',
    b'{"n": 2, "re": [[1, null], [3]]}',
    b'{"n": 1, "re": [["x"]]}',
    b'{"n": 1, "re": [[true]]}',
    b'{"n": 1, "re": [[Infinity]]}',
    b'{"n": 1, "re": [[-Infinity]]}',
    b'{"n": 1, "re": [[1e400]]}',
    b'{"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], [NaN, 0]]}',
    b'{"n": 1, "re": [[1]], "im": [[1, 2]]}',
    b'{"n": 1, "re": [[1]], "im": 5}',
    b'{"n": 1, "re": [[1' + b"0" * 400 + b"]]}",
    b'{"n": 1, "re": [[1' + b"0" * 5000 + b"]]}",
    b"[" * 100_000,
    b'{"n": 2, "re": [[1, -0], [-0.0, 1e-400]], "im": [[-0.0, 0], [2, -3]]}',
)


def draws(n: int):
    rng = random.Random(2800 + n)
    for _ in range(DRAWS_PER_KIND):
        yield [complex(rng.gauss(0, 1)) for _ in range(n * n)]
        yield [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)]
        yield [complex(rng.choice(SMALL), rng.choice(SMALL)) for _ in range(n * n)]
        parts = [rng.choice(SMALL) for _ in range(2 * n * n)]
        for i in rng.sample(range(2 * n * n), rng.randint(1, min(4, 2 * n * n))):
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
    """Record the `random_matrix` and `run_trials` sets."""

    def reports(cfg: TrialConfig) -> tuple[str, str]:
        report = run_trials(cfg)
        return summary_json(report), histogram_csv(report)

    for n in range(1, 9):
        for seed in HARNESS_SEEDS:
            for complex_entries in (False, True):
                record("random_matrix", outcome(random_matrix, n, seed, complex_entries))
    for method, size, complex_entries in (
        (engines.Method.CLOSED_FORM, 5, False),
        (engines.Method.TELESCOPE, 6, False),
        (engines.Method.ORACLE, 4, False),
        (engines.Method.CLOSED_FORM, 3, True),
    ):
        cfg = TrialConfig(HARNESS_TRIALS, size, 3000 + size, method, complex_entries)
        record("run_trials", outcome(reports, cfg))


def record_io(record) -> None:
    """Record the `write_matrix`, `parse_matrix` and `residual_max_abs` sets."""
    inverses = (engines.closed_form_inverse, lambda a: gauss_inverse(a).inverse, lambda a: identity(a.n))
    for n in range(1, 9):
        edges = [EDGES[k % len(EDGES)] for k in range(2 * n * n)]
        for data in [*draws(n), [*map(complex, edges[::2], edges[1::2])]]:
            a = Matrix(n, tuple(data))
            text = write_matrix(a)
            record("write_matrix", outcome(lambda: text))
            record("parse_matrix", outcome(parse_matrix, text))
            for inverse in inverses:
                record("residual_max_abs", outcome(lambda: residual_max_abs(a, inverse(a))))
    for payload in MALFORMED:
        record("parse_matrix", outcome(parse_matrix, payload))


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
    record_io(record)
    sets = {name: [count, sha.hexdigest()] for name, (count, sha) in hashes.items()}
    print(json.dumps({"platform": sys.platform, "libc": list(platform.libc_ver()), "sets": sets}, indent=2))


if __name__ == "__main__":
    main()
