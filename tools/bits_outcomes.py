"""Print the sha256 of every engine outcome on a fixed set of draws.

    PYTHONPATH=CHECKOUT/src python3 tools/bits_outcomes.py

Imports `minorform` from the path and prints one JSON object,
{engine: [outcome count, sha256]}. An outcome is the `repr` of the value
and of the warnings raised as (category name, message), or of the
exception's type name and message. The engines are `general_det`,
`general_inverse`, `element_inverse` at every (p, q), `closed_form_det`
and `closed_form_inverse`, each on every draw at n = 2..8, uncovered
sizes included. `closed_form_det/<encoding>` is `closed_form_det(a,
encoding)` on the same draws under each other `ReprKind`, uncovered
combinations included, and `expand_terms` is `expand_terms(n)` for
n = 2..8, the symbolic table behind them. The draws come from `random.Random`, seeded per size:
real and complex N(0,1) entries, entries whose parts are 0.0, -0.0, 1,
-1, 2.5 or 3, and those with 1 to 4 parts replaced by ±1e300, 1e-300,
1e200 or 1.5e308. `bench_record.py bits` runs it once per checkout, in a
fresh interpreter. Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings

from minorform import engines
from minorform.discrete import ReprKind
from minorform.matrices import Matrix

SMALL = (0.0, -0.0, 1.0, -1.0, 2.5, 3.0)
EXTREME = (1e300, -1e300, 1e-300, 1e200, 1.5e308)
DRAWS_PER_KIND = 16


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
    print(json.dumps({name: [count, sha.hexdigest()] for name, (count, sha) in hashes.items()}))


if __name__ == "__main__":
    main()
