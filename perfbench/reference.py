"""The speed reference: a fixed piece of pure-Python work, timed between
operations, that tells how fast the shared machine runs at that moment.

This machine's speed moves between phases that last from seconds to about
a minute, and a slow phase takes 1.6 to 1.9 times as long for the same
work. The phases slow every kind of interpreter work alike, to within
about 10%, so each operation's wall time is divided by the reference's
time around it and multiplied by `NOMINAL_S`. The result is that
operation's time at the nominal speed: the speed at which `work()` takes
`NOMINAL_S` seconds. See README.md, "Speed normalisation".

`work()` uses only builtins and never touches the program under test, so
a change to the program cannot move it. It allocates no container that
outlives a call, so it leaves the cyclic garbage collector's counts as it
found them. It imports nothing at load time beyond `time`, so a set-up
interpreter can time it before `import minorform` without loading any
module that the package's import would load itself.
"""

import time

# A round figure near the time of one work() call in the slow phase of
# the 2-vCPU box that the reference figures in README.md come from
# (0.9 to 1.0 ms there; 0.5 ms in its fast phase).
NOMINAL_S = 1.0e-3


def _mix(z: complex, w: complex) -> complex:
    return z * w - w


def work(n: int = 400) -> float:
    """Float, list, dict, tuple, complex and call work, in fixed amounts."""
    table: dict = {}
    memo: dict = {}
    acc = 0.0
    zacc = 0j
    for i in range(n):
        row = [float(i + j) * 0.5 for j in range(6)]
        table[i & 63] = row
        acc += row[3] * 1.0000001 - row[1]
        key = (i & 31, i % 5)
        z = complex(i * 0.25, 1.0 - i * 0.125)
        if key in memo:
            z = _mix(z, memo[key])
        else:
            memo[key] = z
        zacc += z * (1 + 0.5j)
    return acc + zacc.real


def timed() -> float:
    """Seconds taken by one work() call."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def bracketed(latencies: list[float], refs: list[float]) -> list[float]:
    """Each operation's latency at the nominal speed.

    `refs` holds one reference time before the first operation and one
    after each operation, so operation i lies between refs[i] and
    refs[i + 1], and their mean is the machine's speed around it.
    """
    if len(refs) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} operations need {len(latencies) + 1} reference samples, got {len(refs)}")
    return [lat * 2.0 * NOMINAL_S / (refs[i] + refs[i + 1]) for i, lat in enumerate(latencies)]


def factor(refs: list[float]) -> float:
    """Factor that takes wall seconds to nominal seconds, from several samples."""
    import statistics

    return NOMINAL_S / statistics.median(refs)
