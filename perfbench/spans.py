"""Span aggregation for the traced run.

The tracer wraps public functions where the calling module looks them up,
so the program itself is unchanged: `validation.gauss_inverse` is the
Gauss-Jordan reference as `run_trials` sees it, `engines.minor_by_formula`
the minor extraction as the telescope sees it. Each wrapper is one span.
Spans nest through a stack, so a span's self time is its duration minus
the time of the spans opened inside it. Only aggregates are kept: calls,
total and self seconds per span name, and the duration of the first call.
"""

from __future__ import annotations

import time

from minorform import cli, engines, oracles, validation

# (module, attribute the caller looks up, span name). The same layer is
# wrapped at every module that calls it on one of the workloads.
WRAPS = (
    (validation, "run_trials", "validation.run_trials"),
    (validation, "random_matrix", "rng.random_matrix"),
    (validation, "closed_form_inverse", "engines.closed_form_inverse"),
    (validation, "gauss_inverse", "oracles.gauss_inverse"),
    (validation, "mse", "validation.mse"),
    (oracles, "residual_max_abs", "oracles.residual_max_abs"),
    (engines, "closed_form_det", "engines.closed_form_det"),
    (engines, "general_inverse", "engines.general_inverse"),
    (engines, "minor_by_formula", "matrices.minor_by_formula"),
    (cli, "main", "cli.main"),
    (cli, "parse_matrix", "matrices.parse_matrix"),
    (cli, "write_matrix", "matrices.write_matrix"),
    (cli, "closed_form_inverse", "engines.closed_form_inverse"),
    (cli, "residual_max_abs", "oracles.residual_max_abs"),
)


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        # span name -> [calls, total seconds, self seconds, first call seconds]
        self._agg: dict[str, list] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter
        agg = self._agg.setdefault(name, [0, 0.0, 0.0, 0.0])

        def span(*args, **kwargs):
            stack.append(0.0)  # time of the spans opened inside this one
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if not agg[0]:
                    agg[3] = elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - children

        return span

    def __enter__(self) -> "Tracer":
        for module, attr, name in WRAPS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def first(self, name: str) -> float:
        """Duration of the first call of a span."""
        return self._agg[name][3]

    def summary(self) -> dict:
        """calls, total_s, self_s and first_s of every span called at least once."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": own, "first_s": first}
            for name, (calls, total, own, first) in sorted(self._agg.items())
            if calls
        }
