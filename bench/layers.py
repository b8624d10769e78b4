"""Timing and tracing of the calls the benchmark makes into redukto.

Every call into a layer goes through ``Layers.call``.  Untraced, it times
the call as one verdict and nothing else.  Traced, it also records a span
(name, start, end, parent span, query id) and the work counters the call's
result already carries.  Spans stay in memory until the run ends.

The layers are the package modules, named by the public function the
benchmark calls.  Only the benchmark's own calls are spanned; spans inside
the program are not recorded.
"""

from __future__ import annotations

import contextlib
import time
import traceback

CHECK_COUNTERS = ("holds", "violated", "exceeded")

# Layer name -> counters read from the results of its calls.
LAYERS = {
    "catalog.catalog_get": (),
    "engine.run_deterministic": ("steps", "cycles", "limit_outcomes"),
    "engine.decide": ("configs", "phases", "undecided"),
    "languages.decide_hproper": ("configs", "over_budget"),
    "languages.enumerate.brute": ("words",),
    "languages.enumerate.closure": ("words",),
    "languages.compare": (),
    "checks.check_monotone": CHECK_COUNTERS,
    "checks.check_cycle_soundness": CHECK_COUNTERS,
    "checks.check_preservation": CHECK_COUNTERS,
    "checks.check_shrinking": CHECK_COUNTERS,
    "construct.build_hrrwwc": ("rules", "window_used"),
    "construct.to_shrinking": ("table_entries",),
    "fileformat.round_trip": (),
    "cli.main": ("exit_mismatch",),
    # The benchmark itself: one span per query, whose self time is the
    # correctness gate's share.
    "bench.query": (),
}

# Layer -> (rate metric, counter it divides by busy time).
RATES = {
    "engine.run_deterministic": ("steps_per_s", "steps"),
    "engine.decide": ("configs_per_s", "configs"),
}

# Counters reported as their largest value instead of their sum.
MAXIMA = {"window_used"}

COUNTER_UNITS = {"window_used": "cells"}


def _check_counts(report, args, kwargs):
    return {
        "holds": report.verdict == "holds-up-to-bound",
        "violated": report.verdict == "violated",
        "exceeded": report.verdict == "resource-exceeded",
    }


def _words(result, args, kwargs):
    return {"words": len(result)}


# Layer -> function(result, args, kwargs) giving counter increments.  The
# benchmark passes ``memo`` and ``limits`` by keyword where a counter reads
# them.
READERS = {
    "engine.run_deterministic": lambda trace, a, k: {
        "steps": len(trace.steps),
        "cycles": trace.cycle_count(),
        "limit_outcomes": trace.outcome not in ("accept", "reject"),
    },
    "engine.decide": lambda d, a, k: {
        "configs": d.configs_explored,
        "phases": len(k["memo"]),
        "undecided": d.verdict == "resource-exceeded",
    },
    "languages.decide_hproper": lambda r, a, k: {
        "configs": r[0].configs_explored,
        "over_budget": r[0].configs_explored > k["limits"].max_configs,
    },
    "languages.enumerate.brute": _words,
    "languages.enumerate.closure": _words,
    "checks.check_monotone": _check_counts,
    "checks.check_cycle_soundness": _check_counts,
    "checks.check_preservation": _check_counts,
    "checks.check_shrinking": _check_counts,
    "construct.build_hrrwwc": lambda r, a, k: {
        "rules": len(r[1].rules),
        "window_used": r[1].window_used,
    },
    "construct.to_shrinking": lambda r, a, k: {
        "table_entries": sum(len(v) for v in r[0].table.values()),
    },
}


class Failed(Exception):
    """A call into the program raised; the query it belongs to stops."""


class Layers:
    """Verdict timings, failure and wrong-answer tallies, and (when
    ``tracing``) spans and counters for one benchmark process."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.timing = False         # calls count as verdicts only in the timed loop
        self.durations: list[float] = []
        self.slots: list[tuple[int, int]] = []  # (query in pass, call in query)
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.spans: list[tuple] = []  # (id, parent, name, query id, start, end)
        self.counters: dict[tuple[str, str], float] = {}
        self._parent = None
        self._qid = "setup"
        self._slot = (0, 0)

    def call(self, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if not self.timing:
                raise
            self._record(layer, start, time.perf_counter())
            self.failed += 1
            self.errors.append("%s %s: %s" % (self._qid, layer, traceback.format_exc(limit=-3)))
            raise Failed(layer) from None
        end = time.perf_counter()
        self._record(layer, start, end)
        if self.tracing and layer in READERS:
            for key, value in READERS[layer](result, args, kwargs).items():
                self.count(layer, key, value)
        return result

    def _record(self, layer, start, end):
        if self.timing:
            self.durations.append(end - start)
            self.slots.append(self._slot)
            self._slot = (self._slot[0], self._slot[1] + 1)
        if self.tracing:
            self.spans.append((len(self.spans), self._parent, layer, self._qid, start, end))

    def count(self, layer, key, value=1):
        if self.tracing:
            slot = (layer, key)
            if key in MAXIMA:
                self.counters[slot] = max(self.counters.get(slot, 0), value)
            else:
                self.counters[slot] = self.counters.get(slot, 0) + value

    def judge(self, what, answer, expected):
        """Score one answer: None is undecided (a failure), a mismatch with
        the known answer is a wrong verdict."""
        if answer is None:
            self.fail()
        elif answer != expected:
            self.mistake("%s: answered %r, known answer %r" % (what, answer, expected))

    def fail(self):
        if self.timing:
            self.failed += 1

    def mistake(self, message):
        self.wrong.append("%s %s" % (self._qid, message))

    @contextlib.contextmanager
    def query(self, qid, number):
        """Root span of query ``number`` of a pass; the layer calls inside
        are its children."""
        self._qid = qid
        self._slot = (number, 0)
        if not self.tracing:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)  # filled in on exit, so children follow it
        self._parent = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, None, "bench.query", qid, start, time.perf_counter())
            self._parent = None

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Busy time, self time, calls and counters of every layer, whether
        or not this workload reached it."""
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for sid, parent, name, _, start, end in self.spans:
            busy[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][2]] -= end - start
        out = {}
        for name, counters in LAYERS.items():
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".busy_s"] = (busy[name], "s")
            out[name + ".self_s"] = (own[name], "s")
            for key in counters:
                out["%s.%s" % (name, key)] = (
                    self.counters.get((name, key), 0),
                    COUNTER_UNITS.get(key, "count"),
                )
            if name in RATES:
                rate, key = RATES[name]
                total = self.counters.get((name, key), 0)
                out["%s.%s" % (name, rate)] = (total / busy[name] if busy[name] else 0.0, "1/s")
        return out
