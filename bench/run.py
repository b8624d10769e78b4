"""Run one benchmark workload against the redukto sources in this checkout.

    python3 bench/run.py --workload long-words --seed 1 --seconds 20 --trace 0

The workloads are ``long-words``, ``branching-search`` and
``grammar-pipeline`` (see ``workloads.py`` and BENCHMARK.json for why each
was chosen).  One process, one thread, closed loop: each query is issued
when the previous one has been answered.  The timed loop runs whole passes
until ``--seconds`` have gone by at reference speed (below) and at least 100
verdicts are in.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time,
verdicts per second, median and 90th-percentile verdict time, the share of
verdicts that gave a correct decided answer, and peak resident memory.
With ``--trace 1`` it runs the timed loop untraced for half the time, then
the same passes again traced, and prints busy time, self time and counters
per layer plus the tracing overhead; the spans are written to
``.bench_out/``.  The last line of standard output is one JSON object.  A
wrong verdict makes the exit code 1.

Times are given at reference speed.  A shared machine's speed drifts by a
third over minutes and by more in bursts of seconds, which no statistic
within one run removes.  So the run times a fixed loop of pure Python
(``reference``) before every query, and scales each verdict's time by
REFERENCE_SECONDS over the median of the three loop times nearest to it;
set-up time is scaled by the loop times taken around it.  A slower program
moves the scaled times, a slower machine moves the loop with them.  The raw
figures are printed too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HASH_SEED = "0"
SETUP_REPEATS = 3
MIN_VERDICTS = 100
# Typical time of ``reference`` on the 2 GHz Xeon core and Python 3.11 on
# which the bounds in BENCHMARK.json were set.
REFERENCE_SECONDS = 0.0022
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = ".bench_out"


def pin_environment():
    """Re-execute with a fixed hash seed and without REDUKTO_LIMITS, which
    the CLI would otherwise read: set iteration order moves the cost of
    synthesis and of the checks by up to a quarter."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and "REDUKTO_LIMITS" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("REDUKTO_LIMITS", None)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def reference() -> float:
    """Time a fixed loop of the work the engine does most: slicing and
    joining tuples, hashing them and storing them in a dict."""
    start = time.perf_counter()
    seen = {}
    tape = tuple(range(200))
    for i in range(450):
        cut = i % 50
        word = tape[:cut] + tape[cut + 1 :]
        seen[word] = seen.get(word, 0) + i
    return time.perf_counter() - start


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  Verdict
    times are sparse, one query kind next to another, and the plain sample
    quantile jumps between neighbours where this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8  # Simpson's rule over each order statistic's 1/n interval
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ends = density(i / n) + density((i + 1) / n)
        odd = sum(density(i / n + k * h) for k in range(1, steps, 2))
        even = sum(density(i / n + k * h) for k in range(2, steps, 2))
        weights.append((ends + 4 * odd + 2 * even) * h / 3)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


class Speed:
    """Reference loop times taken before every query, and for every
    verdict the index of the one taken just before its query."""

    def __init__(self):
        self.samples: list[float] = []
        self.before: list[int] = []

    def sample(self):
        self.samples.append(reference())

    def mark(self, verdicts: int):
        self.before += [len(self.samples) - 1] * verdicts

    def scaled(self, durations) -> list[float]:
        """Each duration at reference speed, judged by the median of the
        loop times just before, before and after its query."""
        out = []
        for duration, k in zip(durations, self.before):
            local = statistics.median(self.samples[max(0, k - 1) : k + 2])
            out.append(duration * REFERENCE_SECONDS / local)
        return out


def run_passes(workload, ctx, layers, passes, speed):
    from layers import Failed

    for index, queries in enumerate(passes):
        for number, query in enumerate(queries):
            speed.sample()
            verdicts = len(layers.durations)
            with layers.query("p%d.q%d" % (index, number), number):
                try:
                    workload.run(query, ctx, layers)
                except Failed:
                    pass
            speed.mark(len(layers.durations) - verdicts)
    speed.sample()


def timed_loop(workload, ctx, layers, rng, seconds, min_verdicts, speed):
    """Whole passes until ``seconds`` have gone by at reference speed and
    ``min_verdicts`` verdicts are in, so that a slow spell of the machine
    does not change the work a run does.  Returns the passes run and the
    loop's wall time."""
    passes = []
    start = time.perf_counter()
    while True:
        queries = workload.make_pass(rng)
        run_passes(workload, ctx, layers, [queries], speed)
        passes.append(queries)
        elapsed = time.perf_counter() - start
        at_reference = elapsed * REFERENCE_SECONDS / statistics.median(speed.samples)
        if at_reference >= seconds and len(layers.durations) >= min_verdicts:
            return passes, elapsed


def pass_seconds(slots, durations) -> tuple[float, int]:
    """Verdict time of one pass and its verdict count, taking each verdict's
    time as its median over the run's passes: every pass has the same size
    profile, and the median drops a pass that a burst of load slowed."""
    times: dict = {}
    for slot, duration in zip(slots, durations):
        times.setdefault(slot, []).append(duration)
    return sum(statistics.median(v) for v in times.values()), len(times)


def end_to_end_metrics(layers, setup_s, durations) -> dict:
    """The end-to-end metrics from the given verdict times."""
    attempted = len(durations)
    seconds, verdicts = pass_seconds(layers.slots, durations)
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (verdicts / seconds, "1/s"),
        "verdict_p50_s": (quantile(durations, 0.5), "s"),
        "verdict_p90_s": (quantile(durations, 0.9), "s"),
        "decided_share": (1 - layers.failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(layers, untraced_s, traced_s, reference_s) -> dict:
    """The layers' metrics, the tracing overhead as the traced minus the
    untraced time of the same passes, and the reference loop's median."""
    metrics = layers.layer_metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics["trace.spans"] = (len(layers.spans), "count")
    metrics["bench.reference_s"] = (reference_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "redukto")):
        print("error: no redukto sources at src/redukto next to bench/", file=sys.stderr)
        return 2
    pin_environment()
    os.chdir(ROOT)

    sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]
    from layers import Layers

    layers = Layers(tracing=bool(args.trace))
    setups, setup_speed = [], []
    for _ in range(SETUP_REPEATS):
        # Each repetition imports the package afresh, so that import time,
        # which is most of the set-up of two workloads, is a median too.
        for name in [m for m in sys.modules if m == "workloads" or m.startswith("redukto")]:
            del sys.modules[name]
        setup_speed += [reference() for _ in range(3)]
        began = time.perf_counter()
        workloads = importlib.import_module("workloads")
        if args.workload not in workloads.WORKLOADS:
            print("error: unknown workload %r" % args.workload, file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload]
        ctx = workload.setup(layers)
        setups.append(time.perf_counter() - began)
        setup_speed += [reference() for _ in range(3)]
    setup_raw = statistics.median(setups)
    setup_s = setup_raw * REFERENCE_SECONDS / statistics.median(setup_speed)

    rng = random.Random("%s:%d" % (workload.name, args.seed))
    layers.timing = True
    speed = Speed()
    if args.trace:
        layers.tracing = False
        passes, untraced_s = timed_loop(workload, ctx, layers, rng, args.seconds / 2, 1, speed)
        layers.tracing = True
        began = time.perf_counter()
        run_passes(workload, ctx, layers, passes, speed)
        traced_s = time.perf_counter() - began
        loop_s = untraced_s + traced_s
    else:
        passes, loop_s = timed_loop(workload, ctx, layers, rng, args.seconds, MIN_VERDICTS, speed)

    attempted = len(layers.durations)
    reference_s = statistics.median(speed.samples)
    env = environment()
    print("# %s seed=%d %s" % (workload.name, args.seed, " ".join("%s=%s" % kv for kv in env.items())))
    print("# samples: %d verdicts in %d passes, %.3f s timed loop, %d failed (failed_share %.4f), %d wrong"
          % (attempted, len(passes), loop_s, layers.failed, layers.failed / attempted, len(layers.wrong)))
    print("# reference loop median %.6f s over %d samples, %.6f s around set-up"
          % (reference_s, len(speed.samples), statistics.median(setup_speed)))
    if args.trace:
        metrics = per_layer_metrics(layers, untraced_s, traced_s, reference_s)
        write_spans(workload.name, args.seed, env, layers.spans)
    else:
        for name, (value, unit) in end_to_end_metrics(layers, setup_raw, layers.durations).items():
            print("# raw %-44s %.6g %s" % (name, value, unit))
        metrics = end_to_end_metrics(layers, setup_s, speed.scaled(layers.durations))
    for name, (value, unit) in metrics.items():
        print("%-48s %.6g %s" % (name, value, unit))
    for line in layers.errors[:5]:
        print("error: %s" % line, file=sys.stderr)
    for line in layers.wrong:
        print("wrong: %s" % line, file=sys.stderr)
    print(json.dumps({
        "correct": not layers.wrong,
        "attempted": attempted,
        "failed": layers.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if layers.wrong else 0


def write_spans(name, seed, env, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (name, seed))
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"workload": name, "seed": seed, **env}) + "\n")
        for sid, parent, layer, qid, start, end in spans:
            out.write(json.dumps({"id": sid, "parent": parent, "name": layer, "query": qid,
                                  "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
