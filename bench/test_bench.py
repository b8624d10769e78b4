"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import itertools
import json
import os
import random
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import oracles as known  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Layers  # noqa: E402
from redukto.catalog import catalog_get  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _passes(workload, seed, count=3):
    rng = random.Random("%s:%d" % (workload.name, seed))
    return [workload.make_pass(rng) for _ in range(count)]


def test_same_seed_gives_same_queries():
    for workload in workloads.WORKLOADS.values():
        assert _passes(workload, 7) == _passes(workload, 7), workload.name
        assert _passes(workload, 7) != _passes(workload, 8), workload.name


def test_oracles_agree_with_catalog_oracles_on_short_words():
    pairs = {
        "m_e": known.power_of_two,
        "dyck1": known.balanced,
        "l_2": known.center(2),
        "l_3": known.center(3),
        "l_4": known.center(4),
        "lm_1": known.copies(1),
        "lm_2": known.copies(2),
        "lm_3": known.copies(3),
        "reg_window1": known.all_a,
        "anbn_gnf": known.anbn,
        "dyck_gnf": known.balanced_nonempty,
    }
    alphabet = ("a", "b", "c", known.OPEN, known.CLOSE)
    words = [w for n in range(7) for w in itertools.product(alphabet, repeat=n)]
    for name, oracle in pairs.items():
        reference = catalog_get(name).oracle
        for word in words:
            assert oracle(word) == reference(word), (name, word)
    for j in (1, 2, 3):
        assert known.copies_members(j, 11) == known.members(known.copies(j), "abc", 11)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    layers = Layers(tracing=True)
    layers.durations, layers.slots = [1.0, 2.0], [(0, 0), (0, 1)]
    e2e = run.end_to_end_metrics(layers, setup_s=1.0, durations=layers.durations)
    traced = run.per_layer_metrics(layers, untraced_s=1.0, traced_s=1.1, reference_s=0.003)
    for printed, declared in ((e2e, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert [(m["name"], m["unit"]) for m in declared] == [
            (name, unit) for name, (_, unit) in printed.items()
        ]
        assert all(NAME.match(name) for name in printed)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
