"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is designed to finish in a few minutes.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from redukto.catalog import catalog_get, catalog_list
from redukto.checks import (
    check_cycle_soundness,
    check_monotone,
    check_preservation,
    check_shrinking,
)
from redukto.construct import dga, hat_token
from redukto.engine import (
    cycle_rewrites,
    decide_basic_membership,
    decide_input_membership,
    replay_trace,
)
from redukto.languages import (
    LanguageQuery,
    compare_word_sets,
    enumerate_basic_by_reduction,
    enumerate_language,
    words_over,
)
from redukto.model import (
    LEFT_SENTINEL as C,
    RIGHT_SENTINEL as D,
    apply_morphism,
    classify_automaton,
    classify_rewrite,
)

GOLDEN = Path(__file__).parent / "golden"


def report(number, text):
    print("ACCEPTANCE %d: PASS - %s" % (number, text))


def test_criterion_1_doubling_machine_fidelity(m_e):
    spec = m_e.spec
    accepted = []
    memo = {}
    for n in range(0, 65):
        if decide_input_membership(spec, ("a",) * n, memo=memo).is_member:
            accepted.append(n)
    assert accepted == [1, 2, 4, 8, 16, 32, 64]
    for n in (3, 5, 6, 7, 63):
        assert not decide_input_membership(spec, ("a",) * n, memo=memo).is_member
    report(1, "input language up to a^64 is exactly the powers of two")


def test_criterion_2_facts_suite():
    automata = [e for e in catalog_list() if e.kind == "automaton"]
    for entry in automata:
        spec = entry.spec
        if spec.flags.deterministic and spec.flags.mr_degree == 1:
            assert check_preservation(spec, 8, "complete-correctness").holds, entry.name
            assert check_preservation(spec, 8, "complete-error").holds, entry.name
        if spec.flags.deterministic:
            assert check_preservation(spec, 8, "cycle-correctness").holds, entry.name
        assert check_preservation(spec, 8, "cycle-error").holds, entry.name
    report(2, "correctness/error preservation holds for every catalog automaton at length 8")


def test_criterion_3_monotonicity(m_e):
    for name in ("dyck1", "l_2", "l_3", "l_4"):
        assert check_monotone(catalog_get(name).spec, 12).holds, name
    broken = check_monotone(m_e.spec, 8)
    assert not broken.holds
    assert len(broken.counterexample.word) <= 8
    assert broken.counterexample.trace is not None
    assert replay_trace(m_e.spec, broken.counterexample.trace)
    report(3, "bracket and center deleters monotone at 12; doubling machine refuted at %s"
           % "".join(broken.counterexample.word))


def test_criterion_4_grammar_pipeline(anbn_built, dyck_built):
    for entry, spec, rep in (anbn_built, dyck_built):
        assert rep.verdict == "validated"
        assert rep.window_used <= 6, entry.name
        tags = classify_automaton(spec)
        assert tags.deterministic, entry.name
        assert all(classify_rewrite(u, v) == "CL" for u, v in spec.sl_pairs()), entry.name
        monotone = check_monotone(spec, 10)
        assert monotone.holds and monotone.unbounded, entry.name
        got = enumerate_language(spec, LanguageQuery("hproper", 12))
        expected = [w for w in words_over(entry.oracle_alphabet, 12) if entry.oracle(w)]
        assert got == expected, entry.name
        assert enumerate_language(spec, LanguageQuery("input", 12)) == [], entry.name
    report(4, "both grammars build deterministic contextual automata matching "
              "their languages through the morphism, with empty input language")


def _shrunk_language_equal(source, shrunk, bound, brute_bound):
    source_basics = enumerate_language(source, LanguageQuery("basic", bound))
    expected = sorted(
        {apply_morphism(source.morphism, w) for w in source_basics},
        key=lambda w: (len(w), w),
    )
    # The closure enumerator sidesteps the per-word blowup of the lexical
    # guessing phase; the brute engine search below cross-checks it.
    got = enumerate_language(shrunk, LanguageQuery("input", bound), strategy="closure")
    assert compare_word_sets(got, expected, bound).equal
    # Engine-level cross-check on the smaller brute domain.
    memo = {}
    brute = [
        w
        for w in words_over(sorted(shrunk.input_alphabet), brute_bound)
        if decide_input_membership(shrunk, w, memo=memo).is_member
    ]
    assert brute == [w for w in expected if len(w) <= brute_bound]


def _reductions_correspond(source, shrunk, bound):
    sigma = source.input_alphabet

    def hat(word):
        return tuple(hat_token(t) if t in sigma else t for t in word)

    for word in words_over(sorted(source.work_alphabet), bound):
        src = set(cycle_rewrites(source, word))
        tgt = set(cycle_rewrites(shrunk, hat(word)))
        assert {hat(w) for w in src} == tgt, word


def test_criterion_5_shrinking_transform(m_e_h, m_e_h_shrunk, anbn_built, anbn_shrunk):
    spec, weights = m_e_h_shrunk
    assert weights == {"a": dga(m_e_h.spec, "a") + 1, "b": 1, hat_token("a"): 1}
    _shrunk_language_equal(m_e_h.spec, spec, 10, 10)
    assert check_shrinking(spec, weights, 8).unbounded
    _reductions_correspond(m_e_h.spec, spec, 8)

    source, shrunk, weights = anbn_shrunk
    assert weights["a"] == dga(source, "a") + 1
    assert weights["b"] == dga(source, "b") + 1
    _shrunk_language_equal(source, shrunk, 10, 7)
    # Every rewrite of the shrunk table lowers its window's weight, so the
    # check holds at every length without sweeping a word.
    assert check_shrinking(shrunk, weights, 5).unbounded
    _reductions_correspond(source, shrunk, 8)
    report(5, "shrinking transform preserves the morphism language, decreases "
              "the lexical weights, and mirrors the source reductions")


def _center_members(k, bound):
    out = []
    n = 0
    while 2 * n + k - 1 <= bound:
        out.append(("a",) * n + ("c",) * (k - 1) + ("b",) * n)
        n += 1
    return sorted(out, key=lambda w: (len(w), w))


def _copy_members(j, bound):
    out = []
    max_u = (bound - j) // (j + 1)
    for u in words_over(("a", "b"), max_u):
        word = (u + ("c",)) * j + u
        if len(word) <= bound:
            out.append(word)
    return sorted(out, key=lambda w: (len(w), w))


def test_criterion_6_window_hierarchy():
    for k in (2, 3, 4):
        entry = catalog_get("l_%d" % k)
        expected = _center_members(k, 20)
        assert all(entry.oracle(w) for w in expected)
        got = enumerate_language(entry.spec, LanguageQuery("input", 20), strategy="closure")
        assert got == expected, k
        # Brute cross-check of the closure machinery at a small bound.
        brute = enumerate_language(entry.spec, LanguageQuery("input", 9), strategy="brute")
        assert brute == [w for w in expected if len(w) <= 9], k

    # Every single window-k length-reducing rewrite applied anywhere to
    # a^n c^(k-1) b^n keeps the a-prefix or the b-suffix intact and leaves
    # the language.  The sweep is automaton-independent.
    alphabet = ("a", "b", "c")
    for k in (2, 3, 4):
        oracle = catalog_get("l_%d" % k).oracle
        for n in range(0, 9):
            word = ("a",) * n + ("c",) * (k - 1) + ("b",) * n
            tape = (C,) + word + (D,)
            for pos in range(len(tape)):
                u = tape[pos : pos + k]
                for v in _shorter_targets(u, alphabet):
                    new_tape = tape[:pos] + v + tape[pos + len(u):]
                    new_word = new_tape[1:-1]
                    prefix_ok = new_word[:n] == ("a",) * n
                    suffix_ok = n == 0 or new_word[-n:] == ("b",) * n
                    assert prefix_ok or suffix_ok, (k, n, pos, u, v)
                    assert not oracle(new_word), (k, n, pos, u, v)
    report(6, "center deleters match their languages up to 20 and every "
              "window-k rewrite of a^n c^(k-1) b^n exits the language")


def _shorter_targets(u, alphabet):
    """All sentinel-consistent strictly shorter replacement words for u."""
    left = u[0] == C
    right = u[-1] == D
    core = len(u) - int(left) - int(right)
    for m in range(core):
        for body in itertools.product(alphabet, repeat=m):
            yield ((C,) if left else ()) + body + ((D,) if right else ())


def test_criterion_7_multi_rewrite_hierarchy():
    for j in (1, 2, 3):
        entry = catalog_get("lm_%d" % j)
        spec = entry.spec
        expected = _copy_members(j, 15)
        assert all(entry.oracle(w) for w in expected)
        got = enumerate_basic_by_reduction(spec, 15, seed_len=max(spec.window, j) + 1)
        assert got == expected, j
        brute = enumerate_language(spec, LanguageQuery("input", 8), strategy="brute")
        assert brute == [w for w in expected if len(w) <= 8], j
        assert check_cycle_soundness(spec, 9).unbounded, j
        tight = check_cycle_soundness(spec, 9, degree=j)
        assert not tight.holds, j
        assert "more than %d" % j in tight.counterexample.explanation
    report(7, "copy-language machines match their languages up to 15 and need "
              "exactly their declared rewrite budget")


def test_criterion_8_engine_cross_validation():
    for entry in catalog_list():
        if entry.kind != "automaton":
            continue
        spec = entry.spec
        shared = {}
        for word in words_over(sorted(spec.work_alphabet), 8):
            fast = decide_basic_membership(spec, word, memo=shared)
            slow = decide_basic_membership(spec, word, memoize=False)
            assert fast.verdict == slow.verdict, (entry.name, word)
    report(8, "memoized and brute-force searches agree on every working-"
              "alphabet word up to length 8 for every catalog automaton")


def test_criterion_9_cli_golden_and_round_trip():
    from tests.test_cli import GOLDEN_CASES, run_cli

    for name, argv in GOLDEN_CASES:
        proc = run_cli(*argv)
        got = "exit %d\n%s" % (proc.returncode, proc.stdout)
        assert got == (GOLDEN / name).read_text(encoding="utf-8"), name

    from redukto.fileformat import (
        parse_automaton,
        parse_grammar,
        render_automaton,
        render_grammar,
    )

    for entry in catalog_list():
        if entry.kind == "automaton":
            text = render_automaton(entry.spec)
            assert render_automaton(parse_automaton(text)) == text, entry.name
        else:
            text = render_grammar(entry.grammar)
            assert render_grammar(parse_grammar(text)) == text, entry.name
    report(9, "golden CLI outputs reproduced and every catalog entry round-trips")
