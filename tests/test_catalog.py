"""Catalog entries: oracle agreement, declared tags, listing stability."""

import itertools
import re

import pytest

from redukto.catalog import CatalogError, catalog_get, catalog_list
from redukto.checks import check_monotone
from redukto.engine import decide_basic_membership
from redukto.languages import (
    enumerate_basic_by_reduction,
    words_over,
)
from redukto.model import classify_automaton


def test_every_entry_validates_with_declared_tags():
    for entry in catalog_list():
        if entry.kind != "automaton":
            continue
        assert classify_automaton(entry.spec) == entry.spec.flags, entry.name


def test_lookup_aliases_and_params():
    assert catalog_get("l_3").name == "l_3"
    assert catalog_get("lm_2").name == "lm_2"
    for name in ("lm2", " m_e"):
        with pytest.raises(CatalogError, match="^unknown catalog entry"):
            catalog_get(name)
    with pytest.raises(CatalogError):
        catalog_get("nope")
    with pytest.raises(CatalogError):
        catalog_get("l_0")


@pytest.mark.parametrize("name, message", [
    ("l_k", "bad l_k parameter 'k'"),
    ("l_1", "l_k requires k >= 2 (l_1 is dyck1)"),
    ("lm_0", "lm_j parameter must be positive"),
    ("l_x", "bad l_k parameter 'x'"),
])
def test_lookup_refuses_a_missing_or_bad_parameter(name, message):
    with pytest.raises(CatalogError, match="^%s$" % re.escape(message)):
        catalog_get(name)


def test_listing_is_stable():
    first = [(e.name, e.description) for e in catalog_list()]
    second = [(e.name, e.description) for e in catalog_list()]
    assert first == second
    names = [name for name, _ in first]
    assert "m_e" in names and "dyck1" in names and "anbn_gnf" in names


def test_doubling_table_contains_published_rules(m_e):
    from redukto.model import LEFT_SENTINEL as C, RIGHT_SENTINEL as D, Instruction

    table = m_e.spec.table
    assert table[("q0", ("a", "a", "b"))] == (Instruction("SL", "q1", ("b", "b")),)
    assert table[("q0", ("a", "a", D))] == (Instruction("SL", "q1", ("b", D)),)
    assert table[("q0", (C, "b", D))] == (Instruction("Accept"),)
    assert table[("q0", (C, "a", "b"))] == (Instruction("Reject"),)
    # The post-rewrite state restarts on every window content.
    assert all(
        instrs == (Instruction("Restart"),)
        for (state, _), instrs in table.items()
        if state == "q1"
    )


def test_oracle_agreement_small():
    # Exhaustive agreement on all short input words for every automaton.
    for entry in catalog_list():
        if entry.kind != "automaton":
            continue
        spec = entry.spec
        memo = {}
        for w in words_over(entry.oracle_alphabet, 7):
            got = decide_basic_membership(spec, w, memo=memo).is_member
            assert got == entry.oracle(w), (entry.name, w)


def test_center_deleter_examples():
    l2 = catalog_get("l_2")
    assert l2.oracle(tuple("acb"))
    assert l2.oracle(tuple("aacbb"))
    assert not l2.oracle(tuple("acbb"))
    assert decide_basic_membership(l2.spec, tuple("acb")).is_member
    assert not decide_basic_membership(l2.spec, tuple("acbb")).is_member


def test_copy_language_examples():
    lm2 = catalog_get("lm_2")
    assert lm2.oracle(tuple("acaca"))
    assert not lm2.oracle(tuple("acac"))
    assert decide_basic_membership(lm2.spec, tuple("acaca")).is_member
    assert not decide_basic_membership(lm2.spec, tuple("acac")).is_member


def test_window1_regular_language():
    entry = catalog_get("reg_window1")
    assert entry.spec.window == 1
    for w in words_over(("a", "b"), 6):
        got = decide_basic_membership(entry.spec, w).is_member
        assert got == entry.oracle(w), w


def test_monotone_markers_match_checks():
    for entry in catalog_list():
        if entry.kind != "automaton" or entry.monotone is None:
            continue
        report = check_monotone(entry.spec, 8)
        assert report.holds == entry.monotone, entry.name


def test_grammar_entries_generate_their_oracles():
    from redukto.construct import enumerate_grammar_words

    for name in ("anbn_gnf", "dyck_gnf"):
        entry = catalog_get(name)
        got = enumerate_grammar_words(entry.grammar, 8)
        expected = [w for w in words_over(entry.oracle_alphabet, 8) if entry.oracle(w)]
        assert got == expected, name


def test_copy_language_closure_agreement_midsize():
    # Closure enumeration (seeded past the separator tail) against the
    # closed-form oracle at a bound the brute enumerator cannot reach.
    lm2 = catalog_get("lm_2")
    got = enumerate_basic_by_reduction(lm2.spec, 11, seed_len=4)
    expected = [w for w in words_over(lm2.oracle_alphabet, 11) if lm2.oracle(w)]
    assert got == expected
