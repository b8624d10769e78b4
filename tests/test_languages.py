"""Language deciders, enumerations and comparisons."""

import pytest

from redukto.catalog import catalog_get, catalog_list
from redukto.engine import DEFAULT_LIMITS, Limits, ResourcesExceeded
from redukto.languages import (
    LanguageQuery,
    compare_languages,
    compare_with_oracle,
    compare_word_sets,
    decide_hproper_membership,
    enumerate_basic_by_reduction,
    enumerate_language,
    tail_confined_bound,
    words_over,
)
from redukto.model import (
    LEFT_SENTINEL as C,
    AutomatonSpec,
    ClassFlags,
    PreconditionError,
    SymbolError,
    apply_morphism,
    mvr,
    reject,
    restart,
    sl,
    validate_automaton,
)


def words(*texts):
    return [tuple(t) for t in texts]


def test_words_over_is_length_lex():
    got = list(words_over(("b", "a"), 2))
    assert got == [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_enum_powers_of_two(m_e):
    got = enumerate_language(m_e.spec, LanguageQuery("input", 9))
    assert got == words("a", "aa", "aaaa", "aaaaaaaa")


def test_enum_brackets(dyck1):
    open_, close = sorted(dyck1.spec.input_alphabet)
    got = enumerate_language(dyck1.spec, LanguageQuery("input", 4))
    assert got == [
        (),
        (open_, close),
        (open_, open_, close, close),
        (open_, close, open_, close),
    ]


def test_enum_is_prefix_monotone_in_bound(m_e):
    small = enumerate_language(m_e.spec, LanguageQuery("input", 6))
    bigger = enumerate_language(m_e.spec, LanguageQuery("input", 9))
    assert bigger[: len(small)] == small


def test_basic_equals_input_for_no_aux_entries(dyck1):
    q4 = LanguageQuery("basic", 4)
    assert enumerate_language(dyck1.spec, q4) == enumerate_language(
        dyck1.spec, LanguageQuery("input", 4)
    )
    # Without auxiliary symbols the h-image under the identity coincides too.
    from dataclasses import replace

    spec = replace(
        dyck1.spec,
        morphism={t: t for t in dyck1.spec.work_alphabet},
        table=dict(dyck1.spec.table),
    )
    assert enumerate_language(spec, LanguageQuery("hproper", 4)) == enumerate_language(
        dyck1.spec, LanguageQuery("input", 4)
    )


def test_proper_enumeration_projects_basics(m_e_h):
    # Projection with sigma = {a} erases the auxiliary letter entirely.
    basics = enumerate_language(m_e_h.spec, LanguageQuery("basic", 4))
    proper = enumerate_language(m_e_h.spec, LanguageQuery("proper", 4))
    from redukto.model import project

    images = sorted(
        {project(w, m_e_h.spec.input_alphabet, m_e_h.spec.work_alphabet) for w in basics},
        key=lambda w: (len(w), w),
    )
    assert proper == images


def test_hproper_decision_with_witness(anbn_built):
    entry, spec, _ = anbn_built
    decision, witness = decide_hproper_membership(spec, tuple("aabb"))
    assert decision.is_member
    assert witness == ("(1,a)", "(2,a)", "(3,b)", "(3,b)")
    assert apply_morphism(spec.morphism, witness) == tuple("aabb")

    decision, witness = decide_hproper_membership(spec, tuple("aab"))
    assert not decision.is_member and witness is None


def test_hproper_skips_preimages_a_first_phase_rejected(anbn_built, dyck_built, monkeypatch):
    # Deciding every preimage took 106,509 and 6,745 configurations.  Each
    # candidate's first phase resumes after the previous one's, so fewer
    # steps are interpreted than charged: run from cell 0 every time, the
    # dyck candidates took 29,561 successors calls.
    import redukto.engine as engine

    calls = []
    plain = engine.successors
    monkeypatch.setattr(engine, "successors", lambda *args: calls.append(1) or plain(*args))
    _, dyck, _ = dyck_built
    opening, closing = sorted(dyck.input_alphabet)
    decision, preimage = decide_hproper_membership(
        dyck, (opening, closing) * 4 + (closing, opening))
    assert (decision.verdict, preimage) == ("non-member", None)
    assert decision.configs_explored == 29_831
    assert len(calls) <= 19_881
    _, anbn, _ = anbn_built
    calls[:] = []
    decision, preimage = decide_hproper_membership(anbn, tuple("aaaabbbba"))
    assert (decision.verdict, preimage) == ("non-member", None)
    assert decision.configs_explored == 1_112
    assert len(calls) < 1_112


def test_hproper_decides_every_preimage_of_a_shrinking_automaton():
    # ab rejects at once, having read its first letter; ba cycles to ab.
    # Deciding every preimage of aa in turn leaves ab in the memo before ba
    # needs it, so ba stays within 3 configurations.  Skipping ab would
    # make ba explore it again and trip the limit.
    table = {
        ("q0", (C, "a")): (reject(),),
        ("q0", (C, "b")): (mvr("q0"),),
        ("q0", ("b", "a")): (sl("qr", ("a", "b")),),
        ("qr", ("a", "b")): (restart(),),
    }
    spec = AutomatonSpec("swap_back", frozenset({"q0", "qr"}), "q0", 2, frozenset("a"),
                         frozenset("ab"), table, ClassFlags(shrinking=True),
                         morphism={"a": "a", "b": "a"}, weights={"a": 1, "b": 1})
    assert validate_automaton(spec).ok
    decision, _ = decide_hproper_membership(spec, tuple("aa"), Limits(max_configs=3))
    assert (decision.verdict, decision.configs_explored) == ("non-member", 7)


def test_hproper_empty_word(anbn_built, m_e_h):
    _, spec, _ = anbn_built
    decision, _ = decide_hproper_membership(spec, ())
    assert not decision.is_member
    # For the doubling machine the empty tape is stuck, hence not basic.
    decision, _ = decide_hproper_membership(m_e_h.spec, ())
    assert not decision.is_member


def test_hproper_requires_morphism(m_e):
    with pytest.raises(PreconditionError):
        decide_hproper_membership(m_e.spec, ("a",))


def test_hproper_rejects_non_input_symbols(m_e_h):
    with pytest.raises(SymbolError):
        decide_hproper_membership(m_e_h.spec, ("a", "b"))


def test_compare_languages_reflexive(m_e):
    q = LanguageQuery("input", 8)
    outcome = compare_languages(m_e.spec, q, m_e.spec, q)
    assert outcome.equal


def test_compare_with_oracle(m_e):
    outcome = compare_with_oracle(
        m_e.spec, LanguageQuery("input", 10), m_e.oracle, m_e.oracle_alphabet
    )
    assert outcome.equal


def test_compare_finds_first_counterexample(dyck1):
    l2 = catalog_get("l_2")
    open_, close = sorted(dyck1.spec.input_alphabet)
    left = enumerate_language(dyck1.spec, LanguageQuery("input", 4))
    right = [w for w in words_over(l2.oracle_alphabet, 4) if l2.oracle(w)]
    outcome = compare_word_sets(left, right, 4)
    assert not outcome.equal
    assert outcome.counterexample == ()  # the empty word separates them first


def test_comparison_requires_equal_bounds(m_e):
    with pytest.raises(PreconditionError):
        compare_languages(
            m_e.spec, LanguageQuery("input", 4), m_e.spec, LanguageQuery("input", 5)
        )


def test_closure_enumeration_matches_brute_force():
    for name in ("m_e", "dyck1", "l_2", "lm_1", "lm_2", "reg_window1"):
        entry = catalog_get(name)
        spec = entry.spec
        seed = max(spec.window, entry.params.get("j", 0))
        brute = enumerate_language(spec, LanguageQuery("basic", 7), strategy="brute")
        closed = enumerate_basic_by_reduction(spec, 7, seed_len=seed)
        assert brute == closed, name


@pytest.mark.parametrize("j", [1, 2])
def test_closure_composes_every_rewrite_of_a_multi_rewrite_cycle(j):
    # lm_j's cycles rewrite up to j + 1 times; a closure that splices back
    # one rewrite per candidate finds 3 of lm_1's 31 words and 1 of lm_2's 7.
    spec = catalog_get("lm_%d" % j).spec
    brute = enumerate_language(spec, LanguageQuery("basic", 9), strategy="brute")
    assert enumerate_basic_by_reduction(spec, 9, seed_len=j + 2) == brute
    assert len(brute) == {1: 31, 2: 7}[j]


def test_closure_enumeration_big_bounds():
    l2 = catalog_get("l_2")
    got = enumerate_language(l2.spec, LanguageQuery("input", 15), strategy="closure")
    # The members a^n c b^n in closed form: sweeping all 21.5M words up to
    # length 15 through the oracle would take ten seconds.
    expected = [("a",) * n + ("c",) + ("b",) * n for n in range(8)]
    assert all(l2.oracle(w) for w in expected)
    assert got == expected


def test_tail_confined_bound(m_e, dyck1):
    assert tail_confined_bound(m_e.spec) == 1
    assert tail_confined_bound(dyck1.spec) == 0
    # The copy-language machines accept their separator words in a scanning
    # tail, so no syntactic bound is available.
    assert tail_confined_bound(catalog_get("lm_2").spec) is None


def test_explicit_closure_refuses_unconfined_tails():
    # lm_3 accepts ccc in a scanning tail, beyond any seed the closure could
    # take from the window alone.
    spec = catalog_get("lm_3").spec
    query = LanguageQuery("basic", 5)
    assert enumerate_language(spec, query, strategy="brute") == [("c", "c", "c")]
    with pytest.raises(PreconditionError, match="automaton lm_3"):
        enumerate_language(spec, query, strategy="closure")


def test_auto_strategy_uses_closure_for_large_domains(anbn_built):
    entry, spec, _ = anbn_built
    got = enumerate_language(spec, LanguageQuery("hproper", 12))
    expected = [w for w in words_over(entry.oracle_alphabet, 12) if entry.oracle(w)]
    assert got == expected


def test_closure_enumeration_reports_step_limit():
    l3 = catalog_get("l_3")
    query = LanguageQuery("input", 16, Limits(max_steps_per_cycle=6))
    with pytest.raises(ResourcesExceeded):
        enumerate_language(l3.spec, query, strategy="closure")


def test_auto_enumeration_refuses_an_unconfined_domain_too_large_to_search():
    # lm_3's basic domain up to 12 holds 797,161 words, over the brute
    # budget, and its tail acceptance has no syntactic bound.
    lm_3 = catalog_get("lm_3").spec
    assert tail_confined_bound(lm_3) is None
    with pytest.raises(ResourcesExceeded, match="domain too large for brute enumeration"):
        enumerate_language(lm_3, LanguageQuery("basic", 12), strategy="auto")
