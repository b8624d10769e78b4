"""Grammar pipeline and shrinking transform."""

import hashlib
import itertools

import pytest

from redukto.catalog import catalog_get
from redukto.checks import HOLDS, VIOLATED, CheckReport, Counterexample, check_cycle_soundness
from redukto.construct import (
    SynthesisError,
    build_hrrwwc,
    derivation_check,
    derivation_encode,
    dga,
    enumerate_grammar_words,
    hat_token,
    synthesize_reduction_system,
    to_shrinking,
)
from redukto.engine import cycle_rewrites, decide_basic_membership
from redukto.fileformat import render_automaton
from redukto.languages import (
    LanguageQuery,
    compare_word_sets,
    enumerate_language,
    words_over,
)
from redukto.model import (
    ACCEPT,
    LEFT_SENTINEL as C,
    MVR,
    REJECT,
    RESTART,
    RIGHT_SENTINEL as D,
    SL,
    GnfGrammar,
    GnfRule,
    PreconditionError,
    apply_morphism,
    classify_automaton,
    classify_rewrite,
)

R1, R2, R3 = "(1,a)", "(2,a)", "(3,b)"


def test_encoding_tags_each_rule(anbn_built):
    entry, _, _ = anbn_built
    tagged, dalpha = derivation_encode(entry.grammar)
    assert dalpha.symbols == (R1, R2, R3)
    assert dalpha.morphism == {R1: "a", R2: "a", R3: "b"}
    assert [r.head for r in tagged.rules] == [R1, R2, R3]
    assert [r.tail for r in tagged.rules] == [("S", "B"), ("B",), ()]


def test_encoding_single_rule_grammar():
    g = GnfGrammar("one", frozenset({"S"}), frozenset({"a"}), "S",
                   (GnfRule("S", "a", ()),))
    tagged, _ = derivation_encode(g)
    assert enumerate_grammar_words(tagged, 4) == [("(1,a)",)]


def test_encoding_distinguishes_rules_with_equal_heads():
    g = catalog_get("dyck_gnf").grammar
    tagged, dalpha = derivation_encode(g)
    assert len(dalpha.symbols) == len(g.rules)
    heads = {}
    for tok in dalpha.symbols:
        heads.setdefault(dalpha.morphism[tok], []).append(tok)
    assert all(len(toks) == 2 for toks in heads.values())


def brute_leftmost_words(grammar, max_len):
    """Independent oracle: enumerate leftmost derivations recursively."""
    out = set()

    def walk(emitted, stack):
        if len(emitted) + len(stack) > max_len:
            return
        if not stack:
            out.add(tuple(emitted))
            return
        top = stack[0]
        for i, rule in enumerate(grammar.rules, start=1):
            if rule.lhs == top:
                walk(emitted + [rule.head], list(rule.tail) + stack[1:])

    walk([], [grammar.start])
    return sorted(out, key=lambda w: (len(w), w))


def test_derivation_check_examples(anbn_built):
    entry, _, _ = anbn_built
    tagged, _ = derivation_encode(entry.grammar)
    assert derivation_check(tagged, (R1, R2, R3, R3))
    assert derivation_check(tagged, (R2, R3))
    assert not derivation_check(tagged, (R3,))
    assert not derivation_check(tagged, ())
    assert not derivation_check(tagged, (R2, R3, R3))


def test_derivation_check_matches_brute_enumeration():
    for name in ("anbn_gnf", "dyck_gnf"):
        tagged, _ = derivation_encode(catalog_get(name).grammar)
        expected = set(brute_leftmost_words(tagged, 10))
        for n in range(0, 11):
            for w in itertools.product(sorted(tagged.terminals), repeat=n):
                assert derivation_check(tagged, w) == (w in expected), (name, w)


def test_synthesis_retries_to_a_wider_window(anbn_built):
    _, _, report = anbn_built
    assert report.verdict == "validated"
    assert report.window_requested == 3
    assert report.window_used == 4


def test_synthesis_fails_without_retry_budget():
    tagged, _ = derivation_encode(catalog_get("anbn_gnf").grammar)
    with pytest.raises(SynthesisError) as err:
        synthesize_reduction_system(tagged, 2)
    assert err.value.report.counterexamples or err.value.report.notes


@pytest.mark.parametrize("checked, counterexamples, note", [
    (CheckReport("monotonicity", 8, HOLDS), [], "monotonicity check: not shown beyond length 8"),
    (CheckReport("monotonicity", 8, VIOLATED, Counterexample(tuple("ab"), None, "rises")),
     [tuple("ab")], "monotonicity check: violated"),
], ids=["holds-up-to-bound", "violated"])
def test_synthesis_fails_unless_the_scanner_is_monotone_at_every_length(
        monkeypatch, checked, counterexamples, note):
    # The anbn scanner at window 4 is monotone at every length; a report
    # that holds only up to its bound, or a violation, fails the attempt.
    import redukto.construct as construct

    monkeypatch.setattr(construct, "check_monotone", lambda *args: checked)
    tagged, _ = derivation_encode(catalog_get("anbn_gnf").grammar)
    with pytest.raises(SynthesisError) as err:
        synthesize_reduction_system(tagged, 4)
    report = err.value.report
    assert (report.verdict, report.counterexamples, report.notes) == (
        "failed", counterexamples, [note])


def test_a_window_cap_below_the_window_is_refused():
    with pytest.raises(PreconditionError, match="^window cap 3 is below the window size 5$"):
        build_hrrwwc(catalog_get("anbn_gnf").grammar, 5, window_cap=3)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gnf(name, *rules):
    """A GNF grammar from (lhs, head, tail) triples, started at S."""
    return GnfGrammar(name, frozenset(lhs for lhs, _, _ in rules),
                      frozenset(head for _, head, _ in rules), "S",
                      tuple(GnfRule(lhs, head, tuple(tail)) for lhs, head, tail in rules))


# Grammars beyond the catalog's two, pinned below with the catalog's.
GRAMMARS = {g.name: g for g in (
    # Marked palindromes: w c reverse(w) over {a, b}.
    gnf("mpal_gnf", ("S", "a", "SA"), ("S", "b", "SB"), ("S", "c", ""),
        ("A", "a", ""), ("B", "b", "")),
    # a^n c b^n.
    gnf("ancbn_gnf", ("S", "a", "SB"), ("S", "c", ""), ("B", "b", "")),
    # Non-empty Dyck words over two bracket pairs.
    gnf("dyck2_gnf", ("S", "(", "SX"), ("S", "(", "X"), ("S", "[", "SY"), ("S", "[", "Y"),
        ("X", ")", "S"), ("X", ")", ""), ("Y", "]", "S"), ("Y", "]", "")),
)}

A2_B3 = "language mismatch: counterexample (2,a) (3,b) (only in right)"
A1_CLOSE = "language mismatch: counterexample (2,a1) (4,ā1) (only in right)"
OPEN_CLOSE = "language mismatch: counterexample (2,() (6,)) (only in right)"

# What build_hrrwwc(grammar, k, window_cap=k) gives: verdict, window used,
# notes, counterexamples, and the SHA-256 of the report's description, which
# lists every rule, and of the rendered automaton (None on a failure).  A
# change to the synthesizer's filter must keep these.
SYNTHESIS_PINS = {
    ("anbn_gnf", 2): ("failed", 2, [A2_B3], [(R2, R3)],
                      "9bd14f274022838ca41603437e4dbe157eeea7fdb42e09a38ce318c581a34afb", None),
    ("anbn_gnf", 3): ("failed", 3, [A2_B3], [(R2, R3)],
                      "bacad8f61d5c938516dd2eb3e0764b7bc29f3ce1fa5e61fcfd463c31280e6470", None),
    ("anbn_gnf", 4): ("validated", 4, [], [],
                      "6ac10fa5d883d844f627f35c10f6c062ed02e7e9c196fa6051032bd139f2ebe9",
                      "107bbf9a3a4237ed866876221b44392fac3a6479a2289809a465d5574e67c21c"),
    ("anbn_gnf", 5): ("validated", 5, [], [],
                      "c8a947d786548f84261edb5052386be87f437989d7316e5df341b2c078e55b2b",
                      "b7d17683505b4e53ece754cd392e3e9e88d8acbf861b8c169781841ab9c50a94"),
    ("dyck_gnf", 2): ("failed", 2, [A1_CLOSE], [("(2,a1)", "(4,ā1)")],
                      "21280c98ee9075af6d8ba15afc5e1d0f04ed8f23e614c171e2efa19c36c50334", None),
    ("dyck_gnf", 3): ("failed", 3, [A1_CLOSE], [("(2,a1)", "(4,ā1)")],
                      "1b49a9c851331c166413219b006872d8cbcd0e2e51f41543a1e1756c84b1517f", None),
    ("dyck_gnf", 4): ("validated", 4, [], [],
                      "92f3cfb9ac8eec1f87ad6c672c5fbedb354057973d1359b13a342bac310c1d7a",
                      "8fd4930ce4dae793dd9563a162761f6e36da24a6a375043a6e100125446f1736"),
    ("mpal_gnf", 3): ("validated", 3, [], [],
                      "5d51ebda76bd28a591012d53a3034fb1bdf01a29d42d7e784d1912183d2d4441",
                      "44aae27d90e7177b414e12563df9b15ec0aefe8d0c3269aed3ac3f3c059cd67b"),
    ("mpal_gnf", 4): ("validated", 4, [], [],
                      "49959c160cd52991704418494c7037bd5036947e8aedc0f55e562ac2d37a7e5e",
                      "c8c3ffd92ebeb5bac3fe8920357e5aa4b70643c0fdae153a0e764192d03451a4"),
    ("ancbn_gnf", 3): ("validated", 3, [], [],
                       "bdf5aa57306a534f142da7874681bd5bff76f2de60039f01a0936f56ce901c29",
                       "6090b91d2ff746de080b5c10fb3ff111d1c5fc6fcd6136adbafcb044d03a2ec0"),
    ("ancbn_gnf", 4): ("validated", 4, [], [],
                       "bf67116e0f49d6788352f0738f03a695ba501b14ff2bec50d3799c348e4523f4",
                       "eaf64822fcf32411318423f6f80b7c7c39dcc5ee695b5fef59b93d15a81f44bc"),
    # The largest filter sample of these; no window up to 4 validates.
    ("dyck2_gnf", 2): ("failed", 2, [OPEN_CLOSE], [("(2,()", "(6,))")],
                       "106230bc57b0e13cd8bbd809c2473b339c5de069b4cbe562fd0b48e12c83d890", None),
}


@pytest.mark.parametrize("name,k", sorted(SYNTHESIS_PINS))
def test_synthesis_output_is_pinned(name, k):
    try:
        grammar = GRAMMARS[name] if name in GRAMMARS else catalog_get(name).grammar
        spec, report = build_hrrwwc(grammar, k, window_cap=k)
        rendered = sha256(render_automaton(spec))
    except SynthesisError as err:
        report, rendered = err.report, None
    got = (report.verdict, report.window_used, report.notes, report.counterexamples,
           sha256(report.describe()), rendered)
    assert got == SYNTHESIS_PINS[name, k]


def test_synthesized_rules_are_contextual(anbn_built, dyck_built):
    for _, spec, report in (anbn_built, dyck_built):
        assert report.rules
        for u, v in report.rules:
            assert classify_rewrite(u, v) == "CL"


def test_single_word_grammar_needs_no_rules():
    g = GnfGrammar("one", frozenset({"S"}), frozenset({"a"}), "S",
                   (GnfRule("S", "a", ()),))
    tagged, _ = derivation_encode(g)
    spec, report = synthesize_reduction_system(tagged, 3)
    assert report.verdict == "validated"
    assert report.rules == []
    assert enumerate_language(spec, LanguageQuery("input", 5)) == [("(1,a)",)]


def test_built_automaton_contract(anbn_built, dyck_built):
    for entry, spec, report in (anbn_built, dyck_built):
        assert report.window_used <= 6
        tags = classify_automaton(spec)
        assert tags.deterministic
        assert tags.form == "CL"
        assert tags.aux == "WW"
        # Input words are rejected on sight, so the input language is empty.
        assert enumerate_language(spec, LanguageQuery("input", 8)) == []


def test_built_scanner_shape(anbn_built, dyck_built):
    # The shape that makes every cycle rewrite exactly once and no tail
    # rewrite, so that synthesis need not check the cycle discipline.
    for _, spec, _ in (anbn_built, dyck_built):
        assert spec.states == {"q0", "qr"}
        for (state, window), instrs in spec.table.items():
            [ins] = instrs
            if state == "qr":
                assert ins.kind == RESTART
            elif ins.kind == MVR:
                assert ins.state == "q0"
            elif ins.kind == SL:
                assert ins.state == "qr"
            elif ins.kind == ACCEPT:
                assert window[0] == C and window[-1] == D
            else:
                assert ins.kind == REJECT


def test_built_scanner_cycles_are_sound(anbn_built, dyck_built):
    for _, spec, _ in (anbn_built, dyck_built):
        assert check_cycle_soundness(spec, 6).holds


def test_built_scanner_closure_equals_brute(anbn_built, dyck_built):
    # Tail acceptance is confined to short words, so the closure
    # enumeration synthesis validates with is exact.
    query = LanguageQuery("basic", 6)
    for _, spec, _ in (anbn_built, dyck_built):
        closure = enumerate_language(spec, query, strategy="closure")
        assert closure == enumerate_language(spec, query, strategy="brute")


def test_built_hproper_equals_grammar(anbn_built):
    entry, spec, _ = anbn_built
    got = enumerate_language(spec, LanguageQuery("hproper", 10))
    expected = [w for w in words_over(entry.oracle_alphabet, 10) if entry.oracle(w)]
    assert got == expected


def test_built_cycle_rewriting(anbn_built):
    # The length-4 derivation word reduces in one cycle to the base word.
    _, spec, _ = anbn_built
    rewrites = cycle_rewrites(spec, (R1, R2, R3, R3))
    assert set(rewrites) == {(R2, R3)}


def test_built_witnesses_project_back(anbn_built):
    from redukto.languages import decide_hproper_membership

    entry, spec, _ = anbn_built
    for w in words_over(entry.oracle_alphabet, 8):
        if not entry.oracle(w):
            continue
        decision, witness = decide_hproper_membership(spec, w)
        assert decision.is_member
        assert apply_morphism(spec.morphism, witness) == w
        assert decide_basic_membership(spec, witness).is_member


def test_degree_of_ambiguity(anbn_built, m_e_h):
    _, spec, _ = anbn_built
    assert dga(spec, "a") == 3        # a, (1,a), (2,a)
    assert dga(spec, "b") == 2        # b, (3,b)
    assert dga(m_e_h.spec, "a") == 2  # a, b
    identity = catalog_get("dyck1").spec
    from dataclasses import replace

    with_h = replace(identity, morphism={t: t for t in identity.work_alphabet},
                     table=dict(identity.table))
    assert all(dga(with_h, t) == 1 for t in with_h.input_alphabet)


def test_dga_requires_morphism(m_e):
    with pytest.raises(PreconditionError):
        dga(m_e.spec, "a")


def test_shrinking_requires_morphism(m_e):
    with pytest.raises(PreconditionError):
        to_shrinking(m_e.spec)


def test_shrinking_weights_formula(m_e_h_shrunk, anbn_shrunk):
    spec, weights = m_e_h_shrunk
    assert weights["a"] == 3 and weights["b"] == 1 and weights[hat_token("a")] == 1
    source, shrunk, w2 = anbn_shrunk
    assert w2["a"] == dga(source, "a") + 1
    assert w2["b"] == dga(source, "b") + 1
    assert all(w2[t] == 1 for t in shrunk.work_alphabet - shrunk.input_alphabet)


def test_shrunk_identity_source_stays_deterministic():
    # With no lexical ambiguity the only phase-one choice is the hatted copy.
    from dataclasses import replace

    dyck = catalog_get("dyck1").spec
    with_h = replace(dyck, morphism={t: t for t in dyck.work_alphabet},
                     table=dict(dyck.table))
    shrunk, weights = to_shrinking(with_h)
    assert shrunk.flags.deterministic
    expected = enumerate_language(dyck, LanguageQuery("input", 6))
    got = [w for w in words_over(sorted(dyck.input_alphabet), 6)
           if decide_basic_membership(shrunk, w).is_member]
    assert got == expected


def test_shrunk_input_language_is_hproper_of_source(m_e_h, m_e_h_shrunk):
    spec, _ = m_e_h_shrunk
    basics = enumerate_language(m_e_h.spec, LanguageQuery("basic", 9))
    expected = sorted({apply_morphism(m_e_h.spec.morphism, w) for w in basics},
                      key=lambda w: (len(w), w))
    got = [w for w in words_over(("a",), 9)
           if decide_basic_membership(spec, w).is_member]
    assert got == expected


def test_shrunk_reductions_correspond(m_e_h, m_e_h_shrunk):
    spec, _ = m_e_h_shrunk
    sigma = m_e_h.spec.input_alphabet

    def hat(word):
        return tuple(hat_token(t) if t in sigma else t for t in word)

    for n in range(0, 7):
        for word in itertools.product(("a", "b"), repeat=n):
            src = set(cycle_rewrites(m_e_h.spec, word))
            tgt = set(cycle_rewrites(spec, hat(word)))
            assert {hat(w) for w in src} == tgt, word


def test_shrunk_phase_one_is_one_symbol_per_cycle(m_e_h_shrunk):
    spec, weights = m_e_h_shrunk
    word = tuple("aaa")
    rewrites = cycle_rewrites(spec, word)
    # Each successor replaces exactly the rightmost input symbol.
    assert set(rewrites) == {("a", "a", "b"), ("a", "a", "a^")}
    from redukto.model import word_weight

    for v in rewrites:
        assert word_weight(weights, v) < word_weight(weights, word)
