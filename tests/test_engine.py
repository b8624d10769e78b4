"""Step semantics, deterministic runs, membership search and cycle rewriting."""

import gc
import itertools
import re
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

import redukto
from redukto.catalog import catalog_get, catalog_list
from redukto.engine import (
    Configuration,
    CycleRecord,
    Limits,
    ResourcesExceeded,
    Trace,
    cycle_rewrites,
    decide_basic_membership,
    decide_input_membership,
    decide_members,
    replay_trace,
    restarting_configuration,
    right_distance,
    run_deterministic,
    successors,
    walk_branches,
    window_of,
)
from redukto.languages import LanguageQuery, enumerate_language
from redukto.model import (
    LEFT_SENTINEL as C,
    RIGHT_SENTINEL as D,
    AutomatonSpec,
    ClassFlags,
    PreconditionError,
    SymbolError,
    accept,
    mvl,
    mvr,
    reject,
    restart,
    sl,
)


def word(text):
    return tuple(text)


def test_restarting_configuration_shape(m_e):
    config = restarting_configuration(m_e.spec, word("aa"))
    assert config.tape == (C, "a", "a", D)
    assert config.state == "q0" and config.pos == 0 and config.rewrites == 0
    assert window_of(m_e.spec, config) == (C, "a", "a")


def test_rewrite_splice_and_window_refill(m_e):
    # Rewriting the rightmost pair of a^4 moves the window one cell left, so
    # the refilled window shows the symbol in front of the spliced target.
    spec = m_e.spec
    config = Configuration((C, "a", "a", "a", "a", D), "q0", 3, 0)
    assert window_of(spec, config) == ("a", "a", D)
    [(ins, nxt)] = successors(spec, config)
    assert ins.kind == "SL" and ins.target == ("b", D)
    assert nxt.tape == (C, "a", "a", "b", D)
    assert nxt.pos == 2 and nxt.state == "q1" and nxt.rewrites == 1
    assert window_of(spec, nxt) == ("a", "b", D)


def test_mvr_not_offered_on_final_window(dyck1):
    spec = dyck1.spec
    # Force a window showing only the right sentinel; even an explicit MVR
    # entry would not be offered there.
    config = Configuration((C, D), "qr", 1, 0)
    offers = successors(spec, config)
    assert all(ins.kind != "MVR" for ins, _ in offers)


def test_restart_resets_state_position_and_counter(m_e):
    config = Configuration((C, "a", "b", D), "q1", 2, 1)
    [(ins, nxt)] = successors(m_e.spec, config)
    assert ins.kind == "Restart"
    assert (nxt.state, nxt.pos, nxt.rewrites) == ("q0", 0, 0)
    assert nxt.tape == config.tape


def test_missing_key_yields_no_successors(m_e):
    config = restarting_configuration(m_e.spec, ())
    assert successors(m_e.spec, config) == []


def test_run_powers_of_two(m_e):
    trace = run_deterministic(m_e.spec, word("aaaa"))
    assert trace.outcome == "accept"
    assert trace.cycle_count() == 3
    assert trace.reductions() == [
        (word("aaaa"), word("aab")),
        (word("aab"), word("bb")),
        (word("bb"), word("a")),
    ]
    assert replay_trace(m_e.spec, trace)


def test_run_rejects_three(m_e):
    trace = run_deterministic(m_e.spec, word("aaa"))
    assert trace.outcome == "reject"
    assert trace.reductions() == [(word("aaa"), word("ab"))]
    # The rejecting step fires on the left-anchored window of a b.
    last_config, last_ins = trace.steps[-1]
    assert last_ins.kind == "Reject"
    assert window_of(m_e.spec, last_config) == (C, "a", "b")


def test_run_empty_word_is_stuck(m_e):
    trace = run_deterministic(m_e.spec, ())
    assert trace.outcome == "reject"
    assert trace.flag == "stuck"


def test_run_requires_deterministic_flag(m_e_h_shrunk):
    spec, _ = m_e_h_shrunk
    with pytest.raises(PreconditionError):
        run_deterministic(spec, word("aa"))


def test_run_detects_divergence():
    from redukto.model import AutomatonSpec, ClassFlags, mvr

    # MVR is never offered on the final window, so a deterministic table
    # that holds one there is refused when it is built; a genuine in-cycle
    # loop needs a left-right shuttle.
    with pytest.raises(PreconditionError, match=r"^MVR on right-sentinel-only window at \(q1, \$\)$"):
        AutomatonSpec(
            name="loop",
            states=frozenset({"q0", "q1"}),
            initial="q0",
            window=1,
            input_alphabet=frozenset({"a"}),
            work_alphabet=frozenset({"a"}),
            table={
                ("q0", (C,)): [mvr("q1")],
                ("q1", ("a",)): [mvr("q1")],
                ("q1", (D,)): [mvr("q1")],
            },
            flags=ClassFlags(deterministic=True, direction="RR", aux="none", form="CL"),
        )

    from redukto.model import mvl

    shuttle = AutomatonSpec(
        name="shuttle",
        states=frozenset({"q0", "q1"}),
        initial="q0",
        window=1,
        input_alphabet=frozenset({"a"}),
        work_alphabet=frozenset({"a"}),
        table={
            ("q0", (C,)): [mvr("q1")],
            ("q1", ("a",)): [mvl("q0")],
        },
        flags=ClassFlags(deterministic=True),
    )
    trace = run_deterministic(shuttle, word("a"))
    assert trace.outcome == "diverges"


def test_invalid_cycle_on_accept_after_rewrite(m_e):
    from dataclasses import replace
    from redukto.model import accept

    # Legal under direction RR, where the state a rewrite enters may do
    # more than restart.
    table = dict(m_e.spec.table)
    table[("q1", ("a", "b", D))] = [accept()]
    bad = replace(m_e.spec, table=table, flags=replace(m_e.spec.flags, direction="RR"))
    trace = run_deterministic(bad, word("aaaa"))
    assert trace.outcome == "invalid-cycle"
    assert "tail" in trace.flag


def test_basic_membership_examples(m_e):
    assert decide_basic_membership(m_e.spec, word("b")).is_member
    assert not decide_basic_membership(m_e.spec, word("aaaaa")).is_member
    assert decide_basic_membership(m_e.spec, word("aab")).is_member


def test_decisions_are_immutable(m_e):
    decision = decide_basic_membership(m_e.spec, word("bab"))
    with pytest.raises(FrozenInstanceError):
        decision.configs_explored = 0


def test_results_refuse_assignment(m_e):
    from redukto.checks import check_monotone
    from redukto.construct import derivation_encode
    from redukto.languages import compare_word_sets

    report = check_monotone(m_e.spec, 8)
    for result, name in (
        (run_deterministic(m_e.spec, word("aaa")), "outcome"),
        (report, "verdict"),
        (report.counterexample, "word"),
        (compare_word_sets([word("a")], [], 1), "equal"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(result, name, None)
    _, alphabet = derivation_encode(catalog_get("anbn_gnf").grammar)
    with pytest.raises(TypeError):
        alphabet.morphism["(1,a)"] = "b"


def outcomes(pairs):
    return [(decision.verdict, decision.configs_explored, member) for decision, member in pairs]


def test_first_member_takes_no_candidate_from_an_empty_choice(m_e):
    pairs = decide_members(m_e.spec, [["a"], [], ["a"]])
    assert outcomes(pairs) == [("non-member", 0, None)]


def test_first_member_skips_the_candidates_of_a_rejected_prefix(m_e):
    # m_e rejects ba on its first window, ¢ba, having read two letters: one
    # configuration rules out every candidate that starts with them.
    assert decide_basic_membership(m_e.spec, word("baab")).configs_explored == 1
    options = [["b"], ["a"], ["a", "b"], ["a", "b"]]
    assert outcomes(decide_members(m_e.spec, options)) == [("non-member", 1, None)]
    # baa rules out bab, and the odometer moves on to the member bba, which
    # takes 7, and to bbb, the last candidate, which takes 5.
    assert outcomes(decide_members(m_e.spec, [["b"], ["a", "b"], ["a", "b"]])) == [
        ("member", 1 + 7, word("bba")), ("non-member", 1 + 7 + 5, None)]


def test_rejected_prefix_reaches_past_a_move_left():
    # The first phase of aa reads both letters, moves back onto the first
    # and rejects there: its rejected prefix is the two letters it read, not
    # the one it stopped on, so the member ab, which shares only the first,
    # is still decided.
    table = {
        ("q0", (C,)): (mvr("q0"),),
        ("q0", ("a",)): (mvr("q1"),),
        ("q1", ("a",)): (mvl("q2"),),
        ("q2", ("a",)): (reject(),),
        ("q1", ("b",)): (mvr("q3"),),
        ("q3", (D,)): (accept(),),
    }
    spec = AutomatonSpec("back", frozenset({"q0", "q1", "q2", "q3"}), "q0", 1, frozenset("ab"),
                         frozenset("ab"), table, ClassFlags(deterministic=True))
    assert decide_basic_membership(spec, word("aa")).configs_explored == 4
    # ba is stuck on its first letter, which rules out bb.
    assert outcomes(decide_members(spec, [["a", "b"], ["a", "b"]])) == [
        ("member", 4 + 4, word("ab")), ("non-member", 4 + 4 + 2, None)]
    assert enumerate_language(spec, LanguageQuery("basic", 2)) == [word("ab")]


@pytest.mark.parametrize("last", [(mvl("q0"),), (mvl("q0"), reject())])
def test_phase_search_charges_nothing_for_a_move_back_into_its_steps_in_place(last):
    # On a the phase steps ¢, a and $ in place, then moves back onto a: the
    # configuration it meets there is one it expanded, and is not charged
    # again, whether the phase reaches $ in place or as the root of its
    # branch search.
    table = {("q0", (C,)): (mvr("q0"),), ("q0", ("a",)): (mvr("q0"),), ("q0", (D,)): last}
    spec = AutomatonSpec("back", frozenset({"q0"}), "q0", 1, frozenset("a"), frozenset("a"),
                         table, ClassFlags(deterministic=False))
    assert cycle_rewrites(spec, word("a"), Limits(3)) == {}
    with pytest.raises(ResourcesExceeded, match="^configs limit exceeded$"):
        cycle_rewrites(spec, word("a"), Limits(2))


def test_members_end_with_the_candidate_that_tripped_a_limit(m_e):
    # The member aaba takes 10 configurations, and aaaa, which needs 12,
    # trips the limit on its 11th.
    options = [["a"], ["a"], ["b", "a"], ["a"]]
    pairs = list(decide_members(m_e.spec, options, Limits(max_configs=10)))
    assert outcomes(pairs) == [("member", 10, word("aaba")),
                               ("resource-exceeded", 10 + 11, word("aaaa"))]
    assert pairs[-1][0].exceeded == "configs limit exceeded"


def test_tail_acceptance_has_no_cycles(m_e):
    decision = decide_basic_membership(m_e.spec, word("a"))
    assert decision.is_member
    assert decision.witness.cycle_count() == 0


def test_input_membership_checks_alphabet(m_e):
    assert decide_input_membership(m_e.spec, word("a" * 8)).is_member
    with pytest.raises(SymbolError):
        decide_input_membership(m_e.spec, word("b"))


@pytest.mark.parametrize("foreign", [C, D, "zz"])
def test_entries_refuse_symbols_outside_the_working_alphabet(m_e, foreign):
    # A sentinel inside a word would be read as a border, and a symbol the
    # table never names would leave the run stuck, so each is an error.
    spec, w = m_e.spec, ("a", foreign, "a", "a")
    message = "^%s$" % re.escape("symbol %r outside working alphabet" % foreign)
    for call in (lambda: run_deterministic(spec, w),
                 lambda: decide_basic_membership(spec, w),
                 lambda: decide_basic_membership(spec, w, memoize=False),
                 lambda: cycle_rewrites(spec, w),
                 lambda: walk_branches(spec, w, lambda state, config, ins: (None, None)),
                 lambda: next(decide_members(spec, [("a",), ("b", foreign)]))):
        with pytest.raises(SymbolError, match=message):
            call()
    # The input decider names the input alphabet, which b is outside too.
    with pytest.raises(SymbolError, match=r"^symbol 'b' is not an input symbol$"):
        decide_input_membership(spec, ("a", "b", foreign))


def test_input_membership_brackets(dyck1):
    open_, close = sorted(dyck1.spec.input_alphabet)
    assert decide_input_membership(dyck1.spec, (open_, close, open_, close)).is_member
    assert not decide_input_membership(dyck1.spec, (open_, close, close)).is_member


def test_witnesses_replay(m_e, dyck1):
    for entry, text in ((m_e, "aaaaaaaa"), (m_e, "b"),):
        decision = decide_basic_membership(entry.spec, word(text))
        assert decision.is_member
        assert replay_trace(entry.spec, decision.witness)
        assert decision.witness.outcome == "accept"


def test_cycle_rewrites_deterministic_single_successor(m_e):
    rewrites = cycle_rewrites(m_e.spec, word("aaaa"))
    assert list(rewrites) == [word("aab")]
    assert [Trace(word("aaaa"), (r,), "counterexample").reductions() for r in rewrites.values()] \
        == [[(word("aaaa"), word("aab"))]]


def test_cycle_rewrites_tail_only_word_has_none(m_e):
    assert cycle_rewrites(m_e.spec, word("a")) == {}


def test_cycle_rewrites_shorten(m_e, dyck1):
    for entry in (m_e, dyck1):
        alphabet = sorted(entry.spec.work_alphabet)
        for n in range(0, 6):
            for w in itertools.product(alphabet, repeat=n):
                for v in cycle_rewrites(entry.spec, w):
                    assert len(v) < len(w)


def test_right_distance():
    config = Configuration((C, "a", "a", "b", D), "q0", 1, 0)
    assert right_distance(config) == 4
    assert right_distance(Configuration((C, "a", D), "q0", 2, 0)) == 1
    assert right_distance(Configuration((C, "a", "b", D), "q0", 0, 0)) == 4


def _search_outcome(spec, w, memoize):
    """The verdict of a search, or the message of the PreconditionError it
    raises."""
    try:
        return decide_basic_membership(spec, w, memoize=memoize).verdict
    except PreconditionError as err:
        return str(err)


def test_memoized_and_plain_search_agree_small(swapper):
    specs = [entry.spec for entry in catalog_list() if entry.kind == "automaton"] + [swapper]
    for spec in specs:
        alphabet = sorted(spec.work_alphabet)
        for n in range(0, 5):
            for w in itertools.product(alphabet, repeat=n):
                fast = _search_outcome(spec, w, memoize=True)
                assert fast == _search_outcome(spec, w, memoize=False), (spec.name, w)


def test_search_agrees_with_deterministic_run(m_e, dyck1):
    for entry in (m_e, dyck1):
        spec = entry.spec
        alphabet = sorted(spec.work_alphabet)
        for n in range(0, 7):
            for w in itertools.product(alphabet, repeat=n):
                run = run_deterministic(spec, w)
                search = decide_basic_membership(spec, w)
                assert (run.outcome == "accept") == search.is_member, (entry.name, w)


def test_limits_are_reported():
    tiny = Limits(max_configs=2)
    m_e = catalog_get("m_e")
    decision = decide_basic_membership(m_e.spec, word("aaaa"), tiny)
    assert decision.verdict == "resource-exceeded"
    trace = run_deterministic(m_e.spec, word("aaaa"), tiny)
    assert trace.outcome == "limit-exceeded"


def test_only_the_configurations_budget_bounds_a_cycle(dyck1):
    # The first cycle of a1^10001 ā1 takes 10,003 steps, the whole run
    # 20,004.
    opening, closing = sorted(dyck1.spec.input_alphabet)
    w = (opening,) * 10_001 + (closing,)
    run = run_deterministic(dyck1.spec, w)
    assert (run.outcome, run.flag, len(run.steps)) == ("reject", None, 20_004)
    decision = decide_basic_membership(dyck1.spec, w)
    assert (decision.verdict, decision.exceeded, decision.configs_explored) == \
        ("non-member", None, 20_004)


def test_decider_agrees_with_run_beyond_a_thousand_cycles(m_e, dyck1):
    # Pinned work: a visited-set key coarser than the whole configuration
    # would explore fewer configurations.
    open_, close = sorted(dyck1.spec.input_alphabet)
    for spec, w, work in ((m_e.spec, word("a" * 1024), 351_572),
                          (dyck1.spec, (open_, close) * 1200, 3_601)):
        run = run_deterministic(spec, w)
        decision = decide_input_membership(spec, w)
        assert run.outcome == "accept"
        assert decision.is_member
        assert decision.witness.steps == run.steps
        assert decision.configs_explored == len(run.steps) == work


@pytest.mark.parametrize("name, short, long, configs, limits", [
    ("reg_window1", 2_000, 8_000, (6_002, 24_002), Limits()),
    ("m_e", 1_024, 4_096, (351_572, 5_600_596), Limits(max_configs=10_000_000)),
])
def test_run_memory_per_configuration_does_not_grow_with_the_word(name, short, long, configs,
                                                                  limits):
    # Records keep steps, not tapes, and one tape is rewritten in place, so
    # the traced peak of a run grows with its configurations, not with
    # configurations times the tape's length.  Memory is read from
    # tracemalloc, never from the clock or RSS.
    spec = catalog_get(name).spec

    def per_configuration(n):
        gc.collect()
        tracemalloc.start()
        try:
            trace = run_deterministic(spec, ("a",) * n, limits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = sum(len(record.scan) + len(record.steps) for record in trace.records)
        return trace.outcome, count, peak / count

    (short_outcome, short_count, short_peak) = per_configuration(short)
    (long_outcome, long_count, long_peak) = per_configuration(long)
    assert (short_outcome, long_outcome) == ("accept", "accept")
    assert (short_count, long_count) == configs
    assert long_peak <= 1.5 * short_peak, (short_peak, long_peak)


def test_decision_memory_does_not_grow_with_the_word_squared():
    # The memo keeps the word decided, not each word of the chain, so the
    # traced peak of deciding a flat word grows with the word, as the run's
    # does, not with its square (a^4000 to a^8000 read 66 and 260 MB when
    # every restarting word was a key).
    spec = catalog_get("reg_window1").spec

    def peak(n):
        gc.collect()
        tracemalloc.start()
        try:
            decision = decide_basic_membership(spec, ("a",) * n, memo={})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return decision.verdict, peak

    (short_verdict, short_peak), (long_verdict, long_peak) = peak(4_000), peak(8_000)
    assert (short_verdict, long_verdict) == ("member", "member")
    assert long_peak <= 2.5 * short_peak, (short_peak, long_peak)


def test_long_runs_compare_hash_and_print():
    # A run keeps more records than the recursion limit; runs and records
    # compare, hash and print all the same.  A record keeps no start tape,
    # so the two runs' last records, which start on the same tape, are
    # equal while the runs are not.
    spec = catalog_get("reg_window1").spec
    w = ("a",) * 1_200
    first, again, longer = (run_deterministic(spec, v) for v in (w, w, w + ("a",)))
    assert first == again and hash(first.records[-1]) == hash(again.records[-1])
    assert first != longer and first.records[-1] == longer.records[-1]
    assert repr(first).count("CycleRecord(") == len(first.records)
    assert decide_basic_membership(spec, w) == decide_basic_membership(spec, w)


def test_long_traces_differing_in_a_deep_record_compare_unequal():
    # Traces compare by their word and records, each record by its own
    # fields, so a difference deep in a long run shows.
    spec = catalog_get("reg_window1").spec
    run = run_deterministic(spec, ("a",) * 3_000)
    records, k = list(run.records), len(run.records) // 2
    deep = records[k]

    def with_deep(record):
        return Trace(run.word, tuple(records[:k] + [record] + records[k + 1:]), run.outcome, run.flag)

    assert with_deep(CycleRecord(*deep)) == run
    assert run != with_deep(deep._replace(steps=deep.steps[:-1]))
    # The same records, but starting on another word.
    assert Trace(run.word[1:], run.records, run.outcome, run.flag) != run


def test_phase_keeps_branches_that_meet_on_different_tapes():
    # Rewriting at once and moving first both reach state q1 at pos 0 after
    # one rewrite, on the tapes ¢a$ and ¢$; only the second accepts.
    table = {
        ("q0", (C, "b")): (mvr("q1"), sl("q1", (C,))),
        ("q1", ("b", "a")): (sl("q1", ()),),
        ("q1", (C, "a")): (restart(),),
        ("q1", (C, D)): (restart(),),
        ("q0", (C, D)): (accept(),),
    }
    spec = AutomatonSpec("meet", frozenset({"q0", "q1"}), "q0", 2, frozenset("ab"),
                         frozenset("ab"), table)
    assert list(cycle_rewrites(spec, word("ba"))) == [(), ("a",)]
    assert decide_basic_membership(spec, word("ba")).is_member


def test_cycle_rewrites_raise_on_step_limit(m_e):
    with pytest.raises(ResourcesExceeded):
        cycle_rewrites(m_e.spec, word("aaaa"), Limits(max_configs=2))


def test_cycle_rewrites_require_progress(heavy):
    # A check, not an assert: it must hold under ``python -O`` too.
    with pytest.raises(PreconditionError, match="cycle did not decrease the tape weight"):
        cycle_rewrites(heavy, word("aa"))


@pytest.mark.parametrize("deterministic", [True, False])
def test_a_shared_memo_keeps_only_the_words_decided(m_e, deterministic):
    # The words a search restarts on are its own: the memo gets the start
    # word alone, with its verdict, whether the automaton's one computation
    # is followed or every branch is searched.
    spec = replace(m_e.spec, flags=replace(m_e.spec.flags, deterministic=deterministic))
    for w, verdict in ((word("a" * 64), "member"), (word("a" * 48), "non-member")):
        memo: dict = {}
        assert decide_basic_membership(spec, w, memo=memo).verdict == verdict
        assert list(memo) == [w] and memo[w][0] == (verdict == "member")
    assert memo == {w: (False, None)}


def test_brute_enumeration_memoizes_the_candidates_it_decides(monkeypatch):
    # On one memo across lengths, as brute enumeration shares it, the memo
    # ends up with exactly the candidates decided, in order: neither the
    # candidates that a rejected prefix ruled out, nor the words that the
    # cycles of the others restarted on.
    import redukto.engine as engine

    decided, search = [], engine._search

    def recorded(spec, candidate, *args):
        decided.append(candidate)
        return search(spec, candidate, *args)

    monkeypatch.setattr(engine, "_search", recorded)
    spec = catalog_get("l_3").spec
    memo: dict = {}
    for n in range(7):
        for _ in decide_members(spec, [sorted(spec.work_alphabet)] * n, memo=memo):
            pass
    assert list(memo) == decided
    assert len(decided) < sum(len(spec.work_alphabet) ** n for n in range(7))


def test_tripped_limit_leaves_shared_memo_undecided(m_e):
    # Words still open when the limit trips must not read as rejected in a
    # later call that shares the memo.
    memo: dict = {}
    w = word("a" * 64)
    assert decide_basic_membership(m_e.spec, w, Limits(max_configs=50), memo=memo).verdict \
        == "resource-exceeded"
    assert decide_basic_membership(m_e.spec, w, memo=memo).is_member


def test_recurring_restarting_word_is_invalid(swapper):
    # ab and ba rewrite into each other.  Reading the recurring word as
    # rejected would cache ab as rejected while deciding ba (member through
    # b), and then answer non-member for ab from the shared memo.
    memo: dict = {}
    for w in ("ba", "ab"):
        for shared in (memo, None):
            with pytest.raises(PreconditionError, match="recurs: a cycle made no progress"):
                decide_basic_membership(swapper, word(w), memo=shared)
    assert memo == {}
    # The brute search re-explores every word, but not one still open on
    # its own stack: it raises at once rather than running into a limit.
    with pytest.raises(PreconditionError, match="restarting word ab recurs"):
        decide_basic_membership(swapper, word("ab"), memoize=False)


def test_recurring_word_of_an_invalid_deterministic_spec_is_invalid():
    # Deterministic and shrinking, with no weights, and ab and ba rewrite
    # into each other, keeping the tape's length.  The decider must raise
    # on the recurring word, not trust that a deterministic search follows
    # a chain of ever shorter words and run on until a limit trips, whatever
    # memo it is given.  aab first shortens to ab.
    table = {
        ("q0", (C, "a")): (mvr("q0"),),
        ("q0", (C, "b")): (mvr("q0"),),
        ("q0", ("a", "a")): (sl("qr", ("a",)),),
        ("q0", ("a", "b")): (sl("qr", ("b", "a")),),
        ("q0", ("b", "a")): (sl("qr", ("a", "b")),),
        ("qr", (C, "a")): (restart(),),
        ("qr", ("a", "b")): (restart(),),
        ("qr", ("b", "a")): (restart(),),
    }
    flags = ClassFlags(direction="R", aux="none", deterministic=True, shrinking=True)
    spec = AutomatonSpec("flipper", frozenset({"q0", "qr"}), "q0", 2, frozenset("ab"),
                         frozenset("ab"), table, flags)
    shared: dict = {}
    assert decide_basic_membership(spec, word("b"), memo=shared).verdict == "non-member"
    settled = dict(shared)
    for w in ("ab", "aab"):
        for kwargs in ({"memo": {}}, {"memo": shared}, {"memo": None}, {"memoize": False}):
            with pytest.raises(PreconditionError, match="^restarting word ab recurs"):
                decide_basic_membership(spec, word(w), **kwargs)
    assert shared == settled


def test_resumed_scans_skip_the_repeated_steps(m_e, interpreted_steps):
    # a^512 takes 88,404 steps, nearly all of them rescans of cells that the
    # cycle before left alone; run and decider interpret only the rest.
    w = word("a" * 512)
    trace = run_deterministic(m_e.spec, w)
    ran, interpreted_steps[:] = sum(interpreted_steps), []
    decision = decide_input_membership(m_e.spec, w)
    assert trace.outcome == "accept" and decision.is_member
    assert len(trace.steps) == decision.configs_explored == 88_404
    assert ran < 0.05 * len(trace.steps)
    assert sum(interpreted_steps) < 0.05 * len(trace.steps)


def test_a_dropped_automaton_takes_its_step_table_with_it(m_e):
    # Runs step through the spec's own table: no registry in the engine
    # holds the spec, so it is collected once dropped.
    spec = replace(m_e.spec)
    assert run_deterministic(spec, word("aaaa")).outcome == "accept"
    assert not decide_input_membership(spec, word("aaa")).is_member
    alive = weakref.ref(spec)
    del spec
    gc.collect()
    assert alive() is None


def test_replay_refuses_a_step_not_offered_and_steps_that_do_not_chain(m_e):
    run = run_deterministic(m_e.spec, word("aaaa"))
    first, start = run.records[0], run.word

    def replays(word, *pairs):
        record = CycleRecord((), pairs, m_e.spec.window)
        return replay_trace(m_e.spec, Trace(word, (record,), "counterexample"))

    assert replays(start, *first.steps) and replays(start, *first.steps[:3])
    state, ins = first.steps[0]
    assert ins != accept() and not replays(start, (state, accept()))
    # A record replays positions and tapes from its pairs, so a step that
    # does not chain is one taken in the wrong state: the restart of q1
    # after q0's MVR.
    last = first.steps[-1]
    assert last[0] != ins.state
    assert not replays(start, first.steps[0], last)


def test_cycle_rewrites_are_the_phase_records(m_e):
    # Each record, keyed by its successor, replays alone as a one-cycle
    # trace from the word, restarting on that successor.
    ((v, record),) = cycle_rewrites(m_e.spec, word("aaaa")).items()
    assert isinstance(record, CycleRecord) and record.ends_cycle()
    assert v == word("aab")
    trace = Trace(word("aaaa"), (record,), "counterexample")
    assert replay_trace(m_e.spec, trace)
    assert trace.reductions() == [(word("aaaa"), word("aab"))]
    run = run_deterministic(m_e.spec, word("aaaa"))
    assert run.records[0] == record


def test_cycle_record_is_exported_from_the_package_root():
    assert redukto.CycleRecord is CycleRecord
