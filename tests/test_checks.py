"""Bounded verifiers: determinism, monotonicity, cycle discipline,
preservation and shrinking."""

from dataclasses import replace

import pytest

from redukto.catalog import catalog_get, catalog_list
from redukto.checks import (
    check_cycle_soundness,
    check_determinism,
    check_monotone,
    check_preservation,
    check_shrinking,
)
from redukto.construct import build_hrrwwc
from redukto.engine import Limits, replay_trace, right_distance, run_deterministic
from redukto.model import (
    LEFT_SENTINEL as C,
    RIGHT_SENTINEL as D,
    AutomatonSpec,
    ClassFlags,
    PreconditionError,
    accept,
    mvl,
    mvr,
    reject,
    restart,
    sl,
)


def _spinner():
    """Restarts without rewriting as soon as it sees an a."""
    return AutomatonSpec(
        name="spinner",
        states=frozenset({"q0"}),
        initial="q0",
        window=1,
        input_alphabet=frozenset({"a"}),
        work_alphabet=frozenset({"a"}),
        table={
            ("q0", (C,)): [mvr("q0")],
            ("q0", ("a",)): [restart()],
        },
        flags=ClassFlags(deterministic=True, aux="none"),
    )


def _accepts_after_rewrite(m_e):
    table = dict(m_e.spec.table)
    table[("q1", ("a", "b", D))] = [accept()]
    return replace(m_e.spec, table=table)


def test_determinism_holds(m_e):
    assert check_determinism(m_e.spec).holds


def test_determinism_reports_injected_conflict(m_e):
    table = dict(m_e.spec.table)
    key = ("q0", ("a", "a", "a"))
    table[key] = table[key] + (mvl("q0"),)
    doubled = replace(m_e.spec, table=table,
                      flags=replace(m_e.spec.flags, deterministic=False, direction="RL"))
    report = check_determinism(doubled)
    assert not report.holds
    assert "q0" in report.counterexample.explanation
    # A table check has no length bound, and its report names none.
    assert report.bound is None
    assert report.describe().startswith("determinism: violated\n")


def test_determinism_violated_by_lexical_analysis(m_e_h_shrunk):
    spec, _ = m_e_h_shrunk
    assert not check_determinism(spec).holds


def test_monotone_bracket_deleter(dyck1):
    assert check_monotone(dyck1.spec, 10).holds


def test_monotone_violated_by_doubling_machine(m_e):
    report = check_monotone(m_e.spec, 8)
    assert not report.holds
    assert len(report.counterexample.word) <= 8
    assert report.counterexample.trace is not None
    assert replay_trace(m_e.spec, report.counterexample.trace)
    # The witness trace ends at the rising rewrite.
    config, ins = report.counterexample.trace.steps[-1]
    assert ins.kind == "SL"


def test_monotone_center_deleter():
    l3 = catalog_get("l_3")
    assert check_monotone(l3.spec, 12).holds


def _unflagged(spec):
    return replace(spec, flags=replace(spec.flags, deterministic=False), table=dict(spec.table))


def _mono_outcome(report):
    word = report.counterexample.word if report.counterexample is not None else None
    return report.verdict, word


def test_monotone_fast_path_agrees_with_generic(anbn_built, dyck_built):
    # The exact search against the word-by-word walk of the unflagged copy,
    # on every catalog automaton at 8 and on the grammar builds at 6.  All
    # but m_e, m_e_h and the multi-rewrite lm_j hold at every length.
    anbn4, _ = build_hrrwwc(anbn_built[0].grammar, 4)
    every_length = {"dyck1", "l_2", "l_3", "l_4", "reg_window1"}
    cases = [(entry.spec, 8, entry.name in every_length)
             for entry in catalog_list() if entry.kind == "automaton"]
    cases += [(spec, 6, True) for spec in (anbn_built[1], anbn4, dyck_built[1])]
    assert len(cases) == 13
    for spec, bound, unbounded in cases:
        fast = check_monotone(spec, bound)
        generic = check_monotone(_unflagged(spec), bound)
        assert _mono_outcome(fast) == _mono_outcome(generic), spec.name
        assert (fast.unbounded, generic.unbounded) == (unbounded, False), spec.name
        if fast.counterexample is not None:
            assert fast.counterexample.trace.steps == generic.counterexample.trace.steps


def test_monotone_below_the_least_rising_word(m_e):
    # m_e rises first on aaaa, so it holds up to 3 but not at every length.
    report = check_monotone(m_e.spec, 3)
    assert report.holds and not report.unbounded
    assert check_monotone(m_e.spec, 4).counterexample.word == tuple("aaaa")


def test_monotone_search_is_charged_to_the_configs_limit(dyck_built):
    spec = dyck_built[1]
    assert check_monotone(spec, 8, Limits(max_configs=50)).verdict == "resource-exceeded"
    # The limit trips after every word up to length 2 is cleared.
    report = check_monotone(spec, 2, Limits(max_configs=50))
    assert report.holds and not report.unbounded


def test_monotone_restart_without_rewrite_holds():
    # The run restarts on the tape it started from and so loops without
    # ever rewriting; a walk that forgets the configurations of earlier
    # cycles at each restart spins until the configs limit trips.
    table = {
        ("q0", (C,)): (mvr("q1"),),
        ("q1", ("a",)): (mvr("q1"),),
        ("q1", (D,)): (restart(),),
    }
    spec = AutomatonSpec("loop", frozenset({"q0", "q1"}), "q0", 1, frozenset("a"),
                         frozenset("a"), table, ClassFlags(deterministic=True))
    for variant in (spec, _unflagged(spec)):
        assert check_monotone(variant, 3).verdict == "holds-up-to-bound"
    assert check_monotone(spec, 3).unbounded


def test_monotone_with_a_left_move_walks_word_by_word():
    # Right, right, back left, delete the first letter: monotone at every
    # length, but an automaton with MVL is walked word by word, and the
    # walk claims no more than its bound.
    table = {
        ("q0", (C,)): (mvr("q1"),),
        ("q1", ("a",)): (mvr("q2"),),
        ("q1", (D,)): (accept(),),
        ("q2", ("a",)): (mvl("q3"),),
        ("q2", (D,)): (accept(),),
        ("q3", ("a",)): (sl("q4", ()),),
        ("q4", (C,)): (restart(),),
    }
    spec = AutomatonSpec("backstep", frozenset({"q0", "q1", "q2", "q3", "q4"}), "q0", 1,
                         frozenset("a"), frozenset("a"), table,
                         ClassFlags(deterministic=True, direction="RL"))
    trace = run_deterministic(spec, ("a",) * 3)
    assert trace.outcome == "accept" and trace.cycle_count() == 2
    assert any(ins.kind == "MVL" for _, ins in trace.steps)
    report = check_monotone(spec, 6)
    assert report.holds and not report.unbounded


def test_cycle_soundness_single_rewrite(m_e):
    assert check_cycle_soundness(m_e.spec, 8).holds


def test_cycle_soundness_multi_rewrite_machine():
    lm1 = catalog_get("lm_1").spec
    assert check_cycle_soundness(lm1, 9).holds            # declared degree 2
    tight = check_cycle_soundness(lm1, 9, degree=1)
    assert not tight.holds
    assert "more than 1" in tight.counterexample.explanation


def test_cycle_soundness_flags_rewriting_accept(m_e):
    report = check_cycle_soundness(_accepts_after_rewrite(m_e), 6)
    assert not report.holds
    assert "accepting tail" in report.counterexample.explanation


def test_cycle_soundness_flags_rewrite_free_cycle():
    report = check_cycle_soundness(_spinner(), 3)
    assert not report.holds
    assert "without a rewrite" in report.counterexample.explanation


def test_complete_preservation_of_deterministic_machines(m_e, dyck1):
    for entry in (m_e, dyck1):
        assert check_preservation(entry.spec, 8, "complete-correctness").holds
        assert check_preservation(entry.spec, 8, "complete-error").holds


def test_complete_preservation_needs_single_rewrite_cycles():
    lm1 = catalog_get("lm_1").spec
    with pytest.raises(PreconditionError):
        check_preservation(lm1, 6, "complete-correctness")


def test_complete_preservation_needs_determinism(m_e_h_shrunk):
    spec, _ = m_e_h_shrunk
    for mode in ("complete-correctness", "complete-error"):
        with pytest.raises(PreconditionError, match="requires a deterministic automaton"):
            check_preservation(spec, 4, mode)


def test_cycle_preservation_of_copy_machine():
    lm1 = catalog_get("lm_1").spec
    assert check_preservation(lm1, 9, "cycle-correctness").holds
    assert check_preservation(lm1, 9, "cycle-error").holds


def test_cycle_error_is_engine_coherence(m_e_h_shrunk):
    # A cycle into a member makes the source a member as well, so the error
    # direction can only fail if the engine itself is incoherent; it must
    # hold even on nondeterministic automata.
    spec, _ = m_e_h_shrunk
    report = check_preservation(spec, 5, "cycle-error")
    assert report.holds and report.unbounded


@pytest.mark.parametrize("name, mode", [
    ("dyck1", "complete-correctness"),
    ("dyck1", "cycle-correctness"),
    ("dyck1", "cycle-error"),
    ("m_e_h_shrunk", "cycle-error"),
])
def test_preservation_by_theorem_decides_no_word(m_e_h_shrunk, name, mode):
    # Not one configuration may be explored, yet the report holds at every
    # length; a sweep trips at once (see the next test).
    spec = m_e_h_shrunk[0] if name == "m_e_h_shrunk" else catalog_get(name).spec
    report = check_preservation(spec, 8, mode, Limits(max_configs=0))
    assert (report.verdict, report.unbounded, report.bound) == ("holds-up-to-bound", True, 8)
    assert report.describe() == "preservation(%s) at length <= 8: holds-up-to-bound" % mode


def _unflagged(spec):
    return replace(spec, flags=replace(spec.flags, deterministic=False))


def test_cycle_correctness_is_swept_on_a_nondeterministic_automaton():
    for name in ("m_e", "dyck1", "l_2", "lm_1"):
        report = check_preservation(_unflagged(catalog_get(name).spec), 6, "cycle-correctness")
        assert report.holds and not report.unbounded, name
        assert check_preservation(catalog_get(name).spec, 6, "cycle-correctness").unbounded
    for spec, mode in ((_unflagged(catalog_get("m_e").spec), "cycle-correctness"),
                       (catalog_get("dyck1").spec, "complete-error")):
        swept = check_preservation(spec, 6, mode, Limits(max_configs=0))
        assert swept.verdict == "resource-exceeded" and not swept.unbounded


def test_cycle_correctness_fails_on_a_wrong_guess(m_e_h_shrunk, anbn_shrunk):
    # The guessing phase of the shrunk automata may rewrite a letter into a
    # preimage that leaves the language: one branch's cycle turns a member
    # into a non-member.
    for spec, bound, word, to_word in (
        (m_e_h_shrunk[0], 5, ("a", "a^"), ("b", "a^")),
        (anbn_shrunk[1], 5, ("a", "(3,b)"), ("(1,a)", "(3,b)")),
    ):
        report = check_preservation(spec, bound, "cycle-correctness")
        assert report.verdict == "violated" and not report.unbounded
        ce = report.counterexample
        assert ce.word == word
        (record,) = ce.trace.records
        assert (record.from_word, record.to_word) == (word, to_word)
        assert replay_trace(spec, ce.trace)
        assert ce.explanation == "cycle rewrites %s (member) to %s (non-member)" % (
            " ".join(word), " ".join(to_word))


def test_theorem_answers_refuse_a_contradictory_determinism_flag():
    # Flagged deterministic, yet a offers a move and a reject: the engine
    # refuses the choice, so no mode answers by theorem on this table.
    table = {
        ("q0", (C,)): (mvr("q0"),),
        ("q0", ("a",)): (mvr("q0"), reject()),
        ("q0", ("b",)): (sl("q1", ()),),
        ("q1", (C,)): (restart(),),
    }
    spec = AutomatonSpec("chooser", frozenset({"q0", "q1"}), "q0", 1, frozenset("ab"),
                         frozenset("ab"), table, ClassFlags(deterministic=True))
    for mode in ("complete-correctness", "cycle-correctness", "cycle-error"):
        with pytest.raises(PreconditionError, match=r"deterministic flag but 1 conflicting keys"):
            check_preservation(spec, 4, mode)
    assert check_preservation(_unflagged(spec), 4, "cycle-error").unbounded


def test_complete_error_catches_discipline_breaker():
    # A machine that accepts right after a rewrite breaks the single-rewrite
    # discipline; the pruned word is a non-member whose run still visits a
    # member tape, which the complete error check reports.
    eager = AutomatonSpec(
        name="eager",
        states=frozenset({"q0", "q1"}),
        initial="q0",
        window=2,
        input_alphabet=frozenset({"a", "b"}),
        work_alphabet=frozenset({"a", "b"}),
        table={
            ("q0", (C, "a")): [mvr("q0")],
            ("q0", ("a", D)): [accept()],
            ("q0", (C, "b")): [mvr("q0")],
            ("q0", ("b", "b")): [sl("q1", ("a",))],
            ("q1", ("a", D)): [accept()],
            ("q1", (C, "a")): [accept()],
        },
        flags=ClassFlags(deterministic=True, aux="none"),
    )
    report = check_preservation(eager, 4, "complete-error")
    assert not report.holds
    assert report.counterexample.word == ("b", "b")


def test_complete_error_skips_a_rewrite_that_no_step_reads():
    # The run deletes the a of "a" and is stuck at once, so no step reads
    # the rewritten tape: the run visits no word but "a", though the empty
    # word that the rewrite made is a member.
    stuck = AutomatonSpec(
        "stuck", frozenset({"q0", "q1"}), "q0", 1, frozenset("a"), frozenset("a"),
        {("q0", (C,)): (mvr("q0"),), ("q0", ("a",)): (sl("q1", ()),), ("q0", (D,)): (accept(),)},
        ClassFlags(deterministic=True),
    )
    trace = run_deterministic(stuck, ("a",))
    assert (trace.outcome, trace.flag, trace.records[-1].tapes) == ("reject", "stuck", ((C, "a", D),))
    assert check_preservation(stuck, 3, "complete-error").holds


def test_shrinking_weights_on_transform(m_e_h_shrunk):
    spec, weights = m_e_h_shrunk
    assert check_shrinking(spec, weights, 8).holds


def test_plain_length_weights_shrink(m_e):
    weights = {tok: 1 for tok in m_e.spec.work_alphabet}
    assert check_shrinking(m_e.spec, weights, 8).holds


def test_bad_weights_detected(m_e_h_shrunk):
    spec, weights = m_e_h_shrunk
    skewed = dict(weights)
    skewed["a^"] = 5
    skewed["a"] = 2
    report = check_shrinking(spec, skewed, 6)
    assert not report.holds
    assert "raises weight" in report.counterexample.explanation


def test_shrinking_check_reports_the_specs_own_weights(heavy):
    report = check_shrinking(heavy, heavy.weights, 4)
    assert not report.holds
    assert report.counterexample.word == ("a", "a")
    assert replay_trace(heavy, report.counterexample.trace)


def test_weight_totality_and_positivity(m_e):
    report = check_shrinking(m_e.spec, {"a": 1}, 4)
    assert not report.holds and "no weight" in report.counterexample.explanation
    report = check_shrinking(m_e.spec, {"a": 1, "b": 0}, 4)
    assert not report.holds and "not positive" in report.counterexample.explanation


def test_counterexamples_replay(m_e):
    report = check_monotone(m_e.spec, 8)
    assert report.counterexample.trace is not None
    assert replay_trace(m_e.spec, report.counterexample.trace)


def _assert_witness(spec, report):
    """A violation's trace replays and stops at the step it reports."""
    assert report.verdict == "violated"
    trace = report.counterexample.trace
    assert trace is not None and replay_trace(spec, trace)
    config, ins = trace.steps[0]
    assert config.tape[1:-1] == report.counterexample.word
    return trace.steps[-1]


def test_monotone_witness_ends_at_rising_rewrite(m_e):
    unflagged = replace(m_e.spec, flags=replace(m_e.spec.flags, deterministic=False))
    for spec in (m_e.spec, unflagged):
        report = check_monotone(spec, 8)
        config, ins = _assert_witness(spec, report)
        assert ins.kind == "SL"
        earlier = [right_distance(c) for c, i in report.counterexample.trace.steps[:-1]
                   if i.kind == "SL"]
        assert earlier == sorted(earlier, reverse=True)
        assert earlier and right_distance(config) > earlier[-1]


def test_cycle_soundness_witness_ends_at_flagged_step(m_e):
    for j in (1, 2, 3):
        lm = catalog_get("lm_%d" % j).spec
        config, ins = _assert_witness(lm, check_cycle_soundness(lm, 9, degree=j))
        assert ins.kind == "SL" and config.rewrites == j
    bad = _accepts_after_rewrite(m_e)
    config, ins = _assert_witness(bad, check_cycle_soundness(bad, 6))
    assert ins.kind == "Accept" and config.rewrites > 0
    spinner = _spinner()
    config, ins = _assert_witness(spinner, check_cycle_soundness(spinner, 3))
    assert ins.kind == "Restart" and config.rewrites == 0


NEGATIVE_BOUND_CHECKS = {
    # The exact monotonicity search (dyck1) and the word walk (lm_1) alike.
    "mono-exact": ("dyck1", lambda spec: check_monotone(spec, -1)),
    "mono-walk": ("lm_1", lambda spec: check_monotone(spec, -3)),
    "cycle": ("m_e", lambda spec: check_cycle_soundness(spec, -1)),
    "cpp": ("m_e", lambda spec: check_preservation(spec, -1, "complete-correctness")),
    "cycle-error": ("m_e", lambda spec: check_preservation(spec, -1, "cycle-error")),
    "shrink": ("m_e", lambda spec: check_shrinking(spec, dict.fromkeys(spec.work_alphabet, 1), -1)),
    "cycle-degree": ("lm_1", lambda spec: check_cycle_soundness(spec, 8, degree=0)),
}
BOUND_ERRORS = {"cycle-degree": "rewrite cap must be positive"}


@pytest.mark.parametrize("check", sorted(NEGATIVE_BOUND_CHECKS))
def test_checks_refuse_a_negative_bound(check):
    name, run = NEGATIVE_BOUND_CHECKS[check]
    error = BOUND_ERRORS.get(check, "length bound must be non-negative")
    with pytest.raises(PreconditionError, match=error):
        run(catalog_get(name).spec)


def test_unknown_preservation_mode_is_refused(m_e):
    with pytest.raises(PreconditionError, match="unknown preservation mode 'partial-error'"):
        check_preservation(m_e.spec, 4, "partial-error")
