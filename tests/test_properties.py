"""Differential properties on small random automata: the memo search against
the brute search and against a plain reference decider, the branch search's
charge against a plain walk over the step relation, deterministic runs
against the search, the deterministic decider against the depth-first
search on the same automaton unflagged (deciders, ``decide_members`` and
``cycle_rewrites``), deterministic table entries against the step
relation, resumed deterministic runs against a plain one, the
h-proper decider against deciding every preimage, over one letter and over
two, and against the input language of ``to_shrinking``, exact monotonicity
against the word-by-word walk, cycle soundness and shrinking answered from
the table against sweeps of every word, the brute enumerator against
deciding every word in turn, the closure enumerator against the brute one,
and parsing against rendering.  The deciders also keep the preservation
properties that hold by theorem: cycle-error everywhere, cycle-correctness
on deterministic automata."""

import itertools
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st, target

from redukto import engine
from redukto.catalog import catalog_get
from redukto.checks import VIOLATED, check_cycle_soundness, check_monotone, check_shrinking
from redukto.construct import to_shrinking
from redukto.engine import (
    DEFAULT_LIMITS,
    OUT_ACCEPT,
    Configuration,
    Decision,
    Limits,
    ResourcesExceeded,
    Trace,
    cycle_rewrites,
    decide_basic_membership,
    decide_input_membership,
    decide_members,
    discipline_break,
    replay_trace,
    restarting_configuration,
    run_deterministic,
    strip_sentinels,
    successors,
    walk_branches,
)
from redukto.fileformat import parse_automaton, render_automaton
from redukto.languages import (
    LanguageQuery,
    decide_hproper_membership,
    enumerate_language,
    tail_confined_bound,
)
from redukto.model import (
    ACCEPT,
    LEFT_SENTINEL as C,
    MVL,
    MVR,
    REJECT,
    RESTART,
    RIGHT_SENTINEL as D,
    SL,
    AutomatonSpec,
    ClassFlags,
    Instruction,
    PreconditionError,
    is_window_content,
    render_word,
    sl,
    word_weight,
)

SYMBOLS = ("a", "b", "c")


def window_contents(symbols, k):
    alphabet = (C,) + symbols + (D,)
    return [
        combo
        for n in range(1, k + 1)
        for combo in itertools.product(alphabet, repeat=n)
        if is_window_content(combo, k, frozenset(symbols))
    ]


def rewrite_targets(window, symbols, keep_length=False):
    """Every legal SL target for ``window``: strictly shorter (or as long,
    with ``keep_length``), with the same sentinels in the same places."""
    left, right = window[0] == C, window[-1] == D
    inner = len(window) - left - right
    return [
        (C,) * left + mid + (D,) * right
        for m in range(inner + keep_length)
        for mid in itertools.product(symbols, repeat=m)
    ]


# Kinds drawn per table entry (None leaves the key out), weighted so that
# many runs get through several cycles: the initial state mostly scans and
# rewrites, the other states mostly restart, and acceptance mostly waits for
# the right sentinel.  Moves favour keeping their state, rewrites favour
# leaving the initial one.
SCAN_KINDS = (MVR, MVR, MVR, MVR, MVL, SL, SL, REJECT)
AFTER_KINDS = (MVR, MVL, SL, RESTART, RESTART, RESTART, REJECT, None)


@st.composite
def instructions(draw, q, states, window, symbols, keep_length=False):
    targets = rewrite_targets(window, symbols, keep_length)
    if q == states[0]:
        weights = SCAN_KINDS + (ACCEPT,) * (3 if window[-1] == D else 0)
    else:
        weights = AFTER_KINDS + (ACCEPT,)
    offered = {MVR: window != (D,), MVL: window[0] != C, SL: bool(targets)}
    kind = draw(st.sampled_from([kind for kind in weights if offered.get(kind, True)]))
    if kind in (MVR, MVL):
        return Instruction(kind, draw(st.sampled_from([q, q] + states)))
    if kind == SL:
        state = draw(st.sampled_from(states[1:] * 2 + states))
        return sl(state, draw(st.sampled_from(targets)))
    return None if kind is None else Instruction(kind)


@st.composite
def automata(draw, deterministic, min_window=1, max_symbols=2, shrinking=False):
    """A valid two-way automaton with at most 3 states, window 1 or 2 (at
    least ``min_window``) and at most ``max_symbols`` symbols (3 at most);
    deterministic ones hold at most one instruction per table entry.  A
    ``shrinking`` one, flagged so and without weights, also draws
    rewrites that keep their window's length, so its restarting words may
    recur."""
    states = ["q%d" % i for i in range(draw(st.integers(1, 3)))]
    k = draw(st.integers(min_window, 2))
    symbols = SYMBOLS[: draw(st.integers(1, max_symbols))]
    table = {}
    for q in states:
        for window in window_contents(symbols, k):
            entry = instructions(q, states, window, symbols, shrinking)
            chosen = set(draw(st.lists(entry, min_size=1, max_size=1 if deterministic else 3)))
            chosen.discard(None)
            if chosen:
                table[(q, window)] = tuple(chosen)
    flags = ClassFlags(deterministic=deterministic, mr_degree=draw(st.integers(1, 2)),
                       shrinking=shrinking)
    spec = AutomatonSpec("random", frozenset(states), "q0", k, frozenset(symbols),
                         frozenset(symbols), table, flags)
    return spec


@st.composite
def scanners(draw):
    """A deterministic scanner with window 2 or 3 and at most 2 symbols: q0
    moves right, rewrites into q1, rejects, or accepts at the right
    sentinel; q1 restarts or moves right.  Without MVL a rise needs a
    window of at least 3, which ``automata`` never draws."""
    k = draw(st.integers(2, 3))
    symbols = SYMBOLS[: draw(st.integers(1, 2))]
    table = {}
    for window in window_contents(symbols, k):
        targets = rewrite_targets(window, symbols)
        moves = [MVR] if window != (D,) else []
        scan = moves * 3 + [SL] * 2 * bool(targets) + [REJECT] + [ACCEPT] * 2 * (window[-1] == D)
        kind = draw(st.sampled_from(scan))
        if kind == SL:
            table[("q0", window)] = (sl("q1", draw(st.sampled_from(targets))),)
        else:
            table[("q0", window)] = (Instruction(kind, "q0" if kind == MVR else None),)
        kind = draw(st.sampled_from([RESTART, RESTART] + moves))
        table[("q1", window)] = (Instruction(kind, "q1" if kind == MVR else None),)
    spec = AutomatonSpec("scanner", frozenset({"q0", "q1"}), "q0", k, frozenset(symbols),
                         frozenset(symbols), table, ClassFlags(deterministic=True))
    return spec


@st.composite
def automaton_and_word(draw, deterministic):
    spec = draw(automata(deterministic))
    symbols = sorted(spec.work_alphabet)
    return spec, tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=6)))


def reference_phase(spec, w):
    """(whether a tail accepts, the set of words one cycle reaches, the
    number of distinct configurations expanded) from the restarting
    configuration of ``w``, by a plain walk over full configurations that
    follows no discipline break, halt or restart."""
    cap = spec.flags.mr_degree
    start = restarting_configuration(spec, w)
    seen, todo = {start}, [start]
    accepts, words = False, set()
    while todo:
        config = todo.pop()
        for ins, nxt in successors(spec, config):
            if discipline_break(cap, ins, config.rewrites):
                continue
            if ins.kind == RESTART:
                words.add(strip_sentinels(nxt.tape))
            elif nxt is None:
                accepts = accepts or ins.kind == ACCEPT
            elif nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return accepts, words, len(seen)


def reference_member(spec, w, path=frozenset()):
    """Whether some computation from ``w`` accepts, never repeating a
    restarting word along one computation."""
    accepts, words, _ = reference_phase(spec, w)
    path = path | {w}
    return accepts or any(reference_member(spec, v, path) for v in words - path)


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=False))
def test_search_agrees_with_reference_decider(case):
    spec, w = case
    records = cycle_rewrites(spec, w)
    assert set(records) == reference_phase(spec, w)[1]
    # Each record replays from the word, step by step through the step
    # relation, to the successor it is keyed by.
    for v, record in records.items():
        trace = Trace(w, (record,), "counterexample")
        assert replay_trace(spec, trace)
        assert strip_sentinels(trace.steps[-1][0].tape) == v
        assert trace.reductions() == [(w, v)]
    member = reference_member(spec, w)
    decision = decide_basic_membership(spec, w)
    assert decision.is_member == member
    # Cycle-error preservation: a cycle into a member makes its source one.
    assert member or not any(reference_member(spec, v) for v in records)
    if member:
        # Every suffix of the witness, from the word its first record
        # starts on, is an accepting computation of its own.
        witness = decision.witness
        red = witness.reductions()
        for i, start in enumerate([w] + [v for _, v in red]):
            suffix = Trace(start, witness.records[i:], "accept")
            assert replay_trace(spec, suffix) and suffix.reductions() == red[i:]


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=False))
def test_phase_search_spends_one_config_per_distinct_configuration(case):
    # The branch search expands each distinct configuration of the phase
    # once, as the reference walk does, and charges nothing else.
    spec, w = case
    n = reference_phase(spec, w)[2]
    cycle_rewrites(spec, w, Limits(n))
    with pytest.raises(ResourcesExceeded, match="^configs limit exceeded$"):
        cycle_rewrites(spec, w, Limits(n - 1))


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(automaton_and_word))
def test_memo_search_agrees_with_brute_search(case):
    spec, w = case
    fast = decide_basic_membership(spec, w, memoize=True)
    slow = decide_basic_membership(spec, w, memoize=False)
    assert fast.verdict == slow.verdict != "resource-exceeded"


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=True))
def test_deterministic_run_agrees_with_search(case):
    spec, w = case
    run = run_deterministic(spec, w)
    search = decide_basic_membership(spec, w)
    assert search.verdict != "resource-exceeded"
    assert (run.outcome == OUT_ACCEPT) == search.is_member
    if search.is_member:
        assert search.witness.steps == run.steps


@settings(max_examples=150, deadline=None)
@given(st.one_of(automata(deterministic=True), scanners()))
def test_deterministic_cycles_preserve_membership(spec):
    # Cycle-correctness preservation: the one computation from a member
    # accepts from the word it restarts on.  Scanners restart after their
    # rewrites, so their members have cycles far more often.
    memo = {}
    symbols = sorted(spec.work_alphabet)
    for w in (v for n in range(5) for v in itertools.product(symbols, repeat=n)):
        if decide_basic_membership(spec, w, memo=memo).is_member:
            for v in cycle_rewrites(spec, w):
                assert decide_basic_membership(spec, v, memo=memo).is_member


def decision_outcome(decision):
    steps = list(decision.witness.steps) if decision.witness is not None else None
    return decision.verdict, decision.configs_explored, decision.exceeded, steps


def assert_decides_like_search(spec, words, limits):
    """The decider, which follows a deterministic automaton's one
    computation, against the depth-first search on the same automaton
    flagged nondeterministic: verdict, count, tripped limit, witness and
    memoized words, deciding ``words`` in turn on one memo per side."""
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    for memoize in (True, False):
        followed_memo, searched_memo = {}, {}
        for v in words:
            followed = decide_basic_membership(spec, v, limits, memoize, followed_memo)
            searched = decide_basic_membership(unflagged, v, limits, memoize, searched_memo)
            assert decision_outcome(followed) == decision_outcome(searched), (memoize, v)
            assert followed_memo.keys() == searched_memo.keys(), (memoize, v)


def assert_follows_search(spec, w, limits):
    """``assert_decides_like_search`` on ``w`` alone, from fresh memos, where
    the decider slices no restart word while its cycles shorten the tape;
    then on every word up to length 3 and ``w`` last, so that chains meet
    memoized words midway."""
    symbols = sorted(spec.work_alphabet)
    assert_decides_like_search(spec, [w], limits)
    words = [v for n in range(4) for v in itertools.product(symbols, repeat=n)]
    assert_decides_like_search(spec, words + [w], limits)


def assert_members_follow_search(spec, n, limits):
    """The members among the words of length ``n`` and the closing pair, on
    a deterministic automaton and on the same automaton flagged
    nondeterministic: verdict, count, tripped limit, witness and word.  The
    two phase functions' rejected prefixes pick the candidates that are
    skipped, which the counts show."""
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    options = [sorted(spec.work_alphabet)] * n

    def members(automaton):
        pairs = decide_members(automaton, options, limits)
        return [(decision_outcome(decision), word) for decision, word in pairs]

    assert members(spec) == members(unflagged)


CROSS_LIMITS = (
    DEFAULT_LIMITS,
    Limits(max_configs=12),
)


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=True))
def test_deterministic_decider_agrees_with_search(case):
    spec, w = case
    for limits in CROSS_LIMITS:
        assert_follows_search(spec, w, limits)
        assert_members_follow_search(spec, len(w), limits)


def test_deterministic_decider_agrees_with_search_on_a_flat_dyck_word():
    spec = catalog_get("dyck1").spec
    opening, closing = sorted(spec.input_alphabet)
    assert_follows_search(spec, (opening, closing) * 1200, DEFAULT_LIMITS)


def test_deterministic_decider_agrees_with_search_past_a_memo_hit_midway():
    # a^2000 meets the memoized a^700 after 1,300 cycles.  The memo is not
    # empty, so every word on the way is sliced and looked up.
    spec = catalog_get("reg_window1").spec
    short, long = ("a",) * 700, ("a",) * 2000
    memo: dict = {}
    decide_basic_membership(spec, short, memo=memo)
    assert decide_basic_membership(spec, long, memo=memo).configs_explored \
        < decide_basic_membership(spec, long).configs_explored
    assert_decides_like_search(spec, [short, long], DEFAULT_LIMITS)


def decided_or_recurs(spec, w, limits, memo=None):
    """``decision_outcome`` of deciding ``w``, or "recurs" when one of its
    restarting words recurs."""
    try:
        return decision_outcome(decide_basic_membership(spec, w, limits, memo=memo))
    except PreconditionError as err:
        assert "recurs: a cycle made no progress" in str(err)
        return "recurs"


@st.composite
def deterministic_automata_and_words(draw):
    """A deterministic automaton, shrinking or not, with every word up to
    length 3, shortest first, then up to four longer ones."""
    spec = draw(automata(deterministic=True, shrinking=draw(st.booleans())))
    symbols = sorted(spec.work_alphabet)
    short = [v for n in range(4) for v in itertools.product(symbols, repeat=n)]
    longer = st.lists(st.sampled_from(symbols), min_size=4, max_size=8).map(tuple)
    return spec, short + draw(st.lists(longer, max_size=4))


@settings(max_examples=150, deadline=None)
@given(deterministic_automata_and_words())
def test_deterministic_decisions_on_a_shared_memo_agree_with_fresh_ones_and_the_run(case):
    # The words are decided in turn on one memo, so that chains meet
    # decided words midway and every word on the way is looked up; on a
    # shrinking automaton a chain may also meet one of its own words again.
    spec, words = case
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    for limits in CROSS_LIMITS:
        shared, searched = {}, {}
        for w in words:
            outcome = decided_or_recurs(spec, w, limits, shared)
            # The depth-first search on its own shared memo: the same
            # verdict, charge, tripped limit, witness and memoized words.
            assert outcome == decided_or_recurs(unflagged, w, limits, searched), (limits, w)
            assert shared.keys() == searched.keys(), (limits, w)
            # On a fresh memo: a chain that recurs or trips the limit met no
            # decided word (a decided word's chain neither recurs nor trips),
            # so it did the same work; any other meets the same verdict and
            # witness, at no more charge, unless the fresh search trips.
            fresh = decided_or_recurs(spec, w, limits)
            if outcome == "recurs" or outcome[0] == "resource-exceeded":
                assert outcome == fresh, (limits, w)
                continue
            verdict, configs, _, steps = outcome
            assert configs <= fresh[1], (limits, w)
            if fresh[0] != "resource-exceeded":
                assert outcome[::2] == fresh[::2], (limits, w)
            run = run_deterministic(spec, w)
            assert (run.outcome == OUT_ACCEPT) == (verdict == "member"), (limits, w)
            assert steps is None or steps == list(run.steps), (limits, w)


def outcome_or_recurs(decide):
    """``decision_outcome`` of ``decide()``, or "recurs" when one of its
    restarting words recurs."""
    try:
        return decision_outcome(decide())
    except PreconditionError as err:
        assert "recurs: a cycle made no progress" in str(err)
        return "recurs"


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.booleans(), st.booleans()).flatmap(
    lambda drawn: automata(deterministic=drawn[0], shrinking=drawn[1])))
def test_a_word_is_decided_as_its_one_candidate(spec):
    # Deciding a word is the candidate loop with one choice per letter: the
    # same outcome and the same memo after every word, decided in turn on
    # one memo per entry point, so that later words meet earlier ones.  The
    # drawn automata read every working symbol as an input symbol.
    symbols = sorted(spec.work_alphabet)
    words = [w for n in range(4) for w in itertools.product(symbols, repeat=n)]
    for limits in CROSS_LIMITS:
        alone, looped, inputs = {}, {}, {}
        for w in words:
            outcome = outcome_or_recurs(
                lambda: decide_basic_membership(spec, w, limits, memo=alone))
            candidate = outcome_or_recurs(
                lambda: next(decide_members(spec, [(t,) for t in w], limits, looped))[0])
            assert outcome == candidate, (limits, w)
            assert alone == looped, (limits, w)
            assert outcome == outcome_or_recurs(
                lambda: decide_input_membership(spec, w, limits, inputs)), (limits, w)
            assert inputs == alone, (limits, w)


def test_deterministic_decider_refuses_a_choice():
    # Flagged deterministic, but a offers a move and a reject: the spec is
    # refused when built, so the deterministic decider never meets the
    # choice.  Unflagged, the same table is searched: ba deletes its b and
    # restarts on a, where every branch ends without accepting.
    table = {
        ("q0", (C,)): (Instruction(MVR, "q0"),),
        ("q0", ("a",)): (Instruction(MVR, "q0"), Instruction(REJECT)),
        ("q0", ("b",)): (sl("q1", ()),),
        ("q1", (C,)): (Instruction(RESTART),),
    }
    args = ("chooser", frozenset({"q0", "q1"}), "q0", 1, frozenset("ab"), frozenset("ab"), table)
    with pytest.raises(PreconditionError, match=r"^deterministic flag but 2 instructions at \(q0, a\)$"):
        AutomatonSpec(*args, ClassFlags(deterministic=True))
    spec = AutomatonSpec(*args, ClassFlags(deterministic=False))
    with pytest.raises(PreconditionError, match=r"requires a deterministic automaton"):
        run_deterministic(spec, ("b", "a"))
    memo = {}
    assert decide_basic_membership(spec, ("b", "a"), memo=memo).verdict == "non-member"
    assert memo == {("b", "a"): (False, None)}
    assert list(cycle_rewrites(spec, ("b", "a"))) == [("a",)]
    assert cycle_rewrites(spec, ("a",)) == {}


def rewrites_outcome(spec, w, limits):
    try:
        return [(v, Trace(w, (r,), "counterexample").steps)
                for v, r in cycle_rewrites(spec, w, limits).items()]
    except (PreconditionError, ResourcesExceeded) as err:
        return type(err).__name__, str(err)


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=True))
@example((catalog_get("m_e").spec, tuple("aaaa")))
@example((catalog_get("dyck1").spec, ("a1", "ā1", "a1", "ā1")))
@example((catalog_get("l_3").spec, tuple("aaccbb")))
@example((catalog_get("lm_2").spec, tuple("acaca")))
def test_cycle_rewrites_follow_the_search_on_a_deterministic_automaton(case):
    spec, w = case
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    for limits in (DEFAULT_LIMITS, Limits(max_configs=12)):
        outcome = rewrites_outcome(spec, w, limits)
        assert outcome == rewrites_outcome(unflagged, w, limits), limits
        if type(outcome) is list:
            # The records themselves are equal, not only their steps.
            assert cycle_rewrites(spec, w, limits) == cycle_rewrites(unflagged, w, limits), limits


@settings(max_examples=300, deadline=None)
@given(scanners())
def test_exact_monotonicity_agrees_with_generic_walk(spec):
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    violating = 0
    for bound in (0, 3, 5, 7):
        exact = check_monotone(spec, bound)
        generic = check_monotone(unflagged, bound)
        assert exact.verdict == generic.verdict != "resource-exceeded", bound
        if exact.counterexample is not None:
            violating += 1
            assert exact.counterexample.word == generic.counterexample.word, bound
    target(float(violating))


def shortlex_words(spec, max_len):
    symbols = sorted(spec.work_alphabet)
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


def first_discipline_break(spec, cap, max_len):
    """The shortlex-first word up to ``max_len`` with a branch that takes a
    step breaking the discipline of at most ``cap`` rewrites a cycle."""
    def on_step(_, config, ins):
        return None, discipline_break(cap, ins, config.rewrites)

    return next((word for word in shortlex_words(spec, max_len)
                 if walk_branches(spec, word, on_step) is not None), None)


def first_weight_rise(spec, weights, max_len):
    """The shortlex-first word up to ``max_len`` with a cycle that does not
    lower its weight under ``weights``."""
    flagged = replace(spec, flags=replace(spec.flags, shrinking=True), weights=None)
    return next((word for word in shortlex_words(spec, max_len)
                 if any(word_weight(weights, v) >= word_weight(weights, word)
                        for v in cycle_rewrites(flagged, word))), None)


def assert_agrees_with_sweep(report, first):
    """An unbounded report has no violation up to the bound, and a violation
    up to the bound is reported on its shortlex-first word."""
    if report.unbounded:
        assert first is None
    if first is None:
        assert report.holds
    else:
        assert report.verdict == VIOLATED and report.counterexample.word == first


def length_keeping_targets(spec):
    """``spec`` flagged shrinking with an SL target drawn anew for each
    rewrite, up to as long as its window, so that some rewrites keep or
    raise a tape's weight."""
    symbols = tuple(sorted(spec.work_alphabet))

    @st.composite
    def redraw(draw):
        table = {}
        for (q, window), instrs in spec.table.items():
            targets = rewrite_targets(window, symbols, keep_length=True)
            table[(q, window)] = tuple(
                sl(ins.state, draw(st.sampled_from(targets))) if ins.kind == SL else ins
                for ins in instrs)
        return replace(spec, table=table, flags=replace(spec.flags, shrinking=True))

    return redraw()


def drawn_weights(spec):
    return st.fixed_dictionaries({tok: st.integers(1, 3) for tok in sorted(spec.work_alphabet)})


@settings(max_examples=200, deadline=None)
@given(st.one_of(automata(deterministic=False), automata(deterministic=True), scanners()),
       st.sampled_from((None, 1, 2, 3)))
def test_cycle_soundness_from_the_table_agrees_with_the_walk(spec, degree):
    report = check_cycle_soundness(spec, 4, degree=degree)
    cap = spec.flags.mr_degree if degree is None else degree
    assert_agrees_with_sweep(report, first_discipline_break(spec, cap, 4))
    target(float(report.unbounded))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.booleans().flatmap(automata).flatmap(length_keeping_targets).flatmap(
        lambda spec: st.tuples(st.just(spec), drawn_weights(spec))),
    automata(deterministic=True, min_window=2).map(
        lambda spec: to_shrinking(over_one_letter(spec)))))
def test_shrinking_from_the_table_agrees_with_the_sweep(case):
    spec, weights = case
    report = check_shrinking(spec, weights, 4)
    assert_agrees_with_sweep(report, first_weight_rise(spec, weights, 4))
    target(float(report.unbounded))


def test_checks_from_the_table_agree_with_the_sweep_on_shrunk_catalog_automata(
        m_e_h_shrunk, anbn_shrunk):
    for spec, weights in (m_e_h_shrunk, anbn_shrunk[1:]):
        report = check_shrinking(spec, weights, 4)
        assert report.unbounded
        assert_agrees_with_sweep(report, first_weight_rise(spec, weights, 4))
        report = check_cycle_soundness(spec, 4)
        assert report.unbounded
        assert_agrees_with_sweep(report, first_discipline_break(spec, spec.flags.mr_degree, 4))


def confine_tails(spec):
    """``spec`` with every ACCEPT whose window misses a sentinel turned into
    REJECT, so that tail acceptance is confined to whole short words."""
    table = {}
    for (q, window), instrs in spec.table.items():
        confined = C in window and D in window
        table[(q, window)] = tuple(dict.fromkeys(
            ins if ins.kind != ACCEPT or confined else Instruction(REJECT) for ins in instrs))
    confined = replace(spec, table=table)
    return confined


# Under confined tails nearly every language ``automata`` draws is empty or
# holds only the empty word; about a fifth of the scanners' languages hold
# longer words, which the closure reaches only by inverse rewriting.  The
# target steers both toward larger languages.
CONFINABLE = {
    "automata": st.booleans().flatmap(automata).map(confine_tails),
    "scanners": scanners().map(confine_tails),
}


def per_word_enumeration(spec, max_len, limits):
    """The basic members up to ``max_len``, each word of the domain decided
    in turn on one memo, as brute enumeration did before it walked the
    odometer."""
    memo, members = {}, []
    symbols = sorted(spec.work_alphabet)
    for w in (v for n in range(max_len + 1) for v in itertools.product(symbols, repeat=n)):
        decision = decide_basic_membership(spec, w, limits, memo=memo)
        if decision.verdict == "resource-exceeded":
            raise ResourcesExceeded("%s while deciding %s" % (decision.exceeded, render_word(w)))
        if decision.is_member:
            members.append(w)
    return members


def enumeration_outcome(enumerate_words):
    try:
        return enumerate_words()
    except ResourcesExceeded as err:
        return str(err)


def with_shrinking_flag(spec):
    return replace(spec, flags=replace(spec.flags, shrinking=True),
                   weights=dict.fromkeys(spec.work_alphabet, 1))


# The default limit and 200 leave every draw's words room to be decided
# again; 40, 12 and 5 trip on some.
BRUTE_LIMITS = (DEFAULT_LIMITS, Limits(max_configs=200), Limits(max_configs=40),
                Limits(max_configs=12), Limits(max_configs=5))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.booleans(), st.booleans()).flatmap(
    lambda flags: automata(flags[0], max_symbols=3).map(
        with_shrinking_flag if flags[1] else lambda spec: spec)))
def test_brute_enumeration_agrees_with_deciding_every_word(spec):
    # The odometer skips the words whose prefix a first phase rejected, and
    # does not memoize them, so a longer word's search that reaches one
    # decides it again and may trip a tight limit that the memo would have
    # spared.  It never returns another list.
    for limits in BRUTE_LIMITS:
        query = LanguageQuery("basic", 5, limits)
        got = enumeration_outcome(lambda: enumerate_language(spec, query, strategy="brute"))
        expected = enumeration_outcome(lambda: per_word_enumeration(spec, 5, limits))
        if limits.max_configs >= 200:
            assert got == expected, limits
        else:
            assert got == expected or isinstance(got, str), limits


@pytest.mark.parametrize("drawn", sorted(CONFINABLE))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closure_enumeration_agrees_with_brute_where_tails_are_confined(drawn, data):
    spec = data.draw(CONFINABLE[drawn])
    assert tail_confined_bound(spec) is not None
    for bound in (0, 3, 6):
        query = LanguageQuery("basic", bound)
        brute = enumerate_language(spec, query, strategy="brute")
        assert enumerate_language(spec, query, strategy="closure") == brute, bound
    target(float(len(brute)))


def reference_run(spec, w, limits):
    """(steps, outcome, flag) of the deterministic run from ``w``, taken one
    plain step at a time from the restarting configuration and keeping every
    configuration of the current cycle."""
    cap = spec.flags.mr_degree
    config = restarting_configuration(spec, w)
    steps, seen = [], set()
    while True:
        if config in seen:
            return steps, "diverges", None
        seen.add(config)
        if len(steps) + 1 > limits.max_configs:
            return steps, "limit-exceeded", "configs limit exceeded"
        succ = successors(spec, config)
        if not succ:
            return steps, "reject", "stuck"
        [(ins, nxt)] = succ
        steps.append((config, ins))
        bad = discipline_break(cap, ins, config.rewrites)
        if bad is not None:
            return steps, "invalid-cycle", bad
        if nxt is None:
            return steps, "accept" if ins.kind == ACCEPT else "reject", None
        if ins.kind == RESTART:
            seen = set()
        config = nxt


def reference_reductions(steps):
    out, current = [], None
    for config, ins in steps:
        if current is None:
            current = strip_sentinels(config.tape)
        if ins.kind == RESTART:
            out.append((current, strip_sentinels(config.tape)))
            current = strip_sentinels(config.tape)
    return out


def assert_resumed_run_is_plain(spec, w, limits):
    """Run and decider against the plain run, step for step; returns the
    trace."""
    steps, outcome, flag = reference_run(spec, w, limits)
    trace = run_deterministic(spec, w, limits)
    assert (trace.outcome, trace.flag) == (outcome, flag)
    assert len(trace.steps) == len(steps)
    assert list(trace.steps) == steps and trace.steps == tuple(steps)
    assert not steps or trace.steps[-1] == steps[-1]
    assert trace.cycle_count() == sum(ins.kind == RESTART for _, ins in steps)
    assert trace.reductions() == reference_reductions(steps)
    verdict = {"accept": "member", "limit-exceeded": "resource-exceeded"}.get(outcome, "non-member")
    # The decider also expands the configuration a run stops at when it is
    # stuck or over the configs limit.
    configs = len(steps) + (flag in ("stuck", "configs limit exceeded"))
    for memoize in (True, False):
        decision = decide_basic_membership(spec, w, limits, memoize=memoize)
        assert decision.verdict == verdict
        assert decision.exceeded == (flag if verdict == "resource-exceeded" else None)
        assert decision.configs_explored == configs
        if decision.is_member:
            assert decision.witness.steps == tuple(steps)
    return trace


LIMIT_SETS = (
    DEFAULT_LIMITS,
    Limits(max_configs=60),
)


@st.composite
def long_deterministic_runs(draw):
    spec = draw(automata(deterministic=True))
    symbols = sorted(spec.work_alphabet)
    w = tuple(draw(st.lists(st.sampled_from(symbols), max_size=40)))
    return spec, w, draw(st.sampled_from(LIMIT_SETS))


@settings(max_examples=200, deadline=None)
@given(long_deterministic_runs())
def test_resumed_run_agrees_with_plain_run(case):
    trace = assert_resumed_run_is_plain(*case)
    cap = case[0].flags.mr_degree
    # The leftmost rewrite position that each ``_cycle`` hands the run, where
    # the next cycle resumes.
    leftmosts = []
    plain = engine._cycle

    def recorded(*args):
        result = plain(*args)
        leftmosts.append(result[6])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_cycle", recorded)
        assert run_deterministic(*case) == trace
    # A last cycle that stops before its first step, stuck or over the
    # limit, keeps no record.
    assert len(leftmosts) - len(trace.records) in (0, 1)
    starts = [trace.word] + [v for _, v in trace.reductions()]
    for start, record, leftmost in zip(starts, trace.records, leftmosts):
        steps = Trace(start, (record,), trace.outcome).steps
        rewrote = [c.pos for c, ins in steps if ins.kind == SL and c.rewrites < cap]
        assert leftmost == min(rewrote, default=None)
    target(float(sum(len(record.scan) for record in trace.records)))


def last_letter_deleter():
    """Window 3 over {a}: scan to the right sentinel and delete the letter
    in front of it, on the window cut short to (a, $), then restart; so
    a rewrite cuts len - pos = 2 cells, fewer than the window's 3."""
    table = {
        ("q0", (C, D)): (Instruction(ACCEPT),),
        ("q0", (C, "a", D)): (Instruction(MVR, "q0"),),
        ("q0", (C, "a", "a")): (Instruction(MVR, "q0"),),
        ("q0", ("a", "a", "a")): (Instruction(MVR, "q0"),),
        ("q0", ("a", "a", D)): (Instruction(MVR, "q0"),),
        ("q0", ("a", D)): (sl("q1", (D,)),),
        ("q1", (C, D)): (Instruction(RESTART),),
        ("q1", ("a", D)): (Instruction(RESTART),),
    }
    return AutomatonSpec("last", frozenset({"q0", "q1"}), "q0", 3, frozenset("a"),
                         frozenset("a"), table, ClassFlags(deterministic=True))


LM_2_COPY = "aababbbaab" * 6


@pytest.mark.parametrize("name, text, limits, inside", [
    ("m_e", "a" * 200, DEFAULT_LIMITS, False),
    # The second cycle repeats 197 steps but has 99 configurations left.
    ("m_e", "a" * 200, Limits(max_configs=300), True),
    ("m_e", "a" * 256, Limits(max_configs=9_000), True),
    ("l_3", "a" * 60 + "cc" + "b" * 60, Limits(max_configs=1_500), True),
    ("dyck1", "(" * 90 + ")" * 90, Limits(max_configs=3_000), True),
    ("dyck1", "(" * 90 + ")" * 89, DEFAULT_LIMITS, False),
    # Three rewrites per cycle, each on the tape the one before rebuilt.
    ("lm_2", "c".join([LM_2_COPY] * 3), DEFAULT_LIMITS, False),
    ("reg_window1", "a" * 300, DEFAULT_LIMITS, False),
    ("last", "a" * 120, DEFAULT_LIMITS, False),
])
def test_resumed_run_agrees_with_plain_run_on_long_words(name, text, limits, inside):
    spec = last_letter_deleter() if name == "last" else catalog_get(name).spec
    if name == "dyck1":
        opening, closing = sorted(spec.input_alphabet)
        w = tuple(opening if c == "(" else closing for c in text)
    else:
        w = tuple(text)
    trace = assert_resumed_run_is_plain(spec, w, limits)
    last = trace.records[-1]
    assert (bool(last.scan) and not last.steps) == inside


def test_resumed_run_sees_a_loop_through_its_repeated_scan():
    # ab: the first cycle moves to b and deletes it.  The second resumes at
    # the right sentinel of a, walks left in q2 (not a repeated step) and
    # right again in q0, where the position-1 step is one it repeated.
    table = {
        ("q0", (C,)): (Instruction(MVR, "q0"),),
        ("q0", ("a",)): (Instruction(MVR, "q0"),),
        ("q0", ("b",)): (sl("q1", ()),),
        ("q0", (D,)): (Instruction(MVL, "q2"),),
        ("q1", ("a",)): (Instruction(RESTART),),
        ("q2", ("a",)): (Instruction(MVL, "q2"),),
        ("q2", (C,)): (Instruction(MVR, "q0"),),
    }
    spec = AutomatonSpec("shuttle", frozenset({"q0", "q1", "q2"}), "q0", 1, frozenset("ab"),
                         frozenset("ab"), table, ClassFlags(deterministic=True))
    trace = assert_resumed_run_is_plain(spec, ("a", "b"), DEFAULT_LIMITS)
    assert trace.outcome == "diverges"
    assert [len(record.scan) for record in trace.records] == [0, 2]


@settings(max_examples=150, deadline=None)
@given(st.one_of(automata(deterministic=False), automata(deterministic=True), scanners()))
def test_the_step_index_is_the_table_reindexed(spec):
    # Parsing, rendering and building check no step, so they leave the
    # index unbuilt; the first step builds it.
    parsed = parse_automaton(render_automaton(spec))
    assert "_rows" not in vars(spec) and "_rows" not in vars(parsed)
    rows = spec._rows
    assert set(rows) == spec.states
    assert all(state == q for q, row in rows.items() for pairs in row.values() for state, _ in pairs)
    reindexed = {(q, window): tuple(ins for _, ins in pairs)
                 for q, row in rows.items() for window, pairs in row.items()}
    assert reindexed == spec.table
    assert all(reindexed[key] == spec.table[key] for key in spec.table)  # in table order
    # No field: equality, hash and repr do not see it.
    twin = replace(spec)
    assert "_rows" not in {f.name for f in fields(spec)} and "_rows" not in vars(twin)
    assert parsed == spec == twin and repr(twin) == repr(spec)
    with pytest.raises(TypeError) as built:
        hash(spec)
    with pytest.raises(TypeError) as unbuilt:
        hash(twin)
    assert str(built.value) == str(unbuilt.value)
    # A replaced spec builds its own.
    dropped = min(spec.table)
    smaller = replace(spec, table={key: e for key, e in spec.table.items() if key != dropped})
    assert "_rows" not in vars(smaller)
    assert dropped[1] not in smaller._rows[dropped[0]]
    assert dropped[1] in spec._rows[dropped[0]] and spec._rows is rows


@settings(max_examples=150, deadline=None)
@given(st.one_of(automata(deterministic=True), scanners()))
def test_a_deterministic_entry_is_the_one_successor(spec):
    # Every (state, window), missing keys included, against ``successors``
    # at position 0 where the window starts with the left sentinel, else at
    # position 1; a whole window that the right one does not end is
    # followed by it.  ``_cycle`` takes the entry as its step.
    for q in sorted(spec.states):
        for window in window_contents(tuple(sorted(spec.work_alphabet)), spec.window):
            whole = len(window) == spec.window and window[-1] != D
            tape = (C,) * (window[0] != C) + window + (D,) * whole
            offered = successors(spec, Configuration(tape, q, int(window[0] != C), 0))
            assert tuple(ins for ins, _ in offered) == spec.table.get((q, window), ())


def over_one_letter(spec):
    """``spec`` with the input alphabet {a} and the morphism that maps every
    symbol to a."""
    return replace(spec, input_alphabet=frozenset("a"),
                   morphism={tok: "a" for tok in spec.work_alphabet})


def over_two_letters(spec):
    """``spec`` with the input alphabet {a, b} and the morphism that maps c
    to a and fixes a and b, so that the preimages of a word differ only
    where it has an a (drop b from the input when ``spec`` lacks it)."""
    return replace(spec, input_alphabet=frozenset("ab") & spec.work_alphabet,
                   morphism={tok: "a" if tok == "c" else tok for tok in spec.work_alphabet})


def reference_hproper(spec, word, limits):
    """Every preimage of ``word`` decided in turn on one shared memo."""
    memo = {}
    preimages = [sorted(s for s, image in spec.morphism.items() if image == tok) for tok in word]
    for candidate in itertools.product(*preimages):
        decision = decide_basic_membership(spec, candidate, limits, memo=memo)
        if decision.verdict != "non-member":
            return decision, candidate if decision.is_member else None
    return Decision("non-member"), None


def hproper_outcome(decision, preimage):
    steps = list(decision.witness.steps) if decision.witness is not None else None
    return decision.verdict, preimage, decision.exceeded, steps


HPROPER_LIMITS = (
    DEFAULT_LIMITS,
    Limits(max_configs=12),
    Limits(max_configs=200),
)

# The first phase of aa deletes the first a, sees the a behind it and
# rejects, having read one letter of its start tape; ab is a member all the
# same: deleting its a brings b next to the left sentinel, and b accepts.
REWRITE_THEN_REJECT = AutomatonSpec(
    "rewrite_then_reject", frozenset({"q0", "q1"}), "q0", 2, frozenset("ab"), frozenset("ab"),
    {
        ("q0", (C, "a")): (sl("q1", (C,)),),
        ("q0", (C, "b")): (Instruction(MVR, "q0"),),
        ("q0", ("b", D)): (Instruction(ACCEPT),),
        ("q1", (C, "a")): (Instruction(REJECT),),
        ("q1", (C, "b")): (Instruction(RESTART),),
    },
    ClassFlags(deterministic=True),
)


def sweeper(symbols, sweeps=30):
    """A deterministic automaton with window 1 whose first phase moves
    right over a's and rejects at the right sentinel, and at any other
    symbol sweeps the tape end to end ``sweeps`` times and rejects: on
    words of length 6, a^6 costs 8 configurations and the next preimage of
    a^6, which ends in another symbol, about 210."""
    sweep = ["s%d" % i for i in range(sweeps)]
    table = {("q0", (C,)): (Instruction(MVR, "q0"),), ("q0", ("a",)): (Instruction(MVR, "q0"),),
             ("q0", (D,)): (Instruction(REJECT),)}
    for tok in symbols[1:]:
        table[("q0", (tok,))] = (Instruction(MVL, sweep[0]),)
    for i, (state, turned) in enumerate(zip(sweep, sweep[1:])):
        move, turn, end = (MVL, MVR, C) if i % 2 == 0 else (MVR, MVL, D)
        for tok in symbols:
            table[(state, (tok,))] = (Instruction(move, state),)
        table[(state, (end,))] = (Instruction(turn, turned),)
    for window in window_contents(tuple(symbols), 1):
        table[(sweep[-1], window)] = (Instruction(REJECT),)
    return AutomatonSpec("sweeper", frozenset(["q0"] + sweep), "q0", 1, frozenset(symbols),
                         frozenset(symbols), table, ClassFlags(deterministic=True))


def test_the_sweeper_trips_a_limit_in_the_middle_of_the_odometer():
    # The first preimage, a^6, is decided within the limit, and the second
    # trips it after 201 more configurations.
    for spec in (over_one_letter(sweeper("ab")), over_two_letters(sweeper("abc"))):
        decision, _ = decide_hproper_membership(spec, ("a",) * 6, Limits(max_configs=200))
        assert (decision.verdict, decision.configs_explored) == ("resource-exceeded", 8 + 201)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(automata))
@example(REWRITE_THEN_REJECT)
@example(sweeper("ab"))
def test_hproper_skipping_agrees_with_deciding_every_preimage(spec):
    spec = over_one_letter(spec)
    for limits in HPROPER_LIMITS:
        for n in range(7):
            word = ("a",) * n
            got = hproper_outcome(*decide_hproper_membership(spec, word, limits))
            assert got == hproper_outcome(*reference_hproper(spec, word, limits)), (limits, n)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda deterministic: automata(deterministic, max_symbols=3)))
@example(sweeper("abc"))
def test_hproper_resuming_agrees_with_deciding_every_preimage_on_two_letters(spec):
    # Consecutive preimages of a word over {a, b} differ at one of its a's,
    # which may sit anywhere in the word, so that a first phase resumes
    # after a scan of any length.
    spec = over_two_letters(spec)
    letters = sorted(spec.input_alphabet)
    for limits in HPROPER_LIMITS:
        for word in itertools.chain.from_iterable(
                itertools.product(letters, repeat=n) for n in range(6)):
            got = hproper_outcome(*decide_hproper_membership(spec, word, limits))
            assert got == hproper_outcome(*reference_hproper(spec, word, limits)), (limits, word)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda deterministic: automata(deterministic, min_window=2)))
def test_shrunk_input_language_is_hproper_language(spec):
    spec = over_one_letter(spec)
    shrunk, _ = to_shrinking(spec)
    for n in range(5):
        word = ("a",) * n
        via_input = decide_input_membership(shrunk, word)
        via_hproper, _ = decide_hproper_membership(spec, word)
        assert via_input.verdict == via_hproper.verdict != "resource-exceeded", n


@settings(max_examples=100, deadline=None)
@given(st.one_of(automata(deterministic=False),
                 automata(deterministic=True, min_window=2).map(
                     lambda spec: to_shrinking(over_one_letter(spec))[0])))
def test_every_witness_replays(spec):
    # The branch search's witnesses, the shrunk automata's with rewrites
    # that keep the tape's length, start at the word and replay step by step.
    memo, members = {}, 0
    for n in range(4):
        for word in itertools.product(sorted(spec.work_alphabet), repeat=n):
            decision = decide_basic_membership(spec, word, Limits(max_configs=5_000), memo=memo)
            if decision.is_member:
                members += 1
                assert decision.witness.steps[0][0] == restarting_configuration(spec, word)
                assert replay_trace(spec, decision.witness), word
    target(float(members))


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(automata))
def test_parsing_a_rendered_automaton_gives_it_back(spec):
    assert parse_automaton(render_automaton(spec)) == spec
