"""Differential properties on small random automata: the memo search against
the brute search and against a plain reference decider, deterministic runs
against the search, the deterministic decider against the depth-first
search on the same automaton unflagged (deciders, ``decide_first_member``
and ``cycle_rewrites``), resumed deterministic runs against a plain one, the
h-proper decider against deciding every preimage, over one letter and over
two, and against the input language of ``to_shrinking``, exact monotonicity
against the word-by-word walk, the closure enumerator against the brute one,
and parsing against rendering.  The deciders also keep the preservation
properties that hold by theorem: cycle-error everywhere, cycle-correctness
on deterministic automata."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st, target

from redukto.catalog import catalog_get
from redukto.checks import check_monotone
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
    decide_first_member,
    compiled_step,
    decide_input_membership,
    discipline_break,
    replay_trace,
    restarting_configuration,
    run_deterministic,
    strip_sentinels,
    successors,
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
    validate_automaton,
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


def rewrite_targets(window, symbols):
    """Every legal SL target for ``window``: strictly shorter, with the same
    sentinels in the same places."""
    left, right = window[0] == C, window[-1] == D
    inner = len(window) - left - right
    return [
        (C,) * left + mid + (D,) * right
        for m in range(inner)
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
def instructions(draw, q, states, window, symbols):
    targets = rewrite_targets(window, symbols)
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
def automata(draw, deterministic, min_window=1, max_symbols=2):
    """A valid two-way automaton with at most 3 states, window 1 or 2 (at
    least ``min_window``) and at most ``max_symbols`` symbols (3 at most);
    deterministic ones hold at most one instruction per table entry."""
    states = ["q%d" % i for i in range(draw(st.integers(1, 3)))]
    k = draw(st.integers(min_window, 2))
    symbols = SYMBOLS[: draw(st.integers(1, max_symbols))]
    table = {}
    for q in states:
        for window in window_contents(symbols, k):
            entry = instructions(q, states, window, symbols)
            chosen = set(draw(st.lists(entry, min_size=1, max_size=1 if deterministic else 3)))
            chosen.discard(None)
            if chosen:
                table[(q, window)] = tuple(chosen)
    flags = ClassFlags(deterministic=deterministic, mr_degree=draw(st.integers(1, 2)))
    spec = AutomatonSpec("random", frozenset(states), "q0", k, frozenset(symbols),
                         frozenset(symbols), table, flags)
    assert validate_automaton(spec).ok, validate_automaton(spec).violations
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
    assert validate_automaton(spec).ok, validate_automaton(spec).violations
    return spec


@st.composite
def automaton_and_word(draw, deterministic):
    spec = draw(automata(deterministic))
    symbols = sorted(spec.work_alphabet)
    return spec, tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=6)))


def reference_phase(spec, w):
    """(whether a tail accepts, the set of words one cycle reaches) from the
    restarting configuration of ``w``, by a plain walk over full
    configurations."""
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
    return accepts, words


def reference_member(spec, w, path=frozenset()):
    """Whether some computation from ``w`` accepts, never repeating a
    restarting word along one computation."""
    accepts, words = reference_phase(spec, w)
    path = path | {w}
    return accepts or any(reference_member(spec, v, path) for v in words - path)


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=False))
def test_search_agrees_with_reference_decider(case):
    spec, w = case
    records = cycle_rewrites(spec, w)
    assert {c.to_word for c in records} == reference_phase(spec, w)[1]
    member = reference_member(spec, w)
    assert decide_basic_membership(spec, w).is_member == member
    # Cycle-error preservation: a cycle into a member makes its source one.
    assert member or not any(reference_member(spec, r.to_word) for r in records)


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
            for record in cycle_rewrites(spec, w):
                assert decide_basic_membership(spec, record.to_word, memo=memo).is_member


def decision_outcome(decision):
    steps = list(decision.witness.steps) if decision.witness is not None else None
    return decision.verdict, decision.configs_explored, decision.exceeded, steps


def assert_follows_search(spec, w, limits):
    """The decider, which follows a deterministic automaton's one
    computation, against the depth-first search on the same automaton
    flagged nondeterministic: verdict, count, tripped limit, witness and
    memoized words.  Every word up to length 3 is decided first, and ``w``
    last, on one memo per side, so that chains meet memoized words midway."""
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    symbols = sorted(spec.work_alphabet)
    words = [v for n in range(4) for v in itertools.product(symbols, repeat=n)] + [w]
    for memoize in (True, False):
        followed_memo, searched_memo = {}, {}
        for v in words:
            followed = decide_basic_membership(spec, v, limits, memoize, followed_memo)
            searched = decide_basic_membership(unflagged, v, limits, memoize, searched_memo)
            assert decision_outcome(followed) == decision_outcome(searched), (memoize, v)
            assert followed_memo.keys() == searched_memo.keys(), (memoize, v)


def assert_first_member_follows_search(spec, n, limits):
    """The first member among the words of length ``n``, on a deterministic
    automaton and on the same automaton flagged nondeterministic: verdict,
    count, tripped limit, witness and word.  The two phase functions'
    rejected prefixes pick the candidates that are skipped, which the count
    shows."""
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    options = [sorted(spec.work_alphabet)] * n
    followed, word = decide_first_member(spec, options, limits)
    searched, searched_word = decide_first_member(unflagged, options, limits)
    assert (decision_outcome(followed), word) == (decision_outcome(searched), searched_word)


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
        assert_first_member_follows_search(spec, len(w), limits)


def test_deterministic_decider_agrees_with_search_on_a_flat_dyck_word():
    spec = catalog_get("dyck1").spec
    opening, closing = sorted(spec.input_alphabet)
    assert_follows_search(spec, (opening, closing) * 1200, DEFAULT_LIMITS)


def test_deterministic_decider_refuses_a_choice():
    # Flagged deterministic, but a offers a move and a reject.  ba deletes
    # its b and restarts on a, where the choice comes up.
    table = {
        ("q0", (C,)): (Instruction(MVR, "q0"),),
        ("q0", ("a",)): (Instruction(MVR, "q0"), Instruction(REJECT)),
        ("q0", ("b",)): (sl("q1", ()),),
        ("q1", (C,)): (Instruction(RESTART),),
    }
    spec = AutomatonSpec("chooser", frozenset({"q0", "q1"}), "q0", 1, frozenset("ab"),
                         frozenset("ab"), table, ClassFlags(deterministic=True))
    assert not validate_automaton(spec).ok
    memo = {}
    choice = r"^nondeterministic choice at \(q0, a\)$"
    with pytest.raises(PreconditionError, match=choice):
        decide_basic_membership(spec, ("b", "a"), memo=memo)
    assert memo == {}  # the open word ba is undecided, not rejected
    # cycle_rewrites follows the one computation too: on a it meets the
    # choice, which the compiled step never fills, so every run meets it.
    with pytest.raises(PreconditionError, match=choice):
        cycle_rewrites(spec, ("a",))
    with pytest.raises(PreconditionError, match=choice):
        run_deterministic(spec, ("b", "a"))


def rewrites_outcome(spec, w, limits):
    try:
        return [(r.to_word, Trace((r,), "counterexample").steps) for r in cycle_rewrites(spec, w, limits)]
    except (PreconditionError, ResourcesExceeded) as err:
        return type(err).__name__, str(err)


@settings(max_examples=150, deadline=None)
@given(automaton_and_word(deterministic=True))
def test_cycle_rewrites_follow_the_search_on_a_deterministic_automaton(case):
    spec, w = case
    unflagged = replace(spec, flags=replace(spec.flags, deterministic=False))
    for limits in (DEFAULT_LIMITS, Limits(max_configs=12)):
        assert rewrites_outcome(spec, w, limits) == rewrites_outcome(unflagged, w, limits), limits


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


def confine_tails(spec):
    """``spec`` with every ACCEPT whose window misses a sentinel turned into
    REJECT, so that tail acceptance is confined to whole short words."""
    table = {}
    for (q, window), instrs in spec.table.items():
        confined = C in window and D in window
        table[(q, window)] = tuple(dict.fromkeys(
            ins if ins.kind != ACCEPT or confined else Instruction(REJECT) for ins in instrs))
    confined = replace(spec, table=table)
    assert validate_automaton(confined).ok, validate_automaton(confined).violations
    return confined


# Under confined tails nearly every language ``automata`` draws is empty or
# holds only the empty word; about a fifth of the scanners' languages hold
# longer words, which the closure reaches only by inverse rewriting.  The
# target steers both toward larger languages.
CONFINABLE = {
    "automata": st.booleans().flatmap(automata).map(confine_tails),
    "scanners": scanners().map(confine_tails),
}


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
    for record in trace.records:
        steps = Trace((record,), trace.outcome).steps
        rewrote = [c.pos for c, ins in steps if ins.kind == SL and c.rewrites < cap]
        assert record.rewritten_from == min(rewrote, default=None)
    target(float(sum(len(record.scan) for record in trace.records)))


@pytest.mark.parametrize("name, text, limits, inside", [
    ("m_e", "a" * 200, DEFAULT_LIMITS, False),
    # The second cycle repeats 197 steps but has 99 configurations left.
    ("m_e", "a" * 200, Limits(max_configs=300), True),
    ("m_e", "a" * 256, Limits(max_configs=9_000), True),
    ("l_3", "a" * 60 + "cc" + "b" * 60, Limits(max_configs=1_500), True),
    ("dyck1", "(" * 90 + ")" * 90, Limits(max_configs=3_000), True),
    ("dyck1", "(" * 90 + ")" * 89, DEFAULT_LIMITS, False),
])
def test_resumed_run_agrees_with_plain_run_on_long_words(name, text, limits, inside):
    spec = catalog_get(name).spec
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


@st.composite
def loose_tables(draw):
    """A random deterministic automaton, its table loosened where the step
    relation's side conditions filter: some states take an MVR at the right
    sentinel alone, or an MVL at a window that starts with the left
    sentinel, each alone or beside a halt.  The key of the first step on a
    drawn word offers a choice; returns the automaton, its window contents
    and the word."""
    spec = draw(automata(deterministic=True))
    states = sorted(spec.states)
    symbols = tuple(sorted(spec.work_alphabet))
    windows = window_contents(symbols, spec.window)
    table = dict(spec.table)
    for q in states:
        move = Instruction(MVR, q)
        beside = draw(st.sampled_from([(), (Instruction(ACCEPT),), (Instruction(REJECT),)]))
        table[(q, (D,))] = (move,) + beside
        for window in windows:
            if window[0] == C and draw(st.booleans()):
                move = Instruction(MVL, draw(st.sampled_from(states)))
                beside = draw(st.sampled_from([(), (Instruction(REJECT),)]))
                table[(q, window)] = (move,) + beside
    w = tuple(draw(st.lists(st.sampled_from(symbols), max_size=3)))
    first = ((C,) + w + (D,))[: spec.window]
    table[(spec.initial, first)] = (Instruction(ACCEPT), Instruction(REJECT))
    return replace(spec, table=table), windows, w


@settings(max_examples=150, deadline=None)
@given(loose_tables())
def test_compiled_step_is_the_one_successor(case):
    # Every (state, window), missing keys included, against ``successors``
    # at position 0 where the window starts with the left sentinel, else at
    # position 1; a whole window that the right one does not end is
    # followed by it.  A run that reaches the choice raises there, and its
    # step table holds the keys of the spec's table, the choice unfilled.
    spec, windows, w = case
    for q in sorted(spec.states):
        for window in windows:
            whole = len(window) == spec.window and window[-1] != D
            tape = (C,) * (window[0] != C) + window + (D,) * whole
            offered = successors(spec, Configuration(tape, q, int(window[0] != C), 0))
            if len(offered) > 1:
                with pytest.raises(PreconditionError) as err:
                    compiled_step(spec, q, window)
                assert str(err.value) == "nondeterministic choice at (%s, %s)" % (
                    q, render_word(window))
            else:
                assert compiled_step(spec, q, window) == (offered[0][0] if offered else None)
    first = ((C,) + w + (D,))[: spec.window]
    for _ in range(2):
        with pytest.raises(PreconditionError) as err:
            run_deterministic(spec, w)
        assert str(err.value) == "nondeterministic choice at (%s, %s)" % (
            spec.initial, render_word(first))
    assert spec.step_table.keys() == spec.table.keys()
    assert not isinstance(spec.step_table[(spec.initial, first)], (Instruction, type(None)))
    # Without the choice, runs through the loosened keys step as the plain
    # run does.
    plain = replace(spec, table={key: ins for key, ins in spec.table.items()
                                 if key != (spec.initial, first)})
    symbols = sorted(spec.work_alphabet)
    for v in (u for n in range(4) for u in itertools.product(symbols, repeat=n)):
        assert_resumed_run_is_plain(plain, v, DEFAULT_LIMITS)


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
        assert validate_automaton(spec).ok
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
