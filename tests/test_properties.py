"""Differential properties on small random automata: the memo search against
the brute search and against a plain reference decider, and deterministic
runs against the search."""

import itertools

from hypothesis import given, settings, strategies as st

from redukto.engine import (
    OUT_ACCEPT,
    cycle_rewrites,
    decide_basic_membership,
    discipline_break,
    restarting_configuration,
    run_deterministic,
    strip_sentinels,
    successors,
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
    is_window_content,
    sl,
    validate_automaton,
)

SYMBOLS = ("a", "b")


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
def automata(draw, deterministic):
    """A valid two-way automaton with at most 3 states, window 1 or 2 and at
    most 2 symbols; deterministic ones hold at most one instruction per
    table entry."""
    states = ["q%d" % i for i in range(draw(st.integers(1, 3)))]
    k = draw(st.integers(1, 2))
    symbols = SYMBOLS[: draw(st.integers(1, 2))]
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
            if discipline_break(cap, ins, config):
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
    assert {c.to_word for c in cycle_rewrites(spec, w)} == reference_phase(spec, w)[1]
    assert decide_basic_membership(spec, w).is_member == reference_member(spec, w)


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
