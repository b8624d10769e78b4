"""Bounded verifiers for semantic properties: determinism conflicts,
monotonicity, cycle discipline, correctness/error preservation and
shrinking-weight validity.

Every check quantifies over all working-alphabet words up to a length bound
and over all computation branches within the resource limits, and it reports
either "holds-up-to-bound" or a concrete counterexample that replays through
the engine.  Some reports hold at every length: they set
``CheckReport.unbounded``, and the printed verdict stays
"holds-up-to-bound".

- Monotonicity is decided at every length for deterministic automata
  without MVL whose cycles rewrite at most once (every stock automaton but
  the multi-rewrite ``lm_j``, and every grammar build).
- Cycle soundness holds at every length when no (state, rewrite count)
  pair that a phase can reach offers a step that breaks the discipline
  (every stock automaton and every build at its declared degree).
- Shrinking holds at every length when the weights are positive and total
  and every rewrite of the table lowers its window's weight (the shrunk
  ``m_e_h`` and the shrunk grammar builds).
- The preservation modes that hold by theorem are answered without a
  sweep.

Where the table or a theorem does not answer, the words up to the bound are
swept.  The cycle-soundness, shrinking and preservation answers that hold
at every length read no limit; only their sweeps do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .engine import (
    DEFAULT_LIMITS,
    OUT_LIMIT,
    Limits,
    ResourcesExceeded,
    Trace,
    cycle_rewrites,
    decide_basic_membership,
    discipline_break,
    right_distance,
    run_deterministic,
    strip_sentinels,
    walk_branches,
)
from .model import (
    LEFT_SENTINEL,
    MVL,
    MVR,
    RESTART,
    RIGHT_SENTINEL,
    SL,
    AutomatonSpec,
    PreconditionError,
    Table,
    Word,
    render_word,
    word_weight,
)
from .languages import require_bound, require_decided, words_over

HOLDS = "holds-up-to-bound"
VIOLATED = "violated"
EXCEEDED = "resource-exceeded"

PRESERVATION_MODES = (
    "complete-correctness",
    "complete-error",
    "cycle-correctness",
    "cycle-error",
)


@dataclass(frozen=True)
class Counterexample:
    word: Word
    trace: Optional[Trace]
    explanation: str


@dataclass(frozen=True)
class CheckReport:
    property_name: str
    bound: Optional[int]            # None for a check with no length bound
    verdict: str
    counterexample: Optional[Counterexample] = None
    # The property holds at every length, not only up to the bound.
    unbounded: bool = False
    exceeded: Optional[str] = None  # the tripped limit's message

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def describe(self) -> str:
        bound = "" if self.bound is None else " at length <= %d" % self.bound
        head = "%s%s: %s" % (self.property_name, bound, self.verdict)
        if self.exceeded is not None:
            head += " (%s)" % self.exceeded
        if self.counterexample is None:
            return head
        ce = self.counterexample
        return "%s\n  word: %s\n  %s" % (head, render_word(ce.word), ce.explanation)


def _report(
    name: str, max_len: int, search: Callable[[], Optional[Counterexample]]
) -> CheckReport:
    """Report on a bounded search for a counterexample: a tripped limit is
    resource-exceeded, and no counterexample is holds-up-to-bound."""
    try:
        found = search()
    except ResourcesExceeded as err:
        return CheckReport(name, max_len, EXCEEDED, exceeded=str(err))
    if found is None:
        return CheckReport(name, max_len, HOLDS)
    return CheckReport(name, max_len, VIOLATED, found)


def _first_flagged(spec, words: Iterable[Word], limits, on_step) -> Optional[Counterexample]:
    """The first word with a step that ``on_step`` flags on some branch,
    with the trace up to that step."""
    for word in words:
        trace = walk_branches(spec, word, on_step, limits)
        if trace is not None:
            return Counterexample(word, trace, trace.flag)
    return None


def check_determinism(spec: AutomatonSpec) -> CheckReport:
    """List every (state, window) pair carrying two or more instructions."""
    conflicts = [
        (state, window)
        for (state, window), instrs in sorted(spec.table.items())
        if len(instrs) > 1
    ]
    if not conflicts:
        return CheckReport("determinism", None, HOLDS)
    state, window = conflicts[0]
    detail = "; ".join(
        "(%s, %s)" % (s, render_word(w)) for s, w in conflicts[:5]
    )
    return CheckReport(
        "determinism",
        None,
        VIOLATED,
        Counterexample(window, None, "%d conflicting keys: %s" % (len(conflicts), detail)),
    )


def _rise(last_dr, config, ins):
    """Branch-walk step for monotonicity: the path state is the right
    distance of the branch's last rewrite, and a rewrite at a larger one is
    flagged."""
    if ins.kind != SL:
        return last_dr, None
    dr = right_distance(config)
    if last_dr is not None and dr > last_dr:
        return dr, "right distance rises from %d to %d at a rewrite" % (last_dr, dr)
    return dr, None


def check_monotone(
    spec: AutomatonSpec,
    max_len: int,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckReport:
    """Right distances of rewrite configurations never increase within a
    computation, over every word up to the bound and every branch.

    An automaton that ``_decided_exactly`` admits (every stock automaton
    but the multi-rewrite ``lm_j``, and every grammar build) is decided at
    every length: the shortlex-least word whose run rises is found by
    ``_least_rising_word``, or shown not to exist, in which case the report
    holds with ``unbounded`` set.  That word is the violation when it is no
    longer than the bound.  Any other automaton is walked word by word in
    shortlex order.  Either way the witness of a violation is the branch
    walk of the least rising word up to its rising rewrite, and the
    printed verdict reads as for a bounded search.
    """
    require_bound(max_len)
    if not _decided_exactly(spec):
        words = words_over(spec.work_alphabet, max_len)
        return _report("monotonicity", max_len, lambda: _first_flagged(spec, words, limits, _rise))
    try:
        word, finished = _least_rising_word(spec, max_len, limits)
    except ResourcesExceeded as err:
        return CheckReport("monotonicity", max_len, EXCEEDED, exceeded=str(err))
    if word is None or len(word) > max_len:
        return CheckReport("monotonicity", max_len, HOLDS, unbounded=word is None and finished)
    return _report("monotonicity", max_len, lambda: _first_flagged(spec, [word], limits, _rise))


def _decided_exactly(spec: AutomatonSpec) -> bool:
    """Whether ``spec`` is flagged deterministic, has no MVL, shortens the
    tape at every rewrite, and holds no rewrite in any state that MVR steps
    reach from a rewrite's successor state, so that no cycle rewrites
    twice."""
    if not spec.flags.deterministic:
        return False
    moves: dict[str, set[str]] = {}
    after: set[str] = set()
    for (state, window), instrs in spec.table.items():
        for ins in instrs:
            if ins.kind == MVL or (ins.kind == SL and len(ins.target) >= len(window)):
                return False
            if ins.kind == SL:
                after.add(ins.state)
            elif ins.kind == MVR:
                moves.setdefault(state, set()).add(ins.state)
    todo = list(after)
    while todo:
        for state in moves.get(todo.pop(), ()):
            if state not in after:
                after.add(state)
                todo.append(state)
    return not any(
        ins.kind == SL
        for (state, _), instrs in spec.table.items()
        if state in after
        for ins in instrs
    )


# A first cycle that restarts after a rewrite the second cycle rises over.
_RISES = "rises"


def _least_rising_word(
    spec: AutomatonSpec, max_len: int, limits: Limits
) -> tuple[Optional[Word], bool]:
    """The shortlex-least word whose run on ``spec``, an automaton that
    ``_decided_exactly`` admits, has a rising rewrite, and whether the
    search finished: (word, True), (None, True) when no word of any length
    rises, and (None, False) when the configs limit trips after every word
    up to ``max_len`` was cleared.  Raises ResourcesExceeded when it trips
    before that.

    Without MVL the rewrites of one cycle never rise, and a cycle leaves a
    shorter tape that is itself a word, so the shortest rising words rise
    between their first two cycles.  Cycle 2 repeats the MVR steps of cycle
    1 up to r = max(0, p1-k+1), where p1 is the rewritten position and k
    the window, and rises iff it rewrites at some p2 < p1-d, where d is the
    number of cells the first rewrite removed.  So the words are read one
    cell at a time, breadth first in sorted-letter order, into the finite
    states of ``_scan``, each one flat tuple; every step is the table's one
    entry, as in a deterministic run.  Each state is explored once, from the
    least word that reaches it, and charged to ``max_configs``.  The queue
    holds states, each linked to the state it was first read from, and the
    word is rebuilt from those links only when it rises or the limit trips.
    """
    alphabet = sorted(spec.work_alphabet)
    scan = partial(_scan, spec.table, spec.window)
    start = scan((spec.initial, 0, LEFT_SENTINEL))
    parents = {start: None}
    queue = deque([start] if start is not None else [])
    budget = limits.max_configs
    while queue:
        node = queue.popleft()
        budget -= 1
        if budget < 0:
            if len(_word_to(node, parents, scan, alphabet)) > max_len:
                return None, False
            raise ResourcesExceeded("configs limit exceeded")
        if node is _RISES or scan(node + (RIGHT_SENTINEL,)) is _RISES:
            return _word_to(node, parents, scan, alphabet), True
        for sym in alphabet:
            child = scan(node + (sym,))
            if child is not None and child not in parents:
                parents[child] = node
                queue.append(child)
    return None, True


def _word_to(node, parents: dict, scan: Callable, alphabet: list[str]) -> Word:
    """The word that the search first read into ``node``: along the links
    in ``parents``, the least letter that ``scan`` reads from each state
    into the next, the one the search took first."""
    word = []
    parent = parents[node]
    while parent is not None:
        word.append(next(sym for sym in alphabet if scan(parent + (sym,)) == node))
        node, parent = parent, parents[parent]
    return tuple(reversed(word))


def _scan(table: Table, k: int, node: tuple):
    """Step the first cycle of a word read so far until its window reaches
    past the cells read.

    ``node`` is (state, position, scan..., cells...).  Before the cycle
    rewrites, the scan is its states at the positions left of its window,
    at most k-1 of them, so the position is the scan's length, and the
    cells are kept from the first of them.  After the rewrite the scan is
    one None, and the cells are kept from the window on, at position 0,
    since nothing left of it is read again.  Returns the state that waits
    for the next cell, _RISES, or None when no word that starts with the
    cells read rises between its first two cycles."""
    state, pos = node[0], node[1]
    if node[2] is None:
        scan, tape = None, node[3:]
    else:
        scan, tape = node[2:pos + 2], node[pos + 2:]
    while True:
        if pos + k > len(tape) and tape[-1:] != (RIGHT_SENTINEL,):
            return (state, pos) + (scan if scan is not None else (None,)) + tape
        window = tape[pos:pos + k]
        entry = table.get((state, window))
        if not entry:
            return None
        ins = entry[0]
        kind = ins.kind
        if kind == MVR and scan is not None:
            # A rewrite that removes k cells here is floored at the cut, but
            # the next cycle cannot rise over one that removes over k-2.
            scan = scan + (state,) if pos < k - 1 else (scan + (state,))[1:]
            state, pos = ins.state, pos + 1
            cut = pos - k + 1
        elif kind == MVR:
            state, pos = ins.state, pos + 1
            cut = pos
        elif kind == SL:
            tape = tape[:pos] + ins.target + tape[pos + len(window):]
            first = scan[0] if scan else state
            pos -= len(window) - len(ins.target)
            if not _next_cycle_rises(table, k, tape, first, pos):
                return None
            state, pos, scan = ins.state, max(0, pos), None
            cut = pos
        elif kind == RESTART and scan is None:
            return _RISES
        else:
            return None
        if cut > 0:
            tape, pos = tape[cut:], pos - cut


def _next_cycle_rises(table: Table, k: int, tape: Word, state: str, limit: int) -> bool:
    """Whether the cycle after a rewrite that left ``tape`` rewrites with a
    larger right distance.  It takes up the scan at its first position, the
    first kept cell, in that position's ``state``, and must rewrite left of
    ``limit``, the rewritten position minus the cells removed.  The windows
    it reads there end inside the cells read: the first rewrite's window
    was read whole."""
    pos = 0
    while pos < limit:
        entry = table.get((state, tape[pos:pos + k]))
        if not entry:
            return False
        ins = entry[0]
        if ins.kind != MVR:
            return ins.kind == SL
        state, pos = ins.state, pos + 1
    return False


def check_cycle_soundness(
    spec: AutomatonSpec,
    max_len: int,
    limits: Limits = DEFAULT_LIMITS,
    degree: Optional[int] = None,
) -> CheckReport:
    """Every cycle performs between 1 and mr-degree rewrite steps and no
    accepting tail contains a rewrite.  ``degree``, when given, replaces the
    declared rewrite cap and must be positive.

    When ``_discipline_kept`` shows from the table that no phase of any
    word can break the discipline, the report holds at every length
    (``unbounded``), without a word walked or ``limits`` read: every stock
    automaton and every build at its declared degree.  Otherwise every word
    up to the bound is walked in shortlex order, on every branch and without
    the engine's discipline, so that violations are observed rather than
    pruned; the witness ends at the offending step.
    """
    require_bound(max_len)
    cap = spec.flags.mr_degree if degree is None else degree
    if cap < 1:
        raise PreconditionError("rewrite cap must be positive")
    name = "cycle-soundness(j=%d)" % cap
    if _discipline_kept(spec, cap):
        return CheckReport(name, max_len, HOLDS, unbounded=True)

    def breaks(_, config, ins):
        return None, discipline_break(cap, ins, config.rewrites)

    words = words_over(spec.work_alphabet, max_len)
    return _report(name, max_len, lambda: _first_flagged(spec, words, limits, breaks))


def _discipline_kept(spec: AutomatonSpec, cap: int) -> bool:
    """Whether no (state, rewrite count) pair that a phase can reach offers
    an instruction that ``discipline_break`` flags under ``cap``.

    The pairs form a finite graph from (initial, 0): MVR and MVL lead to
    their target state, SL to its target state with one more rewrite, and
    Restart back to (initial, 0).  An SL is flagged once the count reaches
    ``cap``, so no count in the graph exceeds it.  The graph ignores window
    contents, which can only prune it, so it holds every pair of every
    branch that ``walk_branches`` walks."""
    offered: dict[str, set] = {}
    for (state, _), instrs in spec.table.items():
        offered.setdefault(state, set()).update(instrs)
    start = (spec.initial, 0)
    seen = {start}
    todo = [start]
    while todo:
        state, rewrites = todo.pop()
        for ins in offered.get(state, ()):
            if discipline_break(cap, ins, rewrites) is not None:
                return False
            if ins.kind in (MVR, MVL):
                nxt = (ins.state, rewrites)
            elif ins.kind == SL:
                nxt = (ins.state, rewrites + 1)
            else:  # Restart re-enters the start pair; Accept and Reject halt
                continue
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def check_preservation(
    spec: AutomatonSpec,
    max_len: int,
    mode: str,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckReport:
    """Correctness/error preservation of the basic language.

    complete modes: along every computation from every word up to the bound,
    every visited tape has the basic-membership status of the start word.
    They require a deterministic automaton with one rewrite per cycle (with
    more, the mid-cycle tapes genuinely break them).  cycle modes: for every
    cycle u => v, membership of u implies that of v (correctness), and
    non-membership of u that of v (error).

    Three cases hold by theorem and are answered as holding at every length
    (``unbounded``), without deciding a word or reading ``limits``:
    cycle-error on every automaton (u => v followed by an accepting
    computation from v is one from u), and both correctness modes on a
    deterministic automaton, whose one computation from a member accepts
    from every word it restarts on.  The other two are swept up to the bound.
    Complete-error fails only through the rewritten tape that a later step
    of the run's last record reads: the run restarts only on non-members
    (the shorter ones in the decider's memo already, as start words, since
    ``words_over`` gives every shorter word first), and a restarting
    cycle's one rewrite makes the tape it restarts on.  A run with no
    record has none.
    Cycle-correctness on a nondeterministic automaton fails where a branch's
    cycle rewrites a member into a non-member, and that cycle is the trace.
    """
    require_bound(max_len)
    if mode not in PRESERVATION_MODES:
        raise PreconditionError("unknown preservation mode %r" % mode)
    # The cycle modes follow members, complete-error follows non-members.
    cycles, deterministic = mode.startswith("cycle"), spec.flags.deterministic
    if not cycles and not deterministic:
        raise PreconditionError("%s requires a deterministic automaton" % mode)
    if not cycles and spec.flags.mr_degree != 1:
        raise PreconditionError("complete preservation applies to single-rewrite cycles only")
    name = "preservation(%s)" % mode
    if mode == "cycle-error" or (deterministic and mode != "complete-error"):
        return CheckReport(name, max_len, HOLDS, unbounded=True)
    memo: dict = {}
    status = {True: "member", False: "non-member"}

    def member(w: Word) -> bool:
        d = decide_basic_membership(spec, w, limits, memo=memo)
        require_decided(d, w)
        return d.is_member

    def visits(word: Word) -> Iterator[tuple[Word, Trace]]:
        """The words to compare with ``word``, each with the trace that
        reaches it: each cycle's successor, or the last record's rewrite."""
        if cycles:
            for v, record in cycle_rewrites(spec, word, limits).items():
                yield v, Trace(word, (record,), "counterexample")
            return
        trace = run_deterministic(spec, word, limits)
        if trace.outcome == OUT_LIMIT:
            raise ResourcesExceeded("%s while running %s" % (trace.flag, render_word(word)))
        if trace.records:
            last = trace.records[-1]
            steps = trace.steps[len(trace.steps) - len(last.scan) - len(last.steps):]
            for tape in dict.fromkeys(config.tape for config, _ in steps if config.rewrites):
                yield strip_sentinels(tape), trace

    explain = ("cycle rewrites %s (%s) to %s (%s)" if cycles
               else "computation from %s (%s) visits %s (%s)")

    def search() -> Optional[Counterexample]:
        for word in words_over(spec.work_alphabet, max_len):
            if member(word) != cycles:
                continue
            for visited, trace in visits(word):
                if member(visited) != cycles:
                    return Counterexample(word, trace, explain % (render_word(word), status[cycles],
                                                                  render_word(visited), status[not cycles]))
        return None

    return _report(name, max_len, search)


def check_shrinking(
    spec: AutomatonSpec,
    weights: dict[str, int],
    max_len: int,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckReport:
    """Every observed cycle rewriting strictly decreases the total weight,
    and the weight function is positive and total on the working alphabet.

    The weights are checked first, symbol by symbol.  Then, when
    ``_rewrites_lower_weight`` shows that every SL instruction lowers the
    weight of its own window, the report holds at every length
    (``unbounded``), without a word swept or ``limits`` read: every cycle
    rewrites at least once, so every cycle lowers the tape's weight.  This
    covers the shrunk ``m_e_h`` and the shrunk grammar builds.  Otherwise
    the cycles of every word up to the bound are compared in shortlex
    order, and the witness is the first cycle that does not lower the
    weight.
    """
    require_bound(max_len)
    for tok in sorted(spec.work_alphabet):
        fault = ("no weight for symbol %r" if tok not in weights
                 else "weight of %r is not positive" if weights[tok] < 1 else None)
        if fault is not None:
            return CheckReport("shrinking", max_len, VIOLATED, Counterexample((tok,), None, fault % tok))
    if _rewrites_lower_weight(spec, weights):
        return CheckReport("shrinking", max_len, HOLDS, unbounded=True)
    # Observe cycles without the engine's own weight check, which would
    # raise on the very cycles this check reports.
    relaxed = replace(spec, weights=None)

    def search() -> Optional[Counterexample]:
        for word in words_over(spec.work_alphabet, max_len):
            before = word_weight(weights, word)
            for v, record in cycle_rewrites(relaxed, word, limits).items():
                after = word_weight(weights, v)
                if after >= before:
                    return Counterexample(
                        word,
                        Trace(word, (record,), "counterexample"),
                        "cycle %s -> %s raises weight %d -> %d" % (
                            render_word(word), render_word(v),
                            before, after,
                        ),
                    )
        return None

    return _report("shrinking", max_len, search)


def _rewrites_lower_weight(spec: AutomatonSpec, weights: dict[str, int]) -> bool:
    """Whether every SL instruction's target weighs strictly less than its
    window, sentinels weighing 0.  ``weights`` must be total on the working
    alphabet.

    Every rewrite of a spec keeps the sentinels in place, so every tape a
    cycle passes is a left sentinel, working symbols and a right sentinel,
    and every rewrite lowers its weight.  Any other table leaves the
    question to the sweep."""
    def weight(word: Word) -> int:
        return sum(weights[tok] for tok in word if tok not in (LEFT_SENTINEL, RIGHT_SENTINEL))

    return all(weight(target) < weight(window) for window, target in spec.sl_pairs())
