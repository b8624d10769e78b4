"""Bounded verifiers for semantic properties: determinism conflicts,
monotonicity, cycle discipline, correctness/error preservation and
shrinking-weight validity.

Every check quantifies over all working-alphabet words up to a length bound
and over all computation branches within the resource limits, and it reports
either "holds-up-to-bound" or a concrete counterexample that replays through
the engine.  Monotonicity is decided at every length for deterministic
automata without MVL whose cycles rewrite at most once (every stock
automaton but the multi-rewrite ``lm_j``, and every grammar build): a
report that holds for every length sets ``CheckReport.unbounded``, and the
printed verdict stays "holds-up-to-bound".  So do the preservation modes
that hold by theorem, which ``check_preservation`` answers without a sweep.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .engine import (
    DEFAULT_LIMITS,
    OUT_LIMIT,
    Configuration,
    Limits,
    ResourcesExceeded,
    Trace,
    cycle_rewrites,
    decide_basic_membership,
    discipline_break,
    right_distance,
    run_deterministic,
    strip_sentinels,
    successors,
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
    """Whether ``spec`` is flagged deterministic with one instruction per
    table entry, has no MVL, shortens the tape at every rewrite, and holds
    no rewrite in any state that MVR steps reach from a rewrite's successor
    state, so that no cycle rewrites twice."""
    if not spec.flags.deterministic:
        return False
    moves: dict[str, set[str]] = {}
    after: set[str] = set()
    for (state, window), instrs in spec.table.items():
        if len(instrs) > 1:
            return False
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
    states of ``_scan``; each is explored once, from the least word that
    reaches it, and charged to ``max_configs``.
    """
    alphabet = sorted(spec.work_alphabet)
    initial = spec.initial

    def read(node, cell):
        config, scan = node
        return _scan(spec, config._replace(tape=config.tape + (cell,)), scan)

    start = _scan(spec, Configuration((LEFT_SENTINEL,), initial, 0, 0), (initial,))
    queue = deque([((), start)] if start is not None else [])
    seen = {start}
    budget = limits.max_configs
    while queue:
        word, node = queue.popleft()
        budget -= 1
        if budget < 0:
            if len(word) > max_len:
                return None, False
            raise ResourcesExceeded("configs limit exceeded")
        if node is _RISES or read(node, RIGHT_SENTINEL) is _RISES:
            return word, True
        for sym in alphabet:
            child = read(node, sym)
            if child is not None and child not in seen:
                seen.add(child)
                queue.append((word + (sym,), child))
    return None, True


def _scan(spec: AutomatonSpec, config: Configuration, scan: Optional[tuple]):
    """Step the first cycle of a word read so far into ``config.tape`` until
    its window reaches past the cells read.

    Before the cycle rewrites, ``scan`` holds its states at its last k
    positions up to ``config.pos`` and the tape keeps the cells from the
    first of them; after the rewrite ``scan`` is None and the tape keeps the
    cells from the window on, since nothing left of it is read again.
    Returns the (configuration, scan) that waits for the next cell, _RISES,
    or None when no word that starts with the cells read rises between its
    first two cycles."""
    k = spec.window
    while True:
        tape = config.tape
        if config.pos + k > len(tape) and tape[-1:] != (RIGHT_SENTINEL,):
            return config, scan
        succ = successors(spec, config)
        if not succ:
            return None
        ins, nxt = succ[0]
        if ins.kind == MVR and scan is not None:
            # A rewrite that removes k cells here is floored at the cut, but
            # the next cycle cannot rise over one that removes over k-2.
            scan = (scan + (nxt.state,))[-k:]
            cut = nxt.pos - k + 1
        elif ins.kind == MVR:
            cut = nxt.pos
        elif ins.kind == SL and _next_cycle_rises(spec, config, nxt, scan):
            scan, cut = None, nxt.pos
        elif ins.kind == RESTART and scan is None:
            return _RISES
        else:
            return None
        if cut > 0:
            nxt = Configuration(nxt.tape[cut:], nxt.state, nxt.pos - cut, nxt.rewrites)
        config = nxt


def _next_cycle_rises(spec: AutomatonSpec, config: Configuration, after: Configuration,
                      scan: tuple) -> bool:
    """Whether the cycle after the rewrite from ``config`` to ``after``
    rewrites with a larger right distance.  It takes up the scan at its
    first position, in that position's state, and must rewrite left of
    ``config.pos`` minus the cells removed.  The windows it reads there end
    inside the cells read: the first rewrite's window was read whole."""
    limit = config.pos - (len(config.tape) - len(after.tape))
    probe = Configuration(after.tape, scan[0], config.pos - len(scan) + 1, 0)
    while probe.pos < limit:
        succ = successors(spec, probe)
        if not succ:
            return False
        ins, probe = succ[0]
        if ins.kind != MVR:
            return ins.kind == SL
    return False


def check_cycle_soundness(
    spec: AutomatonSpec,
    max_len: int,
    limits: Limits = DEFAULT_LIMITS,
    degree: Optional[int] = None,
) -> CheckReport:
    """Every cycle performs between 1 and mr-degree rewrite steps and no
    accepting tail contains a rewrite.  Branches are walked without the
    engine's discipline so that violations are observed rather than
    pruned.  ``degree``, when given, replaces the declared rewrite cap and
    must be positive."""
    require_bound(max_len)
    cap = spec.flags.mr_degree if degree is None else degree
    if cap < 1:
        raise PreconditionError("rewrite cap must be positive")

    def breaks(_, config, ins):
        return None, discipline_break(cap, ins, config.rewrites)

    words = words_over(spec.work_alphabet, max_len)
    return _report(
        "cycle-soundness(j=%d)" % cap, max_len,
        lambda: _first_flagged(spec, words, limits, breaks),
    )


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
    from every word it restarts on; a table flagged deterministic that
    offers a choice is refused.  The other two are swept up to the bound.
    Complete-error fails only through the rewritten tape that a later step
    of the run's last record reads: the run restarts only on non-members,
    already in the decider's memo, and a restarting cycle's one rewrite
    makes the tape it restarts on.  A run with no record has none.
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
        if deterministic and not (choices := check_determinism(spec)).holds:
            raise PreconditionError("deterministic flag but " + choices.counterexample.explanation)
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
            for record in cycle_rewrites(spec, word, limits):
                yield record.to_word, Trace((record,), "counterexample")
            return
        trace = run_deterministic(spec, word, limits)
        if trace.outcome == OUT_LIMIT:
            raise ResourcesExceeded("%s while running %s" % (trace.flag, render_word(word)))
        for tape in trace.records[-1].tapes[1:] if trace.records else ():
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
    and the weight function is positive and total on the working alphabet."""
    require_bound(max_len)

    def search() -> Optional[Counterexample]:
        for tok in sorted(spec.work_alphabet):
            if tok not in weights:
                return Counterexample((tok,), None, "no weight for symbol %r" % tok)
            if weights[tok] < 1:
                return Counterexample((tok,), None, "weight of %r is not positive" % tok)
        # Observe cycles without the engine's own progress check, which
        # would raise on the very cycles this check reports.
        relaxed = replace(spec, flags=replace(spec.flags, shrinking=True), weights=None)
        for word in words_over(spec.work_alphabet, max_len):
            before = word_weight(weights, word)
            for record in cycle_rewrites(relaxed, word, limits):
                after = word_weight(weights, record.to_word)
                if after >= before:
                    return Counterexample(
                        word,
                        Trace((record,), "counterexample"),
                        "cycle %s -> %s raises weight %d -> %d" % (
                            render_word(word), render_word(record.to_word),
                            before, after,
                        ),
                    )
        return None

    return _report("shrinking", max_len, search)
