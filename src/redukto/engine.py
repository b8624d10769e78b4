"""Exact operational semantics: configurations, the six step types, cycles
and tails, deterministic runs, membership search, and the cycle-rewriting
relation.

A configuration holds the whole tape including both sentinels; ``pos`` is the
index of the leftmost window cell, so the restarting configuration of a word
w has tape ``(LEFT,) + w + (RIGHT,)``, state q0 and pos 0, and the window
content is ``tape[pos : pos + k]``.

Cycle discipline.  The discipline is part of the model: every phase that
ends in a restart must contain between 1 and mr-degree rewrite steps, and a
phase that halts by accepting must contain none; a rejecting halt after a
rewrite is an aborted cycle and is always admitted.  Searches prune branches
that violate the discipline; deterministic runs report them as an
invalid-cycle outcome.  ``discipline_break`` states the rules for any
rewrite cap; the branch walk behind the checks applies none of them itself,
so that the checks observe violations rather than prune them.

A missing table entry halts the run; this is reported as a reject flagged
"stuck", distinct from an explicit reject step.  A word with a symbol outside
the working alphabet, a sentinel included, is refused with SymbolError.

Limits.  ``Limits`` holds one limit, ``max_configs``, which bounds every
step, cycle and phase too, since each expands a configuration.  A search
that runs out raises ResourcesExceeded, naming the limit; the deciders turn
it into a resource-exceeded verdict that keeps the message in
``Decision.exceeded``.  Deterministic runs stop with a limit-exceeded
outcome flagged with the same message, and the decider turns that into the
same verdict.

Resumed scans.  Take a recorded cycle, or tail, of a deterministic automaton
with window k that moved MVR from position 0 to position L, and a start tape
that agrees with the recorded cycle's start tape on cells [0, s).  The state
at any x <= L depends only on cells [0, x+k-1), so a cycle on that tape
repeats the first r = min(L, s-k+1) recorded steps exactly and may start at
position r in the recorded state.  Two kinds of tape share cells so: within
a run, the next cycle's tape keeps cells [0, p) of the one before, p being
its leftmost rewrite; and between two candidate words of one length that
first differ at letter i, the tapes share cells [0, i), cell 0 holding the
left sentinel.  One function (``_cycle``) runs every cycle of a
deterministic automaton, resumed so, and spends the caller's one
configuration budget: ``run_deterministic``, the decider and
``decide_members`` take their cycles from it.  The repeated steps are
MVR moves at distinct positions without a rewrite, so they can trip neither
a loop check nor the cycle discipline, and a configuration that an MVL
brings back into the repeated prefix is matched against the recorded scan,
so loops through the prefix are still seen.  The repeated steps are charged
to every step and configuration count, and r is clamped to the
configurations left, so that the limit trips at the very step it would trip
at without resuming.  A trace keeps the word it starts on and one
``CycleRecord`` per cycle, whose steps, the repeated scan's too, are
(state, instruction) pairs.  A record keeps no tape: each starts on the
tape that the record before it restarted on, the first on the trace's
word, so a run on n letters keeps its word once plus its steps.  Only
``Trace.steps`` builds configurations, in one pass along the trace.

Steps.  A spec is legal once it is built: its table holds no MVR at the
right sentinel alone and no MVL at a window that starts with the left
sentinel, and every rewrite keeps the sentinels at the ends of the tape
and, unless the spec is shrinking, shortens it.  So every instruction of
the entry at a configuration is a step.  One loop (``_cycle``) steps every
phase in place while each entry it meets offers one instruction: it takes
the entry in ``spec.table`` as its step, a missing or empty entry as
stuck, applies moves and rewrites inline to one list tape, and applies
the cycle discipline inline, taking ``discipline_break``'s message only
when a step breaks it.  A spec flagged deterministic holds at most one
instruction per entry, so its every cycle is one such loop, on a tape
rewritten in place across a run, and keeps the leftmost rewrite position
in ``CycleRecord.rewritten_from``, where the next cycle resumes.  On any
other spec the loop stops at the first entry with a choice, and the
branch search (``_explore_phase``) goes on from there: it reads table
entries the same way, every instruction of an entry in table order, and
applies the cycle discipline inline, on flat keys over interned tapes.
``successors`` remains the reference definition of the step relation:
``walk_branches`` and ``replay_trace`` call it, and the tests check the
inline steps against it.

Membership.  One depth-first loop over restarting words decides every
word for every automaton (``_search``): it answers
``decide_basic_membership`` and each candidate of ``decide_members``, the
one candidate loop under brute enumeration, the closure's seeds and the
h-proper decider.  On a deterministic automaton each word's phase is one
``_cycle`` on the list tape that the cycle before it left and restarted
on, resumed after that cycle, or for a start word after the previous
candidate's first cycle; on any other, ``_explore_phase`` searches every
branch of the phase.  A start word's phase that rejects it without a
rewrite gives its rejected prefix (see ``_rejected_prefix``), by which
``decide_members`` skips candidates.  ``cycle_rewrites`` takes its one
phase from ``_cycle`` on a deterministic automaton and from
``_explore_phase`` otherwise, and returns that phase's ``CycleRecord``s,
keyed by the words their cycles restart on.

The memo.  A memo shared between calls holds only the start words
decided, each with its verdict: (accepted, witness link).  A search looks
words up in it and writes its own start word there once it is settled;
one that trips a limit or meets a recurring word writes nothing.  The
words a search restarts on are its own.  A branch search, or any search
on a shrinking automaton, keeps them in a table of its own that starts
empty on every call: a word is marked open there when the search reaches
it, so that one that recurs is refused, and stays there once settled
(unless ``memoize`` is off), so that the search explores it once.  A
non-shrinking deterministic automaton follows one chain of ever shorter
words, none of which can recur, so its search keeps no table.  A search
looks its start word up in the memo, and the words it restarts on only
when the memo may hold one: when the memo held a word as the call began
(for ``decide_members``, as its candidates began), or, among the
candidates of ``decide_members`` on a shrinking automaton, whose cycles
may reach an earlier candidate.  Otherwise a non-shrinking deterministic
chain slices no restart word from its tape.  Brute enumeration, and
``words_over`` behind the checks, decide every shorter word first, as a
start word, so a chain still meets them in the memo.

Searches are reentrant and side-effect free apart from the one write of
their start word into the memo; deciding distinct words in parallel is
safe.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .model import (
    ACCEPT,
    LEFT_SENTINEL,
    MVL,
    MVR,
    REJECT,
    RESTART,
    RIGHT_SENTINEL,
    SL,
    AutomatonSpec,
    Instruction,
    PreconditionError,
    ReduktoError,
    SymbolError,
    Word,
    render_word,
    word_weight,
)


class Configuration(NamedTuple):
    tape: Word          # includes both sentinels
    state: str
    pos: int            # index of the leftmost window cell, 0-based
    rewrites: int       # rewrite steps performed in the current phase


class Limits(NamedTuple):
    max_configs: int = 1_000_000


DEFAULT_LIMITS = Limits()

# Trace outcomes.
OUT_ACCEPT = "accept"
OUT_REJECT = "reject"
OUT_DIVERGES = "diverges"
OUT_LIMIT = "limit-exceeded"
OUT_INVALID = "invalid-cycle"

Step = tuple[Configuration, Instruction]


class CycleRecord(NamedTuple):
    """One cycle, or the closing tail, of a trace.

    ``scan`` holds the (state, instruction) pairs of the MVR steps that the
    cycle repeated from the recorded cycle it resumed after, at positions
    0 .. len(scan)-1, and ``steps`` those of the steps it took from there
    on.  ``window`` is the automaton's window size, by which a rewrite at
    position p of a tape of n cells cuts min(window, n - p) cells.  A
    record keeps no tape: it starts on the tape that the record before it
    in a trace restarted on, or on the trace's word, so one record serves
    every trace that reaches its start tape, memoized witness suffixes
    included.  ``rewritten_from`` is the leftmost position at which a
    deterministic cycle rewrote, so that it left cells [0, p) of its tape as
    they were: None without a rewrite, and in the records that no cycle
    resumes after (those of the branch searches)."""

    scan: tuple[tuple[str, Instruction], ...]
    steps: tuple[tuple[str, Instruction], ...]
    window: int
    rewritten_from: Optional[int] = None

    def ends_cycle(self) -> bool:
        return bool(self.steps) and self.steps[-1][1].kind == RESTART


def _last_tape(tape: Word, record: CycleRecord) -> Word:
    """The tape of the last step of ``record``, which starts on ``tape``."""
    for tape, _, _, _, _ in _replay(tape, record.steps, len(record.scan), record.window):
        pass
    return tape


@dataclass(frozen=True)
class Trace:
    """A computation from the restarting configuration of ``word``: one
    record per cycle, each starting on the tape that the one before it
    restarted on, then the tail.  ``steps`` is the tuple of its
    (configuration, instruction) pairs, the repeated scans' too, the only
    configurations built from records, in one pass along the trace when
    first read."""

    word: Word
    records: tuple[CycleRecord, ...]
    outcome: str
    flag: Optional[str] = None

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        steps: list[Step] = []
        tape = (LEFT_SENTINEL,) + self.word + (RIGHT_SENTINEL,)
        for record in self.records:
            for tape, state, pos, n, ins in _replay(tape, record.scan + record.steps, 0, record.window):
                steps.append((Configuration(tape, state, pos, n), ins))
        return tuple(steps)

    def cycle_count(self) -> int:
        return sum(1 for record in self.records if record.ends_cycle())

    def reductions(self) -> list[tuple[Word, Word]]:
        """The sequence of cycle rewritings u => v along this trace."""
        out = []
        tape = (LEFT_SENTINEL,) + self.word + (RIGHT_SENTINEL,)
        for record in self.records:
            last = _last_tape(tape, record)
            if record.ends_cycle():
                out.append((tape[1:-1], last[1:-1]))
            tape = last
        return out


@dataclass(frozen=True)
class Decision:
    """A membership answer."""

    verdict: str                    # member | non-member | resource-exceeded
    witness: Optional[Trace] = None
    configs_explored: int = 0
    exceeded: Optional[str] = None  # the tripped limit's message

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


def _records(steps: Sequence[tuple[str, Instruction]], window: int) -> list[CycleRecord]:
    """One record per cycle of ``steps``, (state, instruction) pairs from a
    restarting configuration on, then one for the tail, if any."""
    records, pairs = [], []
    for pair in steps:
        pairs.append(pair)
        if pair[1].kind == RESTART:
            records.append(CycleRecord((), tuple(pairs), window))
            pairs = []
    if pairs:
        records.append(CycleRecord((), tuple(pairs), window))
    return records


def _replay(tape: Word, steps: Iterable[tuple[str, Instruction]], pos: int, window: int):
    """(tape, state, pos, rewrites, instruction) of each of ``steps``, the
    pairs of a record taken from position ``pos`` on ``tape``, as
    ``successors`` moves: an MVR one cell right, an MVL one left, and a
    rewrite splices its target over the min(window, len - pos) cells it
    cuts, onto a new tape, and moves left by the cells it cut less its
    target's, floored at 0."""
    rewrites = 0
    for state, ins in steps:
        yield tape, state, pos, rewrites, ins
        kind = ins.kind
        if kind == SL:
            cut = min(window, len(tape) - pos)
            tape = tape[:pos] + ins.target + tape[pos + cut:]
            pos, rewrites = max(0, pos - cut + len(ins.target)), rewrites + 1
        else:
            pos += (kind == MVR) - (kind == MVL)


def restarting_configuration(spec: AutomatonSpec, word: Word) -> Configuration:
    return Configuration((LEFT_SENTINEL,) + tuple(word) + (RIGHT_SENTINEL,), spec.initial, 0, 0)


def _over(alphabet: frozenset[str], word: Sequence[str],
          message: str = "symbol %r outside working alphabet") -> Word:
    """``word`` as a tuple; SymbolError with ``message`` at its first symbol
    outside ``alphabet``."""
    word = tuple(word)
    if not alphabet.issuperset(word):
        raise SymbolError(message % next(tok for tok in word if tok not in alphabet))
    return word


def strip_sentinels(tape: Word) -> Word:
    return tape[1:-1]


def window_of(spec: AutomatonSpec, config: Configuration) -> Word:
    return config.tape[config.pos : config.pos + spec.window]


def right_distance(config: Configuration) -> int:
    """Cells from the window start through the right sentinel, inclusive."""
    return len(config.tape) - config.pos


def successors(spec: AutomatonSpec, config: Configuration):
    """All (instruction, successor) pairs offered at ``config``.

    Accept and Reject yield a successor of None (terminal markers).  An
    absent table key yields the empty list; implicit rejection is not
    assumed.  Every instruction of the entry is offered: the spec holds no
    MVR at the right sentinel alone and no MVL at the left sentinel.  A
    rewrite splices the target over the window content and moves the
    window left by the length difference, floored at zero.
    """
    tape, state, pos, rewrites = config
    window = tape[pos : pos + spec.window]
    out = []
    for ins in spec.table.get((state, window), ()):
        kind = ins.kind
        if kind == MVR:
            out.append((ins, Configuration(tape, ins.state, pos + 1, rewrites)))
        elif kind == MVL:
            out.append((ins, Configuration(tape, ins.state, pos - 1, rewrites)))
        elif kind == SL:
            new_tape = tape[:pos] + ins.target + tape[pos + len(window):]
            new_pos = max(0, pos - (len(window) - len(ins.target)))
            out.append((ins, Configuration(new_tape, ins.state, new_pos, rewrites + 1)))
        elif kind == RESTART:
            out.append((ins, Configuration(tape, spec.initial, 0, 0)))
        else:  # Accept / Reject
            out.append((ins, None))
    return out


def discipline_break(cap: int, ins: Instruction, rewrites: int) -> Optional[str]:
    """Why taking ``ins`` after ``rewrites`` rewrite steps of the phase
    breaks the cycle discipline with at most ``cap`` rewrite steps per
    cycle, or None if it does not."""
    # A rejecting halt after a rewrite is treated as an aborted cycle, not as
    # a rewriting tail: deterministic multi-rewrite automata must delete
    # eagerly and can discover a mismatch only afterwards, and a mid-cycle
    # reject contributes nothing to any language.
    if ins.kind == SL and rewrites >= cap:
        return "more than %d rewrite steps in a cycle" % cap
    if ins.kind == RESTART and rewrites == 0:
        return "cycle without a rewrite step"
    if ins.kind == ACCEPT and rewrites > 0:
        return "rewrite step in an accepting tail"
    return None


def run_deterministic(spec: AutomatonSpec, word: Word, limits: Limits = DEFAULT_LIMITS) -> Trace:
    """Run a deterministic automaton from the restarting configuration of
    ``word`` until it halts, loops, gets stuck, breaks the cycle discipline,
    or exhausts the limits.  Each cycle resumes where the one before it
    stops being repeatable, on the one tape that the cycles before it
    rewrote (see the module docstring)."""
    if not spec.flags.deterministic:
        raise PreconditionError("run_deterministic requires a deterministic automaton")
    word = _over(spec.work_alphabet, word)
    tape = [LEFT_SENTINEL, *word, RIGHT_SENTINEL]
    budget = _Budget(limits.max_configs)
    records: list[CycleRecord] = []
    record, same = None, 0
    while True:
        record, outcome, flag, _, _, _ = _cycle(spec, tape, record, same, budget)
        if record.scan or record.steps:
            records.append(record)
        if outcome is not None:
            return Trace(word, tuple(records), outcome, flag)
        same = record.rewritten_from


# The outcome of ``_cycle`` at an entry that offers a choice.
_CHOICE = "choice"

# Builds a CycleRecord from its four fields without the Python-level
# ``__new__`` of a NamedTuple.
_record = partial(tuple.__new__, CycleRecord)


def _cycle(
    spec: AutomatonSpec, tape: list[str], before: Optional[CycleRecord], same: int,
    budget: _Budget,
) -> tuple[CycleRecord, Optional[str], Optional[str], int, int, Optional[set]]:
    """Steps from the restarting configuration on ``tape``, a list that it
    rewrites in place, while each entry offers one instruction: one cycle,
    or the tail, of a deterministic automaton, and the single branch of a
    phase up to its first choice.  It resumes after the recorded cycle
    ``before`` whose start tape agrees with ``tape`` on cells [0, same)
    (None for nothing to resume after): the repeated scan is the MVR steps
    of ``before`` from position 0 up to position min(L, same - k + 1), L
    being where they stop (see the module docstring).  Each configuration
    it expands, the repeated scan's too, spends ``budget``; the repeated
    steps are clamped to what is left.  A step that breaks the cycle
    discipline stops it with an invalid-cycle outcome.

    Returns (record, outcome, flag, pos, rewrites, seen): the outcome is
    None when the cycle restarts, on ``tape`` as left, and ``_CHOICE`` at an
    entry of more than one instruction (only in a spec not flagged
    deterministic), which it stops at having spent the configuration's
    charge but taken no step; otherwise the outcome and flag are a
    trace's.  ``pos`` and ``rewrites`` are those of the configuration it
    stopped at, and ``seen`` the keys (state, pos, rewrites) of every
    configuration it expanded after the repeated scan, kept from the first
    MVL on (None before one)."""
    cap, k, table = spec.flags.mr_degree, spec.window, spec.table
    scan, state = (), spec.initial
    if before is not None:
        r = same - k + 1
        if r > budget.left:
            r = budget.left
        if r > 0:
            scan = before.scan
            if r < len(scan):
                scan = scan[:r]
            elif r > len(scan):
                lead, i = before.steps, 0
                end = min(r - len(scan), len(lead))
                while i < end and lead[i][1].kind == MVR:
                    i += 1
                scan += lead[:i]
            if scan:
                state = scan[-1][1].state
    r = pos = len(scan)
    rewrites, leftmost, size = 0, None, len(tape)
    steps: list[tuple[str, Instruction]] = []
    seen: Optional[set[tuple[str, int, int]]] = None
    left = budget.left - r
    outcome = flag = None
    while True:
        # Only a rewrite changes the tape, so within a cycle (state, pos,
        # rewrites) fixes the tape; the repeated scan stands for the keys of
        # its steps.  Until an MVL, (rewrites, pos) grows at every step and
        # no key recurs, so ``seen`` is kept from the first MVL on.
        if seen is not None:
            key = (state, pos, rewrites)
            if key in seen or (pos < r and rewrites == 0 and scan[pos][0] == state):
                outcome = OUT_DIVERGES
                break
            seen.add(key)
        left -= 1
        if left < 0:
            outcome, flag = OUT_LIMIT, "configs limit exceeded"
            break
        window = tuple(tape[pos : pos + k])
        offered = table.get((state, window))
        if not offered:
            outcome, flag = OUT_REJECT, "stuck"
            break
        # Unpacking fails only at a choice, so that a deterministic step
        # pays nothing for the test.
        try:
            (ins,) = offered
        except ValueError:
            outcome = _CHOICE
            break
        steps.append((state, ins))
        kind = ins.kind
        if kind == MVR:
            state, pos = ins.state, pos + 1
            continue
        # The cycle discipline (see ``discipline_break``), inline.
        if kind == SL:
            if rewrites < cap:
                if leftmost is None or pos < leftmost:
                    leftmost = pos
                tape[pos : pos + len(window)] = ins.target
                state, pos, rewrites = ins.state, max(0, pos - len(window) + len(ins.target)), rewrites + 1
                continue
        elif kind == MVL:
            if seen is None:
                seen = _keys(steps, r, k, size)
            state, pos = ins.state, pos - 1
            continue
        elif kind == RESTART:
            if rewrites:
                break
        elif kind == REJECT:
            outcome = OUT_REJECT
            break
        elif not rewrites:
            outcome = OUT_ACCEPT
            break
        outcome, flag = OUT_INVALID, discipline_break(cap, ins, rewrites)
        break
    budget.left = left
    return _record((scan, tuple(steps), k, leftmost)), outcome, flag, pos, rewrites, seen


def _keys(steps: Sequence[tuple[str, Instruction]], pos: int, window: int, size: int) -> set:
    """The keys (state, pos, rewrites) of ``steps``, taken from position
    ``pos`` of a start tape of ``size`` cells.  Positions depend on the
    tape's length only, so the steps are replayed on a blank tape."""
    return {(q, p, n) for _, q, p, n, _ in _replay((None,) * size, steps, pos, window)}


class ResourcesExceeded(ReduktoError):
    """A declared limit tripped before the question was answered."""


class _Budget:
    """Configurations left to expand under a ``max_configs`` limit."""

    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise ResourcesExceeded("configs limit exceeded")


def _path_to(parents: dict, node, final: tuple) -> list[tuple]:
    """Steps from the root of a parent-pointer map to ``node``, then
    ``final``.  ``parents`` maps every node to (parent node, step into it)
    and the root to None."""
    chain = [final]
    link = parents[node]
    while link is not None:
        node, step = link
        chain.append(step)
        link = parents[node]
    chain.reverse()
    return chain


# A phase: the accepting tail's record or None, (restart word, record) for
# each cycle, and the rejected prefix.
_Phase = tuple[Optional[CycleRecord], Sequence[tuple[Word, CycleRecord]], Optional[int]]


def _rejected_prefix(pos: int, seen: Optional[set], window: int, size: int) -> Optional[int]:
    """The letters read by a phase that rejected on its start tape of
    ``size`` cells, sentinels included; None when a window reached the
    right sentinel.  Its largest window position is ``pos`` or, when
    ``seen`` holds the keys (state, pos, rewrites) of the configurations
    it expanded after an MVL (see ``_cycle``), the largest among them:
    without an MVL the positions only grow.

    A phase that rejects its start word alone, neither rewriting nor
    restarting, having read only its first m letters, rejects every word
    that starts with those letters the same way, step for step."""
    end = (pos if seen is None else max([key[1] for key in seen])) + window
    return end - 1 if end < size else None


def _explore_phase(spec: AutomatonSpec, word: Word, budget: _Budget) -> _Phase:
    """Depth-first exploration of one phase (from a restarting configuration
    up to the next restart or halt) over all nondeterministic branches.

    The phase steps in place (``_cycle``) while each entry offers one
    instruction, and returns having built nothing more if it restarts,
    halts or gets stuck before an entry with a choice.  From that entry
    on, a node is a flat (tape id, state, pos, rewrites) key, where tapes
    are interned once per rewrite that makes them and ``tapes[tape id]``
    is the tape, so no lookup hashes a tape; two keys are equal exactly
    when their configurations are.  The visited set starts with the keys
    that the steps in place left on the tape they reached, so that a
    branch coming back to one of them is pruned; a key of theirs before
    their last rewrite has fewer rewrites than every later one, and
    cannot recur.  A node's steps are its entry in ``spec.table``, in
    table order, as ``successors`` offers them.  Steps that break the
    cycle discipline (see ``discipline_break``) are pruned inline: a
    rewrite once the cap is reached, a restart without a rewrite and an
    accept after one.  Loops within the phase are pruned by the visited
    set.  A path is the steps taken in place, then the steps rebuilt
    through parent pointers, each keeping the (state, instruction) of the
    step into its key, and each cycle's restart word is sliced from its
    tape once.  Each configuration expanded spends the budget; raises
    ResourcesExceeded, at the configuration that finds it spent, when the
    budget runs out.

    A phase that ends with no accepting tail, no cycle and no tape but its
    start tape depends only on the cells its windows covered, and returns
    its rejected prefix.
    """
    k = spec.window
    tape = [LEFT_SENTINEL, *word, RIGHT_SENTINEL]
    size = len(tape)
    head, outcome, flag, pos, rewrites, seen = _cycle(spec, tape, None, 0, budget)
    if outcome is not _CHOICE:
        if outcome is None:
            return None, [(tuple(tape[1:-1]), _record(((), head.steps, k, None)))], None
        if outcome == OUT_LIMIT:
            raise ResourcesExceeded(flag)
        if outcome == OUT_ACCEPT:
            return head, (), None
        return None, (), None if rewrites else _rejected_prefix(pos, seen, k, size)
    cap, table = spec.flags.mr_degree, spec.table
    head = head.steps
    tapes = [tuple(tape)]
    tape_ids = {tapes[0]: 0}
    root = (0, head[-1][1].state if head else spec.initial, pos, rewrites)
    parents: dict = {}
    if spec.flags.direction == "RL":
        # Only an MVL brings a branch back to a key of the steps in place.
        if seen is None:
            seen = _keys(head, 0, k, size)
        parents = {(0, q, p, n): None for q, p, n in seen if n == rewrites}
    parents[root] = None
    stack = [root]
    tail_accept = None
    cycles = []
    # ``_cycle`` spent the root's charge, which expanding it spends again.
    left = budget.left + 1
    try:
        while stack:
            node = stack.pop()
            left -= 1
            if left < 0:
                raise ResourcesExceeded("configs limit exceeded")
            tape_id, state, pos, rewrites = node
            tape = tapes[tape_id]
            window = tape[pos : pos + k]
            for ins in table.get((state, window), ()):
                kind = ins.kind
                if kind == MVR:
                    child = (tape_id, ins.state, pos + 1, rewrites)
                elif kind == MVL:
                    child = (tape_id, ins.state, pos - 1, rewrites)
                elif kind == SL:
                    if rewrites >= cap:
                        continue
                    target = ins.target
                    new_tape = tape[:pos] + target + tape[pos + len(window):]
                    new_id = tape_ids.setdefault(new_tape, len(tapes))
                    if new_id == len(tapes):
                        tapes.append(new_tape)
                    child = (new_id, ins.state, max(0, pos - len(window) + len(target)), rewrites + 1)
                elif kind == RESTART:
                    if rewrites:
                        path = head + tuple(_path_to(parents, node, (state, ins)))
                        cycles.append((tape[1:-1], _record(((), path, k, None))))
                    continue
                else:  # Accept / Reject
                    if kind == ACCEPT and not rewrites and tail_accept is None:
                        path = head + tuple(_path_to(parents, node, (state, ins)))
                        tail_accept = _record(((), path, k, None))
                    continue
                if child in parents:
                    continue
                parents[child] = (node, (state, ins))
                stack.append(child)
    finally:
        budget.left = left
    prefix = None
    if tail_accept is None and not cycles and len(tapes) == 1 and not root[3]:
        prefix = _rejected_prefix(max([node[2] for node in parents]), None, k, size)
    # Deterministic order for reproducible witnesses and reports.
    cycles.sort(key=lambda cycle: cycle[0])
    return tail_accept, cycles, prefix


# The verdict of a non-member.
_REJECTED = (False, None)


def _settle(table: Optional[dict], memoize: bool, w: Word, verdict):
    if table is not None:
        if memoize:
            table[w] = verdict
        else:
            del table[w]
    return verdict


def _recurs(w: Word) -> PreconditionError:
    return PreconditionError("restarting word %s recurs: a cycle made no progress" % render_word(w))


def _search(spec: AutomatonSpec, word: Word, before: Optional[CycleRecord], same: int,
            memo: dict, lookup: bool, memoize: bool, budget: _Budget):
    """The loop behind every decision: whether some computation from the
    restarting configuration of ``word`` accepts.

    One depth-first loop over restarting words, on an explicit stack of
    the open words' frames.  On a deterministic automaton each word's
    phase is one ``_cycle`` on one list tape, which every cycle leaves
    rewritten as the tape of the word it restarts on: the start word's
    resumed after ``before``, whose start tape agrees with it on cells
    [0, same), and every later one after the cycle that restarted on it.
    On any other, each word's phase, and its cycles' restart words, come
    from ``_explore_phase``.  ``word`` is looked up in ``memo``, and so is
    each word the search restarts on when ``lookup`` says the memo may hold
    one; ``memo`` gets ``word`` alone, once it is settled (see the module
    docstring).  In the search's own table a word is looked up and marked
    open in one step, its frame being its entry while it is open, and
    settled in another.  Returns (verdict, rejected prefix of the start
    word's phase, record of the start word's phase), the record being None
    when ``memo`` held the start word or the automaton is not
    deterministic.  Raises ResourcesExceeded when the budget runs out.

    A verdict is (accepted, witness), and an accepting witness is a chain
    (record of one cycle or of the tail, rest of the chain or None), so that
    words along one computation share their witness suffixes.
    """
    deterministic = spec.flags.deterministic
    tape = [LEFT_SENTINEL, *word, RIGHT_SENTINEL] if deterministic else None
    # A non-shrinking deterministic automaton follows one chain of ever
    # shorter words, none of which can recur, so it needs no table.
    table = None if deterministic and not spec.flags.shrinking else {}
    # Frames [word, its cycles, next cycle], each its word's table entry
    # while the word is open.
    stack: list[list] = []
    w = word
    rejected_prefix = first = None
    while True:
        # The stack is empty only for the start word.
        verdict = memo.get(w) if lookup or not stack else None
        if verdict is None:
            frame = [w, (), 0]
            verdict = frame if table is None else table.setdefault(w, frame)
            if verdict is frame:
                stack.append(frame)
                if deterministic:
                    record, outcome, flag, pos, rewrites, seen = _cycle(spec, tape, before, same, budget)
                    if len(stack) == 1:
                        first = record
                    if outcome is None:
                        # The next word is the tape as the cycle left it,
                        # sliced only when the memo or the table asks.
                        frame[1:] = ((None, record),), 1
                        before, same = record, record.rewritten_from
                        w = tuple(tape[1:-1]) if table is not None or lookup else None
                        continue
                    if outcome == OUT_LIMIT:
                        raise ResourcesExceeded(flag)
                    tail = record if outcome == OUT_ACCEPT else None
                    if tail is None and not rewrites and len(stack) == 1:
                        # Only the start word's phase keeps its rejected
                        # prefix; the repeated scan lies left of its steps.
                        rejected_prefix = _rejected_prefix(pos, seen, spec.window, len(tape))
                else:
                    tail, cycles, prefix = _explore_phase(spec, w, budget)
                    if len(stack) == 1:
                        rejected_prefix = prefix
                    if tail is None and cycles:
                        frame[1:] = cycles, 1
                        w = cycles[0][0]
                        continue
                stack.pop()
                verdict = _settle(table, memoize, w, _REJECTED if tail is None else (True, (tail, None)))
            elif type(verdict) is list:  # another open word's frame
                raise _recurs(w)
        # Settle the frames that the verdict closes, then open the next
        # cycle's word, if any is left.
        while stack:
            frame = stack[-1]
            u, cycles, i = frame
            if verdict[0]:
                stack.pop()
                verdict = _settle(table, memoize, u, (True, (cycles[i - 1][1], verdict[1])))
            elif i == len(cycles):
                stack.pop()
                verdict = _settle(table, memoize, u, _REJECTED)
            else:
                frame[2] = i + 1
                w = cycles[i][0]
                break
        else:
            memo[word] = verdict
            return verdict, rejected_prefix, first


def _witness(word: Word, link) -> Trace:
    """The accepting trace from ``word`` along its witness chain."""
    records = []
    while link is not None:
        record, link = link
        records.append(record)
    return Trace(word, tuple(records), OUT_ACCEPT)


def decide_basic_membership(spec: AutomatonSpec, word: Word, limits: Limits = DEFAULT_LIMITS,
                            memoize: bool = True, memo: Optional[dict] = None) -> Decision:
    """Decide whether some computation from the restarting configuration of
    ``word`` accepts.

    One depth-first loop over restarting words, on an explicit stack, for
    every automaton (``_search``; see the module docstring, which also
    states what ``memo`` keeps).  Every phase spends the one
    ``max_configs`` budget, so it bounds the chain of open words too.
    Every cycle of an automaton that is not shrinking shortens the tape,
    so a restarting word recurs only on a shrinking automaton whose
    weights its cycles do not lower, and then raises PreconditionError.
    ``memoize=False`` ignores ``memo`` and re-explores every restarting
    word, remembering only the open words so that it raises on a
    recurring word too, and serves as the brute-force cross-check.
    """
    word = _over(spec.work_alphabet, word)
    if memo is None or not memoize:
        memo = {}
    budget = _Budget(limits.max_configs)
    try:
        (ok, link), _, _ = _search(spec, word, None, 0, memo, bool(memo), memoize, budget)
    except ResourcesExceeded as err:
        return Decision("resource-exceeded", None, limits.max_configs - budget.left, str(err))
    explored = limits.max_configs - budget.left
    if not ok:
        return Decision("non-member", None, explored)
    return Decision("member", _witness(word, link), explored)


def decide_members(spec: AutomatonSpec, options: Sequence[Sequence[str]],
                   limits: Limits = DEFAULT_LIMITS, memo: Optional[dict] = None,
                   ) -> Iterator[tuple[Decision, Optional[Word]]]:
    """The basic members among the words whose i-th letter is one of
    ``options[i]``, tried in the order of ``itertools.product``: yields
    (decision, word) for each member in that order, then one closing pair,
    (non-member decision, None) after the last candidate, or
    (resource-exceeded decision, the candidate that tripped a limit).

    Each candidate is decided as by ``decide_basic_membership``, under the
    whole ``limits`` and on one memo shared by all candidates, and each
    yielded ``configs_explored`` sums the candidates decided so far.  The
    candidates run an odometer, so consecutive ones share the letters left
    of the one that moved, and on a deterministic automaton each first
    phase resumes after the previous candidate's (see the module
    docstring).  The repeated steps are charged as they were taken, so
    every answer and count is that of deciding each candidate in turn.

    A candidate whose first phase alone rejects it having read only its
    first m letters (see ``_rejected_prefix``) rules out every
    candidate that starts with those letters: each has the same first phase
    step for step, and so the same non-member verdict under the same
    limits.  Those candidates are skipped, so the memo never gets them; a
    later search that reaches one decides it again.  When cycles
    shorten the tape, no candidate's search reaches another candidate, so
    the answers are those of deciding every candidate in turn; a later
    call's search from a longer word on the same memo may reach a skipped
    one, and exploring it again may trip a limit that the memo would have
    spared.  A shrinking automaton's cycle may reach another candidate of
    the same length, so its candidates are all decided.
    """
    for choices in options:
        _over(spec.work_alphabet, choices)
    if not all(options):
        yield Decision("non-member"), None
        return
    if memo is None:
        memo = {}
    n = len(options)
    skip = not spec.flags.shrinking
    # A search may meet a word of the memo's on its chain if the memo holds
    # a word already, or, on a shrinking automaton, an earlier candidate.
    lookup = bool(memo) or not skip
    digits = [0] * n
    firsts = candidate = tuple(choices[0] for choices in options)
    explored, record, same = 0, None, 0
    budget = _Budget(0)
    while True:
        budget.left = limits.max_configs  # each candidate gets the whole limits
        try:
            (ok, link), prefix, record = _search(
                spec, candidate, record, same, memo, lookup, True, budget)
        except ResourcesExceeded as err:
            explored += limits.max_configs - budget.left
            yield Decision("resource-exceeded", None, explored, str(err)), candidate
            return
        explored += limits.max_configs - budget.left
        if ok:
            yield Decision("member", _witness(candidate, link), explored), candidate
        # Advance the odometer at the last letter read, carrying leftward;
        # the next candidate's tape keeps cells [0, i).
        i = prefix if skip and prefix is not None else n
        while i > 0 and digits[i - 1] == len(options[i - 1]) - 1:
            i -= 1
        if i == 0:
            yield Decision("non-member", None, explored), None
            return
        digits[i - 1] += 1
        digits[i:] = [0] * (n - i)
        candidate = candidate[: i - 1] + (options[i - 1][digits[i - 1]],) + firsts[i:]
        same = i


def decide_input_membership(spec: AutomatonSpec, word: Word, limits: Limits = DEFAULT_LIMITS,
                            memo: Optional[dict] = None) -> Decision:
    """decide_basic_membership restricted to words over the input alphabet."""
    word = _over(spec.input_alphabet, word, "symbol %r is not an input symbol")
    return decide_basic_membership(spec, word, limits, memo=memo)


def cycle_rewrites(spec: AutomatonSpec, word: Word,
                   limits: Limits = DEFAULT_LIMITS) -> dict[Word, CycleRecord]:
    """The cycles word => v: the first record of each distinct v, keyed by
    v, in the order of v.

    For non-shrinking automata every v is strictly shorter than the
    argument, since every rewrite shortens its window; shrinking automata
    may preserve length and the weight function carries the progress
    argument instead.  The phase comes from ``_cycle`` on a deterministic
    automaton, as in the decider, and from ``_explore_phase`` otherwise.  Raises ResourcesExceeded when the budget runs out, and
    PreconditionError when a cycle of a shrinking automaton with weights
    does not lower the tape's weight.
    """
    word = _over(spec.work_alphabet, word)
    budget = _Budget(limits.max_configs)
    if spec.flags.deterministic:
        tape = [LEFT_SENTINEL, *word, RIGHT_SENTINEL]
        record, outcome, flag, _, _, _ = _cycle(spec, tape, None, 0, budget)
        if outcome == OUT_LIMIT:
            raise ResourcesExceeded(flag)
        cycles = [(tuple(tape[1:-1]), record)] if outcome is None else []
    else:
        _, cycles, _ = _explore_phase(spec, word, budget)
    firsts: dict[Word, CycleRecord] = {}
    for v, record in cycles:
        firsts.setdefault(v, record)
    if spec.flags.shrinking and spec.weights is not None:
        for v in firsts:
            if word_weight(spec.weights, v) >= word_weight(spec.weights, word):
                raise PreconditionError("cycle did not decrease the tape weight")
    return firsts


def walk_branches(spec: AutomatonSpec, word: Word,
                  on_step: Callable[[object, Configuration, Instruction], tuple[object, Optional[str]]],
                  limits: Limits = DEFAULT_LIMITS) -> Optional[Trace]:
    """Walk every branch of every computation from the restarting
    configuration of ``word``, across cycles and without the cycle
    discipline, and return the steps up to the first flagged one.

    ``on_step(path_state, config, instruction)`` sees each offered step and
    returns (successor path state, flag); the path state threads per-branch
    data and starts as None.  The first non-None flag ends the walk with a
    replayable trace whose last step is the flagged one and whose flag is
    the flag.  Branches are pruned on repeated (configuration, path state)
    pairs, which is sound because the downstream behavior depends on nothing
    else.  Returns None when no step is flagged; raises ResourcesExceeded
    after ``max_configs`` expansions.
    """
    word = _over(spec.work_alphabet, word)
    budget = _Budget(limits.max_configs)
    root = (restarting_configuration(spec, word), None)
    parents: dict = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        config, state = node
        budget.spend()
        for ins, nxt in successors(spec, config):
            new_state, flag = on_step(state, config, ins)
            step = (config.state, ins)
            if flag is not None:
                return Trace(word, tuple(_records(_path_to(parents, node, step), spec.window)),
                             "counterexample", flag)
            if nxt is None:
                continue
            child = (nxt, new_state)
            if child in parents:
                continue
            parents[child] = (node, step)
            stack.append(child)
    return None


def replay_trace(spec: AutomatonSpec, trace: Trace) -> bool:
    """Check that every step of a trace is offered by the step relation and
    that consecutive configurations chain together."""
    steps = trace.steps
    for i, (config, ins) in enumerate(steps):
        match = [nxt for cand, nxt in successors(spec, config) if cand == ins]
        if not match:
            return False
        if i + 1 < len(steps) and match[0] is not None and steps[i + 1][0] != match[0]:
            return False
    return True

