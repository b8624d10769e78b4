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
``decide_first_member`` take their cycles from it.  The repeated steps are
MVR moves at distinct positions without a rewrite, so they can trip neither
a loop check nor the cycle discipline, and a configuration that an MVL
brings back into the repeated prefix is matched against the recorded scan,
so loops through the prefix are still seen.  The repeated steps are charged
to every step and configuration count, and r is clamped to the
configurations left, so that the limit trips at the very step it would trip
at without resuming.  A trace keeps one ``CycleRecord`` per cycle, whose
steps, the repeated scan's too, are (state, instruction) pairs, with the
tapes they read; only ``Trace.steps`` builds configurations from them.

Compiled step.  ``_cycle`` looks each step up in ``spec.step_table``, which
maps each key of the spec's table to the one instruction offered there
(None if a side condition refuses all) and lives and dies with the spec.
The spec's first deterministic cycle sets it up with the key objects of
the spec's table, so that filling it allocates no key and it never holds a
key the spec's table lacks (stuck; sweeps over words reach many).  Each
entry is filled from ``successors`` when a cycle first reaches its key
(``compiled_step``), so that the step relation keeps one definition; a key
that offers a choice is never filled, and a run that reaches it raises
PreconditionError.  ``_cycle`` applies moves and rewrites inline, asks
``discipline_break`` only at steps other than MVR, keeps each step's state
and the tape after each rewrite, and keeps the leftmost rewrite position in
``CycleRecord.rewritten_from``, where the next cycle resumes.  The branch
search, ``walk_branches`` and ``replay_trace`` call ``successors`` itself.

Membership.  One depth-first loop over restarting words, with a memo,
decides every word for every automaton (``_search``): it answers
``decide_basic_membership`` and each candidate of ``decide_first_member``.
It gets a word's phase from one of two phase functions, which return the
same shape: on a deterministic automaton, ``_deterministic_phase`` runs the
one cycle or tail, resumed after the cycle that restarted on the word, or
for a start word after the previous candidate's first cycle; on any other,
``_explore_phase`` searches every branch of the phase.  Both return the
phase's rejected prefix (see ``_rejected_prefix``), kept for the start word
only.  ``cycle_rewrites`` takes its one phase from the same two functions
and returns that phase's ``CycleRecord``s, whose ``from_word`` and
``to_word`` are the words a cycle starts and restarts on.

Searches are reentrant and side-effect free apart from per-call memo tables
and a spec's step table; deciding distinct words in parallel is safe.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from .model import (
    ACCEPT,
    LEFT_SENTINEL,
    MVL,
    MVR,
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

# A step table's value for a key that no run has reached yet, or that offers
# a choice.
_UNCOMPILED = object()


class CycleRecord(NamedTuple):
    """One cycle, or the closing tail, of a trace.

    ``tapes`` holds the tape the cycle starts on, then the tape after each
    rewrite that a later step reads.  ``scan`` holds the (state,
    instruction) pairs of the MVR steps that the cycle repeated from the
    recorded cycle it resumed after, at positions 0 .. len(scan)-1, and
    ``steps`` those of the steps it took from there on, whose positions
    ``Trace.steps`` replays.  ``rewritten_from`` is the leftmost position at
    which a deterministic cycle rewrote, so that it left cells [0, p) of its
    tape as they were: None without a rewrite, and in the records that no
    cycle resumes after (the branch search's and ``Trace.of_steps``'s).  A
    record refers to no other record, so memoized records can be reused by
    every trace that reaches them."""

    tapes: tuple[Word, ...]
    scan: tuple[tuple[str, Instruction], ...]
    steps: tuple[tuple[str, Instruction], ...]
    rewritten_from: Optional[int] = None

    @property
    def from_word(self) -> Word:
        """The word the cycle starts on."""
        return self.tapes[0][1:-1]

    @property
    def to_word(self) -> Word:
        """The word the cycle restarts on: the tape of its last step."""
        return self.tapes[-1][1:-1]

    def ends_cycle(self) -> bool:
        return bool(self.steps) and self.steps[-1][1].kind == RESTART


@dataclass(frozen=True)
class Trace:
    """A computation: one record per cycle, then the tail.  ``steps`` is the
    tuple of its (configuration, instruction) pairs, the repeated scans'
    too, the only configurations built from records, when first read."""

    records: tuple[CycleRecord, ...]
    outcome: str
    flag: Optional[str] = None

    @classmethod
    def of_steps(cls, steps: Iterable[Step], outcome: str, flag: Optional[str] = None) -> "Trace":
        """A trace over plain steps that start at a restarting
        configuration, split into one record per cycle."""
        return cls(tuple(_records([(c.tape, c.state, ins) for c, ins in steps])), outcome, flag)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        return tuple([(Configuration(tape, state, pos, n), ins) for record in self.records
                      for tape, state, pos, n, ins in _replay(record.tapes, record.scan + record.steps)])

    def cycle_count(self) -> int:
        return sum(1 for record in self.records if record.ends_cycle())

    def reductions(self) -> list[tuple[Word, Word]]:
        """The sequence of cycle rewritings u => v along this trace."""
        return [(record.from_word, record.to_word)
                for record in self.records if record.ends_cycle()]


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


def _records(steps: Sequence[tuple[Word, str, Instruction]]) -> list[CycleRecord]:
    """One record per cycle of ``steps``, (tape, state, instruction) triples
    from a restarting configuration on, then one for the tail, if any."""
    records, tapes, pairs, read = [], [], [], True
    for tape, state, ins in steps:
        if read:  # the first step's tape, or a rewrite's
            tapes.append(tape)
        pairs.append((state, ins))
        read = ins.kind == SL
        if ins.kind == RESTART:
            records.append(CycleRecord(tuple(tapes), (), tuple(pairs)))
            tapes, pairs, read = [], [], True
    if pairs:
        records.append(CycleRecord(tuple(tapes), (), tuple(pairs)))
    return records


def _replay(tapes: Sequence[Word], steps: Iterable[tuple[str, Instruction]], pos: int = 0):
    """(tape, state, pos, rewrites, instruction) of each of ``steps``, the
    pairs of a record taken from position ``pos`` on ``tapes[0]``, as
    ``successors`` moves: an MVR one cell right, an MVL one left, and a
    rewrite onto the next tape, left by the cells it cut, floored at 0."""
    tape, rewrites = tapes[0], 0
    for state, ins in steps:
        yield tape, state, pos, rewrites, ins
        kind = ins.kind
        if kind == SL and rewrites + 1 < len(tapes):
            rewrites += 1
            pos, tape = max(0, pos - len(tape) + len(tapes[rewrites])), tapes[rewrites]
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
    assumed.  Side conditions: MVR is not offered when the window shows the
    right sentinel alone, MVL is not offered when the window touches the
    left sentinel.  A rewrite splices the target over the window content and
    moves the window left by the length difference, floored at zero.
    """
    tape, state, pos, rewrites = config
    window = tape[pos : pos + spec.window]
    out = []
    for ins in spec.table.get((state, window), ()):
        kind = ins.kind
        if kind == MVR:
            if window == (RIGHT_SENTINEL,):
                continue
            out.append((ins, Configuration(tape, ins.state, pos + 1, rewrites)))
        elif kind == MVL:
            if pos == 0:
                continue
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


def _resume(spec: AutomatonSpec, record: CycleRecord, same: int, most: int) -> tuple[tuple, str]:
    """The scan that a cycle repeats from ``record``, at most ``most`` steps
    long, and the state in which it goes on from there.

    ``record`` is a cycle, or tail, of a deterministic automaton whose start
    tape agrees with the new cycle's on cells [0, same).  Its steps up to
    the first one that is not an MVR are the moves from 0 to L, so the
    first min(L, same - k + 1) steps recur (see the module docstring)."""
    r = max(0, min(same - spec.window + 1, most))
    scan = record.scan[:r]
    if r > len(scan):
        lead = record.steps[: r - len(scan)]
        scan += lead[: next((i for i, (_, ins) in enumerate(lead) if ins.kind != MVR), len(lead))]
    return scan, scan[-1][1].state if scan else spec.initial


def compiled_step(spec: AutomatonSpec, state: str, window: Word) -> Optional[Instruction]:
    """The one instruction that ``successors`` offers in ``state`` at
    ``window``, or None when it offers none; PreconditionError at a choice.

    The probe sits at position 0 when the window starts with the left
    sentinel, which a tape holds in cell 0 alone, so an MVL is refused there
    as in a run."""
    pad = () if window[:1] == (LEFT_SENTINEL,) else (LEFT_SENTINEL,)
    offered = successors(spec, Configuration(pad + window, state, len(pad), 0))
    if len(offered) > 1:
        raise PreconditionError("nondeterministic choice at (%s, %s)" % (state, render_word(window)))
    return offered[0][0] if offered else None


def run_deterministic(spec: AutomatonSpec, word: Word, limits: Limits = DEFAULT_LIMITS) -> Trace:
    """Run a deterministic automaton from the restarting configuration of
    ``word`` until it halts, loops, gets stuck, breaks the cycle discipline,
    or exhausts the limits.  Each cycle resumes where the one before it
    stops being repeatable (see the module docstring)."""
    if not spec.flags.deterministic:
        raise PreconditionError("run_deterministic requires a deterministic automaton")
    tape = (LEFT_SENTINEL,) + _over(spec.work_alphabet, word) + (RIGHT_SENTINEL,)
    budget = _Budget(limits.max_configs)
    records: list[CycleRecord] = []
    record, same = None, 0
    while True:
        record, outcome, flag, _, _ = _cycle(spec, tape, record, same, budget)
        if record.scan or record.steps:
            records.append(record)
        if outcome is not None:
            return Trace(tuple(records), outcome, flag)
        tape, same = record.tapes[-1], record.rewritten_from


def _cycle(
    spec: AutomatonSpec, tape: Word, before: Optional[CycleRecord], same: int, budget: _Budget,
) -> tuple[CycleRecord, Optional[str], Optional[str], int, int]:
    """One cycle, or the tail, of a deterministic automaton on ``tape``,
    resumed after the recorded cycle ``before`` whose start tape agrees with
    ``tape`` on cells [0, same) (None for nothing to resume after).  Each
    configuration it expands, the repeated scan's too, spends ``budget``.

    Returns (record, outcome, flag, pos, rewrites): the outcome is None
    when the cycle restarts, on the record's last tape; otherwise the
    outcome and flag are a trace's, with the position and rewrite count it
    stopped at.  Raises PreconditionError at a nondeterministic choice."""
    cap, k, table = spec.flags.mr_degree, spec.window, spec.step_table
    if table is None:
        # Set whole, so that a run on another thread sees None or every key.
        table = dict.fromkeys(spec.table, _UNCOMPILED)
        object.__setattr__(spec, "step_table", table)
    if before is None:
        scan, state = (), spec.initial
    else:
        scan, state = _resume(spec, before, same, budget.left)
    r = pos = len(scan)
    rewrites, leftmost, tapes = 0, None, [tape]
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
        window = tape[pos : pos + k]
        ins = table.get((state, window))
        if ins is _UNCOMPILED:
            ins = table[state, window] = compiled_step(spec, state, window)
        if ins is None:
            outcome, flag = OUT_REJECT, "stuck"
            break
        steps.append((state, ins))
        kind = ins.kind
        if kind == MVR:
            state, pos = ins.state, pos + 1
            continue
        flag = discipline_break(cap, ins, rewrites)
        if flag is not None:
            outcome = OUT_INVALID
            break
        if kind == SL:
            leftmost = pos if leftmost is None else min(leftmost, pos)
            tape = tape[:pos] + ins.target + tape[pos + len(window):]
            tapes.append(tape)
            state, pos, rewrites = ins.state, max(0, pos - len(window) + len(ins.target)), rewrites + 1
        elif kind == MVL:
            if seen is None:
                seen = {(q, p, n) for _, q, p, n, _ in _replay(tapes, steps, r)}
            state, pos = ins.state, pos - 1
        elif kind == RESTART:
            break
        else:
            outcome = OUT_ACCEPT if kind == ACCEPT else OUT_REJECT
            break
    budget.left = left
    if steps and steps[-1][1].kind == SL and outcome != OUT_INVALID:
        del tapes[-1]  # no step read the last rewrite's tape
    return CycleRecord(tuple(tapes), scan, tuple(steps), leftmost), outcome, flag, pos, rewrites


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


# A phase: the accepting tail's record or None, the record of each cycle,
# the rejected prefix, and for a deterministic phase its one record, which a
# later phase may resume after (None for a search over branches).
_Phase = tuple[Optional[CycleRecord], Sequence[CycleRecord], Optional[int], Optional[CycleRecord]]


def _rejected_prefix(reach: int, window: int, size: int) -> Optional[int]:
    """The letters read by a phase that rejected on its start tape of
    ``size`` cells, sentinels included, with its largest window position at
    ``reach``; None when a window reached the right sentinel.

    A phase that rejects its start word alone, neither rewriting nor
    restarting, having read only its first m letters, rejects every word
    that starts with those letters the same way, step for step."""
    end = reach + window
    return end - 1 if end < size else None


def _explore_phase(spec: AutomatonSpec, word: Word, budget: _Budget) -> _Phase:
    """Depth-first exploration of one phase (from a restarting configuration
    up to the next restart or halt) over all nondeterministic branches.

    Branches that break the cycle discipline are pruned.  Loops within the
    phase are pruned by a visited set keyed on (tape id, state, pos,
    rewrites), where tapes are interned once per rewrite that makes them, so
    no lookup hashes a tape; two keys are equal exactly when their
    configurations are.  Paths are reconstructed through parent pointers,
    each keeping the (tape, state, instruction) of the step into its key.
    Raises ResourcesExceeded when the budget runs out.

    A phase that ends with no accepting tail, no cycle and no tape but its
    start tape depends only on the cells its windows covered, and returns
    its rejected prefix.
    """
    cap = spec.flags.mr_degree
    start = restarting_configuration(spec, word)
    tape_ids = {start.tape: 0}
    root = (0, start.state, start.pos, start.rewrites)
    parents: dict = {root: None}
    stack = [(root, start)]
    tail_accept = None
    cycles = []
    while stack:
        node, config = stack.pop()
        budget.spend()
        tape, state, _, rewrites = config
        for ins, nxt in successors(spec, config):
            if discipline_break(cap, ins, rewrites) is not None:
                continue
            if nxt is None:
                if ins.kind == ACCEPT and tail_accept is None:
                    tail_accept = _records(_path_to(parents, node, (tape, state, ins)))[0]
                continue
            if ins.kind == RESTART:
                cycles.append(_records(_path_to(parents, node, (tape, state, ins)))[0])
                continue
            tape_id = node[0] if ins.kind != SL else tape_ids.setdefault(nxt.tape, len(tape_ids))
            child = (tape_id, nxt.state, nxt.pos, nxt.rewrites)
            if child in parents:
                continue
            parents[child] = (node, (tape, state, ins))
            stack.append((child, nxt))
    prefix = None
    if tail_accept is None and not cycles and len(tape_ids) == 1:
        prefix = _rejected_prefix(max([node[2] for node in parents]), spec.window, len(start.tape))
    # Deterministic order for reproducible witnesses and reports.
    cycles.sort(key=lambda record: record.to_word)
    return tail_accept, cycles, prefix, None


# The memo's marker on a word whose verdict is being worked out, and the
# verdict of a non-member.
_IN_PROGRESS = "in-progress"
_REJECTED = (False, None)


def _settle(table: dict, memoize: bool, w: Word, verdict):
    if memoize:
        table[w] = verdict
    else:
        table.pop(w, None)
    return verdict


def _recurs(w: Word) -> PreconditionError:
    return PreconditionError("restarting word %s recurs: a cycle made no progress" % render_word(w))


def _deterministic_phase(spec: AutomatonSpec, word: Word, before: Optional[CycleRecord],
                         same: Optional[int], budget: _Budget) -> _Phase:
    """The one cycle, or the tail, of a deterministic automaton on ``word``.

    With ``same`` None, ``before`` is the cycle that restarted on ``word``
    and the phase resumes after it.  Otherwise ``word`` is a word that a
    decision starts from, the only kind whose rejected prefix is worked
    out, and the phase resumes after ``before`` (None for nothing), a
    recorded cycle whose start tape agrees with the word's on cells
    [0, same).  Raises ResourcesExceeded when the budget runs out, and
    PreconditionError at a choice between two instructions."""
    start = same is not None
    if start:
        tape = (LEFT_SENTINEL,) + word + (RIGHT_SENTINEL,)
    else:
        tape, same = before.tapes[-1], before.rewritten_from
    record, outcome, flag, pos, rewrites = _cycle(spec, tape, before, same, budget)
    if outcome is None:
        return None, (record,), None, record
    if outcome == OUT_LIMIT:
        raise ResourcesExceeded(flag)
    if outcome == OUT_ACCEPT:
        return record, (), None, record
    prefix = None
    if start and rewrites == 0:
        # The phase expanded the configurations of its steps and the one it
        # stopped at; those of the repeated scan lie left of them.
        reach = max([pos] + [step[2] for step in _replay(record.tapes, record.steps, len(record.scan))])
        prefix = _rejected_prefix(reach, spec.window, len(tape))
    return None, (), prefix, record


def _search(spec: AutomatonSpec, word: Word, before: Optional[CycleRecord], same: int,
            memoize: bool, table: dict, budget: _Budget):
    """The memo loop behind every decision: whether some computation from
    the restarting configuration of ``word`` accepts.

    One depth-first loop over restarting words, on an explicit stack; each
    word's phase comes from ``_deterministic_phase``, the start word's
    resumed after ``before`` whose start tape agrees with it on cells
    [0, same), or from ``_explore_phase``.  ``table`` is the memo, holding
    only the open words unless ``memoize``.  Returns (verdict, rejected
    prefix, record of the start word's phase), the record being None when
    the memo held the start word or the automaton is not deterministic.
    Raises ResourcesExceeded when the budget runs out, leaving no open word
    in ``table``.

    A verdict is (accepted, witness), and an accepting witness is a chain
    (record of one cycle or of the tail, rest of the chain or None), so that
    words along one computation share their witness suffixes.
    """
    deterministic = spec.flags.deterministic
    stack: list[list] = []  # frames [word, its cycles, next cycle]
    w = word
    rejected_prefix = first = None
    try:
        while True:
            verdict = table.get(w)
            if verdict is _IN_PROGRESS:
                raise _recurs(w)
            if verdict is None:
                tail, cycles, prefix, record = (
                    _deterministic_phase(spec, w, before, same, budget) if deterministic
                    else _explore_phase(spec, w, budget))
                if not stack:
                    # The start word's phase; every later word is reached
                    # by a cycle.
                    rejected_prefix, first, same = prefix, record, None
                if tail is not None:
                    verdict = _settle(table, memoize, w, (True, (tail, None)))
                elif not cycles:
                    verdict = _settle(table, memoize, w, _REJECTED)
                else:
                    table[w] = _IN_PROGRESS
                    stack.append([w, cycles, 1])
                    before = cycles[0]
                    w = before.to_word
                    continue
            # Settle the frames that the verdict closes, then open the next
            # cycle's word, if any is left.
            while stack:
                frame = stack[-1]
                u, cycles, i = frame
                if verdict[0]:
                    stack.pop()
                    verdict = _settle(table, memoize, u, (True, (cycles[i - 1], verdict[1])))
                elif i == len(cycles):
                    stack.pop()
                    verdict = _settle(table, memoize, u, _REJECTED)
                else:
                    frame[2] = i + 1
                    before = cycles[i]
                    w = before.to_word
                    break
            else:
                return verdict, rejected_prefix, first
    finally:
        # Words still open when the search ends without a verdict are
        # undecided, not rejected: a later call that shares the memo must
        # explore them again.
        for frame in stack:
            del table[frame[0]]


def _witness(link) -> Trace:
    """The accepting trace along a witness chain."""
    records = []
    while link is not None:
        record, link = link
        records.append(record)
    return Trace(tuple(records), OUT_ACCEPT)


def decide_basic_membership(spec: AutomatonSpec, word: Word, limits: Limits = DEFAULT_LIMITS,
                            memoize: bool = True, memo: Optional[dict] = None) -> Decision:
    """Decide whether some computation from the restarting configuration of
    ``word`` accepts.

    One depth-first loop over restarting words, on an explicit stack, for
    every automaton (``_search``; see the module docstring).  On a
    deterministic automaton a choice between two instructions raises
    PreconditionError, as in ``run_deterministic``.  Every phase spends the
    one ``max_configs`` budget, so it bounds the chain of open words too.
    With ``memoize`` the decider keeps a table keyed on restarting tape
    words; this is sound because behavior from a restarting configuration
    depends only on the tape.  Every cycle of a
    valid automaton makes progress, so a restarting word never recurs; one
    that does (a shrinking automaton whose weights its cycles do not lower)
    raises PreconditionError.  ``memoize=False`` re-explores every
    restarting word, remembering only the open words so that it raises on
    a recurring word too, and serves as the brute-force cross-check.
    """
    word = _over(spec.work_alphabet, word)
    # The brute search keeps a table of its own that holds only the open
    # words.
    table = memo if memo is not None and memoize else {}
    budget = _Budget(limits.max_configs)
    try:
        (ok, link), _, _ = _search(spec, word, None, 0, memoize, table, budget)
    except ResourcesExceeded as err:
        return Decision("resource-exceeded", None, limits.max_configs - budget.left, str(err))
    explored = limits.max_configs - budget.left
    if not ok:
        return Decision("non-member", None, explored)
    return Decision("member", _witness(link), explored)


def decide_first_member(spec: AutomatonSpec, options: Sequence[Sequence[str]],
                        limits: Limits = DEFAULT_LIMITS, memo: Optional[dict] = None,
                        ) -> tuple[Decision, Optional[Word]]:
    """The first basic member among the words whose i-th letter is one of
    ``options[i]``, tried in the order of ``itertools.product``, with its
    decision; or, with None, the decision that ends the search: non-member
    when no candidate is a member, resource-exceeded when a candidate trips
    a limit.

    Each candidate is decided as by ``decide_basic_membership``, under the
    whole ``limits`` and on one memo shared by all candidates, and
    ``configs_explored`` sums the candidates decided.  The candidates run
    an odometer, so consecutive ones share the letters left of the one that
    moved, and on a deterministic automaton each first phase resumes after
    the previous candidate's (see the module docstring).  The repeated
    steps are charged as they were taken, so every answer and count is that
    of deciding each candidate in turn.

    A candidate whose first phase alone rejects it having read only its
    first m letters (see ``_rejected_prefix``) rules out every
    candidate that starts with those letters: each has the same first phase
    step for step, and so the same non-member verdict under the same
    limits.  Those candidates are skipped, and so are never written to the
    memo; a later search that reaches one decides it again.  When cycles
    shorten the tape, no candidate's search reaches another candidate, so
    the answer is that of deciding every candidate in turn.  A shrinking
    automaton's cycle may reach another candidate of the same length, and
    deciding a skipped one again could trip a limit that the memo would
    have spared, so its candidates are all decided.
    """
    for choices in options:
        _over(spec.work_alphabet, choices)
    if not all(options):
        return Decision("non-member"), None
    table = memo if memo is not None else {}
    skip = not spec.flags.shrinking
    n = len(options)
    digits = [0] * n
    firsts = candidate = tuple(choices[0] for choices in options)
    explored, record, same = 0, None, 0
    budget = _Budget(0)
    while True:
        budget.left = limits.max_configs  # each candidate gets the whole limits
        try:
            (ok, link), prefix, record = _search(
                spec, candidate, record, same, True, table, budget)
        except ResourcesExceeded as err:
            explored += limits.max_configs - budget.left
            return Decision("resource-exceeded", None, explored, str(err)), None
        explored += limits.max_configs - budget.left
        if ok:
            return Decision("member", _witness(link), explored), candidate
        # Advance the odometer at the last letter read, carrying leftward;
        # the next candidate's tape keeps cells [0, i).
        i = prefix if skip and prefix is not None else n
        while i > 0 and digits[i - 1] == len(options[i - 1]) - 1:
            i -= 1
        if i == 0:
            return Decision("non-member", None, explored), None
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
                   limits: Limits = DEFAULT_LIMITS) -> list[CycleRecord]:
    """The cycles word => v, one record for each distinct v (its
    ``to_word``), in the order of v.

    For non-shrinking automata every returned word is strictly shorter than
    the argument; shrinking automata may preserve length and the weight
    function carries the progress argument instead.  The phase comes from
    ``_deterministic_phase`` on a deterministic automaton, as in the
    decider, and from ``_explore_phase`` otherwise.  Raises
    ResourcesExceeded when the budget runs out, and PreconditionError when
    a cycle makes no such progress or a deterministic automaton meets a
    choice.
    """
    word = _over(spec.work_alphabet, word)
    budget = _Budget(limits.max_configs)
    if spec.flags.deterministic:
        _, cycles, _, _ = _deterministic_phase(spec, word, None, 0, budget)
    else:
        _, cycles, _, _ = _explore_phase(spec, word, budget)
    firsts: dict[Word, CycleRecord] = {}
    for record in cycles:
        firsts.setdefault(record.to_word, record)
    for to_word in firsts:
        if not spec.flags.shrinking:
            if len(to_word) >= len(word):
                raise PreconditionError("cycle did not shorten the tape")
        elif spec.weights is not None:
            if word_weight(spec.weights, to_word) >= word_weight(spec.weights, word):
                raise PreconditionError("cycle did not decrease the tape weight")
    return list(firsts.values())


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
            if flag is not None:
                return Trace.of_steps(_path_to(parents, node, (config, ins)), "counterexample", flag)
            if nxt is None:
                continue
            child = (nxt, new_state)
            if child in parents:
                continue
            parents[child] = (node, (config, ins))
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

