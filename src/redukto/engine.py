"""Exact operational semantics: configurations, the six step types, cycles
and tails, deterministic runs, nondeterministic membership search, and the
cycle-rewriting relation.

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
"stuck", distinct from an explicit reject step.

Limits.  A search that trips one of its ``Limits`` raises ResourcesExceeded,
naming the limit; the deciders turn it into a resource-exceeded verdict that
keeps the message in ``Decision.exceeded``.  Deterministic runs stop with a
limit-exceeded outcome flagged with the same message.

Searches are reentrant and side-effect free apart from per-call memo tables;
deciding distinct words in parallel is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
    max_steps_per_cycle: int = 10_000
    max_configs: int = 1_000_000
    max_total_cycles: int = 100_000


DEFAULT_LIMITS = Limits()

# Trace outcomes.
OUT_ACCEPT = "accept"
OUT_REJECT = "reject"
OUT_DIVERGES = "diverges"
OUT_LIMIT = "limit-exceeded"
OUT_INVALID = "invalid-cycle"

Step = tuple[Configuration, Instruction]


@dataclass
class Trace:
    steps: list[Step]
    outcome: str
    flag: Optional[str] = None

    def cycle_count(self) -> int:
        return sum(1 for _, ins in self.steps if ins.kind == RESTART)

    def reductions(self) -> list[tuple[Word, Word]]:
        """The sequence of cycle rewritings u => v along this trace."""
        out = []
        current = None
        for config, ins in self.steps:
            if current is None:
                current = strip_sentinels(config.tape)
            if ins.kind == RESTART:
                after = strip_sentinels(config.tape)
                out.append((current, after))
                current = after
        return out


@dataclass(frozen=True)
class CycleRewrite:
    from_word: Word
    to_word: Word
    steps: tuple[Step, ...]


@dataclass
class Decision:
    verdict: str                    # member | non-member | resource-exceeded
    witness: Optional[Trace] = None
    configs_explored: int = 0
    exceeded: Optional[str] = None  # the tripped limit's message

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


def restarting_configuration(spec: AutomatonSpec, word: Word) -> Configuration:
    return Configuration((LEFT_SENTINEL,) + tuple(word) + (RIGHT_SENTINEL,), spec.initial, 0, 0)


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


def discipline_break(cap: int, ins: Instruction, config: Configuration) -> Optional[str]:
    """Why taking ``ins`` at ``config`` breaks the cycle discipline with at
    most ``cap`` rewrite steps per cycle, or None if it does not."""
    # A rejecting halt after a rewrite is treated as an aborted cycle, not as
    # a rewriting tail: deterministic multi-rewrite automata must delete
    # eagerly and can discover a mismatch only afterwards, and a mid-cycle
    # reject contributes nothing to any language.
    if ins.kind == SL and config.rewrites >= cap:
        return "more than %d rewrite steps in a cycle" % cap
    if ins.kind == RESTART and config.rewrites == 0:
        return "cycle without a rewrite step"
    if ins.kind == ACCEPT and config.rewrites > 0:
        return "rewrite step in an accepting tail"
    return None


def run_deterministic(
    spec: AutomatonSpec,
    word: Word,
    limits: Limits = DEFAULT_LIMITS,
) -> Trace:
    """Run a deterministic automaton from the restarting configuration of
    ``word`` until it halts, loops, gets stuck, breaks the cycle discipline,
    or exhausts the limits."""
    if not spec.flags.deterministic:
        raise PreconditionError("run_deterministic requires a deterministic automaton")
    cap = spec.flags.mr_degree
    config = restarting_configuration(spec, tuple(word))
    steps: list[Step] = []
    seen: set[tuple[str, int, int]] = set()
    cycle_steps = 0
    cycles = 0
    total = 0
    while True:
        # Only a rewrite changes the tape and ``seen`` is cleared at every
        # restart, so within a cycle (state, pos, rewrites) fixes the tape.
        key = (config.state, config.pos, config.rewrites)
        if key in seen:
            return Trace(steps, OUT_DIVERGES)
        seen.add(key)
        total += 1
        cycle_steps += 1
        if cycle_steps > limits.max_steps_per_cycle:
            return Trace(steps, OUT_LIMIT, flag="steps limit exceeded")
        if total > limits.max_configs:
            return Trace(steps, OUT_LIMIT, flag="configs limit exceeded")
        succ = successors(spec, config)
        if not succ:
            return Trace(steps, OUT_REJECT, flag="stuck")
        if len(succ) > 1:
            raise PreconditionError(
                "nondeterministic choice at (%s, %s)"
                % (config.state, render_word(window_of(spec, config)))
            )
        ins, nxt = succ[0]
        bad = discipline_break(cap, ins, config)
        steps.append((config, ins))
        if bad is not None:
            return Trace(steps, OUT_INVALID, flag=bad)
        if nxt is None:
            return Trace(steps, OUT_ACCEPT if ins.kind == ACCEPT else OUT_REJECT)
        if ins.kind == RESTART:
            cycles += 1
            if cycles > limits.max_total_cycles:
                return Trace(steps, OUT_LIMIT, flag="cycles limit exceeded")
            seen.clear()
            cycle_steps = 0
        config = nxt


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


def _path_to(parents: dict, node, final: Step) -> list[Step]:
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


class _PhaseResult(NamedTuple):
    tail_accept: Optional[list[Step]]   # steps of an accepting tail, if any
    cycles: list[tuple[Word, list[Step]]]  # (successor word, cycle steps)


def _explore_phase(
    spec: AutomatonSpec,
    word: Word,
    limits: Limits,
    budget: _Budget,
) -> _PhaseResult:
    """Depth-first exploration of one phase (from a restarting configuration
    up to the next restart or halt) over all nondeterministic branches.

    Branches that break the cycle discipline are pruned.  Loops within the
    phase are pruned by a visited set keyed on (tape id, state, pos,
    rewrites), where tapes are interned once per rewrite that makes them, so
    no lookup hashes a tape; two keys are equal exactly when their
    configurations are.  Paths are reconstructed through parent pointers.
    Raises ResourcesExceeded when the phase expands more than
    ``max_steps_per_cycle`` configurations or the budget runs out.
    """
    cap = spec.flags.mr_degree
    start = restarting_configuration(spec, word)
    tape_ids = {start.tape: 0}
    root = (0, start.state, start.pos, start.rewrites)
    parents: dict = {root: None}
    stack = [(root, start)]
    tail_accept = None
    cycles = []
    expanded = 0
    while stack:
        node, config = stack.pop()
        expanded += 1
        if expanded > limits.max_steps_per_cycle:
            raise ResourcesExceeded("steps limit exceeded")
        budget.spend()
        for ins, nxt in successors(spec, config):
            if discipline_break(cap, ins, config) is not None:
                continue
            if nxt is None:
                if ins.kind == ACCEPT and tail_accept is None:
                    tail_accept = _path_to(parents, node, (config, ins))
                continue
            if ins.kind == RESTART:
                cycles.append((strip_sentinels(nxt.tape), _path_to(parents, node, (config, ins))))
                continue
            tape_id = node[0] if ins.kind != SL else tape_ids.setdefault(nxt.tape, len(tape_ids))
            child = (tape_id, nxt.state, nxt.pos, nxt.rewrites)
            if child in parents:
                continue
            parents[child] = (node, (config, ins))
            stack.append((child, nxt))
    # Deterministic order for reproducible witnesses and reports.
    cycles.sort(key=lambda item: item[0])
    return _PhaseResult(tail_accept, cycles)


def decide_basic_membership(
    spec: AutomatonSpec,
    word: Word,
    limits: Limits = DEFAULT_LIMITS,
    memoize: bool = True,
    memo: Optional[dict] = None,
) -> Decision:
    """Decide whether some computation from the restarting configuration of
    ``word`` accepts.

    The search is depth first over restarting words, on an explicit stack
    whose depth is capped by ``max_total_cycles``.  With ``memoize`` it
    keeps a table keyed on restarting tape words; this is sound because
    behavior from a restarting configuration depends only on the tape.
    Every cycle of a valid automaton makes progress, so a restarting word
    never recurs; one that does (a shrinking automaton whose weights its
    cycles do not lower) raises PreconditionError.  ``memoize=False``
    re-explores every restarting word and serves as the brute-force
    cross-check.

    A verdict is (accepted, witness), and an accepting witness is a chain
    (steps of one cycle or of the tail, rest of the chain or None), so that
    words along one computation share their witness suffixes.
    """
    budget = _Budget(limits.max_configs)
    table = memo if memo is not None else {}
    IN_PROGRESS = "in-progress"
    rejected: tuple[bool, Optional[tuple]] = (False, None)
    stack: list[list] = []  # frames [word, its phase's cycles, next cycle]

    def settle(w: Word, verdict):
        if memoize:
            table[w] = verdict
        return verdict

    def open_word(w: Word):
        """The verdict on ``w`` if known at once, else None after pushing
        its frame."""
        if len(stack) > limits.max_total_cycles:
            raise ResourcesExceeded("cycles limit exceeded")
        if memoize:
            cached = table.get(w)
            if cached is IN_PROGRESS:
                raise PreconditionError(
                    "restarting word %s recurs: a cycle made no progress" % render_word(w)
                )
            if cached is not None:
                return cached
        phase = _explore_phase(spec, w, limits, budget)
        if phase.tail_accept is not None:
            return settle(w, (True, (phase.tail_accept, None)))
        if memoize:
            table[w] = IN_PROGRESS
        stack.append([w, phase.cycles, 0])
        return None

    try:
        verdict = open_word(tuple(word))
        while stack:
            frame = stack[-1]
            w, cycles, i = frame
            if verdict is not None and verdict[0]:
                stack.pop()
                verdict = settle(w, (True, (cycles[i - 1][1], verdict[1])))
            elif i == len(cycles):
                stack.pop()
                verdict = settle(w, rejected)
            else:
                frame[2] = i + 1
                verdict = open_word(cycles[i][0])
    except ResourcesExceeded as err:
        return Decision("resource-exceeded", None, limits.max_configs - budget.left, str(err))
    finally:
        # Words still open when the search ends without a verdict are
        # undecided, not rejected: a later call that shares the memo must
        # explore them again.
        if memoize:
            for frame in stack:
                del table[frame[0]]
    explored = limits.max_configs - budget.left
    ok, chain = verdict
    if not ok:
        return Decision("non-member", None, explored)
    steps: list[Step] = []
    while chain is not None:
        part, chain = chain
        steps.extend(part)
    return Decision("member", Trace(steps, OUT_ACCEPT), explored)


def decide_input_membership(
    spec: AutomatonSpec,
    word: Word,
    limits: Limits = DEFAULT_LIMITS,
    memoize: bool = True,
    memo: Optional[dict] = None,
) -> Decision:
    """decide_basic_membership restricted to words over the input alphabet."""
    word = tuple(word)
    for tok in word:
        if tok not in spec.input_alphabet:
            raise SymbolError("symbol %r is not an input symbol" % tok)
    return decide_basic_membership(spec, word, limits, memoize, memo)


def cycle_rewrites(
    spec: AutomatonSpec,
    word: Word,
    limits: Limits = DEFAULT_LIMITS,
) -> list[CycleRewrite]:
    """All v with word => v in one cycle, each with a witness step sequence.

    For non-shrinking automata every returned word is strictly shorter than
    the argument; shrinking automata may preserve length and the weight
    function carries the progress argument instead.  Raises
    ResourcesExceeded when a limit trips, and PreconditionError when a cycle
    makes no such progress.
    """
    word = tuple(word)
    phase = _explore_phase(spec, word, limits, _Budget(limits.max_configs))
    out = []
    seen = set()
    for to_word, steps in phase.cycles:
        if to_word in seen:
            continue
        seen.add(to_word)
        if not spec.flags.shrinking:
            if len(to_word) >= len(word):
                raise PreconditionError("cycle did not shorten the tape")
        elif spec.weights is not None:
            if word_weight(spec.weights, to_word) >= word_weight(spec.weights, word):
                raise PreconditionError("cycle did not decrease the tape weight")
        out.append(CycleRewrite(word, to_word, tuple(steps)))
    return out


def walk_branches(
    spec: AutomatonSpec,
    word: Word,
    on_step: Callable[[object, Configuration, Instruction], tuple[object, Optional[str]]],
    limits: Limits = DEFAULT_LIMITS,
) -> Optional[Trace]:
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
                return Trace(_path_to(parents, node, (config, ins)), "counterexample", flag)
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
        offered = successors(spec, config)
        match = [nxt for cand, nxt in offered if cand == ins]
        if not match:
            return False
        nxt = match[0]
        if i + 1 < len(steps) and nxt is not None and steps[i + 1][0] != nxt:
            return False
    return True


def trace_tapes(trace: Trace) -> list[Word]:
    """Distinct tape contents (sentinels stripped) visited along a trace, in
    first-visit order, including the final tape if the trace halts."""
    seen = []
    have = set()
    for config, _ in trace.steps:
        w = strip_sentinels(config.tape)
        if w not in have:
            have.add(w)
            seen.append(w)
    return seen
