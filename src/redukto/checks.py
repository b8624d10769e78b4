"""Bounded verifiers for semantic properties: determinism conflicts,
monotonicity, cycle discipline, correctness/error preservation and
shrinking-weight validity.

Every check quantifies over all working-alphabet words up to a length bound
and over all computation branches within the resource limits, and it reports
either "holds-up-to-bound" or a concrete counterexample that replays through
the engine.  None of the verdicts claim the unbounded property.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    trace_tapes,
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
from .languages import words_over

HOLDS = "holds-up-to-bound"
VIOLATED = "violated"
EXCEEDED = "resource-exceeded"

PRESERVATION_MODES = (
    "complete-correctness",
    "complete-error",
    "cycle-correctness",
    "cycle-error",
)


@dataclass
class Counterexample:
    word: Word
    trace: Optional[Trace]
    explanation: str


@dataclass
class CheckReport:
    property_name: str
    bound: int
    verdict: str
    counterexample: Optional[Counterexample] = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def describe(self) -> str:
        head = "%s at length <= %d: %s" % (self.property_name, self.bound, self.verdict)
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
    except ResourcesExceeded:
        return CheckReport(name, max_len, EXCEEDED)
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
        return CheckReport("determinism", 0, HOLDS)
    state, window = conflicts[0]
    detail = "; ".join(
        "(%s, %s)" % (s, render_word(w)) for s, w in conflicts[:5]
    )
    return CheckReport(
        "determinism",
        0,
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

    Deterministic automata are swept with a prefix-pruned word walk: when the
    run on a prefix halts while its window never left the prefix and before
    any rewrite, every extension behaves identically and is vacuously
    monotone, so the whole subtree is skipped.  This is what makes bounds
    like 10 feasible over the large working alphabets of the grammar-built
    automata, where almost every word halts within a few steps.  The
    witness of a violation is the branch walk of the word found, which on a
    deterministic automaton is its run up to the rising rewrite.
    """
    if spec.flags.deterministic:
        words = _monotone_det_sweep(spec, max_len, limits)
    else:
        words = words_over(spec.work_alphabet, max_len)
    return _report("monotonicity", max_len, lambda: _first_flagged(spec, words, limits, _rise))


def _monotone_det_sweep(spec, max_len, limits) -> Iterator[Word]:
    """Prefix-pruned monotonicity sweep for deterministic automata: yields
    the words up to the bound whose run has a rising rewrite, in depth-first
    prefix order.
    """
    k = spec.window
    table = spec.table
    q0 = spec.initial
    alphabet = sorted(spec.work_alphabet)
    step_cap = limits.max_steps_per_cycle

    def prunable(prefix):
        """True if the run on every extension of the prefix provably halts
        or loops without ever rewriting."""
        tape = (LEFT_SENTINEL,) + prefix
        known = len(tape)
        state, pos = q0, 0
        for _ in range(step_cap):
            if pos + k > known:
                return False
            instrs = table.get((state, tape[pos : pos + k]))
            if not instrs:
                return True
            if len(instrs) > 1:
                return False
            ins = instrs[0]
            kind = ins.kind
            if kind == MVR:
                pos += 1
                state = ins.state
            elif kind == MVL:
                if pos == 0:
                    return True
                pos -= 1
                state = ins.state
            else:
                # A rewrite may change everything; a restart without one
                # rescans forever, and accept and reject halt.
                return kind != SL
        return False

    def rises(word):
        """Whether the deterministic run of ``word`` has a rewrite right of
        the previous one.  The config budget is per word: a check sweeps
        many words and each gets its own decision budget."""
        budget = limits.max_configs
        tape = (LEFT_SENTINEL,) + word + (RIGHT_SENTINEL,)
        state, pos, rewrites = q0, 0, 0
        last_dr = None
        seen = set()
        steps = 0
        while True:
            budget -= 1
            steps += 1
            if budget < 0 or steps > step_cap:
                raise ResourcesExceeded(
                    "configs limit exceeded" if budget < 0 else "steps limit exceeded"
                )
            marker = (state, pos, rewrites)
            if marker in seen:
                return False
            seen.add(marker)
            instrs = table.get((state, tape[pos : pos + k]))
            if not instrs:
                return False
            ins = instrs[0]
            kind = ins.kind
            if kind == MVR:
                if pos + 1 >= len(tape):
                    return False
                pos += 1
                state = ins.state
            elif kind == MVL:
                if pos == 0:
                    return False
                pos -= 1
                state = ins.state
            elif kind == SL:
                dr = len(tape) - pos
                if last_dr is not None and dr > last_dr:
                    return True
                last_dr = dr
                window = tape[pos : pos + k]
                tape = tape[:pos] + ins.target + tape[pos + len(window):]
                pos = max(0, pos - (len(window) - len(ins.target)))
                rewrites += 1
                state = ins.state
            elif kind == RESTART:
                state, pos, rewrites = q0, 0, 0
                seen.clear()
                steps = 0
            else:
                return False

    stack = [()]
    while stack:
        prefix = stack.pop()
        if rises(prefix):
            yield prefix
        if len(prefix) < max_len:
            for sym in reversed(alphabet):
                child = prefix + (sym,)
                if not prunable(child):
                    stack.append(child)


def check_cycle_soundness(
    spec: AutomatonSpec,
    max_len: int,
    limits: Limits = DEFAULT_LIMITS,
    degree: Optional[int] = None,
) -> CheckReport:
    """Every cycle performs between 1 and mr-degree rewrite steps and no
    accepting tail contains a rewrite.  Branches are walked without the
    engine's discipline so that violations are observed rather than
    pruned."""
    cap = spec.flags.mr_degree if degree is None else degree

    def breaks(_, config, ins):
        return None, discipline_break(cap, ins, config)

    words = words_over(spec.work_alphabet, max_len)
    return _report(
        "cycle-soundness(j=%d)" % cap, max_len,
        lambda: _first_flagged(spec, words, limits, breaks),
    )


def _status(member: bool) -> str:
    return "member" if member else "non-member"


def check_preservation(
    spec: AutomatonSpec,
    max_len: int,
    mode: str,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckReport:
    """Correctness/error preservation of the basic language.

    complete modes: along every computation from every word up to the bound,
    the basic-membership status of every visited tape matches the status of
    the start word.  These require a deterministic automaton with one rewrite
    per cycle (the hypothesis under which the properties are guaranteed; with
    multiple rewrites per cycle the mid-cycle tapes genuinely break them).

    cycle modes: for every single cycle rewriting u => v up to the bound,
    membership of u implies membership of v (correctness, deterministic
    automata) and non-membership of u implies non-membership of v (error, any
    automaton).  The transitive closure follows by induction since every
    intermediate word stays within the bound.
    """
    if mode not in PRESERVATION_MODES:
        raise PreconditionError("unknown preservation mode %r" % mode)
    needs_det = mode in ("complete-correctness", "complete-error", "cycle-correctness")
    if needs_det and not spec.flags.deterministic:
        raise PreconditionError("%s requires a deterministic automaton" % mode)
    if mode.startswith("complete") and spec.flags.mr_degree != 1:
        raise PreconditionError(
            "complete preservation applies to single-rewrite cycles only"
        )
    memo: dict = {}
    # Correctness follows members, error follows non-members.
    followed = mode.endswith("correctness")

    def member(w: Word) -> bool:
        d = decide_basic_membership(spec, w, limits, memo=memo)
        if d.verdict == "resource-exceeded":
            raise ResourcesExceeded("limit exceeded deciding %s" % render_word(w))
        return d.is_member

    def cycle_search() -> Optional[Counterexample]:
        for word in words_over(spec.work_alphabet, max_len):
            if member(word) != followed:
                continue
            for rewrite in cycle_rewrites(spec, word, limits):
                if member(rewrite.to_word) != followed:
                    return Counterexample(
                        word,
                        Trace.of_steps(rewrite.steps, "counterexample"),
                        "cycle rewrites %s (%s) to %s (%s)" % (
                            render_word(word), _status(followed),
                            render_word(rewrite.to_word), _status(not followed),
                        ),
                    )
        return None

    def complete_search() -> Optional[Counterexample]:
        # The computation is deterministic, so every tape it visits is on
        # the one run from the start word.
        for word in words_over(spec.work_alphabet, max_len):
            if member(word) != followed:
                continue
            trace = run_deterministic(spec, word, limits)
            if trace.outcome == OUT_LIMIT:
                raise ResourcesExceeded("limit exceeded running %s" % render_word(word))
            for tape in sorted(trace_tapes(trace), key=lambda t: (len(t), t)):
                if member(tape) != followed:
                    return Counterexample(
                        word,
                        trace,
                        "computation from %s (%s) visits %s (%s)" % (
                            render_word(word), _status(followed),
                            render_word(tape), _status(not followed),
                        ),
                    )
        return None

    search = cycle_search if mode.startswith("cycle") else complete_search
    return _report("preservation(%s)" % mode, max_len, search)


def check_shrinking(
    spec: AutomatonSpec,
    weights: dict[str, int],
    max_len: int,
    limits: Limits = DEFAULT_LIMITS,
) -> CheckReport:
    """Every observed cycle rewriting strictly decreases the total weight,
    and the weight function is positive and total on the working alphabet."""

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
            for rewrite in cycle_rewrites(relaxed, word, limits):
                after = word_weight(weights, rewrite.to_word)
                if after >= before:
                    return Counterexample(
                        word,
                        Trace.of_steps(rewrite.steps, "counterexample"),
                        "cycle %s -> %s raises weight %d -> %d" % (
                            render_word(word), render_word(rewrite.to_word),
                            before, after,
                        ),
                    )
        return None

    return _report("shrinking", max_len, search)
