"""The two transformations.

(A) Grammar pipeline: a Greibach-normal-form grammar G is recoded so that
each terminal carries the number of the rule that produced it; the recoded
language is deterministic context-free and is recognized by a synthesized
deterministic contextual-deletion scanner; interpreting the tagged symbols as
auxiliary symbols and mapping them back to their terminals yields an
automaton whose h-proper language is L(G) and whose input language is empty.

The cited general transformation of deterministic context-free languages
into deterministic monotone contextual-deletion automata is out of scope
here; the synthesizer replaces it with an oracle-guided search whose result
is certified only up to the validated length, as stated on its report.
Every contextual deletion of every window of a training word (a word of the
grammar up to TRAIN_LEN) is a candidate rule, held in one table.  The filter
removes from it every rule that changes a sample word's membership at its
leftmost match; a sample word is a training word or any word up to length 6,
and validation adds the reduction chains of its counterexamples.  The
survivors are assembled into a leftmost-match scanner, which is validated
against the derivation oracle.  Validation checks what the kept rules can
get wrong: the language (up to the validated length) and monotonicity (at
every length, by the exact search).  The cycle discipline needs no check,
because the scanner's shape fixes it: every cycle makes exactly one rewrite
and only windows showing both sentinels accept.

(B) Shrinking transform: any automaton with a morphism is turned into a
shrinking automaton that first guesses, right to left and one symbol per
cycle, a working-symbol replacement for every input symbol (the lexical
analysis; input symbols standing for themselves are replaced by fresh hatted
copies), and then simulates the source on the replaced tape.  The weight of
an input symbol is its number of morphism preimages plus one, so every
replacement and every simulated rewrite strictly decreases the tape weight.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .checks import EXCEEDED, check_monotone
from .engine import DEFAULT_LIMITS, Limits, ResourcesExceeded, run_deterministic
from .languages import (
    LanguageQuery,
    compare_word_sets,
    enumerate_language,
    require_morphism,
    words_over,
)
from .model import (
    LEFT_SENTINEL,
    RIGHT_SENTINEL,
    SL,
    AutomatonSpec,
    ClassFlags,
    GnfGrammar,
    GnfRule,
    PreconditionError,
    ReadOnlyDict,
    ReduktoError,
    Word,
    accept,
    all_window_contents,
    contextual_deletions,
    mvr,
    reject,
    render_word,
    restart,
    sl,
)

C, D = LEFT_SENTINEL, RIGHT_SENTINEL

# The synthesizer trains on the grammar's words up to TRAIN_LEN and
# validates the scanner's language against them up to VALIDATE_LEN.
TRAIN_LEN = 10
VALIDATE_LEN = 12


class SynthesisError(ReduktoError):
    def __init__(self, message: str, report: "SynthesisReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class DerivationAlphabet:
    """One tagged terminal per grammar rule, mapped back by the morphism."""

    symbols: tuple[str, ...]
    morphism: Mapping[str, str]       # tagged symbol -> original terminal

    def __post_init__(self):
        object.__setattr__(self, "morphism", ReadOnlyDict(self.morphism))


def rule_token(number: int, terminal: str) -> str:
    return "(%d,%s)" % (number, terminal)


def derivation_encode(grammar: GnfGrammar) -> tuple[GnfGrammar, DerivationAlphabet]:
    """Recode a GNF grammar over rule-tagged terminals.

    The i-th rule A -> a alpha becomes A -> (i,a) alpha; a tagged word spells
    out a leftmost derivation, and erasing the tags recovers the derived
    terminal word.
    """
    symbols = []
    morphism = {}
    new_rules = []
    for i, rule in enumerate(grammar.rules, start=1):
        tok = rule_token(i, rule.head)
        symbols.append(tok)
        morphism[tok] = rule.head
        new_rules.append(GnfRule(rule.lhs, tok, rule.tail))
    tagged = GnfGrammar(
        name=grammar.name + "_tagged",
        nonterminals=grammar.nonterminals,
        terminals=frozenset(symbols),
        start=grammar.start,
        rules=tuple(new_rules),
    )
    return tagged, DerivationAlphabet(tuple(symbols), morphism)


def derivation_check(tagged: GnfGrammar, word: Word) -> bool:
    """Whether a tagged word spells a leftmost derivation of the grammar.

    Replays the derivation on a prediction stack: each tagged symbol must
    expand the topmost nonterminal with its own rule; the tail is pushed so
    that the leftmost nonterminal stays on top.  Accepts iff the input is
    exhausted together with the stack.
    """
    by_head = {rule.head: rule for rule in tagged.rules}
    stack = [tagged.start]
    for tok in word:
        rule = by_head.get(tok)
        if rule is None or not stack:
            return False
        expected = stack.pop()
        if expected != rule.lhs:
            return False
        stack.extend(reversed(rule.tail))
    return not stack


def enumerate_grammar_words(grammar: GnfGrammar, max_len: int) -> list[Word]:
    """All words of the grammar up to max_len, via breadth-first leftmost
    derivation (each step emits one terminal, so a sentential form with m
    emitted terminals and s predicted nonterminals derives only words of
    length at least m + s)."""
    out = []
    frontier: list[tuple[Word, tuple[str, ...]]] = [((), (grammar.start,))]
    while frontier:
        nxt = []
        for emitted, stack in frontier:
            if not stack:
                out.append(emitted)
                continue
            if len(emitted) + len(stack) > max_len:
                continue
            top, rest = stack[0], stack[1:]
            for _, rule in grammar.rules_for(top):
                nxt.append((emitted + (rule.head,), rule.tail + rest))
        frontier = nxt
    return sorted(set(out), key=lambda w: (len(w), w))


@dataclass
class SynthesisReport:
    window_requested: int
    window_used: int
    train_length: int
    validate_length: int
    rules: list[tuple[Word, Word]] = field(default_factory=list)
    verdict: str = "failed"             # "validated" | "failed"
    counterexamples: list[Word] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            "window requested %d, used %d" % (self.window_requested, self.window_used),
            "trained on words up to length %d, validated up to length %d"
            % (self.train_length, self.validate_length),
            "verdict: %s" % self.verdict,
        ]
        for u, v in self.rules:
            lines.append("rule %s -> %s" % (render_word(u), render_word(v)))
        for note in self.notes:
            lines.append("note: %s" % note)
        for w in self.counterexamples[:5]:
            lines.append("counterexample: %s" % render_word(w))
        return "\n".join(lines)


def _attempt_synthesis(
    tagged: GnfGrammar,
    k: int,
    limits: Limits,
) -> tuple[Optional[AutomatonSpec], SynthesisReport]:
    report = SynthesisReport(k, k, TRAIN_LEN, VALIDATE_LEN)
    alphabet = sorted(tagged.terminals)
    expected = enumerate_grammar_words(tagged, VALIDATE_LEN)
    training = [w for w in expected if len(w) <= TRAIN_LEN]
    member = functools.cache(lambda w: derivation_check(tagged, w))

    # The filter's one table: each window of a training word, with those of
    # its contextual deletions that still survive.  A deletion u -> v is
    # removed as soon as applying it at u's leftmost match in a sample word
    # changes that word's membership.  Whether it does depends only on the
    # word and the rule, so the order in which words are filtered does not
    # change which rules survive.
    candidates: dict[Word, set[Word]] = {}
    for word in training:
        tape = (C,) + word + (D,)
        for p in range(len(tape)):
            u = tape[p : p + k]
            if u not in candidates:
                candidates[u] = contextual_deletions(u)

    def refilter(words) -> None:
        for word in words:
            status = member(word)
            tape = (C,) + word + (D,)
            leftmost: dict[Word, int] = {}
            for p in range(len(tape)):
                leftmost.setdefault(tape[p : p + k], p)
            for u, p in leftmost.items():
                survivors = candidates.get(u)
                if survivors:
                    survivors -= {
                        v for v in survivors
                        if member((tape[:p] + v + tape[p + len(u) :])[1:-1]) != status
                    }

    # The sample: the training words and every word up to length 6, members
    # or not.  Short words go first: they remove most rules early, which
    # spares oracle calls on the longer ones.
    sample = set(training).union(words_over(alphabet, 6))
    refilter(sorted(sample, key=lambda w: (len(w), w)))

    # Validate and refine.  A round takes the shortlex-least surviving
    # deletion of every window, assembles the scanner and checks the
    # language, by the closure enumeration up to VALIDATE_LEN, and
    # monotonicity, which must hold at every length: a word that rises past
    # the check's bound, or a search cut off there, fails the attempt too.
    # The cycle discipline is not re-checked: _assemble_scanner lets qr only
    # restart and q0 only move right, rewrite into qr, accept or reject, and
    # it accepts only on windows that show both sentinels, so every cycle
    # makes exactly one rewrite and no tail makes one.  The same confinement
    # of tail acceptance makes the closure enumeration exact.  On a language
    # mismatch, the reduction chain of the offending word is added to the
    # filter sample (it pins down the exact rule application that changed a
    # membership status) and validation runs again.  The loop ends: a round
    # that removes none of the kept rules assembles the same scanner, which
    # meets the same counterexample, whose chain is then already in the
    # sample, so the next round fails the attempt; and a round that removes a
    # kept rule retires one of finitely many candidates.  Residual failures
    # are reported and the caller may retry with a wider window.
    while True:
        kept = {u: min(vs, key=lambda w: (len(w), w)) for u, vs in candidates.items() if vs}
        spec = _assemble_scanner(tagged, k, kept, member)
        report.rules = sorted(kept.items())
        compared = compare_word_sets(
            enumerate_language(
                spec, LanguageQuery("input", VALIDATE_LEN, limits), strategy="closure"
            ),
            expected,
            VALIDATE_LEN,
        )
        if not compared.equal:
            witness = compared.counterexample
            trace = run_deterministic(spec, witness, limits)
            fresh = {witness, *(v for _, v in trace.reductions())} - sample
            if not fresh:
                report.counterexamples.append(witness)
                report.notes.append("language mismatch: %s" % compared.describe())
                return None, report
            sample |= fresh
            refilter(fresh)
            continue
        checked = check_monotone(spec, min(8, VALIDATE_LEN), limits)
        if checked.verdict == EXCEEDED:
            raise ResourcesExceeded("%s in the monotonicity check" % checked.exceeded)
        if not checked.unbounded:
            if checked.counterexample:
                report.counterexamples.append(checked.counterexample.word)
            report.notes.append("monotonicity check: %s" % (
                "not shown beyond length %d" % checked.bound if checked.holds else checked.verdict))
            return None, report
        report.verdict = "validated"
        return spec, report


def _assemble_scanner(
    tagged: GnfGrammar,
    k: int,
    rules: dict[Word, Word],
    member,
) -> AutomatonSpec:
    """Deterministic scanner: move right, rewrite at the leftmost window
    matching a rule, then restart; whole short words are accepted or rejected
    directly from the initial window."""
    alphabet = sorted(tagged.terminals)
    table: dict = {}
    for u in all_window_contents(k, alphabet):
        if u in rules:
            table[("q0", u)] = [sl("qr", rules[u])]
        elif u[0] == C and u[-1] == D:
            table[("q0", u)] = [accept()] if member(u[1:-1]) else [reject()]
        elif u[-1] == D:
            table[("q0", u)] = [reject()]
        else:
            table[("q0", u)] = [mvr("q0")]
        table[("qr", u)] = [restart()]
    return AutomatonSpec(
        name="scan_" + tagged.name,
        states=frozenset({"q0", "qr"}),
        initial="q0",
        window=k,
        input_alphabet=frozenset(alphabet),
        work_alphabet=frozenset(alphabet),
        table=table,
        flags=ClassFlags(direction="R", form="CL", aux="none", deterministic=True),
    )


def synthesize_reduction_system(
    tagged: GnfGrammar,
    k: int,
    window_cap: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[AutomatonSpec, SynthesisReport]:
    """Synthesize a deterministic contextual-deletion scanner for the tagged
    language, retrying with a wider window up to ``window_cap`` (no retries
    when the cap is omitted; a cap below ``k`` is refused with
    PreconditionError).  Raises SynthesisError, carrying the last
    report and its counterexamples, when no window up to the cap validates,
    and ResourcesExceeded when a limit trips during validation.
    """
    if k < 2:
        raise PreconditionError("window size must be at least 2")
    cap = k if window_cap is None else window_cap
    if cap < k:
        raise PreconditionError("window cap %d is below the window size %d" % (cap, k))
    last_report = None
    for width in range(k, cap + 1):
        spec, report = _attempt_synthesis(tagged, width, limits)
        report.window_requested = k
        if spec is not None:
            return spec, report
        last_report = report
    raise SynthesisError(
        "no rule set validates with window up to %d" % cap, last_report
    )


def build_hrrwwc(
    grammar: GnfGrammar,
    k: int = 3,
    window_cap: Optional[int] = 8,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[AutomatonSpec, SynthesisReport]:
    """Grammar pipeline: tag the rules, synthesize the scanner over the
    tagged alphabet, then attach the terminals as input symbols that are
    rejected on sight, with the tag-erasing morphism.

    The result is deterministic with contextual rewrites only; its h-proper
    language equals the grammar language and its input language is empty, up
    to the validated length.
    """
    tagged, dalpha = derivation_encode(grammar)
    scanner, report = synthesize_reduction_system(tagged, k, window_cap, limits)
    sigma = sorted(grammar.terminals)
    table = dict(scanner.table)
    for u in all_window_contents(scanner.window, sigma):
        if any(tok in grammar.terminals for tok in u) and ("q0", u) not in table:
            table[("q0", u)] = [reject()]
    morphism = dict(dalpha.morphism)
    for tok in sigma:
        morphism[tok] = tok
    spec = replace(
        scanner,
        name="g2c_" + grammar.name,
        input_alphabet=frozenset(sigma),
        work_alphabet=frozenset(sigma) | scanner.work_alphabet,
        table=table,
        flags=replace(scanner.flags, aux="WW"),
        morphism=morphism,
    )
    return spec, report


def dga(spec: AutomatonSpec, symbol: str) -> int:
    """Degree of lexical ambiguity: number of working symbols mapping to the
    given input symbol (at least 1, since the morphism fixes input symbols)."""
    morphism = require_morphism(spec)
    if symbol not in spec.input_alphabet:
        raise PreconditionError("%r is not an input symbol" % symbol)
    return sum(1 for tok, image in morphism.items() if image == symbol)


def hat_token(symbol: str) -> str:
    return symbol + "^"


def _hat_word(word: Word, sigma: frozenset[str]) -> Word:
    return tuple(hat_token(tok) if tok in sigma else tok for tok in word)


def to_shrinking(spec: AutomatonSpec) -> tuple[AutomatonSpec, dict[str, int]]:
    """Build the shrinking automaton whose input language is the h-proper
    language of the source.

    Phase one replaces input symbols right to left, one per cycle, each by a
    nondeterministically chosen non-input preimage (with fresh hatted copies
    standing in for the input symbols themselves).  Phase two, entered when
    the symbol right of the left border is no longer an input symbol,
    simulates the source on the replaced tape.  The returned weight function
    gives every input symbol its preimage count plus one and every other
    symbol weight one, which makes every cycle weight-decreasing.
    """
    morphism = require_morphism(spec)
    sigma = spec.input_alphabet
    gamma = spec.work_alphabet
    hats = {tok: hat_token(tok) for tok in sorted(sigma)}
    for hat in hats.values():
        if hat in gamma:
            raise PreconditionError("hatted symbol %r collides with the working alphabet" % hat)
    gamma_s = frozenset(gamma | set(hats.values()))
    morphism_s = dict(morphism)
    for tok, hat in hats.items():
        morphism_s[hat] = tok
    weights = {tok: dga(spec, tok) + 1 for tok in sorted(sigma)}
    for tok in sorted(gamma_s - sigma):
        weights[tok] = 1

    choices = {
        a: sorted(tok for tok, image in morphism_s.items() if image == a and tok not in sigma)
        for a in sigma
    }
    k = spec.window
    sim = {q: "sim_" + q for q in sorted(spec.states)}
    states = {"q0", "p1", "qr"} | set(sim.values())
    table: dict = {}

    def phase1_rewrites(state_key, window):
        """One instruction per replacement choice for the rightmost input
        symbol visible in a window that is known to close the inspection."""
        idx = max(i for i, tok in enumerate(window) if tok in sigma)
        out = []
        for d in choices[window[idx]]:
            out.append(sl("qr", window[:idx] + (d,) + window[idx + 1 :]))
        table[(state_key, window)] = out

    for window in all_window_contents(k, sorted(gamma_s)):
        has_sigma = any(tok in sigma for tok in window)
        if window[0] == C:
            if len(window) > 1 and window[1] in sigma:
                if D in window:
                    phase1_rewrites("q0", window)
                else:
                    table[("q0", window)] = [mvr("p1")]
            # Other initial windows belong to the simulation and are filled
            # below from the source table.
        else:
            if D in window:
                if has_sigma:
                    phase1_rewrites("p1", window)
            elif window[0] in sigma and not any(tok in sigma for tok in window[1:]):
                phase1_rewrites("p1", window)
            elif any(tok in sigma for tok in window[1:]):
                table[("p1", window)] = [mvr("p1")]
        table[("qr", window)] = [restart()]

    for (q, window), instrs in spec.table.items():
        hatted = _hat_word(window, sigma)
        key_state = "q0" if q == spec.initial and window[0] == C else sim[q]
        renamed = []
        for ins in instrs:
            if ins.kind == SL:
                renamed.append(sl(sim[ins.state], _hat_word(ins.target, sigma)))
            elif ins.kind in ("MVR", "MVL"):
                renamed.append(ins._replace(state=sim[ins.state]))
            else:
                renamed.append(ins)
        table.setdefault((key_state, hatted), []).extend(renamed)
        if key_state != sim[q]:
            table.setdefault((sim[q], hatted), []).extend(renamed)

    deterministic = spec.flags.deterministic and all(
        len(choices[a]) <= 1 for a in sigma
    )
    out = AutomatonSpec(
        name=spec.name + "_shrunk",
        states=frozenset(states),
        initial="q0",
        window=k,
        input_alphabet=sigma,
        work_alphabet=gamma_s,
        table=table,
        flags=ClassFlags(
            direction=spec.flags.direction,
            form="SL",
            aux="WW",
            deterministic=deterministic,
            mr_degree=spec.flags.mr_degree,
            shrinking=True,
        ),
        morphism=morphism_s,
        weights=weights,
    )
    return out, weights
