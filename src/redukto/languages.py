"""Language-level deciders and bounded enumerators for the four language
kinds of an automaton: input, basic, proper and h-proper.

Enumerations are length-lexicographic with the alphabet in sorted token
order; the result at bound n is a prefix of the result at n+1.  Proper
enumeration is indexed by the length of the basic word, not of its
projection, and is therefore incomplete for any fixed bound (extended
versions can be longer); the other three kinds are complete up to the bound.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .engine import (
    DEFAULT_LIMITS,
    Decision,
    Limits,
    ResourcesExceeded,
    cycle_rewrites,
    decide_basic_membership,
    decide_first_member,
)
from .model import (
    ACCEPT,
    LEFT_SENTINEL,
    RIGHT_SENTINEL,
    AutomatonSpec,
    PreconditionError,
    SymbolError,
    Word,
    apply_morphism,
    project,
    render_word,
    word_weight,
)

KINDS = ("input", "basic", "proper", "hproper")


@dataclass(frozen=True)
class LanguageQuery:
    kind: str
    max_len: int
    limits: Limits = DEFAULT_LIMITS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError("unknown language kind %r" % self.kind)
        require_bound(self.max_len)


def require_bound(max_len: int) -> None:
    """Raise PreconditionError on a negative length bound."""
    if max_len < 0:
        raise PreconditionError("length bound must be non-negative")


def require_decided(decision: Decision, word: Word) -> None:
    """Raise ResourcesExceeded, naming the word, on an undecided decision."""
    if decision.verdict == "resource-exceeded":
        raise ResourcesExceeded("%s while deciding %s" % (decision.exceeded, render_word(word)))


def words_over(alphabet: Iterable[str], max_len: int) -> Iterator[Word]:
    """All words up to max_len in length-lexicographic order."""
    symbols = sorted(alphabet)
    for n in range(max_len + 1):
        for combo in itertools.product(symbols, repeat=n):
            yield combo


def require_morphism(spec: AutomatonSpec) -> Mapping[str, str]:
    """The automaton's lexical morphism; PreconditionError, naming the
    automaton, when it carries none."""
    if spec.morphism is None:
        raise PreconditionError("automaton %s carries no morphism" % spec.name)
    return spec.morphism


def decide_hproper_membership(
    spec: AutomatonSpec,
    word: Word,
    limits: Limits = DEFAULT_LIMITS,
    memo: Optional[dict] = None,
) -> tuple[Decision, Optional[Word]]:
    """Decide h-proper membership of an input word and return the witness
    extended version.

    A word v is h-proper iff some preimage w with h(w) = v (chosen
    letter-by-letter, so |w| = |v|) lies in the basic language.  The
    preimages are the candidates of ``decide_first_member``, each position
    trying its preimage symbols in sorted order, so all candidates share
    one basic-membership memo and each gets the whole ``limits``.  On a
    deterministic automaton each candidate resumes the previous one's first
    scan after the letters they share, and a candidate whose first phase
    rejected it on a prefix rules out, unexplored, every candidate with that
    prefix (except on a shrinking automaton); neither changes the answer,
    the tripped limit or ``configs_explored``, which sums the candidates
    decided.
    """
    inverse: dict[str, list[str]] = {}
    for sym, image in require_morphism(spec).items():
        inverse.setdefault(image, []).append(sym)
    preimages = []
    for tok in word:
        if tok not in spec.input_alphabet:
            raise SymbolError("symbol %r is not an input symbol" % tok)
        preimages.append(sorted(inverse.get(tok, ())))
    return decide_first_member(spec, preimages, limits, memo)


BRUTE_WORD_BUDGET = 300_000


def tail_confined_bound(spec: AutomatonSpec) -> Optional[int]:
    """Length bound on tail-accepted words, when one is syntactically
    evident: if every accepting table entry's window shows both sentinels,
    only whole words of at most window-2 symbols can be accepted without a
    rewrite.  Returns None when no such bound is apparent."""
    for (_, window), instrs in spec.table.items():
        for ins in instrs:
            if ins.kind == ACCEPT:
                if LEFT_SENTINEL not in window or RIGHT_SENTINEL not in window:
                    return None
    return max(0, spec.window - 2)


def _domain_size(alphabet_size: int, max_len: int) -> int:
    total = 0
    for n in range(max_len + 1):
        total += alphabet_size ** n
        if total > BRUTE_WORD_BUDGET:
            return total
    return total


def enumerate_language(
    spec: AutomatonSpec,
    query: LanguageQuery,
    strategy: str = "auto",
) -> list[Word]:
    """Enumerate a language kind up to the length bound.

    "brute" decides every word of the domain.  "closure" builds the basic
    members by inverse cycle-rewriting from the short ones, which requires
    that tail acceptance is confined to short words (checked syntactically
    via tail_confined_bound; PreconditionError when it is not).  "auto"
    uses brute force while the domain is small and falls back to the
    closure when the confinement bound is evident, failing with
    ResourcesExceeded otherwise.
    """
    kind = query.kind
    alphabet = spec.input_alphabet if kind == "input" else spec.work_alphabet
    if strategy not in ("brute", "closure", "auto"):
        raise PreconditionError("unknown enumeration strategy %r" % strategy)
    morphism = require_morphism(spec) if kind == "hproper" else None
    if strategy == "auto":
        # The basic domain is what gets decided for the projected kinds.
        if _domain_size(len(alphabet), query.max_len) <= BRUTE_WORD_BUDGET:
            strategy = "brute"
        elif tail_confined_bound(spec) is not None:
            strategy = "closure"
        else:
            raise ResourcesExceeded(
                "domain too large for brute enumeration and tail acceptance "
                "is not syntactically confined; use the closure enumerator "
                "with an explicit seed length"
            )
    if strategy == "closure":
        bound = tail_confined_bound(spec)
        if bound is None:
            raise PreconditionError(
                "automaton %s: tail acceptance is not syntactically confined, "
                "which the closure enumeration requires" % spec.name
            )
        seed = min(query.max_len, max(spec.window, bound))
        basics = enumerate_basic_by_reduction(
            spec, query.max_len, seed_len=seed, limits=query.limits
        )
        if kind == "input":
            sigma = spec.input_alphabet
            return [w for w in basics if all(tok in sigma for tok in w)]
    else:
        memo: dict = {}
        basics = []
        for w in words_over(alphabet, query.max_len):
            d = decide_basic_membership(spec, w, query.limits, memo=memo)
            require_decided(d, w)
            if d.is_member:
                basics.append(w)
    if kind in ("input", "basic"):
        return basics
    if kind == "proper":
        images = {
            project(w, spec.input_alphabet, spec.work_alphabet) for w in basics
        }
    else:
        images = {apply_morphism(morphism, w) for w in basics}
    return sorted(images, key=lambda w: (len(w), w))


@dataclass
class Comparison:
    equal: bool
    max_len: int
    counterexample: Optional[Word] = None
    only_in: Optional[str] = None   # "left" or "right"

    def describe(self) -> str:
        if self.equal:
            return "equal up to length %d" % self.max_len
        return "counterexample %s (only in %s)" % (
            render_word(self.counterexample),
            self.only_in,
        )


def compare_languages(
    spec_a: AutomatonSpec,
    query_a: LanguageQuery,
    spec_b: AutomatonSpec,
    query_b: LanguageQuery,
) -> Comparison:
    """First length-lexicographic word in the symmetric difference of two
    enumerations, or an equality verdict.  Both queries must use the same
    length bound."""
    if query_a.max_len != query_b.max_len:
        raise PreconditionError("comparison requires equal length bounds")
    words_a = enumerate_language(spec_a, query_a)
    words_b = enumerate_language(spec_b, query_b)
    return compare_word_sets(words_a, words_b, query_a.max_len)


def compare_with_oracle(
    spec: AutomatonSpec,
    query: LanguageQuery,
    oracle: Callable[[Word], bool],
    oracle_alphabet: Iterable[str],
) -> Comparison:
    """Compare an enumeration against a predicate over a given alphabet."""
    words = enumerate_language(spec, query)
    expected = [w for w in words_over(oracle_alphabet, query.max_len) if oracle(w)]
    return compare_word_sets(words, expected, query.max_len)


def compare_word_sets(left: Iterable[Word], right: Iterable[Word], max_len: int) -> Comparison:
    left_set, right_set = set(left), set(right)
    diff = left_set ^ right_set
    if not diff:
        return Comparison(True, max_len)
    witness = min(diff, key=lambda w: (len(w), w))
    return Comparison(
        False,
        max_len,
        counterexample=witness,
        only_in="left" if witness in left_set else "right",
    )


def enumerate_basic_by_reduction(
    spec: AutomatonSpec,
    max_len: int,
    seed_len: int,
    limits: Limits = DEFAULT_LIMITS,
) -> list[Word]:
    """Enumerate the basic language up to ``max_len`` by closing the set of
    short members under inverse cycle-rewriting.

    Soundness requires that no word longer than ``seed_len`` is accepted in a
    tail; under that assumption every longer member performs a first cycle
    whose successor is again a member, so working upward from the seeds by
    splicing rewrite rules back in (composed up to the mr degree) and keeping
    every candidate with a member among its cycle successors reaches exactly
    the members.  This makes bounds feasible where the working alphabet is
    too large for the brute-force enumerator; callers are responsible for the
    tail confinement assumption (it holds by construction for the automata
    built by the constructions module and for the reduction-style catalog
    entries).
    """
    memo: dict = {}
    members: set[Word] = set()
    for w in words_over(spec.work_alphabet, seed_len):
        d = decide_basic_membership(spec, w, limits, memo=memo)
        require_decided(d, w)
        if d.is_member:
            members.add(w)

    rules = sorted(set(spec.sl_pairs()))
    weights = spec.weights if spec.flags.shrinking else None

    def level_of(w: Word) -> int:
        return word_weight(weights, w) if weights is not None else len(w)

    def inverse_splices(w: Word) -> set[Word]:
        """Words x such that one rewrite application on the tape of x can
        yield the tape of w."""
        tape = (LEFT_SENTINEL,) + w + (RIGHT_SENTINEL,)
        out = set()
        for u, v in rules:
            lv = len(v)
            for p in range(len(tape) - lv + 1):
                if tape[p : p + lv] != v:
                    continue
                candidate = tape[:p] + u + tape[p + lv :]
                if candidate[0] != LEFT_SENTINEL or candidate[-1] != RIGHT_SENTINEL:
                    continue
                inner = candidate[1:-1]
                if LEFT_SENTINEL in inner or RIGHT_SENTINEL in inner:
                    continue
                if len(inner) <= max_len:
                    out.add(inner)
        return out

    frontier = set(members)
    while frontier:
        candidates: set[Word] = set()
        for w in frontier:
            layer = {w}
            for _ in range(spec.flags.mr_degree):
                grown: set[Word] = set()
                for base in layer:
                    grown |= inverse_splices(base)
                candidates |= grown
                layer = grown
        candidates -= members
        confirmed = set()
        for x in sorted(candidates, key=level_of):
            if any(record.to_word in members or record.to_word in confirmed
                   for record in cycle_rewrites(spec, x, limits)):
                confirmed.add(x)
        members |= confirmed
        frontier = confirmed
    return sorted(members, key=lambda w: (len(w), w))
