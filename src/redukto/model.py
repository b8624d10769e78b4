"""Core model: alphabets, morphisms, instructions, transition tables, automaton
specifications and GNF grammars, with syntactic validation and rewrite
classification.

Words are tuples of symbol tokens.  A token is a non-empty string without
whitespace; tuple symbols such as ``(3,a)`` and hatted symbols such as ``a^``
are single tokens.  The sentinels are the two reserved tokens ``LEFT_SENTINEL``
and ``RIGHT_SENTINEL``; they are never members of a working alphabet.

All model objects are immutable after construction and safe to share between
threads; none of the operations in this module mutate their arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

LEFT_SENTINEL = "¢"   # workspace left marker, rendered as ^ in files
RIGHT_SENTINEL = "$"       # workspace right marker

Word = tuple[str, ...]


class ReduktoError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(ReduktoError):
    """An operation was called outside its stated precondition."""


class SymbolError(ReduktoError):
    """A word contains a token outside the relevant alphabet."""


# Instruction kinds.
MVR = "MVR"
MVL = "MVL"
SL = "SL"
RESTART = "Restart"
ACCEPT = "Accept"
REJECT = "Reject"

_KIND_RANK = {MVR: 0, MVL: 1, SL: 2, RESTART: 3, ACCEPT: 4, REJECT: 5}


class Instruction(NamedTuple):
    """One entry of the transition table.

    ``state`` is the successor state for MVR/MVL/SL and None for the
    terminal kinds (Restart re-enters the initial state by definition).
    ``target`` is the replacement word of an SL step, None otherwise.
    """

    kind: str
    state: Optional[str] = None
    target: Optional[Word] = None

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.state or "", self.target or ())


def mvr(state: str) -> Instruction:
    return Instruction(MVR, state)


def mvl(state: str) -> Instruction:
    return Instruction(MVL, state)


def sl(state: str, target: Iterable[str]) -> Instruction:
    return Instruction(SL, state, tuple(target))


def restart() -> Instruction:
    return Instruction(RESTART)


def accept() -> Instruction:
    return Instruction(ACCEPT)


def reject() -> Instruction:
    return Instruction(REJECT)


@dataclass(frozen=True)
class ClassFlags:
    """Subtype of an automaton: declared on a spec and verified by
    validate_automaton, or inferred from a table by classify_automaton.

    direction: "R" restarts immediately after a rewrite, "RR" never moves
    left, "RL" is the unrestricted two-way form.
    form: "SL" arbitrary length-reducing rewrites, "DL" deletions of a
    scattered subsequence, "CL" deletions of at most two contiguous blocks.
    aux: "none" and "W" both require the working alphabet to equal the input
    alphabet; "WW" admits auxiliary symbols.
    mr_degree: cap on rewrite steps per cycle (1 for the plain model).
    shrinking: rewrites need not shorten the tape; a weight function must
    decrease per cycle instead.
    """

    direction: str = "RL"
    form: str = "SL"
    aux: str = "WW"
    deterministic: bool = False
    mr_degree: int = 1
    shrinking: bool = False

    def label(self) -> str:
        if self.aux == "WW":
            suffix = {"SL": "WW", "DL": "WWD", "CL": "WWC"}[self.form]
        else:
            suffix = {"SL": "W", "DL": "", "CL": "C"}[self.form]
        base = self.direction + suffix
        parts = []
        if self.deterministic:
            parts.append("det")
        if self.shrinking:
            base = "s" + base
        if self.mr_degree > 1:
            base = "mr" + base + "(%d)" % self.mr_degree
        parts.append(base)
        return "-".join(parts)


class ReadOnlyDict(dict):
    """A dict that raises TypeError on every in-place change.  Lookups stay
    plain dict lookups: the step loops look up the table at every step, and
    a ``types.MappingProxyType`` view made them measurably slower."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("%s is read-only" % type(self).__name__)

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


TableKey = tuple[str, Word]
Table = Mapping[TableKey, tuple[Instruction, ...]]


@dataclass(frozen=True)
class AutomatonSpec:
    """A restarting automaton over atomic symbol tokens.

    The table maps (state, window content) to the tuple of applicable
    instructions, kept in a canonical order so that searches are
    reproducible.  ``morphism`` (h) maps every working symbol to an input
    symbol and is the identity on input symbols; ``weights`` assigns a
    positive integer to every working symbol.  Both are optional.  The
    table, morphism and weights are held as ``ReadOnlyDict`` copies.

    Under the deterministic flag each table entry is the step a run takes,
    and a table that offers a choice or an instruction that the step
    relation refuses raises PreconditionError (see ``_misfits``).
    """

    name: str
    states: frozenset[str]
    initial: str
    window: int
    input_alphabet: frozenset[str]
    work_alphabet: frozenset[str]
    table: Table
    flags: ClassFlags = field(default_factory=ClassFlags)
    morphism: Optional[Mapping[str, str]] = None
    weights: Optional[Mapping[str, int]] = None

    def __post_init__(self):
        norm = {}
        for key, instrs in self.table.items():
            state, window = key
            ordered = tuple(sorted(set(instrs), key=Instruction.sort_key))
            norm[(state, tuple(window))] = ordered
        if self.flags.deterministic:
            for key in sorted(norm):
                for message in _misfits(*key, norm[key], True):
                    raise PreconditionError(message)
        object.__setattr__(self, "table", ReadOnlyDict(norm))
        for name in ("morphism", "weights"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, ReadOnlyDict(value))

    def sl_pairs(self) -> list[tuple[Word, Word]]:
        """All (window, target) pairs of SL instructions in the table."""
        pairs = []
        for (state, window), instrs in self.table.items():
            for ins in instrs:
                if ins.kind == SL:
                    pairs.append((window, ins.target))
        return pairs


def _misfits(state: str, window: Word, instrs: tuple[Instruction, ...],
             deterministic: bool) -> Iterator[str]:
    """Why the table entry at (``state``, ``window``) is not the step a run
    takes: a choice under the deterministic flag, or an instruction that
    the step relation never offers, an MVR at the right sentinel alone or an
    MVL at a window that starts with the left sentinel."""
    if deterministic and len(instrs) > 1:
        yield "deterministic flag but %d instructions at %s" % (len(instrs), _where(state, window))
    for ins in instrs:
        if ins.kind == MVR and window == (RIGHT_SENTINEL,):
            yield "MVR on right-sentinel-only window at %s" % _where(state, window)
        if ins.kind == MVL and window[:1] == (LEFT_SENTINEL,):
            yield "MVL with window at the left sentinel at %s" % _where(state, window)


def _where(state: str, window: Word) -> str:
    return "(%s, %s)" % (state, render_word(window))


def all_window_contents(k: int, alphabet) -> Iterator[Word]:
    """Every legal content of a size-k window over the given alphabet."""
    syms = sorted(alphabet)
    for body in itertools.product(syms, repeat=k):
        yield body
    for body in itertools.product(syms, repeat=k - 1):
        yield (LEFT_SENTINEL,) + body
    for n in range(k):
        for body in itertools.product(syms, repeat=n):
            yield body + (RIGHT_SENTINEL,)
    for n in range(max(0, k - 1)):
        for body in itertools.product(syms, repeat=n):
            yield (LEFT_SENTINEL,) + body + (RIGHT_SENTINEL,)


def is_window_content(word: Word, k: int, work_alphabet: frozenset[str]) -> bool:
    """Whether ``word`` is a legal content of a size-``k`` window.

    A content is at most k tokens, the left sentinel may appear only first,
    the right sentinel only last, every other token is a working symbol, and
    a content that shows no sentinel is exactly k tokens long (the window is
    full except at the workspace borders).
    """
    n = len(word)
    if n == 0 or n > k:
        return False
    for i, tok in enumerate(word):
        if tok == LEFT_SENTINEL:
            if i != 0:
                return False
        elif tok == RIGHT_SENTINEL:
            if i != n - 1:
                return False
        elif tok not in work_alphabet:
            return False
    if word[0] == LEFT_SENTINEL or word[-1] == RIGHT_SENTINEL:
        return True
    return n == k


def rewrite_target_issues(
    u: Word,
    v: Word,
    work_alphabet: frozenset[str],
    shrinking: bool = False,
) -> tuple[list[str], list[str]]:
    """(violations, deviations) for an SL instruction replacing u by v.

    The target must place sentinels like a window content, carry exactly the
    sentinels of u, and be strictly shorter than u (unless the automaton is
    shrinking, in which case any length is admitted and the weight function
    carries the progress argument).  An empty target is admitted only when u
    shows no sentinel; it is reported as a deviation, not a violation.
    """
    violations: list[str] = []
    deviations: list[str] = []
    for i, tok in enumerate(v):
        if tok == LEFT_SENTINEL:
            if i != 0:
                violations.append("left sentinel not first in target %s" % render_word(v))
        elif tok == RIGHT_SENTINEL:
            if i != len(v) - 1:
                violations.append("right sentinel not last in target %s" % render_word(v))
        elif tok not in work_alphabet:
            violations.append("target symbol %r outside working alphabet" % tok)
    u_left, u_right = LEFT_SENTINEL in u, RIGHT_SENTINEL in u
    v_left, v_right = LEFT_SENTINEL in v, RIGHT_SENTINEL in v
    if (u_left, u_right) != (v_left, v_right):
        violations.append(
            "sentinel mismatch between %s and target %s" % (render_word(u), render_word(v))
        )
    if not shrinking and len(v) >= len(u):
        violations.append(
            "SL target not shorter: %s -> %s" % (render_word(u), render_word(v))
        )
    if len(v) == 0:
        if u_left or u_right:
            violations.append("empty target for sentinel-bearing window %s" % render_word(u))
        else:
            deviations.append(
                "empty rewrite target for window %s (window is deleted entirely)"
                % render_word(u)
            )
    return violations, deviations


# Rewrite classification results.
CL_FORM = "CL"
DL_NOT_CL = "DL-not-CL"
SL_NOT_DL = "SL-not-DL"
ILLEGAL = "illegal"

# Declared rewrite forms, strictest first, and the rank of each rewrite
# classification among them; an illegal rewrite ranks as SL.
FORMS = ("CL", "DL", "SL")
_FORM_RANK = {CL_FORM: 0, DL_NOT_CL: 1, SL_NOT_DL: 2, ILLEGAL: 2}


def contextual_deletions(u: Word) -> set[Word]:
    """Every word made from ``u`` by deleting one or two nonempty blocks of
    contiguous non-sentinel cells: the rewrites of (Marcus) contextual form."""
    u = tuple(u)
    blocks = []
    for i in range(len(u)):
        for j in range(i + 1, len(u) + 1):
            if u[j - 1] == LEFT_SENTINEL or u[j - 1] == RIGHT_SENTINEL:
                break
            blocks.append((i, j))
    out = set()
    for i, j in blocks:
        out.add(u[:i] + u[j:])
        for i2, j2 in blocks:
            if i2 > j:
                out.add(u[:i] + u[j:i2] + u[j2:])
    return out


def classify_rewrite(u: Word, v: Word) -> str:
    """Classify the rewrite u -> v as CL, DL-not-CL, SL-not-DL or illegal.

    CL: v is one of the contextual_deletions of u.  DL-not-CL: v is a
    subsequence of u that keeps every sentinel cell, but needs three or more
    deleted blocks.  SL-not-DL: strictly shorter but no such subsequence.
    illegal: not shorter, or the sentinels differ.
    """
    u, v = tuple(u), tuple(v)
    if len(v) >= len(u):
        return ILLEGAL
    if (LEFT_SENTINEL in u) != (LEFT_SENTINEL in v):
        return ILLEGAL
    if (RIGHT_SENTINEL in u) != (RIGHT_SENTINEL in v):
        return ILLEGAL
    if (u and u[0] == LEFT_SENTINEL) and (v and v[0] != LEFT_SENTINEL):
        return ILLEGAL
    if (u and u[-1] == RIGHT_SENTINEL) and (v and v[-1] != RIGHT_SENTINEL):
        return ILLEGAL
    if v in contextual_deletions(u):
        return CL_FORM
    # Matching each cell of u to the next cell of v as early as possible
    # finds an embedding whenever one exists; only sentinels may not be
    # skipped.
    j = 0
    for tok in u:
        if j < len(v) and tok == v[j]:
            j += 1
        elif tok == LEFT_SENTINEL or tok == RIGHT_SENTINEL:
            return SL_NOT_DL
    return DL_NOT_CL if j == len(v) else SL_NOT_DL


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    deviations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_automaton(spec: AutomatonSpec) -> ValidationReport:
    """Check the structural legality of a specification.

    The report lists every violation found; an empty violation list means the
    spec is legal.  Deviations record accepted-but-flagged constructs (empty
    rewrite targets).
    """
    bad: list[str] = []
    deviations: list[str] = []

    if spec.window < 1:
        bad.append("window size must be at least 1")
    if spec.initial not in spec.states:
        bad.append("initial state %r not among states" % spec.initial)
    if not spec.input_alphabet <= spec.work_alphabet:
        extra = sorted(spec.input_alphabet - spec.work_alphabet)
        bad.append("input symbols outside working alphabet: %s" % " ".join(extra))
    for tok in sorted(spec.work_alphabet):
        if tok in (LEFT_SENTINEL, RIGHT_SENTINEL):
            bad.append("sentinel %r used as working symbol" % tok)
        if not tok or any(c.isspace() for c in tok):
            bad.append("malformed symbol token %r" % tok)

    flags = spec.flags
    if flags.aux in ("none", "W") and spec.work_alphabet != spec.input_alphabet:
        bad.append("aux=%s requires the working alphabet to equal the input alphabet" % flags.aux)
    if flags.mr_degree < 1:
        bad.append("mr-degree must be positive")

    sl_next_states = set()
    for (state, window), instrs in sorted(spec.table.items()):
        where = _where(state, window)
        if state not in spec.states:
            bad.append("table state %r unknown at %s" % (state, where))
        if not is_window_content(window, spec.window, spec.work_alphabet):
            bad.append("malformed window content at %s" % where)
        bad.extend(_misfits(state, window, instrs, flags.deterministic))
        for ins in instrs:
            if ins.kind in (MVR, MVL, SL):
                if ins.state not in spec.states:
                    bad.append("unknown successor state %r at %s" % (ins.state, where))
            if ins.kind == MVL and flags.direction in ("R", "RR"):
                bad.append("MVL instruction under direction %s at %s" % (flags.direction, where))
            if ins.kind == SL:
                sl_next_states.add(ins.state)
                tv, td = rewrite_target_issues(
                    window, ins.target, spec.work_alphabet, flags.shrinking
                )
                bad.extend(tv)
                deviations.extend(td)
                form = classify_rewrite(window, ins.target)
                if flags.form == "DL" and form in (SL_NOT_DL, ILLEGAL) and not flags.shrinking:
                    bad.append("non-deletion rewrite under DL form at %s" % where)
                if flags.form == "CL" and form != CL_FORM and not flags.shrinking:
                    bad.append(
                        "rewrite at %s classifies as %s under CL form" % (where, form)
                    )

    if flags.direction == "R":
        for (state, window), instrs in sorted(spec.table.items()):
            if state in sl_next_states:
                for ins in instrs:
                    if ins.kind != RESTART:
                        bad.append(
                            "direction R but post-rewrite state %r admits %s"
                            % (state, ins.kind)
                        )

    if spec.morphism is not None:
        h = spec.morphism
        for tok in sorted(spec.work_alphabet):
            if tok not in h:
                bad.append("morphism not total: no image for %r" % tok)
        for tok, image in sorted(h.items()):
            if tok not in spec.work_alphabet:
                bad.append("morphism defined on unknown symbol %r" % tok)
            if image not in spec.input_alphabet:
                bad.append("morphism image %r of %r is not an input symbol" % (image, tok))
            if tok in spec.input_alphabet and image != tok:
                bad.append("morphism not the identity on input symbol %r" % tok)

    if spec.weights is not None:
        for tok in sorted(spec.work_alphabet):
            if tok not in spec.weights:
                bad.append("weight function not total: no weight for %r" % tok)
        for tok, w in sorted(spec.weights.items()):
            if not isinstance(w, int) or w < 1:
                bad.append("weight of %r must be a positive integer" % tok)

    return ValidationReport(tuple(bad), tuple(deviations))


def classify_automaton(spec: AutomatonSpec) -> ClassFlags:
    """Infer the strongest flags the table supports.

    Determinism by whether the table could be built under the flag;
    direction by MVL usage and by whether every post-rewrite state admits
    only restarts; rewrite form from the weakest classification over all SL
    instructions; aux from whether the working alphabet exceeds the input
    alphabet.  The mr degree and the shrinking flag are taken from the
    declared flags (they constrain runs, not the table shape).
    """
    deterministic = not any(any(_misfits(*key, instrs, True)) for key, instrs in spec.table.items())
    uses_mvl = any(
        ins.kind == MVL for instrs in spec.table.values() for ins in instrs
    )
    sl_states = {
        ins.state
        for instrs in spec.table.values()
        for ins in instrs
        if ins.kind == SL
    }
    restart_only_after_sl = all(
        all(ins.kind == RESTART for ins in instrs)
        for (state, _), instrs in spec.table.items()
        if state in sl_states
    )
    if uses_mvl:
        direction = "RL"
    elif restart_only_after_sl:
        direction = "R"
    else:
        direction = "RR"
    rank = max((_FORM_RANK[classify_rewrite(u, v)] for u, v in spec.sl_pairs()), default=0)
    aux = "WW" if spec.work_alphabet != spec.input_alphabet else "none"
    return ClassFlags(
        direction=direction,
        form=FORMS[rank],
        aux=aux,
        deterministic=deterministic,
        mr_degree=spec.flags.mr_degree,
        shrinking=spec.flags.shrinking,
    )


def project(word: Iterable[str], input_alphabet: frozenset[str],
            work_alphabet: frozenset[str]) -> Word:
    """Erase auxiliary symbols, keeping input symbols in order."""
    out = []
    for tok in word:
        if tok not in work_alphabet:
            raise SymbolError("symbol %r outside working alphabet" % tok)
        if tok in input_alphabet:
            out.append(tok)
    return tuple(out)


def apply_morphism(h: Mapping[str, str], word: Iterable[str]) -> Word:
    """Length-preserving letter-to-letter image of a word under h."""
    out = []
    for tok in word:
        if tok not in h:
            raise SymbolError("symbol %r outside the morphism domain" % tok)
        out.append(h[tok])
    return tuple(out)


def word_weight(weights: Mapping[str, int], word: Iterable[str]) -> int:
    """Additive extension of a symbol weight function (empty word weighs 0)."""
    total = 0
    for tok in word:
        if tok not in weights:
            raise SymbolError("symbol %r outside the weight domain" % tok)
        total += weights[tok]
    return total


def render_word(word: Word) -> str:
    """Readable form of a word: tokens concatenated when every token is a
    single character, whitespace-joined otherwise; the empty word shows as
    the empty-target marker."""
    if not word:
        return "-"
    if all(len(tok) == 1 for tok in word):
        return "".join(word)
    return " ".join(word)


class GnfRule(NamedTuple):
    lhs: str
    head: str
    tail: tuple[str, ...]


@dataclass(frozen=True)
class GnfGrammar:
    """A grammar in Greibach normal form with dense, stable rule numbering.

    Rule i is ``rules[i-1]``; every rule has the shape A -> a alpha with a
    terminal head and a (possibly empty) nonterminal tail, so the grammar
    cannot derive the empty word.
    """

    name: str
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    start: str
    rules: tuple[GnfRule, ...]

    def __post_init__(self):
        if self.start not in self.nonterminals:
            raise PreconditionError("start symbol %r is not a nonterminal" % self.start)
        if self.nonterminals & self.terminals:
            raise PreconditionError("nonterminals and terminals overlap")
        if not self.rules:
            raise PreconditionError("grammar has no rules")
        for idx, rule in enumerate(self.rules, start=1):
            if rule.lhs not in self.nonterminals:
                raise PreconditionError("rule %d: unknown nonterminal %r" % (idx, rule.lhs))
            if rule.head not in self.terminals:
                raise PreconditionError("rule %d: head %r is not a terminal" % (idx, rule.head))
            for sym in rule.tail:
                if sym not in self.nonterminals:
                    raise PreconditionError(
                        "rule %d: tail symbol %r is not a nonterminal" % (idx, sym)
                    )

    def rule(self, number: int) -> GnfRule:
        if not 1 <= number <= len(self.rules):
            raise PreconditionError("no rule numbered %d" % number)
        return self.rules[number - 1]

    def rules_for(self, nonterminal: str) -> list[tuple[int, GnfRule]]:
        return [
            (i, r) for i, r in enumerate(self.rules, start=1) if r.lhs == nonterminal
        ]
