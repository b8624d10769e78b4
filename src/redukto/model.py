"""Core model: alphabets, morphisms, instructions, transition tables, automaton
specifications and GNF grammars, with rewrite classification.  An
automaton specification, and its class flags, is legal once it is built:
one that breaks a rule raises PreconditionError.

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


# The domains of the class flags.
DIRECTIONS = ("R", "RR", "RL")
# Declared rewrite forms, strictest first.
FORMS = ("CL", "DL", "SL")
AUXES = ("none", "W", "WW")


@dataclass(frozen=True)
class ClassFlags:
    """Subtype of an automaton: declared on a spec and verified when the
    spec is built, or inferred from a table by classify_automaton.

    direction: "R" restarts immediately after a rewrite, "RR" never moves
    left, "RL" is the unrestricted two-way form.
    form: "SL" arbitrary length-reducing rewrites, "DL" deletions of a
    scattered subsequence, "CL" deletions of at most two contiguous blocks.
    aux: "none" and "W" both require the working alphabet to equal the input
    alphabet; "WW" admits auxiliary symbols.
    mr_degree: cap on rewrite steps per cycle (1 for the plain model).
    shrinking: rewrites need not shorten the tape; a weight function must
    decrease per cycle instead.

    A value outside its domain, or an mr degree below 1, raises
    PreconditionError when the flags are built.
    """

    direction: str = "RL"
    form: str = "SL"
    aux: str = "WW"
    deterministic: bool = False
    mr_degree: int = 1
    shrinking: bool = False

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise PreconditionError("bad direction %r" % self.direction)
        if self.form not in FORMS:
            raise PreconditionError("bad rewrite form %r" % self.form)
        if self.aux not in AUXES:
            raise PreconditionError("bad aux marker %r" % self.aux)
        if self.mr_degree < 1:
            raise PreconditionError("mr-degree must be positive")

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

    A spec is legal once it is built: every window is a window content,
    every rewrite keeps the sentinels in place and shortens its window
    (unless the spec is shrinking), every instruction is a step that some
    run can take, and under the deterministic flag each entry holds at most
    one.  A spec that breaks one of the rules (see ``_violation``), built
    directly or by ``dataclasses.replace``, raises PreconditionError naming
    the first rule it breaks.
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
        for (state, window), instrs in self.table.items():
            if len(instrs) > 1:
                instrs = sorted(set(instrs), key=Instruction.sort_key)
            norm[(state, tuple(window))] = tuple(instrs)
        object.__setattr__(self, "table", ReadOnlyDict(norm))
        for name in ("morphism", "weights"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, ReadOnlyDict(value))
        message = _violation(self)
        if message is not None:
            raise PreconditionError(message)

    def sl_pairs(self) -> list[tuple[Word, Word]]:
        """All (window, target) pairs of SL instructions in the table."""
        pairs = []
        for (state, window), instrs in self.table.items():
            for ins in instrs:
                if ins.kind == SL:
                    pairs.append((window, ins.target))
        return pairs


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
    left, right = word[0] == LEFT_SENTINEL, word[-1] == RIGHT_SENTINEL
    body = word[left:n - right]
    return (work_alphabet.issuperset(body) and LEFT_SENTINEL not in body
            and RIGHT_SENTINEL not in body and (left or right or n == k))


# Rewrite classification results.
CL_FORM = "CL"
DL_NOT_CL = "DL-not-CL"
SL_NOT_DL = "SL-not-DL"
ILLEGAL = "illegal"

# The rank of each rewrite classification among the declared forms; an
# illegal rewrite ranks as SL.
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


def _violation(spec: AutomatonSpec) -> Optional[str]:
    """The first rule of a legal spec that ``spec`` breaks, or None.  The
    rules are listed in order: the spec's own, then its table entries' in
    key order (see ``_entry_fault``), then the restarts of direction R, the
    morphism and the weights.

    Each distinct window is checked once, and only the least entry that
    breaks a rule is looked at again to word the message."""
    if spec.window < 1:
        return "window size must be at least 1"
    if spec.initial not in spec.states:
        return "initial state %r not among states" % spec.initial
    if not spec.input_alphabet <= spec.work_alphabet:
        extra = sorted(spec.input_alphabet - spec.work_alphabet)
        return "input symbols outside working alphabet: %s" % " ".join(extra)
    for tok in sorted(spec.work_alphabet):
        if tok in (LEFT_SENTINEL, RIGHT_SENTINEL):
            return "sentinel %r used as working symbol" % tok
        if not tok or any(c.isspace() for c in tok):
            return "malformed symbol token %r" % tok

    flags, table = spec.flags, spec.table
    if flags.aux in ("none", "W") and spec.work_alphabet != spec.input_alphabet:
        return "aux=%s requires the working alphabet to equal the input alphabet" % flags.aux

    bad_windows = {window for window in {window for _, window in table}
                   if not is_window_content(window, spec.window, spec.work_alphabet)}
    faulty = [key for key, instrs in table.items()
              if _entry_fault(spec, *key, instrs, bad_windows) is not None]
    if faulty:
        key = min(faulty)
        return _entry_fault(spec, *key, table[key], bad_windows)

    if flags.direction == "R":
        steps = list(_steps_after_rewrite(table))
        if steps:
            (state, _), kind = min(steps, key=lambda step: step[0])
            return "direction R but post-rewrite state %r admits %s" % (state, kind)

    if spec.morphism is not None:
        h = spec.morphism
        for tok in sorted(spec.work_alphabet):
            if tok not in h:
                return "morphism not total: no image for %r" % tok
        for tok, image in sorted(h.items()):
            if tok not in spec.work_alphabet:
                return "morphism defined on unknown symbol %r" % tok
            if image not in spec.input_alphabet:
                return "morphism image %r of %r is not an input symbol" % (image, tok)
            if tok in spec.input_alphabet and image != tok:
                return "morphism not the identity on input symbol %r" % tok

    if spec.weights is not None:
        for tok in sorted(spec.work_alphabet):
            if tok not in spec.weights:
                return "weight function not total: no weight for %r" % tok
        for tok, w in sorted(spec.weights.items()):
            if not isinstance(w, int) or w < 1:
                return "weight of %r must be a positive integer" % tok
    return None


def _entry_fault(spec: AutomatonSpec, state: str, window: Word,
                 instrs: tuple[Instruction, ...], bad_windows: set[Word]) -> Optional[str]:
    """The first rule that the table entry at (``state``, ``window``)
    breaks, or None; ``bad_windows`` holds the table's windows that are not
    window contents.

    Besides naming known states and a window content, an entry holds only
    steps that a run can take: one at most under the deterministic flag, no
    MVR at the right sentinel alone, no MVL at a window that starts with the
    left sentinel and none under direction R or RR, and rewrites whose
    targets keep the window's sentinels in place and, when the form is
    declared DL or CL on a spec that is not shrinking, have that form."""
    if state not in spec.states:
        return "table state %r unknown at %s" % (state, _where(state, window))
    if window in bad_windows:
        return "malformed window content at %s" % _where(state, window)
    flags = spec.flags
    if flags.deterministic and len(instrs) > 1:
        return "deterministic flag but %d instructions at %s" % (len(instrs), _where(state, window))
    for ins in instrs:
        if ins.kind == MVR and window == (RIGHT_SENTINEL,):
            return "MVR on right-sentinel-only window at %s" % _where(state, window)
        if ins.kind == MVL and window[0] == LEFT_SENTINEL:
            return "MVL with window at the left sentinel at %s" % _where(state, window)
    for ins in instrs:
        kind = ins.kind
        if kind in (MVR, MVL, SL) and ins.state not in spec.states:
            return "unknown successor state %r at %s" % (ins.state, _where(state, window))
        if kind == MVL and flags.direction != "RL":
            return "MVL instruction under direction %s at %s" % (flags.direction, _where(state, window))
        if kind == SL:
            fault = _target_fault(window, ins.target, spec.work_alphabet, flags.shrinking)
            if fault is not None:
                return fault
            if flags.form != "SL" and not flags.shrinking:
                form = classify_rewrite(window, ins.target)
                if flags.form == "DL" and form == SL_NOT_DL:
                    return "non-deletion rewrite under DL form at %s" % _where(state, window)
                if flags.form == "CL" and form != CL_FORM:
                    return "rewrite at %s classifies as %s under CL form" % (_where(state, window), form)
    return None


def _target_fault(u: Word, v: Word, work_alphabet: frozenset[str],
                  shrinking: bool) -> Optional[str]:
    """The first rule that an SL instruction replacing u by v breaks, or
    None.

    The target must place sentinels like a window content, carry exactly the
    sentinels of u, and be strictly shorter than u (unless the automaton is
    shrinking, in which case any length is admitted and the weight function
    carries the progress argument).  An empty target is admitted only when u
    shows no sentinel; that rule is named before the sentinel mismatch it
    implies."""
    for i, tok in enumerate(v):
        if tok == LEFT_SENTINEL:
            if i != 0:
                return "left sentinel not first in target %s" % render_word(v)
        elif tok == RIGHT_SENTINEL:
            if i != len(v) - 1:
                return "right sentinel not last in target %s" % render_word(v)
        elif tok not in work_alphabet:
            return "target symbol %r outside working alphabet" % tok
    u_left, u_right = LEFT_SENTINEL in u, RIGHT_SENTINEL in u
    if not v and (u_left or u_right):
        return "empty target for sentinel-bearing window %s" % render_word(u)
    if (u_left, u_right) != (LEFT_SENTINEL in v, RIGHT_SENTINEL in v):
        return "sentinel mismatch between %s and target %s" % (render_word(u), render_word(v))
    if not shrinking and len(v) >= len(u):
        return "SL target not shorter: %s -> %s" % (render_word(u), render_word(v))
    return None


def _where(state: str, window: Word) -> str:
    return "(%s, %s)" % (state, render_word(window))


def _steps_after_rewrite(table: Table) -> Iterator[tuple[TableKey, str]]:
    """(key, kind) for each instruction other than Restart at a state that
    a rewrite enters, in table order."""
    entered = {ins.state for instrs in table.values() for ins in instrs if ins.kind == SL}
    for key, instrs in table.items():
        if key[0] in entered:
            for ins in instrs:
                if ins.kind != RESTART:
                    yield key, ins.kind


def classify_automaton(spec: AutomatonSpec) -> ClassFlags:
    """Infer the strongest flags the table supports.

    Determinism by whether every table entry holds at most one instruction;
    direction by MVL usage and by whether every post-rewrite state admits
    only restarts; rewrite form from the weakest classification over all SL
    instructions; aux from whether the working alphabet exceeds the input
    alphabet.  The mr degree and the shrinking flag are taken from the
    declared flags (they constrain runs, not the table shape).
    """
    deterministic = all(len(instrs) <= 1 for instrs in spec.table.values())
    uses_mvl = any(
        ins.kind == MVL for instrs in spec.table.values() for ins in instrs
    )
    if uses_mvl:
        direction = "RL"
    elif not any(_steps_after_rewrite(spec.table)):
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
