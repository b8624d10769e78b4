"""Bit-exact, line-oriented text formats for automata and grammars.

Automaton files: sections name, class, window, input, work, morphism,
weight, states, initial, trans.  ``^`` denotes the left sentinel, ``$`` the
right one, ``-`` the empty rewrite target; symbols are whitespace-separated
tokens and comments start with ``#``.  Rendering is canonical (sorted
alphabets, states and transition lines) and parse(render(spec)) == spec.

Grammar files: sections name, nonterminals, terminals, start, and numbered
``rule i A -> a alpha`` lines with dense numbering from 1.
"""

from __future__ import annotations


from .model import (
    ACCEPT,
    AUXES,
    DIRECTIONS,
    FORMS,
    LEFT_SENTINEL,
    MVL,
    MVR,
    REJECT,
    RESTART,
    RIGHT_SENTINEL,
    SL,
    AutomatonSpec,
    ClassFlags,
    GnfGrammar,
    GnfRule,
    Instruction,
    PreconditionError,
    ReduktoError,
    Word,
)

LEFT_MARK = "^"
EMPTY_MARK = "-"
ARROW = "->"

class ParseError(ReduktoError):
    def __init__(self, message: str, line: int = 0):
        super().__init__("line %d: %s" % (line, message) if line else message)
        self.line = line


# The sections of an automaton or grammar file that take one line, and those
# that take one line per symbol.
_ONE_LINE = ("name", "class", "window", "input", "work", "states", "initial",
             "nonterminals", "terminals", "start")
_PER_SYMBOL = ("morphism", "weight")


def _lines(text: str):
    """(line number, head, rest) of each line that is not blank or a
    comment; ParseError on a second line that a section takes only once."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        head, rest = fields[0], fields[1:]
        if head in _ONE_LINE or head in _PER_SYMBOL:
            once = head if head in _ONE_LINE else " ".join(fields[:2])
            if once in seen:
                raise ParseError("%s given twice" % once, lineno)
            seen.add(once)
        yield lineno, head, rest


def _encode_token(tok: str) -> str:
    return LEFT_MARK if tok == LEFT_SENTINEL else tok


def _decode_token(tok: str) -> str:
    return LEFT_SENTINEL if tok == LEFT_MARK else tok


def _encode_word(word: Word) -> str:
    if not word:
        return EMPTY_MARK
    return " ".join(_encode_token(t) for t in word)


def render_automaton(spec: AutomatonSpec) -> str:
    f = spec.flags
    lines = [
        "name %s" % spec.name,
        "class %s %s %s %s j=%d%s" % (
            f.direction, f.form, f.aux,
            "det" if f.deterministic else "nondet",
            f.mr_degree,
            " shrinking" if f.shrinking else "",
        ),
        "window %d" % spec.window,
        "input %s" % " ".join(sorted(spec.input_alphabet)),
        "work %s" % " ".join(sorted(spec.work_alphabet)),
    ]
    if spec.morphism is not None:
        for tok in sorted(spec.morphism):
            lines.append("morphism %s %s" % (tok, spec.morphism[tok]))
    if spec.weights is not None:
        for tok in sorted(spec.weights):
            lines.append("weight %s %d" % (tok, spec.weights[tok]))
    lines.append("states %s" % " ".join(sorted(spec.states)))
    lines.append("initial %s" % spec.initial)
    for (state, window), instrs in sorted(
        spec.table.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1])
    ):
        for ins in instrs:
            if ins.kind in (MVR, MVL):
                tail = "%s %s" % (ins.kind, ins.state)
            elif ins.kind == SL:
                tail = "SL %s %s" % (ins.state, _encode_word(ins.target))
            else:
                tail = ins.kind
            lines.append("trans %s %s %s %s" % (state, _encode_word(window), ARROW, tail))
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> AutomatonSpec:
    name = None
    flags = None
    window = None
    input_alpha: list[str] = []
    work_alpha: list[str] = []
    morphism: dict[str, str] = {}
    weights: dict[str, int] = {}
    states: list[str] = []
    initial = None
    table: dict = {}

    for lineno, head, rest in _lines(text):
        if head == "name":
            if len(rest) != 1:
                raise ParseError("name takes one token", lineno)
            name = rest[0]
        elif head == "class":
            flags = _parse_class(rest, lineno)
        elif head == "window":
            if len(rest) != 1 or not _is_number(rest[0]):
                raise ParseError("window takes one positive integer", lineno)
            window = int(rest[0])
        elif head == "input":
            input_alpha = [_parse_symbol(t, lineno) for t in rest]
        elif head == "work":
            work_alpha = [_parse_symbol(t, lineno) for t in rest]
        elif head == "morphism":
            if len(rest) != 2:
                raise ParseError("morphism takes symbol and image", lineno)
            morphism[_parse_symbol(rest[0], lineno)] = _parse_symbol(rest[1], lineno)
        elif head == "weight":
            if len(rest) != 2:
                raise ParseError("weight takes symbol and positive integer", lineno)
            if not _is_number(rest[1]):
                raise ParseError("bad weight %r" % rest[1], lineno)
            weights[_parse_symbol(rest[0], lineno)] = int(rest[1])
        elif head == "states":
            states = list(rest)
        elif head == "initial":
            if len(rest) != 1:
                raise ParseError("initial takes one state", lineno)
            initial = rest[0]
        elif head == "trans":
            _parse_trans(rest, table, lineno)
        else:
            raise ParseError("unknown section %r" % head, lineno)

    if name is None:
        raise ParseError("missing name section")
    if window is None:
        raise ParseError("missing window section")
    if initial is None:
        raise ParseError("missing initial section")
    if not states:
        raise ParseError("missing states section")
    return AutomatonSpec(
        name=name,
        states=frozenset(states),
        initial=initial,
        window=window,
        input_alphabet=frozenset(input_alpha),
        work_alphabet=frozenset(work_alpha),
        table=table,
        flags=flags or ClassFlags(),
        morphism=morphism or None,
        weights=weights or None,
    )


def _parse_symbol(tok: str, lineno: int) -> str:
    if tok in (LEFT_MARK, RIGHT_SENTINEL, EMPTY_MARK, ARROW):
        raise ParseError("reserved token %r used as symbol" % tok, lineno)
    return tok


def _is_number(tok: str) -> bool:
    # str.isdigit also holds for superscripts and other scripts' digits,
    # which int() rejects or reads as ASCII ones.
    return tok.isascii() and tok.isdigit()


def _parse_class(fields: list[str], lineno: int) -> ClassFlags:
    if len(fields) < 5:
        raise ParseError("class takes direction, form, aux, det/nondet, j=N", lineno)
    direction, form, aux, det = fields[0], fields[1], fields[2], fields[3]
    if direction not in DIRECTIONS:
        raise ParseError("bad direction %r" % direction, lineno)
    if form not in FORMS:
        raise ParseError("bad rewrite form %r" % form, lineno)
    if aux not in AUXES:
        raise ParseError("bad aux marker %r" % aux, lineno)
    if det not in ("det", "nondet"):
        raise ParseError("expected det or nondet, got %r" % det, lineno)
    if not fields[4].startswith("j=") or not _is_number(fields[4][2:]):
        raise ParseError("expected j=N, got %r" % fields[4], lineno)
    shrinking = False
    if len(fields) == 6:
        if fields[5] != "shrinking":
            raise ParseError("unexpected class token %r" % fields[5], lineno)
        shrinking = True
    elif len(fields) > 6:
        raise ParseError("too many class tokens", lineno)
    try:
        return ClassFlags(
            direction=direction,
            form=form,
            aux=aux,
            deterministic=det == "det",
            mr_degree=int(fields[4][2:]),
            shrinking=shrinking,
        )
    except PreconditionError as err:
        raise ParseError(str(err), lineno) from None


def _parse_trans(fields: list[str], table: dict, lineno: int) -> None:
    if len(fields) < 3:
        raise ParseError("malformed trans line", lineno)
    state = fields[0]
    try:
        arrow = fields.index(ARROW)
    except ValueError:
        raise ParseError("trans line lacks %s" % ARROW, lineno) from None
    window = tuple(_decode_token(t) for t in fields[1:arrow])
    if not window:
        raise ParseError("empty window content", lineno)
    tail = fields[arrow + 1 :]
    if not tail:
        raise ParseError("trans line lacks an instruction", lineno)
    kind = tail[0]
    if kind in (MVR, MVL):
        if len(tail) != 2:
            raise ParseError("%s takes a successor state" % kind, lineno)
        ins = Instruction(kind, tail[1])
    elif kind == SL:
        if len(tail) < 3:
            raise ParseError("SL takes a successor state and a target", lineno)
        target_fields = tail[2:]
        if target_fields == [EMPTY_MARK]:
            target: Word = ()
        else:
            target = tuple(_decode_token(t) for t in target_fields)
        ins = Instruction(SL, tail[1], target)
    elif kind in (RESTART, ACCEPT, REJECT):
        if len(tail) != 1:
            raise ParseError("%s takes no arguments" % kind, lineno)
        ins = Instruction(kind)
    else:
        raise ParseError("unknown instruction %r" % kind, lineno)
    table.setdefault((state, window), []).append(ins)


def render_grammar(grammar: GnfGrammar) -> str:
    lines = [
        "name %s" % grammar.name,
        "nonterminals %s" % " ".join(sorted(grammar.nonterminals)),
        "terminals %s" % " ".join(sorted(grammar.terminals)),
        "start %s" % grammar.start,
    ]
    for i, rule in enumerate(grammar.rules, start=1):
        lines.append(
            "rule %d %s %s %s" % (
                i, rule.lhs, ARROW, " ".join((rule.head,) + rule.tail)
            )
        )
    return "\n".join(lines) + "\n"


def parse_grammar(text: str) -> GnfGrammar:
    name = None
    nonterminals: list[str] = []
    terminals: list[str] = []
    start = None
    rules: dict[int, GnfRule] = {}

    for lineno, head, rest in _lines(text):
        if head == "name":
            if len(rest) != 1:
                raise ParseError("name takes one token", lineno)
            name = rest[0]
        elif head == "nonterminals":
            nonterminals = list(rest)
        elif head == "terminals":
            terminals = list(rest)
        elif head == "start":
            if len(rest) != 1:
                raise ParseError("start takes one nonterminal", lineno)
            start = rest[0]
        elif head == "rule":
            if len(rest) < 4 or rest[2] != ARROW:
                raise ParseError("expected: rule N A -> a tail...", lineno)
            if not _is_number(rest[0]):
                raise ParseError("bad rule number %r" % rest[0], lineno)
            number = int(rest[0])
            if number in rules:
                raise ParseError("duplicate rule number %d" % number, lineno)
            body = rest[3:]
            rules[number] = GnfRule(rest[1], body[0], tuple(body[1:]))
        else:
            raise ParseError("unknown section %r" % head, lineno)

    if name is None:
        raise ParseError("missing name section")
    if start is None:
        raise ParseError("missing start section")
    if not rules:
        raise ParseError("grammar has no rules")
    numbers = sorted(rules)
    if numbers != list(range(1, len(numbers) + 1)):
        raise ParseError("rule numbers must be dense from 1")
    return GnfGrammar(
        name=name,
        nonterminals=frozenset(nonterminals),
        terminals=frozenset(terminals),
        start=start,
        rules=tuple(rules[n] for n in numbers),
    )
