"""Round-trip stability and parse errors of the text formats."""

import pytest

from redukto.catalog import catalog_list
from redukto.fileformat import (
    ParseError,
    parse_automaton,
    parse_grammar,
    render_automaton,
    render_grammar,
)


def specs_equal(a, b):
    return (
        a.name == b.name
        and a.states == b.states
        and a.initial == b.initial
        and a.window == b.window
        and a.input_alphabet == b.input_alphabet
        and a.work_alphabet == b.work_alphabet
        and a.table == b.table
        and a.flags == b.flags
        and a.morphism == b.morphism
        and a.weights == b.weights
    )


def test_round_trip_every_catalog_entry():
    for entry in catalog_list():
        if entry.kind == "automaton":
            text = render_automaton(entry.spec)
            back = parse_automaton(text)
            assert specs_equal(back, entry.spec), entry.name
            assert render_automaton(back) == text, entry.name
        else:
            text = render_grammar(entry.grammar)
            back = parse_grammar(text)
            assert back == entry.grammar, entry.name
            assert render_grammar(back) == text, entry.name


def test_round_trip_built_automata(anbn_built, m_e_h_shrunk):
    _, spec, _ = anbn_built
    text = render_automaton(spec)
    back = parse_automaton(text)
    assert specs_equal(back, spec)
    assert render_automaton(back) == text

    shrunk, _ = m_e_h_shrunk
    text = render_automaton(shrunk)
    back = parse_automaton(text)
    assert specs_equal(back, shrunk)


def test_comments_and_blank_lines_ignored(m_e):
    text = render_automaton(m_e.spec)
    noisy = "# header comment\n\n" + text.replace(
        "window 3", "window 3\n# mid comment\n"
    )
    assert specs_equal(parse_automaton(noisy), m_e.spec)


def test_empty_target_round_trips(dyck1):
    text = render_automaton(dyck1.spec)
    assert " SL qr -" in text
    back = parse_automaton(text)
    open_, close = sorted(dyck1.spec.input_alphabet)
    assert back.table[("q0", (open_, close))][0].target == ()


def test_a_repeated_trans_line_is_one_instruction(dyck1):
    # One instruction listed twice offers no choice, even under the
    # deterministic flag, and renders once.
    text = render_automaton(dyck1.spec)
    line = next(line for line in text.splitlines() if line.startswith("trans "))
    back = parse_automaton(text.replace(line + "\n", line + "\n" + line + "\n"))
    assert back.flags.deterministic and specs_equal(back, dyck1.spec)
    assert render_automaton(back) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_automaton("name x\nwindow z\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_automaton("name x\ntrans q0 a a MVR q0\n")   # missing arrow
    with pytest.raises(ParseError):
        parse_automaton("window 2\nstates q0\ninitial q0\n")  # missing name
    with pytest.raises(ParseError):
        parse_automaton("name x\nclass R SL WW det j=1\nwindow 2\nstates q0\n"
                        "initial q0\ntrans q0 a -> Warp q1\n")


@pytest.mark.parametrize("digit", ["³", "٣", "+3", "1_0"])
def test_numbers_take_ascii_digits_only(digit):
    # str.isdigit holds for both, and int() fails on one and reads the
    # other as 3.  Signs and underscores, which int() takes, are no digits.
    for parse, text in (
        (parse_automaton, "name x\nwindow %s\n"),
        (parse_automaton, "name x\nweight a %s\n"),
        (parse_automaton, "name x\nclass R SL none det j=%s\n"),
        (parse_grammar, "name g\nrule %s S -> a\n"),
    ):
        with pytest.raises(ParseError) as err:
            parse(text % digit)
        assert err.value.line == 2, text


def test_grammar_rule_numbering_must_be_dense():
    text = (
        "name g\nnonterminals S\nterminals a\nstart S\n"
        "rule 1 S -> a S\nrule 3 S -> a\n"
    )
    with pytest.raises(ParseError):
        parse_grammar(text)


def test_reserved_tokens_rejected_as_symbols():
    with pytest.raises(ParseError):
        parse_automaton("name x\nwindow 2\ninput ^\nstates q0\ninitial q0\n")


def _with_line_repeated(text, section):
    """``text`` with its first ``section`` line written twice, and the line
    number of the second."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split()[0] == section)
    return "\n".join(lines[: i + 1] + lines[i:]) + "\n", i + 2


@pytest.mark.parametrize("section", [
    "name", "class", "window", "input", "work", "morphism", "weight", "states", "initial",
])
def test_a_repeated_automaton_line_is_refused(m_e_h_shrunk, section):
    # A second line would silently replace the first one's value.
    text, lineno = _with_line_repeated(render_automaton(m_e_h_shrunk[0]), section)
    with pytest.raises(ParseError, match="given twice") as err:
        parse_automaton(text)
    assert err.value.line == lineno


def test_two_morphism_or_weight_lines_for_one_symbol_are_refused(m_e_h_shrunk):
    text = render_automaton(m_e_h_shrunk[0])
    for first, second in (("morphism b a", "morphism b b"), ("weight b 1", "weight b 2")):
        with pytest.raises(ParseError, match="%s given twice" % second[:-2]):
            parse_automaton(text.replace(first + "\n", "%s\n%s\n" % (first, second)))
    # Lines for distinct symbols are the canonical form.
    assert parse_automaton(text).weights == m_e_h_shrunk[0].weights


@pytest.mark.parametrize("section", ["name", "nonterminals", "terminals", "start"])
def test_a_repeated_grammar_line_is_refused(section):
    grammar = next(e.grammar for e in catalog_list() if e.kind == "grammar")
    text, lineno = _with_line_repeated(render_grammar(grammar), section)
    with pytest.raises(ParseError, match="given twice") as err:
        parse_grammar(text)
    assert err.value.line == lineno


# One malformed file per parse error: the parser, the text, the line the
# error names (0 for a missing section, which names none) and the message.
PARSE_ERRORS = [
    (parse_automaton, "name x y\n", 1, "name takes one token"),
    (parse_automaton, "name x\nclass R SL WW det\n", 2,
     "class takes direction, form, aux, det/nondet, j=N"),
    (parse_automaton, "name x\nclass L SL WW det j=1\n", 2, "bad direction 'L'"),
    (parse_automaton, "name x\nclass R XL WW det j=1\n", 2, "bad rewrite form 'XL'"),
    (parse_automaton, "name x\nclass R SL WW det j=0\n", 2, "mr-degree must be positive"),
    (parse_automaton, "name x\nclass R SL V det j=1\n", 2, "bad aux marker 'V'"),
    (parse_automaton, "name x\nclass R SL WW maybe j=1\n", 2, "expected det or nondet, got 'maybe'"),
    (parse_automaton, "name x\nclass R SL WW det k=1\n", 2, "expected j=N, got 'k=1'"),
    (parse_automaton, "name x\nclass R SL WW det j=1 growing\n", 2,
     "unexpected class token 'growing'"),
    (parse_automaton, "name x\nclass R SL WW det j=1 shrinking x\n", 2, "too many class tokens"),
    (parse_automaton, "name x\nwindow 2 3\n", 2, "window takes one positive integer"),
    (parse_automaton, "name x\nwork a $\n", 2, "reserved token '$' used as symbol"),
    (parse_automaton, "name x\nmorphism a\n", 2, "morphism takes symbol and image"),
    (parse_automaton, "name x\nmorphism a -\n", 2, "reserved token '-' used as symbol"),
    (parse_automaton, "name x\nweight a\n", 2, "weight takes symbol and positive integer"),
    (parse_automaton, "name x\nweight a x\n", 2, "bad weight 'x'"),
    (parse_automaton, "name x\nweight -> 1\n", 2, "reserved token '->' used as symbol"),
    (parse_automaton, "name x\ninitial q0 q1\n", 2, "initial takes one state"),
    (parse_automaton, "name x\ntrans q0 a\n", 2, "malformed trans line"),
    (parse_automaton, "name x\ntrans q0 a MVR q0\n", 2, "trans line lacks ->"),
    (parse_automaton, "name x\ntrans q0 -> MVR q0\n", 2, "empty window content"),
    (parse_automaton, "name x\ntrans q0 a ->\n", 2, "trans line lacks an instruction"),
    (parse_automaton, "name x\ntrans q0 a -> MVL\n", 2, "MVL takes a successor state"),
    (parse_automaton, "name x\ntrans q0 a a -> SL q1\n", 2, "SL takes a successor state and a target"),
    (parse_automaton, "name x\ntrans q0 a -> Accept q1\n", 2, "Accept takes no arguments"),
    (parse_automaton, "name x\ntrans q0 a -> Warp q1\n", 2, "unknown instruction 'Warp'"),
    (parse_automaton, "name x\nalphabet a\n", 2, "unknown section 'alphabet'"),
    (parse_automaton, "window 2\nstates q0\ninitial q0\n", 0, "missing name section"),
    (parse_automaton, "name x\nstates q0\ninitial q0\n", 0, "missing window section"),
    (parse_automaton, "name x\nwindow 2\nstates q0\n", 0, "missing initial section"),
    (parse_automaton, "name x\nwindow 2\ninitial q0\n", 0, "missing states section"),
    (parse_grammar, "name g h\n", 1, "name takes one token"),
    (parse_grammar, "name g\nstart S T\n", 2, "start takes one nonterminal"),
    (parse_grammar, "name g\nrule 1 S a\n", 2, "expected: rule N A -> a tail..."),
    (parse_grammar, "name g\nrule one S -> a\n", 2, "bad rule number 'one'"),
    (parse_grammar, "name g\nrule 1 S -> a\nrule 1 S -> b\n", 3, "duplicate rule number 1"),
    (parse_grammar, "name g\nproduction 1 S -> a\n", 2, "unknown section 'production'"),
    (parse_grammar, "start S\nrule 1 S -> a\n", 0, "missing name section"),
    (parse_grammar, "name g\nrule 1 S -> a\n", 0, "missing start section"),
    (parse_grammar, "name g\nstart S\n", 0, "grammar has no rules"),
    (parse_grammar, "name g\nstart S\nrule 2 S -> a\n", 0, "rule numbers must be dense from 1"),
]


@pytest.mark.parametrize("parse,text,line,message", PARSE_ERRORS,
                         ids=["%s: %s" % (p.__name__, m) for p, _, _, m in PARSE_ERRORS])
def test_each_parse_error_names_its_line(parse, text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == ("line %d: %s" % (line, message) if line else message)
