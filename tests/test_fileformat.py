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
