"""Window contents, rewrite classification, legal specs, morphisms and tags."""

import copy
import itertools
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from redukto.catalog import catalog_get, catalog_list
from redukto.construct import build_hrrwwc, derivation_encode, to_shrinking
from redukto.engine import Limits, decide_basic_membership
from redukto.model import (
    LEFT_SENTINEL as C,
    RIGHT_SENTINEL as D,
    AutomatonSpec,
    ClassFlags,
    GnfGrammar,
    GnfRule,
    PreconditionError,
    SymbolError,
    accept,
    apply_morphism,
    classify_automaton,
    classify_rewrite,
    is_window_content,
    mvl,
    mvr,
    project,
    restart,
    sl,
    word_weight,
)

AB = frozenset({"a", "b"})


def embeddings_block_counts(u, v):
    """Independent oracle: enumerate every embedding of v into u as a
    subsequence (never deleting sentinels) and count its deleted blocks."""
    counts = []

    def walk(i, j, last_deleted, blocks):
        if i == len(u):
            if j == len(v):
                counts.append(blocks)
            return
        if j < len(v) and u[i] == v[j]:
            walk(i + 1, j + 1, False, blocks)
        if u[i] not in (C, D):
            walk(i + 1, j, True, blocks + (0 if last_deleted else 1))

    walk(0, 0, False, 0)
    return counts


def test_classify_rewrite_matches_exhaustive_oracle():
    for total in range(0, 7):
        for u in itertools.product("ab", repeat=total):
            for keep in range(0, total):
                for v in itertools.product("ab", repeat=keep):
                    counts = embeddings_block_counts(u, v)
                    if not counts:
                        expect = "SL-not-DL"
                    else:
                        expect = "CL" if min(counts) <= 2 else "DL-not-CL"
                    assert classify_rewrite(u, v) == expect, (u, v)


def test_classify_rewrite_single_block():
    assert classify_rewrite(("a", "b", "c"), ("a", "c")) == "CL"


def test_classify_rewrite_three_blocks_is_deletion_only():
    # Exhaustive embedding search confirms the minimum is three blocks.
    u = tuple("abcdefg")
    v = tuple("aceg")
    assert min(embeddings_block_counts(u, v)) == 3
    assert classify_rewrite(u, v) == "DL-not-CL"


def test_classify_rewrite_replacement_is_not_deletion():
    assert classify_rewrite(("a", "a", D), ("b", D)) == "SL-not-DL"


def test_classify_rewrite_illegal_cases():
    assert classify_rewrite(("a", "b"), ("a", "b")) == "illegal"
    assert classify_rewrite(("a", "b"), ("a", "b", "c")) == "illegal"
    assert classify_rewrite((C, "a", "b"), ("a",)) == "illegal"
    assert classify_rewrite(("a", "b", D), ("a",)) == "illegal"


def test_contextual_implies_subsequence_exhaustively():
    # CL implies DL on every pair of short words over two letters.
    for n in range(1, 6):
        for u in itertools.product("ab", repeat=n):
            for m in range(0, n):
                for v in itertools.product("ab", repeat=m):
                    if classify_rewrite(u, v) == "CL":
                        assert embeddings_block_counts(u, v)


def test_window_content_shapes():
    k = 3
    assert is_window_content((C, "a", "a"), k, AB)
    assert is_window_content(("a", "a", "a"), k, AB)
    assert is_window_content(("a", D), k, AB)
    assert is_window_content((C, "a", D), k, AB)
    assert is_window_content((C, D), k, AB)
    assert is_window_content((D,), k, AB)
    # Sentinel-free contents must fill the window.
    assert not is_window_content(("a", "a"), k, AB)
    # Left-anchored contents count as window contents at any length; with a
    # window of 3 they simply never occur on a tape short of the end.
    assert is_window_content((C, "a"), k, AB)
    assert not is_window_content(("a", C, "a"), k, AB)
    assert not is_window_content((D, "a", "a"), k, AB)
    assert not is_window_content((), k, AB)
    assert not is_window_content(("a",) * 4, k, AB)


def _spec(table, flags=ClassFlags(deterministic=True, direction="R", form="SL", aux="WW"),
          morphism=None, weights=None, window=3, states=("q0", "q1")):
    return AutomatonSpec(
        name="t",
        states=frozenset(states),
        initial="q0",
        window=window,
        input_alphabet=frozenset({"a"}),
        work_alphabet=AB,
        table=table,
        flags=flags,
        morphism=morphism,
        weights=weights,
    )


def test_spec_mappings_are_read_only(m_e):
    key = next(iter(m_e.spec.table))
    with pytest.raises(TypeError):
        m_e.spec.table[key] = ()
    morphism, weights = {"a": "a", "b": "a"}, {"a": 1, "b": 2}
    spec = _spec({}, morphism=morphism, weights=weights)
    for mapping in (spec.morphism, spec.weights):
        with pytest.raises(TypeError):
            mapping["b"] = 1
    # The spec holds copies: the caller's dicts stay the caller's.
    morphism["b"] = "b"
    weights["b"] = 5
    assert spec.morphism["b"] == "a" and spec.weights["b"] == 2


def test_validate_accepts_every_catalog_entry():
    from redukto.catalog import catalog_list

    for entry in catalog_list():
        if entry.kind != "automaton":
            continue
        assert replace(entry.spec) == entry.spec, entry.name


def test_validate_rejects_equal_length_target():
    with pytest.raises(PreconditionError, match="not shorter"):
        _spec({("q0", ("a", "a", D)): [sl("q1", ("a", "b", D))]})


def test_validate_rejects_sentinel_mismatch():
    with pytest.raises(PreconditionError, match="sentinel mismatch"):
        _spec({("q0", ("a", "a", D)): [sl("q1", ("b",))]})


def test_validate_flags_contextual_claim(m_e):
    with pytest.raises(PreconditionError, match="CL form"):
        replace(m_e.spec, flags=replace(m_e.spec.flags, form="CL"), table=dict(m_e.spec.table))


def test_validate_rejects_mvl_under_rr():
    with pytest.raises(PreconditionError, match="MVL"):
        _spec({("q0", ("a", "a", "a")): [mvl("q0")]},
              flags=ClassFlags(direction="RR", deterministic=True))


def test_validate_rejects_nondeterministic_table_under_det_flag():
    # A choice under the deterministic flag is refused when the spec is
    # built; without the flag the same table is a legal nondeterministic one.
    table = {("q0", ("a", "a", "a")): [mvr("q0"), mvr("q1")]}
    with pytest.raises(PreconditionError, match=r"^deterministic flag but 2 instructions at \(q0, aaa\)$"):
        _spec(table)
    loose = _spec(table, flags=ClassFlags(deterministic=False, direction="R", form="SL", aux="WW"))
    assert not classify_automaton(loose).deterministic


def test_validate_requires_total_morphism():
    with pytest.raises(PreconditionError, match="not total"):
        _spec({("q0", (C, "a", D)): [mvr("q0")]}, morphism={"a": "a"})


def test_validate_requires_identity_morphism_on_input():
    _spec({}, morphism={"a": "a", "b": "a"})
    with pytest.raises(PreconditionError, match="identity"):
        replace(_spec({}), input_alphabet=AB, morphism={"a": "b", "b": "a"})


R_SL = ClassFlags(deterministic=True, direction="R", form="SL", aux="WW")


def _rewriting(u, v, flags=R_SL):
    return {"table": {("q0", u): [sl("q1", v)]}, "flags": flags}


# One malformed spec per violation message: the changes to the legal
# ``_spec({})`` and the message they draw.  Flags that break a rule are
# refused when they are built, so that entry builds them in the test.
VIOLATIONS = [
    ({"window": 0}, "window size must be at least 1"),
    ({"initial": "qx"}, "initial state 'qx' not among states"),
    ({"input_alphabet": frozenset("ac")}, "input symbols outside working alphabet: c"),
    ({"work_alphabet": AB | {D}}, "sentinel '$' used as working symbol"),
    ({"work_alphabet": AB | {"x y"}}, "malformed symbol token 'x y'"),
    ({"flags": replace(R_SL, aux="none")},
     "aux=none requires the working alphabet to equal the input alphabet"),
    ({"flags": lambda: replace(R_SL, mr_degree=0)}, "mr-degree must be positive"),
    ({"table": {("qx", ("a", "a", "a")): [mvr("q0")]}}, "table state 'qx' unknown at (qx, aaa)"),
    ({"table": {("q0", ("a", "a")): [mvr("q0")]}}, "malformed window content at (q0, aa)"),
    ({"table": {("q0", ("a", "a", "a")): [mvr("q0"), mvr("q1")]}},
     "deterministic flag but 2 instructions at (q0, aaa)"),
    ({"table": {("q0", ("a", "a", "a")): [mvr("qx")]}}, "unknown successor state 'qx' at (q0, aaa)"),
    ({"table": {("q0", ("a", "a", "a")): [mvl("q0")]}},
     "MVL instruction under direction R at (q0, aaa)"),
    (_rewriting(("a", "a", D), ("b", D), replace(R_SL, form="DL")),
     "non-deletion rewrite under DL form at (q0, aa$)"),
    (_rewriting(("a", "a", D), ("b", D), replace(R_SL, form="CL")),
     "rewrite at (q0, aa$) classifies as SL-not-DL under CL form"),
    ({"table": {("q0", ("a", "a", "a")): [sl("q1", ("a",))], ("q1", ("a", "a", D)): [mvr("q1")]}},
     "direction R but post-rewrite state 'q1' admits MVR"),
    ({"morphism": {"a": "a"}}, "morphism not total: no image for 'b'"),
    ({"morphism": {"a": "a", "b": "a", "c": "a"}}, "morphism defined on unknown symbol 'c'"),
    ({"morphism": {"a": "a", "b": "b"}}, "morphism image 'b' of 'b' is not an input symbol"),
    ({"input_alphabet": AB, "morphism": {"a": "b", "b": "a"}},
     "morphism not the identity on input symbol 'a'"),
    ({"weights": {"a": 1}}, "weight function not total: no weight for 'b'"),
    ({"weights": {"a": 1, "b": 0}}, "weight of 'b' must be a positive integer"),
    (_rewriting((C, "a", "a"), ("a", C)), "left sentinel not first in target a¢"),
    (_rewriting(("a", "a", D), (D, "a")), "right sentinel not last in target $a"),
    (_rewriting(("a", "a", "a"), ("c",)), "target symbol 'c' outside working alphabet"),
    (_rewriting(("a", "a", D), ("b",)), "sentinel mismatch between aa$ and target b"),
    (_rewriting(("a", "a", D), ("a", "b", D)), "SL target not shorter: aa$ -> ab$"),
    (_rewriting(("a", "a", D), ()), "empty target for sentinel-bearing window aa$"),
]


@pytest.mark.parametrize("changes,message", VIOLATIONS, ids=[m for _, m in VIOLATIONS])
def test_validate_names_each_violation(changes, message):
    # Each malformed spec is refused with its message, whether it is built
    # directly or by ``replace``.
    legal = _spec({})
    given = {f.name: getattr(legal, f.name) for f in fields(legal)}
    builds = (lambda made: replace(legal, **made), lambda made: AutomatonSpec(**{**given, **made}))
    for build in builds:
        with pytest.raises(PreconditionError) as err:
            build({name: value() if callable(value) else value for name, value in changes.items()})
        assert str(err.value) == message


# One table entry per shape that is not a step a run can take, with the
# message that refuses it; a choice is refused only under the deterministic
# flag.
MISFITS = {
    "choice": ({("q0", ("a", "a", "a")): [mvr("q0"), mvr("q1")]},
               "deterministic flag but 2 instructions at (q0, aaa)"),
    "mvr-at-right": ({("q0", (D,)): [mvr("q0")]}, "MVR on right-sentinel-only window at (q0, $)"),
    "mvl-at-left": ({("q0", (C, "a", "a")): [mvl("q0")]},
                    "MVL with window at the left sentinel at (q0, ¢aa)"),
}


@pytest.mark.parametrize("table,message", MISFITS.values(), ids=MISFITS.keys())
def test_deterministic_flag_refuses_a_misfit(table, message):
    flags = ClassFlags(deterministic=True, direction="RL")
    with pytest.raises(PreconditionError) as err:
        _spec(table, flags=flags)
    assert str(err.value) == message
    unflagged = replace(flags, deterministic=False)
    if message.startswith("deterministic"):
        assert not classify_automaton(_spec(table, flags=unflagged)).deterministic
    else:
        with pytest.raises(PreconditionError) as err:
            _spec(table, flags=unflagged)
        assert str(err.value) == message


@pytest.mark.parametrize("deterministic", [True, False])
def test_a_rewrite_that_eats_a_sentinel_is_refused(deterministic):
    # Rewriting a$ into a drops the right sentinel; on a, the deterministic
    # decider and the branch search disagreed about such a table.
    table = {
        ("q0", (C, "a")): [mvr("q0")],
        ("q0", ("a", D)): [sl("q1", ("a",))],
        ("q1", (C, "a")): [restart()],
        ("q0", (C, D)): [accept()],
    }
    with pytest.raises(PreconditionError) as err:
        AutomatonSpec("eater", frozenset({"q0", "q1"}), "q0", 2, frozenset("a"), frozenset("a"),
                      table, ClassFlags(direction="R", form="SL", aux="none",
                                        deterministic=deterministic))
    assert str(err.value) == "sentinel mismatch between a$ and target a"


FLAG_REFUSALS = [
    ({"direction": "LR"}, "bad direction 'LR'"),
    ({"form": "XX"}, "bad rewrite form 'XX'"),
    ({"aux": "Q"}, "bad aux marker 'Q'"),
    ({"mr_degree": 0}, "mr-degree must be positive"),
]


@pytest.mark.parametrize("changes,message", FLAG_REFUSALS, ids=[m for _, m in FLAG_REFUSALS])
def test_class_flags_refuse_a_value_outside_their_domain(changes, message):
    with pytest.raises(PreconditionError) as err:
        ClassFlags(**changes)
    assert str(err.value) == message
    with pytest.raises(PreconditionError):
        replace(R_SL, **changes)


def test_empty_target_is_legal_on_a_window_without_sentinels():
    spec = _spec({("q0", ("a", "a", "a")): [sl("q1", ())]})
    assert spec.sl_pairs() == [(("a", "a", "a"), ())]


def test_classify_automaton_tags(m_e, dyck1):
    tags = classify_automaton(m_e.spec)
    assert (tags.deterministic, tags.direction, tags.form, tags.aux) == (
        True, "R", "SL", "WW",
    )
    tags = classify_automaton(dyck1.spec)
    assert (tags.deterministic, tags.direction, tags.form, tags.aux) == (
        True, "R", "CL", "none",
    )


def test_classify_automaton_mr_degree():
    from redukto.catalog import catalog_get

    tags = classify_automaton(catalog_get("lm_1").spec)
    assert tags.direction == "RR"
    assert tags.form == "CL"
    assert tags.mr_degree == 2


def test_classify_weakens_with_added_instruction(m_e):
    # Adding an instruction never strengthens a tag.
    from dataclasses import replace

    base = classify_automaton(m_e.spec)
    table = dict(m_e.spec.table)
    table[("q1", ("a", "a", "a"))] = table[("q1", ("a", "a", "a"))] + (mvl("q0"),)
    grown = replace(m_e.spec, table=table,
                    flags=replace(m_e.spec.flags, deterministic=False, direction="RL"))
    tags = classify_automaton(grown)
    assert tags.deterministic <= base.deterministic
    assert tags.direction == "RL"


def test_project_examples():
    sigma, gamma = frozenset({"a", "b"}), frozenset({"a", "b", "A", "B"})
    assert project(("a", "A", "b", "B"), sigma, gamma) == ("a", "b")
    assert project((), sigma, gamma) == ()
    assert project(("A", "A"), sigma, gamma) == ()
    with pytest.raises(SymbolError):
        project(("z",), sigma, gamma)


def test_apply_morphism_examples():
    h = {"(1,a)": "a", "(2,a)": "a", "a": "a"}
    assert apply_morphism(h, ("(1,a)", "(2,a)")) == ("a", "a")
    assert apply_morphism(h, ("a", "a")) == ("a", "a")
    with pytest.raises(SymbolError):
        apply_morphism(h, ("b",))


@given(st.lists(st.sampled_from(["a", "b", "(1,a)"]), max_size=12))
def test_morphism_preserves_length(tokens):
    h = {"a": "a", "b": "b", "(1,a)": "a"}
    assert len(apply_morphism(h, tuple(tokens))) == len(tokens)


@given(st.lists(st.sampled_from(["a", "b", "A"]), max_size=12))
def test_projection_never_grows(tokens):
    sigma, gamma = frozenset({"a", "b"}), frozenset({"a", "b", "A"})
    assert len(project(tuple(tokens), sigma, gamma)) <= len(tokens)


def test_word_weight_is_additive():
    weights = {"a": 3, "b": 1}
    assert word_weight(weights, ()) == 0
    assert word_weight(weights, ("a", "b", "a")) == 7


def test_gnf_grammar_validation():
    with pytest.raises(PreconditionError):
        GnfGrammar("g", frozenset({"S"}), frozenset({"a"}), "T",
                   (GnfRule("S", "a", ()),))
    with pytest.raises(PreconditionError):
        GnfGrammar("g", frozenset({"S"}), frozenset({"a"}), "S",
                   (GnfRule("S", "S", ()),))
    good = GnfGrammar("g", frozenset({"S"}), frozenset({"a"}), "S",
                      (GnfRule("S", "a", ("S",)), GnfRule("S", "a", ())))
    assert [i for i, _ in good.rules_for("S")] == [1, 2]


def test_specs_pickle_and_deep_copy():
    # Every stock automaton, both grammar builds and a shrunk build, through
    # pickle and deepcopy: an equal spec whose table still refuses changes
    # and that decides a word the same way.
    specs = [entry.spec for entry in catalog_list() if entry.spec is not None]
    builds = [build_hrrwwc(catalog_get(name).grammar)[0] for name in ("anbn_gnf", "dyck_gnf")]
    specs += builds + [to_shrinking(builds[0])[0]]
    limits = Limits(max_configs=20_000)
    for spec in specs:
        word = tuple(sorted(spec.input_alphabet)) * 2
        decision = decide_basic_membership(spec, word, limits)
        for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert twin == spec, spec.name
            for table in (twin.table, twin.morphism, twin.weights):
                if table is not None:
                    with pytest.raises(TypeError, match="is read-only"):
                        table[C] = ()
            assert decide_basic_membership(twin, word, limits) == decision, spec.name
    _, alphabet = derivation_encode(catalog_get("dyck_gnf").grammar)
    for twin in (pickle.loads(pickle.dumps(alphabet)), copy.deepcopy(alphabet)):
        assert twin == alphabet
        with pytest.raises(TypeError, match="is read-only"):
            twin.morphism["x"] = "x"
