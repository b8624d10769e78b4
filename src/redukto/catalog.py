"""Built-in automata, grammars and closed-form language oracles.

Every automaton entry carries a total oracle predicate over its input
alphabet.  Its spec is legal once built (see ``AutomatonSpec``), and its
declared flags are checked to be the ones ``classify_automaton`` infers
from the table when the entry is constructed.  Entries are immutable.

Entries:
  m_e          two-state doubling recognizer of { a^(2^n) | n >= 0 }; it
               repeatedly halves runs by rewriting the rightmost symbol pair,
               which makes it the stock example of a non-monotone automaton.
  m_e_h        the same machine with the morphism b -> a attached.
  dyck1        window-2 deleter of the first matching bracket pair; accepts
               the balanced-bracket words.
  l_k          window-(k+1) deleter for { a^n c^(k-1) b^n | n >= 0 }, k >= 2;
               l_1 is dyck1.
  lm_j         multi-rewrite recognizer of { (uc)^j u | u in {a,b}* } that
               deletes the leading symbol of every copy within one cycle
               (j+1 rewrite steps per cycle).
  reg_window1  window-1 deleter for the regular language a* over {a,b}.
  anbn_gnf     grammar { S -> aSB, S -> aB, B -> b } for { a^n b^n | n >= 1 }.
  dyck_gnf     grammar { S -> aSB, S -> aB, B -> bS, B -> b } for the
               nonempty balanced-bracket words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .model import (
    LEFT_SENTINEL,
    RIGHT_SENTINEL,
    AutomatonSpec,
    ClassFlags,
    GnfGrammar,
    GnfRule,
    ReduktoError,
    Word,
    accept,
    all_window_contents,
    classify_automaton,
    mvr,
    reject,
    restart,
    sl,
)


class CatalogError(ReduktoError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                       # "automaton" | "grammar"
    description: str
    spec: Optional[AutomatonSpec] = None
    grammar: Optional[GnfGrammar] = None
    oracle: Optional[Callable[[Word], bool]] = None
    oracle_alphabet: tuple[str, ...] = ()
    monotone: Optional[bool] = None


C, D = LEFT_SENTINEL, RIGHT_SENTINEL


def _build_m_e(with_morphism: bool = False) -> AutomatonSpec:
    table = {
        ("q0", (C, "a", D)): [accept()],
        ("q0", (C, "b", D)): [accept()],
        ("q0", (C, "a", "a")): [mvr("q0")],
        ("q0", (C, "b", "b")): [mvr("q0")],
        ("q0", ("a", "a", "a")): [mvr("q0")],
        ("q0", ("b", "b", "b")): [mvr("q0")],
        ("q0", ("a", "a", D)): [sl("q1", ("b", D))],
        ("q0", ("b", "b", D)): [sl("q1", ("a", D))],
        ("q0", ("a", "a", "b")): [sl("q1", ("b", "b"))],
        ("q0", ("b", "b", "a")): [sl("q1", ("a", "a"))],
        ("q0", (C, "a", "b")): [reject()],
        ("q0", (C, "b", "a")): [reject()],
    }
    for window in all_window_contents(3, ("a", "b")):
        table[("q1", window)] = [restart()]
    return AutomatonSpec(
        name="m_e_h" if with_morphism else "m_e",
        states=frozenset({"q0", "q1"}),
        initial="q0",
        window=3,
        input_alphabet=frozenset({"a"}),
        work_alphabet=frozenset({"a", "b"}),
        table=table,
        flags=ClassFlags(direction="R", form="SL", aux="WW", deterministic=True),
        morphism={"a": "a", "b": "a"} if with_morphism else None,
    )


def _oracle_power_of_two(word: Word) -> bool:
    if any(tok != "a" for tok in word):
        return False
    n = len(word)
    return n >= 1 and (n & (n - 1)) == 0


OPEN, CLOSE = "a1", "ā1"   # bracket pair tokens a1 and ā1


def _build_dyck1() -> AutomatonSpec:
    table = {
        ("q0", (C, D)): [accept()],
        ("q0", (C, OPEN)): [mvr("q0")],
        ("q0", (C, CLOSE)): [reject()],
        ("q0", (OPEN, OPEN)): [mvr("q0")],
        ("q0", (OPEN, CLOSE)): [sl("qr", ())],
        ("q0", (OPEN, D)): [reject()],
    }
    for window in all_window_contents(2, (OPEN, CLOSE)):
        table[("qr", window)] = [restart()]
    return AutomatonSpec(
        name="dyck1",
        states=frozenset({"q0", "qr"}),
        initial="q0",
        window=2,
        input_alphabet=frozenset({OPEN, CLOSE}),
        work_alphabet=frozenset({OPEN, CLOSE}),
        table=table,
        flags=ClassFlags(direction="R", form="CL", aux="none", deterministic=True),
    )


def _oracle_balanced(word: Word) -> bool:
    depth = 0
    for tok in word:
        if tok == OPEN:
            depth += 1
        elif tok == CLOSE:
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def _build_l_k(k: int) -> AutomatonSpec:
    if k < 2:
        raise CatalogError("l_k requires k >= 2 (l_1 is dyck1)")
    K = k + 1
    cs = ("c",) * (k - 1)
    table = {
        ("q0", (C,) + cs + (D,)): [accept()],
        ("q0", ("a",) + cs + ("b",)): [sl("qr", cs)],
    }
    for x in range(1, k + 1):
        table[("q0", (C,) + ("a",) * x + ("c",) * (k - x))] = [mvr("q0")]
    for x in range(2, K + 1):
        table[("q0", ("a",) * x + ("c",) * (K - x))] = [mvr("q0")]
    for window in all_window_contents(K, ("a", "b", "c")):
        if RIGHT_SENTINEL in window and ("q0", window) not in table:
            table[("q0", window)] = [reject()]
        table[("qr", window)] = [restart()]
    return AutomatonSpec(
        name="l_%d" % k,
        states=frozenset({"q0", "qr"}),
        initial="q0",
        window=K,
        input_alphabet=frozenset({"a", "b", "c"}),
        work_alphabet=frozenset({"a", "b", "c"}),
        table=table,
        flags=ClassFlags(direction="R", form="CL", aux="none", deterministic=True),
        )


def _oracle_l_k(k: int) -> Callable[[Word], bool]:
    def oracle(word: Word) -> bool:
        n = 0
        while n < len(word) and word[n] == "a":
            n += 1
        rest = word[n:]
        return rest == ("c",) * (k - 1) + ("b",) * n
    return oracle


def _build_lm_j(j: int) -> AutomatonSpec:
    if j < 1:
        raise CatalogError("lm_j requires j >= 1")
    letters = ("a", "b")
    states = {"q0", "qr"}
    table: dict = {
        ("q0", (C, D)): [reject()],
        ("q0", (C, "c")): [mvr("qacc1")],
    }
    # Tail branch: accept exactly j bare separators.
    for i in range(1, j + 1):
        qi = "qacc%d" % i
        states.add(qi)
        table[(qi, ("c", D))] = [accept()] if i == j else [reject()]
        table[(qi, ("c", "c"))] = [mvr("qacc%d" % (i + 1))] if i < j else [reject()]
        for y in letters:
            table[(qi, ("c", y))] = [reject()]
    # Cycle branch: delete the first symbol, remember it, then delete the
    # first symbol after each separator when it matches.
    for x in letters:
        table[("q0", (C, x))] = [sl("seek_%s_1" % x, (C,))]
        for i in range(1, j + 1):
            seek = "seek_%s_%d" % (x, i)
            states.add(seek)
            for y in letters + ("c",):
                table[(seek, (C, y))] = [mvr(seek)]
            table[(seek, (C, D))] = [reject()]
            for y in letters:
                for z in letters:
                    table[(seek, (y, z))] = [mvr(seek)]
                table[(seek, (y, "c"))] = [mvr(seek)]
                table[(seek, (y, D))] = [reject()]
            nxt = "qr" if i == j else "pass_%s_%d" % (x, i)
            table[(seek, ("c", x))] = [sl(nxt, ("c",))]
            other = "a" if x == "b" else "b"
            table[(seek, ("c", other))] = [reject()]
            table[(seek, ("c", "c"))] = [reject()]
            table[(seek, ("c", D))] = [reject()]
            if i < j:
                # Two moves carry the window past the separator just handled.
                pas, skip = "pass_%s_%d" % (x, i), "skip_%s_%d" % (x, i)
                states.update((pas, skip))
                for y in (C,) + letters + ("c",):
                    table[(pas, (y, "c"))] = [mvr(skip)]
                for z in letters + ("c", D):
                    table[(skip, ("c", z))] = [mvr("seek_%s_%d" % (x, i + 1))]
    for window in all_window_contents(2, letters + ("c",)):
        table[("qr", window)] = [restart()]
    return AutomatonSpec(
        name="lm_%d" % j,
        states=frozenset(states),
        initial="q0",
        window=2,
        input_alphabet=frozenset({"a", "b", "c"}),
        work_alphabet=frozenset({"a", "b", "c"}),
        table=table,
        flags=ClassFlags(
            direction="RR", form="CL", aux="none", deterministic=True, mr_degree=j + 1
        ),
    )


def _oracle_lm_j(j: int) -> Callable[[Word], bool]:
    def oracle(word: Word) -> bool:
        parts: list[list[str]] = [[]]
        for tok in word:
            if tok == "c":
                parts.append([])
            elif tok in ("a", "b"):
                parts[-1].append(tok)
            else:
                return False
        return len(parts) == j + 1 and all(p == parts[0] for p in parts)
    return oracle


def _build_reg_window1() -> AutomatonSpec:
    table = {
        ("q0", (C,)): [mvr("q0")],
        ("q0", ("a",)): [sl("qr", ())],
        ("q0", ("b",)): [reject()],
        ("q0", (D,)): [accept()],
    }
    for window in all_window_contents(1, ("a", "b")):
        table[("qr", window)] = [restart()]
    return AutomatonSpec(
        name="reg_window1",
        states=frozenset({"q0", "qr"}),
        initial="q0",
        window=1,
        input_alphabet=frozenset({"a", "b"}),
        work_alphabet=frozenset({"a", "b"}),
        table=table,
        flags=ClassFlags(direction="R", form="CL", aux="none", deterministic=True),
    )


def _oracle_all_a(word: Word) -> bool:
    return all(tok == "a" for tok in word)


ANBN_GRAMMAR = GnfGrammar(
    name="anbn_gnf",
    nonterminals=frozenset({"S", "B"}),
    terminals=frozenset({"a", "b"}),
    start="S",
    rules=(
        GnfRule("S", "a", ("S", "B")),
        GnfRule("S", "a", ("B",)),
        GnfRule("B", "b", ()),
    ),
)

DYCK_GRAMMAR = GnfGrammar(
    name="dyck_gnf",
    nonterminals=frozenset({"S", "B"}),
    terminals=frozenset({OPEN, CLOSE}),
    start="S",
    rules=(
        GnfRule("S", OPEN, ("S", "B")),
        GnfRule("S", OPEN, ("B",)),
        GnfRule("B", CLOSE, ("S",)),
        GnfRule("B", CLOSE, ()),
    ),
)


def _oracle_anbn(word: Word) -> bool:
    n = 0
    while n < len(word) and word[n] == "a":
        n += 1
    return n >= 1 and word[n:] == ("b",) * n


def _oracle_dyck_nonempty(word: Word) -> bool:
    return len(word) >= 1 and _oracle_balanced(word)


def _verify(entry: CatalogEntry) -> CatalogEntry:
    spec = entry.spec
    flags = classify_automaton(spec)
    if flags != spec.flags:
        raise CatalogError(
            "catalog entry %s: declared flags %s but classified %s"
            % (entry.name, spec.flags, flags)
        )
    return entry


def _automaton_entry(name, description, spec, oracle, alphabet, monotone) -> CatalogEntry:
    return _verify(CatalogEntry(
        name=name,
        kind="automaton",
        description=description,
        spec=spec,
        oracle=oracle,
        oracle_alphabet=tuple(sorted(alphabet)),
        monotone=monotone,
    ))


def catalog_get(name: str) -> CatalogEntry:
    """Look up a catalog entry; the families take their index in the name,
    as in ``l_3`` and ``lm_2``."""
    if name == "m_e":
        return _automaton_entry(
            "m_e", "doubling recognizer of a^(2^n); non-monotone",
            _build_m_e(False), _oracle_power_of_two, ("a",), False,
        )
    if name == "m_e_h":
        return _automaton_entry(
            "m_e_h", "doubling recognizer with the morphism b -> a attached",
            _build_m_e(True), _oracle_power_of_two, ("a",), False,
        )
    if name == "dyck1":
        return _automaton_entry(
            "dyck1", "deletes the first matching bracket pair; balanced brackets",
            _build_dyck1(), _oracle_balanced, (OPEN, CLOSE), True,
        )
    if name.startswith("l_"):
        k = _parse_index(name[2:], "l_k")
        return _automaton_entry(
            "l_%d" % k, "deletes one a and one b around the c block",
            _build_l_k(k), _oracle_l_k(k), ("a", "b", "c"), True,
        )
    if name.startswith("lm_"):
        j = _parse_index(name[3:], "lm_j")
        return _automaton_entry(
            "lm_%d" % j, "deletes the leading symbol of every copy per cycle",
            _build_lm_j(j), _oracle_lm_j(j), ("a", "b", "c"), None,
        )
    if name == "reg_window1":
        return _automaton_entry(
            "reg_window1", "window-1 deleter for the regular language a*",
            _build_reg_window1(), _oracle_all_a, ("a", "b"), True,
        )
    if name == "anbn_gnf":
        return CatalogEntry(
            name="anbn_gnf", kind="grammar",
            description="Greibach-form grammar for a^n b^n (n >= 1)",
            grammar=ANBN_GRAMMAR, oracle=_oracle_anbn,
            oracle_alphabet=("a", "b"),
        )
    if name == "dyck_gnf":
        return CatalogEntry(
            name="dyck_gnf", kind="grammar",
            description="Greibach-form grammar for the nonempty balanced-bracket words",
            grammar=DYCK_GRAMMAR, oracle=_oracle_dyck_nonempty,
            oracle_alphabet=(OPEN, CLOSE),
        )
    raise CatalogError("unknown catalog entry %r" % name)


def _parse_index(raw: str, family: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise CatalogError("bad %s parameter %r" % (family, raw)) from None
    if value < 1:
        raise CatalogError("%s parameter must be positive" % family)
    return value


DEFAULT_NAMES = (
    "m_e", "m_e_h", "dyck1", "l_2", "l_3", "l_4",
    "lm_1", "lm_2", "lm_3", "reg_window1", "anbn_gnf", "dyck_gnf",
)


def catalog_list() -> list[CatalogEntry]:
    """Deterministic listing of the stock entries."""
    return [catalog_get(name) for name in DEFAULT_NAMES]
