import pytest

from redukto.catalog import catalog_get
from redukto.construct import build_hrrwwc, to_shrinking
from redukto.model import (
    LEFT_SENTINEL as C,
    RIGHT_SENTINEL as D,
    AutomatonSpec,
    ClassFlags,
    accept,
    mvr,
    restart,
    sl,
)


@pytest.fixture
def interpreted_steps(monkeypatch):
    """A list that gets, for every phase that ``engine._cycle`` steps in
    place in the test (every cycle of a deterministic automaton), the number
    of steps it interpreted rather than repeated from the cycle it resumed
    after: the steps of the record it returns first."""
    import redukto.engine as engine

    counts = []
    plain = engine._cycle

    def counted(*args):
        result = plain(*args)
        counts.append(len(result[0].steps))
        return result

    monkeypatch.setattr(engine, "_cycle", counted)
    return counts


@pytest.fixture(scope="session")
def m_e():
    return catalog_get("m_e")


@pytest.fixture(scope="session")
def m_e_h():
    return catalog_get("m_e_h")


@pytest.fixture(scope="session")
def dyck1():
    return catalog_get("dyck1")


@pytest.fixture(scope="session")
def anbn_built():
    entry = catalog_get("anbn_gnf")
    spec, report = build_hrrwwc(entry.grammar, 3)
    return entry, spec, report


@pytest.fixture(scope="session")
def dyck_built():
    entry = catalog_get("dyck_gnf")
    spec, report = build_hrrwwc(entry.grammar, 3)
    return entry, spec, report


@pytest.fixture(scope="session")
def m_e_h_shrunk(m_e_h):
    spec, weights = to_shrinking(m_e_h.spec)
    return spec, weights


@pytest.fixture(scope="session")
def anbn_shrunk(anbn_built):
    _, source, _ = anbn_built
    spec, weights = to_shrinking(source)
    return source, spec, weights


# Every content of a size-2 window over {a, b}.
WINDOWS_AB = [(C, D), (C, "a"), (C, "b")] + [(x, y) for x in "ab" for y in ("a", "b", D)]


@pytest.fixture(scope="session")
def heavy():
    """A valid shrinking automaton whose weights its own cycles break: it
    accepts the words tiled by aa and b, rewriting aa (weight 2) to b
    (weight 3) and deleting a leading b."""
    table = {("qr", w): (restart(),) for w in WINDOWS_AB}
    table[("q0", (C, D))] = (accept(),)
    table[("q0", (C, "a"))] = (mvr("q0"),)
    table[("q0", (C, "b"))] = (sl("qr", (C,)),)
    table[("q0", ("a", "a"))] = (sl("qr", ("b",)),)
    flags = ClassFlags(direction="R", aux="none", deterministic=True, shrinking=True)
    return AutomatonSpec("heavy", frozenset({"q0", "qr"}), "q0", 2, frozenset("ab"),
                         frozenset("ab"), table, flags, weights={"a": 1, "b": 3})


@pytest.fixture(scope="session")
def swapper():
    """A valid shrinking automaton whose cycles do not lower its weights:
    ab and ba rewrite into each other, ba also rewrites to b, and b is
    accepted."""
    table = {("qr", w): (restart(),) for w in WINDOWS_AB}
    table[("q0", (C, "a"))] = (mvr("q0"),)
    table[("q0", (C, "b"))] = (mvr("q0"),)
    table[("q0", ("a", "b"))] = (sl("qr", ("b", "a")),)
    table[("q0", ("b", "a"))] = (sl("qr", ("a", "b")), sl("qr", ("b",)))
    table[("q0", ("b", D))] = (accept(),)
    flags = ClassFlags(direction="R", aux="none", shrinking=True)
    return AutomatonSpec("swapper", frozenset({"q0", "qr"}), "q0", 2, frozenset("ab"),
                         frozenset("ab"), table, flags, weights={"a": 1, "b": 1})
