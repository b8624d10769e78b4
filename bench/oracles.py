"""Closed-form language oracles, written apart from the catalog's.

The correctness gate compares every verdict against these predicates, so
they must not import anything from ``redukto``: a defect in the package's
own oracles cannot then hide a wrong verdict.
"""

from __future__ import annotations

import itertools

OPEN, CLOSE = "a1", "ā1"


def power_of_two(word) -> bool:
    """a^(2^m), m >= 0."""
    n = len(word)
    return n > 0 and set(word) == {"a"} and bin(n).count("1") == 1


def a_plus(word) -> bool:
    return len(word) > 0 and set(word) == {"a"}


def all_a(word) -> bool:
    return set(word) <= {"a"}


def balanced(word) -> bool:
    """Dyck words over the bracket pair a1 / ā1, the empty word included."""
    stack = []
    for tok in word:
        if tok == OPEN:
            stack.append(tok)
        elif tok == CLOSE and stack:
            stack.pop()
        else:
            return False
    return not stack


def balanced_nonempty(word) -> bool:
    return len(word) > 0 and balanced(word)


def anbn(word) -> bool:
    """a^n b^n, n >= 1."""
    n = len(word) // 2
    return n > 0 and len(word) == 2 * n and tuple(word) == ("a",) * n + ("b",) * n


def center(k: int):
    """a^n c^(k-1) b^n, n >= 0."""

    def oracle(word) -> bool:
        n, rest = divmod(len(word) - (k - 1), 2)
        return n >= 0 and rest == 0 and tuple(word) == ("a",) * n + ("c",) * (k - 1) + ("b",) * n

    return oracle


def copies(j: int):
    """(u c)^j u with u over {a, b}."""

    def oracle(word) -> bool:
        text = "".join(word)
        if len(text) != len(word) or not set(text) <= {"a", "b", "c"}:
            return False
        parts = text.split("c")
        return len(parts) == j + 1 and len(set(parts)) == 1

    return oracle


def copies_members(j: int, max_len: int) -> list[tuple]:
    """Members of ``copies(j)`` up to ``max_len``, length-lexicographic."""
    out = []
    for m in range((max_len - j) // (j + 1) + 1):
        for u in itertools.product("ab", repeat=m):
            out.append(tuple("c".join(["".join(u)] * (j + 1))))
    return sorted(out, key=lambda w: (len(w), w))


def members(oracle, alphabet, max_len: int) -> list[tuple]:
    """Words over ``alphabet`` up to ``max_len`` that satisfy ``oracle``,
    length-lexicographic with the alphabet in sorted order."""
    syms = sorted(alphabet)
    return [
        w
        for n in range(max_len + 1)
        for w in itertools.product(syms, repeat=n)
        if oracle(w)
    ]
