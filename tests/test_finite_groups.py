"""Finite groups as an exact oracle.

Coset enumeration of the trivial subgroup (the HLT strategy of Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, ch. 5) gives a
finite group as the action of each generator on its elements, with no code
shared with the pipeline.  Against that action a verified structure is
checked exactly: W accepts one word per element, M_g relates (u, v) over
W's words exactly when u.g = v, and M_e is the diagonal of W.
"""

import pytest

from autostruct.acceptor import build_acceptor
from autostruct.fsa import Fsa
from autostruct.orders import SHORTLEX, WREATH, WTLEX, Order
from autostruct.pipeline import VERIFIED, compute_structure
from autostruct.words import PAD, Alphabet

INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
ALPHABET = Alphabet(
    ["a", "A", "b", "B"], INVERSE,
    weights={"a": 1, "A": 1, "b": 2, "B": 2},
    levels={"a": 1, "A": 1, "b": 2, "B": 2},
)

# name: (relators over a, A, b, B; the group's order)
GROUPS = {
    "D5": (["aa", "bbbbb", "abab"], 10),
    "Q8": (["aaaa", "aaBB", "baBa"], 8),
    "S4": (["aa", "bbb", "ab" * 4], 24),
    "A5": (["aa", "bbb", "ab" * 5], 60),
    "PSL27": (["aa", "bbb", "ab" * 7, "ABab" * 4], 168),
}


def enumerate_cosets(symbols, inverse, relators, max_cosets=20_000) -> list:
    """HLT coset enumeration of the trivial subgroup: the table of the
    group's action on its elements, table[c][x] being c.x, with element 0
    the identity.  Each live coset in turn has every relator scanned from
    it, a coset defined for each gap a scan meets and a deduction made
    when it closes, and then a coset defined for each of its undefined
    moves; two cosets a scan shows equal are merged, with the merges they
    force, through a union-find on coset numbers."""
    table = [dict.fromkeys(symbols)]
    parent = [0]  # a live coset is its own parent

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c, x):
        if len(table) >= max_cosets:
            raise RuntimeError("coset cap")
        table.append(dict.fromkeys(symbols))
        parent.append(len(parent))
        table[c][x], table[-1][inverse[x]] = len(table) - 1, c

    def coincidence(a, b):
        dead = []

        def merge(k, l):
            k, l = sorted((rep(k), rep(l)))
            if k != l:
                parent[l] = k
                dead.append(l)

        merge(a, b)
        for c in dead:  # the list grows as merges force others
            for x in symbols:
                d = table[c][x]
                if d is None:
                    continue
                table[d][inverse[x]] = None
                m, n = rep(c), rep(d)
                if table[m][x] is not None:
                    merge(n, table[m][x])
                elif table[n][inverse[x]] is not None:
                    merge(m, table[n][inverse[x]])
                else:
                    table[m][x], table[n][inverse[x]] = n, m

    def scan_and_fill(c, word):
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inverse[word[j]]] is not None:
                b, j = table[b][inverse[word[j]]], j - 1
            if j < i:
                coincidence(f, b)
            elif i == j:
                table[f][word[i]], table[b][inverse[word[i]]] = b, f
            else:
                define(f, word[i])
                continue
            return

    c = 0
    while c < len(table):
        for r in relators:
            if parent[c] == c:
                scan_and_fill(c, r)
        for x in symbols:
            if parent[c] == c and table[c][x] is None:
                define(c, x)
        c += 1
    live = [c for c in range(len(table)) if parent[c] == c]
    number = {c: k for k, c in enumerate(live)}
    return [{x: number[rep(t)] for x, t in table[c].items()} for c in live]


def element(table, word) -> int:
    c = 0
    for x in word:
        c = table[c][x]
    return c


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_coset_enumeration_finds_each_groups_order(name):
    relators, order = GROUPS[name]
    table = enumerate_cosets(ALPHABET.symbols, INVERSE, relators)
    assert len(table) == order
    for c, row in enumerate(table):
        for x, t in row.items():
            assert table[t][INVERSE[x]] == c
        for r in relators:
            d = c
            for x in r:
                d = table[d][x]
            assert d == c, (name, c, r)


def finite_language(m: Fsa) -> list:
    """Every word the machine accepts, once it is shown to have no cycle:
    a canonical machine is trimmed, so a cycle would make its language
    infinite."""
    into = [0] * m.num_states
    for row in m.moves:
        for t in row.values():
            into[t] += 1
    ready = [s for s in range(m.num_states) if not into[s]]
    for s in ready:  # the list grows as states lose their last move in
        for t in m.moves[s].values():
            into[t] -= 1
            if not into[t]:
                ready.append(t)
    assert len(ready) == m.num_states, "the machine has a cycle"
    return list(m.enumerate_words(m.num_states))


def related_pairs(m: Fsa) -> set:
    """The pairs (u, v) of words a pair machine accepts, padding dropped."""
    return {
        (tuple(x for x, _ in w if x != PAD), tuple(y for _, y in w if y != PAD))
        for w in finite_language(m)
    }


def assert_structure_is_the_group(acceptor, multipliers, identity, table):
    words = finite_language(acceptor)
    assert len(words) == len(table)
    form = {element(table, w): w for w in words}
    assert len(form) == len(table), "two accepted words name one element"
    for g, m in multipliers.items():
        want = {(u, form[table[element(table, u)][g]]) for u in words}
        assert related_pairs(m) == want, g
    assert related_pairs(identity) == {(u, u) for u in words}, "M_e"


CASES = [(name, kind) for name in GROUPS for kind in (SHORTLEX, WTLEX, WREATH)]


@pytest.mark.parametrize("name, kind", CASES)
def test_finite_group_structures_match_coset_enumeration(name, kind):
    relators, _order = GROUPS[name]
    table = enumerate_cosets(ALPHABET.symbols, INVERSE, relators)
    res = compute_structure(
        Order(ALPHABET, kind), [(tuple(r), ()) for r in relators]
    )
    assert res.outcome == VERIFIED
    # every run here completes; PSL(2,7)'s three stop at the labels-stable
    # exit with superpositions still queued, the others drain the queue
    assert res.confluent
    assert_structure_is_the_group(
        res.acceptor, res.multipliers, res.identity, table
    )
    # W read from the rules must be the language the history acceptor
    # builds from D; PSL(2,7)'s wreath histories take about 20 s
    if not (name == "PSL27" and kind == WREATH):
        assert build_acceptor(res.diff).equal_languages(res.acceptor) is None


def test_a_redirected_multiplier_move_is_caught():
    relators, _order = GROUPS["S4"]
    table = enumerate_cosets(ALPHABET.symbols, INVERSE, relators)
    res = compute_structure(
        Order(ALPHABET, SHORTLEX), [(tuple(r), ()) for r in relators]
    )
    assert_structure_is_the_group(res.acceptor, res.multipliers, res.identity, table)
    m = res.multipliers["b"]
    moves = [dict(row) for row in m.moves]
    sym, t = next(iter(moves[m.start].items()))
    moves[m.start][sym] = (t + 1) % m.num_states
    faulty = dict(res.multipliers, b=Fsa(m.symbols, m.start, m.accepting, moves))
    with pytest.raises(AssertionError):
        assert_structure_is_the_group(res.acceptor, faulty, res.identity, table)
