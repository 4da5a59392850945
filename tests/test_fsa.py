"""Automaton operations against brute-force set computations."""

import itertools
import random
import tracemalloc

import pytest

from autostruct import pipeline
from autostruct.errors import LogicError, ResourceLimit
from autostruct.formats import serialize_fsa
from autostruct.fsa import (
    Fsa,
    _pad_kind,
    coreachable,
    empty_fsa,
    explore,
    pad_pair,
    pair_symbols,
    search_back,
)
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.words import PAD

AB = ("a", "b")
PAIRS = pair_symbols(AB)


def brute_language(m, max_len):
    out = set()
    for n in range(max_len + 1):
        for w in itertools.product(m.symbols, repeat=n):
            if m.accepts(w):
                out.add(w)
    return out


def fsa_from_words(symbols, words):
    """Trie of an explicit finite language, minimized."""
    rows = [{}]
    accepting = set()
    states = {(): 0}
    for w in words:
        for i in range(len(w)):
            pre, sym = tuple(w[:i]), w[i]
            nxt = tuple(w[: i + 1])
            if nxt not in states:
                states[nxt] = len(states)
                rows.append({})
            rows[states[pre]][sym] = states[nxt]
        accepting.add(states[tuple(w)])
    return Fsa.from_rows(symbols, 0, accepting, rows).minimized()


def even_a_machine():
    # words over {a,b} with an even number of a's
    return Fsa.from_rows(AB, 0, {0}, [{"a": 1, "b": 0}, {"a": 0, "b": 1}])


def no_bb_machine():
    # words without the factor bb
    return Fsa.from_rows(AB, 0, {0, 1}, [{"a": 0, "b": 1}, {"a": 0}])


def all_words_machine():
    return Fsa.from_rows(AB, 0, {0}, [{"a": 0, "b": 0}])


def fingerprint(m):
    return (
        m.symbols,
        m.num_states,
        m.start,
        tuple(sorted(m.accepting)),
        tuple(tuple(row.items()) for row in m.moves),
        m.track,
    )


def test_accepts_and_enumerate():
    m = even_a_machine()
    want = {
        w
        for n in range(6)
        for w in itertools.product(AB, repeat=n)
        if sum(1 for s in w if s == "a") % 2 == 0
    }
    assert brute_language(m, 5) == want
    got = list(m.enumerate_words(5))
    assert set(got) == want
    # length order, alphabet order within a length
    assert got == sorted(got, key=lambda w: (len(w), [AB.index(s) for s in w]))


def test_count_accepted_matches_enumeration():
    for m in (even_a_machine(), no_bb_machine(), all_words_machine()):
        per_len = {}
        for w in m.enumerate_words(7):
            per_len[len(w)] = per_len.get(len(w), 0) + 1
        for n in range(8):
            assert m.count_accepted(n) == per_len.get(n, 0)


def test_minimize_canonical_and_minimal():
    # two different constructions of the even-a language
    a = even_a_machine().minimized()
    bloated = Fsa.from_rows(
        AB,
        2,
        {2, 3},
        [
            # unreachable junk
            {"a": 1},
            {"b": 0},
            {"b": 3, "a": 4},
            {"a": 4, "b": 2},
            {"b": 4, "a": 3},
        ],
    )
    # bloated has two interchangeable accept states: same language
    assert brute_language(bloated, 6) == brute_language(a, 6)
    b = bloated.minimized()
    assert fingerprint(a) == fingerprint(b)
    assert a.num_states == 2
    empty = Fsa.from_rows(AB, 0, set(), [{"a": 1}, {"b": 2}, {}])
    assert fingerprint(empty.minimized()) == fingerprint(empty_fsa(AB))
    # 0 and 1 both accept a*; only 0 has a move, on b, into the dead state
    # 2, so a minimizer that skipped the trim would keep them apart
    dead_end = Fsa.from_rows(
        AB, 0, {0, 1}, [{"a": 1, "b": 2}, {"a": 1}, {"a": 2}],
    )
    assert fingerprint(dead_end.minimized()) == fingerprint(
        Fsa.from_rows(AB, 0, {0}, [{"a": 0}])
    )


ABC = ("a", "b", "c")


def residual(m, q, max_len=8):
    """Accepted suffixes of length <= max_len from state q, found by
    walking every path."""
    out = set()
    stack = [(q, ())]
    while stack:
        s, w = stack.pop()
        if s in m.accepting:
            out.add(w)
        if len(w) < max_len:
            for sym in m.symbols:
                t = m.step(s, sym)
                if t is not None:
                    stack.append((t, w + (sym,)))
    return frozenset(out)


def reachable(m):
    seen = {m.start}
    stack = [m.start]
    while stack:
        s = stack.pop()
        for sym in m.symbols:
            t = m.step(s, sym)
            if t is not None and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def renumbered(m, rng):
    """m with its states renumbered at random, start included, and its
    moves added in a random order; also the renumbering."""
    perm = list(range(m.num_states))
    rng.shuffle(perm)
    moves = [
        (perm[s], sym, perm[t])
        for s, row in enumerate(m.moves) for sym, t in row.items()
    ]
    rng.shuffle(moves)
    rows = [{} for _ in perm]
    for s, sym, t in moves:
        rows[s][sym] = t
    other = Fsa.from_rows(
        m.symbols, perm[m.start], {perm[s] for s in m.accepting}, rows
    )
    return other, perm


def test_minimize_against_brute_force_residuals():
    # residuals of length <= 8 tell apart any two states of a machine with
    # at most 7 states (8 once completed), so their count is the minimum
    rng, more = random.Random(20121), random.Random(1998)
    seen_unreachable = seen_dead_with_moves = seen_missing = 0
    seen_live_below_start = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 0.9))
        rows = [
            {sym: rng.randrange(n) for sym in ABC if rng.random() < density}
            for s in range(n)
        ]
        m = Fsa.from_rows(ABC, rng.randrange(n), {
            s for s in range(n) if rng.random() < 0.35
        }, rows)
        live = reachable(m)
        res = {s: residual(m, s) for s in range(n)}
        seen_unreachable += len(live) < n
        seen_dead_with_moves += any(
            not res[s] and sym in rows[s] for s in live for sym in ABC
        )
        seen_missing += sum(map(len, rows)) < n * len(ABC)

        mm = m.minimized()
        assert residual(mm, mm.start) == res[m.start]
        distinct = {res[s] for s in live if res[s]}
        if distinct:
            assert mm.num_states == len(distinct)
        else:
            assert fingerprint(mm) == fingerprint(empty_fsa(ABC))
        assert fingerprint(mm.minimized()) == fingerprint(mm)

        # the same machine under other state numbers and move order
        renamed, perm = renumbered(m, rng)
        assert fingerprint(renamed.minimized()) == fingerprint(mm)
        assert serialize_fsa(renamed.minimized()) == serialize_fsa(mm)

        # the trim keeps live states the start cannot reach, so the quotient
        # must be read from the start's block; checked under a second
        # accepting set and on a track-2 machine too, drawn from their own
        # generator so that the machines above stay the same
        seen_live_below_start += any(
            res[s] for s in range(m.start) if s not in live
        )
        acc = {s for s in range(n) if more.random() < 0.35}
        assert serialize_fsa(
            renamed.minimized({perm[s]: 1 for s in acc})
        ) == serialize_fsa(m.minimized(dict.fromkeys(acc, 1)))
        pairs = random_partial_machine(more, PAIRS, max_states=7)
        assert serialize_fsa(renumbered(pairs, more)[0].minimized()) == (
            serialize_fsa(pairs.minimized())
        )
    assert seen_unreachable and seen_dead_with_moves and seen_missing
    assert seen_live_below_start


def test_boolean_ops_against_sets():
    m1, m2 = even_a_machine(), no_bb_machine()
    l1, l2 = brute_language(m1, 6), brute_language(m2, 6)
    assert brute_language(m1.intersect(m2), 6) == l1 & l2
    assert brute_language(m1.union(m2), 6) == l1 | l2
    universe = brute_language(all_words_machine(), 6)
    assert brute_language(m1.complement(), 6) == universe - l1


def test_equal_languages_and_witness():
    m1 = even_a_machine()
    m2 = even_a_machine().minimized()
    assert m1.equal_languages(m2) is None
    m3 = no_bb_machine()
    w = m1.equal_languages(m3)
    assert w is not None
    assert m1.accepts(w) != m3.accepts(w)
    # shortest possible disagreement, earliest in alphabet order
    assert w == ("a",)


def random_partial_machine(rng, symbols, max_states=4, density=0.6):
    """A random partial DFA: each move is defined with the given chance."""
    n = rng.randint(1, max_states)
    rows = [
        {sym: rng.randrange(n) for sym in symbols if rng.random() < density}
        for s in range(n)
    ]
    accepting = {s for s in range(n) if rng.random() < 0.5}
    return Fsa.from_rows(symbols, 0, accepting, rows)


def perturbed(rng, m):
    """The machine with one edit: a move redirected, added or dropped, or
    one state's acceptance flipped, so the two often agree on short words."""
    rows = [dict(row) for row in m.moves]
    accepting = set(m.accepting)
    s = rng.randrange(m.num_states)
    if rng.random() < 0.25:
        accepting ^= {s}
    else:
        sym = rng.choice(m.symbols)
        if sym in rows[s] and rng.random() < 0.5:
            del rows[s][sym]
        else:
            rows[s][sym] = rng.randrange(m.num_states)
    return Fsa.from_rows(m.symbols, m.start, accepting, rows)


def shortlex_words(symbols, max_len):
    """Every word up to max_len, shortest first, then in alphabet order."""
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


ABC = ("a", "b", "c")


def test_word_machine_ops_against_brute_force():
    # two partial machines with n1 and n2 states complete to n1 + 1 and
    # n2 + 1 states, so if their languages differ, some word of length at
    # most n1 + n2 tells them apart: below that bound the brute force is
    # exhaustive
    rng = random.Random(1991)
    disagreed = 0
    for _ in range(80):
        m1 = random_partial_machine(rng, ABC)
        m2 = (
            perturbed(rng, m1) if rng.random() < 0.7
            else random_partial_machine(rng, ABC)
        )
        bound = m1.num_states + m2.num_states
        want = next(
            (
                w for w in shortlex_words(ABC, bound)
                if m1.accepts(w) != m2.accepts(w)
            ),
            None,
        )
        assert m1.equal_languages(m2) == want
        assert m2.equal_languages(m1) == want
        disagreed += want is not None
        union, comp = m1.union(m2), m1.complement()
        for w in shortlex_words(ABC, 5):
            assert union.accepts(w) == (m1.accepts(w) or m2.accepts(w)), w
            assert comp.accepts(w) != m1.accepts(w), w
    assert 20 < disagreed < 70


def test_pair_machine_ops_against_brute_force():
    # only words that keep the padding rule are compared: every pad_pair of
    # two words.  The brute force reaches length 5; a machine pair whose
    # first disagreement lies beyond that must still get a valid witness
    # that they disagree on.
    rng = random.Random(1992)
    max_len = 5
    words = list(shortlex_words(AB, max_len))
    rank = {sym: i for i, sym in enumerate(PAIRS)}
    valid = sorted(
        {pad_pair(u, v) for u in words for v in words},
        key=lambda p: (len(p), [rank[sym] for sym in p]),
    )
    disagreed = 0
    for _ in range(60):
        m1 = random_partial_machine(rng, PAIRS, max_states=3, density=0.4)
        m2 = perturbed(rng, m1)
        want = next(
            (p for p in valid if m1.accepts(p) != m2.accepts(p)), None
        )
        got = m1.equal_languages(m2)
        assert m2.equal_languages(m1) == got
        if want is not None:
            assert got == want
            disagreed += 1
        elif got is not None:
            assert len(got) > max_len
            u = tuple(a for a, _ in got if a != PAD)
            v = tuple(b for _, b in got if b != PAD)
            assert pad_pair(u, v) == got
            assert m1.accepts(got) != m2.accepts(got)
        union = m1.union(m2)
        for n in range(4):
            for p in itertools.product(PAIRS, repeat=n):
                assert union.accepts(p) == (m1.accepts(p) or m2.accepts(p)), p
    assert 20 < disagreed < 50


# ------------------------------------------------------------- track 2


def diagonal_machine():
    return Fsa.from_rows(PAIRS, 0, {0}, [{(g, g): 0 for g in AB}])


def append_machine(suffix):
    """Pairs (w, w . suffix)."""
    rows = [{(g, g): 0 for g in AB}] + [{} for _ in suffix]
    for i, s in enumerate(suffix):
        rows[i][(PAD, s)] = i + 1
    return Fsa.from_rows(PAIRS, 0, {len(suffix)}, rows)


def strip_machine(suffix):
    """Pairs (w . suffix, w)."""
    rows = [{(g, g): 0 for g in AB}] + [{} for _ in suffix]
    for i, s in enumerate(suffix):
        rows[i][(s, PAD)] = i + 1
    return Fsa.from_rows(PAIRS, 0, {len(suffix)}, rows)


def brute_pairs(m, max_len):
    out = set()
    for n1 in range(max_len + 1):
        for w1 in itertools.product(AB, repeat=n1):
            for n2 in range(max_len + 1):
                for w2 in itertools.product(AB, repeat=n2):
                    if m.accepts_pair(w1, w2):
                        out.add((w1, w2))
    return out


def test_pad_pair_and_universe():
    assert pad_pair(("a",), ("a", "b")) == (("a", "a"), (PAD, "b"))


def test_complement_refuses_pair_machines():
    with pytest.raises(LogicError):
        diagonal_machine().complement()


def test_accepts_pair_and_brute():
    ap = append_machine(("a",))
    want = {
        (w, w + ("a",))
        for n in range(4)
        for w in itertools.product(AB, repeat=n)
    }
    assert brute_pairs(ap, 4) == {(u, v) for u, v in want if len(v) <= 4}


def project(m, keep):
    """Oracle: the track-1 machine of coordinate keep (1 or 2) of a pair
    machine's language, by subset construction over the pairs padded on
    that coordinate as silent moves.  Shares no code with the pipeline's
    fused domain check."""
    assert m.track == 2 and keep in (1, 2)
    silent = []
    visible = {}  # kept generator -> the pairs that read it
    for sym in m.symbols:
        if sym[keep - 1] == PAD:
            silent.append(sym)
        else:
            visible.setdefault(sym[keep - 1], []).append(sym)

    def closure(states) -> frozenset:
        seen = set(states)
        todo = list(states)
        while todo:
            s = todo.pop()
            for sym in silent:
                t = m.step(s, sym)
                if t is not None and t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)

    def successors(cur):
        for g, syms in visible.items():
            nxt = {
                m.moves[s][sym]
                for s in cur
                for sym in syms
                if sym in m.moves[s]
            }
            if nxt:
                yield g, closure(nxt)

    raw, _ = explore(
        tuple(visible), closure({m.start}), successors,
        lambda cur: not m.accepting.isdisjoint(cur),
    )
    return raw.minimized()


def test_project():
    ap = append_machine(("a",))
    left = project(ap, 1)
    assert left.equal_languages(all_words_machine()) is None
    right = project(ap, 2)
    # all nonempty words ending in a
    ends_a = fsa_from_words(
        AB,
        [
            w
            for n in range(1, 7)
            for w in itertools.product(AB, repeat=n)
            if w[-1] == "a"
        ],
    )
    assert brute_language(right, 6) == brute_language(ends_a, 6)


def test_compose_append_then_append():
    c = append_machine(("a",)).compose(append_machine(("b",)))
    want = append_machine(("a", "b")).minimized()
    assert c.equal_languages(want) is None


def test_compose_middle_outlives_both():
    # append a, then strip it again: the middle word is the longest of the
    # three, so acceptance happens on silent tail moves
    c = append_machine(("a",)).compose(strip_machine(("a",)))
    assert c.equal_languages(diagonal_machine()) is None


def test_compose_with_early_finisher():
    # diagonal then append: the first machine ends before the output does
    c = diagonal_machine().compose(append_machine(("b", "b")))
    want = append_machine(("b", "b")).minimized()
    assert c.equal_languages(want) is None


def test_compose_asymmetric_lengths():
    # strip one letter then append two: net effect replaces a trailing a
    # with bb only via the middle word
    c = strip_machine(("a",)).compose(append_machine(("b", "b")))
    got = brute_pairs(c, 4)
    want = {
        (w + ("a",), w + ("b", "b"))
        for n in range(4)
        for w in itertools.product(AB, repeat=n)
    }
    want = {(u, v) for u, v in want if len(u) <= 4 and len(v) <= 4}
    assert got == want


def relation_machine(pairs):
    return fsa_from_words(PAIRS, [pad_pair(u, v) for u, v in pairs])


def test_compose_matches_brute_force_join():
    # random finite relations, joined by comparing middle words; every pair
    # word of length <= 3 is probed, including ones that break the padding
    # discipline
    rng = random.Random(1997)
    words = [w for n in range(4) for w in itertools.product(AB, repeat=n)]
    probes = [w for n in range(4) for w in itertools.product(PAIRS, repeat=n)]
    for _ in range(100):
        first = {
            (rng.choice(words), rng.choice(words))
            for _ in range(rng.randint(0, 5))
        }
        # middle words are also drawn from the first relation's outputs,
        # so that most joins are not empty
        mids = [v for _, v in first] + words
        second = {
            (rng.choice(mids), rng.choice(words))
            for _ in range(rng.randint(0, 5))
        }
        joined = {
            pad_pair(u, w)
            for u, v in first
            for v2, w in second
            if v == v2
        }
        c = relation_machine(first).compose(relation_machine(second))
        for p in probes:
            assert c.accepts(p) == (p in joined), (first, second, p)


def test_compose_keeps_the_padding_discipline():
    # an input that resumes a padded track cannot make the composite do so
    resumed = fsa_from_words(PAIRS, [((PAD, "a"), ("a", "a"))])
    composite = resumed.compose(diagonal_machine())
    assert composite.start not in coreachable(composite)


def compose_untrimmed(first, second):
    """Reference: `Fsa.compose` as it was before it dropped dead middle
    pairs, every subset taking in each pair its moves reach."""
    done = -1
    final_a = first.accepting | {done}
    final_b = second.accepting | {done}
    moves_a = first.moves
    # the second machine's moves grouped by middle letter, with finishing:
    # (PAD, PAD) from an accepting state into done, whose own row, the
    # extra last one, holds only that move
    moves_b = []
    for row in second.moves:
        by_y = {}
        for (y, z), t in row.items():
            by_y.setdefault(y, []).append((z, t))
        moves_b.append(by_y)
    moves_b.append({})
    for s in (*second.accepting, done):
        moves_b[s].setdefault(PAD, []).append((PAD, done))
    into_a, into_b = {}, {}
    for s, row in enumerate(first.moves):
        for (x, y), t in row.items():
            if x == PAD:
                into_a.setdefault(t, {}).setdefault(y, []).append(s)
    for s, row in enumerate(second.moves):
        for (y, z), t in row.items():
            if z == PAD:
                into_b.setdefault(t, {}).setdefault(y, []).append(s)

    def silent_predecessors(pair):
        ta, tb = pair
        from_b = into_b.get(tb, {})
        for y, sources in into_a.get(ta, {}).items():
            for sb in from_b.get(y, ()):
                for sa in sources:
                    yield sa, sb

    tail = search_back(
        [(sa, sb) for sa in final_a for sb in final_b], silent_predecessors
    )

    def successors(state):
        kind, cur = state
        nxt = {}
        for sa, sb in cur:
            by_y = moves_b[sb]
            for (x, y), ta in moves_a[sa].items() if sa != done else ():
                for z, tb in by_y.get(y, ()):
                    nxt.setdefault((x, z), set()).add((ta, tb))
            if sa in final_a:
                for z, tb in by_y.get(PAD, ()):
                    nxt.setdefault((PAD, z), set()).add((done, tb))
        for sym in first.symbols:
            if sym in nxt:
                k = _pad_kind(sym)
                if k == kind or not kind:
                    yield sym, (k, frozenset(nxt[sym]))

    raw, _ = explore(
        first.symbols, (0, frozenset({(first.start, second.start)})),
        successors, lambda state: not tail.keys().isdisjoint(state[1]),
    )
    return raw.minimized()


def composed_both_ways(first, second):
    """(bytes of compose, raw states it minimized, bytes of the reference,
    raw states the reference minimized)."""
    raws = []
    real = Fsa.minimized

    def spy(self, *args):
        raws.append(self.num_states)
        return real(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fsa, "minimized", spy)
        got = serialize_fsa(first.compose(second))
        want = serialize_fsa(compose_untrimmed(first, second))
    assert len(raws) == 2  # each minimizes one raw machine, once
    return got, raws[0], want, raws[1]


def test_trimmed_compose_matches_the_untrimmed_one_on_random_machines():
    rng = random.Random(1616)
    trimmed = nonempty = 0
    for n in range(300):
        first = random_partial_machine(rng, PAIRS, max_states=4, density=0.5)
        second = random_partial_machine(rng, PAIRS, max_states=4, density=0.5)
        got, raw, want, raw_ref = composed_both_ways(first, second)
        assert got == want, n
        assert raw <= raw_ref, n
        trimmed += raw < raw_ref
        nonempty += got != serialize_fsa(empty_fsa(PAIRS))
    assert trimmed > 100 and nonempty > 100


def test_trimmed_compose_matches_the_untrimmed_one_on_knot_halves():
    # the halves the axiom check composes for KNOT41's final multipliers
    fam = builtin_family(FamilySpec("KNOT41", 1, 1), wirtinger=True)
    res = pipeline.compute_structure(fam.order, fam.presentation.relations)
    assert res.outcome == pipeline.VERIFIED and not res.confluent
    alpha = fam.order.alphabet
    words = [x + alpha.invert(y) for x, y in fam.presentation.relations]
    halves = {half for r in words for half in (r[: len(r) // 2], r[len(r) // 2:])}
    steps = 0
    for half in sorted(halves):
        out = res.multipliers[half[0]] if half else None
        for a in half[1:]:
            got, raw, want, raw_ref = composed_both_ways(out, res.multipliers[a])
            assert got == want, half
            assert raw < raw_ref, half
            out = out.compose(res.multipliers[a])
            steps += 1
    assert steps > 0


def labelled_machine(rng, bits=2):
    """A random partial pair machine with a random label per state."""
    m = random_partial_machine(rng, PAIRS, max_states=3, density=0.5)
    labels = [rng.randrange(1 << bits) for _ in range(m.num_states)]
    accepting = (s for s, label in enumerate(labels) if label)
    out = Fsa(m.symbols, m.start, accepting, m.moves)
    out.labels = labels
    return out


def under_bit(m, bit):
    """A labelled machine minimized under the states whose label has bit."""
    return m.minimized({s: 1 for s, label in enumerate(m.labels) if label >> bit & 1})


def test_labelled_compose_keeps_each_bits_bytes():
    # every bit of a labelled composite, minimized alone, has the bytes the
    # reference gives for the two sides minimized under its pair of bits;
    # one bit over machines without labels keeps compose's own bytes
    rng = random.Random(3939)
    pairs = [(i, j) for i in range(2) for j in range(2)]
    empty = serialize_fsa(empty_fsa(PAIRS))
    nonempty = 0
    for n in range(150):
        first, second = labelled_machine(rng), labelled_machine(rng)
        got = first.compose(second, pairs)
        assert len(got.labels) == got.num_states, n
        for k, (i, j) in enumerate(pairs):
            want = serialize_fsa(
                compose_untrimmed(under_bit(first, i), under_bit(second, j))
            )
            assert serialize_fsa(under_bit(got, k)) == want, (n, k)
            nonempty += want != empty
        plain = [Fsa(m.symbols, m.start, m.accepting, m.moves) for m in (first, second)]
        one = plain[0].compose(plain[1], [(0, 0)])
        assert one.labels == [int(s in one.accepting) for s in range(one.num_states)]
        assert serialize_fsa(one) == serialize_fsa(plain[0].compose(plain[1])) == (
            serialize_fsa(compose_untrimmed(*plain))
        ), n
    assert nonempty > 200


def test_distinct_pairs_under_bit_pairs_match_each_pair_alone():
    # on two labelled machines, the witness keyed by each bit pair's index,
    # a repeated pair included, is the one the search over the two sides
    # minimized under that pair's bits returns, or absent with it
    rng = random.Random(4848)
    pairs = [(1, 0), (0, 0), (1, 1), (0, 1), (1, 0)]
    found = missing = 0
    for n in range(200):
        first, second = labelled_machine(rng), labelled_machine(rng)
        got = first.composite_distinct_pairs(second, pairs)
        assert set(got) <= set(range(len(pairs))), n
        for k, (i, j) in enumerate(pairs):
            want = under_bit(first, i).composite_distinct_pairs(
                under_bit(second, j)
            ).get(0)
            assert got.get(k) == want, (n, k)
            found += want is not None
            missing += want is None
    assert found > 300 and missing > 300


def test_compose_with_a_dead_start_pair_is_empty():
    # the start pair moves, but only to a pair that can never accept
    first = relation_machine([(("a",), ("a",))])
    stuck = Fsa.from_rows(PAIRS, 0, set(), [{("a", "b"): 1}, {}])
    for a, b in ((first, stuck), (stuck, first)):
        got, _raw, want, _raw_ref = composed_both_ways(a, b)
        assert got == want == serialize_fsa(empty_fsa(PAIRS))


def test_compose_accepts_through_the_silent_tail_alone():
    # after (a, a) neither side accepts: only the middle word's last b,
    # read as a silent (padding, padding) move, reaches acceptance
    first = relation_machine([(("a",), ("a", "b"))])
    second = relation_machine([(("a", "b"), ("a",))])
    got, _raw, want, _raw_ref = composed_both_ways(first, second)
    assert got == want
    c = first.compose(second)
    assert brute_pairs(c, 3) == {(("a",), ("a",))}


def test_compose_accepts_only_after_one_side_finished():
    # the first side finishes before the output ends, and then the second
    # side finishes before the input ends
    one = relation_machine([(("a",), ("a",))])
    grow = relation_machine([(("a",), ("a", "b", "b"))])
    shrink = relation_machine([(("a", "b", "b"), ("a",))])
    for first, second, pair in (
        (one, grow, (("a",), ("a", "b", "b"))),
        (shrink, one, (("a", "b", "b"), ("a",))),
    ):
        got, _raw, want, _raw_ref = composed_both_ways(first, second)
        assert got == want
        assert brute_pairs(first.compose(second), 3) == {pair}


def test_validate_catches_malformed():
    with pytest.raises(LogicError):
        Fsa(AB, 5, set(), [{}, {}]).validate()
    with pytest.raises(LogicError):
        Fsa(AB, 0, {7}, [{}, {}]).validate()
    with pytest.raises(LogicError):
        Fsa(AB, 0, set(), [{"z": 1}, {}]).validate()
    # an alphabet of pairs and generator names, in either order
    for mixed in (PAIRS + AB, AB + PAIRS):
        with pytest.raises(LogicError, match="mixes pairs and generator names"):
            Fsa(mixed, 0, set(), [{}]).validate()
    ok = even_a_machine()
    ok.validate()


def test_validate_checks_every_row():
    # each row: symbols of the alphabet, in strictly ascending alphabet
    # order, and targets in range
    Fsa(AB, 0, {0}, [{"a": 1, "b": 0}, {}]).validate()
    for bad in ([{"b": 0, "a": 1}, {}], [{"a": 2}, {}], [{}, {"b": -1}]):
        with pytest.raises(LogicError):
            Fsa(AB, 0, {0}, bad).validate()
    # from_rows puts rows in alphabet order and leaves foreign symbols last
    Fsa.from_rows(AB, 0, {0}, [{"b": 0, "a": 1}, {}]).validate()
    with pytest.raises(LogicError):
        Fsa.from_rows(AB, 0, {0}, [{"z": 0, "a": 0}]).validate()


def test_track_follows_from_the_alphabet():
    assert Fsa(PAIRS, 0, {0}, [{("a", PAD): 0}]).track == 2
    assert Fsa(AB, 0, {0}, [{"a": 0}]).track == 1


def test_explore_cap_fires_on_the_state_past_it():
    # a ring of n states, each moving to the start and to the next one
    def ring(n):
        def successors(i):
            yield "a", 0
            yield "b", (i + 1) % n
        return successors

    for n in (1, 2, 5):
        m, states = explore(AB, 0, ring(n), lambda i: i == 0, max_states=n)
        assert m.num_states == n and states == list(range(n))
        with pytest.raises(ResourceLimit) as hit:
            explore(AB, 0, ring(n + 1), lambda i: True, max_states=n)
        assert (hit.value.cap, hit.value.limit) == ("states", n)
        # an endless chain: every state below the cap is numbered and
        # expanded before state n + 1 is refused
        expanded = []

        def chain(i):
            expanded.append(i)
            yield "a", i
            yield "b", i + 1

        with pytest.raises(ResourceLimit) as hit:
            explore(AB, 0, chain, lambda i: True, max_states=n)
        assert (hit.value.cap, hit.value.limit) == ("states", n)
        assert expanded == list(range(n))


def _explore_by_rows(symbols, start, successors, is_accept, max_states=None):
    """`explore` as it was: states numbered as they are found and each
    row filled as its state is expanded."""
    ids = {start: 0}
    states = [start]
    moves = []
    accepting = []
    for sid, state in enumerate(states):
        if is_accept(state):
            accepting.append(sid)
        row = {}
        for sym, nxt in successors(state):
            tid = ids.get(nxt)
            if tid is None:
                tid = len(states)
                if max_states is not None and tid >= max_states:
                    raise ResourceLimit("states", max_states)
                ids[nxt] = tid
                states.append(nxt)
            row[sym] = tid
        moves.append(row)
    return Fsa(symbols, 0, accepting, moves), states


def test_explore_matches_the_row_filling_reference():
    # seeded random graphs over int nodes, seen as ints, tuples and
    # frozensets; a fresh equal object is yielded on every move
    rng = random.Random(20)
    shapes = (
        lambda i: i,
        lambda i: (i % 3, i // 3, "t"),
        lambda i: frozenset(j for j in range(12) if i >> j & 1),
    )
    symbols = tuple("abcde")
    for n in range(60):
        size = rng.randint(1, 40)
        graph = [
            [(sym, rng.randrange(size)) for sym in symbols if rng.random() < 0.4]
            for _ in range(size)
        ]
        final = {i for i in range(size) if rng.random() < 0.3}
        shape = shapes[n % 3]
        node = {shape(i): i for i in range(size)}

        def run(build, max_states=None):
            expanded = []

            def successors(state):
                expanded.append(state)
                for sym, t in graph[node[state]]:
                    yield sym, shape(t)

            try:
                m, states = build(
                    symbols, shape(0), successors,
                    lambda s: node[s] in final, max_states,
                )
            except ResourceLimit as hit:
                return ("cap", hit.cap, hit.limit, expanded)
            rows = [list(row.items()) for row in m.moves]  # in row order
            return (rows, m.accepting, m.num_states, states, expanded)

        got, want = run(explore), run(_explore_by_rows)
        assert got == want
        m_states = len(want[3])
        # the cap lets exactly max_states states through, and fires on the next
        assert run(explore, m_states) == want
        if m_states > 1:
            capped = run(explore, m_states - 1)
            assert capped == run(_explore_by_rows, m_states - 1)
            assert capped[:3] == ("cap", "states", m_states - 1)


def test_explore_memory_beyond_the_machine():
    # each row is filled as its state is expanded, so the search holds
    # little beside the machine it returns: about 10 bytes per move at the
    # peak, where moves kept in flat lists until the end took about 27
    rng = random.Random(35)
    symbols = tuple("abcde")
    size = 20_000
    graph = [
        [(sym, rng.randrange(size)) for sym in symbols if rng.random() < 0.8]
        for _ in range(size)
    ]
    tracemalloc.start()
    try:
        m, states = explore(
            symbols, 0, graph.__getitem__, lambda i: i % 3 == 0
        )
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    moves = sum(map(len, m.moves))
    assert moves > 75_000
    assert (peak - held) / moves < 16


def test_query_walks_match_an_exhaustive_walk():
    # count_accepted and enumerate_words walk rows; the oracle runs every
    # word of each length through step, in length order and then alphabet
    # order
    rng = random.Random(4242)

    def walk(m, w):
        s = m.start
        for sym in w:
            s = m.step(s, sym)
            if s is None:
                return False
        return s in m.accepting

    for n in range(60):
        if n % 2:
            m, max_len = random_partial_machine(rng, PAIRS, 4, 0.5), 4
        else:
            m, max_len = random_partial_machine(rng, ABC, 5, 0.6), 6
        want = [
            w for k in range(max_len + 1)
            for w in itertools.product(m.symbols, repeat=k) if walk(m, w)
        ]
        assert list(m.enumerate_words(max_len)) == want, n
        for k in range(max_len + 1):
            assert m.count_accepted(k) == sum(len(w) == k for w in want), n


def test_empty_fsa():
    e = empty_fsa(AB)
    assert e.start not in coreachable(e)
    assert list(e.enumerate_words(4)) == []
    even = even_a_machine()
    assert even.start in coreachable(even)


def test_composite_distinct_pair_against_brute_force():
    # random partial machines, which may break the padding discipline, and
    # fixed ones whose sides finish at different times or end in (PAD, b)
    # tails.  The brute force asks the composite for every valid pair word
    # of two distinct words up to length 4; a pair found only beyond that
    # must still be distinct and accepted.
    rng = random.Random(2026)
    max_len = 4
    words = list(shortlex_words(AB, max_len))
    valid = {pad_pair(u, v) for u in words for v in words if u != v}
    fixed = [
        diagonal_machine(), append_machine(("a",)), append_machine(("b", "b")),
        strip_machine(("a",)), strip_machine(("a", "b")),
    ]

    def machine():
        if rng.random() < 0.3:
            return rng.choice(fixed)
        return random_partial_machine(rng, PAIRS, max_states=3, density=0.5)

    flagged = beyond = 0
    for n in range(300):
        first, second = machine(), machine()
        composite = first.compose(second)
        brute = any(composite.accepts(p) for p in valid)
        got = first.composite_distinct_pairs(second).get(0)
        assert got is not None or not brute, n
        if got is not None:
            u = tuple(a for a, _ in got if a != PAD)
            v = tuple(b for _, b in got if b != PAD)
            assert u != v and pad_pair(u, v) == got, n
            assert composite.accepts(got), n
            flagged += 1
            beyond += not brute
    assert 100 < flagged < 250
    assert beyond > 0


def test_a_kept_composition_table_serves_both_sides():
    # a machine keeps one composition table, read by its rows on the left
    # and by middle letter on the right: a multiplier composed first on the
    # left and then on the right gives the bytes and witness fresh copies do
    fam = builtin_family(FamilySpec("KNOT41", 1, 1), wirtinger=True)
    res = pipeline.compute_structure(fam.order, fam.presentation.relations)
    mults = res.multipliers

    def fresh(m):
        return Fsa(m.symbols, m.start, m.accepting, m.moves)

    witnesses = 0
    for g, h in itertools.combinations_with_replacement(sorted(mults), 2):
        kept, other = fresh(mults[g]), fresh(mults[h])
        for first, second in ((kept, other), (other, kept)):
            assert serialize_fsa(first.compose(second)) == serialize_fsa(
                fresh(first).compose(fresh(second))
            ), (g, h)
            wit = first.composite_distinct_pairs(second).get(0)
            assert wit == fresh(first).composite_distinct_pairs(fresh(second)).get(0)
            witnesses += wit is not None
    assert witnesses > 0
