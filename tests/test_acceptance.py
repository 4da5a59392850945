"""End-to-end acceptance battery.

One test per deliverable: exact machine sizes and wall-clock caps for the
bundled families, exhaustive normal-form enumerations cross-checked against
independently implemented grammars, and randomized oracle suites for the
order comparisons, pair histories, and the verification predicates.
"""

import itertools
import random
from functools import lru_cache

from autostruct import (
    EQ,
    GT,
    KB_STOPPED,
    LOOP_LIMIT,
    LT,
    PAD,
    Alphabet,
    Fsa,
    GeneralMultiplier,
    Order,
    check_axioms,
    check_domains,
    compute_structure,
    is_confluent,
    serialize_fsa,
)
from autostruct.history import decide_precedes, history_step, root_history
from autostruct.presentations import FamilySpec, builtin_family
from test_core_history import reference_history


@lru_cache(maxsize=None)
def _structure(name, p=1, q=1, wirtinger=False):
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=wirtinger)
    res = compute_structure(fam.order, fam.presentation.relations)
    return fam, res


@lru_cache(maxsize=None)
def _grid_structure(kind):
    weights = {"x": 1, "X": 1, "y": 2, "Y": 2}
    alpha = Alphabet(
        ["x", "X", "y", "Y"],
        {"x": "X", "X": "x", "y": "Y", "Y": "y"},
        weights=weights if kind.startswith("wt") else None,
    )
    res = compute_structure(Order(alpha, kind), [(("x", "y"), ("y", "x"))])
    assert res.verified
    return res


# ----------------------------------------------------------- word helpers


def _runs(w):
    """Maximal single-letter power runs, as (base letter, signed exponent)."""
    out = []
    for sym in w:
        base, step = sym.lower(), (1 if sym.islower() else -1)
        if out and out[-1][0] == base and (out[-1][1] > 0) == (step > 0):
            out[-1][1] += step
        else:
            out.append([base, step])
    return [(b, e) for b, e in out]


def _freely_reduced(w, inverse):
    return all(inverse[w[i]] != w[i + 1] for i in range(len(w) - 1))


def _conjugation_normal_form(w, p, q, flipped):
    """Membership in y^a x^b1 y^c1 ... x^bk y^ck x^d with bounded x-runs.

    Written directly from the run constraints: an x-run followed by a
    positive y-run lies in {1..s} or {s+1-q..-1}, one followed by a
    negative y-run lies in {1..r} or {r+1-p..-1}, where r and s are the
    balanced halves of p and q.  Leading y-run and trailing x-run are free.
    """
    r, s = p // 2, q // 2
    rr = _runs(w)
    for i in range(1, len(rr)):
        if rr[i][0] == rr[i - 1][0]:
            return False
    i = 0
    if i < len(rr) and rr[i][0] == "y":
        i += 1
    while i < len(rr):
        base, b = rr[i]
        if base != "x":
            return False
        if i + 1 == len(rr):
            return True
        c = rr[i + 1][1]
        if c > 0:
            ok = (1 <= b <= s) or (s + 1 - q <= b <= -1)
        else:
            ok = (1 <= b <= r) or (r + 1 - p <= b <= -1)
        if not ok:
            return False
        i += 2
    return True


def _inversion_normal_form(w, p, q, flipped, inverse):
    """Membership for the x^p y = y^-1 x^(+-q) presentations.

    Freely reduced, no negative y-runs, and every x-run immediately before
    a y lies in the balanced window [t+1-(p+q), t] unless the relation has
    the flipped sign; internal runs additionally avoid exponent p.
    """
    if "Y" in w or not _freely_reduced(w, inverse):
        return False
    rr = _runs(w)
    if any(b == "y" and e < 0 for b, e in rr):
        return False
    t = (p + q) // 2
    for i, (base, e) in enumerate(rr):
        if base != "x":
            continue
        if not (i + 1 < len(rr) and rr[i + 1][0] == "y"):
            continue
        if not flipped and not (t + 1 - (p + q) <= e <= t):
            return False
        if i > 0 and e == p:
            return False
    return True


def _irreducibles(rs, syms, maxlen):
    """All irreducible words up to maxlen, grown by prefix extension.

    Irreducible languages are factor closed, so extending only irreducible
    prefixes loses nothing.
    """
    out = {()}
    frontier = [()]
    for _ in range(maxlen):
        frontier = [
            w + (g,) for w in frontier for g in syms if rs.is_irreducible(w + (g,))
        ]
        out.update(frontier)
    return out


def _one_step_diff_reduction(diff, order, w):
    """Does some suffix of w rewrite to a strictly smaller word along a
    single difference-machine trace ending at the empty label?

    Independent search: read the suffix on track 1, branch over track-2
    letters, track the running lexicographic relation, and allow track 2
    to stop early (a shorter replacement always wins under shortlex).
    """
    alpha = order.alphabet
    for start in range(len(w)):
        v = w[start:]
        n = len(v)
        seen = set()
        stack = [(0, 0, 0)]
        while stack:
            k, s, rel = stack.pop()
            if (k, s, rel) in seen:
                continue
            seen.add((k, s, rel))
            if k == n:
                if rel == -1 and s == 0:
                    return True
                continue
            t = s
            short = True
            for kk in range(k, n):
                t = diff.fsa.step(t, (v[kk], PAD))
                if t is None:
                    short = False
                    break
            if short and t == 0:
                return True
            a = v[k]
            for b in alpha.symbols:
                t2 = diff.fsa.step(s, (a, b))
                if t2 is None:
                    continue
                nr = rel
                if rel == 0 and b != a:
                    nr = -1 if alpha.rank(b) < alpha.rank(a) else 1
                stack.append((k + 1, t2, nr))
    return False


def _all_words(syms, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(syms, repeat=n)


# ------------------------------------------------------------- criteria


def test_grid_wreath_structure_is_exact():
    """Two commuting generators at separate levels: verified, 5 states, fast."""
    fam, res = _structure("BSpq", 1, 1)
    assert res.verified
    assert res.acceptor.num_states == 5
    assert res.seconds < 5.0


def test_balanced_conjugation_families_scale():
    """The p = q = 2 and p = q = 3 conjugation groups verify with exactly
    6 and 7 acceptor states inside 30 seconds each."""
    for p, states in ((2, 6), (3, 7)):
        fam, res = _structure("BSpq", p, p)
        assert res.verified, (p, res.outcome)
        assert res.acceptor.num_states == states, (p, res.acceptor.num_states)
        assert res.seconds < 30.0, (p, res.seconds)


def test_confluent_templates_enumerate_their_grammar():
    """For p = q <= 3 the bundled rule template is confluent and three ways
    of listing normal forms up to length 8 agree exactly: the acceptor,
    irreducibility under the template, and the run-constrained grammar."""
    for p in (1, 2, 3):
        fam, res = _structure("BSpq", p, p)
        assert is_confluent(fam.expected), p
        syms = fam.presentation.alphabet.symbols
        accepted = set(res.acceptor.enumerate_words(8))
        irreducible = _irreducibles(fam.expected, syms, 8)
        grammar = {
            w for w in _all_words(syms, 8) if _conjugation_normal_form(w, p, p, False)
        }
        assert accepted == irreducible, p
        assert accepted == grammar, p


def test_inversion_families_verify_quickly():
    """x y = y^-1 x and x x y = y^-1 x both verify inside a minute."""
    for p, q in ((1, 1), (2, 1)):
        fam, res = _structure("Hpq", p, q)
        assert res.verified, (p, q, res.outcome)
        assert res.seconds < 60.0, (p, q, res.seconds)


def test_unbalanced_family_stops_at_limits():
    """y x y^-1 = x^2 has no structure under this order; the run must end
    at a declared limit, within caps, inside two minutes."""
    fam, res = _structure("BSpq", 1, 2)
    assert res.outcome in (KB_STOPPED, LOOP_LIMIT), res.outcome
    assert res.seconds < 120.0, res.seconds


def test_figure_eight_knot_structure_is_exact():
    """The four-generator knot presentation verifies under shortlex with
    exactly 18 acceptor states and 21 word differences."""
    fam, res = _structure("KNOT41", wirtinger=True)
    assert res.verified, res.outcome
    assert res.acceptor.num_states == 18
    assert res.diff.state_count() == 21
    assert res.seconds < 600.0, res.seconds


def test_verified_machines_are_already_canonical():
    """Every machine a verified run returns, the acceptor, each multiplier
    and the identity, is already minimal and canonically numbered: one more
    minimization leaves its serialized bytes unchanged."""
    for fam, res in (
        _structure("BSpq", 3, 3),
        _structure("KNOT41", wirtinger=True),
    ):
        assert res.verified, res.outcome
        machines = [res.acceptor, res.identity, *res.multipliers.values()]
        for m in machines:
            assert serialize_fsa(m.minimized()) == serialize_fsa(m)


def test_grid_acceptor_counts_spheres():
    """The verified commuting-pair acceptor accepts exactly 4n words of
    each length n: the free abelian group of rank two grows linearly."""
    fam, res = _structure("BSpq", 1, 1)
    for n in range(1, 13):
        assert res.acceptor.count_accepted(n) == 4 * n, n


# ------------------------------------------------- invariant battery parts


def _order_zoo():
    weights = {"a": 1, "A": 1, "b": 2, "B": 2}
    levels2 = {"a": 1, "A": 1, "b": 2, "B": 2}
    inv4 = {"a": "A", "A": "a", "b": "B", "B": "b"}
    inv6 = dict(inv4, c="C", C="c")
    levels3 = {"a": 1, "A": 1, "b": 2, "B": 2, "c": 3, "C": 3}
    return [
        Order(Alphabet(["a", "A", "b", "B"], inv4), "shortlex"),
        Order(Alphabet(["a", "A", "b", "B"], inv4, weights=weights), "wtlex"),
        Order(Alphabet(["a", "A", "b", "B"], inv4, weights=weights), "wtshortlex"),
        Order(Alphabet(["a", "A", "b", "B"], inv4, levels=levels2), "wreathshortlex"),
        Order(
            Alphabet(["a", "A", "b", "B", "c", "C"], inv6, levels=levels3),
            "wreathshortlex",
        ),
    ]


def _check_order_axioms(order, rng, triples):
    syms = order.alphabet.symbols
    word = lambda: tuple(rng.choice(syms) for _ in range(rng.randrange(0, 9)))
    for _ in range(triples):
        u, v, w = word(), word(), word()
        c = order.compare(u, v)
        assert c in (LT, EQ, GT)
        assert (c == EQ) == (u == v)
        assert order.compare(v, u) == -c
        assert order.compare(u, u) == EQ
        if c <= 0 and order.compare(v, w) <= 0:
            assert order.compare(u, w) <= 0, (u, v, w)
        t = w[:3]
        assert order.compare(t + u, t + v) == c, (t, u, v)
        assert order.compare(u + t, v + t) == c, (t, u, v)


def _check_histories(order, rng, stages):
    syms = order.alphabet.symbols
    checked = 0
    while checked < stages:
        g = rng.choice(syms)
        if rng.random() < 0.25:
            w1, w2 = (g,), ()
        else:
            w1, w2 = (g,), (rng.choice([s for s in syms if s != g]),)
        h = history_step(order, root_history(order), g, w2[0] if w2 else PAD)
        for _ in range(rng.randrange(0, 13)):
            a = rng.choice(syms)
            if h.longer or rng.random() < 0.2:
                b = PAD
                w1 = w1 + (a,)
            else:
                b = rng.choice(syms)
                w1, w2 = w1 + (a,), w2 + (b,)
            h = history_step(order, h, a, b)
            assert h == reference_history(order, w1, w2), (w1, w2)
            for _q in range(2):
                e1 = (rng.choice(syms),)
                e2 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 4)))
                want = order.compare(w2 + e2, w1 + e1) == LT
                got = decide_precedes(order, h, e1, e2)
                if h.longer and e2:
                    # the length gap is abstracted away; an affirmative
                    # verdict must still be correct
                    assert not got or want, (w1, w2, e1, e2)
                else:
                    assert got == want, (w1, w2, e1, e2)
            checked += 1


_VERIFIED_FAMILIES = (
    ("BSpq", 1, 1),
    ("BSpq", 2, 2),
    ("BSpq", 3, 3),
    ("BSpNegq", 1, 1),
    ("Hpq", 1, 1),
    ("Hpq", 2, 1),
    ("HpNegq", 1, 1),
    ("HpNegq", 2, 1),
)

# template pairs p,q <= 3 whose bundled rule set is not confluent; the
# grammar comparison is vacuous there and the status itself is pinned
_NONCONFLUENT_TEMPLATES = {
    ("Hpq", 2, 1),
    ("Hpq", 3, 1),
    ("Hpq", 3, 2),
    ("HpNegq", 1, 2),
    ("HpNegq", 1, 3),
    ("HpNegq", 2, 1),
    ("HpNegq", 2, 3),
    ("HpNegq", 3, 1),
    ("HpNegq", 3, 2),
}


def _check_difference_machines_sound():
    runs = list(_VERIFIED_FAMILIES) + [("BSpq", 1, 2)]
    for name, p, q in runs:
        fam, res = _structure(name, p, q)
        assert res.diff.violations() == [], (name, p, q)
    for name in ("KNOT41", "KNOT52"):
        fam, res = _structure(name, wirtinger=True)
        assert res.diff.violations() == [], name
    for kind in ("shortlex", "wtlex", "wtshortlex"):
        assert _grid_structure(kind).diff.violations() == [], kind


def _check_fault_injection():
    fam, res = _structure("BSpq", 1, 1)

    gutted = dict(res.multipliers)
    m = gutted["x"]
    gutted["x"] = Fsa(m.symbols, m.start, frozenset(), m.moves)
    gaps = check_domains(res.acceptor, GeneralMultiplier.of(gutted))
    assert any(g == "x" for g, _ in gaps)
    assert all(isinstance(w, tuple) for _, w in gaps)

    # faults the domain check cannot see: swapped multipliers, a
    # non-functional M_x | M_y, and a non-injective M_x that takes every
    # accepted word to the empty word
    swapped = dict(res.multipliers)
    swapped["x"], swapped["y"] = swapped["y"], swapped["x"]
    merged = dict(res.multipliers)
    merged["x"] = merged["x"].union(merged["y"])
    collapsed = dict(res.multipliers)
    acc = res.acceptor
    collapsed["x"] = Fsa(
        res.identity.symbols, acc.start, acc.accepting,
        [{(a, PAD): t for a, t in row.items()} for row in acc.moves],
    )
    for mults in (swapped, merged, collapsed):
        mults = GeneralMultiplier.of(mults)
        assert check_domains(res.acceptor, mults) == []
        bad = check_axioms(fam.order, fam.presentation.relations, mults, res.identity)
        assert bad is not None
        relator, wit = bad
        assert isinstance(wit, tuple)

    broken = res.diff.restricted(res.diff.labels)
    del broken.fsa.moves[0][("x", "x")]
    assert any("diagonal" in v for v in broken.violations())

    mislabelled = res.diff.restricted(res.diff.labels)
    mislabelled.labels[1], mislabelled.labels[2] = (
        mislabelled.labels[2],
        mislabelled.labels[1],
    )
    assert any("track" in v for v in mislabelled.violations())


def _pair_prefixes(mult, maxlen, cap):
    for pw in itertools.islice(mult.enumerate_words(maxlen), cap):
        for k in range(1, len(pw) + 1):
            w1 = tuple(a for a, b in pw[:k] if a != PAD)
            w2 = tuple(b for a, b in pw[:k] if b != PAD)
            yield w1, w2


def _check_weight_bound(res, mu, maxlen, cap=4000):
    """Accepted pairs never gain more measure than their tracked difference."""
    diff = res.diff
    n = 0
    for mult in res.multipliers.values():
        for p1, p2 in _pair_prefixes(mult, maxlen, cap):
            for a, b in ((p1, p2), (p2, p1)):
                if len(b) > len(a):
                    continue
                s = diff.trace_pair(a, b)
                if s is None:
                    continue
                d = diff.labels[s]
                assert mu(b) - mu(a) <= mu(d), (a, b, d)
                n += 1
    return n


def _check_level_bound(res, maxlen, cap=3000):
    """Letter-count analog at the top level occurring in the pair."""
    diff, alpha = res.diff, res.order.alphabet
    n = 0
    for mult in res.multipliers.values():
        for p1, p2 in _pair_prefixes(mult, maxlen, cap):
            for a, b in ((p1, p2), (p2, p1)):
                if len(b) > len(a):
                    continue
                s = diff.trace_pair(a, b)
                if s is None:
                    continue
                d = diff.labels[s]
                top = max(alpha.max_level(a), alpha.max_level(b))
                if top == 0:
                    continue
                count = lambda w: len(alpha.project(w, top))
                assert count(b) - count(a) <= count(d), (a, b, d, top)
                n += 1
    return n


def _check_enumerations():
    # verified parametric families complete confluent: the acceptor must
    # list exactly the irreducible words, exhaustively to length 8
    for name, p, q in _VERIFIED_FAMILIES:
        fam, res = _structure(name, p, q)
        assert res.verified and res.confluent, (name, p, q)
        syms = fam.presentation.alphabet.symbols
        accepted = set(res.acceptor.enumerate_words(8))
        assert accepted == _irreducibles(res.rws, syms, 8), (name, p, q)

    # bundled templates against their grammars, where the template is
    # confluent; elsewhere the non-confluence itself is pinned
    for name in ("BSpq", "BSpNegq", "Hpq", "HpNegq"):
        flipped = name.endswith("Negq")
        for p, q in itertools.product((1, 2, 3), repeat=2):
            fam = builtin_family(FamilySpec(name, p, q))
            if (name, p, q) in _NONCONFLUENT_TEMPLATES:
                assert not is_confluent(fam.expected), (name, p, q)
                continue
            assert is_confluent(fam.expected), (name, p, q)
            alpha = fam.presentation.alphabet
            if name.startswith("BS"):
                member = lambda w: _conjugation_normal_form(w, p, q, flipped)
            else:
                member = lambda w: _inversion_normal_form(
                    w, p, q, flipped, alpha.inverse
                )
            grammar = {w for w in _all_words(alpha.symbols, 8) if member(w)}
            assert grammar == _irreducibles(fam.expected, alpha.symbols, 8), (
                name,
                p,
                q,
            )


def _check_knot_enumerations(rng):
    fam, res = _structure("KNOT41", wirtinger=True)
    alpha = fam.presentation.alphabet
    accepted = set(res.acceptor.enumerate_words(8))
    # safety: accepted words are irreducible, hence freely reduced
    for w in accepted:
        assert res.rws.is_irreducible(w), w
        assert _freely_reduced(w, alpha.inverse), w
    irreducible = _irreducibles(res.rws, alpha.symbols, 8)
    assert accepted <= irreducible
    # the stopped rule set and the acceptor agree exhaustively to length 6
    assert {w for w in irreducible if len(w) <= 6} == {
        w for w in accepted if len(w) <= 6
    }
    # beyond that, every rejected irreducible is not minimal: a single
    # suffix replacement through the difference machine shrinks it
    for w in irreducible - accepted:
        assert _one_step_diff_reduction(res.diff, res.order, w), w
    for w in rng.sample(sorted(accepted), 2000):
        assert not _one_step_diff_reduction(res.diff, res.order, w), w

    fam52, res52 = _structure("KNOT52", wirtinger=True)
    alpha52 = fam52.presentation.alphabet
    accepted = set(res52.acceptor.enumerate_words(6))
    for w in accepted:
        assert res52.rws.is_irreducible(w), w
    irreducible = _irreducibles(res52.rws, alpha52.symbols, 6)
    assert accepted <= irreducible
    for w in irreducible - accepted:
        assert _one_step_diff_reduction(res52.diff, res52.order, w), w
    for w in rng.sample(sorted(accepted), 1000):
        assert not _one_step_diff_reduction(res52.diff, res52.order, w), w

    fam74, res74 = _structure("KNOT74", wirtinger=True)
    assert res74.outcome in (KB_STOPPED, LOOP_LIMIT), res74.outcome
    # completion finishes; the first multiplier product reaches its cap
    assert res74.stopped_by == {
        "stage": "multipliers", "cap": "states", "limit": 100_000,
    }


def test_randomized_and_exhaustive_invariants():
    """The battery: order axioms and translation invariance on random
    triples, stepped histories against from-scratch recomputation and
    direct comparisons, soundness audits of every constructed difference
    machine, fault injections for the verification predicates, measure
    bounds on accepted pairs, and completeness/safety enumerations."""
    rng = random.Random(6021)
    for order in _order_zoo():
        _check_order_axioms(order, rng, 10000)
    for order in _order_zoo():
        _check_histories(order, rng, 10000)

    _check_difference_machines_sound()
    _check_fault_injection()

    n = _check_weight_bound(_grid_structure("shortlex"), len, 7)
    assert n > 3000
    for kind in ("wtlex", "wtshortlex"):
        res = _grid_structure(kind)
        n = _check_weight_bound(res, res.order.word_weight, 7)
        assert n > 3000
    knot = _structure("KNOT41", wirtinger=True)[1]
    assert _check_weight_bound(knot, len, 4, cap=300) > 10000

    for name, p, q in (("BSpq", 1, 1), ("BSpq", 2, 2), ("Hpq", 2, 1)):
        fam, res = _structure(name, p, q)
        assert _check_level_bound(res, 7) > 3000, (name, p, q)

    _check_enumerations()
    _check_knot_enumerations(rng)
