"""Exact word-problem solvers for the paper's parametric families, and the
verified machines checked against them.

The solvers share no code with autostruct: they read words as strings of
the letters x, X, y, Y and return a normal form, equal for two words
exactly when they name one group element.

- BSpq and BSpNegq are <x, y | y x^p = x^(sq) y> with s = +1 or -1, the
  HNN extension of <x> with stable letter y and y x^p Y = x^(sq).
  Britton's lemma gives the normal form: a word is reduced once no pinch
  y x^e Y (p | e) or Y x^e y (q | e) is left, and pushing x^(kp) left
  through y as x^(ksq), and x^(kq) left through Y as x^(ksp), leaves a
  coset representative 0 <= r < p after each y and 0 <= r < q after each Y.
- Hpq and HpNegq are <x, y | x^p y = Y x^(sq)>.  With t = x^p y the
  relator says t^2 = x^n, n = p + sq, so the group is the amalgam
  <x> *_{x^n = t^2} <t>, in which z = x^n = t^2 is central: an element is
  z^k times alternating syllables x^r (0 < r < |n|) and t.  With n = 0 it
  is the free product Z * Z/2: z = 1, and x has no period.
"""

import pytest

from autostruct.pipeline import compute_structure
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.words import PAD


def britton(p, q, s):
    """Normal form in <x, y | y x^p Y = x^(sq)>: the signs of the y-letters
    and the x-exponents around them."""

    def nf(word):
        signs, exps = [], [0]  # exps[i] follows signs[i - 1]
        for letter in word:
            if letter in "xX":
                exps[-1] += 1 if letter == "x" else -1
                continue
            eps = 1 if letter == "y" else -1
            e = exps[-1]
            if signs and signs[-1] == -eps and e % (p if eps < 0 else q) == 0:
                # pinch: y x^(kp) Y = x^(ksq), Y x^(kq) y = x^(ksp)
                signs.pop()
                exps.pop()
                exps[-1] += s * (e // p * q if eps < 0 else e // q * p)
            else:
                signs.append(eps)
                exps.append(0)
        for i in range(len(signs), 0, -1):
            k, exps[i] = divmod(exps[i], p if signs[i - 1] > 0 else q)
            exps[i - 1] += s * k * (q if signs[i - 1] > 0 else p)
        return tuple(signs), tuple(exps)

    return nf


def amalgam(p, q, s):
    """Normal form in <x, y | x^p y = Y x^(sq)> as <x> *_{x^n = t^2} <t>,
    n = p + sq: the power of the central z = x^n, then the syllables.  With
    n = 0, z = 1 and the x syllables are any nonzero power."""
    n = p + s * q
    # y = x^-p t and Y = t^-1 x^p
    spell = {
        "x": (("x", 1),), "X": (("x", -1),),
        "y": (("x", -p), ("t", 1)), "Y": (("t", -1), ("x", p)),
    }
    period = {"x": abs(n), "t": 2}
    unit = {"x": 1 if n > 0 else -1, "t": 1 if n else 0}  # z per period

    def nf(word):
        k, syllables = 0, []
        for letter in word:
            for factor, e in spell[letter]:
                if syllables and syllables[-1][0] == factor:
                    e += syllables.pop()[1]
                c, r = divmod(e, period[factor]) if period[factor] else (0, e)
                k += c * unit[factor]
                if r:
                    syllables.append((factor, r))
        return k, tuple(syllables)

    return nf


SOLVERS = {
    "BSpq": lambda p, q: britton(p, q, 1),
    "BSpNegq": lambda p, q: britton(p, q, -1),
    "Hpq": lambda p, q: amalgam(p, q, 1),
    "HpNegq": lambda p, q: amalgam(p, q, -1),
}
CASES = [("BSpq", 2, 2), ("BSpq", 3, 3), ("BSpNegq", 2, 2), ("Hpq", 2, 1),
         ("HpNegq", 2, 1), ("HpNegq", 2, 2), ("HpNegq", 3, 3)]


def machine(fsa):
    return fsa.start, fsa.accepting, fsa.moves


def words(acceptor, max_len):
    """Every word the acceptor takes, up to max_len letters."""
    start, accepting, rows = acceptor
    out, stack = [], [(start, "")]
    while stack:
        state, w = stack.pop()
        if state in accepting:
            out.append(w)
        if len(w) < max_len:
            stack.extend((t, w + a) for a, t in rows[state].items())
    return out


def pairs(multiplier, max_u):
    """Every padded pair (u, v) the multiplier takes with |u| <= max_u, the
    v-track cut off well past any pair a right machine takes."""
    start, accepting, rows = multiplier
    out, stack = [], [(start, "", "", False, False)]
    while stack:
        state, u, v, u_done, v_done = stack.pop()
        if state in accepting:
            out.append((u, v))
        for (a, b), t in rows[state].items():
            if (a == PAD) < u_done or (b == PAD) < v_done:
                continue  # a track resumes after it padded
            if a != PAD and len(u) == max_u or b != PAD and len(v) > 3 * max_u:
                continue
            stack.append((t, u + a.replace(PAD, ""), v + b.replace(PAD, ""),
                          a == PAD, b == PAD))
    return out


def wrong_moves(nf, labels, rows):
    """The moves d -> d' on (a, b) of a difference machine, its states
    labelled by words, where d' and a^-1 d b differ, a padded coordinate
    counting as empty."""
    inverse = str.maketrans("xXyY", "XxYy")
    bad = []
    for d, row in zip(labels, rows):
        for (a, b), t in row.items():
            a, b = a.replace(PAD, ""), b.replace(PAD, "")
            if nf(a.translate(inverse) + d + b) != nf(labels[t]):
                bad.append((d, a, b, labels[t]))
    return bad


def wrong_pairs(nf, acceptor, multiplier, g, max_u):
    """The pairs (u, v) with |u| <= max_u where the multiplier for g
    disagrees with nf: it takes (u, v) but u g and v differ, or a word u of
    the acceptor has no v or several."""
    got = pairs(multiplier, max_u)
    bad = [(u, v) for u, v in got if nf(u + g) != nf(v)]
    seen = {}
    for u, _ in got:
        seen[u] = seen.get(u, 0) + 1
    bad += [(u, None) for u in words(acceptor, max_u) if seen.get(u) != 1]
    return bad


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "%s-%d-%d" % c)
def case(request):
    name, p, q = request.param
    fam = builtin_family(FamilySpec(name, p, q))
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.verified
    return fam, res, SOLVERS[name](p, q)


def test_relators_are_the_identity(case):
    fam, _, nf = case
    inverse = str.maketrans("xXyY", "XxYy")
    for lhs, rhs in fam.presentation.relations:
        lhs, rhs = "".join(lhs), "".join(rhs)
        assert nf(lhs) == nf(rhs)
        assert nf(lhs + rhs[::-1].translate(inverse)) == nf("")
    assert nf("xX") == nf("Yy") == nf("")
    assert nf("x") != nf("") and nf("y") != nf("")


def test_acceptor_words_name_distinct_elements(case):
    _, res, nf = case
    found = words(machine(res.acceptor), 8)
    assert len({nf(w) for w in found}) == len(found) > 8


@pytest.mark.parametrize("g", ["x", "X", "y", "Y"])
def test_multiplier_pairs_are_right(case, g):
    _, res, nf = case
    acc, mult = machine(res.acceptor), machine(res.multipliers[g])
    assert wrong_pairs(nf, acc, mult, g, 6) == []


def test_a_redirected_multiplier_move_is_caught(case):
    _, res, nf = case
    acc = machine(res.acceptor)
    start, accepting, rows = machine(res.multipliers["y"])
    # send the start's first move back to the start
    sym, target = next(iter(rows[start].items()))
    assert target != start
    moved = [dict(row) for row in rows]
    moved[start][sym] = start
    assert wrong_pairs(nf, acc, (start, accepting, moved), "y", 6)


def test_difference_moves_are_right(case):
    _, res, nf = case
    labels = ["".join(w) for w in res.diff.labels]
    assert wrong_moves(nf, labels, res.diff.fsa.moves) == []


def test_swapped_difference_labels_are_caught(case):
    _, res, nf = case
    labels = ["".join(w) for w in res.diff.labels]
    labels[1], labels[2] = labels[2], labels[1]
    assert wrong_moves(nf, labels, res.diff.fsa.moves)
