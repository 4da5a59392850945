"""Knot invariants of the bundled Wirtinger knot groups, worked out from
the relators alone, with nothing from autostruct but the data.

The Fox-calculus Alexander matrix at t = -1 gives the knot's determinant
|Delta(-1)|: 5 for the figure eight (4_1) and 7 for 5_2.  A prime p that
divides it gives a non-abelian image of the group in the dihedral group
D_p, which a backtracking search over the generators finds; D_p for a
prime p that does not divide it has none.

KNOT74 is left out: its bundled data is not 7_4 (it has the relator
y U Z, which no Wirtinger crossing gives), and mending it moves the
benchmark's pins.
"""

from fractions import Fraction

import pytest

from autostruct.presentations import FamilySpec, builtin_family


def wirtinger(name):
    pres = builtin_family(FamilySpec(name), wirtinger=True).presentation
    gens = [g for g in pres.alphabet.symbols if g.islower()]
    return gens, [rel for rel, _ in pres.relations]


def fox_at_minus_one(relator, gen) -> int:
    """The Fox derivative of the relator by gen, every generator sent to
    t = -1: a letter g or g^-1 at position i adds (-1)^i."""
    total = 0
    for i, letter in enumerate(relator):
        if letter.lower() == gen:
            total += (-1) ** i
    return total


def determinant(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


def dihedral_image(gens, relators, p):
    """Images of the generators in D_p, each x -> s*x + r (s = +-1) on
    Z/p, under which every relator is the identity and two images do not
    commute; None when there is none."""
    elements = [(s, r) for s in (1, -1) for r in range(p)]

    def mul(f, g):  # f after g
        return f[0] * g[0], (f[0] * g[1] + f[1]) % p

    def inv(f):
        return f[0], (-f[0] * f[1]) % p

    def value(word, image):
        out = (1, 0)
        for letter in word:
            g = image[letter.lower()]
            out = mul(out, g if letter.islower() else inv(g))
        return out

    def search(image):
        for rel in relators:
            if all(letter.lower() in image for letter in rel):
                if value(rel, image) != (1, 0):
                    return None
        if len(image) == len(gens):
            values = list(image.values())
            if any(mul(f, g) != mul(g, f) for f in values for g in values):
                return dict(image)
            return None
        for e in elements:
            found = search({**image, gens[len(image)]: e})
            if found:
                return found
        return None

    return search({})


@pytest.mark.parametrize("name, det", [("KNOT41", 5), ("KNOT52", 7)])
def test_alexander_determinant(name, det):
    gens, relators = wirtinger(name)
    assert len(relators) == len(gens) - 1
    matrix = [[fox_at_minus_one(rel, g) for g in gens] for rel in relators]
    # any one column dropped gives the same determinant, up to sign
    for drop in range(len(gens)):
        minor = [row[:drop] + row[drop + 1 :] for row in matrix]
        assert abs(determinant(minor)) == det


@pytest.mark.parametrize("name, p", [("KNOT41", 5), ("KNOT52", 7)])
def test_non_abelian_dihedral_image(name, p):
    gens, relators = wirtinger(name)
    assert dihedral_image(gens, relators, p) is not None
    # D_p has one only for a prime p that divides the determinant
    for other in (3, 5, 7):
        if other != p:
            assert dihedral_image(gens, relators, other) is None
