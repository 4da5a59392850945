"""Built-in families: expected rule systems and presentation sanity."""

import pytest

from autostruct.errors import InputError
from autostruct.presentations import (
    FAMILY_NAMES,
    BuiltFamily,
    FamilySpec,
    Presentation,
    builtin_family,
    knot_presentation,
)
from autostruct.rewrite import CONFLUENT, KbCompletion, RewriteSystem, is_confluent
from autostruct.words import Alphabet


def test_family_spec_validation():
    with pytest.raises(InputError):
        FamilySpec("NoSuchFamily")
    with pytest.raises(InputError):
        FamilySpec("BSpq", 0, 1)
    with pytest.raises(InputError):
        FamilySpec("Hpq", 1, -2)
    assert FamilySpec("KNOT52").p == 1


def test_presentation_checks_words():
    alpha = Alphabet(["x", "X"], {"x": "X", "X": "x"})
    with pytest.raises(InputError):
        Presentation(alpha, ((("x", "q"), ()),))


def test_commuting_pair_instance_is_the_known_plane_grid_system():
    # p = q = 1 makes the relation yx = xy, so the expected system must be
    # the classic eight-rule one for two commuting generators
    fam = builtin_family(FamilySpec("BSpq", 1, 1))
    got = set(fam.expected.active())
    want = {
        (("x", "X"), ()),
        (("X", "x"), ()),
        (("y", "Y"), ()),
        (("Y", "y"), ()),
        (("x", "y"), ("y", "x")),
        (("x", "Y"), ("Y", "x")),
        (("X", "y"), ("y", "X")),
        (("X", "Y"), ("Y", "X")),
    }
    assert got == want
    assert is_confluent(fam.expected)


@pytest.mark.parametrize("name", ["BSpq", "BSpNegq", "Hpq", "HpNegq"])
@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_expected_rules_hold_in_the_group(name, p, q):
    # every expected rule must be a consequence of the single defining
    # relation; a confluent completion of that relation decides words
    fam = builtin_family(FamilySpec(name, p, q))
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    stop = KbCompletion(rs, max_rules=400, max_len=40).run(60_000)
    if stop != CONFLUENT:
        pytest.skip("completion did not finish inside the test budget")
    for lhs, rhs in fam.expected.active():
        assert rs.rewrite(lhs) == rs.rewrite(rhs), (lhs, rhs)


@pytest.mark.parametrize("name,p,q", [("BSpq", 3, 3), ("Hpq", 2, 1)])
def test_expected_rules_are_oriented_and_reduce_the_relation(name, p, q):
    fam = builtin_family(FamilySpec(name, p, q))
    lhs, rhs = fam.presentation.relations[0]
    # both relation sides must normalize identically under the expected
    # system whenever it is confluent; otherwise at least rewriting is sane
    a, b = fam.expected.rewrite(lhs), fam.expected.rewrite(rhs)
    if is_confluent(fam.expected):
        assert a == b
    assert fam.expected.rewrite(a) == a
    assert fam.expected.rewrite(b) == b


def test_wreath_families_have_leveled_alphabets():
    for name in ("BSpq", "BSpNegq", "Hpq", "HpNegq"):
        fam = builtin_family(FamilySpec(name, 2, 3))
        assert fam.order.kind == "wreathshortlex"
        assert fam.presentation.alphabet.level("x") == 1
        assert fam.presentation.alphabet.level("Y") == 2


def _abelianized_quotient_is_infinite_cyclic(pres) -> bool:
    """Smith-form check that Z^gens modulo the relator rows is Z."""
    gens = [s for s in pres.alphabet.symbols if s == s.lower()]
    col = {g: i for i, g in enumerate(gens)}
    rows = []
    for rel, rhs in pres.relations:
        assert rhs == ()
        v = [0] * len(gens)
        for s in rel:
            v[col[s.lower()]] += 1 if s in col else -1
        rows.append(v)

    # Smith normal form by row and column operations; matrices are tiny
    m, n = len(rows), len(gens)
    a = [row[:] for row in rows]
    t = 0
    diag = []
    while t < m and t < n:
        pivot = min(
            ((i, j) for i in range(t, m) for j in range(t, n) if a[i][j]),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
            default=None,
        )
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                k = a[i][t] // a[t][t]
                for j in range(t, n):
                    a[i][j] -= k * a[t][j]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j]:
                k = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= k * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue  # remainders survived; pick a smaller pivot again
        diag.append(abs(a[t][t]))
        t += 1
    # quotient is Z exactly when the rank falls one short and every
    # elementary divisor is 1
    return t == len(gens) - 1 and all(d == 1 for d in diag)


@pytest.mark.parametrize("name,gens,rels", [
    ("KNOT41", 5, 4),
    ("KNOT52", 6, 5),
    ("KNOT74", 8, 7),
])
def test_knot_presentations_shape_and_homology(name, gens, rels):
    pres = knot_presentation(name)
    assert len(pres.alphabet.symbols) == 2 * gens
    assert pres.alphabet.symbols[0] == "a"
    assert len(pres.relations) == rels

    wirt = knot_presentation(name, wirtinger=True)
    assert len(wirt.alphabet.symbols) == 2 * (gens - 1)
    assert len(wirt.relations) == rels - 1
    # every relator is freely reduced as written
    free = RewriteSystem(builtin_family(FamilySpec(name)).order)
    for rel, _ in pres.relations:
        assert free.rewrite(rel) == rel
    # a knot group abelianizes to the integers; this catches transposed
    # letters or wrong inverse marks in the relator tables
    assert _abelianized_quotient_is_infinite_cyclic(wirt)


def test_builtin_family_returns_expected_only_for_parametric_ones():
    for name in FAMILY_NAMES:
        fam = builtin_family(FamilySpec(name, 1, 1))
        assert isinstance(fam, BuiltFamily)
        if name.startswith("KNOT"):
            assert fam.expected is None
            assert fam.order.kind == "shortlex"
        else:
            assert fam.expected is not None
