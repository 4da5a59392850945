"""File formats: parsing, serialization, and round-trip determinism."""

import hashlib

import pytest

from autostruct.diff import DiffMachine
from autostruct.errors import InputError
from autostruct.formats import (
    diff_to_fsa,
    parse_fsa,
    parse_presentation,
    parse_rules,
    serialize_fsa,
    serialize_presentation,
    serialize_rules,
)
from autostruct.fsa import Fsa
from autostruct.pipeline import compute_structure
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.rewrite import RewriteSystem

GRID = """\
# two commuting generators
version 1
generators x y
inverse x X
inverse y Y
order wreathshortlex
lexorder x X y Y
level x 1
level y 2
relation y x = x y
"""


def test_parse_presentation_grid():
    pres, order = parse_presentation(GRID)
    assert pres.alphabet.symbols == ("x", "X", "y", "Y")
    assert pres.relations == ((("y", "x"), ("x", "y")),)
    assert order.kind == "wreathshortlex"
    assert pres.alphabet.level("Y") == 2


def test_presentation_round_trip():
    pres, order = parse_presentation(GRID)
    text = serialize_presentation(pres, order)
    pres2, order2 = parse_presentation(text)
    assert pres2.relations == pres.relations
    assert pres2.alphabet.symbols == pres.alphabet.symbols
    assert serialize_presentation(pres2, order2) == text


def test_presentation_defaults_and_e_side():
    text = "version 1\ngenerators x\ninverse x X\nrelation x x x = e\n"
    pres, order = parse_presentation(text)
    assert order.kind == "shortlex"
    assert pres.relations == ((("x", "x", "x"), ()),)


@pytest.mark.parametrize("bad,hint", [
    ("generators x\ninverse x X\n", "version"),
    ("version 1\ninverse x X\n", "generators"),
    ("version 1\ngenerators x\n", "inverse"),
    ("version 1\ngenerators x\ninverse x X\nrelation x = y\n", "unknown symbol"),
    ("version 1\ngenerators x\ninverse x X\nrelation x x\n", "exactly one ="),
    ("version 1\ngenerators x\ninverse x X\norder wtlex\n", "weight"),
    ("version 1\ngenerators x\ninverse x X\norder wreathshortlex\n", "level"),
    ("version 1\ngenerators x\ninverse x X\nweight x 2\n", "weight"),
    ("version 1\ngenerators x\ninverse x X\nlexorder x\n", "every symbol"),
    ("version 1\ngenerators x\ninverse x X\nfrobnicate\n", "frobnicate"),
    (
        "version 1\ngenerators x y\ninverse x X\ninverse y Y\n"
        "order wreathshortlex\nlevel x 1\nlevel X 2\nlevel y 2\n",
        "level",
    ),
], ids=lambda v: v[:24].replace("\n", ";"))
def test_presentation_errors_carry_line_numbers(bad, hint):
    with pytest.raises(InputError) as err:
        parse_presentation(bad)
    assert "line" in str(err.value)
    assert hint.split()[0] in str(err.value)


def test_weighted_order_parses_with_default_weights():
    text = (
        "version 1\ngenerators x y\ninverse x X\ninverse y Y\n"
        "order wtlex\nweight y 3\nrelation y = x x x\n"
    )
    pres, order = parse_presentation(text)
    assert order.alphabet.weights == {"x": 1, "X": 1, "y": 3, "Y": 1}


@pytest.mark.parametrize("block,what", [
    ("order wtlex\nweight y 3\nweight q 5\n", "weight"),
    ("order wreathshortlex\nlevel x 1\nlevel y 2\nlevel q 2\n", "level"),
    ("inverse q Q\n", "inverse"),
], ids=["weight", "level", "inverse"])
def test_order_lines_must_name_a_symbol(block, what):
    # a weight or level for no symbol would otherwise be dropped, leaving
    # a different order than the file spells; an inverse pair of
    # undeclared symbols is reported at its line
    text = "version 1\ngenerators x y\ninverse x X\ninverse y Y\n" + block
    last = text.count("\n")
    with pytest.raises(InputError) as err:
        parse_presentation(text)
    assert str(err.value) == f"line {last}: {what} line names unknown symbol 'q'"


def test_rules_round_trip_and_free_rule_merge():
    pres, order = parse_presentation(GRID)
    rs = RewriteSystem.from_relations(order, pres.relations)
    text = serialize_rules(rs)
    rs2 = parse_rules(text)
    assert list(rs2.active()) == list(rs.active())
    assert serialize_rules(rs2) == text
    # free rules come back even when a file omits them
    bare = (
        "rws version 1\ngenerators x\ninverse x X\nrule x x -> e\n"
    )
    rs3 = parse_rules(bare)
    assert (("x", "X"), ()) in set(rs3.active())
    assert rs3.rewrite(("x", "x", "x")) == ("x",)


def test_rules_reject_misoriented_rule():
    bad = "rws version 1\ngenerators x\ninverse x X\nrule x -> x x\n"
    with pytest.raises(InputError) as err:
        parse_rules(bad)
    assert "oriented" in str(err.value)


def small_word_fsa():
    # accepts words over {x, y} with no yy factor
    return Fsa.from_rows(
        symbols=("x", "y"),
        start=0,
        accepting={0, 1},
        rows=[{"x": 0, "y": 1}, {"x": 0}],
    )


def test_fsa_round_trip_word():
    a = small_word_fsa()
    text = serialize_fsa(a)
    b = parse_fsa(text)
    assert b.num_states == 2
    assert b.equal_languages(a) is None
    assert serialize_fsa(b) == text


def test_fsa_serialization_is_canonical():
    a = small_word_fsa()
    # the same machine with its states listed the other way around
    swapped = Fsa.from_rows(
        symbols=("x", "y"),
        start=1,
        accepting={0, 1},
        rows=[{"x": 1}, {"x": 1, "y": 0}],
    )
    assert serialize_fsa(a) == serialize_fsa(swapped)


def test_fsa_hand_written_parses():
    text = (
        "fsa version 1\ntype word\nalphabet x\npad _\n"
        "states 2\nstart 1\naccept 2\n1 x 2\n"
    )
    a = parse_fsa(text)
    assert a.num_states == 2
    assert a.accepts(("x",))
    assert not a.accepts(())


@pytest.mark.parametrize("mutate,hint", [
    (lambda t: t.replace("fsa version 1", "fsa version 2"), "fsa version 1"),
    (lambda t: t.replace("type word", "type tape"), "word or pair"),
    (lambda t: t.replace("1 x 2", "1 q 2"), "unknown symbol"),
    (lambda t: t.replace("1 x 2", "1 x 9"), "out of range"),
    (lambda t: t.replace("1 x 2", "1 x 2\n1 x 1"), "duplicate"),
    (
        lambda t: t.replace("1 x 2", "label 1 x\nlabel 1 e\n1 x 2"),
        "line 9: duplicate label for state 1",
    ),
    (lambda t: t.replace("pad _", "pad +"), "padding"),
    (
        lambda t: t.replace("alphabet x", "alphabet x e"),
        "line 3: symbol name 'e' is reserved",
    ),
    (
        lambda t: t.replace("type word", "type pair")
        .replace("alphabet x", "alphabet x _").replace("1 x 2", "1 x,_ 2"),
        "line 3: symbol name '_' is reserved",
    ),
    (lambda t: t.replace("states 2\n", ""), "missing states"),
    # a state no line names is refused before a row is built for each
    (lambda t: t.replace("states 2", "states 3"), "line 5: state 3 is named by no line"),
    (
        lambda t: t.replace("states 2", "states 100000000"),
        "line 5: state 3 is named by no line",
    ),
])
def test_fsa_errors(mutate, hint):
    good = (
        "fsa version 1\ntype word\nalphabet x\npad _\n"
        "states 2\nstart 1\naccept 2\n1 x 2\n"
    )
    with pytest.raises(InputError) as err:
        parse_fsa(mutate(good))
    assert hint in str(err.value)


def test_fsa_label_names_a_state():
    text = (
        "fsa version 1\ntype word\nalphabet x\npad _\n"
        "states 3\nstart 1\naccept 2\nlabel 3 x\n1 x 2\n"
    )
    a = parse_fsa(text)
    assert a.num_states == 3 and a.state_labels == {2: ("x",)}


def test_pair_fsa_round_trip_with_labels():
    fam = builtin_family(FamilySpec("BSpq", 1, 1))
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    from autostruct.rewrite import CONFLUENT, kb_complete

    assert kb_complete(rs) == CONFLUENT
    diff = DiffMachine.from_rules(rs)
    a, labels = diff_to_fsa(diff)
    text = serialize_fsa(a, labels)
    b = parse_fsa(text)
    assert b.track == 2
    assert b.num_states == diff.state_count()
    assert sorted(b.state_labels.values()) == sorted(labels.values())
    # start state is the empty-word difference
    assert b.state_labels[b.start] == ()
    assert serialize_fsa(b, b.state_labels) == text


def test_multiplier_survives_the_file_format():
    fam = builtin_family(FamilySpec("BSpq", 1, 1))
    res = compute_structure(fam.order, fam.presentation.relations)
    m = res.multipliers["x"]
    again = parse_fsa(serialize_fsa(m))
    assert again.equal_languages(m) is None
    assert again.accepts_pair(("y",), ("y", "x"))


# sha256 of the text of every machine of two verified runs: serialize_fsa's
# bytes must not move when only speed or the in-memory form is meant to
# change
SERIALIZED = {
    ("KNOT41", 1, 1): {
        "D": "cbf5edc281c059ed85450ccfa01f3310e340735f3704d88a3fa29529be2850b1",
        "W": "951ee295967b2693ee4e72f4e90d17043a654c9608cba170e2afc9a3d2c58466",
        "M_e": "7c72e42c5d3dc059444429d8e68fdfcd03e91cda9609e4a227df5f9f41e8c14b",
        "M_T": "9b2fbb3d543941f98a8a1921a16b9d0ad8c1d3e7b8d284be99c4dce7de8a65d4",
        "M_X": "edc8c7cf12f8019e6d7533d59c5c18d48cb058295f73faa3bdc62a89f67c56f6",
        "M_Y": "247faa1cd6824b6bd5406b633fe21c037a6552eee899512ceb10f67db23b999f",
        "M_Z": "2a554b39a4b49be17782cb15a6e97676f7e7b31e5e2cdb8131d12dc59f681d2f",
        "M_t": "fc3f720bb6aa7aae9ea4b2e449e41ddd8c4464df13c855d18a55c64c11f1d334",
        "M_x": "03dc1e61d611f22f159652f056a0d8fef9de47a35389a682d2d86428b749baf8",
        "M_y": "e94324b34a7ea9cb31989965cd90237b22c6ee82c9c3c0826b47b01c98a937cd",
        "M_z": "fc5d67f93e10f4647a73454f284f15521a2db11d734ad97ff5951f3027b5a6c0",
    },
    ("BSpq", 2, 2): {
        "D": "4db5bc601185f03e385974f4dab2aa2ef6d3905a621305770ad32ba8e5f9b828",
        "W": "5a0538e6d80ca4e6054a4577cda3f0d98bc25b27104c57df46da35839cc718dd",
        "M_e": "912c49c37e3f31d2e36bcab9371dfcac02a16e8f4c6d11c081978e3e7bae0ac5",
        "M_X": "4dd14ca1e092afe28d39ed5ae87e9c0346052a18a0c8243004e9efc4f95b09aa",
        "M_Y": "54695c9522d851968dccb65066917282ab5b90caca6b96789051634ec2971473",
        "M_x": "337722e11f5d022081aeade5f8f13de5c04ba4912ab21d17d5f70400abfe3422",
        "M_y": "84b9904948b933b7293a78abcb8e3f3e45ef0eb8376cd5ab8f0144d931832d8e",
    },
}


@pytest.mark.parametrize(
    "case", sorted(SERIALIZED), ids=lambda c: "-".join(map(str, c))
)
def test_serialized_machines_keep_their_bytes(case):
    name, p, q = case
    fam = builtin_family(
        FamilySpec(name, p, q), wirtinger=name.startswith("KNOT")
    )
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.outcome == "verified"
    # D as the bundle writes it, with its labels
    texts = {
        "D": serialize_fsa(*diff_to_fsa(res.diff)),
        "W": serialize_fsa(res.acceptor),
        "M_e": serialize_fsa(res.identity),
    }
    for g, m in res.multipliers.items():
        texts[f"M_{g}"] = serialize_fsa(m)
    got = {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()}
    assert got == SERIALIZED[case]
