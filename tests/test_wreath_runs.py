"""Runs that go through the wreath history acceptor.

The built-in BSpq(p,p) relation with its levels swapped (x on level 2, y on
level 1) leaves a non-confluent rewriting system, so `compute_structure`
builds W from wreath histories rather than from the rules.  The files under
``tests/data`` spell those presentations with their order block.

Two kinds of check:

* pins: outcome, sizes, the raw acceptor's state count and the digest of
  every serialized machine; the raw count moves on history changes that
  leave the minimized machines alone
* an oracle that shares no code with the history or acceptor modules: the
  built-in order (y on top) completes to a confluent system, whose
  rewriting solves the word problem of the same group, and W must accept
  exactly the least word of each class under the x-top order
"""

import hashlib
from functools import cmp_to_key, lru_cache
from itertools import product
from pathlib import Path

import pytest

from autostruct import acceptor
from autostruct.formats import diff_to_fsa, parse_presentation, serialize_fsa
from autostruct.pipeline import VERIFIED, compute_structure
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.rewrite import CONFLUENT, RewriteSystem, kb_complete

DATA = Path(__file__).parent / "data"

XTOP_PINS = {
    2: {
        "rules": 188,
        "acceptor_states": 13,
        "difference_states": 33,
        "raw_acceptor_states": [165],
        "sha256": {
            "D": "445f95d9a39bedcb89697421b4d5540a69e168b161fddcb5a86d5a43cc49d62d",
            "W": "fc9770cde59addf5cd56670c0e2bf19d2066b11b92abc810c0066b048c441981",
            "M_e": "3667bc601bd32ced267ac14d0209d781898616b026924dda59db565fdba7dce1",
            "M_X": "4d3bf478ccb8a7fbe0632b12212509265f557c62036d2fcb7bf995d38e756915",
            "M_Y": "1fba63803a783b0c2cecf46385b62690207f45b92826cc49a3fd0a4ca3104ff6",
            "M_x": "1b76d572bd4132fb3320c29d1fe3f33146dbd0eb8d19f6d66ef0c265ff635e55",
            "M_y": "777ea1b2ba042429753cab9f91e2930007960f0d38351bf4178234af1782c0cb",
        },
    },
    3: {
        "rules": 216,
        "acceptor_states": 28,
        "difference_states": 89,
        "raw_acceptor_states": [2029],
        "sha256": {
            "D": "e6ec8480c7bb04fdde29fa128f26842dcae38483652d83dbb3dc6ea0522a01f5",
            "W": "43bb65908c6db743e4cb756ed61f6519fea0427d476e63fda24fe85f22d1deaa",
            "M_e": "142dff0ca7ad7154850fc73547afb71d90b69f322a6051237fef41e57988b5f5",
            "M_X": "d590812eec5704dcc4cb79b2404f2cacb6385a2b5bd28404a722c35917eb528a",
            "M_Y": "a68947810fc466003f4656372f7217f3c4633f50e709daefec1ef322529dbf58",
            "M_x": "379023e6e859d44c144f1becab82925763cea6a89b4f24710347e6a8adb479ed",
            "M_y": "83f309c08ac51256afc555aadff5f42de50fef6558e0e9b0543efd76c721670a",
        },
    },
}


@lru_cache(maxsize=None)
def xtop_run(p):
    """The x-top BSpq(p,p) run and the raw state count of every W built."""
    pres, order = parse_presentation((DATA / f"BSpq-{p}-{p}-xtop.pres").read_text())
    raws = []
    real = acceptor.explore

    def spy(*args, **kw):
        raw, states = real(*args, **kw)
        raws.append(raw.num_states)
        return raw, states

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptor, "explore", spy)
        res = compute_structure(order, pres.relations)
    return res, raws


@pytest.mark.parametrize("p", sorted(XTOP_PINS))
def test_xtop_conjugation_runs_keep_their_pins(p):
    pins = XTOP_PINS[p]
    res, raws = xtop_run(p)
    assert res.outcome == VERIFIED
    assert not res.confluent and res.loops == 0
    assert res.diff.violations() == []
    report = res.report()
    for key in ("rules", "acceptor_states", "difference_states"):
        assert report[key] == pins[key], key
    assert raws == pins["raw_acceptor_states"]
    texts = {
        "D": serialize_fsa(*diff_to_fsa(res.diff)),
        "W": serialize_fsa(res.acceptor),
        "M_e": serialize_fsa(res.identity),
    }
    for g, m in res.multipliers.items():
        texts[f"M_{g}"] = serialize_fsa(m)
    got = {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()}
    assert got == pins["sha256"]


@pytest.mark.parametrize("p", sorted(XTOP_PINS))
def test_xtop_acceptor_takes_the_least_word_of_each_class(p):
    fam = builtin_family(FamilySpec("BSpq", p, p))
    solver = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    assert kb_complete(solver) == CONFLUENT
    res, _ = xtop_run(p)
    order, w = res.order, res.acceptor
    classes = {}  # y-top normal form -> the words of length <= 7 in it
    for n in range(8):
        for word in product(order.alphabet.symbols, repeat=n):
            classes.setdefault(solver.rewrite(word), []).append(word)
    checked = 0
    for words in classes.values():
        if len(words[0]) > 4:  # words are listed shortest first
            continue
        least = min(words, key=cmp_to_key(order.compare))
        assert [v for v in words if w.accepts(v)] == [least]
        checked += 1
    assert checked > 100
