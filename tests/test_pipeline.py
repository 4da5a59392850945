"""End-to-end structure computation and its failure handling."""

import functools
import hashlib
import json
import random
import tracemalloc
from array import array
from pathlib import Path

import pytest

from autostruct import acceptor
from autostruct.acceptor import build_acceptor, irreducible_word_acceptor
from autostruct.cli import _report_lines
from autostruct.diff import EPS, DiffMachine
from autostruct.errors import ResourceLimit
from autostruct.formats import (
    diff_to_fsa, parse_presentation, serialize_fsa, serialize_rules,
)
from autostruct.fsa import Fsa, coreachable, explore, pad_pair, pair_symbols
from autostruct.presentations import FamilySpec, builtin_family
from autostruct import pipeline
from autostruct.pipeline import (
    AXIOM_FAILED,
    KB_STOPPED,
    LOOP_LIMIT,
    VERIFIED,
    GeneralMultiplier,
    build_multiplier,
    check_axioms,
    check_domains,
    compute_structure,
    run_knuth_bendix,
)
from autostruct.orders import KINDS, SHORTLEX, WREATH, WTLEX, Order
from autostruct.rewrite import _RETIRED, KbCompletion, RewriteSystem, is_confluent
from autostruct.words import PAD, Alphabet
from test_fsa import project
from test_acceptance import _structure
from test_rewrite import _corpus_system, _random_presentation


def family(name, p, q):
    return builtin_family(FamilySpec(name, p, q))


def run_family(name, p, q, **kw):
    fam = family(name, p, q)
    return compute_structure(fam.order, fam.presentation.relations, **kw)


def test_commuting_pair_verifies():
    res = run_family("BSpq", 1, 1)
    assert res.outcome == VERIFIED
    assert res.confluent
    assert res.acceptor.num_states == 5
    assert res.diff.state_count() == 9
    # one multiplier per generator, plus the diagonal identity machine
    assert set(res.multipliers) == {"x", "X", "y", "Y"}
    assert res.identity.accepts_pair(("y", "x"), ("y", "x"))
    assert res.multipliers["x"].accepts_pair(("y",), ("y", "x"))
    assert not res.multipliers["x"].accepts_pair(("y",), ("x", "y"))


def test_conjugation_family_verifies_after_one_gap_loop():
    res = run_family("BSpq", 2, 2)
    assert res.outcome == VERIFIED
    assert res.loops == 1
    assert res.acceptor.num_states == 6
    assert res.diff.state_count() == 41
    # the repaired loop's gap is not carried into the verified result
    assert res.witness is None
    assert res.stopped_by is None


def test_inversion_family_verifies():
    res = run_family("Hpq", 1, 1)
    assert res.outcome == VERIFIED
    assert res.acceptor.num_states == 5
    # Y never survives reduction, so no accepted word may contain it
    for w in res.acceptor.enumerate_words(5):
        assert "Y" not in w


def test_doubling_conjugation_hits_the_loop_limit():
    # conjugation doubles the x-exponent, which no synchronous set of
    # multipliers can track; the gap loop must give up, not diverge
    res = run_family("BSpq", 1, 2, max_loops=4)
    assert res.outcome == LOOP_LIMIT
    assert res.loops == 5
    assert res.witness is not None
    assert res.stopped_by == {
        "stage": "domains", "cap": "correction loops", "limit": 4,
    }


def test_stalled_domain_repair_stops_at_once():
    # the full KNOT52 presentation: from loop 2 on the repair adds no
    # difference, so every later loop would be the same
    res = run_family("KNOT52", 1, 1)
    assert res.outcome == LOOP_LIMIT
    assert res.loops == 2
    assert res.witness is not None
    want = {"stage": "repair", "cap": "stalled", "limit": None}
    assert res.stopped_by == want
    assert res.report()["stopped_by"] == want
    assert "stopped by: stalled in stage repair" in _report_lines(res)


def test_growing_domain_repair_runs_to_the_loop_cap():
    # BSpq(1,2) gains differences on every loop, so the stall test never
    # fires and the run ends at the loop cap
    res = run_family("BSpq", 1, 2)
    assert res.outcome == LOOP_LIMIT
    assert res.loops == 11
    assert res.stopped_by == {
        "stage": "domains", "cap": "correction loops", "limit": 10,
    }


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def repair_reduce_calls(name, p, q) -> tuple:
    """(result, words DiffMachine.reduce was asked for by the repair
    stage) for one corpus case, knots on their Wirtinger presentations.
    The repair runs from a check that found a gap or a failed axiom to
    the next DiffMachine.close."""
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=name.startswith("KNOT"))
    calls, repairing = [], [False]
    real_reduce, real_close = DiffMachine.reduce, DiffMachine.close

    def reduce(self, w):
        if repairing[0]:
            calls.append(w)
        return real_reduce(self, w)

    def close(self):
        repairing[0] = False
        return real_close(self)

    def found(check, failed):
        def spy(*args):
            out = check(*args)
            repairing[0] = failed(out)
            return out
        return spy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiffMachine, "reduce", reduce)
        mp.setattr(DiffMachine, "close", close)
        mp.setattr(pipeline, "check_domains", found(check_domains, bool))
        mp.setattr(
            pipeline, "check_axioms",
            found(check_axioms, lambda bad: bad is not None),
        )
        res = compute_structure(fam.order, fam.presentation.relations)
    return res, calls


@pytest.mark.parametrize("name, p, q, confluent", [
    ("BSpq", 1, 2, True), ("KNOT52", 1, 1, False),
])
def test_confluent_repairs_skip_the_machine_reduction(name, p, q, confluent):
    # a confluent normal form is the least word of its class, so only a
    # non-confluent run asks the machine for a smaller one
    res, calls = repair_reduce_calls(name, p, q)
    case = "BSpq-1-2" if name == "BSpq" else name
    pins = json.loads(PINNED.read_text(encoding="utf-8"))["cases"][case]
    assert res.confluent == confluent == pins["confluent"]
    assert res.loops == pins["loops"] > 0
    assert (calls == []) == confluent
    texts = {"R": serialize_rules(res.rws), "D": serialize_fsa(*diff_to_fsa(res.diff))}
    if res.acceptor is not None:
        texts["W"] = serialize_fsa(res.acceptor)
        texts["M_e"] = serialize_fsa(res.identity)
    for g, m in res.multipliers.items():
        texts[f"M_{g}"] = serialize_fsa(m)
    got = {k: hashlib.sha256(t.encode()).hexdigest()[:16] for k, t in texts.items()}
    assert (res.outcome, got) == (pins["outcome"], pins["digests"])


def test_completion_budget_reports_kb_stopped(monkeypatch):
    fam = family("BSpq", 2, 2)
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    monkeypatch.setattr(pipeline, "PASS_PAIRS", 1)
    monkeypatch.setattr(pipeline, "MAX_PAIRS", 1)
    confluent, stopped_by = run_knuth_bendix(rs, max_rules=5, max_len=40)
    assert not confluent
    assert stopped_by == {"stage": "kb", "cap": "pairs", "limit": 1}
    # passes of 3, 3 and 1 spend the budget of 7 pairs as one run of 7 does
    monkeypatch.setattr(pipeline, "PASS_PAIRS", 3)
    monkeypatch.setattr(pipeline, "MAX_PAIRS", 7)
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    assert run_knuth_bendix(rs, max_rules=50, max_len=40) == (
        False, {"stage": "kb", "cap": "pairs", "limit": 7},
    )
    one = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    assert KbCompletion(one, max_rules=50, max_len=40).run(7) is None
    assert rs.rules == one.rules


PSL27_BTOP = Path(__file__).parent / "data" / "PSL27-btop.pres"


def psl27(kind):
    """PSL(2,7) with b on top of the wreath order, or over the same
    alphabet under another order kind: (order, relations)."""
    pres, order = parse_presentation(PSL27_BTOP.read_text())
    return Order(order.alphabet, kind), pres.relations


@pytest.mark.parametrize("kind, states", [(WREATH, 56), (SHORTLEX, 86)])
def test_confluence_is_recognised_where_the_labels_stop(monkeypatch, kind, states):
    # completion's labels stop moving with superpositions still queued, and
    # the rules are confluent by then, so W comes from the rules
    order, relations = psl27(kind)
    calls = []
    monkeypatch.setattr(
        pipeline, "is_confluent", lambda rs: calls.append(rs) or is_confluent(rs)
    )
    res = compute_structure(order, relations)
    assert len(calls) == 1
    assert (res.outcome, res.confluent) == (VERIFIED, True)
    assert res.acceptor.num_states == states


def test_bspq_18_18_verifies_confluent():
    # the labels stop before the queue drains, with the active rules
    # already confluent and nothing left unsettled: the run is reported
    # confluent and verifies in one loop
    res = run_family("BSpq", 18, 18)
    assert (res.outcome, res.confluent, res.loops) == (VERIFIED, True, 1)
    assert (res.acceptor.num_states, res.diff.state_count()) == (22, 2089)


@pytest.mark.parametrize("fault", ["retired rule", "discarded"])
def test_an_unsettled_completion_is_not_confluent(monkeypatch, fault):
    # at PSL(2,7)'s labels-stable exit the active rules are confluent; a
    # retired rule still queued that does not join, or an equation dropped
    # for length, is a relation they need not imply
    order, relations = psl27(WREATH)
    rs = RewriteSystem.from_relations(order, relations)
    made = []

    class Completion(KbCompletion):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    def inject(rs):
        (comp,) = made
        if fault == "discarded":
            comp.discarded = True
        else:  # b a = a b does not hold in PSL(2,7)
            comp._enqueue(2, comp._side(("b", "a"), ("a", "b")), 0, _RETIRED)
        return is_confluent(rs)

    monkeypatch.setattr(pipeline, "KbCompletion", Completion)
    monkeypatch.setattr(pipeline, "is_confluent", inject)
    assert run_knuth_bendix(rs) == (False, None)
    assert is_confluent(rs)


def test_compute_structure_reports_kb_stopped(monkeypatch):
    why = {"stage": "kb", "cap": "pairs", "limit": 200_000}
    monkeypatch.setattr(pipeline, "run_knuth_bendix", lambda *a, **k: (False, why))
    res = run_family("BSpq", 1, 1)
    assert res.outcome == KB_STOPPED
    assert not res.verified
    assert res.stopped_by == why


@pytest.mark.parametrize("caps, cap, limit", [
    ({"kb_max_rules": 5}, "rules", 5),
    ({"kb_max_len": 3}, "rule length", 3),
])
def test_kb_stopped_names_the_cap(caps, cap, limit):
    res = run_family("BSpq", 2, 2, **caps)
    assert res.outcome == KB_STOPPED
    want = {"stage": "kb", "cap": cap, "limit": limit}
    assert res.stopped_by == want
    assert res.report()["stopped_by"] == want
    assert f"stopped by: {cap} cap {limit} in stage kb" in _report_lines(res)


def test_resource_limit_maps_to_loop_limit(monkeypatch):
    def explode(*a, **k):
        raise ResourceLimit("states", acceptor.MAX_STATES)

    monkeypatch.setattr(pipeline, "build_acceptor", explode)
    # non-confluent runs go through build_acceptor; force that path by
    # proceeding with the oriented relation alone, unconfirmed
    monkeypatch.setattr(pipeline, "run_knuth_bendix", lambda *a, **k: (False, None))
    res = run_family("BSpq", 2, 2)
    assert res.outcome == LOOP_LIMIT
    assert res.loops == 0
    assert res.stopped_by == {
        "stage": "acceptor", "cap": "states", "limit": acceptor.MAX_STATES,
    }


def test_repair_closure_cap_maps_to_loop_limit(monkeypatch):
    # BSpq(2, 2) needs one domain repair; its label closure hits the cap
    real_domains = pipeline.check_domains
    real_close = DiffMachine.close
    repairing = []

    def domains(acc, mults):
        gaps = real_domains(acc, mults)
        repairing.extend(gaps)
        return gaps

    def close(self):
        if repairing:
            raise ResourceLimit("difference labels", 7)
        real_close(self)

    monkeypatch.setattr(pipeline, "check_domains", domains)
    monkeypatch.setattr(DiffMachine, "close", close)
    res = run_family("BSpq", 2, 2)
    assert repairing
    assert res.outcome == LOOP_LIMIT
    assert res.loops == 1
    want = {"stage": "repair", "cap": "difference labels", "limit": 7}
    assert res.stopped_by == want
    assert res.report()["stopped_by"] == want
    assert "stopped by: difference labels cap 7 in stage repair" in _report_lines(res)
    # the loop before the cap built machines; none of them leak out
    assert res.acceptor is None
    assert res.identity is None
    assert res.multipliers == {}
    assert res.witness is None


def test_empty_relator_holds_trivially():
    fam = builtin_family(FamilySpec("KNOT41", 1, 1), wirtinger=True)
    relations = list(fam.presentation.relations) + [((), ())]
    res = compute_structure(fam.order, relations)
    assert res.outcome == VERIFIED
    assert not res.confluent  # so the axiom check did run


def raw_sizes(monkeypatch) -> list:
    """Record the size of every machine handed to Fsa.minimized."""
    seen = []
    real = Fsa.minimized

    def spy(self, *args):
        seen.append(self.num_states)
        return real(self, *args)

    monkeypatch.setattr(Fsa, "minimized", spy)
    return seen


def multiplier_targets(diff) -> dict:
    return {g: pipeline._multiplier_target(diff, g) for g in diff.alpha.symbols}


def test_multiplier_product_cap_is_exact(monkeypatch):
    res = run_family("BSpq", 1, 1)
    acc, diff = res.acceptor, res.diff
    targets = multiplier_targets(diff)
    seen = raw_sizes(monkeypatch)
    want = build_multiplier(acc, diff, targets)
    # the one product goes straight to minimization, once, labelled
    raw = seen[0]
    assert seen == [raw]
    assert raw > max(m.num_states for m in want.values())
    got = build_multiplier(acc, diff, targets, max_states=raw)
    assert {g: serialize_fsa(m) for g, m in got.items()} == {
        g: serialize_fsa(m) for g, m in want.items()
    }
    with pytest.raises(ResourceLimit) as hit:
        build_multiplier(acc, diff, targets, max_states=raw - 1)
    assert (hit.value.cap, hit.value.limit) == ("states", raw - 1)
    # in a full run the same cap is reported with the stage it stopped
    monkeypatch.setattr(
        pipeline, "build_multiplier",
        functools.partial(build_multiplier, max_states=raw - 1),
    )
    capped = run_family("BSpq", 1, 1)
    assert capped.outcome == LOOP_LIMIT
    assert capped.stopped_by == {
        "stage": "multipliers", "cap": "states", "limit": raw - 1,
    }


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_multiplier_product_stops_at_a_tiny_cap(cap):
    # the table of found states always keeps a free slot, so a cap that
    # the start state alone fills still ends in the cap
    res = run_family("BSpq", 1, 1)
    targets = multiplier_targets(res.diff)
    with pytest.raises(ResourceLimit) as hit:
        build_multiplier(res.acceptor, res.diff, targets, max_states=cap)
    assert (hit.value.cap, hit.value.limit) == ("states", cap)


def test_capped_multiplier_product_memory_per_state():
    # the first walk keeps its states unboxed: a traced peak of about 89
    # bytes per found state, where a set and a list of ints took about 176
    res = run_family("BSpq", 12, 12)
    targets = multiplier_targets(res.diff)
    cap = 30_000
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            build_multiplier(res.acceptor, res.diff, targets, max_states=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cap < 120


class CountingTable(list):
    """Stands in for the first walk's arrays, counting the reads of any of
    them; the walk reads only its table by index."""

    reads = 0

    def __getitem__(self, i):
        CountingTable.reads += 1
        return list.__getitem__(self, i)

    def __mul__(self, n):
        return CountingTable(list.__mul__(self, n))


def test_first_walk_probes_spread_over_dense_keys(monkeypatch):
    # BSpNegq(8, 8)'s packed states come in runs of consecutive integers.
    # With a cap of exactly its state count the table is about half full,
    # and probing from state % size took 21 extra probes per lookup on it
    # (220 156 in all); the mixed first slot takes about 0.3
    res = run_family("BSpNegq", 8, 8)
    targets = multiplier_targets(res.diff)
    seen = raw_sizes(monkeypatch)
    build_multiplier(res.acceptor, res.diff, targets)
    raw_states = seen[0]
    raws = []
    real = Fsa.minimized

    def spy(self, *args):
        raws.append(self)
        return real(self, *args)

    monkeypatch.setattr(Fsa, "minimized", spy)
    monkeypatch.setattr(pipeline, "array", lambda code, init: CountingTable(init))
    CountingTable.reads = 0
    build_multiplier(res.acceptor, res.diff, targets, max_states=raw_states)
    # one lookup per product move, and every move is a row entry of the
    # raw product explore builds after the walk
    lookups = sum(len(row) for row in raws[0].moves)
    assert raws[0].num_states == raw_states
    assert lookups > 10_000
    assert CountingTable.reads - lookups < lookups / 2


def test_packed_typecode_widens_at_two_to_the_31():
    # |W|^2 * |D| * 3 packed values: 32-bit below 2^31, 64-bit from there
    assert pipeline._packed_typecode(1, 1) == "i"
    assert pipeline._packed_typecode(1, 715_827_882) == "i"  # 2^31 - 2
    assert pipeline._packed_typecode(1, 715_827_883) == "q"  # 2^31 + 1
    assert pipeline._packed_typecode(2**13, 10) == "i"  # 30 * 2^26
    assert pipeline._packed_typecode(2**13, 11) == "q"  # 33 * 2^26
    assert array(pipeline._packed_typecode(1, 1)).itemsize == 4
    assert array(pipeline._packed_typecode(1, 715_827_883)).itemsize == 8


RUN_CASES = [("BSpq", 1, 1), ("BSpq", 3, 3), ("KNOT41", 1, 1)]


def tuple_product(acc, diff, is_target) -> tuple:
    """Reference: `explore` of the multiplier product on tuple states
    (v, w, d, mode), accepting where is_target(d)."""
    symbols = pair_symbols(acc.symbols)

    def successors(state):
        v, w, d, mode = state  # mode: the pad kind read so far
        for sym in symbols:
            a, b = sym
            kind = 2 if a == PAD else 1 if b == PAD else 0
            if mode and kind != mode:
                continue
            nv = v if a == PAD else acc.moves[v].get(a)
            nw = w if b == PAD else acc.moves[w].get(b)
            nd = diff.fsa.moves[d].get(sym)
            if None not in (nv, nw, nd):
                yield sym, (nv, nw, nd, kind)

    return explore(
        symbols, (acc.start, acc.start, EPS, 0), successors,
        lambda state: is_target(state[2]),
    )


def one_target_multiplier(acc, diff, target) -> tuple:
    """Reference: the product for one target alone."""
    raw, states = tuple_product(acc, diff, lambda d: d == target)
    used = {diff.labels[states[i][2]] for i in coreachable(raw)}
    return raw.minimized(), used


@pytest.mark.parametrize("case", RUN_CASES, ids=lambda c: "-".join(map(str, c)))
def test_multiplier_product_is_the_explored_product(monkeypatch, case):
    # build_multiplier finds the product's states before it builds a row;
    # the machine it minimizes is explore's, move for move
    name, p, q = case
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=name == "KNOT41")
    res = compute_structure(fam.order, fam.presentation.relations)
    acc, diff = res.acceptor, res.diff
    targets = multiplier_targets(diff)
    seen = []
    real = Fsa.minimized

    def spy(self, *args):
        seen.append(self)
        return real(self, *args)

    monkeypatch.setattr(Fsa, "minimized", spy)
    build_multiplier(acc, diff, targets)
    raw = seen[0]
    assert all(m is raw for m in seen)
    hits = set(targets.values())
    want, _ = tuple_product(acc, diff, hits.__contains__)
    assert raw.symbols == want.symbols
    assert raw.start == want.start
    assert raw.accepting == want.accepting
    # rows in alphabet order, which dict equality would not see
    assert [list(row.items()) for row in raw.moves] == [
        list(row.items()) for row in want.moves
    ]


@pytest.mark.parametrize("case", RUN_CASES, ids=lambda c: "-".join(map(str, c)))
def test_shared_product_matches_one_product_per_target(case):
    name, p, q = case
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=name == "KNOT41")
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.outcome == VERIFIED
    acc, diff = res.acceptor, res.diff
    targets = multiplier_targets(diff)
    mults = build_multiplier(acc, diff, targets)
    want_used = set()
    for g, target in targets.items():
        ref, ref_used = one_target_multiplier(acc, diff, target)
        assert serialize_fsa(mults[g]) == serialize_fsa(ref), g
        assert serialize_fsa(mults[g]) == serialize_fsa(res.multipliers[g]), g
        want_used |= ref_used
    # the differences pruning starts from: the verified multipliers walk
    # through the labels on the useful paths of each target's own product
    walked = pipeline._walked_differences(diff, mults.fsa)
    assert {diff.labels[d] for d in walked} == want_used


@pytest.mark.parametrize("case", [
    ("KNOT41", 1, 1), ("KNOT52", 1, 1), ("BSpq", 3, 3), ("Hpq", 2, 1), ("BSpq", 1, 2),
], ids=lambda c: "-".join(map(str, c)))
def test_general_multiplier_keeps_every_multipliers_bytes(monkeypatch, case):
    # each loop's M_g, read from the one general multiplier, against the
    # raw product minimized under g's target states alone
    name, p, q = case
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=name.startswith("KNOT"))
    real = pipeline.build_all_multipliers
    loops = []

    def spy(acc, diff):
        mults, identity = real(acc, diff)
        targets = multiplier_targets(diff)
        raw, states = tuple_product(acc, diff, set(targets.values()).__contains__)
        by_target = {}
        for i in raw.accepting:
            by_target.setdefault(states[i][2], []).append(i)
        for g, t in targets.items():
            want = raw.minimized(dict.fromkeys(by_target.get(t, ()), 1))
            assert serialize_fsa(mults[g]) == serialize_fsa(want), (len(loops), g)
        loops.append(len(targets))
        return mults, identity

    monkeypatch.setattr(pipeline, "build_all_multipliers", spy)
    res = compute_structure(fam.order, fam.presentation.relations)
    assert len(loops) == res.loops + (res.outcome == VERIFIED)
    if name == "KNOT52":
        assert len(loops) == 2


def test_a_run_keeps_its_general_multiplier_and_builds_no_multiplier(monkeypatch):
    # Wirtinger KNOT52 verifies in its second loop.  The result is that
    # loop's general multiplier, and the run reads no M_g from it; each M_g
    # read afterwards has the bytes of its target's own product
    reads = []
    real = GeneralMultiplier.__getitem__

    def spy(self, g):
        reads.append(g)
        return real(self, g)

    monkeypatch.setattr(GeneralMultiplier, "__getitem__", spy)
    fam = builtin_family(FamilySpec("KNOT52", 1, 1), wirtinger=True)
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.outcome == VERIFIED and res.loops == 1
    assert reads == []
    assert isinstance(res.multipliers, GeneralMultiplier)
    targets = multiplier_targets(res.diff)
    assert list(res.multipliers) == list(targets) == list(fam.order.alphabet.symbols)
    for g, target in targets.items():
        ref, _ = one_target_multiplier(res.acceptor, res.diff, target)
        assert serialize_fsa(res.multipliers[g]) == serialize_fsa(ref), g


def test_an_assigned_multiplier_replaces_the_kept_one():
    # a fault injected by assignment is what the mapping then gives; the
    # labelled machine the run checked stays as it was.  A run of its own,
    # since _structure's results are shared
    fam = builtin_family(FamilySpec("KNOT41", 1, 1), wirtinger=True)
    res = compute_structure(fam.order, fam.presentation.relations)
    mults = res.multipliers
    general = mults.fsa
    m_x, m_y = mults["x"], mults["y"]
    mults["x"], mults["y"] = m_y, m_x
    assert mults["x"] is m_y and mults["y"] is m_x
    assert mults.fsa is general
    with pytest.raises(KeyError):
        mults["not a generator"] = m_x
    assert list(mults) == list(fam.order.alphabet.symbols)


def domains_by_projection(acc, mults) -> list:
    """Reference: each multiplier's first-track projection against W."""
    gaps = []
    for g in acc.symbols:
        wit = acc.equal_languages(project(mults[g], 1))
        if wit is not None:
            gaps.append((g, wit))
    return gaps


def random_domain_case(rng, kind) -> tuple:
    """A random word machine over a, b and a partial pair machine per
    letter.  kind 0: any pair machine; 1: W's diagonal with moves added
    and dropped; 2: the diagonal with (PAD, b) tails that alone reach
    acceptance; 3: one of those with no accepting state at all."""
    gens = ("a", "b")
    pairs = pair_symbols(gens)
    n = rng.randint(1, 5)
    acc = Fsa.from_rows(
        gens, 0, {s for s in range(n) if rng.random() < 0.5},
        [{a: rng.randrange(n) for a in gens if rng.random() < 0.8}
         for s in range(n)],
    )
    mults = {}
    for g in gens:
        if kind == 0:
            m = rng.randint(1, 6)
            rows = [{sym: rng.randrange(m) for sym in pairs
                     if rng.random() < 0.3} for s in range(m)]
            final = {s for s in range(m) if rng.random() < 0.4}
        else:
            m = n
            rows = [{(a, a): t for a, t in row.items()} for row in acc.moves]
            final = set(acc.accepting)
            for _ in range(rng.randint(0, 3)):
                moves = sorted((s, sym) for s, row in enumerate(rows) for sym in row)
                if moves:
                    s, sym = rng.choice(moves)
                    del rows[s][sym]
                rows[rng.randrange(n)][rng.choice(pairs)] = rng.randrange(n)
            if kind >= 2:
                # a chain of silent moves into a fresh accepting state
                for _ in range(rng.randint(1, 3)):
                    rows.append({})
                    rows[rng.randrange(m)][(PAD, rng.choice(gens))] = m
                    if rng.random() < 0.5:
                        rows[m][(PAD, rng.choice(gens))] = rng.randrange(m + 1)
                    final.discard(rng.randrange(m))
                    final.add(m)
                    m += 1
            if kind == 3:
                final = set()
        mults[g] = Fsa.from_rows(pairs, 0, final, rows)
    return acc, mults


def test_fused_domain_check_matches_the_projection():
    rng = random.Random(20261018)
    found = 0
    for i in range(200):
        acc, mults = random_domain_case(rng, i % 4)
        want = domains_by_projection(acc, mults)
        assert check_domains(acc, GeneralMultiplier.of(mults)) == want, i
        found += len(want)
    assert found > 100  # most cases do have gaps to compare


@pytest.mark.parametrize("case", RUN_CASES, ids=lambda c: "-".join(map(str, c)))
def test_fused_domain_check_matches_the_projection_on_runs(case):
    name, p, q = case
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=name == "KNOT41")
    res = compute_structure(fam.order, fam.presentation.relations)
    assert check_domains(res.acceptor, res.multipliers) == []
    assert domains_by_projection(res.acceptor, res.multipliers) == []
    # the first loop's machines, before any repair, and a gutted multiplier
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    confluent, _ = run_knuth_bendix(rs)
    diff = DiffMachine.from_rules(rs)
    acc = irreducible_word_acceptor(rs) if confluent else build_acceptor(diff)
    mults = dict(pipeline.build_all_multipliers(acc, diff)[0])
    m = mults[fam.order.alphabet.symbols[0]]
    mults[fam.order.alphabet.symbols[-1]] = Fsa(
        m.symbols, m.start, frozenset(), m.moves
    )
    gaps = check_domains(acc, GeneralMultiplier.of(mults))
    assert gaps
    assert gaps == domains_by_projection(acc, mults)


def test_acceptor_subset_cap_fires(monkeypatch):
    diff = run_family("BSpq", 1, 1).diff
    seen = raw_sizes(monkeypatch)
    want = build_acceptor(diff)
    raw = seen[0]
    monkeypatch.setattr(acceptor, "MAX_STATES", raw)
    assert serialize_fsa(build_acceptor(diff)) == serialize_fsa(want)
    monkeypatch.setattr(acceptor, "MAX_STATES", raw - 1)
    with pytest.raises(ResourceLimit):
        build_acceptor(diff)


def compose_chain(mults, letters):
    """The multiplier of a word: its letters' multipliers composed one by
    one from the left."""
    out = mults[letters[0]]
    for a in letters[1:]:
        out = out.compose(mults[a])
    return out


def axioms_by_halves(order, relations, mults, identity):
    """Reference: the axiom check one word at a time.  Each word's halves
    are composed letter by letter, an empty half being M_e, and one search
    over the two halves per word asks for two distinct words they relate.
    The first failing word, with its witness."""
    alpha = order.alphabet
    words = [x + alpha.invert(y) for x, y in relations]
    words += [(g, alpha.inverse[g]) for g in alpha.symbols]
    halves = {(): identity}
    for r in words:
        if not r:
            continue
        k = len(r) // 2
        for h in (r[:k], r[k:]):
            if h not in halves:
                halves[h] = compose_chain(mults, h)
        wit = halves[r[:k]].composite_distinct_pairs(halves[r[k:]]).get(0)
        if wit is not None:
            return r, wit
    return None


def axioms_by_composition(order, relations, mults, identity):
    """Reference: the axiom check as a whole composite per word.  The first
    relator (or generator-inverse word) whose multiplier, composed letter
    by letter, differs from the identity multiplier, with the least word
    on which the two disagree and the composite itself."""
    alpha = order.alphabet
    words = [x + alpha.invert(y) for x, y in relations]
    words += [(g, alpha.inverse[g]) for g in alpha.symbols]
    for r in words:
        if not r:
            continue
        composite = compose_chain(mults, r)
        wit = composite.equal_languages(identity)
        if wit is not None:
            return r, wit, composite
    return None


def assert_axioms_match_reference(order, relations, mults, identity):
    """check_axioms names the same first failing word as the reference, or
    none, and its witness is sound: a pair of distinct words (s, w), W
    accepting s (M_e is W's diagonal), that the reference composite of the
    flagged word accepts.  Returns check_axioms' answer."""
    got = check_axioms(order, relations, mults, identity)
    want = axioms_by_composition(order, relations, mults, identity)
    assert (got and got[0]) == (want and want[0])
    if got is not None:
        _relator, wit = got
        s = tuple(a for a, _ in wit if a != PAD)
        w = tuple(b for _, b in wit if b != PAD)
        assert s != w and pad_pair(s, w) == wit
        assert identity.accepts_pair(s, s)
        assert want[2].accepts(wit)
    return got


@pytest.mark.parametrize("name", ["KNOT41", "KNOT52"])
def test_axiom_check_matches_composition_on_knots(name):
    fam, res = _structure(name, wirtinger=True)
    assert res.outcome == VERIFIED and not res.confluent
    assert assert_axioms_match_reference(
        fam.order, fam.presentation.relations, res.multipliers, res.identity
    ) is None


def test_axiom_check_matches_composition_on_faults_domains_miss():
    # KNOT41 with each pair of multipliers swapped, and with each M_g
    # replaced by M_g | M_h: every domain stays, so only the axiom check
    # can tell
    fam, res = _structure("KNOT41", wirtinger=True)
    syms = fam.order.alphabet.symbols
    faults = []
    for i, g in enumerate(syms):
        for h in syms[i + 1:]:
            mults = dict(res.multipliers)
            mults[g], mults[h] = mults[h], mults[g]
            faults.append(mults)
        mults = dict(res.multipliers)
        mults[g] = mults[g].union(mults[syms[(i + 1) % len(syms)]])
        faults.append(mults)
    for mults in faults:
        mults = GeneralMultiplier.of(mults)
        assert check_domains(res.acceptor, mults) == []
        assert assert_axioms_match_reference(
            fam.order, fam.presentation.relations, mults, res.identity
        ) is not None


def compose_spy(monkeypatch) -> list:
    """Record (this machine, the other, pairs, result) of every
    Fsa.compose call."""
    calls = []
    real = Fsa.compose

    def spy(self, other, pairs=((0, 0),)):
        out = real(self, other, pairs)
        calls.append((self, other, pairs, out))
        return out

    monkeypatch.setattr(Fsa, "compose", spy)
    return calls


def knot41_multipliers(fault):
    """KNOT41's verified structure, with its multipliers as verified, with
    M_x and M_y swapped, or with M_x replaced by M_x | M_y."""
    fam, res = _structure("KNOT41", wirtinger=True)
    mults = dict(res.multipliers)
    if fault == "swapped":
        mults["x"], mults["y"] = mults["y"], mults["x"]
    elif fault == "union":
        mults["x"] = mults["x"].union(mults["y"])
    return fam, res, mults


@pytest.mark.parametrize("name, fault", [
    ("KNOT41", None), ("KNOT52", None), ("KNOT41", "swapped"), ("KNOT41", "union"),
])
def test_every_half_keeps_its_bytes(monkeypatch, name, fault):
    # each bit of the one labelled machine of the halves of length two,
    # minimized alone, is the composite of its two multipliers
    if name == "KNOT41":
        fam, res, mults = knot41_multipliers(fault)
    else:
        fam, res = _structure(name, wirtinger=True)
        mults = dict(res.multipliers)
    general = GeneralMultiplier.of(mults)
    calls = compose_spy(monkeypatch)
    check_axioms(fam.order, fam.presentation.relations, general, res.identity)
    [(left, right, pairs, level)] = calls
    assert left is right is general.fsa
    assert len(pairs) == len(set(pairs)) > 1
    for k, (i, j) in enumerate(pairs):
        half = level.minimized(
            {s: 1 for s, label in enumerate(level.labels) if label >> k & 1}
        )
        g, h = general.gens[i], general.gens[j]
        assert serialize_fsa(half) == serialize_fsa(mults[g].compose(mults[h])), (g, h)


@pytest.mark.parametrize("fault", [None, "swapped", "union"])
def test_mixed_length_relators_match_the_word_by_word_check(fault):
    # words of lengths 1 (an empty half, M_e), 2, 3, 5 and 8 on KNOT41's
    # verified structure: rotations and products of its relators hold;
    # x, x.y, x.y.z, x.r, and r.s with its last letter changed do not.  The
    # first failing word and its witness are the ones a search per word
    # over its composed halves finds
    fam, res, mults = knot41_multipliers(fault)
    r, s, t = (x for x, _ in fam.presentation.relations)
    true = [r[1:] + r[:1], r + s, s[2:] + s[:2], ("x", "X"), t + r]
    false = [("x",), ("x", "y"), ("x", "y", "z"), ("x",) + r, r + s[:3] + ("y",)]
    lists = [true, true[:2] + false[::-1], true + false]
    lists += [true[:i] + [w] + true[i:] for i, w in enumerate(false)]
    general = GeneralMultiplier.of(mults)
    answers = set()
    for words in lists:
        relations = [(w, ()) for w in words]
        got = check_axioms(fam.order, relations, general, res.identity)
        assert got == axioms_by_halves(fam.order, relations, mults, res.identity)
        answers.add(got and got[0])
    if fault is None:
        assert answers == {None, *false}
    else:
        assert None not in answers


def test_one_axiom_check_composes_once(monkeypatch):
    # KNOT52's one axiom check, in its final loop, builds one labelled
    # machine for every half of length two, and composes nothing else
    calls = compose_spy(monkeypatch)
    checks = []
    real = pipeline.check_axioms

    def spy(*args):
        before = len(calls)
        out = real(*args)
        checks.append((len(calls) - before, out))
        return out

    monkeypatch.setattr(pipeline, "check_axioms", spy)
    fam = builtin_family(FamilySpec("KNOT52", 1, 1), wirtinger=True)
    res = compute_structure(fam.order, fam.presentation.relations)
    assert res.outcome == VERIFIED and res.loops == 1
    assert checks == [(1, None)]
    assert len(calls) == 1


@pytest.mark.parametrize("fault", [None, "inverse"])
def test_a_check_failing_at_its_first_relator_builds_no_later_level(
    monkeypatch, fault
):
    # KNOT41's relators (halves of length 2), then a true word of length 8
    # (halves of length 4).  A check that passes builds levels 2, 3 and 4;
    # with M_x and M_X swapped the first relator fails, and the check stops
    # before the long word's group, having built level 2 alone
    fam, res, mults = knot41_multipliers(None)
    if fault:
        mults["x"], mults["X"] = mults["X"], mults["x"]
    relations = list(fam.presentation.relations)
    r, s, _t = (x for x, _ in relations)
    relations.append((r + s, ()))
    want = axioms_by_halves(fam.order, relations, mults, res.identity)
    general = GeneralMultiplier.of(mults)
    calls = compose_spy(monkeypatch)
    got = check_axioms(fam.order, relations, general, res.identity)
    assert got == want
    assert (got and got[0]) == (r if fault else None)
    assert len(calls) == (1 if fault else 3)


def test_axiom_check_flags_swapped_multipliers():
    res = run_family("BSpq", 1, 1)
    fam = family("BSpq", 1, 1)
    mults = dict(res.multipliers)
    mults["x"], mults["y"] = mults["y"], mults["x"]
    bad = check_axioms(
        fam.order, fam.presentation.relations, GeneralMultiplier.of(mults),
        res.identity,
    )
    assert bad is not None
    relator, wit = bad
    assert isinstance(wit, tuple)  # a pair word witnesses the mismatch


FREE_XY = (["x", "X", "y", "Y"], {"x": "X", "X": "x", "y": "Y", "Y": "y"})
FREE_AX = (["a", "x", "X"], {"a": "a", "x": "X", "X": "x"})  # a = a^-1


@pytest.mark.parametrize("group, fault, first", [
    (FREE_XY, {"x": "y", "y": "x"}, "x"),  # every generator fails; x first
    (FREE_XY, {"y": "Y"}, "y"),  # only y and Y fail
    (FREE_AX, {"a": "x"}, "a"),  # the involution: M_x composed with itself
    (FREE_AX, {"x": "X"}, "x"),  # the involution holds; x against X does not
])
def test_one_inverse_search_names_the_first_failing_generator(group, fault, first):
    # a free group has no relator and every domain holds, so only the
    # inverse words can fail, all of them in the one search
    order = Order(Alphabet(*group), SHORTLEX)
    res = compute_structure(order, [])
    assert res.outcome == VERIFIED and res.confluent
    assert check_axioms(order, [], res.multipliers, res.identity) is None
    mults = dict(res.multipliers)
    mults.update({g: res.multipliers[h] for g, h in fault.items()})
    gm = GeneralMultiplier.of(mults)
    assert check_domains(res.acceptor, gm) == []
    inv = order.alphabet.inverse[first]
    wit = mults[first].composite_distinct_pairs(mults[inv]).get(0)
    assert wit is not None
    assert check_axioms(order, [], gm, res.identity) == ((first, inv), wit)


def test_domain_check_flags_a_gutted_multiplier():
    res = run_family("BSpq", 1, 1)
    m = res.multipliers["x"]
    starved = Fsa(
        m.symbols,
        m.start,
        frozenset(),  # accepts nothing at all
        m.moves,
    )
    mults = dict(res.multipliers)
    mults["x"] = starved
    gaps = check_domains(res.acceptor, GeneralMultiplier.of(mults))
    assert [g for g, _ in gaps] == ["x"]
    assert res.acceptor.accepts(gaps[0][1])


def test_untrue_axiom_witness_ends_in_axiom_failed(monkeypatch):
    # a reported failure whose repair equations teach the difference
    # machine nothing must surface as axiom-failed, not spin forever
    fam = family("BSpq", 2, 2)

    def always_unhappy(order, relations, mults, identity):
        return (("x", "X"), ((("x", "x"),)))

    real_kb = pipeline.run_knuth_bendix
    monkeypatch.setattr(pipeline, "check_axioms", always_unhappy)
    monkeypatch.setattr(
        pipeline,
        "run_knuth_bendix",
        lambda rs, *a, **k: (False, real_kb(rs)[1]),
    )
    res = run_family("BSpq", 2, 2)
    assert res.outcome == AXIOM_FAILED
    assert res.witness is not None


def test_pruning_keeps_the_language_and_the_verdict():
    plain = run_family("BSpq", 2, 2, prune=False)
    pruned = run_family("BSpq", 2, 2, prune=True)
    assert plain.outcome == pruned.outcome == VERIFIED
    assert (plain.diff.state_count(), pruned.diff.state_count()) == (41, 27)
    assert (plain.raw_diff_count, pruned.raw_diff_count) == (None, 41)
    assert pruned.report()["difference_states_raw"] == 41
    assert "difference_states_raw" not in plain.report()
    assert pruned.diff.violations() == []
    assert serialize_fsa(pruned.acceptor) == serialize_fsa(plain.acceptor)
    assert serialize_fsa(pruned.identity) == serialize_fsa(plain.identity)
    assert set(pruned.multipliers) == set(plain.multipliers)
    for g, m in plain.multipliers.items():
        assert serialize_fsa(pruned.multipliers[g]) == serialize_fsa(m), g


def test_pruning_checks_against_the_verified_machines_only(monkeypatch):
    res = run_family("BSpq", 3, 3)

    def forbidden(*args, **kw):
        raise AssertionError("pruning re-ran a stage of the pipeline")

    monkeypatch.setattr(DiffMachine, "close", forbidden)
    for name in ("build_multiplier", "check_domains", "_diagonal_multiplier",
                 "irreducible_word_acceptor", "build_acceptor"):
        monkeypatch.setattr(pipeline, name, forbidden)
    pipeline._prune_verified(res)
    assert (res.raw_diff_count, res.diff.state_count()) == (59, 39)


def test_pruning_a_non_confluent_run_keeps_its_acceptor(monkeypatch):
    alpha = Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})
    relations = [(("a", "a", "B", "B"), ("b",))]
    res = compute_structure(Order(alpha, SHORTLEX), relations, prune=True)
    assert res.outcome == VERIFIED
    assert not res.confluent and res.loops == 0
    assert (res.raw_diff_count, res.diff.state_count()) == (19, 15)
    assert res.diff.violations() == []
    assert build_acceptor(res.diff).equal_languages(res.acceptor) is None
    assert_pruned_machine_rebuilds_the_multipliers(res)
    # the same restriction is refused when its acceptor is not W
    plain = compute_structure(Order(alpha, SHORTLEX), relations)
    before = plain.diff
    rejects_all = Fsa(alpha.symbols, 0, frozenset(), [{}])
    monkeypatch.setattr(pipeline, "build_acceptor", lambda diff: rejects_all)
    pipeline._prune_verified(plain)
    assert plain.diff is before and plain.raw_diff_count is None


def assert_pruned_machine_rebuilds_the_multipliers(res):
    """Reference: a pruned run's restricted D, through the multiplier
    product, gives every M_g exactly as verified."""
    assert res.outcome == VERIFIED
    assert res.raw_diff_count > res.diff.state_count()
    diff = res.diff
    targets = {g: diff.index[res.rws.rewrite((g,))] for g in diff.alpha.symbols}
    for g, m in build_multiplier(res.acceptor, diff, targets).items():
        assert serialize_fsa(m) == serialize_fsa(res.multipliers[g]), g


PRUNED_CASES = [
    ("BSpq", 2, 2), ("BSpq", 3, 3), ("Hpq", 1, 1), ("Hpq", 2, 1),
    ("HpNegq", 1, 1), ("HpNegq", 2, 1),
]


@pytest.mark.parametrize("case", PRUNED_CASES, ids=lambda c: "-".join(map(str, c)))
def test_pruned_machine_rebuilds_the_verified_multipliers(case):
    assert_pruned_machine_rebuilds_the_multipliers(run_family(*case, prune=True))


@pytest.mark.parametrize("kind", [WREATH, WTLEX])
def test_multiplier_target_missing_from_the_trace_becomes_a_state(kind):
    # some generator's normal form is A A, and tracing the equation
    # (generator, A A) ends at the empty difference without passing
    # through that label
    alpha = Alphabet(
        ["a", "A", "b", "B"],
        {"a": "A", "A": "a", "b": "B", "B": "b"},
        weights={"a": 1, "A": 1, "b": 3, "B": 3},
        levels={"a": 1, "A": 1, "b": 2, "B": 2},
    )
    res = compute_structure(Order(alpha, kind), [(("a", "a"), ("B", "B", "b"))])
    assert res.outcome == VERIFIED
    forms = {res.rws.rewrite((g,)) for g in alpha.symbols}
    assert ("A", "A") in forms
    assert all(w in res.diff.index for w in forms)
    assert res.diff.violations() == []


def test_random_presentations_end_in_a_declared_outcome(monkeypatch):
    # every W the runs build has every state accepting, which the axiom
    # check's exactness rests on, and every axiom check the runs make
    # agrees with the reference
    real_multipliers = pipeline.build_all_multipliers
    axiom_calls = []

    def multipliers(acc, diff):
        assert acc.accepting == frozenset(range(acc.num_states))
        return real_multipliers(acc, diff)

    def axioms(order, relations, mults, identity):
        got = assert_axioms_match_reference(order, relations, mults, identity)
        axiom_calls.append(got)
        return got

    monkeypatch.setattr(pipeline, "build_all_multipliers", multipliers)
    monkeypatch.setattr(pipeline, "check_axioms", axioms)
    rng = random.Random(0)
    for n in range(120):
        order, relations = _random_presentation(rng, KINDS[n % len(KINDS)])
        res = compute_structure(
            order, relations, kb_max_rules=100, kb_max_len=16, max_loops=3,
        )
        assert res.outcome in (VERIFIED, KB_STOPPED, LOOP_LIMIT, AXIOM_FAILED), n
    assert axiom_calls


def test_confluent_and_history_acceptors_agree():
    fam = family("BSpq", 1, 1)
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    assert pipeline.run_knuth_bendix(rs) == (True, None)
    direct = irreducible_word_acceptor(rs)
    viahist = build_acceptor(DiffMachine.from_rules(rs))
    assert direct.equal_languages(viahist) is None


def test_multiplier_relation_spot_check():
    # for accepted u and each generator g, the g-multiplier must relate u
    # to exactly the reduced form of u g
    res = run_family("BSpq", 2, 2)
    rs = res.rws
    acc = res.acceptor
    for u in acc.enumerate_words(4):
        for g in acc.symbols:
            v = rs.rewrite(u + (g,))
            assert res.multipliers[g].accepts_pair(u, v), (u, g, v)


def test_report_dict_is_json_friendly():
    import json

    res = run_family("Hpq", 1, 1)
    out = res.report()
    assert out["outcome"] == VERIFIED
    assert out["acceptor_states"] == 5
    json.dumps(out)


# ----------------------------- rule labels against the rebuilt union


def _rule_difference_labels(rs, cache) -> frozenset:
    """Reference: the union of every active rule's labels, rebuilt whole;
    each rule's set is worked out when its (lhs, rhs) is first seen."""
    inv = rs.order.alphabet.invert
    out = set()
    for lhs, rhs in rs.active():
        labels = cache.get((lhs, rhs))
        if labels is None:
            labels = set()
            for i in range(max(len(lhs), len(rhs)) + 1):
                labels.add(rs.rewrite(inv(lhs[:i]) + rhs[:i]))
                labels.add(rs.rewrite(inv(rhs[:i]) + lhs[:i]))
            labels = cache[(lhs, rhs)] = frozenset(labels)
        out |= labels
    return frozenset(out)


def label_snapshots(rs, **caps) -> list:
    """Run completion as compute_structure does, checking the label union
    after every pass against the reference; returns, per pass, the labels
    and how many of the last pass's labels left."""
    cache, passes = {}, []
    real = pipeline._rule_labels

    def spy(*args):
        before = passes[-1][0] if passes else frozenset()
        got = real(*args)
        assert got == _rule_difference_labels(rs, cache), len(passes)
        passes.append((got, len(before - got)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_rule_labels", spy)
        run_knuth_bendix(rs, **caps)
    return passes


@pytest.mark.parametrize("family,p,q", [
    ("BSpq", 1, 1), ("BSpq", 2, 2), ("BSpq", 3, 3), ("BSpNegq", 1, 1),
    ("Hpq", 1, 1), ("Hpq", 2, 1), ("HpNegq", 1, 1), ("HpNegq", 2, 1),
    ("BSpq", 1, 2), ("KNOT41", 1, 1), ("KNOT52", 1, 1), ("KNOT74", 1, 1),
])
def test_label_counts_match_the_union_on_corpus(family, p, q):
    passes = label_snapshots(_corpus_system(family, p, q))
    if family == "KNOT74":
        # rules retire between its passes, and some labels go with them
        assert sum(lost for _labels, lost in passes) > 0


def test_label_counts_follow_retired_rules(monkeypatch):
    # short passes over small presentations retire and rewrite rules
    # between snapshots
    monkeypatch.setattr(pipeline, "PASS_PAIRS", 4)
    rng = random.Random(19)
    lost = 0
    for n in range(16):
        order, relations = _random_presentation(rng, KINDS[n % len(KINDS)])
        rs = RewriteSystem.from_relations(order, relations)
        passes = label_snapshots(rs, max_rules=60, max_len=12)
        lost += sum(k for _labels, k in passes)
    assert lost > 0
