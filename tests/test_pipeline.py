"""End-to-end structure computation and its failure handling."""

import functools

import pytest

from autostruct import acceptor
from autostruct.acceptor import build_acceptor, irreducible_word_acceptor
from autostruct.cli import _report_lines
from autostruct.diff import DiffMachine
from autostruct.errors import ResourceLimit
from autostruct.formats import serialize_fsa
from autostruct.fsa import Fsa
from autostruct.presentations import FamilySpec, builtin_family
from autostruct import pipeline
from autostruct.pipeline import (
    AXIOM_FAILED,
    KB_STOPPED,
    LOOP_LIMIT,
    VERIFIED,
    build_multiplier,
    check_axioms,
    check_domains,
    compute_structure,
    run_knuth_bendix,
)
from autostruct.rewrite import RewriteSystem


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


def test_completion_budget_reports_kb_stopped():
    fam = family("BSpq", 2, 2)
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    proceed, confluent = run_knuth_bendix(
        rs, max_rules=5, max_len=40, pass_pairs=1, max_passes=1
    )
    assert (proceed, confluent) == (False, False)


def test_compute_structure_reports_kb_stopped(monkeypatch):
    monkeypatch.setattr(pipeline, "run_knuth_bendix", lambda *a, **k: (False, False))
    res = run_family("BSpq", 1, 1)
    assert res.outcome == KB_STOPPED
    assert not res.verified


def test_resource_limit_maps_to_loop_limit(monkeypatch):
    def explode(*a, **k):
        raise ResourceLimit("states", acceptor.MAX_STATES)

    monkeypatch.setattr(pipeline, "build_acceptor", explode)
    # non-confluent runs go through build_acceptor; force that path by
    # proceeding with the oriented relation alone, unconfirmed
    monkeypatch.setattr(pipeline, "run_knuth_bendix", lambda *a, **k: (True, False))
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


def test_pruning_closure_cap_keeps_the_unpruned_result(monkeypatch):
    res = run_family("BSpq", 2, 2)
    before = (res.diff, res.acceptor, res.multipliers)

    def close(self):
        raise ResourceLimit("difference labels", 7)

    monkeypatch.setattr(DiffMachine, "close", close)
    pipeline._prune_verified(res, set(res.diff.labels))
    assert (res.diff, res.acceptor, res.multipliers) == before
    assert res.pruned_diff_count is None


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

    def spy(self):
        seen.append(self.num_states)
        return real(self)

    monkeypatch.setattr(Fsa, "minimized", spy)
    return seen


def test_multiplier_product_cap_is_exact(monkeypatch):
    res = run_family("BSpq", 1, 1)
    acc, diff = res.acceptor, res.diff
    target = pipeline._multiplier_target(diff, "x")
    seen = raw_sizes(monkeypatch)
    want, _ = build_multiplier(acc, diff, target)
    raw = seen[0]  # the product goes straight to minimization
    assert raw > want.num_states
    got, _ = build_multiplier(acc, diff, target, max_states=raw)
    assert serialize_fsa(got) == serialize_fsa(want)
    with pytest.raises(ResourceLimit) as hit:
        build_multiplier(acc, diff, target, max_states=raw - 1)
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


def test_axiom_check_flags_swapped_multipliers():
    res = run_family("BSpq", 1, 1)
    fam = family("BSpq", 1, 1)
    mults = dict(res.multipliers)
    mults["x"], mults["y"] = mults["y"], mults["x"]
    bad = check_axioms(fam.order, fam.presentation.relations, mults, res.identity)
    assert bad is not None
    relator, wit = bad
    assert isinstance(wit, tuple)  # a pair word witnesses the mismatch


def test_domain_check_flags_a_gutted_multiplier():
    res = run_family("BSpq", 1, 1)
    m = res.multipliers["x"]
    starved = Fsa(
        m.symbols,
        m.num_states,
        m.start,
        frozenset(),  # accepts nothing at all
        m.transitions,
        track=2,
    )
    mults = dict(res.multipliers)
    mults["x"] = starved
    gaps = check_domains(res.acceptor, mults)
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
        lambda rs, *a, **k: (real_kb(rs)[0], False),
    )
    res = run_family("BSpq", 2, 2)
    assert res.outcome == AXIOM_FAILED
    assert res.witness is not None


def test_pruning_keeps_the_language_and_the_verdict():
    plain = run_family("BSpq", 2, 2, prune=False)
    pruned = run_family("BSpq", 2, 2, prune=True)
    assert plain.outcome == pruned.outcome == VERIFIED
    assert plain.acceptor.equal_languages(pruned.acceptor) is None
    assert pruned.diff.state_count() <= plain.diff.state_count()
    assert pruned.raw_diff_count == plain.diff.state_count()


def test_confluent_and_history_acceptors_agree():
    fam = family("BSpq", 1, 1)
    rs = RewriteSystem.from_relations(fam.order, fam.presentation.relations)
    assert pipeline.run_knuth_bendix(rs) == (True, True)
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
