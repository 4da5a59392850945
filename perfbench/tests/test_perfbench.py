"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import corpus
import queries
from autostruct import compute_structure
from oracles import Factors, free_words, normal_form
from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.tick(0.5), "leaf", mode="hot")

    def middle_body():
        clock.tick(1.0)
        leaf()
        leaf()
        clock.tick(2.0)

    middle = tracer.wrap(middle_body, "middle")

    def outer_body():
        clock.tick(3.0)
        middle()
        leaf()

    outer = tracer.wrap(outer_body, "outer")
    with tracer.span("case", case="c1") as root:
        outer()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (o,), (m,) = by_name["outer"], by_name["middle"]
    assert root["self_s"] == 0.0
    assert o["end"] - o["start"] == 7.5
    assert o["self_s"] == 3.0  # 7.5 minus middle (4.0) minus one leaf (0.5)
    assert m["self_s"] == 3.0  # 4 minus two leaves
    folded = {s["parent"]: s for s in by_name["leaf"]}
    assert folded[m["id"]]["calls"] == 2
    assert folded[m["id"]]["busy_s"] == 1.0
    assert folded[o["id"]]["calls"] == 1
    assert all(s["case"] == "c1" for s in tracer.spans)
    assert m["parent"] == o["id"] and o["parent"] == root["id"]


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError

    failing = tracer.wrap(boom, "boom", on_error=lambda a, k, e: {"error": type(e).__name__})
    try:
        failing()
    except ValueError:
        pass
    (s,) = tracer.spans
    assert s["self_s"] == 1.0 and s["error"] == "ValueError"
    assert tracer._stack == [[1.0, None]]


def _bspq11():
    (case,) = corpus.build_cases(["BSpq-1-1"])
    return compute_structure(case.order, case.relations)


def test_gate_accepts_the_pinned_case():
    res = _bspq11()
    pins = corpus.load_pins()["cases"]["BSpq-1-1"]
    assert corpus.check_record(corpus.record(res, corpus.bundle_texts(res)), pins) == []


def test_gate_fails_on_swapped_multipliers():
    res = _bspq11()
    m = res.multipliers
    m["x"], m["y"] = m["y"], m["x"]
    got = corpus.record(res, corpus.bundle_texts(res))
    bad = corpus.check_record(got, corpus.load_pins()["cases"]["BSpq-1-1"])
    assert any(line.startswith("multiplier_states") for line in bad)
    assert any(line.startswith("digests") for line in bad)


def test_gate_fails_on_a_wrong_pinned_size():
    res = _bspq11()
    pins = dict(corpus.load_pins()["cases"]["BSpq-1-1"])
    pins["acceptor_states"] += 1
    bad = corpus.check_record(corpus.record(res, corpus.bundle_texts(res)), pins)
    assert len(bad) == 1 and bad[0].startswith("acceptor_states")


def test_query_streams_repeat_for_equal_seeds():
    targets = [
        queries.Target("a", ("x", "X", "y", "Y"), 6),
        queries.Target("b", ("t", "T"), 3),
    ]
    one = queries.make_stream(7, targets, 500)
    assert one == queries.make_stream(7, targets, 500)
    assert one != queries.make_stream(8, targets, 500)
    assert len(one) % (len(targets) * len(queries.BLOCK)) == 0
    kinds = [k for k, _, _ in one]
    assert len({kinds.count(kind) for kind in queries.BLOCK}) == 1


def test_oracles_on_the_free_abelian_group():
    # the shortlex system of Z^2: generators commute, inverses cancel
    inv = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
    rules = [((a, inv[a]), ()) for a in inv]
    rules += [(("y", "x"), ("x", "y")), (("y", "X"), ("X", "y")),
              (("Y", "x"), ("x", "Y")), (("Y", "X"), ("X", "Y")),
              (("X", "x"), ()), (("x", "X"), ())]
    factors = Factors(lhs for lhs, _ in rules)
    words = free_words(("x", "X", "y", "Y"), factors, 3)
    assert [sum(1 for w in words if len(w) == n) for n in range(4)] == [1, 4, 8, 12]
    assert normal_form(("y", "X", "Y", "x", "x"), rules) == ("x",)


def test_benchmark_json_names_what_the_run_prints():
    import json
    from pathlib import Path

    import run
    from spans import layer_metrics

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = list(layer_metrics([], set())) + list(run.SERVED_UNITS)
    layers += ["trace.overhead_share"]
    layers += [f"case.{name}.s" for name in corpus.CASES]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in layers
    ]
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
