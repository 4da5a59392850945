#!/usr/bin/env python3
"""Corpus benchmark for autostruct: time to verdict, loading, and queries.

Run from the repository root:

    python3 perfbench/run.py --workload knots-verify --seed 1 --seconds 5 --trace 0

One closed-loop client in one process, no threads.  A run has three phases:

1. set-up: about thirty fresh interpreters each import the package and
   build the workload's presentations; ``setup_s`` is their median wall
   time.  They run in batches before each case and after the last phase
   (see ``SetupSampler``), so the median spans the whole run;
2. verdict: every case of the workload, in an order shuffled by the seed,
   goes once through ``compute_structure``; ``verdict_s`` is the sum;
3. machines: rounds that parse the finished bundles (R, W and every M_*)
   back with ``parse_rules``/``parse_fsa`` and then answer a seeded stream
   of reduce/accept/growth/enumerate queries on the verified ones, until
   ``--seconds`` have passed and at least five rounds ran.  ``load_ms``,
   the latency percentiles and ``queries_per_s`` are medians over rounds.

Every case is checked against ``pinned.json`` and every query answer
against the oracles in ``oracles.py``, outside the timed regions.  A run
with any wrong answer exits with status 1.

The last line of standard output is one JSON object.  Its metrics are
``verdict_s``, ``peak_rss_mb`` and ``setup_s``; the machines-phase figures
are printed above it (``SERVED_UNITS`` says why they are not gated).  With
``--trace 1`` the run then repeats the verdict phase and one machines round
with spans around every layer (see ``spans.py``), and the JSON holds the
per-layer numbers and the machines-phase figures instead.  Results and
traces go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 30  # set-up samples per run, split over the batches
MIN_ROUNDS = 5
STREAM_LEN = 1000
REFERENCE_SEED, REFERENCE_LEN = 0, 200  # stream whose answer digest is pinned

END_TO_END_UNITS = {"verdict_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Measured in every run, but only the traced run reports them to the gate,
# as per-layer numbers without a bound: the machines phase lasts seconds,
# and its figures moved by 0.14 to 0.45 (quartile spread over median, two
# sets of ten seeds) with the speed of a shared 2-CPU host, while
# verdict_s, which averages over 30 to 60 seconds, stayed within 0.10 to
# 0.19.
SERVED_UNITS = {
    "load_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
}

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import corpus; "
    "corpus.build_cases(corpus.WORKLOADS[sys.argv[3]])"
)


def layer_unit(name: str) -> str:
    if name in SERVED_UNITS:
        return SERVED_UNITS[name]
    if name.endswith("share"):
        return "share"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def use_checkout_sources() -> None:
    if not (SRC / "autostruct" / "__init__.py").is_file():
        sys.exit(f"perfbench: no autostruct sources under {SRC}")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------- phases


class SetupSampler:
    """Wall times of fresh interpreters that import the package and build
    the workload's presentations.

    They run without site-packages processing (-S) and without PYTHON*
    variables (-E), so start-up hooks of the environment do not count, and
    bytecode is cached as a user's would be; a first, discarded run writes
    that cache.  A single interpreter takes under a tenth of a second, and
    the speed of a shared host drifts over seconds, so the samples are
    taken in `batches` batches spread over the run rather than all at
    once.  No timeout is passed: with one, the wait polls in sleeps of up
    to 50 ms, which would quantize the measurement."""

    def __init__(self, workload: str, batches: int):
        self.workload = workload
        self.batch = math.ceil(SETUP_RUNS / batches)
        self.times = []
        self._launch()

    def _launch(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-S", "-E", "-c", SETUP_CODE, str(SRC), str(HERE), self.workload],
            cwd=ROOT, check=True,
        )
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.times += [self._launch() for _ in range(self.batch)]

    def median(self) -> float:
        return statistics.median(self.times)


def verdict_phase(cases: list, tracer=None, before_case=None) -> tuple:
    """Each case once through the pipeline: wall seconds, bundle texts and
    gate records per case.  `before_case` runs before each case, outside
    the timed region."""
    from autostruct import compute_structure
    import corpus

    times, bundles, records = {}, {}, {}
    for case in cases:
        if before_case:
            before_case()
        gc.collect()
        ctx = tracer.span("case", case.name) if tracer else nullcontext()
        with ctx as rec:
            t0 = time.perf_counter()
            res = compute_structure(case.order, case.relations)
            times[case.name] = time.perf_counter() - t0
        if rec is not None:
            rec["loops"] = res.loops
            rec["difference_states"] = (
                None if res.diff is None else res.diff.state_count()
            )
        bundles[case.name] = corpus.bundle_texts(res)
        records[case.name] = corpus.record(res, bundles[case.name])
    return times, bundles, records


def load_bundles(bundles: dict) -> dict:
    from autostruct import formats
    from queries import Machines

    out = {}
    for name, texts in bundles.items():
        out[name] = Machines(
            rules=formats.parse_rules(texts["R"]),
            acceptor=formats.parse_fsa(texts["W"]) if "W" in texts else None,
            multipliers={
                k: formats.parse_fsa(v) for k, v in texts.items() if k.startswith("M_")
            },
        )
    return out


def machines_phase(bundles: dict, stream: list, seconds: float, min_rounds: int,
                   tracer=None) -> tuple:
    """Rounds of 'parse every bundle, then answer the whole stream on the
    parsed machines', as a CLI user loads and then queries, until `seconds`
    have passed and at least `min_rounds` rounds ran.

    Returns per round (load seconds, sorted query nanoseconds), the first
    round's answers, and the number of later answers that differ from
    them.  Later rounds compare each answer as it comes instead of keeping
    theirs, so the phase holds one round of answers and one set of parsed
    machines at a time, and its memory stays below the verdict phase's."""
    from queries import answer

    clock = time.perf_counter_ns
    rounds, first, drift = [], None, 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        machines = None
        gc.collect()
        with tracer.span("load", case="load") if tracer else nullcontext():
            t0 = time.perf_counter()
            machines = load_bundles(bundles)
            load_s = time.perf_counter() - t0
        lat, answers = [], []
        with tracer.span("queries", case="queries") if tracer else nullcontext():
            for i, (kind, name, arg) in enumerate(stream):
                t0 = clock()
                ans = answer(machines, kind, name, arg)
                lat.append(clock() - t0)
                if first is None:
                    answers.append(ans)
                else:
                    drift += ans != first[i]
        if first is None:
            first = answers
        rounds.append((load_s, sorted(lat)))
    return rounds, first, drift


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ------------------------------------------------------------ checking


def check_cases(records: dict, bundles: dict, pins: dict) -> dict:
    """Problems per case: pinned-record mismatches, parse round trips that
    change bytes, and the oracles of the confluent families."""
    from autostruct import serialize_fsa
    import corpus
    from oracles import Factors, free_words, read_rules

    problems = {}
    machines = load_bundles(bundles)
    for name, rec in records.items():
        bad = corpus.check_record(rec, pins["cases"][name])
        m = machines[name]
        for key, text in bundles[name].items():
            parsed = m.acceptor if key == "W" else m.multipliers.get(key)
            if parsed is not None and serialize_fsa(parsed) != text:
                bad.append(f"{key} changes bytes on a parse round trip")
        if rec["confluent"] and m.acceptor is not None:
            lhss = [lhs for lhs, _ in read_rules(bundles[name]["R"])]
            want = free_words(m.acceptor.symbols, Factors(lhss), 8)
            if list(m.acceptor.enumerate_words(8)) != want:
                bad.append("W words up to length 8 are not the words free of left-hand sides")
        if name == "BSpq-1-1" and m.acceptor is not None:
            growth = [m.acceptor.count_accepted(n) for n in range(13)]
            if growth != [1] + [4 * n for n in range(1, 13)]:
                bad.append(f"BSpq(1,1) growth {growth} is not 4n")
        if bad:
            problems[name] = bad
    return problems


def query_targets(cases: list, pins: dict, failed_cases) -> list:
    """The workload's verified bundles, in corpus order."""
    import corpus
    from queries import Target, enum_cap

    return [
        Target(c.name, c.symbols, enum_cap(pins["growth"][c.name]))
        for c in sorted(cases, key=lambda c: list(corpus.CASES).index(c.name))
        if pins["cases"][c.name]["outcome"] == "verified" and c.name not in failed_cases
    ]


def check_answers(stream: list, answers: list, bundles: dict, pins: dict) -> int:
    from queries import Checker

    checkers = {}
    bad = 0
    for (kind, name, arg), ans in zip(stream, answers):
        if name not in checkers:
            checkers[name] = Checker(bundles[name], pins["cases"][name]["confluent"])
        bad += not checkers[name].ok(kind, arg, ans)
    return bad


def reference_digest(targets: list, machines: dict) -> str:
    from queries import answer, answers_digest, make_stream, prepare

    stream = prepare(make_stream(REFERENCE_SEED, targets, REFERENCE_LEN), machines)
    return answers_digest([answer(machines, *q) for q in stream])


# ---------------------------------------------------------- provenance


def _commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(args) -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "autostruct").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------- main


def run(args) -> tuple:
    """Returns (metrics for the gate, metrics only printed, attempted,
    failed, problems, extra results to save).

    A case counts as failed once however many of its checks fail; every
    wrong or drifting query answer counts once, and so does a reference
    stream whose digest moved."""
    import corpus
    from queries import make_stream, prepare
    from spans import Tracer, layer_metrics

    pins = corpus.load_pins()
    cases = corpus.build_cases(corpus.WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(cases)

    # one batch of set-up samples before each case and one after the
    # machines phase
    setup = None if args.trace else SetupSampler(args.workload, len(cases) + 1)
    times, bundles, records = verdict_phase(cases, before_case=setup and setup.sample)
    problems = check_cases(records, bundles, pins)
    attempted = len(cases)
    machines = load_bundles(bundles)
    targets = query_targets(cases, pins, problems)
    stream = prepare(make_stream(args.seed, targets, STREAM_LEN), machines)

    rounds, answers, drift = machines_phase(bundles, stream, args.seconds, MIN_ROUNDS)
    if setup:
        setup.sample()
    attempted += len(stream) * len(rounds)
    med = statistics.median
    served = {
        "load_ms": med(load for load, _ in rounds) * 1e3,
        "query_p50_us": med(percentile(lat, 0.50) for _, lat in rounds) / 1e3,
        "query_p99_us": med(percentile(lat, 0.99) for _, lat in rounds) / 1e3,
        "queries_per_s": med(1e9 * len(lat) / sum(lat) for _, lat in rounds),
    }

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_times, traced_bundles, traced_records = verdict_phase(cases, tracer)
            _, traced_answers, _ = machines_phase(bundles, stream, 0, 1, tracer)
        finally:
            tracer.uninstall()
        attempted += len(cases) + len(stream)
        drift += sum(a != b for a, b in zip(traced_answers, answers))
        for name, bad in check_cases(traced_records, traced_bundles, pins).items():
            problems.setdefault(name, []).extend(f"traced run: {b}" for b in bad)

    failed = len(problems)
    wrong = check_answers(stream, answers, bundles, pins)
    if wrong or drift:
        problems["queries"] = [f"{wrong} wrong answers, {drift} answers changed between rounds"]
    ref = reference_digest(targets, machines)
    if ref != pins["queries"][args.workload]:
        problems["reference-stream"] = [f"answer digest {ref} differs from the pinned one"]
    attempted += 1
    failed += wrong + drift + (ref != pins["queries"][args.workload])

    verdict_s = sum(times.values())
    extra = {"case_seconds": times, "records": records}
    if setup:
        extra["setup_seconds"] = setup.times
    if args.trace:
        metrics = layer_metrics(tracer.spans, {c.name for c in cases})
        metrics.update(served)
        metrics["trace.overhead_share"] = (sum(traced_times.values()) - verdict_s) / verdict_s
        for name in corpus.CASES:
            metrics[f"case.{name}.s"] = times.get(name, 0.0)
        extra["tracer"] = tracer
        return {k: (v, layer_unit(k)) for k, v in metrics.items()}, {}, attempted, failed, problems, extra

    metrics = {
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup.median(),
    }
    gated = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return gated, {k: (v, SERVED_UNITS[k]) for k, v in served.items()}, attempted, failed, problems, extra


def main(argv=None) -> int:
    use_checkout_sources()
    import corpus

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prov = provenance(args)
    print("provenance " + json.dumps(prov), flush=True)
    metrics, printed, attempted, failed, problems, extra = run(args)

    for name, bad in sorted(problems.items()):
        for line in bad:
            print(f"FAILED {name}: {line}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {failed}, "
          f"failed_share {failed / attempted:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for name, (value, unit) in printed.items():
        print(f"  {name:34s} {value:14.6f} {unit}  (not gated; see SERVED_UNITS)")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "tracer" in extra:
        extra.pop("tracer").write(OUT / f"{stem}.spans.jsonl", prov)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "not_gated": printed, "problems": problems,
         **extra}, indent=1
    ))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
