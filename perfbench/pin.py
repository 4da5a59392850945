"""Pin the answers the benchmark gates on, from the current sources.

    python3 perfbench/pin.py

Runs every corpus case once (about a minute and a half on one core), then
writes pinned.json: each case's record, the growth series of each verified
word acceptor up to the longest growth query, and per workload the digest
of the reference query stream's answers.  Re-pin only for a change that is
meant to move outcomes, machine sizes or serialized bytes.
"""

import json

import run

run.use_checkout_sources()

import corpus  # noqa: E402
from queries import GROWTH_MAX  # noqa: E402


def main() -> None:
    cases = corpus.build_cases(corpus.CASES)
    _times, bundles, records = run.verdict_phase(cases)
    machines = run.load_bundles(bundles)
    pins = {
        "cases": records,
        "growth": {
            name: [machines[name].acceptor.count_accepted(n) for n in range(GROWTH_MAX + 1)]
            for name, rec in records.items()
            if rec["outcome"] == "verified"
        },
    }
    pins["queries"] = {}
    for workload, names in corpus.WORKLOADS.items():
        chosen = [c for c in cases if c.name in names]
        targets = run.query_targets(chosen, pins, set())
        pins["queries"][workload] = run.reference_digest(targets, machines)
    corpus.PINNED.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
