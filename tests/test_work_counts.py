"""Work counts of default runs, pinned exactly in data/work_counts.json.

A host's speed moves by up to 2x between runs of one tree, so no timer in
tier-1 can gate a slowdown; these counts do not move with the host.  Small
spies count, over one `compute_structure` run with its default caps:

- rewrite_calls, rewrite_letters: `RewriteSystem.rewrite` calls and the
  letters of the words they were given;
- kb_pops: `KbCompletion._pop` calls, the superpositions completion takes
  from its queue;
- explore_states: states `explore` expands, through its bindings in
  `fsa`, `acceptor` and `pipeline`;
- table_reads: reads of the multiplier product's first-walk table, as in
  `test_pipeline.test_first_walk_probes_spread_over_dense_keys`;
- minimized_calls, minimized_states_in, minimized_states_out: `Fsa.minimized`
  calls and the states of the machines they took and gave;
- search_expansions: nodes `search_forward` expands.

A change that moves a count re-pins them on purpose, by running this file
as a script, and gives the old and the new counts with the reason.
"""

import json
from pathlib import Path

import pytest

from autostruct import acceptor, fsa, pipeline
from autostruct.fsa import Fsa
from autostruct.pipeline import compute_structure
from autostruct.presentations import FamilySpec, builtin_family
from autostruct.rewrite import KbCompletion, RewriteSystem
from test_pipeline import CountingTable

PINNED = Path(__file__).resolve().parent / "data" / "work_counts.json"

# knots on their Wirtinger presentations
CASES = {
    "KNOT41": ("KNOT41", 1, 1),
    "KNOT52": ("KNOT52", 1, 1),
    "BSpq-8-8": ("BSpq", 8, 8),
    "BSpNegq-8-8": ("BSpNegq", 8, 8),
    "Hpq-6-1": ("Hpq", 6, 1),
    "BSpq-1-2": ("BSpq", 1, 2),
}


def work_counts(name, p, q) -> dict:
    """The counts of one default run of the named family."""
    fam = builtin_family(FamilySpec(name, p, q), wirtinger=name.startswith("KNOT"))
    counts = dict.fromkeys(
        ["rewrite_calls", "rewrite_letters", "kb_pops", "explore_states",
         "table_reads", "minimized_calls", "minimized_states_in",
         "minimized_states_out", "search_expansions"],
        0,
    )
    rewrite, pop, minimized = RewriteSystem.rewrite, KbCompletion._pop, Fsa.minimized
    explore, search_forward = fsa.explore, fsa.search_forward

    def counted(key, successors):
        def step(node):
            counts[key] += 1
            return successors(node)
        return step

    def rewrite_spy(self, w):
        counts["rewrite_calls"] += 1
        counts["rewrite_letters"] += len(w)
        return rewrite(self, w)

    def pop_spy(self):
        counts["kb_pops"] += 1
        return pop(self)

    def minimized_spy(self, *args):
        out = minimized(self, *args)
        counts["minimized_calls"] += 1
        counts["minimized_states_in"] += self.num_states
        counts["minimized_states_out"] += out.num_states
        return out

    def explore_spy(symbols, start, successors, *args, **kw):
        return explore(
            symbols, start, counted("explore_states", successors), *args, **kw
        )

    def search_spy(start, successors, *args):
        return search_forward(start, counted("search_expansions", successors), *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "rewrite", rewrite_spy)
        mp.setattr(KbCompletion, "_pop", pop_spy)
        mp.setattr(Fsa, "minimized", minimized_spy)
        for module in (fsa, acceptor, pipeline):
            mp.setattr(module, "explore", explore_spy)
        mp.setattr(fsa, "search_forward", search_spy)
        mp.setattr(pipeline, "array", lambda code, init: CountingTable(init))
        CountingTable.reads = 0
        compute_structure(fam.order, fam.presentation.relations)
        counts["table_reads"] = CountingTable.reads
    return counts


@pytest.mark.parametrize("case", list(CASES))
def test_work_counts_are_pinned(case):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[case]
    assert work_counts(*CASES[case]) == pinned


if __name__ == "__main__":
    # re-pin: python tests/test_work_counts.py, with src on the path
    counts = {case: work_counts(*spec) for case, spec in CASES.items()}
    PINNED.write_text(json.dumps(counts, indent=1) + "\n", encoding="utf-8")
