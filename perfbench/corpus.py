"""The benchmark corpus: cases, workloads, finished bundles and the answer gate.

A case is one bundled presentation run through ``compute_structure`` with
its default caps.  Its finished bundle is the set of texts the CLI's
``autostructure`` command writes (R.rws, D.fsa, W.fsa and one M_*.fsa per
generator plus the identity).  The gate compares each case's record, which
holds the outcome, the machine sizes and a digest of every bundle text,
with the record pinned in ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from autostruct import (
    FamilySpec,
    builtin_family,
    serialize_fsa,
    serialize_rules,
)
from autostruct.formats import diff_to_fsa

PINNED = Path(__file__).resolve().parent / "pinned.json"

# name -> (family, p, q); knot groups run on their Wirtinger presentations
CASES = {
    "BSpq-1-1": ("BSpq", 1, 1),
    "BSpq-2-2": ("BSpq", 2, 2),
    "BSpq-3-3": ("BSpq", 3, 3),
    "BSpNegq-1-1": ("BSpNegq", 1, 1),
    "Hpq-1-1": ("Hpq", 1, 1),
    "Hpq-2-1": ("Hpq", 2, 1),
    "HpNegq-1-1": ("HpNegq", 1, 1),
    "HpNegq-2-1": ("HpNegq", 2, 1),
    "BSpq-1-2": ("BSpq", 1, 2),
    "KNOT41": ("KNOT41", 1, 1),
    "KNOT52": ("KNOT52", 1, 1),
    "KNOT74": ("KNOT74", 1, 1),
}

WORKLOADS = {
    # both end verified after the axiom check: composition and
    # minimization of multipliers dominate
    "knots-verify": ("KNOT41", "KNOT52"),
    # the confluent wreath families, the unbalanced BSpq(1,2) whose repair
    # loop runs into the loop limit, and KNOT74 whose completion is large
    # and whose first multiplier product hits the state cap; nothing here
    # composes machines
    "wreath-and-limits": (
        "BSpq-1-1", "BSpq-2-2", "BSpq-3-3", "BSpNegq-1-1",
        "Hpq-1-1", "Hpq-2-1", "HpNegq-1-1", "HpNegq-2-1",
        "BSpq-1-2", "KNOT74",
    ),
}


@dataclass(frozen=True)
class Case:
    name: str
    order: object
    relations: tuple

    @property
    def symbols(self) -> tuple:
        return self.order.alphabet.symbols


def build_cases(names) -> list:
    out = []
    for name in names:
        family, p, q = CASES[name]
        fam = builtin_family(
            FamilySpec(family, p, q), wirtinger=family.startswith("KNOT")
        )
        out.append(Case(name, fam.order, fam.presentation.relations))
    return out


def bundle_texts(res) -> dict:
    """The files ``autostruct autostructure`` writes, keyed by stem."""
    texts = {"R": serialize_rules(res.rws)}
    if res.diff is not None:
        texts["D"] = serialize_fsa(*diff_to_fsa(res.diff))
    if res.acceptor is not None:
        texts["W"] = serialize_fsa(res.acceptor)
    if res.identity is not None:
        texts["M_e"] = serialize_fsa(res.identity)
    for g, m in sorted(res.multipliers.items()):
        texts[f"M_{g}"] = serialize_fsa(m)
    return texts


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record(res, texts: dict) -> dict:
    """Everything about a finished run that must not move when only speed
    is meant to change."""
    return {
        "outcome": res.outcome,
        "confluent": res.confluent,
        "loops": res.loops,
        "rules": res.rws.active_count(),
        "difference_states": (
            None if res.diff is None else res.diff.state_count()
        ),
        "acceptor_states": (
            None if res.acceptor is None else res.acceptor.num_states
        ),
        "multiplier_states": {
            g: m.num_states for g, m in sorted(res.multipliers.items())
        },
        "digests": {k: digest(v) for k, v in sorted(texts.items())},
    }


def check_record(got: dict, pinned: dict) -> list:
    """Fields whose value differs from the pinned one, as readable lines."""
    bad = []
    for key in sorted(set(got) | set(pinned)):
        if got.get(key) != pinned.get(key):
            bad.append(f"{key}: got {got.get(key)!r}, pinned {pinned.get(key)!r}")
    return bad


def load_pins() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))
