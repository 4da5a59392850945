"""Seeded query streams over finished machines.

The four kinds mirror the CLI commands that read a finished bundle:
``reduce`` (rewrite a word by R), ``accept`` (run a word through W),
``growth`` (count W's words of each length up to n) and ``enumerate``
(list W's words up to length n).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from oracles import Factors, WordMachine, normal_form, read_rules

# Each block of the stream asks every target each kind once, so the mix of
# kinds and targets is the same for every seed.  There is no record of how
# the CLI is used, so the mix is not drawn from real traffic: every kind
# weighs the same, and each walk (accepts, count_accepted, enumerate_words)
# and the rewrite get an equal share of the queries.
BLOCK = ("reduce", "accept", "growth", "enumerate")
WORD_LEN = (10, 200)
GROWTH_MAX = 12
ENUM_MAX = 6
# enumerate stops short of ENUM_MAX on machines that would list more words
# than this, so a single query stays within a few milliseconds
ENUM_WORDS = 5000


@dataclass(frozen=True)
class Target:
    """A finished bundle the queries read."""

    name: str
    symbols: tuple
    enum_cap: int


def enum_cap(growth: list) -> int:
    """Longest enumerate length whose word count stays within ENUM_WORDS."""
    cap, total = 1, 0
    for n, count in enumerate(growth[:ENUM_MAX + 1]):
        total += count
        if total > ENUM_WORDS:
            break
        cap = max(cap, n)
    return cap


def make_stream(seed: int, targets: list, n: int) -> list:
    """At least n queries (kind, target name, argument), in whole blocks.

    The seed draws the words and shuffles each block; growth and enumerate
    lengths cycle through their ranges block by block.  Equal seeds give
    equal streams."""
    rng = random.Random(seed)
    out = []
    b = 0
    while len(out) < n:
        block = []
        for t in targets:
            for kind in BLOCK:
                if kind in ("reduce", "accept"):
                    arg = tuple(
                        rng.choice(t.symbols) for _ in range(rng.randint(*WORD_LEN))
                    )
                elif kind == "growth":
                    arg = 1 + b % GROWTH_MAX
                else:
                    arg = 1 + b % t.enum_cap
                block.append((kind, t.name, arg))
        rng.shuffle(block)
        out += block
        b += 1
    return out


@dataclass
class Machines:
    """One parsed bundle: the rules, the word acceptor, the multipliers."""

    rules: object
    acceptor: object
    multipliers: dict


def prepare(stream: list, machines: dict) -> list:
    """Accept queries read the reduced form of their word, so the walk runs
    through the machine instead of rejecting within a few letters."""
    return [
        (kind, name, machines[name].rules.rewrite(arg) if kind == "accept" else arg)
        for kind, name, arg in stream
    ]


def answer(machines: dict, kind: str, name: str, arg):
    m = machines[name]
    if kind == "reduce":
        return m.rules.rewrite(arg)
    if kind == "accept":
        return m.acceptor.accepts(arg)
    if kind == "growth":
        return tuple(m.acceptor.count_accepted(n) for n in range(arg + 1))
    return tuple(m.acceptor.enumerate_words(arg))


def answers_digest(answers: list) -> str:
    return hashlib.sha256(repr(answers).encode("utf-8")).hexdigest()[:16]


class Checker:
    """Judges one target's answers against the oracles.

    Every reduce answer must contain no left-hand side; on a confluent
    system it must also equal the oracle's normal form, and every accept
    of a reduced word must be true.  Accept, growth and enumerate answers
    must match a walk of the acceptor read from its own text.
    """

    def __init__(self, texts: dict, confluent: bool):
        self.rules = read_rules(texts["R"])
        self.factors = Factors(lhs for lhs, _ in self.rules)
        self.machine = WordMachine(texts["W"])
        self.confluent = confluent
        self.growth = self.machine.growth(GROWTH_MAX)
        self._words = {}

    def ok(self, kind: str, arg, ans) -> bool:
        if kind == "reduce":
            if self.factors.occurs_in(ans):
                return False
            return not self.confluent or ans == normal_form(arg, self.rules)
        if kind == "accept":
            return ans == self.machine.accepts(arg) and (ans or not self.confluent)
        if kind == "growth":
            return list(ans) == self.growth[:arg + 1]
        if arg not in self._words:
            self._words[arg] = self.machine.words(arg)
        return list(ans) == self._words[arg]
