"""End-to-end computation and verification of an automatic structure.

The stages:

1. run Knuth-Bendix on the presentation's rules until the system is
   confluent, the rule-derived difference labels stop changing, or the
   caps bite;
2. trace the rules into a difference machine and close it;
3. build the word acceptor from the machine;
4. build the general multiplier from one product of two acceptor copies
   with the machine, on integer-packed states, once per loop: where the
   packed range can pass the state cap, one walk first finds its states
   against the cap, keeping them in arrays of machine integers, 32-bit
   while every packed state fits (an open-addressed table and the
   breadth-first list); then `explore` builds the product; it is
   minimized once, each state labelled with the generators whose target
   difference it holds, and M_g, that machine minimized under the states
   labelled g, is built only when read; plus the diagonal identity
   multiplier;
5. check every multiplier's domain equals the accepted language, by one
   search that runs W in step with the subset construction of the general
   multiplier's first track and records every generator's least gap word;
   a gap word feeds new differences back in and restarts from stage 3;
6. unless the rewriting system was confluent, check every defining
   relation (and every generator against its inverse): split each word
   into two halves, and search the two halves for a pair of distinct
   words the whole word relates, which exists exactly when the composite
   is not the identity multiplier.  Every half of one length j is a bit
   of one labelled machine, built by one composition of the machine for
   length j - 1 with the general multiplier (which is the machine for
   length 1), and the words whose halves have the same two lengths take
   one search for all of them, the words g.g^-1 one over the general
   multiplier against itself.  The searches run in the order of their
   first words, each building the levels it reads, and end at the first
   that comes after a failing word; a witness feeds back in, and if that
   adds nothing the structure is refuted.

The outcome is always one of VERIFIED, KB_STOPPED, LOOP_LIMIT or
AXIOM_FAILED, with the machines and counts gathered in the result.  When a
cap (a size budget or the number of correction loops) ends the run at
LOOP_LIMIT, ``stopped_by`` names the stage that was running, the cap and
its value (a size cap leaves no acceptor, multipliers or witness from an
earlier loop in the result); at KB_STOPPED it names stage "kb" and the completion cap that
fired.  A domain repair that adds no difference ends the run at
LOOP_LIMIT at once, with ``stopped_by`` naming stage "repair" and cap
"stalled" (no limit value), since every later loop would repeat it.

With ``prune=True`` a verified run then keeps only the differences its
multipliers walk through, as KBMAG's diff1 does beside the full set diff2,
closed under inversion alone, with moves recomputed (no prefix or suffix
closure, which would put the dropped labels back).  On a run that was not
confluent the restriction replaces D only if its acceptor is W.  W and the
multipliers are the verified machines either way.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .acceptor import build_acceptor, irreducible_word_acceptor
from .diff import EPS, DiffMachine, prefix_differences
from .errors import InputError, ResourceLimit
from .fsa import Fsa, _pad_kind, explore, in_step, pair_symbols
from .orders import Order
from .rewrite import (
    CONFLUENT, MAX_LEN, MAX_PAIRS, MAX_RULES, KbCompletion, RewriteSystem, is_confluent,
)
from .words import PAD, Word

VERIFIED = "verified"
KB_STOPPED = "kb-stopped"
LOOP_LIMIT = "loop-limit"
AXIOM_FAILED = "axiom-failed"

PASS_PAIRS = 500  # completion's pass size, spending MAX_PAIRS in all
MAX_PRODUCT_STATES = 100_000  # the multiplier product's states
MAX_LOOPS = 10  # correction loops


@dataclass
class StructureResult:
    """What a run of `compute_structure` found.

    - ``outcome``: VERIFIED, KB_STOPPED, LOOP_LIMIT or AXIOM_FAILED;
    - ``rws``, ``confluent``: the rewriting system as completion and repair
      left it, and whether completion found it confluent;
    - ``loops``: the checks that found a gap or a failing relator;
    - ``diff``, ``acceptor``, ``identity``: the last loop's difference
      machine D, word acceptor W and diagonal multiplier M_e;
    - ``multipliers``: the general multiplier that loop checked, a
      `GeneralMultiplier` whose ``fsa`` is its labelled machine.  As a
      mapping g -> M_g it builds each M_g when first read, and the run
      reads none.  ``{}`` when no loop built one;
    - ``witness``: the last loop's domain gap (g, word), or its failing
      relator with a padded pair word; None on a verified run;
    - ``raw_diff_count``: D's states before pruning, if pruning shrank D;
    - ``stopped_by``: the stage, cap and limit that ended the run;
    - ``seconds``: the run's wall time.
    """

    outcome: str
    rws: RewriteSystem
    confluent: bool
    loops: int
    diff: Optional[DiffMachine] = None
    acceptor: Optional[Fsa] = None
    multipliers: Mapping = field(default_factory=dict)
    identity: Optional[Fsa] = None
    witness: Optional[tuple] = None
    raw_diff_count: Optional[int] = None
    stopped_by: Optional[dict] = None  # {"stage", "cap", "limit"}
    seconds: float = 0.0

    @property
    def order(self) -> Order:
        return self.rws.order

    @property
    def verified(self) -> bool:
        return self.outcome == VERIFIED

    def report(self) -> dict:
        """The record of the finished run, in the order `report.txt` shows
        it; a field the run has no value for is left out."""
        fields = {
            "outcome": self.outcome,
            "order": self.order.kind,
            "alphabet": list(self.order.alphabet.symbols),
            "rules": self.rws.active_count(),
            "confluent": self.confluent,
            "loops": self.loops,
            "difference_states": self.diff and self.diff.state_count(),
            "difference_states_raw": self.raw_diff_count,
            "acceptor_states": self.acceptor and self.acceptor.num_states,
            "identity_states": self.identity and self.identity.num_states,
            "multiplier_states": {
                g: m.num_states for g, m in sorted(self.multipliers.items())
            } or None,
            "witness": self.witness,
            "stopped_by": self.stopped_by,
            "seconds": round(self.seconds, 3),
        }
        return {k: v for k, v in fields.items() if v is not None}


def _rule_labels(rs: RewriteSystem, cache: dict) -> frozenset:
    """The union of the difference labels of the active rules.

    A rule's labels are the reduced words inv(lhs[:i]).rhs[:i] and
    inv(rhs[:i]).lhs[:i].  They are worked out under the system as it
    stands when the rule's (lhs, rhs) is first seen, and cached by that
    pair, since rules persist across passes."""
    out = set()
    for lhs, rhs in rs.active():
        labels = cache.get((lhs, rhs))
        if labels is None:
            labels = cache[lhs, rhs] = frozenset(
                prefix_differences(rs, lhs, rhs) + prefix_differences(rs, rhs, lhs)
            )
        out |= labels
    return frozenset(out)


def run_knuth_bendix(
    rs: RewriteSystem, max_rules: int = MAX_RULES, max_len: int = MAX_LEN
) -> tuple:
    """Drive completion in passes of PASS_PAIRS superpositions until
    confluence or the difference labels derived from the rules stop
    moving.  Returns (confluent, stopped_by).  Where the labels stop,
    confluent says whether the active rules are confluent and still imply
    every relation completion has met (`KbCompletion.settled`), though
    superpositions may be left in its queue.  stopped_by is None when the
    run may go on, and when the caps won out first it names the one that
    fired: the cap `KbCompletion.run` names ("rules" or "rule length"), or
    "pairs" once MAX_PAIRS superpositions are spent."""
    comp = KbCompletion(rs, max_rules=max_rules, max_len=max_len)
    cache, prev = {}, None
    for spent in range(0, MAX_PAIRS, PASS_PAIRS):
        stop = comp.run(min(PASS_PAIRS, MAX_PAIRS - spent))
        if stop == CONFLUENT:
            return True, None
        snap = _rule_labels(rs, cache)
        if snap == prev:
            # is_confluent first: it fails on most runs that stop here, which
            # spares them the scan of the queue
            return is_confluent(rs) and comp.settled(), None
        prev = snap
        if stop is not None:
            return False, _stop("kb", stop, max_rules if stop == "rules" else max_len)
    return False, _stop("kb", "pairs", MAX_PAIRS)


def _stop(stage: str, cap: str, limit: Optional[int]) -> dict:
    # a stopped_by record; a stall has no limit value
    return {"stage": stage, "cap": cap, "limit": limit}


def _diagonal_multiplier(acc: Fsa) -> Fsa:
    # the pairs (g, g) rank in the order of their letters
    moves = [{(g, g): t for g, t in row.items()} for row in acc.moves]
    return Fsa(pair_symbols(acc.symbols), acc.start, acc.accepting, moves).minimized()


class GeneralMultiplier(Mapping):
    """Every generator's multiplier in one machine, as KBMAG's general
    multiplier keeps them.  ``fsa`` is a minimized track-2 machine whose
    states each carry a label (`Fsa.labels`): the mask of the generators
    accepting there, bit i for the i-th of ``gens``.

    As a mapping it gives each generator g its multiplier M_g: ``fsa``
    minimized under the states whose label has g's bit, built when first
    read and kept.  Minimization is canonical, so M_g has the bytes of the
    machine ``fsa`` was minimized from, minimized under g's states.  The
    domain and axiom checks search ``fsa`` itself, once for every
    generator, and read no M_g.  Assigning M_g replaces the machine kept
    for g, as a test injecting a fault does; ``fsa`` is left as it is."""

    def __init__(self, gens, fsa: Fsa):
        self.gens = tuple(gens)
        self.fsa = fsa
        self.index = {g: i for i, g in enumerate(self.gens)}  # g's bit number
        self._built = {}

    @classmethod
    def of(cls, mults: dict) -> "GeneralMultiplier":
        """The general multiplier of the given machines, {g: M_g} over one
        alphabet: their product, run in step, each state labelled with the
        generators accepting there, minimized under those labels."""
        machines = list(mults.values())
        start, successors, label = in_step(machines)
        raw, states = explore(machines[0].symbols, start, successors, label)
        labels = {i: label(states[i]) for i in raw.accepting}
        return cls(mults, raw.minimized(labels))

    def __getitem__(self, g) -> Fsa:
        m = self._built.get(g)
        if m is None:
            bit = 1 << self.index[g]
            m = self._built[g] = self.fsa.minimized(
                {s: 1 for s, label in enumerate(self.fsa.labels) if label & bit}
            )
        return m

    def __setitem__(self, g, m: Fsa) -> None:
        if g not in self.index:  # the keys stay the generators
            raise KeyError(g)
        self._built[g] = m

    def __iter__(self):
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)


def build_multiplier(
    acc: Fsa, diff: DiffMachine, targets: dict, max_states: int = MAX_PRODUCT_STATES
) -> GeneralMultiplier:
    """Every generator's multiplier from one product of two acceptor copies
    with the difference machine.

    The product's moves do not depend on the target, so it is built
    once; targets maps each generator to its target difference state.  The
    product is minimized once, labelled: each state whose difference is a
    target is labelled with the generators it is the target of, and Moore
    refinement starts from the partition by label.  That is the general
    multiplier, from which M_g is the machine minimized under the states
    labelled g (`GeneralMultiplier`).  A product state (v, w, d, mode) is
    packed into the integer ((v*|W| + w)*|D| + d)*3 + mode, where the mode
    is the pad kind read so far (see `_pad_kind`).  Each row of D's `fsa`
    is regrouped once by mode and track-1 letter; a product state walks W's
    row at v, each letter with the moves of D's row at d that read it, and
    looks track 2's letter up in W's row at w.

    The packed states lie below |W|^2 * |D| * 3, and one typecode for the
    first walk's arrays follows from that range (`_packed_typecode`):
    32-bit integers while it is below 2^31 (KNOT74's Wirtinger product
    reaches 1.02 * 10^9), 64-bit past that.  A packed state fits in a
    signed 64-bit integer: |W| is at most `acceptor.MAX_STATES` (150 000),
    so it could overflow only with |D| above about 10^8 states.

    Where the packed range can pass max_states, the product is walked
    twice with the same successors; below that it cannot pass the cap, and
    `explore` alone builds it.  The first walk keeps only the states,
    unboxed: the breadth-first list is an array of that typecode, and the
    states found so far sit in an open-addressed table, an array of
    2*max(max_states, 1) + 1 slots filled with -1 (no packed state is
    negative), probed linearly from a slot that mixes the state's bits.
    It counts the states against the state cap as it finds them, so a
    capped product holds no move and no int object beyond the one being
    checked.
    Both arrays are dropped before the second walk, which is `explore`
    over the same successors and so finds the states in the same order."""
    symbols = pair_symbols(acc.symbols)
    width = diff.fsa.num_states
    side = acc.num_states
    rows = acc.moves
    # the difference machine's rows regrouped by mode, in alphabet order:
    # (symbol, track-2 letter, packed d and mode after).  A move of pad kind
    # k is legal in modes 0 and k.  Those reading a track-1 letter are keyed
    # by it; the (PAD, b) moves, which come last, stand apart.  A padded
    # track 2 keeps its state, so its letter is None.
    reads, silent = [], []
    for row in diff.fsa.moves:
        by_letter = [{}, {}, {}]
        pads = [[], [], []]
        for sym, nd in row.items():
            a, b = sym
            k = _pad_kind(sym)
            move = (sym, None if b == PAD else b, nd * 3 + k)
            for mode in {0, k}:
                if a == PAD:
                    pads[mode].append(move)
                else:
                    by_letter[mode].setdefault(a, []).append(move)
        reads.append(by_letter)
        silent.append(pads)
    scale = width * 3  # of a (v, w) pair in a packed state

    def successors(state):
        rest, mode = divmod(state, 3)
        rest, d = divmod(rest, width)
        v, w = divmod(rest, side)
        row_w = rows[w]
        moves = reads[d][mode]
        if moves:
            for a, tv in rows[v].items():
                for sym, b, tail in moves.get(a, ()):
                    tw = w if b is None else row_w.get(b)
                    if tw is not None:
                        yield sym, (tv * side + tw) * scale + tail
        for sym, b, tail in silent[d][mode]:
            tw = row_w.get(b)
            if tw is not None:
                yield sym, (v * side + tw) * scale + tail

    start = (acc.start * side + acc.start) * width * 3 + EPS * 3
    # the first walk, only where the packed range can pass the cap: the
    # states alone.  The table holds at most max(max_states, 1) states, so
    # fewer than half its slots are taken and every probe ends at the
    # state or at a free slot (-1).  The states of one (v, w) pair are runs
    # of consecutive integers, which state % size would lay on runs of
    # slots that linear probing walks as one cluster; multiplying by the
    # 64-bit golden ratio first (Knuth's multiplicative hashing) spreads them
    if side * side * width * 3 > max_states:
        golden = 0x9E3779B97F4A7C15  # 2^64 over the golden ratio, odd
        code = _packed_typecode(side, width)
        size = 2 * max(max_states, 1) + 1
        table = array(code, [-1]) * size
        table[(start * golden >> 17) % size] = start
        states = array(code, [start])
        for state in states:
            for _, nxt in successors(state):
                slot = (nxt * golden >> 17) % size
                found = table[slot]
                while found != nxt:
                    if found < 0:
                        if len(states) >= max_states:
                            raise ResourceLimit("states", max_states)
                        table[slot] = nxt
                        states.append(nxt)
                        break
                    slot = slot + 1 if slot + 1 < size else 0
                    found = table[slot]
        del table, states
    # the product fits: explore builds it in the same order
    masks = {}  # each target, to the mask of the generators it is the target of
    for i, t in enumerate(targets.values()):
        masks[t] = masks.get(t, 0) | 1 << i
    raw, states = explore(
        symbols, start, successors, lambda s: s // 3 % width in masks
    )
    labels = {i: masks[states[i] // 3 % width] for i in raw.accepting}
    del states
    return GeneralMultiplier(targets, raw.minimized(labels))


def _packed_typecode(side: int, width: int) -> str:
    """The array typecode that holds every packed product state over an
    acceptor of side states and a difference machine of width states:
    32-bit while the |W|^2 * |D| * 3 packed values stay below 2^31,
    64-bit past that."""
    return "i" if side * side * width * 3 < 2**31 else "q"


def _multiplier_target(diff: DiffMachine, g: str) -> int:
    label = diff.rws.rewrite((g,))
    if label not in diff.index:
        # the trace of (g, label) ends at the empty difference and need not
        # pass through label, so the reduced label is added as a state of
        # its own before the one close; moves are recomputed from labels,
        # so that is sound.  close() caps its growth from the label count
        # it starts with, so a closure here that outgrows that cap stops at
        # "difference labels"
        diff.add_equation((g,), label)
        diff._add_label(label)
        diff.close()
    return diff.index[label]


def build_all_multipliers(acc: Fsa, diff: DiffMachine) -> tuple:
    """(the general multiplier, M_e).  Every target is resolved first,
    since resolving one may grow the machine the product reads."""
    targets = {g: _multiplier_target(diff, g) for g in diff.alpha.symbols}
    return build_multiplier(acc, diff, targets), _diagonal_multiplier(acc)


def check_domains(acc: Fsa, mults: GeneralMultiplier) -> list:
    """Words the acceptor takes but some multiplier cannot move, or that a
    multiplier moves but the acceptor rejects: for each generator g, in
    alphabet order, the least word whose acceptance by W differs from its
    acceptance as a first track of M_g.  One search over the general
    multiplier finds every generator's word (`Fsa.domain_gaps`)."""
    bits = [mults.index[g] for g in acc.symbols]
    gaps = mults.fsa.domain_gaps(acc, sum(1 << i for i in bits))
    return [(g, gaps[i]) for g, i in zip(acc.symbols, bits) if i in gaps]


def check_axioms(
    order: Order, relations, mults: GeneralMultiplier, identity: Fsa
) -> Optional[tuple]:
    """First relator (or generator-inverse word) r whose composed
    multiplier differs from the identity multiplier, with a padded pair
    word (s, w), s != w, that the composite accepts.  An empty relator
    holds trivially.  The relators come first, in order, then every
    generator against its inverse, in alphabet order.

    Each word r is split at k = len(r) // 2 into u = r[:k] and v = r[k:].
    The halves of one length j are all read from one labelled machine,
    level j, whose bits are the prefixes of length j some half needs:
    level 1 is the general multiplier itself, level j is level j - 1
    composed with it (`Fsa.compose` with bit pairs), the bit of p taking
    p[:-1]'s bit on the left and p[-1]'s on the right, and level 0, read
    only by a one-letter relator's empty half, is the identity
    multiplier, whose label is 1 where it accepts.  Then one reachability
    search per pair of half lengths, `Fsa.composite_distinct_pairs`,
    asks for every word of that pair at once, each word the bit pair of
    its two halves: for (s, x) under u's bit on the left and (x, w) under
    v's on the right with s != w.  The x track of the two halves may end
    at different times: a side finishes only from a state with the bit,
    reading (padding, padding), and stays finished, keeping its label.

    The groups are searched in the order of their first words, and a
    level is built when a group first reads it, carrying every prefix of
    its length that some half needs.  Once a word has failed, a group
    whose first word comes after it cannot name an earlier one, so the
    check stops there: a check that passes searches every group.

    Each witness is the one a search over M_u and M_v alone returns, M_u
    being u's multipliers composed letter by letter.  Minimization is
    canonical, so each bit of level j, minimized alone, has the bytes of
    that chain; a word's verdict at a node of the search is a function of
    the node, and the search meets each node first by its least triple
    word, the one the search over M_u and M_v meets first.

    This is exact because the check runs only after `check_domains` found
    no gap, so every M_g is total on L(W).  W is prefix-closed, every
    state accepting (see the acceptor module and
    `irreducible_word_acceptor`), so any word the second acceptor copy of
    the multiplier product reads lies in L(W): every M_g's second track
    lies in L(W).  Then every composite C = M_u o M_v is total on L(W),
    with domain exactly L(W), and C equals M_e, the diagonal of L(W),
    exactly when C relates no two distinct words: if it relates each u
    only to itself, totality gives it every (u, u).
    """
    alpha = order.alphabet
    words = [r for x, y in relations if (r := x + alpha.invert(y))]
    words += [(g, alpha.inverse[g]) for g in alpha.symbols]
    halves = [(r[: len(r) // 2], r[len(r) // 2 :]) for r in words]
    # the prefixes each level carries: every half, and every prefix of a
    # longer level's prefix
    need = {}
    for half in chain.from_iterable(halves):
        need.setdefault(len(half), set()).add(half)
    for j in range(max(need), 2, -1):
        need.setdefault(j - 1, set()).update(p[:-1] for p in need[j])
    # each level, with the bit of each prefix it carries, built when a
    # group first reads it
    general = mults.fsa
    levels = [(identity, {(): 0}), (general, {(g,): i for g, i in mults.index.items()})]
    # one search per pair of half lengths, in the order of its first word
    groups = {}
    for t, (u, v) in enumerate(halves):
        groups.setdefault((len(u), len(v)), []).append(t)
    failed = None  # the first failing word so far, with its witness
    for (a, b), members in groups.items():
        if failed is not None and failed[0] < members[0]:
            break
        while len(levels) <= max(a, b):
            below, at = levels[-1]
            prefixes = sorted(need[len(levels)])
            levels.append((
                below.compose(
                    general, [(at[p[:-1]], mults.index[p[-1]]) for p in prefixes]
                ),
                {p: k for k, p in enumerate(prefixes)},
            ))
        (left, at_left), (right, at_right) = levels[a], levels[b]
        found = left.composite_distinct_pairs(
            right, [(at_left[halves[t][0]], at_right[halves[t][1]]) for t in members]
        )
        if found:
            k = min(found)
            if failed is None or members[k] < failed[0]:
                failed = members[k], found[k]
    return failed and (words[failed[0]], failed[1])


def compute_structure(
    order: Order,
    relations,
    kb_max_rules: int = MAX_RULES,
    kb_max_len: int = MAX_LEN,
    max_loops: int = MAX_LOOPS,
    prune: bool = False,
) -> StructureResult:
    if max_loops < 0:
        raise InputError("the correction loops cap must not be negative")
    began = time.monotonic()
    relations = [(tuple(x), tuple(y)) for x, y in relations]
    rs = RewriteSystem.from_relations(order, relations)
    confluent, stopped_by = run_knuth_bendix(rs, kb_max_rules, kb_max_len)
    outcome, loops = KB_STOPPED, 0
    diff = acc = identity = witness = None
    mults = {}
    if stopped_by is None:
        # a run that ends neither verified nor refuted ends at a limit
        outcome = LOOP_LIMIT
        stage = "diff-close"  # what runs now, for stopped_by
        try:
            diff = DiffMachine.from_rules(rs)
            # a confluent system names its language directly (no factor may
            # be a left-hand side), and that does not move as the machine
            # grows
            exact_acc = irreducible_word_acceptor(rs) if confluent else None
            while True:
                stage = "acceptor"
                acc = exact_acc if exact_acc is not None else build_acceptor(diff)
                stage = "multipliers"
                mults, identity = build_all_multipliers(acc, diff)
                stage = "domains"
                gaps = check_domains(acc, mults)
                bad = None
                if not gaps and not confluent:
                    stage = "axioms"
                    bad = check_axioms(order, relations, mults, identity)
                witness = gaps[0] if gaps else bad
                if witness is None:
                    outcome = VERIFIED
                    break
                loops += 1
                if loops > max_loops:
                    stopped_by = _stop(stage, "correction loops", max_loops)
                    break
                stage = "repair"
                before = diff.state_count()
                for g, v in gaps:
                    _repair_step(rs, diff, confluent, v, g)
                if bad is not None:
                    # the witness is a padded pair word; the repair walks
                    # the relator starting from its first track
                    relator, wit = bad
                    u = rs.rewrite(tuple(g for g, _ in wit if g != PAD))
                    for a in relator:
                        u = _repair_step(rs, diff, confluent, u, a)
                diff.close()
                if diff.state_count() == before:
                    if bad is not None:
                        outcome = AXIOM_FAILED
                    else:
                        # the labels alone fix the machine, so every later
                        # loop would find the same gaps and repeat this one
                        stopped_by = _stop("repair", "stalled", None)
                    break
        except ResourceLimit as cap:
            # a capped loop leaves no machines of its own to report
            acc, mults, identity, witness = None, {}, None, None
            stopped_by = _stop(stage, cap.cap, cap.limit)

    res = StructureResult(
        outcome, rs, confluent, loops, diff=diff, acceptor=acc,
        multipliers=mults, identity=identity, witness=witness,
        stopped_by=stopped_by,
    )
    if prune and outcome == VERIFIED:
        _prune_verified(res)
    res.seconds = time.monotonic() - began
    return res


def _repair_step(
    rs: RewriteSystem, diff: DiffMachine, confluent: bool, u: Word, a: str
) -> Word:
    """Trace the step from u to u.a into the difference machine: w, the
    least word found for u.a, is traced against u.a and against u.
    Returns w."""
    w = rs.rewrite(u + (a,))
    if not confluent:
        # a confluent normal form is already the least word of its class,
        # so reduce would return it unchanged
        w = diff.reduce(w)
    diff.add_equation(u + (a,), w)
    diff.add_equation(u, w)
    return w


def _walked_differences(diff: DiffMachine, general: Fsa) -> set:
    """The D states met walking the general multiplier's moves from (start,
    EPS), each move read in D too.  It is trimmed under its labels, so
    these are the differences of every prefix of every pair some M_g
    accepts: those on the multiplier product's paths to a target, so D
    moves on each of their symbols.  D's own moves past them are not on
    those paths."""
    walk, steps = general.moves, diff.fsa.moves

    def successors(node):
        s, d = node
        step = steps[d]
        for sym, t in walk[s].items():
            yield sym, (t, step[sym])

    start = (general.start, diff.fsa.start)
    _, nodes = explore(general.symbols, start, successors, lambda n: False)
    return {d for _, d in nodes}


def _prune_verified(res: StructureResult) -> None:
    """Restrict the verified D to the states its multipliers walk through
    (those of ``res.multipliers.fsa``), closed under inversion.  The
    restriction's moves are recomputed from the same rewrites, so its
    multiplier product is the full product's induced subgraph on those
    states, which holds every path to a target: it would rebuild the
    verified multipliers, so they are not rebuilt.  W, M_e and M_g stay
    as verified; only ``res.diff`` changes, and on a run that was not
    confluent only if the restriction's acceptor is W."""
    diff = res.diff
    keep = _walked_differences(diff, res.multipliers.fsa)
    # a fixpoint, since in a non-confluent system the reduced inverse of a
    # reduced inverse need not be the label; close() made the full label
    # set closed under this map, so it stays inside it
    while not keep >= (inverses := {diff.inverse_state[d] for d in keep}):
        keep |= inverses
    if len(keep) == diff.state_count():  # nothing to drop
        return
    small = diff.restricted([diff.labels[d] for d in sorted(keep)])
    # a confluent run's W reads only the rules, not the machine
    if not res.confluent:
        try:
            acc = build_acceptor(small)
        except ResourceLimit:  # a capped rebuild keeps the full machine
            return
        if acc.equal_languages(res.acceptor) is not None:
            return
    res.raw_diff_count = diff.state_count()
    res.diff = small
