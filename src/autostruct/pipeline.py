"""End-to-end computation and verification of an automatic structure.

The stages:

1. run Knuth-Bendix on the presentation's rules until the system is
   confluent, the rule-derived difference labels stop changing, or the
   caps bite;
2. trace the rules into a difference machine and close it;
3. build the word acceptor from the machine;
4. build every generator's multiplier from one product of two acceptor
   copies with the machine, on integer-packed states, once per loop: one
   walk finds its states against the state cap, and a second builds its
   rows; M_g minimizes it under the states whose difference is g's
   target; plus the diagonal identity multiplier;
5. check every multiplier's domain equals the accepted language, by one
   search per generator that runs W in step with the subset construction
   of M_g's first track; a gap word feeds new differences back in and
   restarts from stage 3;
6. unless the rewriting system was confluent, check every defining
   relation (and every generator against its inverse): compose the
   multipliers of each half of the word, and search the two halves for a
   pair of distinct words the whole word relates, which exists exactly
   when the composite is not the identity multiplier; a witness feeds
   back in, and if that adds nothing the structure is refuted.

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
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Optional

from .acceptor import build_acceptor, irreducible_word_acceptor
from .diff import EPS, DiffMachine, prefix_differences
from .errors import InputError, ResourceLimit
from .fsa import Fsa, _pad_kind, explore, pair_symbols
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
    outcome: str
    rws: RewriteSystem
    confluent: bool
    loops: int
    diff: Optional[DiffMachine] = None
    acceptor: Optional[Fsa] = None
    multipliers: dict = field(default_factory=dict)
    identity: Optional[Fsa] = None
    witness: Optional[tuple] = None
    raw_diff_count: Optional[int] = None  # before pruning, if it shrank D
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


def build_multiplier(
    acc: Fsa, diff: DiffMachine, targets: dict, max_states: int = MAX_PRODUCT_STATES
) -> dict:
    """Every generator's multiplier from one product of two acceptor copies
    with the difference machine.

    The product's moves do not depend on the target, so it is built
    once; targets maps each generator to its target difference state, and
    M_g is the minimization of that one machine accepting where the
    difference is g's target, all from one copy of its moves.  A product
    state (v, w, d, mode) is packed into the integer
    ((v*|W| + w)*|D| + d)*3 + mode, where the mode is the pad kind read so
    far (see `_pad_kind`).  Each row of D's `fsa` is regrouped once by mode
    and track-1 letter; a product state walks W's row at v, each letter
    with the moves of D's row at d that read it, and looks track 2's letter
    up in W's row at w.

    The product is walked twice with the same successors.  The first walk
    keeps only the states, in breadth-first order, and counts them against
    the state cap as it finds them, so a capped product holds no move.
    The second numbers the states by that order and builds each row, which
    is `explore`'s numbering, rows and accepting states.  Returns
    {g: M_g}."""
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
    # the first walk: the states alone
    seen, states = {start}, [start]
    for state in states:
        for _, nxt in successors(state):
            if nxt not in seen:
                if len(states) >= max_states:
                    raise ResourceLimit("states", max_states)
                seen.add(nxt)
                states.append(nxt)
    del seen
    # the second walk: the rows
    number = dict(zip(states, count()))
    moves = [{sym: number[t] for sym, t in successors(s)} for s in states]
    del number
    hits = set(targets.values())
    by_target = {}
    for i, state in enumerate(states):
        d = state // 3 % width
        if d in hits:
            by_target.setdefault(d, []).append(i)
    raw = Fsa(symbols, 0, chain.from_iterable(by_target.values()), moves)
    return {g: raw.minimized(by_target.get(t, ())) for g, t in targets.items()}


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
    """({g: M_g}, M_e).  Every target is resolved first, since resolving
    one may grow the machine the product reads."""
    targets = {g: _multiplier_target(diff, g) for g in diff.alpha.symbols}
    return build_multiplier(acc, diff, targets), _diagonal_multiplier(acc)


def check_domains(acc: Fsa, mults: dict) -> list:
    """Words the acceptor takes but some multiplier cannot move, or that a
    multiplier moves but the acceptor rejects: for each generator g, the
    least word whose acceptance by W differs from its acceptance as a first
    track of M_g (`Fsa.domain_gap`)."""
    gaps = []
    for g in acc.symbols:
        wit = mults[g].domain_gap(acc)
        if wit is not None:
            gaps.append((g, wit))
    return gaps


def _compose_chain(mults: dict, letters: Word) -> Fsa:
    # every multiplier's first track lies in the accepted language, so
    # starting from the identity multiplier would change nothing
    out = mults[letters[0]]
    for a in letters[1:]:
        out = out.compose(mults[a])
    return out


def check_axioms(
    order: Order, relations, mults: dict, identity: Fsa
) -> Optional[tuple]:
    """First relator (or generator-inverse word) r whose composed
    multiplier differs from the identity multiplier, with a padded pair
    word (s, w), s != w, that the composite accepts.  An empty relator
    holds trivially.

    Each word r is split at k = len(r) // 2 into u = r[:k] and v = r[k:];
    M_u and M_v are composed (an empty half is the identity multiplier, a
    one-letter half M_g itself, and halves are shared between words), and
    one reachability search, `Fsa.composite_distinct_pair`, asks for
    (s, x) in M_u and (x, w) in M_v with s != w.  The x track of the two
    halves may end at different times: a side finishes only from an
    accepting state, reading (padding, padding), and stays finished.

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
    words = [x + alpha.invert(y) for x, y in relations]
    words += [(g, alpha.inverse[g]) for g in alpha.symbols]
    halves = {(): identity}

    def half(letters: Word) -> Fsa:
        m = halves.get(letters)
        if m is None:
            m = halves[letters] = _compose_chain(mults, letters)
        return m

    for r in words:
        if not r:
            continue
        k = len(r) // 2
        wit = half(r[:k]).composite_distinct_pair(half(r[k:]))
        if wit is not None:
            return r, wit
    return None


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


def _walked_differences(diff: DiffMachine, mults: dict) -> set:
    """The D states met walking each M_g in step with D from (start, EPS).
    Every M_g is trimmed, so these are the differences of every prefix of
    every pair it accepts: those on the multiplier product's paths to a
    target."""
    rows = diff.fsa.moves
    walked = set()
    for m in mults.values():

        def successors(node):
            s, d = node
            for sym, t in m.moves[s].items():
                yield sym, (t, rows[d][sym])

        nodes = explore(m.symbols, (m.start, EPS), successors, lambda n: False)[1]
        walked.update(d for _, d in nodes)
    return walked


def _prune_verified(res: StructureResult) -> None:
    """Restrict the verified D to the states its multipliers walk through,
    closed under inversion.  The restriction's moves are recomputed from
    the same rewrites, so its multiplier product is the full product's
    induced subgraph on those states, which holds every path to a target:
    it would rebuild the verified multipliers, so they are not rebuilt.
    W, M_e and M_g stay as verified; only ``res.diff`` changes, and on a
    run that was not confluent only if the restriction's acceptor is W."""
    diff = res.diff
    keep = _walked_differences(diff, res.multipliers)
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
