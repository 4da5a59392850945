"""Text formats: presentation files, rewriting systems, and automata.

Three line-based UTF-8 formats share one house style: `#` starts a comment,
blank lines are ignored, words are space-separated symbol names with `e`
spelling the empty word.  Serialization is deterministic, so equal objects
produce byte-identical files; automata are renumbered breadth-first from
the start state before writing.
"""

from __future__ import annotations

from typing import Optional

from .diff import DiffMachine
from .errors import InputError
from .fsa import Fsa, explore, pair_symbols
from .orders import KINDS, Order, WREATH, WTLEX, WTSHORTLEX
from .presentations import Presentation
from .rewrite import RewriteSystem
from .words import _RESERVED, PAD, Alphabet, Word


def _lines(text: str):
    """Meaningful lines with their 1-based numbers, comments stripped."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line.split()


def _fail(no: int, msg: str):
    raise InputError(f"line {no}: {msg}")


def _parse_int(no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(no, f"{what} must be an integer, got {token!r}")


def _after_version(text: str, version: list) -> tuple:
    """The meaningful lines after the version line, which must come first,
    and the number of the last one."""
    lines = list(_lines(text))
    if not lines or lines[0][1] != version:
        _fail(lines[0][0] if lines else 1, "file must start with: " + " ".join(version))
    return lines[1:], lines[-1][0]


# ------------------------------------------------------------ order block


class _OrderBlock:
    """Collects generator/inverse/order/lexorder/weight/level lines and
    builds the alphabet and order once all of them are in."""

    def __init__(self):
        self.generators = None
        self.inverse = {}
        self.kind = None
        self.lexorder = None
        self.weights = {}
        self.levels = {}
        self._line_of = {}  # (inverse, weight or level, symbol) -> first line

    def feed(self, no: int, toks: list) -> bool:
        """Consume one line if it belongs to the block."""
        key = toks[0]
        if key == "generators":
            if self.generators is not None:
                _fail(no, "second generators line")
            if len(toks) == 1:
                _fail(no, "generators line names no generators")
            self.generators = toks[1:]
        elif key == "inverse":
            if len(toks) != 3:
                _fail(no, "inverse takes exactly two symbols")
            g, h = toks[1], toks[2]
            if g in self.inverse and self.inverse[g] != h:
                _fail(no, f"conflicting inverse for {g!r}")
            self.inverse[g] = h
            self.inverse[h] = g
            for s in (g, h):
                self._line_of.setdefault((key, s), no)
        elif key == "order":
            if len(toks) != 2 or toks[1] not in KINDS:
                _fail(no, "order must name one of " + ", ".join(KINDS))
            if self.kind is not None:
                _fail(no, "second order line")
            self.kind = toks[1]
        elif key == "lexorder":
            if self.lexorder is not None:
                _fail(no, "second lexorder line")
            self.lexorder = toks[1:]
        elif key == "weight":
            if len(toks) != 3:
                _fail(no, "weight takes a symbol and an integer")
            w = _parse_int(no, toks[2], "weight")
            if self.weights.setdefault(toks[1], w) != w:
                _fail(no, f"conflicting weight for {toks[1]!r}")
            self._line_of.setdefault((key, toks[1]), no)
        elif key == "level":
            if len(toks) != 3:
                _fail(no, "level takes a symbol and an integer")
            lv = _parse_int(no, toks[2], "level")
            if self.levels.setdefault(toks[1], lv) != lv:
                _fail(no, f"conflicting level for {toks[1]!r}")
            self._line_of.setdefault((key, toks[1]), no)
        else:
            return False
        return True

    def build(self, last_no: int) -> Order:
        no = last_no
        if self.generators is None:
            _fail(no, "missing generators line")
        for g in self.generators:
            if g not in self.inverse:
                _fail(no, f"no inverse declared for generator {g!r}")
        symbols = []
        for g in self.generators:
            for s in (g, self.inverse[g]):
                if s not in symbols:
                    symbols.append(s)
        if self.lexorder is not None:
            if sorted(self.lexorder) != sorted(symbols):
                _fail(no, "lexorder must list every symbol exactly once")
            symbols = self.lexorder
        for (key, s), line in self._line_of.items():
            if s not in symbols:
                _fail(line, f"{key} line names unknown symbol {s!r}")
        kind = self.kind or "shortlex"

        weights = None
        if self.weights:
            if kind not in (WTLEX, WTSHORTLEX):
                _fail(no, f"weight lines make no sense under order {kind}")
            weights = {s: self.weights.get(s, 1) for s in symbols}
        elif kind in (WTLEX, WTSHORTLEX):
            _fail(no, f"order {kind} needs at least one weight line")

        levels = None
        if self.levels:
            if kind != WREATH:
                _fail(no, f"level lines make no sense under order {kind}")
            levels = {}
            for s, lv in self.levels.items():
                t = self.inverse.get(s, s)
                for u in (s, t):  # a level line covers the inverse too
                    old = levels.setdefault(u, lv)
                    if old != lv:
                        _fail(
                            self._line_of["level", s],
                            f"level of {u!r} conflicts with its inverse",
                        )
            missing = [s for s in symbols if s not in levels]
            if missing:
                _fail(no, f"no level declared for {missing[0]!r}")
        elif kind == WREATH:
            _fail(no, f"order {kind} needs level lines")

        alpha = Alphabet(symbols, self.inverse, weights=weights, levels=levels)
        return Order(alpha, kind)

    @staticmethod
    def serialize(order: Order) -> list:
        alpha = order.alphabet
        gens, seen = [], set()
        for s in alpha.symbols:
            if s not in seen:
                gens.append(s)
                seen.update((s, alpha.inverse[s]))
        out = ["generators " + " ".join(gens)]
        out += [f"inverse {g} {alpha.inverse[g]}" for g in gens]
        out.append("order " + order.kind)
        out.append("lexorder " + " ".join(alpha.symbols))
        if order.kind in (WTLEX, WTSHORTLEX):
            out += [f"weight {s} {alpha.weights[s]}" for s in alpha.symbols]
        if order.kind == WREATH:
            out += [f"level {g} {alpha.levels[g]}" for g in gens]
        return out


def _parse_side(no: int, toks: list, alpha: Alphabet) -> Word:
    if toks == ["e"]:
        return ()
    for t in toks:
        if t not in alpha:
            _fail(no, f"unknown symbol {t!r}")
    return tuple(toks)


def _read_entries(text: str, version: list, keyword: str, sep: str) -> tuple:
    """The reader that presentation and rules files share: a version line,
    then order-block lines and `keyword lhs sep rhs` lines.  Returns the
    order and the (line number, lhs tokens, rhs tokens) entries."""
    block = _OrderBlock()
    entries = []  # raw token lists until the alphabet exists
    lines, last_no = _after_version(text, version)
    for no, toks in lines:
        if toks[0] == keyword:
            body = toks[1:]
            if body.count(sep) != 1:
                _fail(no, f"{keyword} needs exactly one {sep}")
            i = body.index(sep)
            if not body[:i] or not body[i + 1:]:
                _fail(no, f"{keyword} side is empty; write e for the empty word")
            entries.append((no, body[:i], body[i + 1:]))
        elif not block.feed(no, toks):
            _fail(no, f"unrecognized directive {toks[0]!r}")
    return block.build(last_no), entries


# ----------------------------------------------------------- presentation


def parse_presentation(text: str) -> tuple:
    """Read a presentation file; returns (Presentation, Order)."""
    order, relations = _read_entries(text, ["version", "1"], "relation", "=")
    alpha = order.alphabet
    rels = tuple(
        (_parse_side(no, lhs, alpha), _parse_side(no, rhs, alpha))
        for no, lhs, rhs in relations
    )
    return Presentation(alpha, rels), order


def _side_text(w: Word) -> str:
    return " ".join(w) if w else "e"


def serialize_presentation(pres: Presentation, order: Order) -> str:
    out = ["version 1"]
    out += _OrderBlock.serialize(order)
    for x, y in pres.relations:
        out.append(f"relation {_side_text(x)} = {_side_text(y)}")
    return "\n".join(out) + "\n"


# ------------------------------------------------------- rewriting system


def parse_rules(text: str) -> RewriteSystem:
    """Read a rules file.  Free-reduction rules are implied by the
    alphabet and merged with the listed ones."""
    order, rules = _read_entries(text, ["rws", "version", "1"], "rule", "->")
    alpha = order.alphabet
    rs = RewriteSystem(order)
    have = set(rs.active())
    for no, lhs_toks, rhs_toks in rules:
        lhs = _parse_side(no, lhs_toks, alpha)
        rhs = _parse_side(no, rhs_toks, alpha)
        if (lhs, rhs) in have:
            continue
        if not lhs:
            _fail(no, "rule rewrites the empty word")
        if order.compare(rhs, lhs) >= 0:
            _fail(no, "rule is not oriented: right side must come earlier")
        rs.add_rule(lhs, rhs)
        have.add((lhs, rhs))
    return rs


def serialize_rules(rs: RewriteSystem) -> str:
    out = ["rws version 1"]
    out += _OrderBlock.serialize(rs.order)
    for lhs, rhs in rs.active():
        out.append(f"rule {_side_text(lhs)} -> {_side_text(rhs)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- automata


def _pair_text(sym: tuple) -> str:
    return f"{sym[0]},{sym[1]}"


def serialize_fsa(a: Fsa, labels: Optional[dict] = None) -> str:
    """Canonical text for a machine.

    States are renumbered breadth-first from the start state, written
    1-based, with each state's moves in turn, in alphabet order.
    labels, when given, maps original state numbers to words and is
    renumbered along with the states.
    """
    canon, order = explore(
        a.symbols, a.start, lambda s: a.moves[s].items(), a.accepting.__contains__
    )
    number = {s: i for i, s in enumerate(order)}
    carried = {number[s]: w for s, w in (labels or {}).items() if s in number}

    if a.track == 2:
        base = []
        for g, h in canon.symbols:
            for s in (g, h):
                if s != PAD and s not in base:
                    base.append(s)
        # pair_symbols preserves the base alphabet order, so rebuilding
        # from the pairs keeps the original generator sequence
        kind = "pair"
    else:
        base = list(canon.symbols)
        kind = "word"

    out = [
        "fsa version 1",
        f"type {kind}",
        "alphabet " + " ".join(base),
        f"pad {PAD}",
        f"states {canon.num_states}",
        f"start {canon.start + 1}",
        "accept" + "".join(f" {s + 1}" for s in sorted(canon.accepting)),
    ]
    for s in sorted(carried):
        out.append(f"label {s + 1} {_side_text(carried[s])}")
    for s, row in enumerate(canon.moves):
        for sym, t in row.items():
            lab = _pair_text(sym) if kind == "pair" else sym
            out.append(f"{s + 1} {lab} {t + 1}")
    return "\n".join(out) + "\n"


def parse_fsa(text: str) -> Fsa:
    """Read a machine file.  The result carries a state_labels attribute
    with any label lines, keyed by internal state number."""
    head = {}
    labels = {}
    move_lines = []
    lines, last_no = _after_version(text, ["fsa", "version", "1"])
    for no, toks in lines:
        key = toks[0]
        if key in ("type", "alphabet", "pad", "states", "start", "accept"):
            if key in head:
                _fail(no, f"second {key} line")
            head[key] = (no, toks[1:])
        elif key == "label":
            if len(toks) < 3:
                _fail(no, "label takes a state and a word")
            s = _parse_int(no, toks[1], "state")
            if s in labels:
                _fail(no, f"duplicate label for state {s}")
            labels[s] = (no, toks[2:])
        else:
            move_lines.append((no, toks))

    for key in ("type", "alphabet", "states", "start", "accept"):
        if key not in head:
            _fail(last_no, f"missing {key} line")
    no, toks = head["type"]
    if toks not in (["word"], ["pair"]):
        _fail(no, "type must be word or pair")
    track = 2 if toks == ["pair"] else 1
    no, base = head["alphabet"]
    if not base or len(set(base)) != len(base):
        _fail(no, "alphabet must list distinct symbols")
    for s in base:
        if s in _RESERVED:
            _fail(no, f"symbol name {s!r} is reserved")
        if "," in s:
            _fail(no, f"symbol name {s!r} contains a comma")
    if "pad" in head:
        no, toks = head["pad"]
        if toks != [PAD]:
            _fail(no, f"padding symbol must be {PAD}")
    no, toks = head["states"]
    num = _parse_int(no, toks[0], "states") if len(toks) == 1 else _fail(no, "states takes one number")
    if num < 1:
        _fail(no, "states must be at least 1")
    no, toks = head["start"]
    start = _parse_int(no, toks[0], "start") if len(toks) == 1 else _fail(no, "start takes one number")

    def state(no, i, what="state"):
        if not 1 <= i <= num:
            _fail(no, f"{what} {i} out of range 1..{num}")
        return i - 1

    start = state(head["start"][0], start, "start")
    no, toks = head["accept"]
    accepting = frozenset(state(no, _parse_int(no, t, "accept state")) for t in toks)

    symbols = pair_symbols(base) if track == 2 else tuple(base)
    base_set = set(base)

    def parse_sym(no, token):
        if track == 1:
            if token not in base_set:
                _fail(no, f"unknown symbol {token!r}")
            return token
        parts = token.split(",")
        if len(parts) != 2:
            _fail(no, f"pair label must be g,h; got {token!r}")
        for p in parts:
            if p != PAD and p not in base_set:
                _fail(no, f"unknown symbol {p!r}")
        if parts[0] == PAD and parts[1] == PAD:
            _fail(no, "a pair label cannot pad both tracks")
        return (parts[0], parts[1])

    moves = []
    for no, toks in move_lines:
        if len(toks) != 3:
            _fail(no, f"unrecognized line {' '.join(toks)!r}")
        src = state(no, _parse_int(no, toks[0], "state"))
        sym = parse_sym(no, toks[1])
        dst = state(no, _parse_int(no, toks[2], "state"))
        moves.append((no, toks[1], src, sym, dst))
    label_states = {
        state(no, s, "label state"): (no, toks) for s, (no, toks) in labels.items()
    }
    # every state is named by some line, as in every file this module
    # writes, so the rows allocated below are bounded by the file's length
    named = {start, *accepting, *label_states}
    for _no, _tok, src, _sym, dst in moves:
        named.update((src, dst))
    if len(named) < num:
        unnamed = next(i for i in range(num) if i not in named)
        _fail(head["states"][0], f"state {unnamed + 1} is named by no line")

    rows = [{} for _ in range(num)]
    for no, tok, src, sym, dst in moves:
        if sym in rows[src]:
            _fail(no, f"duplicate transition from {src + 1} on {tok}")
        rows[src][sym] = dst

    a = Fsa.from_rows(symbols, start, accepting, rows)
    a.validate()
    word_labels = {}
    for s, (no, toks) in label_states.items():
        word = () if toks == ["e"] else tuple(toks)
        unknown = [t for t in word if t not in base_set]
        if unknown:
            _fail(no, f"unknown symbol {unknown[0]!r} in label")
        word_labels[s] = word
    a.state_labels = word_labels
    return a


def diff_to_fsa(diff: DiffMachine) -> tuple:
    """A difference machine as a pair automaton plus a label table.

    The automaton is the machine's own `fsa`, not a copy: every state
    accepts, since acceptance differs per use (reaching a particular
    label), so the file records the shape and the labels.
    """
    return diff.fsa, dict(enumerate(diff.labels))
