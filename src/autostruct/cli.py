"""Command-line surface.

One executable with subcommands for the whole workflow: compute and verify
a structure, run completion on its own, reduce words, query and combine
the emitted automata, and print the built-in example families.

Exit codes: 0 success (for `autostructure`: verified; for `accept`:
accepted; for `fsaop equal`: equal), 1 a negative query answer, 2 a run
that ended at its configured limits without verifying, 3 bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InputError
from .formats import (
    diff_to_fsa,
    parse_fsa,
    parse_presentation,
    parse_rules,
    serialize_fsa,
    serialize_presentation,
    serialize_rules,
)
from .pipeline import MAX_LOOPS, VERIFIED, compute_structure
from .presentations import FAMILY_NAMES, FamilySpec, builtin_family
from .rewrite import CONFLUENT, MAX_LEN, MAX_PAIRS, MAX_RULES, KbCompletion, RewriteSystem
from .words import format_word, parse_word


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for runs
    # that hit their limits, so usage problems become input errors
    def error(self, message):
        raise InputError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from e


def _file_token(sym: str) -> str:
    """Symbol as a safe file-name fragment; odd characters get escaped."""
    if all(c.isalnum() for c in sym):
        return sym
    return "".join(c if c.isalnum() else f"%{ord(c):02X}" for c in sym)


def _stop_line(stop: dict) -> list:
    # a stall has no limit value to name
    cap = stop["cap"] if stop["limit"] is None else f"{stop['cap']} cap {stop['limit']}"
    return [f"stopped by: {cap} in stage {stop['stage']}"]


# each field of a run's report, as its lines in report.txt; the multipliers
# are listed under one heading, M_e first
_REPORT_FORMAT = {
    "outcome": lambda v: [f"outcome: {v}"],
    "order": lambda v: [f"order: {v}"],
    "alphabet": lambda v: ["alphabet: " + " ".join(v)],
    "rules": lambda v: [f"rules: {v}"],
    "confluent": lambda v: [f"confluent: {'yes' if v else 'no'}"],
    "loops": lambda v: [f"correction loops: {v}"],
    "difference_states": lambda v: [f"difference machine states: {v}"],
    "difference_states_raw": lambda v: [
        f"difference machine states before pruning: {v}"
    ],
    "acceptor_states": lambda v: [f"word acceptor states: {v}"],
    "identity_states": lambda v: ["multiplier states:", f"  M_e: {v}"],
    "multiplier_states": lambda v: [f"  M_{g}: {n}" for g, n in v.items()],
    "witness": lambda v: [f"witness: {v!r}"],
    "stopped_by": _stop_line,
    "seconds": lambda v: [f"seconds: {v:.3f}"],
}


def _report_lines(res) -> list:
    """report.txt: the lines of each field of ``res.report()``, in order."""
    return [line for k, v in res.report().items() for line in _REPORT_FORMAT[k](v)]


def _cmd_autostructure(args) -> int:
    pres, order = parse_presentation(_read(args.file))
    res = compute_structure(
        order,
        pres.relations,
        kb_max_rules=args.kb_max_rules,
        kb_max_len=args.kb_max_len,
        max_loops=args.max_loops,
        prune=args.prune,
    )
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create {outdir}: {e.strerror or e}") from e
    # an earlier run's machines must not pass for this run's
    for old in [outdir / "D.fsa", outdir / "W.fsa", *outdir.glob("M_*.fsa")]:
        try:
            old.unlink(missing_ok=True)
        except OSError as e:
            raise InputError(f"cannot write {old}: {e.strerror or e}") from e
    _write(outdir / "R.rws", serialize_rules(res.rws))
    if res.diff is not None:
        _write(outdir / "D.fsa", serialize_fsa(*diff_to_fsa(res.diff)))
    if res.acceptor is not None:
        _write(outdir / "W.fsa", serialize_fsa(res.acceptor))
    if res.identity is not None:
        _write(outdir / "M_e.fsa", serialize_fsa(res.identity))
    for g, m in sorted(res.multipliers.items()):
        _write(outdir / f"M_{_file_token(g)}.fsa", serialize_fsa(m))
    _write(outdir / "report.txt", "\n".join(_report_lines(res)) + "\n")

    summary = f"{res.outcome} in {res.seconds:.2f}s"
    report = res.report()
    if "acceptor_states" in report:
        summary += (
            f": acceptor {report['acceptor_states']} states,"
            f" {report['difference_states']} word differences"
        )
    print(summary)
    return 0 if res.outcome == VERIFIED else 2


def _cmd_kbcomplete(args) -> int:
    pres, order = parse_presentation(_read(args.file))
    rs = RewriteSystem.from_relations(order, pres.relations)
    comp = KbCompletion(rs, max_rules=args.kb_max_rules, max_len=args.kb_max_len)
    # superpositions still queued once the pairs are spent
    stop = comp.run(args.max_pairs) or "pairs"
    text = serialize_rules(rs)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    caps = {
        "rules": args.kb_max_rules,
        "rule length": args.kb_max_len,
        "pairs": args.max_pairs,
    }
    said = stop if stop == CONFLUENT else f"stopped by {stop} cap {caps[stop]}"
    print(f"{said}: {rs.active_count()} rules", file=sys.stderr)
    return 0 if stop == CONFLUENT else 2


def _rules_path(path: str) -> str:
    p = Path(path)
    return str(p / "R.rws") if p.is_dir() else path


def _cmd_reduce(args) -> int:
    rs = parse_rules(_read(_rules_path(args.path)))
    w = parse_word(args.word, rs.order.alphabet)
    print(format_word(rs.rewrite(w)))
    return 0


def _word_machine(args, maxlen: int = 0):
    """The word machine a query command reads, its length bound checked."""
    a = parse_fsa(_read(args.fsa))
    if a.track != 1:
        raise InputError(f"{args.command} expects a word machine")
    if maxlen < 0:
        raise InputError("--maxlen must not be negative")
    return a


def _cmd_accept(args) -> int:
    a = _word_machine(args)
    w = parse_word(args.word, a.symbols)
    ok = a.accepts(w)
    print("accepted" if ok else "rejected")
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    a = _word_machine(args, args.maxlen)
    for w in a.enumerate_words(args.maxlen):
        print(format_word(w))
    return 0


def _cmd_growth(args) -> int:
    a = _word_machine(args, args.maxlen)
    for n in range(args.maxlen + 1):
        print(n, a.count_accepted(n))
    return 0


def _cmd_fsaop(args) -> int:
    a = parse_fsa(_read(args.a))
    two_sided = args.op in ("and", "or", "compose", "equal")
    if two_sided and args.b is None:
        raise InputError(f"fsaop {args.op} needs two machines")
    if not two_sided and args.b is not None:
        raise InputError(f"fsaop {args.op} takes one machine")
    b = parse_fsa(_read(args.b)) if args.b else None
    if b is not None and a.symbols != b.symbols:
        raise InputError(f"fsaop {args.op} needs two machines over one alphabet")
    if args.op == "compose" and a.track != 2:
        raise InputError("fsaop compose works on pair machines only")

    if args.op == "equal":
        wit = a.equal_languages(b)
        if wit is None:
            print("equal")
            return 0
        shown = (
            " ".join(",".join(p) for p in wit) if a.track == 2
            else format_word(wit)
        )
        print(f"different: {shown or 'e'}")
        return 1
    if args.op == "and":
        out = a.intersect(b)
    elif args.op == "or":
        out = a.union(b)
    elif args.op == "compose":
        out = a.compose(b)
    elif args.op == "min":
        out = a.minimized()
    else:  # not
        if a.track != 1:
            raise InputError("fsaop not works on word machines only")
        out = a.complement()
    sys.stdout.write(serialize_fsa(out))
    return 0


def _cmd_family(args) -> int:
    spec = FamilySpec(args.name, args.p, args.q)
    fam = builtin_family(spec, wirtinger=args.wirtinger)
    sys.stdout.write(serialize_presentation(fam.presentation, fam.order))
    return 0


def _build_parser() -> _Parser:
    top = _Parser(
        prog="autostruct",
        description="Automatic structures for finitely presented groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def kb_flags(p):
        p.add_argument("--kb-max-rules", type=int, default=MAX_RULES, metavar="N")
        p.add_argument("--kb-max-len", type=int, default=MAX_LEN, metavar="N")

    p = sub.add_parser(
        "autostructure", help="compute and verify an automatic structure"
    )
    p.add_argument("file", help="presentation file")
    p.add_argument(
        "-o", "--out", required=True,
        help="output directory; its D.fsa, W.fsa and M_*.fsa are removed first",
    )
    kb_flags(p)
    p.add_argument("--max-loops", type=int, default=MAX_LOOPS, metavar="N")
    p.add_argument(
        "--prune", action="store_true",
        help="once verified, keep only the word differences the"
        " multipliers walk through (in D.fsa and the report)",
    )
    p.set_defaults(run=_cmd_autostructure)

    p = sub.add_parser("kbcomplete", help="run completion on a presentation")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="rules file to write (default stdout)")
    kb_flags(p)
    p.add_argument("--max-pairs", type=int, default=MAX_PAIRS, metavar="N")
    p.set_defaults(run=_cmd_kbcomplete)

    p = sub.add_parser("reduce", help="reduce a word by a rules file")
    p.add_argument("path", help="rules file, or an output directory")
    p.add_argument("word")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("accept", help="test a word against a word acceptor")
    p.add_argument("fsa")
    p.add_argument("word")
    p.set_defaults(run=_cmd_accept)

    p = sub.add_parser("enumerate", help="list accepted words up to a length")
    p.add_argument("fsa")
    p.add_argument("--maxlen", type=int, required=True, metavar="N")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("growth", help="count accepted words per length")
    p.add_argument("fsa")
    p.add_argument("--maxlen", type=int, required=True, metavar="N")
    p.set_defaults(run=_cmd_growth)

    p = sub.add_parser("fsaop", help="combine or compare machine files")
    p.add_argument("op", choices=["and", "or", "not", "compose", "equal", "min"])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.set_defaults(run=_cmd_fsaop)

    p = sub.add_parser("family", help="print a built-in presentation")
    p.add_argument("name", choices=list(FAMILY_NAMES))
    p.add_argument("p", type=int, nargs="?", default=1)
    p.add_argument("q", type=int, nargs="?", default=1)
    p.add_argument(
        "--wirtinger", action="store_true",
        help="knots only: drop the extra leading generator",
    )
    p.set_defaults(run=_cmd_family)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
