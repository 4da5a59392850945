"""Automatic structures for finitely presented groups under reduction orders."""

from .errors import InputError, LogicError, ResourceLimit
from .words import PAD, EMPTY, Word, Alphabet, parse_word, format_word
from .orders import LT, EQ, GT, SHORTLEX, WTLEX, WTSHORTLEX, WREATH, Order
from .rewrite import RewriteSystem, KbCompletion, is_confluent
from .fsa import Fsa, pair_symbols
from .diff import DiffMachine
from .acceptor import build_acceptor, irreducible_word_acceptor
from .pipeline import (
    AXIOM_FAILED,
    KB_STOPPED,
    LOOP_LIMIT,
    VERIFIED,
    StructureResult,
    build_all_multipliers,
    check_axioms,
    check_domains,
    compute_structure,
)
from .presentations import (
    FAMILY_NAMES,
    BuiltFamily,
    FamilySpec,
    Presentation,
    builtin_family,
    knot_presentation,
)
from .formats import (
    parse_fsa,
    parse_presentation,
    parse_rules,
    serialize_fsa,
    serialize_presentation,
    serialize_rules,
)

__all__ = [
    "InputError",
    "LogicError",
    "ResourceLimit",
    "PAD",
    "EMPTY",
    "Word",
    "Alphabet",
    "parse_word",
    "format_word",
    "LT",
    "EQ",
    "GT",
    "SHORTLEX",
    "WTLEX",
    "WTSHORTLEX",
    "WREATH",
    "Order",
    "RewriteSystem",
    "KbCompletion",
    "is_confluent",
    "Fsa",
    "pair_symbols",
    "DiffMachine",
    "build_acceptor",
    "irreducible_word_acceptor",
    "AXIOM_FAILED",
    "KB_STOPPED",
    "LOOP_LIMIT",
    "VERIFIED",
    "StructureResult",
    "build_all_multipliers",
    "check_axioms",
    "check_domains",
    "compute_structure",
    "FAMILY_NAMES",
    "BuiltFamily",
    "FamilySpec",
    "Presentation",
    "builtin_family",
    "knot_presentation",
    "parse_fsa",
    "parse_presentation",
    "parse_rules",
    "serialize_fsa",
    "serialize_presentation",
    "serialize_rules",
]
