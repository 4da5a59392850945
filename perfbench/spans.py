"""Spans around the public functions of each layer, from outside the package.

``Tracer.install`` replaces functions and methods of ``autostruct`` with
timing wrappers and ``uninstall`` puts the originals back; nothing under
``src/`` is edited.  Each call to a wrapped function becomes a span with a
name, start, end, parent span and case id.  Self time is a span's duration
minus the durations of its direct children.  Functions called hundreds of
thousands of times (``rewrite``, ``compare``, ``accepts``, ``add_rule``)
are folded into one record per parent span and name, with a call count,
their summed duration and summed self time, so the trace stays small.

Names are patched where callers look them up: ``pipeline`` imports its
stage functions by name, so those are replaced in ``autostruct.pipeline``;
methods are replaced on their class.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager


def _states_out(args, kwargs, out) -> dict:
    return {"states_out": out.num_states}


def _minimized_sizes(args, kwargs, out) -> dict:
    return {"states_in": args[0].num_states, "states_out": out.num_states}


def _acceptor_states(args, kwargs, out) -> dict:
    return {"states": out.num_states}


def _multiplier_states(args, kwargs, out) -> dict:
    return {"states": sum(m.num_states for m in out[0].values())}


def _rules_active(args, kwargs, out) -> dict:
    return {"rules_active": args[0].active_count()}


def _product_cap(fn):
    sig = inspect.signature(fn)

    def on_error(args, kwargs, exc) -> dict:
        # the product stops as its state count reaches the cap
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"capped_at": bound.arguments.get("max_states")}

    return on_error


def _targets():
    """(owner, attribute, span name, mode, attrs on return, attrs on error).

    mode is "span", "hot" (folded per parent) or "list" (a generator
    function whose output is drained inside the span)."""
    from autostruct import diff, formats, fsa, orders, pipeline, rewrite

    return [
        (pipeline, "run_knuth_bendix", "rewrite.kb", "span", _rules_active, None),
        (rewrite.RewriteSystem, "add_rule", "rewrite.add_rule", "hot", None, None),
        (rewrite.RewriteSystem, "rewrite", "rewrite.rewrite", "hot", None, None),
        (orders.Order, "compare", "orders.compare", "hot", None, None),
        (diff.DiffMachine, "from_rules", "diff.from_rules", "span", None, None),
        (diff.DiffMachine, "close", "diff.close", "span", None, None),
        (diff.DiffMachine, "reduce", "diff.reduce", "span", None, None),
        (pipeline, "build_acceptor", "acceptor.build", "span", _acceptor_states, None),
        (pipeline, "irreducible_word_acceptor", "acceptor.irreducible", "span",
         _acceptor_states, None),
        (pipeline, "build_all_multipliers", "pipeline.multipliers", "span",
         _multiplier_states, None),
        (pipeline, "build_multiplier", "pipeline.build_multiplier", "span", None,
         _product_cap(pipeline.build_multiplier)),
        (pipeline, "check_domains", "pipeline.domains", "span", None, None),
        (pipeline, "check_axioms", "pipeline.axioms", "span", None, None),
        (fsa.Fsa, "compose", "fsa.compose", "span", _states_out, None),
        (fsa.Fsa, "minimized", "fsa.minimized", "span", _minimized_sizes, None),
        (fsa.Fsa, "accepts", "fsa.accepts", "hot", None, None),
        (fsa.Fsa, "count_accepted", "fsa.count_accepted", "span", None, None),
        (fsa.Fsa, "enumerate_words", "fsa.enumerate_words", "list", None, None),
        (formats, "parse_fsa", "formats.parse_fsa", "span", None, None),
        (formats, "parse_rules", "formats.parse_rules", "span", None, None),
    ]


class Tracer:
    """Spans kept in memory; ``write`` dumps them as JSON lines."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.case = None
        # open calls, innermost last: [child seconds, nearest span record]
        self._stack = [[0.0, None]]
        self._folded = {}
        self._saved = []

    # ---------------------------------------------------------- recording

    def _open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "case": self.case,
            "parent": None if self._stack[-1][1] is None else self._stack[-1][1]["id"],
            "start": self.clock(),
        }
        self.spans.append(rec)
        self._stack.append([0.0, rec])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = self.clock()
        child, _ = self._stack.pop()
        dur = rec["end"] - rec["start"]
        rec["self_s"] = dur - child
        self._stack[-1][0] += dur

    @contextmanager
    def span(self, name: str, case=None):
        """A span opened by the benchmark itself; ``case`` tags it and every
        span under it."""
        outer = self.case
        if case is not None:
            self.case = case
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            self.case = outer

    def _fold(self, name, owner, start, end, self_s):
        key = (None if owner is None else owner["id"], name)
        rec = self._folded.get(key)
        if rec is None:
            rec = {
                "id": len(self.spans),
                "name": name,
                "case": self.case if owner is None else owner["case"],
                "parent": key[0],
                "start": start,
                "end": end,
                "calls": 0,
                "busy_s": 0.0,
                "self_s": 0.0,
            }
            self._folded[key] = rec
            self.spans.append(rec)
        rec["end"] = end
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += self_s

    # ----------------------------------------------------------- wrapping

    def wrap(self, fn, name: str, mode: str = "span", on_return=None, on_error=None):
        tracer = self
        clock = self.clock
        stack = self._stack

        if mode == "hot":
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    stack[-1][0] += end - start
                    tracer._fold(name, frame[1], start, end, end - start - frame[0])
            return hot

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
                if mode == "list":
                    out = list(out)
            except Exception as exc:
                if on_error is not None:
                    rec.update(on_error(args, kwargs, exc))
                raise
            finally:
                tracer._close(rec)
            if on_return is not None:
                rec.update(on_return(args, kwargs, out))
            return iter(out) if mode == "list" else out
        return spanned

    def install(self) -> None:
        for owner, attr, name, mode, on_return, on_error in _targets():
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self.wrap(
                getattr(owner, attr), name, mode, on_return, on_error
            ))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"provenance": header}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


# ------------------------------------------------------------- metrics


def _outermost(spans: list, names: set) -> list:
    """Spans with a name in `names` that have no ancestor named so."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list, cases: set) -> dict:
    """Per-layer numbers from a traced run.  Construction layers count the
    spans of the pipeline cases; walks and parsing count the spans tagged
    with the load and query phases."""
    build = [s for s in spans if s["case"] in cases]
    walks = [s for s in spans if s["case"] in ("load", "queries")]

    def named(pool, name):
        return [s for s in pool if s["name"] == name]

    def total(pool, name, key):
        return sum(s.get(key) or 0 for s in named(pool, name))

    def calls(pool, name):
        return sum(s.get("calls", 1) for s in named(pool, name))

    def inclusive(pool, *names):
        return sum(s["end"] - s["start"] for s in _outermost(pool, set(names)))

    ids = {s["id"] for s in named(build, "pipeline.build_multiplier")}
    raw = sum(s["states_in"] for s in named(build, "fsa.minimized") if s["parent"] in ids)
    raw += total(build, "pipeline.build_multiplier", "capped_at")
    kb_ids = {s["id"] for s in named(build, "rewrite.kb")}
    states_in = total(build, "fsa.minimized", "states_in")
    states_out = total(build, "fsa.minimized", "states_out")
    case_spans = [s for s in build if s["name"] == "case"]
    return {
        "rewrite.kb.s": inclusive(build, "rewrite.kb"),
        "rewrite.kb.rules_added": sum(
            s["calls"] for s in named(build, "rewrite.add_rule") if s["parent"] in kb_ids
        ),
        "rewrite.kb.rules_active": total(build, "rewrite.kb", "rules_active"),
        "rewrite.rewrite.calls": calls(build, "rewrite.rewrite"),
        "rewrite.rewrite.self_s": total(build, "rewrite.rewrite", "self_s"),
        "orders.compare.calls": calls(build, "orders.compare"),
        "orders.compare.self_s": total(build, "orders.compare", "self_s"),
        "diff.build.s": inclusive(build, "diff.from_rules", "diff.close"),
        "diff.reduce.calls": calls(build, "diff.reduce"),
        "diff.reduce.self_s": total(build, "diff.reduce", "self_s"),
        "diff.states": sum(s["difference_states"] or 0 for s in case_spans),
        "acceptor.s": inclusive(build, "acceptor.build", "acceptor.irreducible"),
        "acceptor.states": total(build, "acceptor.build", "states")
        + total(build, "acceptor.irreducible", "states"),
        "pipeline.multipliers.s": inclusive(build, "pipeline.multipliers"),
        "pipeline.multipliers.states": total(build, "pipeline.multipliers", "states"),
        "pipeline.multipliers.states_raw": raw,
        "pipeline.domains.s": inclusive(build, "pipeline.domains"),
        "pipeline.axioms.s": inclusive(build, "pipeline.axioms"),
        "pipeline.loops": sum(s["loops"] for s in case_spans),
        "fsa.compose.calls": calls(build, "fsa.compose"),
        "fsa.compose.self_s": total(build, "fsa.compose", "self_s"),
        "fsa.compose.states_out": total(build, "fsa.compose", "states_out"),
        "fsa.minimized.calls": calls(build, "fsa.minimized"),
        "fsa.minimized.self_s": total(build, "fsa.minimized", "self_s"),
        "fsa.minimized.states_in": states_in,
        "fsa.minimized.states_out": states_out,
        "fsa.minimized.kept_share": states_out / states_in if states_in else 0.0,
        "fsa.accepts.self_s": total(walks, "fsa.accepts", "self_s"),
        "fsa.count_accepted.self_s": total(walks, "fsa.count_accepted", "self_s"),
        "fsa.enumerate_words.self_s": total(walks, "fsa.enumerate_words", "self_s"),
        "formats.parse_fsa.s": inclusive(walks, "formats.parse_fsa"),
        "formats.parse_rules.s": inclusive(walks, "formats.parse_rules"),
    }

